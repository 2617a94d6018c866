//! A bedside client for serve mode: one real pump, scripted monitors.
//!
//! [`PcaBedClient`] is the counterpart of a [`crate::host::ServeHost`].
//! It runs a genuine [`PumpCore`] — the same pump state machine the
//! simulator's pump actor hosts, epoch fence, dedup window and
//! device-local fail-safe watchdog included — and drives it the way
//! the host drives its supervisor core: read the clock, fire every due
//! tick, then handle what arrived over the [`Transport`]. The monitors
//! (pulse oximeter, capnograph) are *scripted*: the driving test or
//! load generator injects vitals directly with
//! [`PcaBedClient::send_vital`], which is exactly what a load generator
//! or crash harness wants — full control over the physiology story
//! while the pump's safety behaviour stays real. The bed has no patient
//! model, so the drug the pump delivers goes nowhere.
//!
//! The pump core keeps no history; the client stamps the permission and
//! fail-safe records each call emits into its own [`History`], which is
//! where [`PcaBedClient::first_stop_at_or_after`] and the harnesses'
//! latch checks ([`PcaBedClient::history`]) read them.
//!
//! Endpoint numbering follows the standard PCA bed wiring: oximeter 0,
//! capnograph 1, pump 2, supervisor 3.

use crate::clock::ServeClock;
use crate::transport::{Transport, TransportError};
use mcps_core::msg::{NetAddress, NetOp, NetPayload};
use mcps_core::{CoreOutputs, History, PumpCore, PumpInput};
use mcps_device::pump::{PcaPump, PcaPumpConfig};
use mcps_net::fabric::EndpointId;
use mcps_patient::vitals::VitalKind;
use mcps_runtime::rng::{RngFactory, SimRng};
use mcps_runtime::time::SimTime;
use rand::Rng;
use std::time::{Duration, Instant};

/// The pulse oximeter's endpoint on a serve-mode bed.
pub const OX_EP: EndpointId = EndpointId::from_index(0);
/// The capnograph's endpoint.
pub const CAP_EP: EndpointId = EndpointId::from_index(1);
/// The pump's endpoint.
pub const PUMP_EP: EndpointId = EndpointId::from_index(2);
/// The supervisor's endpoint.
pub const SUP_EP: EndpointId = EndpointId::from_index(3);

/// Re-dial policy for a client with a [`dialer`](PcaBedClient::with_reconnect):
/// bounded exponential backoff with multiplicative jitter.
///
/// Attempt `n` (zero-based) waits `min(max_ms, base_ms * 2^n)` scaled
/// by a uniform factor in `[0.5, 1.5)` drawn from a seeded stream —
/// deterministic per seed, but a fleet of beds with distinct seeds
/// won't stampede a restarted host in lockstep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconnectPolicy {
    /// First-attempt backoff, in wall milliseconds.
    pub base_ms: u64,
    /// Backoff ceiling, in wall milliseconds.
    pub max_ms: u64,
    /// Seed for the jitter stream.
    pub jitter_seed: u64,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy { base_ms: 20, max_ms: 2_000, jitter_seed: 11 }
    }
}

/// One PCA bed talking to a remote supervisor over a transport.
pub struct PcaBedClient<T: Transport> {
    pump: PumpCore,
    /// The pump core's output buffer; tracing is always off on the bed.
    out: CoreOutputs,
    /// The pump's permission and fail-safe transitions.
    history: History,
    next_tick: SimTime,
    /// Commands and button presses not yet handed to the pump.
    pending: Vec<PumpInput>,
    transport: T,
    clock: ServeClock,
    closed: bool,
    /// Produces a fresh transport on re-dial (`None` = dial failed,
    /// try again later). Absent: a transport error is permanent.
    dialer: Option<Box<dyn FnMut() -> Option<T>>>,
    policy: ReconnectPolicy,
    jitter: SimRng,
    attempt: u32,
    next_dial_at: Option<Instant>,
    reconnects: u64,
    dial_failures: u64,
}

impl<T: Transport> std::fmt::Debug for PcaBedClient<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PcaBedClient").field("closed", &self.closed).finish()
    }
}

impl<T: Transport> PcaBedClient<T> {
    /// A bed with a default command-mode pump, fail-safe watchdog
    /// armed, clock running at `speed` sim-seconds per wall-second.
    pub fn new(transport: T, speed: f64) -> Self {
        let pump = PumpCore::new(PcaPump::new(PcaPumpConfig::default()), PUMP_EP)
            .with_supervision()
            .with_fast_reannounce();
        PcaBedClient {
            pump,
            out: CoreOutputs::new(),
            history: History::new(),
            next_tick: SimTime::ZERO,
            pending: Vec::new(),
            transport,
            clock: ServeClock::new(speed),
            closed: false,
            dialer: None,
            policy: ReconnectPolicy::default(),
            jitter: RngFactory::new(11).stream("bed-reconnect"),
            attempt: 0,
            next_dial_at: None,
            reconnects: 0,
            dial_failures: 0,
        }
    }

    /// Arms automatic reconnection: on a transport error the client
    /// re-dials via `dialer` under `policy`'s backoff, re-announces its
    /// monitors on success, and resumes. (The pump re-associates
    /// itself through its own announces — at the fast unsupervised
    /// retry cadence, so one corrupted announce does not cost a full
    /// announce period.) Without this, a transport error permanently
    /// closes the client.
    pub fn with_reconnect(
        mut self,
        dialer: impl FnMut() -> Option<T> + 'static,
        policy: ReconnectPolicy,
    ) -> Self {
        self.dialer = Some(Box::new(dialer));
        self.policy = policy;
        self.jitter = RngFactory::new(policy.jitter_seed).stream("bed-reconnect");
        self
    }

    /// Successful re-dials so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Failed dial attempts so far.
    pub fn dial_failures(&self) -> u64 {
        self.dial_failures
    }

    /// The client's position on the (sped-up) simulation timeline.
    pub fn sim_now(&self) -> SimTime {
        self.clock.sim_now()
    }

    /// Whether the server side of the transport has gone away.
    pub fn server_closed(&self) -> bool {
        self.closed
    }

    /// Announces the two scripted monitors to the supervisor so the
    /// interlock's oximeter and capnograph slots can associate.
    pub fn announce_monitors(&mut self) {
        let ox = mcps_device::monitor::pulse_oximeter("OX-1");
        let cap = mcps_device::monitor::capnograph("CAP-1");
        for (ep, profile) in [(OX_EP, ox.profile().clone()), (CAP_EP, cap.profile().clone())] {
            self.push(NetOp::Deliver {
                from: ep,
                payload: NetPayload::Announce { profile, endpoint: ep },
            });
        }
    }

    /// Injects one vitals sample as if the matching monitor measured it
    /// now (SpO₂ comes from the oximeter endpoint, respiration from the
    /// capnograph).
    pub fn send_vital(&mut self, kind: VitalKind, value: f64) {
        let from = match kind {
            VitalKind::Spo2 => OX_EP,
            _ => CAP_EP,
        };
        self.push(NetOp::Deliver {
            from,
            payload: NetPayload::Data { kind, value, sampled_at: self.clock.sim_now() },
        });
    }

    /// The patient presses the bolus button (handled at the next
    /// [`Self::step`]).
    pub fn press_button(&mut self) {
        self.pending.push(PumpInput::PressButton);
    }

    /// One client round: attempt any due re-dial, read the clock once,
    /// collect the pump's commands from the supervisor, fire every due
    /// pump tick, then hand the pump what arrived — forwarding
    /// everything it sends. Safe to call after the server has died —
    /// the bed keeps running (that is the point of the crash harness),
    /// and with a dialer armed it finds its way back.
    pub fn step(&mut self) {
        self.try_reconnect();
        let now = self.clock.sim_now();
        while !self.closed {
            match self.transport.try_recv() {
                // Only the pump lives here, and it takes commands
                // addressed to its endpoint. Everything else (topic
                // traffic, acks to the scripted monitors) has no
                // consumer on this bed.
                Ok(Some(NetOp::Send {
                    from,
                    to: NetAddress::Endpoint(PUMP_EP),
                    payload: NetPayload::Command { id, epoch, command },
                })) => self.pending.push(PumpInput::Command { from, id, epoch, command }),
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => self.on_disconnect(),
            }
        }
        while self.next_tick <= now {
            let at = self.next_tick;
            self.dispatch(at, PumpInput::Tick);
            self.next_tick = at + PumpCore::STEP;
        }
        for i in 0..self.pending.len() {
            self.dispatch(now, self.pending[i]);
        }
        self.pending.clear();
    }

    /// Whether the pump currently permits bolus delivery.
    pub fn is_permitted(&self) -> bool {
        self.pump.pump().is_permitted(self.clock.sim_now())
    }

    /// First instant at or after `at` the pump's delivery permission
    /// dropped (a stop command or the fail-safe latch).
    pub fn first_stop_at_or_after(&self, at: SimTime) -> Option<SimTime> {
        self.history.first_stop_at_or_after(at)
    }

    /// The pump's permission and fail-safe transitions so far.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// The bed's pump core, for deeper assertions.
    pub fn pump(&self) -> &PumpCore {
        &self.pump
    }

    /// The pump core's output buffer (its cumulative trace counters).
    pub fn outputs(&self) -> &CoreOutputs {
        &self.out
    }

    /// Feeds one input to the pump, records its transitions and
    /// forwards what it sends: every bed device talks only to the
    /// supervisor, so the transport is the route.
    fn dispatch(&mut self, at: SimTime, input: PumpInput) {
        self.out.begin(false);
        self.pump.handle(at, input, &mut self.out);
        self.history.extend(at, &self.out.records);
        let mut sends = std::mem::take(&mut self.out.sends);
        for (_, payload) in sends.drain(..) {
            self.push(NetOp::Deliver { from: PUMP_EP, payload });
        }
        self.out.sends = sends;
    }

    fn push(&mut self, op: NetOp) {
        if self.closed {
            return;
        }
        match self.transport.send(&op) {
            Ok(()) => {}
            Err(TransportError::Closed) | Err(TransportError::Io(_)) => self.on_disconnect(),
        }
    }

    /// Marks the link down and, with a dialer armed, schedules the
    /// next dial attempt under the backoff policy.
    fn on_disconnect(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        if self.dialer.is_some() {
            self.schedule_dial();
        }
    }

    fn schedule_dial(&mut self) {
        let expo = self
            .policy
            .base_ms
            .saturating_mul(1u64.checked_shl(self.attempt).unwrap_or(u64::MAX))
            .min(self.policy.max_ms);
        let jitter: f64 = self.jitter.gen_range(0.5..1.5);
        let delay_ms = (expo as f64 * jitter).round() as u64;
        self.next_dial_at = Some(Instant::now() + Duration::from_millis(delay_ms));
    }

    /// Attempts a scheduled re-dial, if one is due.
    fn try_reconnect(&mut self) {
        if !self.closed || self.dialer.is_none() {
            return;
        }
        let Some(due) = self.next_dial_at else { return };
        if Instant::now() < due {
            return;
        }
        let dialed = self.dialer.as_mut().expect("checked dialer")();
        match dialed {
            Some(transport) => {
                self.transport = transport;
                self.closed = false;
                self.attempt = 0;
                self.next_dial_at = None;
                self.reconnects += 1;
                // Monitors are scripted (no actor re-announces them):
                // do it here so the interlock can re-associate. The
                // pump's own periodic announce re-binds its endpoint.
                self.announce_monitors();
            }
            None => {
                self.dial_failures += 1;
                self.attempt = self.attempt.saturating_add(1);
                self.schedule_dial();
            }
        }
    }
}
