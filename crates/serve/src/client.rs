//! A bedside client for serve mode: one real pump, scripted monitors.
//!
//! [`PcaBedClient`] is the counterpart of a [`crate::host::ServeHost`].
//! It embeds a genuine [`PumpActor`] — the same device model the
//! simulator runs, device-local fail-safe watchdog included — inside a
//! tiny event loop, and speaks to the remote supervisor over a
//! [`Transport`]. The monitors (pulse oximeter, capnograph) are
//! *scripted*: the driving test or load generator injects vitals
//! directly with [`PcaBedClient::send_vital`], which is exactly what a
//! load generator or crash harness wants — full control over the
//! physiology story while the pump's safety behaviour stays real.
//!
//! Endpoint numbering follows the standard PCA bed wiring: oximeter 0,
//! capnograph 1, pump 2, supervisor 3.

use crate::clock::ServeClock;
use crate::transport::{Transport, TransportError};
use mcps_core::actors::{PumpActor, LOCAL_FAILSAFE_DEADLINE};
use mcps_core::msg::{NetAddress, NetOp, NetPayload};
use mcps_core::{IceMsg, PatientBody};
use mcps_device::pump::{PcaPump, PcaPumpConfig};
use mcps_net::fabric::EndpointId;
use mcps_patient::patient::{PatientParams, VirtualPatient};
use mcps_patient::vitals::VitalKind;
use mcps_runtime::prelude::{Actor, ActorId, Context, Simulation};
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

/// Collects the pump's outgoing traffic in place of a network fabric.
#[derive(Debug, Default)]
struct Relay {
    outbound: Vec<NetOp>,
}

impl Actor<IceMsg> for Relay {
    fn handle(&mut self, msg: IceMsg, _ctx: &mut Context<'_, IceMsg>) {
        if let IceMsg::Net(NetOp::Send { from, payload, .. }) = msg {
            // Everything a bed device emits is headed for the
            // supervisor; the transport is the route.
            self.outbound.push(NetOp::Deliver { from, payload });
        }
    }
}

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
    sim: Simulation<IceMsg>,
    relay: ActorId,
    pump: ActorId,
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
        let mut sim = Simulation::new(7);
        let relay = sim.add_actor("relay", Relay::default());
        let body = PatientBody::new(VirtualPatient::new(PatientParams::default()));
        let pump_actor =
            PumpActor::new(PcaPump::new(PcaPumpConfig::default()), body, relay, PUMP_EP)
                .with_supervision(LOCAL_FAILSAFE_DEADLINE)
                .with_fast_reannounce();
        let pump = sim.add_actor("pump", pump_actor);
        sim.schedule(SimTime::ZERO, pump, IceMsg::Tick);
        PcaBedClient {
            sim,
            relay,
            pump,
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

    /// The patient presses the bolus button.
    pub fn press_button(&mut self) {
        let at = self.clock.sim_now();
        self.sim.schedule(at, self.pump, IceMsg::PressButton);
    }

    /// One client round: attempt any due re-dial, deliver traffic from
    /// the supervisor to the pump, advance the bed simulation to
    /// wall-now, forward the pump's outgoing traffic. Safe to call
    /// after the server has died — the bed keeps running (that is the
    /// point of the crash harness), and with a dialer armed it finds
    /// its way back.
    pub fn step(&mut self) {
        self.try_reconnect();
        loop {
            if self.closed {
                break;
            }
            match self.transport.try_recv() {
                Ok(Some(NetOp::Send { from, to, payload })) => {
                    // Only the pump lives here; traffic for other
                    // destinations (checkpoint topics, monitor acks)
                    // has no consumer on this bed.
                    let for_pump = matches!(to, NetAddress::Endpoint(ep) if ep == PUMP_EP)
                        || matches!(to, NetAddress::Topic(_));
                    if for_pump {
                        let at = self.clock.sim_now();
                        self.sim.schedule(
                            at,
                            self.pump,
                            IceMsg::Net(NetOp::Deliver { from, payload }),
                        );
                    }
                }
                Ok(Some(NetOp::Deliver { .. })) => {}
                Ok(None) => break,
                Err(_) => {
                    self.on_disconnect();
                    break;
                }
            }
        }
        self.sim.run_until(self.clock.sim_now());
        let outbound = std::mem::take(
            &mut self.sim.actor_as_mut::<Relay>(self.relay).expect("relay actor").outbound,
        );
        for op in outbound {
            self.push(op);
        }
    }

    /// Whether the pump's device-local fail-safe latch is engaged.
    pub fn local_failsafe(&self) -> bool {
        self.pump_actor().local_failsafe()
    }

    /// Whether the pump currently permits bolus delivery.
    pub fn is_permitted(&self) -> bool {
        self.pump_actor().pump().is_permitted(self.sim.now())
    }

    /// First instant at or after `at` the pump applied a stop command.
    pub fn first_stop_at_or_after(&self, at: SimTime) -> Option<SimTime> {
        self.pump_actor().first_stop_at_or_after(at)
    }

    /// When the fail-safe latch last changed, from the pump's log.
    pub fn failsafe_log(&self) -> &[(SimTime, bool)] {
        self.pump_actor().failsafe_log()
    }

    /// The embedded pump actor, for deeper assertions.
    pub fn pump_actor(&self) -> &PumpActor {
        self.sim.actor_as::<PumpActor>(self.pump).expect("pump actor")
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
