//! Actor wrappers that put devices on the ICE network.
//!
//! Each wrapper owns a pure device state machine from `mcps-device`,
//! drives it with self-scheduled ticks, and connects it to the network
//! controller: monitors publish vitals to topics, the pump consumes
//! supervisor commands, and all devices announce their capability
//! profile at power-on so the device manager can associate them.

use mcps_device::faults::FaultPlan;
use mcps_device::monitor::VitalsMonitor;
use mcps_device::pump::{BolusDecision, PcaPump};
use mcps_device::ventilator::Ventilator;
use mcps_device::xray::XRayMachine;
use mcps_net::fabric::{EndpointId, Topic};
use mcps_patient::vitals::VitalKind;
use mcps_runtime::actor::{Actor, ActorId};
use mcps_runtime::kernel::Context;
use mcps_runtime::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

use std::collections::VecDeque;

use crate::body::PatientBody;
use crate::msg::{IceCommand, IceMsg, NetAddress, NetOp, NetPayload};
use crate::netctl::topics;

/// How often devices repeat their capability announcement. Announces
/// are idempotent (the device manager ignores duplicates) and may be
/// lost, so devices re-offer themselves periodically — the on-demand
/// equivalent of a discovery beacon.
const ANNOUNCE_PERIOD: SimDuration = SimDuration::from_secs(10);

/// Fast announce cadence for a supervised pump whose supervisor has
/// gone silent (opt-in via [`PumpActor::with_fast_reannounce`]). A
/// restarted supervisor learns routes only from announces, and over a
/// lossy link any single announce may be corrupted in flight — at the
/// leisurely [`ANNOUNCE_PERIOD`] each loss costs ten more seconds of
/// unsupervised danger time. Retrying at the heartbeat cadence keeps
/// worst-case re-association well inside the 30 s danger→stop budget.
const ANNOUNCE_RETRY: SimDuration = SimDuration::from_secs(2);

/// Supervisory silence that switches an opted-in pump to the
/// [`ANNOUNCE_RETRY`] cadence: a bit over two missed heartbeats, long
/// before the [`LOCAL_FAILSAFE_DEADLINE`] watchdog fires.
const ANNOUNCE_RETRY_SILENCE: SimDuration = SimDuration::from_secs(5);

/// How many recently applied command ids the pump remembers for
/// idempotence. Supervisor retries reuse the original command id, so a
/// small window is enough: in-flight ids are bounded by the retry
/// horizon, not the run length.
const APPLIED_ID_WINDOW: usize = 64;

/// Default supervision deadline of the device-local fail-safe watchdog:
/// a pump that hears neither a heartbeat nor a command for this long
/// suspends bolus delivery autonomously. Three missed 5 s heartbeats —
/// short enough that an unsupervised pump cannot keep granting boluses
/// for a dangerous stretch. A *worst-case* clean failover overshoots
/// this by one second (promotion fires after ~11 s of checkpoint
/// silence, and the last pre-crash heartbeat can predate that silence
/// by a full period — see
/// [`mcps_safety::timing::WORST_CLEAN_FAILOVER_SECS`]), so a transient
/// latch during failover is by design and is released by the promoted
/// supervisor's first acked heartbeat. Shared with the verified
/// failover model via
/// [`mcps_safety::timing::LOCAL_FAILSAFE_DEADLINE_SECS`].
pub const LOCAL_FAILSAFE_DEADLINE: SimDuration =
    SimDuration::from_secs(mcps_safety::timing::LOCAL_FAILSAFE_DEADLINE_SECS as u64);

/// Sliding window of recently applied commands, keyed by
/// `(epoch, id)` so a post-failover command can never be confused with
/// a pre-failover one even if the two supervisors' id counters collide.
/// Holds the last [`APPLIED_ID_WINDOW`] first-application records;
/// entries are unique because the caller only records on first
/// application.
#[derive(Debug, Default)]
struct CommandDedup {
    applied: VecDeque<(u64, u64, SimTime)>,
}

impl CommandDedup {
    /// When the command was first applied, if it is still in the window.
    fn seen(&self, epoch: u64, id: u64) -> Option<SimTime> {
        self.applied.iter().find(|&&(e, i, _)| e == epoch && i == id).map(|&(.., at)| at)
    }

    /// Records a first application, evicting the oldest entry when the
    /// window is full.
    fn record(&mut self, epoch: u64, id: u64, at: SimTime) {
        if self.applied.len() == APPLIED_ID_WINDOW {
            self.applied.pop_front();
        }
        self.applied.push_back((epoch, id, at));
    }
}

fn announce(
    ctx: &mut Context<'_, IceMsg>,
    netctl: ActorId,
    endpoint: EndpointId,
    scope: &str,
    profile: mcps_device::profile::DeviceProfile,
) {
    ctx.send(
        netctl,
        IceMsg::Net(NetOp::Send {
            from: endpoint,
            to: NetAddress::Topic(topics::announce_scoped(scope)),
            payload: NetPayload::Announce { profile, endpoint },
        }),
    );
}

/// The PCA pump on the network.
#[derive(Debug)]
pub struct PumpActor {
    pump: PcaPump,
    body: PatientBody,
    netctl: ActorId,
    endpoint: EndpointId,
    step: SimDuration,
    scope: String,
    fault: FaultPlan,
    /// Recently applied `(epoch, id)` pairs with their application
    /// instant — retried commands (same epoch and id) are acked again
    /// but not re-applied, so a retry can never, say, extend a ticket's
    /// validity window.
    dedup: CommandDedup,
    duplicate_commands: u64,
    last_announce: Option<SimTime>,
    /// Retry announces fast while unsupervised (serve-mode clients
    /// opt in; scripted scenarios keep the fixed cadence).
    fast_reannounce: bool,
    was_permitted: bool,
    /// Transitions of the delivery-permission state: `(instant, permitted)`.
    permit_log: Vec<(SimTime, bool)>,
    decisions: BTreeMap<&'static str, u32>,
    /// Fail-safe watchdog deadline (`None` = watchdog disabled, e.g.
    /// the open-loop arm, which runs without a supervising interlock).
    supervision: Option<SimDuration>,
    /// Last instant supervisory traffic (heartbeat or command) was
    /// accepted; seeded at the first tick so a pump powered on before
    /// its supervisor does not latch instantly.
    last_supervision: Option<SimTime>,
    /// Whether the local fail-safe latch is engaged.
    local_failsafe: bool,
    local_failsafe_entries: u64,
    /// Latch transitions: `(instant, engaged)`.
    failsafe_log: Vec<(SimTime, bool)>,
    /// Highest supervisor epoch observed; lower-epoch commands are
    /// fenced (dropped without an ack).
    max_epoch_seen: u64,
    fenced_commands: u64,
    /// First controller endpoint accepted per epoch — a second distinct
    /// sender in the same epoch is a split-brain double actuation.
    epoch_senders: BTreeMap<u64, EndpointId>,
    double_actuations: u64,
}

impl PumpActor {
    /// Wraps a pump attached to `body`, reachable via `endpoint`.
    pub fn new(pump: PcaPump, body: PatientBody, netctl: ActorId, endpoint: EndpointId) -> Self {
        PumpActor {
            pump,
            body,
            netctl,
            endpoint,
            step: SimDuration::from_secs(1),
            scope: String::new(),
            fault: FaultPlan::none(),
            dedup: CommandDedup::default(),
            duplicate_commands: 0,
            last_announce: None,
            fast_reannounce: false,
            was_permitted: false,
            permit_log: Vec::new(),
            decisions: BTreeMap::new(),
            supervision: None,
            last_supervision: None,
            local_failsafe: false,
            local_failsafe_entries: 0,
            failsafe_log: Vec::new(),
            max_epoch_seen: 0,
            fenced_commands: 0,
            epoch_senders: BTreeMap::new(),
            double_actuations: 0,
        }
    }

    /// Arms the device-local fail-safe watchdog: if no heartbeat or
    /// command is accepted for `deadline`, the pump suspends bolus
    /// delivery (basal-only safe state) until an explicit `ResumePump`.
    pub fn with_supervision(mut self, deadline: SimDuration) -> Self {
        self.supervision = Some(deadline);
        self
    }

    /// Announce at the fast [`ANNOUNCE_RETRY`] cadence whenever the
    /// supervision watchdog has been silent past
    /// [`ANNOUNCE_RETRY_SILENCE`] — so a supervisor restart (or one
    /// corrupted announce on a lossy link) costs a retry interval of
    /// re-association time, not a full announce period. Requires
    /// [`Self::with_supervision`]; without a watchdog there is no
    /// silence signal and the cadence never changes.
    pub fn with_fast_reannounce(mut self) -> Self {
        self.fast_reannounce = true;
        self
    }

    /// Sets the topic scope (bed id) this pump announces under.
    pub fn with_scope(mut self, scope: &str) -> Self {
        self.scope = scope.to_owned();
        self
    }

    /// Attaches a fault schedule to the pump's *controller* (command
    /// and ack plane). A crashed controller stops announcing, ignores
    /// commands and sends no acks, while the infusion head keeps its
    /// last program — deliberately the pessimistic case for the
    /// no-overdose invariant (a ticket-mode pump still fails safe when
    /// its ticket expires; a command-mode pump relies on the interlock
    /// having stopped it *before* the crash).
    pub fn with_faults(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Commands received whose id was already applied (supervisor
    /// retries absorbed by idempotence).
    pub fn duplicate_commands(&self) -> u64 {
        self.duplicate_commands
    }

    /// Whether the local fail-safe latch is currently engaged.
    pub fn local_failsafe(&self) -> bool {
        self.local_failsafe
    }

    /// Times the fail-safe watchdog fired (supervision silence past the
    /// deadline).
    pub fn local_failsafe_entries(&self) -> u64 {
        self.local_failsafe_entries
    }

    /// Fail-safe latch transitions: `(instant, engaged)`, oldest first.
    pub fn failsafe_log(&self) -> &[(SimTime, bool)] {
        &self.failsafe_log
    }

    /// Stale-epoch commands rejected by the fence.
    pub fn fenced_commands(&self) -> u64 {
        self.fenced_commands
    }

    /// Accepted commands from a *second* distinct controller within one
    /// epoch — must stay zero if the epoch fence is split-brain safe.
    pub fn double_actuations(&self) -> u64 {
        self.double_actuations
    }

    /// Highest supervisor epoch this pump has accepted a command from.
    pub fn max_epoch_seen(&self) -> u64 {
        self.max_epoch_seen
    }

    /// The wrapped pump.
    pub fn pump(&self) -> &PcaPump {
        &self.pump
    }

    /// Bolus decision counts, keyed by decision name.
    pub fn decisions(&self) -> &BTreeMap<&'static str, u32> {
        &self.decisions
    }

    /// Transitions of the delivery-permission state, oldest first.
    pub fn permit_log(&self) -> &[(SimTime, bool)] {
        &self.permit_log
    }

    /// Whether delivery was permitted at `at`, per the transition log
    /// (pumps start unpermitted in ticket mode, permitted otherwise;
    /// the log's first entry reflects the first observed state).
    pub fn was_permitted_at(&self, at: SimTime) -> bool {
        self.permit_log
            .iter()
            .take_while(|(t, _)| *t <= at)
            .last()
            .map(|(_, p)| *p)
            .unwrap_or(false)
    }

    /// First instant at or after `at` at which delivery became
    /// disallowed — used to measure interlock response latency.
    pub fn first_stop_at_or_after(&self, at: SimTime) -> Option<SimTime> {
        self.permit_log.iter().find(|(t, p)| *t >= at && !p).map(|(t, _)| *t)
    }

    fn record_decision(&mut self, d: BolusDecision) {
        let key = match d {
            BolusDecision::Started => "started",
            BolusDecision::LockedOut => "locked-out",
            BolusDecision::HourlyLimit => "hourly-limit",
            BolusDecision::Stopped => "stopped",
            BolusDecision::NoTicket => "no-ticket",
            BolusDecision::Suspended => "suspended",
        };
        *self.decisions.entry(key).or_insert(0) += 1;
    }
}

impl Actor<IceMsg> for PumpActor {
    fn handle(&mut self, msg: IceMsg, ctx: &mut Context<'_, IceMsg>) {
        let now = ctx.now();
        match msg {
            IceMsg::Tick => {
                let silent = self.fast_reannounce
                    && self.supervision.is_some()
                    && self
                        .last_supervision
                        .is_none_or(|t| now.saturating_since(t) >= ANNOUNCE_RETRY_SILENCE);
                let cadence = if silent { ANNOUNCE_RETRY } else { ANNOUNCE_PERIOD };
                if !self.fault.is_crashed(now)
                    && self.last_announce.is_none_or(|t| now.saturating_since(t) >= cadence)
                {
                    self.last_announce = Some(now);
                    announce(
                        ctx,
                        self.netctl,
                        self.endpoint,
                        &self.scope,
                        PcaPump::profile("PUMP-1", self.pump.config().ticket_mode),
                    );
                }
                let delivered = self.pump.delivered_since_last(now);
                if delivered > 0.0 {
                    self.body.infuse(delivered);
                }
                let permitted = self.pump.is_permitted(now);
                if self.was_permitted != permitted {
                    self.permit_log.push((now, permitted));
                    ctx.trace(
                        "pump",
                        if permitted { "delivery allowed" } else { "delivery disallowed" },
                    );
                }
                self.was_permitted = permitted;
                // Device-local fail-safe watchdog: silence on the
                // command channel past the deadline suspends boluses
                // until an explicit post-recovery resume. A crashed
                // controller cannot run its own watchdog.
                if let Some(deadline) = self.supervision {
                    if !self.fault.is_crashed(now) {
                        let last = *self.last_supervision.get_or_insert(now);
                        if !self.local_failsafe && now.saturating_since(last) >= deadline {
                            self.local_failsafe = true;
                            self.local_failsafe_entries += 1;
                            self.failsafe_log.push((now, true));
                            self.pump.suspend_bolus(now);
                            ctx.trace(
                                "pump",
                                "local fail-safe: supervision lost, boluses suspended",
                            );
                        }
                    }
                }
                ctx.schedule_self(self.step, IceMsg::Tick);
            }
            IceMsg::PressButton => {
                let d = self.pump.request_bolus(now);
                self.record_decision(d);
                ctx.trace_with("pump", || format!("bolus request: {d:?}"));
            }
            IceMsg::Net(NetOp::Deliver {
                from,
                payload: NetPayload::Command { id, epoch, command: cmd },
            }) => {
                if self.fault.is_crashed(now) {
                    ctx.trace("pump", "command dropped: controller crashed");
                    return;
                }
                // Epoch fence: a command from a superseded supervisor
                // is dropped without an ack — after a failover the
                // partitioned ex-primary must not actuate anything.
                if epoch < self.max_epoch_seen {
                    self.fenced_commands += 1;
                    let max_seen = self.max_epoch_seen;
                    ctx.trace_with("pump", || {
                        format!("fenced stale command id {id} (epoch {epoch} < {max_seen})")
                    });
                    return;
                }
                self.max_epoch_seen = epoch;
                // Split-brain audit: within one epoch exactly one
                // controller may command this pump.
                match self.epoch_senders.get(&epoch) {
                    Some(&prev) if prev != from => {
                        self.double_actuations += 1;
                        ctx.trace_with("pump", || format!("double actuation in epoch {epoch}"));
                    }
                    None => {
                        self.epoch_senders.insert(epoch, from);
                    }
                    _ => {}
                }
                // Any accepted supervisory traffic feeds the watchdog.
                self.last_supervision = Some(now);
                let applied_at = if cmd == IceCommand::Heartbeat {
                    // Pure liveness probe: ack immediately, skip the
                    // dedup window (heartbeats are never retried and
                    // would churn real command ids out of it).
                    now
                } else {
                    match self.dedup.seen(epoch, id) {
                        Some(at) => {
                            // Idempotence: a retried command is
                            // acknowledged (the first ack was evidently
                            // lost) but not re-applied.
                            self.duplicate_commands += 1;
                            ctx.trace_with("pump", || {
                                format!("duplicate command id {id} absorbed")
                            });
                            at
                        }
                        None => {
                            match cmd {
                                IceCommand::StopPump => {
                                    self.pump.stop(now, mcps_device::pump::StopReason::Command);
                                    ctx.trace("pump", "stop command applied");
                                }
                                IceCommand::ResumePump => {
                                    self.pump.resume(now);
                                    if self.local_failsafe {
                                        self.local_failsafe = false;
                                        self.failsafe_log.push((now, false));
                                        ctx.trace("pump", "local fail-safe released by resume");
                                    }
                                    ctx.trace("pump", "resume command applied");
                                }
                                IceCommand::GrantTicket { validity } => {
                                    self.pump.grant_ticket(now, validity);
                                }
                                _ => return, // not a pump command
                            }
                            self.dedup.record(epoch, id, now);
                            now
                        }
                    }
                };
                let ack = IceMsg::Net(NetOp::Send {
                    from: self.endpoint,
                    to: NetAddress::Endpoint(from),
                    payload: NetPayload::Ack { id, command: cmd, applied_at },
                });
                let copies = if self.fault.ack_duplicated(now) { 2 } else { 1 };
                for _ in 0..copies {
                    match self.fault.ack_delay(now) {
                        Some(delay) => ctx.schedule_at(now + delay, self.netctl, ack.clone()),
                        None => ctx.send(self.netctl, ack.clone()),
                    }
                }
            }
            _ => {}
        }
    }
}

/// A monitoring device (pulse oximeter, capnograph, …) on the network.
#[derive(Debug)]
pub struct MonitorActor {
    monitor: VitalsMonitor,
    body: PatientBody,
    netctl: ActorId,
    endpoint: EndpointId,
    fault: FaultPlan,
    scope: String,
    /// Pre-built per-kind vitals topics for the current scope, so the
    /// hot publish path clones an `Arc<str>` instead of formatting a
    /// fresh topic name per sample.
    vitals_topics: Vec<(VitalKind, Topic)>,
    next_announce: Option<SimTime>,
    last_values: BTreeMap<VitalKind, f64>,
    published: u64,
}

/// One vitals topic per kind under `scope`.
fn vitals_topics_for(scope: &str) -> Vec<(VitalKind, Topic)> {
    VitalKind::ALL.iter().map(|&k| (k, topics::vitals_scoped(scope, k))).collect()
}

impl MonitorActor {
    /// Wraps a monitor sampling `body`, publishing via `endpoint`.
    pub fn new(
        monitor: VitalsMonitor,
        body: PatientBody,
        netctl: ActorId,
        endpoint: EndpointId,
        fault: FaultPlan,
    ) -> Self {
        MonitorActor {
            monitor,
            body,
            netctl,
            endpoint,
            fault,
            scope: String::new(),
            vitals_topics: vitals_topics_for(""),
            next_announce: None,
            last_values: BTreeMap::new(),
            published: 0,
        }
    }

    /// Sets the topic scope (bed id) this monitor publishes under.
    pub fn with_scope(mut self, scope: &str) -> Self {
        self.scope = scope.to_owned();
        self.vitals_topics = vitals_topics_for(scope);
        self
    }

    /// Data points published so far.
    pub fn published(&self) -> u64 {
        self.published
    }

    fn publish(&mut self, ctx: &mut Context<'_, IceMsg>, kind: VitalKind, value: f64, at: SimTime) {
        self.published += 1;
        let topic = self
            .vitals_topics
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, t)| t.clone())
            .unwrap_or_else(|| topics::vitals_scoped(&self.scope, kind));
        ctx.send(
            self.netctl,
            IceMsg::Net(NetOp::Send {
                from: self.endpoint,
                to: NetAddress::Topic(topic),
                payload: NetPayload::Data { kind, value, sampled_at: at },
            }),
        );
    }
}

impl Actor<IceMsg> for MonitorActor {
    fn handle(&mut self, msg: IceMsg, ctx: &mut Context<'_, IceMsg>) {
        if msg != IceMsg::Tick {
            return;
        }
        let now = ctx.now();
        // A crashed device does not even announce; silent/stuck devices
        // keep their network stack alive.
        if !self.fault.is_crashed(now) && self.next_announce.is_none_or(|t| now >= t) {
            self.next_announce = Some(now + ANNOUNCE_PERIOD);
            let profile = self.monitor.profile().clone();
            announce(ctx, self.netctl, self.endpoint, &self.scope, profile);
        }
        let period = self.monitor.sample_period();
        if self.fault.is_data_suppressed(now) {
            // Crashed or silent: nothing goes out (the freshness
            // monitors upstream are what must catch this).
            ctx.schedule_self(period, IceMsg::Tick);
            return;
        }
        if self.fault.is_stuck(now) {
            // Stuck-at fault: keep re-publishing the last values with
            // fresh timestamps — the insidious case.
            for (kind, value) in self.last_values.clone() {
                self.publish(ctx, kind, value, now);
            }
            ctx.schedule_self(period, IceMsg::Tick);
            return;
        }
        let truth = self.body.vitals();
        // Calibration drift adds a linear bias on top of the monitor's
        // own noise model; zero unless a drift fault is active.
        let bias = self.fault.value_bias(now);
        let measurements = self.monitor.sample(now, &truth, ctx.rng());
        for m in measurements {
            let value = m.value + bias;
            self.last_values.insert(m.kind, value);
            self.publish(ctx, m.kind, value, m.at);
        }
        ctx.schedule_self(period, IceMsg::Tick);
    }
}

/// The ventilator on the network.
#[derive(Debug)]
pub struct VentilatorActor {
    vent: Ventilator,
    netctl: ActorId,
    endpoint: EndpointId,
    next_announce: Option<SimTime>,
}

impl VentilatorActor {
    /// Wraps a ventilator reachable via `endpoint`.
    pub fn new(vent: Ventilator, netctl: ActorId, endpoint: EndpointId) -> Self {
        VentilatorActor { vent, netctl, endpoint, next_announce: None }
    }

    /// The wrapped ventilator.
    pub fn ventilator(&self) -> &Ventilator {
        &self.vent
    }

    /// Mutable access (scenario scoring).
    pub fn ventilator_mut(&mut self) -> &mut Ventilator {
        &mut self.vent
    }
}

impl Actor<IceMsg> for VentilatorActor {
    fn handle(&mut self, msg: IceMsg, ctx: &mut Context<'_, IceMsg>) {
        let now = ctx.now();
        match msg {
            IceMsg::Tick => {
                if self.next_announce.is_none_or(|t| now >= t) {
                    self.next_announce = Some(now + ANNOUNCE_PERIOD);
                    announce(ctx, self.netctl, self.endpoint, "", Ventilator::profile("VENT-1"));
                }
                self.vent.poll(now);
                ctx.schedule_self(SimDuration::from_millis(250), IceMsg::Tick);
            }
            IceMsg::Net(NetOp::Deliver {
                from,
                payload: NetPayload::Command { id, epoch: _, command: cmd },
            }) => {
                match cmd {
                    IceCommand::PauseVentilation { duration } => {
                        let out = self.vent.pause(now, duration);
                        ctx.trace_with("vent", || format!("pause -> {out:?}"));
                    }
                    IceCommand::ResumeVentilation => {
                        self.vent.resume(now);
                        ctx.trace("vent", "resumed");
                    }
                    IceCommand::Heartbeat => {} // liveness probe: ack only
                    _ => return,
                }
                ctx.send(
                    self.netctl,
                    IceMsg::Net(NetOp::Send {
                        from: self.endpoint,
                        to: NetAddress::Endpoint(from),
                        payload: NetPayload::Ack { id, command: cmd, applied_at: now },
                    }),
                );
            }
            _ => {}
        }
    }
}

/// The x-ray machine on the network.
#[derive(Debug)]
pub struct XRayActor {
    xray: XRayMachine,
    netctl: ActorId,
    endpoint: EndpointId,
    next_announce: Option<SimTime>,
}

impl XRayActor {
    /// Wraps an x-ray machine reachable via `endpoint`.
    pub fn new(xray: XRayMachine, netctl: ActorId, endpoint: EndpointId) -> Self {
        XRayActor { xray, netctl, endpoint, next_announce: None }
    }

    /// The wrapped machine.
    pub fn xray(&self) -> &XRayMachine {
        &self.xray
    }
}

impl Actor<IceMsg> for XRayActor {
    fn handle(&mut self, msg: IceMsg, ctx: &mut Context<'_, IceMsg>) {
        let now = ctx.now();
        match msg {
            IceMsg::Tick => {
                if self.next_announce.is_none_or(|t| now >= t) {
                    self.next_announce = Some(now + ANNOUNCE_PERIOD);
                    announce(ctx, self.netctl, self.endpoint, "", XRayMachine::profile("XR-1"));
                }
                ctx.schedule_self(ANNOUNCE_PERIOD, IceMsg::Tick);
            }
            IceMsg::Net(NetOp::Deliver {
                from,
                payload: NetPayload::Command { id, epoch: _, command: cmd },
            }) => {
                match cmd {
                    IceCommand::ArmExposure => {
                        self.xray.arm();
                        ctx.trace("xray", "armed");
                    }
                    IceCommand::Expose => match self.xray.expose(now) {
                        Some(e) => {
                            ctx.trace_with("xray", || format!("exposure {} .. {}", e.start, e.end));
                        }
                        None => ctx.trace("xray", "expose refused (not armed)"),
                    },
                    IceCommand::Heartbeat => {} // liveness probe: ack only
                    _ => return,
                }
                ctx.send(
                    self.netctl,
                    IceMsg::Net(NetOp::Send {
                        from: self.endpoint,
                        to: NetAddress::Endpoint(from),
                        payload: NetPayload::Ack { id, command: cmd, applied_at: now },
                    }),
                );
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::PatientBody;

    use crate::netctl::NetworkController;
    use mcps_device::monitor::pulse_oximeter;
    use mcps_device::pump::{PcaPumpConfig, PumpState};
    use mcps_device::ventilator::VentilatorConfig;
    use mcps_device::xray::XRayConfig;
    use mcps_net::fabric::Fabric;
    use mcps_net::qos::LinkQos;
    use mcps_patient::patient::{PatientParams, VirtualPatient};
    use mcps_runtime::kernel::Simulation;

    /// Records network deliveries addressed to it.
    #[derive(Debug, Default)]
    struct Sink {
        announces: u32,
        data: u32,
        acks: u32,
    }

    impl Actor<IceMsg> for Sink {
        fn handle(&mut self, msg: IceMsg, _ctx: &mut Context<'_, IceMsg>) {
            if let IceMsg::Net(NetOp::Deliver { payload, .. }) = msg {
                match payload {
                    NetPayload::Announce { .. } => self.announces += 1,
                    NetPayload::Data { .. } => self.data += 1,
                    NetPayload::Ack { .. } => self.acks += 1,
                    NetPayload::Command { .. } | NetPayload::Checkpoint { .. } => {}
                }
            }
        }
    }

    struct Rig {
        sim: Simulation<IceMsg>,
        nc_id: ActorId,
        sink_id: ActorId,
        dev_ep: EndpointId,
        sup_ep: EndpointId,
        body: PatientBody,
    }

    fn rig() -> Rig {
        let mut fabric = Fabric::new();
        fabric.set_default_qos(LinkQos::ideal());
        let dev_ep = fabric.add_endpoint("device");
        let sup_ep = fabric.add_endpoint("supervisor");
        fabric.subscribe(sup_ep, crate::netctl::topics::announce());
        for kind in mcps_patient::vitals::VitalKind::ALL {
            fabric.subscribe(sup_ep, crate::netctl::topics::vitals(kind));
        }
        let mut sim: Simulation<IceMsg> = Simulation::new(9);
        let nc_id = sim.add_actor("netctl", NetworkController::new(fabric));
        let sink_id = sim.add_actor("sink", Sink::default());
        sim.actor_as_mut::<NetworkController>(nc_id).unwrap().bind(sup_ep, sink_id);
        let body = PatientBody::new(VirtualPatient::new(PatientParams::default()));
        Rig { sim, nc_id, sink_id, dev_ep, sup_ep, body }
    }

    #[test]
    fn monitor_actor_announces_and_publishes() {
        let mut r = rig();
        let m = MonitorActor::new(
            pulse_oximeter("T-1"),
            r.body.clone(),
            r.nc_id,
            r.dev_ep,
            FaultPlan::none(),
        );
        let m_id = r.sim.add_actor("oximeter", m);
        r.sim.actor_as_mut::<NetworkController>(r.nc_id).unwrap().bind(r.dev_ep, m_id);
        r.sim.schedule(SimTime::ZERO, m_id, IceMsg::Tick);
        r.sim.run_until(SimTime::from_secs(30));
        let sink = r.sim.actor_as::<Sink>(r.sink_id).unwrap();
        // Re-announces every 10 s: t=0,10,20,30 ⇒ up to 4.
        assert!((3..=4).contains(&sink.announces), "announces {}", sink.announces);
        assert!(sink.data > 40, "expected ~2 channels x 30 samples, got {}", sink.data);
        assert!(r.sim.actor_as::<MonitorActor>(m_id).unwrap().published() > 40);
    }

    #[test]
    fn crashed_monitor_stays_silent() {
        let mut r = rig();
        let m = MonitorActor::new(
            pulse_oximeter("T-2"),
            r.body.clone(),
            r.nc_id,
            r.dev_ep,
            FaultPlan::none().with_fault(
                mcps_device::faults::FaultKind::Crash,
                SimTime::ZERO,
                None,
            ),
        );
        let m_id = r.sim.add_actor("oximeter", m);
        r.sim.actor_as_mut::<NetworkController>(r.nc_id).unwrap().bind(r.dev_ep, m_id);
        r.sim.schedule(SimTime::ZERO, m_id, IceMsg::Tick);
        r.sim.run_until(SimTime::from_secs(20));
        let sink = r.sim.actor_as::<Sink>(r.sink_id).unwrap();
        assert_eq!(sink.data, 0);
        assert_eq!(sink.announces, 0, "a crashed device does not even announce");
    }

    #[test]
    fn pump_actor_applies_commands_and_acks() {
        let mut r = rig();
        let pump = PcaPump::new(PcaPumpConfig::default());
        let p_id = r.sim.add_actor("pump", PumpActor::new(pump, r.body.clone(), r.nc_id, r.dev_ep));
        r.sim.actor_as_mut::<NetworkController>(r.nc_id).unwrap().bind(r.dev_ep, p_id);
        r.sim.schedule(SimTime::ZERO, p_id, IceMsg::Tick);
        // Deliver a stop command "from" the supervisor endpoint.
        r.sim.schedule(
            SimTime::from_secs(5),
            p_id,
            IceMsg::Net(NetOp::Deliver {
                from: r.sup_ep,
                payload: NetPayload::Command { id: 1, epoch: 1, command: IceCommand::StopPump },
            }),
        );
        r.sim.run_until(SimTime::from_secs(10));
        let pa = r.sim.actor_as::<PumpActor>(p_id).unwrap();
        assert_eq!(pa.pump().state(), PumpState::Stopped(mcps_device::pump::StopReason::Command));
        let sink = r.sim.actor_as::<Sink>(r.sink_id).unwrap();
        assert_eq!(sink.acks, 1, "stop must be acknowledged");
        // Permission transition was logged.
        assert!(pa.first_stop_at_or_after(SimTime::ZERO).is_some());
    }

    #[test]
    fn pump_actor_counts_button_decisions_and_infuses_body() {
        let mut r = rig();
        let pump = PcaPump::new(PcaPumpConfig::default());
        let p_id = r.sim.add_actor("pump", PumpActor::new(pump, r.body.clone(), r.nc_id, r.dev_ep));
        r.sim.schedule(SimTime::ZERO, p_id, IceMsg::Tick);
        r.sim.schedule(SimTime::from_secs(2), p_id, IceMsg::PressButton);
        r.sim.schedule(SimTime::from_secs(3), p_id, IceMsg::PressButton); // inside lockout
        r.sim.run_until(SimTime::from_mins(2));
        let pa = r.sim.actor_as::<PumpActor>(p_id).unwrap();
        assert_eq!(pa.decisions().get("started"), Some(&1));
        assert_eq!(pa.decisions().get("locked-out"), Some(&1));
        // The 1 mg bolus ended up in the patient's body.
        assert!((r.body.total_drug_mg() - 1.0).abs() < 1e-9, "{}", r.body.total_drug_mg());
    }

    /// A retried GrantTicket (same command id) must be re-acked but not
    /// re-applied: the ticket's expiry is set by the first application
    /// and a duplicate must not extend the delivery window.
    #[test]
    fn pump_actor_dedups_command_ids() {
        let mut r = rig();
        let pump = PcaPump::new(PcaPumpConfig { ticket_mode: true, ..Default::default() });
        let p_id = r.sim.add_actor("pump", PumpActor::new(pump, r.body.clone(), r.nc_id, r.dev_ep));
        r.sim.actor_as_mut::<NetworkController>(r.nc_id).unwrap().bind(r.dev_ep, p_id);
        let grant = |id| {
            IceMsg::Net(NetOp::Deliver {
                from: r.sup_ep,
                payload: NetPayload::Command {
                    id,
                    epoch: 1,
                    command: IceCommand::GrantTicket { validity: SimDuration::from_secs(15) },
                },
            })
        };
        r.sim.schedule(SimTime::from_secs(1), p_id, grant(7));
        r.sim.schedule(SimTime::from_secs(10), p_id, grant(7)); // retry of the same send
        r.sim.run_until(SimTime::from_secs(12));
        let pa = r.sim.actor_as::<PumpActor>(p_id).unwrap();
        assert_eq!(pa.duplicate_commands(), 1);
        // Ticket still expires 15 s after the *first* application.
        assert!(pa.pump().is_permitted(SimTime::from_secs(15)));
        assert!(!pa.pump().is_permitted(SimTime::from_secs(17)), "retry must not extend ticket");
        // But the retry is re-acked so the supervisor's watchdog settles.
        assert_eq!(r.sim.actor_as::<Sink>(r.sink_id).unwrap().acks, 2);
    }

    #[test]
    fn pump_ack_faults_delay_and_duplicate() {
        let mut r = rig();
        let fault = FaultPlan::none()
            .with_fault(
                mcps_device::faults::FaultKind::DelayedAck { delay_ms: 3000 },
                SimTime::ZERO,
                Some(SimTime::from_secs(20)),
            )
            .with_fault(mcps_device::faults::FaultKind::DuplicateAck, SimTime::from_secs(20), None);
        let pump = PcaPump::new(PcaPumpConfig::default());
        let p_id = r.sim.add_actor(
            "pump",
            PumpActor::new(pump, r.body.clone(), r.nc_id, r.dev_ep).with_faults(fault),
        );
        r.sim.actor_as_mut::<NetworkController>(r.nc_id).unwrap().bind(r.dev_ep, p_id);
        let cmd = |id, command, t| {
            (
                SimTime::from_secs(t),
                IceMsg::Net(NetOp::Deliver {
                    from: r.sup_ep,
                    payload: NetPayload::Command { id, epoch: 1, command },
                }),
            )
        };
        let (t1, m1) = cmd(1, IceCommand::StopPump, 5);
        let (t2, m2) = cmd(2, IceCommand::ResumePump, 25);
        r.sim.schedule(t1, p_id, m1);
        r.sim.schedule(t2, p_id, m2);
        // Just after the stop, the delayed ack (due t=8) is not out yet.
        r.sim.run_until(SimTime::from_secs(6));
        assert_eq!(r.sim.actor_as::<Sink>(r.sink_id).unwrap().acks, 0, "ack held back");
        r.sim.run_until(SimTime::from_secs(30));
        // 1 delayed ack for the stop + 2 duplicated acks for the resume.
        assert_eq!(r.sim.actor_as::<Sink>(r.sink_id).unwrap().acks, 3);
    }

    #[test]
    fn crashed_pump_controller_ignores_commands() {
        let mut r = rig();
        let fault = FaultPlan::none().with_fault(
            mcps_device::faults::FaultKind::Crash,
            SimTime::from_secs(3),
            None,
        );
        let pump = PcaPump::new(PcaPumpConfig::default());
        let p_id = r.sim.add_actor(
            "pump",
            PumpActor::new(pump, r.body.clone(), r.nc_id, r.dev_ep).with_faults(fault),
        );
        r.sim.actor_as_mut::<NetworkController>(r.nc_id).unwrap().bind(r.dev_ep, p_id);
        r.sim.schedule(SimTime::ZERO, p_id, IceMsg::Tick);
        r.sim.schedule(
            SimTime::from_secs(5),
            p_id,
            IceMsg::Net(NetOp::Deliver {
                from: r.sup_ep,
                payload: NetPayload::Command { id: 1, epoch: 1, command: IceCommand::StopPump },
            }),
        );
        r.sim.run_until(SimTime::from_secs(15));
        let pa = r.sim.actor_as::<PumpActor>(p_id).unwrap();
        assert_eq!(pa.pump().state(), PumpState::Running, "crashed controller applies nothing");
        let sink = r.sim.actor_as::<Sink>(r.sink_id).unwrap();
        assert_eq!(sink.acks, 0, "no acks from a crashed controller");
        // Only the pre-crash announce window (t=0) made it out.
        assert_eq!(sink.announces, 1);
    }

    #[test]
    fn drifting_monitor_biases_published_values() {
        let mut r = rig();
        let fault = FaultPlan::none().with_fault(
            mcps_device::faults::FaultKind::Drift { bias_milli_per_sec: -100 },
            SimTime::ZERO,
            None,
        );
        let m = MonitorActor::new(pulse_oximeter("T-3"), r.body.clone(), r.nc_id, r.dev_ep, fault);
        let m_id = r.sim.add_actor("oximeter", m);
        r.sim.actor_as_mut::<NetworkController>(r.nc_id).unwrap().bind(r.dev_ep, m_id);

        #[derive(Debug, Default)]
        struct Spo2Sink {
            last: Option<(SimTime, f64)>,
        }
        impl Actor<IceMsg> for Spo2Sink {
            fn handle(&mut self, msg: IceMsg, ctx: &mut Context<'_, IceMsg>) {
                if let IceMsg::Net(NetOp::Deliver {
                    payload: NetPayload::Data { kind: VitalKind::Spo2, value, .. },
                    ..
                }) = msg
                {
                    self.last = Some((ctx.now(), value));
                }
            }
        }
        let sink2 = r.sim.add_actor("spo2sink", Spo2Sink::default());
        r.sim.actor_as_mut::<NetworkController>(r.nc_id).unwrap().bind(r.sup_ep, sink2);
        r.sim.schedule(SimTime::ZERO, m_id, IceMsg::Tick);
        r.sim.run_until(SimTime::from_secs(120));
        let (_, v) = r.sim.actor_as::<Spo2Sink>(sink2).unwrap().last.expect("samples published");
        // After ~2 min at -0.1/s the bias (~-12) dwarfs sensor noise, so
        // the published SpO2 must sit far below any healthy reading.
        assert!(v < 90.0, "drift bias not applied: SpO2 {v}");
    }

    #[test]
    fn ventilator_actor_handles_pause_cycle() {
        let mut r = rig();
        let v = Ventilator::new(SimTime::ZERO, VentilatorConfig::default());
        let v_id = r.sim.add_actor("vent", VentilatorActor::new(v, r.nc_id, r.dev_ep));
        r.sim.actor_as_mut::<NetworkController>(r.nc_id).unwrap().bind(r.dev_ep, v_id);
        r.sim.schedule(SimTime::ZERO, v_id, IceMsg::Tick);
        r.sim.schedule(
            SimTime::from_secs(5),
            v_id,
            IceMsg::Net(NetOp::Deliver {
                from: r.sup_ep,
                payload: NetPayload::Command {
                    id: 1,
                    epoch: 1,
                    command: IceCommand::PauseVentilation { duration: SimDuration::from_secs(8) },
                },
            }),
        );
        r.sim.schedule(
            SimTime::from_secs(9),
            v_id,
            IceMsg::Net(NetOp::Deliver {
                from: r.sup_ep,
                payload: NetPayload::Command {
                    id: 2,
                    epoch: 1,
                    command: IceCommand::ResumeVentilation,
                },
            }),
        );
        r.sim.run_until(SimTime::from_secs(20));
        let va = r.sim.actor_as::<VentilatorActor>(v_id).unwrap();
        assert_eq!(va.ventilator().pause_log(), &[(SimTime::from_secs(5), SimTime::from_secs(9))]);
        assert_eq!(r.sim.actor_as::<Sink>(r.sink_id).unwrap().acks, 2);
    }

    /// Silence past the supervision deadline latches the fail-safe:
    /// boluses are suspended until an explicit `ResumePump`, which both
    /// releases the latch and refreshes the watchdog.
    #[test]
    fn pump_watchdog_latches_on_silence_and_resume_releases() {
        let mut r = rig();
        let pump = PcaPump::new(PcaPumpConfig::default());
        let p_id = r.sim.add_actor(
            "pump",
            PumpActor::new(pump, r.body.clone(), r.nc_id, r.dev_ep)
                .with_supervision(SimDuration::from_secs(15)),
        );
        r.sim.actor_as_mut::<NetworkController>(r.nc_id).unwrap().bind(r.dev_ep, p_id);
        r.sim.schedule(SimTime::ZERO, p_id, IceMsg::Tick);
        // A heartbeat at t=10 defers the latch to ~t=25.
        r.sim.schedule(
            SimTime::from_secs(10),
            p_id,
            IceMsg::Net(NetOp::Deliver {
                from: r.sup_ep,
                payload: NetPayload::Command { id: 1, epoch: 1, command: IceCommand::Heartbeat },
            }),
        );
        r.sim.schedule(SimTime::from_secs(20), p_id, IceMsg::PressButton);
        r.sim.schedule(SimTime::from_secs(40), p_id, IceMsg::PressButton);
        r.sim.schedule(
            SimTime::from_secs(50),
            p_id,
            IceMsg::Net(NetOp::Deliver {
                from: r.sup_ep,
                payload: NetPayload::Command { id: 2, epoch: 1, command: IceCommand::ResumePump },
            }),
        );
        r.sim.schedule(SimTime::from_secs(55), p_id, IceMsg::PressButton);
        r.sim.run_until(SimTime::from_secs(60));
        let pa = r.sim.actor_as::<PumpActor>(p_id).unwrap();
        assert_eq!(pa.local_failsafe_entries(), 1);
        assert!(!pa.local_failsafe(), "resume released the latch");
        assert_eq!(pa.decisions().get("started"), Some(&1), "t=20 bolus pre-dates the latch");
        assert_eq!(pa.decisions().get("suspended"), Some(&1), "t=40 bolus denied by fail-safe");
        // The t=55 press is denied by the ordinary lockout interval,
        // not the fail-safe — proof the resume released the latch
        // (suspension outranks lockout, so a held latch would say
        // "suspended" here).
        assert_eq!(pa.decisions().get("locked-out"), Some(&1), "t=55 denial is lockout");
        let latch = pa.failsafe_log().first().expect("latch transition logged");
        assert!(
            latch.0 >= SimTime::from_secs(25) && latch.0 <= SimTime::from_secs(27),
            "{latch:?}"
        );
        // The heartbeat was acked (plus the resume's ack).
        assert_eq!(r.sim.actor_as::<Sink>(r.sink_id).unwrap().acks, 2);
    }

    /// Stale-epoch commands are dropped without application or ack, and
    /// two distinct controllers in one epoch register a double
    /// actuation.
    #[test]
    fn pump_epoch_fence_rejects_stale_and_flags_double_actuation() {
        let mut r = rig();
        let standby_ep = {
            let nc = r.sim.actor_as_mut::<NetworkController>(r.nc_id).unwrap();
            nc.fabric_mut().add_endpoint("standby")
        };
        let pump = PcaPump::new(PcaPumpConfig::default());
        let p_id = r.sim.add_actor("pump", PumpActor::new(pump, r.body.clone(), r.nc_id, r.dev_ep));
        {
            let nc = r.sim.actor_as_mut::<NetworkController>(r.nc_id).unwrap();
            nc.bind(r.dev_ep, p_id);
            // Acks route back to their sender: the standby's ack must
            // land in the same sink as the primary's.
            nc.bind(standby_ep, r.sink_id);
        }
        let cmd = |from, id, epoch, command, t| {
            (
                SimTime::from_secs(t),
                IceMsg::Net(NetOp::Deliver {
                    from,
                    payload: NetPayload::Command { id, epoch, command },
                }),
            )
        };
        // Promoted standby stops the pump in epoch 2 …
        let (t1, m1) = cmd(standby_ep, 1, 2, IceCommand::StopPump, 5);
        // … then the partitioned ex-primary's stale resume (epoch 1)
        // must be fenced, not applied.
        let (t2, m2) = cmd(r.sup_ep, 9, 1, IceCommand::ResumePump, 6);
        // A same-epoch command from a second controller is a double
        // actuation (applied — the fence can't tell which is right —
        // but audited).
        let (t3, m3) = cmd(r.sup_ep, 10, 2, IceCommand::Heartbeat, 7);
        for (t, m) in [(t1, m1), (t2, m2), (t3, m3)] {
            r.sim.schedule(t, p_id, m);
        }
        r.sim.run_until(SimTime::from_secs(10));
        let pa = r.sim.actor_as::<PumpActor>(p_id).unwrap();
        assert_eq!(
            pa.pump().state(),
            PumpState::Stopped(mcps_device::pump::StopReason::Command),
            "stale resume must not restart the pump"
        );
        assert_eq!(pa.fenced_commands(), 1);
        assert_eq!(pa.max_epoch_seen(), 2);
        assert_eq!(pa.double_actuations(), 1);
        // Acks: stop + heartbeat; the fenced command got none.
        assert_eq!(r.sim.actor_as::<Sink>(r.sink_id).unwrap().acks, 2);
    }

    proptest::proptest! {
        /// The 64-entry dedup window agrees with a naive oracle built
        /// from the full record history: `seen` returns exactly the
        /// most recent record among the last 64, and never invents an
        /// entry (no false accepts after wraparound).
        #[test]
        fn command_dedup_window_matches_unbounded_oracle(
            ops in proptest::collection::vec((0u64..2, 0u64..200), 1..300),
        ) {
            let mut dedup = CommandDedup::default();
            // Mirror of every `record` call, unbounded.
            let mut history: Vec<(u64, u64, SimTime)> = Vec::new();
            for (step, &(epoch, id)) in ops.iter().enumerate() {
                let now = SimTime::from_secs(step as u64);
                // The actor's loop: record only on first sight.
                if dedup.seen(epoch, id).is_none() {
                    dedup.record(epoch, id, now);
                    history.push((epoch, id, now));
                }
                // The window must equal the last 64 record events of
                // the unbounded history, nothing else.
                let tail = &history[history.len().saturating_sub(APPLIED_ID_WINDOW)..];
                proptest::prop_assert_eq!(
                    dedup.applied.iter().copied().collect::<Vec<_>>(),
                    tail.to_vec(),
                    "window diverged from oracle tail at step {}",
                    step
                );
                // Spot-probe this step's key: its answer must be the
                // tail's most recent matching record (idempotent re-ack
                // with the *original* application instant), and a key
                // outside the tail must not be invented.
                let expect = tail
                    .iter()
                    .rev()
                    .find(|&&(e, i, _)| e == epoch && i == id)
                    .map(|&(.., at)| at);
                proptest::prop_assert_eq!(dedup.seen(epoch, id), expect);
                proptest::prop_assert_eq!(dedup.seen(epoch + 7, id), None, "no false accepts");
            }
        }
    }

    #[test]
    fn xray_actor_arms_and_exposes() {
        let mut r = rig();
        let x = XRayMachine::new(XRayConfig::default());
        let x_id = r.sim.add_actor("xray", XRayActor::new(x, r.nc_id, r.dev_ep));
        r.sim.actor_as_mut::<NetworkController>(r.nc_id).unwrap().bind(r.dev_ep, x_id);
        r.sim.schedule(SimTime::ZERO, x_id, IceMsg::Tick);
        for (t, id, cmd) in [(2u64, 1, IceCommand::ArmExposure), (3, 2, IceCommand::Expose)] {
            r.sim.schedule(
                SimTime::from_secs(t),
                x_id,
                IceMsg::Net(NetOp::Deliver {
                    from: r.sup_ep,
                    payload: NetPayload::Command { id, epoch: 1, command: cmd },
                }),
            );
        }
        r.sim.run_until(SimTime::from_secs(10));
        let xa = r.sim.actor_as::<XRayActor>(x_id).unwrap();
        assert_eq!(xa.xray().exposures().len(), 1);
        assert_eq!(r.sim.actor_as::<Sink>(r.sink_id).unwrap().acks, 2);
    }
}
