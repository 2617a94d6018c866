//! The sans-io pump core.
//!
//! [`PumpCore`] is the PCA pump's decision machinery — announce
//! cadence, epoch fence and split-brain audit, command dedup, the
//! device-local fail-safe watchdog and the permission log — as a pure
//! state machine in the [`SupervisorCore`](crate::SupervisorCore)
//! shape: `handle(now, input, &mut outputs)`, no I/O, no clock. The
//! sim [`PumpActor`](crate::actors::PumpActor) adapter and the live
//! `mcps-serve` bed client both drive it, so the pump the simulator
//! verifies is the pump the bed runs. The driver owns the tick cadence:
//! a tick every [`PumpCore::STEP`], and every tick due by `t` fires
//! before an input handled at `t`.

use mcps_device::faults::FaultPlan;
use mcps_device::pump::{BolusDecision, PcaPump, StopReason};
use mcps_net::fabric::EndpointId;
use mcps_runtime::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

use crate::actors::ANNOUNCE_PERIOD;
use crate::msg::{IceCommand, NetAddress, NetPayload};
use crate::netctl::topics;
use crate::supervisor::sans_io::CoreOutputs;

/// Fast announce cadence for a supervised pump whose supervisor has
/// gone silent (opt-in via [`PumpCore::with_fast_reannounce`]). A
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

/// Supervision deadline of the device-local fail-safe watchdog: a pump
/// that hears neither a heartbeat nor a command for this long suspends
/// bolus delivery autonomously. Three missed 5 s heartbeats — short
/// enough that an unsupervised pump cannot keep granting boluses for a
/// dangerous stretch. A *worst-case* clean failover overshoots this by
/// one second (promotion fires after ~11 s of checkpoint silence, and
/// the last pre-crash heartbeat can predate that silence by a full
/// period — see [`mcps_safety::timing::WORST_CLEAN_FAILOVER_SECS`]), so
/// a transient latch during failover is by design and is released by
/// the promoted supervisor's first acked heartbeat. Shared with the
/// verified failover model via
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

/// One timestamped event fed into the pump core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PumpInput {
    /// The periodic [`PumpCore::STEP`] tick (announces, infusion,
    /// permission log, watchdog). The *driver* owns the re-arming.
    Tick,
    /// A press of the bolus demand button.
    PressButton,
    /// A command received from a controller endpoint.
    Command {
        /// The sending endpoint (the ack goes back to it).
        from: EndpointId,
        /// The sender's command id.
        id: u64,
        /// The sender's fencing epoch.
        epoch: u64,
        /// The command itself.
        command: IceCommand,
    },
}

/// The sans-io pump state machine. See the module docs.
#[derive(Debug)]
pub struct PumpCore {
    pump: PcaPump,
    endpoint: EndpointId,
    scope: String,
    fault: FaultPlan,
    /// Recently applied `(epoch, id)` pairs with their application
    /// instant — retried commands (same epoch and id) are acked again
    /// but not re-applied, so a retry can never, say, extend a ticket's
    /// validity window.
    dedup: CommandDedup,
    duplicate_commands: u64,
    last_announce: Option<SimTime>,
    /// Retry announces fast while unsupervised (the live bed opts in;
    /// scripted scenarios keep the fixed cadence).
    fast_reannounce: bool,
    was_permitted: bool,
    /// Transitions of the delivery-permission state: `(instant, permitted)`.
    permit_log: Vec<(SimTime, bool)>,
    decisions: BTreeMap<&'static str, u32>,
    /// Whether the fail-safe watchdog runs (off for e.g. the open-loop
    /// arm, which has no supervising interlock to feed it).
    supervised: bool,
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

impl PumpCore {
    /// The tick cadence every driver fires [`PumpInput::Tick`] at.
    pub const STEP: SimDuration = SimDuration::from_secs(1);

    /// A core for `pump`, reachable via `endpoint`.
    pub fn new(pump: PcaPump, endpoint: EndpointId) -> Self {
        PumpCore {
            pump,
            endpoint,
            scope: String::new(),
            fault: FaultPlan::none(),
            dedup: CommandDedup::default(),
            duplicate_commands: 0,
            last_announce: None,
            fast_reannounce: false,
            was_permitted: false,
            permit_log: Vec::new(),
            decisions: BTreeMap::new(),
            supervised: false,
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
    /// command is accepted for [`LOCAL_FAILSAFE_DEADLINE`], the pump
    /// suspends bolus delivery (basal-only safe state) until an
    /// explicit `ResumePump`.
    pub fn with_supervision(mut self) -> Self {
        self.supervised = true;
        self
    }

    /// Announce at the fast `ANNOUNCE_RETRY` (2 s) cadence whenever the
    /// supervision watchdog has been silent past
    /// `ANNOUNCE_RETRY_SILENCE` (5 s) — so a supervisor restart (or one
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
    /// commands and runs no watchdog, while the infusion head keeps its
    /// last program — deliberately the pessimistic case for the
    /// no-overdose invariant (a ticket-mode pump still fails safe when
    /// its ticket expires; a command-mode pump relies on the interlock
    /// having stopped it *before* the crash). The ack-plane faults
    /// (delayed, duplicated acks) are the driver's to apply.
    pub fn with_faults(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// The pump's endpoint; drivers stamp it as the source of sends.
    pub(crate) fn endpoint(&self) -> EndpointId {
        self.endpoint
    }

    /// The controller's fault schedule (the sim adapter applies its
    /// ack-plane faults).
    pub(crate) fn fault(&self) -> &FaultPlan {
        &self.fault
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

    /// Feeds one timestamped input through the state machine, appending
    /// sends (the driver stamps the pump's endpoint as their source) and
    /// lazily built traces to `out`. Returns the drug, in mg, the pump
    /// delivered since the previous tick (non-zero only on ticks) — the
    /// driver owns the patient it flows into. `now` must be
    /// monotonically non-decreasing across calls.
    pub fn handle(&mut self, now: SimTime, input: PumpInput, out: &mut CoreOutputs) -> f64 {
        match input {
            PumpInput::Tick => return self.on_tick(now, out),
            PumpInput::PressButton => {
                let d = self.pump.request_bolus(now);
                self.record_decision(d);
                out.trace_with("pump", || format!("bolus request: {d:?}"));
            }
            PumpInput::Command { from, id, epoch, command } => {
                self.on_command(now, from, id, epoch, command, out)
            }
        }
        0.0
    }

    fn on_tick(&mut self, now: SimTime, out: &mut CoreOutputs) -> f64 {
        let silent = self.fast_reannounce
            && self.supervised
            && self
                .last_supervision
                .is_none_or(|t| now.saturating_since(t) >= ANNOUNCE_RETRY_SILENCE);
        let cadence = if silent { ANNOUNCE_RETRY } else { ANNOUNCE_PERIOD };
        if !self.fault.is_crashed(now)
            && self.last_announce.is_none_or(|t| now.saturating_since(t) >= cadence)
        {
            self.last_announce = Some(now);
            out.send(
                NetAddress::Topic(topics::announce_scoped(&self.scope)),
                NetPayload::Announce {
                    profile: PcaPump::profile("PUMP-1", self.pump.config().ticket_mode),
                    endpoint: self.endpoint,
                },
            );
        }
        let delivered = self.pump.delivered_since_last(now);
        let permitted = self.pump.is_permitted(now);
        if self.was_permitted != permitted {
            self.permit_log.push((now, permitted));
            out.trace_with("pump", || {
                if permitted { "delivery allowed" } else { "delivery disallowed" }.to_owned()
            });
        }
        self.was_permitted = permitted;
        // Device-local fail-safe watchdog: silence on the command
        // channel past the deadline suspends boluses until an explicit
        // post-recovery resume. A crashed controller cannot run its own
        // watchdog.
        if self.supervised && !self.fault.is_crashed(now) {
            let last = *self.last_supervision.get_or_insert(now);
            if !self.local_failsafe && now.saturating_since(last) >= LOCAL_FAILSAFE_DEADLINE {
                self.local_failsafe = true;
                self.local_failsafe_entries += 1;
                self.failsafe_log.push((now, true));
                self.pump.suspend_bolus(now);
                out.trace_with("pump", || {
                    "local fail-safe: supervision lost, boluses suspended".to_owned()
                });
            }
        }
        delivered
    }

    fn on_command(
        &mut self,
        now: SimTime,
        from: EndpointId,
        id: u64,
        epoch: u64,
        command: IceCommand,
        out: &mut CoreOutputs,
    ) {
        if self.fault.is_crashed(now) {
            out.trace_with("pump", || "command dropped: controller crashed".to_owned());
            return;
        }
        // Epoch fence: a command from a superseded supervisor is
        // dropped without an ack — after a failover the partitioned
        // ex-primary must not actuate anything.
        if epoch < self.max_epoch_seen {
            self.fenced_commands += 1;
            let max_seen = self.max_epoch_seen;
            out.trace_with("pump", || {
                format!("fenced stale command id {id} (epoch {epoch} < {max_seen})")
            });
            return;
        }
        self.max_epoch_seen = epoch;
        // Split-brain audit: within one epoch exactly one controller
        // may command this pump.
        match self.epoch_senders.get(&epoch) {
            Some(&prev) if prev != from => {
                self.double_actuations += 1;
                out.trace_with("pump", || format!("double actuation in epoch {epoch}"));
            }
            None => {
                self.epoch_senders.insert(epoch, from);
            }
            _ => {}
        }
        // Any accepted supervisory traffic feeds the watchdog.
        self.last_supervision = Some(now);
        let applied_at = if command == IceCommand::Heartbeat {
            // Pure liveness probe: ack immediately, skip the dedup
            // window (heartbeats are never retried and would churn real
            // command ids out of it).
            now
        } else if let Some(at) = self.dedup.seen(epoch, id) {
            // Idempotence: a retried command is acknowledged (the first
            // ack was evidently lost) but not re-applied.
            self.duplicate_commands += 1;
            out.trace_with("pump", || format!("duplicate command id {id} absorbed"));
            at
        } else {
            match command {
                IceCommand::StopPump => {
                    self.pump.stop(now, StopReason::Command);
                    out.trace_with("pump", || "stop command applied".to_owned());
                }
                IceCommand::ResumePump => {
                    self.pump.resume(now);
                    if self.local_failsafe {
                        self.local_failsafe = false;
                        self.failsafe_log.push((now, false));
                        out.trace_with("pump", || "local fail-safe released by resume".to_owned());
                    }
                    out.trace_with("pump", || "resume command applied".to_owned());
                }
                IceCommand::GrantTicket { validity } => self.pump.grant_ticket(now, validity),
                _ => return, // not a pump command
            }
            self.dedup.record(epoch, id, now);
            now
        };
        out.send(NetAddress::Endpoint(from), NetPayload::Ack { id, command, applied_at });
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

#[cfg(test)]
mod tests {
    use super::*;

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
                // The core's loop: record only on first sight.
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
}
