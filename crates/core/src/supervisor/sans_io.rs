//! The sans-io supervisor core.
//!
//! [`SupervisorCore`] is the supervisor's entire decision machinery —
//! device association, app hosting, command retry/watchdog, degraded
//! mode, primary/standby replication with epoch fencing — as a pure
//! state machine: *timestamped inputs in, buffered outputs out*. It
//! performs no I/O and never looks at a clock; every transition is
//! `handle(now, input, rng, &mut outputs)`.
//!
//! Two drivers host the same core today:
//!
//! * the sim [`Supervisor`](super::Supervisor) actor adapter, which
//!   maps kernel events to [`CoreInput`]s and replays the outputs onto
//!   the deterministic scheduler (byte-identical with the pre-split
//!   actor), and
//! * the live `mcps-serve` host, which feeds it framed transport
//!   messages and wall-clock-derived ticks.
//!
//! Keeping the core free of I/O is what makes the live service and the
//! simulation provably the *same* supervisor, in the spirit of the
//! paper's "verify the model you execute" argument.

use mcps_device::faults::{FaultKind, FaultPlan};
use mcps_device::profile::CommandKind;
use mcps_net::fabric::{EndpointId, Topic};
use mcps_runtime::rng::SimRng;
use mcps_runtime::time::{SimDuration, SimTime};
use mcps_safety::timing;

use crate::app::{AppCtx, ClinicalApp};
use crate::history::Record;
use crate::manager::{AssociationOutcome, DeviceManager};
use crate::msg::{IceCommand, NetAddress, NetPayload};
use crate::netctl::topics;
use crate::vecmap::VecMap;

/// A monitoring device whose data has not arrived for this long is
/// considered gone: its slot is vacated so a replacement can associate
/// (bedside hot-swap).
const DISASSOCIATION_TIMEOUT: SimDuration = SimDuration::from_secs(30);

/// Base delay before the first retry of an unacknowledged retryable
/// command; doubles per attempt (2 s, 4 s, 8 s).
const RETRY_BASE: SimDuration = SimDuration::from_secs(2);

/// Retransmissions after the original send before the watchdog gives up.
pub(crate) const MAX_RETRIES: u32 = 3;

/// How long the system must look healthy (fully associated, fresh data
/// on every stream) before degraded mode is exited. Shared with the
/// verified failover model via [`timing::DEGRADED_EXIT_HYSTERESIS_SECS`].
const DEGRADED_EXIT_HYSTERESIS: SimDuration =
    SimDuration::from_secs(timing::DEGRADED_EXIT_HYSTERESIS_SECS as u64);

/// Data younger than this counts as "fresh" for the degraded-mode exit
/// check (streams publish at ~1 Hz; this tolerates jitter and loss).
const EXIT_FRESHNESS: SimDuration = SimDuration::from_secs(5);

/// How often an active supervisor heartbeats every stop-capable device.
/// Shared with the verified failover model via
/// [`timing::HEARTBEAT_SECS`]; two missed beats still fit inside the
/// pump's 15 s local fail-safe deadline, so a healthy but lossy channel
/// does not trip the latch.
pub const HEARTBEAT_PERIOD: SimDuration = SimDuration::from_secs(timing::HEARTBEAT_SECS as u64);

/// How often a redundant primary replicates its state to the standby.
/// Shared with the verified failover model via
/// [`timing::CHECKPOINT_SECS`].
const CHECKPOINT_PERIOD: SimDuration = SimDuration::from_secs(timing::CHECKPOINT_SECS as u64);

/// Consecutive missed checkpoints before a standby declares the primary
/// dead and promotes itself (5 × 2 s = a 10 s failover trigger). Note
/// that a *worst-case* clean failover still overshoots the pump's 15 s
/// watchdog by one second — see [`timing::WORST_CLEAN_FAILOVER_SECS`]
/// — so the pump may transiently latch basal-only mid-failover; the
/// promoted supervisor's first acked heartbeat releases it. The E13
/// model checks both the transient and the bounded release.
const MISSED_CHECKPOINT_LIMIT: u64 = timing::MISSED_CHECKPOINT_LIMIT as u64;

/// A heartbeat-ack gap at least this long means the device's local
/// fail-safe watchdog (same deadline) has latched in the meantime; the
/// supervisor owes it an explicit `ResumePump` once supervision is
/// re-established and the system is not otherwise degraded. Mirrors
/// `LOCAL_FAILSAFE_DEADLINE` in the pump core; both come from
/// [`timing::FAILSAFE_RELEASE_GAP_SECS`].
const FAILSAFE_RELEASE_GAP: SimDuration =
    SimDuration::from_secs(timing::FAILSAFE_RELEASE_GAP_SECS as u64);

/// A snapshot of the supervisor state a successor needs to take over
/// safely — exactly the fields the PR-5 replication payload carries
/// ([`NetPayload::Checkpoint`]). Two consumers exist: the in-sim
/// standby (via the replication topic) and the serve-mode durable
/// journal, which persists these records across process death so a
/// restarted `mcps-serve` can [`SupervisorCore::resume_from`] one.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CheckpointState {
    /// The fencing epoch the snapshot was taken under.
    pub epoch: u64,
    /// Next command id the supervisor would assign (high-water mark;
    /// a successor must never reuse an id a device dedup window may
    /// still remember).
    pub next_command_id: u64,
    /// Whether the supervisor was in degraded mode.
    pub degraded: bool,
    /// Whether a stop command had died unconfirmed (pump state
    /// unknown — a successor must keep probing).
    pub stop_unconfirmed: bool,
    /// Command ids still awaiting their acks.
    pub inflight_ids: Vec<u64>,
    /// Last data arrival per associated endpoint (freshness view).
    /// Timeline-relative: meaningful to a standby sharing the clock,
    /// meaningless to a restarted process (which discards it).
    pub last_data: Vec<(EndpointId, SimTime)>,
}

/// Role of a supervisor in a redundant pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisorRole {
    /// Owns the command channel: drives the app's commands, heartbeats
    /// devices, and (when redundancy is enabled) replicates state.
    Primary,
    /// Consumes the same vitals and the primary's checkpoints to stay
    /// warm, sends nothing, and promotes itself on checkpoint silence.
    Standby,
}

/// An outstanding command awaiting its ack.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InflightCommand {
    pub(crate) command: IceCommand,
    pub(crate) endpoint: EndpointId,
    /// Original transmission instant (heartbeat round trips are
    /// measured from here).
    pub(crate) first_sent_at: SimTime,
    /// Most recent transmission instant (retry timers run from here).
    pub(crate) sent_at: SimTime,
    /// Transmissions so far (1 = only the original send).
    pub(crate) attempts: u32,
    /// Whether this command is retransmitted when unacknowledged.
    pub(crate) retryable: bool,
}

/// One timestamped event fed into the core.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreInput {
    /// The 1 Hz control tick (liveness, retries, app tick, heartbeats,
    /// checkpoints). The *driver* owns the clock and the re-arming.
    Tick,
    /// A network message addressed to this supervisor.
    Deliver {
        /// Originating endpoint.
        from: EndpointId,
        /// The payload.
        payload: NetPayload,
    },
}

/// The core's output buffer: everything one `handle` call wants the
/// driver to do, in emission order. Shared by [`SupervisorCore`] and
/// [`PumpCore`](crate::pump_core::PumpCore).
///
/// Drivers call [`CoreOutputs::begin`] before each `handle`, then drain
/// `sends` onto their transport/scheduler and `traces` into their log,
/// and — if they keep one — append `records` to a
/// [`History`](crate::history::History). The buffers are reused across
/// calls, so steady-state handling does not allocate.
#[derive(Debug, Default)]
pub struct CoreOutputs {
    /// Outgoing network messages `(to, payload)`, in send order. The
    /// driver stamps the core's own endpoint as the source.
    pub sends: Vec<(NetAddress, NetPayload)>,
    /// Trace records `(category, message)`, in emission order.
    pub traces: Vec<(&'static str, String)>,
    /// Decision records of this call, in emission order. The core
    /// keeps no history of its own; these are its only trace of it.
    pub records: Vec<Record>,
    trace_enabled: bool,
    traces_built: u64,
    traces_suppressed: u64,
}

impl CoreOutputs {
    /// An empty buffer with tracing enabled.
    pub fn new() -> Self {
        CoreOutputs { trace_enabled: true, ..Default::default() }
    }

    /// Clears the per-call buffers and sets whether trace messages are
    /// built at all this call. Cumulative counters persist.
    pub fn begin(&mut self, trace_enabled: bool) {
        self.sends.clear();
        self.traces.clear();
        self.records.clear();
        self.trace_enabled = trace_enabled;
    }

    /// Whether trace messages are currently being built.
    pub fn trace_enabled(&self) -> bool {
        self.trace_enabled
    }

    /// Trace messages built (and pushed) over this buffer's lifetime.
    pub fn traces_built(&self) -> u64 {
        self.traces_built
    }

    /// Trace messages skipped — closure never run, nothing allocated —
    /// because tracing was disabled. A disabled-trace run must keep
    /// [`Self::traces_built`] at zero while this climbs.
    pub fn traces_suppressed(&self) -> u64 {
        self.traces_suppressed
    }

    pub(crate) fn send(&mut self, to: NetAddress, payload: NetPayload) {
        self.sends.push((to, payload));
    }

    pub(crate) fn record(&mut self, record: Record) {
        self.records.push(record);
    }

    /// Lazily records a trace: the message closure runs only when
    /// tracing is enabled.
    pub(crate) fn trace_with(&mut self, category: &'static str, message: impl FnOnce() -> String) {
        if self.trace_enabled {
            self.traces_built += 1;
            self.traces.push((category, message()));
        } else {
            self.traces_suppressed += 1;
        }
    }

    /// Records an already built trace message (app notes).
    fn trace_note(&mut self, category: &'static str, message: String) {
        if self.trace_enabled {
            self.traces_built += 1;
            self.traces.push((category, message));
        } else {
            self.traces_suppressed += 1;
        }
    }
}

/// The sans-io supervisor state machine. See the module docs.
pub struct SupervisorCore {
    pub(crate) app: Box<dyn ClinicalApp>,
    pub(crate) manager: DeviceManager,
    pub(crate) endpoint: EndpointId,
    pub(crate) step: SimDuration,
    /// Whether the app is currently fully associated (drives
    /// `on_associated` edges and hot-swap bookkeeping).
    pub(crate) assoc_active: bool,
    /// Completed associations (1 initially; +1 per successful hot-swap).
    pub(crate) associations_completed: u32,
    /// Last data arrival per associated endpoint. Sorted-vec map: a
    /// bed has a handful of devices, and 10k resident cores can't
    /// afford a `BTreeMap` node allocation each.
    pub(crate) last_data: VecMap<EndpointId, SimTime>,
    pub(crate) data_received: u64,
    /// Data points dropped because the sender was not associated.
    pub(crate) data_ignored: u64,
    pub(crate) commands_sent: u64,
    /// Retransmissions of unacknowledged retryable commands.
    pub(crate) commands_retried: u64,
    /// App commands suppressed because the supervisor was degraded.
    pub(crate) commands_suppressed: u64,
    /// Id for the next outgoing command (unique per supervisor).
    pub(crate) next_command_id: u64,
    /// Outstanding commands awaiting acks, for retry and expiry, keyed by
    /// command id so concurrent commands of the same kind pair with
    /// their own acks. Entries are bounded: every command either acks
    /// or expires at its deadline (after retries, if retryable).
    /// Sorted-vec map: ids are issued monotonically, so inserts are
    /// pushes and iteration order matches the former `BTreeMap`.
    pub(crate) inflight: VecMap<u64, InflightCommand>,
    /// Commands (not heartbeats) that expired without an ack.
    pub(crate) commands_unanswered: u64,
    /// Ack-expiry horizon: how long an unacknowledged command waits
    /// before it is retried or given up on.
    pub(crate) rtt_deadline: SimDuration,
    pub(crate) associated_at: Option<SimTime>,
    /// Degraded-mode state: set while the supervisor distrusts the
    /// system enough to hold the pump stopped.
    pub(crate) degraded: bool,
    /// Latched alarm reason; survives until the hysteretic exit.
    pub(crate) alarm: Option<&'static str>,
    /// Instant since which the system has looked continuously healthy.
    pub(crate) healthy_since: Option<SimTime>,
    /// Whether the degrade path itself halted stop-capable devices (and
    /// must lift that halt on exit).
    pub(crate) degrade_stop_sent: bool,
    /// Set when a stop command dies unconfirmed: the pump's state is
    /// unknown, so degraded mode holds (and keeps probing with fresh
    /// stops) until some stop is acknowledged.
    pub(crate) stop_unconfirmed: bool,
    /// Times the ack watchdog escalated a lost stop to degraded mode.
    pub(crate) watchdog_escalations: u32,
    /// Role in a redundant pair; standbys send nothing until promoted.
    pub(crate) role: SupervisorRole,
    /// Fencing epoch stamped into every outgoing command. Primaries
    /// start at 1, standbys at 0; each promotion takes max-seen + 1.
    pub(crate) epoch: u64,
    /// Replication topic when redundancy is enabled (`None` = solo
    /// supervisor, no checkpoints published or expected).
    pub(crate) replication: Option<Topic>,
    /// The supervisor's own fault schedule (`SupervisorCrash` windows).
    pub(crate) fault: FaultPlan,
    pub(crate) next_heartbeat: Option<SimTime>,
    pub(crate) next_checkpoint: Option<SimTime>,
    /// Standby: last checkpoint arrival, seeded at the first tick so a
    /// standby powered on before its primary does not promote at once.
    pub(crate) last_ckpt: Option<SimTime>,
    /// Highest epoch observed in checkpoints (standby promotion fences
    /// the old primary by exceeding this).
    pub(crate) max_epoch_seen: u64,
    /// Degraded latch replicated from the most recent checkpoint,
    /// adopted at promotion.
    pub(crate) ckpt_degraded: bool,
    pub(crate) ckpt_stop_unconfirmed: bool,
    /// Inflight command ids replicated from the most recent checkpoint.
    pub(crate) ckpt_inflight_ids: Vec<u64>,
    /// Standby → primary promotions performed by this supervisor.
    pub(crate) failovers: u32,
    /// Primary → standby demotions (a higher-epoch peer exists).
    pub(crate) stepdowns: u32,
    /// Commands the app asked for while this supervisor was standby.
    pub(crate) standby_suppressed: u64,
    /// Whether this core was restored from a durable checkpoint (a
    /// crash-restarted process rather than a warm standby). Restored
    /// supervisors owe latched devices a `ResumePump` on their first
    /// heartbeat ack, exactly like a freshly promoted standby: the
    /// predecessor's silence may well have tripped the device-local
    /// fail-safe watchdogs.
    pub(crate) restored: bool,
    pub(crate) hb_sent: u64,
    pub(crate) hb_acked: u64,
    pub(crate) hb_unanswered: u64,
    /// Last heartbeat-ack instant per endpoint, for fail-safe release.
    pub(crate) hb_last_acked: VecMap<EndpointId, SimTime>,
}

impl std::fmt::Debug for SupervisorCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisorCore")
            .field("data_received", &self.data_received)
            .field("commands_sent", &self.commands_sent)
            .field("associated_at", &self.associated_at)
            .field("degraded", &self.degraded)
            .finish()
    }
}

impl SupervisorCore {
    /// Creates a core hosting `app`, publishing from `endpoint`.
    /// `rtt_deadline` is the ack-expiry horizon: an unacknowledged
    /// command waits this long before it is retried or given up on.
    pub fn new(app: impl ClinicalApp, endpoint: EndpointId, rtt_deadline: SimDuration) -> Self {
        let manager = DeviceManager::new(app.requirements());
        SupervisorCore {
            app: Box::new(app),
            manager,
            endpoint,
            step: SimDuration::from_secs(1),
            assoc_active: false,
            associations_completed: 0,
            last_data: VecMap::new(),
            data_received: 0,
            data_ignored: 0,
            commands_sent: 0,
            commands_retried: 0,
            commands_suppressed: 0,
            next_command_id: 0,
            inflight: VecMap::new(),
            commands_unanswered: 0,
            rtt_deadline,
            associated_at: None,
            degraded: false,
            alarm: None,
            healthy_since: None,
            degrade_stop_sent: false,
            stop_unconfirmed: false,
            watchdog_escalations: 0,
            role: SupervisorRole::Primary,
            epoch: 1,
            replication: None,
            fault: FaultPlan::none(),
            next_heartbeat: None,
            next_checkpoint: None,
            last_ckpt: None,
            max_epoch_seen: 0,
            ckpt_degraded: false,
            ckpt_stop_unconfirmed: false,
            ckpt_inflight_ids: Vec::new(),
            failovers: 0,
            stepdowns: 0,
            standby_suppressed: 0,
            restored: false,
            hb_sent: 0,
            hb_acked: 0,
            hb_unanswered: 0,
            hb_last_acked: VecMap::new(),
        }
    }

    /// Sets the control-tick period the driver should re-arm at.
    /// Bedside closed loops run the default 1 Hz; ward-floor spot-check
    /// supervision (campus monitor-only beds) can afford a slower tick,
    /// which at 10k beds is the difference between the supervisor ticks
    /// dominating the event budget and disappearing into it.
    pub fn with_step(mut self, step: SimDuration) -> Self {
        assert!(!step.is_zero(), "tick step must be positive");
        self.step = step;
        self
    }

    /// Sets the role in a redundant pair. A standby starts at epoch 0
    /// but already knows the configured primary runs epoch 1, so its
    /// eventual promotion fences the primary even if it died before
    /// replicating a single checkpoint.
    pub fn with_role(mut self, role: SupervisorRole) -> Self {
        self.role = role;
        if role == SupervisorRole::Standby {
            self.epoch = 0;
            self.max_epoch_seen = 1;
        }
        self
    }

    /// Enables primary/standby redundancy under `scope`: primaries
    /// publish periodic state checkpoints on the scope's replication
    /// topic; standbys treat checkpoint silence as primary death.
    pub fn with_redundancy(mut self, scope: &str) -> Self {
        self.replication = Some(topics::replication_scoped(scope));
        self
    }

    /// Rebuilds fencing-relevant state from a durably journaled
    /// checkpoint — the crash-restart constructor behind
    /// `mcps-serve --journal`.
    ///
    /// The restored core takes epoch `ckpt.epoch + 1`, strictly above
    /// everything the dead predecessor ever stamped, so any of its
    /// commands still in flight (delayed, duplicated, or replayed by a
    /// dirty network) are fenced at every device — the same guarantee
    /// a standby promotion gives. The command-id high-water mark is
    /// inherited so no device dedup window ever sees a reused
    /// `(epoch, id)`, and the degraded / stop-unconfirmed latches are
    /// adopted so a restart cannot silently forget an active alarm or
    /// an unconfirmed pump state (the inherited latch is the
    /// `degraded` flag; no degraded-entry record is emitted for it).
    /// Timeline-relative state
    /// (`last_data`) is deliberately discarded: the restarted process
    /// starts a fresh clock and devices re-announce and re-stream.
    pub fn resume_from(mut self, ckpt: &CheckpointState) -> Self {
        self.role = SupervisorRole::Primary;
        self.epoch = ckpt.epoch + 1;
        self.max_epoch_seen = self.epoch;
        self.next_command_id = self.next_command_id.max(ckpt.next_command_id);
        self.restored = true;
        self.stop_unconfirmed = ckpt.stop_unconfirmed;
        self.ckpt_inflight_ids = ckpt.inflight_ids.clone();
        if ckpt.degraded || ckpt.stop_unconfirmed {
            self.degraded = true;
            self.alarm = Some(if ckpt.stop_unconfirmed {
                "restored-stop-unconfirmed"
            } else {
                "restored-degraded"
            });
        }
        self
    }

    /// Attaches the supervisor's own fault schedule. While a
    /// [`FaultKind::SupervisorCrash`] (or `Crash`) window is active the
    /// supervisor processes nothing — no commands, no heartbeats, no
    /// checkpoints — but recovers when the window closes.
    pub fn with_faults(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// The device manager (association state).
    pub fn manager(&self) -> &DeviceManager {
        &self.manager
    }

    /// The endpoint this supervisor sends from.
    pub fn endpoint(&self) -> EndpointId {
        self.endpoint
    }

    /// The control-tick period the core is designed around (1 Hz).
    pub fn step(&self) -> SimDuration {
        self.step
    }

    /// Data points received from associated devices.
    pub fn data_received(&self) -> u64 {
        self.data_received
    }

    /// Data points ignored because the sender was not associated.
    pub fn data_ignored(&self) -> u64 {
        self.data_ignored
    }

    /// Commands sent (excluding retransmissions).
    pub fn commands_sent(&self) -> u64 {
        self.commands_sent
    }

    /// Retransmissions of unacknowledged retryable commands.
    pub fn commands_retried(&self) -> u64 {
        self.commands_retried
    }

    /// App commands suppressed while degraded.
    pub fn commands_suppressed(&self) -> u64 {
        self.commands_suppressed
    }

    /// Commands (heartbeats excluded) that expired without an ack;
    /// a retried command counts once.
    pub fn commands_unanswered(&self) -> u64 {
        self.commands_unanswered
    }

    /// When association (first) completed, if it did.
    pub fn associated_at(&self) -> Option<SimTime> {
        self.associated_at
    }

    /// Completed associations (> 1 means at least one hot-swap).
    pub fn associations_completed(&self) -> u32 {
        self.associations_completed
    }

    /// Whether the supervisor is currently in degraded mode.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// The latched alarm reason, if an alarm is active.
    pub fn alarm(&self) -> Option<&'static str> {
        self.alarm
    }

    /// Times the ack watchdog escalated a lost stop command.
    pub fn watchdog_escalations(&self) -> u32 {
        self.watchdog_escalations
    }

    /// Current role (a standby flips to primary at promotion).
    pub fn role(&self) -> SupervisorRole {
        self.role
    }

    /// Current fencing epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Standby → primary promotions performed.
    pub fn failovers(&self) -> u32 {
        self.failovers
    }

    /// Primary → standby demotions (split-brain resolution).
    pub fn stepdowns(&self) -> u32 {
        self.stepdowns
    }

    /// App commands dropped because this supervisor was standby.
    pub fn standby_suppressed(&self) -> u64 {
        self.standby_suppressed
    }

    /// Heartbeats sent / acknowledged / given up on.
    pub fn heartbeat_counts(&self) -> (u64, u64, u64) {
        (self.hb_sent, self.hb_acked, self.hb_unanswered)
    }

    /// Command ids the peer reported inflight in its last checkpoint.
    pub fn replicated_inflight_ids(&self) -> &[u64] {
        &self.ckpt_inflight_ids
    }

    /// Whether this core was rebuilt from a durable checkpoint
    /// ([`Self::resume_from`]).
    pub fn restored(&self) -> bool {
        self.restored
    }

    /// Snapshots the fencing-relevant state — the same payload the
    /// replication path sends to a standby, exposed so the serve host
    /// can journal it durably.
    pub fn checkpoint_state(&self) -> CheckpointState {
        CheckpointState {
            epoch: self.epoch,
            next_command_id: self.next_command_id,
            degraded: self.degraded,
            stop_unconfirmed: self.stop_unconfirmed,
            inflight_ids: self.inflight.keys().copied().collect(),
            last_data: self.last_data.iter().map(|(&ep, &t)| (ep, t)).collect(),
        }
    }

    /// Typed access to the hosted app's concrete state.
    pub fn app_as<T: 'static>(&self) -> Option<&T> {
        self.app.as_any().downcast_ref::<T>()
    }

    /// Feeds one timestamped input through the state machine,
    /// appending everything it wants done to `out`. `now` must be
    /// monotonically non-decreasing across calls; the driver owns the
    /// clock and the 1 Hz tick cadence ([`Self::step`]).
    pub fn handle(
        &mut self,
        now: SimTime,
        input: CoreInput,
        rng: &mut SimRng,
        out: &mut CoreOutputs,
    ) {
        // A crashed supervisor processes nothing — announcements, data,
        // acks, and checkpoints all fall on the floor — but it recovers
        // when the fault window closes (the driver keeps ticking).
        if matches!(self.fault.active(now), Some(FaultKind::SupervisorCrash | FaultKind::Crash)) {
            return;
        }
        match input {
            CoreInput::Tick => self.on_tick(now, rng, out),
            CoreInput::Deliver { from, payload } => self.on_deliver(now, from, payload, rng, out),
        }
    }

    fn on_tick(&mut self, now: SimTime, rng: &mut SimRng, out: &mut CoreOutputs) {
        if self.role == SupervisorRole::Standby {
            // A standby only watches the checkpoint stream. The
            // silence clock is seeded at the first tick so a
            // standby powered on before its primary does not
            // promote instantly.
            if self.replication.is_some() {
                let last = *self.last_ckpt.get_or_insert(now);
                if now.saturating_since(last) > CHECKPOINT_PERIOD * MISSED_CHECKPOINT_LIMIT {
                    self.promote(now, rng, out);
                }
            }
            return;
        }
        self.check_device_liveness(now, out);
        self.check_inflight(now, out);
        self.check_degraded_exit(now, out);
        self.drive_app(now, rng, out, |app, actx| app.on_tick(actx));
        // Supervision heartbeats to every stop-capable device keep the
        // devices' local fail-safe watchdogs fed.
        let due_hb = *self.next_heartbeat.get_or_insert(now);
        if now >= due_hb {
            for ep in self.stop_capable_endpoints() {
                self.send_heartbeat(now, out, ep);
            }
            self.next_heartbeat = Some(now + HEARTBEAT_PERIOD);
        }
        if self.replication.is_some() {
            let due_ckpt = *self.next_checkpoint.get_or_insert(now);
            if now >= due_ckpt {
                self.publish_checkpoint(out);
                self.next_checkpoint = Some(now + CHECKPOINT_PERIOD);
            }
        }
    }

    fn on_deliver(
        &mut self,
        now: SimTime,
        from: EndpointId,
        payload: NetPayload,
        rng: &mut SimRng,
        out: &mut CoreOutputs,
    ) {
        match payload {
            NetPayload::Announce { profile, endpoint } => {
                let outcome = self.manager.on_announce(endpoint, &profile);
                if matches!(outcome, AssociationOutcome::Associated { .. }) {
                    out.trace_with("assoc", || format!("{profile}: {outcome:?}"));
                    // Newly associated devices start their liveness
                    // clock now.
                    self.last_data.insert(endpoint, now);
                }
                if self.manager.fully_associated() && !self.assoc_active {
                    self.assoc_active = true;
                    self.associations_completed += 1;
                    self.associated_at.get_or_insert(now);
                    out.trace_with("assoc", || "all slots associated; app active".to_owned());
                    self.drive_app(now, rng, out, |app, actx| app.on_associated(actx));
                }
            }
            NetPayload::Data { kind, value, sampled_at } => {
                // Data is only accepted from *associated* devices:
                // an unvetted bedside device must not drive control
                // decisions, even if it publishes on the right topic.
                if self.manager.slot_of(from).is_none() {
                    self.data_ignored += 1;
                    return;
                }
                self.data_received += 1;
                self.last_data.insert(from, now);
                self.drive_app(now, rng, out, |app, actx| {
                    app.on_data(actx, kind, value, sampled_at)
                });
            }
            NetPayload::Ack { id, command, applied_at } => {
                if matches!(command, IceCommand::Heartbeat) {
                    if let Some(e) = self.inflight.remove(&id) {
                        self.hb_acked += 1;
                        out.record(Record::HeartbeatRtt(now.saturating_since(e.first_sent_at)));
                    }
                    // A supervision gap at least as long as the
                    // device's local fail-safe deadline means its
                    // watchdog latched while we (or a dead
                    // predecessor) were away: release it, unless
                    // the system is degraded and the latch is
                    // exactly what we want.
                    let prev = self.hb_last_acked.insert(from, now);
                    let gap = prev.map(|t| now.saturating_since(t));
                    if gap.is_none_or(|g| g >= FAILSAFE_RELEASE_GAP) && !self.degraded {
                        // `prev == None` covers a freshly promoted
                        // standby or a crash-restarted supervisor:
                        // neither has ack history, but the dead
                        // predecessor's silence may well have
                        // latched the device.
                        if self.failovers > 0 || self.restored || gap.is_some() {
                            self.send_command(now, out, from, IceCommand::ResumePump);
                        }
                    }
                    return;
                }
                if let Some(e) = self.inflight.remove(&id) {
                    if matches!(e.command, IceCommand::StopPump) {
                        // A confirmed stop: the pump is reachable
                        // and halted, so the watchdog latch clears.
                        self.stop_unconfirmed = false;
                    }
                }
                self.drive_app(now, rng, out, |app, actx| app.on_ack(actx, command, applied_at));
            }
            NetPayload::Checkpoint(state) => {
                let CheckpointState {
                    epoch,
                    next_command_id,
                    degraded,
                    stop_unconfirmed,
                    inflight_ids,
                    last_data,
                } = *state;
                if epoch > self.epoch && self.role == SupervisorRole::Primary {
                    // Someone with a higher epoch is alive and
                    // publishing: we are the stale half of a healed
                    // partition. Yield.
                    self.step_down(now, out, epoch);
                    return;
                }
                if self.role != SupervisorRole::Standby || epoch < self.max_epoch_seen {
                    return;
                }
                self.max_epoch_seen = epoch;
                self.last_ckpt = Some(now);
                // The id high-water mark only ratchets up: device
                // dedup windows never see a reused (epoch, id).
                self.next_command_id = self.next_command_id.max(next_command_id);
                self.ckpt_degraded = degraded;
                self.ckpt_stop_unconfirmed = stop_unconfirmed;
                self.ckpt_inflight_ids = inflight_ids;
                for (ep, t) in last_data {
                    let e = self.last_data.get_or_insert(ep, t);
                    *e = (*e).max(t);
                }
            }
            NetPayload::Command { .. } => {
                // Supervisors do not accept commands.
                out.trace_with("app", || format!("unexpected command from {from}"));
            }
        }
    }

    fn send_command(
        &mut self,
        now: SimTime,
        out: &mut CoreOutputs,
        ep: EndpointId,
        command: IceCommand,
    ) {
        // A standby owns no part of the command channel: everything its
        // (warm) app or degrade paths would send is suppressed until
        // promotion. Devices would fence a stale epoch anyway; this
        // keeps the wire quiet and the counter honest.
        if self.role == SupervisorRole::Standby {
            self.standby_suppressed += 1;
            return;
        }
        self.commands_sent += 1;
        let id = self.next_command_id;
        self.next_command_id += 1;
        let retryable = matches!(command, IceCommand::StopPump | IceCommand::ResumePump);
        self.inflight.insert(
            id,
            InflightCommand {
                command,
                endpoint: ep,
                first_sent_at: now,
                sent_at: now,
                attempts: 1,
                retryable,
            },
        );
        out.send(NetAddress::Endpoint(ep), NetPayload::Command { id, epoch: self.epoch, command });
    }

    /// Sends one supervision heartbeat to `ep`. Heartbeats ride the
    /// normal command channel (id-paired acks, same inflight table) but
    /// are never retried — the next period is the retry — and an
    /// expired one counts as an unanswered heartbeat, not as an
    /// unanswered command.
    fn send_heartbeat(&mut self, now: SimTime, out: &mut CoreOutputs, ep: EndpointId) {
        self.hb_sent += 1;
        let id = self.next_command_id;
        self.next_command_id += 1;
        self.inflight.insert(
            id,
            InflightCommand {
                command: IceCommand::Heartbeat,
                endpoint: ep,
                first_sent_at: now,
                sent_at: now,
                attempts: 1,
                retryable: false,
            },
        );
        out.send(
            NetAddress::Endpoint(ep),
            NetPayload::Command { id, epoch: self.epoch, command: IceCommand::Heartbeat },
        );
    }

    /// Publishes a state checkpoint on the replication topic so the
    /// standby can take over mid-story: the command-id high-water mark,
    /// the degraded latch, outstanding command ids, and per-endpoint
    /// data freshness.
    fn publish_checkpoint(&mut self, out: &mut CoreOutputs) {
        let Some(topic) = self.replication.clone() else { return };
        out.send(
            NetAddress::Topic(topic),
            NetPayload::Checkpoint(Box::new(self.checkpoint_state())),
        );
    }

    /// Standby → primary promotion after checkpoint silence. The new
    /// epoch exceeds everything the old primary ever stamped, so its
    /// stale commands are fenced at every device; the replicated
    /// degraded latch is adopted so a failover cannot silently forget
    /// an active alarm.
    fn promote(&mut self, now: SimTime, rng: &mut SimRng, out: &mut CoreOutputs) {
        self.role = SupervisorRole::Primary;
        self.epoch = self.max_epoch_seen.max(self.epoch) + 1;
        self.max_epoch_seen = self.epoch;
        self.failovers += 1;
        let epoch = self.epoch;
        out.trace_with("failover", || format!("standby promoted to primary, epoch {epoch}"));
        self.stop_unconfirmed = self.ckpt_stop_unconfirmed;
        if self.ckpt_degraded {
            self.enter_degraded(now, out, "inherited-degraded");
        }
        // Re-establish supervision immediately: devices near their
        // local fail-safe deadline get a fresh heartbeat now rather
        // than at the next period boundary.
        for ep in self.stop_capable_endpoints() {
            self.send_heartbeat(now, out, ep);
        }
        self.next_heartbeat = Some(now + HEARTBEAT_PERIOD);
        self.next_checkpoint = Some(now);
        self.drive_app(now, rng, out, |app, actx| app.on_tick(actx));
    }

    /// Primary → standby demotion on proof of a higher-epoch peer (a
    /// checkpoint it could only have published after promoting). The
    /// ex-primary abandons every open concern — the new primary owns
    /// them now — including an open degraded window, which a standby
    /// could never close because it cannot send the exit's resumes.
    fn step_down(&mut self, now: SimTime, out: &mut CoreOutputs, seen_epoch: u64) {
        self.stepdowns += 1;
        self.role = SupervisorRole::Standby;
        self.max_epoch_seen = seen_epoch;
        self.last_ckpt = Some(now);
        self.inflight.clear();
        self.next_heartbeat = None;
        self.next_checkpoint = None;
        if self.degraded {
            out.record(Record::Degraded(false));
        }
        self.degraded = false;
        self.alarm = None;
        self.healthy_since = None;
        self.degrade_stop_sent = false;
        self.stop_unconfirmed = false;
        out.trace_with("failover", || format!("primary stepped down; peer at epoch {seen_epoch}"));
    }

    /// Vacates slots of monitoring devices that have gone silent, so a
    /// replacement device's periodic announce can claim them. Vacating
    /// a streaming slot drops the supervisor into degraded mode.
    fn check_device_liveness(&mut self, now: SimTime, out: &mut CoreOutputs) {
        let mut vacate: Vec<EndpointId> = Vec::new();
        for (_, ep, profile) in self.manager.associated() {
            // Only devices that promise data streams are liveness-checked;
            // command-only devices (pumps) are supervised by their acks.
            if profile.streams.is_empty() {
                continue;
            }
            let silent = match self.last_data.get(&ep) {
                Some(&t) => now.saturating_since(t) > DISASSOCIATION_TIMEOUT,
                // No liveness clock at all: start one now instead of
                // treating "no data yet" as an eternity of silence. The
                // announce path seeds the clock at association, so this
                // is defence in depth against a device being vacated on
                // the very first liveness tick after associating.
                None => {
                    self.last_data.insert(ep, now);
                    false
                }
            };
            if silent {
                vacate.push(ep);
            }
        }
        for ep in vacate {
            if let Some(slot) = self.manager.disassociate(ep) {
                self.assoc_active = false;
                self.last_data.remove(&ep);
                out.trace_with("assoc", || format!("device {ep} silent; slot {slot} vacated"));
                self.enter_degraded(now, out, "sensor-silent");
            }
        }
    }

    /// Retries and expires outstanding commands. Non-retryable commands
    /// expire (and count as unanswered) one RTT deadline after the
    /// send; retryable commands are retransmitted with exponential
    /// backoff and expire after the last retry's deadline — a stop
    /// command that dies this way trips the ack watchdog.
    fn check_inflight(&mut self, now: SimTime, out: &mut CoreOutputs) {
        let mut retries: Vec<u64> = Vec::new();
        let mut expired: Vec<u64> = Vec::new();
        for (&id, e) in self.inflight.iter() {
            let waited = now.saturating_since(e.sent_at);
            if e.retryable && e.attempts <= MAX_RETRIES {
                // Backoff doubles per transmission: 2 s, 4 s, 8 s.
                let backoff = RETRY_BASE * (1u64 << (e.attempts - 1));
                if waited > backoff.max(self.rtt_deadline) {
                    retries.push(id);
                }
            } else if waited > self.rtt_deadline {
                expired.push(id);
            }
        }
        for id in retries {
            let e = self.inflight.get_mut(&id).expect("retry id is inflight");
            e.attempts += 1;
            e.sent_at = now;
            let (ep, command, attempts) = (e.endpoint, e.command, e.attempts);
            self.commands_retried += 1;
            out.trace_with("app", || format!("retrying command id {id} (attempt {attempts})"));
            out.send(
                NetAddress::Endpoint(ep),
                NetPayload::Command { id, epoch: self.epoch, command },
            );
        }
        for id in expired {
            let e = self.inflight.remove(&id).expect("expired id is inflight");
            if matches!(e.command, IceCommand::Heartbeat) {
                // A dead heartbeat is a supervision gap, not a command
                // latency outlier: it counts against the heartbeat
                // figures and the next period retries implicitly.
                self.hb_unanswered += 1;
                continue;
            }
            self.commands_unanswered += 1;
            out.trace_with("app", || format!("command id {id} unanswered; giving up"));
            if e.retryable && matches!(e.command, IceCommand::StopPump) {
                // A stop we cannot confirm is a lost pump: fail safe.
                self.watchdog_escalations += 1;
                self.stop_unconfirmed = true;
                self.enter_degraded(now, out, "stop-ack-lost");
            }
        }
        // While the pump's state is unknown, keep probing with fresh
        // stop commands: the first acknowledged stop clears the latch
        // and lets the hysteretic exit begin.
        if self.degraded
            && self.stop_unconfirmed
            && !self.inflight.values().any(|e| matches!(e.command, IceCommand::StopPump))
        {
            for ep in self.stop_capable_endpoints() {
                self.send_command(now, out, ep, IceCommand::StopPump);
            }
        }
    }

    /// Associated endpoints whose profile accepts an immediate stop,
    /// in slot declaration order.
    fn stop_capable_endpoints(&self) -> Vec<EndpointId> {
        self.manager
            .associated()
            .filter_map(|(_, ep, p)| p.accepts_command(CommandKind::Stop).then_some(ep))
            .collect()
    }

    /// Enters degraded mode: latch the alarm, halt every associated
    /// stop-capable device, and start suppressing delivery-enabling app
    /// commands. Idempotent while already degraded.
    fn enter_degraded(&mut self, now: SimTime, out: &mut CoreOutputs, reason: &'static str) {
        if self.degraded {
            return;
        }
        self.degraded = true;
        self.alarm = Some(reason);
        self.healthy_since = None;
        out.record(Record::Degraded(true));
        out.trace_with("alarm", || format!("degraded mode entered: {reason}"));
        for ep in self.stop_capable_endpoints() {
            self.degrade_stop_sent = true;
            self.send_command(now, out, ep, IceCommand::StopPump);
        }
    }

    /// Exits degraded mode once the system has been healthy (fully
    /// associated, fresh data on every stream) for the full hysteresis
    /// window. Lifts the supervisor's own halt if it imposed one.
    fn check_degraded_exit(&mut self, now: SimTime, out: &mut CoreOutputs) {
        if !self.degraded {
            return;
        }
        let healthy = !self.stop_unconfirmed
            && self.manager.fully_associated()
            && self.manager.associated().all(|(_, ep, p)| {
                p.streams.is_empty()
                    || self
                        .last_data
                        .get(&ep)
                        .is_some_and(|&t| now.saturating_since(t) <= EXIT_FRESHNESS)
            });
        if !healthy {
            self.healthy_since = None;
            return;
        }
        let since = *self.healthy_since.get_or_insert(now);
        if now.saturating_since(since) < DEGRADED_EXIT_HYSTERESIS {
            return;
        }
        self.degraded = false;
        self.alarm = None;
        self.healthy_since = None;
        out.record(Record::Degraded(false));
        out.trace_with("alarm", || "degraded mode exited: system healthy again".to_owned());
        if self.degrade_stop_sent {
            self.degrade_stop_sent = false;
            for ep in self.stop_capable_endpoints() {
                self.send_command(now, out, ep, IceCommand::ResumePump);
            }
        }
    }

    fn drive_app(
        &mut self,
        now: SimTime,
        rng: &mut SimRng,
        out: &mut CoreOutputs,
        f: impl FnOnce(&mut dyn ClinicalApp, &mut AppCtx<'_>),
    ) {
        let (outbox, notes) = {
            let mut app_ctx =
                AppCtx::new(now, &self.manager, rng).with_notes_enabled(out.trace_enabled());
            f(self.app.as_mut(), &mut app_ctx);
            app_ctx.into_parts()
        };
        for note in notes {
            out.trace_note("app", note);
        }
        for (slot, command) in outbox {
            // While degraded, the supervisor holds the fail-safe state:
            // app commands that would re-enable delivery are suppressed
            // until the hysteretic exit.
            if self.degraded
                && matches!(command, IceCommand::GrantTicket { .. } | IceCommand::ResumePump)
            {
                self.commands_suppressed += 1;
                out.trace_with("app", || format!("degraded: suppressed {command:?} to {slot}"));
                continue;
            }
            match self.manager.endpoint_for(&slot) {
                Some(ep) => self.send_command(now, out, ep, command),
                None => {
                    out.trace_with("app", || {
                        format!("command to unassociated slot {slot} dropped")
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcps_device::profile::{DeviceClass, DeviceRequirementSet, Requirement};
    use mcps_net::fabric::Fabric;
    use mcps_patient::vitals::VitalKind;
    use mcps_runtime::rng::RngFactory;

    /// A data-free app requiring one pump slot.
    #[derive(Debug)]
    struct PumpOnly;

    impl ClinicalApp for PumpOnly {
        fn requirements(&self) -> Vec<DeviceRequirementSet> {
            vec![DeviceRequirementSet::new("pump", vec![Requirement::Class(DeviceClass::Infusion)])]
        }
        fn on_data(&mut self, _ctx: &mut AppCtx<'_>, _kind: VitalKind, _value: f64, _at: SimTime) {}
        fn on_tick(&mut self, _ctx: &mut AppCtx<'_>) {}
    }

    fn rig() -> (SupervisorCore, EndpointId, SimRng, CoreOutputs) {
        let mut fabric = Fabric::new();
        let dev = fabric.add_endpoint("dev");
        let sup = fabric.add_endpoint("sup");
        let core = SupervisorCore::new(PumpOnly, sup, SimDuration::from_secs(2));
        (core, dev, RngFactory::new(1).stream("core"), CoreOutputs::new())
    }

    #[test]
    fn tick_after_association_emits_heartbeat_send() {
        let (mut core, dev, mut rng, mut out) = rig();
        let profile = mcps_device::pump::PcaPump::profile("P-1", false);
        out.begin(true);
        core.handle(
            SimTime::ZERO,
            CoreInput::Deliver {
                from: dev,
                payload: NetPayload::Announce { profile, endpoint: dev },
            },
            &mut rng,
            &mut out,
        );
        assert!(core.manager().fully_associated());
        out.begin(true);
        core.handle(SimTime::from_secs(1), CoreInput::Tick, &mut rng, &mut out);
        assert!(
            out.sends.iter().any(|(to, p)| *to == NetAddress::Endpoint(dev)
                && matches!(p, NetPayload::Command { command: IceCommand::Heartbeat, .. })),
            "first primary tick must heartbeat the stop-capable pump: {:?}",
            out.sends
        );
    }

    /// Satellite of the E13 failover verification: the implementation's
    /// timing constants must be the model's timing constants. Both sides
    /// now *derive* from [`mcps_safety::timing`], so this pins against
    /// someone re-hardcoding a literal on either side.
    #[test]
    fn failover_timing_matches_the_verified_model() {
        assert_eq!(HEARTBEAT_PERIOD, SimDuration::from_secs(timing::HEARTBEAT_SECS as u64));
        assert_eq!(CHECKPOINT_PERIOD, SimDuration::from_secs(timing::CHECKPOINT_SECS as u64));
        assert_eq!(MISSED_CHECKPOINT_LIMIT, timing::MISSED_CHECKPOINT_LIMIT as u64);
        assert_eq!(
            CHECKPOINT_PERIOD * MISSED_CHECKPOINT_LIMIT,
            SimDuration::from_secs(timing::PROMOTION_SILENCE_SECS as u64),
            "the standby's promotion trigger is the model's silence window"
        );
        assert_eq!(
            FAILSAFE_RELEASE_GAP,
            SimDuration::from_secs(timing::FAILSAFE_RELEASE_GAP_SECS as u64)
        );
        assert_eq!(
            DEGRADED_EXIT_HYSTERESIS,
            SimDuration::from_secs(timing::DEGRADED_EXIT_HYSTERESIS_SECS as u64)
        );
        assert_eq!(
            crate::pump_core::LOCAL_FAILSAFE_DEADLINE,
            SimDuration::from_secs(timing::LOCAL_FAILSAFE_DEADLINE_SECS as u64)
        );
    }

    /// Startup grace (E13 satellite): a standby admitted long before its
    /// primary's first checkpoint must not spuriously promote on its
    /// first ticks — the silence clock is seeded at the first tick, not
    /// at time zero. The model expresses the same invariant (the
    /// `NoStartupGrace` mutant violates it); this pins the
    /// implementation side.
    #[test]
    fn standby_booting_before_first_checkpoint_does_not_promote() {
        let (core, _dev, mut rng, mut out) = rig();
        let mut core = core.with_role(SupervisorRole::Standby).with_redundancy("bed-0");
        // First tick lands late (the standby was admitted well after
        // t=0); silence must be measured from here, not from zero.
        let boot = SimTime::from_secs(200);
        for s in 0..=timing::PROMOTION_SILENCE_SECS as u64 {
            out.begin(true);
            core.handle(boot + SimDuration::from_secs(s), CoreInput::Tick, &mut rng, &mut out);
            assert_eq!(
                core.role(),
                SupervisorRole::Standby,
                "spurious promotion {s}s after a checkpoint-free boot"
            );
            assert_eq!(core.failovers(), 0);
        }
        // ... and the grace is a *seed*, not a disable: one second past
        // the silence window the standby must promote.
        out.begin(true);
        core.handle(
            boot + SimDuration::from_secs(timing::PROMOTION_SILENCE_SECS as u64 + 1),
            CoreInput::Tick,
            &mut rng,
            &mut out,
        );
        assert_eq!(core.role(), SupervisorRole::Primary, "silence from boot must still promote");
        assert_eq!(core.failovers(), 1);
    }

    /// Crash-restart fencing: a core resumed from a journaled
    /// checkpoint must stamp a strictly higher epoch than anything the
    /// dead predecessor could have sent, never reuse a command id, and
    /// inherit the safety latches.
    #[test]
    fn resume_from_checkpoint_fences_the_predecessor() {
        let (_, _dev, mut rng, mut out) = rig();
        let ckpt = CheckpointState {
            epoch: 3,
            next_command_id: 41,
            degraded: true,
            stop_unconfirmed: true,
            inflight_ids: vec![39, 40],
            last_data: vec![(EndpointId::from_index(0), SimTime::from_secs(500))],
        };
        let mut fabric = Fabric::new();
        let dev = fabric.add_endpoint("dev");
        let sup = fabric.add_endpoint("sup");
        let core = SupervisorCore::new(PumpOnly, sup, SimDuration::from_secs(2));
        let mut core = core.resume_from(&ckpt);
        assert_eq!(core.epoch(), 4, "restart must fence every journaled epoch");
        assert!(core.restored());
        assert!(core.is_degraded(), "latches must survive the restart");
        assert_eq!(core.alarm(), Some("restored-stop-unconfirmed"));
        assert_eq!(core.replicated_inflight_ids(), &[39, 40]);
        // The restarted timeline starts at zero; old freshness data is
        // discarded, not trusted.
        assert!(core.last_data.is_empty());
        // First command after a pump associates must use an unseen id.
        let profile = mcps_device::pump::PcaPump::profile("P-1", false);
        out.begin(true);
        core.handle(
            SimTime::ZERO,
            CoreInput::Deliver {
                from: dev,
                payload: NetPayload::Announce { profile, endpoint: dev },
            },
            &mut rng,
            &mut out,
        );
        out.begin(true);
        core.handle(SimTime::from_secs(1), CoreInput::Tick, &mut rng, &mut out);
        let ids: Vec<u64> = out
            .sends
            .iter()
            .filter_map(|(_, p)| match p {
                NetPayload::Command { id, epoch, .. } => {
                    assert_eq!(*epoch, 4, "every post-restart command carries the new epoch");
                    Some(*id)
                }
                _ => None,
            })
            .collect();
        assert!(!ids.is_empty(), "degraded + stop-unconfirmed core must probe with stops");
        assert!(ids.iter().all(|&id| id >= 41), "command ids must not reuse the journaled range");
    }

    #[test]
    fn disabled_trace_builds_no_messages() {
        let (mut core, dev, mut rng, mut out) = rig();
        let profile = mcps_device::pump::PcaPump::profile("P-1", false);
        out.begin(false);
        core.handle(
            SimTime::ZERO,
            CoreInput::Deliver {
                from: dev,
                payload: NetPayload::Announce { profile, endpoint: dev },
            },
            &mut rng,
            &mut out,
        );
        for s in 1..30 {
            out.begin(false);
            core.handle(SimTime::from_secs(s), CoreInput::Tick, &mut rng, &mut out);
        }
        assert_eq!(out.traces_built(), 0, "disabled tracing must never build a String");
        assert!(out.traces_suppressed() > 0, "the suppression path was actually exercised");
        assert!(out.traces.is_empty());
    }
}
