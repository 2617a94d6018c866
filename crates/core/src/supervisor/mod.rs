//! The ICE supervisor.
//!
//! Hosts one clinical app: runs device association, forwards published
//! data into the app, dispatches the app's slot-addressed commands onto
//! the network, and tracks command round-trip latency.
//!
//! # Sans-io split
//!
//! All decision logic lives in [`SupervisorCore`] (see [`sans_io`]), a
//! pure state machine with no I/O and no clock of its own, holding
//! only the state its decisions read. The [`Supervisor`] actor in this
//! module is a *thin adapter* holding the core, the network
//! controller's id, a reused output buffer and the run's [`History`].
//! Build and configure the core (role, redundancy, faults), then wrap
//! it with [`Supervisor::from_core`]; read every counter and latch
//! through [`Supervisor::core`], and the degraded windows and heartbeat
//! round trips through [`Supervisor::history`] — that is where the
//! scenario harvests read them. On each event the adapter maps the
//! kernel message to a [`CoreInput`], hands the core the actor's RNG
//! stream and the current instant, and replays the buffered
//! [`CoreOutputs`] onto the deterministic scheduler with the replay the
//! device actors share: traces land in the kernel trace log, records in
//! the history, then sends become `NetOp::Send` messages to the network
//! controller. Every `Tick` re-arms itself one step later. The live
//! `mcps-serve` host drives the *same* core from wall-clock time and
//! framed transports and keeps no history, so simulated and served
//! supervisors are one implementation and a served one does not grow.
//!
//! # Fault robustness
//!
//! The supervisor is the component the paper's assurance case leans on
//! when devices or links misbehave, so it carries three defensive
//! mechanisms:
//!
//! * **Command retry** — safety-critical commands ([`IceCommand::StopPump`](crate::msg::IceCommand::StopPump),
//!   [`IceCommand::ResumePump`](crate::msg::IceCommand::ResumePump)) that go unacknowledged are retransmitted
//!   with the *same* command id under bounded exponential backoff;
//!   devices deduplicate by id, so a retry can never double-apply.
//!   Periodic commands (ticket grants) are never retried — the next
//!   period re-issues them, and re-applying an old grant would extend
//!   its validity window.
//! * **Ack watchdog** — a [`IceCommand::StopPump`](crate::msg::IceCommand::StopPump) still unacknowledged
//!   after the last retry is treated as a lost pump: the supervisor
//!   escalates to degraded mode rather than assuming the stop landed.
//! * **Degraded mode** — entered when a streaming device goes silent
//!   (its slot is vacated) or the ack watchdog fires. On entry the
//!   supervisor latches an alarm and halts every associated device that
//!   accepts a stop; while degraded it suppresses app commands that
//!   would re-enable delivery (ticket grants, resumes). The mode is
//!   exited *hysteretically*: only after the system has been fully
//!   associated with fresh data on every stream for a continuous
//!   settling window, at which point the supervisor lifts its own halt.

pub mod sans_io;

pub use sans_io::{
    CheckpointState, CoreInput, CoreOutputs, SupervisorCore, SupervisorRole, HEARTBEAT_PERIOD,
};

use mcps_net::fabric::EndpointId;
use mcps_runtime::actor::{Actor, ActorId};
use mcps_runtime::kernel::Context;
use mcps_runtime::time::{SimDuration, SimTime};

use crate::actors::replay;
use crate::app::ClinicalApp;
use crate::history::History;
use crate::manager::DeviceManager;
use crate::msg::{IceMsg, NetOp};

/// The supervisor actor: [`SupervisorCore`] adapted to the simulation
/// kernel. See the module docs for the sans-io split.
#[derive(Debug)]
pub struct Supervisor {
    core: SupervisorCore,
    netctl: ActorId,
    /// Reused output buffer (no steady-state allocation per event).
    out: CoreOutputs,
    history: History,
}

impl Supervisor {
    /// Creates a supervisor hosting `app`. `rtt_deadline` is the
    /// ack-expiry horizon (see [`SupervisorCore::new`]).
    pub fn new(
        app: impl ClinicalApp,
        netctl: ActorId,
        endpoint: EndpointId,
        rtt_deadline: SimDuration,
    ) -> Self {
        Self::from_core(SupervisorCore::new(app, endpoint, rtt_deadline), netctl)
    }

    /// Wraps an already configured core.
    pub fn from_core(core: SupervisorCore, netctl: ActorId) -> Self {
        Supervisor { core, netctl, out: CoreOutputs::new(), history: History::new() }
    }

    /// Sets the control-tick re-arm period (see
    /// [`SupervisorCore::with_step`]).
    pub fn with_step(mut self, step: SimDuration) -> Self {
        self.core = self.core.with_step(step);
        self
    }

    /// The underlying sans-io core (every counter and latch lives there).
    pub fn core(&self) -> &SupervisorCore {
        &self.core
    }

    /// Degraded windows and heartbeat round trips so far.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// The device manager (association state).
    pub fn manager(&self) -> &DeviceManager {
        self.core.manager()
    }

    /// Data points received from associated devices.
    pub fn data_received(&self) -> u64 {
        self.core.data_received()
    }

    /// Data points ignored because the sender was not associated.
    pub fn data_ignored(&self) -> u64 {
        self.core.data_ignored()
    }

    /// When association (first) completed, if it did.
    pub fn associated_at(&self) -> Option<SimTime> {
        self.core.associated_at()
    }

    /// Typed access to the hosted app's concrete state.
    pub fn app_as<T: 'static>(&self) -> Option<&T> {
        self.core.app_as::<T>()
    }
}

impl Actor<IceMsg> for Supervisor {
    fn handle(&mut self, msg: IceMsg, ctx: &mut Context<'_, IceMsg>) {
        let input = match msg {
            IceMsg::Tick => CoreInput::Tick,
            IceMsg::Net(NetOp::Deliver { from, payload }) => CoreInput::Deliver { from, payload },
            IceMsg::PressButton | IceMsg::Net(NetOp::Send { .. }) => return,
        };
        let is_tick = matches!(input, CoreInput::Tick);
        let Supervisor { core, netctl, out, history } = self;
        out.begin(ctx.trace_enabled());
        core.handle(ctx.now(), input, ctx.rng(), out);
        replay(ctx, *netctl, core.endpoint(), &core.fault, out, history);
        // The driver owns the tick cadence: every tick re-arms, even
        // through crash windows and standby idling, so transient faults
        // recover and promotions can fire.
        if is_tick {
            ctx.schedule_self(core.step(), IceMsg::Tick);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppCtx;
    use crate::msg::{IceCommand, NetPayload};
    use crate::netctl::NetworkController;
    use mcps_device::profile::{DeviceClass, DeviceRequirementSet, Requirement};
    use mcps_net::fabric::Fabric;
    use mcps_net::qos::LinkQos;
    use mcps_patient::vitals::VitalKind;
    use mcps_runtime::kernel::Simulation;
    use mcps_runtime::time::SimTime;
    use sans_io::MAX_RETRIES;

    /// A minimal app that records its callbacks.
    #[derive(Debug, Default)]
    struct Probe {
        associated_calls: u32,
        data_points: Vec<(VitalKind, f64)>,
        ticks: u32,
    }

    impl ClinicalApp for Probe {
        fn requirements(&self) -> Vec<DeviceRequirementSet> {
            vec![DeviceRequirementSet::new(
                "monitor",
                vec![Requirement::Class(DeviceClass::Monitor)],
            )]
        }
        fn on_associated(&mut self, _ctx: &mut AppCtx<'_>) {
            self.associated_calls += 1;
        }
        fn on_data(&mut self, _ctx: &mut AppCtx<'_>, kind: VitalKind, value: f64, _at: SimTime) {
            self.data_points.push((kind, value));
        }
        fn on_tick(&mut self, _ctx: &mut AppCtx<'_>) {
            self.ticks += 1;
        }
    }

    /// An app driving a pump slot: sends one scripted command as soon
    /// as the pump associates.
    #[derive(Debug)]
    struct OneShot {
        command: IceCommand,
        sent: bool,
    }

    impl OneShot {
        fn new(command: IceCommand) -> Self {
            OneShot { command, sent: false }
        }
    }

    impl ClinicalApp for OneShot {
        fn requirements(&self) -> Vec<DeviceRequirementSet> {
            vec![DeviceRequirementSet::new("pump", vec![Requirement::Class(DeviceClass::Infusion)])]
        }
        fn on_associated(&mut self, ctx: &mut AppCtx<'_>) {
            if !self.sent {
                self.sent = true;
                ctx.command("pump", self.command);
            }
        }
        fn on_data(&mut self, _ctx: &mut AppCtx<'_>, _kind: VitalKind, _value: f64, _at: SimTime) {}
        fn on_tick(&mut self, _ctx: &mut AppCtx<'_>) {}
    }

    fn deliver(sim: &mut Simulation<IceMsg>, sup: ActorId, from: EndpointId, payload: NetPayload) {
        sim.schedule(sim.now(), sup, IceMsg::Net(NetOp::Deliver { from, payload }));
        sim.run();
    }

    fn setup() -> (Simulation<IceMsg>, ActorId, EndpointId, EndpointId) {
        setup_with(Probe::default())
    }

    fn setup_with(app: impl ClinicalApp) -> (Simulation<IceMsg>, ActorId, EndpointId, EndpointId) {
        let mut fabric = Fabric::new();
        fabric.set_default_qos(LinkQos::ideal());
        let dev = fabric.add_endpoint("dev");
        let sup_ep = fabric.add_endpoint("sup");
        let mut sim: Simulation<IceMsg> = Simulation::new(4);
        let nc = sim.add_actor("netctl", NetworkController::new(fabric));
        let sup = sim
            .add_actor("supervisor", Supervisor::new(app, nc, sup_ep, SimDuration::from_secs(2)));
        (sim, sup, dev, sup_ep)
    }

    fn monitor_profile() -> mcps_device::profile::DeviceProfile {
        mcps_device::monitor::pulse_oximeter("S-1").profile().clone()
    }

    fn pump_profile() -> mcps_device::profile::DeviceProfile {
        mcps_device::pump::PcaPump::profile("P-1", false)
    }

    #[test]
    fn data_from_unassociated_devices_is_ignored() {
        let (mut sim, sup, dev, _) = setup();
        deliver(
            &mut sim,
            sup,
            dev,
            NetPayload::Data { kind: VitalKind::Spo2, value: 97.0, sampled_at: SimTime::ZERO },
        );
        let s = sim.actor_as::<Supervisor>(sup).unwrap().core();
        assert_eq!(s.data_received(), 0);
        assert_eq!(s.data_ignored(), 1);
        assert!(s.app_as::<Probe>().unwrap().data_points.is_empty());
    }

    #[test]
    fn association_gates_data_and_fires_callback() {
        let (mut sim, sup, dev, _) = setup();
        deliver(
            &mut sim,
            sup,
            dev,
            NetPayload::Announce { profile: monitor_profile(), endpoint: dev },
        );
        {
            let s = sim.actor_as::<Supervisor>(sup).unwrap().core();
            assert!(s.manager().fully_associated());
            assert_eq!(s.app_as::<Probe>().unwrap().associated_calls, 1);
            assert_eq!(s.associations_completed(), 1);
        }
        deliver(
            &mut sim,
            sup,
            dev,
            NetPayload::Data { kind: VitalKind::Spo2, value: 96.0, sampled_at: SimTime::ZERO },
        );
        let s = sim.actor_as::<Supervisor>(sup).unwrap().core();
        assert_eq!(s.data_received(), 1);
        assert_eq!(s.app_as::<Probe>().unwrap().data_points, vec![(VitalKind::Spo2, 96.0)]);
    }

    #[test]
    fn duplicate_announce_does_not_refire_on_associated() {
        let (mut sim, sup, dev, _) = setup();
        for _ in 0..3 {
            deliver(
                &mut sim,
                sup,
                dev,
                NetPayload::Announce { profile: monitor_profile(), endpoint: dev },
            );
        }
        let s = sim.actor_as::<Supervisor>(sup).unwrap().core();
        assert_eq!(s.app_as::<Probe>().unwrap().associated_calls, 1);
        assert_eq!(s.associations_completed(), 1);
    }

    #[test]
    fn silent_monitor_is_disassociated_on_tick() {
        let (mut sim, sup, dev, _) = setup();
        deliver(
            &mut sim,
            sup,
            dev,
            NetPayload::Announce { profile: monitor_profile(), endpoint: dev },
        );
        // Supervisor ticks for 40 s with no data: liveness vacates.
        sim.schedule(sim.now(), sup, IceMsg::Tick);
        sim.run_until(sim.now() + SimDuration::from_secs(40));
        let s = sim.actor_as::<Supervisor>(sup).unwrap().core();
        assert!(!s.manager().fully_associated(), "silent device must vacate its slot");
        assert!(s.app_as::<Probe>().unwrap().ticks > 30);
        // Losing a streaming device is a degraded-mode entry.
        assert!(s.is_degraded());
        assert_eq!(s.alarm(), Some("sensor-silent"));
    }

    /// Regression: `check_device_liveness` used to treat a *missing*
    /// liveness clock as infinite silence, so a freshly associated
    /// device whose clock had not been seeded was vacated on the very
    /// first liveness tick. A missing entry must instead start the
    /// clock at the current instant.
    #[test]
    fn missing_liveness_clock_is_seeded_not_vacated() {
        let (mut sim, sup, dev, _) = setup();
        deliver(
            &mut sim,
            sup,
            dev,
            NetPayload::Announce { profile: monitor_profile(), endpoint: dev },
        );
        // Simulate the pre-fix state: associated, but no liveness clock
        // (the announce-time seeding is what normally prevents this).
        sim.actor_as_mut::<Supervisor>(sup).unwrap().core.last_data.remove(&dev);
        sim.schedule(sim.now(), sup, IceMsg::Tick);
        sim.run_until(sim.now() + SimDuration::from_secs(5));
        let s = sim.actor_as::<Supervisor>(sup).unwrap().core();
        assert!(
            s.manager().fully_associated(),
            "a device with no data *yet* must not be vacated instantly"
        );
        assert!(!s.is_degraded());
        // The clock the tick seeded now ages normally: 40 s of real
        // silence later the device is gone.
        let mut sim2 = sim;
        sim2.run_until(sim2.now() + SimDuration::from_secs(40));
        assert!(!sim2.actor_as::<Supervisor>(sup).unwrap().core().manager().fully_associated());
    }

    /// Regression: inflight entries for commands whose acks never come
    /// used to leak forever — and precisely the worst RTTs were the
    /// ones missing from the deadline statistics. They must expire at
    /// the RTT deadline and count as unanswered.
    #[test]
    fn lost_ack_expires_inflight_and_counts_unanswered() {
        // GrantTicket is non-retryable: expiry happens one deadline
        // after the send, with no retransmission.
        let (mut sim, sup, dev, _) = setup_with(OneShot::new(IceCommand::GrantTicket {
            validity: SimDuration::from_secs(15),
        }));
        // The pump endpoint is bound to no actor, so the command (and
        // any ack) vanishes into the void.
        deliver(
            &mut sim,
            sup,
            dev,
            NetPayload::Announce { profile: pump_profile(), endpoint: dev },
        );
        sim.schedule(sim.now(), sup, IceMsg::Tick);
        sim.run_until(sim.now() + SimDuration::from_secs(10));
        let s = sim.actor_as::<Supervisor>(sup).unwrap().core();
        assert_eq!(s.commands_sent(), 1);
        assert_eq!(s.commands_retried(), 0, "ticket grants are never retried");
        assert!(
            s.inflight.values().all(|e| matches!(e.command, IceCommand::Heartbeat)),
            "expired command entries must be removed (only live heartbeats may remain)"
        );
        assert_eq!(s.commands_unanswered(), 1, "dead heartbeats are not unanswered commands");
        let (hb_sent, _, hb_unanswered) = s.heartbeat_counts();
        assert!(hb_sent >= 2, "the pump is stop-capable, so it is heartbeated");
        assert!(hb_unanswered >= 1, "unanswered heartbeats land in their own counter");
        assert!(!s.is_degraded(), "a lost grant is not a lost pump");
    }

    /// A stop command whose acks are all lost is retried with backoff
    /// and then escalated by the ack watchdog to degraded mode.
    #[test]
    fn lost_stop_ack_trips_watchdog_into_degraded() {
        let (mut sim, sup, dev, _) = setup_with(OneShot::new(IceCommand::StopPump));
        deliver(
            &mut sim,
            sup,
            dev,
            NetPayload::Announce { profile: pump_profile(), endpoint: dev },
        );
        sim.schedule(sim.now(), sup, IceMsg::Tick);
        sim.run_until(sim.now() + SimDuration::from_secs(60));
        let s = sim.actor_as::<Supervisor>(sup).unwrap().core();
        // The app's stop is retried MAX_RETRIES times, then the
        // watchdog fires; the degrade path keeps probing with fresh
        // stops (each with its own retry cycle) as long as none is
        // confirmed. The pump never answers, so degraded mode holds.
        assert!(s.commands_retried() >= 2 * u64::from(MAX_RETRIES));
        let probes =
            s.inflight.values().filter(|e| !matches!(e.command, IceCommand::Heartbeat)).count();
        assert!(probes <= 1, "at most the current probe is outstanding");
        assert!(s.watchdog_escalations() >= 2);
        assert!(s.is_degraded(), "an unconfirmed stop must hold degraded mode");
        assert_eq!(s.alarm(), Some("stop-ack-lost"));
        assert!(s.commands_unanswered() >= 2, "each dead stop counts once, not per retry");
        assert_eq!(
            s.commands_unanswered() * u64::from(MAX_RETRIES),
            s.commands_retried(),
            "every dead stop ran a full retry cycle"
        );
    }

    /// Degraded mode is exited hysteretically: only after the system
    /// has been fully associated with fresh data for the whole settling
    /// window, and transient recoveries reset the clock.
    #[test]
    fn degraded_mode_exits_hysteretically_on_recovery() {
        let (mut sim, sup, dev, _) = setup();
        deliver(
            &mut sim,
            sup,
            dev,
            NetPayload::Announce { profile: monitor_profile(), endpoint: dev },
        );
        sim.schedule(sim.now(), sup, IceMsg::Tick);
        // 40 s of silence: vacate + degrade.
        sim.run_until(sim.now() + SimDuration::from_secs(40));
        assert!(sim.actor_as::<Supervisor>(sup).unwrap().core().is_degraded());
        // Device comes back: re-announce, then fresh data every second.
        let back = sim.now() + SimDuration::from_secs(1);
        sim.schedule(
            back,
            sup,
            IceMsg::Net(NetOp::Deliver {
                from: dev,
                payload: NetPayload::Announce { profile: monitor_profile(), endpoint: dev },
            }),
        );
        for i in 1..=30u64 {
            let at = back + SimDuration::from_secs(i);
            sim.schedule(
                at,
                sup,
                IceMsg::Net(NetOp::Deliver {
                    from: dev,
                    payload: NetPayload::Data {
                        kind: VitalKind::Spo2,
                        value: 97.0,
                        sampled_at: at,
                    },
                }),
            );
        }
        // Inside the hysteresis window the mode must hold.
        sim.run_until(back + SimDuration::from_secs(10));
        assert!(
            sim.actor_as::<Supervisor>(sup).unwrap().core().is_degraded(),
            "must stay degraded inside the hysteresis window"
        );
        sim.run_until(back + SimDuration::from_secs(30));
        let sup = sim.actor_as::<Supervisor>(sup).unwrap();
        let s = sup.core();
        assert!(!s.is_degraded(), "healthy for > hysteresis window: degraded mode ends");
        assert!(s.alarm().is_none(), "alarm clears on exit");
        let log = sup.history().degraded_windows();
        assert_eq!(log.len(), 1);
        assert!(log[0].1.is_some(), "the degraded window is closed");
        assert_eq!(s.associations_completed(), 2, "recovery counted as a hot-swap");
    }

    fn setup_standby(
        app: impl ClinicalApp,
    ) -> (Simulation<IceMsg>, ActorId, EndpointId, EndpointId) {
        let mut fabric = Fabric::new();
        fabric.set_default_qos(LinkQos::ideal());
        let dev = fabric.add_endpoint("dev");
        let standby_ep = fabric.add_endpoint("standby");
        let mut sim: Simulation<IceMsg> = Simulation::new(4);
        let nc = sim.add_actor("netctl", NetworkController::new(fabric));
        let sup = sim.add_actor(
            "standby",
            Supervisor::from_core(
                SupervisorCore::new(app, standby_ep, SimDuration::from_secs(2))
                    .with_role(SupervisorRole::Standby)
                    .with_redundancy(""),
                nc,
            ),
        );
        (sim, sup, dev, standby_ep)
    }

    /// A standby that stops hearing checkpoints promotes itself with an
    /// epoch that fences the old primary, and adopts the replicated
    /// degraded latch so failover cannot forget an active alarm.
    #[test]
    fn standby_promotes_on_checkpoint_silence_and_inherits_degraded() {
        let (mut sim, sup, primary_ep, _) = setup_standby(Probe::default());
        deliver(
            &mut sim,
            sup,
            primary_ep,
            NetPayload::Checkpoint(Box::new(CheckpointState {
                epoch: 1,
                next_command_id: 7,
                degraded: true,
                stop_unconfirmed: false,
                inflight_ids: vec![5, 6],
                last_data: Vec::new(),
            })),
        );
        {
            let s = sim.actor_as::<Supervisor>(sup).unwrap().core();
            assert_eq!(s.role(), SupervisorRole::Standby);
            assert_eq!(s.replicated_inflight_ids(), &[5, 6]);
            assert_eq!(s.failovers(), 0);
        }
        // The primary now falls silent: after MISSED_CHECKPOINT_LIMIT
        // periods without a checkpoint the standby takes over.
        sim.schedule(sim.now(), sup, IceMsg::Tick);
        sim.run_until(sim.now() + SimDuration::from_secs(20));
        let s = sim.actor_as::<Supervisor>(sup).unwrap().core();
        assert_eq!(s.role(), SupervisorRole::Primary);
        assert_eq!(s.failovers(), 1);
        assert_eq!(s.epoch(), 2, "promotion epoch exceeds everything the primary stamped");
        assert!(s.is_degraded(), "a replicated degraded latch survives failover");
        assert_eq!(s.alarm(), Some("inherited-degraded"));
        assert!(s.next_command_id >= 7, "the id high-water mark is adopted");
    }

    /// A standby that never saw a single checkpoint (primary died
    /// before replicating) still promotes past the configured primary
    /// epoch: the fence holds even for an instant primary death.
    #[test]
    fn standby_promotes_past_epoch_one_without_any_checkpoint() {
        let (mut sim, sup, _, _) = setup_standby(Probe::default());
        sim.schedule(SimTime::ZERO, sup, IceMsg::Tick);
        sim.run_until(SimTime::from_secs(20));
        let s = sim.actor_as::<Supervisor>(sup).unwrap().core();
        assert_eq!(s.role(), SupervisorRole::Primary);
        assert!(s.epoch() >= 2, "a promoted standby must outrank the epoch-1 primary");
    }

    /// A primary that sees a higher-epoch checkpoint is the stale half
    /// of a healed partition: it steps down, abandoning its inflight
    /// commands and closing any open degraded window (a standby cannot
    /// run the degraded exit, so leaving it open would leak forever).
    #[test]
    fn primary_steps_down_and_closes_degraded_window_on_higher_epoch() {
        let (mut sim, sup, dev, _) = setup();
        deliver(
            &mut sim,
            sup,
            dev,
            NetPayload::Announce { profile: monitor_profile(), endpoint: dev },
        );
        sim.schedule(sim.now(), sup, IceMsg::Tick);
        // 40 s of silence: vacate + degrade, window left open.
        sim.run_until(sim.now() + SimDuration::from_secs(40));
        assert!(sim.actor_as::<Supervisor>(sup).unwrap().core().is_degraded());
        let at = sim.now() + SimDuration::from_secs(1);
        sim.schedule(
            at,
            sup,
            IceMsg::Net(NetOp::Deliver {
                from: dev,
                payload: NetPayload::Checkpoint(Box::new(CheckpointState {
                    epoch: 9,
                    next_command_id: 0,
                    degraded: false,
                    stop_unconfirmed: false,
                    inflight_ids: Vec::new(),
                    last_data: Vec::new(),
                })),
            }),
        );
        sim.run_until(at + SimDuration::from_secs(2));
        let sup = sim.actor_as::<Supervisor>(sup).unwrap();
        let s = sup.core();
        assert_eq!(s.role(), SupervisorRole::Standby);
        assert_eq!(s.stepdowns(), 1);
        assert!(!s.is_degraded(), "the higher-epoch primary owns the degraded state now");
        assert!(s.alarm().is_none());
        let windows = sup.history().degraded_windows();
        assert!(windows.last().unwrap().1.is_some(), "open window closed at stepdown");
        assert!(s.inflight.is_empty(), "inflight commands are abandoned at stepdown");
    }

    /// Standbys own no part of the command channel: app commands are
    /// suppressed (counted separately from degraded suppression) and no
    /// heartbeats are sent until promotion.
    #[test]
    fn standby_suppresses_app_commands_and_sends_nothing() {
        let (mut sim, sup, dev, _) = setup_standby(OneShot::new(IceCommand::StopPump));
        deliver(
            &mut sim,
            sup,
            dev,
            NetPayload::Announce { profile: pump_profile(), endpoint: dev },
        );
        sim.schedule(sim.now(), sup, IceMsg::Tick);
        // Short of the promotion trigger, so it stays standby throughout.
        sim.run_until(sim.now() + SimDuration::from_secs(8));
        let s = sim.actor_as::<Supervisor>(sup).unwrap().core();
        assert_eq!(s.role(), SupervisorRole::Standby);
        assert_eq!(s.commands_sent(), 0, "standbys put nothing on the wire");
        assert!(s.standby_suppressed() >= 1, "the app's stop was suppressed, not sent");
        assert_eq!(s.heartbeat_counts().0, 0, "standbys do not heartbeat");
    }

    /// A heartbeat-ack gap longer than the device's local fail-safe
    /// deadline means its watchdog latched while the supervisor was
    /// away: the supervisor owes it a resume once contact resumes (and
    /// the system is not otherwise degraded).
    #[test]
    fn heartbeat_gap_triggers_failsafe_release_resume() {
        let (mut sim, sup, dev, _) = setup_with(OneShot::new(IceCommand::GrantTicket {
            validity: SimDuration::from_secs(15),
        }));
        deliver(
            &mut sim,
            sup,
            dev,
            NetPayload::Announce { profile: pump_profile(), endpoint: dev },
        );
        sim.schedule(sim.now(), sup, IceMsg::Tick);
        // First heartbeat goes out at the first tick with id 1 (the
        // app's grant took id 0); ack it promptly.
        let t1 = sim.now() + SimDuration::from_secs(1);
        sim.schedule(
            t1,
            sup,
            IceMsg::Net(NetOp::Deliver {
                from: dev,
                payload: NetPayload::Ack { id: 1, command: IceCommand::Heartbeat, applied_at: t1 },
            }),
        );
        // Then 20 s of ack silence — past the fail-safe deadline — and
        // a late heartbeat ack (its id long expired; the gap logic does
        // not care).
        let t2 = t1 + SimDuration::from_secs(20);
        sim.schedule(
            t2,
            sup,
            IceMsg::Net(NetOp::Deliver {
                from: dev,
                payload: NetPayload::Ack {
                    id: 999,
                    command: IceCommand::Heartbeat,
                    applied_at: t2,
                },
            }),
        );
        sim.run_until(t2 + SimDuration::from_secs(1));
        let sup = sim.actor_as::<Supervisor>(sup).unwrap();
        let s = sup.core();
        let (hb_sent, hb_acked, _) = s.heartbeat_counts();
        assert!(hb_sent >= 4);
        assert_eq!(hb_acked, 1, "only the inflight-matched ack counts toward RTTs");
        let rtts = sup.history().heartbeat_rtts();
        assert_eq!(rtts.len(), 1);
        assert!(rtts[0] >= SimDuration::from_millis(999), "RTT measured from the heartbeat send");
        assert_eq!(s.commands_sent(), 2, "the grant plus exactly one fail-safe release ResumePump");
        assert!(
            s.inflight.values().any(|e| matches!(e.command, IceCommand::ResumePump)),
            "the release resume is on the wire"
        );
    }
}
