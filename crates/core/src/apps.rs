//! Concrete clinical apps: the paper's two flagship scenarios.

use mcps_control::interlock::{InterlockAction, InterlockConfig, InterlockStrategy, PcaInterlock};
use mcps_device::profile::{
    CommandKind, DeviceClass, DeviceRequirementSet, LatencyClass, Requirement,
};
use mcps_patient::vitals::VitalKind;
use mcps_runtime::rng::log_normal;
use mcps_runtime::time::{SimDuration, SimTime};

use crate::app::{AppCtx, ClinicalApp};
use crate::msg::IceCommand;

/// A ward-floor spot-check monitoring app: one oximeter slot sampled
/// at general-care cadence (tens of seconds, not 1 Hz), no commands,
/// no interlock — it watches SpO₂ and counts desaturation alarms.
///
/// This is the cheap bed of the campus scenario: general-care wards
/// are overwhelmingly monitor-only, and their event budget is what
/// makes 10k concurrent beds tractable.
#[derive(Debug, Default)]
pub struct WardMonitorApp {
    observations: u64,
    desat_alarms: u64,
    /// Latched while SpO₂ is below threshold so one sustained desat
    /// counts once, not once per sample.
    in_desat: bool,
    last_spo2: Option<f64>,
}

/// SpO₂ below this raises a ward desaturation alarm.
const WARD_DESAT_THRESHOLD: f64 = 90.0;

impl WardMonitorApp {
    /// Creates the app.
    pub fn new() -> Self {
        WardMonitorApp::default()
    }

    /// Data points observed.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Distinct desaturation episodes alarmed.
    pub fn desat_alarms(&self) -> u64 {
        self.desat_alarms
    }

    /// The most recent SpO₂ reading, if any.
    pub fn last_spo2(&self) -> Option<f64> {
        self.last_spo2
    }
}

impl ClinicalApp for WardMonitorApp {
    fn requirements(&self) -> Vec<DeviceRequirementSet> {
        vec![DeviceRequirementSet::new(
            "monitor",
            vec![Requirement::Stream {
                kind: VitalKind::Spo2,
                // Spot-check cadence: anything at or under 30 s keeps
                // the supervisor's disassociation timeout satisfied.
                max_period: SimDuration::from_secs(30),
                latency_class: LatencyClass::BestEffort,
            }],
        )]
    }

    fn on_data(&mut self, ctx: &mut AppCtx<'_>, kind: VitalKind, value: f64, _at: SimTime) {
        self.observations += 1;
        if kind != VitalKind::Spo2 {
            return;
        }
        self.last_spo2 = Some(value);
        if value < WARD_DESAT_THRESHOLD {
            if !self.in_desat {
                self.in_desat = true;
                self.desat_alarms += 1;
                ctx.note_with(|| format!("ward desat alarm: SpO2 {value:.1}"));
            }
        } else {
            self.in_desat = false;
        }
    }

    fn on_tick(&mut self, _ctx: &mut AppCtx<'_>) {}
}

/// The PCA safety-interlock app: watches SpO₂/RR (and whatever else is
/// published), revokes the pump's permission on respiratory depression
/// or data staleness.
#[derive(Debug)]
pub struct PcaSafetyApp {
    interlock: PcaInterlock,
}

impl PcaSafetyApp {
    /// Creates the app around an interlock configuration.
    pub fn new(config: InterlockConfig) -> Self {
        PcaSafetyApp { interlock: PcaInterlock::new(config) }
    }

    /// The hosted interlock (for post-run inspection).
    pub fn interlock(&self) -> &PcaInterlock {
        &self.interlock
    }

    fn pump_requirements(&self) -> Vec<Requirement> {
        let mut reqs = vec![Requirement::Class(DeviceClass::Infusion)];
        match self.interlock.config().strategy {
            InterlockStrategy::Command => {
                reqs.push(Requirement::Command(CommandKind::Stop));
                reqs.push(Requirement::Command(CommandKind::Resume));
            }
            InterlockStrategy::Ticket { .. } => {
                reqs.push(Requirement::Command(CommandKind::GrantTicket));
            }
        }
        reqs
    }
}

impl ClinicalApp for PcaSafetyApp {
    fn requirements(&self) -> Vec<DeviceRequirementSet> {
        vec![
            DeviceRequirementSet::new(
                "oximeter",
                vec![Requirement::Stream {
                    kind: VitalKind::Spo2,
                    max_period: SimDuration::from_secs(2),
                    latency_class: LatencyClass::NearRealtime,
                }],
            ),
            DeviceRequirementSet::new(
                "capnograph",
                vec![Requirement::Stream {
                    kind: VitalKind::RespRate,
                    max_period: SimDuration::from_secs(2),
                    latency_class: LatencyClass::NearRealtime,
                }],
            ),
            DeviceRequirementSet::new("pump", self.pump_requirements()),
        ]
    }

    fn on_associated(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.note("PCA safety app armed");
    }

    fn on_data(&mut self, ctx: &mut AppCtx<'_>, kind: VitalKind, value: f64, _sampled_at: SimTime) {
        // Freshness is judged by *arrival* time: data delayed in the
        // network is exactly as dangerous as data never sent.
        self.interlock.on_measurement(ctx.now(), kind, value);
    }

    fn on_tick(&mut self, ctx: &mut AppCtx<'_>) {
        if !ctx.fully_associated() {
            return;
        }
        for action in self.interlock.on_tick(ctx.now()) {
            let cmd = match action {
                InterlockAction::StopPump => {
                    ctx.note("interlock: STOP pump");
                    IceCommand::StopPump
                }
                InterlockAction::ResumePump => {
                    ctx.note("interlock: resume pump");
                    IceCommand::ResumePump
                }
                InterlockAction::GrantTicket { validity } => IceCommand::GrantTicket { validity },
            };
            ctx.command("pump", cmd);
        }
    }
}

/// Workflow style for the x-ray coordination app.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkflowStyle {
    /// ICE-coordinated: steps proceed as fast as acks arrive.
    Automated,
    /// Manual baseline: a human performs each step after a log-normally
    /// distributed reaction delay with the given median (seconds).
    Manual {
        /// Median human step delay, seconds.
        median_step_delay_secs: f64,
    },
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum XrState {
    Idle,
    WaitPauseAck,
    ArmWhenReady { at: SimTime },
    WaitArmAck,
    ExposeWhenReady { at: SimTime },
    WaitExposeAck,
    ResumeWhenReady { at: SimTime },
}

/// Coordinates ventilator pauses with x-ray exposures: pause → arm →
/// expose → resume, one exposure per `interval`.
#[derive(Debug)]
pub struct XRayCoordinatorApp {
    style: WorkflowStyle,
    total_exposures: u32,
    interval: SimDuration,
    pause_duration: SimDuration,
    step_timeout: SimDuration,
    state: XrState,
    state_since: SimTime,
    next_request_at: SimTime,
    requested: u32,
    completed: u32,
    aborted: u32,
}

impl XRayCoordinatorApp {
    /// Creates the coordinator: `total_exposures` exposures, one per
    /// `interval`, each inside a requested pause of `pause_duration`.
    pub fn new(
        style: WorkflowStyle,
        total_exposures: u32,
        interval: SimDuration,
        pause_duration: SimDuration,
    ) -> Self {
        XRayCoordinatorApp {
            style,
            total_exposures,
            interval,
            pause_duration,
            step_timeout: SimDuration::from_secs(60),
            state: XrState::Idle,
            state_since: SimTime::ZERO,
            next_request_at: SimTime::ZERO,
            requested: 0,
            completed: 0,
            aborted: 0,
        }
    }

    /// Exposure sequences started.
    pub fn requested(&self) -> u32 {
        self.requested
    }

    /// Exposure sequences completed (expose command acknowledged).
    pub fn completed(&self) -> u32 {
        self.completed
    }

    /// Sequences aborted on step timeout.
    pub fn aborted(&self) -> u32 {
        self.aborted
    }

    fn human_delay(&self, ctx: &mut AppCtx<'_>) -> SimDuration {
        match self.style {
            WorkflowStyle::Automated => SimDuration::ZERO,
            WorkflowStyle::Manual { median_step_delay_secs } => {
                let mu = median_step_delay_secs.max(0.1).ln();
                SimDuration::from_secs_f64(log_normal(ctx.rng(), mu, 0.5))
            }
        }
    }

    fn goto(&mut self, now: SimTime, state: XrState) {
        self.state = state;
        self.state_since = now;
    }
}

impl ClinicalApp for XRayCoordinatorApp {
    fn requirements(&self) -> Vec<DeviceRequirementSet> {
        vec![
            DeviceRequirementSet::new(
                "ventilator",
                vec![
                    Requirement::Class(DeviceClass::Ventilation),
                    Requirement::Command(CommandKind::PauseVentilation),
                    Requirement::Command(CommandKind::ResumeVentilation),
                ],
            ),
            DeviceRequirementSet::new(
                "xray",
                vec![
                    Requirement::Class(DeviceClass::Imaging),
                    Requirement::Command(CommandKind::ArmExposure),
                    Requirement::Command(CommandKind::Expose),
                ],
            ),
        ]
    }

    fn on_data(&mut self, _ctx: &mut AppCtx<'_>, _kind: VitalKind, _value: f64, _at: SimTime) {}

    fn on_ack(&mut self, ctx: &mut AppCtx<'_>, command: IceCommand, _applied_at: SimTime) {
        let now = ctx.now();
        match (self.state, command) {
            (XrState::WaitPauseAck, IceCommand::PauseVentilation { .. }) => {
                let delay = self.human_delay(ctx);
                self.goto(now, XrState::ArmWhenReady { at: now + delay });
            }
            (XrState::WaitArmAck, IceCommand::ArmExposure) => {
                let delay = self.human_delay(ctx);
                self.goto(now, XrState::ExposeWhenReady { at: now + delay });
            }
            (XrState::WaitExposeAck, IceCommand::Expose) => {
                // Hold the pause briefly past the shutter window so the
                // resume command cannot land mid-exposure.
                self.goto(now, XrState::ResumeWhenReady { at: now + SimDuration::from_secs(3) });
            }
            _ => {}
        }
    }

    fn on_tick(&mut self, ctx: &mut AppCtx<'_>) {
        if !ctx.fully_associated() {
            return;
        }
        let now = ctx.now();
        // Step timeout: abort the sequence, resume ventilation.
        if self.state != XrState::Idle && now.saturating_since(self.state_since) > self.step_timeout
        {
            self.aborted += 1;
            ctx.note("sequence aborted on timeout");
            ctx.command("ventilator", IceCommand::ResumeVentilation);
            self.next_request_at = now + self.interval;
            self.goto(now, XrState::Idle);
            return;
        }
        match self.state {
            XrState::Idle
                if self.requested < self.total_exposures && now >= self.next_request_at =>
            {
                self.requested += 1;
                ctx.command(
                    "ventilator",
                    IceCommand::PauseVentilation { duration: self.pause_duration },
                );
                self.goto(now, XrState::WaitPauseAck);
            }
            XrState::ArmWhenReady { at } if now >= at => {
                ctx.command("xray", IceCommand::ArmExposure);
                self.goto(now, XrState::WaitArmAck);
            }
            XrState::ExposeWhenReady { at } if now >= at => {
                ctx.command("xray", IceCommand::Expose);
                self.goto(now, XrState::WaitExposeAck);
            }
            XrState::ResumeWhenReady { at } if now >= at => {
                ctx.command("ventilator", IceCommand::ResumeVentilation);
                self.completed += 1;
                ctx.note_with(|| format!("exposure sequence {} complete", self.completed));
                self.next_request_at = now + self.interval;
                self.goto(now, XrState::Idle);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::DeviceManager;
    use mcps_runtime::rng::RngFactory;

    /// Drives an app through one callback with a fully-associated
    /// manager, returning the commands it issued.
    fn drive<A: ClinicalApp>(
        app: &mut A,
        manager: &DeviceManager,
        now_secs: u64,
        f: impl FnOnce(&mut A, &mut AppCtx<'_>),
    ) -> Vec<(String, IceCommand)> {
        let mut rng = RngFactory::new(1).stream("apps-test");
        let mut ctx = AppCtx::new(SimTime::from_secs(now_secs), manager, &mut rng);
        f(app, &mut ctx);
        ctx.into_parts().0
    }

    fn associated_manager(app: &impl ClinicalApp) -> DeviceManager {
        let mut fabric = mcps_net::fabric::Fabric::new();
        let mut m = DeviceManager::new(app.requirements());
        // Fill every slot with a synthetic all-capable device of the
        // slot's class (class requirements differ per slot).
        let omni = |class| {
            let mut b = mcps_device::profile::DeviceProfile::builder("Test", "Omni", "SN", class);
            for k in mcps_patient::vitals::VitalKind::ALL {
                b = b.stream(k, SimDuration::from_millis(500), LatencyClass::Realtime);
            }
            for c in [
                CommandKind::Stop,
                CommandKind::Resume,
                CommandKind::GrantTicket,
                CommandKind::PauseVentilation,
                CommandKind::ResumeVentilation,
                CommandKind::ArmExposure,
                CommandKind::Expose,
            ] {
                b = b.command(c);
            }
            b.build()
        };
        let slot_names: Vec<String> = m.slot_names().map(str::to_owned).collect();
        for slot in slot_names {
            let ep = fabric.add_endpoint(&format!("ep-{slot}"));
            let p = omni(match slot.as_str() {
                "pump" => DeviceClass::Infusion,
                "ventilator" => DeviceClass::Ventilation,
                "xray" => DeviceClass::Imaging,
                _ => DeviceClass::Monitor,
            });
            let outcome = m.on_announce(ep, &p);
            assert!(
                matches!(outcome, crate::manager::AssociationOutcome::Associated { .. }),
                "slot {slot}: {outcome:?}"
            );
        }
        assert!(m.fully_associated());
        m
    }

    #[test]
    fn pca_app_grants_tickets_on_healthy_fresh_data() {
        let mut app = PcaSafetyApp::new(InterlockConfig::default());
        let manager = associated_manager(&app);
        let mut grants = 0;
        for s in 0..30 {
            drive(&mut app, &manager, s, |a, ctx| {
                a.on_data(ctx, VitalKind::Spo2, 97.0, ctx.now());
                a.on_data(ctx, VitalKind::RespRate, 14.0, ctx.now());
            });
            let cmds = drive(&mut app, &manager, s, |a, ctx| a.on_tick(ctx));
            grants += cmds
                .iter()
                .filter(|(slot, c)| slot == "pump" && matches!(c, IceCommand::GrantTicket { .. }))
                .count();
        }
        assert!((5..=7).contains(&grants), "expected ~6 grants in 30s, got {grants}");
    }

    #[test]
    fn pca_app_withholds_when_unassociated() {
        let mut app = PcaSafetyApp::new(InterlockConfig::default());
        let manager = DeviceManager::new(app.requirements()); // nothing associated
        for s in 0..10 {
            let cmds = drive(&mut app, &manager, s, |a, ctx| a.on_tick(ctx));
            assert!(cmds.is_empty(), "no commands before association");
        }
    }

    #[test]
    fn xray_app_runs_one_full_sequence() {
        let mut app = XRayCoordinatorApp::new(
            WorkflowStyle::Automated,
            1,
            SimDuration::from_mins(2),
            SimDuration::from_secs(15),
        );
        let manager = associated_manager(&app);
        // Tick 0: requests the pause.
        let cmds = drive(&mut app, &manager, 0, |a, ctx| a.on_tick(ctx));
        assert!(
            matches!(cmds.as_slice(), [(s, IceCommand::PauseVentilation { .. })] if s == "ventilator")
        );
        // Ack the pause: app schedules the arm.
        drive(&mut app, &manager, 1, |a, ctx| {
            a.on_ack(
                ctx,
                IceCommand::PauseVentilation { duration: SimDuration::from_secs(15) },
                ctx.now(),
            )
        });
        let cmds = drive(&mut app, &manager, 2, |a, ctx| a.on_tick(ctx));
        assert!(
            matches!(cmds.as_slice(), [(s, IceCommand::ArmExposure)] if s == "xray"),
            "{cmds:?}"
        );
        drive(&mut app, &manager, 3, |a, ctx| a.on_ack(ctx, IceCommand::ArmExposure, ctx.now()));
        let cmds = drive(&mut app, &manager, 4, |a, ctx| a.on_tick(ctx));
        assert!(matches!(cmds.as_slice(), [(s, IceCommand::Expose)] if s == "xray"), "{cmds:?}");
        drive(&mut app, &manager, 5, |a, ctx| a.on_ack(ctx, IceCommand::Expose, ctx.now()));
        // Resume comes after the post-exposure hold (3 s).
        let cmds = drive(&mut app, &manager, 9, |a, ctx| a.on_tick(ctx));
        assert!(
            matches!(cmds.as_slice(), [(s, IceCommand::ResumeVentilation)] if s == "ventilator"),
            "{cmds:?}"
        );
        assert_eq!(app.completed(), 1);
        assert_eq!(app.aborted(), 0);
    }

    #[test]
    fn xray_app_aborts_on_step_timeout() {
        let mut app = XRayCoordinatorApp::new(
            WorkflowStyle::Automated,
            1,
            SimDuration::from_mins(2),
            SimDuration::from_secs(15),
        );
        let manager = associated_manager(&app);
        drive(&mut app, &manager, 0, |a, ctx| a.on_tick(ctx)); // pause requested
                                                               // No ack ever arrives: at +61 s the app must abort and resume.
        let cmds = drive(&mut app, &manager, 61, |a, ctx| a.on_tick(ctx));
        assert!(
            matches!(cmds.as_slice(), [(s, IceCommand::ResumeVentilation)] if s == "ventilator"),
            "{cmds:?}"
        );
        assert_eq!(app.aborted(), 1);
        assert_eq!(app.completed(), 0);
    }

    #[test]
    fn pca_app_requirements_follow_strategy() {
        let ticket = PcaSafetyApp::new(InterlockConfig::default());
        let reqs = ticket.requirements();
        assert_eq!(reqs.len(), 3);
        let pump_slot = reqs.iter().find(|r| r.slot == "pump").unwrap();
        assert!(pump_slot.requirements.contains(&Requirement::Command(CommandKind::GrantTicket)));

        let command = PcaSafetyApp::new(InterlockConfig {
            strategy: InterlockStrategy::Command,
            ..InterlockConfig::default()
        });
        let reqs = command.requirements();
        let pump_slot = reqs.iter().find(|r| r.slot == "pump").unwrap();
        assert!(pump_slot.requirements.contains(&Requirement::Command(CommandKind::Stop)));
    }

    #[test]
    fn xray_app_counts_start_at_zero() {
        let app = XRayCoordinatorApp::new(
            WorkflowStyle::Automated,
            5,
            SimDuration::from_mins(2),
            SimDuration::from_secs(15),
        );
        assert_eq!((app.requested(), app.completed(), app.aborted()), (0, 0, 0));
        assert_eq!(app.requirements().len(), 2);
    }
}
