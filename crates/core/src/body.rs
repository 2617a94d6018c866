//! The patient's body as shared physical state.
//!
//! Network messages are mediated by the fabric, but *physical*
//! couplings — drug flowing through a catheter, a sensor clipped to a
//! finger — are not network traffic. They are modelled as shared access
//! to one [`PatientBody`] cell: the patient actor advances physiology,
//! the pump actor infuses into it, monitor actors sample it. The
//! simulation is single-threaded, so `Rc<RefCell<_>>` is sound here.

use mcps_patient::patient::{PatientOutcome, VirtualPatient};
use mcps_patient::vitals::VitalsFrame;
use mcps_runtime::actor::Actor;
use mcps_runtime::kernel::Context;
use mcps_runtime::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

use crate::msg::IceMsg;

/// Shared handle to the patient's physiology.
#[derive(Debug, Clone)]
pub struct PatientBody {
    inner: Rc<RefCell<VirtualPatient>>,
}

impl PatientBody {
    /// Wraps a virtual patient for shared physical access.
    pub fn new(patient: VirtualPatient) -> Self {
        PatientBody { inner: Rc::new(RefCell::new(patient)) }
    }

    /// Current true vitals.
    pub fn vitals(&self) -> VitalsFrame {
        self.inner.borrow().vitals()
    }

    /// Infuses `mg` of drug (catheter path).
    pub fn infuse(&self, mg: f64) {
        self.inner.borrow_mut().give_bolus(mg);
    }

    /// Current effect-site concentration, mg/L.
    pub fn effect_site_conc(&self) -> f64 {
        self.inner.borrow().effect_site_conc()
    }

    /// Whether the patient is too sedated to press the button.
    pub fn is_unconscious(&self) -> bool {
        self.inner.borrow().is_unconscious()
    }

    /// Current perceived pain (0–10).
    pub fn perceived_pain(&self) -> f64 {
        self.inner.borrow().perceived_pain()
    }

    /// Total drug administered, mg.
    pub fn total_drug_mg(&self) -> f64 {
        self.inner.borrow().total_drug_mg()
    }

    /// Ground-truth outcome so far.
    pub fn outcome(&self) -> PatientOutcome {
        self.inner.borrow().outcome()
    }

    /// Direct access for advanced uses (kept crate-private to preserve
    /// the physical-interface discipline).
    pub(crate) fn with_mut<R>(&self, f: impl FnOnce(&mut VirtualPatient) -> R) -> R {
        f(&mut self.inner.borrow_mut())
    }
}

/// One sampled point of the ground-truth timeline.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TimelinePoint {
    /// Simulation time, seconds.
    pub t_secs: f64,
    /// True SpO₂, %.
    pub spo2: f64,
    /// True effect-site concentration, mg/L.
    pub effect_site: f64,
    /// Perceived pain, 0–10.
    pub pain: f64,
    /// Cumulative drug administered so far, mg — the campaign
    /// scorecard's no-overdose invariant reads delivery directly off
    /// the timeline.
    pub total_drug_mg: f64,
}

/// The actor that advances the patient's physiology in real time and
/// issues demand-button presses (genuine and, if configured, by-proxy).
#[derive(Debug)]
pub struct PatientActor {
    body: PatientBody,
    pump: Option<mcps_runtime::actor::ActorId>,
    step: SimDuration,
    /// Proxy presses per hour (PCA-by-proxy hazard); occur regardless
    /// of the patient's consciousness.
    proxy_rate_per_hour: f64,
    presses: u64,
    proxy_presses: u64,
    /// First instant at which true danger (deep ventilatory
    /// depression) existed — the ground-truth reference for interlock
    /// latency measurements.
    danger_onset: Option<SimTime>,
    /// Records the ground-truth timeline every `timeline_every` ticks
    /// when set (0 = off).
    timeline_every: u64,
    tick_count: u64,
    timeline: Vec<TimelinePoint>,
}

impl PatientActor {
    /// Creates the actor; `pump` is the pump actor to press, if any.
    pub fn new(
        body: PatientBody,
        pump: Option<mcps_runtime::actor::ActorId>,
        proxy_rate_per_hour: f64,
    ) -> Self {
        PatientActor {
            body,
            pump,
            step: SimDuration::from_secs(1),
            proxy_rate_per_hour,
            presses: 0,
            proxy_presses: 0,
            danger_onset: None,
            timeline_every: 0,
            tick_count: 0,
            timeline: Vec::new(),
        }
    }

    /// Sets the physiology step (default 1 s). Campus monitor-only beds
    /// advance their bodies at the spot-check cadence instead of 1 Hz;
    /// the model integrates over the actual elapsed `dt`, so a slower
    /// step trades temporal resolution for event-budget headroom.
    pub fn with_step(mut self, step: SimDuration) -> Self {
        assert!(!step.is_zero(), "patient step must be positive");
        self.step = step;
        self
    }

    /// Enables ground-truth timeline recording every `every` seconds.
    pub fn record_timeline_every(&mut self, every: u64) {
        self.timeline_every = every;
    }

    /// The recorded timeline (empty unless recording was enabled).
    pub fn timeline(&self) -> &[TimelinePoint] {
        &self.timeline
    }

    /// Genuine demand presses so far.
    pub fn presses(&self) -> u64 {
        self.presses
    }

    /// Proxy presses so far.
    pub fn proxy_presses(&self) -> u64 {
        self.proxy_presses
    }

    /// First instant of true physiological danger, if any occurred.
    pub fn danger_onset(&self) -> Option<SimTime> {
        self.danger_onset
    }

    /// Shared body handle.
    pub fn body(&self) -> &PatientBody {
        &self.body
    }
}

impl Actor<IceMsg> for PatientActor {
    fn handle(&mut self, msg: IceMsg, ctx: &mut Context<'_, IceMsg>) {
        if msg != IceMsg::Tick {
            return;
        }
        let dt = self.step.as_secs_f64();
        self.body.with_mut(|p| p.advance(dt, ctx.rng()));
        self.tick_count += 1;
        if self.timeline_every > 0 && self.tick_count.is_multiple_of(self.timeline_every) {
            let v = self.body.vitals();
            self.timeline.push(TimelinePoint {
                t_secs: ctx.now().as_secs_f64(),
                spo2: v.spo2,
                effect_site: self.body.effect_site_conc(),
                pain: self.body.perceived_pain(),
                total_drug_mg: self.body.total_drug_mg(),
            });
        }
        // Ground-truth danger marker: true SpO2 below 90.
        if self.danger_onset.is_none() && self.body.vitals().spo2 < 90.0 {
            self.danger_onset = Some(ctx.now());
            ctx.trace("truth", "danger onset: true SpO2 < 90");
        }
        if let Some(pump) = self.pump {
            let genuine = self.body.with_mut(|p| p.wants_bolus(dt, ctx.rng()));
            if genuine {
                self.presses += 1;
                ctx.trace("button", "patient press");
                ctx.send(pump, IceMsg::PressButton);
            }
            if self.proxy_rate_per_hour > 0.0 {
                let p = self.proxy_rate_per_hour * dt / 3600.0;
                if mcps_runtime::rng::bernoulli(ctx.rng(), p) {
                    self.proxy_presses += 1;
                    ctx.trace("button", "PROXY press");
                    ctx.send(pump, IceMsg::PressButton);
                }
            }
        }
        ctx.schedule_self(self.step, IceMsg::Tick);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcps_patient::patient::PatientParams;
    use mcps_runtime::kernel::Simulation;

    #[test]
    fn body_shares_state() {
        let body = PatientBody::new(VirtualPatient::new(PatientParams::default()));
        let clone = body.clone();
        body.infuse(2.0);
        assert!((clone.total_drug_mg() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn patient_actor_advances_physiology() {
        let body = PatientBody::new(VirtualPatient::new(PatientParams::default()));
        let mut sim: Simulation<IceMsg> = Simulation::new(1);
        let id = sim.add_actor("patient", PatientActor::new(body.clone(), None, 0.0));
        sim.schedule(SimTime::ZERO, id, IceMsg::Tick);
        sim.run_until(SimTime::from_secs(120));
        let elapsed = body.with_mut(|p| p.elapsed_secs());
        assert!((elapsed - 121.0).abs() < 2.0, "elapsed {elapsed}");
    }

    #[test]
    fn danger_onset_recorded_on_overdose() {
        let body = PatientBody::new(VirtualPatient::new(PatientParams::default()));
        body.infuse(15.0);
        let mut sim: Simulation<IceMsg> = Simulation::new(1);
        let id = sim.add_actor("patient", PatientActor::new(body.clone(), None, 0.0));
        sim.schedule(SimTime::ZERO, id, IceMsg::Tick);
        sim.run_until(SimTime::from_mins(30));
        let onset = sim.actor_as::<PatientActor>(id).unwrap().danger_onset();
        assert!(onset.is_some(), "overdose must produce a danger onset");
        assert!(onset.unwrap() > SimTime::from_secs(30), "desaturation takes time");
    }
}
