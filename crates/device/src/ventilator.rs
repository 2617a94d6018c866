//! A mechanical ventilator with a bounded, safety-limited pause.
//!
//! The x-ray/ventilator synchronization scenario needs a ventilator
//! that (a) exposes its breath phase, (b) accepts a *bounded* pause
//! command so the chest is motion-free during an exposure, and (c)
//! auto-resumes when the pause budget is exhausted, no matter what the
//! rest of the system does — the device's own last line of defence.

use crate::profile::{CommandKind, DeviceClass, DeviceProfile};
use mcps_runtime::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Phase of the breath cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BreathPhase {
    /// Gas flowing in (chest rising).
    Inspiration,
    /// Passive exhalation (chest falling, then still).
    Expiration,
    /// Ventilation paused (chest still).
    Paused,
}

/// Ventilator settings.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VentilatorConfig {
    /// Breaths per minute.
    pub rate_bpm: f64,
    /// Inspiration fraction of the cycle (I:E of 1:2 ⇒ 1/3).
    pub insp_fraction: f64,
    /// The longest pause the device will ever honour.
    pub max_pause: SimDuration,
}

impl Default for VentilatorConfig {
    fn default() -> Self {
        VentilatorConfig {
            rate_bpm: 12.0,
            insp_fraction: 1.0 / 3.0,
            max_pause: SimDuration::from_secs(20),
        }
    }
}

impl VentilatorConfig {
    /// Validates the settings.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.rate_bpm.is_finite() && self.rate_bpm > 0.0 && self.rate_bpm <= 60.0) {
            return Err(format!("rate_bpm must be in (0,60], got {}", self.rate_bpm));
        }
        if !(self.insp_fraction > 0.0 && self.insp_fraction < 1.0) {
            return Err(format!("insp_fraction must be in (0,1), got {}", self.insp_fraction));
        }
        if self.max_pause.is_zero() {
            return Err("max_pause must be positive".into());
        }
        Ok(())
    }

    /// Duration of one full breath cycle.
    pub fn cycle(&self) -> SimDuration {
        SimDuration::from_secs_f64(60.0 / self.rate_bpm)
    }
}

/// Result of a pause request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PauseOutcome {
    /// Pause accepted; ventilation halts until `until` (or resume).
    Accepted {
        /// Instant at which the device will auto-resume.
        until: SimTime,
    },
    /// Rejected: already paused.
    AlreadyPaused,
}

/// The ventilator state machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ventilator {
    config: VentilatorConfig,
    /// Cycle phase reference: breathing resumed/started at this instant
    /// (phase 0 = start of inspiration).
    cycle_origin: SimTime,
    /// If paused: when the current pause started and when it ends at
    /// the latest.
    paused: Option<(SimTime, SimTime)>,
    /// Completed pause intervals (start, end), for post-hoc motion
    /// analysis.
    pause_log: Vec<(SimTime, SimTime)>,
    /// Count of auto-resumes (pause budget exhausted without resume).
    auto_resumes: u32,
}

impl Ventilator {
    /// Creates a running ventilator whose first inspiration starts at
    /// `start`.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`VentilatorConfig::validate`].
    pub fn new(start: SimTime, config: VentilatorConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid ventilator config: {e}");
        }
        Ventilator {
            config,
            cycle_origin: start,
            paused: None,
            pause_log: Vec::new(),
            auto_resumes: 0,
        }
    }

    /// The settings.
    pub fn config(&self) -> &VentilatorConfig {
        &self.config
    }

    /// The capability profile.
    pub fn profile(serial: &str) -> DeviceProfile {
        DeviceProfile::builder("Drager", "Vent-840", serial, DeviceClass::Ventilation)
            .command(CommandKind::PauseVentilation)
            .command(CommandKind::ResumeVentilation)
            .build()
    }

    /// Applies auto-resume if the pause budget expired before `now`.
    /// Call before querying state at a new time.
    pub fn poll(&mut self, now: SimTime) {
        if let Some((since, until)) = self.paused {
            if now >= until {
                self.paused = None;
                self.pause_log.push((since, until));
                self.cycle_origin = until; // breathing restarts at expiry
                self.auto_resumes += 1;
            }
        }
    }

    /// The breath phase at `now` (after any auto-resume).
    pub fn phase(&mut self, now: SimTime) -> BreathPhase {
        self.poll(now);
        if self.paused.is_some() {
            return BreathPhase::Paused;
        }
        let cycle = self.config.cycle().as_secs_f64();
        let t = now.saturating_since(self.cycle_origin).as_secs_f64() % cycle;
        if t < cycle * self.config.insp_fraction {
            BreathPhase::Inspiration
        } else {
            BreathPhase::Expiration
        }
    }

    /// Whether the chest is motion-free at `now` — true only while
    /// paused (during normal expiration there is still passive motion
    /// early in the phase; a pause guarantees stillness).
    pub fn is_motion_free(&mut self, now: SimTime) -> bool {
        self.phase(now) == BreathPhase::Paused
    }

    /// Time from `now` to the start of the next expiration (the ideal
    /// pause point).
    pub fn time_to_next_expiration(&mut self, now: SimTime) -> SimDuration {
        self.poll(now);
        let cycle = self.config.cycle().as_secs_f64();
        let insp = cycle * self.config.insp_fraction;
        let t = now.saturating_since(self.cycle_origin).as_secs_f64() % cycle;
        if t < insp {
            SimDuration::from_secs_f64(insp - t)
        } else {
            SimDuration::from_secs_f64(cycle - t + insp)
        }
    }

    /// Requests a pause of `duration` starting at `now`. The honoured
    /// duration is capped at `max_pause`.
    pub fn pause(&mut self, now: SimTime, duration: SimDuration) -> PauseOutcome {
        self.poll(now);
        if self.paused.is_some() {
            return PauseOutcome::AlreadyPaused;
        }
        let honoured = duration.min(self.config.max_pause);
        let until = now + honoured;
        self.paused = Some((now, until));
        PauseOutcome::Accepted { until }
    }

    /// Resumes ventilation immediately (no-op when running).
    pub fn resume(&mut self, now: SimTime) {
        self.poll(now);
        if let Some((since, _)) = self.paused.take() {
            self.pause_log.push((since, now));
            self.cycle_origin = now;
        }
    }

    /// Pauses honoured so far (completed or ongoing).
    pub fn pause_count(&self) -> u32 {
        self.pause_log.len() as u32 + u32::from(self.paused.is_some())
    }

    /// Completed pause intervals `(start, end)`, oldest first. An
    /// ongoing pause is not yet listed.
    pub fn pause_log(&self) -> &[(SimTime, SimTime)] {
        &self.pause_log
    }

    /// Whether the chest was motion-free throughout `[from, to]`
    /// according to the completed pause log and any ongoing pause.
    pub fn was_motion_free_during(&self, from: SimTime, to: SimTime) -> bool {
        let covers = |a: SimTime, b: SimTime| a <= from && to <= b;
        self.pause_log.iter().any(|&(a, b)| covers(a, b))
            || self.paused.is_some_and(|(a, b)| covers(a, b))
    }

    /// Auto-resumes (pause expired without an explicit resume) so far.
    pub fn auto_resume_count(&self) -> u32 {
        self.auto_resumes
    }

    /// Whether ventilation is paused at `now`.
    pub fn is_paused(&mut self, now: SimTime) -> bool {
        self.poll(now);
        self.paused.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn vent() -> Ventilator {
        // 12 bpm ⇒ 5 s cycle; insp 1/3 ⇒ inspiration [0, 1.667) s.
        Ventilator::new(t(0), VentilatorConfig::default())
    }

    #[test]
    fn phase_cycles_correctly() {
        let mut v = vent();
        assert_eq!(v.phase(t(0)), BreathPhase::Inspiration);
        assert_eq!(v.phase(SimTime::from_millis(1_600)), BreathPhase::Inspiration);
        assert_eq!(v.phase(SimTime::from_millis(1_700)), BreathPhase::Expiration);
        assert_eq!(v.phase(SimTime::from_millis(4_900)), BreathPhase::Expiration);
        assert_eq!(v.phase(t(5)), BreathPhase::Inspiration); // next cycle
    }

    #[test]
    fn pause_freezes_and_auto_resumes() {
        let mut v = vent();
        let out = v.pause(t(10), SimDuration::from_secs(8));
        assert_eq!(out, PauseOutcome::Accepted { until: t(18) });
        assert_eq!(v.phase(t(12)), BreathPhase::Paused);
        assert!(v.is_motion_free(t(17)));
        // Budget exhausted: breathing resumes by itself.
        assert_ne!(v.phase(t(19)), BreathPhase::Paused);
        assert_eq!(v.auto_resume_count(), 1);
        assert_eq!(v.pause_count(), 1);
    }

    #[test]
    fn pause_capped_at_max() {
        let mut v = vent();
        let out = v.pause(t(0), SimDuration::from_mins(5));
        assert_eq!(out, PauseOutcome::Accepted { until: t(20) }, "capped at max_pause");
    }

    #[test]
    fn double_pause_rejected() {
        let mut v = vent();
        v.pause(t(0), SimDuration::from_secs(10));
        assert_eq!(v.pause(t(1), SimDuration::from_secs(5)), PauseOutcome::AlreadyPaused);
        // After auto-resume a new pause works again.
        assert!(matches!(v.pause(t(30), SimDuration::from_secs(5)), PauseOutcome::Accepted { .. }));
    }

    #[test]
    fn explicit_resume_restarts_cycle() {
        let mut v = vent();
        v.pause(t(10), SimDuration::from_secs(15));
        v.resume(t(12));
        assert!(!v.is_paused(t(12)));
        // Cycle restarts at resume: inspiration right after.
        assert_eq!(v.phase(SimTime::from_millis(12_500)), BreathPhase::Inspiration);
        assert_eq!(v.auto_resume_count(), 0);
    }

    #[test]
    fn time_to_next_expiration() {
        let mut v = vent();
        // At t=0 (inspiration start), expiration begins at 5/3 s.
        let dt = v.time_to_next_expiration(t(0));
        assert!((dt.as_secs_f64() - 5.0 / 3.0).abs() < 1e-6);
        // During expiration, next one is a full cycle ahead minus elapsed.
        let dt2 = v.time_to_next_expiration(t(2));
        assert!((dt2.as_secs_f64() - (5.0 - 2.0 + 5.0 / 3.0)).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "invalid ventilator config")]
    fn invalid_config_panics() {
        let _ = Ventilator::new(
            t(0),
            VentilatorConfig { rate_bpm: 0.0, ..VentilatorConfig::default() },
        );
    }
}
