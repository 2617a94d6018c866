//! Alarm performance scoring against physiological ground truth.
//!
//! Experiments score an alarm algorithm by comparing its annunciations
//! with ground-truth adverse episodes derived from the *true* (noise-
//! free) patient state: an alarm near a real episode is a true alarm;
//! anything else is a false alarm; an episode with no alarm is missed.

use mcps_patient::vitals::VitalsFrame;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A ground-truth adverse episode, in seconds of simulation time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Episode {
    /// Episode start, seconds.
    pub start_secs: f64,
    /// Episode end, seconds.
    pub end_secs: f64,
}

/// Detects ground-truth alarm-worthy episodes from true vitals:
/// sustained hypoxaemia (SpO₂ below a bound) or sustained respiratory
/// depression (RR below a bound).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpisodeDetector {
    spo2_bound: f64,
    rr_bound: f64,
    dwell_secs: f64,
    run_secs: f64,
    run_start: f64,
    in_episode: bool,
    episode_start: f64,
}

impl EpisodeDetector {
    /// Creates a detector: an episode begins once SpO₂ < `spo2_bound`
    /// **or** RR < `rr_bound` persists for `dwell_secs`.
    pub fn new(spo2_bound: f64, rr_bound: f64, dwell_secs: f64) -> Self {
        EpisodeDetector {
            spo2_bound,
            rr_bound,
            dwell_secs,
            run_secs: 0.0,
            run_start: 0.0,
            in_episode: false,
            episode_start: 0.0,
        }
    }

    /// The default clinical definition (SpO₂ < 90 or RR < 8 for 30 s).
    pub fn clinical_default() -> Self {
        EpisodeDetector::new(90.0, 8.0, 30.0)
    }

    /// Feeds one step of true vitals at `t_secs`; returns a completed
    /// episode when one *ends*.
    pub fn observe(&mut self, t_secs: f64, dt_secs: f64, truth: &VitalsFrame) -> Option<Episode> {
        let bad = truth.spo2 < self.spo2_bound || truth.resp_rate < self.rr_bound;
        if bad {
            if self.run_secs == 0.0 {
                self.run_start = t_secs;
            }
            self.run_secs += dt_secs;
            if !self.in_episode && self.run_secs >= self.dwell_secs {
                self.in_episode = true;
                self.episode_start = self.run_start;
            }
            None
        } else {
            self.run_secs = 0.0;
            if self.in_episode {
                self.in_episode = false;
                return Some(Episode { start_secs: self.episode_start, end_secs: t_secs });
            }
            None
        }
    }

    /// Closes any episode still open at the end of observation.
    pub fn finish(&mut self, t_secs: f64) -> Option<Episode> {
        if self.in_episode {
            self.in_episode = false;
            Some(Episode { start_secs: self.episode_start, end_secs: t_secs })
        } else {
            None
        }
    }

    /// Whether an episode is ongoing.
    pub fn in_episode(&self) -> bool {
        self.in_episode
    }
}

/// The scored performance of one alarm algorithm over one run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct AlarmScore {
    /// Alarms coinciding with a true episode.
    pub true_alarms: u32,
    /// Alarms with no nearby episode.
    pub false_alarms: u32,
    /// Episodes that received at least one alarm.
    pub detected_episodes: u32,
    /// Episodes that received none.
    pub missed_episodes: u32,
    /// Total observation, hours.
    pub observed_hours: f64,
}

impl AlarmScore {
    /// Detected / all episodes (1.0 when there were none).
    pub fn sensitivity(&self) -> f64 {
        let total = self.detected_episodes + self.missed_episodes;
        if total == 0 {
            1.0
        } else {
            f64::from(self.detected_episodes) / f64::from(total)
        }
    }

    /// False alarms per observed hour.
    pub fn false_alarm_rate_per_hour(&self) -> f64 {
        if self.observed_hours <= 0.0 {
            0.0
        } else {
            f64::from(self.false_alarms) / self.observed_hours
        }
    }

    /// True alarms / all alarms (1.0 when silent).
    pub fn precision(&self) -> f64 {
        let total = self.true_alarms + self.false_alarms;
        if total == 0 {
            1.0
        } else {
            f64::from(self.true_alarms) / f64::from(total)
        }
    }

    /// Merges another run's score into this one.
    pub fn merge(&mut self, other: &AlarmScore) {
        self.true_alarms += other.true_alarms;
        self.false_alarms += other.false_alarms;
        self.detected_episodes += other.detected_episodes;
        self.missed_episodes += other.missed_episodes;
        self.observed_hours += other.observed_hours;
    }

    /// Writes the score into a [`Telemetry`](mcps_runtime::telemetry::Telemetry)
    /// bus under `prefix`
    /// (`{prefix}.true_alarms`, `{prefix}.sensitivity`, …), making the
    /// bus the single sink experiment binaries aggregate from.
    pub fn export_into(&self, bus: &mut mcps_runtime::telemetry::Telemetry, prefix: &str) {
        bus.incr(&format!("{prefix}.true_alarms"), u64::from(self.true_alarms));
        bus.incr(&format!("{prefix}.false_alarms"), u64::from(self.false_alarms));
        bus.incr(&format!("{prefix}.detected_episodes"), u64::from(self.detected_episodes));
        bus.incr(&format!("{prefix}.missed_episodes"), u64::from(self.missed_episodes));
        bus.observe(&format!("{prefix}.observed_hours"), self.observed_hours);
        bus.observe(&format!("{prefix}.sensitivity"), self.sensitivity());
        bus.observe(&format!("{prefix}.far_per_hour"), self.false_alarm_rate_per_hour());
        bus.observe(&format!("{prefix}.precision"), self.precision());
    }
}

impl fmt::Display for AlarmScore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sens={:.2} FAR={:.2}/h prec={:.2} (TA={} FA={} det={} miss={})",
            self.sensitivity(),
            self.false_alarm_rate_per_hour(),
            self.precision(),
            self.true_alarms,
            self.false_alarms,
            self.detected_episodes,
            self.missed_episodes
        )
    }
}

/// Scores alarm onset times against episodes. An alarm is *true* when
/// it falls within `[start − tolerance, end + tolerance]` of some
/// episode; an episode is *detected* when some alarm does.
pub fn score_alarms(
    alarm_onsets_secs: &[f64],
    episodes: &[Episode],
    tolerance_secs: f64,
    observed_hours: f64,
) -> AlarmScore {
    let near = |alarm: f64, ep: &Episode| {
        alarm >= ep.start_secs - tolerance_secs && alarm <= ep.end_secs + tolerance_secs
    };
    let mut score = AlarmScore { observed_hours, ..AlarmScore::default() };
    for &a in alarm_onsets_secs {
        if episodes.iter().any(|e| near(a, e)) {
            score.true_alarms += 1;
        } else {
            score.false_alarms += 1;
        }
    }
    for e in episodes {
        if alarm_onsets_secs.iter().any(|&a| near(a, e)) {
            score.detected_episodes += 1;
        } else {
            score.missed_episodes += 1;
        }
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(spo2: f64, rr: f64) -> VitalsFrame {
        VitalsFrame {
            spo2,
            heart_rate: 70.0,
            resp_rate: rr,
            etco2: 38.0,
            bp_systolic: 120.0,
            bp_diastolic: 80.0,
            minute_ventilation: 6.0,
        }
    }

    #[test]
    fn detector_requires_dwell() {
        let mut d = EpisodeDetector::clinical_default();
        // 20 s dip: below dwell.
        for i in 0..20 {
            assert!(d.observe(i as f64, 1.0, &frame(85.0, 14.0)).is_none());
        }
        assert!(!d.in_episode());
        let done = d.observe(20.0, 1.0, &frame(97.0, 14.0));
        assert!(done.is_none());
    }

    #[test]
    fn detector_reports_episode_with_true_onset() {
        let mut d = EpisodeDetector::clinical_default();
        for i in 0..50 {
            d.observe(100.0 + i as f64, 1.0, &frame(85.0, 14.0));
        }
        assert!(d.in_episode());
        let ep = d.observe(150.0, 1.0, &frame(97.0, 14.0)).unwrap();
        assert!((ep.start_secs - 100.0).abs() < 1.5, "onset at dip start, got {}", ep.start_secs);
        assert!((ep.end_secs - 150.0).abs() < 1e-9);
    }

    #[test]
    fn rr_depression_also_counts() {
        let mut d = EpisodeDetector::clinical_default();
        for i in 0..40 {
            d.observe(i as f64, 1.0, &frame(97.0, 5.0));
        }
        assert!(d.in_episode());
    }

    #[test]
    fn finish_closes_open_episode() {
        let mut d = EpisodeDetector::clinical_default();
        for i in 0..40 {
            d.observe(i as f64, 1.0, &frame(85.0, 14.0));
        }
        let ep = d.finish(40.0).unwrap();
        assert!(ep.end_secs == 40.0 && ep.start_secs < 1.5);
        assert!(d.finish(41.0).is_none());
    }

    #[test]
    fn scoring_classifies_alarms() {
        let episodes = [Episode { start_secs: 100.0, end_secs: 200.0 }];
        let alarms = [90.0, 150.0, 500.0];
        let s = score_alarms(&alarms, &episodes, 30.0, 1.0);
        assert_eq!(s.true_alarms, 2); // 90 within tolerance, 150 inside
        assert_eq!(s.false_alarms, 1); // 500 far away
        assert_eq!(s.detected_episodes, 1);
        assert_eq!(s.missed_episodes, 0);
        assert!((s.sensitivity() - 1.0).abs() < 1e-12);
        assert!((s.false_alarm_rate_per_hour() - 1.0).abs() < 1e-12);
        assert!((s.precision() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn missed_episode_counted() {
        let episodes = [Episode { start_secs: 100.0, end_secs: 200.0 }];
        let s = score_alarms(&[], &episodes, 30.0, 2.0);
        assert_eq!(s.missed_episodes, 1);
        assert_eq!(s.sensitivity(), 0.0);
        assert_eq!(s.precision(), 1.0, "no alarms = vacuous precision");
    }

    #[test]
    fn merge_accumulates() {
        let mut a = AlarmScore {
            true_alarms: 1,
            false_alarms: 2,
            detected_episodes: 1,
            missed_episodes: 0,
            observed_hours: 1.0,
        };
        let b = AlarmScore {
            true_alarms: 3,
            false_alarms: 0,
            detected_episodes: 2,
            missed_episodes: 1,
            observed_hours: 2.0,
        };
        a.merge(&b);
        assert_eq!(a.true_alarms, 4);
        assert_eq!(a.observed_hours, 3.0);
        assert!((a.sensitivity() - 0.75).abs() < 1e-12);
    }
}
