//! The monitored-ward alarm scenario.
//!
//! Experiment E2: a ward of monitored post-operative patients on PCA
//! therapy, artifact-rich sensors, and two alarm algorithms watching
//! the same measurement streams. Ground truth comes from the noise-free
//! patient state, so sensitivity and false-alarm rate can be computed
//! exactly.

use mcps_alarms::fatigue::{operational_score_labeled, NurseConfig, OperationalScore};
use mcps_alarms::fusion::FusionAlarm;
use mcps_alarms::stats::{score_alarms, AlarmScore, Episode, EpisodeDetector};
use mcps_alarms::threshold::ThresholdAlarm;
use mcps_device::monitor::{capnograph, pulse_oximeter};
use mcps_device::nibp::{NibpConfig, NibpMonitor};
use mcps_patient::cohort::{CohortConfig, CohortGenerator};
use mcps_patient::vitals::VitalKind;
use mcps_runtime::rng::RngFactory;
use mcps_runtime::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Ward configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WardConfig {
    /// Master seed.
    pub seed: u64,
    /// Number of monitored beds.
    pub patients: u32,
    /// Observation length per patient.
    pub duration: SimDuration,
    /// Cohort mix.
    pub cohort: CohortConfig,
    /// Mean therapeutic boluses per hour pushed by each patient
    /// (drives realistic opioid exposure, occasionally excessive).
    pub bolus_rate_per_hour: f64,
    /// Bolus size, mg.
    pub bolus_mg: f64,
    /// Alarm-to-episode matching tolerance, seconds.
    pub tolerance_secs: f64,
    /// Whether each bed has a cycling NIBP cuff on the same limb as
    /// the SpO₂ probe (blinding it for ~40 s every 5 min — a scheduled
    /// benign artifact the alarm algorithms must ride through).
    pub nibp_cuff: bool,
}

impl Default for WardConfig {
    fn default() -> Self {
        WardConfig {
            seed: 0,
            patients: 16,
            duration: SimDuration::from_mins(8 * 60),
            cohort: CohortConfig::default(),
            bolus_rate_per_hour: 4.0,
            bolus_mg: 1.2,
            tolerance_secs: 120.0,
            nibp_cuff: false,
        }
    }
}

/// Scores of both algorithms over the same ward.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WardOutcome {
    /// Conventional threshold alarms.
    pub threshold: AlarmScore,
    /// Fusion (smart) alarms.
    pub fusion: AlarmScore,
    /// Ground-truth episodes across the ward.
    pub episodes: u32,
    /// Operational outcome of the threshold stream at the central
    /// monitoring station (one nurse model over the pooled ward).
    pub threshold_operational: OperationalScore,
    /// Operational outcome of the fusion stream.
    pub fusion_operational: OperationalScore,
}

/// Runs the ward and scores both alarm algorithms.
pub fn run_ward_scenario(config: &WardConfig) -> WardOutcome {
    let cohort = CohortGenerator::new(config.seed, config.cohort);
    let factory = RngFactory::new(config.seed ^ 0xA1A2_A3A4);
    let mut threshold_total = AlarmScore::default();
    let mut fusion_total = AlarmScore::default();
    let mut episodes_total = 0u32;
    let mut threshold_labeled: Vec<(f64, bool)> = Vec::new();
    let mut fusion_labeled: Vec<(f64, bool)> = Vec::new();

    for bed in 0..config.patients {
        let mut patient = cohort.patient(u64::from(bed));
        let mut rng = factory.stream(&format!("bed-{bed}"));
        let mut oximeter = pulse_oximeter(&format!("OX-{bed}"));
        let mut capno = capnograph(&format!("CAP-{bed}"));
        let mut nibp = config.nibp_cuff.then(|| {
            NibpMonitor::new(SimTime::from_secs(60 + u64::from(bed) * 17), NibpConfig::default())
        });
        let mut threshold = ThresholdAlarm::pca_default();
        let mut fusion = FusionAlarm::pca_default();
        let mut detector = EpisodeDetector::clinical_default();
        let mut episodes: Vec<Episode> = Vec::new();
        let mut threshold_onsets: Vec<f64> = Vec::new();
        let mut fusion_onsets: Vec<f64> = Vec::new();
        let mut latest: BTreeMap<VitalKind, f64> = BTreeMap::new();

        let secs = config.duration.as_micros() / 1_000_000;
        let bolus_p = config.bolus_rate_per_hour / 3600.0;
        for s in 0..secs {
            let now = SimTime::from_secs(s);
            // Therapy: pain-driven demands, served directly (the ward
            // scenario studies alarms, not interlocks).
            if patient.perceived_pain() > 3.0 && mcps_runtime::rng::bernoulli(&mut rng, bolus_p) {
                patient.give_bolus(config.bolus_mg);
            }
            patient.advance(1.0, &mut rng);
            let truth = patient.vitals();
            if let Some(ep) = detector.observe(s as f64, 1.0, &truth) {
                episodes.push(ep);
            }
            // Sensors measure; algorithms see only measurements.
            let mut oximeter_blinded = false;
            if let Some(n) = nibp.as_mut() {
                if let Some(reading) = n.poll(now, &truth, &mut rng) {
                    latest.insert(VitalKind::BpSystolic, reading.systolic);
                    latest.insert(VitalKind::BpDiastolic, reading.diastolic);
                }
                oximeter_blinded = n.blinds_oximeter(now);
            }
            if !oximeter_blinded {
                for m in oximeter.sample(now, &truth, &mut rng) {
                    latest.insert(m.kind, m.value);
                }
            }
            for m in capno.sample(now, &truth, &mut rng) {
                latest.insert(m.kind, m.value);
            }
            for e in threshold.observe(now, &latest) {
                if e.phase == mcps_alarms::event::AlarmPhase::Onset {
                    threshold_onsets.push(s as f64);
                }
            }
            for e in fusion.observe(now, &latest) {
                if e.phase == mcps_alarms::event::AlarmPhase::Onset {
                    fusion_onsets.push(s as f64);
                }
            }
        }
        if let Some(ep) = detector.finish(secs as f64) {
            episodes.push(ep);
        }
        let hours = config.duration.as_secs_f64() / 3600.0;
        threshold_total.merge(&score_alarms(
            &threshold_onsets,
            &episodes,
            config.tolerance_secs,
            hours,
        ));
        fusion_total.merge(&score_alarms(&fusion_onsets, &episodes, config.tolerance_secs, hours));
        episodes_total += episodes.len() as u32;
        // Label each alarm against its own bed's episodes before the
        // streams are pooled at the central station.
        let near = |t: f64| {
            episodes.iter().any(|e| {
                t >= e.start_secs - config.tolerance_secs && t <= e.end_secs + config.tolerance_secs
            })
        };
        threshold_labeled.extend(threshold_onsets.iter().map(|&t| (t, near(t))));
        fusion_labeled.extend(fusion_onsets.iter().map(|&t| (t, near(t))));
    }

    // One nurse watches each pooled stream (a central monitoring
    // station): fatigue converts false-alarm burden into missed and
    // delayed responses to true alarms.
    threshold_labeled.sort_by(|a, b| a.0.total_cmp(&b.0));
    fusion_labeled.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut nurse_rng = factory.stream("ward-nurse");
    let threshold_operational =
        operational_score_labeled(&threshold_labeled, NurseConfig::default(), &mut nurse_rng);
    let mut nurse_rng = factory.stream("ward-nurse"); // same stream: fair comparison
    let fusion_operational =
        operational_score_labeled(&fusion_labeled, NurseConfig::default(), &mut nurse_rng);

    WardOutcome {
        threshold: threshold_total,
        fusion: fusion_total,
        episodes: episodes_total,
        threshold_operational,
        fusion_operational,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_ward(seed: u64) -> WardConfig {
        WardConfig {
            seed,
            patients: 6,
            duration: SimDuration::from_mins(120),
            ..WardConfig::default()
        }
    }

    #[test]
    fn fusion_cuts_false_alarms_at_comparable_sensitivity() {
        let out = run_ward_scenario(&small_ward(42));
        assert!(
            out.threshold.false_alarm_rate_per_hour() > 0.0,
            "threshold alarms should produce false alarms on artifact-rich data: {out:?}"
        );
        assert!(
            out.fusion.false_alarm_rate_per_hour()
                < 0.5 * out.threshold.false_alarm_rate_per_hour(),
            "fusion should cut FAR at least 2x: {out:?}"
        );
        // Sensitivity must not collapse.
        if out.episodes > 0 {
            assert!(
                out.fusion.sensitivity() >= out.threshold.sensitivity() - 0.25,
                "fusion must stay sensitive: {out:?}"
            );
        }
    }

    #[test]
    fn ward_is_deterministic() {
        let a = run_ward_scenario(&small_ward(7));
        let b = run_ward_scenario(&small_ward(7));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_ward_scenario(&small_ward(1));
        let b = run_ward_scenario(&small_ward(2));
        assert_ne!(a, b);
    }

    #[test]
    fn fatigue_model_favors_the_quieter_stream() {
        let out = run_ward_scenario(&WardConfig {
            seed: 9,
            patients: 10,
            duration: SimDuration::from_mins(4 * 60),
            ..WardConfig::default()
        });
        // The quieter fusion stream must never miss MORE true alarms
        // than the noisy threshold stream, and its responses are faster.
        assert!(
            out.fusion_operational.true_unanswered <= out.threshold_operational.true_unanswered,
            "{out:?}"
        );
        if out.threshold_operational.false_answered > 20 {
            assert!(
                out.fusion_operational.mean_delay_secs < out.threshold_operational.mean_delay_secs,
                "{out:?}"
            );
        }
    }

    #[test]
    fn nibp_cuff_does_not_break_fusion_advantage() {
        let mut cfg = small_ward(42);
        cfg.nibp_cuff = true;
        let out = run_ward_scenario(&cfg);
        // The periodic blinding must not flood either algorithm with
        // false alarms, and fusion must keep its advantage.
        assert!(
            out.fusion.false_alarm_rate_per_hour()
                < 0.5 * out.threshold.false_alarm_rate_per_hour().max(0.2),
            "{out:?}"
        );
        if out.episodes > 0 {
            assert!(out.fusion.sensitivity() >= out.threshold.sensitivity() - 0.25);
        }
    }
}
