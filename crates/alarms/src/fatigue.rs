//! Alarm fatigue: the operational consequence of false alarms.
//!
//! The clinical harm of a high false-alarm rate is not the noise — it
//! is that true alarms stop being answered. [`NurseModel`] captures the
//! well-documented desensitization effect: the probability of a prompt
//! response decays with the recent alarm burden, and response latency
//! grows with it. Feeding both algorithms' alarm streams through the
//! same nurse model converts a false-alarm-rate difference into a
//! *missed-true-alarm* difference — the number that matters.

use mcps_runtime::rng::{bernoulli, log_normal};
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Parameters of the nurse desensitization model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NurseConfig {
    /// Response probability at zero recent burden.
    pub base_response: f64,
    /// Response probability floor under extreme burden.
    pub floor_response: f64,
    /// Recent alarm burden (alarms in the sliding hour) at which
    /// responsiveness has decayed halfway to the floor.
    pub half_burden_per_hour: f64,
    /// Median response delay at zero burden, seconds.
    pub base_delay_secs: f64,
    /// Each recent alarm adds this fraction to the delay median.
    pub delay_growth_per_alarm: f64,
}

impl Default for NurseConfig {
    fn default() -> Self {
        NurseConfig {
            base_response: 0.97,
            floor_response: 0.25,
            half_burden_per_hour: 10.0,
            base_delay_secs: 45.0,
            delay_growth_per_alarm: 0.08,
        }
    }
}

/// One nurse's reaction to one alarm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NurseResponse {
    /// Whether the alarm was answered at all.
    pub responded: bool,
    /// Delay from annunciation to bedside, seconds (meaningful only if
    /// `responded`).
    pub delay_secs: f64,
}

/// The stateful nurse model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NurseModel {
    config: NurseConfig,
    recent: VecDeque<f64>,
}

impl NurseModel {
    /// Creates a rested nurse.
    pub fn new(config: NurseConfig) -> Self {
        NurseModel { config, recent: VecDeque::new() }
    }

    /// Current burden: alarms in the last hour before `t_secs`.
    pub fn burden(&self, t_secs: f64) -> usize {
        self.recent.iter().filter(|&&a| t_secs - a <= 3600.0).count()
    }

    /// Current response probability at `t_secs`.
    pub fn response_probability(&self, t_secs: f64) -> f64 {
        let c = &self.config;
        let burden = self.burden(t_secs) as f64;
        c.floor_response
            + (c.base_response - c.floor_response) / (1.0 + burden / c.half_burden_per_hour)
    }

    /// Processes one alarm annunciated at `t_secs`.
    pub fn on_alarm(&mut self, t_secs: f64, rng: &mut impl RngCore) -> NurseResponse {
        let p = self.response_probability(t_secs);
        let burden = self.burden(t_secs) as f64;
        self.recent.push_back(t_secs);
        while self.recent.front().is_some_and(|&a| t_secs - a > 3600.0) {
            self.recent.pop_front();
        }
        let responded = bernoulli(rng, p);
        let median =
            self.config.base_delay_secs * (1.0 + self.config.delay_growth_per_alarm * burden);
        let delay_secs = log_normal(rng, median.max(1.0).ln(), 0.4);
        NurseResponse { responded, delay_secs }
    }
}

impl Default for NurseModel {
    fn default() -> Self {
        NurseModel::new(NurseConfig::default())
    }
}

/// Operational outcome of one alarm stream under a nurse model.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct OperationalScore {
    /// True alarms answered.
    pub true_answered: u32,
    /// True alarms that went unanswered (the harm).
    pub true_unanswered: u32,
    /// False alarms answered (wasted trips).
    pub false_answered: u32,
    /// Mean response delay over answered alarms, seconds.
    pub mean_delay_secs: f64,
}

impl OperationalScore {
    /// Fraction of true alarms answered (1.0 if none occurred).
    pub fn true_response_rate(&self) -> f64 {
        let total = self.true_answered + self.true_unanswered;
        if total == 0 {
            1.0
        } else {
            f64::from(self.true_answered) / f64::from(total)
        }
    }
}

/// Feeds an alarm stream through a fresh nurse and scores it.
/// `alarm_onsets_secs` must be sorted; `is_true` labels each alarm.
pub fn operational_score(
    alarm_onsets_secs: &[f64],
    is_true: impl Fn(f64) -> bool,
    config: NurseConfig,
    rng: &mut impl RngCore,
) -> OperationalScore {
    let labeled: Vec<(f64, bool)> = alarm_onsets_secs.iter().map(|&t| (t, is_true(t))).collect();
    operational_score_labeled(&labeled, config, rng)
}

/// Like [`operational_score`], but with pre-labeled alarms — used when
/// truth is judged per bed before streams are pooled at a central
/// monitoring station.
pub fn operational_score_labeled(
    labeled_onsets: &[(f64, bool)],
    config: NurseConfig,
    rng: &mut impl RngCore,
) -> OperationalScore {
    let mut nurse = NurseModel::new(config);
    let mut score = OperationalScore::default();
    let mut delay_sum = 0.0;
    let mut answered = 0u32;
    for &(t, truth) in labeled_onsets {
        let r = nurse.on_alarm(t, rng);
        match (truth, r.responded) {
            (true, true) => score.true_answered += 1,
            (true, false) => score.true_unanswered += 1,
            (false, true) => score.false_answered += 1,
            (false, false) => {}
        }
        if r.responded {
            answered += 1;
            delay_sum += r.delay_secs;
        }
    }
    if answered > 0 {
        score.mean_delay_secs = delay_sum / f64::from(answered);
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcps_runtime::rng::RngFactory;

    fn rng() -> mcps_runtime::rng::SimRng {
        RngFactory::new(12).stream("fatigue")
    }

    #[test]
    fn rested_nurse_almost_always_responds() {
        let n = NurseModel::default();
        assert!((n.response_probability(0.0) - 0.97).abs() < 1e-9);
    }

    #[test]
    fn burden_decays_responsiveness_toward_floor() {
        let mut n = NurseModel::default();
        let mut r = rng();
        for i in 0..100 {
            n.on_alarm(i as f64 * 10.0, &mut r);
        }
        let p = n.response_probability(1000.0);
        assert!(p < 0.4, "heavily alarmed nurse should be desensitized, p={p}");
        assert!(p >= 0.25, "never below the floor, p={p}");
    }

    #[test]
    fn old_alarms_age_out() {
        let mut n = NurseModel::default();
        let mut r = rng();
        for i in 0..50 {
            n.on_alarm(i as f64, &mut r);
        }
        assert!(n.burden(10.0) > 0);
        assert_eq!(n.burden(10_000.0), 0);
        assert!((n.response_probability(10_000.0) - 0.97).abs() < 1e-9);
    }

    #[test]
    fn delay_grows_with_burden() {
        let mut quiet_delays = Vec::new();
        let mut noisy_delays = Vec::new();
        let mut r = rng();
        for trial in 0..200 {
            let mut quiet = NurseModel::default();
            let resp = quiet.on_alarm(trial as f64 * 4000.0, &mut r);
            quiet_delays.push(resp.delay_secs);
            let mut noisy = NurseModel::default();
            for i in 0..30 {
                noisy.on_alarm(i as f64, &mut r);
            }
            let resp = noisy.on_alarm(31.0, &mut r);
            noisy_delays.push(resp.delay_secs);
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&noisy_delays) > 1.5 * mean(&quiet_delays),
            "noisy {} vs quiet {}",
            mean(&noisy_delays),
            mean(&quiet_delays)
        );
    }

    #[test]
    fn fewer_false_alarms_means_more_true_alarms_answered() {
        // Two streams with the same 10 true alarms; one buried in 300
        // false alarms, one in 15.
        let true_times: Vec<f64> = (0..10).map(|i| 2000.0 + i as f64 * 2500.0).collect();
        let build = |false_count: usize| -> Vec<f64> {
            let mut all: Vec<f64> =
                (0..false_count).map(|i| i as f64 * (28_000.0 / false_count as f64)).collect();
            all.extend(&true_times);
            all.sort_by(f64::total_cmp);
            all
        };
        let is_true = |t: f64| true_times.iter().any(|&x| (x - t).abs() < 1e-9);
        let mut r1 = rng();
        let mut r2 = RngFactory::new(12).stream("fatigue2");
        let noisy = operational_score(&build(300), is_true, NurseConfig::default(), &mut r1);
        let quiet = operational_score(&build(15), is_true, NurseConfig::default(), &mut r2);
        assert!(
            quiet.true_response_rate() > noisy.true_response_rate(),
            "quiet {:?} vs noisy {:?}",
            quiet,
            noisy
        );
        assert!(quiet.mean_delay_secs < noisy.mean_delay_secs);
    }

    #[test]
    fn empty_stream_scores_vacuously() {
        let mut r = rng();
        let s = operational_score(&[], |_| true, NurseConfig::default(), &mut r);
        assert_eq!(s.true_response_rate(), 1.0);
        assert_eq!(s.mean_delay_secs, 0.0);
    }
}
