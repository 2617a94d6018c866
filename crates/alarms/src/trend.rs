//! Trend estimation: detecting deterioration before thresholds are hit.
//!
//! Opioid-induced respiratory depression develops over minutes. Waiting
//! for absolute limits (SpO₂ < 90) means the drug that will cause the
//! next ten minutes of desaturation is already on board. A sustained,
//! corroborated *slope* — SpO₂ falling, respiratory rate falling, EtCO₂
//! rising — identifies the trajectory earlier. [`TrendEstimator`] fits
//! an ordinary least-squares slope over a sliding window;
//! [`DeteriorationTrend`] fuses per-vital slopes into an early-warning
//! score.

use mcps_patient::vitals::VitalKind;
use mcps_runtime::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// Least-squares slope over a sliding time window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrendEstimator {
    window: SimDuration,
    min_samples: usize,
    samples: VecDeque<(f64, f64)>, // (t secs, value)
}

impl TrendEstimator {
    /// Creates an estimator over `window`, requiring `min_samples`
    /// before reporting.
    pub fn new(window: SimDuration, min_samples: usize) -> Self {
        TrendEstimator { window, min_samples: min_samples.max(2), samples: VecDeque::new() }
    }

    /// Feeds one sample.
    pub fn observe(&mut self, at: SimTime, value: f64) {
        let t = at.as_secs_f64();
        self.samples.push_back((t, value));
        let horizon = t - self.window.as_secs_f64();
        while self.samples.front().is_some_and(|&(ts, _)| ts < horizon) {
            self.samples.pop_front();
        }
    }

    /// The slope in units per **minute**, or `None` with too few
    /// samples or a degenerate window.
    pub fn slope_per_min(&self) -> Option<f64> {
        let n = self.samples.len();
        if n < self.min_samples {
            return None;
        }
        let (mut st, mut sv, mut stt, mut stv) = (0.0, 0.0, 0.0, 0.0);
        for &(t, v) in &self.samples {
            st += t;
            sv += v;
            stt += t * t;
            stv += t * v;
        }
        let nf = n as f64;
        let denom = nf * stt - st * st;
        if denom.abs() < 1e-9 {
            return None;
        }
        Some((nf * stv - st * sv) / denom * 60.0)
    }

    /// Samples currently in the window.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// Configuration of the deterioration-trend score.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrendConfig {
    /// Estimation window.
    pub window: SimDuration,
    /// Minimum samples per channel.
    pub min_samples: usize,
    /// Per-vital slope that contributes one full point to the score
    /// (sign encodes the dangerous direction: negative = falling is
    /// bad).
    pub full_point_slopes: Vec<(VitalKind, f64)>,
    /// Score at which the trend is called deteriorating.
    pub alarm_score: f64,
    /// Channels that must individually contribute ≥ 0.3 points
    /// (corroboration).
    pub min_corroborating: usize,
}

impl Default for TrendConfig {
    fn default() -> Self {
        TrendConfig {
            window: SimDuration::from_mins(3),
            min_samples: 30,
            full_point_slopes: vec![
                (VitalKind::Spo2, -1.5),     // −1.5 %/min is alarming
                (VitalKind::RespRate, -2.0), // −2 breaths/min/min
                (VitalKind::Etco2, 4.0),     // +4 mmHg/min
            ],
            alarm_score: 1.5,
            min_corroborating: 2,
        }
    }
}

/// Fused deterioration-trend detector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeteriorationTrend {
    config: TrendConfig,
    estimators: BTreeMap<VitalKind, TrendEstimator>,
}

impl DeteriorationTrend {
    /// Creates the detector.
    pub fn new(config: TrendConfig) -> Self {
        DeteriorationTrend { config, estimators: BTreeMap::new() }
    }

    /// Feeds one measurement.
    pub fn observe(&mut self, at: SimTime, kind: VitalKind, value: f64) {
        if !self.config.full_point_slopes.iter().any(|(k, _)| *k == kind) {
            return;
        }
        let (window, min_samples) = (self.config.window, self.config.min_samples);
        self.estimators
            .entry(kind)
            .or_insert_with(|| TrendEstimator::new(window, min_samples))
            .observe(at, value);
    }

    /// Per-channel contribution: slope in the dangerous direction,
    /// normalized so the configured slope equals 1.0, clamped ≥ 0.
    fn contribution(&self, kind: VitalKind, reference: f64) -> f64 {
        let Some(slope) = self.estimators.get(&kind).and_then(TrendEstimator::slope_per_min) else {
            return 0.0;
        };
        (slope / reference).max(0.0)
    }

    /// The fused deterioration score and the number of corroborating
    /// channels.
    pub fn score(&self) -> (f64, usize) {
        let mut total = 0.0;
        let mut corroborating = 0;
        for &(kind, reference) in &self.config.full_point_slopes {
            let c = self.contribution(kind, reference).min(3.0);
            if c >= 0.3 {
                corroborating += 1;
            }
            total += c;
        }
        (total, corroborating)
    }

    /// Whether a corroborated deterioration trend is present.
    pub fn is_deteriorating(&self) -> bool {
        let (score, corroborating) = self.score();
        score >= self.config.alarm_score && corroborating >= self.config.min_corroborating
    }
}

impl Default for DeteriorationTrend {
    fn default() -> Self {
        DeteriorationTrend::new(TrendConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn slope_of_linear_signal_is_exact() {
        let mut e = TrendEstimator::new(SimDuration::from_mins(2), 10);
        for s in 0..60 {
            e.observe(t(s), 100.0 - 0.02 * s as f64); // −1.2 per min
        }
        let slope = e.slope_per_min().unwrap();
        assert!((slope + 1.2).abs() < 1e-6, "slope {slope}");
    }

    #[test]
    fn flat_signal_has_zero_slope() {
        let mut e = TrendEstimator::new(SimDuration::from_mins(2), 10);
        for s in 0..60 {
            e.observe(t(s), 97.0);
        }
        assert!(e.slope_per_min().unwrap().abs() < 1e-9);
    }

    #[test]
    fn too_few_samples_reports_none() {
        let mut e = TrendEstimator::new(SimDuration::from_mins(2), 10);
        for s in 0..5 {
            e.observe(t(s), s as f64);
        }
        assert_eq!(e.slope_per_min(), None);
    }

    #[test]
    fn window_drops_stale_history() {
        let mut e = TrendEstimator::new(SimDuration::from_secs(30), 5);
        // Old falling segment…
        for s in 0..60 {
            e.observe(t(s), 100.0 - s as f64);
        }
        // …then flat: after the window passes, slope ≈ 0.
        for s in 60..120 {
            e.observe(t(s), 40.0);
        }
        assert!(e.slope_per_min().unwrap().abs() < 1e-6);
        assert!(e.len() <= 31);
    }

    #[test]
    fn correlated_deterioration_is_detected() {
        let mut d = DeteriorationTrend::default();
        for s in 0..180u64 {
            let k = s as f64;
            d.observe(t(s), VitalKind::Spo2, 97.0 - 0.03 * k); // −1.8 %/min
            d.observe(t(s), VitalKind::RespRate, 14.0 - 0.04 * k); // −2.4 /min²
            d.observe(t(s), VitalKind::Etco2, 38.0 + 0.07 * k); // +4.2 mmHg/min
        }
        assert!(d.is_deteriorating(), "score {:?}", d.score());
    }

    #[test]
    fn single_channel_trend_is_not_enough() {
        let mut d = DeteriorationTrend::default();
        for s in 0..180u64 {
            d.observe(t(s), VitalKind::Spo2, 97.0 - 0.05 * s as f64); // steep fall
            d.observe(t(s), VitalKind::RespRate, 14.0); // flat
            d.observe(t(s), VitalKind::Etco2, 38.0); // flat
        }
        assert!(!d.is_deteriorating(), "uncorroborated trend must not alarm: {:?}", d.score());
    }

    #[test]
    fn improving_patient_never_flags() {
        let mut d = DeteriorationTrend::default();
        for s in 0..180u64 {
            let k = s as f64;
            d.observe(t(s), VitalKind::Spo2, 88.0 + 0.05 * k);
            d.observe(t(s), VitalKind::RespRate, 8.0 + 0.03 * k);
            d.observe(t(s), VitalKind::Etco2, 55.0 - 0.08 * k);
        }
        assert!(!d.is_deteriorating());
        assert_eq!(d.score().1, 0, "no channel should corroborate improvement");
    }

    #[test]
    fn irrelevant_kinds_are_ignored() {
        let mut d = DeteriorationTrend::default();
        for s in 0..120u64 {
            d.observe(t(s), VitalKind::HeartRate, 200.0 - s as f64);
        }
        assert_eq!(d.score().0, 0.0);
    }
}
