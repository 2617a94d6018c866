//! Signal plausibility screening: flatline and physiologic-context
//! checks.
//!
//! Freshness monitoring catches silent sensors, but a *stuck* sensor —
//! one that keeps republishing its last value with fresh timestamps —
//! defeats it (experiment E8's documented gap). Real vital signs are
//! never perfectly constant: heart rate and SpO₂ carry beat-to-beat and
//! breath-to-breath variability plus measurement noise. A window whose
//! values are **identical** (or whose spread collapses far below the
//! sensor's own noise floor) is therefore a technical fault, not a calm
//! patient.
//!
//! [`FlatlineDetector`] implements that check per channel;
//! [`PlausibilityMonitor`] aggregates channels and feeds the interlock's
//! "data untrustworthy ⇒ fail safe" input.

use mcps_patient::vitals::VitalKind;
use mcps_runtime::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// Per-channel flatline detection configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlatlineConfig {
    /// Window length over which variability is judged.
    pub window: SimDuration,
    /// Minimum samples in the window before judging (avoids flagging
    /// at startup).
    pub min_samples: usize,
    /// Spread (max − min) at or below which the window counts as flat.
    /// Set this well below the sensor's noise floor; exactly repeated
    /// values always qualify.
    pub max_flat_spread: f64,
}

impl Default for FlatlineConfig {
    fn default() -> Self {
        FlatlineConfig {
            window: SimDuration::from_secs(30),
            min_samples: 15,
            max_flat_spread: 1e-9,
        }
    }
}

/// Detects a flatlined (stuck) signal on one channel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlatlineDetector {
    config: FlatlineConfig,
    samples: VecDeque<(SimTime, f64)>,
}

impl FlatlineDetector {
    /// Creates a detector.
    pub fn new(config: FlatlineConfig) -> Self {
        FlatlineDetector { config, samples: VecDeque::new() }
    }

    /// Feeds one sample.
    pub fn observe(&mut self, at: SimTime, value: f64) {
        self.samples.push_back((at, value));
        while let Some(&(t, _)) = self.samples.front() {
            if at.saturating_since(t) > self.config.window {
                self.samples.pop_front();
            } else {
                break;
            }
        }
    }

    /// Whether the signal is currently flat (stuck).
    pub fn is_flat(&self) -> bool {
        if self.samples.len() < self.config.min_samples {
            return false;
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &(_, v) in &self.samples {
            min = min.min(v);
            max = max.max(v);
        }
        (max - min) <= self.config.max_flat_spread
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// Aggregated plausibility over the channels an interlock relies on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlausibilityMonitor {
    config: FlatlineConfig,
    channels: BTreeMap<VitalKind, FlatlineDetector>,
}

impl PlausibilityMonitor {
    /// Creates a monitor; channels appear lazily as data arrives.
    pub fn new(config: FlatlineConfig) -> Self {
        PlausibilityMonitor { config, channels: BTreeMap::new() }
    }

    /// Feeds one measurement.
    pub fn observe(&mut self, at: SimTime, kind: VitalKind, value: f64) {
        self.channels
            .entry(kind)
            .or_insert_with(|| FlatlineDetector::new(self.config))
            .observe(at, value);
    }

    /// Channels currently judged implausible (stuck).
    pub fn implausible(&self) -> Vec<VitalKind> {
        self.channels.iter().filter(|(_, d)| d.is_flat()).map(|(k, _)| *k).collect()
    }

    /// Whether any observed channel is implausible.
    pub fn any_implausible(&self) -> bool {
        self.channels.values().any(FlatlineDetector::is_flat)
    }
}

impl Default for PlausibilityMonitor {
    fn default() -> Self {
        PlausibilityMonitor::new(FlatlineConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn noisy_signal_is_plausible() {
        let mut d = FlatlineDetector::new(FlatlineConfig::default());
        for s in 0..60 {
            // ±0.5 alternation: ordinary sensor noise.
            d.observe(t(s), 97.0 + if s % 2 == 0 { 0.5 } else { -0.5 });
        }
        assert!(!d.is_flat());
    }

    #[test]
    fn stuck_signal_is_flagged_after_window() {
        let mut d = FlatlineDetector::new(FlatlineConfig::default());
        for s in 0..14 {
            d.observe(t(s), 97.0);
        }
        assert!(!d.is_flat(), "needs min_samples before judging");
        for s in 14..40 {
            d.observe(t(s), 97.0);
        }
        assert!(d.is_flat());
    }

    #[test]
    fn recovery_clears_the_flag() {
        let mut d = FlatlineDetector::new(FlatlineConfig::default());
        for s in 0..40 {
            d.observe(t(s), 97.0);
        }
        assert!(d.is_flat());
        // Signal returns; old identical samples age out of the window.
        for s in 40..80 {
            d.observe(t(s), 97.0 + (s % 3) as f64 * 0.4);
        }
        assert!(!d.is_flat());
    }

    #[test]
    fn window_prunes_old_samples() {
        let mut d = FlatlineDetector::new(FlatlineConfig::default());
        for s in 0..100 {
            d.observe(t(s), s as f64);
        }
        // 30 s window at 1 Hz ⇒ ~31 samples retained.
        assert!(d.len() <= 31, "len {}", d.len());
    }

    #[test]
    fn quantized_but_varying_signal_is_plausible() {
        // Integer-quantized SpO2 that moves 96↔97 is fine.
        let mut d = FlatlineDetector::new(FlatlineConfig::default());
        for s in 0..60 {
            d.observe(t(s), if s % 7 < 4 { 96.0 } else { 97.0 });
        }
        assert!(!d.is_flat());
    }

    #[test]
    fn monitor_aggregates_channels() {
        let mut m = PlausibilityMonitor::default();
        for s in 0..60 {
            m.observe(t(s), VitalKind::Spo2, 97.0); // stuck
            m.observe(t(s), VitalKind::HeartRate, 70.0 + (s % 5) as f64); // alive
        }
        assert!(m.any_implausible());
        assert_eq!(m.implausible(), vec![VitalKind::Spo2]);
    }

    #[test]
    fn empty_monitor_is_plausible() {
        let m = PlausibilityMonitor::default();
        assert!(!m.any_implausible());
        assert!(m.implausible().is_empty());
    }
}
