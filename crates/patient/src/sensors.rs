//! Sensor imperfection models.
//!
//! Clinical sensors do not report physiological truth: pulse oximeters
//! drop out and read falsely low under motion, capnography lines kink,
//! ECG leads detach. These artifacts are the dominant source of the
//! false alarms the paper's "smart alarm" agenda targets, so they are
//! modelled explicitly and applied *between* the virtual patient and
//! every monitoring device.

use crate::vitals::VitalKind;
use mcps_runtime::rng::{bernoulli, exponential, normal};
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// How an artifact episode corrupts readings while it is active.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArtifactMode {
    /// No reading at all (probe off, lead detached).
    Dropout,
    /// Readings are depressed by a fraction of the true value
    /// (e.g. motion artifact on SpO₂).
    DepressedBy(f64),
    /// Readings spike upward by a fraction of the true value.
    ElevatedBy(f64),
}

/// Quality annotation attached to each reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SignalQuality {
    /// Normal measurement (noise and bias only).
    Good,
    /// An artifact episode is corrupting the value.
    Artifact,
    /// No value could be produced.
    Missing,
}

/// One sensor measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensorReading {
    /// Measured value, if any.
    pub value: Option<f64>,
    /// Honest quality flag. Real devices often *don't* know their
    /// signal is artifactual — alarm algorithms must not rely on it;
    /// it exists so experiments can compute ground-truth confusion
    /// matrices.
    pub quality: SignalQuality,
}

/// Stochastic description of a sensor's imperfections.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensorSpec {
    /// Standard deviation of additive Gaussian noise.
    pub noise_std: f64,
    /// Constant additive bias.
    pub bias: f64,
    /// Artifact episodes per hour.
    pub artifact_rate_per_hour: f64,
    /// Mean artifact episode duration, seconds.
    pub artifact_mean_secs: f64,
    /// What an artifact does to the signal.
    pub artifact_mode: ArtifactMode,
    /// Reading resolution (0 = continuous).
    pub quantization: f64,
}

impl SensorSpec {
    /// A perfect sensor (for debugging and unit tests).
    pub fn ideal() -> Self {
        SensorSpec {
            noise_std: 0.0,
            bias: 0.0,
            artifact_rate_per_hour: 0.0,
            artifact_mean_secs: 0.0,
            artifact_mode: ArtifactMode::Dropout,
            quantization: 0.0,
        }
    }

    /// Representative clinical imperfections for each vital.
    pub fn default_for(kind: VitalKind) -> Self {
        match kind {
            VitalKind::Spo2 => SensorSpec {
                noise_std: 0.6,
                bias: 0.0,
                artifact_rate_per_hour: 4.0,
                artifact_mean_secs: 25.0,
                artifact_mode: ArtifactMode::DepressedBy(0.12),
                quantization: 1.0,
            },
            VitalKind::HeartRate => SensorSpec {
                noise_std: 1.5,
                bias: 0.0,
                artifact_rate_per_hour: 2.0,
                artifact_mean_secs: 15.0,
                artifact_mode: ArtifactMode::ElevatedBy(0.4),
                quantization: 1.0,
            },
            VitalKind::RespRate => SensorSpec {
                noise_std: 1.0,
                bias: 0.0,
                artifact_rate_per_hour: 3.0,
                artifact_mean_secs: 30.0,
                artifact_mode: ArtifactMode::DepressedBy(0.5),
                quantization: 1.0,
            },
            VitalKind::Etco2 => SensorSpec {
                noise_std: 1.2,
                bias: 0.0,
                artifact_rate_per_hour: 1.5,
                artifact_mean_secs: 40.0,
                artifact_mode: ArtifactMode::Dropout,
                quantization: 1.0,
            },
            VitalKind::BpSystolic | VitalKind::BpDiastolic => SensorSpec {
                noise_std: 3.0,
                bias: 0.0,
                artifact_rate_per_hour: 0.5,
                artifact_mean_secs: 20.0,
                artifact_mode: ArtifactMode::ElevatedBy(0.2),
                quantization: 1.0,
            },
            VitalKind::MinuteVentilation => SensorSpec {
                noise_std: 0.2,
                bias: 0.0,
                artifact_rate_per_hour: 1.0,
                artifact_mean_secs: 20.0,
                artifact_mode: ArtifactMode::Dropout,
                quantization: 0.1,
            },
        }
    }
}

/// A stateful simulated sensor for one vital sign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimulatedSensor {
    kind: VitalKind,
    spec: SensorSpec,
    /// Simulation seconds at which the current artifact episode ends.
    artifact_until_secs: f64,
}

impl SimulatedSensor {
    /// Creates a sensor with the given imperfection model.
    pub fn new(kind: VitalKind, spec: SensorSpec) -> Self {
        SimulatedSensor { kind, spec, artifact_until_secs: -1.0 }
    }

    /// Creates a sensor with [`SensorSpec::default_for`] this vital.
    pub fn with_defaults(kind: VitalKind) -> Self {
        Self::new(kind, SensorSpec::default_for(kind))
    }

    /// The vital this sensor measures.
    pub fn kind(&self) -> VitalKind {
        self.kind
    }

    /// The imperfection model.
    pub fn spec(&self) -> &SensorSpec {
        &self.spec
    }

    /// Whether an artifact episode is active at `now_secs`.
    pub fn in_artifact(&self, now_secs: f64) -> bool {
        now_secs < self.artifact_until_secs
    }

    /// Produces one reading of `true_value` at time `now_secs`,
    /// assuming the previous reading was `dt_secs` ago (the artifact
    /// arrival process is integrated over that window).
    pub fn read(
        &mut self,
        now_secs: f64,
        dt_secs: f64,
        true_value: f64,
        rng: &mut impl RngCore,
    ) -> SensorReading {
        // Maybe start a new artifact episode.
        if !self.in_artifact(now_secs) && self.spec.artifact_rate_per_hour > 0.0 {
            let p = self.spec.artifact_rate_per_hour * dt_secs / 3600.0;
            if bernoulli(rng, p) {
                let dur = exponential(rng, self.spec.artifact_mean_secs.max(1.0));
                self.artifact_until_secs = now_secs + dur;
            }
        }

        let (lo, hi) = self.kind.plausible_range();
        let corrupt = self.in_artifact(now_secs);
        let (base, quality) = if corrupt {
            match self.spec.artifact_mode {
                ArtifactMode::Dropout => {
                    return SensorReading { value: None, quality: SignalQuality::Missing }
                }
                ArtifactMode::DepressedBy(f) => (true_value * (1.0 - f), SignalQuality::Artifact),
                ArtifactMode::ElevatedBy(f) => (true_value * (1.0 + f), SignalQuality::Artifact),
            }
        } else {
            (true_value, SignalQuality::Good)
        };
        let mut v = base + self.spec.bias + normal(rng, 0.0, self.spec.noise_std);
        if self.spec.quantization > 0.0 {
            v = (v / self.spec.quantization).round() * self.spec.quantization;
        }
        SensorReading { value: Some(v.clamp(lo, hi)), quality }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcps_runtime::rng::RngFactory;

    fn rng() -> mcps_runtime::rng::SimRng {
        RngFactory::new(77).stream("sensor-test")
    }

    #[test]
    fn ideal_sensor_is_exact() {
        let mut s = SimulatedSensor::new(VitalKind::Spo2, SensorSpec::ideal());
        let mut r = rng();
        for i in 0..100 {
            let out = s.read(i as f64, 1.0, 96.4, &mut r);
            assert_eq!(out.quality, SignalQuality::Good);
            assert!((out.value.unwrap() - 96.4).abs() < 1e-12);
        }
    }

    #[test]
    fn noise_has_configured_spread() {
        let spec = SensorSpec { noise_std: 2.0, ..SensorSpec::ideal() };
        let mut s = SimulatedSensor::new(VitalKind::HeartRate, spec);
        let mut r = rng();
        let vals: Vec<f64> =
            (0..5_000).map(|i| s.read(i as f64, 1.0, 80.0, &mut r).value.unwrap()).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let std = (vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64).sqrt();
        assert!((mean - 80.0).abs() < 0.2, "mean {mean}");
        assert!((std - 2.0).abs() < 0.3, "std {std}");
    }

    #[test]
    fn artifacts_occur_at_configured_rate() {
        let mut s = SimulatedSensor::with_defaults(VitalKind::Spo2);
        let mut r = rng();
        let hours = 24.0;
        let mut artifact_samples = 0u32;
        let steps = (hours * 3600.0) as u64;
        for i in 0..steps {
            let out = s.read(i as f64, 1.0, 97.0, &mut r);
            if out.quality != SignalQuality::Good {
                artifact_samples += 1;
            }
        }
        // ~4 episodes/h × ~25 s each ⇒ ~100 s of artifact per hour.
        let per_hour = artifact_samples as f64 / hours;
        assert!((40.0..250.0).contains(&per_hour), "artifact seconds/hour = {per_hour}");
    }

    #[test]
    fn depressed_artifact_lowers_reading() {
        let spec = SensorSpec {
            artifact_rate_per_hour: 3600.0, // artifact virtually every second
            artifact_mean_secs: 10_000.0,
            artifact_mode: ArtifactMode::DepressedBy(0.2),
            ..SensorSpec::ideal()
        };
        let mut s = SimulatedSensor::new(VitalKind::Spo2, spec);
        let mut r = rng();
        let _ = s.read(0.0, 1.0, 95.0, &mut r); // may or may not trigger yet
        let out = s.read(10.0, 10.0, 95.0, &mut r);
        assert_eq!(out.quality, SignalQuality::Artifact);
        assert!((out.value.unwrap() - 76.0).abs() < 1.1, "got {:?}", out.value);
    }

    #[test]
    fn dropout_yields_missing() {
        let spec = SensorSpec {
            artifact_rate_per_hour: 3600.0,
            artifact_mean_secs: 10_000.0,
            artifact_mode: ArtifactMode::Dropout,
            ..SensorSpec::ideal()
        };
        let mut s = SimulatedSensor::new(VitalKind::Etco2, spec);
        let mut r = rng();
        let _ = s.read(0.0, 1.0, 38.0, &mut r);
        let out = s.read(10.0, 10.0, 38.0, &mut r);
        assert_eq!(out.quality, SignalQuality::Missing);
        assert_eq!(out.value, None);
    }

    #[test]
    fn readings_clamped_to_plausible_range() {
        let spec = SensorSpec { bias: 50.0, ..SensorSpec::ideal() };
        let mut s = SimulatedSensor::new(VitalKind::Spo2, spec);
        let mut r = rng();
        let out = s.read(0.0, 1.0, 97.0, &mut r);
        assert_eq!(out.value, Some(100.0));
    }

    #[test]
    fn quantization_rounds() {
        let spec = SensorSpec { quantization: 1.0, ..SensorSpec::ideal() };
        let mut s = SimulatedSensor::new(VitalKind::Spo2, spec);
        let mut r = rng();
        let out = s.read(0.0, 1.0, 96.4, &mut r);
        assert_eq!(out.value, Some(96.0));
    }
}
