//! Multi-channel vital-sign monitoring devices.
//!
//! [`VitalsMonitor`] is a generic bedside monitor: it owns one
//! [`SimulatedSensor`] per channel, samples the virtual patient on a
//! fixed period, applies the short moving average real devices use, and
//! emits [`Measurement`]s. [`pulse_oximeter`] and [`capnograph`] build
//! the two concrete monitors the PCA scenario needs.

use crate::profile::{DeviceClass, DeviceProfile, LatencyClass};
use mcps_patient::sensors::{SensorSpec, SignalQuality, SimulatedSensor};
use mcps_patient::vitals::{VitalKind, VitalsFrame};
use mcps_runtime::time::{SimDuration, SimTime};
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One reported measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// The vital measured.
    pub kind: VitalKind,
    /// Reported (averaged) value.
    pub value: f64,
    /// Measurement time.
    pub at: SimTime,
    /// Quality of the *latest* underlying sample. Devices surface this
    /// honestly here so experiments can score algorithms; alarm logic
    /// must treat it as unavailable (real probes often don't know).
    pub quality: SignalQuality,
}

/// Configuration of one monitor channel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelConfig {
    /// Vital to measure.
    pub kind: VitalKind,
    /// Sensor imperfection model.
    pub sensor: SensorSpec,
    /// Moving-average length in samples (≥ 1).
    pub averaging: usize,
}

/// A multi-channel monitoring device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VitalsMonitor {
    profile: DeviceProfile,
    sample_period: SimDuration,
    channels: Vec<ChannelConfig>,
    sensors: Vec<SimulatedSensor>,
    buffers: Vec<VecDeque<f64>>,
    last_sample: Option<SimTime>,
}

impl VitalsMonitor {
    /// Builds a monitor.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is empty, any `averaging` is 0, or
    /// `sample_period` is zero.
    pub fn new(
        vendor: &str,
        model: &str,
        serial: &str,
        sample_period: SimDuration,
        channels: Vec<ChannelConfig>,
    ) -> Self {
        assert!(!channels.is_empty(), "monitor needs at least one channel");
        assert!(!sample_period.is_zero(), "sample period must be positive");
        assert!(channels.iter().all(|c| c.averaging >= 1), "averaging must be ≥ 1");
        let mut builder = DeviceProfile::builder(vendor, model, serial, DeviceClass::Monitor);
        for c in &channels {
            builder = builder.stream(c.kind, sample_period, LatencyClass::Realtime);
        }
        let sensors = channels.iter().map(|c| SimulatedSensor::new(c.kind, c.sensor)).collect();
        let buffers = channels.iter().map(|_| VecDeque::new()).collect();
        VitalsMonitor {
            profile: builder.build(),
            sample_period,
            channels,
            sensors,
            buffers,
            last_sample: None,
        }
    }

    /// The device's capability profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// The sampling period.
    pub fn sample_period(&self) -> SimDuration {
        self.sample_period
    }

    /// The vitals this monitor reports.
    pub fn kinds(&self) -> Vec<VitalKind> {
        self.channels.iter().map(|c| c.kind).collect()
    }

    /// Takes one sample of the patient's true vitals and returns the
    /// measurements produced (channels in dropout produce nothing).
    pub fn sample(
        &mut self,
        now: SimTime,
        truth: &VitalsFrame,
        rng: &mut impl RngCore,
    ) -> Vec<Measurement> {
        let dt_secs = match self.last_sample {
            Some(t) => now.saturating_since(t).as_secs_f64().max(1e-6),
            None => self.sample_period.as_secs_f64(),
        };
        self.last_sample = Some(now);
        let mut out = Vec::with_capacity(self.channels.len());
        for (i, ch) in self.channels.iter().enumerate() {
            let reading =
                self.sensors[i].read(now.as_secs_f64(), dt_secs, truth.value(ch.kind), rng);
            let Some(v) = reading.value else {
                // Probe-off: the averaging buffer ages out so a stale
                // average is not reported when signal returns.
                self.buffers[i].clear();
                continue;
            };
            let buf = &mut self.buffers[i];
            buf.push_back(v);
            while buf.len() > ch.averaging {
                buf.pop_front();
            }
            let avg = buf.iter().sum::<f64>() / buf.len() as f64;
            out.push(Measurement { kind: ch.kind, value: avg, at: now, quality: reading.quality });
        }
        out
    }
}

/// A pulse oximeter: SpO₂ + heart rate at 1 Hz with 4-sample averaging
/// and realistic motion artifacts.
pub fn pulse_oximeter(serial: &str) -> VitalsMonitor {
    VitalsMonitor::new(
        "Acme",
        "OxiMax-9",
        serial,
        SimDuration::from_secs(1),
        vec![
            ChannelConfig {
                kind: VitalKind::Spo2,
                sensor: SensorSpec::default_for(VitalKind::Spo2),
                averaging: 4,
            },
            ChannelConfig {
                kind: VitalKind::HeartRate,
                sensor: SensorSpec::default_for(VitalKind::HeartRate),
                averaging: 4,
            },
        ],
    )
}

/// A capnograph: EtCO₂ + respiratory rate at 1 Hz.
pub fn capnograph(serial: &str) -> VitalsMonitor {
    VitalsMonitor::new(
        "Acme",
        "CapnoStream-5",
        serial,
        SimDuration::from_secs(1),
        vec![
            ChannelConfig {
                kind: VitalKind::Etco2,
                sensor: SensorSpec::default_for(VitalKind::Etco2),
                averaging: 4,
            },
            ChannelConfig {
                kind: VitalKind::RespRate,
                sensor: SensorSpec::default_for(VitalKind::RespRate),
                averaging: 4,
            },
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcps_runtime::rng::RngFactory;

    fn healthy_frame() -> VitalsFrame {
        VitalsFrame {
            spo2: 97.0,
            heart_rate: 72.0,
            resp_rate: 14.0,
            etco2: 38.0,
            bp_systolic: 120.0,
            bp_diastolic: 80.0,
            minute_ventilation: 6.0,
        }
    }

    fn rng() -> mcps_runtime::rng::SimRng {
        RngFactory::new(21).stream("monitor-test")
    }

    #[test]
    fn oximeter_reports_two_channels() {
        let mut m = pulse_oximeter("SN-1");
        let mut r = rng();
        let out = m.sample(SimTime::from_secs(1), &healthy_frame(), &mut r);
        // Both channels unless a dropout started immediately.
        assert!(!out.is_empty() && out.len() <= 2);
        for meas in &out {
            assert!(matches!(meas.kind, VitalKind::Spo2 | VitalKind::HeartRate));
        }
    }

    #[test]
    fn averaging_smooths_noise() {
        let noisy = ChannelConfig {
            kind: VitalKind::Spo2,
            sensor: SensorSpec { noise_std: 2.0, quantization: 0.0, ..SensorSpec::ideal() },
            averaging: 8,
        };
        let raw = ChannelConfig { averaging: 1, ..noisy };
        let mut smooth_monitor =
            VitalsMonitor::new("T", "S", "1", SimDuration::from_secs(1), vec![noisy]);
        let mut raw_monitor =
            VitalsMonitor::new("T", "R", "2", SimDuration::from_secs(1), vec![raw]);
        let mut r1 = rng();
        let mut r2 = RngFactory::new(22).stream("monitor-raw");
        let f = healthy_frame();
        let spread = |m: &mut VitalsMonitor, r: &mut mcps_runtime::rng::SimRng| {
            let vals: Vec<f64> = (0..500)
                .filter_map(|i| m.sample(SimTime::from_secs(i + 1), &f, r).first().map(|x| x.value))
                .collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            (vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64).sqrt()
        };
        let s_smooth = spread(&mut smooth_monitor, &mut r1);
        let s_raw = spread(&mut raw_monitor, &mut r2);
        assert!(s_smooth < 0.6 * s_raw, "averaging should cut spread: {s_smooth} vs {s_raw}");
    }

    #[test]
    fn dropout_clears_buffer() {
        let ch = ChannelConfig {
            kind: VitalKind::Etco2,
            sensor: SensorSpec {
                artifact_rate_per_hour: 3_600_000.0, // certain immediate dropout
                artifact_mean_secs: 100_000.0,
                ..SensorSpec::ideal()
            },
            averaging: 4,
        };
        let mut m = VitalsMonitor::new("T", "D", "3", SimDuration::from_secs(1), vec![ch]);
        let mut r = rng();
        let f = healthy_frame();
        let first = m.sample(SimTime::from_secs(1), &f, &mut r);
        // The artifact process needs one observed interval to fire; by
        // the second sample the channel is silent.
        let second = m.sample(SimTime::from_secs(2), &f, &mut r);
        assert!(first.len() + second.len() < 2, "dropout should silence the channel");
    }

    #[test]
    fn profile_lists_streams() {
        let m = capnograph("SN-2");
        assert!(m.profile().provides_stream(
            VitalKind::Etco2,
            SimDuration::from_secs(1),
            LatencyClass::Realtime
        ));
        assert!(m.profile().provides_stream(
            VitalKind::RespRate,
            SimDuration::from_secs(5),
            LatencyClass::BestEffort
        ));
        assert_eq!(m.kinds(), vec![VitalKind::Etco2, VitalKind::RespRate]);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn empty_channels_rejected() {
        let _ = VitalsMonitor::new("T", "E", "4", SimDuration::from_secs(1), vec![]);
    }
}
