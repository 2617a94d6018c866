//! Non-invasive blood pressure (NIBP) monitor.
//!
//! Unlike continuous monitors, an NIBP cuff measures *intermittently*:
//! every few minutes it inflates, occludes the artery for tens of
//! seconds, and produces one systolic/diastolic pair. Two properties
//! matter to an MCPS: the data is sparse (freshness windows must be
//! sized per stream), and during inflation any same-limb SpO₂ probe is
//! blinded — a scheduled, *benign* artifact an alarm algorithm must not
//! mistake for desaturation.

use crate::profile::{DeviceClass, DeviceProfile, LatencyClass};
use mcps_patient::sensors::{SensorSpec, SimulatedSensor};
use mcps_patient::vitals::{VitalKind, VitalsFrame};
use mcps_runtime::time::{SimDuration, SimTime};
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// NIBP configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NibpConfig {
    /// Interval between measurement cycles.
    pub cycle_interval: SimDuration,
    /// Cuff inflation + deflation time per measurement.
    pub measurement_duration: SimDuration,
    /// Whether the cuff shares a limb with the SpO₂ probe (blinding it
    /// during inflation).
    pub same_limb_as_oximeter: bool,
}

impl Default for NibpConfig {
    fn default() -> Self {
        NibpConfig {
            cycle_interval: SimDuration::from_mins(5),
            measurement_duration: SimDuration::from_secs(40),
            same_limb_as_oximeter: true,
        }
    }
}

impl NibpConfig {
    /// Validates timing sanity.
    pub fn validate(&self) -> Result<(), String> {
        if self.measurement_duration >= self.cycle_interval {
            return Err("measurement must be shorter than the cycle interval".into());
        }
        if self.measurement_duration.is_zero() {
            return Err("measurement duration must be positive".into());
        }
        Ok(())
    }
}

/// One completed NIBP reading.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NibpReading {
    /// When the measurement completed.
    pub at: SimTime,
    /// Systolic pressure, mmHg.
    pub systolic: f64,
    /// Diastolic pressure, mmHg.
    pub diastolic: f64,
}

/// The NIBP monitor state machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NibpMonitor {
    config: NibpConfig,
    sys_sensor: SimulatedSensor,
    dia_sensor: SimulatedSensor,
    /// Start of the current/next measurement cycle.
    next_cycle_at: SimTime,
    /// If measuring: when the cuff deflates.
    measuring_until: Option<SimTime>,
    readings: Vec<NibpReading>,
}

impl NibpMonitor {
    /// Creates a monitor whose first cycle starts at `first_cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`NibpConfig::validate`].
    pub fn new(first_cycle: SimTime, config: NibpConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid NIBP config: {e}");
        }
        NibpMonitor {
            config,
            sys_sensor: SimulatedSensor::new(
                VitalKind::BpSystolic,
                SensorSpec::default_for(VitalKind::BpSystolic),
            ),
            dia_sensor: SimulatedSensor::new(
                VitalKind::BpDiastolic,
                SensorSpec::default_for(VitalKind::BpDiastolic),
            ),
            next_cycle_at: first_cycle,
            measuring_until: None,
            readings: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &NibpConfig {
        &self.config
    }

    /// The capability profile.
    pub fn profile(serial: &str) -> DeviceProfile {
        DeviceProfile::builder("GE", "Dinamap-NX", serial, DeviceClass::Monitor)
            .stream(VitalKind::BpSystolic, SimDuration::from_mins(5), LatencyClass::BestEffort)
            .stream(VitalKind::BpDiastolic, SimDuration::from_mins(5), LatencyClass::BestEffort)
            .build()
    }

    /// Whether the cuff is inflated at `now` (blinding a same-limb
    /// SpO₂ probe if configured).
    pub fn cuff_inflated(&self, now: SimTime) -> bool {
        self.measuring_until.is_some_and(|until| now < until)
    }

    /// Whether a same-limb oximeter is blinded at `now`.
    pub fn blinds_oximeter(&self, now: SimTime) -> bool {
        self.config.same_limb_as_oximeter && self.cuff_inflated(now)
    }

    /// Advances the cycle state machine; returns a completed reading
    /// when one finishes at or before `now`.
    pub fn poll(
        &mut self,
        now: SimTime,
        truth: &VitalsFrame,
        rng: &mut impl RngCore,
    ) -> Option<NibpReading> {
        // Completion first.
        if let Some(until) = self.measuring_until {
            if now >= until {
                self.measuring_until = None;
                let t = until.as_secs_f64();
                let sys = self.sys_sensor.read(t, 1.0, truth.bp_systolic, rng).value?;
                let dia = self.dia_sensor.read(t, 1.0, truth.bp_diastolic, rng).value?;
                // A cuff cannot report diastolic ≥ systolic.
                let dia = dia.min(sys - 5.0).max(10.0);
                let reading = NibpReading { at: until, systolic: sys, diastolic: dia };
                self.readings.push(reading);
                return Some(reading);
            }
        } else if now >= self.next_cycle_at {
            self.measuring_until = Some(self.next_cycle_at + self.config.measurement_duration);
            self.next_cycle_at += self.config.cycle_interval;
        }
        None
    }

    /// All completed readings.
    pub fn readings(&self) -> &[NibpReading] {
        &self.readings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcps_runtime::rng::RngFactory;

    fn truth() -> VitalsFrame {
        VitalsFrame {
            spo2: 97.0,
            heart_rate: 72.0,
            resp_rate: 14.0,
            etco2: 38.0,
            bp_systolic: 122.0,
            bp_diastolic: 78.0,
            minute_ventilation: 6.0,
        }
    }

    fn run(mins: u64) -> NibpMonitor {
        let mut m = NibpMonitor::new(SimTime::from_secs(30), NibpConfig::default());
        let mut rng = RngFactory::new(3).stream("nibp");
        let f = truth();
        for s in 0..mins * 60 {
            m.poll(SimTime::from_secs(s), &f, &mut rng);
        }
        m
    }

    #[test]
    fn cycles_produce_periodic_readings() {
        let m = run(30);
        // First cycle at t=30s, then every 5 min ⇒ ~6 readings in 30 min.
        assert!((5..=7).contains(&m.readings().len()), "{}", m.readings().len());
        // Values are near the truth.
        for r in m.readings() {
            assert!((r.systolic - 122.0).abs() < 35.0, "sys {}", r.systolic);
            assert!(r.diastolic < r.systolic);
        }
    }

    #[test]
    fn cuff_inflation_window() {
        let mut m = NibpMonitor::new(SimTime::from_secs(10), NibpConfig::default());
        let mut rng = RngFactory::new(4).stream("nibp2");
        let f = truth();
        assert!(!m.cuff_inflated(SimTime::from_secs(5)));
        m.poll(SimTime::from_secs(10), &f, &mut rng); // cycle starts
        assert!(m.cuff_inflated(SimTime::from_secs(20)));
        assert!(m.blinds_oximeter(SimTime::from_secs(20)));
        // Reading completes at t=50; cuff down after.
        let r = m.poll(SimTime::from_secs(50), &f, &mut rng);
        assert!(r.is_some());
        assert!(!m.cuff_inflated(SimTime::from_secs(51)));
    }

    #[test]
    fn different_limb_does_not_blind() {
        let cfg = NibpConfig { same_limb_as_oximeter: false, ..NibpConfig::default() };
        let mut m = NibpMonitor::new(SimTime::ZERO, cfg);
        let mut rng = RngFactory::new(5).stream("nibp3");
        m.poll(SimTime::ZERO, &truth(), &mut rng);
        assert!(m.cuff_inflated(SimTime::from_secs(10)));
        assert!(!m.blinds_oximeter(SimTime::from_secs(10)));
    }

    #[test]
    fn diastolic_never_exceeds_systolic() {
        let m = run(120);
        for r in m.readings() {
            assert!(r.diastolic <= r.systolic - 5.0);
        }
    }

    #[test]
    fn profile_declares_intermittent_streams() {
        let p = NibpMonitor::profile("NIBP-1");
        assert!(p.provides_stream(
            VitalKind::BpSystolic,
            SimDuration::from_mins(5),
            LatencyClass::BestEffort
        ));
        assert!(!p.provides_stream(
            VitalKind::BpSystolic,
            SimDuration::from_secs(1),
            LatencyClass::Realtime
        ));
    }

    #[test]
    #[should_panic(expected = "invalid NIBP config")]
    fn bad_config_panics() {
        let cfg = NibpConfig {
            cycle_interval: SimDuration::from_secs(30),
            measurement_duration: SimDuration::from_secs(40),
            ..NibpConfig::default()
        };
        let _ = NibpMonitor::new(SimTime::ZERO, cfg);
    }
}
