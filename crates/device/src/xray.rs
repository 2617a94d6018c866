//! A portable x-ray machine.
//!
//! Exposures have a fixed shutter window; an image is diagnostic only
//! if the chest was motion-free for the *entire* window. The machine
//! records every exposure so the coordination experiment can score
//! image quality against the ventilator's motion timeline.

use crate::profile::{CommandKind, DeviceClass, DeviceProfile};
use mcps_runtime::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One recorded exposure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Exposure {
    /// Shutter open.
    pub start: SimTime,
    /// Shutter closed.
    pub end: SimTime,
}

impl Exposure {
    /// Shutter-open duration.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// X-ray configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct XRayConfig {
    /// Shutter window per exposure.
    pub exposure_duration: SimDuration,
    /// Time between the expose command and the shutter opening
    /// (generator spin-up).
    pub trigger_delay: SimDuration,
}

impl Default for XRayConfig {
    fn default() -> Self {
        XRayConfig {
            exposure_duration: SimDuration::from_millis(800),
            trigger_delay: SimDuration::from_millis(300),
        }
    }
}

/// The x-ray machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct XRayMachine {
    config: XRayConfig,
    armed: bool,
    exposures: Vec<Exposure>,
}

impl XRayMachine {
    /// Creates an unarmed machine.
    pub fn new(config: XRayConfig) -> Self {
        XRayMachine { config, armed: false, exposures: Vec::new() }
    }

    /// The configuration.
    pub fn config(&self) -> &XRayConfig {
        &self.config
    }

    /// The capability profile.
    pub fn profile(serial: &str) -> DeviceProfile {
        DeviceProfile::builder("Siemens", "Mobilett-XP", serial, DeviceClass::Imaging)
            .command(CommandKind::ArmExposure)
            .command(CommandKind::Expose)
            .build()
    }

    /// Arms the generator.
    pub fn arm(&mut self) {
        self.armed = true;
    }

    /// Whether the generator is armed.
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// Fires an exposure commanded at `now`. Returns the recorded
    /// window, or `None` if the machine was not armed. Firing disarms.
    pub fn expose(&mut self, now: SimTime) -> Option<Exposure> {
        if !self.armed {
            return None;
        }
        self.armed = false;
        let start = now + self.config.trigger_delay;
        let exp = Exposure { start, end: start + self.config.exposure_duration };
        self.exposures.push(exp);
        Some(exp)
    }

    /// All exposures taken.
    pub fn exposures(&self) -> &[Exposure] {
        &self.exposures
    }
}

impl Default for XRayMachine {
    fn default() -> Self {
        XRayMachine::new(XRayConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expose_requires_arming() {
        let mut x = XRayMachine::default();
        assert_eq!(x.expose(SimTime::from_secs(1)), None);
        x.arm();
        assert!(x.is_armed());
        let e = x.expose(SimTime::from_secs(2)).unwrap();
        assert_eq!(e.start, SimTime::from_secs(2) + SimDuration::from_millis(300));
        assert_eq!(e.duration(), SimDuration::from_millis(800));
        // Disarmed after firing.
        assert!(!x.is_armed());
        assert_eq!(x.expose(SimTime::from_secs(3)), None);
        assert_eq!(x.exposures().len(), 1);
    }

    #[test]
    fn multiple_exposures_are_logged() {
        let mut x = XRayMachine::default();
        for i in 0..3 {
            x.arm();
            x.expose(SimTime::from_secs(i * 10));
        }
        assert_eq!(x.exposures().len(), 3);
    }

    #[test]
    fn profile_accepts_imaging_commands() {
        let p = XRayMachine::profile("SN-X");
        assert!(p.accepts_command(CommandKind::ArmExposure));
        assert!(p.accepts_command(CommandKind::Expose));
        assert!(!p.accepts_command(CommandKind::Stop));
    }
}
