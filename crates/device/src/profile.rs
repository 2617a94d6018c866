//! Device identity and capability profiles.
//!
//! On-demand interoperability — assembling an MCPS at the bedside from
//! whatever devices are present — requires devices to *describe
//! themselves*: what data they publish, what commands they accept, and
//! how timely they are. A clinical app then states its requirements and
//! the ICE device manager matches the two before association. These
//! types are the vocabulary of that negotiation.
//!
//! A [`DeviceProfile`] is built once per device and never changes
//! afterwards, so it is a shared handle: every announce, and every copy
//! the network controller makes of it for a subscriber, clones one
//! `Arc` instead of the strings and vectors behind it.

use mcps_patient::vitals::VitalKind;
use mcps_runtime::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Broad regulatory class of a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceClass {
    /// Infusion / drug-delivery devices.
    Infusion,
    /// Physiological monitors.
    Monitor,
    /// Respiratory support.
    Ventilation,
    /// Imaging equipment.
    Imaging,
    /// Anything else.
    Other,
}

impl fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceClass::Infusion => "infusion",
            DeviceClass::Monitor => "monitor",
            DeviceClass::Ventilation => "ventilation",
            DeviceClass::Imaging => "imaging",
            DeviceClass::Other => "other",
        };
        f.write_str(s)
    }
}

/// Command verbs a device may accept over the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CommandKind {
    /// Immediately stop drug delivery / motion.
    Stop,
    /// Resume after a stop.
    Resume,
    /// Grant a time-limited permission ticket (fail-safe interlock).
    GrantTicket,
    /// Request a patient bolus.
    RequestBolus,
    /// Change the basal/infusion rate.
    SetRate,
    /// Pause ventilation for a bounded window.
    PauseVentilation,
    /// Resume ventilation.
    ResumeVentilation,
    /// Arm an imaging exposure.
    ArmExposure,
    /// Fire an imaging exposure.
    Expose,
}

/// Timeliness class of a published stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum LatencyClass {
    /// Suitable for closed-loop control (sub-second end-to-end).
    Realtime,
    /// Suitable for alarm generation (a few seconds).
    NearRealtime,
    /// Trend/records only.
    BestEffort,
}

/// One data stream a device publishes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamSpec {
    /// The vital sign carried.
    pub kind: VitalKind,
    /// Publication period.
    pub period: SimDuration,
    /// Timeliness class.
    pub latency_class: LatencyClass,
}

/// The self-description a device presents at association time: an
/// immutable, shared handle on a [`ProfileSpec`], whose fields are read
/// through [`Deref`]. A clone is a reference-count bump, and the handle
/// is pointer-sized, so a message carrying it stays cheap to move.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile(Arc<ProfileSpec>);

/// The fields of a [`DeviceProfile`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileSpec {
    /// Manufacturer name.
    pub vendor: String,
    /// Model name.
    pub model: String,
    /// Unique serial number.
    pub serial: String,
    /// Regulatory class.
    pub class: DeviceClass,
    /// Streams the device publishes.
    pub streams: Vec<StreamSpec>,
    /// Commands the device accepts.
    pub commands: Vec<CommandKind>,
}

impl DeviceProfile {
    /// Starts building a profile.
    pub fn builder(
        vendor: &str,
        model: &str,
        serial: &str,
        class: DeviceClass,
    ) -> DeviceProfileBuilder {
        DeviceProfileBuilder {
            spec: ProfileSpec {
                vendor: vendor.to_owned(),
                model: model.to_owned(),
                serial: serial.to_owned(),
                class,
                streams: Vec::new(),
                commands: Vec::new(),
            },
        }
    }
}

impl Deref for DeviceProfile {
    type Target = ProfileSpec;

    fn deref(&self) -> &ProfileSpec {
        &self.0
    }
}

// The JSON of a profile is the JSON of its fields: the handle is
// invisible on the wire.
impl Serialize for DeviceProfile {
    fn to_content(&self) -> serde::Content {
        self.0.to_content()
    }
}

impl Deserialize for DeviceProfile {
    fn from_content(content: &serde::Content) -> Result<Self, serde::Error> {
        ProfileSpec::from_content(content).map(|spec| DeviceProfile(Arc::new(spec)))
    }
}

impl ProfileSpec {
    /// Whether the device publishes `kind` at least as often as
    /// `max_period` and at least as timely as `class`.
    pub fn provides_stream(
        &self,
        kind: VitalKind,
        max_period: SimDuration,
        class: LatencyClass,
    ) -> bool {
        self.streams
            .iter()
            .any(|s| s.kind == kind && s.period <= max_period && s.latency_class <= class)
    }

    /// Whether the device accepts `command`.
    pub fn accepts_command(&self, command: CommandKind) -> bool {
        self.commands.contains(&command)
    }
}

impl fmt::Display for DeviceProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} (sn {}, {})", self.vendor, self.model, self.serial, self.class)
    }
}

/// Incremental builder for [`DeviceProfile`].
#[derive(Debug, Clone)]
pub struct DeviceProfileBuilder {
    spec: ProfileSpec,
}

impl DeviceProfileBuilder {
    /// Adds a published stream.
    pub fn stream(mut self, kind: VitalKind, period: SimDuration, class: LatencyClass) -> Self {
        self.spec.streams.push(StreamSpec { kind, period, latency_class: class });
        self
    }

    /// Adds an accepted command.
    pub fn command(mut self, command: CommandKind) -> Self {
        if !self.spec.commands.contains(&command) {
            self.spec.commands.push(command);
        }
        self
    }

    /// Finishes the profile.
    pub fn build(self) -> DeviceProfile {
        DeviceProfile(Arc::new(self.spec))
    }
}

/// One requirement a clinical app places on a device slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Requirement {
    /// Needs a stream of `kind` with at most `max_period` between
    /// samples and at least the given timeliness.
    Stream {
        /// The vital required.
        kind: VitalKind,
        /// Maximum acceptable publication period.
        max_period: SimDuration,
        /// Minimum acceptable timeliness class.
        latency_class: LatencyClass,
    },
    /// Needs the device to accept a command.
    Command(CommandKind),
    /// Needs the device to be of a specific class.
    Class(DeviceClass),
}

impl Requirement {
    /// Whether `profile` satisfies this requirement.
    pub fn satisfied_by(&self, profile: &DeviceProfile) -> bool {
        match self {
            Requirement::Stream { kind, max_period, latency_class } => {
                profile.provides_stream(*kind, *max_period, *latency_class)
            }
            Requirement::Command(c) => profile.accepts_command(*c),
            Requirement::Class(c) => profile.class == *c,
        }
    }
}

/// A named device slot in a clinical app: "I need *a* pulse oximeter
/// with these properties", vendor-agnostic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceRequirementSet {
    /// Human-readable slot name, e.g. `"oximeter"`.
    pub slot: String,
    /// Requirements every candidate must satisfy.
    pub requirements: Vec<Requirement>,
}

impl DeviceRequirementSet {
    /// Creates a requirement set for a named slot.
    pub fn new(slot: &str, requirements: Vec<Requirement>) -> Self {
        DeviceRequirementSet { slot: slot.to_owned(), requirements }
    }

    /// Whether `profile` satisfies every requirement.
    pub fn matches(&self, profile: &DeviceProfile) -> bool {
        self.requirements.iter().all(|r| r.satisfied_by(profile))
    }

    /// The requirements not met by `profile` (for diagnostics).
    pub fn unmet<'a>(&'a self, profile: &DeviceProfile) -> Vec<&'a Requirement> {
        self.requirements.iter().filter(|r| !r.satisfied_by(profile)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oximeter_profile() -> DeviceProfile {
        DeviceProfile::builder("Acme", "OxiMax 9", "SN-1", DeviceClass::Monitor)
            .stream(VitalKind::Spo2, SimDuration::from_secs(1), LatencyClass::Realtime)
            .stream(VitalKind::HeartRate, SimDuration::from_secs(1), LatencyClass::Realtime)
            .build()
    }

    fn pump_profile() -> DeviceProfile {
        DeviceProfile::builder("Baxa", "PCA-3", "SN-2", DeviceClass::Infusion)
            .command(CommandKind::Stop)
            .command(CommandKind::Resume)
            .command(CommandKind::GrantTicket)
            .command(CommandKind::RequestBolus)
            .build()
    }

    #[test]
    fn stream_matching_respects_rate_and_class() {
        let p = oximeter_profile();
        assert!(p.provides_stream(
            VitalKind::Spo2,
            SimDuration::from_secs(2),
            LatencyClass::Realtime
        ));
        assert!(p.provides_stream(
            VitalKind::Spo2,
            SimDuration::from_secs(1),
            LatencyClass::BestEffort
        ));
        // Needs faster than the device publishes: no match.
        assert!(!p.provides_stream(
            VitalKind::Spo2,
            SimDuration::from_millis(100),
            LatencyClass::Realtime
        ));
        // Vital not published at all.
        assert!(!p.provides_stream(
            VitalKind::Etco2,
            SimDuration::from_secs(60),
            LatencyClass::BestEffort
        ));
    }

    #[test]
    fn latency_class_ordering() {
        assert!(LatencyClass::Realtime < LatencyClass::NearRealtime);
        assert!(LatencyClass::NearRealtime < LatencyClass::BestEffort);
    }

    #[test]
    fn requirement_set_matching() {
        let need_oximeter = DeviceRequirementSet::new(
            "oximeter",
            vec![
                Requirement::Class(DeviceClass::Monitor),
                Requirement::Stream {
                    kind: VitalKind::Spo2,
                    max_period: SimDuration::from_secs(5),
                    latency_class: LatencyClass::NearRealtime,
                },
            ],
        );
        assert!(need_oximeter.matches(&oximeter_profile()));
        assert!(!need_oximeter.matches(&pump_profile()));
        assert_eq!(need_oximeter.unmet(&pump_profile()).len(), 2);
    }

    #[test]
    fn command_requirements() {
        let need_stoppable_pump = DeviceRequirementSet::new(
            "pca-pump",
            vec![
                Requirement::Class(DeviceClass::Infusion),
                Requirement::Command(CommandKind::Stop),
                Requirement::Command(CommandKind::GrantTicket),
            ],
        );
        assert!(need_stoppable_pump.matches(&pump_profile()));
        // A pump without ticket support fails the ticket requirement.
        let legacy = DeviceProfile::builder("Old", "Pump-1", "SN-3", DeviceClass::Infusion)
            .command(CommandKind::Stop)
            .build();
        assert!(!need_stoppable_pump.matches(&legacy));
        assert_eq!(need_stoppable_pump.unmet(&legacy).len(), 1);
    }

    #[test]
    fn builder_dedups_commands() {
        let p = DeviceProfile::builder("V", "M", "S", DeviceClass::Other)
            .command(CommandKind::Stop)
            .command(CommandKind::Stop)
            .build();
        assert_eq!(p.commands.len(), 1);
    }

    #[test]
    fn clones_share_one_spec() {
        let p = pump_profile();
        let q = p.clone();
        assert!(Arc::ptr_eq(&p.0, &q.0));
    }

    #[test]
    fn json_is_the_spec_and_round_trips() {
        let p = oximeter_profile();
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(json, serde_json::to_string(&*p).unwrap());
        assert!(json.starts_with(r#"{"vendor":"Acme","model":"OxiMax 9","serial":"SN-1""#));
        let back: DeviceProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn display_is_informative() {
        let s = pump_profile().to_string();
        assert!(s.contains("Baxa") && s.contains("PCA-3") && s.contains("infusion"));
    }
}
