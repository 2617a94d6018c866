//! # mcps-device — simulated interoperable medical devices
//!
//! Faithful state machines of the devices the paper's clinical
//! scenarios assemble at the bedside:
//!
//! * [`pump`] — a GPCA-style PCA infusion pump with lockout, hourly
//!   limits, stop/resume and a fail-safe permission-ticket mode.
//! * [`monitor`] — multi-channel vitals monitors (pulse oximeter,
//!   capnograph) with realistic sensor artifacts and averaging.
//! * [`nibp`] — an intermittent, cycling blood-pressure monitor whose
//!   cuff blinds same-limb oximetry.
//! * [`ventilator`] — breath-cycle state machine with bounded,
//!   auto-resuming pauses.
//! * [`xray`] — a portable x-ray with arm/expose and exposure logging.
//! * [`profile`] — the capability-profile vocabulary used for
//!   on-demand device/app matching.
//! * [`ders`] — the dose-error reduction system (smart-pump drug
//!   library) gating pump programming.
//! * [`faults`] — scripted device fault injection.
//!
//! All devices are pure state machines parameterized by simulation
//! time; the ICE layer in `mcps-core` wraps them in actors and wires
//! them to the network fabric.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ders;
pub mod faults;
pub mod monitor;
pub mod nibp;
pub mod profile;
pub mod pump;
pub mod ventilator;
pub mod xray;

pub use ders::{Ceiling, DrugEntry, DrugLibrary, ProgramVerdict, UnknownDrug, Violation};
pub use faults::{FaultKind, FaultPlan};
pub use monitor::{capnograph, pulse_oximeter, Measurement, VitalsMonitor};
pub use nibp::{NibpConfig, NibpMonitor, NibpReading};
pub use profile::{
    CommandKind, DeviceClass, DeviceProfile, DeviceRequirementSet, LatencyClass, ProfileSpec,
    Requirement, StreamSpec,
};
pub use pump::{BolusDecision, PcaPump, PcaPumpConfig, PumpState, StopReason};
pub use ventilator::{BreathPhase, PauseOutcome, Ventilator, VentilatorConfig};
pub use xray::{Exposure, XRayConfig, XRayMachine};
