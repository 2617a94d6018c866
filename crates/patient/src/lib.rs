//! # mcps-patient — virtual patient physiology
//!
//! The "physical" half of the medical cyber-physical system: a
//! mechanistic virtual patient that devices infuse drugs into and
//! sensors sample vital signs out of.
//!
//! * [`pk`] — two-compartment pharmacokinetics with an effect-site lag.
//! * [`physiology`] — opioid pharmacodynamics, gas exchange, vital signs.
//! * [`patient`] — the assembled [`patient::VirtualPatient`] plus
//!   ground-truth outcome tracking.
//! * [`cohort`] — reproducible randomized populations.
//! * [`drugs`] — opioid presets (morphine, hydromorphone, fentanyl).
//! * [`sensors`] — measurement noise, bias, dropouts and motion
//!   artifacts.
//! * [`vitals`] — the shared vital-sign vocabulary.
//!
//! ## Example
//!
//! ```
//! use mcps_patient::cohort::{CohortConfig, CohortGenerator};
//! use mcps_runtime::rng::RngFactory;
//!
//! let cohort = CohortGenerator::new(42, CohortConfig::default());
//! let mut patient = cohort.patient(0);
//! let mut rng = RngFactory::new(42).stream("demo");
//! patient.give_bolus(1.0);
//! for _ in 0..300 {
//!     patient.advance(1.0, &mut rng);
//! }
//! println!("{}", patient.vitals());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cohort;
pub mod drugs;
pub mod patient;
pub mod physiology;
pub mod pk;
pub mod sensors;
pub mod vitals;

pub use cohort::{CohortConfig, CohortGenerator};
pub use drugs::OpioidPreset;
pub use patient::{PatientOutcome, PatientParams, RiskGroup, VirtualPatient};
pub use sensors::{SensorReading, SensorSpec, SignalQuality, SimulatedSensor};
pub use vitals::{VitalKind, VitalsFrame};
