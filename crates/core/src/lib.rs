//! # mcps-core — the Integrated Clinical Environment
//!
//! The paper's primary contribution, implemented: an on-demand medical
//! cyber-physical system in the ICE style. Devices announce capability
//! profiles, a device manager matches them against the slots a clinical
//! app requires, a supervisor hosts the app, and a network controller
//! imposes realistic QoS on everything that flows between them.
//!
//! Layers:
//!
//! * [`msg`] — the message plane ([`msg::IceMsg`], commands, payloads).
//! * [`netctl`] — the network controller actor over `mcps-net`.
//! * [`body`] — the patient's body as shared *physical* state, plus the
//!   patient actor (physiology advance, button presses).
//! * [`pump_core`] — the sans-io pump state machine ([`PumpCore`]) the
//!   sim pump actor and the live bed client both run.
//! * [`actors`] — network wrappers for pumps, monitors, ventilators and
//!   x-ray machines.
//! * [`manager`] — on-demand device association.
//! * [`app`] / [`apps`] — the clinical-app interface and the two
//!   flagship apps: the PCA safety interlock and the x-ray/ventilator
//!   coordinator.
//! * [`supervisor`] — the actor hosting an app.
//! * [`scenarios`] — complete runnable scenarios with scored outcomes.
//!
//! ## Example: run the paper's flagship closed-loop scenario
//!
//! ```
//! use mcps_core::scenarios::pca::{run_pca_scenario, PcaScenarioConfig};
//! use mcps_patient::cohort::{CohortConfig, CohortGenerator};
//! use mcps_runtime::time::SimDuration;
//!
//! let cohort = CohortGenerator::new(1, CohortConfig::default());
//! let mut config = PcaScenarioConfig::baseline(1, cohort.params(0));
//! config.duration = SimDuration::from_mins(10);
//! let outcome = run_pca_scenario(&config);
//! assert!(outcome.associated);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actors;
pub mod app;
pub mod apps;
pub mod body;
pub mod manager;
pub mod msg;
pub mod netctl;
pub mod pump_core;
pub mod scenarios;
pub mod supervisor;
pub mod vecmap;

pub use app::{AppCtx, ClinicalApp};
pub use apps::{PcaSafetyApp, WardMonitorApp, WorkflowStyle, XRayCoordinatorApp};
pub use body::{PatientActor, PatientBody};
pub use manager::{AssociationOutcome, DeviceManager};
pub use msg::{IceCommand, IceMsg, NetAddress, NetOp, NetPayload};
pub use netctl::NetworkController;
pub use pump_core::{PumpCore, PumpInput};
pub use supervisor::sans_io::{CheckpointState, CoreInput, CoreOutputs, SupervisorCore};
pub use supervisor::{Supervisor, SupervisorRole};
