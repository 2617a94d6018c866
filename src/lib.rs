//! Umbrella crate for the `mcps` workspace: re-exports every subsystem so
//! examples and integration tests can use a single dependency.
//!
//! See the individual crates for the real APIs:
//! - [`mcps_core`] — ICE supervisor, clinical apps, scenarios
//! - [`mcps_runtime`] — discrete-event simulation kernel, telemetry, shard runner
//! - [`mcps_patient`] — virtual patient physiology
//! - [`mcps_device`] — simulated medical devices
//! - [`mcps_net`] — simulated network fabric
//! - [`mcps_control`] — closed-loop controllers and interlocks
//! - [`mcps_alarms`] — threshold and fusion alarm algorithms
//! - [`mcps_safety`] — timed-automata model checking and assurance cases

pub use mcps_alarms as alarms;
pub use mcps_control as control;
pub use mcps_core as core;
pub use mcps_device as device;
pub use mcps_net as net;
pub use mcps_patient as patient;
pub use mcps_runtime as runtime;
pub use mcps_safety as safety;
