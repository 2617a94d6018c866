//! # mcps-control — closed-loop physiological control
//!
//! The autonomy pillar of the paper: supervisory algorithms that close
//! the loop between physiological monitoring and actuation.
//!
//! * [`interlock`] — the PCA safety-interlock supervisor (command and
//!   fail-safe ticket strategies, threshold or fusion detection).
//! * [`closed_loop`] — infusion controllers: open-loop fixed rate,
//!   target-controlled infusion (TCI), and TCI with respiratory-rate
//!   feedback.
//! * [`pid`] — the discrete PI(D) primitive with anti-windup.
//!
//! ## Example
//!
//! ```
//! use mcps_control::interlock::{InterlockConfig, PcaInterlock};
//! use mcps_patient::vitals::VitalKind;
//! use mcps_runtime::time::SimTime;
//!
//! let mut supervisor = PcaInterlock::new(InterlockConfig::default());
//! supervisor.on_measurement(SimTime::from_secs(1), VitalKind::Spo2, 97.0);
//! supervisor.on_measurement(SimTime::from_secs(1), VitalKind::RespRate, 14.0);
//! let actions = supervisor.on_tick(SimTime::from_secs(1));
//! assert!(!actions.is_empty()); // healthy + fresh data ⇒ a ticket is granted
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod closed_loop;
pub mod interlock;
pub mod pid;

pub use closed_loop::{
    FeedbackTciController, FixedRateController, InfusionController, TciController,
    MAX_RATE_MG_PER_H,
};
pub use interlock::{
    DenyReason, DetectorKind, InterlockAction, InterlockConfig, InterlockStrategy, PcaInterlock,
};
pub use pid::{Pid, PidConfig};
