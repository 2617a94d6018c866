//! # mcps-alarms — clinical alarm algorithms and scoring
//!
//! The context-aware-intelligence pillar of the paper: conventional
//! threshold alarms, a multi-parameter fusion ("smart") alarm that
//! rejects single-channel artifacts, annunciation management, and the
//! ground-truth scoring (sensitivity / false-alarm rate) experiment E2
//! uses to compare them.
//!
//! * [`threshold`] — single-parameter limit alarms with persistence.
//! * [`fusion`] — corroboration + slew-screening smart alarm.
//! * [`plausibility`] — flatline/stuck-sensor screening (closes the
//!   stuck-value gap freshness checking cannot see).
//! * [`manager`] — annunciation states, silencing, event log.
//! * [`trend`] — slope-based early deterioration detection.
//! * [`fatigue`] — nurse desensitization model converting false-alarm
//!   rates into missed-true-alarm rates.
//! * [`stats`] — ground-truth episodes and alarm scoring.
//! * [`event`] — the shared alarm-event vocabulary.
//!
//! ## Example
//!
//! ```
//! use mcps_alarms::fusion::FusionAlarm;
//! use mcps_patient::vitals::VitalKind;
//! use mcps_runtime::time::SimTime;
//! use std::collections::BTreeMap;
//!
//! let mut alarm = FusionAlarm::pca_default();
//! let mut values = BTreeMap::new();
//! values.insert(VitalKind::Spo2, 97.0);
//! values.insert(VitalKind::RespRate, 14.0);
//! let events = alarm.observe(SimTime::from_secs(1), &values);
//! assert!(events.is_empty()); // healthy patient
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod fatigue;
pub mod fusion;
pub mod manager;
pub mod plausibility;
pub mod stats;
pub mod threshold;
pub mod trend;

pub use event::{AlarmEvent, AlarmPhase, AlarmPriority};
pub use fatigue::{
    operational_score, operational_score_labeled, NurseConfig, NurseModel, OperationalScore,
};
pub use fusion::{DangerBands, FusionAlarm, FusionConfig};
pub use manager::AlarmManager;
pub use plausibility::{FlatlineConfig, FlatlineDetector, PlausibilityMonitor};
pub use stats::{score_alarms, AlarmScore, Episode, EpisodeDetector};
pub use threshold::{ThresholdAlarm, ThresholdRule};
pub use trend::{DeteriorationTrend, TrendConfig, TrendEstimator};
