//! Alarm event vocabulary.

use mcps_runtime::time::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Clinical priority of an alarm (IEC 60601-1-8 flavoured).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AlarmPriority {
    /// Advisory.
    Low,
    /// Prompt response required.
    Medium,
    /// Immediate response required.
    High,
}

impl fmt::Display for AlarmPriority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AlarmPriority::Low => "low",
            AlarmPriority::Medium => "medium",
            AlarmPriority::High => "HIGH",
        };
        f.write_str(s)
    }
}

/// Whether an event begins or ends an alarm condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AlarmPhase {
    /// The condition just became active.
    Onset,
    /// The condition just cleared.
    Cleared,
}

/// One alarm annunciation event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlarmEvent {
    /// When the event occurred.
    pub at: SimTime,
    /// Which detector produced it, e.g. `"spo2-low"` or `"fusion"`.
    pub source: String,
    /// Priority at onset.
    pub priority: AlarmPriority,
    /// Onset or clearance.
    pub phase: AlarmPhase,
    /// Human-readable detail.
    pub detail: String,
}

impl fmt::Display for AlarmEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let phase = match self.phase {
            AlarmPhase::Onset => "ONSET",
            AlarmPhase::Cleared => "clear",
        };
        write!(f, "[{}] {} {} ({}): {}", self.at, phase, self.source, self.priority, self.detail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_ordering() {
        assert!(AlarmPriority::Low < AlarmPriority::Medium);
        assert!(AlarmPriority::Medium < AlarmPriority::High);
    }

    #[test]
    fn display_contains_fields() {
        let e = AlarmEvent {
            at: SimTime::from_secs(5),
            source: "spo2-low".into(),
            priority: AlarmPriority::High,
            phase: AlarmPhase::Onset,
            detail: "SpO2 87.0 < 90.0".into(),
        };
        let s = e.to_string();
        assert!(s.contains("spo2-low") && s.contains("ONSET") && s.contains("HIGH"));
    }
}
