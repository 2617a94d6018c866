//! Conventional single-parameter threshold alarms.
//!
//! The baseline the paper's smart-alarm agenda is measured against:
//! each vital is compared against fixed limits and alarms after a short
//! persistence. Simple, certifiable — and notoriously false-alarm prone
//! because a single artifactual signal suffices to annunciate.

use crate::event::{AlarmEvent, AlarmPhase, AlarmPriority};
use mcps_patient::vitals::VitalKind;
use mcps_runtime::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One limit rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThresholdRule {
    /// Stable rule name (also the event source), e.g. `"spo2-low"`.
    pub name: String,
    /// Vital this rule watches.
    pub kind: VitalKind,
    /// Alarm when value < `low` (if set).
    pub low: Option<f64>,
    /// Alarm when value > `high` (if set).
    pub high: Option<f64>,
    /// Consecutive breaching samples required before annunciation.
    pub persistence: u32,
    /// Priority of the annunciation.
    pub priority: AlarmPriority,
}

impl ThresholdRule {
    fn breached(&self, v: f64) -> bool {
        self.low.is_some_and(|lo| v < lo) || self.high.is_some_and(|hi| v > hi)
    }
}

/// A bank of threshold rules with per-rule persistence state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThresholdAlarm {
    rules: Vec<ThresholdRule>,
    runs: Vec<u32>,
    active: Vec<bool>,
}

impl ThresholdAlarm {
    /// Creates a bank from rules.
    ///
    /// # Panics
    ///
    /// Panics if two rules share a name or a rule has no limit.
    pub fn new(rules: Vec<ThresholdRule>) -> Self {
        for (i, r) in rules.iter().enumerate() {
            assert!(
                r.low.is_some() || r.high.is_some(),
                "rule {} needs at least one limit",
                r.name
            );
            assert!(
                !rules[i + 1..].iter().any(|o| o.name == r.name),
                "duplicate rule name {}",
                r.name
            );
        }
        let n = rules.len();
        ThresholdAlarm { rules, runs: vec![0; n], active: vec![false; n] }
    }

    /// The standard PCA-ward rule set: SpO₂ < 90, RR < 8, HR outside
    /// [45, 130], EtCO₂ outside [12, 55]; 3-sample persistence.
    pub fn pca_default() -> Self {
        let rule = |name: &str, kind, low, high, priority| ThresholdRule {
            name: name.to_owned(),
            kind,
            low,
            high,
            persistence: 3,
            priority,
        };
        ThresholdAlarm::new(vec![
            rule("spo2-low", VitalKind::Spo2, Some(90.0), None, AlarmPriority::High),
            rule("rr-low", VitalKind::RespRate, Some(8.0), None, AlarmPriority::High),
            rule("hr-range", VitalKind::HeartRate, Some(45.0), Some(130.0), AlarmPriority::Medium),
            rule("etco2-range", VitalKind::Etco2, Some(12.0), Some(55.0), AlarmPriority::Medium),
        ])
    }

    /// The rules.
    pub fn rules(&self) -> &[ThresholdRule] {
        &self.rules
    }

    /// Whether any rule is currently annunciating.
    pub fn any_active(&self) -> bool {
        self.active.iter().any(|&a| a)
    }

    /// Whether the named rule is currently annunciating.
    pub fn is_active(&self, name: &str) -> bool {
        self.rules.iter().position(|r| r.name == name).map(|i| self.active[i]).unwrap_or(false)
    }

    /// Feeds one batch of measurements (a map from vital to latest
    /// value) observed at `now`; returns onset/clear events.
    pub fn observe(&mut self, now: SimTime, values: &BTreeMap<VitalKind, f64>) -> Vec<AlarmEvent> {
        let mut events = Vec::new();
        for (i, r) in self.rules.iter().enumerate() {
            let Some(&v) = values.get(&r.kind) else {
                // Missing signal: persistence resets, active alarms hold
                // (a detached probe must not silently clear an alarm).
                self.runs[i] = 0;
                continue;
            };
            if r.breached(v) {
                self.runs[i] = self.runs[i].saturating_add(1);
                if !self.active[i] && self.runs[i] >= r.persistence {
                    self.active[i] = true;
                    events.push(AlarmEvent {
                        at: now,
                        source: r.name.clone(),
                        priority: r.priority,
                        phase: AlarmPhase::Onset,
                        detail: format!("{} = {v:.1} outside limits", r.kind),
                    });
                }
            } else {
                self.runs[i] = 0;
                if self.active[i] {
                    self.active[i] = false;
                    events.push(AlarmEvent {
                        at: now,
                        source: r.name.clone(),
                        priority: r.priority,
                        phase: AlarmPhase::Cleared,
                        detail: format!("{} = {v:.1} back in range", r.kind),
                    });
                }
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values(spo2: f64, rr: f64) -> BTreeMap<VitalKind, f64> {
        let mut m = BTreeMap::new();
        m.insert(VitalKind::Spo2, spo2);
        m.insert(VitalKind::RespRate, rr);
        m.insert(VitalKind::HeartRate, 75.0);
        m.insert(VitalKind::Etco2, 38.0);
        m
    }

    #[test]
    fn persistence_gates_onset() {
        let mut a = ThresholdAlarm::pca_default();
        let mut events = Vec::new();
        for i in 0..3 {
            events.extend(a.observe(SimTime::from_secs(i), &values(85.0, 14.0)));
        }
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].source, "spo2-low");
        assert_eq!(events[0].phase, AlarmPhase::Onset);
        assert!(a.is_active("spo2-low"));
    }

    #[test]
    fn brief_dip_does_not_alarm() {
        let mut a = ThresholdAlarm::pca_default();
        let mut events = Vec::new();
        events.extend(a.observe(SimTime::from_secs(0), &values(85.0, 14.0)));
        events.extend(a.observe(SimTime::from_secs(1), &values(85.0, 14.0)));
        events.extend(a.observe(SimTime::from_secs(2), &values(97.0, 14.0)));
        assert!(events.is_empty(), "{events:?}");
        assert!(!a.any_active());
    }

    #[test]
    fn clear_event_on_recovery() {
        let mut a = ThresholdAlarm::pca_default();
        for i in 0..3 {
            a.observe(SimTime::from_secs(i), &values(85.0, 14.0));
        }
        let events = a.observe(SimTime::from_secs(3), &values(97.0, 14.0));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].phase, AlarmPhase::Cleared);
        assert!(!a.any_active());
    }

    #[test]
    fn missing_signal_holds_active_alarm() {
        let mut a = ThresholdAlarm::pca_default();
        for i in 0..3 {
            a.observe(SimTime::from_secs(i), &values(85.0, 14.0));
        }
        assert!(a.is_active("spo2-low"));
        // Probe falls off: no SpO2 key at all.
        let mut m = BTreeMap::new();
        m.insert(VitalKind::RespRate, 14.0);
        let events = a.observe(SimTime::from_secs(3), &m);
        assert!(events.is_empty());
        assert!(a.is_active("spo2-low"), "alarm must not clear on missing data");
    }

    #[test]
    fn two_rules_fire_independently() {
        let mut a = ThresholdAlarm::pca_default();
        let mut all = Vec::new();
        for i in 0..3 {
            all.extend(a.observe(SimTime::from_secs(i), &values(85.0, 5.0)));
        }
        let sources: Vec<_> = all.iter().map(|e| e.source.as_str()).collect();
        assert!(sources.contains(&"spo2-low") && sources.contains(&"rr-low"));
    }

    #[test]
    #[should_panic(expected = "needs at least one limit")]
    fn rule_without_limits_rejected() {
        let _ = ThresholdAlarm::new(vec![ThresholdRule {
            name: "void".into(),
            kind: VitalKind::Spo2,
            low: None,
            high: None,
            persistence: 1,
            priority: AlarmPriority::Low,
        }]);
    }
}
