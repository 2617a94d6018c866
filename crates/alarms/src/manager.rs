//! Alarm annunciation management.
//!
//! Collects events from any number of detectors, maintains the set of
//! currently annunciating conditions, supports time-limited silencing
//! (audio pause) without losing latched history, and keeps the event
//! log experiments mine for onset times.

use crate::event::{AlarmEvent, AlarmPhase, AlarmPriority};
use mcps_runtime::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Central alarm manager for one bed/supervisor.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AlarmManager {
    /// Active conditions: source → (priority, onset time).
    active: BTreeMap<String, (AlarmPriority, SimTime)>,
    /// Audio silenced until this instant, if set.
    silenced_until: Option<SimTime>,
    log: Vec<AlarmEvent>,
    onset_count: u64,
}

impl AlarmManager {
    /// An empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests detector events.
    pub fn ingest(&mut self, events: impl IntoIterator<Item = AlarmEvent>) {
        for e in events {
            match e.phase {
                AlarmPhase::Onset => {
                    self.active.insert(e.source.clone(), (e.priority, e.at));
                    self.onset_count += 1;
                }
                AlarmPhase::Cleared => {
                    self.active.remove(&e.source);
                }
            }
            self.log.push(e);
        }
    }

    /// Currently annunciating sources, with priority and onset time.
    pub fn active(&self) -> impl Iterator<Item = (&str, AlarmPriority, SimTime)> {
        self.active.iter().map(|(s, &(p, t))| (s.as_str(), p, t))
    }

    /// The highest active priority, if any alarm is active.
    pub fn highest_priority(&self) -> Option<AlarmPriority> {
        self.active.values().map(|&(p, _)| p).max()
    }

    /// Whether any alarm is active.
    pub fn any_active(&self) -> bool {
        !self.active.is_empty()
    }

    /// Whether the audible annunciator is sounding at `now` (an active
    /// alarm and not silenced).
    pub fn is_sounding(&self, now: SimTime) -> bool {
        self.any_active() && self.silenced_until.is_none_or(|t| now >= t)
    }

    /// Silences audio for `duration` (visual indication persists).
    pub fn silence(&mut self, now: SimTime, duration: SimDuration) {
        self.silenced_until = Some(now + duration);
    }

    /// The full event log.
    pub fn log(&self) -> &[AlarmEvent] {
        &self.log
    }

    /// Total onsets ever ingested.
    pub fn onset_count(&self) -> u64 {
        self.onset_count
    }

    /// Onset times (seconds) of events from a given source, for scoring.
    pub fn onset_secs(&self, source: &str) -> Vec<f64> {
        self.log
            .iter()
            .filter(|e| e.phase == AlarmPhase::Onset && e.source == source)
            .map(|e| e.at.as_secs_f64())
            .collect()
    }

    /// Onset times (seconds) of all events regardless of source.
    pub fn all_onset_secs(&self) -> Vec<f64> {
        self.log
            .iter()
            .filter(|e| e.phase == AlarmPhase::Onset)
            .map(|e| e.at.as_secs_f64())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn onset(at: u64, source: &str, priority: AlarmPriority) -> AlarmEvent {
        AlarmEvent {
            at: SimTime::from_secs(at),
            source: source.into(),
            priority,
            phase: AlarmPhase::Onset,
            detail: String::new(),
        }
    }

    fn cleared(at: u64, source: &str) -> AlarmEvent {
        AlarmEvent {
            at: SimTime::from_secs(at),
            source: source.into(),
            priority: AlarmPriority::Low,
            phase: AlarmPhase::Cleared,
            detail: String::new(),
        }
    }

    #[test]
    fn tracks_active_set() {
        let mut m = AlarmManager::new();
        m.ingest([
            onset(1, "spo2-low", AlarmPriority::High),
            onset(2, "hr-range", AlarmPriority::Medium),
        ]);
        assert!(m.any_active());
        assert_eq!(m.highest_priority(), Some(AlarmPriority::High));
        m.ingest([cleared(3, "spo2-low")]);
        assert_eq!(m.highest_priority(), Some(AlarmPriority::Medium));
        m.ingest([cleared(4, "hr-range")]);
        assert!(!m.any_active());
        assert_eq!(m.onset_count(), 2);
        assert_eq!(m.log().len(), 4);
    }

    #[test]
    fn silence_is_time_limited() {
        let mut m = AlarmManager::new();
        m.ingest([onset(1, "fusion", AlarmPriority::High)]);
        assert!(m.is_sounding(SimTime::from_secs(2)));
        m.silence(SimTime::from_secs(2), SimDuration::from_secs(60));
        assert!(!m.is_sounding(SimTime::from_secs(30)));
        assert!(m.is_sounding(SimTime::from_secs(62)), "silence expires");
    }

    #[test]
    fn silent_when_nothing_active() {
        let m = AlarmManager::new();
        assert!(!m.is_sounding(SimTime::ZERO));
        assert_eq!(m.highest_priority(), None);
    }

    #[test]
    fn onset_secs_filters_by_source() {
        let mut m = AlarmManager::new();
        m.ingest([
            onset(1, "fusion", AlarmPriority::High),
            cleared(5, "fusion"),
            onset(9, "fusion", AlarmPriority::High),
            onset(4, "spo2-low", AlarmPriority::High),
        ]);
        assert_eq!(m.onset_secs("fusion"), vec![1.0, 9.0]);
        assert_eq!(m.all_onset_secs().len(), 3);
    }
}
