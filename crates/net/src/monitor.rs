//! Stream-freshness and deadline monitoring.
//!
//! Safety interlocks must *know* when their inputs are stale: a pump
//! that keeps infusing while the oximeter's reports are stuck in a
//! partitioned network is exactly the failure the paper warns about.
//! [`FreshnessMonitor`] tracks per-stream arrival recency and
//! [`DeadlineTracker`] scores request/response latency against a
//! deadline.

use mcps_runtime::telemetry::Welford;
use mcps_runtime::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Tracks the last arrival time of named streams and flags staleness.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FreshnessMonitor {
    last_seen: BTreeMap<String, SimTime>,
    timeout: SimDuration,
}

impl FreshnessMonitor {
    /// Creates a monitor that deems a stream stale `timeout` after its
    /// last arrival.
    pub fn new(timeout: SimDuration) -> Self {
        FreshnessMonitor { last_seen: BTreeMap::new(), timeout }
    }

    /// The configured staleness timeout.
    pub fn timeout(&self) -> SimDuration {
        self.timeout
    }

    /// Records an arrival on `stream` at `now`.
    pub fn observe(&mut self, stream: &str, now: SimTime) {
        // Steady state is a fresh timestamp on a known stream: update
        // in place and only allocate the owned key on first arrival.
        if let Some(t) = self.last_seen.get_mut(stream) {
            *t = now;
        } else {
            self.last_seen.insert(stream.to_owned(), now);
        }
    }

    /// Last arrival on `stream`, if any.
    pub fn last_seen(&self, stream: &str) -> Option<SimTime> {
        self.last_seen.get(stream).copied()
    }

    /// Whether `stream` is stale at `now`. A stream that has *never*
    /// arrived is always stale — absence of data must fail safe.
    pub fn is_stale(&self, stream: &str, now: SimTime) -> bool {
        match self.last_seen.get(stream) {
            Some(&t) => now.saturating_since(t) > self.timeout,
            None => true,
        }
    }

    /// Streams (of those ever observed) that are stale at `now`.
    pub fn stale_streams(&self, now: SimTime) -> Vec<&str> {
        self.last_seen
            .iter()
            .filter(|(_, &t)| now.saturating_since(t) > self.timeout)
            .map(|(k, _)| k.as_str())
            .collect()
    }
}

/// Scores completed request/response (or command/acknowledgement)
/// round trips against a deadline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeadlineTracker {
    deadline: SimDuration,
    met: u64,
    missed: u64,
    unanswered: u64,
    latency: Welford,
}

impl DeadlineTracker {
    /// Creates a tracker with the given deadline.
    pub fn new(deadline: SimDuration) -> Self {
        DeadlineTracker { deadline, met: 0, missed: 0, unanswered: 0, latency: Welford::new() }
    }

    /// The configured deadline.
    pub fn deadline(&self) -> SimDuration {
        self.deadline
    }

    /// Records a completed round trip that took `elapsed`.
    pub fn record(&mut self, elapsed: SimDuration) {
        self.latency.push(elapsed.as_secs_f64());
        if elapsed <= self.deadline {
            self.met += 1;
        } else {
            self.missed += 1;
        }
    }

    /// Records a request that never completed (counts as a miss of the
    /// worst kind).
    pub fn record_unanswered(&mut self) {
        self.unanswered += 1;
    }

    /// Round trips within the deadline.
    pub fn met(&self) -> u64 {
        self.met
    }

    /// Completed round trips that exceeded the deadline.
    pub fn missed(&self) -> u64 {
        self.missed
    }

    /// Requests that never completed.
    pub fn unanswered(&self) -> u64 {
        self.unanswered
    }

    /// Total observations (met + missed + unanswered).
    pub fn total(&self) -> u64 {
        self.met + self.missed + self.unanswered
    }

    /// Fraction of observations that met the deadline (1.0 if none).
    pub fn success_ratio(&self) -> f64 {
        if self.total() == 0 {
            1.0
        } else {
            self.met as f64 / self.total() as f64
        }
    }

    /// Latency statistics over completed round trips.
    pub fn latency(&self) -> &Welford {
        &self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_seen_is_stale() {
        let m = FreshnessMonitor::new(SimDuration::from_secs(5));
        assert!(m.is_stale("spo2", SimTime::ZERO));
    }

    #[test]
    fn freshness_window() {
        let mut m = FreshnessMonitor::new(SimDuration::from_secs(5));
        m.observe("spo2", SimTime::from_secs(10));
        assert!(!m.is_stale("spo2", SimTime::from_secs(15)));
        assert!(m.is_stale("spo2", SimTime::from_secs(16)));
        assert_eq!(m.last_seen("spo2"), Some(SimTime::from_secs(10)));
    }

    #[test]
    fn stale_streams_lists_only_stale() {
        let mut m = FreshnessMonitor::new(SimDuration::from_secs(5));
        m.observe("a", SimTime::from_secs(0));
        m.observe("b", SimTime::from_secs(9));
        let stale = m.stale_streams(SimTime::from_secs(10));
        assert_eq!(stale, vec!["a"]);
    }

    #[test]
    fn deadline_classification() {
        let mut d = DeadlineTracker::new(SimDuration::from_millis(100));
        d.record(SimDuration::from_millis(50));
        d.record(SimDuration::from_millis(100));
        d.record(SimDuration::from_millis(101));
        d.record_unanswered();
        assert_eq!(d.met(), 2);
        assert_eq!(d.missed(), 1);
        assert_eq!(d.unanswered(), 1);
        assert_eq!(d.total(), 4);
        assert!((d.success_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(d.latency().count(), 3);
    }

    #[test]
    fn empty_tracker_is_vacuously_successful() {
        let d = DeadlineTracker::new(SimDuration::from_millis(1));
        assert_eq!(d.success_ratio(), 1.0);
    }
}
