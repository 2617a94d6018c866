//! Timestamped scalar series: the time-series tracks of
//! [`Telemetry`](super::Telemetry), with sample-and-hold lookup.
//! Experiments reduce series to [`Summary`] rows.

use super::stats::Summary;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// A timestamped scalar series.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an observation.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `at` precedes the last recorded point;
    /// series must be recorded in time order.
    pub fn record(&mut self, at: SimTime, value: f64) {
        debug_assert!(
            self.points.last().is_none_or(|(t, _)| *t <= at),
            "time series recorded out of order"
        );
        self.points.push((at, value));
    }

    /// Inserts an observation that may precede already-recorded points,
    /// keeping the series sorted by time. Ties insert *after* existing
    /// equal-time points, so merging shard series is stable. Used by
    /// telemetry merge; prefer [`TimeSeries::record`] during a run.
    pub fn record_unordered(&mut self, at: SimTime, value: f64) {
        let idx = self.points.partition_point(|(t, _)| *t <= at);
        if idx == self.points.len() {
            self.points.push((at, value));
        } else {
            self.points.insert(idx, (at, value));
        }
    }

    /// All points in time order.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Just the values, in time order.
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|(_, v)| *v).collect()
    }

    /// The last value, if any.
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|(_, v)| *v)
    }

    /// The value in effect at time `at` under sample-and-hold semantics
    /// (i.e. the most recent point at or before `at`).
    pub fn sample_at(&self, at: SimTime) -> Option<f64> {
        match self.points.binary_search_by(|(t, _)| t.cmp(&at)) {
            Ok(i) => Some(self.points[i].1),
            Err(0) => None,
            Err(i) => Some(self.points[i - 1].1),
        }
    }

    /// Fraction of *time* (not samples) during which
    /// `predicate(value)` held, over `[start, end]`, under
    /// sample-and-hold semantics. Returns `None` for an empty window or
    /// series.
    pub fn time_fraction_where(
        &self,
        start: SimTime,
        end: SimTime,
        mut predicate: impl FnMut(f64) -> bool,
    ) -> Option<f64> {
        if end <= start || self.points.is_empty() {
            return None;
        }
        let total = (end - start).as_micros() as f64;
        let mut held = 0u64;
        let mut cur = start;
        let mut cur_val = self.sample_at(start);
        for &(t, v) in &self.points {
            if t <= start {
                continue;
            }
            if t >= end {
                break;
            }
            if let Some(val) = cur_val {
                if predicate(val) {
                    held += (t - cur).as_micros();
                }
            }
            cur = t;
            cur_val = Some(v);
        }
        if let Some(val) = cur_val {
            if predicate(val) {
                held += (end - cur).as_micros();
            }
        }
        Some(held as f64 / total)
    }

    /// Summary statistics of the values.
    pub fn summary(&self) -> Summary {
        Summary::from_values(&self.values())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(points: &[(u64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new();
        for &(sec, v) in points {
            s.record(SimTime::from_secs(sec), v);
        }
        s
    }

    #[test]
    fn sample_and_hold() {
        let s = ts(&[(10, 1.0), (20, 2.0)]);
        assert_eq!(s.sample_at(SimTime::from_secs(5)), None);
        assert_eq!(s.sample_at(SimTime::from_secs(10)), Some(1.0));
        assert_eq!(s.sample_at(SimTime::from_secs(15)), Some(1.0));
        assert_eq!(s.sample_at(SimTime::from_secs(20)), Some(2.0));
        assert_eq!(s.sample_at(SimTime::from_secs(99)), Some(2.0));
        assert_eq!(s.last(), Some(2.0));
    }

    #[test]
    fn time_fraction_basic() {
        // value 1.0 on [0,10), 3.0 on [10,20]
        let s = ts(&[(0, 1.0), (10, 3.0)]);
        let frac =
            s.time_fraction_where(SimTime::ZERO, SimTime::from_secs(20), |v| v > 2.0).unwrap();
        assert!((frac - 0.5).abs() < 1e-9);
    }

    #[test]
    fn time_fraction_window_inside_segment() {
        let s = ts(&[(0, 5.0)]);
        let frac = s
            .time_fraction_where(SimTime::from_secs(3), SimTime::from_secs(7), |v| v > 1.0)
            .unwrap();
        assert!((frac - 1.0).abs() < 1e-9);
    }

    #[test]
    fn time_fraction_empty_cases() {
        let s = TimeSeries::new();
        assert!(s.time_fraction_where(SimTime::ZERO, SimTime::from_secs(1), |_| true).is_none());
        let s = ts(&[(0, 1.0)]);
        assert!(s
            .time_fraction_where(SimTime::from_secs(2), SimTime::from_secs(2), |_| true)
            .is_none());
    }
}
