//! Telemetry: the single sink for run statistics.
//!
//! Replaces the previously scattered stats facilities (simulation
//! summary stats, metrics hub, per-domain counters) with one bus that
//! domain crates write through:
//!
//! - **Counters** — monotonically increasing named `u64`s.
//! - **Histograms** — named collections of `f64` observations,
//!   summarized on demand ([`Summary`], [`percentile`]).
//! - **Time series** — named `(SimTime, f64)` tracks with
//!   sample-and-hold lookup ([`TimeSeries`]).
//! - **Manifest** — ordered key/value run metadata (seed, scenario,
//!   configuration), so an exported telemetry blob identifies the run
//!   that produced it.
//!
//! Everything is stored in `BTreeMap`s so serialization order — and
//! therefore exported JSON — is deterministic. [`Telemetry::merge`]
//! combines per-shard buses into one, which is what keeps
//! shard-parallel runs byte-identical to serial ones: each shard
//! writes into its own bus and the merged result is independent of
//! completion order.

mod series;
mod stats;

pub use series::TimeSeries;
pub use stats::{percentile, Summary, Welford};

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A named collection of observations, summarized on demand.
///
/// Kept as raw values (not pre-bucketed) so percentiles stay exact and
/// merging shards is lossless concatenation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    values: Vec<f64>,
}

impl Histogram {
    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// The raw observations, in recording order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Summary statistics over all observations.
    pub fn summary(&self) -> Summary {
        Summary::from_values(&self.values)
    }

    /// Appends all of `other`'s observations.
    pub fn merge(&mut self, other: &Histogram) {
        self.values.extend_from_slice(&other.values);
    }

    /// Appends all of `other`'s observations by move. When `self` is
    /// empty this is a buffer swap, not a copy.
    pub fn merge_owned(&mut self, mut other: Histogram) {
        if self.values.is_empty() {
            std::mem::swap(&mut self.values, &mut other.values);
        } else {
            self.values.append(&mut other.values);
        }
    }
}

/// The telemetry bus: counters, histograms, time series and a run
/// manifest, all keyed by name with deterministic (sorted) ordering.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Telemetry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    series: BTreeMap<String, TimeSeries>,
    manifest: BTreeMap<String, String>,
}

impl Telemetry {
    /// Creates an empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments counter `name` by `by` (creating it at zero).
    pub fn incr(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += by;
    }

    /// Current value of counter `name` (zero if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records one observation into histogram `name`.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.histograms.entry(name.to_owned()).or_default().record(value);
    }

    /// The histogram named `name`, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Appends `(at, value)` to time series `name`.
    pub fn record(&mut self, name: &str, at: crate::time::SimTime, value: f64) {
        self.series.entry(name.to_owned()).or_default().record(at, value);
    }

    /// The time series named `name`, if any point was recorded.
    pub fn series(&self, name: &str) -> Option<&TimeSeries> {
        self.series.get(name)
    }

    /// Sets manifest entry `key` to `value` (last write wins).
    pub fn annotate(&mut self, key: &str, value: impl Into<String>) {
        self.manifest.insert(key.to_owned(), value.into());
    }

    /// The run manifest.
    pub fn manifest(&self) -> &BTreeMap<String, String> {
        &self.manifest
    }

    /// All counter names, sorted.
    pub fn counter_names(&self) -> impl Iterator<Item = &str> {
        self.counters.keys().map(String::as_str)
    }

    /// All histogram names, sorted.
    pub fn histogram_names(&self) -> impl Iterator<Item = &str> {
        self.histograms.keys().map(String::as_str)
    }

    /// All series names, sorted.
    pub fn series_names(&self) -> impl Iterator<Item = &str> {
        self.series.keys().map(String::as_str)
    }

    /// Folds `other` into `self`: counters add, histograms concatenate,
    /// series points interleave by time (stable for disjoint shards),
    /// manifest entries from `other` win on key collision.
    pub fn merge(&mut self, other: &Telemetry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
        for (k, s) in &other.series {
            let dst = self.series.entry(k.clone()).or_default();
            for &(at, v) in s.points() {
                dst.record_unordered(at, v);
            }
        }
        for (k, v) in &other.manifest {
            self.manifest.insert(k.clone(), v.clone());
        }
    }

    /// [`Self::merge`] by move: consumes `other`, transferring its
    /// `String` keys and observation buffers instead of cloning and
    /// re-allocating them. Produces a bus identical to `merge` — the
    /// only difference is cost. This is the shard-merge hot path at
    /// campus cardinality, where tens of thousands of counter names
    /// would otherwise be re-allocated once per shard.
    pub fn merge_owned(&mut self, other: Telemetry) {
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, h) in other.histograms {
            match self.histograms.entry(k) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(h);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge_owned(h),
            }
        }
        for (k, s) in other.series {
            match self.series.entry(k) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    // A shard's own series is recorded in time order, so
                    // moving it wholesale equals replaying its points
                    // through `record_unordered` into an empty series.
                    e.insert(s);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let dst = e.get_mut();
                    for &(at, v) in s.points() {
                        dst.record_unordered(at, v);
                    }
                }
            }
        }
        for (k, v) in other.manifest {
            self.manifest.insert(k, v);
        }
    }

    /// Deterministic k-way merge of per-shard buses, consuming them.
    /// Shard order is input order, so the result is byte-identical to
    /// folding the shards into an empty bus with [`Self::merge`] —
    /// verified by the `merge_many_matches_sequential_merge` test —
    /// while the first shard seeds the accumulator for free and every
    /// key/buffer moves instead of cloning.
    pub fn merge_many(shards: Vec<Telemetry>) -> Telemetry {
        let mut shards = shards.into_iter();
        let Some(mut acc) = shards.next() else {
            return Telemetry::new();
        };
        for shard in shards {
            acc.merge_owned(shard);
        }
        acc
    }

    /// A plain-text report of every counter and histogram summary, for
    /// experiment binaries that print to stdout.
    pub fn render_report(&self) -> String {
        let mut out = String::new();
        if !self.manifest.is_empty() {
            out.push_str("run manifest:\n");
            for (k, v) in &self.manifest {
                out.push_str(&format!("  {k} = {v}\n"));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("  {k:<40} {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (k, h) in &self.histograms {
                out.push_str(&format!("  {k:<40} {}\n", h.summary()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn counters_accumulate() {
        let mut t = Telemetry::new();
        t.incr("alarms.raised", 1);
        t.incr("alarms.raised", 2);
        assert_eq!(t.counter("alarms.raised"), 3);
        assert_eq!(t.counter("never"), 0);
    }

    #[test]
    fn histogram_summary_and_merge() {
        let mut a = Histogram::default();
        for v in [1.0, 2.0, 3.0] {
            a.record(v);
        }
        let mut b = Histogram::default();
        b.record(4.0);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        let s = a.summary();
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
    }

    #[test]
    fn merge_combines_all_channels() {
        let mut a = Telemetry::new();
        a.incr("n", 1);
        a.observe("lat", 5.0);
        a.record("hr", SimTime::from_secs(1), 70.0);
        a.annotate("seed", "1");

        let mut b = Telemetry::new();
        b.incr("n", 2);
        b.observe("lat", 7.0);
        b.record("hr", SimTime::from_secs(2), 72.0);
        b.annotate("shards", "2");

        a.merge(&b);
        assert_eq!(a.counter("n"), 3);
        assert_eq!(a.histogram("lat").unwrap().count(), 2);
        assert_eq!(a.series("hr").unwrap().len(), 2);
        assert_eq!(a.manifest().get("shards").map(String::as_str), Some("2"));
    }

    #[test]
    fn merge_is_order_independent_for_disjoint_series() {
        // Two shards recording interleaved timestamps must merge to the
        // same series regardless of merge order.
        let mut s1 = Telemetry::new();
        s1.record("x", SimTime::from_secs(1), 1.0);
        s1.record("x", SimTime::from_secs(3), 3.0);
        let mut s2 = Telemetry::new();
        s2.record("x", SimTime::from_secs(2), 2.0);

        let mut ab = Telemetry::new();
        ab.merge(&s1);
        ab.merge(&s2);
        let mut ba = Telemetry::new();
        ba.merge(&s2);
        ba.merge(&s1);
        assert_eq!(ab, ba);
        assert_eq!(
            ab.series("x").unwrap().points(),
            &[
                (SimTime::from_secs(1), 1.0),
                (SimTime::from_secs(2), 2.0),
                (SimTime::from_secs(3), 3.0)
            ]
        );
    }

    #[test]
    fn merge_many_matches_sequential_merge() {
        // Build shards with overlapping and disjoint keys across every
        // channel, then check the owned k-way merge is byte-identical
        // (PartialEq and serialized JSON) to the clone-based fold.
        let mut shards = Vec::new();
        for i in 0..5u64 {
            let mut t = Telemetry::new();
            t.incr("events", i + 1);
            t.incr(&format!("shard.{i}.local"), 7);
            t.observe("lat", i as f64);
            t.observe(&format!("lat.{}", i % 2), i as f64 * 0.5);
            // Interleaved timestamps across shards, sorted within each.
            t.record("hr", SimTime::from_micros(i), 60.0 + i as f64);
            t.record("hr", SimTime::from_micros(i + 10), 70.0 + i as f64);
            t.annotate("seed", format!("{i}"));
            shards.push(t);
        }

        let mut folded = Telemetry::new();
        for s in &shards {
            folded.merge(s);
        }
        let kway = Telemetry::merge_many(shards);
        assert_eq!(kway, folded);
        assert_eq!(serde_json::to_string(&kway).unwrap(), serde_json::to_string(&folded).unwrap());
    }

    #[test]
    fn merge_many_of_empty_and_single() {
        assert_eq!(Telemetry::merge_many(Vec::new()), Telemetry::new());
        let mut t = Telemetry::new();
        t.incr("n", 3);
        assert_eq!(Telemetry::merge_many(vec![t.clone()]), t);
    }

    #[test]
    fn report_mentions_all_channels() {
        let mut t = Telemetry::new();
        t.annotate("scenario", "e1");
        t.incr("events", 10);
        t.observe("rtt_ms", 1.5);
        let report = t.render_report();
        assert!(report.contains("scenario = e1"));
        assert!(report.contains("events"));
        assert!(report.contains("rtt_ms"));
    }
}
