//! Deterministic shard-parallel execution.
//!
//! [`run_shards`] fans a list of independent work items (shards) out
//! across OS threads and returns results **in input order**, so the
//! merged output of a parallel run is byte-identical to running the
//! shards serially. The rules that make this sound:
//!
//! 1. **Seed isolation** — each shard must derive all randomness from
//!    its own item (typically a per-shard seed); shards must not share
//!    mutable state or global RNGs.
//! 2. **No wall-clock or thread-identity inputs** — shard output must
//!    be a pure function of the item.
//! 3. **Order-indexed results** — results are written into a slot per
//!    input index; completion order never affects output order.
//!
//! Under those rules, `run_shards(items, f)` is observationally
//! equivalent to `items.into_iter().map(f).collect()` — verified by
//! property tests at the workspace level — while using one thread per
//! core. [`run_shards_costed_in`] is the engine underneath: it adds
//! per-worker reusable state (scratch buffers that survive across the
//! shard runs of one worker), cost-ordered dispatch and wall-clock
//! accounting under the same contract. Telemetry from shards should be
//! collected per-shard and folded with
//! [`Telemetry::merge`](crate::telemetry::Telemetry::merge)
//! after the join, which keeps the merged bus deterministic too.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Wall-clock accounting for one [`run_shards_costed_in`] call: how
/// long each shard ran and how busy each worker was. Balance is the
/// figure campus benchmarks report — a run where one worker carries a
/// 100× ward while the rest idle shows up as `balance() ≪ 1`.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct ShardStats {
    /// Worker threads actually used (1 = serial fallback).
    pub workers: usize,
    /// Per-shard wall-clock seconds, in input order.
    pub shard_secs: Vec<f64>,
    /// Per-worker busy seconds (sum of its shards), sorted descending
    /// so the report is independent of thread scheduling order.
    pub worker_secs: Vec<f64>,
}

impl ShardStats {
    /// Mean worker busy time divided by the busiest worker's time, in
    /// `(0, 1]`. `1.0` means perfectly level; `1/workers` means one
    /// worker did everything while the others idled.
    pub fn balance(&self) -> f64 {
        let max = self.worker_secs.first().copied().unwrap_or(0.0);
        if max <= 0.0 || self.worker_secs.is_empty() {
            return 1.0;
        }
        let mean: f64 = self.worker_secs.iter().sum::<f64>() / self.worker_secs.len() as f64;
        mean / max
    }

    /// Total busy seconds across all workers.
    pub fn busy_secs(&self) -> f64 {
        self.worker_secs.iter().sum()
    }
}

/// Maps `f` over `items` using up to one worker thread per core,
/// returning results in input order.
///
/// Work is pulled from a shared index counter, so long shards don't
/// serialize behind short ones regardless of their position in the
/// input. With all costs equal, [`run_shards_costed_in`] dispatches in
/// input order. Falls back to a plain serial map when there is one item
/// or one core.
///
/// # Panics
///
/// Propagates a panic from `f` after all workers finish.
pub fn run_shards<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let costs = vec![0; items.len()];
    run_shards_costed_in(items, &costs, workers, || (), |(), item| f(item)).0
}

/// Maps `f` over `items` on `workers` threads with per-worker reusable
/// state, sorted-by-cost dispatch and wall-clock accounting, returning
/// results in input order.
///
/// `init` runs once on each worker thread and the resulting value is
/// threaded through every shard that worker executes: use it to reuse
/// expensive buffers (scratch vectors, arena allocations) across the
/// shard runs of one worker without sharing them between workers. The
/// state may only carry *capacity*, never values that leak from one
/// shard into the next — `f` must produce output that is a pure
/// function of the item.
///
/// `costs[i]` is a relative cost estimate for `items[i]` (any monotone
/// proxy works — bed count, scheduled events, simulated hours);
/// expensive shards are handed out **first** so a single 100× ward
/// among cheap ones starts immediately instead of landing on a worker
/// that already has a full queue behind it (greedy LPT scheduling via
/// the shared cursor). Results are still byte-identical to the serial
/// map — dispatch order is invisible to the output by the shard
/// contract.
///
/// `workers` is clamped to `[1, items.len()]`; `1` takes the serial
/// path. Tests pass an explicit count above 1 to exercise the parallel
/// path on single-core hosts.
///
/// # Panics
///
/// Panics if `costs.len() != items.len()`; propagates a panic from
/// `init` or `f` after all workers finish.
pub fn run_shards_costed_in<T, R, S, I, F>(
    items: Vec<T>,
    costs: &[u64],
    workers: usize,
    init: I,
    f: F,
) -> (Vec<R>, ShardStats)
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    assert_eq!(costs.len(), items.len(), "one cost per shard");
    let n = items.len();
    let workers = workers.clamp(1, n.max(1));

    if workers <= 1 {
        let mut state = init();
        let mut shard_secs = Vec::with_capacity(n);
        let results = items
            .into_iter()
            .map(|item| {
                let t0 = Instant::now();
                let r = f(&mut state, item);
                shard_secs.push(t0.elapsed().as_secs_f64());
                r
            })
            .collect();
        let busy = shard_secs.iter().sum();
        return (results, ShardStats { workers: 1, shard_secs, worker_secs: vec![busy] });
    }

    // Dispatch order: descending cost, ties by ascending input index so
    // the order (and thus the timing profile) is reproducible.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(costs[i]), i));

    let work: Vec<Mutex<Option<T>>> =
        items.into_iter().map(|item| Mutex::new(Some(item))).collect();
    let slots: Vec<Mutex<Option<(R, f64)>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let busy: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(workers));

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut state = init();
                let mut my_busy = 0.0f64;
                loop {
                    let k = cursor.fetch_add(1, Ordering::Relaxed);
                    if k >= n {
                        break;
                    }
                    let idx = order[k];
                    let item = work[idx]
                        .lock()
                        .expect("work slot poisoned")
                        .take()
                        .expect("work item taken twice");
                    let t0 = Instant::now();
                    let result = f(&mut state, item);
                    let secs = t0.elapsed().as_secs_f64();
                    my_busy += secs;
                    *slots[idx].lock().expect("result slot poisoned") = Some((result, secs));
                }
                busy.lock().expect("busy list poisoned").push(my_busy);
            });
        }
    });

    let mut shard_secs = Vec::with_capacity(n);
    let results = slots
        .into_iter()
        .map(|slot| {
            let (r, secs) = slot
                .into_inner()
                .expect("result slot poisoned")
                .expect("worker exited without producing a result");
            shard_secs.push(secs);
            r
        })
        .collect();
    let mut worker_secs = busy.into_inner().expect("busy list poisoned");
    worker_secs.sort_by(|a, b| b.partial_cmp(a).expect("busy times are finite"));
    (results, ShardStats { workers, shard_secs, worker_secs })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let out = run_shards((0..64u64).collect(), |i| i * 2);
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(run_shards(empty, |x: u32| x).is_empty());
        assert_eq!(run_shards(vec![7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn matches_serial_map() {
        // The determinism contract: parallel output equals serial map.
        let items: Vec<u64> = (0..40).collect();
        let serial: Vec<u64> = items.iter().map(|&s| splitmix(s)).collect();
        let parallel = run_shards(items, splitmix);
        assert_eq!(serial, parallel);
    }

    fn splitmix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E3779B97F4A7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
        x ^ (x >> 31)
    }

    #[test]
    fn with_state_reuses_buffers_per_worker() {
        // Each worker's scratch buffer is reused across its shard runs:
        // results must still equal the serial map, and the buffer must
        // actually be used (capacity grows once, contents reset).
        let items: Vec<u64> = (0..32).collect();
        let serial: Vec<u64> = items.iter().map(|&s| splitmix(s)).collect();
        let costs = vec![0; items.len()];
        let (parallel, _) = run_shards_costed_in(items, &costs, 4, Vec::<u64>::new, |buf, item| {
            buf.clear();
            buf.extend((0..8).map(|k| splitmix(item ^ k)));
            splitmix(item)
        });
        assert_eq!(serial, parallel);
    }

    #[test]
    fn with_state_serial_fallback_threads_state() {
        // One item -> serial path; state must still be initialized and
        // passed through.
        let (out, _) = run_shards_costed_in(vec![5u32], &[0], 4, || 10u32, |s, x| x + *s);
        assert_eq!(out, vec![15]);
    }

    #[test]
    fn costed_one_heavy_shard_among_cheap_matches_serial() {
        // The pathological balance case from the campus workload: one
        // 100× shard among 63 cheap ones. Parallel output (explicit
        // 4-worker override, so this exercises the parallel path even
        // on a single-core host) must be byte-identical to the serial
        // map, and the heavy shard must be dispatched first.
        let items: Vec<u64> = (0..64).collect();
        let costs: Vec<u64> = items.iter().map(|&i| if i == 37 { 100 } else { 1 }).collect();
        let serial: Vec<u64> = items
            .iter()
            .map(|&s| {
                let spins = if s == 37 { 100 } else { 1 };
                (0..spins).fold(s, |acc, k| splitmix(acc ^ k))
            })
            .collect();
        let (parallel, stats) = run_shards_costed_in(
            items,
            &costs,
            4,
            || (),
            |(), s: u64| {
                let spins = if s == 37 { 100 } else { 1 };
                (0..spins).fold(s, |acc, k| splitmix(acc ^ k))
            },
        );
        assert_eq!(serial, parallel);
        assert_eq!(stats.workers, 4);
        assert_eq!(stats.shard_secs.len(), 64);
        assert_eq!(stats.worker_secs.len(), 4);
        assert!(stats.balance() > 0.0 && stats.balance() <= 1.0);
    }

    #[test]
    fn costed_serial_fallback_and_stats() {
        let items: Vec<u64> = (0..8).collect();
        let costs = vec![1u64; 8];
        let (out, stats) = run_shards_costed_in(
            items,
            &costs,
            1,
            || 0u64,
            |s, x| {
                *s += 1; // scratch carries a counter; output ignores it
                splitmix(x)
            },
        );
        assert_eq!(out, (0..8).map(splitmix).collect::<Vec<_>>());
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.worker_secs.len(), 1);
        assert!((stats.busy_secs() - stats.worker_secs[0]).abs() < 1e-12);
        assert!((stats.balance() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one cost per shard")]
    fn costed_rejects_mismatched_costs() {
        let _ = run_shards_costed_in(vec![1u64, 2], &[1u64], 2, || (), |(), x: u64| x);
    }

    #[test]
    fn balance_of_idle_workers() {
        let stats = ShardStats { workers: 2, shard_secs: vec![], worker_secs: vec![0.0, 0.0] };
        assert!((stats.balance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uneven_work_still_ordered() {
        // Early items take longest; a naive chunking or completion-order
        // collect would misorder these.
        let out = run_shards((0..16u64).collect(), |i| {
            std::thread::sleep(std::time::Duration::from_millis(16 - i));
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }
}
