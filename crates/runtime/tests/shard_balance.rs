//! Determinism and scratch-isolation properties of the costed shard
//! runner under unbalanced workloads.
//!
//! `run_shards_costed_in` hands expensive shards out first and lets a
//! shared cursor level the rest — but none of that may be observable in
//! the output. These tests drive the parallel path with an explicit
//! worker override (the CI host may have a single core, where the
//! default would take the serial fallback) and check two things:
//!
//! 1. **Byte-identical to serial** — for random items, random cost
//!    estimates (including deliberately wrong ones), and random worker
//!    counts, parallel output equals the serial map.
//! 2. **Scratch never leaks across shards** — per-worker scratch is
//!    reused between the shards of one worker, but each scratch value
//!    is only ever inside one `f` call at a time, and output stays a
//!    pure function of the item even when every shard deliberately
//!    leaves item-dependent garbage behind for the next shard to see.

use mcps_runtime::shard::run_shards_costed_in;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// The shard body: a pure function of `item` that also uses (and
/// dirties) a scratch buffer. It must produce the same answer no matter
/// what a previous shard left in the buffer.
fn shard_fn(buf: &mut Vec<u64>, item: u64) -> u64 {
    // Correct use: clear before reading. If the runner ever handed the
    // same buffer to two shards concurrently, the clear/extend below
    // would race and corrupt the fold.
    buf.clear();
    buf.extend((0..16).map(|k| splitmix(item.wrapping_add(k))));
    let out = buf.iter().fold(item, |acc, &v| acc ^ v.rotate_left(7));
    // Deliberately leave item-dependent garbage for the next shard.
    buf.push(item);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Parallel output is byte-identical to the serial map for any
    /// items, any cost vector (costs are a dispatch hint, not a
    /// correctness input), and any worker count.
    fn costed_parallel_matches_serial(
        items in proptest::collection::vec(any::<u64>(), 1..80),
        cost_seed in any::<u64>(),
        heavy_at in any::<u64>(),
        workers in 1usize..9,
    ) {
        // Random costs with one shard marked 100× — wrong on purpose
        // half the time, since estimates mislead in practice.
        let heavy = (heavy_at % items.len() as u64) as usize;
        let costs: Vec<u64> = (0..items.len())
            .map(|i| if i == heavy { 100 } else { splitmix(cost_seed ^ i as u64) % 4 + 1 })
            .collect();

        let serial: Vec<u64> = {
            let mut buf = Vec::new();
            items.iter().map(|&it| shard_fn(&mut buf, it)).collect()
        };
        let (parallel, stats) =
            run_shards_costed_in(items.clone(), &costs, workers, Vec::new, shard_fn);
        prop_assert_eq!(&serial, &parallel);
        prop_assert_eq!(stats.shard_secs.len(), items.len());
        prop_assert!(stats.balance() > 0.0 && stats.balance() <= 1.0);
        prop_assert_eq!(stats.worker_secs.len(), stats.workers);
    }

    /// Scratch integrity: each worker's scratch carries a token issued
    /// at `init` and a per-scratch run counter. Across the whole run,
    /// every (token, counter) pair must be unique — i.e. no scratch
    /// value was ever inside two `f` calls at once or reused without
    /// passing back through its owning worker — and the counters of
    /// each token must form a contiguous 0..k range (each scratch runs
    /// its shards strictly one after another).
    fn scratch_never_leaks_across_shards(
        n in 1usize..100,
        workers in 2usize..9,
    ) {
        let token_source = AtomicUsize::new(0);
        let items: Vec<u64> = (0..n as u64).collect();
        let costs: Vec<u64> = items.iter().map(|&i| i % 7 + 1).collect();
        let (out, _) = run_shards_costed_in(
            items,
            &costs,
            workers,
            || (token_source.fetch_add(1, Ordering::SeqCst), 0usize),
            |(token, counter), item| {
                let seen = (*token, *counter);
                *counter += 1;
                (item, seen)
            },
        );
        // Output order is input order regardless of dispatch order.
        for (i, &(item, _)) in out.iter().enumerate() {
            prop_assert_eq!(item, i as u64);
        }
        // (token, counter) pairs are globally unique, and per token the
        // counters are exactly 0..k.
        let mut pairs: Vec<(usize, usize)> = out.iter().map(|&(_, seen)| seen).collect();
        pairs.sort_unstable();
        let mut dedup = pairs.clone();
        dedup.dedup();
        prop_assert_eq!(&pairs, &dedup, "a scratch value served two shards at once");
        let tokens = token_source.load(Ordering::SeqCst);
        for t in 0..tokens {
            let mut counters: Vec<usize> =
                pairs.iter().filter(|&&(tok, _)| tok == t).map(|&(_, c)| c).collect();
            counters.sort_unstable();
            prop_assert_eq!(
                counters.clone(),
                (0..counters.len()).collect::<Vec<_>>(),
                "scratch runs of one worker must be contiguous"
            );
        }
    }

    /// With equal costs (the `run_shards` dispatch) the runner obeys
    /// the same purity contract, including on empty input.
    fn equal_costs_match_serial(
        items in proptest::collection::vec(any::<u64>(), 0..60),
    ) {
        let serial: Vec<u64> = {
            let mut buf = Vec::new();
            items.iter().map(|&it| shard_fn(&mut buf, it)).collect()
        };
        let costs = vec![0; items.len()];
        let (parallel, _) = run_shards_costed_in(items, &costs, 4, Vec::new, shard_fn);
        prop_assert_eq!(serial, parallel);
    }
}
