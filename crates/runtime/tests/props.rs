//! Property tests for the runtime's ordering and determinism
//! guarantees: FIFO delivery of same-instant events, monotone
//! simulation time, composable `run_until`, shard-parallel execution
//! matching serial execution exactly, and the invariants of the
//! telemetry statistics, time arithmetic and RNG streams.

use mcps_runtime::prelude::*;
use mcps_runtime::telemetry::{percentile, Welford};
use proptest::prelude::*;
use rand::Rng;

/// Records every delivery with its timestamp.
struct Recorder {
    log: Vec<(SimTime, u32)>,
}

impl Actor<u32> for Recorder {
    fn handle(&mut self, msg: u32, ctx: &mut Context<'_, u32>) {
        self.log.push((ctx.now(), msg));
    }
}

proptest! {
    /// Events scheduled at one instant are delivered in scheduling
    /// order, no matter how many share the instant.
    fn same_instant_delivery_is_fifo(
        payloads in proptest::collection::vec(any::<u32>(), 1..48),
        at_ms in 0u64..10_000,
    ) {
        let mut sim: Simulation<u32> = Simulation::new(0);
        let rec = sim.add_actor("rec", Recorder { log: Vec::new() });
        let at = SimTime::from_millis(at_ms);
        for &p in &payloads {
            sim.schedule(at, rec, p);
        }
        sim.run();
        let log = &sim.actor_as::<Recorder>(rec).unwrap().log;
        prop_assert_eq!(log.len(), payloads.len());
        for (i, &(t, p)) in log.iter().enumerate() {
            prop_assert_eq!(t, at);
            prop_assert_eq!(p, payloads[i], "delivery {i} out of FIFO order");
        }
    }

    /// Observed delivery times never decrease, and the overall order is
    /// the stable sort of the schedule by timestamp (ties keep
    /// scheduling order). Checked on a dense schedule (many ties) and a
    /// sparse one (mostly distinct instants).
    fn delivery_times_are_monotone(
        dense in proptest::collection::vec((0u64..50, any::<u32>()), 1..64),
        sparse in proptest::collection::vec((0u64..1000, any::<u32>()), 1..100),
    ) {
        for schedule in [dense, sparse] {
            let mut sim: Simulation<u32> = Simulation::new(1);
            let rec = sim.add_actor("rec", Recorder { log: Vec::new() });
            for &(at_ms, p) in &schedule {
                sim.schedule(SimTime::from_millis(at_ms), rec, p);
            }
            sim.run();
            let log = sim.actor_as::<Recorder>(rec).unwrap().log.clone();
            for pair in log.windows(2) {
                prop_assert!(pair[0].0 <= pair[1].0, "time went backwards: {pair:?}");
            }
            let mut expected: Vec<(SimTime, u32)> = schedule
                .iter()
                .map(|&(at_ms, p)| (SimTime::from_millis(at_ms), p))
                .collect();
            expected.sort_by_key(|&(t, _)| t); // stable: ties keep schedule order
            prop_assert_eq!(log, expected);
        }
    }

    /// Splitting a run at an arbitrary deadline does not change what
    /// is delivered.
    fn run_until_is_composable(
        events in proptest::collection::vec((0u64..1000, any::<u32>()), 1..60),
        split in 0u64..1000,
    ) {
        let build = || {
            let mut sim: Simulation<u32> = Simulation::new(0);
            let r = sim.add_actor("rec", Recorder { log: Vec::new() });
            for &(ms, tag) in &events {
                sim.schedule(SimTime::from_millis(ms), r, tag);
            }
            (sim, r)
        };
        let (mut whole, r1) = build();
        whole.run_until(SimTime::from_secs(2));
        let (mut split_sim, r2) = build();
        split_sim.run_until(SimTime::from_millis(split));
        split_sim.run_until(SimTime::from_secs(2));
        prop_assert_eq!(
            &whole.actor_as::<Recorder>(r1).unwrap().log,
            &split_sim.actor_as::<Recorder>(r2).unwrap().log
        );
        prop_assert_eq!(whole.now(), split_sim.now());
    }

    /// `run_shards` output is exactly the serial map, element for
    /// element, independent of worker interleaving.
    fn run_shards_matches_serial_map(
        items in proptest::collection::vec(any::<u64>(), 0..96),
    ) {
        fn mix(mut z: u64) -> u64 {
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let serial: Vec<u64> = items.iter().map(|&x| mix(x)).collect();
        let parallel = run_shards(items, mix);
        prop_assert_eq!(parallel, serial);
    }

    /// A same-instant cascade (handlers scheduling more work at `now`)
    /// still interleaves in strict FIFO order behind already-queued
    /// events of that instant.
    fn cascades_join_the_instant_in_seq_order(
        n_seed in 2u32..20,
    ) {
        struct Echo {
            rec: ActorId,
            log_target: u32,
        }
        impl Actor<u32> for Echo {
            fn handle(&mut self, msg: u32, ctx: &mut Context<'_, u32>) {
                // Forward to the recorder at the same instant.
                ctx.send(self.rec, msg + self.log_target);
            }
        }
        let mut sim: Simulation<u32> = Simulation::new(2);
        let rec = sim.add_actor("rec", Recorder { log: Vec::new() });
        let fwd = sim.add_actor("fwd", Echo { rec, log_target: 1000 });
        let at = SimTime::from_secs(1);
        // Interleave direct sends and forwarded sends. Direct payload i
        // arrives as i; forwarded arrives as i + 1000, but only after
        // every directly-scheduled event of the instant (its relay hop
        // re-enqueues it at the back of the batch).
        for i in 0..n_seed {
            if i % 2 == 0 {
                sim.schedule(at, rec, i);
            } else {
                sim.schedule(at, fwd, i);
            }
        }
        sim.run();
        let log: Vec<u32> =
            sim.actor_as::<Recorder>(rec).unwrap().log.iter().map(|&(_, p)| p).collect();
        let mut expected: Vec<u32> = (0..n_seed).filter(|i| i % 2 == 0).collect();
        expected.extend((0..n_seed).filter(|i| i % 2 == 1).map(|i| i + 1000));
        prop_assert_eq!(log, expected);
    }

    /// Percentiles are monotone in p and bracketed by min/max.
    fn percentile_monotone(
        mut xs in proptest::collection::vec(-1e6f64..1e6, 1..200),
        p1 in 0.0f64..100.0,
        p2 in 0.0f64..100.0,
    ) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = percentile(&xs, lo);
        let b = percentile(&xs, hi);
        prop_assert!(a <= b + 1e-9);
        xs.sort_by(f64::total_cmp);
        prop_assert!(a >= xs[0] - 1e-9 && b <= xs[xs.len() - 1] + 1e-9);
    }

    /// Summary invariants hold for arbitrary samples.
    fn summary_invariants(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let s = Summary::from_values(&xs);
        prop_assert_eq!(s.n, xs.len());
        prop_assert!(s.min <= s.median && s.median <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
        prop_assert!(s.std_dev >= 0.0);
    }

    /// Welford merge equals single-pass accumulation.
    fn welford_merge_is_associative(
        xs in proptest::collection::vec(-1e3f64..1e3, 0..100),
        ys in proptest::collection::vec(-1e3f64..1e3, 0..100),
    ) {
        let mut a = Welford::new();
        xs.iter().for_each(|&x| a.push(x));
        let mut b = Welford::new();
        ys.iter().for_each(|&y| b.push(y));
        a.merge(&b);
        let mut all = Welford::new();
        xs.iter().chain(&ys).for_each(|&x| all.push(x));
        prop_assert_eq!(a.count(), all.count());
        prop_assert!((a.mean() - all.mean()).abs() < 1e-6);
        prop_assert!((a.variance() - all.variance()).abs() < 1e-3);
    }

    /// Time arithmetic round-trips.
    fn time_arithmetic_roundtrips(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let time = SimTime::from_micros(t);
        let dur = SimDuration::from_micros(d);
        prop_assert_eq!((time + dur) - dur, time);
        prop_assert_eq!((time + dur) - time, dur);
        prop_assert_eq!(time.saturating_add(dur).saturating_since(time), dur);
    }

    /// RNG streams: label-determined, order-independent.
    fn rng_streams_are_stable(seed in any::<u64>(), label in "[a-z]{1,12}") {
        let f = RngFactory::new(seed);
        let mut a = f.stream(&label);
        let mut b = f.stream(&label);
        prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }
}
