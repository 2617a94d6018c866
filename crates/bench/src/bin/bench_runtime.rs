//! Machine-readable runtime scheduler baseline (E11).
//!
//! Benchmarks the timer-wheel scheduler against the retained
//! binary-heap reference engine and writes `BENCH_runtime.json`:
//!
//! 1. **Engine throughput** — both engines run identical deterministic
//!    workloads at the scheduler API level (schedule and
//!    `drain_instant`, the kernel's instant-batch drain; no actors);
//!    the figure is events delivered per wall second, from the median
//!    of [`REPS`] repetitions that alternate which engine runs first
//!    (one repetition with `--quick`). Workloads:
//!    `pure_periodic` (sparse periodic timers, the fabric's steady
//!    state), `mixed_horizon` (events filed across every wheel level
//!    plus the beyond-horizon overflow), `cancel_heavy` (schedule-many
//!    -far / fire-few churn — the repo has no cancel API, so the
//!    costly half of a cancel-heavy load, parking events that are not
//!    due for hours, is what this models) and `same_instant_burst`
//!    (whole instants drained through the ready ring). Every workload
//!    hashes its delivery sequence `(at, target, msg)` and the run
//!    aborts if the two engines disagree — a conformance check on every
//!    bench.
//! 2. **Kernel batched dispatch** — the full `Simulation` running the
//!    same burst workload as the `runtime/batched_dispatch/1024`
//!    criterion bench (500 instants × 1024 same-instant messages), so
//!    the committed events/s figure (median of 15 runs, 3 with
//!    `--quick`) is directly comparable.
//! 3. **E1 cohort wall clock** — the PCA-interlock cohort (patients ×
//!    hours × 4 arms) end to end, through the same
//!    [`mcps_bench::e1::run_arms`] the `e1_pca_interlock` binary
//!    calls: the scheduler win as seen by a real experiment, not a
//!    microbench.
//! 4. **Steady-state allocation audit** — a counting global allocator
//!    proves a warmed-then-reset scheduler replays an identical
//!    mixed workload with **zero** heap allocations (slot buckets,
//!    ready ring and overflow list all retain capacity).
//!
//! Usage: `bench_runtime [--out PATH] [--events N] [--quick] [--max-ms MS]`

use mcps_bench::{e1, Args};
use mcps_runtime::prelude::*;
use mcps_runtime::scheduler::{reference::ReferenceScheduler, Scheduler};
use mcps_runtime::telemetry::percentile;
use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Passes every request to the system allocator, counting allocations
/// (not frees) so steady-state code paths can assert they make none.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[derive(Serialize)]
struct Report {
    engines: Vec<WorkloadReport>,
    sim_batched: SimBatchedReport,
    e1_cohort: E1CohortReport,
    allocs: AllocReport,
    elapsed_ms: f64,
    quick: bool,
}

#[derive(Serialize)]
struct WorkloadReport {
    name: &'static str,
    reps: u64,
    events: u64,
    wheel_ms: f64,
    heap_ms: f64,
    wheel_events_per_sec: f64,
    heap_events_per_sec: f64,
    speedup: f64,
    conformance_hash: String,
}

#[derive(Serialize)]
struct SimBatchedReport {
    rounds: u64,
    per_round: u64,
    iters: u64,
    median_ms: f64,
    events_per_sec: f64,
}

#[derive(Serialize)]
struct E1CohortReport {
    patients: u64,
    hours: f64,
    arms: u64,
    wall_ms: f64,
    severe_events: u64,
}

#[derive(Serialize)]
struct AllocReport {
    warm_pass_allocs: u64,
    steady_pass_allocs: u64,
}

// ---------------------------------------------------------------------------
// Engine abstraction: the wheel and the heap behind one trait.

trait Engine {
    fn schedule(&mut self, at: SimTime, target: ActorId, msg: u64);
    fn now(&self) -> SimTime;
    fn drain(&mut self, until: Option<SimTime>, batch: &mut VecDeque<(ActorId, u64)>) -> bool;
}

impl Engine for Scheduler<u64> {
    fn schedule(&mut self, at: SimTime, target: ActorId, msg: u64) {
        self.schedule_at(at, target, msg);
    }
    fn now(&self) -> SimTime {
        Scheduler::now(self)
    }
    fn drain(&mut self, until: Option<SimTime>, batch: &mut VecDeque<(ActorId, u64)>) -> bool {
        self.drain_instant(until, batch)
    }
}

impl Engine for ReferenceScheduler<u64> {
    fn schedule(&mut self, at: SimTime, target: ActorId, msg: u64) {
        self.schedule_at(at, target, msg);
    }
    fn now(&self) -> SimTime {
        ReferenceScheduler::now(self)
    }
    fn drain(&mut self, until: Option<SimTime>, batch: &mut VecDeque<(ActorId, u64)>) -> bool {
        self.drain_instant(until, batch)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

fn hash_pop(h: u64, at: SimTime, target: ActorId, msg: u64) -> u64 {
    fnv(fnv(fnv(h, at.as_micros()), u64::from(target.index())), msg)
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Drains every instant due by `until` through `batch` (reused across
/// calls, as the kernel reuses its own), folding each delivery into
/// `popped` and the hash `h`.
fn drain_hash<E: Engine + ?Sized>(
    e: &mut E,
    until: Option<SimTime>,
    batch: &mut VecDeque<(ActorId, u64)>,
    popped: &mut u64,
    h: &mut u64,
) {
    while e.drain(until, batch) {
        let at = e.now();
        for (target, msg) in batch.drain(..) {
            *h = hash_pop(*h, at, target, msg);
            *popped += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Workloads. Each is deterministic in `n`, returns (events, delivery hash).

/// 64 staggered periodic timers re-arming on every fire — the sparse
/// steady state of the device fabric.
fn pure_periodic<E: Engine + ?Sized>(e: &mut E, n: u64) -> (u64, u64) {
    const ACTORS: u64 = 64;
    for i in 0..ACTORS {
        e.schedule(SimTime::from_micros(1_000 + i * 13), ActorId::from_index(i as u32), i);
    }
    let mut scheduled = ACTORS;
    let mut popped = 0u64;
    let mut h = FNV_OFFSET;
    let mut batch = VecDeque::new();
    while e.drain(None, &mut batch) {
        let at = e.now();
        for (target, msg) in batch.drain(..) {
            h = hash_pop(h, at, target, msg);
            popped += 1;
            if scheduled < n {
                scheduled += 1;
                // Per-timer period in the 1–2 ms band, co-prime-ish so
                // the timers drift through each other instead of
                // phase-locking.
                let period = 977 + (msg % ACTORS) * 13;
                e.schedule(SimTime::from_micros(at.as_micros() + period), target, msg);
            }
        }
    }
    (popped, h)
}

/// Events filed upfront across every wheel level — horizons from ~1 ms
/// to beyond the 2^42 µs wheel horizon — then drained in full.
fn mixed_horizon<E: Engine + ?Sized>(e: &mut E, n: u64) -> (u64, u64) {
    for k in 0..n {
        let r = splitmix(k ^ 0x00c0_ffee);
        let shift = 10 + (k % 34) as u32; // 2^10 .. 2^43 µs spans all levels
        let at = 1 + (r & ((1u64 << shift) - 1));
        e.schedule(SimTime::from_micros(at), ActorId::from_index((r % 48) as u32), k);
    }
    let mut popped = 0u64;
    let mut h = FNV_OFFSET;
    drain_hash(e, None, &mut VecDeque::new(), &mut popped, &mut h);
    (popped, h)
}

/// Schedule-many-far / fire-few churn: every round parks 16 events
/// hours out and fires one near timer, so almost everything scheduled
/// is cold inventory — the load shape of cancel-heavy systems (minus
/// the cancels; the queue is drained at the end instead).
fn cancel_heavy<E: Engine + ?Sized>(e: &mut E, rounds: u64) -> (u64, u64) {
    let mut popped = 0u64;
    let mut h = FNV_OFFSET;
    let mut now_ms = 0u64;
    let mut batch = VecDeque::new();
    for r in 0..rounds {
        let base_us = now_ms * 1_000;
        for k in 0..16u64 {
            let jitter = splitmix(r * 16 + k) % 7_200_000_000; // up to +2 h
            let far = SimTime::from_micros(base_us + 3_600_000_000 + jitter);
            e.schedule(far, ActorId::from_index((k % 8) as u32), (r << 8) | k);
        }
        now_ms += 1;
        e.schedule(SimTime::from_millis(now_ms), ActorId::from_index(63), r);
        drain_hash(e, Some(SimTime::from_millis(now_ms)), &mut batch, &mut popped, &mut h);
    }
    drain_hash(e, None, &mut batch, &mut popped, &mut h);
    (popped, h)
}

/// Whole instants of co-timed events, drained through the ready ring.
fn same_instant_burst<E: Engine + ?Sized>(e: &mut E, instants: u64) -> (u64, u64) {
    const BURST: u64 = 512;
    let mut popped = 0u64;
    let mut h = FNV_OFFSET;
    let mut batch = VecDeque::new();
    for inst in 0..instants {
        let t = SimTime::from_millis(inst + 1);
        for k in 0..BURST {
            e.schedule(t, ActorId::from_index((k % 32) as u32), inst * BURST + k);
        }
        drain_hash(e, Some(t), &mut batch, &mut popped, &mut h);
    }
    (popped, h)
}

/// Engine repetitions per workload in full mode.
const REPS: u64 = 7;

/// Times `work` on both engines (median of `reps`, alternating which
/// engine runs first so neither always inherits the other's cache and
/// frequency state), asserting the delivery sequences hash identically
/// — the heap is the conformance oracle.
fn compare_engines<W>(name: &'static str, reps: u64, work: W) -> WorkloadReport
where
    W: Fn(&mut dyn Engine) -> (u64, u64),
{
    let mut wheel_runs = Vec::new();
    let mut heap_runs = Vec::new();
    let mut wheel_out = (0, 0);
    let mut heap_out = (0, 0);
    for rep in 0..reps {
        for wheel in [rep % 2 == 0, rep % 2 == 1] {
            if wheel {
                let mut w: Scheduler<u64> = Scheduler::new();
                let t0 = Instant::now();
                wheel_out = work(&mut w);
                wheel_runs.push(t0.elapsed().as_secs_f64() * 1e3);
            } else {
                let mut r: ReferenceScheduler<u64> = ReferenceScheduler::new();
                let t0 = Instant::now();
                heap_out = work(&mut r);
                heap_runs.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    let (wheel_ms, heap_ms) = (percentile(&wheel_runs, 50.0), percentile(&heap_runs, 50.0));
    assert_eq!(
        wheel_out, heap_out,
        "{name}: wheel and heap delivery sequences diverged — conformance failure"
    );
    let (events, hash) = wheel_out;
    let report = WorkloadReport {
        name,
        reps,
        events,
        wheel_ms,
        heap_ms,
        wheel_events_per_sec: events as f64 / (wheel_ms / 1e3),
        heap_events_per_sec: events as f64 / (heap_ms / 1e3),
        speedup: heap_ms / wheel_ms,
        conformance_hash: format!("{hash:016x}"),
    };
    println!(
        "{name:>18}: {events:>9} events | wheel {:>8.2} ms ({:>5.1} M/s) | heap {:>8.2} ms \
         ({:>5.1} M/s) | {:>4.2}x",
        report.wheel_ms,
        report.wheel_events_per_sec / 1e6,
        report.heap_ms,
        report.heap_events_per_sec / 1e6,
        report.speedup,
    );
    report
}

// ---------------------------------------------------------------------------
// Kernel batched dispatch: the criterion `runtime/batched_dispatch`
// workload, full Simulation.

#[derive(Clone)]
enum Fan {
    Tick,
    Data,
}

struct Burst {
    sink: ActorId,
    per_round: u64,
    rounds: u64,
}

impl Actor<Fan> for Burst {
    fn handle(&mut self, msg: Fan, ctx: &mut Context<'_, Fan>) {
        if matches!(msg, Fan::Tick) && self.rounds > 0 {
            self.rounds -= 1;
            ctx.send_many(self.sink, (0..self.per_round).map(|_| Fan::Data));
            ctx.schedule_self(SimDuration::from_millis(1), Fan::Tick);
        }
    }
}

struct Sink {
    received: u64,
}

impl Actor<Fan> for Sink {
    fn handle(&mut self, msg: Fan, _ctx: &mut Context<'_, Fan>) {
        if matches!(msg, Fan::Data) {
            self.received += 1;
        }
    }
}

fn sim_batched(iters: u64) -> SimBatchedReport {
    const ROUNDS: u64 = 500;
    const PER_ROUND: u64 = 1024;
    let mut runs = Vec::new();
    for _ in 0..iters {
        let t0 = Instant::now();
        let mut sim: Simulation<Fan> = Simulation::new(0);
        sim.trace_mut().set_enabled(false);
        let sink = sim.add_actor("sink", Sink { received: 0 });
        let burst = sim.add_actor("burst", Burst { sink, per_round: PER_ROUND, rounds: ROUNDS });
        sim.schedule(SimTime::ZERO, burst, Fan::Tick);
        sim.run();
        runs.push(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(sim.actor_as::<Sink>(sink).unwrap().received, ROUNDS * PER_ROUND);
    }
    let median_ms = percentile(&runs, 50.0);
    let report = SimBatchedReport {
        rounds: ROUNDS,
        per_round: PER_ROUND,
        iters,
        median_ms,
        events_per_sec: (ROUNDS * PER_ROUND) as f64 / (median_ms / 1e3),
    };
    println!(
        "  sim_batched_1024: {:>9} events | median {:>8.3} ms | {:>5.1} M events/s",
        ROUNDS * PER_ROUND,
        report.median_ms,
        report.events_per_sec / 1e6,
    );
    report
}

// ---------------------------------------------------------------------------
// E1 cohort wall clock: the interlock-efficacy experiment end to end.

fn e1_cohort(patients: u64, hours: f64) -> E1CohortReport {
    let t0 = Instant::now();
    let arms = e1::run_arms(patients, hours, e1::PROXY_PER_HOUR, e1::SEED);
    let severe: u64 = arms.iter().map(|a| a.counter("severe_events")).sum();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "         e1_cohort: {patients} patients x {hours} h x 4 arms | {wall_ms:.0} ms \
         ({severe} severe events)"
    );
    E1CohortReport { patients, hours, arms: 4, wall_ms, severe_events: severe }
}

// ---------------------------------------------------------------------------
// Steady-state allocation audit.

/// One deterministic mixed pass over a scheduler: files across levels
/// and the overflow list, drains instants through the ring into
/// `batch`.
fn alloc_pass(s: &mut Scheduler<u64>, batch: &mut VecDeque<(ActorId, u64)>) -> u64 {
    const N: u64 = 20_000;
    for k in 0..N {
        let r = splitmix(k ^ 0x5eed);
        let shift = 10 + (k % 34) as u32;
        let at = 1 + (r & ((1u64 << shift) - 1));
        s.schedule_at(SimTime::from_micros(at), ActorId::from_index((r % 16) as u32), k);
    }
    let mut popped = 0u64;
    while s.drain_instant(None, batch) {
        popped += batch.len() as u64;
        batch.clear();
    }
    popped
}

fn steady_state_allocs() -> AllocReport {
    let mut s: Scheduler<u64> = Scheduler::new();
    let mut batch = VecDeque::new();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let warm_popped = alloc_pass(&mut s, &mut batch);
    let warm = ALLOCATIONS.load(Ordering::Relaxed) - before;

    s.reset(); // keeps every buffer's capacity
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let steady_popped = alloc_pass(&mut s, &mut batch);
    let steady = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(warm_popped, steady_popped, "reset changed the replayed workload");
    assert_eq!(
        steady, 0,
        "steady-state scheduler pass allocated {steady} times — buffer reuse regressed"
    );
    println!("      alloc audit: warm pass {warm} allocations, steady pass {steady} (must be 0)");
    AllocReport { warm_pass_allocs: warm, steady_pass_allocs: steady }
}

fn main() {
    let args = Args::parse();
    let quick = args.has_flag("quick");
    let out_path = args.get_str("out", "BENCH_runtime.json");
    let max_ms = args.get_f64("max-ms", f64::INFINITY);
    let scale = args.get_u64("events", if quick { 100_000 } else { 2_000_000 });
    let reps = if quick { 1 } else { REPS };

    let start = Instant::now();

    // Single-threaded audit first, before any worker pool exists.
    let allocs = steady_state_allocs();

    let engines = vec![
        compare_engines("pure_periodic", reps, |e| pure_periodic(e, scale)),
        compare_engines("mixed_horizon", reps, |e| mixed_horizon(e, scale / 2)),
        compare_engines("cancel_heavy", reps, |e| cancel_heavy(e, scale / 40)),
        compare_engines("same_instant_burst", reps, |e| same_instant_burst(e, scale / 1_000)),
    ];
    let sim = sim_batched(if quick { 3 } else { 15 });
    let e1 = if quick { e1_cohort(3, 1.0) } else { e1_cohort(12, 1.0) };

    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    let report = Report { engines, sim_batched: sim, e1_cohort: e1, allocs, elapsed_ms, quick };
    mcps_bench::write_report(&report, &out_path);
    mcps_bench::smoke_budget("runtime_scheduler", elapsed_ms, max_ms);
}
