//! Lockstep conformance: the timer-wheel scheduler against the
//! binary-heap reference engine, both driven through `drain_instant`,
//! the instant-batch drain the kernel delivers from.
//!
//! Random interleavings of schedule/drain/bounded-drain/advance/peek
//! are replayed against both engines simultaneously; after every
//! operation the clocks, queue lengths, `next_event_time` answers and
//! full drained batches `(at, target, msg)` must match exactly.
//! Messages are unique per scheduled event, so a mismatch cannot hide
//! behind equal payloads. The op mix deliberately covers the wheel's
//! hard cases: same-instant bursts into an open instant, far-future
//! events that cascade across several levels, beyond-horizon events
//! that sit in the overflow list, and clock jumps that strand events
//! in stale slots. `lockstep_programs_cover_every_wheel_path` replays
//! the same programs and checks that, summed over all of them, the
//! wheel delivered instants from its sparse heap, spilled past it,
//! cascaded and filed beyond the horizon.

use mcps_runtime::scheduler::reference::ReferenceScheduler;
use mcps_runtime::scheduler::{Scheduler, LEVELS};
use mcps_runtime::{ActorId, SimDuration, SimTime, Telemetry};
use proptest::prelude::*;
use proptest::TestRunner;
use std::collections::VecDeque;

/// Cases per program family, shared by the proptests and the coverage
/// replay so both see the same programs.
const CASES: u32 = 256;

/// One step of the driver, decoded from a raw `(op, a, b)` tuple.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule at `now + delta` for a target derived from `b`.
    Schedule { delta: u64, target: u32 },
    /// Drain the next instant.
    Drain,
    /// Drain the next instant due by `now + delta`.
    DrainUntil { delta: u64 },
    /// Advance the clock toward `now + delta` (clamped to stay valid).
    Advance { delta: u64 },
    /// Compare `next_event_time` only.
    Peek,
}

fn decode(op: u8, a: u64, b: u64) -> Op {
    match op % 16 {
        // Heavily weight schedules so queues actually fill up.
        0..=2 => Op::Schedule { delta: a % 64, target: (b % 5) as u32 },
        3 | 4 => Op::Schedule { delta: a % 5_000, target: (b % 5) as u32 },
        5 => Op::Schedule { delta: a % 10_000_000_000, target: (b % 5) as u32 },
        // Far enough to cross the top wheel levels and the ~51-day
        // horizon (2^42 µs ≈ 4.4e12).
        6 => Op::Schedule { delta: a % 9_000_000_000_000, target: (b % 5) as u32 },
        7..=10 => Op::Drain,
        11 | 12 => Op::DrainUntil { delta: a % 100_000 },
        13 | 14 => Op::Advance { delta: a % 1_000_000 },
        _ => Op::Peek,
    }
}

/// A drained instant as `(at, target, msg)` triples.
type Batch = Vec<(SimTime, ActorId, u64)>;

fn triples(at: SimTime, batch: VecDeque<(ActorId, u64)>) -> Batch {
    batch.into_iter().map(|(target, msg)| (at, target, msg)).collect()
}

fn telemetry(wheel: &Scheduler<u64>) -> Telemetry {
    let mut bus = Telemetry::new();
    wheel.export_telemetry(&mut bus, "sched");
    bus
}

/// Whether the wheel proper has ever held an event. It files nothing
/// until the sparse heap overflows, so this means the program spilled
/// past 64 stored events.
fn spilled(bus: &Telemetry) -> bool {
    bus.counter("sched.overflow_filed") > 0
        || (0..LEVELS).any(|l| bus.histogram(&format!("sched.level{l}_peak_events")).is_some())
}

/// Which wheel paths one or more programs reached.
#[derive(Debug, Default)]
struct Coverage {
    /// Instants drained before the program ever spilled, i.e. opened
    /// from the sparse heap.
    sparse_instants: u64,
    /// Programs that spilled into the wheel.
    spills: u64,
    cascades: u64,
    overflow_filed: u64,
}

impl Coverage {
    fn add(&mut self, other: Coverage) {
        self.sparse_instants += other.sparse_instants;
        self.spills += other.spills;
        self.cascades += other.cascades;
        self.overflow_filed += other.overflow_filed;
    }
}

struct Lockstep {
    wheel: Scheduler<u64>,
    heap: ReferenceScheduler<u64>,
    next_msg: u64,
    sparse_instants: u64,
}

impl Lockstep {
    fn new() -> Self {
        Lockstep {
            wheel: Scheduler::new(),
            heap: ReferenceScheduler::new(),
            next_msg: 0,
            sparse_instants: 0,
        }
    }

    fn check(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.wheel.now(), self.heap.now(), "clock divergence");
        prop_assert_eq!(self.wheel.pending(), self.heap.pending(), "queue length divergence");
        prop_assert_eq!(
            self.wheel.next_event_time(),
            self.heap.next_event_time(),
            "next_event_time divergence"
        );
        Ok(())
    }

    fn schedule(&mut self, at: SimTime, target: u32) {
        let msg = self.next_msg;
        self.next_msg += 1;
        self.wheel.schedule_at(at, ActorId::from_index(target), msg);
        self.heap.schedule_at(at, ActorId::from_index(target), msg);
    }

    /// Drains one instant due by `until` from both engines, demanding
    /// identical batches. Returns whether an instant was drained.
    fn drain(&mut self, until: Option<SimTime>) -> Result<bool, TestCaseError> {
        let (mut w, mut h) = (VecDeque::new(), VecDeque::new());
        let w = self.wheel.drain_instant(until, &mut w).then(|| triples(self.wheel.now(), w));
        let h = self.heap.drain_instant(until, &mut h).then(|| triples(self.heap.now(), h));
        prop_assert_eq!(&w, &h, "drained instant divergence");
        if w.is_some() && !spilled(&telemetry(&self.wheel)) {
            self.sparse_instants += 1;
        }
        self.check()?;
        Ok(w.is_some())
    }

    fn apply(&mut self, op: Op) -> Result<(), TestCaseError> {
        match op {
            Op::Schedule { delta, target } => {
                let at = self.wheel.now().saturating_add(SimDuration::from_micros(delta));
                self.schedule(at, target);
            }
            Op::Drain => {
                self.drain(None)?;
            }
            Op::DrainUntil { delta } => {
                let deadline = self.wheel.now().saturating_add(SimDuration::from_micros(delta));
                self.drain(Some(deadline))?;
            }
            Op::Advance { delta } => {
                // `advance_to` requires no undelivered events at or
                // before the target — the kernel only calls it after
                // draining them — so clamp to the next event time.
                let mut t = self.wheel.now().saturating_add(SimDuration::from_micros(delta));
                if let Some(next) = self.wheel.next_event_time() {
                    t = t.min(next);
                }
                // A clamp to `now` means the ready queue still holds
                // undelivered events; the kernel never advances then.
                if t > self.wheel.now() {
                    self.wheel.advance_to(t);
                    self.heap.advance_to(t);
                }
            }
            Op::Peek => {}
        }
        self.check()
    }

    /// Drains both engines to empty, instant for instant, and reports
    /// the wheel paths the program reached.
    fn finish(mut self) -> Result<Coverage, TestCaseError> {
        while self.drain(None)? {}
        let bus = telemetry(&self.wheel);
        Ok(Coverage {
            sparse_instants: self.sparse_instants,
            spills: u64::from(spilled(&bus)),
            cascades: bus.counter("sched.cascades"),
            overflow_filed: bus.counter("sched.overflow_filed"),
        })
    }
}

fn random_ops() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    proptest::collection::vec((0u8..16, 0u64..u64::MAX, 0u64..64), 0..300)
}

/// Random op soup: every engine-visible observation must match at
/// every step, and a full drain at the end must agree batch for batch.
fn random_ops_program(ops: Vec<(u8, u64, u64)>) -> Result<Coverage, TestCaseError> {
    let mut rig = Lockstep::new();
    for (op, a, b) in ops {
        rig.apply(decode(op, a, b))?;
    }
    rig.finish()
}

fn bursts() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((1u64..64, 0u64..4), 1..40)
}

/// Same-instant bursts: schedule into the open instant between drains,
/// the kernel's cascade pattern.
fn bursts_program(rounds: Vec<(u64, u64)>) -> Result<Coverage, TestCaseError> {
    let mut rig = Lockstep::new();
    let mut due = 0u64;
    for (burst, gap) in rounds {
        due += gap;
        for _ in 0..burst {
            rig.schedule(SimTime::from_micros(due), 0);
        }
        // Drain (opening the instant), burst into it, and repeat
        // roughly half as many times before the next round piles on.
        for _ in 0..burst / 2 + 1 {
            rig.apply(Op::Drain)?;
            rig.apply(Op::Schedule { delta: 0, target: 1 })?;
        }
    }
    rig.finish()
}

/// Up to 200 events: the wheel parks at most 64 in its sparse heap, so
/// most programs spill into the levels and the overflow list.
fn far_future() -> impl Strategy<Value = (Vec<u64>, u64)> {
    (proptest::collection::vec(0u64..9_000_000_000_000, 1..200), 1_000_000u64..1_000_000_000)
}

/// Far-future cascades: events spread across every wheel level and the
/// overflow list, drained by deadline-bounded sweeps (the `run_until`
/// path).
fn far_future_program((deltas, stride): (Vec<u64>, u64)) -> Result<Coverage, TestCaseError> {
    let mut rig = Lockstep::new();
    for (i, d) in deltas.iter().enumerate() {
        rig.schedule(SimTime::from_micros(*d), (i % 3) as u32);
        rig.check()?;
    }
    // Sweep time forward in strides, draining due instants exactly like
    // `run_until` does, then drain the tail.
    for k in 1..=20u64 {
        let deadline = SimTime::from_micros(k * stride);
        while rig.drain(Some(deadline))? {}
        let t = match rig.wheel.next_event_time() {
            Some(next) => deadline.min(next),
            None => deadline,
        };
        rig.wheel.advance_to(t);
        rig.heap.advance_to(t);
        rig.check()?;
    }
    rig.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    fn wheel_matches_heap_on_random_ops(ops in random_ops()) {
        random_ops_program(ops)?;
    }

    fn open_instant_bursts_stay_fifo(rounds in bursts()) {
        bursts_program(rounds)?;
    }

    fn cascades_and_horizon_overflow_drain_in_order(program in far_future()) {
        far_future_program(program)?;
    }
}

/// Replays one proptest's programs (the shim seeds them from the test
/// name) and adds up their coverage.
fn replay<S: Strategy>(
    name: &str,
    strategy: S,
    program: fn(S::Value) -> Result<Coverage, TestCaseError>,
    total: &mut Coverage,
) {
    let mut runner = TestRunner::new(ProptestConfig::with_cases(CASES), name);
    for _ in 0..runner.cases() {
        let input = strategy.generate(&mut runner.next_rng());
        total.add(program(input).unwrap_or_else(|e| panic!("{name}: {e}")));
    }
}

/// The lockstep is only as strong as the wheel paths its programs
/// reach: instants opened from the sparse heap (the path every sparse
/// PCA run takes), a spill past the sparse heap into the wheel, slot
/// cascades and beyond-horizon overflow filing.
#[test]
fn lockstep_programs_cover_every_wheel_path() {
    let mut total = Coverage::default();
    replay("wheel_matches_heap_on_random_ops", random_ops(), random_ops_program, &mut total);
    replay("open_instant_bursts_stay_fifo", bursts(), bursts_program, &mut total);
    replay(
        "cascades_and_horizon_overflow_drain_in_order",
        far_future(),
        far_future_program,
        &mut total,
    );
    assert!(total.sparse_instants > 0, "no instant was drained from the sparse heap: {total:?}");
    assert!(total.spills > 0, "no program spilled past the sparse heap: {total:?}");
    assert!(total.cascades > 0, "no program cascaded a wheel slot: {total:?}");
    assert!(total.overflow_filed > 0, "no program filed beyond the horizon: {total:?}");
}
