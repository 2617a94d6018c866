//! E7a — simulation-kernel event throughput.
//!
//! Measures raw event dispatch (single self-scheduling actor), fan-out
//! cost (one producer driving N consumers) and batched same-instant
//! dispatch (the scheduler draining whole instants at once),
//! establishing the platform budget that makes cohort-scale
//! experiments feasible. Benches the runtime crate directly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcps_runtime::prelude::*;

struct Counter {
    n: u64,
    limit: u64,
}

impl Actor<()> for Counter {
    fn handle(&mut self, _msg: (), ctx: &mut Context<'_, ()>) {
        self.n += 1;
        if self.n < self.limit {
            ctx.schedule_self(SimDuration::from_millis(1), ());
        }
    }
}

struct Broadcaster {
    targets: Vec<ActorId>,
    rounds: u64,
}

struct Sink {
    received: u64,
}

#[derive(Clone)]
enum Fan {
    Tick,
    Data,
}

impl Actor<Fan> for Broadcaster {
    fn handle(&mut self, msg: Fan, ctx: &mut Context<'_, Fan>) {
        if matches!(msg, Fan::Tick) && self.rounds > 0 {
            self.rounds -= 1;
            for &t in &self.targets {
                ctx.send(t, Fan::Data);
            }
            ctx.schedule_self(SimDuration::from_millis(1), Fan::Tick);
        }
    }
}

impl Actor<Fan> for Sink {
    fn handle(&mut self, msg: Fan, _ctx: &mut Context<'_, Fan>) {
        if matches!(msg, Fan::Data) {
            self.received += 1;
        }
    }
}

fn bench_dispatch(c: &mut Criterion) {
    c.bench_function("kernel/self_schedule_100k_events", |b| {
        b.iter(|| {
            let mut sim: Simulation<()> = Simulation::new(0);
            sim.trace_mut().set_enabled(false);
            let id = sim.add_actor("counter", Counter { n: 0, limit: 100_000 });
            sim.schedule(SimTime::ZERO, id, ());
            sim.run();
            assert_eq!(sim.events_processed(), 100_000);
        })
    });
}

fn bench_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel/fanout_1000_rounds");
    for &n in &[1usize, 16, 64, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut sim: Simulation<Fan> = Simulation::new(0);
                sim.trace_mut().set_enabled(false);
                let targets: Vec<ActorId> = (0..n)
                    .map(|i| sim.add_actor(&format!("sink{i}"), Sink { received: 0 }))
                    .collect();
                let b_id = sim.add_actor("bcast", Broadcaster { targets, rounds: 1_000 });
                sim.schedule(SimTime::ZERO, b_id, Fan::Tick);
                sim.run();
            })
        });
    }
    group.finish();
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

fn bench_batched_dispatch(c: &mut Criterion) {
    // Many events share each instant: the scheduler drains the whole
    // batch without re-touching the heap per event. 500 instants x
    // `per_round` same-instant deliveries per iteration.
    let mut group = c.benchmark_group("runtime/batched_dispatch");
    for &per_round in &[16u64, 128, 1024] {
        group.bench_with_input(
            BenchmarkId::from_parameter(per_round),
            &per_round,
            |b, &per_round| {
                b.iter(|| {
                    let mut sim: Simulation<Fan> = Simulation::new(0);
                    sim.trace_mut().set_enabled(false);
                    let sink = sim.add_actor("sink", Sink { received: 0 });
                    let burst = sim.add_actor("burst", Burst { sink, per_round, rounds: 500 });
                    sim.schedule(SimTime::ZERO, burst, Fan::Tick);
                    sim.run();
                    assert_eq!(sim.actor_as::<Sink>(sink).unwrap().received, 500 * per_round);
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_dispatch, bench_fanout, bench_batched_dispatch);
criterion_main!(benches);
