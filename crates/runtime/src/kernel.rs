//! The discrete-event simulation executive.
//!
//! [`Simulation`] owns the actor slab, each actor's RNG stream and a
//! [`Scheduler`] (event queue and clock), and delivers the events the
//! scheduler hands out one instant at a time. Events with equal
//! timestamps are delivered in scheduling order (FIFO), which —
//! together with seeded RNG streams — makes every run
//! bit-reproducible.

use crate::actor::{Actor, ActorId};
use crate::executor::MsgRun;
use crate::rng::{RngFactory, SimRng};
use crate::scheduler::Scheduler;
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceLog;
use std::collections::VecDeque;

pub use crate::executor::Context;

/// A deterministic discrete-event simulation over message type `M`.
///
/// See the [`Actor`] docs for a complete usage example.
pub struct Simulation<M> {
    scheduler: Scheduler<M>,
    /// The actor slab, indexed by [`ActorId`]; an actor is checked out
    /// (`None`) while it handles a run.
    actors: Vec<Option<Box<dyn Actor<M>>>>,
    /// Each actor's RNG stream, parallel to `actors`.
    rngs: Vec<SimRng>,
    rng_factory: RngFactory,
    trace: TraceLog,
    events_processed: u64,
    /// The instant being delivered: the scheduler's ready ring is
    /// swapped in here one instant at a time, so steady-state runs
    /// reuse the same two buffers with zero allocation.
    batch: VecDeque<(ActorId, M)>,
}

impl<M: 'static> std::fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("actors", &self.actors.len())
            .field("now", &self.scheduler.now())
            .field("pending", &self.scheduler.pending())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

impl<M: 'static> Simulation<M> {
    /// Creates an empty simulation whose randomness derives from
    /// `master_seed`.
    pub fn new(master_seed: u64) -> Self {
        Simulation {
            scheduler: Scheduler::new(),
            actors: Vec::new(),
            rngs: Vec::new(),
            rng_factory: RngFactory::new(master_seed),
            trace: TraceLog::default(),
            events_processed: 0,
            batch: VecDeque::new(),
        }
    }

    /// Registers an actor and returns its id. The actor's RNG stream is
    /// derived from the master seed and `name`, so renaming an actor —
    /// not reordering registration — is what changes its randomness.
    pub fn add_actor(&mut self, name: &str, actor: impl Actor<M>) -> ActorId {
        let id = ActorId::from_index(
            u32::try_from(self.actors.len()).expect("more than u32::MAX actors"),
        );
        self.actors.push(Some(Box::new(actor)));
        self.rngs.push(self.rng_factory.stream(name));
        id
    }

    /// Immutable access to an actor's concrete state.
    ///
    /// Returns `None` if the id is unknown, the actor is currently being
    /// dispatched, or the concrete type is not `T`.
    pub fn actor_as<T: 'static>(&self, id: ActorId) -> Option<&T> {
        self.actors.get(id.index() as usize)?.as_ref()?.as_any().downcast_ref::<T>()
    }

    /// Mutable access to an actor's concrete state (see [`Self::actor_as`]).
    pub fn actor_as_mut<T: 'static>(&mut self, id: ActorId) -> Option<&mut T> {
        self.actors.get_mut(id.index() as usize)?.as_mut()?.as_any_mut().downcast_mut::<T>()
    }

    /// The event queue.
    pub fn scheduler(&self) -> &Scheduler<M> {
        &self.scheduler
    }

    /// Schedules `msg` for `target` at absolute time `at` (clamped to
    /// the present).
    pub fn schedule(&mut self, at: SimTime, target: ActorId, msg: M) {
        self.scheduler.schedule_at(at, target, msg);
    }

    /// Schedules `msg` for `target` after `delay` from now.
    pub fn schedule_after(&mut self, delay: SimDuration, target: ActorId, msg: M) {
        self.scheduler.schedule_after(delay, target, msg);
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.scheduler.now()
    }

    /// Number of events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The trace log.
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Mutable trace log (e.g. to disable recording for benchmarks).
    pub fn trace_mut(&mut self) -> &mut TraceLog {
        &mut self.trace
    }

    /// Runs until the queue drains. Returns the number of events
    /// processed by this call.
    pub fn run(&mut self) -> u64 {
        self.deliver_until(None)
    }

    /// Runs until `deadline` (inclusive) or until the queue drains; on
    /// return, `now()` is exactly `deadline`. Returns the number of
    /// events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let delivered = self.deliver_until(Some(deadline));
        self.scheduler.advance_to(deadline);
        delivered
    }

    /// Delivers instant after instant as [`Scheduler::drain_instant`]
    /// hands them out, until nothing is due by `until`. Returns the
    /// number of events delivered.
    ///
    /// Consecutive same-target events of a batch form a run: the actor
    /// stays checked out and the [`Context`] is built once per run, and
    /// one virtual [`Actor::handle_run`] call covers the whole run.
    /// Sends during delivery go to the scheduler's (empty) ready ring,
    /// never to the batch, so a run's length can be counted up front.
    fn deliver_until(&mut self, until: Option<SimTime>) -> u64 {
        let before = self.events_processed;
        while self.scheduler.drain_instant(until, &mut self.batch) {
            self.events_processed += self.batch.len() as u64;
            let now = self.scheduler.now();
            while let Some(&(target, _)) = self.batch.front() {
                let idx = target.index() as usize;
                let Some(mut actor) = self.actors.get_mut(idx).and_then(Option::take) else {
                    // Unknown target (unreachable through the public
                    // kernel API): drop the event.
                    self.batch.pop_front();
                    continue;
                };
                let run = self.batch.iter().take_while(|(t, _)| *t == target).count();
                let mut ctx = Context {
                    now,
                    self_id: target,
                    sched: &mut self.scheduler,
                    trace: &mut self.trace,
                    rng: &mut self.rngs[idx],
                };
                if run == 1 {
                    // Lone event (fan-out to distinct targets): a plain
                    // pop beats the run machinery's setup and teardown.
                    let (_, msg) = self.batch.pop_front().expect("front event is present");
                    actor.handle(msg, &mut ctx);
                } else {
                    let mut msgs = MsgRun { inner: self.batch.drain(..run) };
                    actor.handle_run(&mut msgs, &mut ctx);
                    debug_assert_eq!(msgs.remaining(), 0, "handle_run left messages unconsumed");
                }
                self.actors[idx] = Some(actor);
            }
        }
        self.events_processed - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Msg {
        Ping,
        Pong,
        Tick,
    }

    struct Pinger {
        peer: Option<ActorId>,
        sent: u32,
        limit: u32,
    }

    impl Actor<Msg> for Pinger {
        fn handle(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
            match msg {
                Msg::Pong | Msg::Tick => {
                    if self.sent < self.limit {
                        self.sent += 1;
                        ctx.schedule(SimDuration::from_millis(10), self.peer.unwrap(), Msg::Ping);
                    }
                }
                Msg::Ping => {}
            }
        }
    }

    struct Ponger {
        received: u32,
    }

    impl Actor<Msg> for Ponger {
        fn handle(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
            if msg == Msg::Ping {
                self.received += 1;
                ctx.trace("pong", format!("ping #{}", self.received));
                ctx.send(ActorId::from_index(0), Msg::Pong);
            }
        }
    }

    fn build() -> (Simulation<Msg>, ActorId, ActorId) {
        let mut sim = Simulation::new(1);
        let pinger = sim.add_actor("pinger", Pinger { peer: None, sent: 0, limit: 5 });
        let ponger = sim.add_actor("ponger", Ponger { received: 0 });
        sim.actor_as_mut::<Pinger>(pinger).unwrap().peer = Some(ponger);
        sim.schedule(SimTime::ZERO, pinger, Msg::Tick);
        (sim, pinger, ponger)
    }

    #[test]
    fn ping_pong_runs_to_completion() {
        let (mut sim, pinger, ponger) = build();
        sim.run();
        assert_eq!(sim.actor_as::<Pinger>(pinger).unwrap().sent, 5);
        assert_eq!(sim.actor_as::<Ponger>(ponger).unwrap().received, 5);
        assert_eq!(sim.scheduler().pending(), 0);
        // 5 round trips of 10 ms each.
        assert_eq!(sim.now(), SimTime::from_millis(50));
        assert_eq!(sim.trace().by_category("pong").count(), 5);
    }

    #[test]
    fn run_until_advances_clock_to_deadline() {
        let (mut sim, _, ponger) = build();
        sim.run_until(SimTime::from_millis(25));
        assert_eq!(sim.actor_as::<Ponger>(ponger).unwrap().received, 2);
        assert_eq!(sim.now(), SimTime::from_millis(25));
        // Remaining events still pending.
        assert!(sim.scheduler().pending() > 0);
        sim.run();
        assert_eq!(sim.actor_as::<Ponger>(ponger).unwrap().received, 5);
    }

    #[test]
    fn fifo_order_at_equal_timestamps() {
        struct Recorder {
            seen: Vec<u32>,
        }
        impl Actor<u32> for Recorder {
            fn handle(&mut self, msg: u32, _ctx: &mut Context<'_, u32>) {
                self.seen.push(msg);
            }
        }
        let mut sim = Simulation::new(0);
        let r = sim.add_actor("rec", Recorder { seen: vec![] });
        for i in 0..10 {
            sim.schedule(SimTime::from_secs(1), r, i);
        }
        sim.run();
        assert_eq!(sim.actor_as::<Recorder>(r).unwrap().seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn same_instant_cascade_preserves_fifo_across_batch() {
        // A forwarder that re-sends each message to a sink at the *same*
        // instant: forwarded copies must land after every pre-queued
        // event for that instant, in original order.
        struct Forwarder {
            sink: ActorId,
        }
        impl Actor<u32> for Forwarder {
            fn handle(&mut self, msg: u32, ctx: &mut Context<'_, u32>) {
                ctx.send(self.sink, msg + 100);
            }
        }
        struct Sink {
            seen: Vec<u32>,
        }
        impl Actor<u32> for Sink {
            fn handle(&mut self, msg: u32, _ctx: &mut Context<'_, u32>) {
                self.seen.push(msg);
            }
        }
        let mut sim = Simulation::new(0);
        let sink = sim.add_actor("sink", Sink { seen: vec![] });
        let fwd = sim.add_actor("fwd", Forwarder { sink });
        sim.schedule(SimTime::from_secs(1), fwd, 1);
        sim.schedule(SimTime::from_secs(1), sink, 2);
        sim.schedule(SimTime::from_secs(1), fwd, 3);
        sim.run();
        assert_eq!(sim.actor_as::<Sink>(sink).unwrap().seen, vec![2, 101, 103]);
    }

    #[test]
    fn determinism_across_runs() {
        let trace_a: Vec<String> = {
            let (mut sim, _, _) = build();
            sim.run();
            sim.trace().records().map(|r| r.to_string()).collect()
        };
        let trace_b: Vec<String> = {
            let (mut sim, _, _) = build();
            sim.run();
            sim.trace().records().map(|r| r.to_string()).collect()
        };
        assert_eq!(trace_a, trace_b);
    }

    #[test]
    fn rng_streams_depend_on_name_not_order() {
        use rand::Rng;
        struct Roller {
            value: u64,
        }
        impl Actor<()> for Roller {
            fn handle(&mut self, _: (), ctx: &mut Context<'_, ()>) {
                self.value = ctx.rng().gen();
            }
        }

        let roll = |names: &[&str], pick: &str| -> u64 {
            let mut sim = Simulation::new(7);
            let mut picked = None;
            for n in names {
                let id = sim.add_actor(n, Roller { value: 0 });
                if n == &pick {
                    picked = Some(id);
                }
            }
            let id = picked.unwrap();
            sim.schedule(SimTime::ZERO, id, ());
            sim.run();
            sim.actor_as::<Roller>(id).unwrap().value
        };

        let a = roll(&["x", "y"], "y");
        let b = roll(&["y", "x"], "y"); // registered first this time
        assert_eq!(a, b);
    }

    #[test]
    fn schedule_in_past_clamps_to_now() {
        struct Echo {
            at: Option<SimTime>,
        }
        impl Actor<u8> for Echo {
            fn handle(&mut self, msg: u8, ctx: &mut Context<'_, u8>) {
                if msg == 0 {
                    // Try to schedule "yesterday"; must arrive now, not panic.
                    ctx.schedule_at(SimTime::ZERO, ctx.self_id(), 1);
                } else {
                    self.at = Some(ctx.now());
                }
            }
        }
        let mut sim = Simulation::new(0);
        let e = sim.add_actor("echo", Echo { at: None });
        sim.schedule(SimTime::from_secs(5), e, 0);
        sim.run();
        assert_eq!(sim.actor_as::<Echo>(e).unwrap().at, Some(SimTime::from_secs(5)));
    }

    #[test]
    fn actor_as_wrong_type_is_none() {
        let (sim, pinger, _) = build();
        assert!(sim.actor_as::<Ponger>(pinger).is_none());
        assert!(sim.actor_as::<Pinger>(ActorId::from_index(99)).is_none());
    }
}
