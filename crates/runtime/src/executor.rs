//! Actor storage and message dispatch: the delivery half of the kernel.
//!
//! [`Executor`] owns the actor slab, per-actor deterministic RNG
//! streams and the [`RngFactory`] they derive from. It delivers events
//! popped from a [`Scheduler`] by handing each actor a [`Context`]
//! scoped to the current instant.

use crate::actor::{Actor, ActorId};
use crate::rng::{RngFactory, SimRng};
use crate::scheduler::Scheduler;
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceLog;
use std::collections::VecDeque;

/// The capabilities an [`Actor`] may use while handling a message.
///
/// A `Context` is handed to [`Actor::handle`] and borrows the mutable
/// pieces of the running kernel: the scheduler (for sends and stop
/// control), the trace log and the actor's own RNG stream.
pub struct Context<'a, M> {
    now: SimTime,
    self_id: ActorId,
    sched: &'a mut Scheduler<M>,
    trace: &'a mut TraceLog,
    rng: &'a mut SimRng,
}

impl<M> Context<'_, M> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the actor currently handling a message.
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// The handling actor's private deterministic RNG stream.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Delivers `msg` to `target` at the current time, after all events
    /// already queued for this instant.
    pub fn send(&mut self, target: ActorId, msg: M) {
        // Dispatch always runs with the current instant open, so this
        // can append straight to the ready ring, skipping the clamp
        // and instant checks of the general scheduling path.
        self.sched.push_now(target, msg);
    }

    /// Delivers a run of messages to `target` at the current time, in
    /// iteration order, after all events already queued for this
    /// instant. Equivalent to calling [`Self::send`] per message, but
    /// the ready ring reserves space once for the whole run.
    pub fn send_many<I>(&mut self, target: ActorId, msgs: I)
    where
        I: IntoIterator<Item = M>,
    {
        self.sched.push_now_many(target, msgs);
    }

    /// Delivers `msg` to `target` after `delay`.
    pub fn schedule(&mut self, delay: SimDuration, target: ActorId, msg: M) {
        self.schedule_at(self.now.saturating_add(delay), target, msg);
    }

    /// Delivers `msg` to the handling actor itself after `delay`.
    pub fn schedule_self(&mut self, delay: SimDuration, msg: M) {
        self.schedule(delay, self.self_id, msg);
    }

    /// Delivers `msg` to `target` at absolute time `at` (clamped to the
    /// present if `at` is in the past).
    pub fn schedule_at(&mut self, at: SimTime, target: ActorId, msg: M) {
        self.sched.schedule_at(at, target, msg);
    }

    /// Appends a record to the simulation trace, attributed to this
    /// actor at the current time.
    ///
    /// Prefer [`Self::trace_with`] when the message requires formatting:
    /// `trace` evaluates its message argument even when the log is
    /// disabled, while `trace_with` defers construction entirely.
    pub fn trace(&mut self, category: &str, message: impl Into<String>) {
        self.trace.push(self.now, self.self_id, category, message);
    }

    /// Whether the trace log currently records anything. Hot paths can
    /// gate expensive message construction on this.
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_enabled()
    }

    /// Appends a lazily built record to the simulation trace. The
    /// closure runs only when the log is enabled, so disabled-trace runs
    /// pay no allocation or formatting cost for hot-path traces.
    pub fn trace_with(&mut self, category: &str, message: impl FnOnce() -> String) {
        if self.trace.is_enabled() {
            self.trace.push(self.now, self.self_id, category, message());
        }
    }

    /// Requests that the simulation stop after the current event.
    pub fn stop(&mut self) {
        self.sched.request_stop();
    }

    /// Whether a stop has been requested (by this actor or any other).
    pub fn stop_requested(&self) -> bool {
        self.sched.is_stopped()
    }
}

/// A run of same-instant messages addressed to one actor, consumed
/// front to back by [`Actor::handle_run`]. Wraps a drain of the
/// kernel's batch buffer, so pulling a message moves it out without
/// per-message queue bookkeeping.
pub struct MsgRun<'a, M> {
    inner: std::collections::vec_deque::Drain<'a, (ActorId, M)>,
}

impl<M> Iterator for MsgRun<'_, M> {
    type Item = M;

    /// The next message of the run, or `None` when the run is done.
    #[inline]
    fn next(&mut self) -> Option<M> {
        self.inner.next().map(|(_, msg)| msg)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<M> MsgRun<'_, M> {
    /// Messages not yet consumed.
    pub fn remaining(&self) -> usize {
        self.inner.len()
    }

    /// Consumes the run, returning the unhandled tail (empty unless a
    /// stop cut the run short). Allocation-free when nothing remains.
    fn into_leftover(self) -> Vec<(ActorId, M)> {
        self.inner.collect()
    }
}

/// The actor-slab half of the simulation kernel.
pub struct Executor<M> {
    actors: Vec<Option<Box<dyn Actor<M>>>>,
    names: Vec<String>,
    rngs: Vec<SimRng>,
    rng_factory: RngFactory,
}

impl<M> std::fmt::Debug for Executor<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor").field("actors", &self.actors.len()).finish()
    }
}

impl<M: 'static> Executor<M> {
    /// Creates an empty executor whose randomness derives from
    /// `master_seed`.
    pub fn new(master_seed: u64) -> Self {
        Executor {
            actors: Vec::new(),
            names: Vec::new(),
            rngs: Vec::new(),
            rng_factory: RngFactory::new(master_seed),
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
        self.names.push(name.to_owned());
        self.rngs.push(self.rng_factory.stream(name));
        id
    }

    /// The registered name of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this executor.
    pub fn actor_name(&self, id: ActorId) -> &str {
        &self.names[id.index() as usize]
    }

    /// Number of registered actors.
    pub fn actor_count(&self) -> usize {
        self.actors.len()
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

    /// The RNG factory, for deriving extra streams outside the actors.
    pub fn rng_factory(&self) -> RngFactory {
        self.rng_factory
    }

    /// Delivers every event in `batch` (one open instant's ready ring,
    /// swapped out by the kernel), chaining consecutive same-target
    /// runs: the actor stays checked out and the [`Context`] is built
    /// once per run, not once per event. Returns the number of events
    /// consumed.
    ///
    /// `batch` is private to this call — actor sends during delivery go
    /// to `sched`'s (empty) ring, never to `batch` — so a run's length
    /// can be counted up front and its events popped unconditionally.
    /// Delivery order is exactly the order a one-event-at-a-time loop
    /// would produce. A stop request halts delivery after the current
    /// event, leaving the remainder in `batch` for the kernel to
    /// return to the queue.
    pub fn dispatch_batch(
        &mut self,
        batch: &mut VecDeque<(ActorId, M)>,
        now: SimTime,
        sched: &mut Scheduler<M>,
        trace: &mut TraceLog,
    ) -> u64 {
        let mut delivered = 0u64;
        while !sched.is_stopped() {
            let Some(&(target, _)) = batch.front() else {
                break;
            };
            let idx = target.index() as usize;
            let Some(mut actor) = self.actors.get_mut(idx).and_then(Option::take) else {
                // Unknown target (unreachable through the public kernel
                // API): drop the event.
                batch.pop_front();
                delivered += 1;
                continue;
            };
            let run = batch.iter().take_while(|(t, _)| *t == target).count();
            let mut ctx = Context { now, self_id: target, sched, trace, rng: &mut self.rngs[idx] };
            if run == 1 {
                // Lone event (fan-out to distinct targets): a plain pop
                // beats the run machinery's setup and teardown.
                let (_, msg) = batch.pop_front().expect("front event is present");
                actor.handle(msg, &mut ctx);
                delivered += 1;
                self.actors[idx] = Some(actor);
                continue;
            }
            // One virtual `handle_run` call covers the whole run; the
            // per-message `handle` calls inside it are static.
            let mut msgs = MsgRun { inner: batch.drain(..run) };
            actor.handle_run(&mut msgs, &mut ctx);
            delivered += (run - msgs.remaining()) as u64;
            // Empty unless a stop interrupted the run — dropping the
            // drain would discard the unhandled tail, so collect it
            // and put it back in front.
            let rest = msgs.into_leftover();
            for e in rest.into_iter().rev() {
                batch.push_front(e);
            }
            self.actors[idx] = Some(actor);
        }
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_parts() -> (Scheduler<()>, TraceLog, SimRng) {
        (Scheduler::new(), TraceLog::new(8), RngFactory::new(1).stream("t"))
    }

    #[test]
    fn trace_with_skips_closure_when_disabled() {
        let (mut sched, mut trace, mut rng) = ctx_parts();
        trace.set_enabled(false);
        let mut built = 0u32;
        {
            let mut ctx = Context {
                now: SimTime::ZERO,
                self_id: ActorId::from_index(0),
                sched: &mut sched,
                trace: &mut trace,
                rng: &mut rng,
            };
            assert!(!ctx.trace_enabled());
            ctx.trace_with("cat", || {
                built += 1;
                "expensive".to_owned()
            });
        }
        assert_eq!(built, 0, "disabled trace must not build the message");
        assert!(trace.is_empty());
    }

    #[test]
    fn trace_with_records_when_enabled() {
        let (mut sched, mut trace, mut rng) = ctx_parts();
        {
            let mut ctx = Context {
                now: SimTime::from_secs(2),
                self_id: ActorId::from_index(0),
                sched: &mut sched,
                trace: &mut trace,
                rng: &mut rng,
            };
            assert!(ctx.trace_enabled());
            ctx.trace_with("cat", || "built".to_owned());
        }
        let rec = trace.records().next().expect("one record");
        assert_eq!(rec.category, "cat");
        assert_eq!(rec.message, "built");
        assert_eq!(rec.at, SimTime::from_secs(2));
    }
}
