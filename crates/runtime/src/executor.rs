//! What an actor sees while the kernel delivers to it: the
//! [`Context`] of the current instant and, for a run of same-instant
//! messages, the [`MsgRun`] it consumes.

use crate::actor::ActorId;
use crate::rng::SimRng;
use crate::scheduler::Scheduler;
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceLog;

/// The capabilities an [`Actor`](crate::actor::Actor) may use while
/// handling a message.
///
/// A `Context` is handed to [`Actor::handle`](crate::actor::Actor::handle)
/// and borrows the mutable pieces of the running kernel: the scheduler
/// (for sends), the trace log and the actor's own RNG stream.
pub struct Context<'a, M> {
    pub(crate) now: SimTime,
    pub(crate) self_id: ActorId,
    pub(crate) sched: &'a mut Scheduler<M>,
    pub(crate) trace: &'a mut TraceLog,
    pub(crate) rng: &'a mut SimRng,
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
}

/// A run of same-instant messages addressed to one actor, consumed
/// front to back by [`Actor::handle_run`](crate::actor::Actor::handle_run).
/// Wraps a drain of the kernel's batch buffer, so pulling a message
/// moves it out without per-message queue bookkeeping.
pub struct MsgRun<'a, M> {
    pub(crate) inner: std::collections::vec_deque::Drain<'a, (ActorId, M)>,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngFactory;

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
