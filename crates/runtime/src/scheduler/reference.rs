//! The binary-heap reference engine.
//!
//! [`ReferenceScheduler`] is the original `O(log n)` event queue the
//! timer wheel replaced. It stays in-tree as the semantic oracle: the
//! wheel is held to lockstep equality against it by unit tests here
//! and by the property suite in `tests/wheel_lockstep.rs`, the same
//! discipline the packed checker and the dense network fabric follow
//! against their reference engines.
//!
//! Delivery order is the total order `(at, seq)` — earliest time
//! first, FIFO within an instant. [`ReferenceScheduler::drain_instant`]
//! has the wheel's contract: it pops every event due at the next
//! instant off the heap and hands them out as one FIFO batch; while
//! that instant is open, newly scheduled same-time events append to
//! the pending batch directly (their sequence numbers are globally
//! maximal), so the heap holds only strictly later events.

use super::Scheduled;
use crate::actor::ActorId;
use crate::time::{SimDuration, SimTime};
use std::collections::{BinaryHeap, VecDeque};

/// The heap-based reference event queue (see the module docs).
#[derive(Debug)]
pub struct ReferenceScheduler<M> {
    heap: BinaryHeap<Scheduled<M>>,
    batch: VecDeque<(ActorId, M)>,
    seq: u64,
    now: SimTime,
    /// True while events for the instant `now` are being delivered,
    /// i.e. the heap has been drained for `now`.
    instant_open: bool,
}

impl<M> Default for ReferenceScheduler<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> ReferenceScheduler<M> {
    /// Creates an empty scheduler at time zero.
    pub fn new() -> Self {
        ReferenceScheduler {
            heap: BinaryHeap::new(),
            batch: VecDeque::new(),
            seq: 0,
            now: SimTime::ZERO,
            instant_open: false,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events queued (heap + current-instant batch).
    pub fn pending(&self) -> usize {
        self.heap.len() + self.batch.len()
    }

    /// The delivery time of the next queued event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        if !self.batch.is_empty() {
            return Some(self.now);
        }
        self.heap.peek().map(|ev| ev.at)
    }

    /// Schedules `msg` for `target` at absolute time `at`, clamped to
    /// the present if `at` is already past.
    pub fn schedule_at(&mut self, at: SimTime, target: ActorId, msg: M) {
        let at = at.max(self.now);
        if self.instant_open && at == self.now {
            // The event's `seq` would be globally maximal, so appending
            // keeps the batch in `(at, seq)` order; the heap holds only
            // later events.
            self.batch.push_back((target, msg));
        } else {
            self.heap.push(Scheduled { at, seq: self.seq, target, msg });
        }
        self.seq += 1;
    }

    /// Schedules `msg` for `target` after `delay` from now.
    pub fn schedule_after(&mut self, delay: SimDuration, target: ActorId, msg: M) {
        self.schedule_at(self.now.saturating_add(delay), target, msg);
    }

    /// Moves the next instant's events into `batch` (which must be
    /// empty) in delivery order and returns `true`, with `now()` at
    /// their timestamp; returns `false`, leaving the clock alone, when
    /// nothing is due by `until` (`None`: no bound). The contract of
    /// [`Scheduler::drain_instant`](super::Scheduler::drain_instant).
    pub fn drain_instant(
        &mut self,
        until: Option<SimTime>,
        batch: &mut VecDeque<(ActorId, M)>,
    ) -> bool {
        debug_assert!(batch.is_empty(), "batch still holds undelivered events");
        if self.batch.is_empty() {
            // Open the next instant: advance to the earliest heap event
            // and pop everything that shares its timestamp. The heap
            // yields equal-time events in ascending `seq`, so the batch
            // comes out FIFO.
            match self.heap.peek() {
                Some(ev) if until.is_none_or(|deadline| ev.at <= deadline) => {}
                _ => return false,
            }
            let first = self.heap.pop().expect("peeked event exists");
            debug_assert!(first.at >= self.now, "event queue went backwards");
            self.now = first.at;
            self.instant_open = true;
            self.batch.push_back((first.target, first.msg));
            while self.heap.peek().is_some_and(|next| next.at == self.now) {
                let next = self.heap.pop().expect("peeked event exists");
                self.batch.push_back((next.target, next.msg));
            }
        }
        std::mem::swap(&mut self.batch, batch);
        true
    }

    /// Advances the clock to `deadline` with no events to deliver (used
    /// by `run_until` when the queue holds nothing before the deadline).
    /// Closes the current instant: later same-time schedules go through
    /// the heap again.
    pub fn advance_to(&mut self, deadline: SimTime) {
        debug_assert!(self.batch.is_empty(), "advancing over undelivered events");
        if deadline > self.now {
            self.now = deadline;
            self.instant_open = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains one instant due by `until`: its timestamp and messages.
    fn drain(
        s: &mut ReferenceScheduler<u32>,
        until: Option<SimTime>,
    ) -> Option<(SimTime, Vec<u32>)> {
        let mut batch = VecDeque::new();
        s.drain_instant(until, &mut batch)
            .then(|| (s.now(), batch.into_iter().map(|(_, m)| m).collect()))
    }

    #[test]
    fn orders_by_time_then_fifo() {
        let mut s = ReferenceScheduler::new();
        let a = ActorId::from_index(0);
        s.schedule_at(SimTime::from_secs(2), a, 10);
        s.schedule_at(SimTime::from_secs(1), a, 20);
        s.schedule_at(SimTime::from_secs(2), a, 11);
        s.schedule_at(SimTime::from_secs(1), a, 21);
        assert_eq!(drain(&mut s, None), Some((SimTime::from_secs(1), vec![20, 21])));
        assert_eq!(drain(&mut s, None), Some((SimTime::from_secs(2), vec![10, 11])));
        assert_eq!(drain(&mut s, None), None);
    }

    #[test]
    fn same_instant_sends_go_to_open_batch() {
        let mut s = ReferenceScheduler::new();
        let a = ActorId::from_index(0);
        s.schedule_at(SimTime::from_secs(1), a, 1);
        s.schedule_at(SimTime::from_secs(1), a, 2);
        assert_eq!(drain(&mut s, None), Some((SimTime::from_secs(1), vec![1, 2])));
        // A cascade send while instant 1s is open: it forms the next
        // batch without touching the heap.
        s.schedule_at(s.now(), a, 3);
        assert_eq!(s.heap.len(), 0);
        assert_eq!(drain(&mut s, None), Some((SimTime::from_secs(1), vec![3])));
    }

    #[test]
    fn drain_instant_respects_deadline() {
        let mut s = ReferenceScheduler::new();
        let a = ActorId::from_index(0);
        s.schedule_at(SimTime::from_secs(5), a, 1);
        assert_eq!(drain(&mut s, Some(SimTime::from_secs(4))), None);
        assert_eq!(s.now(), SimTime::ZERO, "failed bounded drain must not move the clock");
        assert_eq!(
            drain(&mut s, Some(SimTime::from_secs(5))),
            Some((SimTime::from_secs(5), vec![1]))
        );
    }
}
