//! Event scheduling: the time-ordered queue half of the kernel.
//!
//! [`Scheduler`] owns the event queue, the global sequence numbering
//! that breaks timestamp ties FIFO, the simulation clock and the stop
//! flag. It knows nothing about actors — delivering an event to one is
//! the [`Executor`](crate::executor::Executor)'s job.
//!
//! ## Hierarchical timer wheel + ready ring
//!
//! Delivery order is defined by the total order `(at, seq)` — earliest
//! time first, FIFO within an instant. The queue is a hierarchical
//! timer wheel: [`LEVELS`] levels of 64 slots each, where a level-`j`
//! slot spans `64^j` microseconds. An event due at `at` files into the
//! *highest* level at which `at` and `now` differ (the most significant
//! differing 6-bit digit of `at ^ now`), so near-term events land in
//! level 0 — whose slots are exactly one microsecond wide — and
//! far-future events (fault onsets, discharge times) land high up or,
//! beyond the ~51-day horizon, in an overflow list. Each level keeps a
//! 64-bit occupancy bitmap, so finding the next due slot is a couple of
//! `trailing_zeros` instructions: schedule and pop are `O(1)` in the
//! queue size, against the heap's `O(log n)` twice per event.
//!
//! When the earliest occupied slot sits at level `j > 0`, the clock
//! advances to that slot's start and its events *cascade*: each refiles
//! at a strictly lower level, so every event cascades at most
//! `LEVELS - 1` times over its whole life. When it sits at level 0, the
//! slot — all of whose events share one timestamp — drains into the
//! **ready ring**, a preallocated `VecDeque` of bare `(target, msg)`
//! pairs. While that instant is open, newly scheduled same-time events
//! append to the ring directly (their sequence numbers are globally
//! maximal, so appending preserves `(at, seq)` order) and the wheel is
//! never touched: same-instant cascades — device → network controller →
//! supervisor chains at one timestamp — cost a ring push and pop each,
//! with no per-event allocation in steady state.
//!
//! ## Sparse fast path
//!
//! Below `SPARSE_MAX` (64) concurrent events the wheel machinery is pure
//! overhead: a ward's worth of self-rearming device timers pops one
//! event and schedules one replacement, never holding more than a few
//! dozen at once. While the stored population fits, events park in a
//! small cache-resident binary heap and the wheel is never touched;
//! the first event past the cap spills the heap into the wheel and the
//! dense regime takes over until the wheel drains empty again. Both
//! regimes implement the same `(at, seq)` total order, so the switch
//! is invisible to every observer (enforced by the lockstep suite and
//! the `bench_runtime` conformance hashes).
//!
//! ## Reference engine
//!
//! The original binary-heap engine survives as
//! [`reference::ReferenceScheduler`], the semantic oracle the wheel is
//! held to: the property suite in `tests/wheel_lockstep.rs` drives both
//! through random schedule/pop/advance interleavings and demands
//! identical clocks, lengths and pop sequences at every step.

use crate::actor::ActorId;
use crate::telemetry::Telemetry;
use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

pub mod reference;

/// Bits per wheel digit: each level has `2^6 = 64` slots.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Low-6-bits mask, selecting a slot index within a level.
const SLOT_MASK: u64 = (SLOTS as u64) - 1;
/// Number of wheel levels. Level `j` slots span `64^j` µs; seven
/// levels cover `64^7` µs ≈ 51 days, past which events overflow.
pub const LEVELS: usize = 7;
/// Bits of absolute time the wheel resolves (`6 * LEVELS`).
const HORIZON_BITS: u32 = SLOT_BITS * LEVELS as u32;
/// Capacity of the sparse fast-path heap. While the queue holds at most
/// this many events (and the wheel proper is idle) they live in a small
/// binary heap instead: at this size the heap is entirely
/// cache-resident and its `O(log n)` sift is a handful of comparisons,
/// which beats the wheel's filing/cascade machinery for sparse periodic
/// workloads (a ward of self-rearming device timers). The 65th
/// concurrent event spills the heap into the wheel, whose `O(1)`
/// schedule/pop then wins at scale.
const SPARSE_MAX: usize = 64;

/// A queued event: deliver `msg` to `target` at time `at`.
#[derive(Debug)]
pub struct Scheduled<M> {
    /// Delivery time.
    pub at: SimTime,
    /// Global FIFO tie-break sequence number.
    pub(crate) seq: u64,
    /// Receiving actor.
    pub target: ActorId,
    /// The message itself.
    pub msg: M,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    // Reversed so the BinaryHeap pops the *earliest* event first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A sparse-heap element: `(at, seq)` packed into one 128-bit key —
/// `at` in the high 64 bits, `seq` in the low — so a heap sift
/// compares once where a `(at, seq)` tuple would compare twice and
/// branch in between.
struct SparseEv<M> {
    key: u128,
    target: ActorId,
    msg: M,
}

impl<M> SparseEv<M> {
    #[inline]
    fn new(at: SimTime, seq: u64, target: ActorId, msg: M) -> Self {
        SparseEv { key: (u128::from(at.as_micros()) << 64) | u128::from(seq), target, msg }
    }

    #[inline]
    fn at(&self) -> SimTime {
        SimTime::from_micros((self.key >> 64) as u64)
    }

    #[inline]
    fn into_scheduled(self) -> Scheduled<M> {
        Scheduled { at: self.at(), seq: self.key as u64, target: self.target, msg: self.msg }
    }
}

impl<M> PartialEq for SparseEv<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<M> Eq for SparseEv<M> {}
impl<M> PartialOrd for SparseEv<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for SparseEv<M> {
    // Reversed so the BinaryHeap pops the *earliest* event first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// One wheel level: 64 slot buckets plus an occupancy bitmap.
#[derive(Debug)]
struct Level<M> {
    /// Bit `s` set ⇔ `slots[s]` is non-empty.
    occupied: u64,
    /// Events currently resident at this level.
    events: u32,
    slots: Box<[Vec<Scheduled<M>>]>,
}

impl<M> Level<M> {
    fn new() -> Self {
        Level { occupied: 0, events: 0, slots: (0..SLOTS).map(|_| Vec::new()).collect() }
    }
}

/// Counters describing wheel behaviour, for telemetry and the
/// zero-allocation regression checks in `bench_runtime`.
///
/// `max_ready_depth` is sampled at dispatch boundaries (instant opens
/// and chain-head pops) rather than maintained per push, keeping the
/// ready-ring hot path bookkeeping-free; for batched workloads the
/// sample lands right after the burst, so it tracks the true peak
/// closely.
#[derive(Debug, Clone, Default)]
pub struct WheelStats {
    /// Events scheduled into the wheel/overflow (timed schedulings;
    /// open-instant fast-path sends bypass the counter and are counted
    /// by the kernel's `events_processed` instead).
    pub scheduled: u64,
    /// Slot cascades (one occupied slot refiled to lower levels).
    pub cascades: u64,
    /// Events moved by cascades and clock-advance refiles.
    pub refiled: u64,
    /// Events filed beyond the wheel horizon into the overflow list.
    pub overflow_filed: u64,
    /// Level-0 slot drains that needed a FIFO repair sort (possible
    /// only after interleaved cascades; counted to show how rare).
    pub sort_repairs: u64,
    /// High-water mark of the ready ring (sampled; see above).
    pub max_ready_depth: usize,
    /// Per-level high-water marks of resident events.
    pub level_high_water: [u32; LEVELS],
}

/// The event-queue half of the simulation kernel (see the module docs
/// for the wheel design).
///
/// Invariants between pops:
/// * every wheel event has `at > now`, except level-0 events sharing
///   the current instant while it is open — but those drain to the
///   ring when the instant opens, so in practice `at > now` wheel-wide;
/// * an event's slot index at its level differs from `now`'s digit at
///   that level (restored by [`Scheduler::advance_to`] after clock
///   jumps), which makes "earliest occupied slot of the lowest
///   non-empty level" the global minimum;
/// * everything due at `now` sits in the ready ring, in `(at, seq)`
///   order.
pub struct Scheduler<M> {
    levels: [Level<M>; LEVELS],
    /// Bit `j` set ⇔ `levels[j].occupied != 0`.
    nonempty: u8,
    /// The ready ring: events due at `now`, FIFO. Entries carry only
    /// `(target, msg)` — their time is `now` and their relative order
    /// is positional, so `at`/`seq` would be dead weight.
    ring: VecDeque<(ActorId, M)>,
    /// The sparse fast path: while at most [`SPARSE_MAX`] events are
    /// stored (and the wheel proper is empty) they park in this small
    /// `(at, seq)`-ordered heap and never touch the filing/cascade
    /// machinery. Invariant: `sparse` and the wheel/overflow are never
    /// simultaneously non-empty — event `SPARSE_MAX + 1` spills the
    /// whole heap into the wheel, and the heap stays unused until the
    /// wheel drains completely.
    sparse: BinaryHeap<SparseEv<M>>,
    /// Events beyond the wheel horizon (`at ^ now` ≥ 2^42 µs).
    overflow: Vec<Scheduled<M>>,
    /// Events stored in the wheel + overflow (the ready ring counts
    /// itself), so the ring hot path carries no length bookkeeping.
    stored: usize,
    /// Global sequence counter; doubles as the scheduled-events stat.
    seq: u64,
    now: SimTime,
    stop: bool,
    /// True while events for the instant `now` are being delivered,
    /// i.e. the level-0 slot has been drained for `now`.
    instant_open: bool,
    stats: WheelStats,
}

impl<M> std::fmt::Debug for Scheduler<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("now", &self.now)
            .field("pending", &self.pending())
            .field("ring_depth", &self.ring.len())
            .field("overflow", &self.overflow.len())
            .finish()
    }
}

impl<M> Default for Scheduler<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Scheduler<M> {
    /// Creates an empty scheduler at time zero.
    pub fn new() -> Self {
        Scheduler {
            levels: std::array::from_fn(|_| Level::new()),
            nonempty: 0,
            ring: VecDeque::new(),
            sparse: BinaryHeap::with_capacity(SPARSE_MAX),
            overflow: Vec::new(),
            stored: 0,
            seq: 0,
            now: SimTime::ZERO,
            stop: false,
            instant_open: false,
            stats: WheelStats::default(),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events queued (wheel + sparse heap + ready ring +
    /// overflow).
    pub fn pending(&self) -> usize {
        self.stored + self.sparse.len() + self.ring.len()
    }

    /// Whether a stop has been requested.
    pub fn is_stopped(&self) -> bool {
        self.stop
    }

    /// Requests that the run stop after the event being processed.
    pub fn request_stop(&mut self) {
        self.stop = true;
    }

    /// Wheel behaviour counters accumulated since creation/[`Self::reset`].
    pub fn stats(&self) -> WheelStats {
        let mut s = self.stats.clone();
        // Every accepted event bumps `seq` exactly once, so the
        // counter doubles as the scheduled-events stat without a
        // second hot-path increment.
        s.scheduled = self.seq;
        s
    }

    /// Files `ev` into the wheel (or overflow) relative to `now`.
    /// `ev.at` must not be in the past.
    fn file(&mut self, ev: Scheduled<M>) {
        let at = ev.at.as_micros();
        let now = self.now.as_micros();
        debug_assert!(at >= now, "filing an event into the past");
        let xor = at ^ now;
        if xor >> HORIZON_BITS != 0 {
            self.overflow.push(ev);
            self.stats.overflow_filed += 1;
            return;
        }
        // Highest differing 6-bit digit of `at` vs `now` picks the
        // level; the event's own digit there picks the slot.
        let level = if xor == 0 { 0 } else { ((63 - xor.leading_zeros()) / SLOT_BITS) as usize };
        let slot = ((at >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        let l = &mut self.levels[level];
        l.slots[slot].push(ev);
        l.occupied |= 1u64 << slot;
        l.events += 1;
        if l.events > self.stats.level_high_water[level] {
            self.stats.level_high_water[level] = l.events;
        }
        self.nonempty |= 1 << level;
    }

    /// The delivery time of the next queued event, if any. Does not
    /// advance the clock or cascade.
    pub fn next_event_time(&self) -> Option<SimTime> {
        if !self.ring.is_empty() {
            return Some(self.now);
        }
        if let Some(ev) = self.sparse.peek() {
            return Some(ev.at());
        }
        let now = self.now.as_micros();
        for (level, l) in self.levels.iter().enumerate() {
            if l.occupied == 0 {
                continue;
            }
            let slot = u64::from(l.occupied.trailing_zeros());
            if level == 0 {
                // Level-0 slots are one microsecond wide: the slot
                // index *is* the low digit of the delivery time.
                return Some(SimTime::from_micros((now & !SLOT_MASK) | slot));
            }
            // Events in a coarser slot share only their upper digits;
            // the earliest must be found by inspection.
            return l.slots[slot as usize].iter().map(|e| e.at).min();
        }
        self.overflow.iter().map(|e| e.at).min()
    }

    /// A lower bound on [`Self::next_event_time`] computable without
    /// inspecting any event: exact for ring, sparse-heap and level-0
    /// events; the containing slot's start for coarser slots; the next
    /// horizon window's base for overflow events. O(1) regardless of
    /// how many far-future events are parked.
    fn next_event_floor(&self) -> Option<SimTime> {
        if !self.ring.is_empty() {
            return Some(self.now);
        }
        if let Some(ev) = self.sparse.peek() {
            return Some(ev.at());
        }
        let now = self.now.as_micros();
        for (level, l) in self.levels.iter().enumerate() {
            if l.occupied == 0 {
                continue;
            }
            let slot = u64::from(l.occupied.trailing_zeros());
            if level == 0 {
                return Some(SimTime::from_micros((now & !SLOT_MASK) | slot));
            }
            let width_mask = (1u64 << (SLOT_BITS * (level as u32 + 1))) - 1;
            let slot_start = (now & !width_mask) | (slot << (SLOT_BITS * level as u32));
            return Some(SimTime::from_micros(slot_start.max(now)));
        }
        if self.overflow.is_empty() {
            None
        } else {
            Some(SimTime::from_micros(((now >> HORIZON_BITS) + 1) << HORIZON_BITS))
        }
    }

    /// Whether an event is due at or before `deadline`. The cheap floor
    /// answers most queries; only a deadline that lands inside the next
    /// occupied slot's window needs the exact (slot-scanning) time —
    /// this is what keeps deadline-bounded draining O(1) per call while
    /// thousands of far-future events sit parked in coarse slots.
    pub(crate) fn has_event_by(&self, deadline: SimTime) -> bool {
        match self.next_event_floor() {
            Some(floor) if floor <= deadline => {}
            _ => return false,
        }
        matches!(self.next_event_time(), Some(t) if t <= deadline)
    }

    /// Schedules `msg` for `target` at absolute time `at`, clamped to
    /// the present if `at` is already past.
    ///
    /// Kept small enough to inline into dispatch loops: the two hot
    /// outcomes (ring append, sparse-heap push) return directly and
    /// everything else tails into the outlined dense path.
    #[inline]
    pub fn schedule_at(&mut self, at: SimTime, target: ActorId, msg: M) {
        let at = at.max(self.now);
        if self.instant_open && at == self.now {
            // Appending preserves `(at, seq)` order: ring order is
            // positional and the wheel holds only later times.
            self.ring.push_back((target, msg));
            return;
        }
        self.seq += 1;
        let seq = self.seq;
        if self.nonempty == 0 && self.overflow.is_empty() && self.sparse.len() < SPARSE_MAX {
            // `stored` deliberately not touched: the sparse heap counts
            // itself (see `pending`), keeping this path store-free.
            self.sparse.push(SparseEv::new(at, seq, target, msg));
            return;
        }
        self.schedule_dense(Scheduled { at, seq, target, msg });
    }

    /// The dense half of [`Self::schedule_at`]: spills the sparse heap
    /// into the wheel when it just overflowed, then files the event.
    /// Outlined so the sparse fast path stays inlinable.
    #[inline(never)]
    fn schedule_dense(&mut self, ev: Scheduled<M>) {
        if self.nonempty == 0 && self.overflow.is_empty() {
            // The sparse heap is full: spill it into the wheel and file
            // normally from here on. Runs once per transition from the
            // sparse to the dense regime.
            while let Some(prev) = self.sparse.pop() {
                self.stored += 1;
                self.file(prev.into_scheduled());
            }
        }
        self.stored += 1;
        self.file(ev);
    }

    /// Schedules `msg` for `target` after `delay` from now.
    pub fn schedule_after(&mut self, delay: SimDuration, target: ActorId, msg: M) {
        self.schedule_at(self.now.saturating_add(delay), target, msg);
    }

    /// Fast path for [`Context::send`](crate::executor::Context::send):
    /// appends straight to the ready ring. Valid only while an instant
    /// is open, which dispatch guarantees.
    #[inline]
    pub(crate) fn push_now(&mut self, target: ActorId, msg: M) {
        debug_assert!(self.instant_open, "push_now outside an open instant");
        // No seq: ring order is positional, and skipping the counter
        // keeps the send fast path to a single deque append.
        self.ring.push_back((target, msg));
    }

    /// Batch variant of [`Self::push_now`]: appends a run of messages
    /// for one target in a single extend, reserving once.
    #[inline]
    pub(crate) fn push_now_many<I>(&mut self, target: ActorId, msgs: I)
    where
        I: IntoIterator<Item = M>,
    {
        debug_assert!(self.instant_open, "push_now outside an open instant");
        self.ring.extend(msgs.into_iter().map(|msg| (target, msg)));
    }

    /// Whether the ready ring holds undelivered events for the open
    /// instant.
    #[inline]
    pub(crate) fn ready_is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Swaps the ready ring into `scratch` (which must be empty), so
    /// the kernel can drain an instant's events without per-event
    /// scheduler calls while sends still append to the (now empty)
    /// ring. The buffers trade places every batch, so both stay warm
    /// and steady state allocates nothing.
    #[inline]
    pub(crate) fn take_ready(&mut self, scratch: &mut VecDeque<(ActorId, M)>) {
        debug_assert!(scratch.is_empty(), "scratch buffer still holds events");
        self.sample_ready_depth();
        std::mem::swap(&mut self.ring, scratch);
    }

    /// Returns undelivered `scratch` events to the queue after a stop
    /// interrupted a batch. The scratch events are older than anything
    /// sent since the swap, so they go back in front. Cold path.
    pub(crate) fn put_back_ready(&mut self, scratch: &mut VecDeque<(ActorId, M)>) {
        scratch.extend(self.ring.drain(..));
        std::mem::swap(&mut self.ring, scratch);
    }

    /// Advances the clock to the next occupied instant and drains its
    /// events into the ready ring. Returns `false` if nothing is
    /// queued. On `true`, the ring is non-empty and `now` is the
    /// instant's timestamp.
    pub(crate) fn open_next_instant(&mut self) -> bool {
        loop {
            if self.nonempty == 0 {
                if let Some(ev) = self.sparse.pop() {
                    // Sparse regime: the heap holds every stored event,
                    // so its minimum opens the next instant. Drain the
                    // run sharing its timestamp — the heap yields equal
                    // times in ascending `seq`, so the ring stays FIFO.
                    debug_assert!(self.overflow.is_empty(), "sparse events beside overflow");
                    debug_assert!(ev.at() >= self.now, "event queue went backwards");
                    self.now = ev.at();
                    self.instant_open = true;
                    self.ring.push_back((ev.target, ev.msg));
                    while self.sparse.peek().is_some_and(|e| e.at() == self.now) {
                        let e = self.sparse.pop().expect("peeked event exists");
                        self.ring.push_back((e.target, e.msg));
                    }
                    self.sample_ready_depth();
                    return true;
                }
                // Wheel empty: jump the clock to the earliest overflow
                // event's horizon window and refile what fits.
                if self.overflow.is_empty() {
                    return false;
                }
                let min_at = self.overflow.iter().map(|e| e.at).min().expect("non-empty");
                let base = SimTime::from_micros(min_at.as_micros() & !((1u64 << HORIZON_BITS) - 1));
                debug_assert!(base > self.now, "overflow event inside the horizon");
                self.now = base;
                self.instant_open = false;
                self.refile_overflow_in_range();
                continue;
            }
            let level = self.nonempty.trailing_zeros() as usize;
            let slot = self.levels[level].occupied.trailing_zeros() as usize;
            let now = self.now.as_micros();
            if level == 0 {
                // All events in a level-0 slot share one timestamp.
                let t = (now & !SLOT_MASK) | slot as u64;
                debug_assert!(t >= now, "event queue went backwards");
                self.now = SimTime::from_micros(t);
                self.instant_open = true;
                let l = &mut self.levels[0];
                let v = &mut l.slots[slot];
                // Cascades can interleave arrivals; restore FIFO by seq
                // when (rarely) needed.
                if !v.windows(2).all(|w| w[0].seq < w[1].seq) {
                    v.sort_unstable_by_key(|e| e.seq);
                    self.stats.sort_repairs += 1;
                }
                l.events -= v.len() as u32;
                l.occupied &= !(1u64 << slot);
                if l.occupied == 0 {
                    self.nonempty &= !1;
                }
                self.stored -= v.len();
                for ev in v.drain(..) {
                    debug_assert!(ev.at == self.now, "level-0 slot mixes instants");
                    self.ring.push_back((ev.target, ev.msg));
                }
                self.sample_ready_depth();
                return true;
            }
            if self.levels[level].slots[slot].len() == 1 {
                // Singleton fast path — the dominant shape for sparse
                // periodic queues: the slot's lone event is the global
                // minimum (level invariant), so deliver it directly
                // instead of cascading it down level by level.
                let l = &mut self.levels[level];
                let ev = l.slots[slot].pop().expect("occupied slot is non-empty");
                l.events -= 1;
                l.occupied &= !(1u64 << slot);
                if l.occupied == 0 {
                    self.nonempty &= !(1 << level);
                }
                debug_assert!(ev.at.as_micros() > now, "stale slot survived advance_to");
                self.stored -= 1;
                self.now = ev.at;
                self.instant_open = true;
                self.ring.push_back((ev.target, ev.msg));
                return true;
            }
            // Coarser slot first: advance to its start and cascade its
            // events down. Each refiles at a strictly lower level (its
            // digit at `level` now matches the clock's), so this loop
            // terminates in at most LEVELS rounds.
            let width_mask = (1u64 << (SLOT_BITS * (level as u32 + 1))) - 1;
            let slot_start = (now & !width_mask) | ((slot as u64) << (SLOT_BITS * level as u32));
            debug_assert!(slot_start > now, "stale slot survived advance_to");
            self.now = SimTime::from_micros(slot_start);
            self.instant_open = false;
            self.cascade_slot(level, slot);
        }
    }

    /// Records the current ring depth into the high-water stat. Called
    /// at dispatch boundaries, not per push (see [`WheelStats`]).
    fn sample_ready_depth(&mut self) {
        if self.ring.len() > self.stats.max_ready_depth {
            self.stats.max_ready_depth = self.ring.len();
        }
    }

    /// Empties `slots[slot]` of `level`, refiling each event relative
    /// to the (already advanced) clock.
    fn cascade_slot(&mut self, level: usize, slot: usize) {
        let l = &mut self.levels[level];
        l.events -= l.slots[slot].len() as u32;
        l.occupied &= !(1u64 << slot);
        if l.occupied == 0 {
            self.nonempty &= !(1 << level);
        }
        // Take the bucket to appease the borrow checker; swap it back
        // afterwards so its capacity is never lost.
        let mut v = std::mem::take(&mut self.levels[level].slots[slot]);
        self.stats.cascades += 1;
        self.stats.refiled += v.len() as u64;
        for ev in v.drain(..) {
            self.file(ev);
        }
        self.levels[level].slots[slot] = v;
    }

    /// Refiles overflow events that the clock's horizon window now
    /// covers.
    fn refile_overflow_in_range(&mut self) {
        let now = self.now.as_micros();
        let mut i = 0;
        while i < self.overflow.len() {
            if (self.overflow[i].at.as_micros() ^ now) >> HORIZON_BITS == 0 {
                let ev = self.overflow.swap_remove(i);
                self.stats.refiled += 1;
                self.file(ev);
            } else {
                i += 1;
            }
        }
    }

    /// Removes and returns the next due event, advancing the clock to
    /// its timestamp. Returns `None` if the queue is empty or a stop was
    /// requested.
    ///
    /// Kept small enough to inline into dispatch loops: the two hot
    /// outcomes (ring pop, sparse-heap pop) return directly and
    /// everything else tails into the outlined wheel path.
    #[inline]
    pub fn pop_due(&mut self) -> Option<Scheduled<M>> {
        if self.stop {
            return None;
        }
        if let Some((target, msg)) = self.ring.pop_front() {
            return Some(Scheduled { at: self.now, seq: 0, target, msg });
        }
        if self.nonempty == 0 {
            if let Some(ev) = self.sparse.pop() {
                // Sparse direct delivery: hand the head back without a
                // ring round-trip; same-instant followers drain to the
                // ring so sends into the open instant order after them.
                self.now = ev.at();
                self.instant_open = true;
                if self.sparse.peek().is_some_and(|e| e.at() == self.now) {
                    self.drain_sparse_run();
                }
                return Some(ev.into_scheduled());
            }
        }
        self.pop_due_wheel()
    }

    /// Moves every sparse-heap event sharing the (just-opened) current
    /// instant into the ready ring, preserving `seq` order. Outlined:
    /// timer collisions are rare in sparse workloads.
    #[inline(never)]
    fn drain_sparse_run(&mut self) {
        while self.sparse.peek().is_some_and(|e| e.at() == self.now) {
            let e = self.sparse.pop().expect("peeked event exists");
            self.ring.push_back((e.target, e.msg));
        }
    }

    /// The wheel half of [`Self::pop_due`]: opens the next instant via
    /// the filing/cascade machinery. Outlined so the sparse fast path
    /// stays inlinable.
    #[inline(never)]
    fn pop_due_wheel(&mut self) -> Option<Scheduled<M>> {
        if !self.open_next_instant() {
            return None;
        }
        let (target, msg) = self.ring.pop_front().expect("opened instant is non-empty");
        Some(Scheduled { at: self.now, seq: 0, target, msg })
    }

    /// [`Self::pop_due`] bounded by `deadline`: returns `None` (without
    /// advancing the clock) when the next event is later than
    /// `deadline` or absent.
    pub fn pop_due_until(&mut self, deadline: SimTime) -> Option<Scheduled<M>> {
        if self.has_event_by(deadline) {
            self.pop_due()
        } else {
            None
        }
    }

    /// Advances the clock to `deadline` with no events to deliver (used
    /// by `run_until` when the queue holds nothing before the deadline).
    /// Closes the current instant: later same-time schedules go through
    /// the wheel again.
    pub fn advance_to(&mut self, deadline: SimTime) {
        debug_assert!(self.ring.is_empty(), "advancing over undelivered events");
        if deadline <= self.now {
            return;
        }
        self.now = deadline;
        self.instant_open = false;
        if self.stored == 0 {
            return;
        }
        // Restore the filing invariant: any slot whose index equals the
        // new clock's digit at that level holds events that belong at a
        // lower level now — left in place they would pop *after* nearer
        // events filed below them. (Delivery-driven advances can't
        // create this state; only jumps across idle time can.)
        let now = deadline.as_micros();
        for level in 1..LEVELS {
            let digit = ((now >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
            if self.levels[level].occupied & (1u64 << digit) != 0 {
                self.cascade_slot(level, digit);
            }
        }
        self.refile_overflow_in_range();
    }

    /// Clears all state back to time zero while retaining every
    /// allocation (slot buckets, ready ring, overflow list), so a
    /// reused scheduler reaches steady state allocation-free.
    pub fn reset(&mut self) {
        for l in &mut self.levels {
            if l.occupied != 0 {
                for s in l.slots.iter_mut() {
                    s.clear();
                }
            }
            l.occupied = 0;
            l.events = 0;
        }
        self.nonempty = 0;
        self.ring.clear();
        self.sparse.clear();
        self.overflow.clear();
        self.stored = 0;
        self.seq = 0;
        self.now = SimTime::ZERO;
        self.stop = false;
        self.instant_open = false;
        self.stats = WheelStats::default();
    }

    /// Publishes the wheel counters onto a [`Telemetry`] bus under
    /// `prefix`. Monotone counts go out as counters (merge by
    /// addition); high-water marks as histogram observations, whose
    /// summary max survives cross-shard merges.
    pub fn export_telemetry(&self, bus: &mut Telemetry, prefix: &str) {
        bus.incr(&format!("{prefix}.events_scheduled"), self.seq);
        bus.incr(&format!("{prefix}.cascades"), self.stats.cascades);
        bus.incr(&format!("{prefix}.events_refiled"), self.stats.refiled);
        bus.incr(&format!("{prefix}.overflow_filed"), self.stats.overflow_filed);
        bus.incr(&format!("{prefix}.sort_repairs"), self.stats.sort_repairs);
        bus.observe(&format!("{prefix}.max_ready_depth"), self.stats.max_ready_depth as f64);
        for (level, &hw) in self.stats.level_high_water.iter().enumerate() {
            if hw > 0 {
                bus.observe(&format!("{prefix}.level{level}_peak_events"), f64::from(hw));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_order(sched: &mut Scheduler<u32>) -> Vec<(SimTime, u32)> {
        let mut out = Vec::new();
        while let Some(ev) = sched.pop_due() {
            out.push((ev.at, ev.msg));
        }
        out
    }

    fn wheel_events<M>(s: &Scheduler<M>) -> usize {
        s.levels.iter().map(|l| l.events as usize).sum()
    }

    #[test]
    fn orders_by_time_then_fifo() {
        let mut s = Scheduler::new();
        let a = ActorId::from_index(0);
        s.schedule_at(SimTime::from_secs(2), a, 10);
        s.schedule_at(SimTime::from_secs(1), a, 20);
        s.schedule_at(SimTime::from_secs(2), a, 11);
        s.schedule_at(SimTime::from_secs(1), a, 21);
        assert_eq!(
            drain_order(&mut s),
            vec![
                (SimTime::from_secs(1), 20),
                (SimTime::from_secs(1), 21),
                (SimTime::from_secs(2), 10),
                (SimTime::from_secs(2), 11),
            ]
        );
    }

    #[test]
    fn same_instant_sends_go_to_open_ring() {
        let mut s = Scheduler::new();
        let a = ActorId::from_index(0);
        s.schedule_at(SimTime::from_secs(1), a, 1);
        s.schedule_at(SimTime::from_secs(1), a, 2);
        let first = s.pop_due().unwrap();
        assert_eq!(first.msg, 1);
        // A cascade send while instant 1s is open: must come after msg 2
        // but before any later event, without touching the wheel.
        s.schedule_at(s.now(), a, 3);
        assert_eq!(wheel_events(&s), 0);
        assert_eq!(s.pop_due().unwrap().msg, 2);
        assert_eq!(s.pop_due().unwrap().msg, 3);
    }

    #[test]
    fn past_schedules_clamp_to_now() {
        let mut s = Scheduler::new();
        let a = ActorId::from_index(0);
        s.schedule_at(SimTime::from_secs(5), a, 1);
        let ev = s.pop_due().unwrap();
        assert_eq!(ev.at, SimTime::from_secs(5));
        s.schedule_at(SimTime::ZERO, a, 2);
        let ev = s.pop_due().unwrap();
        assert_eq!(ev.at, SimTime::from_secs(5), "past event clamps to now");
        assert_eq!(ev.msg, 2);
    }

    #[test]
    fn stop_halts_delivery() {
        let mut s = Scheduler::new();
        let a = ActorId::from_index(0);
        s.schedule_at(SimTime::ZERO, a, 1);
        s.request_stop();
        assert!(s.pop_due().is_none());
        assert!(s.is_stopped());
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn advance_to_closes_instant() {
        let mut s = Scheduler::new();
        let a = ActorId::from_index(0);
        s.schedule_at(SimTime::from_secs(1), a, 1);
        assert_eq!(s.pop_due().unwrap().msg, 1);
        s.advance_to(SimTime::from_secs(10));
        assert_eq!(s.now(), SimTime::from_secs(10));
        // A schedule at the (new) current time must still be delivered.
        s.schedule_at(SimTime::from_secs(10), a, 2);
        let ev = s.pop_due().unwrap();
        assert_eq!((ev.at, ev.msg), (SimTime::from_secs(10), 2));
    }

    #[test]
    fn next_event_time_sees_ring_and_wheel() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let a = ActorId::from_index(0);
        assert_eq!(s.next_event_time(), None);
        s.schedule_at(SimTime::from_secs(3), a, 1);
        assert_eq!(s.next_event_time(), Some(SimTime::from_secs(3)));
        s.schedule_at(SimTime::from_secs(3), a, 2);
        s.pop_due().unwrap();
        // msg 2 now sits in the open ring.
        assert_eq!(s.next_event_time(), Some(SimTime::from_secs(3)));
    }

    #[test]
    fn far_future_event_crosses_every_level() {
        let mut s = Scheduler::new();
        let a = ActorId::from_index(0);
        // ~48 days out: lands at the top wheel level, then cascades.
        // Two events in the same coarse slot defeat the singleton
        // direct-delivery fast path, and the filler events past the
        // sparse-heap capacity force everything through the wheel.
        let far = SimTime::from_micros(48 * 24 * 3600 * 1_000_000);
        let far2 = SimTime::from_micros(48 * 24 * 3600 * 1_000_000 + 7);
        s.schedule_at(far, a, 1);
        s.schedule_at(far2, a, 3);
        for i in 0..SPARSE_MAX as u32 {
            s.schedule_at(SimTime::from_micros(1), a, 100 + i);
        }
        assert_eq!(s.next_event_time(), Some(SimTime::from_micros(1)));
        let order = drain_order(&mut s);
        assert_eq!(order.len(), SPARSE_MAX + 2);
        assert!(order[..SPARSE_MAX].iter().all(|&(at, _)| at == SimTime::from_micros(1)));
        assert_eq!(&order[SPARSE_MAX..], &[(far, 1), (far2, 3)]);
        assert!(s.stats().cascades > 0, "co-sloted 48-day events must cascade");
    }

    #[test]
    fn beyond_horizon_goes_to_overflow_and_back() {
        let mut s = Scheduler::new();
        let a = ActorId::from_index(0);
        // 100 days: beyond the 64^7 µs ≈ 51-day horizon. Lone events
        // park in the sparse heap; filling past its capacity spills
        // them into the wheel, which banishes this one to overflow.
        let huge = SimTime::from_micros(100 * 24 * 3600 * 1_000_000);
        s.schedule_at(huge, a, 9);
        assert_eq!(s.stats().overflow_filed, 0, "a lone event parks in the sparse heap");
        for i in 0..SPARSE_MAX as u32 {
            s.schedule_at(SimTime::from_secs(1), a, 100 + i);
        }
        assert_eq!(s.stats().overflow_filed, 1);
        assert_eq!(s.next_event_time(), Some(SimTime::from_secs(1)));
        for i in 0..SPARSE_MAX as u32 {
            let ev = s.pop_due().unwrap();
            assert_eq!((ev.at, ev.msg), (SimTime::from_secs(1), 100 + i));
        }
        let ev = s.pop_due().unwrap();
        assert_eq!((ev.at, ev.msg), (huge, 9));
        assert_eq!(s.now(), huge);
    }

    #[test]
    fn advance_refiles_stale_slots() {
        let mut s = Scheduler::new();
        let a = ActorId::from_index(0);
        // Fill past the sparse-heap capacity so events actually file
        // into the wheel, then jump the clock so their slot index
        // equals the new clock digit at that level (the "stale slot"
        // hazard): a later-scheduled nearer event must still pop first.
        for i in 0..=SPARSE_MAX as u32 {
            s.schedule_at(SimTime::from_micros(0x125), a, i);
        }
        s.advance_to(SimTime::from_micros(0x121));
        s.schedule_at(SimTime::from_micros(0x123), a, 999);
        let order = drain_order(&mut s);
        assert_eq!(order[0], (SimTime::from_micros(0x123), 999));
        assert_eq!(order.len(), SPARSE_MAX + 2);
        let expect: Vec<(SimTime, u32)> =
            (0..=SPARSE_MAX as u32).map(|i| (SimTime::from_micros(0x125), i)).collect();
        assert_eq!(&order[1..], &expect[..], "stale-slot events must drain FIFO");
    }

    #[test]
    fn sparse_heap_spills_to_wheel_and_returns() {
        let mut s = Scheduler::new();
        let a = ActorId::from_index(0);
        // Pseudo-random times across the sparse/dense boundary: order
        // must be (at, seq) regardless of which regime holds an event.
        let times: Vec<u64> = (0..2 * SPARSE_MAX as u64).map(|i| (i * 2654435761) % 5000).collect();
        for (i, &t) in times.iter().enumerate() {
            s.schedule_at(SimTime::from_micros(t), a, i as u32);
        }
        assert!(wheel_events(&s) > 0, "spill must engage the wheel");
        let order = drain_order(&mut s);
        let mut expect: Vec<(SimTime, u32)> =
            times.iter().enumerate().map(|(i, &t)| (SimTime::from_micros(t), i as u32)).collect();
        expect.sort_by_key(|&(at, i)| (at, i));
        assert_eq!(order, expect);
        // The wheel has drained completely: the next schedule re-enters
        // the sparse regime and never touches the filing machinery.
        s.schedule_at(SimTime::from_secs(10), a, 7);
        assert_eq!(wheel_events(&s), 0, "post-drain schedules re-enter the sparse heap");
        assert_eq!(s.pop_due().unwrap().msg, 7);
    }

    #[test]
    fn reset_retains_capacity_and_restarts_clock() {
        let mut s = Scheduler::new();
        let a = ActorId::from_index(0);
        for i in 0..100u32 {
            s.schedule_at(SimTime::from_millis(u64::from(i)), a, i);
        }
        while s.pop_due().is_some() {}
        s.reset();
        assert_eq!(s.now(), SimTime::ZERO);
        assert_eq!(s.pending(), 0);
        s.schedule_at(SimTime::from_millis(1), a, 7);
        assert_eq!(s.pop_due().unwrap().msg, 7);
    }

    #[test]
    fn pop_due_until_respects_deadline() {
        let mut s = Scheduler::new();
        let a = ActorId::from_index(0);
        s.schedule_at(SimTime::from_secs(5), a, 1);
        assert!(s.pop_due_until(SimTime::from_secs(4)).is_none());
        assert_eq!(s.now(), SimTime::ZERO, "failed bounded pop must not move the clock");
        assert_eq!(s.pop_due_until(SimTime::from_secs(5)).unwrap().msg, 1);
    }

    #[test]
    fn telemetry_export_names_are_stable() {
        let mut s = Scheduler::new();
        let a = ActorId::from_index(0);
        s.schedule_at(SimTime::from_secs(1), a, 1u32);
        s.pop_due().unwrap();
        let mut bus = Telemetry::new();
        s.export_telemetry(&mut bus, "sched");
        assert_eq!(bus.counter("sched.events_scheduled"), 1);
        assert!(bus.histogram("sched.max_ready_depth").is_some());
    }
}
