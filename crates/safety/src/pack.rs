//! The packed-state exploration core of the model checker.
//!
//! The first-generation engine allocated a [`NetState`] per explored
//! state and cloned full states as SipHash map keys for the visited
//! set and the parent map; allocation and hashing dominated the run
//! time. This module rebuilds exploration the way UPPAAL-lineage
//! checkers do:
//!
//! * **Bit-packed states** — [`PackedLayout`] precomputes, per
//!   automaton, how many bits a location index and each ceiling-capped
//!   clock need, and packs a whole network state (plus the
//!   bounded-response obligation age) into a fixed-width `u64` word
//!   vector, usually one or two words.
//! * **Interned arena** — every distinct packed state is appended once
//!   to a `StateArena` and addressed by `u32` id everywhere else:
//!   the BFS frontier is a `Vec<u32>`, the visited set an
//!   open-addressing id table hashed with `fxhash`, and the parent map
//!   a dense `Vec<(u32, CStep)>` indexed by id. Successor generation
//!   and trace reconstruction never clone a state.
//! * **Deterministic layer-parallel BFS** — one depth layer at a time
//!   is split across worker threads (via
//!   [`mcps_runtime::shard::run_shards`], the workspace's
//!   order-preserving worker pool) and the discovered successors are
//!   merged in worker-index order, so verdicts, counterexample traces
//!   and state counts are bit-identical to the serial engine — proven
//!   by differential tests against the retained reference engine
//!   ([`Network::check_reference`]), which checks the very same
//!   [`Property`] value through the same monitor.
//!
//! An optional **clock-activity reduction** ([`Reduction::ClockActive`])
//! shrinks the explored space further by normalizing *inactive* clocks
//! — clocks whose current value cannot influence any guard or
//! invariant before their next reset — to a canonical value before
//! interning, merging states that differ only in dead clock readings.
//!
//! [`NetState`]: crate::checker::NetState

use crate::automaton::{bits_for, Action, ClockId, Edge};
use crate::checker::{
    CheckOutcome, MonitorVerdict, NetState, Network, Property, StateView, Step, Trace,
};
use fxhash::FxHashMap;
use std::ops::ControlFlow;

/// Id of the initial state's (absent) parent in the dense parent map.
const NO_PARENT: u32 = u32::MAX;

/// Empty slot marker in the open-addressing visited table.
const EMPTY: u32 = u32::MAX;

/// Below this frontier width, `ExploreMode::Auto` stays serial: the
/// per-layer thread fan-out costs more than it saves.
const AUTO_PAR_MIN_LAYER: usize = 2048;

/// How the exploration engine schedules BFS layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExploreMode {
    /// Single-threaded exploration.
    Serial,
    /// Layer-parallel exploration for every non-trivial layer (used by
    /// the determinism tests; prefer `Auto` otherwise).
    Parallel,
    /// Layer-parallel only for layers wide enough to amortize the
    /// thread fan-out; serial below that. The default.
    #[default]
    Auto,
}

/// State-space reduction applied by the exploration engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Reduction {
    /// Explore the exact product state space — bit-identical to the
    /// reference engine (states, verdicts, traces). The default.
    #[default]
    None,
    /// Inactive-clock normalization (Daws/Yovine-style clock-activity
    /// symmetry): a per-location static analysis marks each clock
    /// *active* where its value can still reach a guard or invariant
    /// before being reset; everywhere else the clock is normalized to
    /// its ceiling before the state is interned. States differing only
    /// in dead clock readings merge, shrinking the space without
    /// changing any verdict — enabledness never reads an inactive
    /// clock, and counterexample traces remain real behaviours of the
    /// unreduced network (they replay on [`Network::replay`]).
    ///
    /// Property predicates must not read a clock (via
    /// [`StateView::clock`]) in locations where its automaton no
    /// longer constrains it — they would observe the canonical ceiling
    /// instead of the concrete value.
    ClockActive,
}

/// The clock-activity table behind [`Reduction::ClockActive`]: for
/// every (automaton, location, clock), whether the clock's value can
/// influence a future guard or invariant before its next reset.
///
/// Computed by a backward fixpoint per automaton: a clock is active in
/// a location if the location's invariant or an outgoing edge's guard
/// mentions it, or some outgoing edge that does not reset it leads to
/// a location where it is active.
#[derive(Debug)]
struct ClockActivity {
    /// Per automaton: `active[loc * n_clocks + clock]`.
    active: Vec<Vec<bool>>,
}

impl ClockActivity {
    /// Builds the table, or `None` when every clock is active in every
    /// location (normalization would be a no-op).
    fn new(net: &Network) -> Option<ClockActivity> {
        let mut any_inactive = false;
        let active: Vec<Vec<bool>> = net
            .automata()
            .iter()
            .map(|a| {
                let nc = a.clocks().len();
                let mut act = vec![false; a.locations().len() * nc];
                for (li, loc) in a.locations().iter().enumerate() {
                    for c in 0..nc {
                        act[li * nc + c] = loc.invariant.mentions(ClockId(c));
                    }
                }
                for e in a.edges() {
                    for c in 0..nc {
                        if e.guard.mentions(ClockId(c)) {
                            act[e.from.0 * nc + c] = true;
                        }
                    }
                }
                let mut changed = true;
                while changed {
                    changed = false;
                    for e in a.edges() {
                        for c in 0..nc {
                            if act[e.to.0 * nc + c]
                                && !act[e.from.0 * nc + c]
                                && !e.resets.iter().any(|r| r.0 == c)
                            {
                                act[e.from.0 * nc + c] = true;
                                changed = true;
                            }
                        }
                    }
                }
                any_inactive |= act.iter().any(|&b| !b);
                act
            })
            .collect();
        any_inactive.then_some(ClockActivity { active })
    }
}

/// Statistics of one exploration run, for perf baselines and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreStats {
    /// Distinct states interned (including the initial state).
    pub states: usize,
    /// Peak size of the state arena in bytes.
    pub arena_bytes: usize,
    /// `u64` words per packed state.
    pub words_per_state: usize,
    /// BFS layers expanded.
    pub layers: usize,
    /// Widest BFS layer encountered.
    pub peak_layer: usize,
}

/// One bit field inside a packed state word vector.
#[derive(Debug, Clone, Copy)]
struct Field {
    off: u32,
    bits: u32,
}

/// The bit-packed state layout of one [`Network`].
///
/// Fields are laid out in automaton order — each automaton's location
/// index, then its ceiling-capped clocks — followed by one trailing
/// field for the bounded-response obligation age. Widths come from the
/// automaton layout metadata ([`crate::automaton::Automaton::loc_bits`]
/// and [`crate::automaton::Automaton::clock_bits`]), so every value the
/// checker can produce fits its field exactly.
#[derive(Debug, Clone)]
pub struct PackedLayout {
    locs: Vec<Field>,
    clocks: Vec<Field>,
    /// Per-automaton offset into the flat clock array.
    clock_off: Vec<usize>,
    pending: Field,
    words: usize,
}

impl PackedLayout {
    /// Computes the layout for `net` with room for every obligation
    /// encoding `prop` needs ([`Property::pending_values`]).
    pub(crate) fn new(net: &Network, prop: Property) -> Self {
        let mut off = 0u32;
        let mut locs = Vec::new();
        let mut clocks = Vec::new();
        let mut clock_off = Vec::new();
        for a in net.automata() {
            let bits = a.loc_bits();
            locs.push(Field { off, bits });
            off += bits;
            clock_off.push(clocks.len());
            for bits in a.clock_bits() {
                clocks.push(Field { off, bits });
                off += bits;
            }
        }
        let pending = Field { off, bits: bits_for(prop.pending_values() - 1) };
        off += pending.bits;
        let words = (off as usize).div_ceil(64);
        PackedLayout { locs, clocks, clock_off, pending, words: words.max(1) }
    }

    /// `u64` words each packed state occupies.
    pub fn words_per_state(&self) -> usize {
        self.words
    }

    /// Total packed bits per state (locations + clocks + obligation).
    pub fn bits_per_state(&self) -> u32 {
        self.pending.off + self.pending.bits
    }

    /// Packs a [`NetState`] plus obligation age into a fresh word
    /// vector. Clock values must be ceiling-capped (as every state the
    /// checker produces is).
    pub fn encode(&self, state: &NetState, pending: Option<u32>) -> Vec<u64> {
        let mut out = vec![0u64; self.words];
        let flat: Vec<u32> = state.clocks.iter().flatten().copied().collect();
        self.encode_flat(&state.locs, &flat, pending, &mut out);
        out
    }

    /// Unpacks a word vector back into a [`NetState`] and obligation
    /// age. Inverse of [`Self::encode`].
    pub fn decode(&self, words: &[u64]) -> (NetState, Option<u32>) {
        let mut locs = vec![0u16; self.locs.len()];
        let mut flat = vec![0u32; self.clocks.len()];
        let pending = self.decode_flat(words, &mut locs, &mut flat);
        let mut clocks = Vec::with_capacity(self.clock_off.len());
        for (i, &start) in self.clock_off.iter().enumerate() {
            let end = self.clock_off.get(i + 1).copied().unwrap_or(self.clocks.len());
            clocks.push(flat[start..end].to_vec());
        }
        (NetState { locs, clocks }, pending)
    }

    /// Packs flat location/clock arrays into `out` (which must hold
    /// [`Self::words_per_state`] words; it is zeroed first).
    fn encode_flat(&self, locs: &[u16], clocks: &[u32], pending: Option<u32>, out: &mut [u64]) {
        out.fill(0);
        for (f, &l) in self.locs.iter().zip(locs) {
            write_bits(out, f, u64::from(l));
        }
        for (f, &c) in self.clocks.iter().zip(clocks) {
            write_bits(out, f, u64::from(c));
        }
        let p = pending.map_or(0, |a| u64::from(a) + 1);
        write_bits(out, &self.pending, p);
    }

    /// Unpacks a word vector into flat location/clock arrays, returning
    /// the obligation age.
    fn decode_flat(&self, words: &[u64], locs: &mut [u16], clocks: &mut [u32]) -> Option<u32> {
        for (f, l) in self.locs.iter().zip(locs.iter_mut()) {
            *l = read_bits(words, f) as u16;
        }
        for (f, c) in self.clocks.iter().zip(clocks.iter_mut()) {
            *c = read_bits(words, f) as u32;
        }
        match read_bits(words, &self.pending) {
            0 => None,
            p => Some((p - 1) as u32),
        }
    }
}

#[inline]
fn write_bits(words: &mut [u64], f: &Field, val: u64) {
    if f.bits == 0 {
        debug_assert_eq!(val, 0);
        return;
    }
    debug_assert!(f.bits == 64 || val < (1u64 << f.bits), "value {val} overflows {} bits", f.bits);
    let w = (f.off / 64) as usize;
    let s = f.off % 64;
    words[w] |= val << s;
    if s + f.bits > 64 {
        words[w + 1] |= val >> (64 - s);
    }
}

#[inline]
fn read_bits(words: &[u64], f: &Field) -> u64 {
    if f.bits == 0 {
        return 0;
    }
    let w = (f.off / 64) as usize;
    let s = f.off % 64;
    let mut v = words[w] >> s;
    if s + f.bits > 64 {
        v |= words[w + 1] << (64 - s);
    }
    v & (u64::MAX >> (64 - f.bits))
}

/// Append-only interned storage of packed states, addressed by `u32`
/// id. Each state occupies a fixed number of `u64` words.
#[derive(Debug, Clone)]
struct StateArena {
    words: Vec<u64>,
    w: usize,
}

impl StateArena {
    fn new(w: usize) -> Self {
        StateArena { words: Vec::new(), w }
    }

    fn len(&self) -> usize {
        self.words.len() / self.w
    }

    #[inline]
    fn get(&self, id: u32) -> &[u64] {
        let i = id as usize * self.w;
        &self.words[i..i + self.w]
    }

    fn push(&mut self, state: &[u64]) -> u32 {
        let id = self.len();
        assert!(id < u32::MAX as usize, "state arena overflow (>= 2^32 - 1 states)");
        self.words.extend_from_slice(state);
        id as u32
    }

    fn bytes(&self) -> usize {
        self.words.len() * 8
    }
}

/// Open-addressing visited set mapping packed states (stored once in
/// the arena) to their ids. Fx-hashed, linear probing, power-of-two
/// capacity.
#[derive(Debug, Clone)]
struct IdTable {
    slots: Vec<u32>,
    len: usize,
}

enum Lookup {
    // The interned id is read by tests; exploration only needs to know
    // the state was seen.
    Found(#[allow(dead_code)] u32),
    Inserted(u32),
    OverBudget,
}

impl IdTable {
    /// A table pre-sized to hold `expected` states without growing —
    /// each `grow` rehashes every interned state, so a bounded search
    /// that knows its budget should pay for the slots once up front.
    /// Capacity is clamped to \[1024, 2^22\] slots (16 MiB of ids) so an
    /// unbounded budget doesn't pre-commit the address space; beyond
    /// the clamp the table grows as usual.
    fn with_capacity(expected: usize) -> Self {
        let want = (expected.saturating_mul(10) / 7).saturating_add(1);
        let cap = want.clamp(1024, 1 << 22).next_power_of_two();
        IdTable { slots: vec![EMPTY; cap], len: 0 }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Finds `state` or interns it. Refuses the insert (without side
    /// effects) once `budget` states are stored.
    fn lookup_or_insert(&mut self, state: &[u64], arena: &mut StateArena, budget: usize) -> Lookup {
        let mask = self.slots.len() - 1;
        let mut i = (fxhash::hash_words(state) as usize) & mask;
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                if self.len >= budget {
                    return Lookup::OverBudget;
                }
                let id = arena.push(state);
                self.slots[i] = id;
                self.len += 1;
                if self.len * 10 >= self.slots.len() * 7 {
                    self.grow(arena);
                }
                return Lookup::Inserted(id);
            }
            if arena.get(s) == state {
                return Lookup::Found(s);
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self, arena: &StateArena) {
        let mut slots = vec![EMPTY; self.slots.len() * 2];
        let mask = slots.len() - 1;
        for &id in self.slots.iter().filter(|&&s| s != EMPTY) {
            let mut i = (fxhash::hash_words(arena.get(id)) as usize) & mask;
            while slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            slots[i] = id;
        }
        self.slots = slots;
    }
}

/// A compact, name-free step record for the dense parent map. Expanded
/// into a display [`Step`] only during trace reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CStep {
    Edge { aut: u16, edge: u16 },
    Sync { s_aut: u16, s_edge: u16, r_aut: u16, r_edge: u16 },
    Delay,
}

/// Precomputed successor-generation plan: edges grouped by action kind
/// with channels interned to dense ids, so the inner rendezvous loop
/// never compares channel strings, plus the flat clock geometry.
#[derive(Debug)]
struct Plan {
    /// Per automaton: internal edge indices in edge order.
    internal: Vec<Vec<u16>>,
    /// Per automaton: `(edge index, channel id)` for send edges.
    sends: Vec<Vec<(u16, u16)>>,
    /// `[channel id][automaton]` -> receiving edge indices.
    recvs: Vec<Vec<Vec<u16>>>,
    /// Per automaton: offset into the flat clock array.
    clock_off: Vec<usize>,
    /// Ceiling of every clock, flat.
    ceilings_flat: Vec<u32>,
}

impl Plan {
    fn new(net: &Network) -> Self {
        let autos = net.automata();
        let n = autos.len();
        assert!(n <= usize::from(u16::MAX), "too many automata");
        let mut chan_ids: FxHashMap<&str, u16> = FxHashMap::default();
        for a in autos {
            for e in a.edges() {
                if let Action::Send(c) | Action::Recv(c) = &e.action {
                    if !chan_ids.contains_key(c.as_str()) {
                        let id = u16::try_from(chan_ids.len()).expect("too many channels");
                        chan_ids.insert(c, id);
                    }
                }
            }
        }
        let mut internal = vec![Vec::new(); n];
        let mut sends = vec![Vec::new(); n];
        let mut recvs = vec![vec![Vec::new(); n]; chan_ids.len()];
        for (i, a) in autos.iter().enumerate() {
            assert!(a.edges().len() <= usize::from(u16::MAX), "too many edges");
            for (ei, e) in a.edges().iter().enumerate() {
                let ei = ei as u16;
                match &e.action {
                    Action::Internal => internal[i].push(ei),
                    Action::Send(c) => sends[i].push((ei, chan_ids[c.as_str()])),
                    Action::Recv(c) => recvs[usize::from(chan_ids[c.as_str()])][i].push(ei),
                }
            }
        }
        let mut clock_off = Vec::with_capacity(n);
        let mut ceilings_flat = Vec::new();
        for ceil in net.ceilings() {
            clock_off.push(ceilings_flat.len());
            ceilings_flat.extend_from_slice(ceil);
        }
        Plan { internal, sends, recvs, clock_off, ceilings_flat }
    }
}

/// A decoded network state in flat reusable buffers — the only mutable
/// state representation on the hot path.
#[derive(Debug, Clone)]
struct Scratch {
    locs: Vec<u16>,
    clocks: Vec<u32>,
}

impl Scratch {
    #[inline]
    fn copy_from(&mut self, src: &Scratch) {
        self.locs.copy_from_slice(&src.locs);
        self.clocks.copy_from_slice(&src.clocks);
    }
}

/// Reusable successor-generation buffers.
#[derive(Debug)]
struct SuccBufs {
    succ: Scratch,
    tmp: Vec<u32>,
}

/// Per-worker buffers: the decoded parent plus successor scratch.
#[derive(Debug)]
struct WorkBufs {
    parent: Scratch,
    work: SuccBufs,
}

/// Mutable exploration state shared across layers.
struct Search {
    table: IdTable,
    arena: StateArena,
    /// `parents[id] = (parent id, step from parent)`; the initial
    /// state's parent is [`NO_PARENT`].
    parents: Vec<(u32, CStep)>,
    frontier: Vec<u32>,
    next: Vec<u32>,
    word: Vec<u64>,
}

/// Candidate successors produced by one parallel worker, in generation
/// order. `bad` (always last, if present) is a monitor violation that
/// aborted the worker's chunk.
#[derive(Default)]
struct CandBuf {
    words: Vec<u64>,
    meta: Vec<(u32, CStep)>,
    bad: Option<(u32, CStep)>,
}

/// The packed exploration engine, built per
/// [`Network::check_with`] call.
pub(crate) struct Engine<'n> {
    net: &'n Network,
    prop: Property,
    layout: PackedLayout,
    plan: Plan,
    /// Clock-activity table when [`Reduction::ClockActive`] is on and
    /// at least one clock is inactive somewhere; `None` otherwise.
    activity: Option<ClockActivity>,
}

impl<'n> Engine<'n> {
    pub(crate) fn new(net: &'n Network, prop: Property, reduction: Reduction) -> Self {
        let activity = match reduction {
            Reduction::None => None,
            Reduction::ClockActive => ClockActivity::new(net),
        };
        Engine { net, prop, layout: PackedLayout::new(net, prop), plan: Plan::new(net), activity }
    }

    fn initial_scratch(&self) -> Scratch {
        let locs = self.net.automata().iter().map(|a| a.initial().0 as u16).collect();
        let mut s = Scratch { locs, clocks: vec![0; self.plan.ceilings_flat.len()] };
        for i in 0..self.net.automata().len() {
            self.normalize_one(&mut s, i);
        }
        s
    }

    /// Normalizes automaton `i`'s inactive clocks (per its current
    /// location in `s`) to their ceiling — the canonical dead value.
    /// No-op without an activity table.
    #[inline]
    fn normalize_one(&self, s: &mut Scratch, i: usize) {
        let Some(act) = &self.activity else { return };
        let table = &act.active[i];
        let off = self.plan.clock_off[i];
        let nc = self.net.automata()[i].clocks().len();
        let base = usize::from(s.locs[i]) * nc;
        for c in 0..nc {
            if !table[base + c] {
                s.clocks[off + c] = self.plan.ceilings_flat[off + c];
            }
        }
    }

    fn bufs(&self) -> WorkBufs {
        let parent = self.initial_scratch();
        let work = SuccBufs { succ: parent.clone(), tmp: Vec::new() };
        WorkBufs { parent, work }
    }

    #[inline]
    fn flat_view<'a>(&'a self, s: &'a Scratch) -> StateView<'a> {
        StateView::flat(self.net, &s.locs, &s.clocks, &self.plan.clock_off)
    }

    /// Whether `e` of automaton `i` is enabled in `s` (guard holds and
    /// the target invariant survives the resets).
    fn enabled(&self, s: &Scratch, i: usize, e: &Edge, tmp: &mut Vec<u32>) -> bool {
        if usize::from(s.locs[i]) != e.from.0 {
            return false;
        }
        let a = &self.net.automata()[i];
        let off = self.plan.clock_off[i];
        let local = &s.clocks[off..off + a.clocks().len()];
        if !e.guard.eval(local) {
            return false;
        }
        let inv = &a.locations()[e.to.0].invariant;
        if e.resets.is_empty() {
            inv.eval(local)
        } else {
            tmp.clear();
            tmp.extend_from_slice(local);
            for r in &e.resets {
                tmp[r.0] = 0;
            }
            inv.eval(tmp)
        }
    }

    #[inline]
    fn patch(&self, dst: &mut Scratch, i: usize, e: &Edge) {
        dst.locs[i] = e.to.0 as u16;
        let off = self.plan.clock_off[i];
        for r in &e.resets {
            dst.clocks[off + r.0] = 0;
        }
    }

    fn delay_allowed(&self, s: &Scratch, tmp: &mut Vec<u32>) -> bool {
        for (i, a) in self.net.automata().iter().enumerate() {
            let loc = &a.locations()[usize::from(s.locs[i])];
            if loc.urgent {
                return false;
            }
            let off = self.plan.clock_off[i];
            let nc = a.clocks().len();
            tmp.clear();
            for (c, &v) in s.clocks[off..off + nc].iter().enumerate() {
                tmp.push((v + 1).min(self.plan.ceilings_flat[off + c]));
            }
            if !loc.invariant.eval(tmp) {
                return false;
            }
        }
        true
    }

    /// Generates the successors of `s` in the canonical order (internal
    /// edges, channel rendezvous, delay — matching the reference
    /// engine's [`Network::successors`]), calling `emit` for each.
    fn for_each_successor<B>(
        &self,
        s: &Scratch,
        work: &mut SuccBufs,
        mut emit: impl FnMut(CStep, &Scratch) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let autos = self.net.automata();
        for (i, edges) in self.plan.internal.iter().enumerate() {
            for &ei in edges {
                let e = &autos[i].edges()[usize::from(ei)];
                if self.enabled(s, i, e, &mut work.tmp) {
                    work.succ.copy_from(s);
                    self.patch(&mut work.succ, i, e);
                    self.normalize_one(&mut work.succ, i);
                    if let ControlFlow::Break(b) =
                        emit(CStep::Edge { aut: i as u16, edge: ei }, &work.succ)
                    {
                        return ControlFlow::Break(b);
                    }
                }
            }
        }
        for (i, sends) in self.plan.sends.iter().enumerate() {
            for &(ei, chan) in sends {
                let e = &autos[i].edges()[usize::from(ei)];
                if !self.enabled(s, i, e, &mut work.tmp) {
                    continue;
                }
                for (j, recv_edges) in self.plan.recvs[usize::from(chan)].iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    for &ej in recv_edges {
                        let e2 = &autos[j].edges()[usize::from(ej)];
                        if self.enabled(s, j, e2, &mut work.tmp) {
                            work.succ.copy_from(s);
                            self.patch(&mut work.succ, i, e);
                            self.patch(&mut work.succ, j, e2);
                            self.normalize_one(&mut work.succ, i);
                            self.normalize_one(&mut work.succ, j);
                            let step = CStep::Sync {
                                s_aut: i as u16,
                                s_edge: ei,
                                r_aut: j as u16,
                                r_edge: ej,
                            };
                            if let ControlFlow::Break(b) = emit(step, &work.succ) {
                                return ControlFlow::Break(b);
                            }
                        }
                    }
                }
            }
        }
        if self.delay_allowed(s, &mut work.tmp) {
            work.succ.copy_from(s);
            for (c, v) in work.succ.clocks.iter_mut().enumerate() {
                *v = (*v + 1).min(self.plan.ceilings_flat[c]);
            }
            if let ControlFlow::Break(b) = emit(CStep::Delay, &work.succ) {
                return ControlFlow::Break(b);
            }
        }
        ControlFlow::Continue(())
    }

    /// Expands a display [`Step`] from a compact one.
    fn step_of(&self, c: CStep) -> Step {
        let autos = self.net.automata();
        match c {
            CStep::Edge { aut, edge } => {
                let a = &autos[usize::from(aut)];
                Step::Edge {
                    automaton: a.name().to_owned(),
                    label: a.edges()[usize::from(edge)].label.clone(),
                }
            }
            CStep::Sync { s_aut, s_edge, r_aut, r_edge } => {
                let sender = &autos[usize::from(s_aut)];
                let receiver = &autos[usize::from(r_aut)];
                let Action::Send(channel) = &sender.edges()[usize::from(s_edge)].action else {
                    unreachable!("sync step's sender edge is not a send");
                };
                let _ = r_edge;
                Step::Sync {
                    channel: channel.clone(),
                    sender: sender.name().to_owned(),
                    receiver: receiver.name().to_owned(),
                }
            }
            CStep::Delay => Step::Delay,
        }
    }

    /// Rebuilds the shortest trace ending with `last` taken from state
    /// `cur`, by walking the dense parent map.
    fn reconstruct(&self, parents: &[(u32, CStep)], mut cur: u32, last: CStep) -> Trace {
        let mut steps = vec![self.step_of(last)];
        loop {
            let (p, s) = parents[cur as usize];
            if p == NO_PARENT {
                break;
            }
            steps.push(self.step_of(s));
            cur = p;
        }
        steps.reverse();
        Trace { steps }
    }

    /// Explores the reachable state space breadth-first under the
    /// property's monitor, interning every distinct (state, obligation)
    /// pair.
    pub(crate) fn explore(
        &self,
        max_states: usize,
        mode: ExploreMode,
    ) -> (CheckOutcome, ExploreStats) {
        let w = self.layout.words;
        let mut stats = ExploreStats {
            states: 1,
            arena_bytes: 0,
            words_per_state: w,
            layers: 0,
            peak_layer: 0,
        };
        let init = self.initial_scratch();
        let init_pending = match self.prop.monitor(&self.flat_view(&init), None) {
            MonitorVerdict::Bad => {
                return (
                    CheckOutcome::Violated { trace: Trace { steps: vec![] }, states: 1 },
                    stats,
                )
            }
            MonitorVerdict::Ok(p) => p,
        };
        let mut search = Search {
            table: IdTable::with_capacity(max_states),
            arena: StateArena::new(w),
            parents: Vec::new(),
            frontier: Vec::new(),
            next: Vec::new(),
            word: vec![0u64; w],
        };
        self.layout.encode_flat(&init.locs, &init.clocks, init_pending, &mut search.word);
        match search.table.lookup_or_insert(&search.word, &mut search.arena, usize::MAX) {
            Lookup::Inserted(id) => debug_assert_eq!(id, 0),
            _ => unreachable!("initial state must intern as id 0"),
        }
        search.parents.push((NO_PARENT, CStep::Delay));
        search.frontier.push(0);

        let workers = match mode {
            ExploreMode::Serial => 1,
            _ => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        };
        let par_min = match mode {
            ExploreMode::Parallel => 2,
            _ => AUTO_PAR_MIN_LAYER,
        };
        let mut bufs = self.bufs();
        while !search.frontier.is_empty() {
            stats.layers += 1;
            stats.peak_layer = stats.peak_layer.max(search.frontier.len());
            let flow = if workers > 1 && search.frontier.len() >= par_min {
                self.expand_parallel(&mut search, max_states, workers)
            } else {
                self.expand_serial(&mut search, &mut bufs, max_states)
            };
            stats.states = search.table.len();
            stats.arena_bytes = search.arena.bytes();
            if let ControlFlow::Break(out) = flow {
                return (out, stats);
            }
            std::mem::swap(&mut search.frontier, &mut search.next);
            search.next.clear();
        }
        (CheckOutcome::Holds { states: search.table.len() }, stats)
    }

    fn expand_serial(
        &self,
        search: &mut Search,
        bufs: &mut WorkBufs,
        max_states: usize,
    ) -> ControlFlow<CheckOutcome> {
        let Search { table, arena, parents, frontier, next, word } = search;
        for &pid in frontier.iter() {
            let pending = self.layout.decode_flat(
                arena.get(pid),
                &mut bufs.parent.locs,
                &mut bufs.parent.clocks,
            );
            let flow = self.for_each_successor(&bufs.parent, &mut bufs.work, |step, succ| {
                let aged = match step {
                    CStep::Delay => pending.map(|a| a + 1),
                    _ => pending,
                };
                match self.prop.monitor(&self.flat_view(succ), aged) {
                    MonitorVerdict::Bad => ControlFlow::Break(CheckOutcome::Violated {
                        trace: self.reconstruct(parents, pid, step),
                        states: table.len(),
                    }),
                    MonitorVerdict::Ok(p) => {
                        self.layout.encode_flat(&succ.locs, &succ.clocks, p, word);
                        match table.lookup_or_insert(word, arena, max_states) {
                            Lookup::Found(_) => ControlFlow::Continue(()),
                            Lookup::Inserted(id) => {
                                parents.push((pid, step));
                                next.push(id);
                                ControlFlow::Continue(())
                            }
                            Lookup::OverBudget => {
                                ControlFlow::Break(CheckOutcome::Exhausted { budget: max_states })
                            }
                        }
                    }
                }
            });
            if flow.is_break() {
                return flow;
            }
        }
        ControlFlow::Continue(())
    }

    /// Expands one layer across worker threads. Workers only *read* the
    /// arena and produce candidate buffers; the merge loop below
    /// processes them in worker-index order, so interning order — and
    /// with it ids, verdicts, counts and traces — is identical to
    /// [`Self::expand_serial`].
    fn expand_parallel(
        &self,
        search: &mut Search,
        max_states: usize,
        workers: usize,
    ) -> ControlFlow<CheckOutcome> {
        let w = self.layout.words;
        let Search { table, arena, parents, frontier, next, .. } = search;
        let chunk = frontier.len().div_ceil(workers);
        let chunks: Vec<&[u32]> = frontier.chunks(chunk).collect();
        let arena_ref: &StateArena = arena;
        let cand_bufs = mcps_runtime::shard::run_shards(chunks, |ids: &[u32]| {
            let mut bufs = self.bufs();
            let mut word = vec![0u64; w];
            let mut out = CandBuf::default();
            for &pid in ids {
                let pending = self.layout.decode_flat(
                    arena_ref.get(pid),
                    &mut bufs.parent.locs,
                    &mut bufs.parent.clocks,
                );
                let flow = self.for_each_successor(&bufs.parent, &mut bufs.work, |step, succ| {
                    let aged = match step {
                        CStep::Delay => pending.map(|a| a + 1),
                        _ => pending,
                    };
                    match self.prop.monitor(&self.flat_view(succ), aged) {
                        MonitorVerdict::Bad => {
                            out.bad = Some((pid, step));
                            ControlFlow::Break(())
                        }
                        MonitorVerdict::Ok(p) => {
                            self.layout.encode_flat(&succ.locs, &succ.clocks, p, &mut word);
                            out.words.extend_from_slice(&word);
                            out.meta.push((pid, step));
                            ControlFlow::Continue(())
                        }
                    }
                });
                if flow.is_break() {
                    break;
                }
            }
            out
        });
        for buf in &cand_bufs {
            for (k, &(pid, step)) in buf.meta.iter().enumerate() {
                let words = &buf.words[k * w..(k + 1) * w];
                match table.lookup_or_insert(words, arena, max_states) {
                    Lookup::Found(_) => {}
                    Lookup::Inserted(id) => {
                        parents.push((pid, step));
                        next.push(id);
                    }
                    Lookup::OverBudget => {
                        return ControlFlow::Break(CheckOutcome::Exhausted { budget: max_states })
                    }
                }
            }
            if let Some((pid, step)) = buf.bad {
                return ControlFlow::Break(CheckOutcome::Violated {
                    trace: self.reconstruct(parents, pid, step),
                    states: table.len(),
                });
            }
        }
        ControlFlow::Continue(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::{Action, Automaton, Guard};

    fn two_automata_net() -> Network {
        let mut a = Automaton::builder("a");
        let x = a.clock("x");
        let l0 = a.location("L0");
        let l1 = a.location("L1");
        a.invariant(l0, Guard::Le(x, 9));
        a.edge("go", l0, l1, Guard::Ge(x, 2), Action::Internal, vec![x]);
        let mut b = Automaton::builder("b");
        let y = b.clock("y");
        let m0 = b.location("M0");
        b.invariant(m0, Guard::Le(y, 3));
        b.edge("tick", m0, m0, Guard::Ge(y, 1), Action::Internal, vec![y]);
        Network::new(vec![a.build(), b.build()])
    }

    #[test]
    fn bit_rw_roundtrip_within_word() {
        let mut words = [0u64; 2];
        let f1 = Field { off: 3, bits: 7 };
        let f2 = Field { off: 10, bits: 13 };
        write_bits(&mut words, &f1, 100);
        write_bits(&mut words, &f2, 8000);
        assert_eq!(read_bits(&words, &f1), 100);
        assert_eq!(read_bits(&words, &f2), 8000);
    }

    #[test]
    fn bit_rw_roundtrip_across_word_boundary() {
        let mut words = [0u64; 2];
        let f = Field { off: 60, bits: 20 };
        write_bits(&mut words, &f, 0xABCDE);
        assert_eq!(read_bits(&words, &f), 0xABCDE);
        // Bits below the field stay untouched.
        let lo = Field { off: 0, bits: 60 };
        assert_eq!(read_bits(&words, &lo), 0);
    }

    #[test]
    fn zero_bit_fields_read_zero() {
        let words = [u64::MAX];
        let f = Field { off: 5, bits: 0 };
        assert_eq!(read_bits(&words, &f), 0);
    }

    #[test]
    fn layout_roundtrips_reachable_states() {
        let net = two_automata_net();
        let layout = net.packed_layout(Property::BoundedResponse {
            p: |_| false,
            q: |_| false,
            deadline: 7,
        });
        let mut stack = vec![net.initial_state()];
        let mut seen = 0;
        while let Some(s) = stack.pop() {
            if seen > 200 {
                break;
            }
            seen += 1;
            for pending in [None, Some(0), Some(7)] {
                let words = layout.encode(&s, pending);
                assert_eq!(words.len(), layout.words_per_state());
                let (back, p) = layout.decode(&words);
                assert_eq!(back, s);
                assert_eq!(p, pending);
            }
            if seen < 40 {
                stack.extend(net.successors(&s).into_iter().map(|(_, n)| n));
            }
        }
    }

    #[test]
    fn layout_is_compact() {
        let net = two_automata_net();
        let layout = net.packed_layout(Property::Safety { bad: |_| false });
        // 2 one-bit locations (a has 2 locs, b has 1 -> 0 bits), clocks
        // with ceilings 10 and 4 -> 4 + 3 bits, no pending.
        assert!(layout.bits_per_state() <= 10, "bits = {}", layout.bits_per_state());
        assert_eq!(layout.words_per_state(), 1);
    }

    #[test]
    fn arena_and_table_intern_distinct_states() {
        let mut arena = StateArena::new(1);
        let mut table = IdTable::with_capacity(0);
        for v in 0..5000u64 {
            match table.lookup_or_insert(&[v], &mut arena, usize::MAX) {
                Lookup::Inserted(id) => assert_eq!(u64::from(id), v),
                _ => panic!("fresh state must insert"),
            }
        }
        for v in 0..5000u64 {
            match table.lookup_or_insert(&[v], &mut arena, usize::MAX) {
                Lookup::Found(id) => assert_eq!(u64::from(id), v),
                _ => panic!("seen state must be found"),
            }
        }
        assert_eq!(table.len(), 5000);
        assert_eq!(arena.bytes(), 5000 * 8);
    }

    #[test]
    fn table_respects_budget() {
        let mut arena = StateArena::new(1);
        let mut table = IdTable::with_capacity(0);
        for v in 0..3u64 {
            assert!(matches!(table.lookup_or_insert(&[v], &mut arena, 3), Lookup::Inserted(_)));
        }
        assert!(matches!(table.lookup_or_insert(&[99], &mut arena, 3), Lookup::OverBudget));
        // Existing states still found at budget.
        assert!(matches!(table.lookup_or_insert(&[1], &mut arena, 3), Lookup::Found(1)));
    }
}
