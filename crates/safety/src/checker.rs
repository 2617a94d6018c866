//! Explicit-state model checking of timed-automata networks.
//!
//! [`Network`] composes automata with CCS-style channel rendezvous and
//! shared discrete time. A [`Property`] states what to verify, once:
//! [`Property::Safety`] asks that no reachable state satisfies a *bad*
//! predicate; [`Property::BoundedResponse`] is the
//! leads-to-within-deadline form clinical interlocks are specified with
//! ("whenever the monitor alarms, the pump is stopped within `T`
//! seconds"). Every check returns a shortest counterexample trace.
//!
//! Clock values are capped at each clock's ceiling (max constant + 1),
//! which preserves all guard/invariant truth values while keeping the
//! state space finite.
//!
//! There are three entry points, and two engines behind them.
//! [`Network::check`] and [`Network::check_with`] run the packed-state
//! engine of [`crate::pack`]: states are bit-packed into `u64` word
//! vectors, interned once in an arena and addressed by `u32` id, with
//! an optional deterministic layer-parallel BFS ([`ExploreMode`]) and
//! clock-activity reduction ([`Reduction`]). [`Network::check_reference`]
//! runs the original map-of-cloned-states engine, the differential
//! oracle for the packed one. Both engines check the same [`Property`]
//! value through the same monitor, so oracle and engine cannot differ
//! in what they verify.

use crate::automaton::{Action, Automaton};
use crate::pack::{Engine, ExploreMode, ExploreStats, PackedLayout, Reduction};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// A network of automata composed in parallel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    pub(crate) automata: Vec<Automaton>,
    pub(crate) ceilings: Vec<Vec<u32>>,
}

/// The discrete state of a network: one location per automaton plus all
/// clock valuations (grouped per automaton).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NetState {
    pub(crate) locs: Vec<u16>,
    pub(crate) clocks: Vec<Vec<u32>>,
}

/// Read-only view of a network state for property predicates.
///
/// Backed either by a [`NetState`] (reference engine, replay) or by the
/// packed engine's flat decode buffers — predicates can't tell the
/// difference.
#[derive(Debug, Clone, Copy)]
pub struct StateView<'a> {
    net: &'a Network,
    locs: &'a [u16],
    clocks: Clocks<'a>,
}

/// Clock storage behind a [`StateView`].
#[derive(Debug, Clone, Copy)]
enum Clocks<'a> {
    /// Per-automaton vectors, as stored in a [`NetState`].
    Nested(&'a [Vec<u32>]),
    /// One flat array with per-automaton offsets (packed engine).
    Flat { vals: &'a [u32], off: &'a [usize] },
}

impl<'a> StateView<'a> {
    pub(crate) fn nested(net: &'a Network, state: &'a NetState) -> Self {
        StateView { net, locs: &state.locs, clocks: Clocks::Nested(&state.clocks) }
    }

    pub(crate) fn flat(
        net: &'a Network,
        locs: &'a [u16],
        vals: &'a [u32],
        off: &'a [usize],
    ) -> Self {
        StateView { net, locs, clocks: Clocks::Flat { vals, off } }
    }
    /// Whether automaton `automaton` (by name) is in location `loc`.
    ///
    /// # Panics
    ///
    /// Panics if the automaton or location does not exist — property
    /// typos should fail loudly, not verify vacuously.
    pub fn in_location(&self, automaton: &str, loc: &str) -> bool {
        let (i, a) = self
            .net
            .automata
            .iter()
            .enumerate()
            .find(|(_, a)| a.name() == automaton)
            .unwrap_or_else(|| panic!("no automaton named {automaton}"));
        let l = a
            .location_id(loc)
            .unwrap_or_else(|| panic!("automaton {automaton} has no location {loc}"));
        self.locs[i] as usize == l.0
    }

    /// The (capped) value of a clock.
    ///
    /// # Panics
    ///
    /// Panics if the automaton or clock does not exist.
    pub fn clock(&self, automaton: &str, clock: &str) -> u32 {
        let (i, a) = self
            .net
            .automata
            .iter()
            .enumerate()
            .find(|(_, a)| a.name() == automaton)
            .unwrap_or_else(|| panic!("no automaton named {automaton}"));
        let c = a
            .clocks()
            .iter()
            .position(|n| n == clock)
            .unwrap_or_else(|| panic!("automaton {automaton} has no clock {clock}"));
        match self.clocks {
            Clocks::Nested(clocks) => clocks[i][c],
            Clocks::Flat { vals, off } => vals[off[i] + c],
        }
    }
}

/// One step in a counterexample trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Step {
    /// An internal edge of one automaton fired.
    Edge {
        /// Automaton name.
        automaton: String,
        /// Edge label.
        label: String,
    },
    /// Two automata synchronized on a channel.
    Sync {
        /// Channel name.
        channel: String,
        /// Sending automaton.
        sender: String,
        /// Receiving automaton.
        receiver: String,
    },
    /// One time unit passed.
    Delay,
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Edge { automaton, label } => write!(f, "{automaton}.{label}"),
            Step::Sync { channel, sender, receiver } => {
                write!(f, "{sender} -{channel}-> {receiver}")
            }
            Step::Delay => f.write_str("delay(1)"),
        }
    }
}

/// A counterexample: the steps from the initial state to the violation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// The steps, in order.
    pub steps: Vec<Step>,
}

impl Trace {
    /// Total model time elapsed along the trace.
    pub fn elapsed(&self) -> u32 {
        self.steps.iter().filter(|s| matches!(s, Step::Delay)).count() as u32
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = 0u32;
        for s in &self.steps {
            if matches!(s, Step::Delay) {
                t += 1;
            } else {
                writeln!(f, "  t={t:>4}  {s}")?;
            }
        }
        writeln!(f, "  t={t:>4}  << violation >>")
    }
}

/// Result of a verification run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CheckOutcome {
    /// The property holds on the entire reachable state space.
    Holds {
        /// Distinct states explored.
        states: usize,
    },
    /// The property is violated; a shortest trace is attached.
    Violated {
        /// Shortest counterexample.
        trace: Trace,
        /// Distinct states explored before the violation.
        states: usize,
    },
    /// The exploration hit the state budget before finishing.
    Exhausted {
        /// The budget that was exhausted.
        budget: usize,
    },
}

impl CheckOutcome {
    /// Whether the property was proven to hold.
    pub fn holds(&self) -> bool {
        matches!(self, CheckOutcome::Holds { .. })
    }

    /// The counterexample, if violated.
    pub fn trace(&self) -> Option<&Trace> {
        match self {
            CheckOutcome::Violated { trace, .. } => Some(trace),
            _ => None,
        }
    }
}

/// A state predicate of a [`Property`]. Non-capturing closures
/// coerce to it: `|v| v.in_location("pump", "Stopped")`.
pub type Pred = fn(&StateView<'_>) -> bool;

/// A model-checkable property, stated once and checked by either engine
/// ([`Network::check_with`] or the oracle [`Network::check_reference`]).
#[derive(Debug, Clone, Copy)]
pub enum Property {
    /// No reachable state satisfies `bad`.
    Safety {
        /// The forbidden-state predicate.
        bad: Pred,
    },
    /// Whenever `p` holds, `q` holds within `deadline` time units, over
    /// all reachable behaviours. The pending obligation's age is
    /// tracked through the exploration as part of the state.
    BoundedResponse {
        /// The trigger.
        p: Pred,
        /// The response that discharges the obligation.
        q: Pred,
        /// Time units within which `q` must follow `p`.
        deadline: u32,
    },
}

impl Property {
    /// Distinct obligation encodings a checked state carries: 1 for
    /// safety, `deadline + 2` for bounded response (`None` plus ages
    /// `0..=deadline`).
    pub(crate) fn pending_values(self) -> u64 {
        match self {
            Property::Safety { .. } => 1,
            Property::BoundedResponse { deadline, .. } => u64::from(deadline) + 2,
        }
    }

    /// The state monitor both engines run: judges one (state,
    /// obligation age) pair and returns the age to store with the state.
    pub(crate) fn monitor(self, view: &StateView<'_>, pending: Option<u32>) -> MonitorVerdict {
        match self {
            Property::Safety { bad } => {
                if bad(view) {
                    MonitorVerdict::Bad
                } else {
                    MonitorVerdict::Ok(None)
                }
            }
            // Tracks a pending "respond by `deadline`" obligation.
            Property::BoundedResponse { p, q, deadline } => match pending {
                // An obligation older than the deadline is a violation
                // even if `q` holds *now*: it arrived too late.
                Some(age) if age > deadline => MonitorVerdict::Bad,
                // `q` at or before the deadline discharges it.
                _ if q(view) => MonitorVerdict::Ok(None),
                Some(age) => MonitorVerdict::Ok(Some(age)),
                // `p` without `q` opens one.
                None => MonitorVerdict::Ok(p(view).then_some(0)),
            },
        }
    }
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct Key {
    state: NetState,
    pending: Option<u32>,
}

impl Network {
    /// Composes automata in parallel.
    ///
    /// # Panics
    ///
    /// Panics if any automaton is invalid or two automata share a name.
    pub fn new(automata: Vec<Automaton>) -> Self {
        for a in &automata {
            if let Err(e) = a.validate() {
                panic!("invalid automaton: {e}");
            }
        }
        for (i, a) in automata.iter().enumerate() {
            if automata[i + 1..].iter().any(|b| b.name() == a.name()) {
                panic!("duplicate automaton name {}", a.name());
            }
        }
        let ceilings = automata.iter().map(|a| a.clock_ceilings()).collect();
        Network { automata, ceilings }
    }

    /// The composed automata.
    pub fn automata(&self) -> &[Automaton] {
        &self.automata
    }

    /// The initial network state.
    pub fn initial_state(&self) -> NetState {
        NetState {
            locs: self.automata.iter().map(|a| a.initial().0 as u16).collect(),
            clocks: self.automata.iter().map(|a| vec![0; a.clocks().len()]).collect(),
        }
    }

    fn edge_enabled(&self, i: usize, e: &crate::automaton::Edge, s: &NetState) -> bool {
        s.locs[i] as usize == e.from.0 && e.guard.eval(&s.clocks[i]) && {
            // Target invariant must hold after resets.
            let mut clocks = s.clocks[i].clone();
            for r in &e.resets {
                clocks[r.0] = 0;
            }
            self.automata[i].locations()[e.to.0].invariant.eval(&clocks)
        }
    }

    fn apply_edge(&self, i: usize, e: &crate::automaton::Edge, s: &NetState) -> NetState {
        let mut next = s.clone();
        next.locs[i] = e.to.0 as u16;
        for r in &e.resets {
            next.clocks[i][r.0] = 0;
        }
        next
    }

    /// All discrete and delay successors of `s`, with the step taken.
    pub fn successors(&self, s: &NetState) -> Vec<(Step, NetState)> {
        let mut out = Vec::new();
        // Internal edges.
        for (i, a) in self.automata.iter().enumerate() {
            for e in a.edges() {
                if e.action == Action::Internal && self.edge_enabled(i, e, s) {
                    out.push((
                        Step::Edge { automaton: a.name().to_owned(), label: e.label.clone() },
                        self.apply_edge(i, e, s),
                    ));
                }
            }
        }
        // Channel rendezvous.
        for (i, a) in self.automata.iter().enumerate() {
            for e in a.edges() {
                let Action::Send(chan) = &e.action else { continue };
                if !self.edge_enabled(i, e, s) {
                    continue;
                }
                for (j, b) in self.automata.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    for e2 in b.edges() {
                        if e2.action == Action::Recv(chan.clone()) && self.edge_enabled(j, e2, s) {
                            let mid = self.apply_edge(i, e, s);
                            let next = self.apply_edge(j, e2, &mid);
                            out.push((
                                Step::Sync {
                                    channel: chan.clone(),
                                    sender: a.name().to_owned(),
                                    receiver: b.name().to_owned(),
                                },
                                next,
                            ));
                        }
                    }
                }
            }
        }
        // Delay of one time unit.
        if self.delay_allowed(s) {
            let mut next = s.clone();
            for (i, clocks) in next.clocks.iter_mut().enumerate() {
                for (c, v) in clocks.iter_mut().enumerate() {
                    *v = (*v + 1).min(self.ceilings[i][c]);
                }
            }
            out.push((Step::Delay, next));
        }
        out
    }

    fn delay_allowed(&self, s: &NetState) -> bool {
        for (i, a) in self.automata.iter().enumerate() {
            let loc = &a.locations()[s.locs[i] as usize];
            if loc.urgent {
                return false;
            }
            let bumped: Vec<u32> = s.clocks[i]
                .iter()
                .enumerate()
                .map(|(c, &v)| (v + 1).min(self.ceilings[i][c]))
                .collect();
            if !loc.invariant.eval(&bumped) {
                return false;
            }
        }
        true
    }

    /// The packed-state layout this network's checker runs `prop` on;
    /// a bounded-response obligation rides along in the state. Exposed
    /// so tests can round-trip the encoding directly.
    pub fn packed_layout(&self, prop: Property) -> PackedLayout {
        PackedLayout::new(self, prop)
    }

    /// Per-automaton clock ceilings (parallel to [`Self::automata`]).
    pub(crate) fn ceilings(&self) -> &[Vec<u32>] {
        &self.ceilings
    }

    /// Checks `prop`, exploring at most `max_states` distinct states,
    /// on the packed-state engine in [`ExploreMode::Auto`] over the
    /// exact product space ([`Reduction::None`]).
    pub fn check(&self, prop: Property, max_states: usize) -> CheckOutcome {
        self.check_with(prop, max_states, ExploreMode::Auto, Reduction::None).0
    }

    /// [`Self::check`] with an explicit [`ExploreMode`] and
    /// [`Reduction`], returning exploration statistics alongside the
    /// verdict (for benches and perf baselines).
    ///
    /// With [`Reduction::ClockActive`], the property's predicates must
    /// not read clocks through [`StateView::clock`] unless the owning
    /// automaton constrains them in the relevant locations — inactive
    /// clocks are normalized to their ceiling.
    pub fn check_with(
        &self,
        prop: Property,
        max_states: usize,
        mode: ExploreMode,
        reduction: Reduction,
    ) -> (CheckOutcome, ExploreStats) {
        Engine::new(self, prop, reduction).explore(max_states, mode)
    }

    /// [`Self::check`] on the first-generation engine, which clones
    /// whole states into a `HashMap`-backed visited set. Kept as the
    /// differential oracle the packed engine is tested against.
    pub fn check_reference(&self, prop: Property, max_states: usize) -> CheckOutcome {
        let init = self.initial_state();
        let init_pending = match prop.monitor(&StateView::nested(self, &init), None) {
            MonitorVerdict::Bad => {
                return CheckOutcome::Violated { trace: Trace { steps: vec![] }, states: 1 }
            }
            MonitorVerdict::Ok(p) => p,
        };
        let init_key = Key { state: init, pending: init_pending };
        let mut parents: HashMap<Key, Option<(Key, Step)>> = HashMap::new();
        parents.insert(init_key.clone(), None);
        let mut queue = VecDeque::new();
        queue.push_back(init_key);
        while let Some(key) = queue.pop_front() {
            for (step, next) in self.successors(&key.state) {
                // Delay ages the obligation; discrete steps don't.
                let aged = match (&step, key.pending) {
                    (Step::Delay, Some(a)) => Some(a + 1),
                    (_, p) => p,
                };
                let pending = match prop.monitor(&StateView::nested(self, &next), aged) {
                    MonitorVerdict::Bad => {
                        let mut steps = vec![step.clone()];
                        let mut cur = Some(&key);
                        while let Some(k) = cur {
                            match parents.get(k).and_then(|p| p.as_ref()) {
                                Some((pk, ps)) => {
                                    steps.push(ps.clone());
                                    cur = Some(pk);
                                }
                                None => break,
                            }
                        }
                        steps.reverse();
                        return CheckOutcome::Violated {
                            trace: Trace { steps },
                            states: parents.len(),
                        };
                    }
                    MonitorVerdict::Ok(p) => p,
                };
                let next_key = Key { state: next, pending };
                if !parents.contains_key(&next_key) {
                    if parents.len() >= max_states {
                        return CheckOutcome::Exhausted { budget: max_states };
                    }
                    parents.insert(next_key.clone(), Some((key.clone(), step)));
                    queue.push_back(next_key);
                }
            }
        }
        CheckOutcome::Holds { states: parents.len() }
    }

    /// Renders a state view factory for ad-hoc inspection (used by
    /// tests and diagnostics).
    pub fn view<'a>(&'a self, state: &'a NetState) -> StateView<'a> {
        StateView::nested(self, state)
    }

    /// Replays a trace from the initial state, returning the state it
    /// ends in, or `None` if some step is not actually enabled — i.e.
    /// the trace is *not* a real behaviour of this network. Used to
    /// validate counterexamples independently of the search.
    pub fn replay(&self, trace: &Trace) -> Option<NetState> {
        let mut state = self.initial_state();
        for step in &trace.steps {
            let successors = self.successors(&state);
            state = successors.into_iter().find(|(s, _)| s == step).map(|(_, n)| n)?;
        }
        Some(state)
    }
}

/// What a state monitor concluded about one (state, obligation) pair.
pub(crate) enum MonitorVerdict {
    /// No violation; carries the obligation age to store in the state.
    Ok(Option<u32>),
    /// The property is violated here.
    Bad,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::{Action, Automaton, Guard};

    /// A lamp that turns off 3–5 time units after being switched on,
    /// and a hand that presses the switch once.
    fn lamp_network(lamp_timeout_hi: u32) -> Network {
        let mut lb = Automaton::builder("lamp");
        let x = lb.clock("x");
        let off = lb.location("Off");
        let on = lb.location("On");
        lb.invariant(on, Guard::Le(x, lamp_timeout_hi));
        lb.edge("press", off, on, Guard::True, Action::Recv("press".into()), vec![x]);
        lb.edge("timeout", on, off, Guard::Ge(x, 3), Action::Internal, vec![]);
        let lamp = lb.build();

        let mut hb = Automaton::builder("hand");
        let idle = hb.location("Idle");
        let done = hb.location("Done");
        hb.edge("press", idle, done, Guard::True, Action::Send("press".into()), vec![]);
        let hand = hb.build();

        Network::new(vec![lamp, hand])
    }

    #[test]
    fn safety_holds_on_simple_network() {
        let net = lamp_network(5);
        // The lamp can never be on with x > 5 (invariant forbids it).
        let bad: Pred = |v| v.in_location("lamp", "On") && v.clock("lamp", "x") > 5;
        let out = net.check(Property::Safety { bad }, 100_000);
        assert!(out.holds(), "{out:?}");
    }

    #[test]
    fn safety_violation_found_with_trace() {
        let net = lamp_network(5);
        // "The lamp is never on" is false; shortest trace is one sync.
        let out = net.check(Property::Safety { bad: |v| v.in_location("lamp", "On") }, 100_000);
        let trace = out.trace().expect("should be violated");
        assert_eq!(trace.steps.len(), 1);
        assert!(matches!(&trace.steps[0], Step::Sync { channel, .. } if channel == "press"));
    }

    #[test]
    fn bounded_response_holds() {
        let net = lamp_network(5);
        // Whenever the lamp is on, it is off within 5 units.
        let out = net.check(
            Property::BoundedResponse {
                p: |v| v.in_location("lamp", "On"),
                q: |v| v.in_location("lamp", "Off"),
                deadline: 5,
            },
            100_000,
        );
        assert!(out.holds(), "{out:?}");
    }

    #[test]
    fn bounded_response_fails_with_tight_deadline() {
        let net = lamp_network(5);
        // Off within 2 is violated (the lamp may stay on up to 5).
        let out = net.check(
            Property::BoundedResponse {
                p: |v| v.in_location("lamp", "On"),
                q: |v| v.in_location("lamp", "Off"),
                deadline: 2,
            },
            100_000,
        );
        let trace = out.trace().expect("should be violated");
        assert!(trace.elapsed() >= 3, "needs ≥3 delays, got {}", trace.elapsed());
    }

    #[test]
    fn invariant_forces_progress() {
        // Lamp with timeout window [3,5]: after 5 units in On, delay is
        // forbidden, so the timeout edge must fire.
        let net = lamp_network(5);
        let out = net.check(
            Property::BoundedResponse {
                p: |v| v.in_location("lamp", "On"),
                q: |v| v.in_location("lamp", "Off"),
                deadline: 6,
            },
            100_000,
        );
        assert!(out.holds());
    }

    #[test]
    fn urgent_location_blocks_delay() {
        let mut b = Automaton::builder("urgent");
        let a0 = b.location("A");
        let a1 = b.urgent_location("B");
        let a2 = b.location("C");
        b.edge("go", a0, a1, Guard::True, Action::Internal, vec![]);
        b.edge("now", a1, a2, Guard::True, Action::Internal, vec![]);
        let net = Network::new(vec![b.build()]);
        let s0 = net.initial_state();
        // From A: internal edge + delay.
        let succ0 = net.successors(&s0);
        assert!(succ0.iter().any(|(s, _)| matches!(s, Step::Delay)));
        // From B (urgent): no delay successor.
        let (_, s1) = succ0
            .iter()
            .find(|(s, _)| matches!(s, Step::Edge { label, .. } if label == "go"))
            .unwrap();
        let succ1 = net.successors(s1);
        assert!(!succ1.iter().any(|(s, _)| matches!(s, Step::Delay)));
    }

    #[test]
    fn exhaustion_reports_budget() {
        let net = lamp_network(5);
        let out = net.check(Property::Safety { bad: |_| false }, 3);
        assert_eq!(out, CheckOutcome::Exhausted { budget: 3 });
    }

    #[test]
    #[should_panic(expected = "duplicate automaton name")]
    fn duplicate_names_rejected() {
        let a = Automaton::builder("x");
        let mut a = a;
        a.location("L");
        let a1 = a.build();
        let mut b = Automaton::builder("x");
        b.location("L");
        let a2 = b.build();
        let _ = Network::new(vec![a1, a2]);
    }

    #[test]
    #[should_panic(expected = "no automaton named")]
    fn property_typo_fails_loudly() {
        let net = lamp_network(5);
        let _ = net.check(Property::Safety { bad: |v| v.in_location("lampp", "On") }, 10);
    }

    #[test]
    fn clock_capping_keeps_space_finite() {
        // An automaton with one location and one clock but no guards:
        // state space must be tiny despite unbounded time.
        let mut b = Automaton::builder("idle");
        b.clock("x");
        b.location("L");
        let net = Network::new(vec![b.build()]);
        let out = net.check(Property::Safety { bad: |_| false }, 1_000);
        match out {
            CheckOutcome::Holds { states } => assert!(states <= 3, "states={states}"),
            other => panic!("{other:?}"),
        }
    }
}
