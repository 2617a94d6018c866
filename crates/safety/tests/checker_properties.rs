//! Property-based tests of the model checker on randomly generated
//! timed-automata networks.

use mcps_safety::automaton::{Action, Automaton, Guard, LocId};
use mcps_safety::checker::{CheckOutcome, Network, Pred, Property};
use mcps_safety::pack::{ExploreMode, Reduction};
use proptest::prelude::*;

/// Strategy: a random automaton with `n_locs` locations, one clock,
/// and random guarded internal edges (optionally one send/recv pair of
/// channels shared across the network).
fn arb_automaton(
    name: String,
    n_locs: usize,
    edges: Vec<(usize, usize, u32, bool)>,
    invariant_bound: Option<u32>,
) -> Automaton {
    let mut b = Automaton::builder(&name);
    let x = b.clock("x");
    let locs: Vec<LocId> = (0..n_locs).map(|i| b.location(&format!("L{i}"))).collect();
    if let Some(bound) = invariant_bound {
        b.invariant(locs[0], Guard::Le(x, bound));
    }
    for (i, (from, to, bound, reset)) in edges.into_iter().enumerate() {
        let from = locs[from % n_locs];
        let to = locs[to % n_locs];
        let resets = if reset { vec![x] } else { vec![] };
        b.edge(&format!("e{i}"), from, to, Guard::Ge(x, bound % 5), Action::Internal, resets);
    }
    b.build()
}

fn arb_network() -> impl Strategy<Value = Network> {
    let automaton = (
        2usize..5,
        proptest::collection::vec((0usize..5, 0usize..5, 0u32..5, any::<bool>()), 0..6),
        proptest::option::of(1u32..6),
    );
    proptest::collection::vec(automaton, 1..3).prop_map(|specs| {
        let automata = specs
            .into_iter()
            .enumerate()
            .map(|(i, (n_locs, edges, inv))| arb_automaton(format!("a{i}"), n_locs, edges, inv))
            .collect();
        Network::new(automata)
    })
}

/// Like [`arb_automaton`] but each edge may also be a send or receive
/// on one of two shared channels, so networks exercise rendezvous.
fn arb_sync_automaton(
    name: String,
    n_locs: usize,
    edges: Vec<(usize, usize, u32, bool, u8)>,
) -> Automaton {
    let mut b = Automaton::builder(&name);
    let x = b.clock("x");
    let locs: Vec<LocId> = (0..n_locs).map(|i| b.location(&format!("L{i}"))).collect();
    for (i, (from, to, bound, reset, act)) in edges.into_iter().enumerate() {
        let from = locs[from % n_locs];
        let to = locs[to % n_locs];
        let resets = if reset { vec![x] } else { vec![] };
        let action = match act % 5 {
            0 | 1 => Action::Internal,
            2 => Action::Send(format!("c{}", act % 2)),
            3 => Action::Recv(format!("c{}", act % 2)),
            _ => Action::Send("c0".into()),
        };
        b.edge(&format!("e{i}"), from, to, Guard::Ge(x, bound % 4), action, resets);
    }
    b.build()
}

/// A network of 2–3 automata with internal, send and receive edges.
fn arb_sync_network() -> impl Strategy<Value = Network> {
    let automaton = (
        2usize..4,
        proptest::collection::vec((0usize..4, 0usize..4, 0u32..4, any::<bool>(), 0u8..5), 1..5),
    );
    proptest::collection::vec(automaton, 2..4).prop_map(|specs| {
        let automata = specs
            .into_iter()
            .enumerate()
            .map(|(i, (n_locs, edges))| arb_sync_automaton(format!("a{i}"), n_locs, edges))
            .collect();
        Network::new(automata)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `false` is never reachable: the checker always returns Holds
    /// (or hits its budget) and never fabricates a violation.
    #[test]
    fn no_false_violations(net in arb_network()) {
        let out = net.check(Property::Safety { bad: |_| false }, 200_000);
        prop_assert!(!matches!(out, CheckOutcome::Violated { .. }), "{out:?}");
    }

    /// The checker is deterministic: two runs agree exactly.
    #[test]
    fn checker_is_deterministic(net in arb_network()) {
        let bad: Pred = |v| v.in_location("a0", "L1");
        let a = net.check(Property::Safety { bad }, 200_000);
        let b = net.check(Property::Safety { bad }, 200_000);
        prop_assert_eq!(a, b);
    }

    /// Every counterexample the checker returns replays as a genuine
    /// behaviour of the network, and its final state is actually bad.
    #[test]
    fn counterexamples_replay(net in arb_network()) {
        let bad: Pred = |v| v.in_location("a0", "L1");
        if let CheckOutcome::Violated { trace, .. } = net.check(Property::Safety { bad }, 200_000) {
            let end = net.replay(&trace).expect("trace must be executable");
            prop_assert!(bad(&net.view(&end)), "replayed end state is not bad");
        }
    }

    /// Reachability of a location is monotone in the exploration
    /// budget: if a violation is found with a small budget, it is also
    /// found with a larger one (and with the same shortest length).
    #[test]
    fn violations_stable_under_bigger_budget(net in arb_network()) {
        let bad: Pred = |v| v.in_location("a0", "L1");
        if let CheckOutcome::Violated { trace, .. } = net.check(Property::Safety { bad }, 50_000) {
            match net.check(Property::Safety { bad }, 500_000) {
                CheckOutcome::Violated { trace: bigger, .. } => {
                    prop_assert_eq!(trace.steps.len(), bigger.steps.len());
                }
                other => prop_assert!(false, "lost violation: {:?}", other),
            }
        }
    }

    /// Packed encode/decode is the identity on every reachable state,
    /// for every obligation age the layout admits.
    #[test]
    fn packed_encoding_roundtrips(net in arb_sync_network(), deadline in 0u32..7) {
        let prop = Property::BoundedResponse { p: |_| false, q: |_| false, deadline };
        let layout = net.packed_layout(prop);
        let mut frontier = vec![net.initial_state()];
        let mut seen = 0usize;
        while let Some(s) = frontier.pop() {
            seen += 1;
            if seen > 64 {
                break;
            }
            for pending in (0..=deadline).map(Some).chain([None]) {
                let words = layout.encode(&s, pending);
                prop_assert_eq!(words.len(), layout.words_per_state());
                let (back, p) = layout.decode(&words);
                prop_assert_eq!(&back, &s);
                prop_assert_eq!(p, pending);
            }
            if seen < 32 {
                frontier.extend(net.successors(&s).into_iter().map(|(_, n)| n));
            }
        }
    }

    /// The packed engine agrees with the reference engine on verdict,
    /// state count and counterexample — full `CheckOutcome` equality —
    /// for plain safety checks on rendezvous-heavy random networks.
    #[test]
    fn packed_safety_matches_reference(net in arb_sync_network()) {
        let prop = Property::Safety { bad: |v| v.in_location("a0", "L1") };
        let reference = net.check_reference(prop, 100_000);
        let packed = net.check_with(prop, 100_000, ExploreMode::Serial, Reduction::None).0;
        prop_assert_eq!(&reference, &packed);
        let parallel = net.check_with(prop, 100_000, ExploreMode::Parallel, Reduction::None).0;
        prop_assert_eq!(&reference, &parallel);
    }

    /// Same for bounded response, where the obligation age is part of
    /// the packed state.
    #[test]
    fn packed_bounded_response_matches_reference(net in arb_sync_network(), d in 0u32..5) {
        let prop = Property::BoundedResponse {
            p: |v| v.in_location("a0", "L0"),
            q: |v| v.in_location("a1", "L1"),
            deadline: d,
        };
        let reference = net.check_reference(prop, 100_000);
        let packed = net.check_with(prop, 100_000, ExploreMode::Serial, Reduction::None).0;
        prop_assert_eq!(&reference, &packed);
        let parallel = net.check_with(prop, 100_000, ExploreMode::Parallel, Reduction::None).0;
        prop_assert_eq!(&reference, &parallel);
    }

    /// Budget exhaustion fires at exactly the same point in both
    /// engines — the packed engine must not intern more or fewer
    /// states before giving up.
    #[test]
    fn packed_exhaustion_matches_reference(net in arb_sync_network(), budget in 1usize..40) {
        let prop = Property::Safety { bad: |_| false };
        let reference = net.check_reference(prop, budget);
        let packed = net.check_with(prop, budget, ExploreMode::Serial, Reduction::None).0;
        prop_assert_eq!(&reference, &packed);
        let parallel = net.check_with(prop, budget, ExploreMode::Parallel, Reduction::None).0;
        prop_assert_eq!(&reference, &parallel);
    }

    /// Bounded response with an enormous deadline follows from plain
    /// unreachability: if Q's negation is unreachable-from-P never
    /// flagged at deadline 0, it can't be flagged at a huge deadline...
    /// concretely: deadline monotonicity — a property that holds at a
    /// small deadline also holds at any larger one.
    #[test]
    fn bounded_response_monotone_in_deadline(net in arb_network(), d in 0u32..6) {
        let p: Pred = |v| v.in_location("a0", "L0");
        let q: Pred = |v| v.in_location("a0", "L1");
        let small = net.check(Property::BoundedResponse { p, q, deadline: d }, 300_000);
        if small.holds() {
            let big = net.check(Property::BoundedResponse { p, q, deadline: d + 3 }, 300_000);
            prop_assert!(
                !matches!(big, CheckOutcome::Violated { .. }),
                "holds at {d} but violated at {}: {:?}",
                d + 3,
                big
            );
        }
    }
}
