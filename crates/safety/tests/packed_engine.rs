//! Conformance tests: the packed-state engine must be observationally
//! identical to the retained first-generation (reference) engine on the
//! E5 verification models and the E13 failover models — same verdicts,
//! same state counts, same counterexample traces — the layer-parallel
//! scheduler must be bit-identical to serial exploration, and the
//! clock-activity reduction must preserve every verdict while shrinking
//! the explored space.

use mcps_safety::models::{failover_model, pca_model, FailoverModelVariant, PcaModelVariant};
use mcps_safety::pack::{ExploreMode, Reduction};
use mcps_safety::CheckOutcome;

const BUDGET: usize = 2_000_000;
const FAILOVER_BUDGET: usize = 8_000_000;

/// The failover variants cheap enough for the *unreduced* space to be
/// explored by the debug-mode reference engine. `SplitBrain` is the
/// outlier (2.35M unreduced states — tens of seconds even in release);
/// it joins the lockstep loops only in release runs (ci runs this suite
/// in release as well), and its reduced check is covered by the
/// `mcps-safety` unit tests in every profile.
fn lockstep_variants() -> Vec<FailoverModelVariant> {
    FailoverModelVariant::ALL
        .into_iter()
        .filter(|v| cfg!(not(debug_assertions)) || *v != FailoverModelVariant::SplitBrain)
        .collect()
}

/// Every E5 variant (correct designs and seeded mutants): full
/// `CheckOutcome` equality between the packed engine and the reference
/// engine, in every exploration mode.
#[test]
fn e5_variants_match_reference_in_all_modes() {
    for variant in PcaModelVariant::ALL {
        let reference = pca_model(variant).check_reference(variant.property(), BUDGET);
        for mode in [ExploreMode::Serial, ExploreMode::Parallel, ExploreMode::Auto] {
            let (packed, stats) =
                pca_model(variant).check_with(variant.property(), BUDGET, mode, Reduction::None);
            assert_eq!(
                reference, packed,
                "{variant:?} in {mode:?} diverged from the reference engine"
            );
            assert!(stats.states > 0, "{variant:?}: no states interned");
            assert_eq!(
                stats.arena_bytes,
                stats.states * stats.words_per_state * 8,
                "{variant:?}: arena size inconsistent with state count"
            );
        }
    }
}

/// The mutants' counterexamples found by the packed engine replay as
/// genuine behaviours ending in a violation-relevant state.
#[test]
fn e5_mutant_counterexamples_replay() {
    for variant in PcaModelVariant::ALL.into_iter().filter(|v| !v.expected_safe()) {
        let (out, _) = pca_model(variant).check_with(
            variant.property(),
            BUDGET,
            ExploreMode::Auto,
            Reduction::None,
        );
        let trace = out.trace().unwrap_or_else(|| panic!("{variant:?} should be violated"));
        let net = pca_model(variant);
        assert!(net.replay(trace).is_some(), "{variant:?}: counterexample does not replay");
    }
}

/// Serial and parallel exploration agree bit-for-bit on verdicts,
/// traces and state counts — including under a budget that exhausts
/// mid-search, where insertion order determines the cutoff point.
#[test]
fn serial_and_parallel_bit_identical_under_exhaustion() {
    for variant in PcaModelVariant::ALL {
        for budget in [100, 5_000, 100_000] {
            let net = pca_model(variant);
            let check = |mode| net.check_with(variant.property(), budget, mode, Reduction::None).0;
            let serial = check(ExploreMode::Serial);
            let parallel = check(ExploreMode::Parallel);
            assert_eq!(serial, parallel, "{variant:?} budget {budget}: modes diverged");
        }
    }
}

/// Every E13 failover variant: with the reduction off, full
/// `CheckOutcome` equality (verdict, trace, state count) between the
/// packed engine and the reference engine, in every exploration mode.
#[test]
fn failover_variants_match_reference_in_all_modes() {
    for variant in lockstep_variants() {
        let reference =
            failover_model(variant).check_reference(variant.property(), FAILOVER_BUDGET);
        for mode in [ExploreMode::Serial, ExploreMode::Parallel, ExploreMode::Auto] {
            let (packed, stats) = failover_model(variant).check_with(
                variant.property(),
                FAILOVER_BUDGET,
                mode,
                Reduction::None,
            );
            assert_eq!(
                reference, packed,
                "{variant:?} in {mode:?} diverged from the reference engine"
            );
            assert!(stats.states > 0, "{variant:?}: no states interned");
        }
    }
}

/// The clock-activity reduction is an equivalence, not an
/// approximation: every failover verdict is identical with the
/// reduction on and off, violated variants' reduced counterexamples
/// replay as genuine behaviours of the *unreduced* network, and the
/// reduced space is strictly smaller on every variant.
#[test]
fn failover_reduction_preserves_verdicts_and_shrinks_the_space() {
    for variant in lockstep_variants() {
        let (full, full_stats) = failover_model(variant).check_with(
            variant.property(),
            FAILOVER_BUDGET,
            ExploreMode::Auto,
            Reduction::None,
        );
        let (red, red_stats) = failover_model(variant).check_with(
            variant.property(),
            FAILOVER_BUDGET,
            ExploreMode::Auto,
            Reduction::ClockActive,
        );
        assert_eq!(full.holds(), red.holds(), "{variant:?}: reduction changed the verdict");
        if let Some(trace) = red.trace() {
            let net = failover_model(variant);
            assert!(
                net.replay(trace).is_some(),
                "{variant:?}: reduced counterexample does not replay on the unreduced model"
            );
        }
        assert!(
            red_stats.states < full_stats.states,
            "{variant:?}: reduction did not shrink the space ({} vs {})",
            red_stats.states,
            full_stats.states
        );
    }
}

/// Reduced exploration stays bit-identical between serial and parallel
/// scheduling — including under budgets that exhaust mid-search, where
/// insertion order determines the cutoff point.
#[test]
fn failover_reduction_modes_agree_under_exhaustion() {
    for variant in [FailoverModelVariant::PrimaryCrash, FailoverModelVariant::UnfencedPump] {
        for budget in [100, 5_000, 100_000] {
            let serial = failover_model(variant).check_with(
                variant.property(),
                budget,
                ExploreMode::Serial,
                Reduction::ClockActive,
            );
            let parallel = failover_model(variant).check_with(
                variant.property(),
                budget,
                ExploreMode::Parallel,
                Reduction::ClockActive,
            );
            assert_eq!(serial.0, parallel.0, "{variant:?} budget {budget}: modes diverged");
        }
    }
}

/// The safe designs still verify and the state counts are stable —
/// a regression fence for the exploration semantics (a changed count
/// means the successor relation or dedup changed).
#[test]
fn verdicts_and_state_counts_are_stable() {
    for variant in PcaModelVariant::ALL {
        let (out, stats) = pca_model(variant).check_with(
            variant.property(),
            BUDGET,
            ExploreMode::Auto,
            Reduction::None,
        );
        assert_eq!(out.holds(), variant.expected_safe(), "{variant:?}: verdict flipped ({out:?})");
        match out {
            CheckOutcome::Holds { states } | CheckOutcome::Violated { states, .. } => {
                assert_eq!(states, stats.states, "{variant:?}: outcome/stats state mismatch");
            }
            CheckOutcome::Exhausted { budget } => {
                panic!("{variant:?}: exhausted at {budget} — raise BUDGET")
            }
        }
    }
}
