//! Verification models of the supervisor failover protocol (E13).
//!
//! PR 5 hand-built a distributed failover protocol — primary/standby
//! supervisors with checkpoint replication, missed-checkpoint
//! promotion, epoch-fenced commands, and a device-local pump watchdog
//! that drops to basal-only delivery on supervision silence. The
//! campaign engine tests it empirically; this module verifies it.
//! The protocol is modelled as a network of integer-clock timed
//! automata built from the *same* timing constants the implementation
//! derives its timers from ([`crate::timing`]), and three properties
//! are checked over all interleavings:
//!
//! * **Split-brain safety** — after the pump adopts the promoted
//!   standby's epoch, the healed ex-primary's stale epoch-1 traffic is
//!   never applied as supervision (zero reachable `Dual` states).
//! * **Promotion liveness** — under a bounded network partition, the
//!   primary's death leads to the standby actuating the pump within
//!   [`PROMOTION_BUDGET_SECS`].
//! * **Failsafe backstop** — if *both* supervisors die, the pump is
//!   basal-only (fail-safe latched) within [`BACKSTOP_BUDGET_SECS`],
//!   for all interleavings.
//!
//! Each correct network is paired with a **mutant** carrying a seeded
//! protocol defect (fence deleted, watchdog deleted, startup grace
//! missing). The mutants keep the properties non-vacuous — the checker
//! must produce a counterexample trace for every one — and their
//! traces are mined into fault-campaign regression cells by
//! `mcps-bench`.
//!
//! ## Epochs are structural
//!
//! Command epochs are encoded in the channel topology rather than in
//! message payloads: the primary's epoch-1 traffic travels `hb1`/`ck1`
//! and the promoted standby's epoch-2 traffic travels `hb2`/`ck2`,
//! each through its own single-slot delay line (loss is possible only
//! while the partition automaton is in its `Split` window). The pump's
//! `max_epoch_seen` ratchet is its location: `Armed1`/`Latched1`
//! accept epoch 1, `Armed2`/`Latched2` fence it. The `Dual` location
//! is the double-actuation marker — reachable only if the fence is
//! removed.
//!
//! ## Documented abstractions
//!
//! * A heartbeat delivered to a latched pump stands for the full
//!   heartbeat → ack → `ResumePump` exchange: the implementation's
//!   supervisor proactively resumes on the first ack after a
//!   [`crate::timing::FAILSAFE_RELEASE_GAP_SECS`] gap, and a freshly
//!   promoted standby (`failovers > 0`) resumes on its very first ack.
//!   Both paths complete within one delivery at this time scale.
//! * The pump's command-id dedup window only suppresses *repeats* of
//!   non-heartbeat commands; heartbeats (the supervision signal the
//!   properties are about) bypass it, so it is abstracted away here
//!   and covered by `actors.rs` unit tests instead.
//! * `Demoted` is a sink: one promotion cycle is verified. Re-promotion
//!   of the demoted ex-primary is the same protocol at epoch 3.

use crate::automaton::{Action, Automaton, Guard};
use crate::checker::{CheckOutcome, Network, Property};
use crate::pack::{ExploreMode, Reduction};
use crate::timing::{
    CHECKPOINT_SECS, HEARTBEAT_SECS, LOCAL_FAILSAFE_DEADLINE_SECS, PROMOTION_SILENCE_SECS,
};
use serde::{Deserialize, Serialize};

use super::{delay_line, LinkLoss, NET_MAX};

/// Longest network partition window the liveness property tolerates.
pub const PARTITION_MAX_SECS: u32 = 4;

/// Standby promotion trigger: the first whole second *strictly past*
/// the silence threshold (the implementation checks `> silence` at its
/// 1 Hz tick).
pub const PROMOTION_TRIGGER_SECS: u32 = PROMOTION_SILENCE_SECS + 1;

/// Primary death → standby heartbeat adopted by the pump, worst case:
/// a checkpoint in flight at death lands one hop later, the standby
/// waits out the full silence window, and the partition eats *two*
/// consecutive post-promotion heartbeats — a [`PARTITION_MAX_SECS`]
/// window plus the [`NET_MAX`] in-flight exposure spans 6 s, more than
/// one heartbeat period, so the beat in flight at onset *and* the next
/// periodic beat at the heal boundary can both be cut. The third beat
/// lands one hop later. The property is *sharp*: the checker proves it
/// holds at this budget and produces a counterexample one second
/// under it.
pub const PROMOTION_BUDGET_SECS: u32 =
    NET_MAX + PROMOTION_TRIGGER_SECS + 2 * HEARTBEAT_SECS + NET_MAX;

/// Both supervisors dead → pump latched basal-only, worst case: one
/// in-flight heartbeat lands a hop after the deaths and re-arms the
/// watchdog for a full deadline. Also sharp (violated one second
/// under).
pub const BACKSTOP_BUDGET_SECS: u32 = NET_MAX + LOCAL_FAILSAFE_DEADLINE_SECS;

/// Which failover design (or seeded defect) to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FailoverModelVariant {
    /// Healthy pair, no faults; the standby may boot arbitrarily late.
    /// Property: the standby never promotes and the pump never leaves
    /// epoch-1 armed supervision.
    Quiescent,
    /// Mutant of [`Quiescent`](Self::Quiescent): the standby's boot
    /// does not seed its checkpoint-silence clock, so a late-booting
    /// standby reads "silence since time zero" and promotes at
    /// admission.
    NoStartupGrace,
    /// The primary dies (permanently) under a bounded partition.
    /// Property: promotion liveness — the pump is actuated by the
    /// standby's epoch within [`PROMOTION_BUDGET_SECS`].
    PrimaryCrash,
    /// The primary dies and later recovers stale, under a bounded
    /// partition. Property: split-brain safety — the pump never
    /// applies stale epoch-1 supervision after adopting epoch 2.
    SplitBrain,
    /// Mutant of [`SplitBrain`](Self::SplitBrain): the pump's epoch
    /// fence is deleted, so stale epoch-1 heartbeats feed an adopted
    /// pump (the double-actuation defect the fence exists to prevent).
    /// Built *without* the partition: crash → promotion → stale
    /// recovery alone exhibits the defect, and the counterexample then
    /// maps onto an implementation-faithful fault schedule for the
    /// campaign miner (a partition-raced checkpoint does not).
    UnfencedPump,
    /// Both supervisors die permanently. Property: failsafe backstop —
    /// the pump latches basal-only within [`BACKSTOP_BUDGET_SECS`].
    DualCrash,
    /// Mutant of [`DualCrash`](Self::DualCrash): the pump's local
    /// watchdog is deleted, so supervision silence never latches the
    /// fail-safe.
    NoWatchdog,
}

impl FailoverModelVariant {
    /// All variants, in presentation order.
    pub const ALL: [FailoverModelVariant; 7] = [
        FailoverModelVariant::Quiescent,
        FailoverModelVariant::NoStartupGrace,
        FailoverModelVariant::PrimaryCrash,
        FailoverModelVariant::SplitBrain,
        FailoverModelVariant::UnfencedPump,
        FailoverModelVariant::DualCrash,
        FailoverModelVariant::NoWatchdog,
    ];

    /// Human-readable description.
    pub fn description(&self) -> &'static str {
        match self {
            FailoverModelVariant::Quiescent => "healthy pair, late-boot standby (correct)",
            FailoverModelVariant::NoStartupGrace => {
                "mutant: standby boot does not seed the silence clock"
            }
            FailoverModelVariant::PrimaryCrash => {
                "primary death under bounded partition (promotion liveness)"
            }
            FailoverModelVariant::SplitBrain => {
                "crash + stale recovery under partition (split-brain safety)"
            }
            FailoverModelVariant::UnfencedPump => "mutant: pump epoch fence deleted",
            FailoverModelVariant::DualCrash => "both supervisors die (failsafe backstop)",
            FailoverModelVariant::NoWatchdog => "mutant: pump local watchdog deleted",
        }
    }

    /// The property checked for this variant; a mutant is checked
    /// against the property of the design it mutates.
    pub fn property(&self) -> Property {
        use FailoverModelVariant as V;
        match self {
            // No spurious promotion; the pump stays epoch-1 armed.
            V::Quiescent | V::NoStartupGrace => Property::Safety {
                bad: |v| {
                    v.in_location("standby", "Boost")
                        || v.in_location("standby", "Active")
                        || !v.in_location("pump", "Armed1")
                },
            },
            // Primary death ⇒ the standby's epoch actuates the pump.
            V::PrimaryCrash => Property::BoundedResponse {
                p: |v| v.in_location("primary", "Crashed"),
                q: |v| {
                    v.in_location("pump", "Armed2")
                        || v.in_location("pump", "Latched2")
                        || v.in_location("pump", "Dual")
                },
                deadline: PROMOTION_BUDGET_SECS,
            },
            // The stale epoch is never applied after adoption.
            V::SplitBrain | V::UnfencedPump => {
                Property::Safety { bad: |v| v.in_location("pump", "Dual") }
            }
            // Supervision silence ⇒ basal-only.
            V::DualCrash | V::NoWatchdog => Property::BoundedResponse {
                p: |v| v.in_location("primary", "Crashed") && v.in_location("standby", "Dead"),
                q: |v| v.in_location("pump", "Latched1") || v.in_location("pump", "Latched2"),
                deadline: BACKSTOP_BUDGET_SECS,
            },
        }
    }

    /// Whether the property is *expected* to hold (mutants must fail).
    pub fn expected_safe(&self) -> bool {
        !matches!(
            self,
            FailoverModelVariant::NoStartupGrace
                | FailoverModelVariant::UnfencedPump
                | FailoverModelVariant::NoWatchdog
        )
    }
}

/// Knobs deriving the network topology of a variant.
struct Build {
    /// The primary may crash.
    crash: bool,
    /// A crashed primary may recover (stale, still epoch 1).
    recover: bool,
    /// The standby boots at a nondeterministic time instead of t=0.
    late_boot: bool,
    /// The standby's boot seeds its checkpoint-silence clock (the
    /// startup grace; disabled only in the `NoStartupGrace` mutant).
    grace: bool,
    /// The standby may crash.
    standby_crash: bool,
    /// A single bounded partition window may drop in-flight messages.
    partition: bool,
    /// The pump fences stale-epoch traffic after adoption.
    fenced: bool,
    /// The pump latches basal-only on supervision silence.
    watchdog: bool,
}

impl Build {
    fn of(variant: FailoverModelVariant) -> Build {
        use FailoverModelVariant as V;
        let quiescent = matches!(variant, V::Quiescent | V::NoStartupGrace);
        Build {
            crash: !quiescent,
            recover: matches!(variant, V::SplitBrain | V::UnfencedPump),
            late_boot: quiescent,
            grace: variant != V::NoStartupGrace,
            standby_crash: matches!(variant, V::DualCrash | V::NoWatchdog),
            partition: matches!(variant, V::PrimaryCrash | V::SplitBrain),
            fenced: variant != V::UnfencedPump,
            watchdog: variant != V::NoWatchdog,
        }
    }
}

/// Primary supervisor: heartbeats the pump every
/// [`HEARTBEAT_SECS`] and checkpoints the standby every
/// [`CHECKPOINT_SECS`]; steps down on seeing a higher-epoch
/// checkpoint. Matches `SupervisorCore`'s primary tick branch.
fn primary(b: &Build) -> Automaton {
    let mut a = Automaton::builder("primary");
    let hb = a.clock("hb");
    let ck = a.clock("ck");
    let up = a.location("Up");
    let crashed = a.location("Crashed");
    let demoted = a.location("Demoted");
    a.invariant(
        up,
        Guard::And(vec![Guard::Le(hb, HEARTBEAT_SECS), Guard::Le(ck, CHECKPOINT_SECS)]),
    );
    a.edge("beat", up, up, Guard::Ge(hb, HEARTBEAT_SECS), Action::Send("hb1".into()), vec![hb]);
    a.edge("ckpt", up, up, Guard::Ge(ck, CHECKPOINT_SECS), Action::Send("ck1".into()), vec![ck]);
    if b.crash {
        a.edge("crash", up, crashed, Guard::True, Action::Internal, vec![]);
    }
    if b.recover {
        // A recovered primary still believes it is in charge: it
        // resumes epoch-1 heartbeats and checkpoints until a
        // higher-epoch checkpoint demotes it.
        a.edge("recover", crashed, up, Guard::True, Action::Internal, vec![hb, ck]);
    }
    // Input-enabled for the standby's epoch-2 checkpoints everywhere:
    // a live primary steps down, a dead or demoted one discards.
    a.edge("step_down", up, demoted, Guard::True, Action::Recv("ck2_d".into()), vec![]);
    a.edge("ck2_dead", crashed, crashed, Guard::True, Action::Recv("ck2_d".into()), vec![]);
    a.edge("ck2_dup", demoted, demoted, Guard::True, Action::Recv("ck2_d".into()), vec![]);
    a.build()
}

/// Standby supervisor: watches the checkpoint stream, promotes after
/// checkpoint silence strictly exceeding [`PROMOTION_SILENCE_SECS`],
/// then runs the primary protocol at epoch 2 (immediate first
/// heartbeat, as `SupervisorCore::promote` does). Matches the standby
/// tick branch, including the admission grace: the silence clock is
/// seeded at boot, not at time zero.
fn standby(b: &Build) -> Automaton {
    let mut a = Automaton::builder("standby");
    let s = a.clock("s");
    let c2 = a.clock("c2");
    let watch = a.location("Watch");
    let boost = a.urgent_location("Boost");
    let active = a.location("Active");
    a.invariant(watch, Guard::Le(s, PROMOTION_TRIGGER_SECS));
    a.invariant(
        active,
        Guard::And(vec![Guard::Le(s, HEARTBEAT_SECS), Guard::Le(c2, CHECKPOINT_SECS)]),
    );
    if b.late_boot {
        let booting = a.location("Booting");
        a.initial(booting);
        // Checkpoints sent to a not-yet-booted process fall on the
        // floor — this is exactly why measuring silence from time
        // zero would be wrong.
        a.edge("unborn", booting, booting, Guard::True, Action::Recv("ck1_d".into()), vec![]);
        // The startup grace: booting seeds the silence clock with
        // "now" (`last_ckpt.get_or_insert(now)` in the
        // implementation). The NoStartupGrace mutant omits the reset,
        // reading silence-since-time-zero instead.
        let seeds = if b.grace { vec![s] } else { vec![] };
        a.edge("boot", booting, watch, Guard::True, Action::Internal, seeds);
    }
    a.edge("ckpt_rx", watch, watch, Guard::True, Action::Recv("ck1_d".into()), vec![s]);
    a.edge(
        "promote",
        watch,
        boost,
        Guard::Gt(s, PROMOTION_SILENCE_SECS),
        Action::Internal,
        vec![s, c2],
    );
    // Promotion heartbeats immediately (urgent location: no time may
    // pass before the first epoch-2 beat enters the network).
    a.edge("first_beat", boost, active, Guard::True, Action::Send("hb2".into()), vec![]);
    a.edge("late_ck", boost, boost, Guard::True, Action::Recv("ck1_d".into()), vec![]);
    a.edge(
        "beat2",
        active,
        active,
        Guard::Ge(s, HEARTBEAT_SECS),
        Action::Send("hb2".into()),
        vec![s],
    );
    a.edge(
        "ckpt2",
        active,
        active,
        Guard::Ge(c2, CHECKPOINT_SECS),
        Action::Send("ck2".into()),
        vec![c2],
    );
    // Stale epoch-1 checkpoints after promotion are ignored
    // (`epoch < max_epoch_seen` in the implementation).
    a.edge("stale_ck", active, active, Guard::True, Action::Recv("ck1_d".into()), vec![]);
    if b.standby_crash {
        let dead = a.location("Dead");
        a.edge("s_crash_watch", watch, dead, Guard::True, Action::Internal, vec![]);
        a.edge("s_crash_active", active, dead, Guard::True, Action::Internal, vec![]);
        a.edge("ck_dead", dead, dead, Guard::True, Action::Recv("ck1_d".into()), vec![]);
    }
    a.build()
}

/// The pump's supervision watchdog and epoch ratchet. `Armed1` /
/// `Latched1` have `max_epoch_seen` = 1 (epoch-1 heartbeats are
/// supervision); the first epoch-2 heartbeat moves the ratchet to
/// `Armed2` / `Latched2`, where epoch-1 traffic is fenced: consumed
/// without feeding the watchdog (`fenced_commands` in `PumpCore`).
/// `Dual` marks a stale-epoch *apply* after adoption — the
/// double-actuation defect — and must be unreachable.
fn pump(b: &Build) -> Automaton {
    let fs = LOCAL_FAILSAFE_DEADLINE_SECS;
    let mut a = Automaton::builder("pump");
    let w = a.clock("w");
    let armed1 = a.location("Armed1");
    let latched1 = a.location("Latched1");
    let armed2 = a.location("Armed2");
    let latched2 = a.location("Latched2");
    let dual = a.location("Dual");
    if b.watchdog {
        a.invariant(armed1, Guard::Le(w, fs));
        a.invariant(armed2, Guard::Le(w, fs));
        a.edge("latch1", armed1, latched1, Guard::Ge(w, fs), Action::Internal, vec![]);
        a.edge("latch2", armed2, latched2, Guard::Ge(w, fs), Action::Internal, vec![]);
    }
    a.edge("feed1", armed1, armed1, Guard::True, Action::Recv("hb1_d".into()), vec![w]);
    a.edge("adopt", armed1, armed2, Guard::True, Action::Recv("hb2_d".into()), vec![w]);
    // A heartbeat reaching a latched pump stands for the heartbeat →
    // ack → ResumePump exchange (see module docs).
    a.edge("resume1", latched1, armed1, Guard::True, Action::Recv("hb1_d".into()), vec![w]);
    a.edge("adopt_latched", latched1, armed2, Guard::True, Action::Recv("hb2_d".into()), vec![w]);
    a.edge("feed2", armed2, armed2, Guard::True, Action::Recv("hb2_d".into()), vec![w]);
    a.edge("resume2", latched2, armed2, Guard::True, Action::Recv("hb2_d".into()), vec![w]);
    if b.fenced {
        // Stale epoch-1 traffic is consumed but does NOT feed the
        // watchdog (no reset of `w`) and does not resume a latch.
        a.edge("fence_armed", armed2, armed2, Guard::True, Action::Recv("hb1_d".into()), vec![]);
        a.edge(
            "fence_latched",
            latched2,
            latched2,
            Guard::True,
            Action::Recv("hb1_d".into()),
            vec![],
        );
    } else {
        a.edge("stale_apply", armed2, dual, Guard::True, Action::Recv("hb1_d".into()), vec![w]);
        a.edge("stale_resume", latched2, dual, Guard::True, Action::Recv("hb1_d".into()), vec![w]);
    }
    a.edge("dual_hb1", dual, dual, Guard::True, Action::Recv("hb1_d".into()), vec![]);
    a.edge("dual_hb2", dual, dual, Guard::True, Action::Recv("hb2_d".into()), vec![]);
    a.build()
}

/// One bounded partition window: while `Split` (at most
/// [`PARTITION_MAX_SECS`]), any delay line may lose its in-flight
/// message by synchronizing on `cut`.
fn partition() -> Automaton {
    let mut a = Automaton::builder("partition");
    let p = a.clock("p");
    let calm = a.location("Calm");
    let split = a.location("Split");
    let healed = a.location("Healed");
    a.invariant(split, Guard::Le(p, PARTITION_MAX_SECS));
    a.edge("onset", calm, split, Guard::True, Action::Internal, vec![p]);
    a.edge("heal", split, healed, Guard::True, Action::Internal, vec![]);
    a.edge("cut", split, split, Guard::True, Action::Recv("cut".into()), vec![]);
    a.build()
}

/// Builds the failover verification network for a variant.
pub fn failover_model(variant: FailoverModelVariant) -> Network {
    let b = Build::of(variant);
    let loss = |on: bool| if on { LinkLoss::Partitionable("cut") } else { LinkLoss::Lossless };
    let mut autos = vec![
        primary(&b),
        standby(&b),
        pump(&b),
        delay_line("net_hb1", "hb1", "hb1_d", loss(b.partition)),
        delay_line("net_ck1", "ck1", "ck1_d", loss(b.partition)),
        delay_line("net_hb2", "hb2", "hb2_d", loss(b.partition)),
        delay_line("net_ck2", "ck2", "ck2_d", loss(b.partition)),
    ];
    if b.partition {
        autos.push(partition());
    }
    Network::new(autos)
}

/// Checks a variant's [`FailoverModelVariant::property`] on its model
/// with automatic parallelism and the clock-activity reduction on.
pub fn check_failover_variant(variant: FailoverModelVariant, max_states: usize) -> CheckOutcome {
    failover_model(variant)
        .check_with(variant.property(), max_states, ExploreMode::Auto, Reduction::ClockActive)
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::WORST_CLEAN_FAILOVER_SECS;

    const BUDGET: usize = 8_000_000;

    #[test]
    fn model_constants_are_the_implementation_constants() {
        // The automata must embed exactly the shared timing contract —
        // guard against the model silently verifying a different
        // protocol than the one `mcps-core` runs.
        use crate::automaton::Guard as G;
        let net = failover_model(FailoverModelVariant::SplitBrain);
        let by_name = |n: &str| {
            net.automata().iter().find(|a| a.name() == n).unwrap_or_else(|| panic!("{n} missing"))
        };
        let p = by_name("primary");
        let hb = crate::automaton::ClockId(0);
        let ck = crate::automaton::ClockId(1);
        assert!(p
            .edges()
            .iter()
            .any(|e| e.label == "beat" && e.guard == G::Ge(hb, HEARTBEAT_SECS)));
        assert!(p
            .edges()
            .iter()
            .any(|e| e.label == "ckpt" && e.guard == G::Ge(ck, CHECKPOINT_SECS)));
        let s = by_name("standby");
        let sc = crate::automaton::ClockId(0);
        assert!(s
            .edges()
            .iter()
            .any(|e| e.label == "promote" && e.guard == G::Gt(sc, PROMOTION_SILENCE_SECS)));
        let pump = by_name("pump");
        let w = crate::automaton::ClockId(0);
        assert!(pump
            .edges()
            .iter()
            .any(|e| e.label == "latch1" && e.guard == G::Ge(w, LOCAL_FAILSAFE_DEADLINE_SECS)));
    }

    #[test]
    fn expected_verdicts_match_metadata() {
        for v in FailoverModelVariant::ALL {
            let out = check_failover_variant(v, BUDGET);
            assert_eq!(
                out.holds(),
                v.expected_safe(),
                "variant {v:?} ({}) unexpected outcome {out:?}",
                v.description()
            );
        }
    }

    #[test]
    fn liveness_budget_is_sharp() {
        // The promotion budget is exact: the property is violated one
        // second under it (the checker exhibits the schedule), and the
        // worst-case clean failover really does overshoot the pump's
        // 15 s watchdog by one second — the documented transient latch.
        let net = failover_model(FailoverModelVariant::PrimaryCrash);
        let (out, _) = net.check_with(
            Property::BoundedResponse {
                p: |v| v.in_location("primary", "Crashed"),
                q: |v| v.in_location("pump", "Armed2") || v.in_location("pump", "Latched2"),
                deadline: PROMOTION_BUDGET_SECS - 1,
            },
            BUDGET,
            ExploreMode::Auto,
            Reduction::ClockActive,
        );
        assert!(out.trace().is_some(), "budget-1 must be violated: {out:?}");
        // The worst-case clean failover overshooting the watchdog is
        // enforced at compile time in `crate::timing`.
        const _: () = assert!(WORST_CLEAN_FAILOVER_SECS > LOCAL_FAILSAFE_DEADLINE_SECS);
    }

    #[test]
    fn backstop_budget_is_sharp() {
        let net = failover_model(FailoverModelVariant::DualCrash);
        let (out, _) = net.check_with(
            Property::BoundedResponse {
                p: |v| v.in_location("primary", "Crashed") && v.in_location("standby", "Dead"),
                q: |v| v.in_location("pump", "Latched1") || v.in_location("pump", "Latched2"),
                deadline: BACKSTOP_BUDGET_SECS - 1,
            },
            BUDGET,
            ExploreMode::Auto,
            Reduction::ClockActive,
        );
        assert!(out.trace().is_some(), "budget-1 must be violated: {out:?}");
    }

    #[test]
    fn mutant_counterexamples_replay_on_their_models() {
        for v in [
            FailoverModelVariant::NoStartupGrace,
            FailoverModelVariant::UnfencedPump,
            FailoverModelVariant::NoWatchdog,
        ] {
            let out = check_failover_variant(v, BUDGET);
            let trace = out.trace().unwrap_or_else(|| panic!("{v:?} must violate"));
            let net = failover_model(v);
            assert!(net.replay(trace).is_some(), "{v:?}: counterexample must replay");
        }
    }

    #[test]
    fn unfenced_trace_contains_a_minable_schedule() {
        // The campaign miner needs the crash, promotion and recovery
        // instants of the split-brain counterexample; make sure they
        // are all present, and that promotion sits a full silence
        // window past the crash (recovery may *race* the promotion by
        // up to one network hop, which is why the miner clamps the
        // mined recovery to just past the promotion instant).
        let out = check_failover_variant(FailoverModelVariant::UnfencedPump, BUDGET);
        let trace = out.trace().expect("unfenced pump must violate");
        let mut t = 0u32;
        let (mut crash, mut promote, mut recover) = (None, None, None);
        for step in &trace.steps {
            match step {
                crate::checker::Step::Delay => t += 1,
                crate::checker::Step::Edge { automaton, label } => {
                    if automaton == "primary" && label == "crash" {
                        crash.get_or_insert(t);
                    }
                    if automaton == "primary" && label == "recover" {
                        recover.get_or_insert(t);
                    }
                    if automaton == "standby" && label == "promote" {
                        promote.get_or_insert(t);
                    }
                }
                _ => {}
            }
        }
        let crash = crash.expect("trace must crash the primary");
        let promote = promote.expect("trace must promote the standby");
        recover.expect("trace must recover the primary");
        assert!(promote > crash + PROMOTION_SILENCE_SECS, "early promotion: {trace}");
    }
}
