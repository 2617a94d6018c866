//! Machine-readable checker perf baseline.
//!
//! Runs the standard checker workloads — the five E5 interlock
//! variants, the seven E13 failover variants (clock-activity reduction
//! on), a reduction on/off comparison pair, and the
//! `timer_chain(3, bound)` state-space blowups for bounds 10 and 20 —
//! on the packed engine and writes throughput (states/sec), state
//! counts and peak arena size to `BENCH_checker.json`, so perf
//! regressions show up in version control as number changes rather
//! than anecdotes.
//!
//! The E13 workloads are also a *property gate*: every failover
//! variant's verdict is checked against its expected one (the three
//! protocol properties must hold, the seeded mutants must violate),
//! and any mismatch exits nonzero — a protocol regression fails CI
//! outright.
//!
//! Usage: `bench_checker [--out PATH] [--budget STATES] [--max-ms MS]
//!                       [--slow]`
//!
//! `--max-ms` is the CI smoke budget: if the `state_space_bound20`
//! workload takes longer than this many milliseconds, the run exits
//! nonzero. The ceiling is generous (default 10000 ms against ~30 ms
//! measured) — it catches order-of-magnitude regressions like an
//! accidental fallback to the reference engine, not jitter. `--slow`
//! adds the unreduced `SplitBrain` run (~2.35M states, tens of
//! seconds) — the headline reduction comparison for the committed
//! baseline, too slow for the CI smoke run.

use mcps_bench::{timer_chain, Args};
use mcps_safety::models::{failover_model, pca_model, FailoverModelVariant, PcaModelVariant};
use mcps_safety::pack::{ExploreMode, Reduction};
use mcps_safety::Property;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct WorkloadReport {
    name: String,
    verdict: String,
    states: usize,
    millis: f64,
    states_per_sec: f64,
    arena_bytes: usize,
    words_per_state: usize,
    bfs_layers: usize,
    peak_layer: usize,
}

#[derive(Serialize)]
struct BenchReport {
    engine: String,
    mode: String,
    budget: usize,
    workloads: Vec<WorkloadReport>,
}

fn main() {
    let args = Args::parse();
    let out_path = args.get_str("out", "BENCH_checker.json");
    let budget = args.get_u64("budget", 50_000_000) as usize;
    let max_ms = args.get_u64("max-ms", 10_000) as f64;
    let slow = args.has_flag("slow");

    let mut workloads = Vec::new();
    for variant in PcaModelVariant::ALL {
        let start = Instant::now();
        let (outcome, stats) = pca_model(variant).check_with(
            variant.property(),
            budget,
            ExploreMode::Auto,
            Reduction::None,
        );
        workloads.push(report(format!("e5/{variant:?}"), outcome_name(&outcome), stats, start));
    }

    // E13 failover protocol: every variant under the clock-activity
    // reduction, verdict-gated against the expected one.
    let mut property_failures = 0u32;
    for variant in FailoverModelVariant::ALL {
        let start = Instant::now();
        let (outcome, stats) = failover_model(variant).check_with(
            variant.property(),
            budget,
            ExploreMode::Auto,
            Reduction::ClockActive,
        );
        let expected = if variant.expected_safe() { "holds" } else { "violated" };
        let verdict = outcome_name(&outcome);
        if verdict != expected {
            eprintln!("PROPERTY FAIL e13/{variant:?}: expected {expected}, got {verdict}");
            property_failures += 1;
        }
        workloads.push(report(format!("e13/{variant:?}"), verdict, stats, start));
    }
    // Reduction on/off comparison: PrimaryCrash unreduced every run
    // (fast); SplitBrain unreduced only under --slow (the headline
    // ~7× state / ~26× wall-clock win, tens of seconds).
    let mut unreduced = vec![FailoverModelVariant::PrimaryCrash];
    if slow {
        unreduced.push(FailoverModelVariant::SplitBrain);
    }
    for variant in unreduced {
        let start = Instant::now();
        let (outcome, stats) = failover_model(variant).check_with(
            variant.property(),
            budget,
            ExploreMode::Auto,
            Reduction::None,
        );
        workloads.push(report(
            format!("e13/{variant:?}/unreduced"),
            outcome_name(&outcome),
            stats,
            start,
        ));
    }

    let mut bound20_ms = 0.0;
    for bound in [10u32, 20] {
        let net = timer_chain(3, bound);
        let start = Instant::now();
        let (outcome, stats) = net.check_with(
            Property::Safety { bad: |_| false },
            budget,
            ExploreMode::Auto,
            Reduction::None,
        );
        let r = report(format!("state_space_bound{bound}"), outcome_name(&outcome), stats, start);
        if bound == 20 {
            bound20_ms = r.millis;
        }
        workloads.push(r);
    }

    let report = BenchReport {
        engine: "packed-arena".to_owned(),
        mode: "auto".to_owned(),
        budget,
        workloads,
    };
    mcps_bench::write_report(&report, &out_path);
    if property_failures > 0 {
        eprintln!("FAIL: {property_failures} failover property verdict(s) wrong");
        std::process::exit(1);
    }
    mcps_bench::smoke_budget("state_space_bound20", bound20_ms, max_ms);
}

fn outcome_name(outcome: &mcps_safety::CheckOutcome) -> String {
    match outcome {
        mcps_safety::CheckOutcome::Holds { .. } => "holds".to_owned(),
        mcps_safety::CheckOutcome::Violated { .. } => "violated".to_owned(),
        mcps_safety::CheckOutcome::Exhausted { .. } => "exhausted".to_owned(),
    }
}

fn report(
    name: String,
    verdict: String,
    stats: mcps_safety::ExploreStats,
    start: Instant,
) -> WorkloadReport {
    let millis = start.elapsed().as_secs_f64() * 1_000.0;
    WorkloadReport {
        name,
        verdict,
        states: stats.states,
        millis,
        states_per_sec: stats.states as f64 / (millis / 1_000.0).max(1e-9),
        arena_bytes: stats.arena_bytes,
        words_per_state: stats.words_per_state,
        bfs_layers: stats.layers,
        peak_layer: stats.peak_layer,
    }
}
