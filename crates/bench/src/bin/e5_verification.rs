//! E5 — Model-based verification of the interlock design (claim C5).
//!
//! Model-checks the PCA interlock timed-automata network in five
//! variants: two correct designs and three seeded defects. For each,
//! reports the verdict, the state count, the wall-clock time, the
//! checker throughput (states/sec) and — for violations — the length
//! of the shortest counterexample. Throughput and arena figures are
//! also exported through the [`Telemetry`] bus, the same sink every
//! other experiment reports through.
//!
//! Expected shape: the correct designs verify; every defect yields a
//! counterexample; the ticket design's fail-safety survives a lossy
//! network that defeats the command design.
//!
//! Usage: `e5_verification [--budget STATES] [--trace]`
//!
//! [`Telemetry`]: mcps_runtime::telemetry::Telemetry

use mcps_bench::{Args, Table};
use mcps_runtime::telemetry::Telemetry;
use mcps_safety::checker::CheckOutcome;
use mcps_safety::models::{pca_model, PcaModelVariant};
use mcps_safety::pack::{ExploreMode, Reduction};
use std::time::Instant;

fn main() {
    let args = Args::parse();
    let budget = args.get_u64("budget", 5_000_000) as usize;
    let show_traces = args.has_flag("trace");

    println!("E5: model checking the PCA interlock (budget {budget} states)\n");
    println!("property: whenever the monitor detects a breach, the pump is stopped");
    println!("          within the variant's deadline (bounded response)\n");

    let mut t = Table::new([
        "variant",
        "expected",
        "verdict",
        "states",
        "time ms",
        "kstates/s",
        "cex steps",
        "cex model-time",
    ]);
    let mut bus = Telemetry::new();
    bus.annotate("experiment", "e5_verification");
    let mut all_match = true;
    for variant in PcaModelVariant::ALL {
        let start = Instant::now();
        let (outcome, stats) = pca_model(variant).check_with(
            variant.property(),
            budget,
            ExploreMode::Auto,
            Reduction::None,
        );
        let elapsed = start.elapsed();
        let (verdict, states, cex_steps, cex_time) = match &outcome {
            CheckOutcome::Holds { states } => ("HOLDS", *states, String::new(), String::new()),
            CheckOutcome::Violated { trace, states } => {
                ("VIOLATED", *states, trace.steps.len().to_string(), trace.elapsed().to_string())
            }
            CheckOutcome::Exhausted { budget } => {
                ("EXHAUSTED", *budget, String::new(), String::new())
            }
        };
        let states_per_sec = stats.states as f64 / elapsed.as_secs_f64().max(1e-9);
        let key = format!("checker.{variant:?}");
        bus.incr(&format!("{key}.states"), stats.states as u64);
        bus.incr(&format!("{key}.arena_bytes"), stats.arena_bytes as u64);
        bus.observe(&format!("{key}.states_per_sec"), states_per_sec);
        let matches = outcome.holds() == variant.expected_safe();
        all_match &= matches;
        t.row([
            variant.description().to_owned(),
            if variant.expected_safe() { "safe".into() } else { "defect".into() },
            verdict.to_owned(),
            states.to_string(),
            elapsed.as_millis().to_string(),
            format!("{:.0}", states_per_sec / 1_000.0),
            cex_steps,
            cex_time,
        ]);
        if show_traces {
            if let Some(trace) = outcome.trace() {
                println!("counterexample for {variant:?}:\n{trace}");
            }
        }
    }
    t.print();
    println!();
    if all_match {
        println!("SHAPE OK: every correct design verified, every seeded defect produced a counterexample.");
    } else {
        println!("SHAPE WARNING: at least one verdict contradicts the design expectation.");
    }
    println!("\ntelemetry:\n{}", bus.render_report());
}
