//! E8 — Fail-safe behaviour under component faults.
//!
//! A projection of the fault campaign ([`mcps_bench::campaign`]): five
//! hand-picked cells at onset t = 30 min, each run through
//! [`run_cell`] and scored by the campaign's own invariants and
//! deadlines, printed as one table.
//!
//! Fault classes: oximeter crash, silent data and stuck value, and a
//! network partition (every link down from 30 to 60 min). Each is
//! expected to stop the pump within its invariant class's deadline —
//! **except** the stuck-value fault with the interlock's plausibility
//! screen off, which freshness checking cannot see (the known
//! limitation this experiment surfaces; the screened arm shows the
//! flatline detector closing it, see DESIGN.md).
//!
//! Exits non-zero if any arm expected to engage reports a violation.
//!
//! Usage: `e8_failsafe [--trials N] [--seed S] [--quick]`

use mcps_bench::campaign::{
    run_cell, CampaignConfig, CellSpec, FaultTarget, InvariantClass, FRESHNESS_DEADLINE_SECS,
    PLAUSIBILITY_DEADLINE_SECS,
};
use mcps_bench::{fnum, Args, Table};
use mcps_device::faults::FaultKind::{self, Crash, SilentData, StuckValue};
use mcps_runtime::time::{SimDuration, SimTime};
use InvariantClass::{Freshness, Plausibility};

/// One E8 arm: a campaign cell, and whether the fail-safe must catch it.
fn cell(
    name: &'static str,
    fault: Option<FaultKind>,
    invariant: InvariantClass,
    plausibility: bool,
) -> (CellSpec, bool) {
    let onset = SimTime::from_mins(30);
    let spec = CellSpec {
        id: name.to_owned(),
        kind_label: name,
        fault,
        target: if fault.is_some() { FaultTarget::Oximeter } else { FaultTarget::None },
        onset,
        until: None,
        outage: fault.is_none().then_some((onset, SimTime::from_mins(60))),
        backup: false,
        invariant,
        plausibility,
    };
    // Only a stuck value with the screen off is invisible to the interlock.
    (spec, invariant == Freshness || plausibility)
}

fn main() {
    let args = Args::parse();
    let quick = args.has_flag("quick");
    let cfg = CampaignConfig {
        trials: args.get_u64("trials", if quick { 5 } else { 25 }),
        run: SimDuration::from_mins(40),
        ..CampaignConfig::quick(args.get_u64("seed", 3))
    };
    let trials = cfg.trials;

    println!(
        "E8: fail-safe under faults — fault at t=30min, {trials} trials per class, deadline \
         {FRESHNESS_DEADLINE_SECS:.0}s ({PLAUSIBILITY_DEADLINE_SECS:.0}s with the flatline screen)\n"
    );

    let arms = [
        cell("monitor crash", Some(Crash), Freshness, false),
        cell("monitor silent-data", Some(SilentData), Freshness, false),
        cell("monitor stuck-value", Some(StuckValue), Plausibility, false),
        cell("stuck-value + plausibility", Some(StuckValue), Plausibility, true),
        cell("network partition", None, Freshness, false),
    ];

    let mut t = Table::new([
        "fault class",
        "fail-safe engaged",
        "engage p95 s",
        "violations",
        "expected",
        "verdict",
    ]);
    let mut all_ok = true;
    for (spec, expect_failsafe) in &arms {
        let report = run_cell(spec, &cfg);
        let ok = !expect_failsafe || report.violations == 0;
        all_ok &= ok;
        t.row([
            spec.id.clone(),
            format!("{}/{trials}", report.failsafe.as_ref().map_or(0, |f| f.engaged)),
            report.failsafe.as_ref().map_or("-".into(), |f| fnum(f.p95_secs)),
            report.violations.to_string(),
            if *expect_failsafe { "engage".into() } else { "NOT caught (known gap)".into() },
            if ok { "OK".into() } else { "FAIL".into() },
        ]);
    }
    t.print();
    println!();
    if all_ok {
        println!(
            "SHAPE OK: fail-safe engages within its deadline for every freshness-visible \
             fault; the bare stuck-value gap is documented, and enabling the flatline \
             plausibility screen closes it."
        );
    } else {
        println!("SHAPE WARNING: at least one fault class missed its fail-safe deadline.");
        std::process::exit(1);
    }
}
