//! E8 — Fail-safe behaviour under component faults.
//!
//! Injects device and network faults into the running PCA closed loop
//! and measures whether (and how fast) the system reaches a safe state
//! — pump not delivering — after each fault.
//!
//! Fault classes: monitor crash, monitor silent-data, monitor
//! stuck-value, network partition. For each, the ticket interlock is
//! expected to stop the pump within `freshness_timeout + ticket
//! validity` — **except** the stuck-value fault, which freshness
//! checking cannot see (the known limitation this experiment surfaces;
//! mitigated by plausibility/flatline detection, see DESIGN.md).
//!
//! Usage: `e8_failsafe [--trials N] [--seed S]`

use mcps_bench::{fnum, Args, Table};
use mcps_core::scenarios::pca::{run_pca_scenario, PcaScenarioConfig};
use mcps_device::faults::{FaultKind, FaultPlan};
use mcps_patient::cohort::{CohortConfig, CohortGenerator};
use mcps_runtime::telemetry::Summary;
use mcps_runtime::time::{SimDuration, SimTime};

/// The deadline by which the fail-safe must engage: freshness timeout
/// (10 s) + ticket validity (15 s) + one control period of slack.
const FAILSAFE_DEADLINE_SECS: f64 = 10.0 + 15.0 + 5.0;

struct FaultArm {
    name: &'static str,
    oximeter_fault: FaultPlan,
    capnograph_fault: FaultPlan,
    outages: Vec<(SimTime, SimTime)>,
    /// Enable the flatline/plausibility screen in the interlock.
    plausibility: bool,
    /// Whether the fail-safe is expected to catch it.
    expect_failsafe: bool,
    /// Deadline override (plausibility detection needs its window).
    deadline_secs: f64,
}

fn fault_at() -> SimTime {
    SimTime::from_mins(30)
}

fn arms() -> Vec<FaultArm> {
    let both = |kind| {
        (
            FaultPlan::none().with_fault(kind, fault_at(), None),
            FaultPlan::none().with_fault(kind, fault_at(), None),
        )
    };
    let (ox_crash, cap_crash) = both(FaultKind::Crash);
    let (ox_silent, cap_silent) = both(FaultKind::SilentData);
    let (ox_stuck, cap_stuck) = both(FaultKind::StuckValue);
    let (ox_stuck2, cap_stuck2) = both(FaultKind::StuckValue);
    vec![
        FaultArm {
            name: "monitor crash",
            oximeter_fault: ox_crash,
            capnograph_fault: cap_crash,
            outages: vec![],
            plausibility: false,
            expect_failsafe: true,
            deadline_secs: FAILSAFE_DEADLINE_SECS,
        },
        FaultArm {
            name: "monitor silent-data",
            oximeter_fault: ox_silent,
            capnograph_fault: cap_silent,
            outages: vec![],
            plausibility: false,
            expect_failsafe: true,
            deadline_secs: FAILSAFE_DEADLINE_SECS,
        },
        FaultArm {
            name: "monitor stuck-value",
            oximeter_fault: ox_stuck,
            capnograph_fault: cap_stuck,
            outages: vec![],
            plausibility: false,
            expect_failsafe: false, // freshness cannot see frozen data
            deadline_secs: FAILSAFE_DEADLINE_SECS,
        },
        FaultArm {
            name: "stuck-value + plausibility",
            oximeter_fault: ox_stuck2,
            capnograph_fault: cap_stuck2,
            outages: vec![],
            plausibility: true,
            // Flatline window (30 s) + ticket validity + slack.
            expect_failsafe: true,
            deadline_secs: 30.0 + 15.0 + 10.0,
        },
        FaultArm {
            name: "network partition",
            oximeter_fault: FaultPlan::none(),
            capnograph_fault: FaultPlan::none(),
            outages: vec![(fault_at(), SimTime::from_mins(60))],
            plausibility: false,
            expect_failsafe: true,
            deadline_secs: FAILSAFE_DEADLINE_SECS,
        },
    ]
}

fn main() {
    let args = Args::parse();
    let quick = args.has_flag("quick");
    let trials = args.get_u64("trials", if quick { 5 } else { 25 });
    let seed = args.get_u64("seed", 3);

    println!(
        "E8: fail-safe under faults — fault at t=30min, {trials} trials per class, \
         deadline {FAILSAFE_DEADLINE_SECS:.0}s\n"
    );

    let cohort = CohortGenerator::new(seed, CohortConfig::default());
    let mut t =
        Table::new(["fault class", "fail-safe engaged", "engage p95 s", "expected", "verdict"]);
    let mut all_ok = true;
    for arm in arms() {
        let mut engaged = 0u64;
        let mut latencies = Vec::new();
        for i in 0..trials {
            let mut cfg =
                PcaScenarioConfig::baseline(seed.wrapping_add(1000 + i), cohort.params(i));
            cfg.duration = SimDuration::from_mins(40);
            cfg.oximeter_fault = arm.oximeter_fault.clone();
            cfg.capnograph_fault = arm.capnograph_fault.clone();
            cfg.outages = arm.outages.clone();
            if let Some(il) = cfg.interlock.as_mut() {
                il.plausibility_check = arm.plausibility;
            }
            let out = run_pca_scenario(&cfg);
            // The scenario records stop transitions; fail-safe engaged
            // if the pump ceased delivery after the fault instant.
            if let Some(lat) = out.stop_after(fault_at()) {
                engaged += 1;
                latencies.push(lat);
            }
        }
        let frac = engaged as f64 / trials as f64;
        let p95 = Summary::from_values(&latencies).p95;
        let within = !latencies.is_empty() && p95 <= arm.deadline_secs;
        let ok = if arm.expect_failsafe { frac >= 0.99 && within } else { true };
        all_ok &= ok;
        t.row([
            arm.name.to_owned(),
            format!("{engaged}/{trials}"),
            if latencies.is_empty() { "-".into() } else { fnum(p95) },
            if arm.expect_failsafe { "engage".into() } else { "NOT caught (known gap)".into() },
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
    }
}
