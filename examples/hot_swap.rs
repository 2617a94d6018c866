//! Bedside hot-swap: the primary pulse oximeter dies mid-therapy and a
//! backup unit takes over — the "assembled on demand" property under
//! failure.
//!
//! ```sh
//! cargo run --release --example hot_swap
//! ```

use mcps::core::scenarios::pca::{run_pca_scenario, PcaScenarioConfig};
use mcps::device::faults::{FaultKind, FaultPlan};
use mcps::patient::cohort::{CohortConfig, CohortGenerator};
use mcps::runtime::time::{SimDuration, SimTime};

fn main() {
    let cohort = CohortGenerator::new(5, CohortConfig::default());
    let crash_at = SimTime::from_mins(20);

    for (label, backup) in [("WITHOUT a backup oximeter", false), ("WITH a backup oximeter", true)]
    {
        let mut cfg = PcaScenarioConfig::baseline(5, cohort.params(0));
        cfg.duration = SimDuration::from_mins(60);
        cfg.backup_oximeter = backup;
        cfg.oximeter_fault = FaultPlan::none().with_fault(FaultKind::Crash, crash_at, None);
        let out = run_pca_scenario(&cfg);

        println!("== {label} ==");
        println!("  primary oximeter crashes at t=20:00");
        match out.stop_after(crash_at) {
            Some(lat) => println!("  fail-safe: pump self-stopped {lat:.0}s after the crash"),
            None => println!("  !! pump never stopped"),
        }
        let resume = out
            .permit_transitions_secs
            .iter()
            .find(|&&(t, p)| p && t > crash_at.as_secs_f64() + 1.0)
            .map(|&(t, _)| t);
        match resume {
            Some(t) => println!(
                "  hot-swap: backup associated, therapy resumed at t={:.0}:{:02.0} \
                 ({:.0}s after the crash)",
                t / 60.0,
                t % 60.0,
                t - crash_at.as_secs_f64()
            ),
            None => println!("  therapy never resumed (no replacement device)"),
        }
        println!(
            "  associations completed: {}  |  drug delivered: {:.1} mg  |  mean pain {:.1}\n",
            out.associations_completed, out.total_drug_mg, out.patient.mean_pain
        );
    }
    println!("The slot-based device manager treats devices as fungible capabilities:");
    println!("any announcing device whose profile satisfies the slot can serve it.");
}
