//! No single point of failure: the supervisor hosting the PCA interlock
//! crashes mid-therapy. Without a standby the pump's device-local watchdog
//! drops to basal-only until supervision returns; with a redundant standby
//! the interlock fails over in seconds and therapy never pauses.
//!
//! ```sh
//! cargo run --release --example supervisor_failover
//! ```

use mcps::core::scenarios::pca::{run_pca_scenario, PcaScenarioConfig};
use mcps::device::faults::{FaultKind, FaultPlan};
use mcps::patient::cohort::{CohortConfig, CohortGenerator};
use mcps::runtime::time::{SimDuration, SimTime};

fn hms(secs: f64) -> String {
    format!("{:.0}:{:04.1}", (secs / 60.0).floor(), secs % 60.0)
}

fn main() {
    let cohort = CohortGenerator::new(8, CohortConfig::default());
    let crash_at = SimTime::from_mins(10);

    for (label, standby) in
        [("WITHOUT a standby supervisor", false), ("WITH a standby supervisor", true)]
    {
        let mut cfg = PcaScenarioConfig::baseline(3, cohort.params(3));
        cfg.duration = SimDuration::from_mins(30);
        cfg.proxy_rate_per_hour = 12.0;
        cfg.standby_supervisor = standby;
        cfg.supervisor_fault =
            FaultPlan::none().with_fault(FaultKind::SupervisorCrash, crash_at, None);
        let out = run_pca_scenario(&cfg);

        println!("== {label} ==");
        println!("  t={}  primary supervisor crashes (never restarts)", hms(600.0));
        for &(t, latched) in &out.failsafe_transitions_secs {
            if latched {
                println!(
                    "  t={}  pump watchdog: no supervision for 15s -> basal-only fail-safe",
                    hms(t)
                );
            } else {
                println!("  t={}  pump watchdog: supervision restored -> bolus re-enabled", hms(t));
            }
        }
        if out.failovers > 0 {
            println!(
                "  standby promoted itself: {} failover(s), commands now fenced at epoch {}",
                out.failovers, out.supervisor_epoch
            );
        } else {
            println!("  nobody took over: epoch stayed at {}", out.supervisor_epoch);
        }
        let suspended = out.bolus_decisions.get("suspended").copied().unwrap_or(0);
        let started = out.bolus_decisions.get("started").copied().unwrap_or(0);
        println!(
            "  boluses delivered: {started}  |  presses refused while unsupervised: {suspended}"
        );
        println!(
            "  fail-safe latches: {}  |  drug delivered: {:.2} mg  |  mean pain {:.1}\n",
            out.local_failsafe_entries, out.total_drug_mg, out.patient.mean_pain
        );
    }

    println!(
        "The watchdog guarantees the pump never free-runs a bolus while no supervisor\n\
         is alive to stop it; the standby pair makes that safe state a transient\n\
         instead of the rest of the infusion."
    );
}
