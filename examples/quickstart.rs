//! Quickstart: assemble an on-demand MCPS at a virtual bedside and run
//! it for 30 simulated minutes.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use mcps::core::scenarios::pca::{run_pca_scenario, PcaScenarioConfig};
use mcps::patient::cohort::{CohortConfig, CohortGenerator};
use mcps::runtime::time::SimDuration;

fn main() {
    // 1. A reproducible virtual patient (same seed ⇒ same patient).
    let cohort = CohortGenerator::new(42, CohortConfig::default());
    let patient = cohort.params(0);
    println!(
        "patient: {:.0} kg, baseline pain {:.1}/10, risk group {:?}",
        patient.weight_kg, patient.pain_baseline, patient.risk
    );

    // 2. The paper's flagship closed loop: PCA pump + pulse oximeter +
    //    capnograph + supervisor with a fail-safe ticket interlock,
    //    wired together over a simulated clinical network.
    let mut config = PcaScenarioConfig::baseline(42, patient);
    config.duration = SimDuration::from_mins(30);

    // 3. Run it.
    let outcome = run_pca_scenario(&config);

    // 4. Inspect what happened — physiological ground truth plus
    //    system telemetry.
    println!("\nafter {:.0} simulated minutes:", outcome.patient.observed_secs / 60.0);
    println!("  app associated:        {}", outcome.associated);
    println!("  vitals received:       {}", outcome.data_received);
    println!("  permission tickets:    {}", outcome.grants_issued);
    println!("  demand presses:        {} (+{} by proxy)", outcome.presses, outcome.proxy_presses);
    println!("  bolus decisions:       {:?}", outcome.bolus_decisions);
    println!("  opioid delivered:      {:.2} mg", outcome.total_drug_mg);
    println!("  lowest true SpO2:      {:.1} %", outcome.patient.min_spo2);
    println!("  severe hypox events:   {}", outcome.patient.severe_hypox_events);
    println!("  mean pain:             {:.1}/10", outcome.patient.mean_pain);
    println!("  network delivery:      {}/{} messages", outcome.net_delivered, outcome.net_sent);
}
