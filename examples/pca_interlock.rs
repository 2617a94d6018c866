//! The PCA overdose story, three ways.
//!
//! One opioid-sensitive patient, an over-helpful relative pressing the
//! demand button (PCA-by-proxy), and three system designs: no
//! supervision, a command interlock, and the fail-safe ticket
//! interlock. Prints the physiological outcome of each.
//!
//! ```sh
//! cargo run --release --example pca_interlock
//! ```

use mcps::control::interlock::{DetectorKind, InterlockConfig, InterlockStrategy};
use mcps::core::scenarios::pca::{run_pca_scenario, PcaScenarioConfig};
use mcps::patient::cohort::{CohortConfig, CohortGenerator};
use mcps::runtime::time::SimDuration;

fn main() {
    // An enriched cohort: this patient is opioid-sensitive.
    let cohort = CohortGenerator::new(
        7,
        CohortConfig { frac_opioid_sensitive: 1.0, frac_sleep_apnea: 0.0, variability_sigma: 0.2 },
    );
    let patient = cohort.params(3);
    println!(
        "patient: {:.0} kg, opioid-sensitive (EC50 {:.3} mg/L), pain {:.1}/10",
        patient.weight_kg, patient.physio.ec50_depression, patient.pain_baseline
    );
    println!("hazard: proxy presses the PCA button 12x/hour, even while the patient sleeps\n");

    let arms: [(&str, Option<InterlockConfig>); 3] = [
        ("open loop (no supervision)", None),
        (
            "command interlock",
            Some(InterlockConfig {
                strategy: InterlockStrategy::Command,
                detector: DetectorKind::Fusion,
                ..InterlockConfig::default()
            }),
        ),
        ("ticket interlock (fail-safe)", Some(InterlockConfig::default())),
    ];

    for (name, interlock) in arms {
        let mut cfg = match interlock {
            Some(il) => {
                let mut c = PcaScenarioConfig::baseline(7, patient);
                c.interlock = Some(il);
                c.pump.ticket_mode = matches!(il.strategy, InterlockStrategy::Ticket { .. });
                c
            }
            None => PcaScenarioConfig::open_loop(7, patient),
        };
        cfg.duration = SimDuration::from_mins(180);
        cfg.proxy_rate_per_hour = 12.0;
        let out = run_pca_scenario(&cfg);
        println!("== {name} ==");
        println!(
            "  min SpO2 {:.1}%  |  severe events {}  |  time below 85%: {:.0}s",
            out.patient.min_spo2, out.patient.severe_hypox_events, out.patient.secs_below_severe
        );
        println!(
            "  drug {:.1} mg  |  mean pain {:.1}  |  analgesia-adequate {:.0}% of time",
            out.total_drug_mg,
            out.patient.mean_pain,
            out.patient.frac_adequate_analgesia * 100.0
        );
        if let (Some(onset), Some(lat)) = (out.danger_onset_secs, out.stop_latency_secs) {
            println!("  true danger at t={:.0}s; pump delivery cut {:.0}s after onset", onset, lat);
        } else if out.danger_onset_secs.is_some() {
            println!("  true danger occurred and the pump was NEVER stopped");
        } else {
            println!("  no true danger developed");
        }
        println!();
    }
}
