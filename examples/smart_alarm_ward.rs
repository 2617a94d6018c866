//! A monitored post-operative ward: conventional threshold alarms vs
//! the multi-parameter fusion alarm, scored against physiological
//! ground truth.
//!
//! ```sh
//! cargo run --release --example smart_alarm_ward
//! ```

use mcps::core::scenarios::ward::{run_ward_scenario, WardConfig};
use mcps::runtime::time::SimDuration;

fn main() {
    let cfg = WardConfig {
        seed: 11,
        patients: 12,
        duration: SimDuration::from_mins(6 * 60),
        ..WardConfig::default()
    };
    println!(
        "{} monitored beds, {:.0} h, artifact-rich SpO2/HR/RR/EtCO2 sensors\n",
        cfg.patients, 6.0
    );
    let out = run_ward_scenario(&cfg);

    println!("ground-truth adverse episodes on the ward: {}\n", out.episodes);
    for (name, s) in [("threshold alarms", &out.threshold), ("fusion alarm   ", &out.fusion)] {
        println!(
            "{name}:  sensitivity {:.2}   false alarms/patient-hour {:.2}   precision {:.2}",
            s.sensitivity(),
            s.false_alarm_rate_per_hour(),
            s.precision()
        );
    }
    let ratio = out.threshold.false_alarm_rate_per_hour()
        / out.fusion.false_alarm_rate_per_hour().max(1e-9);
    println!(
        "\nthe fusion alarm cut the false-alarm burden {ratio:.1}x — \
         that is the difference between\nalarms nurses answer and alarms nurses silence."
    );
}
