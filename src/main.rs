//! `mcps` — command-line front end to the MCPS simulation suite.
//!
//! ```text
//! mcps pca     [--seed N] [--minutes M] [--open-loop] [--json]   run the PCA closed loop
//! mcps ward    [--seed N] [--patients P] [--minutes M] [--json]  run the alarm ward
//! mcps xray    [--seed N] [--manual SECS] [--json]               run x-ray coordination
//! mcps verify  [--trace]                                         model-check the interlock
//! mcps hazards                                                   print the hazard log & traceability
//! ```
//!
//! Every run is deterministic in `--seed`.

use mcps::core::scenarios::pca::{run_pca_scenario, PcaScenarioConfig};
use mcps::core::scenarios::ward::{run_ward_scenario, WardConfig};
use mcps::core::scenarios::xray::{run_xray_scenario, XRayScenarioConfig};
use mcps::patient::cohort::{CohortConfig, CohortGenerator};
use mcps::runtime::time::SimDuration;
use mcps::safety::checker::CheckOutcome;
use mcps::safety::hazard::pca_hazard_log;
use mcps::safety::models::{check_pca_variant, PcaModelVariant};
use mcps::safety::requirements::pca_requirements;
use std::collections::BTreeMap;
use std::process::ExitCode;

struct Cli {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Cli {
    fn parse(args: &[String]) -> Self {
        let mut values = BTreeMap::new();
        let mut flags = Vec::new();
        let mut iter = args.iter().peekable();
        while let Some(a) = iter.next() {
            if let Some(key) = a.strip_prefix("--") {
                match iter.peek() {
                    Some(v) if !v.starts_with("--") => {
                        values.insert(key.to_owned(), iter.next().unwrap().clone());
                    }
                    _ => flags.push(key.to_owned()),
                }
            }
        }
        Cli { values, flags }
    }

    fn u64(&self, key: &str, default: u64) -> u64 {
        self.values.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    fn f64(&self, key: &str, default: f64) -> f64 {
        self.values.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: mcps <pca|ward|xray|verify|hazards> [options]\n\
         run `mcps <cmd> --help` conceptually: options are --seed, --minutes, --patients,\n\
         --open-loop, --manual SECS, --trace, --json (see crate docs)"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        return usage();
    };
    let cli = Cli::parse(&args[1..]);
    match cmd {
        "pca" => cmd_pca(&cli),
        "ward" => cmd_ward(&cli),
        "xray" => cmd_xray(&cli),
        "verify" => cmd_verify(&cli),
        "hazards" => cmd_hazards(),
        _ => return usage(),
    }
    ExitCode::SUCCESS
}

fn cmd_pca(cli: &Cli) {
    let seed = cli.u64("seed", 42);
    let minutes = cli.u64("minutes", 120);
    let cohort = CohortGenerator::new(seed, CohortConfig::default());
    let mut cfg = if cli.flag("open-loop") {
        PcaScenarioConfig::open_loop(seed, cohort.params(0))
    } else {
        PcaScenarioConfig::baseline(seed, cohort.params(0))
    };
    cfg.duration = SimDuration::from_mins(minutes);
    cfg.proxy_rate_per_hour = cli.f64("proxy", 2.0);
    if cli.flag("backup-oximeter") {
        cfg.backup_oximeter = true;
    }
    if cli.flag("plausibility") {
        if let Some(il) = cfg.interlock.as_mut() {
            il.plausibility_check = true;
        }
    }
    if cli.flag("csv") {
        cfg.timeline_every_secs = cli.u64("every", 10);
    }
    let out = run_pca_scenario(&cfg);
    if cli.flag("csv") {
        println!("t_secs,spo2,effect_site_mg_per_l,pain");
        for p in &out.timeline {
            println!("{},{:.2},{:.4},{:.2}", p.t_secs, p.spo2, p.effect_site, p.pain);
        }
        return;
    }
    if cli.flag("json") {
        println!("{}", serde_json::to_string_pretty(&out).expect("outcome serializes"));
    } else {
        println!(
            "pca: {} min, seed {seed} | minSpO2 {:.1}% | severe events {} | drug {:.1} mg | \
             pain {:.1} | tickets {} | associated {}",
            minutes,
            out.patient.min_spo2,
            out.patient.severe_hypox_events,
            out.total_drug_mg,
            out.patient.mean_pain,
            out.grants_issued,
            out.associated
        );
    }
}

fn cmd_ward(cli: &Cli) {
    let cfg = WardConfig {
        seed: cli.u64("seed", 0),
        patients: cli.u64("patients", 8) as u32,
        duration: SimDuration::from_mins(cli.u64("minutes", 240)),
        ..WardConfig::default()
    };
    let out = run_ward_scenario(&cfg);
    if cli.flag("json") {
        println!("{}", serde_json::to_string_pretty(&out).expect("outcome serializes"));
    } else {
        println!(
            "ward: {} beds | episodes {} | threshold FAR {:.2}/pt-h sens {:.2} | fusion FAR \
             {:.2}/pt-h sens {:.2}",
            cfg.patients,
            out.episodes,
            out.threshold.false_alarm_rate_per_hour(),
            out.threshold.sensitivity(),
            out.fusion.false_alarm_rate_per_hour(),
            out.fusion.sensitivity()
        );
    }
}

fn cmd_xray(cli: &Cli) {
    let seed = cli.u64("seed", 1);
    let cfg = match cli.values.get("manual") {
        Some(d) => XRayScenarioConfig::manual(seed, d.parse().unwrap_or(6.0)),
        None => XRayScenarioConfig::automated(seed),
    };
    let out = run_xray_scenario(&cfg);
    if cli.flag("json") {
        println!("{}", serde_json::to_string_pretty(&out).expect("outcome serializes"));
    } else {
        println!(
            "xray: {}/{} blur-free ({:.0}%) | auto-resumes {} | aborts {}",
            out.blur_free,
            out.requested,
            out.blur_free_rate() * 100.0,
            out.auto_resumes,
            out.aborted
        );
    }
}

fn cmd_verify(cli: &Cli) {
    for variant in PcaModelVariant::ALL {
        let out = check_pca_variant(variant, 5_000_000);
        match &out {
            CheckOutcome::Holds { states } => {
                println!("HOLDS    ({states:>6} states)  {}", variant.description());
            }
            CheckOutcome::Violated { trace, states } => {
                println!("VIOLATED ({states:>6} states)  {}", variant.description());
                if cli.flag("trace") {
                    print!("{trace}");
                }
            }
            CheckOutcome::Exhausted { budget } => {
                println!("EXHAUSTED at {budget}  {}", variant.description());
            }
        }
    }
}

fn cmd_hazards() {
    let log = pca_hazard_log();
    print!("{}", log.render_table());
    println!("\nreleasable: {}\n", log.is_acceptable());
    let matrix = pca_requirements();
    print!("{}", matrix.render_table());
    let issues = matrix.check(&log);
    if issues.is_empty() {
        println!("\ntraceability: complete (every hazard covered, every requirement evidenced)");
    } else {
        println!("\ntraceability issues:");
        for i in issues {
            println!("  - {i}");
        }
    }
}
