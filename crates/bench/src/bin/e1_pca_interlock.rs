//! E1 — PCA safety-interlock efficacy (DESIGN.md, claim C1).
//!
//! A cohort of virtual post-operative patients receives PCA opioid
//! therapy with a proxy-press hazard (a relative pressing the demand
//! button while the patient is sedated). Three arms:
//!
//! * `open-loop` — conventional pump, no supervision (pre-MCPS),
//! * `threshold-command` — command interlock driven by threshold alarms,
//! * `fusion-ticket` — fail-safe ticket interlock driven by the fusion
//!   detector (the paper's target design),
//! * `trend-ticket` — fusion plus slope-based early detection.
//!
//! Each arm fans the cohort out over seed-isolated shards
//! ([`run_shards`]); every patient writes a private
//! [`Telemetry`] bus and the arm's statistics are the deterministic
//! merge of those buses, so the parallel run is byte-identical to a
//! serial one.
//!
//! Expected shape: the closed-loop arms eliminate (or nearly eliminate)
//! severe hypoxaemic events that the open-loop arm suffers, while
//! keeping analgesia available.
//!
//! Usage: `e1_pca_interlock [--patients N] [--hours H] [--proxy P] [--seed S] [--report]`

use mcps_bench::{fnum, Args, Table};
use mcps_control::interlock::{DetectorKind, InterlockConfig, InterlockStrategy};
use mcps_core::scenarios::pca::{run_pca_scenario, PcaScenarioConfig};
use mcps_patient::cohort::{CohortConfig, CohortGenerator};
use mcps_runtime::shard::run_shards;
use mcps_runtime::telemetry::{Summary, Telemetry};
use mcps_runtime::time::SimDuration;

fn run_arm(
    name: &'static str,
    interlock: Option<InterlockConfig>,
    patients: u64,
    hours: f64,
    proxy: f64,
    seed: u64,
) -> Telemetry {
    let cohort = CohortGenerator::new(seed, CohortConfig::default());
    let shards = run_shards((0..patients).collect(), |i| {
        let params = cohort.params(i);
        let mut cfg = match interlock {
            Some(il) => {
                let mut c = PcaScenarioConfig::baseline(seed.wrapping_add(i), params);
                c.interlock = Some(il);
                c.pump.ticket_mode = matches!(il.strategy, InterlockStrategy::Ticket { .. });
                c
            }
            None => PcaScenarioConfig::open_loop(seed.wrapping_add(i), params),
        };
        cfg.duration = SimDuration::from_secs_f64(hours * 3600.0);
        cfg.proxy_rate_per_hour = proxy;
        let out = run_pca_scenario(&cfg);

        let mut t = Telemetry::new();
        t.incr("severe_events", u64::from(out.patient.severe_hypox_events));
        if out.patient.severe_hypox_events > 0 {
            t.incr("patients_with_severe", 1);
        }
        t.observe("secs_below_severe", out.patient.secs_below_severe);
        t.observe("min_spo2", out.patient.min_spo2);
        t.observe("mean_pain", out.patient.mean_pain);
        t.observe("frac_analgesia", out.patient.frac_adequate_analgesia);
        t.observe("drug_mg", out.total_drug_mg);
        if let Some(l) = out.stop_latency_secs {
            t.observe("stop_latency_s", l);
        }
        t
    });
    let mut bus = Telemetry::new();
    bus.annotate("arm", name);
    bus.annotate("seed", seed.to_string());
    bus.annotate("patients", patients.to_string());
    bus.annotate("hours", hours.to_string());
    bus.annotate("proxy_per_hour", proxy.to_string());
    for shard in shards {
        bus.merge_owned(shard);
    }
    bus
}

fn summ(bus: &Telemetry, name: &str) -> Summary {
    bus.histogram(name).map(|h| h.summary()).unwrap_or_else(|| Summary::from_values(&[]))
}

fn main() {
    let args = Args::parse();
    let patients = args.get_u64("patients", if args.has_flag("quick") { 12 } else { 60 });
    let hours = args.get_f64("hours", if args.has_flag("quick") { 1.0 } else { 3.0 });
    let proxy = args.get_f64("proxy", 4.0);
    let seed = args.get_u64("seed", 42);

    println!("E1: PCA interlock efficacy — {patients} patients × {hours} h, proxy {proxy}/h, seed {seed}\n");

    let arms = [
        run_arm("open-loop", None, patients, hours, proxy, seed),
        run_arm(
            "threshold-command",
            Some(InterlockConfig {
                strategy: InterlockStrategy::Command,
                detector: DetectorKind::Threshold,
                ..InterlockConfig::default()
            }),
            patients,
            hours,
            proxy,
            seed,
        ),
        run_arm("fusion-ticket", Some(InterlockConfig::default()), patients, hours, proxy, seed),
        run_arm(
            "trend-ticket",
            Some(InterlockConfig {
                detector: DetectorKind::FusionWithTrend,
                ..InterlockConfig::default()
            }),
            patients,
            hours,
            proxy,
            seed,
        ),
    ];

    let mut t = Table::new([
        "arm",
        "severe events",
        "patients w/ severe",
        "mean s<85%",
        "median minSpO2",
        "mean pain",
        "analgesia frac",
        "mean drug mg",
        "stop latency p95 s",
    ]);
    for a in &arms {
        t.row([
            a.manifest().get("arm").cloned().unwrap_or_default(),
            a.counter("severe_events").to_string(),
            format!("{}/{}", a.counter("patients_with_severe"), patients),
            fnum(summ(a, "secs_below_severe").mean),
            fnum(summ(a, "min_spo2").median),
            fnum(summ(a, "mean_pain").mean),
            fnum(summ(a, "frac_analgesia").mean),
            fnum(summ(a, "drug_mg").mean),
            match a.histogram("stop_latency_s") {
                Some(h) => fnum(h.summary().p95),
                None => "-".into(),
            },
        ]);
    }
    t.print();

    if args.has_flag("report") {
        for a in &arms {
            println!("\n-- telemetry: {} --", a.manifest().get("arm").cloned().unwrap_or_default());
            print!("{}", a.render_report());
        }
    }

    let [open, threshold, ticket, trend] = &arms;
    let open_severe = summ(open, "secs_below_severe").mean;
    let thr_severe = summ(threshold, "secs_below_severe").mean;
    let tkt_severe = summ(ticket, "secs_below_severe").mean;
    let safety_ok =
        open_severe > 0.0 && thr_severe <= open_severe / 5.0 && tkt_severe <= open_severe / 5.0;
    let availability_ok =
        summ(ticket, "frac_analgesia").mean >= summ(open, "frac_analgesia").mean - 0.05;
    println!();
    println!(
        "severe-hypoxaemia patient-time: open {:.0}s, threshold-command {:.0}s ({:.0}x less), \
         fusion-ticket {:.0}s ({:.0}x less)",
        open_severe,
        thr_severe,
        if thr_severe > 0.0 { open_severe / thr_severe } else { f64::INFINITY },
        tkt_severe,
        if tkt_severe > 0.0 { open_severe / tkt_severe } else { f64::INFINITY },
    );
    let trend_severe = summ(trend, "secs_below_severe").mean;
    if safety_ok && availability_ok {
        println!(
            "SHAPE OK: both interlocks cut severe-hypoxaemia time >=5x; the fusion-ticket arm \
             additionally preserves analgesia availability ({:.2} vs open {:.2}, threshold {:.2}); \
             adding trend detection tightens severe time further ({:.0}s -> {:.0}s).",
            summ(ticket, "frac_analgesia").mean,
            summ(open, "frac_analgesia").mean,
            summ(threshold, "frac_analgesia").mean,
            tkt_severe,
            trend_severe
        );
    } else {
        println!(
            "SHAPE WARNING: safety_ok={safety_ok} availability_ok={availability_ok} — see table."
        );
    }
}
