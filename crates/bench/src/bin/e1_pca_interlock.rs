//! E1 — PCA safety-interlock efficacy (DESIGN.md, claim C1).
//!
//! A cohort of virtual post-operative patients receives PCA opioid
//! therapy with a proxy-press hazard (a relative pressing the demand
//! button while the patient is sedated). Four arms:
//!
//! * `open-loop` — conventional pump, no supervision (pre-MCPS),
//! * `threshold-command` — command interlock driven by threshold alarms,
//! * `fusion-ticket` — fail-safe ticket interlock driven by the fusion
//!   detector (the paper's target design),
//! * `trend-ticket` — fusion plus slope-based early detection.
//!
//! The arms and the per-patient configuration are defined once, in
//! [`mcps_bench::e1`], which `bench_runtime` times as well.
//!
//! Expected shape: the closed-loop arms eliminate (or nearly eliminate)
//! severe hypoxaemic events that the open-loop arm suffers, while
//! keeping analgesia available.
//!
//! Usage: `e1_pca_interlock [--patients N] [--hours H] [--proxy P] [--seed S] [--report]`

use mcps_bench::{e1, fnum, Args, Table};
use mcps_runtime::telemetry::{Summary, Telemetry};

fn summ(bus: &Telemetry, name: &str) -> Summary {
    bus.histogram(name).map(|h| h.summary()).unwrap_or_else(|| Summary::from_values(&[]))
}

fn main() {
    let args = Args::parse();
    let patients = args.get_u64("patients", if args.has_flag("quick") { 12 } else { 60 });
    let hours = args.get_f64("hours", if args.has_flag("quick") { 1.0 } else { 3.0 });
    let proxy = args.get_f64("proxy", e1::PROXY_PER_HOUR);
    let seed = args.get_u64("seed", e1::SEED);

    println!("E1: PCA interlock efficacy — {patients} patients × {hours} h, proxy {proxy}/h, seed {seed}\n");

    let arms = e1::run_arms(patients, hours, proxy, seed);

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
    let trend_severe = summ(trend, "secs_below_severe").mean;
    println!(
        "severe-hypoxaemia patient-time: open {:.0}s, threshold-command {:.0}s ({:.0}x less), \
         fusion-ticket {:.0}s ({:.0}x less), trend-ticket {:.0}s",
        open_severe,
        thr_severe,
        if thr_severe > 0.0 { open_severe / thr_severe } else { f64::INFINITY },
        tkt_severe,
        if tkt_severe > 0.0 { open_severe / tkt_severe } else { f64::INFINITY },
        trend_severe,
    );
    if safety_ok && availability_ok {
        println!(
            "SHAPE OK: both interlocks cut severe-hypoxaemia time >=5x; the fusion-ticket arm \
             additionally preserves analgesia availability ({:.2} vs open {:.2}, threshold {:.2}).",
            summ(ticket, "frac_analgesia").mean,
            summ(open, "frac_analgesia").mean,
            summ(threshold, "frac_analgesia").mean,
        );
    } else {
        println!(
            "SHAPE WARNING: safety_ok={safety_ok} availability_ok={availability_ok} — see table."
        );
    }
}
