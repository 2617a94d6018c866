//! E3 — Automated x-ray/ventilator coordination vs manual workflow
//! (claim C3).
//!
//! Sweeps the manual workflow's human step delay and the requested
//! pause window; the automated ICE coordination is the reference arm.
//!
//! Expected shape: automation achieves a near-perfect blur-free rate
//! with zero pause-budget exhaustions; the manual arm degrades as human
//! delays grow and as the pause window shrinks.
//!
//! Usage: `e3_xray_vent [--exposures N] [--seeds K]`

use mcps_bench::{fnum, Args, Table};
use mcps_core::scenarios::xray::{run_xray_scenario, XRayScenarioConfig};
use mcps_runtime::time::SimDuration;

fn aggregate(cfgs: impl Iterator<Item = XRayScenarioConfig>) -> (u32, u32, u32, u32, f64) {
    let (mut req, mut blur_free, mut auto, mut aborted, mut pause_sum, mut n) =
        (0, 0, 0, 0, 0.0, 0);
    for cfg in cfgs {
        let out = run_xray_scenario(&cfg);
        req += out.requested;
        blur_free += out.blur_free;
        auto += out.auto_resumes;
        aborted += out.aborted;
        pause_sum += out.mean_pause_secs;
        n += 1;
    }
    (req, blur_free, auto, aborted, pause_sum / n.max(1) as f64)
}

fn main() {
    let args = Args::parse();
    let quick = args.has_flag("quick");
    let exposures = args.get_u64("exposures", if quick { 10 } else { 30 }) as u32;
    let seeds = args.get_u64("seeds", if quick { 2 } else { 5 });

    println!("E3: x-ray/ventilator coordination — {exposures} exposures × {seeds} seeds\n");

    let mut t = Table::new([
        "workflow",
        "pause win s",
        "blur-free rate",
        "auto-resumes",
        "aborts",
        "mean pause s",
    ]);

    for &pause_secs in &[10u64, 15, 20] {
        let (req, ok, auto, ab, mp) = aggregate((0..seeds).map(|s| {
            let mut c = XRayScenarioConfig::automated(s);
            c.exposures = exposures;
            c.pause_duration = SimDuration::from_secs(pause_secs);
            c
        }));
        t.row([
            "automated".to_owned(),
            pause_secs.to_string(),
            fnum(f64::from(ok) / f64::from(req.max(1))),
            auto.to_string(),
            ab.to_string(),
            fnum(mp),
        ]);
    }
    for &delay in &[3.0, 6.0, 10.0] {
        for &pause_secs in &[10u64, 15, 20] {
            let (req, ok, auto, ab, mp) = aggregate((0..seeds).map(|s| {
                let mut c = XRayScenarioConfig::manual(s, delay);
                c.exposures = exposures;
                c.pause_duration = SimDuration::from_secs(pause_secs);
                c
            }));
            t.row([
                format!("manual (median {delay}s/step)"),
                pause_secs.to_string(),
                fnum(f64::from(ok) / f64::from(req.max(1))),
                auto.to_string(),
                ab.to_string(),
                fnum(mp),
            ]);
        }
    }
    t.print();

    // Shape check on the headline cells.
    let (req_a, ok_a, auto_a, _, _) = aggregate((0..seeds).map(|s| {
        let mut c = XRayScenarioConfig::automated(s);
        c.exposures = exposures;
        c
    }));
    let (req_m, ok_m, _, _, _) = aggregate((0..seeds).map(|s| {
        let mut c = XRayScenarioConfig::manual(s, 10.0);
        c.exposures = exposures;
        c
    }));
    let rate_a = f64::from(ok_a) / f64::from(req_a.max(1));
    let rate_m = f64::from(ok_m) / f64::from(req_m.max(1));
    println!();
    if rate_a >= 0.95 && rate_m < rate_a - 0.15 && auto_a == 0 {
        println!(
            "SHAPE OK: automation {:.0}% blur-free with 0 pause-budget exhaustions; \
             slow manual workflow {:.0}%.",
            rate_a * 100.0,
            rate_m * 100.0
        );
    } else {
        println!(
            "SHAPE WARNING: automated {rate_a:.2} (auto-resumes {auto_a}), manual {rate_m:.2}."
        );
    }
}
