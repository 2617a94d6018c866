//! Campus-scale throughput scorecard (E12).
//!
//! Simulates a hospital campus — wards as independent fabric segments,
//! heterogeneous bed mixes (PCA closed loops, monitor-only spot-check
//! beds, x-ray/ventilator procedure rooms), staggered admissions and
//! end-of-run discharges — through the costed shard dispatcher, and
//! writes `BENCH_campus.json`: beds simulated, kernel events, events/s,
//! bed-seconds/s, the real-time factor, peak RSS and the per-shard
//! wall-clock balance.
//!
//! Usage: `bench_campus [--quick] [--seed N] [--beds N] [--wards N]
//!                      [--minutes N] [--workers N] [--out PATH]
//!                      [--max-ms MS] [--min-events-per-sec N]`
//!
//! `--quick` runs a small campus as a CI smoke: it exits nonzero on
//! any invariant violation, if the wall clock exceeds `--max-ms`, or
//! if throughput falls under `--min-events-per-sec`. The full run
//! (default 10 000 beds) is the committed scorecard: 100 wards of 100
//! beds each, ICU wards carrying eight PCA loops, for ≥ 100× real
//! time on the reference machine.

use mcps_bench::{fnum, Args, Table};
use mcps_core::scenarios::campus::{run_campus, CampusConfig, WardOutcome};
use mcps_runtime::shard::ShardStats;
use mcps_runtime::time::SimDuration;
use std::time::Instant;

#[derive(Debug, serde::Serialize)]
struct CampusInvariants {
    /// Beds that never fully associated (must be 0).
    never_admitted: u32,
    /// Non-discharged beds not associated at the end (must be 0).
    dropped_associations: u32,
    /// Refused data points across all supervisors (pre-association
    /// noise only; bounded per bed).
    data_ignored: u64,
    /// Violations found (0 = clean).
    violations: u32,
}

#[derive(Debug, serde::Serialize)]
struct CampusReport {
    config: CampusConfig,
    beds: u32,
    /// Beds concurrently admitted mid-run: every bed is admitted
    /// within the admission window and no discharge occurs before 70%
    /// of the run, so the full census is concurrent in between.
    concurrent_beds: u32,
    discharged: u32,
    sim_secs: f64,
    wall_ms: f64,
    /// Simulated seconds per wall second.
    realtime_factor: f64,
    /// Bed-seconds simulated per wall second.
    beds_per_sec: f64,
    events: u64,
    events_per_sec: f64,
    peak_rss_mb: f64,
    data_received: u64,
    desat_alarms: u64,
    grants_issued: u64,
    xray_completed: u32,
    shard_balance: f64,
    shard: ShardStats,
    invariants: CampusInvariants,
}

/// Peak resident set (VmHWM) in MiB, from /proc on Linux; 0 elsewhere.
fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

fn check_invariants(wards: &[WardOutcome]) -> CampusInvariants {
    let mut inv = CampusInvariants {
        never_admitted: 0,
        dropped_associations: 0,
        data_ignored: 0,
        violations: 0,
    };
    for w in wards {
        inv.never_admitted += w.beds - w.admitted;
        let expected = w.beds - w.discharged;
        inv.dropped_associations += expected.saturating_sub(w.associated_at_end);
        inv.data_ignored += w.data_ignored;
        if w.admitted < w.beds {
            eprintln!("INVARIANT: ward {} admitted {}/{} beds", w.ward, w.admitted, w.beds);
            inv.violations += 1;
        }
        if w.associated_at_end < expected {
            eprintln!(
                "INVARIANT: ward {} holds {}/{} expected associations",
                w.ward, w.associated_at_end, expected
            );
            inv.violations += 1;
        }
        // Scoped topics mean refused traffic is pre-association noise,
        // not cross-bed leakage; a flood here means scoping broke.
        if w.data_ignored > 100 * u64::from(w.beds) {
            eprintln!("INVARIANT: ward {} ignored {} data points", w.ward, w.data_ignored);
            inv.violations += 1;
        }
    }
    inv
}

fn main() {
    let args = Args::parse();
    let quick = args.has_flag("quick");
    let seed = args.get_u64("seed", 2026);
    let out_path = args.get_str("out", "BENCH_campus.json");
    let max_ms = args.get_u64("max-ms", 600_000) as f64;
    let min_eps = args.get_f64("min-events-per-sec", 0.0);

    let mut cfg = if quick {
        CampusConfig {
            seed,
            wards: 8,
            beds_per_ward: 25,
            icu_wards: 1,
            icu_pca_beds: 6,
            ward_pca_beds: 1,
            duration: SimDuration::from_mins(5),
            admission_window: SimDuration::from_secs(45),
            ..CampusConfig::default()
        }
    } else {
        CampusConfig {
            seed,
            wards: 100,
            beds_per_ward: 100,
            icu_wards: 10,
            icu_pca_beds: 8,
            ward_pca_beds: 1,
            duration: SimDuration::from_mins(30),
            admission_window: SimDuration::from_secs(120),
            ..CampusConfig::default()
        }
    };
    if let Some(wards) = args.get_u64_opt("wards") {
        cfg.wards = wards as u32;
    }
    if let Some(beds) = args.get_u64_opt("beds") {
        cfg.beds_per_ward = (beds as u32).div_ceil(cfg.wards.max(1));
    }
    if let Some(mins) = args.get_u64_opt("minutes") {
        cfg.duration = SimDuration::from_mins(mins);
    }
    let workers = args.get_u64("workers", 0) as usize;

    println!(
        "campus: {} wards × {} beds = {} beds, {:.0} s simulated{}",
        cfg.wards,
        cfg.beds_per_ward,
        cfg.total_beds(),
        cfg.duration.as_secs_f64(),
        if quick { " (quick)" } else { "" },
    );

    let start = Instant::now();
    let (wards, stats) = run_campus(&cfg, workers);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let sim_secs = cfg.duration.as_secs_f64();
    let events: u64 = wards.iter().map(|w| w.events).sum();
    let discharged: u32 = wards.iter().map(|w| w.discharged).sum();
    let invariants = check_invariants(&wards);
    let report = CampusReport {
        beds: cfg.total_beds(),
        concurrent_beds: cfg.total_beds(),
        discharged,
        sim_secs,
        wall_ms,
        realtime_factor: sim_secs / (wall_ms / 1e3),
        beds_per_sec: f64::from(cfg.total_beds()) * sim_secs / (wall_ms / 1e3),
        events,
        events_per_sec: events as f64 / (wall_ms / 1e3),
        peak_rss_mb: peak_rss_mb(),
        data_received: wards.iter().map(|w| w.data_received).sum(),
        desat_alarms: wards.iter().map(|w| w.desat_alarms).sum(),
        grants_issued: wards.iter().map(|w| w.grants_issued).sum(),
        xray_completed: wards.iter().map(|w| w.xray_completed).sum(),
        shard_balance: stats.balance(),
        shard: stats,
        invariants,
        config: cfg,
    };

    let mut table = Table::new(["metric", "value"]);
    table.row(["beds".into(), report.beds.to_string()]);
    table.row(["events".into(), report.events.to_string()]);
    table.row(["wall ms".into(), fnum(report.wall_ms)]);
    table.row(["realtime ×".into(), fnum(report.realtime_factor)]);
    table.row(["bed-secs/s".into(), fnum(report.beds_per_sec)]);
    table.row(["events/s".into(), fnum(report.events_per_sec)]);
    table.row(["peak RSS MiB".into(), fnum(report.peak_rss_mb)]);
    table.row(["shard balance".into(), fnum(report.shard_balance)]);
    table.row(["workers".into(), report.shard.workers.to_string()]);
    table.row(["discharged".into(), report.discharged.to_string()]);
    table.row(["desat alarms".into(), report.desat_alarms.to_string()]);
    table.row(["violations".into(), report.invariants.violations.to_string()]);
    table.print();

    mcps_bench::write_report(&report, &out_path);

    if report.invariants.violations > 0 {
        eprintln!("FAIL: {} invariant violation(s)", report.invariants.violations);
        std::process::exit(1);
    }
    if min_eps > 0.0 && report.events_per_sec < min_eps {
        eprintln!("FAIL: {:.0} events/s under the {min_eps:.0} floor", report.events_per_sec);
        std::process::exit(1);
    }
    mcps_bench::smoke_budget("bench_campus", wall_ms, max_ms);
}
