//! `fault_grid`: the full E8/E13 campaign grid through
//! `campaign::build_grid` + `mined_failover_cells` + `run_cell`.
//!
//! End-to-end: whole-grid passes at [`WORKERS`] workers through the
//! costed shard dispatcher until the budget is spent. Each cell (three
//! patients × 1500 simulated seconds) is a timed unit; throughput is
//! simulated patient-seconds over the fast-regime wall, exactly as for
//! `campus`. Every cell must score zero invariant violations and zero
//! spurious degradations, and every pass must reproduce the first
//! pass's verdict digest.

use crate::stats::{fastest, median, Digest};
use crate::{Outcome, WORKERS};
use mcps_bench::campaign::{
    build_grid, mined_failover_cells, run_cell, CampaignConfig, CellReport, CellSpec,
};
use mcps_runtime::shard::{run_shards_costed_in, ShardStats};
use mcps_runtime::time::SimDuration;
use std::time::{Duration, Instant};

/// The swept grid plus the checker-mined failover cell.
fn grid(cfg: &CampaignConfig) -> Vec<CellSpec> {
    let mut cells = build_grid(cfg);
    cells.extend(mined_failover_cells());
    cells
}

/// Runs every cell of `cells` under `cfg` on the shard dispatcher.
fn run_grid(cells: &[CellSpec], cfg: &CampaignConfig) -> (Vec<CellReport>, ShardStats) {
    let costs = vec![1u64; cells.len()];
    run_shards_costed_in(cells.to_vec(), &costs, WORKERS, || (), |(), spec| run_cell(&spec, cfg))
}

/// Builds the grid and every cell's scenarios at zero duration.
fn setup_once(cfg: &CampaignConfig) -> (f64, Vec<f64>) {
    let zero = CampaignConfig { run: SimDuration::ZERO, ..cfg.clone() };
    let t0 = Instant::now();
    let cells = grid(cfg);
    let (_, stats) = run_grid(&cells, &zero);
    (t0.elapsed().as_secs_f64(), stats.shard_secs)
}

fn cell_ok(c: &CellReport) -> bool {
    c.violations == 0 && c.spurious_degradations == 0 && c.double_actuations == 0
}

fn digest(cells: &[CellReport]) -> u64 {
    let mut d = Digest::default();
    for c in cells {
        let fs = c.failsafe.as_ref();
        for v in [
            c.violations,
            c.spurious_degradations,
            c.degraded_entries,
            c.commands_retried,
            c.commands_suppressed,
            c.failovers,
            c.fenced_commands,
            c.double_actuations,
            c.local_failsafe_entries,
            c.queue.events_scheduled,
            c.queue.cascades,
            c.max_total_drug_mg.to_bits(),
            c.min_spo2.to_bits(),
            fs.map_or(0, |f| f.engaged),
            fs.map_or(0, |f| f.p50_secs.to_bits()),
            fs.map_or(0, |f| f.max_secs.to_bits()),
        ] {
            d.word(v);
        }
    }
    d.value()
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Outcome {
    let cfg = CampaignConfig::full(seed);
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let cells = grid(&cfg);
    let n = cells.len();

    let mut cell_secs: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut balances = Vec::new();
    let mut pass_walls = Vec::new();
    let mut reference: Option<u64> = None;
    let mut last: Option<(Vec<CellReport>, ShardStats)> = None;
    let start = Instant::now();
    // The traced run needs one pass for its exact counts.
    let min_passes = if trace { 1 } else { 2 };
    while pass_walls.len() < min_passes || (!trace && start.elapsed() < budget) {
        // One set-up per pass spreads the set-ups over the run's host
        // regimes, as the passes are.
        setups.push(setup_once(&cfg));
        let t0 = Instant::now();
        let (reports, stats) = run_grid(&cells, &cfg);
        pass_walls.push(t0.elapsed().as_secs_f64());
        for c in &reports {
            out.check(cell_ok(c), || {
                let spurious = c.spurious_degradations;
                format!("cell {} failed: {:?}, {spurious} spurious", c.id, c.violation_reasons)
            });
        }
        let dig = digest(&reports);
        let first = *reference.get_or_insert(dig);
        out.check(dig == first, || {
            format!("grid pass digest {dig:016x} differs from {first:016x}")
        });
        for (i, s) in stats.shard_secs.iter().enumerate() {
            cell_secs[i].push(*s);
        }
        balances.push(stats.balance());
        last = Some((reports, stats));
    }
    let (reports, stats) = last.expect("at least one pass");
    let patient_secs = (n as u64 * cfg.trials) as f64 * cfg.run.as_secs_f64();
    println!(
        "fault_grid: {n} cells x {} patients x {} s, {} passes, digest {:016x}",
        cfg.trials,
        cfg.run.as_secs_f64(),
        pass_walls.len(),
        reference.expect("digest")
    );

    if trace {
        let sum = |f: fn(&CellReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
        out.set("shard.busy_s", stats.busy_secs());
        out.set("shard.balance", stats.balance());
        out.set("shard.count", stats.shard_secs.len() as f64);
        out.set("sched.events_scheduled", sum(|c| c.queue.events_scheduled));
        out.set("sched.cascades", sum(|c| c.queue.cascades));
        out.set("supervisor.commands_retried", sum(|c| c.commands_retried));
        out.set("supervisor.failovers", sum(|c| c.failovers));
        out.set("supervisor.degraded_entries", sum(|c| c.degraded_entries));
        out.set("pump.fenced_commands", sum(|c| c.fenced_commands));
        let p50s: Vec<f64> =
            reports.iter().filter_map(|c| c.failsafe.as_ref().map(|f| f.p50_secs)).collect();
        let maxes = reports.iter().filter_map(|c| c.failsafe.as_ref().map(|f| f.max_secs));
        out.set("safety.failsafe_p50_s", median(&p50s));
        out.set("safety.failsafe_max_s", maxes.fold(0.0, f64::max));
        // Per-scenario build: a cell's zero-duration cost over its trials.
        let builds: Vec<f64> = setups
            .iter()
            .flat_map(|(_, cells)| cells.iter().map(|s| s / cfg.trials as f64))
            .collect();
        out.set("scenario.build_s", median(&builds));
        println!(
            "  cells failing safe {} | failsafe p50-of-cells {:.3} s | retried {} | failovers {} | fenced {}",
            p50s.len(),
            median(&p50s),
            sum(|c| c.commands_retried),
            sum(|c| c.failovers),
            sum(|c| c.fenced_commands),
        );
        return out;
    }

    let fast: Vec<f64> = cell_secs.iter().map(|t| fastest(t)).collect();
    let typical: Vec<f64> = cell_secs.iter().map(|t| median(t)).collect();
    let balance = median(&balances);
    let wall_of = |units: &[f64]| units.iter().sum::<f64>() / (WORKERS as f64 * balance);
    let throughput = patient_secs / wall_of(&fast);
    println!(
        "  patient-s/s fast-regime {:.0} | median-unit {:.0} | median pass wall {:.0} (balance {balance:.3}) | cell ms p50 {:.3}",
        throughput,
        patient_secs / wall_of(&typical),
        patient_secs / median(&pass_walls),
        median(&fast) * 1e3,
    );
    out.set("throughput", throughput);
    out.set("setup_s", median(&setups.iter().map(|s| s.0).collect::<Vec<f64>>()));
    out
}
