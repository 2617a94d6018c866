//! The repository's benchmark: three workloads over the simulator and
//! the live supervisor, end-to-end metrics with tracing off, per-layer
//! metrics from a separate traced run.
//!
//! Usage: `perfbench --workload <campus|fault_grid|serve_wire> --seed N
//!                   --seconds S --trace <0|1>`
//!
//! Human-readable tables go to stdout first; the last stdout line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are every end-to-end metric, with `--trace 1`
//! every per-layer metric (0 where the workload does not exercise that
//! layer). NOTES.md explains the workloads, the statistics and the
//! layer → metric map.

mod alloc;
mod campus;
mod faults;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::time::Duration;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Worker threads for the sharded simulator workloads. Fixed, never
/// derived from the host: the main thread only waits while they run,
/// so the benchmark keeps at most two busy threads.
pub const WORKERS: usize = 2;

/// End-to-end metrics (`--trace 0`), reported by every workload.
pub const END_TO_END: &[(&str, &str)] =
    &[("throughput", "1/s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")];

/// Per-layer metrics (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    // mcps-runtime shard dispatcher
    ("shard.busy_s", "s"),
    ("shard.balance", "ratio"),
    ("shard.count", "count"),
    // mcps-runtime kernel / scheduler / executor
    ("kernel.events", "count"),
    ("kernel.self_ns_per_event", "ns"),
    ("alloc.per_event", "count"),
    ("sched.events_scheduled", "count"),
    ("sched.cascades", "count"),
    // mcps-net fabric (NetworkController)
    ("fabric.calls", "count"),
    ("fabric.self_s", "s"),
    ("fabric.ns_per_call", "ns"),
    // mcps-patient
    ("patient.calls", "count"),
    ("patient.self_s", "s"),
    // mcps-device actors
    ("device.calls", "count"),
    ("device.self_s", "s"),
    // mcps-core supervisor
    ("supervisor.calls", "count"),
    ("supervisor.self_s", "s"),
    ("supervisor.commands_retried", "count"),
    ("supervisor.failovers", "count"),
    ("supervisor.degraded_entries", "count"),
    ("pump.fenced_commands", "count"),
    // scenario build
    ("ward.build_s", "s"),
    ("scenario.build_s", "s"),
    // clinical latencies in protocol / simulated time
    ("safety.failsafe_p50_s", "s"),
    ("safety.failsafe_max_s", "s"),
    ("safety.danger_stop_p50_s", "s"),
    ("safety.danger_stop_max_s", "s"),
    ("safety.danger_cycles", "count"),
    // mcps-serve wire codec
    ("wire.encode_ns", "ns"),
    ("wire.header_crc_ns", "ns"),
    ("wire.payload_crc_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.bytes_per_frame", "bytes"),
    ("wire.allocs_per_frame", "count"),
    // mcps-serve transport
    ("transport.send_ns", "ns"),
    ("transport.frames_in", "count"),
    ("transport.frames_out", "count"),
    // mcps-serve host and the sans-io core
    ("host.poll_ns_per_sample", "ns"),
    ("core.handle_ns", "ns"),
    ("core.allocs_per_frame", "count"),
    ("host.ingress_peak", "count"),
    ("host.vitals_shed", "count"),
    ("host.critical_overflow", "count"),
    ("core.traces_built", "count"),
    ("serve.samples_timed", "count"),
    ("serve.latency_p50_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.generator_late_p99_ms", "ms"),
    // cost of the traced run itself
    ("trace.overhead_pct", "%"),
];

/// What one workload run produced: correctness accounting plus metric
/// values by name.
#[derive(Debug, Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts one checked operation; a failing one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    println!(
        "workload {} seed {} seconds {} trace {} workers {} (available_parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        WORKERS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let mut out = match args.workload.as_str() {
        "campus" => campus::run(args.seed, budget, args.trace),
        "fault_grid" => faults::run(args.seed, budget, args.trace),
        "serve_wire" => serve::run(args.seed, budget, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let schema = if args.trace { PER_LAYER } else { END_TO_END };
    if !args.trace {
        out.set("peak_rss_mib", stats::peak_rss_mib());
    }
    let mut metrics = Vec::with_capacity(schema.len());
    for &(name, unit) in schema {
        let value = match out.values.get(name) {
            Some(v) => *v,
            // A per-layer metric the workload does not exercise.
            None if args.trace => 0.0,
            None => panic!("end-to-end metric {name} missing from {}", args.workload),
        };
        out.check(value.is_finite(), || format!("{name} is not finite: {value}"));
        println!("  {name:<32} {value:>18.6} {unit}");
        let value = if value.is_finite() { value } else { 0.0 };
        metrics.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
}
