//! E1 — PCA safety-interlock efficacy, defined once.
//!
//! The four interlock arms and the per-patient scenario configuration
//! of the E1 cohort. The `e1_pca_interlock` binary prints the
//! experiment's tables from [`run_arms`]; `bench_runtime` times the
//! same call as its end-to-end workload.
//!
//! Each arm fans the cohort out over seed-isolated shards
//! ([`run_shards`]); every patient writes a private [`Telemetry`] bus
//! and the arm's statistics are the deterministic merge of those buses,
//! so the parallel run is byte-identical to a serial one.

use mcps_control::interlock::{DetectorKind, InterlockConfig, InterlockStrategy};
use mcps_core::scenarios::pca::{run_pca_scenario, PcaScenarioConfig};
use mcps_patient::cohort::{CohortConfig, CohortGenerator};
use mcps_runtime::shard::run_shards;
use mcps_runtime::telemetry::Telemetry;
use mcps_runtime::time::SimDuration;

/// The cohort's default master seed.
pub const SEED: u64 = 42;

/// The default proxy-press rate (presses per hour while sedated).
pub const PROXY_PER_HOUR: f64 = 4.0;

/// The four arms, in table order: `None` is the unsupervised pump.
fn arms() -> [(&'static str, Option<InterlockConfig>); 4] {
    [
        ("open-loop", None),
        (
            "threshold-command",
            Some(InterlockConfig {
                strategy: InterlockStrategy::Command,
                detector: DetectorKind::Threshold,
                ..InterlockConfig::default()
            }),
        ),
        ("fusion-ticket", Some(InterlockConfig::default())),
        (
            "trend-ticket",
            Some(InterlockConfig {
                detector: DetectorKind::FusionWithTrend,
                ..InterlockConfig::default()
            }),
        ),
    ]
}

/// Runs one arm over `patients` cohort patients for `hours` each and
/// returns the arm's merged telemetry bus (annotated with its name and
/// parameters).
fn run_arm(
    name: &str,
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
        bus.merge(shard);
    }
    bus
}

/// Runs the four arms (open-loop, threshold-command, fusion-ticket,
/// trend-ticket), in table order.
pub fn run_arms(patients: u64, hours: f64, proxy: f64, seed: u64) -> [Telemetry; 4] {
    arms().map(|(name, interlock)| run_arm(name, interlock, patients, hours, proxy, seed))
}
