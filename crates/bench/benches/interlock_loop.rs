//! E7e — end-to-end cost of the full ICE closed loop: one simulated
//! 10-minute PCA scenario (patient + 3 devices + supervisor + network)
//! per iteration, plus a small ward, serial and shard-parallel (the
//! runtime's deterministic `run_shards` pool).

use criterion::{criterion_group, criterion_main, Criterion};
use mcps_core::scenarios::pca::{run_pca_scenario, PcaScenarioConfig};
use mcps_core::scenarios::ward::{run_ward_scenario, WardConfig};
use mcps_patient::cohort::{CohortConfig, CohortGenerator};
use mcps_runtime::time::SimDuration;

fn bench_sharded_cohort(c: &mut Criterion) {
    // The same cohort fanned out over the runtime's shard pool — the
    // speedup over `ice/multibed_10min/8` is the parallel harness win;
    // output stays byte-identical to serial (see the mcps-core
    // `shard_determinism` tests).
    let mut group = c.benchmark_group("runtime/sharded_cohort_10min");
    group.sample_size(10);
    let cohort = CohortGenerator::new(2, CohortConfig::default());
    let configs: Vec<PcaScenarioConfig> = (0..8u64)
        .map(|i| {
            let mut cfg = PcaScenarioConfig::baseline(i, cohort.params(i));
            cfg.duration = SimDuration::from_mins(10);
            cfg
        })
        .collect();
    group.bench_function("8_patients", |b| {
        b.iter(|| mcps_runtime::shard::run_shards(configs.clone(), |cfg| run_pca_scenario(&cfg)))
    });
    group.finish();
}

fn bench_ward_scaling(c: &mut Criterion) {
    // E7f: how simulation cost scales with bed count (one full ICE
    // closed loop per bed, 10 simulated minutes each).
    let mut group = c.benchmark_group("ice/multibed_10min");
    group.sample_size(10);
    for &beds in &[1u64, 4, 8] {
        group.bench_with_input(criterion::BenchmarkId::from_parameter(beds), &beds, |b, &beds| {
            let cohort = CohortGenerator::new(2, CohortConfig::default());
            let configs: Vec<PcaScenarioConfig> = (0..beds)
                .map(|i| {
                    let mut cfg = PcaScenarioConfig::baseline(i, cohort.params(i));
                    cfg.duration = SimDuration::from_mins(10);
                    cfg
                })
                .collect();
            b.iter(|| configs.iter().map(run_pca_scenario).count())
        });
    }
    group.finish();
}

fn bench_pca_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("ice");
    group.sample_size(20);
    group.bench_function("pca_scenario_10min", |b| {
        let cohort = CohortGenerator::new(1, CohortConfig::default());
        let mut cfg = PcaScenarioConfig::baseline(1, cohort.params(0));
        cfg.duration = SimDuration::from_mins(10);
        b.iter(|| run_pca_scenario(&cfg))
    });
    group.bench_function("ward_4beds_30min", |b| {
        let cfg = WardConfig {
            seed: 1,
            patients: 4,
            duration: SimDuration::from_mins(30),
            ..WardConfig::default()
        };
        b.iter(|| run_ward_scenario(&cfg))
    });
    group.finish();
}

criterion_group!(benches, bench_pca_loop, bench_ward_scaling, bench_sharded_cohort);
criterion_main!(benches);
