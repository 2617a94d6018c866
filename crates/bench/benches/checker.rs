//! E7d — model-checker cost per PCA interlock variant, plus state-space
//! growth with the number of parallel timers (the documented
//! exponential), plus a packed-vs-reference engine comparison on the
//! same workload so the speedup is measured, not asserted.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcps_bench::timer_chain;
use mcps_safety::models::{check_pca_variant, PcaModelVariant};
use mcps_safety::Property;

/// The unreachable bad state: every check explores the full space.
const EXHAUST: Property = Property::Safety { bad: |_| false };

fn bench_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("checker/pca_variant");
    group.sample_size(20);
    for variant in PcaModelVariant::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{variant:?}")),
            &variant,
            |b, &variant| b.iter(|| check_pca_variant(variant, 5_000_000)),
        );
    }
    group.finish();
}

fn bench_state_space_growth(c: &mut Criterion) {
    let mut group = c.benchmark_group("checker/state_space_bound20");
    group.sample_size(10);
    for &n in &[1usize, 2, 3] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let net = timer_chain(n, 20);
            b.iter(|| net.check(EXHAUST, 50_000_000))
        });
    }
    group.finish();
}

/// The same workload on the packed engine (serial, to isolate the data
/// layout from the scheduler) and on the retained first-generation
/// engine. `timer_chain(2, 20)` keeps the reference side tolerable.
fn bench_engine_comparison(c: &mut Criterion) {
    use mcps_safety::pack::{ExploreMode, Reduction};
    let mut group = c.benchmark_group("checker/engine_bound20_n2");
    group.sample_size(10);
    let net = timer_chain(2, 20);
    group.bench_function("packed_serial", |b| {
        b.iter(|| net.check_with(EXHAUST, 50_000_000, ExploreMode::Serial, Reduction::None))
    });
    group.bench_function("packed_parallel", |b| {
        b.iter(|| net.check_with(EXHAUST, 50_000_000, ExploreMode::Parallel, Reduction::None))
    });
    group.bench_function("reference", |b| b.iter(|| net.check_reference(EXHAUST, 50_000_000)));
    group.finish();
}

criterion_group!(benches, bench_variants, bench_state_space_growth, bench_engine_comparison);
criterion_main!(benches);
