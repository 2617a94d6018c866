//! E7c — virtual-patient integration cost: one simulated hour of
//! physiology per iteration (PK RK4 + gas exchange + pain dynamics).

use criterion::{criterion_group, criterion_main, Criterion};
use mcps_patient::cohort::{CohortConfig, CohortGenerator};
use mcps_patient::patient::{PatientParams, VirtualPatient};
use mcps_runtime::rng::RngFactory;

fn bench_advance(c: &mut Criterion) {
    c.bench_function("patient/one_hour_1hz", |b| {
        let factory = RngFactory::new(7);
        b.iter(|| {
            let mut p = VirtualPatient::new(PatientParams::default());
            let mut rng = factory.stream("bench");
            p.give_bolus(1.0);
            for _ in 0..3600 {
                p.advance(1.0, &mut rng);
            }
            p.outcome()
        })
    });
}

fn bench_cohort_sampling(c: &mut Criterion) {
    c.bench_function("patient/cohort_param_sample", |b| {
        let g = CohortGenerator::new(3, CohortConfig::default());
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            g.params(i)
        })
    });
}

criterion_group!(benches, bench_advance, bench_cohort_sampling);
criterion_main!(benches);
