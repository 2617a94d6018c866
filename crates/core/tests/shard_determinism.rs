//! Shard-parallel execution must be **byte-identical** to serial
//! execution on real workloads — the acceptance gate for moving the
//! experiment cohorts onto `run_shards`. Identity is checked on the
//! serialized JSON, not just `PartialEq`, so even float formatting and
//! field ordering must agree. The sharded campus has the same check in
//! `scenarios::campus`'s unit tests.

use mcps_core::scenarios::pca::{run_pca_scenario, PcaScenarioConfig, PcaScenarioOutcome};
use mcps_patient::cohort::{CohortConfig, CohortGenerator};
use mcps_runtime::shard::run_shards;
use mcps_runtime::time::SimDuration;

#[test]
fn e1_cohort_parallel_is_byte_identical_to_serial() {
    // The exact per-patient configuration E1 builds: one isolated seed
    // per cohort member, shared scenario parameters.
    let seed = 42u64;
    let cohort = CohortGenerator::new(seed, CohortConfig::default());
    let cfgs: Vec<PcaScenarioConfig> = (0..6u64)
        .map(|i| {
            let mut c = PcaScenarioConfig::baseline(seed.wrapping_add(i), cohort.params(i));
            c.duration = SimDuration::from_mins(20);
            c.proxy_rate_per_hour = 4.0;
            c
        })
        .collect();

    let serial: Vec<PcaScenarioOutcome> = cfgs.iter().map(run_pca_scenario).collect();
    let parallel = run_shards(cfgs, |c| run_pca_scenario(&c));

    assert_eq!(
        serde_json::to_string(&parallel).unwrap(),
        serde_json::to_string(&serial).unwrap(),
        "shard-parallel E1 cohort diverged from serial execution"
    );
}
