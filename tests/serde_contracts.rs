//! Serialization contracts: experiment configs and outcomes round-trip
//! through JSON, so runs can be scripted, archived and diffed.

use mcps::control::interlock::InterlockConfig;
use mcps::core::scenarios::pca::{run_pca_scenario, PcaScenarioConfig};
use mcps::core::scenarios::ward::{run_ward_scenario, WardConfig};
use mcps::device::ders::DrugLibrary;
use mcps::device::pump::PcaPumpConfig;
use mcps::patient::cohort::{CohortConfig, CohortGenerator};
use mcps::patient::patient::PatientParams;
use mcps::runtime::time::SimDuration;
use mcps::safety::hazard::pca_hazard_log;
use mcps::safety::requirements::pca_requirements;

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

#[test]
fn scenario_config_roundtrips() {
    let cohort = CohortGenerator::new(1, CohortConfig::default());
    let cfg = PcaScenarioConfig::baseline(1, cohort.params(0));
    let back = roundtrip(&cfg);
    assert_eq!(cfg, back);
}

#[test]
fn scenario_outcome_roundtrips_and_is_stable() {
    let cohort = CohortGenerator::new(2, CohortConfig::default());
    let mut cfg = PcaScenarioConfig::baseline(2, cohort.params(1));
    cfg.duration = SimDuration::from_mins(10);
    let out = run_pca_scenario(&cfg);
    let back = roundtrip(&out);
    assert_eq!(out, back);
}

#[test]
fn deserialized_config_reproduces_the_same_run() {
    // The JSON form is a complete, faithful description of a run.
    let cohort = CohortGenerator::new(3, CohortConfig::default());
    let mut cfg = PcaScenarioConfig::baseline(3, cohort.params(2));
    cfg.duration = SimDuration::from_mins(10);
    let cfg2: PcaScenarioConfig = roundtrip(&cfg);
    assert_eq!(run_pca_scenario(&cfg), run_pca_scenario(&cfg2));
}

#[test]
fn ward_config_and_outcome_roundtrip() {
    let cfg =
        WardConfig { patients: 2, duration: SimDuration::from_mins(30), ..WardConfig::default() };
    assert_eq!(cfg, roundtrip(&cfg));
    let out = run_ward_scenario(&cfg);
    assert_eq!(out, roundtrip(&out));
}

#[test]
fn component_configs_roundtrip() {
    assert_eq!(PcaPumpConfig::default(), roundtrip(&PcaPumpConfig::default()));
    assert_eq!(InterlockConfig::default(), roundtrip(&InterlockConfig::default()));
    assert_eq!(PatientParams::default(), roundtrip(&PatientParams::default()));
    assert_eq!(CohortConfig::default(), roundtrip(&CohortConfig::default()));
}

#[test]
fn assurance_artifacts_roundtrip() {
    let log = pca_hazard_log();
    let log2: mcps::safety::hazard::HazardLog = roundtrip(&log);
    assert_eq!(log, log2);
    let matrix = pca_requirements();
    let matrix2: mcps::safety::requirements::TraceabilityMatrix = roundtrip(&matrix);
    assert_eq!(matrix, matrix2);
    let lib = DrugLibrary::adult_postop();
    assert_eq!(lib, roundtrip(&lib));
}
