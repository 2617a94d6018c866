//! The model checker's verdicts must agree with the runtime system's
//! observed behaviour — the point of model-based development is that
//! the model *predicts* the implementation.

use mcps::control::interlock::{DetectorKind, InterlockConfig, InterlockStrategy};
use mcps::core::scenarios::pca::{run_pca_scenario, PcaScenarioConfig};
use mcps::patient::cohort::{CohortConfig, CohortGenerator};
use mcps::runtime::time::{SimDuration, SimTime};
use mcps::safety::models::{check_pca_variant, PcaModelVariant};

/// Model says: ticket interlock stops the pump despite total message
/// loss. Runtime must agree: under a network partition the pump stops
/// within the ticket validity.
#[test]
fn ticket_failsafe_model_and_runtime_agree() {
    // Model side.
    let model = check_pca_variant(PcaModelVariant::TicketLossy, 5_000_000);
    assert!(model.holds(), "model: {model:?}");

    // Runtime side.
    let patient = CohortGenerator::new(1, CohortConfig::default()).params(0);
    let mut cfg = PcaScenarioConfig::baseline(1, patient);
    cfg.duration = SimDuration::from_mins(45);
    let partition = SimTime::from_mins(20);
    cfg.outages = vec![(partition, SimTime::from_mins(45))];
    let out = run_pca_scenario(&cfg);
    let lat = out.stop_after(partition).expect("runtime: pump must self-stop in partition");
    // Ticket validity 15 s + one tick of slack.
    assert!(lat <= 16.0, "runtime fail-safe latency {lat}s exceeds ticket validity");
}

/// Model says: the command interlock over a lossy channel has a run in
/// which the pump never stops. Runtime must agree: under a *total*
/// partition (the adversarial schedule the checker found), a
/// command-mode pump keeps its permission.
#[test]
fn command_interlock_partition_model_and_runtime_agree() {
    // Model side: violation exists.
    let model = check_pca_variant(PcaModelVariant::CommandLossy, 5_000_000);
    assert!(model.trace().is_some(), "model: {model:?}");

    // Runtime side: reproduce the adversarial schedule.
    let patient = CohortGenerator::new(2, CohortConfig::default()).params(0);
    let mut cfg = PcaScenarioConfig::baseline(2, patient);
    cfg.duration = SimDuration::from_mins(45);
    cfg.interlock = Some(InterlockConfig {
        strategy: InterlockStrategy::Command,
        detector: DetectorKind::Fusion,
        ..InterlockConfig::default()
    });
    cfg.pump.ticket_mode = false;
    let partition = SimTime::from_mins(20);
    cfg.outages = vec![(partition, SimTime::from_mins(45))];
    let out = run_pca_scenario(&cfg);
    // The pump was permitted when the partition hit and no stop can
    // arrive: permission persists to the end of the run.
    assert!(out.permitted_at_secs(partition.as_secs_f64()), "precondition: pump running");
    assert_eq!(
        out.stop_after(partition),
        None,
        "command-mode pump cannot be stopped across a partition: {:?}",
        out.permit_transitions_secs
    );
}

/// The command interlock on a reliable network meets its end-to-end
/// deadline both in the model and at runtime.
#[test]
fn command_reliable_deadline_model_and_runtime_agree() {
    let model = check_pca_variant(PcaModelVariant::CommandReliable, 5_000_000);
    assert!(model.holds(), "model: {model:?}");

    // Runtime: drive a sensitive patient into danger and check the
    // stop arrives promptly after detection.
    let sensitive = CohortGenerator::new(
        3,
        CohortConfig { frac_opioid_sensitive: 1.0, frac_sleep_apnea: 0.0, variability_sigma: 0.1 },
    )
    .params(1);
    let mut cfg = PcaScenarioConfig::baseline(3, sensitive);
    cfg.duration = SimDuration::from_mins(150);
    cfg.proxy_rate_per_hour = 20.0;
    cfg.interlock = Some(InterlockConfig {
        strategy: InterlockStrategy::Command,
        detector: DetectorKind::Fusion,
        ..InterlockConfig::default()
    });
    cfg.pump.ticket_mode = false;
    let out = run_pca_scenario(&cfg);
    if out.danger_onset_secs.is_some() {
        let lat = out.stop_latency_secs.expect("stop must follow danger");
        assert!(lat <= 30.0, "runtime stop latency {lat}s");
    }
}
