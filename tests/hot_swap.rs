//! On-demand re-association: a backup device takes over a vacated slot
//! at runtime — the "assembled at the bedside" property under failure.

use mcps::core::scenarios::pca::{run_pca_scenario, PcaScenarioConfig};
use mcps::device::faults::{FaultKind, FaultPlan};
use mcps::patient::cohort::{CohortConfig, CohortGenerator};
use mcps::runtime::time::{SimDuration, SimTime};

fn base(seed: u64) -> PcaScenarioConfig {
    let patient = CohortGenerator::new(seed, CohortConfig::default()).params(0);
    let mut cfg = PcaScenarioConfig::baseline(seed, patient);
    cfg.duration = SimDuration::from_mins(60);
    cfg
}

#[test]
fn backup_oximeter_takes_over_after_primary_crash() {
    let crash_at = SimTime::from_mins(20);
    let mut cfg = base(1);
    cfg.backup_oximeter = true;
    cfg.oximeter_fault = FaultPlan::none().with_fault(FaultKind::Crash, crash_at, None);
    let out = run_pca_scenario(&cfg);

    // The fail-safe must engage when the primary dies...
    let stop = out.stop_after(crash_at).expect("fail-safe stop after crash");
    assert!(stop <= 60.0, "stop latency {stop}s");
    // ...and a second association (hot-swap) must complete...
    assert!(
        out.associations_completed >= 2,
        "expected a hot-swap, got {} associations",
        out.associations_completed
    );
    // ...after which permission is restored (tickets flow again).
    let resumed =
        out.permit_transitions_secs.iter().any(|&(t, p)| p && t > crash_at.as_secs_f64() + stop);
    assert!(resumed, "therapy must resume on the backup device: {:?}", out.permit_transitions_secs);
    // Resumption should be prompt: disassociation timeout (30 s) +
    // announce period (10 s) + resume holdoff does not apply (stale
    // data clears instantly when fresh data arrives).
    let resume_at = out
        .permit_transitions_secs
        .iter()
        .find(|&&(t, p)| p && t > crash_at.as_secs_f64() + stop)
        .map(|&(t, _)| t)
        .unwrap();
    assert!(
        resume_at - crash_at.as_secs_f64() <= 120.0,
        "swap took {}s",
        resume_at - crash_at.as_secs_f64()
    );
}

#[test]
fn without_backup_the_system_stays_safe_but_stopped() {
    let crash_at = SimTime::from_mins(20);
    let mut cfg = base(2);
    cfg.backup_oximeter = false;
    cfg.oximeter_fault = FaultPlan::none().with_fault(FaultKind::Crash, crash_at, None);
    let out = run_pca_scenario(&cfg);
    let stop = out.stop_after(crash_at).expect("fail-safe stop");
    let resumed =
        out.permit_transitions_secs.iter().any(|&(t, p)| p && t > crash_at.as_secs_f64() + stop);
    assert!(!resumed, "no backup ⇒ no resumption: {:?}", out.permit_transitions_secs);
    assert_eq!(out.associations_completed, 1);
}

#[test]
fn backup_is_inert_while_primary_is_healthy() {
    let mut cfg = base(3);
    cfg.backup_oximeter = true;
    let out = run_pca_scenario(&cfg);
    assert_eq!(out.associations_completed, 1, "no swap without a failure");
    assert!(out.associated);
    assert!(out.grants_issued > 0);
}

#[test]
fn transient_primary_outage_may_swap_and_must_recover() {
    // Primary goes silent for 2 minutes, then recovers; with a backup
    // available the system must end the run fully associated and
    // granting, whichever device holds the slot.
    let fault_at = SimTime::from_mins(20);
    let mut cfg = base(4);
    cfg.backup_oximeter = true;
    cfg.oximeter_fault = FaultPlan::none().with_fault(
        FaultKind::SilentData,
        fault_at,
        Some(fault_at + SimDuration::from_mins(2)),
    );
    let out = run_pca_scenario(&cfg);
    assert!(out.associated);
    // Permission must be restored after the episode.
    let last = out.permit_transitions_secs.last().copied();
    assert_eq!(last.map(|(_, p)| p), Some(true), "{:?}", out.permit_transitions_secs);
}
