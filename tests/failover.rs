//! Supervisor-redundancy acceptance tests: a primary crash mid-therapy must
//! hand the safety interlock to the promoted standby without violating the
//! danger-response deadline, and a healed network partition must not let the
//! fenced ex-primary actuate the pump a second time.

use mcps::control::interlock::InterlockStrategy;
use mcps::core::scenarios::pca::{run_pca_scenario, PcaScenarioConfig};
use mcps::device::faults::{FaultKind, FaultPlan};
use mcps::net::qos::LinkQos;
use mcps::patient::cohort::{CohortConfig, CohortGenerator};
use mcps::runtime::time::{SimDuration, SimTime};

/// Fully opioid-sensitive cohort so respiratory danger is reachable within a
/// 25-minute run even though the interlock is working.
fn sensitive_cfg(seed: u64) -> PcaScenarioConfig {
    let cohort = CohortGenerator::new(
        64,
        CohortConfig { frac_opioid_sensitive: 1.0, frac_sleep_apnea: 0.0, variability_sigma: 0.1 },
    );
    let mut cfg = PcaScenarioConfig::baseline(seed, cohort.params(seed));
    cfg.duration = SimDuration::from_mins(25);
    cfg.proxy_rate_per_hour = 30.0;
    cfg.standby_supervisor = true;
    cfg
}

/// The primary supervisor dies at t=600s and never comes back. Danger onset
/// (seed-picked at t≈957s) lands well after the crash, so only the promoted
/// standby can enforce the danger→stop deadline.
#[test]
fn primary_crash_failover_meets_danger_deadline() {
    let mut cfg = sensitive_cfg(24);
    cfg.supervisor_fault =
        FaultPlan::none().with_fault(FaultKind::SupervisorCrash, SimTime::from_secs(600), None);
    let out = run_pca_scenario(&cfg);

    assert_eq!(out.failovers, 1, "standby never promoted after the primary crash");
    assert_eq!(out.supervisor_epoch, 2, "promotion must fence with a higher epoch");
    let danger = out.danger_onset_secs.expect("seed 24 is chosen to reach danger");
    assert!(danger > 600.0, "danger must start after the crash to exercise the standby");
    let stop = out.stop_latency_secs.expect("pump never ceased delivery after danger onset");
    assert!(stop <= 30.0, "danger→stop took {stop:.1}s across the failover (limit 30s)");
    assert_eq!(out.double_actuations, 0);
}

/// A worst-case *clean* failover transiently latches the pump's local
/// fail-safe — by design, not by accident. The E13 timed-automata model
/// proves the worst case is 16 s of supervision silence against the pump's
/// 15 s watchdog (`mcps_safety::timing::WORST_CLEAN_FAILOVER_SECS`): the last
/// pre-crash heartbeat can predate the last checkpoint by almost a full
/// heartbeat period, and promotion needs a further ~11 s of checkpoint
/// silence. This pins the implementation to the model on both halves of the
/// finding: the latch is reachable with adversarial crash timing, and the
/// promoted supervisor's first acked heartbeat releases it within seconds.
///
/// The alignment is deliberately adversarial: heartbeat-only supervision
/// (command strategy, no ticket refresh traffic masking the silence), a
/// crash dropped just after a checkpoint but ~5 s past the last heartbeat,
/// and sub-second link latency. Seed 17 realises it deterministically.
#[test]
fn worst_case_clean_failover_transiently_latches_and_releases() {
    let mut cfg = sensitive_cfg(17);
    cfg.pump.ticket_mode = false;
    cfg.interlock.as_mut().unwrap().strategy = InterlockStrategy::Command;
    cfg.qos = LinkQos::ideal()
        .with_latency(SimDuration::from_millis(700))
        .with_jitter(SimDuration::from_millis(200));
    let crash = SimTime::from_millis(605_300);
    cfg.supervisor_fault = FaultPlan::none().with_fault(FaultKind::SupervisorCrash, crash, None);
    let out = run_pca_scenario(&cfg);

    assert_eq!(out.failovers, 1, "the crash must still fail over cleanly");
    assert_eq!(out.double_actuations, 0);
    let crash_secs = crash.as_secs_f64();
    let latch = out
        .failsafe_transitions_secs
        .iter()
        .find(|(t, on)| *on && *t > crash_secs)
        .map(|(t, _)| *t)
        .expect("worst-case clean failover must transiently latch the local fail-safe");
    assert!(
        latch < crash_secs + 20.0,
        "latch at {latch:.1}s is not part of the failover window (crash {crash_secs:.1}s)"
    );
    let release = out
        .failsafe_transitions_secs
        .iter()
        .find(|(t, on)| !*on && *t > latch)
        .map(|(t, _)| *t)
        .expect("promoted supervisor must release the transient latch");
    assert!(
        release - latch < 5.0,
        "release took {:.1}s; the first acked epoch-2 heartbeat should clear it",
        release - latch
    );
    assert_eq!(out.local_failsafe_entries, 1, "only the failover window may latch");
}

/// A transient partition (t=600..780s) isolates the primary from everything
/// else, including the standby's checkpoint feed. The standby promotes to
/// epoch 2 behind the partition; when the links heal, the stale ex-primary's
/// epoch-1 traffic must be rejected by the pump's epoch fence — never applied
/// as a second actuation — and the ex-primary must step down.
#[test]
fn partition_epoch_fence_prevents_double_actuation() {
    let mut cfg = sensitive_cfg(7);
    cfg.supervisor_fault = FaultPlan::none().with_fault(
        // group_a = the primary supervisor alone; group_b = both vitals
        // devices, the pump, and the standby (endpoint-creation bit order).
        FaultKind::Partition { group_a: 0b00_1000, group_b: 0b11_0111 },
        SimTime::from_secs(600),
        Some(SimTime::from_secs(780)),
    );
    let out = run_pca_scenario(&cfg);

    assert_eq!(out.failovers, 1, "standby must promote while checkpoints are severed");
    assert_eq!(out.supervisor_epoch, 2);
    assert!(
        out.fenced_commands > 0,
        "healed ex-primary's stale epoch-1 traffic was never fenced by the pump"
    );
    assert_eq!(out.double_actuations, 0, "split-brain double actuation");
    assert_eq!(out.supervisor_stepdowns, 1, "ex-primary must step down on seeing epoch 2");
}
