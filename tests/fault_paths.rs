//! Fault-path invariants: the scripted-fault and outage window engines
//! agree with naive interval oracles, and a mid-run sensor crash
//! fail-safes the closed loop end to end.

use mcps::device::faults::{FaultKind, FaultPlan};
use mcps::net::qos::OutagePlan;
use mcps::patient::cohort::{CohortConfig, CohortGenerator};
use mcps::runtime::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// The fault kinds, indexable for proptest generation.
fn kind(idx: u8, a: u32, b: u32) -> FaultKind {
    match idx % 7 {
        0 => FaultKind::Crash,
        1 => FaultKind::SilentData,
        2 => FaultKind::StuckValue,
        3 => FaultKind::Drift { bias_milli_per_sec: a as i32 - 500 },
        4 => FaultKind::Intermittent { period_ms: a.max(1), on_ms: b },
        5 => FaultKind::DelayedAck { delay_ms: a },
        _ => FaultKind::DuplicateAck,
    }
}

/// The documented resolution rule, written the slow way: scan the
/// script in insertion order keeping the covering fault with the
/// highest severity, breaking severity ties by earliest onset and
/// onset ties by insertion order.
fn oracle_active(
    script: &[(FaultKind, SimTime, Option<SimTime>)],
    now: SimTime,
) -> Option<FaultKind> {
    let mut best: Option<(FaultKind, SimTime)> = None;
    for &(k, at, until) in script {
        let covers = at <= now && until.is_none_or(|u| now < u);
        if !covers {
            continue;
        }
        best = match best {
            None => Some((k, at)),
            Some((bk, bat)) => {
                if k.severity() > bk.severity() || (k.severity() == bk.severity() && at < bat) {
                    Some((k, at))
                } else {
                    Some((bk, bat))
                }
            }
        };
    }
    best.map(|(k, _)| k)
}

proptest! {
    /// `FaultPlan::active` matches the naive max-severity interval
    /// oracle for arbitrary overlapping scripts and query times.
    #[test]
    fn fault_plan_active_matches_interval_oracle(
        script in proptest::collection::vec(
            (0u8..7, 0u32..20_000, 0u32..20_000, 0u64..600, proptest::option::of(1u64..600)),
            0..8,
        ),
        queries in proptest::collection::vec(0u64..1_300_000, 1..40),
    ) {
        let mut plan = FaultPlan::none();
        let mut naive = Vec::new();
        for (idx, a, b, at_ms, dur_ms) in script {
            let k = kind(idx, a, b);
            let at = SimTime::from_millis(at_ms * 1000);
            let until = dur_ms.map(|d| at + SimDuration::from_millis(d * 1000));
            plan = plan.with_fault(k, at, until);
            naive.push((k, at, until));
        }
        for q_ms in queries {
            let now = SimTime::from_millis(q_ms);
            prop_assert_eq!(
                plan.active(now),
                oracle_active(&naive, now),
                "divergence at {:?} for script {:?}",
                now,
                naive
            );
        }
    }

    /// `OutagePlan::is_down` matches the naive any-window-covers oracle.
    #[test]
    fn outage_plan_is_down_matches_interval_oracle(
        windows in proptest::collection::vec((0u64..500_000, 1u64..200_000), 0..8),
        queries in proptest::collection::vec(0u64..800_000, 1..40),
    ) {
        let mut plan = OutagePlan::none();
        let mut naive = Vec::new();
        for (from_ms, len_ms) in windows {
            let (a, b) = (SimTime::from_millis(from_ms), SimTime::from_millis(from_ms + len_ms));
            plan = plan.with_outage(a, b);
            naive.push((a, b));
        }
        for q_ms in queries {
            let now = SimTime::from_millis(q_ms);
            let expected = naive.iter().any(|&(a, b)| a <= now && now < b);
            prop_assert_eq!(plan.is_down(now), expected);
        }
    }
}

/// End to end: a mid-run oximeter crash silences the vitals stream, so
/// the ticket interlock must stop granting — and the pump must cease
/// delivery — within the freshness timeout (10 s) plus the outstanding
/// ticket's validity (15 s) plus one grant period of slack.
#[test]
fn mid_run_oximeter_crash_stops_granting_within_freshness_timeout() {
    let crash_at = SimTime::from_mins(20);
    let patient = CohortGenerator::new(23, CohortConfig::default()).params(0);
    let mut cfg = mcps::core::scenarios::pca::PcaScenarioConfig::baseline(23, patient);
    cfg.duration = SimDuration::from_mins(35);
    cfg.oximeter_fault = FaultPlan::none().with_fault(FaultKind::Crash, crash_at, None);
    let out = mcps::core::scenarios::pca::run_pca_scenario(&cfg);

    assert!(out.associated, "app must associate before the crash");
    let stop = out.stop_after(crash_at).expect("fail-safe stop must engage after the crash");
    assert!(stop <= 10.0 + 15.0 + 5.0, "fail-safe took {stop}s");
    // No grant can re-permit the pump afterwards: the slot stays silent
    // and there is no backup at the bedside.
    let crash_secs = crash_at.as_secs_f64();
    assert!(
        !out.permit_transitions_secs.iter().any(|&(t, p)| p && t > crash_secs + stop),
        "pump re-permitted without data: {:?}",
        out.permit_transitions_secs
    );
    // The supervisor notices the silent slot and degrades (sensor-silent
    // vacate fires after the 30 s disassociation timeout).
    assert!(
        out.degraded_windows_secs.iter().any(|&(entered, _)| entered >= crash_secs),
        "supervisor must degrade after sensor loss: {:?}",
        out.degraded_windows_secs
    );
}
