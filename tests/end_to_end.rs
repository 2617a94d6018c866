//! Cross-crate integration tests: the assembled ICE system behaves as
//! the component contracts promise.

use mcps::control::interlock::{DetectorKind, InterlockConfig, InterlockStrategy};
use mcps::core::scenarios::pca::{run_pca_scenario, PcaScenarioConfig};
use mcps::device::faults::{FaultKind, FaultPlan};
use mcps::patient::cohort::{CohortConfig, CohortGenerator};
use mcps::runtime::time::{SimDuration, SimTime};

fn patient(seed: u64, idx: u64) -> mcps::patient::PatientParams {
    CohortGenerator::new(seed, CohortConfig::default()).params(idx)
}

#[test]
fn healthy_closed_loop_therapy_is_delivered() {
    let mut cfg = PcaScenarioConfig::baseline(1, patient(1, 0));
    cfg.duration = SimDuration::from_mins(90);
    cfg.proxy_rate_per_hour = 0.0;
    let out = run_pca_scenario(&cfg);
    assert!(out.associated);
    // A patient in pain presses and receives boluses through the loop.
    assert!(out.presses > 0, "{out:?}");
    assert!(out.total_drug_mg > 0.0, "therapy must flow in the healthy case");
    assert_eq!(out.patient.severe_hypox_events, 0);
    // Every network message on a wired fabric is delivered.
    assert_eq!(out.net_sent, out.net_delivered);
}

#[test]
fn monitor_crash_stops_therapy_but_keeps_patient_safe() {
    let mut cfg = PcaScenarioConfig::baseline(2, patient(2, 1));
    cfg.duration = SimDuration::from_mins(60);
    let crash_at = SimTime::from_mins(20);
    cfg.oximeter_fault = FaultPlan::none().with_fault(FaultKind::Crash, crash_at, None);
    cfg.capnograph_fault = FaultPlan::none().with_fault(FaultKind::Crash, crash_at, None);
    let out = run_pca_scenario(&cfg);
    let lat = out.stop_after(crash_at).expect("pump must stop after monitors crash");
    // Freshness timeout (10 s) + ticket validity (15 s) + slack.
    assert!(lat <= 30.0, "fail-safe latency {lat}s");
    // And it must stay stopped: no permit=true transition afterwards.
    let resumed =
        out.permit_transitions_secs.iter().any(|&(t, p)| p && t > crash_at.as_secs_f64() + lat);
    assert!(!resumed, "no data ⇒ no permission, forever: {:?}", out.permit_transitions_secs);
}

#[test]
fn stuck_value_fault_is_the_documented_gap() {
    // A stuck monitor keeps publishing fresh-looking values; the
    // freshness-based fail-safe must NOT engage (this is the known
    // limitation E8 documents, mitigated by H-stuck plausibility work).
    let mut cfg = PcaScenarioConfig::baseline(3, patient(3, 2));
    cfg.duration = SimDuration::from_mins(60);
    let stuck_at = SimTime::from_mins(20);
    cfg.oximeter_fault = FaultPlan::none().with_fault(FaultKind::StuckValue, stuck_at, None);
    cfg.capnograph_fault = FaultPlan::none().with_fault(FaultKind::StuckValue, stuck_at, None);
    let out = run_pca_scenario(&cfg);
    match out.stop_after(stuck_at) {
        None => {}
        Some(lat) => {
            assert!(lat > 120.0, "freshness checking should not catch stuck values, lat={lat}");
        }
    }
}

#[test]
fn command_and_ticket_strategies_both_respond_to_danger() {
    for strategy in [
        InterlockStrategy::Command,
        InterlockStrategy::Ticket {
            validity: SimDuration::from_secs(15),
            period: SimDuration::from_secs(5),
        },
    ] {
        // A very sensitive patient with heavy proxy pressing develops
        // danger; both strategies must cut delivery around onset.
        let sensitive = CohortGenerator::new(
            9,
            CohortConfig {
                frac_opioid_sensitive: 1.0,
                frac_sleep_apnea: 0.0,
                variability_sigma: 0.1,
            },
        )
        .params(0);
        let mut cfg = PcaScenarioConfig::baseline(9, sensitive);
        cfg.duration = SimDuration::from_mins(150);
        cfg.proxy_rate_per_hour = 20.0;
        cfg.interlock = Some(InterlockConfig {
            strategy,
            detector: DetectorKind::Fusion,
            ..InterlockConfig::default()
        });
        cfg.pump.ticket_mode = matches!(strategy, InterlockStrategy::Ticket { .. });
        let out = run_pca_scenario(&cfg);
        if let Some(onset) = out.danger_onset_secs {
            let lat = out
                .stop_latency_secs
                .unwrap_or_else(|| panic!("{strategy:?}: danger at {onset}s but never stopped"));
            assert!(lat <= 60.0, "{strategy:?}: stop latency {lat}s too slow");
        } else {
            // If no danger developed, the interlock must not have
            // starved the patient either.
            assert!(out.total_drug_mg > 0.0);
        }
    }
}

#[test]
fn association_is_robust_to_lossy_networks() {
    let mut cfg = PcaScenarioConfig::baseline(4, patient(4, 3));
    cfg.duration = SimDuration::from_mins(30);
    cfg.qos = mcps::net::qos::LinkQos::wifi().with_loss(0.3);
    let out = run_pca_scenario(&cfg);
    assert!(out.associated, "periodic re-announce must survive 30% loss");
    assert!(out.grants_issued > 0);
}

#[test]
fn open_loop_pump_hard_limits_still_hold() {
    // Even without any supervision, the pump's own hourly cap bounds
    // total delivery.
    let mut cfg = PcaScenarioConfig::open_loop(5, patient(5, 4));
    cfg.duration = SimDuration::from_mins(120);
    cfg.proxy_rate_per_hour = 120.0; // button mashed twice a minute
    let out = run_pca_scenario(&cfg);
    let cap = cfg.pump.max_hourly_mg * 2.0 + cfg.pump.bolus_dose_mg;
    assert!(
        out.total_drug_mg <= cap,
        "2h delivery {} exceeds 2x hourly cap {}",
        out.total_drug_mg,
        cap
    );
    assert!(out.bolus_decisions.contains_key("locked-out"), "{:?}", out.bolus_decisions);
}

#[test]
fn timeline_recording_captures_the_run() {
    let mut cfg = PcaScenarioConfig::baseline(8, patient(8, 0));
    cfg.duration = SimDuration::from_mins(30);
    cfg.timeline_every_secs = 10;
    let out = run_pca_scenario(&cfg);
    // 30 min / 10 s ≈ 180 points.
    assert!((170..=181).contains(&out.timeline.len()), "{}", out.timeline.len());
    // Monotone time, physiological values.
    for w in out.timeline.windows(2) {
        assert!(w[0].t_secs < w[1].t_secs);
    }
    for p in &out.timeline {
        assert!((0.0..=100.0).contains(&p.spo2));
        assert!(p.effect_site >= 0.0);
        assert!((0.0..=10.0).contains(&p.pain));
    }
    // Recording must not perturb the simulation itself.
    let mut plain = cfg.clone();
    plain.timeline_every_secs = 0;
    let out2 = run_pca_scenario(&plain);
    assert_eq!(out.patient, out2.patient);
    assert_eq!(out.total_drug_mg, out2.total_drug_mg);
}
