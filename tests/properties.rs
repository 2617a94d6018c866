//! Property-based tests over core invariants, spanning crates.

use mcps::device::pump::{PcaPump, PcaPumpConfig};
use mcps::net::fabric::Fabric;
use mcps::net::qos::LinkQos;
use mcps::patient::patient::{PatientParams, VirtualPatient};
use mcps::patient::physiology::severinghaus_spo2;
use mcps::patient::pk::{PkModel, PkParams};
use mcps::runtime::rng::RngFactory;
use mcps::runtime::time::{SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    /// The pump never exceeds its hourly cap, no matter the press
    /// pattern or basal programme.
    #[test]
    fn pump_hourly_cap_is_inviolable(
        presses in proptest::collection::vec(0u64..7200, 0..60),
        basal in 0.0f64..6.0,
        bolus in 0.1f64..3.0,
        cap in 1.0f64..6.0,
    ) {
        let mut pump = PcaPump::new(PcaPumpConfig {
            bolus_dose_mg: bolus,
            basal_rate_mg_per_h: basal,
            max_hourly_mg: cap,
            lockout: SimDuration::from_secs(60),
            ..PcaPumpConfig::default()
        });
        let mut presses = presses;
        presses.sort_unstable();
        let mut press_iter = presses.into_iter().peekable();
        for s in 0..7200u64 {
            while press_iter.peek() == Some(&s) {
                press_iter.next();
                let _ = pump.request_bolus(SimTime::from_secs(s));
            }
            pump.delivered_since_last(SimTime::from_secs(s));
            prop_assert!(
                pump.hourly_delivered_mg() <= cap + 1e-6,
                "cap breached: {} > {cap}",
                pump.hourly_delivered_mg()
            );
        }
    }

    /// Integrating delivery in one step or many steps gives the same
    /// total drug (the pump's accounting is step-size independent).
    #[test]
    fn pump_delivery_is_step_size_independent(
        basal in 0.0f64..4.0,
        press_at in 0u64..600,
        horizon in 700u64..3600,
    ) {
        let cfg = PcaPumpConfig { basal_rate_mg_per_h: basal, ..PcaPumpConfig::default() };
        let mut fine = PcaPump::new(cfg);
        let mut coarse = PcaPump::new(cfg);
        let _ = fine.request_bolus(SimTime::from_secs(press_at));
        let _ = coarse.request_bolus(SimTime::from_secs(press_at));
        let mut fine_total = 0.0;
        for s in 0..=horizon {
            fine_total += fine.delivered_since_last(SimTime::from_secs(s));
        }
        let coarse_total = coarse.delivered_since_last(SimTime::from_secs(horizon));
        prop_assert!((fine_total - coarse_total).abs() < 1e-6,
            "fine {fine_total} vs coarse {coarse_total}");
    }

    /// PK: drug never goes negative and total administered is an upper
    /// bound on what remains in the body.
    #[test]
    fn pk_mass_is_sane(
        boluses in proptest::collection::vec((0u64..3600, 0.1f64..5.0), 0..10),
        rate in 0.0f64..0.5,
    ) {
        let mut pk = PkModel::new(PkParams::for_weight_kg(70.0));
        pk.set_infusion_rate(rate);
        let mut boluses = boluses;
        boluses.sort_by_key(|(t, _)| *t);
        let mut iter = boluses.into_iter().peekable();
        for s in 0..3600u64 {
            while iter.peek().is_some_and(|(t, _)| *t == s) {
                let (_, mg) = iter.next().unwrap();
                pk.give_bolus(mg);
            }
            pk.step(1.0);
            let st = pk.state();
            prop_assert!(st.a_central >= 0.0 && st.a_peripheral >= 0.0 && st.ce >= 0.0);
            let in_body = st.a_central + st.a_peripheral;
            prop_assert!(in_body <= pk.total_administered_mg() + 1e-9,
                "body {in_body} > administered {}", pk.total_administered_mg());
        }
    }

    /// The oxyhaemoglobin dissociation curve is monotone and bounded.
    #[test]
    fn severinghaus_is_monotone_bounded(a in 1.0f64..150.0, b in 1.0f64..150.0) {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let s_lo = severinghaus_spo2(lo);
        let s_hi = severinghaus_spo2(hi);
        prop_assert!(s_lo <= s_hi + 1e-12);
        prop_assert!((0.0..=100.0).contains(&s_lo));
        prop_assert!((0.0..=100.0).contains(&s_hi));
    }

    /// Patient physiology never produces impossible vitals, whatever
    /// the dosing pattern.
    #[test]
    fn patient_vitals_stay_physiological(
        boluses in proptest::collection::vec((0u64..1800, 0.5f64..8.0), 0..6),
        seed in 0u64..1000,
    ) {
        let mut p = VirtualPatient::new(PatientParams::default());
        let mut rng = RngFactory::new(seed).stream("prop");
        let mut boluses = boluses;
        boluses.sort_by_key(|(t, _)| *t);
        let mut iter = boluses.into_iter().peekable();
        for s in 0..1800u64 {
            while iter.peek().is_some_and(|(t, _)| *t == s) {
                let (_, mg) = iter.next().unwrap();
                p.give_bolus(mg);
            }
            p.advance(1.0, &mut rng);
            let v = p.vitals();
            prop_assert!((0.0..=100.0).contains(&v.spo2), "spo2 {}", v.spo2);
            prop_assert!((0.0..=300.0).contains(&v.heart_rate));
            prop_assert!((0.0..=80.0).contains(&v.resp_rate));
            prop_assert!(v.etco2 >= 0.0 && v.etco2 <= 150.0);
            prop_assert!(v.bp_systolic >= v.bp_diastolic);
            prop_assert!((0.0..=10.0).contains(&p.perceived_pain()));
        }
    }

    /// Fabric accounting: sent = delivered + dropped, and delivery
    /// timestamps never precede the send.
    #[test]
    fn fabric_accounting_balances(
        loss in 0.0f64..1.0,
        latency_ms in 0u64..500,
        n in 1usize..200,
        seed in 0u64..1000,
    ) {
        let mut fabric = Fabric::new();
        fabric.set_default_qos(
            LinkQos::ideal()
                .with_latency(SimDuration::from_millis(latency_ms))
                .with_jitter(SimDuration::from_millis(latency_ms / 2))
                .with_loss(loss),
        );
        let a = fabric.add_endpoint("a");
        let b = fabric.add_endpoint("b");
        let mut rng = RngFactory::new(seed).stream("fabric");
        for i in 0..n {
            let now = SimTime::from_millis(i as u64 * 10);
            if let Some(d) = fabric.unicast(a, b, now, &mut rng) {
                prop_assert!(d.at >= now);
            }
        }
        let stats = fabric.link_stats(a, b);
        prop_assert_eq!(stats.sent, n as u64);
        prop_assert_eq!(stats.delivered + stats.dropped, stats.sent);
    }
}
