//! Randomized patient cohorts for population-level experiments.
//!
//! Inter-patient variability is what makes fixed, open-loop dosing
//! dangerous and closed-loop supervision valuable: the same PCA
//! programme that is safe for a median patient can overdose an
//! opioid-sensitive one. [`CohortGenerator`] samples physiologically
//! plausible parameter sets, reproducibly per (seed, index).

use crate::patient::{PatientParams, RiskGroup, VirtualPatient};
use crate::physiology::PhysioParams;
use crate::pk::PkParams;
use mcps_runtime::rng::{log_normal, normal, triangular, RngFactory};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Population mix and variability knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CohortConfig {
    /// Fraction of opioid-sensitive patients.
    pub frac_opioid_sensitive: f64,
    /// Fraction of sleep-apnoea patients.
    pub frac_sleep_apnea: f64,
    /// Log-scale standard deviation of PK/PD parameter variability.
    pub variability_sigma: f64,
}

impl Default for CohortConfig {
    fn default() -> Self {
        CohortConfig {
            frac_opioid_sensitive: 0.15,
            frac_sleep_apnea: 0.10,
            variability_sigma: 0.25,
        }
    }
}

impl CohortConfig {
    /// Validates fractions and sigma.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.frac_opioid_sensitive)
            || !(0.0..=1.0).contains(&self.frac_sleep_apnea)
            || self.frac_opioid_sensitive + self.frac_sleep_apnea > 1.0
        {
            return Err("risk-group fractions must be in [0,1] and sum to ≤ 1".into());
        }
        if !(self.variability_sigma.is_finite() && self.variability_sigma >= 0.0) {
            return Err(format!("variability_sigma must be ≥ 0, got {}", self.variability_sigma));
        }
        Ok(())
    }
}

/// Deterministic generator of patient parameter sets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CohortGenerator {
    factory: RngFactory,
    config: CohortConfig,
}

impl CohortGenerator {
    /// Creates a generator; identical `(seed, config)` pairs produce
    /// identical cohorts.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`CohortConfig::validate`].
    pub fn new(seed: u64, config: CohortConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid cohort config: {e}");
        }
        CohortGenerator { factory: RngFactory::new(seed), config }
    }

    /// The generator configuration.
    pub fn config(&self) -> &CohortConfig {
        &self.config
    }

    /// Samples the parameters of patient `index`. The same index always
    /// yields the same patient for a given seed.
    pub fn params(&self, index: u64) -> PatientParams {
        let mut rng = self.factory.stream(&format!("cohort-patient-{index}"));
        let cfg = &self.config;

        let weight = normal(&mut rng, 75.0, 14.0).clamp(45.0, 140.0);
        let mut pk = PkParams::for_weight_kg(weight);
        let jig = |rng: &mut mcps_runtime::rng::SimRng, sigma: f64| log_normal(rng, 0.0, sigma);
        pk.k10 *= jig(&mut rng, cfg.variability_sigma);
        pk.k12 *= jig(&mut rng, cfg.variability_sigma);
        pk.k21 *= jig(&mut rng, cfg.variability_sigma);
        pk.ke0 *= jig(&mut rng, cfg.variability_sigma);

        let mut physio = PhysioParams::default();
        physio.rr0 = normal(&mut rng, 14.0, 1.5).clamp(10.0, 20.0);
        physio.hr0 = normal(&mut rng, 74.0, 8.0).clamp(50.0, 100.0);
        physio.mv0 = normal(&mut rng, 6.0, 0.7).clamp(4.0, 9.0);
        physio.bp_sys0 = normal(&mut rng, 122.0, 10.0).clamp(95.0, 160.0);
        physio.bp_dia0 = (physio.bp_sys0 - normal(&mut rng, 42.0, 5.0)).clamp(55.0, 100.0);
        physio.ec50_depression *= jig(&mut rng, cfg.variability_sigma);
        physio.ec50_analgesia *= jig(&mut rng, cfg.variability_sigma);
        physio.apnea_ce = physio.ec50_depression * 2.3;

        let u: f64 = rng.gen_range(0.0..1.0);
        let risk = if u < cfg.frac_opioid_sensitive {
            RiskGroup::OpioidSensitive
        } else if u < cfg.frac_opioid_sensitive + cfg.frac_sleep_apnea {
            RiskGroup::SleepApnea
        } else {
            RiskGroup::Standard
        };
        match risk {
            RiskGroup::OpioidSensitive => {
                physio.ec50_depression *= 0.55;
                physio.apnea_ce *= 0.55;
            }
            RiskGroup::SleepApnea => {
                physio.tau_o2_min *= 0.55;
                physio.emax_depression = 0.98;
                physio.apnea_ce *= 0.75;
            }
            RiskGroup::Standard => {}
        }

        let pain_baseline = triangular(&mut rng, 3.0, 6.0, 9.0);

        PatientParams {
            weight_kg: weight,
            pk,
            physio,
            pain_baseline,
            pain_tau_min: normal(&mut rng, 600.0, 120.0).clamp(240.0, 1200.0),
            demand_rate_at_max_pain: triangular(&mut rng, 6.0, 12.0, 20.0),
            risk,
        }
    }

    /// Instantiates patient `index` directly.
    pub fn patient(&self, index: u64) -> VirtualPatient {
        VirtualPatient::new(self.params(index))
    }

    /// Iterator over the first `n` patients.
    pub fn take(&self, n: u64) -> impl Iterator<Item = VirtualPatient> + '_ {
        (0..n).map(|i| self.patient(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducible_per_index() {
        let g = CohortGenerator::new(42, CohortConfig::default());
        assert_eq!(g.params(7), g.params(7));
        assert_ne!(g.params(7), g.params(8));
    }

    #[test]
    fn different_seeds_different_cohorts() {
        let a = CohortGenerator::new(1, CohortConfig::default());
        let b = CohortGenerator::new(2, CohortConfig::default());
        assert_ne!(a.params(0), b.params(0));
    }

    #[test]
    fn parameters_stay_plausible() {
        let g = CohortGenerator::new(9, CohortConfig::default());
        for i in 0..200 {
            let p = g.params(i);
            assert!((45.0..=140.0).contains(&p.weight_kg), "weight {}", p.weight_kg);
            assert!(p.pk.validate().is_ok(), "pk invalid at {i}");
            assert!(
                p.physio.validate().is_ok(),
                "physio invalid at {i}: {:?}",
                p.physio.validate()
            );
            assert!(p.physio.apnea_ce > p.physio.ec50_depression, "apnoea margin at {i}");
            assert!((3.0..=9.0).contains(&p.pain_baseline));
        }
    }

    #[test]
    fn risk_mix_approximates_config() {
        let cfg = CohortConfig::default();
        let g = CohortGenerator::new(5, cfg);
        let n = 2_000;
        let mut sensitive = 0;
        let mut apnea = 0;
        for i in 0..n {
            match g.params(i).risk {
                RiskGroup::OpioidSensitive => sensitive += 1,
                RiskGroup::SleepApnea => apnea += 1,
                RiskGroup::Standard => {}
            }
        }
        let fs = sensitive as f64 / n as f64;
        let fa = apnea as f64 / n as f64;
        assert!((fs - cfg.frac_opioid_sensitive).abs() < 0.03, "sensitive {fs}");
        assert!((fa - cfg.frac_sleep_apnea).abs() < 0.03, "apnea {fa}");
    }

    #[test]
    fn sensitive_patients_are_more_sensitive() {
        let g = CohortGenerator::new(
            13,
            CohortConfig {
                frac_opioid_sensitive: 0.5,
                frac_sleep_apnea: 0.0,
                variability_sigma: 0.0,
            },
        );
        let mut ec_sensitive = Vec::new();
        let mut ec_standard = Vec::new();
        for i in 0..200 {
            let p = g.params(i);
            match p.risk {
                RiskGroup::OpioidSensitive => ec_sensitive.push(p.physio.ec50_depression),
                RiskGroup::Standard => ec_standard.push(p.physio.ec50_depression),
                _ => {}
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&ec_sensitive) < 0.7 * mean(&ec_standard));
    }

    #[test]
    #[should_panic(expected = "invalid cohort config")]
    fn bad_config_panics() {
        let _ = CohortGenerator::new(
            0,
            CohortConfig {
                frac_opioid_sensitive: 0.9,
                frac_sleep_apnea: 0.9,
                variability_sigma: 0.1,
            },
        );
    }

    #[test]
    fn take_yields_n_patients() {
        let g = CohortGenerator::new(3, CohortConfig::default());
        assert_eq!(g.take(5).count(), 5);
    }
}
