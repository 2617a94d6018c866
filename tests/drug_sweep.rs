//! Cross-drug integration: the interlock must help for every stocked
//! opioid, including fast-onset fentanyl — the hardest timing case.

use mcps::core::scenarios::pca::{run_pca_scenario, PcaScenarioConfig};
use mcps::patient::cohort::{CohortConfig, CohortGenerator};
use mcps::patient::drugs::OpioidPreset;
use mcps::runtime::time::SimDuration;

/// Runs one (preset, closed) arm over a small sensitive cohort and
/// returns total seconds below severe hypoxaemia.
fn severe_secs(preset: OpioidPreset, closed_loop: bool, seed: u64) -> f64 {
    let cohort = CohortGenerator::new(
        seed,
        CohortConfig { frac_opioid_sensitive: 1.0, frac_sleep_apnea: 0.0, variability_sigma: 0.15 },
    );
    let mut total = 0.0;
    for i in 0..6 {
        let params = preset.apply(cohort.params(i));
        let mut cfg = if closed_loop {
            PcaScenarioConfig::baseline(seed.wrapping_add(i), params)
        } else {
            PcaScenarioConfig::open_loop(seed.wrapping_add(i), params)
        };
        // Dose the pump in drug-appropriate units.
        cfg.pump.bolus_dose_mg = preset.typical_bolus_mg();
        cfg.pump.max_hourly_mg = 8.0 / preset.relative_potency();
        cfg.duration = SimDuration::from_mins(120);
        cfg.proxy_rate_per_hour = 10.0;
        total += run_pca_scenario(&cfg).patient.secs_below_severe;
    }
    total
}

#[test]
fn interlock_helps_for_every_stocked_opioid() {
    for preset in OpioidPreset::ALL {
        let open = severe_secs(preset, false, 31);
        let closed = severe_secs(preset, true, 31);
        assert!(
            closed <= open,
            "{preset}: closed loop must not be worse (open {open:.0}s, closed {closed:.0}s)"
        );
        if open > 120.0 {
            assert!(
                closed < open * 0.7,
                "{preset}: expected meaningful reduction (open {open:.0}s, closed {closed:.0}s)"
            );
        }
    }
}

#[test]
fn morphine_is_the_hardest_case_for_the_interlock() {
    // Counter-intuitive but physiologically right (and the reason PCA
    // overdoses are classically a *morphine* story): a slow
    // effect-site equilibration means drug already in plasma keeps
    // flowing to the effect site long after the pump stops, so the
    // interlock cannot prevent the dip already in motion. Fast agents
    // like fentanyl both rise AND fall quickly — stopping the pump
    // clears the danger promptly. Residual severe time under the
    // closed loop should therefore be largest for morphine.
    let mut morphine = 0.0;
    let mut fentanyl = 0.0;
    for seed in [77, 78, 79] {
        morphine += severe_secs(OpioidPreset::Morphine, true, seed);
        fentanyl += severe_secs(OpioidPreset::Fentanyl, true, seed);
    }
    assert!(
        morphine >= fentanyl,
        "slow effect-site lag should be the hard case: morphine {morphine:.0}s vs \
         fentanyl {fentanyl:.0}s"
    );
}
