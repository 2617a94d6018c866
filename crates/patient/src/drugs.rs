//! Opioid presets: PK/PD parameter sets for the agents a PCA service
//! actually stocks.
//!
//! Different opioids differ in *kinetics* (fentanyl equilibrates with
//! the effect site in minutes, morphine in tens of minutes) and in
//! *potency* (hydromorphone needs ~5× less drug than morphine for the
//! same effect). Both differences matter to closed-loop safety: a
//! fast-onset agent shortens the window an interlock has to react, and
//! a high-potency agent shrinks the absolute dose error that causes
//! harm. [`OpioidPreset`] adapts a [`PatientParams`] to a chosen agent.

use crate::patient::PatientParams;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The stocked agents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpioidPreset {
    /// Reference agent: slow effect-site equilibration, potency 1×.
    Morphine,
    /// ~5× potency of morphine, similar kinetics class.
    Hydromorphone,
    /// ~80× potency, very fast effect-site equilibration — the
    /// stress case for interlock timing.
    Fentanyl,
}

impl OpioidPreset {
    /// All presets.
    pub const ALL: [OpioidPreset; 3] =
        [OpioidPreset::Morphine, OpioidPreset::Hydromorphone, OpioidPreset::Fentanyl];

    /// Analgesic potency relative to morphine (mg-for-mg).
    pub fn relative_potency(&self) -> f64 {
        match self {
            OpioidPreset::Morphine => 1.0,
            OpioidPreset::Hydromorphone => 5.0,
            OpioidPreset::Fentanyl => 80.0,
        }
    }

    /// Plasma↔effect-site equilibration rate, 1/min (higher = faster
    /// onset).
    pub fn ke0_per_min(&self) -> f64 {
        match self {
            OpioidPreset::Morphine => 0.12,
            OpioidPreset::Hydromorphone => 0.14,
            OpioidPreset::Fentanyl => 0.50,
        }
    }

    /// Elimination rate from the central compartment, 1/min.
    pub fn k10_per_min(&self) -> f64 {
        match self {
            OpioidPreset::Morphine => 0.07,
            OpioidPreset::Hydromorphone => 0.08,
            OpioidPreset::Fentanyl => 0.10,
        }
    }

    /// A typical PCA bolus dose for this agent, mg.
    pub fn typical_bolus_mg(&self) -> f64 {
        1.0 / self.relative_potency()
    }

    /// Adapts patient parameters to this agent: kinetics on the PK
    /// side; EC50s scaled down by potency on the PD side (more potent
    /// drug ⇒ effect at lower concentration).
    pub fn apply(&self, mut params: PatientParams) -> PatientParams {
        params.pk.ke0 = self.ke0_per_min();
        params.pk.k10 = self.k10_per_min();
        let potency = self.relative_potency();
        params.physio.ec50_depression /= potency;
        params.physio.ec50_analgesia /= potency;
        params.physio.apnea_ce /= potency;
        params
    }
}

impl fmt::Display for OpioidPreset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpioidPreset::Morphine => "morphine",
            OpioidPreset::Hydromorphone => "hydromorphone",
            OpioidPreset::Fentanyl => "fentanyl",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patient::VirtualPatient;
    use mcps_runtime::rng::RngFactory;

    /// Time (seconds) for the effect-site concentration to reach 80 %
    /// of its 10-minute value after an equianalgesic bolus.
    fn onset_secs(preset: OpioidPreset) -> u64 {
        let params = preset.apply(PatientParams::default());
        let mut p = VirtualPatient::new(params);
        let mut rng = RngFactory::new(1).stream("drug");
        p.give_bolus(preset.typical_bolus_mg());
        let mut history = Vec::new();
        for _ in 0..600 {
            p.advance(1.0, &mut rng);
            history.push(p.effect_site_conc());
        }
        let target = history.last().unwrap() * 0.8;
        history.iter().position(|&c| c >= target).unwrap_or(600) as u64
    }

    #[test]
    fn fentanyl_onsets_much_faster_than_morphine() {
        let f = onset_secs(OpioidPreset::Fentanyl);
        let m = onset_secs(OpioidPreset::Morphine);
        assert!(f * 2 < m, "fentanyl {f}s vs morphine {m}s");
    }

    #[test]
    fn equianalgesic_boluses_produce_similar_analgesia() {
        // 1 mg morphine ≈ 0.2 mg hydromorphone ≈ 0.0125 mg fentanyl:
        // steady equianalgesic infusions should yield comparable
        // analgesia fractions.
        let mut fracs = Vec::new();
        for preset in OpioidPreset::ALL {
            let params = preset.apply(PatientParams::default());
            let mut p = VirtualPatient::new(params);
            let mut rng = RngFactory::new(2).stream("equi");
            // Infusion equivalent to 2 mg/h morphine.
            p.set_infusion_rate(2.0 / 60.0 / preset.relative_potency());
            for _ in 0..(3 * 3600) {
                p.advance(1.0, &mut rng);
            }
            let physio = mcps_patient_physio(&p);
            fracs.push(physio);
        }
        let (lo, hi) = (
            fracs.iter().cloned().fold(f64::INFINITY, f64::min),
            fracs.iter().cloned().fold(0.0f64, f64::max),
        );
        assert!(hi - lo < 0.25, "analgesia spread too wide: {fracs:?}");
    }

    fn mcps_patient_physio(p: &VirtualPatient) -> f64 {
        // Analgesia fraction proxy: current analgesia effect.
        let params = p.params();
        let ratio = (p.effect_site_conc() / params.physio.ec50_analgesia)
            .powf(params.physio.gamma_analgesia);
        ratio / (1.0 + ratio)
    }

    #[test]
    fn potency_scales_dangerous_dose() {
        // The same 2 mg bolus that is therapeutic morphine is a
        // catastrophic fentanyl overdose.
        let check = |preset: OpioidPreset| -> f64 {
            let params = preset.apply(PatientParams::default());
            let mut p = VirtualPatient::new(params);
            let mut rng = RngFactory::new(3).stream("potency");
            p.give_bolus(2.0);
            let mut min_spo2: f64 = 100.0;
            for _ in 0..(20 * 60) {
                p.advance(1.0, &mut rng);
                min_spo2 = min_spo2.min(p.vitals().spo2);
            }
            min_spo2
        };
        let morphine = check(OpioidPreset::Morphine);
        let fentanyl = check(OpioidPreset::Fentanyl);
        assert!(morphine > 93.0, "2mg morphine is safe, got SpO2 {morphine}");
        assert!(fentanyl < 80.0, "2mg fentanyl is an overdose, got SpO2 {fentanyl}");
    }

    #[test]
    fn typical_boluses_are_equianalgesic_by_construction() {
        for preset in OpioidPreset::ALL {
            let equivalent = preset.typical_bolus_mg() * preset.relative_potency();
            assert!((equivalent - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(OpioidPreset::Fentanyl.to_string(), "fentanyl");
        assert_eq!(OpioidPreset::ALL.len(), 3);
    }
}
