//! Dose-error reduction system (DERS): the "smart pump" drug library.
//!
//! Misprogramming — a unit mix-up (mg vs µg), a slipped decimal, a
//! rate entered into the bolus field — is the classic infusion-pump
//! accident. A DERS checks every programme against a hospital-curated
//! drug library *before* the pump will run it: **hard limits** can
//! never be crossed; **soft limits** may be overridden by a clinician
//! but are recorded. This module implements that gate for the PCA pump.

use crate::pump::PcaPumpConfig;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A soft/hard ceiling pair for one programmable field.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Ceiling {
    /// Above this, a clinician override is required.
    pub soft: f64,
    /// Above this, the programme is rejected outright.
    pub hard: f64,
}

impl Ceiling {
    /// Creates a ceiling pair.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < soft <= hard`.
    pub fn new(soft: f64, hard: f64) -> Self {
        assert!(soft > 0.0 && soft <= hard, "need 0 < soft <= hard, got {soft}/{hard}");
        Ceiling { soft, hard }
    }
}

/// Library limits for one drug.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrugEntry {
    /// Drug name (library key).
    pub name: String,
    /// Per-bolus dose, mg.
    pub bolus_mg: Ceiling,
    /// Basal rate, mg/h.
    pub basal_mg_per_h: Ceiling,
    /// Sliding-hour total, mg.
    pub hourly_mg: Ceiling,
    /// The shortest lockout a programme may use, minutes.
    pub min_lockout_min: f64,
}

/// The programme field a violation concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProgramField {
    /// Per-bolus dose.
    BolusDose,
    /// Basal rate.
    BasalRate,
    /// Hourly limit.
    HourlyLimit,
    /// Lockout interval.
    Lockout,
}

impl fmt::Display for ProgramField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProgramField::BolusDose => "bolus dose",
            ProgramField::BasalRate => "basal rate",
            ProgramField::HourlyLimit => "hourly limit",
            ProgramField::Lockout => "lockout",
        };
        f.write_str(s)
    }
}

/// One limit violation found in a programme.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// The offending field.
    pub field: ProgramField,
    /// The programmed value.
    pub value: f64,
    /// The limit it violates.
    pub limit: f64,
    /// `true` for hard (unoverridable) violations.
    pub hard: bool,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} = {} exceeds {} limit {}",
            if self.hard { "HARD:" } else { "soft:" },
            self.field,
            self.value,
            if self.hard { "hard" } else { "soft" },
            self.limit
        )
    }
}

/// Verdict of a programme check.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProgramVerdict {
    /// Within every limit.
    Accepted,
    /// Soft limits exceeded; runs only with a recorded override.
    NeedsOverride(Vec<Violation>),
    /// Hard limits exceeded; must not run.
    Rejected(Vec<Violation>),
}

impl ProgramVerdict {
    /// Whether the pump may run this programme (possibly with override).
    pub fn is_runnable(&self) -> bool {
        !matches!(self, ProgramVerdict::Rejected(_))
    }
}

/// A hospital drug library.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DrugLibrary {
    entries: BTreeMap<String, DrugEntry>,
}

impl DrugLibrary {
    /// An empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// A representative adult post-operative opioid library.
    pub fn adult_postop() -> Self {
        let mut lib = DrugLibrary::new();
        lib.add(DrugEntry {
            name: "morphine".into(),
            bolus_mg: Ceiling::new(1.5, 3.0),
            basal_mg_per_h: Ceiling::new(1.0, 2.0),
            hourly_mg: Ceiling::new(8.0, 12.0),
            min_lockout_min: 5.0,
        });
        lib.add(DrugEntry {
            name: "hydromorphone".into(),
            bolus_mg: Ceiling::new(0.3, 0.6),
            basal_mg_per_h: Ceiling::new(0.2, 0.5),
            hourly_mg: Ceiling::new(1.5, 2.5),
            min_lockout_min: 6.0,
        });
        lib
    }

    /// Adds (or replaces) an entry.
    pub fn add(&mut self, entry: DrugEntry) {
        self.entries.insert(entry.name.clone(), entry);
    }

    /// Looks a drug up.
    pub fn get(&self, drug: &str) -> Option<&DrugEntry> {
        self.entries.get(drug)
    }

    /// Drug names, sorted.
    pub fn drugs(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// Checks a pump programme against the library.
    ///
    /// # Errors
    ///
    /// Returns `Err` if `drug` is not in the library — an unlisted drug
    /// must never be programmed through the DERS path.
    pub fn check(&self, drug: &str, config: &PcaPumpConfig) -> Result<ProgramVerdict, UnknownDrug> {
        let entry = self.entries.get(drug).ok_or_else(|| UnknownDrug(drug.to_owned()))?;
        let mut violations = Vec::new();
        let mut probe = |field, value: f64, ceiling: Ceiling| {
            if value > ceiling.hard {
                violations.push(Violation { field, value, limit: ceiling.hard, hard: true });
            } else if value > ceiling.soft {
                violations.push(Violation { field, value, limit: ceiling.soft, hard: false });
            }
        };
        probe(ProgramField::BolusDose, config.bolus_dose_mg, entry.bolus_mg);
        probe(ProgramField::BasalRate, config.basal_rate_mg_per_h, entry.basal_mg_per_h);
        probe(ProgramField::HourlyLimit, config.max_hourly_mg, entry.hourly_mg);
        let lockout_min = config.lockout.as_micros() as f64 / 60e6;
        if lockout_min < entry.min_lockout_min {
            violations.push(Violation {
                field: ProgramField::Lockout,
                value: lockout_min,
                limit: entry.min_lockout_min,
                hard: true,
            });
        }
        if violations.is_empty() {
            Ok(ProgramVerdict::Accepted)
        } else if violations.iter().any(|v| v.hard) {
            Ok(ProgramVerdict::Rejected(violations))
        } else {
            Ok(ProgramVerdict::NeedsOverride(violations))
        }
    }
}

/// Error: the drug is not in the library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownDrug(pub String);

impl fmt::Display for UnknownDrug {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "drug {:?} is not in the library", self.0)
    }
}

impl std::error::Error for UnknownDrug {}

#[cfg(test)]
mod tests {
    use super::*;
    use mcps_runtime::time::SimDuration;

    fn sane_morphine() -> PcaPumpConfig {
        PcaPumpConfig {
            bolus_dose_mg: 1.0,
            lockout: SimDuration::from_mins(6),
            basal_rate_mg_per_h: 0.0,
            max_hourly_mg: 8.0,
            ..PcaPumpConfig::default()
        }
    }

    #[test]
    fn sane_programme_accepted() {
        let lib = DrugLibrary::adult_postop();
        assert_eq!(lib.check("morphine", &sane_morphine()).unwrap(), ProgramVerdict::Accepted);
    }

    #[test]
    fn unit_mixup_hits_hard_limit() {
        // Classic 10x slip: 1.0 mg bolus keyed as 10.0.
        let lib = DrugLibrary::adult_postop();
        let cfg = PcaPumpConfig { bolus_dose_mg: 10.0, ..sane_morphine() };
        let verdict = lib.check("morphine", &cfg).unwrap();
        match &verdict {
            ProgramVerdict::Rejected(vs) => {
                assert!(vs.iter().any(|v| v.field == ProgramField::BolusDose && v.hard));
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        assert!(!verdict.is_runnable());
    }

    #[test]
    fn aggressive_but_plausible_needs_override() {
        let lib = DrugLibrary::adult_postop();
        let cfg = PcaPumpConfig { bolus_dose_mg: 2.0, ..sane_morphine() }; // soft 1.5, hard 3.0
        let verdict = lib.check("morphine", &cfg).unwrap();
        match &verdict {
            ProgramVerdict::NeedsOverride(vs) => {
                assert_eq!(vs.len(), 1);
                assert!(!vs[0].hard);
            }
            other => panic!("expected override, got {other:?}"),
        }
        assert!(verdict.is_runnable());
    }

    #[test]
    fn wrong_drug_limits_catch_cross_programming() {
        // A morphine-sized bolus programmed under hydromorphone (5–7x
        // more potent) smashes the hard limit — the lookalike-vial case.
        let lib = DrugLibrary::adult_postop();
        let verdict = lib.check("hydromorphone", &sane_morphine()).unwrap();
        assert!(!verdict.is_runnable(), "{verdict:?}");
    }

    #[test]
    fn short_lockout_is_hard_rejected() {
        let lib = DrugLibrary::adult_postop();
        let cfg = PcaPumpConfig { lockout: SimDuration::from_secs(60), ..sane_morphine() };
        let verdict = lib.check("morphine", &cfg).unwrap();
        match verdict {
            ProgramVerdict::Rejected(vs) => {
                assert!(vs.iter().any(|v| v.field == ProgramField::Lockout));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_drug_is_an_error() {
        let lib = DrugLibrary::adult_postop();
        let err = lib.check("water", &sane_morphine()).unwrap_err();
        assert_eq!(err, UnknownDrug("water".into()));
        assert!(err.to_string().contains("water"));
    }

    #[test]
    fn multiple_violations_reported_together() {
        let lib = DrugLibrary::adult_postop();
        let cfg = PcaPumpConfig {
            bolus_dose_mg: 2.0,       // soft
            basal_rate_mg_per_h: 5.0, // hard
            max_hourly_mg: 20.0,      // hard
            ..sane_morphine()
        };
        match lib.check("morphine", &cfg).unwrap() {
            ProgramVerdict::Rejected(vs) => assert_eq!(vs.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "soft <= hard")]
    fn inverted_ceiling_rejected() {
        let _ = Ceiling::new(3.0, 1.0);
    }

    #[test]
    fn library_listing() {
        let lib = DrugLibrary::adult_postop();
        let drugs: Vec<&str> = lib.drugs().collect();
        assert_eq!(drugs, vec!["hydromorphone", "morphine"]);
        assert!(lib.get("morphine").is_some());
    }
}
