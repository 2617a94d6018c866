//! # mcps-safety — verification and assurance for MCPS
//!
//! The certifiability pillar of the paper: model-based verification of
//! interlock designs plus the assurance artefacts a regulator reviews.
//!
//! * [`automaton`] — timed automata with integer clocks, invariants and
//!   channel synchronization.
//! * [`checker`] — explicit-state model checking of safety and
//!   bounded-response [`Property`] values, with shortest
//!   counterexample traces.
//! * [`pack`] — the checker's packed-state exploration core: bit-packed
//!   states interned in an arena, with deterministic layer-parallel
//!   BFS.
//! * [`models`] — verification models of the PCA safety interlock,
//!   including seeded design defects (mutants) for experiment E5, and
//!   of the supervisor failover protocol (experiment E13).
//! * [`timing`] — the failover timing contract shared by the
//!   implementation (`mcps-core`) and the verification models.
//! * [`executor`] — deterministic interpretation of a verified
//!   automaton (the model-to-runtime / code-generation path).
//! * [`gsn`] — Goal Structuring Notation assurance cases with
//!   structural validation and text/DOT rendering.
//! * [`assurance`] — mechanical assembly of the complete GSN case from
//!   hazards + traceability + live verification verdicts.
//! * [`hazard`] — hazard log with a severity × likelihood risk matrix.
//! * [`requirements`] — hazard → requirement → evidence traceability
//!   with mechanical completeness checking.
//!
//! ## Example: verify the interlock design
//!
//! ```
//! use mcps_safety::models::{check_pca_variant, PcaModelVariant};
//!
//! // The correct command-based interlock meets its deadline…
//! assert!(check_pca_variant(PcaModelVariant::CommandReliable, 1_000_000).holds());
//! // …but the same design over a lossy network does not.
//! let out = check_pca_variant(PcaModelVariant::CommandLossy, 1_000_000);
//! println!("{}", out.trace().expect("counterexample"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assurance;
pub mod automaton;
pub mod checker;
pub mod executor;
pub mod gsn;
pub mod hazard;
pub mod models;
pub mod pack;
pub mod requirements;
pub mod timing;

pub use assurance::build_assurance_case;
pub use automaton::{Action, Automaton, ClockId, Guard, LocId};
pub use checker::{CheckOutcome, Network, Property, StateView, Step, Trace};
pub use executor::{AutomatonExecutor, ExecEvent, NotEnabled};
pub use gsn::{AssuranceCase, GsnIssue, NodeId, NodeKind};
pub use hazard::{classify, Hazard, HazardLog, Likelihood, Mitigation, RiskClass, Severity};
pub use models::{FailoverModelVariant, PcaModelVariant};
pub use pack::{ExploreMode, ExploreStats, PackedLayout, Reduction};
pub use requirements::{
    pca_requirements, Evidence, SafetyRequirement, TraceIssue, TraceabilityMatrix,
    VerificationMethod,
};
