//! A multi-bed ward on a **shared** network fabric.
//!
//! Real wards do not run one network per bed: every device and every
//! supervisor shares the hospital fabric. Correct isolation therefore
//! rests on topic namespacing — each bed's devices publish under the
//! bed's scope and each bed's supervisor subscribes only to it. This
//! scenario assembles N complete PCA closed loops (patient, pump,
//! oximeter, capnograph, supervisor) in a single simulation over one
//! fabric and verifies there is no cross-bed interference: bed A's
//! overdose must stop bed A's pump and nobody else's.

use mcps_net::fabric::Fabric;
use mcps_net::qos::LinkQos;
use mcps_patient::cohort::{CohortConfig, CohortGenerator};
use mcps_patient::patient::{PatientOutcome, VirtualPatient};
use mcps_runtime::kernel::Simulation;
use mcps_runtime::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use super::PcaBed;
use crate::actors::PumpActor;
use crate::apps::PcaSafetyApp;
use crate::body::PatientBody;
use crate::msg::IceMsg;
use crate::netctl::NetworkController;
use crate::supervisor::Supervisor;

/// Configuration of the shared-fabric ward.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiBedConfig {
    /// Master seed.
    pub seed: u64,
    /// Number of beds (each a complete closed loop).
    pub beds: u32,
    /// Run length.
    pub duration: SimDuration,
    /// Shared-fabric QoS.
    pub qos: LinkQos,
    /// Cohort mix.
    pub cohort: CohortConfig,
    /// Proxy-press rate applied to **bed 0 only** (the isolation
    /// experiment: one bed in danger, the rest healthy).
    pub bed0_proxy_rate_per_hour: f64,
}

impl Default for MultiBedConfig {
    fn default() -> Self {
        MultiBedConfig {
            seed: 0,
            beds: 4,
            duration: SimDuration::from_mins(60),
            qos: LinkQos::wired(),
            cohort: CohortConfig::default(),
            bed0_proxy_rate_per_hour: 0.0,
        }
    }
}

/// Outcome of one bed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BedOutcome {
    /// Bed index.
    pub bed: u32,
    /// Whether the bed's app fully associated.
    pub associated: bool,
    /// Vitals received by the bed's supervisor.
    pub data_received: u64,
    /// Vitals the supervisor refused (wrong bed or unassociated).
    pub data_ignored: u64,
    /// Tickets the bed's interlock issued.
    pub grants_issued: u64,
    /// Whether delivery was permitted at the end of the run.
    pub permitted_at_end: bool,
    /// Ground-truth outcome of the bed's patient.
    pub patient: PatientOutcome,
    /// Total drug delivered, mg.
    pub total_drug_mg: f64,
}

/// Runs the shared-fabric ward.
pub fn run_multibed_scenario(config: &MultiBedConfig) -> Vec<BedOutcome> {
    let mut sim: Simulation<IceMsg> = Simulation::new(config.seed);
    sim.trace_mut().set_enabled(false);
    let cohort = CohortGenerator::new(config.seed, config.cohort);

    let mut fabric = Fabric::new();
    fabric.set_default_qos(config.qos);

    struct Bed {
        body: PatientBody,
        pump_id: mcps_runtime::actor::ActorId,
        sup_id: mcps_runtime::actor::ActorId,
    }

    // Endpoints first (fabric wiring), then actors.
    let wired: Vec<PcaBed> =
        (0..config.beds).map(|bed| PcaBed::wire(&mut fabric, format!("bed{bed}"))).collect();

    let nc_id = sim.add_actor("netctl", NetworkController::new(fabric));
    let mut beds = Vec::new();
    for (bed, pca) in wired.into_iter().enumerate() {
        let body = PatientBody::new(VirtualPatient::new(cohort.params(bed as u64)));
        let proxy = if bed == 0 { config.bed0_proxy_rate_per_hour } else { 0.0 };
        let (pump_id, sup_id) =
            pca.spawn(&mut sim, nc_id, &body, &bed.to_string(), proxy, bed as u64 * 7);
        beds.push(Bed { body, pump_id, sup_id });
    }

    sim.run_until(SimTime::ZERO + config.duration);

    beds.iter()
        .enumerate()
        .map(|(i, b)| {
            let sup = sim.actor_as::<Supervisor>(b.sup_id).expect("supervisor");
            let pump = sim.actor_as::<PumpActor>(b.pump_id).expect("pump");
            let end = config.duration.as_secs_f64() - 1.0;
            BedOutcome {
                bed: i as u32,
                associated: sup.associated_at().is_some(),
                data_received: sup.data_received(),
                data_ignored: sup.data_ignored(),
                grants_issued: sup
                    .app_as::<PcaSafetyApp>()
                    .map(|a| a.interlock().grants_issued())
                    .unwrap_or(0),
                permitted_at_end: pump
                    .history()
                    .was_permitted_at(SimTime::ZERO + SimDuration::from_secs_f64(end)),
                patient: b.body.outcome(),
                total_drug_mg: pump.core().pump().total_delivered_mg(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_bed_associates_on_the_shared_fabric() {
        let out = run_multibed_scenario(&MultiBedConfig {
            seed: 1,
            beds: 4,
            duration: SimDuration::from_mins(20),
            ..MultiBedConfig::default()
        });
        assert_eq!(out.len(), 4);
        for b in &out {
            assert!(b.associated, "bed {} failed to associate: {b:?}", b.bed);
            assert!(b.data_received > 1000, "bed {}: {}", b.bed, b.data_received);
            assert!(b.grants_issued > 100, "bed {}: {}", b.bed, b.grants_issued);
        }
    }

    #[test]
    fn no_cross_bed_interference_during_overdose() {
        // Bed 0 is opioid-sensitive with an aggressive proxy; the other
        // beds are untouched. Only bed 0's pump may be stopped.
        let cohort = CohortConfig {
            frac_opioid_sensitive: 1.0,
            frac_sleep_apnea: 0.0,
            variability_sigma: 0.15,
        };
        let out = run_multibed_scenario(&MultiBedConfig {
            seed: 9,
            beds: 3,
            duration: SimDuration::from_mins(90),
            cohort,
            bed0_proxy_rate_per_hour: 60.0,
            ..MultiBedConfig::default()
        });
        // Bed 0 deteriorates and its interlock intervenes (not permitted
        // at the end, or at least its patient saw real depression).
        let bed0 = &out[0];
        assert!(
            bed0.patient.resp_depression_events > 0 || bed0.patient.hypox_events > 0,
            "bed 0 should deteriorate: {bed0:?}"
        );
        // The healthy beds keep their permission and never see another
        // bed's data.
        for b in &out[1..] {
            assert!(b.permitted_at_end, "bed {} must stay permitted: {b:?}", b.bed);
            assert_eq!(b.patient.hypox_events, 0, "bed {} must stay healthy", b.bed);
        }
    }

    #[test]
    fn supervisors_never_accept_foreign_data() {
        // With per-bed scopes, a supervisor's data_ignored counts only
        // its own pre-association messages — not a flood of foreign
        // traffic. If scoping broke, ignored counts would explode (3
        // beds x 4 streams x duration).
        let out = run_multibed_scenario(&MultiBedConfig {
            seed: 3,
            beds: 3,
            duration: SimDuration::from_mins(20),
            ..MultiBedConfig::default()
        });
        for b in &out {
            assert!(
                b.data_ignored < 200,
                "bed {}: {} ignored messages suggests cross-bed leakage",
                b.bed,
                b.data_ignored
            );
        }
    }

    #[test]
    fn deterministic() {
        let cfg = MultiBedConfig {
            seed: 5,
            beds: 2,
            duration: SimDuration::from_mins(15),
            ..MultiBedConfig::default()
        };
        assert_eq!(run_multibed_scenario(&cfg), run_multibed_scenario(&cfg));
    }
}
