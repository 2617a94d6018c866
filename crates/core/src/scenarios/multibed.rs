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

use mcps_control::interlock::InterlockConfig;
use mcps_device::monitor::{capnograph, pulse_oximeter};
use mcps_device::pump::{PcaPump, PcaPumpConfig};
use mcps_net::fabric::Fabric;
use mcps_net::qos::LinkQos;
use mcps_patient::cohort::{CohortConfig, CohortGenerator};
use mcps_patient::patient::{PatientOutcome, VirtualPatient};
use mcps_patient::vitals::VitalKind;
use mcps_runtime::kernel::Simulation;
use mcps_runtime::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::actors::{MonitorActor, PumpActor};
use crate::apps::PcaSafetyApp;
use crate::body::{PatientActor, PatientBody};
use crate::msg::IceMsg;
use crate::netctl::{topics, NetworkController};
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
        patient_id: mcps_runtime::actor::ActorId,
        sup_id: mcps_runtime::actor::ActorId,
    }

    // Endpoints first (fabric wiring), then actors.
    let mut endpoint_sets = Vec::new();
    for bed in 0..config.beds {
        let scope = format!("bed{bed}");
        let ep_ox = fabric.add_endpoint(&format!("{scope}/oximeter"));
        let ep_cap = fabric.add_endpoint(&format!("{scope}/capnograph"));
        let ep_pump = fabric.add_endpoint(&format!("{scope}/pump"));
        let ep_sup = fabric.add_endpoint(&format!("{scope}/supervisor"));
        fabric.subscribe(ep_sup, topics::announce_scoped(&scope));
        for kind in VitalKind::ALL {
            fabric.subscribe(ep_sup, topics::vitals_scoped(&scope, kind));
        }
        endpoint_sets.push((scope, ep_ox, ep_cap, ep_pump, ep_sup));
    }

    let nc_id = sim.add_actor("netctl", NetworkController::new(fabric));
    let mut beds = Vec::new();
    for (bed, (scope, ep_ox, ep_cap, ep_pump, ep_sup)) in endpoint_sets.into_iter().enumerate() {
        let bed_u = bed as u32;
        let body = PatientBody::new(VirtualPatient::new(cohort.params(u64::from(bed_u))));
        let pump_cfg = PcaPumpConfig { ticket_mode: true, ..PcaPumpConfig::default() };
        let pump_id = sim.add_actor(
            &format!("{scope}/pump"),
            PumpActor::new(PcaPump::new(pump_cfg), body.clone(), nc_id, ep_pump).with_scope(&scope),
        );
        let ox_id = sim.add_actor(
            &format!("{scope}/oximeter"),
            MonitorActor::new(
                pulse_oximeter(&format!("OX-{bed}")),
                body.clone(),
                nc_id,
                ep_ox,
                mcps_device::faults::FaultPlan::none(),
            )
            .with_scope(&scope),
        );
        let cap_id = sim.add_actor(
            &format!("{scope}/capnograph"),
            MonitorActor::new(
                capnograph(&format!("CAP-{bed}")),
                body.clone(),
                nc_id,
                ep_cap,
                mcps_device::faults::FaultPlan::none(),
            )
            .with_scope(&scope),
        );
        let proxy = if bed_u == 0 { config.bed0_proxy_rate_per_hour } else { 0.0 };
        let patient_id = sim.add_actor(
            &format!("{scope}/patient"),
            PatientActor::new(body.clone(), Some(pump_id), proxy),
        );
        let sup_id = sim.add_actor(
            &format!("{scope}/supervisor"),
            Supervisor::new(
                PcaSafetyApp::new(InterlockConfig::default()),
                nc_id,
                ep_sup,
                SimDuration::from_secs(2),
            ),
        );
        {
            let nc = sim.actor_as_mut::<NetworkController>(nc_id).unwrap();
            nc.bind(ep_ox, ox_id);
            nc.bind(ep_cap, cap_id);
            nc.bind(ep_pump, pump_id);
            nc.bind(ep_sup, sup_id);
        }
        for &(id, off) in
            &[(pump_id, 100u64), (ox_id, 200), (cap_id, 300), (patient_id, 0), (sup_id, 500)]
        {
            sim.schedule(SimTime::from_millis(off + bed as u64 * 7), id, IceMsg::Tick);
        }
        beds.push(Bed { body, pump_id, patient_id, sup_id });
    }

    sim.run_until(SimTime::ZERO + config.duration);

    beds.iter()
        .enumerate()
        .map(|(i, b)| {
            let sup = sim.actor_as::<Supervisor>(b.sup_id).expect("supervisor");
            let pump = sim.actor_as::<PumpActor>(b.pump_id).expect("pump");
            let _ = sim.actor_as::<PatientActor>(b.patient_id);
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
                    .was_permitted_at(SimTime::ZERO + SimDuration::from_secs_f64(end)),
                patient: b.body.outcome(),
                total_drug_mg: pump.pump().total_delivered_mg(),
            }
        })
        .collect()
}

/// Splits a ward into per-shard configurations for
/// [`run_multibed_sharded`].
///
/// Each entry is `(bed_offset, config)`: the shard simulates
/// `config.beds` beds on its **own** fabric, and its outcomes are
/// renumbered by `bed_offset` when merged. Seeds are isolated per
/// shard (splitmix-style mix of the master seed and the shard index)
/// so no RNG stream is shared across shards — the first of the three
/// determinism rules `run_shards` relies on. The bed-0 proxy hazard
/// stays with the shard that owns global bed 0.
pub fn multibed_shard_configs(config: &MultiBedConfig, shards: u32) -> Vec<(u32, MultiBedConfig)> {
    let shards = shards.clamp(1, config.beds.max(1));
    let base = config.beds / shards;
    let extra = config.beds % shards;
    let mut parts = Vec::with_capacity(shards as usize);
    let mut offset = 0u32;
    for s in 0..shards {
        let beds = base + u32::from(s < extra);
        if beds == 0 {
            continue;
        }
        let mut mix = (config.seed ^ (u64::from(s) << 1)).wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix = (mix ^ (mix >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        mix ^= mix >> 27;
        parts.push((
            offset,
            MultiBedConfig {
                seed: mix,
                beds,
                bed0_proxy_rate_per_hour: if offset == 0 {
                    config.bed0_proxy_rate_per_hour
                } else {
                    0.0
                },
                ..config.clone()
            },
        ));
        offset += beds;
    }
    parts
}

/// Runs the ward as seed-isolated shards in parallel, one independent
/// fabric per shard, and merges outcomes in global bed order.
///
/// This is the throughput variant of [`run_multibed_scenario`]: the
/// shared-fabric run proves cross-bed isolation (no bed observes
/// another bed's traffic), which is exactly the property that makes
/// splitting beds across independent fabrics faithful. Output is
/// byte-identical to running the same shard configurations serially —
/// see the `sharded_ward_matches_serial_shards` test.
pub fn run_multibed_sharded(config: &MultiBedConfig, shards: u32) -> Vec<BedOutcome> {
    let parts = multibed_shard_configs(config, shards);
    mcps_runtime::shard::run_shards(parts, |(offset, cfg)| {
        let mut beds = run_multibed_scenario(&cfg);
        for b in &mut beds {
            b.bed += offset;
        }
        beds
    })
    .into_iter()
    .flatten()
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

    #[test]
    fn shard_configs_partition_beds_and_isolate_seeds() {
        let cfg = MultiBedConfig {
            seed: 11,
            beds: 5,
            bed0_proxy_rate_per_hour: 12.0,
            ..MultiBedConfig::default()
        };
        let parts = multibed_shard_configs(&cfg, 3);
        assert_eq!(parts.iter().map(|(_, c)| c.beds).sum::<u32>(), 5);
        let offsets: Vec<u32> = parts.iter().map(|(o, _)| *o).collect();
        assert_eq!(offsets, [0, 2, 4]);
        // Seeds differ pairwise (isolation), and only the shard that
        // owns global bed 0 carries the proxy hazard.
        for (i, (oi, ci)) in parts.iter().enumerate() {
            assert_eq!(ci.bed0_proxy_rate_per_hour > 0.0, *oi == 0);
            for (oj, cj) in parts.iter().skip(i + 1) {
                assert_ne!(ci.seed, cj.seed, "shards at offsets {oi} and {oj} share a seed");
            }
        }
        // More shards than beds degrades to one bed per shard.
        assert_eq!(multibed_shard_configs(&cfg, 99).len(), 5);
    }

    #[test]
    fn sharded_ward_matches_serial_shards() {
        // The parallel run must be **byte-identical** (same serialized
        // JSON) to executing the identical shard configurations one
        // after another on this thread.
        let cfg = MultiBedConfig {
            seed: 21,
            beds: 4,
            duration: SimDuration::from_mins(10),
            bed0_proxy_rate_per_hour: 20.0,
            ..MultiBedConfig::default()
        };
        let parallel = run_multibed_sharded(&cfg, 4);
        let serial: Vec<BedOutcome> = multibed_shard_configs(&cfg, 4)
            .into_iter()
            .flat_map(|(offset, c)| {
                let mut beds = run_multibed_scenario(&c);
                for b in &mut beds {
                    b.bed += offset;
                }
                beds
            })
            .collect();
        assert_eq!(
            serde_json::to_string(&parallel).unwrap(),
            serde_json::to_string(&serial).unwrap()
        );
        assert_eq!(parallel.len(), 4);
        assert_eq!(parallel.iter().map(|b| b.bed).collect::<Vec<_>>(), [0, 1, 2, 3]);
    }
}
