//! Executable clinical scenarios — the experiment engines.
//!
//! * [`pca`] — the PCA closed-loop safety scenario (E1, E4, E8).
//! * [`xray`] — x-ray/ventilator coordination (E3).
//! * [`ward`] — the monitored ward alarm study (E2).
//! * [`multibed`] — N complete closed loops on one shared fabric
//!   (topic-scope isolation).
//! * [`campus`] — thousands of beds across wards/floors, one fabric
//!   segment per ward, costed shard dispatch (E12 throughput).
//!
//! The scoped PCA closed loop that `multibed` and `campus` both run is
//! assembled once, by the crate-private `PcaBed`.

use mcps_control::interlock::InterlockConfig;
use mcps_device::faults::FaultPlan;
use mcps_device::monitor::{capnograph, pulse_oximeter};
use mcps_device::pump::{PcaPump, PcaPumpConfig};
use mcps_net::fabric::{EndpointId, Fabric};
use mcps_patient::vitals::VitalKind;
use mcps_runtime::actor::ActorId;
use mcps_runtime::kernel::Simulation;
use mcps_runtime::time::{SimDuration, SimTime};

use crate::actors::{MonitorActor, PumpActor};
use crate::apps::PcaSafetyApp;
use crate::body::{PatientActor, PatientBody};
use crate::msg::IceMsg;
use crate::netctl::{topics, NetworkController};
use crate::supervisor::Supervisor;

pub mod campus;
pub mod multibed;
pub mod pca;
pub mod ward;
pub mod xray;

/// One PCA closed loop under a topic scope: ticket-mode pump, 1 Hz
/// oximeter and capnograph, patient, and a [`PcaSafetyApp`] supervisor
/// that hears only its own scope.
///
/// Assembly is two steps because callers wire every bed's endpoints
/// into the fabric before the fabric moves into the network controller
/// and any bed's actors exist; that order fixes the endpoint and actor
/// ids, and so the pinned outputs.
pub(crate) struct PcaBed {
    scope: String,
    ep_ox: EndpointId,
    ep_cap: EndpointId,
    ep_pump: EndpointId,
    ep_sup: EndpointId,
}

impl PcaBed {
    /// Adds the bed's four endpoints and the supervisor's scoped
    /// announce and vitals subscriptions.
    pub(crate) fn wire(fabric: &mut Fabric, scope: String) -> PcaBed {
        let ep_ox = fabric.add_endpoint(&format!("{scope}/oximeter"));
        let ep_cap = fabric.add_endpoint(&format!("{scope}/capnograph"));
        let ep_pump = fabric.add_endpoint(&format!("{scope}/pump"));
        let ep_sup = fabric.add_endpoint(&format!("{scope}/supervisor"));
        fabric.subscribe(ep_sup, topics::announce_scoped(&scope));
        for kind in VitalKind::ALL {
            fabric.subscribe(ep_sup, topics::vitals_scoped(&scope, kind));
        }
        PcaBed { scope, ep_ox, ep_cap, ep_pump, ep_sup }
    }

    /// Adds the bed's five actors (monitors serialled `OX-{tag}` and
    /// `CAP-{tag}`), binds them to their endpoints and schedules their
    /// staggered first ticks from `start_ms`. Returns the pump and
    /// supervisor ids.
    pub(crate) fn spawn(
        self,
        sim: &mut Simulation<IceMsg>,
        nc_id: ActorId,
        body: &PatientBody,
        tag: &str,
        proxy_rate_per_hour: f64,
        start_ms: u64,
    ) -> (ActorId, ActorId) {
        let PcaBed { scope, ep_ox, ep_cap, ep_pump, ep_sup } = self;
        let pump_cfg = PcaPumpConfig { ticket_mode: true, ..PcaPumpConfig::default() };
        let pump_id = sim.add_actor(
            &format!("{scope}/pump"),
            PumpActor::new(PcaPump::new(pump_cfg), body.clone(), nc_id, ep_pump).with_scope(&scope),
        );
        let ox_id = sim.add_actor(
            &format!("{scope}/oximeter"),
            MonitorActor::new(
                pulse_oximeter(&format!("OX-{tag}")),
                body.clone(),
                nc_id,
                ep_ox,
                FaultPlan::none(),
            )
            .with_scope(&scope),
        );
        let cap_id = sim.add_actor(
            &format!("{scope}/capnograph"),
            MonitorActor::new(
                capnograph(&format!("CAP-{tag}")),
                body.clone(),
                nc_id,
                ep_cap,
                FaultPlan::none(),
            )
            .with_scope(&scope),
        );
        let patient_id = sim.add_actor(
            &format!("{scope}/patient"),
            PatientActor::new(body.clone(), Some(pump_id), proxy_rate_per_hour),
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
            sim.schedule(SimTime::from_millis(start_ms + off), id, IceMsg::Tick);
        }
        (pump_id, sup_id)
    }
}
