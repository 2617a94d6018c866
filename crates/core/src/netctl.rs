//! The ICE network controller.
//!
//! The component the paper's interoperability architecture interposes
//! between devices and the supervisor: it owns the [`Fabric`], maps
//! endpoints to actors, and imposes the fabric's latency/jitter/loss on
//! every message. All network traffic in an ICE simulation flows
//! through this actor.

use mcps_net::fabric::{EndpointId, Fabric, PlannedDelivery, Topic};
use mcps_runtime::actor::{Actor, ActorId};
use mcps_runtime::kernel::Context;

use crate::msg::{IceMsg, NetAddress, NetOp};

/// The network controller actor.
///
/// Planning is zero-alloc in steady state: the controller keeps one
/// scratch buffer of [`PlannedDelivery`] entries that the fabric's
/// `publish_into` fills per message, and the endpoint→actor route
/// table is a dense `Vec` indexed by endpoint id (endpoint ids are
/// dense by construction), so delivering a planned message is an array
/// index, not a map walk.
#[derive(Debug)]
pub struct NetworkController {
    fabric: Fabric,
    routes: Vec<Option<ActorId>>,
    scratch: Vec<PlannedDelivery>,
    sent: u64,
    delivered: u64,
}

impl NetworkController {
    /// Wraps a configured fabric. Endpoint→actor routes are registered
    /// afterwards with [`Self::bind`].
    pub fn new(fabric: Fabric) -> Self {
        NetworkController { fabric, routes: Vec::new(), scratch: Vec::new(), sent: 0, delivered: 0 }
    }

    /// Binds an endpoint to the actor that should receive its traffic.
    pub fn bind(&mut self, endpoint: EndpointId, actor: ActorId) {
        let i = endpoint.index() as usize;
        if self.routes.len() <= i {
            self.routes.resize(i + 1, None);
        }
        self.routes[i] = Some(actor);
    }

    /// The actor bound to `endpoint`, if any.
    fn route(&self, endpoint: EndpointId) -> Option<ActorId> {
        self.routes.get(endpoint.index() as usize).copied().flatten()
    }

    /// The underlying fabric (e.g. for stats or late subscriptions).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Mutable access to the fabric.
    pub fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    /// Messages offered to the controller.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Deliveries scheduled (after loss).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Exports the controller's counters and the fabric's aggregate
    /// link statistics into `bus` under `prefix` — scenarios harvest
    /// this so network QoS figures flow through the same telemetry
    /// sink as every other metric.
    pub fn export_telemetry(&self, bus: &mut mcps_runtime::telemetry::Telemetry, prefix: &str) {
        bus.incr(&format!("{prefix}.sent"), self.sent);
        bus.incr(&format!("{prefix}.delivered"), self.delivered);
        self.fabric.total_stats().export_into(bus, &format!("{prefix}.link"));
    }
}

impl Actor<IceMsg> for NetworkController {
    fn handle(&mut self, msg: IceMsg, ctx: &mut Context<'_, IceMsg>) {
        let IceMsg::Net(NetOp::Send { from, to, payload }) = msg else {
            return;
        };
        self.sent += 1;
        let now = ctx.now();
        // Plan the whole message into the reusable scratch buffer
        // (taken out of `self` so the fabric and the route table can be
        // borrowed independently), then batch the planned deliveries
        // onto the scheduler.
        let mut planned = std::mem::take(&mut self.scratch);
        planned.clear();
        match &to {
            NetAddress::Endpoint(ep) => {
                if let Some(d) = self.fabric.unicast(from, *ep, now, ctx.rng()) {
                    planned.push(d);
                }
            }
            NetAddress::Topic(topic) => {
                self.fabric.publish_into(from, topic, now, ctx.rng(), &mut planned);
            }
        }
        for &d in &planned {
            let Some(actor) = self.route(d.to) else {
                ctx.trace_with("net", || format!("no route for {}", d.to));
                continue;
            };
            self.delivered += 1;
            ctx.schedule_at(
                d.at,
                actor,
                IceMsg::Net(NetOp::Deliver { from, payload: payload.clone() }),
            );
        }
        self.scratch = planned;
    }
}

/// Standard ICE topic names.
///
/// Multi-bed deployments share one fabric; topics are namespaced by a
/// *scope* (typically the bed id) so one bed's supervisor never
/// consumes another bed's data. The unscoped forms are shorthand for
/// scope `""` and suit single-bed systems.
pub mod topics {
    use super::Topic;

    /// Device announcements for association (unscoped).
    pub fn announce() -> Topic {
        announce_scoped("")
    }

    /// Device announcements within a scope (e.g. `"bed3"`).
    pub fn announce_scoped(scope: &str) -> Topic {
        if scope.is_empty() {
            Topic::new("ice/announce")
        } else {
            Topic::new(format!("{scope}/ice/announce"))
        }
    }

    /// Vital-sign data stream for a kind (unscoped).
    pub fn vitals(kind: mcps_patient::vitals::VitalKind) -> Topic {
        vitals_scoped("", kind)
    }

    /// Vital-sign data stream for a kind within a scope.
    pub fn vitals_scoped(scope: &str, kind: mcps_patient::vitals::VitalKind) -> Topic {
        if scope.is_empty() {
            Topic::new(format!("vitals/{kind}"))
        } else {
            Topic::new(format!("{scope}/vitals/{kind}"))
        }
    }

    /// Primary → standby supervisor state replication (unscoped).
    pub fn replication() -> Topic {
        replication_scoped("")
    }

    /// Supervisor state replication within a scope.
    pub fn replication_scoped(scope: &str) -> Topic {
        if scope.is_empty() {
            Topic::new("ice/replication")
        } else {
            Topic::new(format!("{scope}/ice/replication"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::NetPayload;
    use mcps_net::qos::LinkQos;
    use mcps_patient::vitals::VitalKind;
    use mcps_runtime::kernel::Simulation;
    use mcps_runtime::time::{SimDuration, SimTime};

    /// Collects everything delivered to it.
    #[derive(Debug, Default)]
    struct Sink {
        received: Vec<(SimTime, NetPayload)>,
    }

    impl Actor<IceMsg> for Sink {
        fn handle(&mut self, msg: IceMsg, ctx: &mut Context<'_, IceMsg>) {
            if let IceMsg::Net(NetOp::Deliver { payload, .. }) = msg {
                self.received.push((ctx.now(), payload));
            }
        }
    }

    #[test]
    fn unicast_respects_latency() {
        let mut sim: Simulation<IceMsg> = Simulation::new(3);
        let mut fabric = Fabric::new();
        fabric.set_default_qos(LinkQos::ideal().with_latency(SimDuration::from_millis(40)));
        let dev = fabric.add_endpoint("dev");
        let sup = fabric.add_endpoint("sup");
        let nc_id = sim.add_actor("netctl", NetworkController::new(fabric));
        let sink_id = sim.add_actor("sink", Sink::default());
        sim.actor_as_mut::<NetworkController>(nc_id).unwrap().bind(sup, sink_id);

        sim.schedule(
            SimTime::from_secs(1),
            nc_id,
            IceMsg::Net(NetOp::Send {
                from: dev,
                to: NetAddress::Endpoint(sup),
                payload: NetPayload::Data {
                    kind: VitalKind::Spo2,
                    value: 97.0,
                    sampled_at: SimTime::from_secs(1),
                },
            }),
        );
        sim.run();
        let sink = sim.actor_as::<Sink>(sink_id).unwrap();
        assert_eq!(sink.received.len(), 1);
        assert_eq!(sink.received[0].0, SimTime::from_secs(1) + SimDuration::from_millis(40));
    }

    #[test]
    fn topic_fanout_delivers_to_subscribers() {
        let mut sim: Simulation<IceMsg> = Simulation::new(3);
        let mut fabric = Fabric::new();
        fabric.set_default_qos(LinkQos::ideal());
        let dev = fabric.add_endpoint("dev");
        let a = fabric.add_endpoint("a");
        let b = fabric.add_endpoint("b");
        let topic = topics::vitals(VitalKind::Spo2);
        fabric.subscribe(a, topic.clone());
        fabric.subscribe(b, topic.clone());
        let nc_id = sim.add_actor("netctl", NetworkController::new(fabric));
        let sa = sim.add_actor("sa", Sink::default());
        let sb = sim.add_actor("sb", Sink::default());
        {
            let nc = sim.actor_as_mut::<NetworkController>(nc_id).unwrap();
            nc.bind(a, sa);
            nc.bind(b, sb);
        }
        sim.schedule(
            SimTime::ZERO,
            nc_id,
            IceMsg::Net(NetOp::Send {
                from: dev,
                to: NetAddress::Topic(topic),
                payload: NetPayload::Data {
                    kind: VitalKind::Spo2,
                    value: 95.0,
                    sampled_at: SimTime::ZERO,
                },
            }),
        );
        sim.run();
        assert_eq!(sim.actor_as::<Sink>(sa).unwrap().received.len(), 1);
        assert_eq!(sim.actor_as::<Sink>(sb).unwrap().received.len(), 1);
        let nc = sim.actor_as::<NetworkController>(nc_id).unwrap();
        assert_eq!(nc.sent(), 1);
        assert_eq!(nc.delivered(), 2);
    }

    #[test]
    fn unroutable_delivery_is_dropped_gracefully() {
        let mut sim: Simulation<IceMsg> = Simulation::new(3);
        let mut fabric = Fabric::new();
        fabric.set_default_qos(LinkQos::ideal());
        let dev = fabric.add_endpoint("dev");
        let ghost = fabric.add_endpoint("ghost");
        let nc_id = sim.add_actor("netctl", NetworkController::new(fabric));
        sim.schedule(
            SimTime::ZERO,
            nc_id,
            IceMsg::Net(NetOp::Send {
                from: dev,
                to: NetAddress::Endpoint(ghost),
                payload: NetPayload::Command {
                    id: 1,
                    epoch: 1,
                    command: crate::msg::IceCommand::StopPump,
                },
            }),
        );
        sim.run();
        assert_eq!(sim.actor_as::<NetworkController>(nc_id).unwrap().delivered(), 0);
        assert!(sim.trace().by_category("net").count() > 0);
    }
}
