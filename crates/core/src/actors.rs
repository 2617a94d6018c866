//! Actor wrappers that put devices on the ICE network.
//!
//! Each wrapper owns a pure device state machine — from `mcps-device`,
//! or the sans-io [`PumpCore`] for the pump — drives it with
//! self-scheduled ticks, and connects it to the network controller:
//! monitors publish vitals to topics, the pump consumes supervisor
//! commands, and all devices announce their capability profile at
//! power-on so the device manager can associate them.
//!
//! The sans-io cores keep no history. The [`PumpActor`] (like the
//! [`Supervisor`](crate::supervisor::Supervisor) adapter) stamps the
//! records its core emits into a [`History`]; scenario harvests read
//! the pump's permission and fail-safe transitions from
//! [`PumpActor::history`].

use mcps_device::faults::FaultPlan;
use mcps_device::monitor::VitalsMonitor;
use mcps_device::profile::DeviceProfile;
use mcps_device::pump::PcaPump;
use mcps_device::ventilator::Ventilator;
use mcps_device::xray::XRayMachine;
use mcps_net::fabric::{EndpointId, Topic};
use mcps_patient::vitals::VitalKind;
use mcps_runtime::actor::{Actor, ActorId};
use mcps_runtime::kernel::Context;
use mcps_runtime::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

use crate::body::PatientBody;
use crate::history::History;
use crate::msg::{IceCommand, IceMsg, NetAddress, NetOp, NetPayload};
use crate::netctl::topics;
use crate::pump_core::{PumpCore, PumpInput};
use crate::supervisor::sans_io::CoreOutputs;

/// How often devices repeat their capability announcement. Announces
/// are idempotent (the device manager ignores duplicates) and may be
/// lost, so devices re-offer themselves periodically — the on-demand
/// equivalent of a discovery beacon.
pub(crate) const ANNOUNCE_PERIOD: SimDuration = SimDuration::from_secs(10);

/// Sends `profile` for `endpoint` on `topic`. Both are built once per
/// actor, so an announce clones two shared handles and allocates
/// nothing.
fn announce(
    ctx: &mut Context<'_, IceMsg>,
    netctl: ActorId,
    endpoint: EndpointId,
    topic: &Topic,
    profile: &DeviceProfile,
) {
    ctx.send(
        netctl,
        IceMsg::Net(NetOp::Send {
            from: endpoint,
            to: NetAddress::Topic(topic.clone()),
            payload: NetPayload::Announce { profile: profile.clone(), endpoint },
        }),
    );
}

/// Replays a sans-io core's buffered outputs onto the kernel, as the
/// [`PumpActor`] and [`Supervisor`](crate::supervisor::Supervisor)
/// adapters both do after each `handle`: traces first, in emission
/// order, then the decision records into the adapter's `history`
/// stamped with the current instant, then sends from `from` to the
/// network controller. Acks go out
/// under `fault`'s ack-plane faults at the current instant — held back
/// by [`FaultPlan::ack_delay`], doubled by [`FaultPlan::ack_duplicated`];
/// every other payload is sent at once. (Supervisors never emit acks.)
pub(crate) fn replay(
    ctx: &mut Context<'_, IceMsg>,
    netctl: ActorId,
    from: EndpointId,
    fault: &FaultPlan,
    out: &mut CoreOutputs,
    history: &mut History,
) {
    for (category, message) in out.traces.drain(..) {
        ctx.trace(category, message);
    }
    let now = ctx.now();
    history.extend(now, &out.records);
    for (to, payload) in out.sends.drain(..) {
        let is_ack = matches!(payload, NetPayload::Ack { .. });
        let msg = IceMsg::Net(NetOp::Send { from, to, payload });
        if !is_ack {
            ctx.send(netctl, msg);
            continue;
        }
        let copies = if fault.ack_duplicated(now) { 2 } else { 1 };
        for _ in 0..copies {
            match fault.ack_delay(now) {
                Some(delay) => ctx.schedule_at(now + delay, netctl, msg.clone()),
                None => ctx.send(netctl, msg.clone()),
            }
        }
    }
}

/// The PCA pump on the network: a thin adapter hosting a [`PumpCore`].
///
/// Configure the core (supervision, faults), then wrap it with
/// [`PumpActor::from_core`]; read counters through [`PumpActor::core`]
/// and the permission and fail-safe transitions through
/// [`PumpActor::history`]. On each event the adapter maps the kernel
/// message to a [`PumpInput`], infuses the drug a tick delivers into
/// its [`PatientBody`], and replays the core's outputs with `replay`
/// — traces, records, then sends, with the controller's ack-plane
/// faults applied to the acks — before re-arming the tick.
#[derive(Debug)]
pub struct PumpActor {
    core: PumpCore,
    body: PatientBody,
    netctl: ActorId,
    out: CoreOutputs,
    history: History,
}

impl PumpActor {
    /// Wraps a pump attached to `body`, reachable via `endpoint`.
    pub fn new(pump: PcaPump, body: PatientBody, netctl: ActorId, endpoint: EndpointId) -> Self {
        Self::from_core(PumpCore::new(pump, endpoint), body, netctl)
    }

    /// Wraps an already configured core attached to `body`.
    pub fn from_core(core: PumpCore, body: PatientBody, netctl: ActorId) -> Self {
        PumpActor { core, body, netctl, out: CoreOutputs::new(), history: History::new() }
    }

    /// See [`PumpCore::with_scope`].
    pub fn with_scope(mut self, scope: &str) -> Self {
        self.core = self.core.with_scope(scope);
        self
    }

    /// The hosted core (counters and the wrapped pump).
    pub fn core(&self) -> &PumpCore {
        &self.core
    }

    /// The pump's permission and fail-safe transitions so far.
    pub fn history(&self) -> &History {
        &self.history
    }
}

impl Actor<IceMsg> for PumpActor {
    fn handle(&mut self, msg: IceMsg, ctx: &mut Context<'_, IceMsg>) {
        let input = match msg {
            IceMsg::Tick => PumpInput::Tick,
            IceMsg::PressButton => PumpInput::PressButton,
            IceMsg::Net(NetOp::Deliver {
                from,
                payload: NetPayload::Command { id, epoch, command },
            }) => PumpInput::Command { from, id, epoch, command },
            IceMsg::Net(_) => return,
        };
        let PumpActor { core, body, netctl, out, history } = self;
        out.begin(ctx.trace_enabled());
        let delivered = core.handle(ctx.now(), input, out);
        if delivered > 0.0 {
            body.infuse(delivered);
        }
        replay(ctx, *netctl, core.endpoint(), core.fault(), out, history);
        if input == PumpInput::Tick {
            ctx.schedule_self(PumpCore::STEP, IceMsg::Tick);
        }
    }
}

/// A monitoring device (pulse oximeter, capnograph, …) on the network.
#[derive(Debug)]
pub struct MonitorActor {
    monitor: VitalsMonitor,
    body: PatientBody,
    netctl: ActorId,
    endpoint: EndpointId,
    fault: FaultPlan,
    /// Pre-built announce and per-kind vitals topics for the current
    /// scope, so announcing and publishing clone an `Arc<str>` instead
    /// of formatting a fresh topic name per message.
    announce_topic: Topic,
    vitals_topics: Vec<(VitalKind, Topic)>,
    next_announce: Option<SimTime>,
    last_values: BTreeMap<VitalKind, f64>,
    published: u64,
}

/// One vitals topic per kind under `scope`.
fn vitals_topics_for(scope: &str) -> Vec<(VitalKind, Topic)> {
    VitalKind::ALL.iter().map(|&k| (k, topics::vitals_scoped(scope, k))).collect()
}

impl MonitorActor {
    /// Wraps a monitor sampling `body`, publishing via `endpoint`.
    pub fn new(
        monitor: VitalsMonitor,
        body: PatientBody,
        netctl: ActorId,
        endpoint: EndpointId,
        fault: FaultPlan,
    ) -> Self {
        MonitorActor {
            monitor,
            body,
            netctl,
            endpoint,
            fault,
            announce_topic: topics::announce(),
            vitals_topics: vitals_topics_for(""),
            next_announce: None,
            last_values: BTreeMap::new(),
            published: 0,
        }
    }

    /// Sets the topic scope (bed id) this monitor publishes under.
    pub fn with_scope(mut self, scope: &str) -> Self {
        self.announce_topic = topics::announce_scoped(scope);
        self.vitals_topics = vitals_topics_for(scope);
        self
    }

    /// Data points published so far.
    pub fn published(&self) -> u64 {
        self.published
    }

    fn publish(&mut self, ctx: &mut Context<'_, IceMsg>, kind: VitalKind, value: f64, at: SimTime) {
        self.published += 1;
        let topic = self
            .vitals_topics
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, t)| t.clone())
            .expect("vitals_topics covers every VitalKind");
        ctx.send(
            self.netctl,
            IceMsg::Net(NetOp::Send {
                from: self.endpoint,
                to: NetAddress::Topic(topic),
                payload: NetPayload::Data { kind, value, sampled_at: at },
            }),
        );
    }
}

impl Actor<IceMsg> for MonitorActor {
    fn handle(&mut self, msg: IceMsg, ctx: &mut Context<'_, IceMsg>) {
        if msg != IceMsg::Tick {
            return;
        }
        let now = ctx.now();
        // A crashed device does not even announce; silent/stuck devices
        // keep their network stack alive.
        if !self.fault.is_crashed(now) && self.next_announce.is_none_or(|t| now >= t) {
            self.next_announce = Some(now + ANNOUNCE_PERIOD);
            announce(ctx, self.netctl, self.endpoint, &self.announce_topic, self.monitor.profile());
        }
        let period = self.monitor.sample_period();
        if self.fault.is_data_suppressed(now) {
            // Crashed or silent: nothing goes out (the freshness
            // monitors upstream are what must catch this).
            ctx.schedule_self(period, IceMsg::Tick);
            return;
        }
        if self.fault.is_stuck(now) {
            // Stuck-at fault: keep re-publishing the last values with
            // fresh timestamps — the insidious case.
            for (kind, value) in self.last_values.clone() {
                self.publish(ctx, kind, value, now);
            }
            ctx.schedule_self(period, IceMsg::Tick);
            return;
        }
        let truth = self.body.vitals();
        // Calibration drift adds a linear bias on top of the monitor's
        // own noise model; zero unless a drift fault is active.
        let bias = self.fault.value_bias(now);
        let measurements = self.monitor.sample(now, &truth, ctx.rng());
        for m in measurements {
            let value = m.value + bias;
            self.last_values.insert(m.kind, value);
            self.publish(ctx, m.kind, value, m.at);
        }
        ctx.schedule_self(period, IceMsg::Tick);
    }
}

/// The ventilator on the network.
#[derive(Debug)]
pub struct VentilatorActor {
    vent: Ventilator,
    netctl: ActorId,
    endpoint: EndpointId,
    announce_topic: Topic,
    profile: DeviceProfile,
    next_announce: Option<SimTime>,
}

impl VentilatorActor {
    /// Wraps a ventilator reachable via `endpoint`.
    pub fn new(vent: Ventilator, netctl: ActorId, endpoint: EndpointId) -> Self {
        VentilatorActor {
            vent,
            netctl,
            endpoint,
            announce_topic: topics::announce(),
            profile: Ventilator::profile("VENT-1"),
            next_announce: None,
        }
    }

    /// The wrapped ventilator.
    pub fn ventilator(&self) -> &Ventilator {
        &self.vent
    }
}

impl Actor<IceMsg> for VentilatorActor {
    fn handle(&mut self, msg: IceMsg, ctx: &mut Context<'_, IceMsg>) {
        let now = ctx.now();
        match msg {
            IceMsg::Tick => {
                if self.next_announce.is_none_or(|t| now >= t) {
                    self.next_announce = Some(now + ANNOUNCE_PERIOD);
                    announce(ctx, self.netctl, self.endpoint, &self.announce_topic, &self.profile);
                }
                self.vent.poll(now);
                ctx.schedule_self(SimDuration::from_millis(250), IceMsg::Tick);
            }
            IceMsg::Net(NetOp::Deliver {
                from,
                payload: NetPayload::Command { id, epoch: _, command: cmd },
            }) => {
                match cmd {
                    IceCommand::PauseVentilation { duration } => {
                        let out = self.vent.pause(now, duration);
                        ctx.trace_with("vent", || format!("pause -> {out:?}"));
                    }
                    IceCommand::ResumeVentilation => {
                        self.vent.resume(now);
                        ctx.trace("vent", "resumed");
                    }
                    IceCommand::Heartbeat => {} // liveness probe: ack only
                    _ => return,
                }
                ctx.send(
                    self.netctl,
                    IceMsg::Net(NetOp::Send {
                        from: self.endpoint,
                        to: NetAddress::Endpoint(from),
                        payload: NetPayload::Ack { id, command: cmd, applied_at: now },
                    }),
                );
            }
            _ => {}
        }
    }
}

/// The x-ray machine on the network.
#[derive(Debug)]
pub struct XRayActor {
    xray: XRayMachine,
    netctl: ActorId,
    endpoint: EndpointId,
    announce_topic: Topic,
    profile: DeviceProfile,
    next_announce: Option<SimTime>,
}

impl XRayActor {
    /// Wraps an x-ray machine reachable via `endpoint`.
    pub fn new(xray: XRayMachine, netctl: ActorId, endpoint: EndpointId) -> Self {
        XRayActor {
            xray,
            netctl,
            endpoint,
            announce_topic: topics::announce(),
            profile: XRayMachine::profile("XR-1"),
            next_announce: None,
        }
    }

    /// The wrapped machine.
    pub fn xray(&self) -> &XRayMachine {
        &self.xray
    }
}

impl Actor<IceMsg> for XRayActor {
    fn handle(&mut self, msg: IceMsg, ctx: &mut Context<'_, IceMsg>) {
        let now = ctx.now();
        match msg {
            IceMsg::Tick => {
                if self.next_announce.is_none_or(|t| now >= t) {
                    self.next_announce = Some(now + ANNOUNCE_PERIOD);
                    announce(ctx, self.netctl, self.endpoint, &self.announce_topic, &self.profile);
                }
                ctx.schedule_self(ANNOUNCE_PERIOD, IceMsg::Tick);
            }
            IceMsg::Net(NetOp::Deliver {
                from,
                payload: NetPayload::Command { id, epoch: _, command: cmd },
            }) => {
                match cmd {
                    IceCommand::ArmExposure => {
                        self.xray.arm();
                        ctx.trace("xray", "armed");
                    }
                    IceCommand::Expose => match self.xray.expose(now) {
                        Some(e) => {
                            ctx.trace_with("xray", || format!("exposure {} .. {}", e.start, e.end));
                        }
                        None => ctx.trace("xray", "expose refused (not armed)"),
                    },
                    IceCommand::Heartbeat => {} // liveness probe: ack only
                    _ => return,
                }
                ctx.send(
                    self.netctl,
                    IceMsg::Net(NetOp::Send {
                        from: self.endpoint,
                        to: NetAddress::Endpoint(from),
                        payload: NetPayload::Ack { id, command: cmd, applied_at: now },
                    }),
                );
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::PatientBody;

    use crate::netctl::NetworkController;
    use mcps_device::monitor::pulse_oximeter;
    use mcps_device::pump::PcaPumpConfig;
    use mcps_device::ventilator::VentilatorConfig;
    use mcps_device::xray::XRayConfig;
    use mcps_net::fabric::Fabric;
    use mcps_net::qos::LinkQos;
    use mcps_patient::patient::{PatientParams, VirtualPatient};
    use mcps_runtime::kernel::Simulation;

    /// Records network deliveries addressed to it.
    #[derive(Debug, Default)]
    struct Sink {
        announces: u32,
        data: u32,
        acks: u32,
    }

    impl Actor<IceMsg> for Sink {
        fn handle(&mut self, msg: IceMsg, _ctx: &mut Context<'_, IceMsg>) {
            if let IceMsg::Net(NetOp::Deliver { payload, .. }) = msg {
                match payload {
                    NetPayload::Announce { .. } => self.announces += 1,
                    NetPayload::Data { .. } => self.data += 1,
                    NetPayload::Ack { .. } => self.acks += 1,
                    NetPayload::Command { .. } | NetPayload::Checkpoint(_) => {}
                }
            }
        }
    }

    struct Rig {
        sim: Simulation<IceMsg>,
        nc_id: ActorId,
        sink_id: ActorId,
        dev_ep: EndpointId,
        sup_ep: EndpointId,
        body: PatientBody,
    }

    fn rig() -> Rig {
        let mut fabric = Fabric::new();
        fabric.set_default_qos(LinkQos::ideal());
        let dev_ep = fabric.add_endpoint("device");
        let sup_ep = fabric.add_endpoint("supervisor");
        fabric.subscribe(sup_ep, crate::netctl::topics::announce());
        for kind in mcps_patient::vitals::VitalKind::ALL {
            fabric.subscribe(sup_ep, crate::netctl::topics::vitals(kind));
        }
        let mut sim: Simulation<IceMsg> = Simulation::new(9);
        let nc_id = sim.add_actor("netctl", NetworkController::new(fabric));
        let sink_id = sim.add_actor("sink", Sink::default());
        sim.actor_as_mut::<NetworkController>(nc_id).unwrap().bind(sup_ep, sink_id);
        let body = PatientBody::new(VirtualPatient::new(PatientParams::default()));
        Rig { sim, nc_id, sink_id, dev_ep, sup_ep, body }
    }

    #[test]
    fn monitor_actor_announces_and_publishes() {
        let mut r = rig();
        let m = MonitorActor::new(
            pulse_oximeter("T-1"),
            r.body.clone(),
            r.nc_id,
            r.dev_ep,
            FaultPlan::none(),
        );
        let m_id = r.sim.add_actor("oximeter", m);
        r.sim.actor_as_mut::<NetworkController>(r.nc_id).unwrap().bind(r.dev_ep, m_id);
        r.sim.schedule(SimTime::ZERO, m_id, IceMsg::Tick);
        r.sim.run_until(SimTime::from_secs(30));
        let sink = r.sim.actor_as::<Sink>(r.sink_id).unwrap();
        // Re-announces every 10 s: t=0,10,20,30 ⇒ up to 4.
        assert!((3..=4).contains(&sink.announces), "announces {}", sink.announces);
        assert!(sink.data > 40, "expected ~2 channels x 30 samples, got {}", sink.data);
        assert!(r.sim.actor_as::<MonitorActor>(m_id).unwrap().published() > 40);
    }

    #[test]
    fn crashed_monitor_stays_silent() {
        let mut r = rig();
        let m = MonitorActor::new(
            pulse_oximeter("T-2"),
            r.body.clone(),
            r.nc_id,
            r.dev_ep,
            FaultPlan::none().with_fault(
                mcps_device::faults::FaultKind::Crash,
                SimTime::ZERO,
                None,
            ),
        );
        let m_id = r.sim.add_actor("oximeter", m);
        r.sim.actor_as_mut::<NetworkController>(r.nc_id).unwrap().bind(r.dev_ep, m_id);
        r.sim.schedule(SimTime::ZERO, m_id, IceMsg::Tick);
        r.sim.run_until(SimTime::from_secs(20));
        let sink = r.sim.actor_as::<Sink>(r.sink_id).unwrap();
        assert_eq!(sink.data, 0);
        assert_eq!(sink.announces, 0, "a crashed device does not even announce");
    }

    #[test]
    fn pump_ack_faults_delay_and_duplicate() {
        let mut r = rig();
        let fault = FaultPlan::none()
            .with_fault(
                mcps_device::faults::FaultKind::DelayedAck { delay_ms: 3000 },
                SimTime::ZERO,
                Some(SimTime::from_secs(20)),
            )
            .with_fault(mcps_device::faults::FaultKind::DuplicateAck, SimTime::from_secs(20), None);
        let core =
            PumpCore::new(PcaPump::new(PcaPumpConfig::default()), r.dev_ep).with_faults(fault);
        let p_id = r.sim.add_actor("pump", PumpActor::from_core(core, r.body.clone(), r.nc_id));
        r.sim.actor_as_mut::<NetworkController>(r.nc_id).unwrap().bind(r.dev_ep, p_id);
        // Ticks make the pump announce at t = 0, 10, 20, 30.
        r.sim.schedule(SimTime::ZERO, p_id, IceMsg::Tick);
        let cmd = |id, command, t| {
            (
                SimTime::from_secs(t),
                IceMsg::Net(NetOp::Deliver {
                    from: r.sup_ep,
                    payload: NetPayload::Command { id, epoch: 1, command },
                }),
            )
        };
        let (t1, m1) = cmd(1, IceCommand::StopPump, 5);
        let (t2, m2) = cmd(2, IceCommand::ResumePump, 25);
        r.sim.schedule(t1, p_id, m1);
        r.sim.schedule(t2, p_id, m2);
        // The ack-plane faults hit acks only: the t=0 announce is out at
        // once, not held back by the 3 s ack delay.
        r.sim.run_until(SimTime::from_secs(1));
        assert_eq!(r.sim.actor_as::<Sink>(r.sink_id).unwrap().announces, 1, "announce on time");
        // Just after the stop, the delayed ack (due t=8) is not out yet.
        r.sim.run_until(SimTime::from_secs(6));
        assert_eq!(r.sim.actor_as::<Sink>(r.sink_id).unwrap().acks, 0, "ack held back");
        r.sim.run_until(SimTime::from_secs(30));
        let sink = r.sim.actor_as::<Sink>(r.sink_id).unwrap();
        // 1 delayed ack for the stop + 2 duplicated acks for the resume.
        assert_eq!(sink.acks, 3);
        // The t=20 and t=30 announces, sent while acks are duplicated,
        // arrive once each.
        assert_eq!(sink.announces, 4, "announces not doubled");
    }

    #[test]
    fn drifting_monitor_biases_published_values() {
        let mut r = rig();
        let fault = FaultPlan::none().with_fault(
            mcps_device::faults::FaultKind::Drift { bias_milli_per_sec: -100 },
            SimTime::ZERO,
            None,
        );
        let m = MonitorActor::new(pulse_oximeter("T-3"), r.body.clone(), r.nc_id, r.dev_ep, fault);
        let m_id = r.sim.add_actor("oximeter", m);
        r.sim.actor_as_mut::<NetworkController>(r.nc_id).unwrap().bind(r.dev_ep, m_id);

        #[derive(Debug, Default)]
        struct Spo2Sink {
            last: Option<(SimTime, f64)>,
        }
        impl Actor<IceMsg> for Spo2Sink {
            fn handle(&mut self, msg: IceMsg, ctx: &mut Context<'_, IceMsg>) {
                if let IceMsg::Net(NetOp::Deliver {
                    payload: NetPayload::Data { kind: VitalKind::Spo2, value, .. },
                    ..
                }) = msg
                {
                    self.last = Some((ctx.now(), value));
                }
            }
        }
        let sink2 = r.sim.add_actor("spo2sink", Spo2Sink::default());
        r.sim.actor_as_mut::<NetworkController>(r.nc_id).unwrap().bind(r.sup_ep, sink2);
        r.sim.schedule(SimTime::ZERO, m_id, IceMsg::Tick);
        r.sim.run_until(SimTime::from_secs(120));
        let (_, v) = r.sim.actor_as::<Spo2Sink>(sink2).unwrap().last.expect("samples published");
        // After ~2 min at -0.1/s the bias (~-12) dwarfs sensor noise, so
        // the published SpO2 must sit far below any healthy reading.
        assert!(v < 90.0, "drift bias not applied: SpO2 {v}");
    }

    #[test]
    fn ventilator_actor_handles_pause_cycle() {
        let mut r = rig();
        let v = Ventilator::new(SimTime::ZERO, VentilatorConfig::default());
        let v_id = r.sim.add_actor("vent", VentilatorActor::new(v, r.nc_id, r.dev_ep));
        r.sim.actor_as_mut::<NetworkController>(r.nc_id).unwrap().bind(r.dev_ep, v_id);
        r.sim.schedule(SimTime::ZERO, v_id, IceMsg::Tick);
        r.sim.schedule(
            SimTime::from_secs(5),
            v_id,
            IceMsg::Net(NetOp::Deliver {
                from: r.sup_ep,
                payload: NetPayload::Command {
                    id: 1,
                    epoch: 1,
                    command: IceCommand::PauseVentilation { duration: SimDuration::from_secs(8) },
                },
            }),
        );
        r.sim.schedule(
            SimTime::from_secs(9),
            v_id,
            IceMsg::Net(NetOp::Deliver {
                from: r.sup_ep,
                payload: NetPayload::Command {
                    id: 2,
                    epoch: 1,
                    command: IceCommand::ResumeVentilation,
                },
            }),
        );
        r.sim.run_until(SimTime::from_secs(20));
        let va = r.sim.actor_as::<VentilatorActor>(v_id).unwrap();
        assert_eq!(va.ventilator().pause_log(), &[(SimTime::from_secs(5), SimTime::from_secs(9))]);
        assert_eq!(r.sim.actor_as::<Sink>(r.sink_id).unwrap().acks, 2);
    }

    #[test]
    fn xray_actor_arms_and_exposes() {
        let mut r = rig();
        let x = XRayMachine::new(XRayConfig::default());
        let x_id = r.sim.add_actor("xray", XRayActor::new(x, r.nc_id, r.dev_ep));
        r.sim.actor_as_mut::<NetworkController>(r.nc_id).unwrap().bind(r.dev_ep, x_id);
        r.sim.schedule(SimTime::ZERO, x_id, IceMsg::Tick);
        for (t, id, cmd) in [(2u64, 1, IceCommand::ArmExposure), (3, 2, IceCommand::Expose)] {
            r.sim.schedule(
                SimTime::from_secs(t),
                x_id,
                IceMsg::Net(NetOp::Deliver {
                    from: r.sup_ep,
                    payload: NetPayload::Command { id, epoch: 1, command: cmd },
                }),
            );
        }
        r.sim.run_until(SimTime::from_secs(10));
        let xa = r.sim.actor_as::<XRayActor>(x_id).unwrap();
        assert_eq!(xa.xray().exposures().len(), 1);
        assert_eq!(r.sim.actor_as::<Sink>(r.sink_id).unwrap().acks, 2);
    }
}
