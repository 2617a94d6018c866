//! `campus`: the E12 10k-bed campus through `run_campus`, and its
//! traced replica.
//!
//! End-to-end: whole-campus passes at [`WORKERS`] workers until the
//! budget is spent. Each ward is a timed unit (`ShardStats::shard_secs`);
//! a ward's fast-regime time is the minimum of its times across
//! passes, and throughput is simulated bed-seconds over the
//! fast-regime wall (busy time over workers, divided by the median shard
//! balance). Every pass must reproduce the first pass's event count and
//! ward-outcome digest exactly.
//!
//! Traced: a few wards rebuilt from the constructors `run_campus_ward`
//! uses, with every actor wrapped in [`Timed`], which attributes
//! `handle_run` time to its layer. Each traced ward must reproduce
//! `run_campus_ward`'s outcome exactly.

use crate::stats::{fastest, median, splitmix, Digest};
use crate::{Outcome, WORKERS};
use mcps_control::interlock::InterlockConfig;
use mcps_core::actors::{MonitorActor, PumpActor, VentilatorActor, XRayActor};
use mcps_core::netctl::topics;
use mcps_core::scenarios::campus::{
    campus_ward_plans, run_campus, run_campus_ward, CampusConfig, WardOutcome, WardPlan,
};
use mcps_core::{
    IceMsg, NetworkController, PatientActor, PatientBody, PcaSafetyApp, Supervisor, WardMonitorApp,
    WorkflowStyle, XRayCoordinatorApp,
};
use mcps_device::faults::{FaultKind, FaultPlan};
use mcps_device::monitor::{capnograph, pulse_oximeter, ChannelConfig, VitalsMonitor};
use mcps_device::pump::{PcaPump, PcaPumpConfig};
use mcps_device::ventilator::{Ventilator, VentilatorConfig};
use mcps_device::xray::{XRayConfig, XRayMachine};
use mcps_net::fabric::{EndpointId, Fabric};
use mcps_patient::cohort::CohortGenerator;
use mcps_patient::patient::VirtualPatient;
use mcps_patient::sensors::SensorSpec;
use mcps_patient::vitals::VitalKind;
use mcps_runtime::actor::{Actor, ActorId};
use mcps_runtime::executor::MsgRun;
use mcps_runtime::kernel::{Context, Simulation};
use mcps_runtime::time::{SimDuration, SimTime};
use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// The E12 campus for `seed`: 100 wards × 100 beds, 10 ICU wards with
/// 8 PCA loops, one PCA loop per general ward, 30 simulated minutes.
pub fn config(seed: u64) -> CampusConfig {
    CampusConfig {
        seed,
        wards: 100,
        beds_per_ward: 100,
        icu_wards: 10,
        icu_pca_beds: 8,
        ward_pca_beds: 1,
        duration: SimDuration::from_mins(30),
        admission_window: SimDuration::from_secs(120),
        ..CampusConfig::default()
    }
}

/// Builds every ward of the campus without simulating it: the same
/// plans at zero duration. Returns the wall seconds.
fn setup_once(cfg: &CampusConfig) -> f64 {
    let zero = CampusConfig { duration: SimDuration::ZERO, ..cfg.clone() };
    let t0 = Instant::now();
    let (wards, _) = run_campus(&zero, WORKERS);
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(wards.len(), cfg.wards as usize);
    secs
}

/// Admission / association checks of one ward (the `bench_campus`
/// invariants).
fn ward_ok(w: &WardOutcome) -> bool {
    w.admitted == w.beds
        && w.associated_at_end == w.beds - w.discharged
        && w.data_ignored <= 100 * u64::from(w.beds)
}

fn digest(wards: &[WardOutcome]) -> u64 {
    let mut d = Digest::default();
    for w in wards {
        for v in [
            u64::from(w.ward),
            u64::from(w.beds),
            u64::from(w.admitted),
            u64::from(w.associated_at_end),
            u64::from(w.discharged),
            w.data_received,
            w.data_ignored,
            w.desat_alarms,
            w.grants_issued,
            u64::from(w.xray_completed),
            w.events,
        ] {
            d.word(v);
        }
    }
    d.value()
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Outcome {
    let cfg = config(seed);
    if trace {
        return run_traced(&cfg, budget);
    }
    let mut out = Outcome::default();
    let mut setups = Vec::new();

    let n = cfg.wards as usize;
    let mut ward_secs: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut balances = Vec::new();
    let mut pass_walls = Vec::new();
    let mut reference: Option<(u64, u64)> = None;
    let start = Instant::now();
    while pass_walls.len() < 2 || start.elapsed() < budget {
        // One set-up per pass spreads the set-ups over the run's host
        // regimes, as the passes are.
        setups.push(setup_once(&cfg));
        let t0 = Instant::now();
        let (wards, stats) = run_campus(&cfg, WORKERS);
        pass_walls.push(t0.elapsed().as_secs_f64());
        for w in &wards {
            out.check(ward_ok(w), || format!("campus ward {} violates admission: {w:?}", w.ward));
        }
        let events: u64 = wards.iter().map(|w| w.events).sum();
        let pass = (events, digest(&wards));
        let first = *reference.get_or_insert(pass);
        out.check(pass == first, || format!("campus pass {pass:?} differs from first {first:?}"));
        for (i, s) in stats.shard_secs.iter().enumerate() {
            ward_secs[i].push(*s);
        }
        balances.push(stats.balance());
    }

    let fast: Vec<f64> = ward_secs.iter().map(|t| fastest(t)).collect();
    let typical: Vec<f64> = ward_secs.iter().map(|t| median(t)).collect();
    let balance = median(&balances);
    let bed_secs = f64::from(cfg.total_beds()) * cfg.duration.as_secs_f64();
    let wall_of = |units: &[f64]| units.iter().sum::<f64>() / (WORKERS as f64 * balance);
    let throughput = bed_secs / wall_of(&fast);
    let (events, dig) = reference.expect("at least one pass");
    println!(
        "campus: {} wards x {} beds, {} passes, events/pass {events}, digest {dig:016x}",
        cfg.wards,
        cfg.beds_per_ward,
        pass_walls.len()
    );
    println!(
        "  bed-s/s fast-regime {:.0} | median-unit {:.0} | median pass wall {:.0} (balance {balance:.3}) | ward ms p50 {:.3}",
        throughput,
        bed_secs / wall_of(&typical),
        bed_secs / median(&pass_walls),
        median(&fast) * 1e3,
    );
    out.set("throughput", throughput);
    out.set("setup_s", median(&setups));
    out
}

// ---------------------------------------------------------------------
// Traced replica
// ---------------------------------------------------------------------

/// The simulator layers an actor's time is attributed to.
#[derive(Debug, Clone, Copy)]
enum Layer {
    Fabric = 0,
    Patient = 1,
    Device = 2,
    Supervisor = 3,
}

const LAYERS: usize = 4;

/// Per-layer message counts and self time, shared by every [`Timed`]
/// actor of one traced ward.
#[derive(Debug, Default)]
struct LayerClock {
    msgs: [Cell<u64>; LAYERS],
    ns: [Cell<u64>; LAYERS],
}

impl LayerClock {
    fn add(&self, layer: Layer, msgs: u64, ns: u64) {
        let i = layer as usize;
        self.msgs[i].set(self.msgs[i].get() + msgs);
        self.ns[i].set(self.ns[i].get() + ns);
    }
}

/// Wraps an actor and times every call into it. Actors only talk via
/// scheduled messages, so spans never nest: a span's time is its
/// layer's self time.
struct Timed<A> {
    inner: A,
    layer: Layer,
    clock: Rc<LayerClock>,
}

impl<A> Timed<A> {
    fn new(inner: A, layer: Layer, clock: &Rc<LayerClock>) -> Self {
        Timed { inner, layer, clock: Rc::clone(clock) }
    }
}

impl<A: Actor<IceMsg>> Actor<IceMsg> for Timed<A> {
    fn handle(&mut self, msg: IceMsg, ctx: &mut Context<'_, IceMsg>) {
        let t0 = Instant::now();
        self.inner.handle(msg, ctx);
        self.clock.add(self.layer, 1, t0.elapsed().as_nanos() as u64);
    }

    fn handle_run(&mut self, msgs: &mut MsgRun<'_, IceMsg>, ctx: &mut Context<'_, IceMsg>) {
        let before = msgs.remaining();
        let t0 = Instant::now();
        self.inner.handle_run(msgs, ctx);
        let ns = t0.elapsed().as_nanos() as u64;
        self.clock.add(self.layer, (before - msgs.remaining()) as u64, ns);
    }
}

/// `campus.rs`'s private spot-check oximeter, rebuilt from the public
/// monitor constructor.
fn spot_check_oximeter(serial: &str, period: SimDuration) -> VitalsMonitor {
    VitalsMonitor::new(
        "Acme",
        "SpotCheck-2",
        serial,
        period,
        vec![ChannelConfig {
            kind: VitalKind::Spo2,
            sensor: SensorSpec::default_for(VitalKind::Spo2),
            averaging: 1,
        }],
    )
}

/// One traced ward, built and ready to run.
struct TracedWard {
    sim: Simulation<IceMsg>,
    clock: Rc<LayerClock>,
    /// `(supervisor, discharged)` per bed.
    beds: Vec<(ActorId, bool)>,
    proc_sup: Option<ActorId>,
}

fn nc(sim: &mut Simulation<IceMsg>, id: ActorId) -> &mut NetworkController {
    &mut sim.actor_as_mut::<Timed<NetworkController>>(id).expect("netctl").inner
}

/// Mirrors `run_campus_ward`'s construction step for step, wrapping
/// each actor in [`Timed`].
fn build_traced(config: &CampusConfig, plan: &WardPlan) -> TracedWard {
    let clock = Rc::new(LayerClock::default());
    let mut sim: Simulation<IceMsg> = Simulation::new(plan.seed);
    sim.trace_mut().set_enabled(false);
    let cohort = CohortGenerator::new(plan.seed, config.cohort);
    let beds = plan.pca_beds + plan.monitor_beds;
    let n_eps = 4 * plan.pca_beds as usize + 2 * plan.monitor_beds as usize + 3;
    let n_topics = 8 * plan.pca_beds as usize + 4 * plan.monitor_beds as usize + 4;
    let mut fabric = Fabric::with_capacity(n_eps, n_topics, n_eps * 2);
    fabric.set_default_qos(config.qos);

    enum Wiring {
        Pca { scope: String, ox: EndpointId, cap: EndpointId, pump: EndpointId, sup: EndpointId },
        Monitor { scope: String, mon: EndpointId, sup: EndpointId },
    }
    let mut wiring = Vec::with_capacity(beds as usize);
    for bed in 0..beds {
        let scope = format!("w{}b{bed}", plan.ward);
        if bed < plan.pca_beds {
            let ox = fabric.add_endpoint(&format!("{scope}/oximeter"));
            let cap = fabric.add_endpoint(&format!("{scope}/capnograph"));
            let pump = fabric.add_endpoint(&format!("{scope}/pump"));
            let sup = fabric.add_endpoint(&format!("{scope}/supervisor"));
            fabric.subscribe(sup, topics::announce_scoped(&scope));
            for kind in VitalKind::ALL {
                fabric.subscribe(sup, topics::vitals_scoped(&scope, kind));
            }
            wiring.push(Wiring::Pca { scope, ox, cap, pump, sup });
        } else {
            let mon = fabric.add_endpoint(&format!("{scope}/monitor"));
            let sup = fabric.add_endpoint(&format!("{scope}/supervisor"));
            fabric.subscribe(sup, topics::announce_scoped(&scope));
            fabric.subscribe(sup, topics::vitals_scoped(&scope, VitalKind::Spo2));
            wiring.push(Wiring::Monitor { scope, mon, sup });
        }
    }
    let proc_eps = plan.procedure_room.then(|| {
        let vent = fabric.add_endpoint("proc/ventilator");
        let xray = fabric.add_endpoint("proc/xray");
        let sup = fabric.add_endpoint("proc/supervisor");
        fabric.subscribe(sup, topics::announce());
        (vent, xray, sup)
    });

    let nc_id =
        sim.add_actor("netctl", Timed::new(NetworkController::new(fabric), Layer::Fabric, &clock));
    let window_ms = config.admission_window.as_micros().div_ceil(1000).max(1);
    let dur_secs = config.duration.as_secs_f64();
    let mut bed_refs = Vec::with_capacity(beds as usize);
    for (bed, wires) in wiring.into_iter().enumerate() {
        let bed_u = bed as u32;
        let bed_seed = splitmix(plan.seed ^ (0xBED0 + u64::from(bed_u)));
        let admit_ms = bed_seed % window_ms;
        let body = PatientBody::new(VirtualPatient::new(cohort.params(u64::from(bed_u))));
        match wires {
            Wiring::Pca { scope, ox, cap, pump, sup } => {
                let pump_cfg = PcaPumpConfig { ticket_mode: true, ..PcaPumpConfig::default() };
                let pump_actor = PumpActor::new(PcaPump::new(pump_cfg), body.clone(), nc_id, pump)
                    .with_scope(&scope);
                let pump_id = sim.add_actor(
                    &format!("{scope}/pump"),
                    Timed::new(pump_actor, Layer::Device, &clock),
                );
                let ox_actor = MonitorActor::new(
                    pulse_oximeter(&format!("OX-{}-{bed}", plan.ward)),
                    body.clone(),
                    nc_id,
                    ox,
                    FaultPlan::none(),
                )
                .with_scope(&scope);
                let ox_id = sim.add_actor(
                    &format!("{scope}/oximeter"),
                    Timed::new(ox_actor, Layer::Device, &clock),
                );
                let cap_actor = MonitorActor::new(
                    capnograph(&format!("CAP-{}-{bed}", plan.ward)),
                    body.clone(),
                    nc_id,
                    cap,
                    FaultPlan::none(),
                )
                .with_scope(&scope);
                let cap_id = sim.add_actor(
                    &format!("{scope}/capnograph"),
                    Timed::new(cap_actor, Layer::Device, &clock),
                );
                let patient_id = sim.add_actor(
                    &format!("{scope}/patient"),
                    Timed::new(
                        PatientActor::new(body.clone(), Some(pump_id), 0.0),
                        Layer::Patient,
                        &clock,
                    ),
                );
                let sup_actor = Supervisor::new(
                    PcaSafetyApp::new(InterlockConfig::default()),
                    nc_id,
                    sup,
                    SimDuration::from_secs(2),
                );
                let sup_id = sim.add_actor(
                    &format!("{scope}/supervisor"),
                    Timed::new(sup_actor, Layer::Supervisor, &clock),
                );
                let ctl = nc(&mut sim, nc_id);
                ctl.bind(ox, ox_id);
                ctl.bind(cap, cap_id);
                ctl.bind(pump, pump_id);
                ctl.bind(sup, sup_id);
                for &(id, off) in &[
                    (pump_id, 100u64),
                    (ox_id, 200),
                    (cap_id, 300),
                    (patient_id, 0),
                    (sup_id, 500),
                ] {
                    sim.schedule(SimTime::from_millis(admit_ms + off), id, IceMsg::Tick);
                }
                bed_refs.push((sup_id, false));
            }
            Wiring::Monitor { scope, mon, sup } => {
                let lot = splitmix(bed_seed ^ 0xD15C);
                let discharged = (lot % 10_000) as f64 / 10_000.0 < config.discharge_fraction;
                let fault = if discharged {
                    let frac = 0.70 + 0.15 * ((lot >> 16) % 1000) as f64 / 1000.0;
                    FaultPlan::none().with_fault(
                        FaultKind::Crash,
                        SimTime::from_secs((dur_secs * frac) as u64),
                        None,
                    )
                } else {
                    FaultPlan::none()
                };
                let mon_actor = MonitorActor::new(
                    spot_check_oximeter(
                        &format!("SC-{}-{bed}", plan.ward),
                        config.monitor_sample_period,
                    ),
                    body.clone(),
                    nc_id,
                    mon,
                    fault,
                )
                .with_scope(&scope);
                let mon_id = sim.add_actor(
                    &format!("{scope}/monitor"),
                    Timed::new(mon_actor, Layer::Device, &clock),
                );
                let patient_id = sim.add_actor(
                    &format!("{scope}/patient"),
                    Timed::new(
                        PatientActor::new(body.clone(), None, 0.0)
                            .with_step(config.monitor_patient_step),
                        Layer::Patient,
                        &clock,
                    ),
                );
                let sup_actor =
                    Supervisor::new(WardMonitorApp::new(), nc_id, sup, SimDuration::from_secs(5))
                        .with_step(config.monitor_sup_step);
                let sup_id = sim.add_actor(
                    &format!("{scope}/supervisor"),
                    Timed::new(sup_actor, Layer::Supervisor, &clock),
                );
                let ctl = nc(&mut sim, nc_id);
                ctl.bind(mon, mon_id);
                ctl.bind(sup, sup_id);
                for &(id, off) in &[(mon_id, 200u64), (patient_id, 0), (sup_id, 500)] {
                    sim.schedule(SimTime::from_millis(admit_ms + off), id, IceMsg::Tick);
                }
                bed_refs.push((sup_id, discharged));
            }
        }
    }

    let proc_sup = proc_eps.map(|(vent, xray, sup)| {
        let vent_actor = VentilatorActor::new(
            Ventilator::new(SimTime::ZERO, VentilatorConfig::default()),
            nc_id,
            vent,
        );
        let vent_id =
            sim.add_actor("proc/ventilator", Timed::new(vent_actor, Layer::Device, &clock));
        let xray_actor = XRayActor::new(XRayMachine::new(XRayConfig::default()), nc_id, xray);
        let xray_id = sim.add_actor("proc/xray", Timed::new(xray_actor, Layer::Device, &clock));
        let exposures = (config.duration.as_secs_f64() / 120.0).floor().max(1.0) as u32;
        let sup_actor = Supervisor::new(
            XRayCoordinatorApp::new(
                WorkflowStyle::Automated,
                exposures,
                SimDuration::from_secs(90),
                SimDuration::from_secs(15),
            ),
            nc_id,
            sup,
            SimDuration::from_secs(2),
        );
        let sup_id =
            sim.add_actor("proc/supervisor", Timed::new(sup_actor, Layer::Supervisor, &clock));
        let ctl = nc(&mut sim, nc_id);
        ctl.bind(vent, vent_id);
        ctl.bind(xray, xray_id);
        ctl.bind(sup, sup_id);
        sim.schedule(SimTime::from_millis(50), vent_id, IceMsg::Tick);
        sim.schedule(SimTime::from_millis(60), xray_id, IceMsg::Tick);
        sim.schedule(SimTime::from_millis(500), sup_id, IceMsg::Tick);
        sup_id
    });
    TracedWard { sim, clock, beds: bed_refs, proc_sup }
}

/// Summarizes a finished traced ward exactly as `run_campus_ward` does.
fn traced_outcome(ward: &TracedWard, plan: &WardPlan) -> WardOutcome {
    let sim = &ward.sim;
    let mut out = WardOutcome {
        ward: plan.ward,
        beds: plan.pca_beds + plan.monitor_beds,
        admitted: 0,
        associated_at_end: 0,
        discharged: 0,
        data_received: 0,
        data_ignored: 0,
        desat_alarms: 0,
        grants_issued: 0,
        xray_completed: 0,
        events: sim.events_processed(),
    };
    for &(sup_id, discharged) in &ward.beds {
        let sup = &sim.actor_as::<Timed<Supervisor>>(sup_id).expect("supervisor").inner;
        out.admitted += u32::from(sup.associated_at().is_some());
        out.associated_at_end += u32::from(sup.manager().fully_associated());
        out.discharged += u32::from(discharged);
        out.data_received += sup.data_received();
        out.data_ignored += sup.data_ignored();
        if let Some(app) = sup.app_as::<WardMonitorApp>() {
            out.desat_alarms += app.desat_alarms();
        }
        if let Some(app) = sup.app_as::<PcaSafetyApp>() {
            out.grants_issued += app.interlock().grants_issued();
        }
    }
    if let Some(sup_id) = ward.proc_sup {
        let sup = &sim.actor_as::<Timed<Supervisor>>(sup_id).expect("proc supervisor").inner;
        if let Some(app) = sup.app_as::<XRayCoordinatorApp>() {
            out.xray_completed = app.completed();
        }
    }
    out
}

/// One traced ward run (or a sum of them): layer self times, wall,
/// events, allocations.
#[derive(Debug, Default)]
struct TraceSample {
    build_s: f64,
    wall_s: f64,
    layer_ns: [u64; LAYERS],
    layer_msgs: [u64; LAYERS],
    events: u64,
    allocs: u64,
}

impl TraceSample {
    fn plus(self, s: &TraceSample) -> TraceSample {
        TraceSample {
            build_s: self.build_s + s.build_s,
            wall_s: self.wall_s + s.wall_s,
            layer_ns: std::array::from_fn(|i| self.layer_ns[i] + s.layer_ns[i]),
            layer_msgs: std::array::from_fn(|i| self.layer_msgs[i] + s.layer_msgs[i]),
            events: self.events + s.events,
            allocs: self.allocs + s.allocs,
        }
    }
}

/// Wards the traced run replicates: the first ICU ward and two general
/// wards.
fn traced_plans(cfg: &CampusConfig) -> Vec<WardPlan> {
    let plans = campus_ward_plans(cfg);
    [0usize, 10, 55].iter().filter_map(|&i| plans.get(i).cloned()).collect()
}

fn run_traced(cfg: &CampusConfig, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();

    // Shard dispatcher and kernel counts from one untraced campus pass.
    let (wards, stats) = run_campus(cfg, WORKERS);
    for w in &wards {
        out.check(ward_ok(w), || format!("campus ward {} violates admission: {w:?}", w.ward));
    }
    let events: u64 = wards.iter().map(|w| w.events).sum();
    out.set("shard.busy_s", stats.busy_secs());
    out.set("shard.balance", stats.balance());
    out.set("shard.count", stats.shard_secs.len() as f64);
    out.set("kernel.events", events as f64);

    let plans = traced_plans(cfg);
    let zero = CampusConfig { duration: SimDuration::ZERO, ..cfg.clone() };
    let mut builds = Vec::new();
    let mut traced: Vec<TraceSample> = Vec::new();
    let mut untraced_s = Vec::new();
    let reference: Vec<WardOutcome> = plans.iter().map(|p| run_campus_ward(cfg, p)).collect();
    let mut rep = 0usize;
    while rep < 2 || start.elapsed() < budget {
        for (plan, want) in plans.iter().zip(&reference) {
            let t0 = Instant::now();
            let _ = run_campus_ward(&zero, plan);
            builds.push(t0.elapsed().as_secs_f64());

            let t0 = Instant::now();
            let plain = run_campus_ward(cfg, plan);
            untraced_s.push(t0.elapsed().as_secs_f64());
            out.check(plain == *want, || format!("ward {} is not deterministic", plan.ward));

            let t0 = Instant::now();
            let mut ward = build_traced(cfg, plan);
            let build_s = t0.elapsed().as_secs_f64();
            let a0 = crate::alloc::count();
            let t0 = Instant::now();
            ward.sim.run_until(SimTime::ZERO + cfg.duration);
            let wall_s = t0.elapsed().as_secs_f64();
            let allocs = crate::alloc::count() - a0;
            let got = traced_outcome(&ward, plan);
            out.check(got == *want, || {
                format!("traced ward {} diverged: {got:?} vs {want:?}", plan.ward)
            });
            let layer_ns = std::array::from_fn(|i| ward.clock.ns[i].get());
            let layer_msgs = std::array::from_fn(|i| ward.clock.msgs[i].get());
            let attributed: u64 = layer_ns.iter().sum();
            out.check(attributed as f64 <= wall_s * 1e9, || {
                format!("ward {}: layer time {attributed} ns exceeds wall {wall_s} s", plan.ward)
            });
            traced.push(TraceSample {
                build_s,
                wall_s,
                layer_ns,
                layer_msgs,
                events: got.events,
                allocs,
            });
        }
        rep += 1;
    }

    // Sum each rep over its wards and report the rep with the median
    // wall, so the rows plus the remainder add up to one measured wall.
    let mut reps: Vec<TraceSample> = traced
        .chunks(plans.len())
        .map(|c| c.iter().fold(TraceSample::default(), |sum, s| sum.plus(s)))
        .collect();
    reps.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let mid = &reps[reps.len() / 2];
    let wall = mid.wall_s;
    let traced_total = mid.build_s + mid.wall_s;
    let events = mid.events as f64;
    let self_s: Vec<f64> = mid.layer_ns.iter().map(|&ns| ns as f64 * 1e-9).collect();
    let msgs: Vec<f64> = mid.layer_msgs.iter().map(|&m| m as f64).collect();
    let remainder = wall - self_s.iter().sum::<f64>();
    let untraced = median(
        &untraced_s.chunks(plans.len()).map(|c| c.iter().sum::<f64>()).collect::<Vec<f64>>(),
    );

    println!(
        "traced wards {:?}, {rep} reps; the median-wall rep (layer self time + remainder = wall):",
        plans.iter().map(|p| p.ward).collect::<Vec<_>>()
    );
    println!("  {:<38} {:>12} {:>8} {:>14}", "layer", "self ms", "share", "msgs/events");
    let names = [
        "mcps-net fabric (NetworkController)",
        "mcps-patient (PatientActor)",
        "mcps-device (monitor/pump/vent/xray)",
        "mcps-core supervisor (Supervisor)",
    ];
    for (i, name) in names.iter().enumerate() {
        println!(
            "  {name:<38} {:>12.3} {:>7.1}% {:>14.0}",
            self_s[i] * 1e3,
            100.0 * self_s[i] / wall,
            msgs[i]
        );
    }
    println!(
        "  {:<38} {:>12.3} {:>7.1}% {:>14.0}",
        "remainder (scheduler/executor)",
        remainder * 1e3,
        100.0 * remainder / wall,
        events
    );
    println!("  {:<38} {:>12.3} {:>7.1}%", "wall (traced)", wall * 1e3, 100.0);
    println!(
        "  build + run: traced {:.3} ms, untraced {:.3} ms",
        traced_total * 1e3,
        untraced * 1e3
    );

    out.set("kernel.self_ns_per_event", remainder * 1e9 / events);
    out.set("alloc.per_event", mid.allocs as f64 / events);
    out.set("fabric.calls", msgs[Layer::Fabric as usize]);
    out.set("fabric.self_s", self_s[Layer::Fabric as usize]);
    out.set(
        "fabric.ns_per_call",
        self_s[Layer::Fabric as usize] * 1e9 / msgs[Layer::Fabric as usize].max(1.0),
    );
    out.set("patient.calls", msgs[Layer::Patient as usize]);
    out.set("patient.self_s", self_s[Layer::Patient as usize]);
    out.set("device.calls", msgs[Layer::Device as usize]);
    out.set("device.self_s", self_s[Layer::Device as usize]);
    out.set("supervisor.calls", msgs[Layer::Supervisor as usize]);
    out.set("supervisor.self_s", self_s[Layer::Supervisor as usize]);
    out.set("ward.build_s", median(&builds));
    out.set("trace.overhead_pct", 100.0 * (traced_total - untraced) / untraced);
    out
}
