//! The pump core, driven directly and in lockstep with its sim adapter.
//!
//! `Bed` drives a bare `PumpCore` the way the live bed client does:
//! every tick due by `t` fires first, then the input at `t`. The first
//! tests use it to pin the pump's protocol behaviour — command
//! application and acks, bolus decisions, dedup, controller crash,
//! the fail-safe watchdog and the epoch fence.
//!
//! The lockstep test then runs the same core under both drivers. The
//! sim side hosts a `PumpActor` inside a `Simulation` — self-scheduled
//! ticks, kernel sends, the patient body infused. Fed the same seeded
//! program of commands and button presses, the two must agree on every
//! send (time, destination, payload), the permission and fail-safe
//! logs, the bolus decisions, the counters, the drug delivered and the
//! trace records.
//!
//! The programs come from two controller endpoints and mix what the
//! failover protocol throws at a pump: heartbeats, fresh commands,
//! retries inside and past the 64-entry dedup window, stale-epoch
//! commands from a deposed leader, same-epoch commands from a second
//! sender, failovers to a higher epoch, resumes after a fail-safe
//! latch, silences past the 15 s supervision deadline, same-instant
//! inputs and inputs on tick boundaries — in command and ticket mode,
//! supervised and not, with and without a controller crash window.

use mcps_core::actors::PumpActor;
use mcps_core::{
    CoreOutputs, IceCommand, IceMsg, NetAddress, NetOp, NetPayload, PatientBody, PumpCore,
    PumpInput,
};
use mcps_device::faults::{FaultKind, FaultPlan};
use mcps_device::pump::{PcaPump, PcaPumpConfig, PumpState, StopReason};
use mcps_net::fabric::EndpointId;
use mcps_patient::patient::{PatientParams, VirtualPatient};
use mcps_runtime::prelude::{Actor, Context, RngFactory, SimDuration, SimTime, Simulation};
use rand::Rng;
use std::collections::BTreeMap;

const PUMP: EndpointId = EndpointId::from_index(0);
const PRIMARY: EndpointId = EndpointId::from_index(1);
const STANDBY: EndpointId = EndpointId::from_index(2);

/// One seeded pump configuration and its timestamped inputs.
struct Program {
    ticket_mode: bool,
    supervised: bool,
    fault: FaultPlan,
    inputs: Vec<(SimTime, PumpInput)>,
    end: SimTime,
    /// Retries generated for ids already evicted from the dedup window.
    stale_retries: usize,
}

impl Program {
    fn pump(&self) -> PcaPump {
        PcaPump::new(PcaPumpConfig { ticket_mode: self.ticket_mode, ..Default::default() })
    }
}

fn program(seed: u64, ticket_mode: bool, supervised: bool) -> Program {
    let mut rng = RngFactory::new(seed).stream("pump-lockstep");
    let mut t = SimTime::ZERO;
    let (mut leader, mut deposed) = (PRIMARY, STANDBY);
    let mut epoch = 1u64;
    let mut next_id = 1u64;
    // Every (sender, epoch, id, command) first sent, oldest first.
    let mut sent: Vec<(EndpointId, u64, u64, IceCommand)> = Vec::new();
    let mut inputs = Vec::new();
    let mut stale_retries = 0;
    for _ in 0..400 {
        t = match rng.gen_range(0..20u32) {
            0 => t,                                                           // same instant
            1 => t + SimDuration::from_millis(rng.gen_range(16_000..30_000)), // silence
            2 => SimTime::from_secs(t.as_micros() / 1_000_000 + 1),           // on a tick
            _ => t + SimDuration::from_millis(rng.gen_range(1..3_000)),
        };
        let mut fresh = |from, epoch, command, sent: &mut Vec<_>| {
            let id = next_id;
            next_id += 1;
            sent.push((from, epoch, id, command));
            cmd(from, id, epoch, command)
        };
        let grant = IceCommand::GrantTicket {
            validity: SimDuration::from_millis(rng.gen_range(1_000..20_000)),
        };
        let input = match rng.gen_range(0..100u32) {
            0..=14 => PumpInput::PressButton,
            15..=34 => fresh(leader, epoch, IceCommand::Heartbeat, &mut sent),
            35..=39 => fresh(leader, epoch, IceCommand::StopPump, &mut sent),
            40..=49 => fresh(leader, epoch, IceCommand::ResumePump, &mut sent),
            50..=59 => fresh(leader, epoch, grant, &mut sent),
            60..=61 => fresh(leader, epoch, IceCommand::ArmExposure, &mut sent), // not a pump command
            62..=71 if !sent.is_empty() => {
                // A retry of a recent send, inside the window.
                let back = rng.gen_range(1..=sent.len().min(8));
                let (from, e, id, command) = sent[sent.len() - back];
                PumpInput::Command { from, id, epoch: e, command }
            }
            72..=75 if sent.len() > 80 => {
                // A retry of a send long evicted from the window.
                stale_retries += 1;
                let (from, e, id, command) = sent[rng.gen_range(0..sent.len() - 80)];
                PumpInput::Command { from, id, epoch: e, command }
            }
            76..=81 => fresh(deposed, epoch - 1, IceCommand::ResumePump, &mut sent), // stale epoch
            82..=85 => fresh(deposed, epoch, IceCommand::StopPump, &mut sent), // second sender
            86..=89 => {
                // Failover: the other endpoint promotes at a higher epoch.
                std::mem::swap(&mut leader, &mut deposed);
                epoch += 1;
                fresh(leader, epoch, IceCommand::Heartbeat, &mut sent)
            }
            _ => PumpInput::PressButton,
        };
        inputs.push((t, input));
    }
    let fault = if seed.is_multiple_of(3) {
        let from = SimTime::from_secs(rng.gen_range(100..400));
        FaultPlan::none().with_fault(
            FaultKind::Crash,
            from,
            Some(from + SimDuration::from_secs(rng.gen_range(5..60))),
        )
    } else {
        FaultPlan::none()
    };
    let end = t + SimDuration::from_secs(20);
    Program { ticket_mode, supervised, fault, inputs, end, stale_retries }
}

/// Everything observable about one run.
#[derive(Debug, PartialEq)]
struct Observed {
    sends: Vec<(SimTime, NetAddress, NetPayload)>,
    traces: Vec<(SimTime, String, String)>,
    permit_log: Vec<(SimTime, bool)>,
    failsafe_log: Vec<(SimTime, bool)>,
    decisions: BTreeMap<&'static str, u32>,
    /// duplicate, fenced, double actuations, max epoch, latch entries.
    counters: [u64; 5],
    local_failsafe: bool,
    pump_delivered_mg: f64,
    patient_received_mg: f64,
}

fn observe(
    core: &PumpCore,
    sends: Vec<(SimTime, NetAddress, NetPayload)>,
    traces: Vec<(SimTime, String, String)>,
    patient_received_mg: f64,
) -> Observed {
    Observed {
        sends,
        traces,
        permit_log: core.permit_log().to_vec(),
        failsafe_log: core.failsafe_log().to_vec(),
        decisions: core.decisions().clone(),
        counters: [
            core.duplicate_commands(),
            core.fenced_commands(),
            core.double_actuations(),
            core.max_epoch_seen(),
            core.local_failsafe_entries(),
        ],
        local_failsafe: core.local_failsafe(),
        pump_delivered_mg: core.pump().total_delivered_mg(),
        patient_received_mg,
    }
}

/// Stands in for the network controller: records every send.
#[derive(Debug, Default)]
struct Recorder {
    sends: Vec<(SimTime, NetAddress, NetPayload)>,
}

impl Actor<IceMsg> for Recorder {
    fn handle(&mut self, msg: IceMsg, ctx: &mut Context<'_, IceMsg>) {
        if let IceMsg::Net(NetOp::Send { from, to, payload }) = msg {
            assert_eq!(from, PUMP, "the adapter stamps the pump's endpoint");
            self.sends.push((ctx.now(), to, payload));
        }
    }
}

/// The sim side: a `PumpActor` in a `Simulation`, inputs scheduled at
/// their instants after the kernel has run the ticks due by then.
fn run_actor(p: &Program) -> Observed {
    let mut sim: Simulation<IceMsg> = Simulation::new(1);
    let recorder = sim.add_actor("netctl", Recorder::default());
    let body = PatientBody::new(VirtualPatient::new(PatientParams::default()));
    let mut core = PumpCore::new(p.pump(), PUMP).with_faults(p.fault.clone());
    if p.supervised {
        core = core.with_supervision();
    }
    let pump = sim.add_actor("pump", PumpActor::from_core(core, body.clone(), recorder));
    sim.schedule(SimTime::ZERO, pump, IceMsg::Tick);
    for &(t, input) in &p.inputs {
        sim.run_until(t);
        let msg = match input {
            PumpInput::Tick => unreachable!("programs hold no ticks"),
            PumpInput::PressButton => IceMsg::PressButton,
            PumpInput::Command { from, id, epoch, command } => IceMsg::Net(NetOp::Deliver {
                from,
                payload: NetPayload::Command { id, epoch, command },
            }),
        };
        sim.schedule(t, pump, msg);
    }
    sim.run_until(p.end);
    let traces = sim
        .trace()
        .records()
        .map(|r| {
            assert_eq!(r.actor, pump);
            (r.at, r.category.clone(), r.message.clone())
        })
        .collect();
    let sends = std::mem::take(&mut sim.actor_as_mut::<Recorder>(recorder).unwrap().sends);
    let core = sim.actor_as::<PumpActor>(pump).unwrap().core();
    observe(core, sends, traces, body.total_drug_mg())
}

/// A bare `PumpCore` driven as the live bed drives it. Keeps every
/// send, trace and milligram delivered.
struct Bed {
    core: PumpCore,
    out: CoreOutputs,
    next_tick: SimTime,
    sends: Vec<(SimTime, NetAddress, NetPayload)>,
    traces: Vec<(SimTime, String, String)>,
    delivered_mg: f64,
}

impl Bed {
    fn new(core: PumpCore) -> Self {
        Bed {
            core,
            out: CoreOutputs::new(),
            next_tick: SimTime::ZERO,
            sends: Vec::new(),
            traces: Vec::new(),
            delivered_mg: 0.0,
        }
    }

    fn dispatch(&mut self, at: SimTime, input: PumpInput) {
        self.out.begin(true);
        // The adapter infuses only positive amounts; adding zero is the
        // same sum.
        self.delivered_mg += self.core.handle(at, input, &mut self.out);
        self.sends.extend(self.out.sends.drain(..).map(|(to, payload)| (at, to, payload)));
        self.traces.extend(self.out.traces.drain(..).map(|(c, m)| (at, c.to_owned(), m)));
    }

    /// Fires every tick due by `t`.
    fn run_until(&mut self, t: SimTime) {
        while self.next_tick <= t {
            let at = self.next_tick;
            self.dispatch(at, PumpInput::Tick);
            self.next_tick = at + PumpCore::STEP;
        }
    }

    /// Handles `input` at `t`, after the ticks due by then.
    fn at(&mut self, t: SimTime, input: PumpInput) {
        self.run_until(t);
        self.dispatch(t, input);
    }

    /// The acks sent so far: `(destination, applied_at)`.
    fn acks(&self) -> Vec<(NetAddress, SimTime)> {
        let ack = |(_, to, p): &(SimTime, NetAddress, NetPayload)| match *p {
            NetPayload::Ack { applied_at, .. } => Some((to.clone(), applied_at)),
            _ => None,
        };
        self.sends.iter().filter_map(ack).collect()
    }
}

fn run_bed(p: &Program) -> Observed {
    let mut core = PumpCore::new(p.pump(), PUMP).with_faults(p.fault.clone());
    if p.supervised {
        core = core.with_supervision();
    }
    let mut bed = Bed::new(core);
    for &(t, input) in &p.inputs {
        bed.at(t, input);
    }
    bed.run_until(p.end);
    let Bed { core, sends, traces, delivered_mg, .. } = bed;
    observe(&core, sends, traces, delivered_mg)
}

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn cmd(from: EndpointId, id: u64, epoch: u64, command: IceCommand) -> PumpInput {
    PumpInput::Command { from, id, epoch, command }
}

fn default_pump() -> PcaPump {
    PcaPump::new(PcaPumpConfig::default())
}

#[test]
fn pump_applies_commands_and_acks() {
    let mut r = Bed::new(PumpCore::new(default_pump(), PUMP));
    r.at(secs(5), cmd(PRIMARY, 1, 1, IceCommand::StopPump));
    r.run_until(secs(10));
    assert_eq!(r.core.pump().state(), PumpState::Stopped(StopReason::Command));
    assert_eq!(r.acks(), [(NetAddress::Endpoint(PRIMARY), secs(5))], "stop must be acknowledged");
    // Permission transition was logged.
    assert!(r.core.first_stop_at_or_after(SimTime::ZERO).is_some());
}

#[test]
fn pump_counts_button_decisions_and_delivers_drug() {
    let mut r = Bed::new(PumpCore::new(default_pump(), PUMP));
    r.at(secs(2), PumpInput::PressButton);
    r.at(secs(3), PumpInput::PressButton); // inside lockout
    r.run_until(secs(120));
    assert_eq!(r.core.decisions().get("started"), Some(&1));
    assert_eq!(r.core.decisions().get("locked-out"), Some(&1));
    // The whole 1 mg bolus was handed to the driver for the patient.
    assert!((r.delivered_mg - 1.0).abs() < 1e-9, "{}", r.delivered_mg);
}

/// A retried GrantTicket (same command id) must be re-acked but not
/// re-applied: the ticket's expiry is set by the first application
/// and a duplicate must not extend the delivery window.
#[test]
fn pump_dedups_command_ids() {
    let pump = PcaPump::new(PcaPumpConfig { ticket_mode: true, ..Default::default() });
    let mut r = Bed::new(PumpCore::new(pump, PUMP));
    let grant = IceCommand::GrantTicket { validity: SimDuration::from_secs(15) };
    r.at(secs(1), cmd(PRIMARY, 7, 1, grant));
    r.at(secs(10), cmd(PRIMARY, 7, 1, grant)); // retry of the same send
    r.run_until(secs(12));
    assert_eq!(r.core.duplicate_commands(), 1);
    // Ticket still expires 15 s after the *first* application.
    assert!(r.core.pump().is_permitted(secs(15)));
    assert!(!r.core.pump().is_permitted(secs(17)), "retry must not extend ticket");
    // But the retry is re-acked so the supervisor's watchdog settles,
    // with the original application instant.
    let first = (NetAddress::Endpoint(PRIMARY), secs(1));
    assert_eq!(r.acks(), [first.clone(), first]);
}

#[test]
fn crashed_pump_controller_ignores_commands() {
    let fault = FaultPlan::none().with_fault(FaultKind::Crash, secs(3), None);
    let mut r = Bed::new(PumpCore::new(default_pump(), PUMP).with_faults(fault));
    r.at(secs(5), cmd(PRIMARY, 1, 1, IceCommand::StopPump));
    r.run_until(secs(15));
    assert_eq!(r.core.pump().state(), PumpState::Running, "crashed controller applies nothing");
    assert!(r.acks().is_empty(), "no acks from a crashed controller");
    // Only the pre-crash announce window (t=0) made it out.
    let announces = r.sends.iter().filter(|s| matches!(s.2, NetPayload::Announce { .. }));
    assert_eq!(announces.count(), 1);
}

/// Silence past the supervision deadline latches the fail-safe:
/// boluses are suspended until an explicit `ResumePump`, which both
/// releases the latch and refreshes the watchdog.
#[test]
fn pump_watchdog_latches_on_silence_and_resume_releases() {
    let mut r = Bed::new(PumpCore::new(default_pump(), PUMP).with_supervision());
    // A heartbeat at t=10 defers the latch to ~t=25.
    r.at(secs(10), cmd(PRIMARY, 1, 1, IceCommand::Heartbeat));
    r.at(secs(20), PumpInput::PressButton);
    r.at(secs(40), PumpInput::PressButton);
    r.at(secs(50), cmd(PRIMARY, 2, 1, IceCommand::ResumePump));
    r.at(secs(55), PumpInput::PressButton);
    r.run_until(secs(60));
    let core = &r.core;
    assert_eq!(core.local_failsafe_entries(), 1);
    assert!(!core.local_failsafe(), "resume released the latch");
    assert_eq!(core.decisions().get("started"), Some(&1), "t=20 bolus pre-dates the latch");
    assert_eq!(core.decisions().get("suspended"), Some(&1), "t=40 bolus denied by fail-safe");
    // The t=55 press is denied by the ordinary lockout interval, not
    // the fail-safe — proof the resume released the latch (suspension
    // outranks lockout, so a held latch would say "suspended" here).
    assert_eq!(core.decisions().get("locked-out"), Some(&1), "t=55 denial is lockout");
    let latch = core.failsafe_log().first().expect("latch transition logged");
    assert!(latch.0 >= secs(25) && latch.0 <= secs(27), "{latch:?}");
    assert_eq!(core.failsafe_log().last(), Some(&(secs(50), false)));
    // The heartbeat was acked (plus the resume's ack).
    assert_eq!(r.acks().len(), 2);
}

/// Stale-epoch commands are dropped without application or ack, and
/// two distinct controllers in one epoch register a double actuation.
#[test]
fn pump_epoch_fence_rejects_stale_and_flags_double_actuation() {
    let mut r = Bed::new(PumpCore::new(default_pump(), PUMP));
    // Promoted standby stops the pump in epoch 2 …
    r.at(secs(5), cmd(STANDBY, 1, 2, IceCommand::StopPump));
    // … then the partitioned ex-primary's stale resume (epoch 1) must
    // be fenced, not applied.
    r.at(secs(6), cmd(PRIMARY, 9, 1, IceCommand::ResumePump));
    // A same-epoch command from a second controller is a double
    // actuation (applied — the fence can't tell which is right — but
    // audited).
    r.at(secs(7), cmd(PRIMARY, 10, 2, IceCommand::Heartbeat));
    r.run_until(secs(10));
    assert_eq!(
        r.core.pump().state(),
        PumpState::Stopped(StopReason::Command),
        "stale resume must not restart the pump"
    );
    assert_eq!(r.core.fenced_commands(), 1);
    assert_eq!(r.core.max_epoch_seen(), 2);
    assert_eq!(r.core.double_actuations(), 1);
    // Acks: stop + heartbeat, each back to its own sender; the fenced
    // command got none.
    let acked: Vec<NetAddress> = r.acks().into_iter().map(|(to, _)| to).collect();
    assert_eq!(acked, [NetAddress::Endpoint(STANDBY), NetAddress::Endpoint(PRIMARY)]);
}

/// Fails at the first entry where the two drivers diverge, rather than
/// dumping both whole runs.
fn assert_same<T: PartialEq + std::fmt::Debug>(sim: &[T], bed: &[T], run: &str) {
    if let Some(i) = (0..sim.len().min(bed.len())).find(|&i| sim[i] != bed[i]) {
        panic!("{run}: entry {i} diverges:\n  sim {:?}\n  bed {:?}", sim[i], bed[i]);
    }
    assert_eq!(sim.len(), bed.len(), "{run}: one driver produced more entries");
}

#[test]
fn lockstep_actor_adapter_and_bed_driver_agree() {
    // Coverage tallies over every run: each protocol path must have
    // been taken somewhere, or the lockstep proves little.
    let mut totals = [0u64; 5];
    let (mut acks, mut announces, mut started, mut stale_retries) = (0, 0, 0, 0);
    let mut runs = 0;
    for seed in 0..12 {
        for ticket_mode in [false, true] {
            for supervised in [true, false] {
                let p = program(seed, ticket_mode, supervised);
                let (mut sim, mut bed) = (run_actor(&p), run_bed(&p));
                let run =
                    format!("seed {seed}, ticket_mode {ticket_mode}, supervised {supervised}");
                let sends = std::mem::take(&mut sim.sends);
                assert_same(&sends, &std::mem::take(&mut bed.sends), &run);
                assert_same(&sim.traces, &std::mem::take(&mut bed.traces), &run);
                sim.traces.clear();
                assert_eq!(sim, bed, "{run}");
                for (total, n) in totals.iter_mut().zip(sim.counters) {
                    *total += n;
                }
                acks += sends.iter().filter(|s| matches!(s.2, NetPayload::Ack { .. })).count();
                announces +=
                    sends.iter().filter(|s| matches!(s.2, NetPayload::Announce { .. })).count();
                started += sim.decisions.get("started").copied().unwrap_or(0);
                stale_retries += p.stale_retries;
                runs += 1;
            }
        }
    }
    assert_eq!(runs, 48);
    let [duplicates, fenced, doubles, _, latches] = totals;
    assert!(duplicates > 0, "no retry was absorbed by the dedup window");
    assert!(fenced > 0, "no stale-epoch command was fenced");
    assert!(doubles > 0, "no same-epoch second sender was audited");
    assert!(latches > 0, "the fail-safe watchdog never latched");
    assert!(stale_retries > 0, "no retry reached past the dedup window");
    assert!(acks > 0 && announces > 0 && started > 0, "{acks} acks, {announces} announces");
}
