//! Crash/soak harness for serve mode (E14): prove the live supervisor
//! survives repeated `kill -9`, dirty links, and connection churn with
//! its safety invariants intact, and commit the evidence as
//! `BENCH_soak.json`.
//!
//! Two phases:
//!
//! 1. **Process soak** — a real `mcps-serve --tcp --journal` child is
//!    SIGKILL'd and restarted for N cycles while a live
//!    [`PcaBedClient`] (chaos-wrapped TCP transport, automatic
//!    reconnect) and a background vitals-noise connection keep firing.
//!    Per cycle the harness asserts the fault-campaign invariant
//!    classes:
//!    * the restarted supervisor resumes with a **strictly higher
//!      epoch** (journal fencing — the pump's `max_epoch_seen` must
//!      climb every cycle, and replayed stale commands cannot
//!      actuate);
//!    * **danger→stop ≤ 30 protocol-seconds** (the campaign's
//!      `DANGER_DEADLINE_SECS` backstop) measured from the restart
//!      instant (reconnect + re-associate + detect);
//!    * during outages longer than the 15 s supervision deadline the
//!      pump's **device-local watchdog latches basal-only**;
//!    * **zero double actuations** across every epoch of the run.
//! 2. **In-process soak** — the same crash/resume/reconnect cycle with
//!    in-memory transports, where host-side accounting is observable:
//!    zero critical ingress overflows, every undeliverable critical
//!    send accounted, journal append/sync counters reported.
//!
//! Usage: `bench_soak [--out PATH] [--cycles N] [--inproc-cycles N]
//!                    [--quick] [--max-ms MS]`
//!
//! Any violated invariant is listed in the report and fails the run
//! (non-zero exit) — ci wires `--quick --max-ms` in as a gate.

use mcps_bench::campaign::DANGER_DEADLINE_SECS;
use mcps_bench::Args;
use mcps_control::interlock::{DetectorKind, InterlockConfig, InterlockStrategy};
use mcps_core::msg::{NetOp, NetPayload};
use mcps_core::{PcaSafetyApp, SupervisorCore};
use mcps_net::fabric::EndpointId;
use mcps_patient::vitals::VitalKind;
use mcps_runtime::telemetry::percentile;
use mcps_runtime::time::SimDuration;
use mcps_serve::chaos::{ChaosConfig, ChaosStats, ChaosTransport};
use mcps_serve::client::{PcaBedClient, ReconnectPolicy, SUP_EP};
use mcps_serve::host::{ServeConfig, ServeHost};
use mcps_serve::journal::Journal;
use mcps_serve::transport::{ChannelTransport, FramedTransport, Transport};
use serde::Serialize;
use std::cell::RefCell;
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Protocol speed for the process phase: 1 wall-second = 30
/// protocol-seconds, so the 15 s watchdog window is half a wall-second
/// and a full kill/restart cycle fits in a few wall-seconds.
const PROC_SPEED: f64 = 30.0;
/// Speed for the deterministic in-process phase.
const INPROC_SPEED: f64 = 200.0;

#[derive(Serialize)]
struct Report {
    process: ProcessReport,
    inproc: InprocReport,
    violations: Vec<String>,
    elapsed_ms: f64,
    quick: bool,
}

#[derive(Serialize, Default)]
struct ProcessReport {
    /// Kill-9/restart cycles completed (0 = environment cannot spawn
    /// or bind; the phase is skipped, not failed).
    cycles: u64,
    skipped: bool,
    speed: f64,
    /// Wall time from SIGKILL to the post-restart stop landing,
    /// including the deliberate outage window.
    recovery_wall_p50_ms: f64,
    recovery_wall_p99_ms: f64,
    /// Worst danger→stop latency measured from the restart instant,
    /// on the protocol timeline.
    danger_stop_max_protocol_s: f64,
    /// Outages long enough that the device watchdog had to latch.
    long_outages: u64,
    watchdog_latches: u64,
    /// Highest epoch the pump accepted (must equal cycles + 1).
    final_epoch: u64,
    reconnects: u64,
    dial_failures: u64,
    frames_corrupted: u64,
    frames_resynced: u64,
    double_actuations: u64,
    noise_frames_sent: u64,
}

#[derive(Serialize, Default)]
struct InprocReport {
    cycles: u64,
    speed: f64,
    final_epoch: u64,
    critical_overflow: u64,
    critical_sends_dropped: u64,
    vitals_shed: u64,
    peers_dropped: u64,
    routes_relearned: u64,
    journal_records: u64,
    journal_syncs: u64,
    frames_corrupted: u64,
    frames_resynced: u64,
    reconnects: u64,
    double_actuations: u64,
}

fn command_core(resume_holdoff_secs: u64) -> SupervisorCore {
    let config = InterlockConfig {
        strategy: InterlockStrategy::Command,
        detector: DetectorKind::Threshold,
        resume_holdoff: SimDuration::from_secs(resume_holdoff_secs),
        ..InterlockConfig::default()
    };
    SupervisorCore::new(PcaSafetyApp::new(config), SUP_EP, SimDuration::from_secs(2))
}

// ---------------------------------------------------------------------------
// Phase 1: process soak (real SIGKILL over TCP)
// ---------------------------------------------------------------------------

type ProcTransport = ChaosTransport<FramedTransport<TcpStream>>;

/// Dials the server and wraps the socket in the chaos plan, sharing
/// one stats sink across every incarnation.
fn dial(addr: &str, stats: &Arc<ChaosStats>) -> Option<ProcTransport> {
    let stream = TcpStream::connect(addr).ok()?;
    let framed = FramedTransport::tcp(stream).ok()?;
    Some(ChaosTransport::with_stats(framed, ChaosConfig::storm(31), Arc::clone(stats)))
}

/// The `mcps-serve` child under test.
struct ServerProc {
    exe: PathBuf,
    addr: String,
    journal: PathBuf,
    child: Option<Child>,
}

impl ServerProc {
    fn spawn(&mut self) -> std::io::Result<()> {
        let child = Command::new(&self.exe)
            .args([
                "--tcp",
                &self.addr,
                "--journal",
                &self.journal.display().to_string(),
                "--speed",
                &format!("{PROC_SPEED}"),
                "--detector",
                "threshold",
                "--resume-holdoff-secs",
                "5",
                "--seed",
                "42",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        self.child = Some(child);
        Ok(())
    }

    /// SIGKILL — no shutdown handler runs; only fsynced journal state
    /// survives.
    fn kill9(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill9();
    }
}

/// A second connection streaming vitals noise from separate endpoints
/// — the "other beds" the supervisor must keep serving through every
/// crash. Reconnects lazily when the server dies.
struct NoisePeer {
    addr: String,
    t: Option<FramedTransport<TcpStream>>,
    sent: u64,
}

impl NoisePeer {
    fn pump_once(&mut self) {
        if self.t.is_none() {
            self.t = TcpStream::connect(&self.addr).ok().and_then(|s| FramedTransport::tcp(s).ok());
        }
        let Some(t) = self.t.as_mut() else { return };
        for i in 0..4u64 {
            let op = NetOp::Deliver {
                from: EndpointId::from_index(10 + i as u32),
                payload: NetPayload::Data {
                    kind: VitalKind::RespRate,
                    value: 13.0 + (self.sent % 3) as f64,
                    sampled_at: mcps_runtime::time::SimTime::from_millis(self.sent),
                },
            };
            if t.send(&op).is_err() {
                self.t = None;
                return;
            }
            self.sent += 1;
        }
        // Drain topic broadcasts addressed at everyone.
        loop {
            match t.try_recv() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => {
                    self.t = None;
                    break;
                }
            }
        }
    }
}

/// Client rounds until `done` or the wall budget runs out.
fn drive(
    client: &mut PcaBedClient<ProcTransport>,
    noise: &mut NoisePeer,
    vitals: (f64, f64),
    budget: Duration,
    mut done: impl FnMut(&PcaBedClient<ProcTransport>) -> bool,
) -> bool {
    let start = Instant::now();
    let mut round = 0u64;
    while start.elapsed() < budget {
        client.send_vital(VitalKind::Spo2, vitals.0);
        client.send_vital(VitalKind::RespRate, vitals.1);
        if round.is_multiple_of(40) {
            // A chaos link can eat any single announce; keep offering.
            client.announce_monitors();
        }
        round += 1;
        noise.pump_once();
        client.step();
        if done(client) {
            return true;
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    false
}

fn bench_process(cycles: u64, violations: &mut Vec<String>) -> ProcessReport {
    let mut report = ProcessReport { speed: PROC_SPEED, ..Default::default() };

    // The server binary sits next to this bench in the target dir.
    let exe = std::env::current_exe().ok().and_then(|p| {
        let sibling = p.parent()?.join("mcps-serve");
        sibling.exists().then_some(sibling)
    });
    let Some(exe) = exe else {
        eprintln!(
            "bench_soak: mcps-serve binary not found next to bench_soak — skipping process phase"
        );
        report.skipped = true;
        return report;
    };
    // Pick a free port, then release it for the child.
    let Ok(listener) = std::net::TcpListener::bind("127.0.0.1:0") else {
        eprintln!("bench_soak: cannot bind loopback — skipping process phase");
        report.skipped = true;
        return report;
    };
    let addr = listener.local_addr().expect("local addr").to_string();
    drop(listener);

    let dir = std::env::temp_dir().join(format!("mcps-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut server = ServerProc { exe, addr: addr.clone(), journal: dir.join("ckpt"), child: None };
    if let Err(e) = server.spawn() {
        eprintln!("bench_soak: cannot spawn mcps-serve ({e}) — skipping process phase");
        report.skipped = true;
        return report;
    }

    // Dial the fresh server (it may take a moment to bind).
    let chaos = Arc::new(ChaosStats::default());
    let first = {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(t) = dial(&addr, &chaos) {
                break Some(t);
            }
            if Instant::now() > deadline {
                break None;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    };
    let Some(first) = first else {
        eprintln!("bench_soak: server never accepted on {addr} — skipping process phase");
        report.skipped = true;
        return report;
    };
    let dial_addr = addr.clone();
    let dial_stats = Arc::clone(&chaos);
    let mut client = PcaBedClient::new(first, PROC_SPEED).with_reconnect(
        move || dial(&dial_addr, &dial_stats),
        ReconnectPolicy { base_ms: 10, max_ms: 100, jitter_seed: 13 },
    );
    let mut noise = NoisePeer { addr, t: None, sent: 0 };
    client.announce_monitors();

    let mut recovery_wall_ms: Vec<f64> = Vec::new();
    let mut worst_protocol_s = 0.0f64;
    for cycle in 0..cycles {
        // Steady state: permitted, and the pump follows this
        // generation's epoch (cycle 0 ⇒ epoch 1; each restart +1).
        let want_epoch = cycle + 1;
        if !drive(&mut client, &mut noise, (97.0, 14.0), Duration::from_secs(30), |c| {
            c.is_permitted() && c.pump().max_epoch_seen() >= want_epoch
        }) {
            violations.push(format!(
                "cycle {cycle}: never reached steady state at epoch {want_epoch} \
                 (epoch seen {}, reconnects {})",
                client.pump().max_epoch_seen(),
                client.reconnects(),
            ));
            break;
        }
        if client.pump().max_epoch_seen() > want_epoch {
            violations.push(format!(
                "cycle {cycle}: epoch overshoot — pump saw {} expected {want_epoch} \
                 (a resurrected stale supervisor?)",
                client.pump().max_epoch_seen(),
            ));
        }

        // Kill -9, hold the outage, restart. Odd cycles outlast the
        // 15 s (0.5 wall-s) supervision deadline so the device-local
        // watchdog must latch basal-only.
        let latches_before = client.pump().local_failsafe_entries();
        let long_outage = cycle % 2 == 1;
        server.kill9();
        let killed_at = Instant::now();
        let outage = if long_outage {
            report.long_outages += 1;
            Duration::from_millis(800)
        } else {
            Duration::from_millis(200)
        };
        drive(&mut client, &mut noise, (97.0, 14.0), outage, |_| false);
        if let Err(e) = server.spawn() {
            violations.push(format!("cycle {cycle}: restart failed: {e}"));
            break;
        }

        // Danger from the restart instant: reconnect, re-associate,
        // detect and stop — all within the danger backstop.
        let restart_sim = client.sim_now();
        let stopped = drive(&mut client, &mut noise, (85.0, 14.0), Duration::from_secs(30), |c| {
            c.first_stop_at_or_after(restart_sim).is_some()
        });
        if !stopped {
            violations.push(format!("cycle {cycle}: no stop landed after restart"));
            continue;
        }
        recovery_wall_ms.push(killed_at.elapsed().as_secs_f64() * 1e3);
        let stop_at = client.first_stop_at_or_after(restart_sim).expect("checked stop");
        let latency_s = stop_at.saturating_since(restart_sim).as_secs_f64();
        worst_protocol_s = worst_protocol_s.max(latency_s);
        if latency_s > DANGER_DEADLINE_SECS {
            violations.push(format!(
                "cycle {cycle}: danger→stop {latency_s:.1}s exceeds {DANGER_DEADLINE_SECS:.0}s \
                 across the restart"
            ));
        }
        if long_outage {
            let latched = client.pump().local_failsafe_entries() > latches_before;
            report.watchdog_latches += u64::from(latched);
            if !latched {
                violations.push(format!(
                    "cycle {cycle}: watchdog never latched during a {:.0}-protocol-second outage",
                    outage.as_secs_f64() * PROC_SPEED,
                ));
            }
        }
        report.cycles += 1;
    }
    server.kill9();

    report.final_epoch = client.pump().max_epoch_seen();
    report.reconnects = client.reconnects();
    report.dial_failures = client.dial_failures();
    report.frames_corrupted = chaos.corrupted();
    report.frames_resynced = chaos.resynced_total();
    report.double_actuations = client.pump().double_actuations();
    report.noise_frames_sent = noise.sent;
    report.recovery_wall_p50_ms = percentile(&recovery_wall_ms, 50.0);
    report.recovery_wall_p99_ms = percentile(&recovery_wall_ms, 99.0);
    report.danger_stop_max_protocol_s = worst_protocol_s;
    if report.double_actuations > 0 {
        violations.push(format!(
            "process phase: {} double actuations (epoch fence breached)",
            report.double_actuations
        ));
    }
    if report.cycles == cycles && report.frames_corrupted == 0 {
        violations.push("process phase: chaos plan never corrupted a frame".into());
    }
    let _ = std::fs::remove_dir_all(&dir);
    report
}

// ---------------------------------------------------------------------------
// Phase 2: in-process soak (host-side accounting observable)
// ---------------------------------------------------------------------------

fn bench_inproc(cycles: u64, violations: &mut Vec<String>) -> InprocReport {
    let mut report = InprocReport { speed: INPROC_SPEED, ..Default::default() };
    let dir = std::env::temp_dir().join(format!("mcps-soak-inproc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let base = dir.join("ckpt");

    // The dialer takes fresh pipes from a slot refilled per generation.
    let slot: Rc<RefCell<Option<ChannelTransport>>> = Rc::new(RefCell::new(None));
    let chaos = Arc::new(ChaosStats::default());
    let dial_slot = Rc::clone(&slot);
    let dial_stats = Arc::clone(&chaos);
    // Start on a dead pipe: the first push fails and the reconnect
    // machinery dials generation 0's slot.
    let (dead, _) = ChannelTransport::pair();
    let mut client = PcaBedClient::new(
        ChaosTransport::with_stats(dead, ChaosConfig::storm(41), Arc::clone(&chaos)),
        INPROC_SPEED,
    )
    .with_reconnect(
        move || {
            dial_slot.borrow_mut().take().map(|t| {
                ChaosTransport::with_stats(t, ChaosConfig::storm(42), Arc::clone(&dial_stats))
            })
        },
        ReconnectPolicy { base_ms: 2, max_ms: 20, jitter_seed: 17 },
    );

    for gen in 0..cycles {
        let (journal, recovery) = Journal::open(&base).expect("journal open");
        let core = match &recovery.state {
            Some(ckpt) => command_core(5).resume_from(ckpt),
            None => command_core(5),
        };
        let epoch = core.epoch();
        if epoch != gen + 1 {
            violations
                .push(format!("inproc gen {gen}: resumed at epoch {epoch}, expected {}", gen + 1));
        }
        let (server_t, client_t) = ChannelTransport::pair();
        let mut host: ServeHost<ChannelTransport> = ServeHost::new(
            core,
            server_t,
            ServeConfig {
                speed: INPROC_SPEED,
                ingress_capacity: 64,
                trace: false,
                seed: 100 + gen,
                ..Default::default()
            },
        );
        host.attach_journal(journal);
        *slot.borrow_mut() = Some(client_t);

        let start = Instant::now();
        let mut round = 0u64;
        let mut phase_danger = false;
        let mut danger_at = None;
        let mut ok = false;
        while start.elapsed() < Duration::from_secs(30) {
            let spo2 = if phase_danger { 85.0 } else { 97.0 };
            client.send_vital(VitalKind::Spo2, spo2);
            client.send_vital(VitalKind::RespRate, 14.0);
            if round.is_multiple_of(40) {
                client.announce_monitors();
            }
            round += 1;
            host.poll();
            client.step();
            if !phase_danger && client.is_permitted() && client.pump().max_epoch_seen() >= epoch {
                phase_danger = true;
                danger_at = Some(client.sim_now());
            }
            if let Some(at) = danger_at {
                if client.first_stop_at_or_after(at).is_some() {
                    ok = true;
                    break;
                }
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        if !ok {
            violations
                .push(format!("inproc gen {gen}: cycle never completed (danger={phase_danger})"));
            break;
        }
        let stats = host.stats();
        if stats.critical_overflow > 0 {
            violations.push(format!(
                "inproc gen {gen}: {} critical ingress overflows under load",
                stats.critical_overflow
            ));
        }
        report.critical_overflow += stats.critical_overflow;
        report.critical_sends_dropped += stats.critical_sends_dropped;
        report.vitals_shed += stats.vitals_shed;
        report.peers_dropped += stats.peers_dropped;
        report.routes_relearned += stats.routes_relearned;
        if let Some(j) = host.journal() {
            report.journal_records += j.appended();
            report.journal_syncs += j.syncs();
        }
        report.cycles += 1;
        // Generation ends here: dropping the host is the crash.
    }

    report.final_epoch = client.pump().max_epoch_seen();
    report.reconnects = client.reconnects();
    report.frames_corrupted = chaos.corrupted();
    report.frames_resynced = chaos.resynced_total();
    report.double_actuations = client.pump().double_actuations();
    if report.double_actuations > 0 {
        violations.push(format!(
            "inproc phase: {} double actuations (epoch fence breached)",
            report.double_actuations
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    report
}

fn main() {
    let args = Args::parse();
    let quick = args.has_flag("quick");
    let out_path = args.get_str("out", "BENCH_soak.json");
    let cycles = args.get_u64("cycles", if quick { 3 } else { 12 });
    let inproc_cycles = args.get_u64("inproc-cycles", if quick { 2 } else { 5 });
    let max_ms = args.get_f64("max-ms", f64::INFINITY);

    let start = Instant::now();
    let mut violations = Vec::new();
    let process = bench_process(cycles, &mut violations);
    let inproc = bench_inproc(inproc_cycles, &mut violations);
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;

    let failed = !violations.is_empty();
    for v in &violations {
        eprintln!("bench_soak: VIOLATION: {v}");
    }
    let report = Report { process, inproc, violations, elapsed_ms, quick };
    mcps_bench::write_report(&report, &out_path);
    if failed {
        eprintln!("bench_soak: {} invariant violation(s) — failing", report.violations.len());
        std::process::exit(1);
    }
    mcps_bench::smoke_budget("soak", elapsed_ms, max_ms);
}
