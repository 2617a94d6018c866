//! `serve_wire`: a live `ServeHost` fed by a real `PcaBedClient` over
//! MCP1 framing on loopback TCP.
//!
//! * Set-up: listener, connect, and full device association (pump,
//!   oximeter, capnograph) until the pump is permitted, for a ward of
//!   [`SETUP_BEDS`] beds. A group of [`SETUP_REPS`] set-ups runs before
//!   the measured phases, one between them and one after them, so the
//!   groups fall in different host regimes; `setup_s` is the fastest
//!   group's median.
//! * Saturating phase (closed loop, one client, a window of [`BURST`]
//!   frames): the client writes a burst of vitals, then the host polls
//!   until every frame the client sent has been delivered. A burst is
//!   the timed unit; bursts are grouped into [`WINDOW`]s and throughput
//!   is `BURST` over the fastest window's median burst time.
//! * Open-loop phase at [`OPEN_RATE`] vitals/s, with danger→stop cycles
//!   driven by the same client under that load. Each sample is timed
//!   from when it was due to the `ServeHost::poll` return that delivered
//!   it; the phase is cut into [`WINDOW`]s and the latency figures are
//!   the fastest window's p50 / p99. Latencies go into fixed-size
//!   histograms, so the benchmark's own buffers stay out of `peak_rss_mib`.
//!
//! The main thread runs the generator, the host loop and the client, so
//! the busy threads are the main thread and the host-side frame reader
//! (the client-side reader only sees the host's low-rate replies).
//!
//! Traced run: the same live session with `Transport::send` and
//! `ServeHost::poll` timed, then a replay of a seeded frame stream
//! through `encode_frame`, `crc32`, `FrameDecoder` and a bare
//! `SupervisorCore::handle`.

use crate::stats::{fastest, median, splitmix, Histogram};
use crate::Outcome;
use mcps_control::interlock::{DetectorKind, InterlockConfig, InterlockStrategy};
use mcps_core::msg::{NetOp, NetPayload};
use mcps_core::{CoreInput, CoreOutputs, PcaSafetyApp, SupervisorCore};
use mcps_device::pump::PcaPump;
use mcps_patient::vitals::VitalKind;
use mcps_runtime::rng::RngFactory;
use mcps_runtime::time::{SimDuration, SimTime};
use mcps_serve::client::{CAP_EP, OX_EP, PUMP_EP, SUP_EP};
use mcps_serve::wire::{crc32, HEADER_LEN};
use mcps_serve::{
    encode_frame, FrameDecoder, FramedTransport, PcaBedClient, ServeConfig, ServeHost, Transport,
    TransportError,
};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Protocol seconds per wall second.
const SPEED: f64 = 200.0;
/// Host ingress bound.
const CAPACITY: usize = 1024;
/// Frames per saturating-phase burst (below the ingress bound, so the
/// window back-pressures instead of shedding).
const BURST: usize = 256;
/// Offered rate of the open-loop phase, vitals per wall second.
const OPEN_RATE: f64 = 20_000.0;
/// Share of the run budget spent in the saturating phase.
const SATURATE_SHARE: f64 = 0.6;
/// Burst window of the saturating phase.
const BURST_WINDOW: Duration = Duration::from_millis(500);
/// Latency window of the open-loop phase.
const WINDOW: Duration = Duration::from_secs(1);
/// SpO₂ cadence of the danger-cycle driver (one protocol second).
const SPO2_EVERY: Duration = Duration::from_millis(5);
/// Set-up repetitions per group; each group reports its median.
const SETUP_REPS: usize = 7;
/// Beds one set-up brings up (listener, connection, association each);
/// the last bed of the first group carries the measured phases.
const SETUP_BEDS: usize = 32;
/// Longest a set-up or a danger phase may take before it counts as failed.
const STUCK: Duration = Duration::from_secs(10);
/// Latency windows with fewer samples have no p99 worth reporting (a
/// full window at [`OPEN_RATE`] holds about 20 000).
const MIN_WINDOW_SAMPLES: u64 = 10_000;
/// Burst windows with fewer bursts are skipped.
const MIN_WINDOW_BURSTS: usize = 20;

/// What the client's tap saw, shared with the driving loop.
#[derive(Debug, Default)]
struct TapLog {
    /// Due instant for the next frame sent (set by the generator).
    due: Cell<Option<Instant>>,
    /// Every frame the client sent and the host has not yet received,
    /// in order, with its due instant.
    sent: RefCell<VecDeque<Option<Instant>>>,
    /// Whether `send` is timed.
    timed: Cell<bool>,
    send_ns: Cell<u64>,
    sends: Cell<u64>,
}

/// The client's transport: a framed TCP stream plus a log of every
/// frame sent, so the host's in-order `frames_in` count identifies
/// which sample each poll delivered.
struct Tap {
    inner: FramedTransport<TcpStream>,
    log: Rc<TapLog>,
}

impl Transport for Tap {
    fn send(&mut self, op: &NetOp) -> Result<(), TransportError> {
        let due = self.log.due.take();
        let res = if self.log.timed.get() {
            let t0 = Instant::now();
            let res = self.inner.send(op);
            self.log.send_ns.set(self.log.send_ns.get() + t0.elapsed().as_nanos() as u64);
            self.log.sends.set(self.log.sends.get() + 1);
            res
        } else {
            self.inner.send(op)
        };
        if res.is_ok() {
            self.log.sent.borrow_mut().push_back(due);
        }
        res
    }

    fn try_recv(&mut self) -> Result<Option<NetOp>, TransportError> {
        self.inner.try_recv()
    }
}

/// The interlock configuration `bench_serve` measures danger→stop with.
fn command_core() -> SupervisorCore {
    let config = InterlockConfig {
        strategy: InterlockStrategy::Command,
        detector: DetectorKind::Threshold,
        resume_holdoff: SimDuration::from_secs(3),
        ..InterlockConfig::default()
    };
    SupervisorCore::new(PcaSafetyApp::new(config), SUP_EP, SimDuration::from_secs(2))
}

/// A connected, associated host/client pair.
struct Link {
    host: ServeHost<FramedTransport<TcpStream>>,
    client: PcaBedClient<Tap>,
    log: Rc<TapLog>,
    /// Socket handles kept to shut both ends down, which ends the two
    /// frame-reader threads.
    sockets: [TcpStream; 2],
    /// Frames the host has received so far, as last observed.
    seen: u64,
}

impl Drop for Link {
    /// Ends the connection without a FIN handshake: shutting the read
    /// side wakes both frame readers, and with a zero linger time the last
    /// close sends a reset. A FIN close would leave one TIME_WAIT socket
    /// per bed for a minute, and a few thousand of those slow `connect`
    /// down, so set-up time would depend on what ran before.
    fn drop(&mut self) {
        for s in &self.sockets {
            abortive_close(s);
            let _ = s.shutdown(Shutdown::Read);
        }
    }
}

/// Sets `SO_LINGER` to zero seconds on `socket` (stable `std` cannot).
fn abortive_close(socket: &TcpStream) {
    #[repr(C)]
    struct Linger {
        onoff: i32,
        secs: i32,
    }
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let linger = Linger { onoff: 1, secs: 0 };
    // SAFETY: the descriptor is open for as long as `socket` lives, and
    // `value`/`len` describe `linger`, which outlives the call.
    let rc = unsafe {
        setsockopt(
            socket.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &linger,
            std::mem::size_of::<Linger>() as u32,
        )
    };
    debug_assert_eq!(rc, 0, "setsockopt(SO_LINGER)");
}

impl Link {
    /// Polls the host once and matches newly received frames to the
    /// tap log, pushing the due instant of every timed sample among
    /// them; returns the poll-return instant.
    fn poll(&mut self, delivered: &mut Vec<Instant>) -> Instant {
        self.host.poll();
        let now = Instant::now();
        let frames_in = self.host.stats().frames_in;
        let mut sent = self.log.sent.borrow_mut();
        for _ in self.seen..frames_in {
            let entry = sent.pop_front().expect("host received a frame the client never sent");
            delivered.extend(entry);
        }
        self.seen = frames_in;
        now
    }

    /// Frames the client sent that the host has not received yet.
    fn in_flight(&self) -> usize {
        self.log.sent.borrow().len()
    }
}

/// Listener, connect, full association. `None` if association stalls.
fn connect(seed: u64) -> Option<Link> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("listener address");
    let client_stream = TcpStream::connect(addr).expect("connect loopback");
    let (server_stream, _) = listener.accept().expect("accept loopback");
    // Frames are written one `write_all` + `flush` each; with Nagle on,
    // every burst ends in a delayed-ACK stall and the figures measure a
    // kernel timer instead of the stack (NOTES.md, "Findings").
    for s in [&client_stream, &server_stream] {
        s.set_nodelay(true).expect("TCP_NODELAY");
    }
    let sockets = [
        server_stream.try_clone().expect("clone server socket"),
        client_stream.try_clone().expect("clone client socket"),
    ];
    let host = ServeHost::new(
        command_core(),
        FramedTransport::tcp(server_stream).expect("server transport"),
        ServeConfig {
            speed: SPEED,
            ingress_capacity: CAPACITY,
            trace: false,
            seed,
            persistent: false,
        },
    );
    let log = Rc::new(TapLog::default());
    let inner = FramedTransport::tcp(client_stream).expect("client transport");
    let client = PcaBedClient::new(Tap { inner, log: Rc::clone(&log) }, SPEED);
    let mut link = Link { host, client, log, sockets, seen: 0 };
    link.client.announce_monitors();
    let start = Instant::now();
    let mut scratch = Vec::new();
    let mut next_vitals = start;
    while start.elapsed() < STUCK {
        if Instant::now() >= next_vitals {
            link.client.send_vital(VitalKind::Spo2, 97.0);
            link.client.send_vital(VitalKind::RespRate, 14.0);
            next_vitals += SPO2_EVERY;
        }
        link.poll(&mut scratch);
        link.client.step();
        if link.client.is_permitted() && link.host.core().manager().fully_associated() {
            return Some(link);
        }
        std::thread::yield_now();
    }
    None
}

/// Healthy respiration values for the load: seeded, never near a
/// threshold.
struct Vitals(u64);

impl Vitals {
    fn next(&mut self) -> f64 {
        self.0 = splitmix(self.0);
        12.0 + (self.0 % 5) as f64
    }
}

/// Results of the saturating phase.
#[derive(Debug, Default)]
struct Saturation {
    bursts: u64,
    /// Median burst time of each full [`BURST_WINDOW`], in seconds.
    window_medians: Vec<f64>,
    samples: u64,
    wall_s: f64,
    /// Main-thread time in vitals sends, host polls and client steps
    /// (traced run only).
    send_ns: u64,
    poll_ns: u64,
    step_ns: u64,
}

fn saturate(link: &mut Link, vitals: &mut Vitals, budget: Duration, timed: bool) -> Saturation {
    let mut sat = Saturation::default();
    let mut scratch = Vec::new();
    let mut window = Vec::with_capacity(4096);
    let mut window_index = 0;
    let start = Instant::now();
    while sat.bursts < 8 || start.elapsed() < budget {
        let t = Instant::now();
        link.client.step();
        sat.step_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        link.poll(&mut scratch);
        sat.poll_ns += t.elapsed().as_nanos() as u64;
        let t0 = Instant::now();
        // Both monitors stream, so neither goes silent to the supervisor.
        for i in 0..BURST {
            if i % 2 == 0 {
                link.client.send_vital(VitalKind::Spo2, 95.0 + vitals.next() / 10.0);
            } else {
                link.client.send_vital(VitalKind::RespRate, vitals.next());
            }
        }
        if timed {
            sat.send_ns += t0.elapsed().as_nanos() as u64;
        }
        while link.in_flight() > 0 {
            if timed {
                let t = Instant::now();
                link.poll(&mut scratch);
                sat.poll_ns += t.elapsed().as_nanos() as u64;
            } else {
                link.poll(&mut scratch);
            }
            // Lets the host's frame reader run if it shares this CPU.
            std::thread::yield_now();
        }
        let burst_s = t0.elapsed().as_secs_f64();
        let index = (start.elapsed().as_secs_f64() / BURST_WINDOW.as_secs_f64()) as usize;
        if index != window_index {
            close_burst_window(&mut window, &mut sat.window_medians);
            window_index = index;
        }
        window.push(burst_s);
        sat.bursts += 1;
        sat.samples += BURST as u64;
    }
    close_burst_window(&mut window, &mut sat.window_medians);
    sat.wall_s = start.elapsed().as_secs_f64();
    sat
}

fn close_burst_window(window: &mut Vec<f64>, medians: &mut Vec<f64>) {
    if window.len() >= MIN_WINDOW_BURSTS {
        medians.push(median(window));
    }
    window.clear();
}

/// Results of the open-loop phase.
#[derive(Debug, Default)]
struct OpenLoop {
    /// Latencies (ns) of the samples delivered in the current window.
    window: Histogram,
    /// p50 and p99 (ms) of each window with enough samples.
    p50s: Vec<f64>,
    p99s: Vec<f64>,
    /// Samples timed, over every window.
    timed: u64,
    offered: u64,
    /// How late the generator sent each sample, ns.
    late: Histogram,
    danger_stop_s: Vec<f64>,
    stuck_cycles: u64,
}

impl OpenLoop {
    fn deliver(&mut self, returned: Instant, delivered: &mut Vec<Instant>) {
        for due in delivered.drain(..) {
            self.window.record((returned - due).as_nanos() as u64);
            self.timed += 1;
        }
    }

    fn close_window(&mut self) {
        if self.window.len() >= MIN_WINDOW_SAMPLES {
            self.p50s.push(self.window.quantile(0.5) * 1e-6);
            self.p99s.push(self.window.quantile(0.99) * 1e-6);
        }
        self.window.reset();
    }
}

/// Where the danger-cycle driver is.
#[derive(Debug, Clone, Copy)]
enum Cycle {
    /// Healthy SpO₂ until the pump is permitted again.
    Recover { since: Instant },
    /// Dangerous SpO₂ since `at` (protocol time) until a stop lands.
    Danger { at: SimTime, since: Instant },
}

impl Cycle {
    fn spo2(self) -> f64 {
        match self {
            Cycle::Recover { .. } => 97.0,
            Cycle::Danger { .. } => 85.0,
        }
    }

    /// Advances the cycle from what the bed's pump shows.
    fn advance<T: Transport>(self, client: &PcaBedClient<T>, ol: &mut OpenLoop) -> Cycle {
        match self {
            Cycle::Recover { .. } if client.is_permitted() => {
                Cycle::Danger { at: client.sim_now(), since: Instant::now() }
            }
            Cycle::Danger { at, since } => match client.first_stop_at_or_after(at) {
                Some(stop) => {
                    ol.danger_stop_s.push(stop.saturating_since(at).as_secs_f64());
                    Cycle::Recover { since: Instant::now() }
                }
                None if since.elapsed() > STUCK => {
                    ol.stuck_cycles += 1;
                    Cycle::Recover { since: Instant::now() }
                }
                None => self,
            },
            Cycle::Recover { since } if since.elapsed() > STUCK => {
                ol.stuck_cycles += 1;
                Cycle::Recover { since: Instant::now() }
            }
            Cycle::Recover { .. } => self,
        }
    }
}

fn open_loop(link: &mut Link, vitals: &mut Vitals, budget: Duration) -> OpenLoop {
    let mut ol = OpenLoop::default();
    let period = Duration::from_secs_f64(1.0 / OPEN_RATE);
    let start = Instant::now();
    let mut next_due = start;
    let mut next_spo2 = start;
    let mut window_end = start + WINDOW;
    let mut delivered = Vec::with_capacity(CAPACITY);
    let mut cycle = Cycle::Recover { since: start };
    loop {
        let now = Instant::now();
        if now >= start + budget {
            break;
        }
        while next_due <= now {
            link.log.due.set(Some(next_due));
            link.client.send_vital(VitalKind::RespRate, vitals.next());
            ol.late.record((Instant::now() - next_due).as_nanos() as u64);
            ol.offered += 1;
            next_due += period;
        }
        if now >= next_spo2 {
            link.client.send_vital(VitalKind::Spo2, cycle.spo2());
            next_spo2 += SPO2_EVERY;
        }
        let returned = link.poll(&mut delivered);
        let idle = delivered.is_empty();
        ol.deliver(returned, &mut delivered);
        if idle {
            std::thread::yield_now();
        }
        if returned >= window_end {
            ol.close_window();
            window_end += WINDOW;
        }
        link.client.step();
        cycle = cycle.advance(&link.client, &mut ol);
    }
    // Drain what is still in flight into the last window.
    let drain_start = Instant::now();
    while link.in_flight() > 0 && drain_start.elapsed() < STUCK {
        let returned = link.poll(&mut delivered);
        ol.deliver(returned, &mut delivered);
    }
    ol.close_window();
    ol
}

/// Brings up one group of [`SETUP_REPS`] wards, each of [`SETUP_BEDS`]
/// beds, and records each ward's wall time; returns the last bed.
fn setup_group(seed: u64, group: usize, setups: &mut Vec<f64>, out: &mut Outcome) -> Option<Link> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut link = None;
    for rep in 0..SETUP_REPS {
        // Dropping the previous ward first closes its sockets.
        drop(link.take());
        let t0 = Instant::now();
        let mut ward: Vec<Link> = Vec::with_capacity(SETUP_BEDS);
        for bed in 0..SETUP_BEDS {
            let made =
                connect(seed.wrapping_add(((group * SETUP_REPS + rep) * SETUP_BEDS + bed) as u64));
            out.check(made.is_some(), || "bed never associated over TCP".into());
            ward.extend(made);
        }
        times.push(t0.elapsed().as_secs_f64());
        link = ward.pop();
    }
    setups.push(median(&times));
    link
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut vitals = Vitals(splitmix(seed));
    // Group medians of the set-up time.
    let mut setups = Vec::new();
    let Some(mut link) = setup_group(seed, 0, &mut setups, &mut out) else { return out };

    link.log.timed.set(trace);
    let sat = saturate(&mut link, &mut vitals, budget.mul_f64(SATURATE_SHARE), trace);
    // The measured link idles meanwhile; the open loop's first danger
    // cycle waits until its pump is permitted again.
    drop(setup_group(seed, 1, &mut setups, &mut out));
    let ol = open_loop(&mut link, &mut vitals, budget.mul_f64(1.0 - SATURATE_SHARE));
    let stats = link.host.stats();
    let samples_offered = sat.samples + ol.offered;

    // Correctness: every sample delivered or accounted as shed, every
    // danger cycle stopped, no critical overflow, no trace built.
    out.attempted += samples_offered;
    out.failed += stats.vitals_shed;
    if stats.vitals_shed > 0 {
        eprintln!("FAILED: {} of {samples_offered} vitals shed", stats.vitals_shed);
    }
    for _ in 0..ol.stuck_cycles {
        out.check(false, || "danger cycle never stopped (or never resumed)".into());
    }
    for &s in &ol.danger_stop_s {
        out.check(s <= 30.0, || format!("danger→stop took {s} s (> 30 s backstop)"));
    }
    out.check(!ol.danger_stop_s.is_empty(), || "no danger cycle completed".into());
    out.check(stats.critical_overflow == 0, || {
        format!("{} critical messages overflowed", stats.critical_overflow)
    });

    let traces_built = link.host.outputs().traces_built();
    let in_flight = link.in_flight();
    let send_ns = link.log.send_ns.get() as f64 / link.log.sends.get().max(1) as f64;
    // The measured link is done with; the last group's wards run without it.
    drop(link);
    drop(setup_group(seed, 2, &mut setups, &mut out));
    out.check(in_flight == 0, || format!("{in_flight} frames never delivered"));
    out.check(traces_built == 0, || format!("{traces_built} trace strings built with tracing off"));

    let burst_windows = &sat.window_medians;
    let fast_burst = fastest(burst_windows);
    let (p50s, p99s) = (&ol.p50s, &ol.p99s);
    out.check(!p99s.is_empty(), || "no full latency window".into());
    out.check(!burst_windows.is_empty(), || "no full burst window".into());
    let timed = ol.timed;
    let late_p99 = ol.late.quantile(0.99) * 1e-6;
    let stop_max = ol.danger_stop_s.iter().copied().fold(0.0, f64::max);
    println!(
        "serve_wire: {} bursts of {BURST}, {} open-loop samples at {OPEN_RATE}/s in {} windows, {} danger cycles",
        sat.bursts,
        ol.offered,
        p99s.len(),
        ol.danger_stop_s.len()
    );
    println!(
        "  setup s per {SETUP_BEDS}-bed ward, group medians (before / between / after the phases): {}",
        setups.iter().map(|s| format!("{s:.5}")).collect::<Vec<_>>().join(" / ")
    );
    println!(
        "  vitals/s fast window {:.0} | median window {:.0} | whole phase {:.0}",
        BURST as f64 / fast_burst,
        BURST as f64 / median(burst_windows),
        sat.samples as f64 / sat.wall_s
    );
    println!(
        "  latency ms: window-p50 fast {:.4} median {:.4} | window-p99 fast {:.4} median {:.4} | {timed} samples, generator late p99 {late_p99:.4}",
        fastest(p50s),
        median(p50s),
        fastest(p99s),
        median(p99s),
    );
    println!(
        "  danger→stop protocol s: p50 {:.3} max {stop_max:.3} | frames in {} out {} | shed {} | ingress peak {}",
        median(&ol.danger_stop_s),
        stats.frames_in,
        stats.frames_out,
        stats.vitals_shed,
        stats.ingress_peak
    );

    if !trace {
        out.set("throughput", BURST as f64 / fast_burst);
        out.set("setup_s", fastest(&setups));
        return out;
    }

    out.set("safety.danger_stop_p50_s", median(&ol.danger_stop_s));
    out.set("safety.danger_stop_max_s", stop_max);
    out.set("safety.danger_cycles", ol.danger_stop_s.len() as f64);
    out.set("transport.frames_in", stats.frames_in as f64);
    out.set("transport.frames_out", stats.frames_out as f64);
    out.set("transport.send_ns", send_ns);
    out.set("host.poll_ns_per_sample", sat.poll_ns as f64 / sat.samples as f64);
    out.set("host.ingress_peak", stats.ingress_peak as f64);
    out.set("host.vitals_shed", stats.vitals_shed as f64);
    out.set("host.critical_overflow", stats.critical_overflow as f64);
    out.set("core.traces_built", traces_built as f64);
    out.set("serve.samples_timed", timed as f64);
    out.set("serve.latency_p50_ms", fastest(p50s));
    out.set("serve.latency_p99_ms", fastest(p99s));
    out.set("serve.generator_late_p99_ms", late_p99);

    println!("live saturating phase, main thread (rows + remainder = wall):");
    print_rows(
        &[
            ("mcps-serve transport (vitals sends)", sat.send_ns as f64 * 1e-9),
            ("mcps-serve host (poll: drain + core + reply)", sat.poll_ns as f64 * 1e-9),
            ("mcps-serve client (step: pump model)", sat.step_ns as f64 * 1e-9),
        ],
        sat.wall_s,
    );
    println!("  (frame decode runs on the host's reader thread, off this wall)");
    replay(seed, budget.mul_f64(0.1), &mut out);
    out
}

fn print_rows(rows: &[(&str, f64)], wall: f64) {
    let mut rest = wall;
    for (name, s) in rows {
        println!("  {name:<46} {:>10.3} ms {:>6.1}%", s * 1e3, 100.0 * s / wall);
        rest -= s;
    }
    println!("  {:<46} {:>10.3} ms {:>6.1}%", "remainder", rest * 1e3, 100.0 * rest / wall);
    println!("  {:<46} {:>10.3} ms", "wall", wall * 1e3);
}

/// The seeded frame stream the replay runs: the three device
/// announcements, then vitals alternating between the two monitors
/// every 50 ms of protocol time.
fn replay_stream(seed: u64, frames: usize) -> Vec<NetOp> {
    let mut ops = Vec::with_capacity(frames);
    let ox = mcps_device::monitor::pulse_oximeter("OX-1");
    let cap = mcps_device::monitor::capnograph("CAP-1");
    for (ep, profile) in [
        (OX_EP, ox.profile().clone()),
        (CAP_EP, cap.profile().clone()),
        (PUMP_EP, PcaPump::profile("PUMP-1", false)),
    ] {
        ops.push(NetOp::Deliver {
            from: ep,
            payload: NetPayload::Announce { profile, endpoint: ep },
        });
    }
    let mut vitals = Vitals(splitmix(seed ^ 0x5EED));
    let mut i = 0u64;
    while ops.len() < frames {
        let (from, kind, value) = if i.is_multiple_of(2) {
            (OX_EP, VitalKind::Spo2, 95.0 + vitals.next() / 10.0)
        } else {
            (CAP_EP, VitalKind::RespRate, vitals.next())
        };
        let sampled_at = SimTime::from_millis(50 * i);
        ops.push(NetOp::Deliver { from, payload: NetPayload::Data { kind, value, sampled_at } });
        i += 1;
    }
    ops
}

/// Replays the seeded stream through every wire stage and a bare core,
/// timing each stage per frame.
fn replay(seed: u64, budget: Duration, out: &mut Outcome) {
    const FRAMES: usize = 20_000;
    let ops = replay_stream(seed, FRAMES);
    let mut stage_ns = [0u64; 5];
    let mut bytes = 0u64;
    // Allocations in encode + decode, and in the core's handling.
    let mut wire_allocs = 0u64;
    let mut core_allocs = 0u64;
    let mut frames = 0u64;
    let mut wall = 0.0f64;
    let mut passes = 0;
    let start = Instant::now();
    while passes < 2 || start.elapsed() < budget {
        let mut dec = FrameDecoder::new();
        let mut core = command_core();
        let mut rng = RngFactory::new(seed).stream("serve-supervisor");
        let mut outputs = CoreOutputs::new();
        let mut next_tick = SimTime::ZERO;
        let mut clean = true;
        let w0 = Instant::now();
        for op in &ops {
            let a0 = crate::alloc::count();
            let t0 = Instant::now();
            let frame = encode_frame(op);
            let t1 = Instant::now();
            let h = crc32(&frame[..8]);
            let t2 = Instant::now();
            let p = crc32(&frame[HEADER_LEN..]);
            let t3 = Instant::now();
            dec.push(&frame);
            let decoded = dec.next_frame();
            let t4 = Instant::now();
            let a4 = crate::alloc::count();
            wire_allocs += a4 - a0;
            std::hint::black_box((h, p));
            bytes += frame.len() as u64;
            let Some(NetOp::Deliver { from, payload }) = decoded else {
                clean = false;
                continue;
            };
            let now = match &payload {
                NetPayload::Data { sampled_at, .. } => *sampled_at,
                _ => SimTime::ZERO,
            };
            while next_tick <= now {
                outputs.begin(false);
                core.handle(next_tick, CoreInput::Tick, &mut rng, &mut outputs);
                next_tick = next_tick.saturating_add(core.step());
            }
            outputs.begin(false);
            core.handle(now, CoreInput::Deliver { from, payload }, &mut rng, &mut outputs);
            let t5 = Instant::now();
            core_allocs += crate::alloc::count() - a4;
            for (i, (a, b)) in [(t0, t1), (t1, t2), (t2, t3), (t3, t4), (t4, t5)].iter().enumerate()
            {
                stage_ns[i] += (*b - *a).as_nanos() as u64;
            }
        }
        wall += w0.elapsed().as_secs_f64();
        frames += ops.len() as u64;
        clean &= core.manager().fully_associated() && outputs.traces_built() == 0;
        out.check(clean, || "replayed stream did not decode and associate cleanly".into());
        passes += 1;
    }
    let per = |ns: u64| ns as f64 / frames as f64;
    out.set("wire.encode_ns", per(stage_ns[0]));
    out.set("wire.header_crc_ns", per(stage_ns[1]));
    out.set("wire.payload_crc_ns", per(stage_ns[2]));
    out.set("wire.decode_ns", per(stage_ns[3]));
    out.set("core.handle_ns", per(stage_ns[4]));
    out.set("wire.bytes_per_frame", bytes as f64 / frames as f64);
    out.set("wire.allocs_per_frame", wire_allocs as f64 / frames as f64);
    out.set("core.allocs_per_frame", core_allocs as f64 / frames as f64);
    println!("replay of {FRAMES} seeded frames x {passes} (rows + remainder = wall):");
    let s = |ns: u64| ns as f64 * 1e-9;
    print_rows(
        &[
            ("wire encode_frame (crcs included)", s(stage_ns[0])),
            ("wire crc32 header probe", s(stage_ns[1])),
            ("wire crc32 payload probe", s(stage_ns[2])),
            ("wire FrameDecoder push + next_frame", s(stage_ns[3])),
            ("mcps-core SupervisorCore::handle", s(stage_ns[4])),
        ],
        wall,
    );
}
