//! The cores keep only decision state: a day of closed-loop therapy
//! leaves their heap where the second hour left it.
//!
//! A command-strategy `SupervisorCore` hosting the PCA interlock and a
//! supervised `PumpCore` are driven against each other through
//! `handle`, with zero-latency routing, scripted monitor announces and
//! 1 Hz vitals, and tracing off — the shape of a served bed, which
//! keeps no history of its own. Every two hours the script injects
//! both recoverable faults a long-running bed sees:
//!
//! * a 60 s vitals silence — the supervisor vacates the oximeter and
//!   capnograph slots, goes degraded and stops the pump, then
//!   re-associates, exits hysteretically and resumes it;
//! * a 20 s drop of supervisor→pump traffic — the pump's fail-safe
//!   watchdog latches, and the supervisor releases it once heartbeat
//!   acks return.
//!
//! A per-thread counting allocator tracks live bytes (allocations minus
//! frees, a realloc counted as its size delta). Between hour 2 — every
//! sliding window warm — and hour 24, the live heap must not grow by
//! more than [`GROWTH_BUDGET`]. A core that logged a heartbeat round
//! trip per ack would add over 100 KiB in that span.

use mcps_control::interlock::{DetectorKind, InterlockConfig, InterlockStrategy};
use mcps_core::{
    CoreInput, CoreOutputs, NetAddress, NetPayload, PcaSafetyApp, PumpCore, PumpInput,
    SupervisorCore,
};
use mcps_device::monitor::{capnograph, pulse_oximeter};
use mcps_device::pump::{PcaPump, PcaPumpConfig};
use mcps_net::fabric::EndpointId;
use mcps_patient::vitals::VitalKind;
use mcps_runtime::rng::{RngFactory, SimRng};
use mcps_runtime::time::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn add(delta: i64) {
    // `try_with`: the counter may already be gone while a thread tears
    // down; those frees are not under test.
    let _ = LIVE.try_with(|c| c.set(c.get() + delta));
}

/// Forwards to the system allocator and tracks this thread's live
/// bytes.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System`'s guarantees carry over; the counter
// is a const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr`/`layout` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live-heap growth allowed between hour 2 and hour 24.
const GROWTH_BUDGET: i64 = 4 * 1024;

const OX: EndpointId = EndpointId::from_index(0);
const CAP: EndpointId = EndpointId::from_index(1);
const PUMP: EndpointId = EndpointId::from_index(2);
const SUP: EndpointId = EndpointId::from_index(3);

/// Fault cadence, and each fault's offset and length inside a period.
const PERIOD_SECS: u64 = 2 * 3600;
const SILENCE: (u64, u64) = (30 * 60, 60);
const DROP: (u64, u64) = (60 * 60, 20);

fn in_window(t: u64, (start, len): (u64, u64)) -> bool {
    (start..start + len).contains(&(t % PERIOD_SECS))
}

/// One message on its way, delivered at the current instant.
enum Msg {
    SupervisorTick,
    ToSupervisor(EndpointId, NetPayload),
    ToPump(PumpInput),
}

/// Both cores and the zero-latency wire between them.
struct Bed {
    sup: SupervisorCore,
    pump: PumpCore,
    rng: SimRng,
    sup_out: CoreOutputs,
    pump_out: CoreOutputs,
    queue: VecDeque<Msg>,
    /// Supervisor→pump traffic is lost while set.
    drop_to_pump: bool,
}

impl Bed {
    fn new() -> Self {
        let config = InterlockConfig {
            strategy: InterlockStrategy::Command,
            detector: DetectorKind::Threshold,
            resume_holdoff: SimDuration::from_secs(3),
            ..InterlockConfig::default()
        };
        let sup = SupervisorCore::new(PcaSafetyApp::new(config), SUP, SimDuration::from_secs(2));
        let pump = PumpCore::new(PcaPump::new(PcaPumpConfig::default()), PUMP).with_supervision();
        Bed {
            sup,
            pump,
            rng: RngFactory::new(7).stream("bounded-state"),
            sup_out: CoreOutputs::new(),
            pump_out: CoreOutputs::new(),
            queue: VecDeque::new(),
            drop_to_pump: false,
        }
    }

    /// Delivers everything queued at `now`, and everything it sends,
    /// until the wire is quiet.
    fn run(&mut self, now: SimTime) {
        while let Some(msg) = self.queue.pop_front() {
            match msg {
                Msg::ToPump(input) => {
                    self.pump_out.begin(false);
                    self.pump.handle(now, input, &mut self.pump_out);
                    // Announces and acks: all of it is the supervisor's.
                    for (_, payload) in self.pump_out.sends.drain(..) {
                        self.queue.push_back(Msg::ToSupervisor(PUMP, payload));
                    }
                }
                Msg::SupervisorTick | Msg::ToSupervisor(..) => {
                    let input = match msg {
                        Msg::ToSupervisor(from, payload) => CoreInput::Deliver { from, payload },
                        _ => CoreInput::Tick,
                    };
                    self.sup_out.begin(false);
                    self.sup.handle(now, input, &mut self.rng, &mut self.sup_out);
                    for (to, payload) in self.sup_out.sends.drain(..) {
                        if let (
                            NetAddress::Endpoint(PUMP),
                            NetPayload::Command { id, epoch, command },
                        ) = (to, payload)
                        {
                            if !self.drop_to_pump {
                                let input = PumpInput::Command { from: SUP, id, epoch, command };
                                self.queue.push_back(Msg::ToPump(input));
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Counts rising and falling edges of a polled flag.
#[derive(Default)]
struct Edges {
    last: bool,
    rises: u32,
    falls: u32,
}

impl Edges {
    fn poll(&mut self, now: bool) {
        match (self.last, now) {
            (false, true) => self.rises += 1,
            (true, false) => self.falls += 1,
            _ => {}
        }
        self.last = now;
    }
}

fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

#[test]
fn a_day_of_therapy_does_not_grow_the_cores() {
    let ox = pulse_oximeter("OX-1").profile().clone();
    let cap = capnograph("CAP-1").profile().clone();
    let mut bed = Bed::new();
    let (mut degraded, mut latched) = (Edges::default(), Edges::default());
    let mut at_hour_2 = None;
    for t in 0..24 * 3600u64 {
        let now = SimTime::from_secs(t);
        if t % 10 == 0 {
            for (ep, profile) in [(OX, &ox), (CAP, &cap)] {
                let announce = NetPayload::Announce { profile: profile.clone(), endpoint: ep };
                bed.queue.push_back(Msg::ToSupervisor(ep, announce));
            }
        }
        if !in_window(t, SILENCE) {
            for (ep, kind, value) in [(OX, VitalKind::Spo2, 97.0), (CAP, VitalKind::RespRate, 14.0)]
            {
                let data = NetPayload::Data { kind, value, sampled_at: now };
                bed.queue.push_back(Msg::ToSupervisor(ep, data));
            }
        }
        bed.drop_to_pump = in_window(t, DROP);
        bed.queue.push_back(Msg::ToPump(PumpInput::Tick));
        bed.queue.push_back(Msg::SupervisorTick);
        bed.run(now);
        degraded.poll(bed.sup.is_degraded());
        latched.poll(bed.pump.local_failsafe());
        if t + 1 == 2 * 3600 {
            at_hour_2 = Some(live_bytes());
        }
    }
    let growth = live_bytes() - at_hour_2.expect("hour 2 sampled");

    // The script did what it says: twelve silences, each degrading the
    // supervisor and recovering, and twelve drops, each latching the
    // pump's fail-safe and releasing it.
    assert_eq!((degraded.rises, degraded.falls), (12, 12), "degraded cycles");
    assert_eq!((latched.rises, latched.falls), (12, 12), "fail-safe cycles");
    assert_eq!(bed.pump.local_failsafe_entries(), 12);
    assert!(bed.sup.manager().fully_associated(), "the bed ends associated");
    assert!(bed.sup.associations_completed() > 12, "every silence re-associated");
    assert!(
        growth < GROWTH_BUDGET,
        "live heap grew {growth} bytes between hour 2 and hour 24 (budget {GROWTH_BUDGET})"
    );
}
