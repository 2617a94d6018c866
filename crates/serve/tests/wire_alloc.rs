//! The hot wire path allocates nothing in steady state: encoding a
//! vitals, command or ack frame into a warm buffer, and decoding one
//! through a warm [`FrameDecoder`], make zero heap allocations. A
//! counting global allocator (per thread, so the harness's own threads
//! cannot disturb the count) measures it.

use mcps_core::msg::{NetAddress, NetOp, NetPayload};
use mcps_core::IceCommand;
use mcps_net::fabric::EndpointId;
use mcps_patient::vitals::VitalKind;
use mcps_runtime::time::{SimDuration, SimTime};
use mcps_serve::wire::{encode_frame, encode_frame_into, FrameDecoder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the counter may already be gone while a thread tears
    // down; those allocations are not under test.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Forwards to the system allocator and counts this thread's
/// allocations.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System`'s guarantees carry over; the counter
// is a const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr`/`layout` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const ROUNDS: u64 = 1_000;

/// The hot ops: vitals from a monitor, a heartbeat, a stop and a ticket
/// grant to the pump, and the pump's ack.
fn hot_ops() -> Vec<NetOp> {
    let sup = EndpointId::from_index(3);
    let pump = EndpointId::from_index(2);
    let to_pump = |id, command| NetOp::Send {
        from: sup,
        to: NetAddress::Endpoint(pump),
        payload: NetPayload::Command { id, epoch: 1, command },
    };
    vec![
        NetOp::Deliver {
            from: EndpointId::from_index(0),
            payload: NetPayload::Data {
                kind: VitalKind::Spo2,
                value: 97.5,
                sampled_at: SimTime::from_millis(50),
            },
        },
        to_pump(1, IceCommand::Heartbeat),
        to_pump(2, IceCommand::StopPump),
        to_pump(3, IceCommand::GrantTicket { validity: SimDuration::from_secs(15) }),
        NetOp::Deliver {
            from: pump,
            payload: NetPayload::Ack {
                id: 2,
                command: IceCommand::StopPump,
                applied_at: SimTime::from_millis(60),
            },
        },
    ]
}

#[test]
fn encode_frame_into_a_warm_buffer_does_not_allocate() {
    let ops = hot_ops();
    let mut buf = Vec::new();
    for op in &ops {
        encode_frame_into(op, &mut buf);
    }
    let n = allocs_in(|| {
        for _ in 0..ROUNDS {
            for op in &ops {
                encode_frame_into(op, &mut buf);
                std::hint::black_box(&buf);
            }
        }
    });
    assert_eq!(n, 0, "{n} allocations encoding {} frames", ROUNDS * ops.len() as u64);
}

#[test]
fn encode_frame_allocates_only_the_returned_frame() {
    for op in hot_ops() {
        let n = allocs_in(|| {
            std::hint::black_box(encode_frame(&op));
        });
        assert_eq!(n, 1, "{op:?}");
    }
}

#[test]
fn warm_decoder_does_not_allocate() {
    let ops = hot_ops();
    let frames: Vec<Vec<u8>> = ops.iter().map(encode_frame).collect();
    let mut dec = FrameDecoder::new();
    // One round of whole-frame pushes and one of split pushes size the
    // decoder's buffer for both read patterns.
    let round = |dec: &mut FrameDecoder| {
        for (frame, op) in frames.iter().zip(&ops) {
            dec.push(frame);
            assert_eq!(dec.next_frame().as_ref(), Some(op));
            let (head, tail) = frame.split_at(frame.len() / 2);
            dec.push(head);
            assert_eq!(dec.next_frame(), None);
            dec.push(tail);
            assert_eq!(dec.next_frame().as_ref(), Some(op));
        }
    };
    round(&mut dec);
    let n = allocs_in(|| {
        for _ in 0..ROUNDS {
            round(&mut dec);
        }
    });
    assert_eq!(n, 0, "{n} allocations decoding {} frames", 2 * ROUNDS * ops.len() as u64);
    assert_eq!(dec.frames_rejected(), 0);
}
