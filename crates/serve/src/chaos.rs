//! Deterministic network-fault injection for live transports.
//!
//! [`ChaosTransport`] wraps any inner [`Transport`] and subjects every
//! message — in both directions — to a seeded fault plan: drop, delay,
//! duplicate, reorder, truncate-mid-frame, and bit-flip. The byte-level
//! faults are not simulated abstractly: each message is re-encoded with
//! the real wire codec ([`crate::wire::encode_frame`]), corrupted at
//! the byte level, and pushed through a persistent
//! [`FrameDecoder`] — so a chaos run exercises the decoder's
//! self-resynchronization exactly as a dirty socket would, and the
//! decoder's reject counters become the "frames corrupted / resynced"
//! numbers the soak report commits.
//!
//! Faults are drawn from [`SimRng`] streams derived from a single seed
//! (one stream per direction), so a chaos campaign is replayable: same
//! seed, same inner traffic, same faults. Counters live behind an
//! `Arc` ([`ChaosStats`]) so a reconnecting client can thread one stats
//! sink through every transport incarnation it dials.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mcps_core::msg::NetOp;
use mcps_runtime::rng::{bernoulli, RngFactory, SimRng};
use rand::Rng;

use crate::transport::{Transport, TransportError};
use crate::wire::{encode_frame, FrameDecoder};

/// Per-direction fault probabilities (all per message, in `[0, 1]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Master seed for the fault plan.
    pub seed: u64,
    /// Message silently discarded.
    pub drop: f64,
    /// Message delivered twice.
    pub duplicate: f64,
    /// Message held back for [`ChaosConfig::delay_ops`] transport
    /// operations before delivery.
    pub delay: f64,
    /// Hold-back horizon for delayed messages, in transport ops.
    pub delay_ops: u64,
    /// Message held and swapped with the next one (pairwise reorder).
    pub reorder: f64,
    /// Frame truncated mid-payload (the tail never arrives); the
    /// decoder must resync past the partial frame.
    pub truncate: f64,
    /// One to three random bits flipped somewhere in the frame; the
    /// CRC must catch it.
    pub bit_flip: f64,
}

impl ChaosConfig {
    /// A quiet plan: nothing injected (useful as a baseline).
    pub fn calm(seed: u64) -> Self {
        ChaosConfig {
            seed,
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            delay_ops: 0,
            reorder: 0.0,
            truncate: 0.0,
            bit_flip: 0.0,
        }
    }

    /// The soak harness's standing weather: every fault class active,
    /// rates low enough that the protocol stays live but high enough
    /// that multi-minute runs see hundreds of each.
    pub fn storm(seed: u64) -> Self {
        ChaosConfig {
            seed,
            drop: 0.02,
            duplicate: 0.02,
            delay: 0.04,
            delay_ops: 7,
            reorder: 0.04,
            truncate: 0.01,
            bit_flip: 0.02,
        }
    }
}

/// Shared fault-injection counters (one sink can span many transport
/// incarnations across reconnects).
#[derive(Debug, Default)]
pub struct ChaosStats {
    /// Messages discarded by the drop fault.
    pub dropped: AtomicU64,
    /// Extra copies delivered by the duplicate fault.
    pub duplicated: AtomicU64,
    /// Messages held back by the delay fault.
    pub delayed: AtomicU64,
    /// Messages swapped by the reorder fault.
    pub reordered: AtomicU64,
    /// Frames cut short mid-payload.
    pub truncated: AtomicU64,
    /// Frames with bits flipped.
    pub bit_flipped: AtomicU64,
    /// Frames the decoder rejected (corruption caught + resynced).
    pub resynced: AtomicU64,
    /// Messages that made it through the fault plan intact.
    pub passed: AtomicU64,
}

impl ChaosStats {
    /// Frames deliberately corrupted at the byte level.
    pub fn corrupted(&self) -> u64 {
        self.truncated.load(Ordering::Relaxed) + self.bit_flipped.load(Ordering::Relaxed)
    }

    /// Corrupted-or-garbage frames the decoder caught and skipped.
    pub fn resynced_total(&self) -> u64 {
        self.resynced.load(Ordering::Relaxed)
    }
}

/// One direction's fault pipeline: fault plan → real frame bytes →
/// persistent [`FrameDecoder`] → decoded messages out.
#[derive(Debug)]
struct Lane {
    cfg: ChaosConfig,
    rng: SimRng,
    dec: FrameDecoder,
    ready: VecDeque<NetOp>,
    /// Delayed frames: `(release_at_op, frame_bytes)`.
    held: VecDeque<(u64, Vec<u8>)>,
    /// Reorder hold-back slot.
    swap: Option<Vec<u8>>,
    ops: u64,
    rejects_seen: u64,
    stats: Arc<ChaosStats>,
}

impl Lane {
    fn new(cfg: ChaosConfig, label: &str, stats: Arc<ChaosStats>) -> Self {
        Lane {
            cfg,
            rng: RngFactory::new(cfg.seed).stream(label),
            dec: FrameDecoder::new(),
            ready: VecDeque::new(),
            held: VecDeque::new(),
            swap: None,
            ops: 0,
            rejects_seen: 0,
            stats,
        }
    }

    /// Advances the op clock and releases delayed/stale-held frames
    /// that have come due.
    fn tick(&mut self) {
        self.ops += 1;
        while self.held.front().is_some_and(|(at, _)| *at <= self.ops) {
            let (_, bytes) = self.held.pop_front().expect("checked front");
            self.pipe(&bytes);
        }
        // A reorder hold-back with no successor traffic must not sit
        // forever: flush it once the lane has gone quiet for a while.
        if self.swap.is_some() && self.ops.is_multiple_of(64) {
            let bytes = self.swap.take().expect("checked some");
            self.pipe(&bytes);
        }
    }

    /// Runs one message through the fault plan.
    fn feed(&mut self, op: &NetOp) {
        if bernoulli(&mut self.rng, self.cfg.drop) {
            self.stats.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let copies = if bernoulli(&mut self.rng, self.cfg.duplicate) {
            self.stats.duplicated.fetch_add(1, Ordering::Relaxed);
            2
        } else {
            1
        };
        for _ in 0..copies {
            let mut bytes = encode_frame(op);
            let mut intact = true;
            if bernoulli(&mut self.rng, self.cfg.truncate) && bytes.len() > 2 {
                let keep = self.rng.gen_range(1..bytes.len());
                bytes.truncate(keep);
                self.stats.truncated.fetch_add(1, Ordering::Relaxed);
                intact = false;
            } else if bernoulli(&mut self.rng, self.cfg.bit_flip) {
                let flips = self.rng.gen_range(1..=3usize);
                for _ in 0..flips {
                    let byte = self.rng.gen_range(0..bytes.len());
                    let bit = self.rng.gen_range(0..8u32);
                    bytes[byte] ^= 1 << bit;
                }
                self.stats.bit_flipped.fetch_add(1, Ordering::Relaxed);
                intact = false;
            }
            if intact {
                self.stats.passed.fetch_add(1, Ordering::Relaxed);
            }
            if bernoulli(&mut self.rng, self.cfg.delay) {
                self.stats.delayed.fetch_add(1, Ordering::Relaxed);
                self.held.push_back((self.ops + self.cfg.delay_ops, bytes));
                continue;
            }
            if self.swap.is_none() && bernoulli(&mut self.rng, self.cfg.reorder) {
                // Hold this one back; it rides out after the next
                // immediate delivery, swapping the pair.
                self.stats.reordered.fetch_add(1, Ordering::Relaxed);
                self.swap = Some(bytes);
                continue;
            }
            self.pipe(&bytes);
            if let Some(earlier) = self.swap.take() {
                self.pipe(&earlier);
            }
        }
    }

    /// Pushes raw (possibly corrupted) frame bytes through the real
    /// decoder; whatever survives becomes deliverable.
    fn pipe(&mut self, bytes: &[u8]) {
        self.dec.push(bytes);
        while let Some(op) = self.dec.next_frame() {
            self.ready.push_back(op);
        }
        let rejects = self.dec.frames_rejected();
        if rejects > self.rejects_seen {
            self.stats.resynced.fetch_add(rejects - self.rejects_seen, Ordering::Relaxed);
            self.rejects_seen = rejects;
        }
    }

    fn pop(&mut self) -> Option<NetOp> {
        self.ready.pop_front()
    }
}

/// A [`Transport`] decorator injecting deterministic faults in both
/// directions. See the module docs.
#[derive(Debug)]
pub struct ChaosTransport<T: Transport> {
    inner: T,
    tx: Lane,
    rx: Lane,
}

impl<T: Transport> ChaosTransport<T> {
    /// Wraps `inner` with a fresh stats sink.
    pub fn new(inner: T, cfg: ChaosConfig) -> Self {
        Self::with_stats(inner, cfg, Arc::new(ChaosStats::default()))
    }

    /// Wraps `inner`, accumulating into an existing `stats` sink —
    /// the reconnect path uses this so counters survive re-dials.
    pub fn with_stats(inner: T, cfg: ChaosConfig, stats: Arc<ChaosStats>) -> Self {
        ChaosTransport {
            inner,
            tx: Lane::new(cfg, "chaos-tx", Arc::clone(&stats)),
            rx: Lane::new(cfg, "chaos-rx", stats),
        }
    }

    /// The shared fault counters.
    pub fn stats(&self) -> Arc<ChaosStats> {
        Arc::clone(&self.tx.stats)
    }

    /// Drains messages the outbound fault plan has released onto the
    /// inner transport.
    fn flush_tx(&mut self) -> Result<(), TransportError> {
        while let Some(op) = self.tx.pop() {
            self.inner.send(&op)?;
        }
        Ok(())
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn send(&mut self, op: &NetOp) -> Result<(), TransportError> {
        self.tx.tick();
        self.rx.tick();
        self.tx.feed(op);
        self.flush_tx()
    }

    fn try_recv(&mut self) -> Result<Option<NetOp>, TransportError> {
        self.tx.tick();
        self.rx.tick();
        self.flush_tx()?;
        loop {
            if let Some(op) = self.rx.pop() {
                return Ok(Some(op));
            }
            match self.inner.try_recv() {
                Ok(Some(op)) => self.rx.feed(&op),
                Ok(None) => return Ok(None),
                Err(e) => {
                    // Deliver what already cleared the fault plan
                    // before surfacing the failure.
                    return match self.rx.pop() {
                        Some(op) => Ok(Some(op)),
                        None => Err(e),
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChannelTransport;
    use mcps_core::msg::{NetAddress, NetPayload};
    use mcps_core::IceCommand;
    use mcps_net::fabric::EndpointId;

    fn cmd(id: u64) -> NetOp {
        NetOp::Send {
            from: EndpointId::from_index(3),
            to: NetAddress::Endpoint(EndpointId::from_index(2)),
            payload: NetPayload::Command { id, epoch: 1, command: IceCommand::StopPump },
        }
    }

    fn drain<T: Transport>(t: &mut T) -> Vec<NetOp> {
        let mut out = Vec::new();
        while let Ok(Some(op)) = t.try_recv() {
            out.push(op);
        }
        out
    }

    #[test]
    fn calm_chaos_is_transparent() {
        let (a, b) = ChannelTransport::pair();
        let mut a = ChaosTransport::new(a, ChaosConfig::calm(1));
        let mut b = ChaosTransport::new(b, ChaosConfig::calm(1));
        for i in 0..20 {
            a.send(&cmd(i)).unwrap();
        }
        let got = drain(&mut b);
        assert_eq!(got, (0..20).map(cmd).collect::<Vec<_>>());
        assert_eq!(a.stats().corrupted(), 0);
    }

    #[test]
    fn storm_is_deterministic_for_a_seed() {
        let run = |seed: u64| {
            let (a, b) = ChannelTransport::pair();
            let mut a = ChaosTransport::new(a, ChaosConfig::storm(seed));
            let mut b = b;
            let mut got = Vec::new();
            for i in 0..200 {
                a.send(&cmd(i)).unwrap();
                got.extend(drain(&mut b));
            }
            // Flush stragglers (delay/reorder holds) with idle ops.
            for _ in 0..300 {
                let _ = a.try_recv();
                got.extend(drain(&mut b));
            }
            (got, a.stats().corrupted(), a.stats().resynced_total())
        };
        let (got1, corr1, resync1) = run(77);
        let (got2, corr2, resync2) = run(77);
        assert_eq!(got1, got2);
        assert_eq!((corr1, resync1), (corr2, resync2));
        let (got3, ..) = run(78);
        assert_ne!(got1, got3, "different seeds should produce different fault plans");
    }

    #[test]
    fn corrupted_frames_are_caught_never_mutated() {
        // High corruption rates: every frame that survives decoding
        // must be byte-identical to something actually sent — a
        // bit-flip may kill a frame but can never alter its content.
        let (a, b) = ChannelTransport::pair();
        let mut cfg = ChaosConfig::calm(9);
        cfg.bit_flip = 0.5;
        cfg.truncate = 0.2;
        let mut a = ChaosTransport::new(a, cfg);
        let sent: Vec<NetOp> = (0..300).map(cmd).collect();
        for op in &sent {
            a.send(op).unwrap();
        }
        let (mut b, stats) = (b, a.stats());
        let got = drain(&mut b);
        assert!(stats.corrupted() > 50, "corruption plan did not fire");
        assert!(stats.resynced_total() > 0, "decoder never had to resync");
        assert!(got.len() < sent.len(), "corrupted frames should be lost");
        for op in &got {
            assert!(sent.contains(op), "received a message never sent: {op:?}");
        }
    }

    #[test]
    fn delayed_and_reordered_messages_all_arrive() {
        let (a, b) = ChannelTransport::pair();
        let mut cfg = ChaosConfig::calm(5);
        cfg.delay = 0.3;
        cfg.delay_ops = 5;
        cfg.reorder = 0.3;
        cfg.duplicate = 0.1;
        let mut a = ChaosTransport::new(a, cfg);
        for i in 0..100 {
            a.send(&cmd(i)).unwrap();
        }
        for _ in 0..200 {
            let _ = a.try_recv();
        }
        let mut b = b;
        let got = drain(&mut b);
        // No corruption faults: every message (plus duplicates) lands.
        let mut ids: Vec<u64> = got
            .iter()
            .map(|op| match op {
                NetOp::Send { payload: NetPayload::Command { id, .. }, .. } => *id,
                other => panic!("unexpected op {other:?}"),
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids, (0..100).collect::<Vec<u64>>());
        assert!(a.stats().delayed.load(Ordering::Relaxed) > 10);
        assert!(a.stats().reordered.load(Ordering::Relaxed) > 10);
    }
}
