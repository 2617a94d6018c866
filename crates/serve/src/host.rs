//! The live supervisor host: one sans-io core, many peers, one loop.
//!
//! [`ServeHost`] owns a [`SupervisorCore`] and drives it from two input
//! sources instead of a discrete-event scheduler:
//!
//! * **Timers** — a [`ServeClock`] maps wall time onto the core's
//!   simulation timeline; ticks fire at the exact multiples of the
//!   core's step, so the state machine sees the same cadence it sees
//!   under the simulator.
//! * **Ingress** — messages arriving on any peer [`Transport`] land in
//!   a bounded queue. When the queue is full, the *oldest vitals
//!   sample* is shed to make room: stale vitals are superseded by
//!   fresh ones, but commands, acks, announcements and checkpoints are
//!   load-bearing protocol steps and are never dropped (the queue may
//!   transiently exceed its bound to hold them).
//!
//! # Peers and fault scoping
//!
//! The host serves a *set* of peer connections, not a single pipe. The
//! first message from an endpoint teaches the host which peer that
//! endpoint lives behind; outbound endpoint-addressed messages follow
//! the learned route, topic-addressed ones go to every peer. A
//! transport error is **peer-scoped**: the failing peer is dropped
//! (its routes forgotten, the event counted) and the host keeps
//! serving everyone else — one broken pipe no longer kills the
//! service. A reconnecting bed re-announces, its endpoints re-route to
//! the new connection, and the session continues. With
//! [`ServeConfig::persistent`] set the host outlives even its *last*
//! peer (the TCP service mode); otherwise losing all peers ends the
//! session, which is what one-shot stdio serving and the load
//! harnesses expect.
//!
//! # Durability
//!
//! [`ServeHost::attach_journal`] connects a [`Journal`]; whenever the
//! core's fencing fingerprint (epoch, command high-water mark, safety
//! latches) changes, the new checkpoint is appended — so a `kill -9`'d
//! host restarted from the journal resumes with a strictly higher
//! epoch and its latches intact (see [`crate::journal`]).

use crate::clock::ServeClock;
use crate::journal::{Fingerprint, Journal};
use crate::transport::{Transport, TransportError};
use mcps_core::msg::{NetAddress, NetOp, NetPayload};
use mcps_core::{CoreInput, CoreOutputs, SupervisorCore};
use mcps_net::fabric::EndpointId;
use mcps_runtime::prelude::{RngFactory, SimRng, SimTime};
use std::collections::VecDeque;

/// Tunables for a [`ServeHost`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Sim-seconds per wall-second (`1.0` = real time).
    pub speed: f64,
    /// Ingress queue bound; beyond it, oldest vitals are shed.
    pub ingress_capacity: usize,
    /// Whether to build and print trace lines (stderr). Off keeps the
    /// hot path allocation-free.
    pub trace: bool,
    /// Master seed for the core's deterministic RNG stream.
    pub seed: u64,
    /// Keep serving after the last peer disconnects (TCP service
    /// mode). Off: losing all peers ends the session.
    pub persistent: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { speed: 1.0, ingress_capacity: 256, trace: false, seed: 42, persistent: false }
    }
}

/// Counters describing a serve session.
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
pub struct ServeStats {
    /// Messages received from the transport.
    pub frames_in: u64,
    /// Messages sent to the transport.
    pub frames_out: u64,
    /// Timer ticks delivered to the core.
    pub ticks_fired: u64,
    /// Ingress messages delivered to the core.
    pub deliveries: u64,
    /// Vitals samples shed by back-pressure (oldest-first).
    pub vitals_shed: u64,
    /// Critical messages enqueued past the nominal bound.
    pub critical_overflow: u64,
    /// Deepest ingress queue observed (queue-pressure high-water mark).
    pub ingress_peak: u64,
    /// Critical (non-vital) outbound messages that could not be
    /// delivered to any peer. Every one is accounted — the dispatch
    /// drain never silently discards the rest of the batch.
    pub critical_sends_dropped: u64,
    /// Peer connections accepted over the session.
    pub peers_connected: u64,
    /// Peers dropped on transport errors (peer-scoped, not fatal).
    pub peers_dropped: u64,
    /// Endpoint routes that moved to a different peer — a bed
    /// resuming its session over a new connection.
    pub routes_relearned: u64,
    /// Journal append failures (the host keeps serving; durability is
    /// degraded, safety is not).
    pub journal_errors: u64,
}

/// One peer connection.
struct Peer<T> {
    id: u64,
    transport: T,
}

/// Hosts a [`SupervisorCore`] live behind a set of peer [`Transport`]s.
pub struct ServeHost<T: Transport> {
    core: SupervisorCore,
    peers: Vec<Peer<T>>,
    next_peer_id: u64,
    /// Learned endpoint → peer routes (tiny; linear scan).
    routes: Vec<(EndpointId, u64)>,
    clock: ServeClock,
    out: CoreOutputs,
    rng: SimRng,
    ingress: VecDeque<(EndpointId, NetPayload)>,
    capacity: usize,
    trace: bool,
    persistent: bool,
    next_tick: SimTime,
    stats: ServeStats,
    journal: Option<Journal>,
    /// Fencing fingerprint of the last journaled checkpoint.
    journal_fp: Option<Fingerprint>,
    closed: bool,
}

impl<T: Transport> std::fmt::Debug for ServeHost<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeHost")
            .field("stats", &self.stats)
            .field("peers", &self.peers.len())
            .field("ingress_depth", &self.ingress.len())
            .field("closed", &self.closed)
            .finish()
    }
}

impl<T: Transport> ServeHost<T> {
    /// Wraps a core and one initial peer transport; the clock starts
    /// now and the first tick fires immediately.
    pub fn new(core: SupervisorCore, transport: T, config: ServeConfig) -> Self {
        let mut host = Self::headless(core, config);
        host.add_peer(transport);
        host
    }

    /// A host with no peers yet — the TCP service mode starts here and
    /// feeds accepted connections in via [`ServeHost::add_peer`]. A
    /// non-persistent headless host reports closed immediately.
    pub fn headless(core: SupervisorCore, config: ServeConfig) -> Self {
        let rng = RngFactory::new(config.seed).stream("serve-supervisor");
        ServeHost {
            core,
            peers: Vec::new(),
            next_peer_id: 0,
            routes: Vec::new(),
            clock: ServeClock::new(config.speed),
            out: CoreOutputs::new(),
            rng,
            ingress: VecDeque::with_capacity(config.ingress_capacity),
            capacity: config.ingress_capacity.max(1),
            trace: config.trace,
            persistent: config.persistent,
            next_tick: SimTime::ZERO,
            stats: ServeStats::default(),
            journal: None,
            journal_fp: None,
            closed: false,
        }
    }

    /// Adds a peer connection; returns its id.
    pub fn add_peer(&mut self, transport: T) -> u64 {
        let id = self.next_peer_id;
        self.next_peer_id += 1;
        self.peers.push(Peer { id, transport });
        self.stats.peers_connected += 1;
        id
    }

    /// Currently connected peers.
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// Connects a durability journal. The current checkpoint is
    /// appended on the next poll and on every fencing-fingerprint
    /// change after that.
    pub fn attach_journal(&mut self, journal: Journal) {
        self.journal = Some(journal);
        self.journal_fp = None;
    }

    /// The attached journal, if any (for its append/sync counters).
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// The hosted core (for assertions and telemetry export).
    pub fn core(&self) -> &SupervisorCore {
        &self.core
    }

    /// Session counters so far.
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// The core's output buffer (cumulative trace counters live here).
    pub fn outputs(&self) -> &CoreOutputs {
        &self.out
    }

    /// The host's clock.
    pub fn clock(&self) -> ServeClock {
        self.clock
    }

    /// Whether the session is over (all peers gone and the host is not
    /// persistent).
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// One scheduling round: drain every peer into the ingress queue,
    /// fire every due timer tick, deliver queued ingress, then journal
    /// if the fencing state moved. Returns `false` once the session is
    /// over (all peers gone, non-persistent) — pending work is still
    /// completed first.
    pub fn poll(&mut self) -> bool {
        self.drain_transports();
        let now = self.clock.sim_now();
        while self.next_tick <= now {
            let at = self.next_tick;
            self.dispatch(at, CoreInput::Tick);
            self.stats.ticks_fired += 1;
            self.next_tick = at.saturating_add(self.core.step());
        }
        while let Some((from, payload)) = self.ingress.pop_front() {
            self.dispatch(now, CoreInput::Deliver { from, payload });
            self.stats.deliveries += 1;
        }
        self.journal_tick();
        if self.peers.is_empty() && !self.persistent {
            self.closed = true;
        }
        !self.closed
    }

    /// Runs until the session ends, sleeping briefly when idle.
    pub fn run(&mut self) {
        while self.poll() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Drains every peer's transport. Errors are peer-scoped: the
    /// failing peer is dropped, the others keep serving.
    fn drain_transports(&mut self) {
        let mut dead: Vec<u64> = Vec::new();
        for i in 0..self.peers.len() {
            let pid = self.peers[i].id;
            loop {
                match self.peers[i].transport.try_recv() {
                    Ok(Some(op)) => {
                        self.stats.frames_in += 1;
                        // Accept either framing direction: clients
                        // address the host with `Deliver`; a raw
                        // `Send` is treated as addressed to us.
                        let (from, payload) = match op {
                            NetOp::Deliver { from, payload }
                            | NetOp::Send { from, payload, .. } => (from, payload),
                        };
                        self.learn_route(from, pid);
                        self.enqueue(from, payload);
                    }
                    Ok(None) => break,
                    Err(TransportError::Closed) | Err(TransportError::Io(_)) => {
                        dead.push(pid);
                        break;
                    }
                }
            }
        }
        for pid in dead {
            self.drop_peer(pid);
        }
    }

    /// Records that endpoint `from` is reachable via peer `pid`.
    fn learn_route(&mut self, from: EndpointId, pid: u64) {
        match self.routes.iter_mut().find(|(ep, _)| *ep == from) {
            Some((_, existing)) if *existing == pid => {}
            Some((_, existing)) => {
                // The endpoint moved to a new connection: a bed
                // resuming after a reconnect.
                *existing = pid;
                self.stats.routes_relearned += 1;
            }
            None => self.routes.push((from, pid)),
        }
    }

    /// Forgets a peer and every route through it.
    fn drop_peer(&mut self, pid: u64) {
        self.peers.retain(|p| p.id != pid);
        self.routes.retain(|(_, p)| *p != pid);
        self.stats.peers_dropped += 1;
    }

    /// Bounded enqueue with the shed policy from the module docs.
    fn enqueue(&mut self, from: EndpointId, payload: NetPayload) {
        if self.ingress.len() >= self.capacity {
            let incoming_is_vital = matches!(payload, NetPayload::Data { .. });
            let oldest_vital =
                self.ingress.iter().position(|(_, p)| matches!(p, NetPayload::Data { .. }));
            match (oldest_vital, incoming_is_vital) {
                (Some(idx), _) => {
                    // Make room by shedding the stalest vitals sample.
                    self.ingress.remove(idx);
                    self.stats.vitals_shed += 1;
                }
                (None, true) => {
                    // Queue is all-critical; the fresh sample loses.
                    self.stats.vitals_shed += 1;
                    return;
                }
                (None, false) => {
                    // Critical on critical: exceed the bound rather
                    // than drop a protocol step.
                    self.stats.critical_overflow += 1;
                }
            }
        }
        self.ingress.push_back((from, payload));
        self.stats.ingress_peak = self.stats.ingress_peak.max(self.ingress.len() as u64);
    }

    fn dispatch(&mut self, now: SimTime, input: CoreInput) {
        self.out.begin(self.trace);
        self.core.handle(now, input, &mut self.rng, &mut self.out);
        for (category, message) in self.out.traces.drain(..) {
            eprintln!("[{:>10.3}s] {category}: {message}", now.as_secs_f64());
        }
        let from = self.core.endpoint();
        // The whole batch is drained regardless of individual send
        // failures: a dead peer costs that peer (and an accounted
        // drop), never the remaining queued sends.
        let mut sends = std::mem::take(&mut self.out.sends);
        for (to, payload) in sends.drain(..) {
            self.send_routed(from, to, payload);
        }
        self.out.sends = sends;
    }

    /// Sends one outbound message to the peer(s) its address resolves
    /// to, dropping peers whose transports fail.
    fn send_routed(&mut self, from: EndpointId, to: NetAddress, payload: NetPayload) {
        let critical = !matches!(payload, NetPayload::Data { .. });
        let op = NetOp::Send { from, to: to.clone(), payload };
        let mut delivered = false;
        match to {
            // Endpoint-addressed (commands, heartbeats): strictly the
            // learned route. Falling back to a broadcast would steer
            // one bed's pump commands at every other bed's pump — the
            // exact cross-actuation the epoch fence exists to prevent.
            NetAddress::Endpoint(ep) => {
                // Routes are learned from the endpoint's own traffic
                // (a device announces before the core ever addresses
                // it), so a missing route means the device's peer is
                // gone — the send is counted as dropped, never guessed
                // at another peer.
                let route = self.routes.iter().find(|(e, _)| *e == ep).map(|(_, p)| *p);
                if let Some(pid) = route {
                    delivered = self.send_to_peer(pid, &op);
                }
            }
            // Topic-addressed (alarm fan-out, checkpoint replication):
            // every peer is a potential subscriber.
            NetAddress::Topic(_) => {
                let ids: Vec<u64> = self.peers.iter().map(|p| p.id).collect();
                for pid in ids {
                    delivered |= self.send_to_peer(pid, &op);
                }
            }
        }
        if delivered {
            self.stats.frames_out += 1;
        } else if critical {
            self.stats.critical_sends_dropped += 1;
        }
    }

    /// Sends to one peer; on transport failure the peer is dropped and
    /// `false` returned.
    fn send_to_peer(&mut self, pid: u64, op: &NetOp) -> bool {
        let Some(peer) = self.peers.iter_mut().find(|p| p.id == pid) else {
            return false;
        };
        match peer.transport.send(op) {
            Ok(()) => true,
            Err(_) => {
                self.drop_peer(pid);
                false
            }
        }
    }

    /// Appends a checkpoint to the journal when the fencing
    /// fingerprint — epoch, command high-water mark, safety latches —
    /// has changed. (Journal-internal policy decides which appends
    /// fsync; see [`crate::journal`].)
    fn journal_tick(&mut self) {
        let Some(journal) = self.journal.as_mut() else { return };
        let state = self.core.checkpoint_state();
        let fp = Fingerprint::of(&state);
        if self.journal_fp == Some(fp) {
            return;
        }
        if journal.append(&state).is_err() {
            // Durability degraded, safety not: the live interlock and
            // the device-local watchdog still hold. Keep serving.
            self.stats.journal_errors += 1;
        }
        self.journal_fp = Some(fp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChannelTransport;
    use mcps_runtime::time::SimTime;

    fn vital(i: u64) -> NetPayload {
        NetPayload::Data {
            kind: mcps_patient::vitals::VitalKind::Spo2,
            value: 97.0,
            sampled_at: SimTime::from_secs(i),
        }
    }

    fn ack(id: u64) -> NetPayload {
        NetPayload::Ack { id, command: mcps_core::IceCommand::StopPump, applied_at: SimTime::ZERO }
    }

    fn test_core() -> SupervisorCore {
        SupervisorCore::new(
            mcps_core::PcaSafetyApp::new(mcps_control::interlock::InterlockConfig::default()),
            EndpointId::from_index(3),
            mcps_runtime::time::SimDuration::from_secs(2),
        )
    }

    fn host_with_capacity(capacity: usize) -> ServeHost<ChannelTransport> {
        let (server, client) = ChannelTransport::pair();
        // The tests below exercise `enqueue` directly; the client half
        // is simply kept alive so the channel stays open.
        std::mem::forget(client);
        ServeHost::new(
            test_core(),
            server,
            ServeConfig { ingress_capacity: capacity, ..Default::default() },
        )
    }

    /// The journal policy: the first poll appends the checkpoint, and
    /// polls that leave the fencing fingerprint unchanged append
    /// nothing more.
    #[test]
    fn idle_polls_journal_the_checkpoint_once() {
        let dir = std::env::temp_dir().join(format!("mcps-host-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (journal, _) = Journal::open(&dir.join("ckpt")).unwrap();
        let mut host = host_with_capacity(8);
        host.attach_journal(journal);
        for _ in 0..5 {
            assert!(host.poll());
            assert_eq!(host.journal().unwrap().appended(), 1);
        }
        assert_eq!(host.stats().journal_errors, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backpressure_sheds_oldest_vital_first() {
        let mut host = host_with_capacity(2);
        let ep = EndpointId::from_index(0);
        host.enqueue(ep, vital(1));
        host.enqueue(ep, vital(2));
        host.enqueue(ep, vital(3));
        assert_eq!(host.stats.vitals_shed, 1);
        assert_eq!(host.ingress.len(), 2);
        // The stalest sample (1) is gone; 2 and 3 remain in order.
        let kept: Vec<u64> = host
            .ingress
            .iter()
            .map(|(_, p)| match p {
                NetPayload::Data { sampled_at, .. } => sampled_at.as_secs_f64() as u64,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![2, 3]);
    }

    /// Shed branch 1 of 2: with the queue entirely critical, an
    /// arriving vital has nothing to displace — the *fresh sample*
    /// loses, the queue stays at its bound, and nothing critical moves.
    #[test]
    fn all_critical_queue_drops_the_fresh_vital() {
        let mut host = host_with_capacity(2);
        let ep = EndpointId::from_index(2);
        host.enqueue(ep, ack(1));
        host.enqueue(ep, ack(2));
        host.enqueue(ep, vital(9));
        assert_eq!(host.ingress.len(), 2, "the vital must not displace a critical");
        assert_eq!(host.stats.vitals_shed, 1);
        assert_eq!(host.stats.critical_overflow, 0);
        let kept: Vec<u64> = host
            .ingress
            .iter()
            .map(|(_, p)| match p {
                NetPayload::Ack { id, .. } => *id,
                other => panic!("unexpected payload survived: {other:?}"),
            })
            .collect();
        assert_eq!(kept, vec![1, 2], "critical order must be preserved");
    }

    /// Shed branch 2 of 2: critical arriving on an all-critical full
    /// queue exceeds the bound rather than dropping a protocol step,
    /// and every exceedance is accounted in `critical_overflow`.
    #[test]
    fn critical_on_critical_exceeds_the_bound_with_accounting() {
        let mut host = host_with_capacity(2);
        let ep = EndpointId::from_index(2);
        host.enqueue(ep, ack(1));
        host.enqueue(ep, ack(2));
        for over in 1..=3u64 {
            host.enqueue(ep, ack(2 + over));
            assert_eq!(host.ingress.len(), 2 + over as usize, "bound must stretch, not drop");
            assert_eq!(host.stats.critical_overflow, over);
        }
        assert_eq!(host.stats.vitals_shed, 0);
        assert_eq!(host.stats.ingress_peak, 5);
    }

    #[test]
    fn full_queue_with_mixed_content_sheds_vital_for_critical() {
        let mut host = host_with_capacity(2);
        let ep = EndpointId::from_index(2);
        host.enqueue(ep, vital(1));
        host.enqueue(ep, ack(1));
        host.enqueue(ep, ack(2));
        assert_eq!(host.stats.vitals_shed, 1);
        assert_eq!(host.ingress.len(), 2);
        assert!(host.ingress.iter().all(|(_, p)| !matches!(p, NetPayload::Data { .. })));
    }

    /// The dispatch drain survives a dead peer: the batch keeps
    /// draining past the failure, the failure is accounted (not
    /// silently discarded), and the host stays open for other peers.
    #[test]
    fn dispatch_drains_past_a_dead_peer_and_accounts_drops() {
        let (a_host, a_client) = ChannelTransport::pair();
        let (b_host, b_client) = ChannelTransport::pair();
        let mut host = ServeHost::new(
            test_core(),
            a_host,
            ServeConfig { persistent: true, ..Default::default() },
        );
        host.add_peer(b_host);
        // Teach the host that the pump endpoint lives behind peer 0.
        let pump = EndpointId::from_index(2);
        host.learn_route(pump, 0);
        drop(a_client);
        // Queue several critical sends to the now-dead peer 0 plus one
        // topic send reaching the healthy peer 1.
        host.out.begin(false);
        for id in 0..3 {
            host.out.sends.push((NetAddress::Endpoint(pump), ack(id)));
        }
        let mut sends = std::mem::take(&mut host.out.sends);
        let from = host.core.endpoint();
        for (to, payload) in sends.drain(..) {
            host.send_routed(from, to, payload);
        }
        host.out.sends = sends;
        // First failed send dropped the peer; the remaining sends were
        // still drained and every undeliverable critical was counted.
        assert_eq!(host.stats.peers_dropped, 1);
        assert_eq!(host.stats.critical_sends_dropped, 3);
        assert_eq!(host.peer_count(), 1);
        assert!(!host.is_closed());
        drop(b_client);
    }

    /// Transport errors are peer-scoped: dropping one of two peers
    /// leaves the host serving, and a persistent host outlives even
    /// its last peer.
    #[test]
    fn peer_errors_do_not_kill_the_session() {
        let (a_host, a_client) = ChannelTransport::pair();
        let (b_host, b_client) = ChannelTransport::pair();
        let mut host = ServeHost::new(test_core(), a_host, ServeConfig::default());
        host.add_peer(b_host);
        drop(a_client);
        assert!(host.poll(), "losing one of two peers must not end the session");
        assert_eq!(host.stats().peers_dropped, 1);
        drop(b_client);
        // Non-persistent: losing the last peer ends the session.
        while host.poll() {}
        assert!(host.is_closed());
    }

    /// An endpoint re-announcing over a new connection moves its route
    /// (counted as a resume) so commands follow the bed, not the dead
    /// socket.
    #[test]
    fn reconnecting_endpoint_relearns_its_route() {
        let (a_host, a_client) = ChannelTransport::pair();
        let mut host = ServeHost::new(
            test_core(),
            a_host,
            ServeConfig { persistent: true, ..Default::default() },
        );
        let ep = EndpointId::from_index(2);
        host.learn_route(ep, 0);
        assert_eq!(host.stats().routes_relearned, 0);
        drop(a_client);
        host.poll();
        assert_eq!(host.stats().peers_dropped, 1);
        // The bed dials back in on a fresh connection.
        let (b_host, b_client) = ChannelTransport::pair();
        let pid = host.add_peer(b_host);
        host.learn_route(ep, pid);
        assert_eq!(host.stats().routes_relearned, 0, "route was forgotten with the dead peer");
        // And a *live* route moving between live peers counts.
        let (c_host, _c_client) = ChannelTransport::pair();
        let pid2 = host.add_peer(c_host);
        host.learn_route(ep, pid2);
        assert_eq!(host.stats().routes_relearned, 1);
        drop(b_client);
    }
}
