//! Property tests holding the dense-routed [`Fabric`] to behavioural
//! equivalence with the tree-routed [`ReferenceFabric`].
//!
//! Both engines are driven with identical operation sequences —
//! subscribe/unsubscribe, link QoS overrides, outage plans, default-QoS
//! changes, publishes and unicasts at random instants — each with its
//! own RNG started from the same seed. Equivalence means:
//!
//! 1. identical planned deliveries for every publish and unicast,
//! 2. identical RNG consumption (the two streams are still in lockstep
//!    at the end of the sequence),
//! 3. identical per-link and aggregate [`LinkStats`], including the
//!    bit-exact floating-point latency accumulators,
//! 4. identical subscriber sets in identical order.
//!
//! This is what licenses every scenario to run on the dense engine:
//! the optimisation is proven invisible, not assumed to be.

use mcps_net::fabric::{EndpointId, Fabric, PlannedDelivery, Topic};
use mcps_net::qos::{LinkQos, OutagePlan};
use mcps_net::reference::ReferenceFabric;
use mcps_runtime::rng::RngFactory;
use mcps_runtime::time::{SimDuration, SimTime};
use proptest::prelude::*;
use rand::RngCore;

/// One encoded operation: `(opcode, a, b, topic, millis)`.
type Op = (u8, u32, u32, u32, u64);

const TOPICS: [&str; 4] = ["vitals/spo2", "vitals/etco2", "bed1/ice/announce", "pump/status"];

fn qos_variant(sel: u64) -> LinkQos {
    match sel % 4 {
        0 => LinkQos::ideal(),
        1 => LinkQos::ideal()
            .with_latency(SimDuration::from_millis(5))
            .with_jitter(SimDuration::from_millis(2)),
        2 => LinkQos::wifi(),
        _ => LinkQos::ideal().with_loss(0.5),
    }
}

/// Applies `ops` to both engines in lockstep, asserting equivalence at
/// every observable point. Returns an error message on divergence.
fn check_equivalence(endpoints: u32, ops: &[Op], seed: u64) -> Result<(), String> {
    let mut dense = Fabric::new();
    let mut tree = ReferenceFabric::new();
    let mut dense_eps: Vec<EndpointId> = Vec::new();
    let mut tree_eps: Vec<EndpointId> = Vec::new();
    for i in 0..endpoints {
        let name = format!("ep{i}");
        dense_eps.push(dense.add_endpoint(&name));
        tree_eps.push(tree.add_endpoint(&name));
    }
    let n = endpoints;
    let mut dense_rng = RngFactory::new(seed).stream("equivalence");
    let mut tree_rng = RngFactory::new(seed).stream("equivalence");
    let mut scratch: Vec<PlannedDelivery> = Vec::new();

    for &(code, a, b, t, ms) in ops {
        let (ai, bi) = ((a % n) as usize, (b % n) as usize);
        let topic = Topic::new(TOPICS[(t as usize) % TOPICS.len()]);
        let now = SimTime::from_millis(ms);
        match code % 7 {
            0 => {
                dense.subscribe(dense_eps[ai], topic.clone());
                tree.subscribe(tree_eps[ai], topic);
            }
            1 => {
                dense.unsubscribe(dense_eps[ai], &topic);
                tree.unsubscribe(tree_eps[ai], &topic);
            }
            2 => {
                let qos = qos_variant(ms);
                dense.set_link(dense_eps[ai], dense_eps[bi], qos);
                tree.set_link(tree_eps[ai], tree_eps[bi], qos);
            }
            3 => {
                let plan = OutagePlan::none()
                    .with_outage(now, now + SimDuration::from_millis(100 + ms % 400));
                dense.set_outages(dense_eps[ai], dense_eps[bi], plan.clone());
                tree.set_outages(tree_eps[ai], tree_eps[bi], plan);
            }
            4 => {
                let qos = qos_variant(ms / 3);
                dense.set_default_qos(qos);
                tree.set_default_qos(qos);
            }
            5 => {
                scratch.clear();
                dense.publish_into(dense_eps[ai], &topic, now, &mut dense_rng, &mut scratch);
                let expected = tree.publish(tree_eps[ai], &topic, now, &mut tree_rng);
                if scratch != expected {
                    return Err(format!(
                        "publish({topic}) diverged: dense {scratch:?} vs reference {expected:?}"
                    ));
                }
            }
            _ => {
                let got = dense.unicast(dense_eps[ai], dense_eps[bi], now, &mut dense_rng);
                let expected = tree.unicast(tree_eps[ai], tree_eps[bi], now, &mut tree_rng);
                if got != expected {
                    return Err(format!(
                        "unicast({ai}->{bi}) diverged: dense {got:?} vs reference {expected:?}"
                    ));
                }
            }
        }
        // Subscriber sets must agree (same members, same order) after
        // every mutation, not just at the end.
        let ds: Vec<EndpointId> = dense.subscribers(&Topic::new(TOPICS[0])).collect();
        let ts: Vec<EndpointId> = tree.subscribers(&Topic::new(TOPICS[0])).collect();
        if ds != ts {
            return Err(format!("subscriber sets diverged: dense {ds:?} vs reference {ts:?}"));
        }
    }

    // RNG lockstep: if either engine consumed a different number of
    // draws anywhere, the streams are desynchronised and the next
    // value differs (ChaCha streams have no short cycles).
    let (d, t) = (dense_rng.next_u64(), tree_rng.next_u64());
    if d != t {
        return Err(format!("RNG streams desynchronised: {d:#x} vs {t:#x}"));
    }

    // Per-link and aggregate statistics, including bit-exact Welford
    // latency accumulators.
    for &from in &dense_eps {
        for &to in &dense_eps {
            let (ds, ts) = (dense.link_stats(from, to), tree.link_stats(from, to));
            if ds != ts {
                return Err(format!("link_stats({from}->{to}) diverged: {ds:?} vs {ts:?}"));
            }
            if dense.link_qos(from, to) != tree.link_qos(from, to) {
                return Err(format!("link_qos({from}->{to}) diverged"));
            }
        }
    }
    let (dt, tt) = (dense.total_stats(), tree.total_stats());
    if dt != tt {
        return Err(format!("total_stats diverged: {dt:?} vs {tt:?}"));
    }
    Ok(())
}

proptest! {
    /// Random topologies and op sequences: the dense engine is
    /// indistinguishable from the reference.
    #[test]
    fn dense_fabric_equals_reference(
        endpoints in 2u32..8,
        ops in proptest::collection::vec(
            (0u8..7, 0u32..8, 0u32..8, 0u32..4, 0u64..2_000),
            1..120,
        ),
        seed in 0u64..1_000,
    ) {
        if let Err(msg) = check_equivalence(endpoints, &ops, seed) {
            prop_assert!(false, "{}", msg);
        }
    }

    /// Publish-heavy sequences with every endpoint subscribed: the
    /// fan-out hot path specifically, across lossy links and outages.
    #[test]
    fn dense_fanout_equals_reference(
        endpoints in 3u32..8,
        publishes in proptest::collection::vec((0u32..8, 0u64..5_000), 1..80),
        loss_sel in 0u64..4,
        seed in 0u64..1_000,
    ) {
        let mut ops: Vec<Op> = Vec::new();
        // Everyone subscribes to topic 0; a lossy default QoS and one
        // outage window stress the drop paths.
        for e in 0..endpoints {
            ops.push((0, e, 0, 0, 0));
        }
        ops.push((4, 0, 0, 0, loss_sel * 3));
        ops.push((3, 0, 1, 0, 1_000));
        for &(from, ms) in &publishes {
            ops.push((5, from, 0, 0, ms));
        }
        if let Err(msg) = check_equivalence(endpoints, &ops, seed) {
            prop_assert!(false, "{}", msg);
        }
    }
}
