//! Machine-readable network-fabric perf baseline (E7b).
//!
//! Routes the standard fan-out workloads — one publisher, 1..256
//! subscribers on a shared-QoS fabric, plus a multi-topic ward shape
//! (32 beds × 4 vitals topics) — through both the dense-routed engine
//! and the tree-routed reference, and writes msgs/sec per fan-out to
//! `BENCH_net.json`, so routing-throughput regressions show up in
//! version control as number changes rather than anecdotes.
//!
//! Every workload is run with identical RNG seeds on both engines and
//! the planned-delivery counts are required to match exactly — the
//! speedup figures are only meaningful because the work is provably
//! identical.
//!
//! Usage: `bench_fabric [--out PATH] [--publishes N] [--max-ms MS]`
//!
//! `--max-ms` is the CI smoke budget: if the 256-subscriber dense
//! workload takes longer than this many milliseconds, the run exits
//! nonzero. The ceiling is generous — it catches order-of-magnitude
//! regressions like an accidental fallback to tree routing, not
//! jitter.

use mcps_bench::Args;
use mcps_net::fabric::{Fabric, PlannedDelivery, Topic};
use mcps_net::qos::LinkQos;
use mcps_net::reference::ReferenceFabric;
use mcps_runtime::rng::RngFactory;
use mcps_runtime::time::SimTime;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct WorkloadReport {
    name: String,
    subscribers: usize,
    publishes: u64,
    planned_deliveries: u64,
    dense_millis: f64,
    reference_millis: f64,
    dense_msgs_per_sec: f64,
    reference_msgs_per_sec: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct BenchReport {
    engine: String,
    qos: String,
    workloads: Vec<WorkloadReport>,
}

/// Heterogeneous per-link QoS: every directed link gets an explicit
/// override (base QoS with a per-link latency tweak) plus a long-past
/// outage window. This is the configuration shape of a real ward —
/// mixed link qualities, maintenance windows — and it is exactly the
/// per-link state the dense engine packs into one record while the
/// reference walks three separate trees per message.
fn link_qos_for(base: LinkQos, i: usize) -> LinkQos {
    base.with_latency(
        base.base_latency + mcps_runtime::time::SimDuration::from_micros(i as u64 % 32),
    )
}

fn stale_outage() -> mcps_net::qos::OutagePlan {
    mcps_net::qos::OutagePlan::none()
        .with_outage(SimTime::ZERO, SimTime::ZERO + mcps_runtime::time::SimDuration::from_micros(1))
}

/// Builds a fabric (dense or reference is decided by the caller's
/// closures) with `subs` subscribers per topic across `topics` scoped
/// topics, and routes `publishes` messages round-robin over the topics.
fn run_dense(qos: LinkQos, topics: usize, subs: usize, publishes: u64) -> (f64, u64) {
    let mut fabric = Fabric::new();
    fabric.set_default_qos(qos);
    let publisher = fabric.add_endpoint("pub");
    let topic_list: Vec<Topic> =
        (0..topics).map(|t| Topic::new(format!("bed{t}/vitals/spo2"))).collect();
    for (t, topic) in topic_list.iter().enumerate() {
        for i in 0..subs {
            let ep = fabric.add_endpoint(&format!("bed{t}/sub{i}"));
            fabric.subscribe(ep, topic.clone());
            fabric.set_link(publisher, ep, link_qos_for(qos, t * subs + i));
            fabric.set_outages(publisher, ep, stale_outage());
        }
    }
    let ids: Vec<_> = topic_list.iter().map(|t| fabric.intern_topic(t)).collect();
    let mut rng = RngFactory::new(1).stream("bench");
    let mut scratch: Vec<PlannedDelivery> = Vec::new();
    let mut planned = 0u64;
    let start = Instant::now();
    for m in 0..publishes {
        let tid = ids[(m as usize) % ids.len()];
        scratch.clear();
        fabric.publish_topic_into(publisher, tid, SimTime::from_millis(m), &mut rng, &mut scratch);
        planned += scratch.len() as u64;
    }
    (start.elapsed().as_secs_f64() * 1_000.0, planned)
}

fn run_reference(qos: LinkQos, topics: usize, subs: usize, publishes: u64) -> (f64, u64) {
    let mut fabric = ReferenceFabric::new();
    fabric.set_default_qos(qos);
    let publisher = fabric.add_endpoint("pub");
    let topic_list: Vec<Topic> =
        (0..topics).map(|t| Topic::new(format!("bed{t}/vitals/spo2"))).collect();
    for (t, topic) in topic_list.iter().enumerate() {
        for i in 0..subs {
            let ep = fabric.add_endpoint(&format!("bed{t}/sub{i}"));
            fabric.subscribe(ep, topic.clone());
            fabric.set_link(publisher, ep, link_qos_for(qos, t * subs + i));
            fabric.set_outages(publisher, ep, stale_outage());
        }
    }
    let mut rng = RngFactory::new(1).stream("bench");
    let mut planned = 0u64;
    let start = Instant::now();
    for m in 0..publishes {
        let topic = &topic_list[(m as usize) % topic_list.len()];
        planned += fabric.publish(publisher, topic, SimTime::from_millis(m), &mut rng).len() as u64;
    }
    (start.elapsed().as_secs_f64() * 1_000.0, planned)
}

fn workload(
    name: &str,
    qos: LinkQos,
    topics: usize,
    subs: usize,
    publishes: u64,
) -> WorkloadReport {
    // Warm-up pass keeps one-time costs (page faults, lazy init) out
    // of the measured figures on both engines alike.
    let _ = run_dense(qos, topics, subs, publishes.min(100));
    let _ = run_reference(qos, topics, subs, publishes.min(100));
    let (dense_ms, dense_planned) = run_dense(qos, topics, subs, publishes);
    let (ref_ms, ref_planned) = run_reference(qos, topics, subs, publishes);
    assert_eq!(
        dense_planned, ref_planned,
        "{name}: dense and reference planned different delivery counts"
    );
    // Each publish routes one message per subscriber of its topic
    // (loss decides delivery, but every route is planned and sampled).
    let routed = publishes * subs as u64;
    WorkloadReport {
        name: name.to_owned(),
        subscribers: subs,
        publishes,
        planned_deliveries: dense_planned,
        dense_millis: dense_ms,
        reference_millis: ref_ms,
        dense_msgs_per_sec: routed as f64 / (dense_ms / 1_000.0).max(1e-9),
        reference_msgs_per_sec: routed as f64 / (ref_ms / 1_000.0).max(1e-9),
        speedup: ref_ms / dense_ms.max(1e-9),
    }
}

fn main() {
    let args = Args::parse();
    let out_path = args.get_str("out", "BENCH_net.json");
    let publishes = args.get_u64("publishes", 20_000);
    let max_ms = args.get_u64("max-ms", 5_000) as f64;

    let mut workloads = Vec::new();
    // Routing-dominated workloads: ideal links, so the figures compare
    // the routing cores rather than the (shared, irreducible) link
    // stochastics. `routing/256` is the headline ≥5× acceptance metric.
    for &subs in &[1usize, 16, 64, 256] {
        workloads.push(workload(&format!("routing/{subs}"), LinkQos::ideal(), 1, subs, publishes));
    }
    // End-to-end planning with stochastic wifi links (loss + jitter
    // draws included) — what a scenario actually pays per publish.
    for &subs in &[16usize, 256] {
        workloads.push(workload(
            &format!("planning_wifi/{subs}"),
            LinkQos::wifi(),
            1,
            subs,
            publishes,
        ));
    }
    // The multi-bed ward shape: many scoped topics, small fan-out each.
    workloads.push(workload("ward/32beds_x4subs", LinkQos::wifi(), 32, 4, publishes));

    let smoke_ms = workloads[3].dense_millis;
    let routing256_speedup = workloads[3].speedup;
    let report = BenchReport {
        engine: "dense-routed".to_owned(),
        qos: "ideal (routing/*), wifi (planning_wifi/*, ward/*)".to_owned(),
        workloads,
    };
    mcps_bench::write_report(&report, &out_path);
    mcps_bench::smoke_budget("routing/256", smoke_ms, max_ms);
    println!("routing/256 dense-vs-reference speedup: {routing256_speedup:.2}x");
}
