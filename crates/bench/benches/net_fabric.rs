//! E7b — network-fabric throughput: publish planning with growing
//! subscriber counts, dense-routed engine vs the tree-routed reference.
//!
//! The `fabric/publish_per_msg/{N}` groups measure the dense engine on
//! the heterogeneous routing workload (every link has an explicit QoS
//! override and an outage plan, but deterministic delivery — the
//! figures compare routing cores, not the shared link stochastics);
//! `fabric/reference_per_msg/{N}` is the identical workload on
//! [`ReferenceFabric`]. `fabric/fanout_multitopic` is the multi-bed
//! ward shape: per-bed scoped topics with a small fan-out each,
//! round-robined through one publisher per bed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcps_net::fabric::{Fabric, PlannedDelivery, Topic};
use mcps_net::qos::{LinkQos, OutagePlan};
use mcps_net::reference::ReferenceFabric;
use mcps_runtime::rng::RngFactory;
use mcps_runtime::time::{SimDuration, SimTime};

/// Heterogeneous per-link QoS: base with a per-link latency tweak.
fn link_qos_for(base: LinkQos, i: usize) -> LinkQos {
    base.with_latency(base.base_latency + SimDuration::from_micros(i as u64 % 32))
}

/// A long-past maintenance window: real per-link outage state on every
/// link without affecting steady-state delivery.
fn stale_outage() -> OutagePlan {
    OutagePlan::none().with_outage(SimTime::ZERO, SimTime::ZERO + SimDuration::from_micros(1))
}

fn bench_publish(c: &mut Criterion) {
    let mut group = c.benchmark_group("fabric/publish_per_msg");
    for &subs in &[1usize, 16, 64, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(subs), &subs, |b, &subs| {
            let mut fabric = Fabric::new();
            fabric.set_default_qos(LinkQos::ideal());
            let publisher = fabric.add_endpoint("pub");
            let topic = Topic::new("vitals/spo2");
            for i in 0..subs {
                let ep = fabric.add_endpoint(&format!("sub{i}"));
                fabric.subscribe(ep, topic.clone());
                fabric.set_link(publisher, ep, link_qos_for(LinkQos::ideal(), i));
                fabric.set_outages(publisher, ep, stale_outage());
            }
            let tid = fabric.intern_topic(&topic);
            let mut rng = RngFactory::new(1).stream("bench");
            let mut scratch: Vec<PlannedDelivery> = Vec::new();
            let mut t = 0u64;
            b.iter(|| {
                t += 1;
                scratch.clear();
                fabric.publish_topic_into(
                    publisher,
                    tid,
                    SimTime::from_millis(t),
                    &mut rng,
                    &mut scratch,
                );
                scratch.len()
            })
        });
    }
    group.finish();
}

fn bench_reference(c: &mut Criterion) {
    let mut group = c.benchmark_group("fabric/reference_per_msg");
    for &subs in &[1usize, 16, 64, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(subs), &subs, |b, &subs| {
            let mut fabric = ReferenceFabric::new();
            fabric.set_default_qos(LinkQos::ideal());
            let publisher = fabric.add_endpoint("pub");
            let topic = Topic::new("vitals/spo2");
            for i in 0..subs {
                let ep = fabric.add_endpoint(&format!("sub{i}"));
                fabric.subscribe(ep, topic.clone());
                fabric.set_link(publisher, ep, link_qos_for(LinkQos::ideal(), i));
                fabric.set_outages(publisher, ep, stale_outage());
            }
            let mut rng = RngFactory::new(1).stream("bench");
            let mut t = 0u64;
            b.iter(|| {
                t += 1;
                fabric.publish(publisher, &topic, SimTime::from_millis(t), &mut rng).len()
            })
        });
    }
    group.finish();
}

fn bench_multitopic(c: &mut Criterion) {
    // 32 beds, each with its own scoped vitals topic, one device
    // publishing per bed and 4 subscribers — the multibed ward shape.
    c.bench_function("fabric/fanout_multitopic/32beds_x4subs", |b| {
        let beds = 32usize;
        let subs = 4usize;
        let mut fabric = Fabric::new();
        fabric.set_default_qos(LinkQos::wifi());
        let mut pubs = Vec::new();
        let mut ids = Vec::new();
        for bed in 0..beds {
            let device = fabric.add_endpoint(&format!("bed{bed}/oximeter"));
            let topic = Topic::new(format!("bed{bed}/vitals/spo2"));
            for i in 0..subs {
                let ep = fabric.add_endpoint(&format!("bed{bed}/sub{i}"));
                fabric.subscribe(ep, topic.clone());
                fabric.set_link(device, ep, link_qos_for(LinkQos::wifi(), bed * subs + i));
                fabric.set_outages(device, ep, stale_outage());
            }
            ids.push(fabric.intern_topic(&topic));
            pubs.push(device);
        }
        let mut rng = RngFactory::new(1).stream("bench");
        let mut scratch: Vec<PlannedDelivery> = Vec::new();
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            let bed = (t as usize) % beds;
            scratch.clear();
            fabric.publish_topic_into(
                pubs[bed],
                ids[bed],
                SimTime::from_millis(t),
                &mut rng,
                &mut scratch,
            );
            scratch.len()
        })
    });
}

fn bench_unicast(c: &mut Criterion) {
    c.bench_function("fabric/unicast_per_msg", |b| {
        let mut fabric = Fabric::new();
        fabric.set_default_qos(LinkQos::wired());
        let a = fabric.add_endpoint("a");
        let z = fabric.add_endpoint("z");
        let mut rng = RngFactory::new(1).stream("bench");
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            fabric.unicast(a, z, SimTime::from_millis(t), &mut rng)
        })
    });
}

criterion_group!(benches, bench_publish, bench_reference, bench_multitopic, bench_unicast);
criterion_main!(benches);
