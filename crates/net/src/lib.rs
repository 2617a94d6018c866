//! # mcps-net — simulated clinical network fabric
//!
//! The unreliable medium between MCPS components. Provides
//!
//! * [`qos`] — parametric link models (latency, jitter, loss) and
//!   scheduled outages,
//! * [`fabric`] — endpoints, directed links and publish/subscribe
//!   topic routing with per-link statistics,
//! * [`reference`](mod@reference) — the original tree-routed fabric, kept as the
//!   behavioural baseline the dense engine is property-tested against.
//!
//! The fabric is a pure planning model: it decides who receives a
//! message and when, and the caller (the ICE network controller in
//! `mcps-core`) schedules those deliveries on the simulation kernel.
//!
//! Routing is *dense*: topics are interned to [`TopicId`]s, link
//! state (QoS, outages, statistics) lives in packed records behind one
//! Fx-hashed lookup, per-topic route caches precompute each hop's
//! effective QoS, and [`Fabric::publish_into`] plans fan-out into a
//! caller-reused scratch buffer without allocating. On the E7b fan-out
//! benchmark (`bench_fabric` → `BENCH_net.json`) the dense engine
//! routes 91.7 M msgs/s against the tree-routed
//! [`reference::ReferenceFabric`]'s 10.2 M msgs/s at 256-subscriber
//! fan-out (~9×; 2–3× on stochastic wifi planning, where sampling
//! dominates) while remaining byte-identical in deliveries, RNG
//! consumption and statistics (see `tests/dense_vs_reference.rs`).
//!
//! ## Example
//!
//! ```
//! use mcps_net::fabric::{Fabric, Topic};
//! use mcps_net::qos::LinkQos;
//! use mcps_runtime::rng::RngFactory;
//! use mcps_runtime::time::SimTime;
//!
//! let mut fabric = Fabric::new();
//! fabric.set_default_qos(LinkQos::wifi());
//! let oximeter = fabric.add_endpoint("oximeter");
//! let supervisor = fabric.add_endpoint("supervisor");
//! let topic = Topic::new("vitals/spo2");
//! fabric.subscribe(supervisor, topic.clone());
//!
//! let mut rng = RngFactory::new(1).stream("net");
//! let deliveries = fabric.publish(oximeter, &topic, SimTime::ZERO, &mut rng);
//! assert!(deliveries.len() <= 1); // wifi may drop it
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fabric;
pub mod qos;
pub mod reference;

pub use fabric::{EndpointId, Fabric, LinkStats, PlannedDelivery, Topic, TopicId};
pub use qos::{Delivery, LinkQos, OutagePlan};
