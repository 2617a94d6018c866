//! The network fabric: endpoints, links and topic routing.
//!
//! [`Fabric`] is a *pure* model — it decides, per message, who receives
//! it and when, but does not itself own an event queue. The ICE network
//! controller (in `mcps-core`) consults the fabric and schedules the
//! resulting deliveries on the simulation kernel. This keeps the fabric
//! independently testable and reusable under any executive.
//!
//! # Dense routing
//!
//! The routing core is built like the packed model checker rather than
//! like a configuration store, because it *is* the hot path: every
//! vital-sign sample in every scenario flows through [`Fabric::publish`].
//!
//! * **Topics are interned.** The first subscription (or
//!   [`Fabric::intern_topic`]) assigns a dense [`TopicId`]; subscriber
//!   sets live in a `Vec<Vec<EndpointId>>` indexed by that id, each set
//!   kept sorted ascending. Routing a publish is one Fx-hash lookup of
//!   the topic name plus a linear walk of a contiguous slice — no
//!   string `Ord` comparisons, no tree chasing.
//! * **Links are packed records.** QoS override, outage plan and
//!   [`LinkStats`] of a directed link are one record
//!   in a `Vec`, found via an Fx-hashed `u64` key
//!   (`from << 32 | to`). A unicast fetches its record once and does
//!   everything on it, where the tree-routed baseline walked `links`,
//!   `outages` and `stats` separately (five walks per message).
//! * **Planning is zero-alloc.** [`Fabric::publish_into`] appends
//!   planned deliveries to a caller-owned scratch buffer and iterates
//!   the subscriber slice directly; the allocating [`Fabric::publish`]
//!   is a convenience wrapper. The ICE network controller holds a
//!   reusable scratch buffer, so steady-state publishing performs no
//!   heap allocation at all.
//! * **Routes are cached and pre-resolved.** Each topic keeps the
//!   resolved fan-out of its most recent publisher: link record index,
//!   effective QoS (override or default), the common ≤1-window outage
//!   plan inlined, and — for links with zero loss and zero jitter — the
//!   precomputed constant delay that [`LinkQos::sample`] would return.
//!   A configuration generation counter invalidates these snapshots on
//!   any `set_link`/`set_outages`/`set_default_qos`, so steady-state
//!   fan-out is a walk over contiguous pre-resolved hops with zero
//!   hash lookups and no per-message float round-trips on
//!   deterministic links (the RNG draw is still consumed, keeping the
//!   stream in lockstep with the reference).
//!
//! Subscriber order (ascending [`EndpointId`]) and per-subscriber QoS
//! sampling are identical to the tree-routed
//! [`ReferenceFabric`](crate::reference::ReferenceFabric), so RNG
//! consumption — and therefore every scenario outcome — is byte-for-byte
//! unchanged. Property tests in `tests/dense_vs_reference.rs` and the
//! golden-output pins in the workspace `tests/fabric_golden.rs` hold the
//! two engines to equivalence.

use crate::qos::{Delivery, LinkQos, OutagePlan};
use fxhash::FxHashMap;
use mcps_runtime::telemetry::Welford;
use mcps_runtime::time::{SimDuration, SimTime};
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Identifies an endpoint attached to a [`Fabric`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EndpointId(u32);

impl EndpointId {
    /// The raw index.
    pub const fn index(self) -> u32 {
        self.0
    }

    /// Builds an id from a raw index. Ids are normally issued by
    /// [`Fabric::add_endpoint`]; this constructor exists for drivers
    /// that address endpoints across a process boundary (the serve-mode
    /// wire protocol), where both sides agree on indices by convention.
    pub const fn from_index(index: u32) -> Self {
        EndpointId(index)
    }
}

impl fmt::Display for EndpointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ep#{}", self.0)
    }
}

/// Identifies an interned topic within one [`Fabric`].
///
/// Dense (`0..topic_count`), assigned on first subscription or by
/// [`Fabric::intern_topic`]. Holding a `TopicId` lets a hot caller skip
/// the name lookup entirely via [`Fabric::publish_topic_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TopicId(u32);

impl TopicId {
    /// The raw index.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for TopicId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "topic#{}", self.0)
    }
}

/// A publish/subscribe topic name.
///
/// Topics are flat strings by convention structured like
/// `"vitals/spo2"` or `"pump/status"`; matching is exact. The name is
/// reference-counted (`Arc<str>`), so the clone a router or message
/// header takes per hop is a pointer bump, not a heap copy.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Topic(Arc<str>);

impl Topic {
    /// Creates a topic.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty.
    pub fn new(name: impl AsRef<str>) -> Self {
        let name = name.as_ref();
        assert!(!name.is_empty(), "topic name must not be empty");
        Topic(Arc::from(name))
    }

    /// The topic name.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The shared name storage (used by the interning registry).
    fn arc(&self) -> Arc<str> {
        Arc::clone(&self.0)
    }
}

// Manual serde impls: the derive would require `Serialize` on
// `Arc<str>`, which the workspace serde shim does not provide. A topic
// is just its name on the wire.
impl Serialize for Topic {
    fn to_content(&self) -> serde::Content {
        serde::Content::Str(self.0.to_string())
    }
}

impl Deserialize for Topic {
    fn from_content(content: &serde::Content) -> Result<Self, serde::Error> {
        match content {
            serde::Content::Str(s) if !s.is_empty() => Ok(Topic::new(s)),
            serde::Content::Str(_) => Err(serde::Error::new("topic name must not be empty")),
            other => Err(serde::Error::expected("string", other)),
        }
    }
}

impl fmt::Display for Topic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Topic {
    fn from(s: &str) -> Self {
        Topic::new(s)
    }
}

/// Per-directed-link transmission statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LinkStats {
    /// Messages offered to the link.
    pub sent: u64,
    /// Messages that will arrive.
    pub delivered: u64,
    /// Messages lost (random loss or outage).
    pub dropped: u64,
    /// One-way latency of delivered messages, seconds.
    pub latency: Welford,
}

impl LinkStats {
    /// Delivered / sent (1.0 when nothing was sent).
    pub fn delivery_ratio(&self) -> f64 {
        if self.sent == 0 {
            1.0
        } else {
            self.delivered as f64 / self.sent as f64
        }
    }

    /// Writes the link's QoS figures into a [`Telemetry`] bus under
    /// `prefix` (`{prefix}.sent`, `{prefix}.latency_mean_s`, …), so
    /// experiment binaries aggregate network statistics through the
    /// same sink as every other metric.
    ///
    /// [`Telemetry`]: mcps_runtime::telemetry::Telemetry
    pub fn export_into(&self, bus: &mut mcps_runtime::telemetry::Telemetry, prefix: &str) {
        // One reusable key buffer instead of a fresh `format!` String
        // per metric — this runs per link per export tick.
        let mut key = String::with_capacity(prefix.len() + 16);
        key.push_str(prefix);
        key.push('.');
        let base = key.len();
        let with = |suffix: &str, key: &mut String| {
            key.truncate(base);
            key.push_str(suffix);
        };
        with("sent", &mut key);
        bus.incr(&key, self.sent);
        with("delivered", &mut key);
        bus.incr(&key, self.delivered);
        with("dropped", &mut key);
        bus.incr(&key, self.dropped);
        with("delivery_ratio", &mut key);
        bus.observe(&key, self.delivery_ratio());
        if self.latency.count() > 0 {
            with("latency_mean_s", &mut key);
            bus.observe(&key, self.latency.mean());
        }
    }
}

/// One planned delivery produced by [`Fabric::publish`] or
/// [`Fabric::unicast`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlannedDelivery {
    /// Receiving endpoint.
    pub to: EndpointId,
    /// Arrival instant.
    pub at: SimTime,
}

/// Configuration of one directed link: the optional QoS override
/// (`None` = track the fabric's default at send time) and the outage
/// plan. Statistics live in a parallel array (see [`Fabric::stats`]) so
/// the per-message counter writes stay on densely packed cache lines.
#[derive(Debug, Clone, Default)]
struct LinkConfig {
    qos: Option<LinkQos>,
    outages: OutagePlan,
}

/// How one hop's delivery fate is decided per message.
///
/// A link with zero loss and zero jitter is *deterministic*: its
/// sampled delay is the same value every message, so the route cache
/// precomputes it (both the [`SimDuration`] added to `now` and the
/// seconds value pushed into the latency accumulator — bit-identical to
/// what [`LinkQos::sample`] would produce, because both are pure
/// functions of the constant base latency). The per-message RNG draw
/// that [`bernoulli`](mcps_runtime::rng::bernoulli) would consume is still
/// made — as one raw `next_u64` — so the stream stays in lockstep with
/// the reference engine; only the redundant float arithmetic is
/// skipped. Lossy or jittery links sample in full.
#[derive(Debug, Clone, Copy)]
enum HopFate {
    Deterministic { delay: SimDuration, delay_s: f64 },
    Sampled { qos: LinkQos },
}

/// One resolved fan-out hop: everything a publish needs per subscriber,
/// read from a single contiguous cache line.
///
/// `fate` resolves the *effective* QoS (override or the fabric
/// default), and `window` inlines the common ≤1-window outage plan — an
/// empty plan is encoded as the never-matching `(ZERO, ZERO)`; only
/// plans with several windows fall back to the full [`OutagePlan`] via
/// `multi_window`.
#[derive(Debug, Clone)]
struct RouteHop {
    to: EndpointId,
    link: u32,
    multi_window: bool,
    fate: HopFate,
    window: (SimTime, SimTime),
}

/// Resolved fan-out routes of one topic for one publisher, in ascending
/// receiver order (publisher excluded).
///
/// Link records are append-only and mutated in place, so cached indices
/// stay valid; the resolved QoS and outage snapshots are guarded by
/// `gen`, a copy of the fabric's configuration generation counter.
/// The cache is rebuilt when the topic's subscriber set changes, when
/// any link/default configuration changes (`gen` mismatch), or when a
/// different endpoint publishes — in every scenario shape a data topic
/// has exactly one publisher, so steady state is a pure array walk with
/// zero hash lookups.
#[derive(Debug, Clone)]
struct TopicRoutes {
    from: EndpointId,
    gen: u64,
    hops: Vec<RouteHop>,
}

/// Packs a directed link into the table key: `from` in the high word,
/// `to` in the low word. Sorting by key equals sorting by `(from, to)`.
#[inline]
const fn link_key(from: EndpointId, to: EndpointId) -> u64 {
    ((from.0 as u64) << 32) | to.0 as u64
}

/// Endpoints, directed links with QoS, outages, and topic subscriptions.
///
/// See the [module docs](self) for the dense-routing layout.
#[derive(Debug, Clone, Default)]
pub struct Fabric {
    names: Vec<String>,
    default_qos: LinkQos,
    /// Topic name → dense id. Fx-hashed: keys are short process-local
    /// strings, DoS resistance buys nothing here.
    topic_ids: FxHashMap<Arc<str>, TopicId>,
    /// Interned topics by id (introspection / iteration).
    topics: Vec<Topic>,
    /// Subscriber sets by topic id, each sorted ascending so fan-out
    /// order (and therefore RNG draw order) matches the tree-routed
    /// reference exactly.
    subs: Vec<Vec<EndpointId>>,
    /// Per-topic resolved routes of the most recent publisher (`None`
    /// until first publish or after a subscription change).
    routes: Vec<Option<TopicRoutes>>,
    /// Packed link key → index into `links` / `stats`.
    link_index: FxHashMap<u64, u32>,
    /// Link configuration in creation order; `stats[i]` and
    /// `link_keys[i]` parallel `links[i]` (statistics are split out so
    /// the hot counter writes land on contiguous cache lines; the
    /// packed keys are kept for ordered aggregation).
    links: Vec<LinkConfig>,
    stats: Vec<LinkStats>,
    link_keys: Vec<u64>,
    /// Bumped on every configuration change (`set_link`, `set_outages`,
    /// `set_default_qos`); route caches snapshot it.
    cfg_gen: u64,
}

impl Fabric {
    /// An empty fabric whose unspecified links use [`LinkQos::wired`].
    pub fn new() -> Self {
        Fabric::default()
    }

    /// An empty fabric pre-sized for a known scenario shape: endpoint,
    /// topic and link tables are allocated up front so registration is
    /// O(1) amortized with no rehash/regrow churn. Campus-scale
    /// scenarios register tens of thousands of topics; growing the
    /// Fx-hashed registry through doublings would rehash every interned
    /// key several times over.
    pub fn with_capacity(endpoints: usize, topics: usize, links: usize) -> Self {
        let mut f = Fabric::default();
        f.reserve(endpoints, topics, links);
        f
    }

    /// Reserves capacity for at least `endpoints`, `topics` and `links`
    /// additional registrations (see [`Fabric::with_capacity`]).
    pub fn reserve(&mut self, endpoints: usize, topics: usize, links: usize) {
        self.names.reserve(endpoints);
        self.topic_ids.reserve(topics);
        self.topics.reserve(topics);
        self.subs.reserve(topics);
        self.routes.reserve(topics);
        self.link_index.reserve(links);
        self.links.reserve(links);
        self.stats.reserve(links);
        self.link_keys.reserve(links);
    }

    /// Sets the QoS used by links without an explicit override.
    pub fn set_default_qos(&mut self, qos: LinkQos) {
        self.default_qos = qos;
        self.cfg_gen += 1;
    }

    /// Registers an endpoint.
    pub fn add_endpoint(&mut self, name: &str) -> EndpointId {
        let id = EndpointId(u32::try_from(self.names.len()).expect("too many endpoints"));
        self.names.push(name.to_owned());
        id
    }

    /// The registered name of an endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this fabric.
    pub fn endpoint_name(&self, id: EndpointId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Number of endpoints.
    pub fn endpoint_count(&self) -> usize {
        self.names.len()
    }

    /// Index of the record for `from → to`, creating it on first use.
    #[inline]
    fn link_record_index(&mut self, from: EndpointId, to: EndpointId) -> usize {
        let key = link_key(from, to);
        if let Some(&i) = self.link_index.get(&key) {
            i as usize
        } else {
            let i = u32::try_from(self.links.len()).expect("too many links");
            self.links.push(LinkConfig::default());
            self.stats.push(LinkStats::default());
            self.link_keys.push(key);
            self.link_index.insert(key, i);
            i as usize
        }
    }

    /// Overrides QoS on the directed link `from → to`.
    pub fn set_link(&mut self, from: EndpointId, to: EndpointId, qos: LinkQos) {
        let i = self.link_record_index(from, to);
        self.links[i].qos = Some(qos);
        self.cfg_gen += 1;
    }

    /// Overrides QoS symmetrically on both directions between `a` and `b`.
    pub fn set_link_symmetric(&mut self, a: EndpointId, b: EndpointId, qos: LinkQos) {
        self.set_link(a, b, qos);
        self.set_link(b, a, qos);
    }

    /// Installs an outage plan on the directed link `from → to`.
    pub fn set_outages(&mut self, from: EndpointId, to: EndpointId, plan: OutagePlan) {
        let i = self.link_record_index(from, to);
        self.links[i].outages = plan;
        self.cfg_gen += 1;
    }

    /// Appends one outage window to the directed link `from → to`,
    /// keeping any windows already installed ([`Fabric::set_outages`]
    /// replaces the whole plan instead).
    ///
    /// # Panics
    ///
    /// Panics if `down_until` does not follow `down_from`.
    pub fn add_outage(
        &mut self,
        from: EndpointId,
        to: EndpointId,
        down_from: SimTime,
        down_until: SimTime,
    ) {
        let i = self.link_record_index(from, to);
        let plan = std::mem::take(&mut self.links[i].outages);
        self.links[i].outages = plan.with_outage(down_from, down_until);
        self.cfg_gen += 1;
    }

    /// Severs every link *between* the two endpoint groups in both
    /// directions over `[down_from, down_until)` — a network partition.
    /// Links within each group are untouched, and the windows append to
    /// whatever outage plans the affected links already carry. Use
    /// [`SimTime::MAX`] as `down_until` for a partition that never
    /// heals.
    pub fn partition(
        &mut self,
        group_a: &[EndpointId],
        group_b: &[EndpointId],
        down_from: SimTime,
        down_until: SimTime,
    ) {
        for &a in group_a {
            for &b in group_b {
                if a == b {
                    continue;
                }
                self.add_outage(a, b, down_from, down_until);
                self.add_outage(b, a, down_from, down_until);
            }
        }
    }

    /// The effective QoS of `from → to`.
    pub fn link_qos(&self, from: EndpointId, to: EndpointId) -> LinkQos {
        self.link_index
            .get(&link_key(from, to))
            .and_then(|&i| self.links[i as usize].qos)
            .unwrap_or(self.default_qos)
    }

    /// Interns `topic`, returning its dense id (stable for the lifetime
    /// of the fabric). Idempotent; subscribing also interns.
    pub fn intern_topic(&mut self, topic: &Topic) -> TopicId {
        if let Some(&id) = self.topic_ids.get(topic.as_str()) {
            return id;
        }
        let id = TopicId(u32::try_from(self.topics.len()).expect("too many topics"));
        self.topic_ids.insert(topic.arc(), id);
        self.topics.push(topic.clone());
        self.subs.push(Vec::new());
        self.routes.push(None);
        id
    }

    /// The id of an already-interned topic, if any.
    pub fn topic_id(&self, topic: &Topic) -> Option<TopicId> {
        self.topic_ids.get(topic.as_str()).copied()
    }

    /// The interned topic with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this fabric.
    pub fn topic(&self, id: TopicId) -> &Topic {
        &self.topics[id.0 as usize]
    }

    /// Number of interned topics.
    pub fn topic_count(&self) -> usize {
        self.topics.len()
    }

    /// Subscribes `endpoint` to `topic`.
    pub fn subscribe(&mut self, endpoint: EndpointId, topic: Topic) {
        let id = self.intern_topic(&topic);
        let set = &mut self.subs[id.0 as usize];
        if let Err(pos) = set.binary_search(&endpoint) {
            set.insert(pos, endpoint);
            self.routes[id.0 as usize] = None;
        }
    }

    /// Removes a subscription (no-op if absent).
    pub fn unsubscribe(&mut self, endpoint: EndpointId, topic: &Topic) {
        if let Some(id) = self.topic_id(topic) {
            let set = &mut self.subs[id.0 as usize];
            if let Ok(pos) = set.binary_search(&endpoint) {
                set.remove(pos);
                self.routes[id.0 as usize] = None;
            }
        }
    }

    /// Current subscribers of `topic` in ascending id order (empty if
    /// none). Borrows the interned subscriber set — no allocation.
    pub fn subscribers(&self, topic: &Topic) -> impl Iterator<Item = EndpointId> + '_ {
        self.topic_id(topic)
            .map(|id| self.subs[id.0 as usize].as_slice())
            .unwrap_or(&[])
            .iter()
            .copied()
    }

    /// Plans the transmission of one unicast message sent at `now`.
    /// Returns `None` if the message is lost (loss or outage);
    /// statistics are updated either way.
    ///
    /// One link-table lookup per message: outage check, QoS sample and
    /// all three statistics counters operate on the same record.
    pub fn unicast(
        &mut self,
        from: EndpointId,
        to: EndpointId,
        now: SimTime,
        rng: &mut impl RngCore,
    ) -> Option<PlannedDelivery> {
        let default_qos = self.default_qos;
        let i = self.link_record_index(from, to);
        let qos = self.links[i].qos.unwrap_or(default_qos);
        let down = self.links[i].outages.is_down(now);
        let st = &mut self.stats[i];
        st.sent += 1;
        if down {
            st.dropped += 1;
            return None;
        }
        match qos.sample(now, rng) {
            Delivery::Deliver { at } => {
                st.delivered += 1;
                st.latency.push((at - now).as_secs_f64());
                Some(PlannedDelivery { to, at })
            }
            Delivery::Dropped => {
                st.dropped += 1;
                None
            }
        }
    }

    /// Plans delivery of a published message to every subscriber of
    /// `topic` except the publisher itself, appending to `out`. Each
    /// subscriber's link is sampled independently, in ascending
    /// [`EndpointId`] order.
    ///
    /// This is the zero-alloc planning primitive: the caller owns (and
    /// reuses) the output buffer, and the subscriber slice is iterated
    /// in place.
    pub fn publish_into(
        &mut self,
        from: EndpointId,
        topic: &Topic,
        now: SimTime,
        rng: &mut impl RngCore,
        out: &mut Vec<PlannedDelivery>,
    ) {
        if let Some(id) = self.topic_id(topic) {
            self.publish_topic_into(from, id, now, rng, out);
        }
    }

    /// Resolves the fan-out routes of topic `t` for publisher `from`:
    /// link record index, effective QoS and outage fast path per
    /// receiver, snapshotted at the current configuration generation.
    fn build_routes(&mut self, t: usize, from: EndpointId) -> TopicRoutes {
        let receivers: Vec<EndpointId> =
            self.subs[t].iter().copied().filter(|&e| e != from).collect();
        let gen = self.cfg_gen;
        let default_qos = self.default_qos;
        let hops = receivers
            .into_iter()
            .map(|to| {
                let i = self.link_record_index(from, to);
                let cfg = &self.links[i];
                let qos = cfg.qos.unwrap_or(default_qos);
                let fate = if qos.loss_prob == 0.0 && qos.jitter.is_zero() {
                    // Same arithmetic as `LinkQos::sample` on constants.
                    let delay = SimDuration::from_secs_f64(qos.base_latency.as_secs_f64().max(0.0));
                    HopFate::Deterministic { delay, delay_s: delay.as_secs_f64() }
                } else {
                    HopFate::Sampled { qos }
                };
                let (window, multi_window) = match cfg.outages.windows() {
                    [] => ((SimTime::ZERO, SimTime::ZERO), false),
                    [w] => (*w, false),
                    _ => ((SimTime::ZERO, SimTime::ZERO), true),
                };
                RouteHop { to, link: i as u32, multi_window, fate, window }
            })
            .collect();
        TopicRoutes { from, gen, hops }
    }

    /// [`Fabric::publish_into`] for a pre-interned topic: skips even
    /// the name lookup. Steady-state fan-out walks the topic's cached
    /// route table — receiver and link record resolved once per
    /// (topic, publisher) — with zero hash lookups and zero
    /// allocations.
    pub fn publish_topic_into(
        &mut self,
        from: EndpointId,
        topic: TopicId,
        now: SimTime,
        rng: &mut impl RngCore,
        out: &mut Vec<PlannedDelivery>,
    ) {
        let t = topic.0 as usize;
        // Take the route table out of `self` so the statistics can be
        // borrowed mutably while walking it.
        let routes = match self.routes[t].take() {
            Some(r) if r.from == from && r.gen == self.cfg_gen => r,
            _ => self.build_routes(t, from),
        };
        let links = &self.links;
        let stats = &mut self.stats;
        for hop in &routes.hops {
            let st = &mut stats[hop.link as usize];
            st.sent += 1;
            let down = if hop.multi_window {
                links[hop.link as usize].outages.is_down(now)
            } else {
                hop.window.0 <= now && now < hop.window.1
            };
            if down {
                st.dropped += 1;
                continue;
            }
            match hop.fate {
                HopFate::Deterministic { delay, delay_s } => {
                    // Consume the draw `bernoulli` would have made so
                    // the stream stays in lockstep with the reference.
                    let _ = rng.next_u64();
                    st.delivered += 1;
                    st.latency.push(delay_s);
                    out.push(PlannedDelivery { to: hop.to, at: now + delay });
                }
                HopFate::Sampled { qos } => match qos.sample(now, rng) {
                    Delivery::Deliver { at } => {
                        st.delivered += 1;
                        st.latency.push((at - now).as_secs_f64());
                        out.push(PlannedDelivery { to: hop.to, at });
                    }
                    Delivery::Dropped => {
                        st.dropped += 1;
                    }
                },
            }
        }
        self.routes[t] = Some(routes);
    }

    /// Allocating convenience wrapper over [`Fabric::publish_into`].
    pub fn publish(
        &mut self,
        from: EndpointId,
        topic: &Topic,
        now: SimTime,
        rng: &mut impl RngCore,
    ) -> Vec<PlannedDelivery> {
        let mut out = Vec::new();
        self.publish_into(from, topic, now, rng, &mut out);
        out
    }

    /// Statistics of the directed link `from → to`.
    pub fn link_stats(&self, from: EndpointId, to: EndpointId) -> LinkStats {
        self.link_index
            .get(&link_key(from, to))
            .map(|&i| self.stats[i as usize])
            .unwrap_or_default()
    }

    /// Aggregate statistics over all links.
    ///
    /// Links are merged in ascending `(from, to)` order — the same
    /// order the tree-routed reference iterates its stats map — so the
    /// floating-point latency merge is bit-identical to it.
    pub fn total_stats(&self) -> LinkStats {
        let mut order: Vec<usize> = (0..self.stats.len()).collect();
        order.sort_unstable_by_key(|&i| self.link_keys[i]);
        let mut total = LinkStats::default();
        for i in order {
            let s = &self.stats[i];
            if s.sent == 0 {
                // Never transmitted (record created by `set_link` /
                // `set_outages` alone); the reference has no stats
                // entry for such links.
                continue;
            }
            total.sent += s.sent;
            total.delivered += s.delivered;
            total.dropped += s.dropped;
            total.latency.merge(&s.latency);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcps_runtime::rng::RngFactory;
    use mcps_runtime::time::SimDuration;

    fn rng() -> mcps_runtime::rng::SimRng {
        RngFactory::new(8).stream("fabric")
    }

    fn two_endpoint_fabric() -> (Fabric, EndpointId, EndpointId) {
        let mut f = Fabric::new();
        let a = f.add_endpoint("oximeter");
        let b = f.add_endpoint("supervisor");
        (f, a, b)
    }

    #[test]
    fn unicast_uses_link_qos() {
        let (mut f, a, b) = two_endpoint_fabric();
        f.set_link(a, b, LinkQos::ideal().with_latency(SimDuration::from_millis(7)));
        let mut r = rng();
        let d = f.unicast(a, b, SimTime::from_secs(1), &mut r).unwrap();
        assert_eq!(d.to, b);
        assert_eq!(d.at, SimTime::from_secs(1) + SimDuration::from_millis(7));
        assert_eq!(f.link_stats(a, b).sent, 1);
        assert_eq!(f.link_stats(a, b).delivered, 1);
    }

    #[test]
    fn publish_reaches_all_subscribers_except_sender() {
        let mut f = Fabric::new();
        f.set_default_qos(LinkQos::ideal());
        let pubr = f.add_endpoint("pub");
        let s1 = f.add_endpoint("s1");
        let s2 = f.add_endpoint("s2");
        let t = Topic::new("vitals/spo2");
        f.subscribe(s1, t.clone());
        f.subscribe(s2, t.clone());
        f.subscribe(pubr, t.clone()); // publisher also subscribed: must not self-deliver
        let mut r = rng();
        let out = f.publish(pubr, &t, SimTime::ZERO, &mut r);
        let mut tos: Vec<_> = out.iter().map(|d| d.to).collect();
        tos.sort();
        assert_eq!(tos, vec![s1, s2]);
    }

    #[test]
    fn publish_into_reuses_caller_buffer() {
        let mut f = Fabric::new();
        f.set_default_qos(LinkQos::ideal());
        let p = f.add_endpoint("p");
        let s = f.add_endpoint("s");
        let t = Topic::new("x");
        f.subscribe(s, t.clone());
        let mut r = rng();
        let mut buf = Vec::with_capacity(4);
        f.publish_into(p, &t, SimTime::ZERO, &mut r, &mut buf);
        assert_eq!(buf.len(), 1);
        let cap = buf.capacity();
        buf.clear();
        f.publish_into(p, &t, SimTime::ZERO, &mut r, &mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.capacity(), cap, "steady-state publish must not reallocate");
    }

    #[test]
    fn topic_interning_is_dense_and_idempotent() {
        let mut f = Fabric::new();
        let a = Topic::new("a");
        let b = Topic::new("b");
        let ia = f.intern_topic(&a);
        let ib = f.intern_topic(&b);
        assert_eq!(ia.index(), 0);
        assert_eq!(ib.index(), 1);
        assert_eq!(f.intern_topic(&a), ia);
        assert_eq!(f.topic_id(&b), Some(ib));
        assert_eq!(f.topic(ia), &a);
        assert_eq!(f.topic_count(), 2);
        assert_eq!(f.topic_id(&Topic::new("never-seen")), None);
    }

    #[test]
    fn subscriber_sets_stay_sorted_and_deduplicated() {
        let mut f = Fabric::new();
        let eps: Vec<_> = (0..5).map(|i| f.add_endpoint(&format!("e{i}"))).collect();
        let t = Topic::new("t");
        // Subscribe in descending order, with a duplicate.
        for &e in eps.iter().rev() {
            f.subscribe(e, t.clone());
        }
        f.subscribe(eps[2], t.clone());
        assert_eq!(f.subscribers(&t).collect::<Vec<_>>(), eps);
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let mut f = Fabric::new();
        f.set_default_qos(LinkQos::ideal());
        let p = f.add_endpoint("p");
        let s = f.add_endpoint("s");
        let t = Topic::new("x");
        f.subscribe(s, t.clone());
        f.unsubscribe(s, &t);
        let mut r = rng();
        assert!(f.publish(p, &t, SimTime::ZERO, &mut r).is_empty());
        assert_eq!(f.subscribers(&t).count(), 0);
    }

    #[test]
    fn outage_drops_everything_in_window() {
        let (mut f, a, b) = two_endpoint_fabric();
        f.set_link(a, b, LinkQos::ideal());
        f.set_outages(
            a,
            b,
            OutagePlan::none().with_outage(SimTime::from_secs(10), SimTime::from_secs(20)),
        );
        let mut r = rng();
        assert!(f.unicast(a, b, SimTime::from_secs(5), &mut r).is_some());
        assert!(f.unicast(a, b, SimTime::from_secs(15), &mut r).is_none());
        assert!(f.unicast(a, b, SimTime::from_secs(25), &mut r).is_some());
        let s = f.link_stats(a, b);
        assert_eq!((s.sent, s.delivered, s.dropped), (3, 2, 1));
    }

    #[test]
    fn add_outage_appends_instead_of_replacing() {
        let (mut f, a, b) = two_endpoint_fabric();
        f.set_link(a, b, LinkQos::ideal());
        f.set_outages(
            a,
            b,
            OutagePlan::none().with_outage(SimTime::from_secs(10), SimTime::from_secs(20)),
        );
        f.add_outage(a, b, SimTime::from_secs(30), SimTime::from_secs(40));
        let mut r = rng();
        assert!(f.unicast(a, b, SimTime::from_secs(15), &mut r).is_none(), "first window kept");
        assert!(f.unicast(a, b, SimTime::from_secs(25), &mut r).is_some());
        assert!(f.unicast(a, b, SimTime::from_secs(35), &mut r).is_none(), "appended window");
    }

    #[test]
    fn partition_severs_cross_group_links_both_ways_only() {
        let mut f = Fabric::new();
        f.set_default_qos(LinkQos::ideal());
        let a1 = f.add_endpoint("a1");
        let a2 = f.add_endpoint("a2");
        let b1 = f.add_endpoint("b1");
        f.partition(&[a1, a2], &[b1], SimTime::from_secs(100), SimTime::MAX);
        let mut r = rng();
        let now = SimTime::from_secs(150);
        assert!(f.unicast(a1, b1, now, &mut r).is_none(), "a→b severed");
        assert!(f.unicast(b1, a2, now, &mut r).is_none(), "b→a severed");
        assert!(f.unicast(a1, a2, now, &mut r).is_some(), "intra-group link survives");
        assert!(
            f.unicast(a1, b1, SimTime::from_secs(50), &mut r).is_some(),
            "pre-partition traffic flows"
        );
    }

    #[test]
    fn lossy_link_stats_accumulate() {
        let (mut f, a, b) = two_endpoint_fabric();
        f.set_link(a, b, LinkQos::ideal().with_loss(0.5));
        let mut r = rng();
        for _ in 0..1_000 {
            let _ = f.unicast(a, b, SimTime::ZERO, &mut r);
        }
        let s = f.link_stats(a, b);
        assert_eq!(s.sent, 1_000);
        assert!(s.delivery_ratio() > 0.4 && s.delivery_ratio() < 0.6, "{}", s.delivery_ratio());
        assert_eq!(s.delivered + s.dropped, s.sent);
    }

    #[test]
    fn total_stats_merge_links() {
        let mut f = Fabric::new();
        f.set_default_qos(LinkQos::ideal());
        let a = f.add_endpoint("a");
        let b = f.add_endpoint("b");
        let c = f.add_endpoint("c");
        let mut r = rng();
        f.unicast(a, b, SimTime::ZERO, &mut r);
        f.unicast(a, c, SimTime::ZERO, &mut r);
        // A configured-but-unused link must not perturb the aggregate.
        f.set_link(b, c, LinkQos::congested());
        assert_eq!(f.total_stats().sent, 2);
        assert_eq!(f.total_stats().delivered, 2);
    }

    #[test]
    fn late_default_qos_change_applies_to_unconfigured_links() {
        let (mut f, a, b) = two_endpoint_fabric();
        let mut r = rng();
        // Create the link record with a transmission under the initial
        // default, then change the default: the next transmission must
        // see the new default (records without an override track the
        // fabric default at send time, like the reference).
        let _ = f.unicast(a, b, SimTime::ZERO, &mut r);
        f.set_default_qos(LinkQos::ideal().with_latency(SimDuration::from_millis(9)));
        let d = f.unicast(a, b, SimTime::from_secs(1), &mut r).unwrap();
        assert_eq!(d.at, SimTime::from_secs(1) + SimDuration::from_millis(9));
    }

    #[test]
    fn endpoint_names_roundtrip() {
        let (f, a, b) = two_endpoint_fabric();
        assert_eq!(f.endpoint_name(a), "oximeter");
        assert_eq!(f.endpoint_name(b), "supervisor");
        assert_eq!(f.endpoint_count(), 2);
        assert_eq!(a.to_string(), "ep#0");
    }

    #[test]
    #[should_panic(expected = "topic name")]
    fn empty_topic_rejected() {
        let _ = Topic::new("");
    }
}
