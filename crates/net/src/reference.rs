//! The reference routing implementation.
//!
//! [`ReferenceFabric`] is the original string-keyed, `BTreeMap`-routed
//! fabric, kept as the behavioural baseline for the dense-routed
//! [`Fabric`](crate::fabric::Fabric): same endpoints, links, outages,
//! topics and statistics, but every lookup walks an ordered tree
//! instead of indexing a packed table. Property tests
//! (`tests/dense_vs_reference.rs`) drive both implementations with
//! identical operation sequences and require identical planned
//! deliveries, identical RNG consumption and identical [`LinkStats`] —
//! the dense engine is an optimisation, never a behaviour change.
//!
//! Keep this module boring: it exists to be obviously correct, not
//! fast.

use crate::fabric::{EndpointId, LinkStats, PlannedDelivery, Topic};
use crate::qos::{Delivery, LinkQos, OutagePlan};
use mcps_runtime::time::SimTime;
use rand::RngCore;
use std::collections::{BTreeMap, BTreeSet};

/// Tree-routed fabric: the pre-optimisation implementation.
#[derive(Debug, Clone, Default)]
pub struct ReferenceFabric {
    names: Vec<String>,
    default_qos: LinkQos,
    links: BTreeMap<(EndpointId, EndpointId), LinkQos>,
    outages: BTreeMap<(EndpointId, EndpointId), OutagePlan>,
    subs: BTreeMap<Topic, BTreeSet<EndpointId>>,
    stats: BTreeMap<(EndpointId, EndpointId), LinkStats>,
}

impl ReferenceFabric {
    /// An empty fabric whose unspecified links use [`LinkQos::wired`].
    pub fn new() -> Self {
        ReferenceFabric::default()
    }

    /// Sets the QoS used by links without an explicit override.
    pub fn set_default_qos(&mut self, qos: LinkQos) {
        self.default_qos = qos;
    }

    /// Registers an endpoint.
    pub fn add_endpoint(&mut self, name: &str) -> EndpointId {
        let id =
            EndpointId::from_index(u32::try_from(self.names.len()).expect("too many endpoints"));
        self.names.push(name.to_owned());
        id
    }

    /// Overrides QoS on the directed link `from → to`.
    pub fn set_link(&mut self, from: EndpointId, to: EndpointId, qos: LinkQos) {
        self.links.insert((from, to), qos);
    }

    /// Installs an outage plan on the directed link `from → to`.
    pub fn set_outages(&mut self, from: EndpointId, to: EndpointId, plan: OutagePlan) {
        self.outages.insert((from, to), plan);
    }

    /// The effective QoS of `from → to`.
    pub fn link_qos(&self, from: EndpointId, to: EndpointId) -> LinkQos {
        self.links.get(&(from, to)).copied().unwrap_or(self.default_qos)
    }

    /// Subscribes `endpoint` to `topic`.
    pub fn subscribe(&mut self, endpoint: EndpointId, topic: Topic) {
        self.subs.entry(topic).or_default().insert(endpoint);
    }

    /// Removes a subscription (no-op if absent).
    pub fn unsubscribe(&mut self, endpoint: EndpointId, topic: &Topic) {
        if let Some(set) = self.subs.get_mut(topic) {
            set.remove(&endpoint);
        }
    }

    /// Current subscribers of `topic` in ascending id order.
    pub fn subscribers(&self, topic: &Topic) -> impl Iterator<Item = EndpointId> + '_ {
        self.subs.get(topic).into_iter().flat_map(|s| s.iter().copied())
    }

    /// Plans the transmission of one unicast message sent at `now`.
    /// Returns `None` if the message is lost (loss or outage);
    /// statistics are updated either way.
    pub fn unicast(
        &mut self,
        from: EndpointId,
        to: EndpointId,
        now: SimTime,
        rng: &mut impl RngCore,
    ) -> Option<PlannedDelivery> {
        // One stats walk per message: the entry is fetched once and the
        // outcome recorded on it, instead of re-walking the tree per
        // counter. QoS resolution goes through the one `link_qos`
        // definition of the default fallback.
        let down = self.outages.get(&(from, to)).is_some_and(|p| p.is_down(now));
        let qos = self.links.get(&(from, to)).copied().unwrap_or(self.default_qos);
        let stats = self.stats.entry((from, to)).or_default();
        stats.sent += 1;
        if down {
            stats.dropped += 1;
            return None;
        }
        match qos.sample(now, rng) {
            Delivery::Deliver { at } => {
                stats.delivered += 1;
                stats.latency.push((at - now).as_secs_f64());
                Some(PlannedDelivery { to, at })
            }
            Delivery::Dropped => {
                stats.dropped += 1;
                None
            }
        }
    }

    /// Plans delivery of a published message to every subscriber of
    /// `topic` except the publisher itself.
    pub fn publish(
        &mut self,
        from: EndpointId,
        topic: &Topic,
        now: SimTime,
        rng: &mut impl RngCore,
    ) -> Vec<PlannedDelivery> {
        let receivers: Vec<EndpointId> = self
            .subs
            .get(topic)
            .map(|s| s.iter().copied().filter(|&e| e != from).collect())
            .unwrap_or_default();
        receivers.into_iter().filter_map(|to| self.unicast(from, to, now, rng)).collect()
    }

    /// Statistics of the directed link `from → to`.
    pub fn link_stats(&self, from: EndpointId, to: EndpointId) -> LinkStats {
        self.stats.get(&(from, to)).copied().unwrap_or_default()
    }

    /// Aggregate statistics over all links, merged in ascending
    /// `(from, to)` order.
    pub fn total_stats(&self) -> LinkStats {
        let mut total = LinkStats::default();
        for s in self.stats.values() {
            total.sent += s.sent;
            total.delivered += s.delivered;
            total.dropped += s.dropped;
            total.latency.merge(&s.latency);
        }
        total
    }
}
