//! Link quality-of-service models.
//!
//! The paper's interoperability agenda hinges on the network between
//! devices and supervisor being an explicit, unreliable component whose
//! failure modes the system design must tolerate. [`LinkQos`] is a
//! parametric model of one directed link: base latency, jitter, loss
//! and scheduled outages.

use mcps_runtime::rng::{bernoulli, normal};
use mcps_runtime::time::{SimDuration, SimTime};
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Stochastic delivery model of a directed link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkQos {
    /// Median one-way latency.
    pub base_latency: SimDuration,
    /// Standard deviation of Gaussian jitter (truncated at zero delay).
    pub jitter: SimDuration,
    /// Independent per-message loss probability (0–1).
    pub loss_prob: f64,
}

impl LinkQos {
    /// A perfect link: zero latency, zero jitter, zero loss.
    pub const fn ideal() -> Self {
        LinkQos { base_latency: SimDuration::ZERO, jitter: SimDuration::ZERO, loss_prob: 0.0 }
    }

    /// A dedicated wired clinical network: 2 ms ± 0.5 ms, no loss.
    pub const fn wired() -> Self {
        LinkQos {
            base_latency: SimDuration::from_millis(2),
            jitter: SimDuration::from_micros(500),
            loss_prob: 0.0,
        }
    }

    /// Shared hospital Wi-Fi: 20 ms ± 10 ms, 1 % loss.
    pub const fn wifi() -> Self {
        LinkQos {
            base_latency: SimDuration::from_millis(20),
            jitter: SimDuration::from_millis(10),
            loss_prob: 0.01,
        }
    }

    /// A badly congested segment: 250 ms ± 120 ms, 10 % loss.
    pub const fn congested() -> Self {
        LinkQos {
            base_latency: SimDuration::from_millis(250),
            jitter: SimDuration::from_millis(120),
            loss_prob: 0.10,
        }
    }

    /// Builder-style latency override.
    pub fn with_latency(mut self, latency: SimDuration) -> Self {
        self.base_latency = latency;
        self
    }

    /// Builder-style jitter override.
    pub fn with_jitter(mut self, jitter: SimDuration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Builder-style loss override (clamped to `[0, 1]`).
    pub fn with_loss(mut self, loss_prob: f64) -> Self {
        self.loss_prob = loss_prob.clamp(0.0, 1.0);
        self
    }

    /// Samples the fate of one message sent at `now`.
    #[inline]
    pub fn sample(&self, now: SimTime, rng: &mut impl RngCore) -> Delivery {
        if bernoulli(rng, self.loss_prob) {
            return Delivery::Dropped;
        }
        let jitter_s =
            if self.jitter.is_zero() { 0.0 } else { normal(rng, 0.0, self.jitter.as_secs_f64()) };
        let delay_s = (self.base_latency.as_secs_f64() + jitter_s).max(0.0);
        Delivery::Deliver { at: now + SimDuration::from_secs_f64(delay_s) }
    }
}

impl Default for LinkQos {
    fn default() -> Self {
        LinkQos::wired()
    }
}

/// Outcome of one transmission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Delivery {
    /// The message arrives at the given instant.
    Deliver {
        /// Arrival time.
        at: SimTime,
    },
    /// The message is lost.
    Dropped,
}

/// Scheduled total outages of a link (maintenance, partition, roaming).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OutagePlan {
    windows: Vec<(SimTime, SimTime)>,
}

impl OutagePlan {
    /// No outages.
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds an outage on `[from, to)`.
    ///
    /// # Panics
    ///
    /// Panics if `from >= to`.
    pub fn with_outage(mut self, from: SimTime, to: SimTime) -> Self {
        assert!(from < to, "outage window must have positive length");
        self.windows.push((from, to));
        self
    }

    /// Whether the link is down at `t`.
    #[inline]
    pub fn is_down(&self, t: SimTime) -> bool {
        self.windows.iter().any(|&(a, b)| a <= t && t < b)
    }

    /// The scheduled windows.
    pub fn windows(&self) -> &[(SimTime, SimTime)] {
        &self.windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcps_runtime::rng::RngFactory;

    fn rng() -> mcps_runtime::rng::SimRng {
        RngFactory::new(5).stream("qos")
    }

    #[test]
    fn ideal_link_is_instant_and_lossless() {
        let mut r = rng();
        let q = LinkQos::ideal();
        for _ in 0..100 {
            assert_eq!(
                q.sample(SimTime::from_secs(1), &mut r),
                Delivery::Deliver { at: SimTime::from_secs(1) }
            );
        }
    }

    #[test]
    fn loss_rate_matches_config() {
        let mut r = rng();
        let q = LinkQos::ideal().with_loss(0.2);
        let n = 20_000;
        let dropped =
            (0..n).filter(|_| q.sample(SimTime::ZERO, &mut r) == Delivery::Dropped).count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "loss rate {rate}");
    }

    #[test]
    fn latency_centres_on_base() {
        let mut r = rng();
        let q = LinkQos::wired();
        let mut total = 0.0;
        let n = 5_000;
        for _ in 0..n {
            match q.sample(SimTime::ZERO, &mut r) {
                Delivery::Deliver { at } => total += at.as_secs_f64(),
                Delivery::Dropped => panic!("wired link should not drop"),
            }
        }
        let mean_ms = total / n as f64 * 1e3;
        assert!((mean_ms - 2.0).abs() < 0.2, "mean latency {mean_ms} ms");
    }

    #[test]
    fn delay_never_negative() {
        let mut r = rng();
        let q = LinkQos::ideal()
            .with_latency(SimDuration::from_millis(1))
            .with_jitter(SimDuration::from_millis(50));
        let now = SimTime::from_secs(3);
        for _ in 0..2_000 {
            if let Delivery::Deliver { at } = q.sample(now, &mut r) {
                assert!(at >= now);
            }
        }
    }

    #[test]
    fn outage_plan_windows() {
        let plan = OutagePlan::none()
            .with_outage(SimTime::from_secs(10), SimTime::from_secs(20))
            .with_outage(SimTime::from_secs(30), SimTime::from_secs(31));
        assert!(!plan.is_down(SimTime::from_secs(9)));
        assert!(plan.is_down(SimTime::from_secs(10)));
        assert!(plan.is_down(SimTime::from_secs(19)));
        assert!(!plan.is_down(SimTime::from_secs(20)));
        assert!(plan.is_down(SimTime::from_secs(30)));
        assert_eq!(plan.windows().len(), 2);
    }

    #[test]
    #[should_panic(expected = "positive length")]
    fn empty_outage_rejected() {
        let _ = OutagePlan::none().with_outage(SimTime::from_secs(5), SimTime::from_secs(5));
    }

    #[test]
    fn builder_clamps_loss() {
        assert_eq!(LinkQos::ideal().with_loss(7.0).loss_prob, 1.0);
        assert_eq!(LinkQos::ideal().with_loss(-1.0).loss_prob, 0.0);
    }
}
