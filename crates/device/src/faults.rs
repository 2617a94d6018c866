//! Device fault injection plans.
//!
//! Assurance arguments (experiment E8) require demonstrating that the
//! system fails safe under component faults. A [`FaultPlan`] scripts
//! *when* a device misbehaves and *how*; the ICE actor wrappers consult
//! it before forwarding traffic.
//!
//! Overlapping fault windows are resolved by **severity**: the most
//! disruptive active fault wins (a `Crash` scheduled inside a longer
//! `StuckValue` window crashes the device rather than being masked).
//! Ties between equally severe active faults go to the earliest onset,
//! then to script order.

use mcps_runtime::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// How a faulty device misbehaves.
///
/// Variants carry only integer payloads so the kind stays `Copy`,
/// `Eq` and `Hash` (campaign grids key scorecard cells by kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// The supervisory control process dies: no commands, no heartbeats,
    /// no checkpoints. Only meaningful on a supervisor's fault plan —
    /// devices keep running, which is exactly the hazard (an unattended
    /// interlock). Ranked above `Crash` because losing the controller
    /// dominates losing any single controlled device.
    SupervisorCrash,
    /// The network splits into two groups that cannot reach each other
    /// (links *within* each group stay up). Groups are endpoint-index
    /// bitmasks over the scenario's creation order; the scenario layer
    /// translates them into bidirectional link outages on the fabric.
    Partition {
        /// Bitmask of endpoint indices on side A.
        group_a: u8,
        /// Bitmask of endpoint indices on side B.
        group_b: u8,
    },
    /// The device stops responding entirely (process crash, power loss).
    Crash,
    /// The device stays up but stops publishing data (hung sensor task);
    /// it still honours commands.
    SilentData,
    /// The device keeps publishing the *last* value it measured
    /// (stuck-at fault) — the most insidious failure for a monitor.
    StuckValue,
    /// Sensor calibration drifts: published values accumulate a linear
    /// bias of `bias_milli_per_sec` thousandths of a unit per second of
    /// fault age (negative = downward drift).
    Drift {
        /// Bias accumulation rate, in thousandths of a unit per second.
        bias_milli_per_sec: i32,
    },
    /// Intermittent dropout with a duty cycle: within each `period_ms`
    /// window from onset the device publishes for the first `on_ms`
    /// milliseconds and is silent for the rest.
    Intermittent {
        /// Full duty-cycle period, in milliseconds.
        period_ms: u32,
        /// Publishing (on-phase) prefix of each period, in milliseconds.
        on_ms: u32,
    },
    /// Command acknowledgements are delayed by `delay_ms` (slow device
    /// CPU, queue buildup); commands are still applied immediately.
    DelayedAck {
        /// Ack transmission delay, in milliseconds.
        delay_ms: u32,
    },
    /// Every command acknowledgement is sent twice (retransmit-happy
    /// firmware) — exercises supervisor-side idempotence.
    DuplicateAck,
}

impl FaultKind {
    /// Severity rank used to resolve overlapping fault windows: higher
    /// wins. `Crash` dominates everything (a crashed device cannot
    /// simultaneously publish stuck values), total silence dominates
    /// partial silence, data-plane corruption dominates ack-plane
    /// quirks.
    pub fn severity(self) -> u8 {
        match self {
            FaultKind::SupervisorCrash => 8,
            FaultKind::Partition { .. } => 7,
            FaultKind::Crash => 6,
            FaultKind::SilentData => 5,
            FaultKind::Intermittent { .. } => 4,
            FaultKind::StuckValue => 3,
            FaultKind::Drift { .. } => 2,
            FaultKind::DelayedAck { .. } => 1,
            FaultKind::DuplicateAck => 0,
        }
    }
}

/// A scripted fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScriptedFault {
    /// When the fault manifests.
    pub at: SimTime,
    /// Recovery instant (`None` = permanent).
    pub until: Option<SimTime>,
    /// Failure mode.
    pub kind: FaultKind,
}

impl ScriptedFault {
    /// Whether this fault's window covers `now`.
    fn covers(&self, now: SimTime) -> bool {
        self.at <= now && self.until.is_none_or(|u| now < u)
    }
}

/// The fault schedule of one device.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    faults: Vec<ScriptedFault>,
}

impl FaultPlan {
    /// A device that never fails.
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds a scripted fault.
    ///
    /// # Panics
    ///
    /// Panics if `until` precedes `at`.
    pub fn with_fault(mut self, kind: FaultKind, at: SimTime, until: Option<SimTime>) -> Self {
        if let Some(u) = until {
            assert!(u > at, "fault recovery must follow onset");
        }
        self.faults.push(ScriptedFault { at, until, kind });
        self
    }

    /// The winning scripted fault at `now`: the active fault with the
    /// highest [`FaultKind::severity`], ties broken by earliest onset,
    /// then script order.
    pub fn active_fault(&self, now: SimTime) -> Option<&ScriptedFault> {
        let mut best: Option<&ScriptedFault> = None;
        for f in self.faults.iter().filter(|f| f.covers(now)) {
            best = match best {
                None => Some(f),
                Some(b) if f.kind.severity() > b.kind.severity() => Some(f),
                Some(b) if f.kind.severity() == b.kind.severity() && f.at < b.at => Some(f),
                keep => keep,
            };
        }
        best
    }

    /// The active fault kind at `now`, if any (severity-resolved).
    pub fn active(&self, now: SimTime) -> Option<FaultKind> {
        self.active_fault(now).map(|f| f.kind)
    }

    /// Whether the device is crashed at `now`.
    pub fn is_crashed(&self, now: SimTime) -> bool {
        self.active(now) == Some(FaultKind::Crash)
    }

    /// Whether data publication is suppressed at `now` (crash,
    /// silent-data, or the off-phase of an intermittent dropout).
    pub fn is_data_suppressed(&self, now: SimTime) -> bool {
        match self.active_fault(now) {
            Some(f) => match f.kind {
                FaultKind::Crash | FaultKind::SilentData => true,
                FaultKind::Intermittent { period_ms, on_ms } => {
                    // Degenerate periods (0) are treated as fully silent.
                    let period = u64::from(period_ms.max(1));
                    let phase = now.saturating_since(f.at).as_millis() % period;
                    phase >= u64::from(on_ms)
                }
                _ => false,
            },
            None => false,
        }
    }

    /// Whether the device publishes stale stuck values at `now`.
    pub fn is_stuck(&self, now: SimTime) -> bool {
        self.active(now) == Some(FaultKind::StuckValue)
    }

    /// The additive bias applied to published sensor values at `now`
    /// (zero unless a [`FaultKind::Drift`] fault wins).
    pub fn value_bias(&self, now: SimTime) -> f64 {
        match self.active_fault(now) {
            Some(f) => match f.kind {
                FaultKind::Drift { bias_milli_per_sec } => {
                    let age = now.saturating_since(f.at).as_secs_f64();
                    age * f64::from(bias_milli_per_sec) / 1000.0
                }
                _ => 0.0,
            },
            None => 0.0,
        }
    }

    /// How long command acks are delayed at `now` (`None` = no delay).
    pub fn ack_delay(&self, now: SimTime) -> Option<SimDuration> {
        match self.active(now) {
            Some(FaultKind::DelayedAck { delay_ms }) => {
                Some(SimDuration::from_millis(u64::from(delay_ms)))
            }
            _ => None,
        }
    }

    /// Whether command acks are duplicated at `now`.
    pub fn ack_duplicated(&self, now: SimTime) -> bool {
        self.active(now) == Some(FaultKind::DuplicateAck)
    }

    /// All scripted faults.
    pub fn faults(&self) -> &[ScriptedFault] {
        &self.faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn no_faults_means_healthy_forever() {
        let p = FaultPlan::none();
        assert_eq!(p.active(t(1_000_000)), None);
        assert!(!p.is_crashed(t(0)));
    }

    #[test]
    fn transient_fault_window() {
        let p = FaultPlan::none().with_fault(FaultKind::SilentData, t(100), Some(t(200)));
        assert!(!p.is_data_suppressed(t(99)));
        assert!(p.is_data_suppressed(t(100)));
        assert!(p.is_data_suppressed(t(199)));
        assert!(!p.is_data_suppressed(t(200)));
        assert!(!p.is_crashed(t(150)), "silent-data is not a crash");
    }

    #[test]
    fn permanent_crash() {
        let p = FaultPlan::none().with_fault(FaultKind::Crash, t(50), None);
        assert!(p.is_crashed(t(50)));
        assert!(p.is_crashed(t(1_000_000)));
        assert!(p.is_data_suppressed(t(60)));
    }

    #[test]
    fn stuck_value_detection() {
        let p = FaultPlan::none().with_fault(FaultKind::StuckValue, t(10), Some(t(20)));
        assert!(p.is_stuck(t(15)));
        assert!(!p.is_data_suppressed(t(15)), "stuck devices still publish");
    }

    #[test]
    #[should_panic(expected = "recovery must follow onset")]
    fn inverted_window_rejected() {
        let _ = FaultPlan::none().with_fault(FaultKind::Crash, t(10), Some(t(10)));
    }

    /// Regression: `active` used to be first-match-wins, so a `Crash`
    /// scheduled *inside* an earlier still-active `StuckValue` window
    /// was silently ignored. Severity resolution must surface the
    /// crash, then fall back to the stuck window once it recovers.
    #[test]
    fn crash_inside_stuck_window_wins_by_severity() {
        let p = FaultPlan::none()
            .with_fault(FaultKind::StuckValue, t(10), Some(t(100)))
            .with_fault(FaultKind::Crash, t(20), Some(t(30)));
        assert_eq!(p.active(t(15)), Some(FaultKind::StuckValue));
        assert_eq!(p.active(t(25)), Some(FaultKind::Crash), "crash must not be masked");
        assert!(p.is_crashed(t(25)));
        assert!(p.is_data_suppressed(t(25)));
        assert_eq!(p.active(t(30)), Some(FaultKind::StuckValue), "stuck resumes after recovery");
        assert_eq!(p.active(t(100)), None);
    }

    #[test]
    fn severity_ordering_is_total_and_crash_dominant() {
        let kinds = [
            FaultKind::SupervisorCrash,
            FaultKind::Partition { group_a: 0b1000, group_b: 0b0111 },
            FaultKind::Crash,
            FaultKind::SilentData,
            FaultKind::Intermittent { period_ms: 1000, on_ms: 100 },
            FaultKind::StuckValue,
            FaultKind::Drift { bias_milli_per_sec: -50 },
            FaultKind::DelayedAck { delay_ms: 500 },
            FaultKind::DuplicateAck,
        ];
        for w in kinds.windows(2) {
            assert!(w[0].severity() > w[1].severity(), "{:?} !> {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn equal_severity_ties_go_to_earliest_onset() {
        let p = FaultPlan::none().with_fault(FaultKind::SilentData, t(20), Some(t(40))).with_fault(
            FaultKind::SilentData,
            t(10),
            Some(t(30)),
        );
        assert_eq!(p.active_fault(t(25)).unwrap().at, t(10));
    }

    #[test]
    fn drift_bias_accumulates_linearly() {
        let p = FaultPlan::none().with_fault(
            FaultKind::Drift { bias_milli_per_sec: -50 },
            t(100),
            Some(t(200)),
        );
        assert_eq!(p.value_bias(t(99)), 0.0);
        assert!((p.value_bias(t(100))).abs() < 1e-9);
        assert!((p.value_bias(t(120)) - (-1.0)).abs() < 1e-9, "20 s at -50 milli/s = -1.0");
        assert_eq!(p.value_bias(t(200)), 0.0, "bias stops at recovery");
        assert!(!p.is_data_suppressed(t(150)), "drifting devices still publish");
    }

    #[test]
    fn intermittent_duty_cycle_phases() {
        let p = FaultPlan::none().with_fault(
            FaultKind::Intermittent { period_ms: 30_000, on_ms: 5_000 },
            t(100),
            None,
        );
        assert!(!p.is_data_suppressed(t(99)));
        assert!(!p.is_data_suppressed(t(100)), "on-phase starts at onset");
        assert!(!p.is_data_suppressed(t(104)));
        assert!(p.is_data_suppressed(t(105)), "off-phase after on_ms");
        assert!(p.is_data_suppressed(t(129)));
        assert!(!p.is_data_suppressed(t(130)), "next period starts publishing again");
    }

    #[test]
    fn ack_fault_queries() {
        let p = FaultPlan::none()
            .with_fault(FaultKind::DelayedAck { delay_ms: 1500 }, t(10), Some(t(20)))
            .with_fault(FaultKind::DuplicateAck, t(30), Some(t(40)));
        assert_eq!(p.ack_delay(t(15)), Some(SimDuration::from_millis(1500)));
        assert_eq!(p.ack_delay(t(25)), None);
        assert!(p.ack_duplicated(t(35)));
        assert!(!p.ack_duplicated(t(15)));
        assert!(!p.is_data_suppressed(t(15)), "ack faults leave the data plane alone");
    }
}
