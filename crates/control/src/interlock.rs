//! The PCA safety-interlock supervisor algorithm.
//!
//! The paper's flagship closed-loop scenario: a supervisor watches the
//! pulse oximeter and capnograph and revokes the PCA pump's permission
//! to infuse when the patient shows respiratory depression — breaking
//! the overdose causal chain that the pump alone cannot see.
//!
//! Two enforcement strategies are implemented (the E4/E5 ablation):
//!
//! * **Command** — on danger, send an explicit `StopPump`; trusts the
//!   network to deliver it.
//! * **Ticket** — the pump only runs while it holds a short-lived
//!   permission ticket; the supervisor keeps granting tickets *while
//!   everything is provably fine* and simply stops granting on danger
//!   or stale data. Loss of connectivity fails safe by construction.
//!
//! The supervisor is a pure state machine: feed it measurements and
//! clock ticks, collect [`InterlockAction`]s to forward to the pump.

use mcps_alarms::fusion::FusionAlarm;
use mcps_alarms::plausibility::{FlatlineConfig, PlausibilityMonitor};
use mcps_alarms::threshold::ThresholdAlarm;
use mcps_alarms::trend::{DeteriorationTrend, TrendConfig};
use mcps_patient::vitals::VitalKind;
use mcps_runtime::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Enforcement strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InterlockStrategy {
    /// Explicit stop/resume commands.
    Command,
    /// Periodic permission tickets; silence fails safe.
    Ticket {
        /// How long each granted ticket remains valid.
        validity: SimDuration,
        /// How often a fresh ticket is granted while safe.
        period: SimDuration,
    },
}

/// Which detector decides "danger".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetectorKind {
    /// Single-parameter threshold rules (baseline).
    Threshold,
    /// Multi-parameter fusion (smart alarm).
    Fusion,
    /// Fusion plus slope-based early deterioration detection.
    FusionWithTrend,
}

/// Supervisor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterlockConfig {
    /// Enforcement strategy.
    pub strategy: InterlockStrategy,
    /// Danger detector.
    pub detector: DetectorKind,
    /// A vital stream older than this is *stale*; stale required data
    /// is treated as danger (fail-safe on silence).
    pub freshness_timeout: SimDuration,
    /// After danger clears, wait this long before resuming/regranting
    /// (hysteresis against flapping).
    pub resume_holdoff: SimDuration,
    /// The vital streams the interlock requires to consider the
    /// patient observable. SpO₂ and respiratory rate by default.
    pub required_streams: [Option<VitalKind>; 4],
    /// Enables flatline/plausibility screening: a required stream whose
    /// values are frozen (a stuck sensor republishing stale data with
    /// fresh timestamps) is treated like stale data. Off by default to
    /// keep the E8 ablation honest; the safe deployment turns it on.
    pub plausibility_check: bool,
}

impl Default for InterlockConfig {
    fn default() -> Self {
        InterlockConfig {
            strategy: InterlockStrategy::Ticket {
                validity: SimDuration::from_secs(15),
                period: SimDuration::from_secs(5),
            },
            detector: DetectorKind::Fusion,
            freshness_timeout: SimDuration::from_secs(10),
            resume_holdoff: SimDuration::from_mins(5),
            required_streams: [Some(VitalKind::Spo2), Some(VitalKind::RespRate), None, None],
            plausibility_check: false,
        }
    }
}

/// An action the supervisor wants delivered to the pump.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InterlockAction {
    /// Halt infusion immediately.
    StopPump,
    /// Resume infusion.
    ResumePump,
    /// Grant a permission ticket of the given validity.
    GrantTicket {
        /// Ticket lifetime.
        validity: SimDuration,
    },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Detector {
    Threshold(ThresholdAlarm),
    Fusion(FusionAlarm),
    FusionTrend(FusionAlarm, DeteriorationTrend),
}

impl Detector {
    fn observe(&mut self, now: SimTime, values: &BTreeMap<VitalKind, f64>) {
        match self {
            Detector::Threshold(t) => {
                let _ = t.observe(now, values);
            }
            Detector::Fusion(f) => {
                let _ = f.observe(now, values);
            }
            Detector::FusionTrend(f, trend) => {
                let _ = f.observe(now, values);
                for (&kind, &v) in values {
                    trend.observe(now, kind, v);
                }
            }
        }
    }

    fn danger(&self) -> bool {
        match self {
            Detector::Threshold(t) => t.any_active(),
            Detector::Fusion(f) => f.is_active(),
            Detector::FusionTrend(f, trend) => f.is_active() || trend.is_deteriorating(),
        }
    }
}

/// Why the interlock currently denies permission (diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DenyReason {
    /// Detector reports clinical danger.
    Danger,
    /// Required data is stale or absent.
    StaleData,
    /// Required data is implausible (stuck sensor).
    ImplausibleData,
    /// In the post-danger holdoff window.
    Holdoff,
}

/// The interlock supervisor state machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PcaInterlock {
    config: InterlockConfig,
    detector: Detector,
    /// Last arrival and value per stream: the detector's input and the
    /// freshness check's clock.
    latest: BTreeMap<VitalKind, (SimTime, f64)>,
    plausibility: PlausibilityMonitor,
    pump_stopped: bool,
    danger_cleared_at: Option<SimTime>,
    last_grant: Option<SimTime>,
    last_command_sent: Option<SimTime>,
    stops_issued: u32,
    grants_issued: u64,
}

/// How often command-mode stop/resume orders are re-sent while their
/// condition persists (commands may be lost in the network; re-sending
/// converts loss into latency).
const COMMAND_RESEND: SimDuration = SimDuration::from_secs(2);

impl PcaInterlock {
    /// Creates a supervisor.
    pub fn new(config: InterlockConfig) -> Self {
        let detector = match config.detector {
            DetectorKind::Threshold => Detector::Threshold(ThresholdAlarm::pca_default()),
            DetectorKind::Fusion => Detector::Fusion(FusionAlarm::pca_default()),
            DetectorKind::FusionWithTrend => Detector::FusionTrend(
                FusionAlarm::pca_default(),
                DeteriorationTrend::new(TrendConfig::default()),
            ),
        };
        PcaInterlock {
            detector,
            latest: BTreeMap::new(),
            plausibility: PlausibilityMonitor::new(FlatlineConfig::default()),
            pump_stopped: false,
            danger_cleared_at: None,
            last_grant: None,
            last_command_sent: None,
            stops_issued: 0,
            grants_issued: 0,
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &InterlockConfig {
        &self.config
    }

    /// Records an arriving measurement.
    pub fn on_measurement(&mut self, now: SimTime, kind: VitalKind, value: f64) {
        self.latest.insert(kind, (now, value));
        if self.config.plausibility_check {
            self.plausibility.observe(now, kind, value);
        }
    }

    /// Whether any *required* stream is currently implausible (stuck).
    pub fn data_implausible(&self) -> bool {
        if !self.config.plausibility_check {
            return false;
        }
        let stuck = self.plausibility.implausible();
        self.config.required_streams.iter().flatten().any(|k| stuck.contains(k))
    }

    /// Whether any *required* stream is stale at `now`. A stream that
    /// has never arrived is stale: absence of data must fail safe.
    pub fn data_stale(&self, now: SimTime) -> bool {
        self.config.required_streams.iter().flatten().any(|k| {
            self.latest
                .get(k)
                .is_none_or(|&(t, _)| now.saturating_since(t) > self.config.freshness_timeout)
        })
    }

    /// Current deny reason, if permission is being withheld.
    pub fn deny_reason(&self, now: SimTime) -> Option<DenyReason> {
        if self.detector.danger() {
            Some(DenyReason::Danger)
        } else if self.data_stale(now) {
            Some(DenyReason::StaleData)
        } else if self.data_implausible() {
            Some(DenyReason::ImplausibleData)
        } else if let Some(cleared) = self.danger_cleared_at {
            if now.saturating_since(cleared) < self.config.resume_holdoff {
                Some(DenyReason::Holdoff)
            } else {
                None
            }
        } else {
            None
        }
    }

    /// Periodic decision step; call at the supervisor's control rate
    /// (e.g. 1 Hz). Returns the actions to transmit to the pump.
    pub fn on_tick(&mut self, now: SimTime) -> Vec<InterlockAction> {
        // Feed the detector only fresh values.
        let fresh: BTreeMap<VitalKind, f64> = self
            .latest
            .iter()
            .filter(|(_, (t, _))| now.saturating_since(*t) <= self.config.freshness_timeout)
            .map(|(k, (_, v))| (*k, *v))
            .collect();
        let was_danger = self.detector.danger();
        self.detector.observe(now, &fresh);
        let danger = self.detector.danger();
        if was_danger && !danger {
            self.danger_cleared_at = Some(now);
        }

        let deny = self.deny_reason(now);
        let mut actions = Vec::new();
        match self.config.strategy {
            InterlockStrategy::Command => match deny {
                Some(DenyReason::Danger | DenyReason::StaleData | DenyReason::ImplausibleData) => {
                    // Level-triggered: re-send the stop while the
                    // condition persists, so a lost packet only delays
                    // (rather than defeats) the interlock.
                    let due = self
                        .last_command_sent
                        .is_none_or(|t| now.saturating_since(t) >= COMMAND_RESEND);
                    if !self.pump_stopped {
                        self.stops_issued += 1;
                    }
                    if !self.pump_stopped || due {
                        self.pump_stopped = true;
                        self.last_command_sent = Some(now);
                        actions.push(InterlockAction::StopPump);
                    }
                }
                Some(DenyReason::Holdoff) => {}
                None => {
                    let due = self
                        .last_command_sent
                        .is_none_or(|t| now.saturating_since(t) >= COMMAND_RESEND);
                    if self.pump_stopped && due {
                        // Re-send resume as well; once the condition has
                        // been clear for a full holdoff + resend cycle we
                        // assume delivery (the pump also acks upstream).
                        self.last_command_sent = Some(now);
                        self.pump_stopped = false;
                        actions.push(InterlockAction::ResumePump);
                    }
                }
            },
            InterlockStrategy::Ticket { validity, period } => {
                if deny.is_none() {
                    let due = self.last_grant.is_none_or(|t| now.saturating_since(t) >= period);
                    if due {
                        self.last_grant = Some(now);
                        self.grants_issued += 1;
                        actions.push(InterlockAction::GrantTicket { validity });
                    }
                }
            }
        }
        actions
    }

    /// Stop commands issued so far (command strategy).
    pub fn stops_issued(&self) -> u32 {
        self.stops_issued
    }

    /// Tickets granted so far (ticket strategy).
    pub fn grants_issued(&self) -> u64 {
        self.grants_issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn feed_healthy(il: &mut PcaInterlock, now: u64) {
        il.on_measurement(t(now), VitalKind::Spo2, 97.0);
        il.on_measurement(t(now), VitalKind::RespRate, 14.0);
        il.on_measurement(t(now), VitalKind::Etco2, 38.0);
        il.on_measurement(t(now), VitalKind::HeartRate, 72.0);
    }

    fn feed_depressed(il: &mut PcaInterlock, now: u64) {
        // Correlated respiratory depression.
        il.on_measurement(t(now), VitalKind::Spo2, 86.0);
        il.on_measurement(t(now), VitalKind::RespRate, 5.0);
        il.on_measurement(t(now), VitalKind::Etco2, 60.0);
        il.on_measurement(t(now), VitalKind::HeartRate, 80.0);
    }

    fn feed_gradual_depression(
        il: &mut PcaInterlock,
        start: u64,
        steps: u64,
    ) -> Vec<(u64, Vec<InterlockAction>)> {
        let mut out = Vec::new();
        for i in 0..steps {
            let k = i as f64 / steps as f64;
            let now = start + i;
            il.on_measurement(t(now), VitalKind::Spo2, 97.0 - 11.0 * k);
            il.on_measurement(t(now), VitalKind::RespRate, 14.0 - 9.0 * k);
            il.on_measurement(t(now), VitalKind::Etco2, 38.0 + 22.0 * k);
            il.on_measurement(t(now), VitalKind::HeartRate, 72.0);
            out.push((now, il.on_tick(t(now))));
        }
        out
    }

    #[test]
    fn ticket_mode_grants_while_healthy() {
        let mut il = PcaInterlock::new(InterlockConfig::default());
        let mut grants = 0;
        for s in 0..60 {
            feed_healthy(&mut il, s);
            for a in il.on_tick(t(s)) {
                if matches!(a, InterlockAction::GrantTicket { .. }) {
                    grants += 1;
                }
            }
        }
        // period 5 s over 60 s ⇒ ~12 grants.
        assert!((10..=13).contains(&grants), "grants={grants}");
    }

    #[test]
    fn ticket_mode_stops_granting_on_danger() {
        let mut il = PcaInterlock::new(InterlockConfig::default());
        for s in 0..20 {
            feed_healthy(&mut il, s);
            il.on_tick(t(s));
        }
        let actions = feed_gradual_depression(&mut il, 20, 120);
        let last_grant = actions
            .iter()
            .filter(|(_, a)| a.iter().any(|x| matches!(x, InterlockAction::GrantTicket { .. })))
            .map(|(s, _)| *s)
            .max()
            .unwrap();
        // Granting must cease once danger is detected (well before the end).
        assert!(last_grant < 130, "grants persisted to {last_grant}");
        assert_eq!(il.deny_reason(t(140)), Some(DenyReason::Danger));
    }

    #[test]
    fn ticket_mode_stops_granting_on_stale_data() {
        let mut il = PcaInterlock::new(InterlockConfig::default());
        for s in 0..10 {
            feed_healthy(&mut il, s);
            il.on_tick(t(s));
        }
        // Data stops arriving entirely (network partition).
        let mut grants_after_timeout = 0;
        for s in 10..60 {
            for a in il.on_tick(t(s)) {
                if matches!(a, InterlockAction::GrantTicket { .. }) && s > 21 {
                    grants_after_timeout += 1;
                }
            }
        }
        assert_eq!(grants_after_timeout, 0, "no grants on stale data");
        assert_eq!(il.deny_reason(t(30)), Some(DenyReason::StaleData));
    }

    #[test]
    fn command_mode_stops_on_danger_and_resumes_after_holdoff() {
        let cfg = InterlockConfig {
            strategy: InterlockStrategy::Command,
            resume_holdoff: SimDuration::from_secs(30),
            ..InterlockConfig::default()
        };
        let mut il = PcaInterlock::new(cfg);
        for s in 0..10 {
            feed_healthy(&mut il, s);
            il.on_tick(t(s));
        }
        // Sudden but *corroborated* deterioration.
        let mut stopped_at = None;
        for s in 10..200 {
            feed_depressed(&mut il, s);
            for a in il.on_tick(t(s)) {
                if a == InterlockAction::StopPump {
                    stopped_at = Some(s);
                }
            }
            if stopped_at.is_some() {
                break;
            }
        }
        let stopped_at = stopped_at.expect("must stop");
        // Recovery: healthy data again.
        let mut resumed_at = None;
        for s in stopped_at + 1..stopped_at + 300 {
            feed_healthy(&mut il, s);
            for a in il.on_tick(t(s)) {
                if a == InterlockAction::ResumePump {
                    resumed_at = Some(s);
                }
            }
            if resumed_at.is_some() {
                break;
            }
        }
        let resumed_at = resumed_at.expect("must resume eventually");
        assert!(resumed_at > stopped_at + 30, "holdoff respected: {stopped_at} → {resumed_at}");
        assert_eq!(il.stops_issued(), 1);
    }

    #[test]
    fn command_mode_stops_on_silence() {
        let cfg =
            InterlockConfig { strategy: InterlockStrategy::Command, ..InterlockConfig::default() };
        let mut il = PcaInterlock::new(cfg);
        for s in 0..5 {
            feed_healthy(&mut il, s);
            il.on_tick(t(s));
        }
        let mut stop = false;
        for s in 5..40 {
            stop |= il.on_tick(t(s)).contains(&InterlockAction::StopPump);
        }
        assert!(stop, "silence must stop the pump in command mode too");
    }

    #[test]
    fn never_grants_before_first_data() {
        let mut il = PcaInterlock::new(InterlockConfig::default());
        for s in 0..30 {
            assert!(il.on_tick(t(s)).is_empty(), "no data ⇒ no permission");
        }
    }

    #[test]
    fn plausibility_check_catches_stuck_sensor() {
        let cfg = InterlockConfig { plausibility_check: true, ..InterlockConfig::default() };
        let mut il = PcaInterlock::new(cfg);
        // Healthy, *varying* data: grants flow.
        for s in 0..40 {
            il.on_measurement(t(s), VitalKind::Spo2, 96.0 + (s % 3) as f64 * 0.5);
            il.on_measurement(t(s), VitalKind::RespRate, 13.0 + (s % 2) as f64);
            il.on_tick(t(s));
        }
        assert_eq!(il.deny_reason(t(39)), None);
        // The sensor freezes: identical values keep arriving with
        // fresh timestamps (so freshness stays green).
        let mut granted_after_detect = 0;
        for s in 40..120 {
            il.on_measurement(t(s), VitalKind::Spo2, 96.5);
            il.on_measurement(t(s), VitalKind::RespRate, 13.0);
            for a in il.on_tick(t(s)) {
                if matches!(a, InterlockAction::GrantTicket { .. }) && s > 80 {
                    granted_after_detect += 1;
                }
            }
        }
        assert!(!il.data_stale(t(119)), "freshness alone cannot see this fault");
        assert_eq!(il.deny_reason(t(119)), Some(DenyReason::ImplausibleData));
        assert_eq!(granted_after_detect, 0, "no grants once the flatline is detected");
    }

    #[test]
    fn plausibility_check_off_misses_stuck_sensor() {
        let mut il = PcaInterlock::new(InterlockConfig::default());
        for s in 0..120 {
            il.on_measurement(t(s), VitalKind::Spo2, 96.5);
            il.on_measurement(t(s), VitalKind::RespRate, 13.0);
            il.on_tick(t(s));
        }
        assert_eq!(il.deny_reason(t(119)), None, "the documented gap when screening is off");
    }

    #[test]
    fn trend_detector_stops_earlier_on_gradual_deterioration() {
        let run = |detector: DetectorKind| -> Option<u64> {
            let cfg = InterlockConfig { detector, ..InterlockConfig::default() };
            let mut il = PcaInterlock::new(cfg);
            for s in 0..30 {
                feed_healthy(&mut il, s);
                il.on_tick(t(s));
            }
            // Slow correlated slide over 10 minutes.
            for s in 30..630u64 {
                let k = (s - 30) as f64 / 600.0;
                il.on_measurement(t(s), VitalKind::Spo2, 97.0 - 9.0 * k);
                il.on_measurement(t(s), VitalKind::RespRate, 14.0 - 8.0 * k);
                il.on_measurement(t(s), VitalKind::Etco2, 38.0 + 22.0 * k);
                il.on_measurement(t(s), VitalKind::HeartRate, 72.0);
                il.on_tick(t(s));
                if il.deny_reason(t(s)) == Some(DenyReason::Danger) {
                    return Some(s);
                }
            }
            None
        };
        let fusion_at = run(DetectorKind::Fusion).expect("fusion must eventually detect");
        let trend_at = run(DetectorKind::FusionWithTrend).expect("trend must detect");
        assert!(
            trend_at + 30 < fusion_at,
            "trend should lead by >=30s: trend {trend_at}s vs fusion {fusion_at}s"
        );
    }

    #[test]
    fn threshold_detector_variant_works() {
        let cfg =
            InterlockConfig { detector: DetectorKind::Threshold, ..InterlockConfig::default() };
        let mut il = PcaInterlock::new(cfg);
        for s in 0..10 {
            feed_healthy(&mut il, s);
            il.on_tick(t(s));
        }
        for s in 10..20 {
            feed_depressed(&mut il, s);
            il.on_tick(t(s));
        }
        assert_eq!(il.deny_reason(t(20)), Some(DenyReason::Danger));
    }
}
