//! The PCA (patient-controlled analgesia) infusion pump.
//!
//! A faithful state machine of a network-capable PCA pump in the style
//! of the Generic PCA (GPCA) safety reference: demand boluses with a
//! lockout interval, an optional basal infusion, a cumulative hourly
//! dose limit, stop/resume commands, and — the key safety hook — an
//! optional **permission ticket** mode in which the pump only infuses
//! while it holds an unexpired ticket from the supervisor. Ticket
//! expiry on silence makes the closed loop fail *safe*: if the network
//! or supervisor dies, the pump stops by itself.
//!
//! The pump is a pure, kernel-agnostic state machine driven by
//! wall-clock arguments, so the same code is exercised by unit tests,
//! the ICE actors, and (in mirrored form) the timed-automata model in
//! `mcps-safety`.

use crate::profile::{CommandKind, DeviceClass, DeviceProfile};
use mcps_runtime::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// Static pump programme.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PcaPumpConfig {
    /// Drug delivered per demand bolus, mg.
    pub bolus_dose_mg: f64,
    /// Time over which a bolus is delivered.
    pub bolus_duration: SimDuration,
    /// Minimum interval between bolus *starts*.
    pub lockout: SimDuration,
    /// Continuous background infusion, mg/h (0 disables).
    pub basal_rate_mg_per_h: f64,
    /// Hard ceiling on drug delivered in any sliding hour, mg.
    pub max_hourly_mg: f64,
    /// If `true`, the pump infuses only while it holds an unexpired
    /// permission ticket (fail-safe interlock mode).
    pub ticket_mode: bool,
}

impl Default for PcaPumpConfig {
    fn default() -> Self {
        PcaPumpConfig {
            bolus_dose_mg: 1.0,
            bolus_duration: SimDuration::from_secs(30),
            lockout: SimDuration::from_mins(6),
            basal_rate_mg_per_h: 0.0,
            max_hourly_mg: 8.0,
            ticket_mode: false,
        }
    }
}

impl PcaPumpConfig {
    /// Validates the programme.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.bolus_dose_mg.is_finite() && self.bolus_dose_mg >= 0.0) {
            return Err(format!("bolus_dose_mg must be ≥ 0, got {}", self.bolus_dose_mg));
        }
        if self.bolus_duration.is_zero() {
            return Err("bolus_duration must be positive".into());
        }
        if !(self.basal_rate_mg_per_h.is_finite() && self.basal_rate_mg_per_h >= 0.0) {
            return Err(format!(
                "basal_rate_mg_per_h must be ≥ 0, got {}",
                self.basal_rate_mg_per_h
            ));
        }
        if !(self.max_hourly_mg.is_finite() && self.max_hourly_mg > 0.0) {
            return Err(format!("max_hourly_mg must be > 0, got {}", self.max_hourly_mg));
        }
        Ok(())
    }
}

/// Why the pump is stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StopReason {
    /// Explicit supervisor/clinician stop command.
    Command,
    /// Permission ticket expired (fail-safe).
    TicketExpired,
    /// Internal fault.
    Fault,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StopReason::Command => "stop command",
            StopReason::TicketExpired => "ticket expired",
            StopReason::Fault => "device fault",
        };
        f.write_str(s)
    }
}

/// Operational state of the pump.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PumpState {
    /// Delivering (basal and/or bolus as programmed).
    Running,
    /// Halted; no drug flows.
    Stopped(StopReason),
}

/// Outcome of a bolus request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BolusDecision {
    /// The bolus started.
    Started,
    /// Denied: within the lockout interval.
    LockedOut,
    /// Denied: would exceed the hourly limit.
    HourlyLimit,
    /// Denied: pump is stopped.
    Stopped,
    /// Denied: no valid permission ticket (ticket mode only).
    NoTicket,
    /// Denied: bolus delivery is suspended by the local fail-safe
    /// watchdog (supervision lost; basal continues).
    Suspended,
}

/// The PCA pump state machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PcaPump {
    config: PcaPumpConfig,
    state: PumpState,
    /// Active bolus: (start, dose). Delivery is linear over
    /// `config.bolus_duration`.
    active_bolus: Option<(SimTime, f64)>,
    last_bolus_start: Option<SimTime>,
    ticket_expiry: Option<SimTime>,
    /// Local fail-safe latch: bolus delivery is suspended (basal-only
    /// safe state) until an explicit resume. Set by the device-local
    /// watchdog when supervision is lost.
    bolus_suspended: bool,
    /// Sliding-window record of delivered increments for the hourly cap.
    window: VecDeque<(SimTime, f64)>,
    window_sum: f64,
    total_delivered_mg: f64,
    /// Drug accrued by internal accounting but not yet drained by
    /// [`Self::delivered_since_last`]. Any method that advances the
    /// integration clock deposits here, so no delivery is ever lost
    /// between caller polls.
    undrained_mg: f64,
    /// Delivery accounting has been integrated up to this instant.
    /// Starts at the simulation epoch: pumps are created at t = 0.
    last_integrate: SimTime,
}

impl PcaPump {
    /// Creates a pump in the `Running` state (no ticket yet granted —
    /// in ticket mode it will not deliver until one arrives).
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`PcaPumpConfig::validate`].
    pub fn new(config: PcaPumpConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid pump config: {e}");
        }
        PcaPump {
            config,
            state: PumpState::Running,
            active_bolus: None,
            last_bolus_start: None,
            ticket_expiry: None,
            bolus_suspended: false,
            window: VecDeque::new(),
            window_sum: 0.0,
            total_delivered_mg: 0.0,
            undrained_mg: 0.0,
            last_integrate: SimTime::ZERO,
        }
    }

    /// The pump's programme.
    pub fn config(&self) -> &PcaPumpConfig {
        &self.config
    }

    /// Current operational state.
    pub fn state(&self) -> PumpState {
        self.state
    }

    /// The self-description profile of this pump.
    pub fn profile(serial: &str, ticket_mode: bool) -> DeviceProfile {
        let mut b = DeviceProfile::builder("GPCA", "SafePump-1", serial, DeviceClass::Infusion)
            .command(CommandKind::Stop)
            .command(CommandKind::Resume)
            .command(CommandKind::RequestBolus)
            .command(CommandKind::SetRate);
        if ticket_mode {
            b = b.command(CommandKind::GrantTicket);
        }
        b.build()
    }

    /// Whether drug may flow at `now` (running, and in ticket mode also
    /// holding an unexpired ticket).
    pub fn is_permitted(&self, now: SimTime) -> bool {
        if self.state != PumpState::Running {
            return false;
        }
        if self.config.ticket_mode {
            matches!(self.ticket_expiry, Some(t) if now < t)
        } else {
            true
        }
    }

    /// Grants (or extends) the permission ticket until `now + validity`.
    pub fn grant_ticket(&mut self, now: SimTime, validity: SimDuration) {
        self.ticket_expiry = Some(now + validity);
    }

    /// Current ticket expiry, if one was granted.
    pub fn ticket_expiry(&self) -> Option<SimTime> {
        self.ticket_expiry
    }

    /// Stops the pump. An in-flight bolus is aborted (the undelivered
    /// remainder is never given).
    pub fn stop(&mut self, now: SimTime, reason: StopReason) {
        self.integrate_to(now);
        self.active_bolus = None;
        self.state = PumpState::Stopped(reason);
    }

    /// Resumes after a stop. Basal resumes; an aborted bolus is *not*
    /// restarted (the patient must demand again past lockout). Also
    /// clears the local fail-safe bolus suspension: resume is the
    /// explicit post-recovery release the watchdog latch waits for.
    pub fn resume(&mut self, now: SimTime) {
        self.integrate_to(now);
        self.state = PumpState::Running;
        self.bolus_suspended = false;
    }

    /// Enters the basal-only safe state: aborts any in-flight bolus and
    /// latches a suspension that denies further demand boluses until
    /// [`Self::resume`]. Basal infusion continues — abruptly cutting a
    /// background opioid infusion is itself a hazard, while an
    /// unsupervised *bolus* is the risk the interlock exists to gate.
    pub fn suspend_bolus(&mut self, now: SimTime) {
        self.integrate_to(now);
        self.active_bolus = None;
        self.bolus_suspended = true;
    }

    /// Whether the fail-safe bolus suspension is latched.
    pub fn bolus_suspended(&self) -> bool {
        self.bolus_suspended
    }

    /// Reprogrammes the basal rate, mg/h (clamped at 0).
    pub fn set_basal_rate(&mut self, now: SimTime, mg_per_h: f64) {
        self.integrate_to(now);
        self.config.basal_rate_mg_per_h =
            if mg_per_h.is_finite() { mg_per_h.max(0.0) } else { 0.0 };
    }

    /// Handles a press of the demand button at `now`.
    pub fn request_bolus(&mut self, now: SimTime) -> BolusDecision {
        self.integrate_to(now);
        if self.state != PumpState::Running {
            return BolusDecision::Stopped;
        }
        if self.bolus_suspended {
            return BolusDecision::Suspended;
        }
        if self.config.ticket_mode && !self.is_permitted(now) {
            return BolusDecision::NoTicket;
        }
        if let Some(last) = self.last_bolus_start {
            if now.saturating_since(last) < self.config.lockout {
                return BolusDecision::LockedOut;
            }
        }
        if self.window_sum + self.config.bolus_dose_mg > self.config.max_hourly_mg {
            return BolusDecision::HourlyLimit;
        }
        self.last_bolus_start = Some(now);
        self.active_bolus = Some((now, self.config.bolus_dose_mg));
        BolusDecision::Started
    }

    /// Advances internal delivery accounting to `now` and returns the
    /// drug (mg) delivered since the previous call. The caller infuses
    /// this amount into the patient model. Drug accrued by other calls
    /// (e.g. a [`Self::request_bolus`] between polls) is included.
    pub fn delivered_since_last(&mut self, now: SimTime) -> f64 {
        self.integrate_to(now);
        std::mem::take(&mut self.undrained_mg)
    }

    /// Total drug ever delivered, mg.
    pub fn total_delivered_mg(&self) -> f64 {
        self.total_delivered_mg
    }

    /// Drug delivered in the last sliding hour, mg.
    pub fn hourly_delivered_mg(&self) -> f64 {
        self.window_sum
    }

    /// Whether a bolus is being delivered at `now`.
    pub fn bolus_in_progress(&self, now: SimTime) -> bool {
        self.active_bolus
            .is_some_and(|(start, _)| now.saturating_since(start) < self.config.bolus_duration)
    }

    fn integrate_to(&mut self, now: SimTime) {
        if now <= self.last_integrate {
            self.prune_window(now);
            return;
        }
        let from = self.last_integrate;
        self.last_integrate = now;
        let mut delivered = 0.0;

        // Integrate piecewise: permission can only change at ticket
        // expiry inside (from, now); state/commands only change at call
        // boundaries, so a single split point suffices.
        let mut segments: Vec<(SimTime, SimTime)> = Vec::with_capacity(2);
        match (self.config.ticket_mode, self.ticket_expiry, self.state) {
            (true, Some(exp), PumpState::Running) if exp > from && exp < now => {
                segments.push((from, exp));
                segments.push((exp, now));
            }
            _ => segments.push((from, now)),
        }
        for (a, b) in segments {
            // Permission during (a, b) is decided at its start point.
            if !(self.state == PumpState::Running
                && (!self.config.ticket_mode || matches!(self.ticket_expiry, Some(t) if a < t)))
            {
                continue;
            }
            let dur_h = (b - a).as_secs_f64() / 3600.0;
            let mut seg = self.config.basal_rate_mg_per_h * dur_h;
            if let Some((start, dose)) = self.active_bolus {
                let bolus_end = start + self.config.bolus_duration;
                let ov_start = a.max(start);
                let ov_end = b.min(bolus_end);
                if ov_end > ov_start {
                    let frac = (ov_end - ov_start).as_secs_f64()
                        / self.config.bolus_duration.as_secs_f64();
                    seg += dose * frac;
                }
            }
            // Hourly hard limit: deliver only up to the cap.
            let headroom = (self.config.max_hourly_mg - self.window_sum).max(0.0);
            let seg = seg.min(headroom);
            if seg > 0.0 {
                delivered += seg;
                self.window.push_back((b, seg));
                self.window_sum += seg;
            }
        }
        // Retire a completed bolus.
        if let Some((start, _)) = self.active_bolus {
            if now >= start + self.config.bolus_duration {
                self.active_bolus = None;
            }
        }
        self.total_delivered_mg += delivered;
        self.undrained_mg += delivered;
        self.prune_window(now);
    }

    fn prune_window(&mut self, now: SimTime) {
        let hour = SimDuration::from_mins(60);
        while let Some(&(t, amt)) = self.window.front() {
            if now.saturating_since(t) > hour {
                self.window_sum -= amt;
                self.window.pop_front();
            } else {
                break;
            }
        }
        self.window_sum = self.window_sum.max(0.0);
    }
}

impl Default for PcaPump {
    fn default() -> Self {
        PcaPump::new(PcaPumpConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn bolus_delivers_full_dose_over_duration() {
        let mut p = PcaPump::default();
        assert_eq!(p.request_bolus(t(0)), BolusDecision::Started);
        // Half way through the 30 s bolus.
        let d1 = p.delivered_since_last(t(15));
        assert!((d1 - 0.5).abs() < 1e-9, "half the dose by 15 s, got {d1}");
        let d2 = p.delivered_since_last(t(60));
        assert!((d2 - 0.5).abs() < 1e-9, "remaining half, got {d2}");
        assert!((p.total_delivered_mg() - 1.0).abs() < 1e-9);
        assert!(!p.bolus_in_progress(t(60)));
    }

    #[test]
    fn lockout_blocks_early_redemand() {
        let mut p = PcaPump::default();
        assert_eq!(p.request_bolus(t(0)), BolusDecision::Started);
        assert_eq!(p.request_bolus(t(60)), BolusDecision::LockedOut);
        assert_eq!(p.request_bolus(t(359)), BolusDecision::LockedOut);
        assert_eq!(p.request_bolus(t(360)), BolusDecision::Started);
    }

    #[test]
    fn hourly_limit_denies_and_caps() {
        let mut p = PcaPump::new(PcaPumpConfig {
            bolus_dose_mg: 2.0,
            lockout: SimDuration::from_secs(60),
            max_hourly_mg: 5.0,
            ..PcaPumpConfig::default()
        });
        let mut clock = 0;
        let mut started = 0;
        // Demand every minute for 30 min.
        for _ in 0..30 {
            if p.request_bolus(t(clock)) == BolusDecision::Started {
                started += 1;
            }
            clock += 60;
            p.delivered_since_last(t(clock));
        }
        // 2 mg each, 5 mg cap ⇒ at most 2 full boluses fit; a third
        // request is denied by the limit.
        assert_eq!(started, 2, "hourly cap should deny the 3rd bolus");
        assert!(p.hourly_delivered_mg() <= 5.0 + 1e-9);
        // After the window slides past, demands work again.
        let later = 2 * 3600;
        p.delivered_since_last(t(later));
        assert_eq!(p.request_bolus(t(later)), BolusDecision::Started);
    }

    #[test]
    fn stop_aborts_bolus_remainder() {
        let mut p = PcaPump::default();
        p.request_bolus(t(0));
        p.delivered_since_last(t(10)); // 1/3 delivered
        p.stop(t(10), StopReason::Command);
        assert_eq!(p.state(), PumpState::Stopped(StopReason::Command));
        let d = p.delivered_since_last(t(100));
        assert_eq!(d, 0.0, "no drug while stopped");
        assert!((p.total_delivered_mg() - 1.0 / 3.0).abs() < 1e-9);
        // Resume: basal would flow again but the aborted bolus is gone.
        p.resume(t(100));
        assert_eq!(p.delivered_since_last(t(200)), 0.0);
        assert_eq!(p.request_bolus(t(100)), BolusDecision::LockedOut);
    }

    #[test]
    fn basal_accrues_only_while_running() {
        let mut p =
            PcaPump::new(PcaPumpConfig { basal_rate_mg_per_h: 1.2, ..PcaPumpConfig::default() });
        let d = p.delivered_since_last(t(3600));
        assert!((d - 1.2).abs() < 1e-9);
        p.stop(t(3600), StopReason::Command);
        assert_eq!(p.delivered_since_last(t(7200)), 0.0);
        p.resume(t(7200));
        let d = p.delivered_since_last(t(7200 + 1800));
        assert!((d - 0.6).abs() < 1e-9);
    }

    #[test]
    fn ticket_mode_blocks_without_ticket() {
        let mut p = PcaPump::new(PcaPumpConfig {
            ticket_mode: true,
            basal_rate_mg_per_h: 1.0,
            ..PcaPumpConfig::default()
        });
        assert!(!p.is_permitted(t(0)));
        assert_eq!(p.request_bolus(t(0)), BolusDecision::NoTicket);
        assert_eq!(p.delivered_since_last(t(3600)), 0.0);
    }

    #[test]
    fn ticket_expiry_stops_delivery_mid_interval() {
        let mut p = PcaPump::new(PcaPumpConfig {
            ticket_mode: true,
            basal_rate_mg_per_h: 1.0,
            ..PcaPumpConfig::default()
        });
        p.grant_ticket(t(0), SimDuration::from_secs(1800)); // 30 min ticket
                                                            // Integrate a full hour in one call: only the first 30 min flow.
        let d = p.delivered_since_last(t(3600));
        assert!((d - 0.5).abs() < 1e-9, "only the ticketed half-hour, got {d}");
        assert!(!p.is_permitted(t(3600)));
        // Re-granting restores delivery.
        p.grant_ticket(t(3600), SimDuration::from_secs(3600));
        let d = p.delivered_since_last(t(7200));
        assert!((d - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ticketed_bolus_halts_at_expiry() {
        let mut p = PcaPump::new(PcaPumpConfig { ticket_mode: true, ..PcaPumpConfig::default() });
        p.grant_ticket(t(0), SimDuration::from_secs(15)); // shorter than the 30 s bolus
        assert_eq!(p.request_bolus(t(0)), BolusDecision::Started);
        let d = p.delivered_since_last(t(60));
        assert!((d - 0.5).abs() < 1e-9, "bolus truncated at ticket expiry, got {d}");
    }

    #[test]
    fn profile_advertises_ticket_support() {
        let with = PcaPump::profile("SN-9", true);
        let without = PcaPump::profile("SN-9", false);
        assert!(with.accepts_command(CommandKind::GrantTicket));
        assert!(!without.accepts_command(CommandKind::GrantTicket));
        assert!(with.accepts_command(CommandKind::Stop));
    }

    #[test]
    fn set_basal_rate_clamps() {
        let mut p = PcaPump::default();
        p.set_basal_rate(t(0), -5.0);
        assert_eq!(p.config().basal_rate_mg_per_h, 0.0);
        p.set_basal_rate(t(0), f64::NAN);
        assert_eq!(p.config().basal_rate_mg_per_h, 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid pump config")]
    fn invalid_config_panics() {
        let _ = PcaPump::new(PcaPumpConfig { max_hourly_mg: 0.0, ..PcaPumpConfig::default() });
    }

    #[test]
    fn suspend_bolus_is_basal_only_and_latches_until_resume() {
        let mut p =
            PcaPump::new(PcaPumpConfig { basal_rate_mg_per_h: 1.0, ..PcaPumpConfig::default() });
        assert_eq!(p.request_bolus(t(0)), BolusDecision::Started);
        p.delivered_since_last(t(10)); // 1/3 of the bolus out
        p.suspend_bolus(t(10));
        assert!(p.bolus_suspended());
        // The in-flight remainder is aborted but basal keeps flowing.
        let d = p.delivered_since_last(t(10 + 3600));
        assert!((d - 1.0).abs() < 1e-9, "one hour of basal only, got {d}");
        assert_eq!(p.request_bolus(t(7200)), BolusDecision::Suspended);
        // Only an explicit resume releases the latch.
        p.resume(t(7200));
        assert!(!p.bolus_suspended());
        assert_eq!(p.request_bolus(t(7200)), BolusDecision::Started);
    }

    #[test]
    fn suspension_outranks_ticket_check_but_not_stop() {
        let mut p = PcaPump::new(PcaPumpConfig { ticket_mode: true, ..PcaPumpConfig::default() });
        p.suspend_bolus(t(0));
        assert_eq!(p.request_bolus(t(0)), BolusDecision::Suspended);
        p.stop(t(1), StopReason::Command);
        assert_eq!(p.request_bolus(t(2)), BolusDecision::Stopped);
    }

    #[test]
    fn time_never_flows_backwards_in_accounting() {
        let mut p =
            PcaPump::new(PcaPumpConfig { basal_rate_mg_per_h: 1.0, ..PcaPumpConfig::default() });
        p.delivered_since_last(t(100));
        // Older timestamp: must not deliver negative drug or panic.
        let d = p.delivered_since_last(t(50));
        assert_eq!(d, 0.0);
    }
}
