//! What the cores decided, kept by their drivers.
//!
//! [`SupervisorCore`](crate::SupervisorCore) and
//! [`PumpCore`](crate::PumpCore) hold only the state their next
//! decision reads. Everything a run's *harvest* wants afterwards —
//! permission and fail-safe transitions, degraded windows, heartbeat
//! round trips — leaves each `handle` call as a typed [`Record`] in
//! [`CoreOutputs::records`](crate::CoreOutputs::records). A driver that
//! wants the history stamps the records with the call's `now` and
//! appends them to a [`History`]; a driver that does not (the live
//! serve host) lets `begin` clear them, so a served core's heap does
//! not grow with its uptime.

use mcps_runtime::time::{SimDuration, SimTime};

/// One fact a core reports about a decision it just took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Record {
    /// The pump's delivery permission changed to this value.
    Permit(bool),
    /// The pump's local fail-safe latch engaged (`true`) or was
    /// released (`false`).
    Failsafe(bool),
    /// The supervisor entered (`true`) or left (`false`) degraded mode.
    Degraded(bool),
    /// A heartbeat ack arrived this long after the heartbeat was sent.
    HeartbeatRtt(SimDuration),
}

/// A driver's timestamped record of what its core decided, and the
/// queries the scenario harvests ask of it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct History {
    permits: Vec<(SimTime, bool)>,
    failsafes: Vec<(SimTime, bool)>,
    degraded: Vec<(SimTime, Option<SimTime>)>,
    heartbeat_rtts: Vec<SimDuration>,
}

impl History {
    /// An empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the records of one `handle` call made at `now`.
    pub fn extend(&mut self, now: SimTime, records: &[Record]) {
        for &record in records {
            match record {
                Record::Permit(p) => self.permits.push((now, p)),
                Record::Failsafe(engaged) => self.failsafes.push((now, engaged)),
                Record::Degraded(true) => self.degraded.push((now, None)),
                // Leaving degraded mode closes the open window; a
                // restored core's inherited latch has none to close.
                Record::Degraded(false) => {
                    if let Some(last) = self.degraded.last_mut().filter(|w| w.1.is_none()) {
                        last.1 = Some(now);
                    }
                }
                Record::HeartbeatRtt(rtt) => self.heartbeat_rtts.push(rtt),
            }
        }
    }

    /// Transitions of the pump's delivery permission, `(instant,
    /// permitted)`, oldest first.
    pub fn permit_transitions(&self) -> &[(SimTime, bool)] {
        &self.permits
    }

    /// Whether delivery was permitted at `at`, per the transitions
    /// (pumps start unpermitted in ticket mode, permitted otherwise;
    /// the first transition reflects the first observed state).
    pub fn was_permitted_at(&self, at: SimTime) -> bool {
        self.permits.iter().take_while(|(t, _)| *t <= at).last().is_some_and(|&(_, p)| p)
    }

    /// First instant at or after `at` at which delivery became
    /// disallowed — the interlock's response latency is measured to it.
    pub fn first_stop_at_or_after(&self, at: SimTime) -> Option<SimTime> {
        self.permits.iter().find(|(t, p)| *t >= at && !p).map(|(t, _)| *t)
    }

    /// Fail-safe latch transitions, `(instant, engaged)`, oldest first.
    pub fn failsafe_transitions(&self) -> &[(SimTime, bool)] {
        &self.failsafes
    }

    /// Degraded windows `(entered, exited)`, oldest first; an open
    /// window has `None` as its exit.
    pub fn degraded_windows(&self) -> &[(SimTime, Option<SimTime>)] {
        &self.degraded
    }

    /// Heartbeat round-trip times, in ack order.
    pub fn heartbeat_rtts(&self) -> &[SimDuration] {
        &self.heartbeat_rtts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn permit_queries_read_the_transitions() {
        let mut h = History::new();
        h.extend(t(1), &[Record::Permit(true)]);
        h.extend(t(5), &[Record::Permit(false)]);
        h.extend(t(9), &[Record::Permit(true)]);
        assert!(!h.was_permitted_at(t(0)), "nothing observed yet");
        assert!(h.was_permitted_at(t(4)));
        assert!(!h.was_permitted_at(t(5)));
        assert_eq!(h.first_stop_at_or_after(t(2)), Some(t(5)));
        assert_eq!(h.first_stop_at_or_after(t(6)), None);
    }

    #[test]
    fn degraded_exit_closes_only_an_open_window() {
        let mut h = History::new();
        // A restored core leaves an inherited latch: nothing to close.
        h.extend(t(1), &[Record::Degraded(false)]);
        assert!(h.degraded_windows().is_empty());
        h.extend(t(2), &[Record::Degraded(true)]);
        h.extend(t(7), &[Record::Degraded(false)]);
        h.extend(t(8), &[Record::Degraded(false)]);
        h.extend(t(9), &[Record::Degraded(true)]);
        assert_eq!(h.degraded_windows(), &[(t(2), Some(t(7))), (t(9), None)]);
    }
}
