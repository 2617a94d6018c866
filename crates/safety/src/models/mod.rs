//! Verification models of the PCA safety interlock.
//!
//! These timed-automata networks mirror the runtime implementation in
//! `mcps-device`/`mcps-core` at the abstraction level a regulator would
//! review: a monitor that detects respiratory depression, an unreliable
//! network, a supervisor, and the PCA pump. Experiment E5 model-checks
//! the **correct** design and several **mutants** (seeded design
//! defects) to show that verification finds the defects before
//! deployment.
//!
//! Model time unit: one second. Constants are deliberately small so
//! the discrete-time state space stays comfortable; they preserve the
//! *ordering* of delays (detection < network < processing < ticket
//! validity), which is what the properties exercise.
//!
//! The [`failover`] submodule models the PR-5 supervisor failover
//! protocol (heartbeats, checkpoint replication, promotion, epoch
//! fencing, the pump's 15 s local fail-safe) at its *real* timing
//! constants, shared with the implementation via [`crate::timing`].

use crate::automaton::{Action, Automaton, Guard, LocId};
use crate::checker::{CheckOutcome, Network, Property};
use serde::{Deserialize, Serialize};

pub mod failover;

pub use failover::{check_failover_variant, failover_model, FailoverModelVariant};

/// Detection latency bound of the monitor (time units).
pub const DETECT_MAX: u32 = 2;
/// Network delay bounds per hop.
pub const NET_MIN: u32 = 0;
/// Maximum network delay per hop.
pub const NET_MAX: u32 = 2;
/// Supervisor processing bound.
pub const PROC_MAX: u32 = 2;
/// Ticket validity in ticket mode.
pub const TICKET_VALIDITY: u32 = 6;
/// Supervisor ticket-granting period.
pub const TICKET_PERIOD: u32 = 2;

/// The end-to-end deadline a *command-based* interlock should meet on
/// a reliable network: detect + alarm hop + processing + stop hop.
pub const COMMAND_DEADLINE: u32 = DETECT_MAX + NET_MAX + PROC_MAX + NET_MAX;

/// The deadline a *ticket-based* interlock meets even on a fully lossy
/// network: one stale grant may be in flight, then the last ticket
/// expires.
pub const TICKET_DEADLINE: u32 = TICKET_PERIOD + NET_MAX + TICKET_VALIDITY;

/// Which design (or seeded defect) to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PcaModelVariant {
    /// Correct command-based interlock over a reliable network.
    CommandReliable,
    /// Command-based interlock over a lossy network (design defect:
    /// no fail-safe — a dropped message defeats the interlock).
    CommandLossy,
    /// Mutant: the pump ignores stop commands while delivering a bolus.
    PumpIgnoresStopDuringBolus,
    /// Mutant: the supervisor's processing deadline is not enforced
    /// (missing invariant), so the stop may be arbitrarily late.
    SupervisorUnbounded,
    /// Correct ticket-based interlock over a lossy network: fail-safe
    /// holds despite arbitrary message loss.
    TicketLossy,
}

impl PcaModelVariant {
    /// All variants, in presentation order.
    pub const ALL: [PcaModelVariant; 5] = [
        PcaModelVariant::CommandReliable,
        PcaModelVariant::CommandLossy,
        PcaModelVariant::PumpIgnoresStopDuringBolus,
        PcaModelVariant::SupervisorUnbounded,
        PcaModelVariant::TicketLossy,
    ];

    /// Human-readable description.
    pub fn description(&self) -> &'static str {
        match self {
            PcaModelVariant::CommandReliable => "command interlock, reliable network (correct)",
            PcaModelVariant::CommandLossy => {
                "command interlock, lossy network (defect: no fail-safe)"
            }
            PcaModelVariant::PumpIgnoresStopDuringBolus => "mutant: pump ignores stop during bolus",
            PcaModelVariant::SupervisorUnbounded => {
                "mutant: supervisor processing deadline not enforced"
            }
            PcaModelVariant::TicketLossy => "ticket interlock, lossy network (correct fail-safe)",
        }
    }

    /// The deadline (in model time units) against which the interlock
    /// property is checked for this variant.
    pub fn deadline(&self) -> u32 {
        match self {
            PcaModelVariant::TicketLossy => TICKET_DEADLINE,
            _ => COMMAND_DEADLINE,
        }
    }

    /// The interlock property: *whenever the monitor has detected a
    /// breach, the pump is stopped within [`Self::deadline`]*.
    pub fn property(&self) -> Property {
        Property::BoundedResponse {
            p: |v| v.in_location("monitor", "Breached"),
            q: |v| v.in_location("pump", "Stopped"),
            deadline: self.deadline(),
        }
    }

    /// Whether the bounded-response property is *expected* to hold.
    pub fn expected_safe(&self) -> bool {
        matches!(self, PcaModelVariant::CommandReliable | PcaModelVariant::TicketLossy)
    }
}

/// Monitor: breathes normally, then (nondeterministically) a breach
/// occurs; while breached it repeatedly offers `alarm!`. In ticket
/// mode it additionally offers periodic `ok!` while normal.
fn monitor(ticket_mode: bool) -> Automaton {
    let mut b = Automaton::builder("monitor");
    let x = b.clock("x");
    let normal = b.location("Normal");
    let breached = b.location("Breached");
    b.invariant(normal, Guard::Le(x, TICKET_PERIOD));
    b.invariant(breached, Guard::Le(x, DETECT_MAX));
    if ticket_mode {
        // Periodic "patient is fine" heartbeat.
        b.edge("ok", normal, normal, Guard::True, Action::Send("ok".into()), vec![x]);
    } else {
        // Heartbeat consumed locally so time may keep passing.
        b.edge("idle", normal, normal, Guard::Ge(x, 1), Action::Internal, vec![x]);
    }
    // The breach may occur at any moment.
    b.edge("breach_onset", normal, breached, Guard::True, Action::Internal, vec![x]);
    // While breached, alarm repeatedly (period ≤ DETECT_MAX).
    b.edge("alarm", breached, breached, Guard::True, Action::Send("alarm".into()), vec![x]);
    b.build()
}

/// Loss behaviour of a [`delay_line`].
#[derive(Clone, Copy)]
enum LinkLoss<'a> {
    /// Every accepted message is eventually delivered.
    Lossless,
    /// Any accepted message may be silently dropped, at any time.
    Lossy,
    /// A message may be dropped only while the named cut channel has a
    /// willing receiver — i.e. while a partition automaton offering
    /// `Recv(cut)` is in its partitioned location.
    Partitionable(&'a str),
}

/// A one-message delay line for channel `input`, re-emitting on
/// `output` after a delay in `[NET_MIN, NET_MAX]`, with the given
/// [`LinkLoss`] discipline. Messages arriving while busy are dropped
/// (single-slot queue).
fn delay_line(name: &str, input: &str, output: &str, loss: LinkLoss<'_>) -> Automaton {
    let mut b = Automaton::builder(name);
    let c = b.clock("d");
    let idle = b.location("Idle");
    let busy = b.location("Busy");
    b.invariant(busy, Guard::Le(c, NET_MAX));
    b.edge("accept", idle, busy, Guard::True, Action::Recv(input.into()), vec![c]);
    b.edge("deliver", busy, idle, Guard::Ge(c, NET_MIN), Action::Send(output.into()), vec![]);
    // Overflow: arrivals while busy are dropped.
    b.edge("overflow", busy, busy, Guard::True, Action::Recv(input.into()), vec![]);
    match loss {
        LinkLoss::Lossless => {}
        LinkLoss::Lossy => {
            b.edge("lose", busy, idle, Guard::True, Action::Internal, vec![]);
        }
        LinkLoss::Partitionable(cut) => {
            b.edge("lose", busy, idle, Guard::True, Action::Send(cut.into()), vec![]);
        }
    }
    b.build()
}

/// Command-mode supervisor: on a delivered alarm, decide and send
/// `stop` within `PROC_MAX` (unless the `unbounded` mutant removes the
/// deadline).
fn supervisor_command(unbounded: bool) -> Automaton {
    let mut b = Automaton::builder("supervisor");
    let z = b.clock("z");
    let idle = b.location("Idle");
    let deciding = b.location("Deciding");
    let done = b.location("Done");
    if !unbounded {
        b.invariant(deciding, Guard::Le(z, PROC_MAX));
    }
    b.edge("alarm_rx", idle, deciding, Guard::True, Action::Recv("alarm_d".into()), vec![z]);
    b.edge("send_stop", deciding, done, Guard::True, Action::Send("stop".into()), vec![]);
    // Stay input-enabled for repeated alarms.
    b.edge("dup1", deciding, deciding, Guard::True, Action::Recv("alarm_d".into()), vec![]);
    b.edge("dup2", done, done, Guard::True, Action::Recv("alarm_d".into()), vec![]);
    b.build()
}

/// Ticket-mode supervisor: grants a ticket whenever a fresh `ok`
/// arrives; on a delivered alarm it stops granting forever. Silence
/// also stops grants (no `ok` ⇒ no ticket), which is the fail-safe.
fn supervisor_ticket() -> Automaton {
    let mut b = Automaton::builder("supervisor");
    let granting = b.location("Granting");
    let holding = b.urgent_location("Holding");
    let stopped = b.location("StopGranting");
    b.edge("ok_rx", granting, holding, Guard::True, Action::Recv("ok_d".into()), vec![]);
    b.edge("grant", holding, granting, Guard::True, Action::Send("ticket".into()), vec![]);
    b.edge("alarm_rx", granting, stopped, Guard::True, Action::Recv("alarm_d".into()), vec![]);
    b.edge("alarm_rx2", holding, stopped, Guard::True, Action::Recv("alarm_d".into()), vec![]);
    // Input-enabled forever after stopping.
    b.edge("ok_late", stopped, stopped, Guard::True, Action::Recv("ok_d".into()), vec![]);
    b.edge("alarm_late", stopped, stopped, Guard::True, Action::Recv("alarm_d".into()), vec![]);
    b.build()
}

/// Command-mode pump. If `ignore_stop_in_bolus`, the stop command is
/// consumed but ignored while a bolus is in progress (a realistic
/// firmware defect).
fn pump_command(ignore_stop_in_bolus: bool) -> Automaton {
    let mut b = Automaton::builder("pump");
    let t = b.clock("t");
    let running = b.location("Running");
    let bolus = b.location("Bolus");
    let stopped = b.location("Stopped");
    b.invariant(bolus, Guard::Le(t, 3));
    b.edge("start_bolus", running, bolus, Guard::True, Action::Internal, vec![t]);
    b.edge("end_bolus", bolus, running, Guard::Ge(t, 3), Action::Internal, vec![]);
    b.edge("stop_run", running, stopped, Guard::True, Action::Recv("stop_d".into()), vec![]);
    if ignore_stop_in_bolus {
        b.edge("stop_ignored", bolus, bolus, Guard::True, Action::Recv("stop_d".into()), vec![]);
    } else {
        b.edge("stop_bolus", bolus, stopped, Guard::True, Action::Recv("stop_d".into()), vec![]);
    }
    b.edge("stop_dup", stopped, stopped, Guard::True, Action::Recv("stop_d".into()), vec![]);
    b.build()
}

/// Ticket-mode pump: infuses only while its ticket clock is below the
/// validity; a delivered ticket resets the clock; expiry self-stops. A
/// fresh ticket *resurrects* a stopped pump — matching the executable
/// implementation, where the supervisor resumes granting after a
/// holdoff. Safety is unaffected: after a breach the supervisor never
/// grants again, so at most one stale in-flight ticket can extend
/// delivery, which the deadline accounts for.
fn pump_ticket() -> Automaton {
    let mut b = Automaton::builder("pump");
    let t = b.clock("t");
    let running = b.location("Running");
    let stopped = b.location("Stopped");
    b.invariant(running, Guard::Le(t, TICKET_VALIDITY));
    b.edge(
        "ticket_rx",
        running,
        running,
        Guard::Lt(t, TICKET_VALIDITY),
        Action::Recv("ticket_d".into()),
        vec![t],
    );
    b.edge("expire", running, stopped, Guard::Ge(t, TICKET_VALIDITY), Action::Internal, vec![]);
    b.edge("resurrect", stopped, running, Guard::True, Action::Recv("ticket_d".into()), vec![t]);
    b.build()
}

/// The verified ticket-mode pump automaton, exposed for direct
/// execution by [`crate::executor::AutomatonExecutor`] (the
/// model-to-runtime path) and for conformance testing against the
/// hand-written pump.
pub fn pump_ticket_model() -> Automaton {
    pump_ticket()
}

/// Builds the verification network for a variant.
pub fn pca_model(variant: PcaModelVariant) -> Network {
    match variant {
        PcaModelVariant::CommandReliable => Network::new(vec![
            monitor(false),
            delay_line("alarm_net", "alarm", "alarm_d", LinkLoss::Lossless),
            supervisor_command(false),
            delay_line("cmd_net", "stop", "stop_d", LinkLoss::Lossless),
            pump_command(false),
        ]),
        PcaModelVariant::CommandLossy => Network::new(vec![
            monitor(false),
            delay_line("alarm_net", "alarm", "alarm_d", LinkLoss::Lossy),
            supervisor_command(false),
            delay_line("cmd_net", "stop", "stop_d", LinkLoss::Lossy),
            pump_command(false),
        ]),
        PcaModelVariant::PumpIgnoresStopDuringBolus => Network::new(vec![
            monitor(false),
            delay_line("alarm_net", "alarm", "alarm_d", LinkLoss::Lossless),
            supervisor_command(false),
            delay_line("cmd_net", "stop", "stop_d", LinkLoss::Lossless),
            pump_command(true),
        ]),
        PcaModelVariant::SupervisorUnbounded => Network::new(vec![
            monitor(false),
            delay_line("alarm_net", "alarm", "alarm_d", LinkLoss::Lossless),
            supervisor_command(true),
            delay_line("cmd_net", "stop", "stop_d", LinkLoss::Lossless),
            pump_command(false),
        ]),
        PcaModelVariant::TicketLossy => Network::new(vec![
            monitor(true),
            delay_line("ok_net", "ok", "ok_d", LinkLoss::Lossy),
            delay_line("alarm_net", "alarm", "alarm_d", LinkLoss::Lossy),
            supervisor_ticket(),
            delay_line("ticket_net", "ticket", "ticket_d", LinkLoss::Lossy),
            pump_ticket(),
        ]),
    }
}

/// Checks a variant's [`PcaModelVariant::property`] on its model.
pub fn check_pca_variant(variant: PcaModelVariant, max_states: usize) -> CheckOutcome {
    pca_model(variant).check(variant.property(), max_states)
}

/// A named location pair used by diagnostic tooling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocRef {
    /// Automaton index in the network.
    pub automaton: usize,
    /// Location within it.
    pub location: LocId,
}

#[cfg(test)]
mod tests {
    use super::*;

    const BUDGET: usize = 2_000_000;

    #[test]
    fn command_reliable_is_safe() {
        let out = check_pca_variant(PcaModelVariant::CommandReliable, BUDGET);
        assert!(out.holds(), "{out:?}");
    }

    #[test]
    fn command_lossy_is_unsafe() {
        let out = check_pca_variant(PcaModelVariant::CommandLossy, BUDGET);
        let trace = out.trace().expect("lossy command interlock must fail");
        // The violation requires the deadline to elapse.
        assert!(trace.elapsed() > COMMAND_DEADLINE);
    }

    #[test]
    fn pump_mutant_is_caught() {
        let out = check_pca_variant(PcaModelVariant::PumpIgnoresStopDuringBolus, BUDGET);
        assert!(out.trace().is_some(), "mutant must be caught: {out:?}");
    }

    #[test]
    fn unbounded_supervisor_is_caught() {
        let out = check_pca_variant(PcaModelVariant::SupervisorUnbounded, BUDGET);
        assert!(out.trace().is_some(), "mutant must be caught: {out:?}");
    }

    #[test]
    fn ticket_mode_survives_lossy_network() {
        let out = check_pca_variant(PcaModelVariant::TicketLossy, BUDGET);
        assert!(out.holds(), "fail-safe must hold under loss: {out:?}");
    }

    #[test]
    fn counterexamples_replay_on_their_models() {
        for v in [
            PcaModelVariant::CommandLossy,
            PcaModelVariant::PumpIgnoresStopDuringBolus,
            PcaModelVariant::SupervisorUnbounded,
        ] {
            let out = check_pca_variant(v, BUDGET);
            let trace = out.trace().unwrap_or_else(|| panic!("{v:?} must violate"));
            let net = pca_model(v);
            assert!(net.replay(trace).is_some(), "{v:?}: counterexample must replay");
        }
    }

    #[test]
    fn expected_safety_matches_metadata() {
        for v in PcaModelVariant::ALL {
            let out = check_pca_variant(v, BUDGET);
            assert_eq!(
                out.holds(),
                v.expected_safe(),
                "variant {v:?} ({}) unexpected outcome {out:?}",
                v.description()
            );
        }
    }
}
