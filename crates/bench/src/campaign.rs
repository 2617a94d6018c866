//! Fault-injection campaign engine (E8 scorecard).
//!
//! Sweeps a deterministic grid of `{fault kind × onset × duration ×
//! link outage}` cells over the PCA-interlock scenario (with and
//! without a hot-swappable backup oximeter), runs several cohort
//! patients per cell, and scores every run against the paper's
//! no-overdose invariant. The result is a machine-readable *safety
//! scorecard*: per cell, the invariant verdict, the time-to-fail-safe
//! distribution and the count of spurious degraded-mode entries.
//!
//! Invariant classes — which check applies depends on how the fault is
//! observable:
//!
//! * **Freshness** (sensor crash, silent data, link outage): data stops
//!   arriving, so the interlock's freshness timeout plus the ticket
//!   validity bound the time to fail-safe. The pump must cease delivery
//!   within [`FRESHNESS_DEADLINE_SECS`] of onset, and — when no
//!   recovery path exists (no backup, permanent fault) — must never
//!   deliver again.
//! * **Plausibility** (stuck value): frozen-but-fresh data is invisible
//!   to freshness checking; the flatline screen needs its detection
//!   window, so the deadline is [`PLAUSIBILITY_DEADLINE_SECS`].
//! * **Danger** (drift, intermittent, ack faults, fault-free control):
//!   the fault does not silence the data plane, so the scenario may
//!   run on; the invariant is the backstop that if ground-truth danger
//!   occurs the pump stops within [`DANGER_DEADLINE_SECS`].
//! * **Failover** (supervisor crash, network partition): the fault
//!   removes the *controller*, not a device, so these cells run with a
//!   warm standby supervisor. The standby must promote (≥ 1 failover)
//!   and the epoch fence must prevent any same-epoch double actuation;
//!   the danger backstop must hold *across* the failover.
//!
//! The danger backstop applies to *every* cell on top of its class
//! check. Spurious degradations — supervisor degraded-mode entries
//! outside the injected fault's window (plus settling grace) — are
//! counted per cell; in fault-free control cells every entry is
//! spurious.
//!
//! On top of the swept grid, the campaign carries **mined cells**:
//! fault schedules extracted from counterexample traces of the E13
//! failover model checker ([`mined_failover_cells`]). The checker found
//! these schedules adversarially — they are the exact timings that
//! break a *mutated* design — so replaying them against the real
//! implementation is a permanent regression fence that random grid
//! sweeps would only hit by luck.

use mcps_core::scenarios::pca::{run_pca_scenario, PcaScenarioConfig, PcaScenarioOutcome};
use mcps_device::faults::{FaultKind, FaultPlan};
use mcps_patient::cohort::{CohortConfig, CohortGenerator};
use mcps_runtime::shard::run_shards;
use mcps_runtime::telemetry::Summary;
use mcps_runtime::time::{SimDuration, SimTime};
use mcps_safety::models::check_failover_variant;
use mcps_safety::{FailoverModelVariant, Step};
use serde::Serialize;

/// Freshness-visible faults: freshness timeout (10 s) + ticket
/// validity (15 s) + one control period of slack.
pub const FRESHNESS_DEADLINE_SECS: f64 = 10.0 + 15.0 + 5.0;

/// Stuck-value faults: flatline window (30 s) + ticket validity + slack.
pub const PLAUSIBILITY_DEADLINE_SECS: f64 = 30.0 + 15.0 + 10.0;

/// Universal backstop: ground-truth danger to delivery stop.
pub const DANGER_DEADLINE_SECS: f64 = 30.0;

/// Settling grace after a fault clears during which degraded-mode
/// entries are still attributed to the fault, not counted as spurious.
const DEGRADE_GRACE_SECS: f64 = 60.0;

/// Which device the scripted fault is injected into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FaultTarget {
    /// Fault-free control cell.
    None,
    /// The primary pulse oximeter (data plane).
    Oximeter,
    /// The pump controller (command/ack plane).
    Pump,
    /// The primary supervisor process (control plane). These cells run
    /// with a warm standby supervisor.
    Supervisor,
    /// The network itself: a partition isolating the primary
    /// supervisor. These cells also run with a warm standby.
    Network,
}

/// Which invariant check scores the cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum InvariantClass {
    /// Fail-safe via the freshness timeout.
    Freshness,
    /// Fail-safe via the flatline/plausibility screen.
    Plausibility,
    /// Backstop only: danger ⇒ stop within the danger deadline.
    Danger,
    /// Control-plane loss: the standby must promote (≥ 1 failover) and
    /// the epoch fence must prevent any same-epoch double actuation —
    /// on top of the universal danger backstop, which must hold across
    /// the failover itself.
    Failover,
}

/// One cell of the campaign grid.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Stable identifier, e.g. `pca/crash/on600/d120/outage`.
    pub id: String,
    /// Fault kind label (`none` for the control cell).
    pub kind_label: &'static str,
    /// The scripted fault, if any.
    pub fault: Option<FaultKind>,
    /// Where the fault is injected.
    pub target: FaultTarget,
    /// Fault onset.
    pub onset: SimTime,
    /// Fault recovery instant (`None` = permanent).
    pub until: Option<SimTime>,
    /// Link outage window, if the cell has one.
    pub outage: Option<(SimTime, SimTime)>,
    /// Whether a backup oximeter is at the bedside (hot-swap scenario).
    pub backup: bool,
    /// The invariant class scoring this cell.
    pub invariant: InvariantClass,
    /// Whether the interlock runs its flatline/plausibility screen
    /// (`InterlockConfig::plausibility_check`).
    pub plausibility: bool,
}

impl CellSpec {
    /// Whether legitimate recovery (re-permitted delivery) is possible
    /// after fail-safe: a backup can take over, or the fault/outage
    /// clears.
    fn recovery_allowed(&self) -> bool {
        self.backup || self.fault.is_none() || self.until.is_some()
    }

    /// Last instant attributable to the injected disturbance, seconds.
    fn disturbance_end_secs(&self, run_secs: f64) -> f64 {
        let fault_end = match (self.fault, self.until) {
            (None, _) => None,
            (Some(_), Some(u)) => Some(u.as_secs_f64()),
            (Some(_), None) => Some(run_secs),
        };
        let outage_end = self.outage.map(|(_, b)| b.as_secs_f64());
        fault_end.into_iter().chain(outage_end).fold(f64::NAN, f64::max)
    }
}

/// Campaign-wide configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed.
    pub seed: u64,
    /// Cohort patients per cell.
    pub trials: u64,
    /// Simulated duration of every run.
    pub run: SimDuration,
    /// Fault onsets to sweep.
    pub onsets: Vec<SimTime>,
    /// Transient fault duration (the permanent arm is always included).
    pub transient: SimDuration,
    /// Link outage length for outage cells.
    pub outage_len: SimDuration,
}

impl CampaignConfig {
    /// The full campaign grid.
    pub fn full(seed: u64) -> Self {
        CampaignConfig {
            seed,
            trials: 3,
            run: SimDuration::from_mins(25),
            onsets: vec![SimTime::from_secs(600), SimTime::from_secs(780)],
            transient: SimDuration::from_secs(120),
            outage_len: SimDuration::from_secs(90),
        }
    }

    /// A reduced grid for CI smoke runs: one onset, permanent faults
    /// only, one patient per cell.
    pub fn quick(seed: u64) -> Self {
        CampaignConfig {
            seed,
            trials: 1,
            run: SimDuration::from_mins(20),
            onsets: vec![SimTime::from_secs(600)],
            transient: SimDuration::ZERO,
            outage_len: SimDuration::from_secs(90),
        }
    }
}

/// The fault kinds swept by the campaign, with their injection target
/// and invariant class.
fn kind_axis() -> Vec<(&'static str, Option<FaultKind>, FaultTarget, InvariantClass)> {
    vec![
        ("none", None, FaultTarget::None, InvariantClass::Danger),
        ("crash", Some(FaultKind::Crash), FaultTarget::Oximeter, InvariantClass::Freshness),
        ("silent", Some(FaultKind::SilentData), FaultTarget::Oximeter, InvariantClass::Freshness),
        ("stuck", Some(FaultKind::StuckValue), FaultTarget::Oximeter, InvariantClass::Plausibility),
        (
            "drift",
            Some(FaultKind::Drift { bias_milli_per_sec: -50 }),
            FaultTarget::Oximeter,
            InvariantClass::Danger,
        ),
        (
            "intermittent",
            Some(FaultKind::Intermittent { period_ms: 30_000, on_ms: 5_000 }),
            FaultTarget::Oximeter,
            InvariantClass::Danger,
        ),
        (
            "delayed-ack",
            Some(FaultKind::DelayedAck { delay_ms: 1_500 }),
            FaultTarget::Pump,
            InvariantClass::Danger,
        ),
        ("dup-ack", Some(FaultKind::DuplicateAck), FaultTarget::Pump, InvariantClass::Danger),
        (
            "sup-crash",
            Some(FaultKind::SupervisorCrash),
            FaultTarget::Supervisor,
            InvariantClass::Failover,
        ),
        // Masks index the scenario's endpoint creation order (bit 3 =
        // primary supervisor, bit 4 = standby): side A is the primary
        // alone, side B is every device plus the standby, so the
        // partitioned ex-primary keeps *believing* it is in charge —
        // the worst case for split-brain.
        (
            "partition",
            Some(FaultKind::Partition { group_a: 0b00_1000, group_b: 0b11_0111 }),
            FaultTarget::Network,
            InvariantClass::Failover,
        ),
    ]
}

/// Builds the deterministic campaign grid for `cfg`.
pub fn build_grid(cfg: &CampaignConfig) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for &onset in &cfg.onsets {
        for (kind_label, fault, target, invariant) in kind_axis() {
            let durations: Vec<Option<SimTime>> = match (fault, cfg.transient.is_zero()) {
                // The control cell has no fault window to vary.
                (None, _) => vec![None],
                (Some(_), true) => vec![None],
                (Some(_), false) => vec![None, Some(onset + cfg.transient)],
            };
            for until in durations {
                for has_outage in [false, true] {
                    for backup in [false, true] {
                        let outage = has_outage.then_some((onset, onset + cfg.outage_len));
                        let scenario = if backup { "swap" } else { "pca" };
                        let dur = match until {
                            None => "perm".to_owned(),
                            Some(u) => format!("d{}", (u - onset).as_millis() / 1000),
                        };
                        let id = format!(
                            "{scenario}/{kind_label}/on{}/{dur}{}",
                            onset.as_millis() / 1000,
                            if has_outage { "/outage" } else { "" },
                        );
                        cells.push(CellSpec {
                            id,
                            kind_label,
                            fault,
                            target,
                            onset,
                            until,
                            outage,
                            backup,
                            invariant,
                            plausibility: true,
                        });
                    }
                }
            }
        }
    }
    cells
}

/// Exploration budget for the trace miner. The reduced `UnfencedPump`
/// space is under 4k states, so this never exhausts.
const MINER_BUDGET: usize = 200_000;

/// Anchor for mined schedules: the checker's relative instants are
/// shifted to mid-therapy, matching the grid's canonical onset.
const MINED_ANCHOR_SECS: u64 = 600;

/// The crash / promotion / recovery instants (model seconds, relative
/// to the start of the counterexample) mined from the `UnfencedPump`
/// trace, with the recovery clamped past the promotion.
fn mine_unfenced_schedule() -> Option<(u64, u64, u64)> {
    let out = check_failover_variant(FailoverModelVariant::UnfencedPump, MINER_BUDGET);
    let trace = out.trace()?;
    let mut t = 0u64;
    let (mut crash, mut promote, mut recover) = (None, None, None);
    for step in &trace.steps {
        match step {
            Step::Delay => t += 1,
            Step::Edge { automaton, label } => {
                if automaton == "primary" && label == "crash" {
                    crash.get_or_insert(t);
                }
                if automaton == "primary" && label == "recover" {
                    recover.get_or_insert(t);
                }
                if automaton == "standby" && label == "promote" {
                    promote.get_or_insert(t);
                }
            }
            Step::Sync { .. } => {}
        }
    }
    let (crash, promote, recover) = (crash?, promote?, recover?);
    // In the model the recovery may *race* the promotion by up to one
    // network hop (both are legal interleavings); the implementation's
    // prompt checkpoint delivery would reset the standby's silence
    // clock and avert the failover entirely. Clamp the mined recovery
    // to two seconds past the promotion so the replayed schedule keeps
    // the property-relevant ordering: promote first, then recover.
    Some((crash, promote, recover.max(promote + 2)))
}

/// Mines the E13 `UnfencedPump` counterexample into a permanent
/// campaign regression cell.
///
/// The mutant removes the pump's epoch fence; the checker's shortest
/// counterexample is then the tightest crash-promote-recover schedule
/// that puts two live controllers in front of the pump. Replaying that
/// schedule against the *real* (fenced) implementation pins the fence:
/// the standby must promote inside the mined window, the recovered
/// ex-primary's stale traffic must be rejected, and no same-epoch
/// double actuation may occur. Returns an empty vector only if the
/// mutant stops violating — which the `mcps-safety` expected-verdict
/// tests would already flag as a model regression.
pub fn mined_failover_cells() -> Vec<CellSpec> {
    let Some((crash, _promote, recover)) = mine_unfenced_schedule() else {
        return Vec::new();
    };
    let onset = SimTime::from_secs(MINED_ANCHOR_SECS + crash);
    let until = SimTime::from_secs(MINED_ANCHOR_SECS + recover);
    vec![CellSpec {
        id: format!("pca/mined-unfenced/on{}/d{}", onset.as_millis() / 1000, recover - crash),
        kind_label: "mined-sup-crash",
        fault: Some(FaultKind::SupervisorCrash),
        target: FaultTarget::Supervisor,
        onset,
        until: Some(until),
        outage: None,
        backup: false,
        invariant: InvariantClass::Failover,
        plausibility: true,
    }]
}

/// Distribution summary of time-to-fail-safe across a cell's trials.
#[derive(Debug, Clone, Serialize)]
pub struct FailsafeSummary {
    /// Trials in which the pump ceased delivery after onset.
    pub engaged: u64,
    /// Median seconds from onset to stop.
    pub p50_secs: f64,
    /// 95th-percentile seconds from onset to stop.
    pub p95_secs: f64,
    /// Worst observed seconds from onset to stop.
    pub max_secs: f64,
}

/// Scheduler queue-pressure aggregates across a cell's trials,
/// harvested from the runtime timer wheel's telemetry export.
#[derive(Debug, Clone, Serialize)]
pub struct QueuePressure {
    /// Timed events filed into the scheduler (all trials).
    pub events_scheduled: u64,
    /// Wheel slot cascades performed (all trials).
    pub cascades: u64,
    /// Deepest same-instant ready ring observed in any trial.
    pub max_ready_depth: u64,
}

/// The scorecard for one campaign cell.
#[derive(Debug, Clone, Serialize)]
pub struct CellReport {
    /// Stable cell identifier.
    pub id: String,
    /// Fault kind label.
    pub kind: String,
    /// Injection target.
    pub target: FaultTarget,
    /// Invariant class scoring the cell.
    pub invariant: InvariantClass,
    /// Fault onset, seconds.
    pub onset_secs: f64,
    /// Fault duration, seconds (`None` = permanent).
    pub duration_secs: Option<f64>,
    /// Whether the cell includes a link outage at onset.
    pub outage: bool,
    /// Whether a backup oximeter is present (hot-swap scenario).
    pub backup: bool,
    /// Patients run in this cell.
    pub trials: u64,
    /// Trials that violated the no-overdose invariant.
    pub violations: u64,
    /// Human-readable reasons for the violations (deduplicated).
    pub violation_reasons: Vec<String>,
    /// Time-to-fail-safe distribution (absent if no trial stopped —
    /// normal for cells whose fault never silences the data plane).
    pub failsafe: Option<FailsafeSummary>,
    /// Degraded-mode entries outside the fault window (all trials).
    pub spurious_degradations: u64,
    /// Total degraded-mode entries (all trials).
    pub degraded_entries: u64,
    /// Supervisor command retransmissions (all trials).
    pub commands_retried: u64,
    /// App commands suppressed while degraded (all trials).
    pub commands_suppressed: u64,
    /// Standby → primary failovers (all trials).
    pub failovers: u64,
    /// Stale-epoch commands the pump fenced off (all trials).
    pub fenced_commands: u64,
    /// Same-epoch commands from two controllers (all trials; any value
    /// above 0 is a split-brain actuation).
    pub double_actuations: u64,
    /// Pump local fail-safe latches (all trials).
    pub local_failsafe_entries: u64,
    /// Worst cumulative drug across trials, mg.
    pub max_total_drug_mg: f64,
    /// Deepest true SpO₂ across trials, %.
    pub min_spo2: f64,
    /// Scheduler queue pressure for the cell.
    pub queue: QueuePressure,
}

/// The whole campaign's scorecard.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignReport {
    /// Master seed.
    pub seed: u64,
    /// Patients per cell.
    pub trials_per_cell: u64,
    /// Simulated seconds per run.
    pub run_secs: f64,
    /// Grid cells, in deterministic grid order.
    pub cells: Vec<CellReport>,
    /// Total invariant violations across the grid.
    pub total_violations: u64,
    /// Total spurious degradations across the grid.
    pub total_spurious: u64,
    /// Deepest same-instant ready ring observed anywhere in the grid.
    pub max_ready_depth: u64,
}

/// Whether the pump was permitted anywhere in `(a, b)` seconds.
fn permitted_in_window(out: &PcaScenarioOutcome, a: f64, b: f64) -> bool {
    if a >= b {
        return false;
    }
    out.permitted_at_secs(a)
        || out.permit_transitions_secs.iter().any(|&(t, p)| p && t > a && t < b)
}

/// Scores one finished run against `spec`'s invariant.
fn evaluate(
    spec: &CellSpec,
    run_secs: f64,
    out: &PcaScenarioOutcome,
) -> (Option<String>, Option<f64>, u64) {
    let onset_secs = spec.onset.as_secs_f64();
    let failsafe = out.stop_after(spec.onset);
    let mut violation = None;

    // Universal backstop: danger ⇒ stop within the danger deadline.
    if let Some(danger) = out.danger_onset_secs {
        match out.stop_latency_secs {
            Some(lat) if lat <= DANGER_DEADLINE_SECS => {}
            Some(lat) => {
                violation =
                    Some(format!("danger at {danger:.0}s, stop took {lat:.0}s (> backstop)"));
            }
            None => violation = Some(format!("danger at {danger:.0}s, pump never stopped")),
        }
    }

    // Class-specific check.
    if spec.invariant == InvariantClass::Failover {
        if out.failovers < 1 {
            violation.get_or_insert("primary lost and the standby never promoted".to_owned());
        }
        if out.double_actuations > 0 {
            violation.get_or_insert(format!(
                "{} same-epoch command(s) from two controllers (split-brain actuation)",
                out.double_actuations
            ));
        }
    }
    let deadline = match spec.invariant {
        InvariantClass::Freshness => Some(FRESHNESS_DEADLINE_SECS),
        InvariantClass::Plausibility => Some(PLAUSIBILITY_DEADLINE_SECS),
        InvariantClass::Danger | InvariantClass::Failover => None,
    };
    if let Some(deadline) = deadline {
        match failsafe {
            Some(t) if t <= deadline => {}
            Some(t) => {
                violation
                    .get_or_insert(format!("fail-safe took {t:.0}s (deadline {deadline:.0}s)"));
            }
            None => {
                violation
                    .get_or_insert(format!("fail-safe never engaged (deadline {deadline:.0}s)"));
            }
        }
        // With no recovery path, delivery must never resume.
        if !spec.recovery_allowed() && permitted_in_window(out, onset_secs + deadline, run_secs) {
            violation.get_or_insert("delivery re-permitted with no recovery path".to_owned());
        }
    }

    // Spurious degradations: entries outside [onset, disturbance end +
    // grace]. Control cells have an empty allowed window.
    let end = spec.disturbance_end_secs(run_secs);
    let spurious = out
        .degraded_windows_secs
        .iter()
        .filter(|(entered, _)| {
            if spec.fault.is_none() && spec.outage.is_none() {
                true
            } else {
                *entered < onset_secs || *entered > end + DEGRADE_GRACE_SECS
            }
        })
        .count() as u64;

    (violation, failsafe, spurious)
}

/// Builds the scenario configuration for one trial of `spec`.
fn trial_config(spec: &CellSpec, cfg: &CampaignConfig, trial: u64) -> PcaScenarioConfig {
    let cohort = CohortGenerator::new(cfg.seed, CohortConfig::default());
    let params = cohort.params(cfg.seed.wrapping_mul(131).wrapping_add(trial));
    let mut c = PcaScenarioConfig::baseline(
        cfg.seed.wrapping_add(trial).wrapping_add(spec.onset.as_millis()),
        params,
    );
    c.duration = cfg.run;
    c.proxy_rate_per_hour = 20.0;
    c.backup_oximeter = spec.backup;
    c.scheduler_telemetry = true;
    if let Some(il) = c.interlock.as_mut() {
        il.plausibility_check = spec.plausibility;
    }
    if let Some(kind) = spec.fault {
        let plan = FaultPlan::none().with_fault(kind, spec.onset, spec.until);
        match spec.target {
            FaultTarget::Oximeter => c.oximeter_fault = plan,
            FaultTarget::Pump => c.pump_fault = plan,
            FaultTarget::Supervisor | FaultTarget::Network => {
                // Control-plane cells exercise the redundant pair.
                c.standby_supervisor = true;
                c.supervisor_fault = plan;
            }
            FaultTarget::None => {}
        }
    }
    if let Some(w) = spec.outage {
        c.outages = vec![w];
    }
    c
}

/// Runs one grid cell: `cfg.trials` cohort patients, aggregated into a
/// [`CellReport`].
pub fn run_cell(spec: &CellSpec, cfg: &CampaignConfig) -> CellReport {
    let run_secs = cfg.run.as_secs_f64();
    let mut violations = 0u64;
    let mut reasons: Vec<String> = Vec::new();
    let mut failsafe_times: Vec<f64> = Vec::new();
    let mut spurious = 0u64;
    let mut degraded_entries = 0u64;
    let mut commands_retried = 0u64;
    let mut commands_suppressed = 0u64;
    let mut failovers = 0u64;
    let mut fenced_commands = 0u64;
    let mut double_actuations = 0u64;
    let mut local_failsafe_entries = 0u64;
    let mut max_drug = 0f64;
    let mut min_spo2 = f64::INFINITY;
    let mut queue = QueuePressure { events_scheduled: 0, cascades: 0, max_ready_depth: 0 };
    for trial in 0..cfg.trials {
        let out = run_pca_scenario(&trial_config(spec, cfg, trial));
        let (violation, failsafe, sp) = evaluate(spec, run_secs, &out);
        if let Some(reason) = violation {
            violations += 1;
            if !reasons.contains(&reason) {
                reasons.push(reason);
            }
        }
        failsafe_times.extend(failsafe);
        spurious += sp;
        degraded_entries += out.degraded_windows_secs.len() as u64;
        commands_retried += out.commands_retried;
        commands_suppressed += out.commands_suppressed;
        failovers += u64::from(out.failovers);
        fenced_commands += out.fenced_commands;
        double_actuations += out.double_actuations;
        local_failsafe_entries += out.local_failsafe_entries;
        max_drug = max_drug.max(out.total_drug_mg);
        min_spo2 = min_spo2.min(out.patient.min_spo2);
        queue.events_scheduled += out.telemetry.counter("sched.events_scheduled");
        queue.cascades += out.telemetry.counter("sched.cascades");
        let depth =
            out.telemetry.histogram("sched.max_ready_depth").map_or(0.0, |h| h.summary().max);
        queue.max_ready_depth = queue.max_ready_depth.max(depth as u64);
    }
    let failsafe = (!failsafe_times.is_empty()).then(|| {
        let s = Summary::from_values(&failsafe_times);
        FailsafeSummary {
            engaged: failsafe_times.len() as u64,
            p50_secs: s.median,
            p95_secs: s.p95,
            max_secs: s.max,
        }
    });
    CellReport {
        id: spec.id.clone(),
        kind: spec.kind_label.to_owned(),
        target: spec.target,
        invariant: spec.invariant,
        onset_secs: spec.onset.as_secs_f64(),
        duration_secs: spec.until.map(|u| (u - spec.onset).as_secs_f64()),
        outage: spec.outage.is_some(),
        backup: spec.backup,
        trials: cfg.trials,
        violations,
        violation_reasons: reasons,
        failsafe,
        spurious_degradations: spurious,
        degraded_entries,
        commands_retried,
        commands_suppressed,
        failovers,
        fenced_commands,
        double_actuations,
        local_failsafe_entries,
        max_total_drug_mg: max_drug,
        min_spo2,
        queue,
    }
}

/// Runs the whole campaign grid in parallel (cells are independent and
/// internally deterministic, so the report is reproducible for a given
/// seed regardless of worker count).
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let mut grid = build_grid(cfg);
    grid.extend(mined_failover_cells());
    let cfg_ref = cfg.clone();
    let cells = run_shards(grid, move |spec| run_cell(&spec, &cfg_ref));
    let total_violations = cells.iter().map(|c| c.violations).sum();
    let total_spurious = cells.iter().map(|c| c.spurious_degradations).sum();
    let max_ready_depth = cells.iter().map(|c| c.queue.max_ready_depth).max().unwrap_or(0);
    CampaignReport {
        seed: cfg.seed,
        trials_per_cell: cfg.trials,
        run_secs: cfg.run.as_secs_f64(),
        cells,
        total_violations,
        total_spurious,
        max_ready_depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_deterministic_and_deduplicates_control_durations() {
        let cfg = CampaignConfig::full(9);
        let a = build_grid(&cfg);
        let b = build_grid(&cfg);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.id == y.id));
        // Control cells appear once per (onset, outage, scenario) —
        // the duration axis is meaningless without a fault.
        let controls = a.iter().filter(|c| c.fault.is_none()).count();
        assert_eq!(controls, cfg.onsets.len() * 2 * 2);
        // 9 fault kinds × 2 durations + 1 control, × outage × scenario.
        assert_eq!(a.len(), cfg.onsets.len() * (9 * 2 + 1) * 2 * 2);
    }

    #[test]
    fn quick_grid_is_smaller() {
        let full = build_grid(&CampaignConfig::full(9)).len();
        let quick = build_grid(&CampaignConfig::quick(9)).len();
        assert!(quick < full / 2, "quick {quick} vs full {full}");
    }

    #[test]
    fn crash_cell_engages_failsafe_with_zero_violations() {
        let mut cfg = CampaignConfig::quick(5);
        cfg.run = SimDuration::from_mins(15);
        let spec = build_grid(&cfg)
            .into_iter()
            .find(|c| c.kind_label == "crash" && !c.backup && c.outage.is_none())
            .expect("crash cell in grid");
        let report = run_cell(&spec, &cfg);
        assert_eq!(report.violations, 0, "reasons: {:?}", report.violation_reasons);
        let fs = report.failsafe.expect("fail-safe must engage");
        assert!(fs.max_secs <= FRESHNESS_DEADLINE_SECS, "{}", fs.max_secs);
        assert_eq!(report.spurious_degradations, 0);
        assert!(report.degraded_entries >= 1, "sensor loss must degrade the supervisor");
    }

    #[test]
    fn stuck_value_cell_needs_the_plausibility_screen() {
        let mut cfg = CampaignConfig::quick(5);
        cfg.run = SimDuration::from_mins(15);
        let mut spec = build_grid(&cfg)
            .into_iter()
            .find(|c| c.kind_label == "stuck" && !c.backup && c.outage.is_none())
            .expect("stuck cell in grid");
        assert!(spec.plausibility && spec.until.is_none());
        let screened = run_cell(&spec, &cfg);
        assert_eq!(screened.violations, 0, "reasons: {:?}", screened.violation_reasons);
        spec.plausibility = false;
        let bare = run_cell(&spec, &cfg);
        assert!(bare.violations > 0, "frozen data must defeat freshness checking alone");
    }

    #[test]
    fn supervisor_crash_cell_fails_over_with_zero_violations() {
        let mut cfg = CampaignConfig::quick(5);
        cfg.run = SimDuration::from_mins(15);
        let spec = build_grid(&cfg)
            .into_iter()
            .find(|c| c.kind_label == "sup-crash" && !c.backup && c.outage.is_none())
            .expect("sup-crash cell in grid");
        let report = run_cell(&spec, &cfg);
        assert_eq!(report.violations, 0, "reasons: {:?}", report.violation_reasons);
        assert!(report.failovers >= 1, "the standby must promote");
        assert_eq!(report.double_actuations, 0);
        assert_eq!(report.spurious_degradations, 0);
    }

    #[test]
    fn mined_cell_schedule_derives_from_the_model_trace() {
        use mcps_safety::timing::PROMOTION_SILENCE_SECS;
        let (crash, promote, recover) = mine_unfenced_schedule()
            .expect("the unfenced-pump mutant must yield a counterexample to mine");
        // The mined schedule must preserve the counterexample's shape:
        // a full silence window between crash and promotion, and the
        // recovery clamped strictly past the promotion.
        assert!(promote > crash + u64::from(PROMOTION_SILENCE_SECS), "early promotion");
        assert!(recover > promote, "recovery must land after the promotion");
        let cells = mined_failover_cells();
        assert_eq!(cells.len(), 1, "exactly one mined regression cell");
        let cell = &cells[0];
        assert_eq!(cell.fault, Some(FaultKind::SupervisorCrash));
        assert_eq!(cell.target, FaultTarget::Supervisor);
        assert_eq!(cell.invariant, InvariantClass::Failover);
        assert_eq!(cell.onset, SimTime::from_secs(MINED_ANCHOR_SECS + crash));
        assert_eq!(cell.until, Some(SimTime::from_secs(MINED_ANCHOR_SECS + recover)));
        // The checker is deterministic, so the mined cell is too —
        // reruns must not churn the committed scorecard.
        let again = mined_failover_cells();
        assert_eq!(cell.id, again[0].id);
        assert_eq!(cell.onset, again[0].onset);
        assert_eq!(cell.until, again[0].until);
    }

    #[test]
    fn mined_cell_replays_clean_on_the_fenced_implementation() {
        let mut cfg = CampaignConfig::quick(5);
        cfg.run = SimDuration::from_mins(15);
        let spec = mined_failover_cells().pop().expect("mined cell");
        let report = run_cell(&spec, &cfg);
        assert_eq!(report.violations, 0, "reasons: {:?}", report.violation_reasons);
        assert!(report.failovers >= 1, "the mined crash window must promote the standby");
        assert_eq!(
            report.double_actuations, 0,
            "the epoch fence must reject the recovered ex-primary's stale traffic"
        );
    }

    #[test]
    fn partition_cell_fences_the_isolated_primary() {
        let mut cfg = CampaignConfig::quick(5);
        cfg.run = SimDuration::from_mins(15);
        let spec = build_grid(&cfg)
            .into_iter()
            .find(|c| c.kind_label == "partition" && !c.backup && c.outage.is_none())
            .expect("partition cell in grid");
        let report = run_cell(&spec, &cfg);
        assert_eq!(report.violations, 0, "reasons: {:?}", report.violation_reasons);
        assert!(report.failovers >= 1, "checkpoint silence must promote the standby");
        assert_eq!(report.double_actuations, 0, "the epoch fence must hold");
    }
}
