//! Clinical apps (virtual medical devices).
//!
//! A *clinical app* is the supervisor-resident logic of one clinical
//! scenario: it declares the device slots it needs, receives the data
//! those devices publish, and issues commands to them by slot name.
//! The app never sees endpoints, vendors or network details — that
//! indirection is precisely what makes the composed system a *virtual
//! medical device* assembled on demand.

use mcps_device::profile::DeviceRequirementSet;
use mcps_patient::vitals::VitalKind;
use mcps_runtime::rng::SimRng;
use mcps_runtime::time::SimTime;

use crate::manager::DeviceManager;
use crate::msg::IceCommand;

/// What an app may do during a callback: inspect time/associations and
/// enqueue commands to its device slots.
#[derive(Debug)]
pub struct AppCtx<'a> {
    now: SimTime,
    manager: &'a DeviceManager,
    rng: &'a mut SimRng,
    outbox: Vec<(String, IceCommand)>,
    notes: Vec<String>,
    notes_enabled: bool,
}

impl<'a> AppCtx<'a> {
    pub(crate) fn new(now: SimTime, manager: &'a DeviceManager, rng: &'a mut SimRng) -> Self {
        AppCtx { now, manager, rng, outbox: Vec::new(), notes: Vec::new(), notes_enabled: true }
    }

    /// Sets whether notes are collected at all. The supervisor passes
    /// its trace enablement here so disabled-trace runs never build the
    /// note `String`s they would immediately discard.
    pub(crate) fn with_notes_enabled(mut self, enabled: bool) -> Self {
        self.notes_enabled = enabled;
        self
    }

    /// The app's deterministic random stream (e.g. for modelling human
    /// latencies in manual-workflow baselines).
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Whether every slot is associated.
    pub fn fully_associated(&self) -> bool {
        self.manager.fully_associated()
    }

    /// Whether a specific slot is associated.
    pub fn slot_associated(&self, slot: &str) -> bool {
        self.manager.endpoint_for(slot).is_some()
    }

    /// Enqueues a command to the device in `slot`. Commands to
    /// unassociated slots are dropped by the supervisor (and traced).
    pub fn command(&mut self, slot: &str, command: IceCommand) {
        self.outbox.push((slot.to_owned(), command));
    }

    /// Emits a trace note (appears under the `app` category). The
    /// enablement check precedes the `Into<String>` conversion, so a
    /// disabled trace pays no allocation even for `&str` arguments.
    pub fn note(&mut self, text: impl Into<String>) {
        if self.notes_enabled {
            self.notes.push(text.into());
        }
    }

    /// Emits a lazily built trace note: the closure runs only when
    /// notes are being collected. Prefer this over [`Self::note`] when
    /// the message requires formatting.
    pub fn note_with(&mut self, text: impl FnOnce() -> String) {
        if self.notes_enabled {
            self.notes.push(text());
        }
    }

    pub(crate) fn into_parts(self) -> (Vec<(String, IceCommand)>, Vec<String>) {
        (self.outbox, self.notes)
    }
}

/// The clinical-app interface.
///
/// Implementations are plain state machines; all I/O happens through
/// [`AppCtx`]. See [`crate::apps::PcaSafetyApp`] for the paper's
/// flagship example.
///
/// The [`AsAny`](mcps_runtime::actor::AsAny) supertrait (blanket-implemented
/// for every `'static` type) lets experiment harnesses downcast to the
/// concrete app after a run.
pub trait ClinicalApp: mcps_runtime::actor::AsAny {
    /// The device slots this app requires.
    fn requirements(&self) -> Vec<DeviceRequirementSet>;

    /// Called once when the last slot associates.
    fn on_associated(&mut self, ctx: &mut AppCtx<'_>) {
        let _ = ctx;
    }

    /// Called for every data point arriving from an associated device.
    fn on_data(&mut self, ctx: &mut AppCtx<'_>, kind: VitalKind, value: f64, sampled_at: SimTime);

    /// Called when a device acknowledges a command.
    fn on_ack(&mut self, ctx: &mut AppCtx<'_>, command: IceCommand, applied_at: SimTime) {
        let _ = (ctx, command, applied_at);
    }

    /// Called at the supervisor's control rate (1 Hz).
    fn on_tick(&mut self, ctx: &mut AppCtx<'_>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_collects_commands_and_notes() {
        let manager = DeviceManager::new(vec![]);
        let mut rng = mcps_runtime::rng::RngFactory::new(1).stream("appctx");
        let mut ctx = AppCtx::new(SimTime::from_secs(3), &manager, &mut rng);
        assert_eq!(ctx.now(), SimTime::from_secs(3));
        assert!(ctx.fully_associated(), "no slots = trivially associated");
        assert!(!ctx.slot_associated("pump"));
        ctx.command("pump", IceCommand::StopPump);
        ctx.note("hello");
        let (out, notes) = ctx.into_parts();
        assert_eq!(out, vec![("pump".to_owned(), IceCommand::StopPump)]);
        assert_eq!(notes, vec!["hello".to_owned()]);
    }

    #[test]
    fn disabled_notes_build_nothing() {
        let manager = DeviceManager::new(vec![]);
        let mut rng = mcps_runtime::rng::RngFactory::new(1).stream("appctx");
        let mut ctx = AppCtx::new(SimTime::ZERO, &manager, &mut rng).with_notes_enabled(false);
        let mut built = 0u32;
        ctx.note("dropped");
        ctx.note_with(|| {
            built += 1;
            "never".to_owned()
        });
        assert_eq!(built, 0, "disabled notes must not run the closure");
        let (_, notes) = ctx.into_parts();
        assert!(notes.is_empty());
    }
}
