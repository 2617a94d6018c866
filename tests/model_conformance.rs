//! Model-to-implementation conformance: the verified ticket-pump
//! automaton, *executed directly*, must agree with the hand-written
//! `PcaPump` on when delivery is permitted — under arbitrary ticket
//! schedules. This is the paper's model-based-development promise made
//! checkable: what was proved is what runs.

use mcps::device::pump::{PcaPump, PcaPumpConfig};
use mcps::runtime::time::{SimDuration, SimTime};
use mcps::safety::executor::AutomatonExecutor;
use mcps::safety::models::{pump_ticket_model, TICKET_VALIDITY};
use proptest::prelude::*;

/// Drives both artifacts through the same schedule of grant instants
/// (in whole seconds = model time units) and compares the permission
/// signal each second.
fn conformance_run(grant_at: Vec<u64>, horizon: u64) -> Result<(), String> {
    let mut pump = PcaPump::new(PcaPumpConfig { ticket_mode: true, ..PcaPumpConfig::default() });
    let mut model = AutomatonExecutor::new(pump_ticket_model());
    let validity = SimDuration::from_secs(u64::from(TICKET_VALIDITY));
    let mut grants = grant_at;
    grants.sort_unstable();
    grants.dedup();
    let mut iter = grants.into_iter().peekable();

    // The model starts in Running with clock 0 (as if granted at t=0);
    // mirror that in the pump.
    pump.grant_ticket(SimTime::ZERO, validity);

    for s in 0..horizon {
        let now = SimTime::from_secs(s);
        while iter.peek() == Some(&s) {
            iter.next();
            pump.grant_ticket(now, validity);
            // The model refuses tickets at the exact expiry instant
            // (clock == validity) but accepts them in Stopped
            // (resurrect); `offer` returning NotEnabled can only happen
            // at that boundary instant, where the forced `expire` fires
            // first on the next advance — retry after settling.
            if model.offer("ticket_d").is_err() {
                model.advance(0);
                model.offer("ticket_d").map_err(|e| format!("t={s}: model refused ticket: {e}"))?;
            }
        }
        let model_running = model.in_location("Running");
        let pump_permitted = pump.is_permitted(now);
        if model_running != pump_permitted {
            return Err(format!(
                "t={s}: model {} vs pump {} (model clock {})",
                if model_running { "Running" } else { "Stopped" },
                if pump_permitted { "permitted" } else { "blocked" },
                model.clock("t"),
            ));
        }
        model.advance(1);
    }
    Ok(())
}

#[test]
fn periodic_grants_conform() {
    let grants: Vec<u64> = (0..40).map(|i| i * 5).collect();
    conformance_run(grants, 220).unwrap();
}

#[test]
fn silence_conforms() {
    // One initial grant, then nothing: both stop at validity.
    conformance_run(vec![], 40).unwrap();
}

#[test]
fn resurrection_conforms() {
    // Grant, long silence (expiry), then a late grant: both resume.
    conformance_run(vec![0, 30], 60).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary grant schedules: permission signals agree second by
    /// second.
    #[test]
    fn arbitrary_schedules_conform(
        grants in proptest::collection::vec(0u64..120, 0..30),
    ) {
        if let Err(e) = conformance_run(grants.clone(), 140) {
            prop_assert!(false, "divergence under {grants:?}: {e}");
        }
    }
}
