//! The crash harness: kill -9 the live supervisor mid-bolus and prove
//! the bed's device-local fail-safe watchdog holds on its own.
//!
//! This is the serve-mode analogue of the simulator's fault campaigns,
//! but with a *real* process boundary: the `mcps-serve` binary runs as
//! a child speaking frames over its pipes, the bed client runs in the
//! test, and the kill is an actual `SIGKILL` — no destructor, no
//! goodbye frame, exactly what a hardware watchdog scenario assumes.
//! After the kill the pump must engage its local fail-safe (bolus
//! suspension) within the 15-second supervision deadline, with no help
//! from the dead supervisor.

#![cfg(unix)]

use mcps_patient::vitals::VitalKind;
use mcps_runtime::time::SimDuration;
use mcps_serve::client::PcaBedClient;
use mcps_serve::transport::FramedTransport;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Sim-seconds per wall-second for the whole scenario: 15 protocol
/// seconds of watchdog window pass in half a wall second.
const SPEED: f64 = 30.0;

/// Steps the client with healthy vitals until `done` or wall budget.
fn drive(
    client: &mut PcaBedClient<FramedTransport<std::process::ChildStdin>>,
    vitals: Option<(f64, f64)>,
    wall_budget: Duration,
    mut done: impl FnMut(&PcaBedClient<FramedTransport<std::process::ChildStdin>>) -> bool,
) -> bool {
    let start = Instant::now();
    while start.elapsed() < wall_budget {
        if let Some((spo2, rr)) = vitals {
            client.send_vital(VitalKind::Spo2, spo2);
            client.send_vital(VitalKind::RespRate, rr);
        }
        client.step();
        if done(client) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    false
}

#[test]
fn sigkill_mid_bolus_engages_local_failsafe_within_deadline() {
    let mut child = match Command::new(env!("CARGO_BIN_EXE_mcps-serve"))
        .args(["--speed", &SPEED.to_string(), "--seed", "11"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
    {
        Ok(c) => c,
        Err(e) => {
            // Environments that forbid spawning child processes can't
            // run this harness; everything it exercises in-process is
            // covered by live_loop.rs.
            eprintln!("skipping crash harness: cannot spawn mcps-serve: {e}");
            return;
        }
    };
    let stdin = child.stdin.take().expect("child stdin piped");
    let stdout = child.stdout.take().expect("child stdout piped");
    let mut client = PcaBedClient::new(FramedTransport::new(stdout, stdin), SPEED);
    client.announce_monitors();

    // Healthy association: stream good vitals until the pump permits
    // boluses under live supervision.
    let healthy =
        drive(&mut client, Some((97.0, 14.0)), Duration::from_secs(30), |c| c.is_permitted());
    assert!(healthy, "bed never reached a permitted state under the live supervisor");

    // Start a bolus, confirm it is actually running.
    client.press_button();
    let bolus_started = drive(&mut client, Some((97.0, 14.0)), Duration::from_secs(10), |c| {
        c.pump().pump().bolus_in_progress(c.sim_now())
    });
    assert!(bolus_started, "bolus never started while supervised");

    // kill -9, mid-bolus. The supervisor gets no chance to send a stop.
    child.kill().expect("SIGKILL the supervisor");
    let killed_at = client.sim_now();
    child.wait().expect("reap the supervisor");

    // The bed keeps running against a dead peer (sends hit EPIPE and
    // are tolerated). The local watchdog must latch within its
    // 15-second deadline; allow one extra protocol second of slack for
    // tick quantization at 30x.
    let deadline = SimDuration::from_secs(15 + 1);
    let latched = drive(&mut client, Some((97.0, 14.0)), Duration::from_secs(30), |c| {
        c.pump().local_failsafe()
            || c.sim_now().saturating_since(killed_at) > deadline + SimDuration::from_secs(4)
    });
    assert!(latched, "client loop stalled before the watchdog verdict");
    assert!(
        client.pump().local_failsafe(),
        "local fail-safe never engaged after supervisor SIGKILL (elapsed {:?})",
        client.sim_now().saturating_since(killed_at)
    );
    let latch_at = client
        .history()
        .failsafe_transitions()
        .iter()
        .find(|&&(_, engaged)| engaged)
        .map(|&(at, _)| at)
        .expect("the history records the latch");
    let reaction = latch_at.saturating_since(killed_at);
    assert!(
        reaction <= deadline,
        "fail-safe latched too late: {reaction:?} after kill (deadline {deadline:?})"
    );
    // The latch is real protection: the in-flight bolus was aborted
    // and further demand boluses are suspended (basal continues — the
    // watchdog's safe state is basal-only, not a hard stop).
    assert!(client.pump().pump().bolus_suspended(), "latch did not suspend boluses");
    assert!(
        !client.pump().pump().bolus_in_progress(client.sim_now()),
        "bolus still running after the fail-safe latch"
    );
}
