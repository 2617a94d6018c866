//! Serve mode under fire: the live loop driven through a
//! [`ChaosTransport`] (drops, duplicates, delays, reorders, truncated
//! and bit-flipped frames on a real decoder), and an in-process
//! crash → journal-resume → reconnect cycle proving the fencing
//! invariants hold across a restart.

use mcps_control::interlock::{DetectorKind, InterlockConfig, InterlockStrategy};
use mcps_core::{PcaSafetyApp, SupervisorCore};
use mcps_patient::vitals::VitalKind;
use mcps_runtime::time::SimDuration;
use mcps_serve::chaos::{ChaosConfig, ChaosTransport};
use mcps_serve::client::{PcaBedClient, ReconnectPolicy, SUP_EP};
use mcps_serve::host::{ServeConfig, ServeHost};
use mcps_serve::journal::Journal;
use mcps_serve::transport::{ChannelTransport, Transport};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

const SPEED: f64 = 200.0;

fn command_core(resume_holdoff_secs: u64) -> SupervisorCore {
    let config = InterlockConfig {
        strategy: InterlockStrategy::Command,
        detector: DetectorKind::Threshold,
        resume_holdoff: SimDuration::from_secs(resume_holdoff_secs),
        ..InterlockConfig::default()
    };
    SupervisorCore::new(PcaSafetyApp::new(config), SUP_EP, SimDuration::from_secs(2))
}

/// Cooperative host/client rounds until `done` or the wall budget
/// runs out; monitors are re-announced periodically because a chaos
/// link can eat the first announce.
fn run_rounds<H: Transport, C: Transport>(
    host: &mut ServeHost<H>,
    client: &mut PcaBedClient<C>,
    vitals: (f64, f64),
    wall_budget: Duration,
    mut done: impl FnMut(&ServeHost<H>, &PcaBedClient<C>) -> bool,
) -> bool {
    let start = Instant::now();
    let mut round = 0u64;
    while start.elapsed() < wall_budget {
        client.send_vital(VitalKind::Spo2, vitals.0);
        client.send_vital(VitalKind::RespRate, vitals.1);
        if round.is_multiple_of(50) {
            client.announce_monitors();
        }
        round += 1;
        host.poll();
        client.step();
        if done(host, client) {
            return true;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    false
}

/// The full live path — associate, stream, danger, stop — with every
/// chaos fault class active on both directions of both ends. The
/// decoder must resync past corruption, the protocol must retry
/// through loss, and the pump must never double-actuate.
#[test]
fn danger_stops_pump_through_a_chaotic_link() {
    let (server_raw, client_raw) = ChannelTransport::pair();
    let server_t = ChaosTransport::new(server_raw, ChaosConfig::storm(21));
    let client_t = ChaosTransport::new(client_raw, ChaosConfig::storm(22));
    let host_chaos = server_t.stats();
    let client_chaos = client_t.stats();

    let mut host = ServeHost::new(
        command_core(10),
        server_t,
        ServeConfig {
            speed: SPEED,
            ingress_capacity: 64,
            trace: false,
            seed: 5,
            ..Default::default()
        },
    );
    let mut client = PcaBedClient::new(client_t, SPEED);
    client.announce_monitors();

    assert!(
        run_rounds(&mut host, &mut client, (97.0, 14.0), Duration::from_secs(30), |h, c| {
            h.core().associated_at().is_some() && c.is_permitted()
        }),
        "bed never associated through the chaotic link"
    );

    let danger_at = client.sim_now();
    assert!(
        run_rounds(&mut host, &mut client, (85.0, 14.0), Duration::from_secs(30), |_, c| {
            c.first_stop_at_or_after(danger_at).is_some()
        }),
        "pump never stopped after danger through the chaotic link"
    );

    // Safety through the noise: duplicated/replayed commands never
    // double-actuate, and corruption was really exercised.
    assert_eq!(client.pump_actor().double_actuations(), 0);
    let corrupted = host_chaos.corrupted() + client_chaos.corrupted();
    let resynced = host_chaos.resynced_total() + client_chaos.resynced_total();
    assert!(corrupted > 0, "chaos plan never corrupted a frame — test proves nothing");
    assert!(resynced > 0, "decoder never resynced — corruption was not live");
}

/// Crash → resume in one process: a journaled host dies mid-session,
/// a successor resumes from the journal with a strictly higher epoch,
/// the client re-dials under backoff and re-announces, and the
/// protocol (including danger→stop and fencing) carries on.
#[test]
fn journal_resume_and_reconnect_restore_the_session() {
    let dir = std::env::temp_dir().join(format!("mcps-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("ckpt");

    // The dialer pulls fresh transports from a slot the test refills
    // after each "restart".
    let slot: Rc<RefCell<Option<ChannelTransport>>> = Rc::new(RefCell::new(None));
    let dial_slot = Rc::clone(&slot);
    let (server_t, client_t) = ChannelTransport::pair();
    let mut client = PcaBedClient::new(client_t, SPEED).with_reconnect(
        move || dial_slot.borrow_mut().take(),
        ReconnectPolicy { base_ms: 5, max_ms: 40, jitter_seed: 3 },
    );

    // Generation 1: journaled host, associate, observe a first stop.
    let (journal, recovery) = Journal::open(&base).unwrap();
    assert!(recovery.state.is_none());
    let mut host = ServeHost::new(
        command_core(5),
        server_t,
        ServeConfig {
            speed: SPEED,
            ingress_capacity: 64,
            trace: false,
            seed: 6,
            ..Default::default()
        },
    );
    host.attach_journal(journal);
    client.announce_monitors();
    assert!(
        run_rounds(&mut host, &mut client, (97.0, 14.0), Duration::from_secs(20), |h, c| {
            // Fully up = associated, pump permitted, and at least one
            // epoch-stamped heartbeat seen by the pump.
            h.core().associated_at().is_some()
                && c.is_permitted()
                && c.pump_actor().max_epoch_seen() >= h.core().epoch()
        }),
        "generation 1 never fully associated"
    );
    let epoch1 = host.core().epoch();
    assert!(host.journal().unwrap().appended() > 0, "journal never received a checkpoint");

    // Kill generation 1 (drop = the process dies; the WAL survives).
    drop(host);

    // Generation 2: replay the journal, resume fenced, reconnect.
    let (journal2, recovery2) = Journal::open(&base).unwrap();
    let ckpt = recovery2.state.expect("journal must replay generation 1's state");
    assert_eq!(ckpt.epoch, epoch1);
    let core2 = command_core(5).resume_from(&ckpt);
    let epoch2 = core2.epoch();
    assert!(epoch2 > epoch1, "resumed epoch must be strictly higher");
    let (server_t2, client_t2) = ChannelTransport::pair();
    let mut host2 = ServeHost::new(
        core2,
        server_t2,
        ServeConfig {
            speed: SPEED,
            ingress_capacity: 64,
            trace: false,
            seed: 7,
            ..Default::default()
        },
    );
    host2.attach_journal(journal2);
    *slot.borrow_mut() = Some(client_t2);

    // The client notices the dead link, re-dials, re-announces; the
    // pump re-binds via its periodic announce and accepts the new
    // epoch.
    assert!(
        run_rounds(&mut host2, &mut client, (97.0, 14.0), Duration::from_secs(30), |h, c| {
            h.core().associated_at().is_some()
                && c.is_permitted()
                && c.pump_actor().max_epoch_seen() >= epoch2
        }),
        "generation 2 never re-associated after reconnect (reconnects={}, dial_failures={})",
        client.reconnects(),
        client.dial_failures(),
    );
    assert_eq!(client.reconnects(), 1);
    assert!(host2.core().restored(), "generation 2 must know it resumed");

    // Danger→stop still works across the restart, and the fencing
    // invariants held: nothing double-actuated, the pump follows the
    // strictly-higher epoch.
    let danger_at = client.sim_now();
    assert!(
        run_rounds(&mut host2, &mut client, (85.0, 14.0), Duration::from_secs(20), |_, c| {
            c.first_stop_at_or_after(danger_at).is_some()
        }),
        "no stop after danger in generation 2"
    );
    assert_eq!(client.pump_actor().double_actuations(), 0);
    assert!(client.pump_actor().max_epoch_seen() >= epoch2);

    let _ = std::fs::remove_dir_all(&dir);
}
