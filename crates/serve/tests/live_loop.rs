//! End-to-end serve-mode loop: a [`ServeHost`] and a [`PcaBedClient`]
//! talking over an in-memory transport, run cooperatively on one
//! thread. Proves the full live path — announce, associate, stream
//! vitals, detect danger, stop the pump — outside the simulator.

use mcps_control::interlock::{DetectorKind, InterlockConfig, InterlockStrategy};
use mcps_core::{IceCommand, NetAddress, NetOp, NetPayload, PcaSafetyApp, SupervisorCore};
use mcps_device::pump::PumpState;
use mcps_net::fabric::Topic;
use mcps_patient::vitals::VitalKind;
use mcps_runtime::time::SimDuration;
use mcps_serve::client::{PcaBedClient, PUMP_EP, SUP_EP};
use mcps_serve::host::{ServeConfig, ServeHost};
use mcps_serve::transport::{ChannelTransport, Transport};
use std::time::{Duration, Instant};

const SPEED: f64 = 200.0;

fn command_core() -> SupervisorCore {
    let config = InterlockConfig {
        strategy: InterlockStrategy::Command,
        detector: DetectorKind::Threshold,
        resume_holdoff: SimDuration::from_secs(10),
        ..InterlockConfig::default()
    };
    SupervisorCore::new(PcaSafetyApp::new(config), SUP_EP, SimDuration::from_secs(2))
}

/// Runs host and client rounds until `done` holds or `wall_budget`
/// expires, injecting `(spo2, rr)` vitals each round.
fn run_rounds(
    host: &mut ServeHost<ChannelTransport>,
    client: &mut PcaBedClient<ChannelTransport>,
    vitals: (f64, f64),
    wall_budget: Duration,
    mut done: impl FnMut(&ServeHost<ChannelTransport>, &PcaBedClient<ChannelTransport>) -> bool,
) -> bool {
    let start = Instant::now();
    while start.elapsed() < wall_budget {
        client.send_vital(VitalKind::Spo2, vitals.0);
        client.send_vital(VitalKind::RespRate, vitals.1);
        host.poll();
        client.step();
        if done(host, client) {
            return true;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    false
}

#[test]
fn live_association_then_danger_stops_pump() {
    let (server_t, client_t) = ChannelTransport::pair();
    let mut host = ServeHost::new(
        command_core(),
        server_t,
        ServeConfig {
            speed: SPEED,
            ingress_capacity: 64,
            trace: false,
            seed: 1,
            ..Default::default()
        },
    );
    let mut client = PcaBedClient::new(client_t, SPEED);
    client.announce_monitors();

    // Phase 1: healthy vitals until the supervisor is fully associated.
    let associated =
        run_rounds(&mut host, &mut client, (97.0, 14.0), Duration::from_secs(20), |h, _| {
            h.core().associated_at().is_some()
        });
    assert!(associated, "supervisor never associated: {:?}", host.core().manager());
    assert!(
        run_rounds(&mut host, &mut client, (97.0, 14.0), Duration::from_secs(20), |_, c| {
            c.is_permitted()
        }),
        "pump never reached a permitted state under healthy vitals"
    );

    // Phase 2: SpO₂ crosses the danger threshold (< 90). The interlock
    // must push a stop through the transport to the bed's pump.
    let danger_at = client.sim_now();
    let stopped =
        run_rounds(&mut host, &mut client, (85.0, 14.0), Duration::from_secs(20), |_, c| {
            c.first_stop_at_or_after(danger_at).is_some()
        });
    assert!(stopped, "pump never received a stop after danger crossing");
    let stop_at = client.first_stop_at_or_after(danger_at).unwrap();
    let latency = stop_at.saturating_since(danger_at);
    assert!(latency <= SimDuration::from_secs(10), "danger→stop latency too high: {latency:?}");
    assert!(!client.is_permitted(), "pump still permits boluses after stop");

    // The host never dropped a protocol message while doing all this.
    assert_eq!(host.stats().critical_overflow, 0);
    assert!(!client.server_closed());
    // Neither side built a trace string across the danger→stop cycle:
    // the host runs with tracing off, and so does the bed's pump.
    assert_eq!(host.outputs().traces_built(), 0);
    assert_eq!(client.outputs().traces_built(), 0, "the bed's pump built trace strings");
    assert!(client.outputs().traces_suppressed() > 0, "the stop left no suppressed trace");
}

/// The bed hands its pump only commands addressed to the pump's
/// endpoint. A topic-addressed `StopPump` has no consumer on the bed:
/// it must be neither applied nor acked, while the same command sent
/// to the pump's endpoint is both.
#[test]
fn topic_addressed_pump_command_is_ignored() {
    let (mut sup, client_t) = ChannelTransport::pair();
    let mut client = PcaBedClient::new(client_t, SPEED);
    let stop = |id, to| NetOp::Send {
        from: SUP_EP,
        to,
        payload: NetPayload::Command { id, epoch: 1, command: IceCommand::StopPump },
    };
    let mut acks = 0;
    let mut settle = |client: &mut PcaBedClient<ChannelTransport>, sup: &mut ChannelTransport| {
        for _ in 0..5 {
            client.step();
            std::thread::sleep(Duration::from_millis(2));
        }
        while let Some(op) = sup.try_recv().expect("bed link open") {
            if matches!(op, NetOp::Deliver { payload: NetPayload::Ack { .. }, .. }) {
                acks += 1;
            }
        }
        acks
    };
    assert_eq!(settle(&mut client, &mut sup), 0);
    assert!(client.is_permitted(), "a command-mode pump starts permitted");

    sup.send(&stop(1, NetAddress::Topic(Topic::new("ice/pump")))).expect("send");
    assert_eq!(settle(&mut client, &mut sup), 0, "a topic-addressed command was acked");
    assert_eq!(client.pump().pump().state(), PumpState::Running, "topic command applied");
    assert!(client.is_permitted());

    sup.send(&stop(2, NetAddress::Endpoint(PUMP_EP))).expect("send");
    assert_eq!(settle(&mut client, &mut sup), 1, "the endpoint-addressed stop is acked once");
    assert!(matches!(client.pump().pump().state(), PumpState::Stopped(_)));
    assert!(!client.is_permitted());
}

#[test]
fn host_survives_client_disconnect() {
    let (server_t, client_t) = ChannelTransport::pair();
    let mut host = ServeHost::new(
        command_core(),
        server_t,
        ServeConfig {
            speed: SPEED,
            ingress_capacity: 64,
            trace: false,
            seed: 2,
            ..Default::default()
        },
    );
    let client = PcaBedClient::new(client_t, SPEED);
    drop(client);
    // The next polls observe the closed transport and report the
    // session over, without panicking or spinning.
    let mut open = true;
    for _ in 0..100 {
        open = host.poll();
        if !open {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(!open, "host failed to notice the peer going away");
    assert!(host.is_closed());
}
