//! Serve mode, live: a supervisor host and a PCA bed client running
//! cooperatively over an in-memory transport, on wall-clock time.
//!
//! The same [`SupervisorCore`] that the simulator drives is hosted here
//! by [`ServeHost`] against a [`PcaBedClient`] whose pump is the real
//! device model (fail-safe watchdog and all) while its monitors are
//! scripted. The script: associate, run healthy, then let SpO₂ slide
//! below the danger threshold and watch the interlock land a stop on
//! the pump — printing the live danger→stop latency on the protocol
//! timeline.
//!
//! Run with: `cargo run --example serve_live`

use mcps_control::interlock::{DetectorKind, InterlockConfig, InterlockStrategy};
use mcps_core::{PcaSafetyApp, SupervisorCore};
use mcps_patient::vitals::VitalKind;
use mcps_runtime::time::SimDuration;
use mcps_serve::client::{PcaBedClient, SUP_EP};
use mcps_serve::host::{ServeConfig, ServeHost};
use mcps_serve::transport::ChannelTransport;
use std::time::{Duration, Instant};

/// 60 protocol seconds play out in about a wall second.
const SPEED: f64 = 60.0;

fn main() {
    let config = InterlockConfig {
        strategy: InterlockStrategy::Command,
        detector: DetectorKind::Threshold,
        resume_holdoff: SimDuration::from_secs(10),
        ..InterlockConfig::default()
    };
    let core = SupervisorCore::new(PcaSafetyApp::new(config), SUP_EP, SimDuration::from_secs(2));
    let (server_t, client_t) = ChannelTransport::pair();
    let mut host = ServeHost::new(
        core,
        server_t,
        ServeConfig {
            speed: SPEED,
            ingress_capacity: 128,
            trace: false,
            seed: 9,
            ..Default::default()
        },
    );
    let mut client = PcaBedClient::new(client_t, SPEED);

    println!("serve_live: supervisor and bed on one clock, {SPEED}x wall speed\n");
    client.announce_monitors();

    // Both sides share the thread: the bed holds Rc patient state and
    // is deliberately not Send, so serve mode's in-process form is a
    // cooperative loop — host round, client round, repeat.
    let run = |client: &mut PcaBedClient<ChannelTransport>,
               host: &mut ServeHost<ChannelTransport>,
               spo2: f64,
               until: &dyn Fn(&PcaBedClient<ChannelTransport>) -> bool|
     -> bool {
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(20) {
            client.send_vital(VitalKind::Spo2, spo2);
            client.send_vital(VitalKind::RespRate, 14.0);
            host.poll();
            client.step();
            if until(client) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        false
    };

    assert!(run(&mut client, &mut host, 97.0, &|c| c.is_permitted()), "bed never associated");
    println!(
        "[{:6.1}s] associated: oximeter + capnograph + pump, boluses permitted",
        client.sim_now().as_secs_f64()
    );

    client.press_button();
    client.step();
    println!("[{:6.1}s] patient presses the demand button", client.sim_now().as_secs_f64());

    // SpO₂ slides into danger (< 90).
    let danger_at = client.sim_now();
    println!("[{:6.1}s] SpO2 drops to 85 — danger threshold crossed", danger_at.as_secs_f64());
    assert!(
        run(&mut client, &mut host, 85.0, &|c| c.first_stop_at_or_after(danger_at).is_some()),
        "no stop arrived"
    );
    let stop_at = client.first_stop_at_or_after(danger_at).unwrap();
    println!(
        "[{:6.1}s] pump stopped by the interlock — danger→stop latency {:.2}s (protocol time)",
        stop_at.as_secs_f64(),
        stop_at.saturating_since(danger_at).as_secs_f64()
    );
    assert!(!client.is_permitted());

    // Recovery: SpO₂ restored, and after the resume holdoff the
    // supervisor resumes the pump.
    assert!(run(&mut client, &mut host, 97.0, &|c| c.is_permitted()), "pump never resumed");
    println!(
        "[{:6.1}s] SpO2 recovered; holdoff elapsed; pump resumed",
        client.sim_now().as_secs_f64()
    );

    let stats = host.stats();
    println!(
        "\nhost: {} frames in, {} out, {} ticks, {} vitals shed, {} trace strings built (tracing off)",
        stats.frames_in,
        stats.frames_out,
        stats.ticks_fired,
        stats.vitals_shed,
        host.outputs().traces_built()
    );
}
