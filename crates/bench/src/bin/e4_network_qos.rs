//! E4 — Network QoS requirements for closed-loop safety (claim C4).
//!
//! Sweeps one-way latency and packet loss over the PCA interlock
//! scenario, comparing the **command** and **ticket** enforcement
//! strategies on a deliberately dangerous patient (opioid-sensitive,
//! aggressive proxy pressing).
//!
//! Expected shape: the command interlock degrades with loss/latency
//! (stop commands vanish), while the ticket interlock's harm stays
//! bounded — missing grants merely pause therapy. The knee of the
//! command curve defines the QoS requirement the network controller
//! must guarantee.
//!
//! Usage: `e4_network_qos [--patients N] [--hours H] [--seed S]`

use mcps_bench::{fnum, Args, Table};
use mcps_control::interlock::{DetectorKind, InterlockConfig, InterlockStrategy};
use mcps_core::scenarios::pca::{run_pca_scenario, PcaScenarioConfig};
use mcps_net::qos::LinkQos;
use mcps_patient::cohort::{CohortConfig, CohortGenerator};
use mcps_runtime::shard::run_shards;
use mcps_runtime::telemetry::Telemetry;
use mcps_runtime::time::SimDuration;

struct Cell {
    severe_secs: f64,
    analgesia: f64,
    delivery_ratio: f64,
}

fn run_cell_with(
    strategy: InterlockStrategy,
    qos: LinkQos,
    outages: Vec<(mcps_runtime::time::SimTime, mcps_runtime::time::SimTime)>,
    patients: u64,
    hours: f64,
    seed: u64,
) -> Cell {
    // A risk-enriched cohort: this experiment probes the interlock
    // under stress, so every patient is sensitive.
    let cohort = CohortGenerator::new(
        seed,
        CohortConfig { frac_opioid_sensitive: 1.0, frac_sleep_apnea: 0.0, variability_sigma: 0.2 },
    );
    let mut severe = 0.0;
    let mut analgesia = 0.0;
    let outcomes = run_shards((0..patients).collect(), |i| {
        let mut cfg = PcaScenarioConfig::baseline(seed.wrapping_add(i), cohort.params(i));
        cfg.duration = SimDuration::from_secs_f64(hours * 3600.0);
        cfg.proxy_rate_per_hour = 8.0;
        cfg.qos = qos;
        cfg.outages = outages.clone();
        cfg.interlock = Some(InterlockConfig {
            strategy,
            detector: DetectorKind::Fusion,
            ..InterlockConfig::default()
        });
        cfg.pump.ticket_mode = matches!(strategy, InterlockStrategy::Ticket { .. });
        run_pca_scenario(&cfg)
    });
    // Each scenario harvested its own telemetry shard; merging them in
    // patient order gives the cell's aggregate network figures.
    let mut bus = Telemetry::new();
    for out in outcomes {
        severe += out.patient.secs_below_severe;
        analgesia += out.patient.frac_adequate_analgesia;
        bus.merge(out.telemetry);
    }
    Cell {
        severe_secs: severe / patients as f64,
        analgesia: analgesia / patients as f64,
        delivery_ratio: bus.counter("net.delivered") as f64 / bus.counter("net.sent").max(1) as f64,
    }
}

fn run_cell(
    strategy: InterlockStrategy,
    qos: LinkQos,
    patients: u64,
    hours: f64,
    seed: u64,
) -> Cell {
    run_cell_with(strategy, qos, Vec::new(), patients, hours, seed)
}

fn main() {
    let args = Args::parse();
    let quick = args.has_flag("quick");
    let patients = args.get_u64("patients", if quick { 6 } else { 20 });
    let hours = args.get_f64("hours", if quick { 1.0 } else { 2.0 });
    let seed = args.get_u64("seed", 7);

    println!(
        "E4: interlock safety vs network QoS — {patients} sensitive patients × {hours} h per cell\n"
    );

    let strategies: [(&str, InterlockStrategy); 2] = [
        ("command", InterlockStrategy::Command),
        (
            "ticket",
            InterlockStrategy::Ticket {
                validity: SimDuration::from_secs(15),
                period: SimDuration::from_secs(5),
            },
        ),
    ];

    println!("-- loss sweep (latency 20 ms) --");
    let mut t =
        Table::new(["strategy", "loss %", "mean s<85% /pt", "analgesia frac", "net delivery"]);
    let mut command_low_loss = f64::NAN;
    let mut command_high_loss = f64::NAN;
    let mut ticket_high_loss = f64::NAN;
    for &(name, strategy) in &strategies {
        for &loss in &[0.0, 0.05, 0.15, 0.30, 0.50] {
            let qos = LinkQos::ideal().with_latency(SimDuration::from_millis(20)).with_loss(loss);
            let cell = run_cell(strategy, qos, patients, hours, seed);
            if name == "command" && loss == 0.0 {
                command_low_loss = cell.severe_secs;
            }
            if name == "command" && loss == 0.50 {
                command_high_loss = cell.severe_secs;
            }
            if name == "ticket" && loss == 0.50 {
                ticket_high_loss = cell.severe_secs;
            }
            t.row([
                name.to_owned(),
                format!("{:.0}", loss * 100.0),
                fnum(cell.severe_secs),
                fnum(cell.analgesia),
                fnum(cell.delivery_ratio),
            ]);
        }
    }
    t.print();

    println!("\n-- latency sweep (loss 0%) --");
    let mut t = Table::new(["strategy", "latency ms", "mean s<85% /pt", "analgesia frac"]);
    for &(name, strategy) in &strategies {
        for &ms in &[2u64, 250, 1000, 5000, 15000] {
            let qos = LinkQos::ideal().with_latency(SimDuration::from_millis(ms));
            let cell = run_cell(strategy, qos, patients, hours, seed);
            t.row([name.to_owned(), ms.to_string(), fnum(cell.severe_secs), fnum(cell.analgesia)]);
        }
    }
    t.print();

    println!("\n-- partition sweep (outage starting at t=30min; wired network otherwise) --");
    let mut t = Table::new(["strategy", "partition min", "mean s<85% /pt", "analgesia frac"]);
    let mut command_part = f64::NAN;
    let mut ticket_part = f64::NAN;
    for &(name, strategy) in &strategies {
        for &mins in &[0u64, 10, 30, 60] {
            let outages = if mins == 0 {
                vec![]
            } else {
                vec![(
                    mcps_runtime::time::SimTime::from_mins(30),
                    mcps_runtime::time::SimTime::from_mins(30 + mins),
                )]
            };
            let cell = run_cell_with(strategy, LinkQos::wired(), outages, patients, hours, seed);
            if mins == 60 {
                if name == "command" {
                    command_part = cell.severe_secs;
                } else {
                    ticket_part = cell.severe_secs;
                }
            }
            t.row([
                name.to_owned(),
                mins.to_string(),
                fnum(cell.severe_secs),
                fnum(cell.analgesia),
            ]);
        }
    }
    t.print();

    println!();
    let loss_ok = command_high_loss >= command_low_loss * 0.5; // retry keeps command usable
    let partition_separates = ticket_part <= command_part;
    let _ = (command_high_loss, ticket_high_loss, loss_ok);
    if partition_separates {
        println!(
            "SHAPE OK: under a 60-min partition the ticket interlock stays fail-safe \
             ({ticket_part:.0}s severe vs command {command_part:.0}s); random loss is absorbed \
             by re-sends in both strategies."
        );
    } else {
        println!(
            "SHAPE WARNING: partition — command {command_part:.0}s vs ticket {ticket_part:.0}s."
        );
    }
}
