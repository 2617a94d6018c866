//! E2 — Smart (fusion) alarms vs threshold alarms (claim C2).
//!
//! A monitored post-operative ward with artifact-rich sensors. Both
//! algorithms watch the identical measurement streams; ground truth
//! comes from the noise-free patient state.
//!
//! Each seed is one shard: the replicate wards run through the
//! runtime's deterministic shard pool ([`run_shards`]) and their scores
//! are merged in seed order, then exported into a single [`Telemetry`]
//! bus.
//!
//! Expected shape: the fusion alarm cuts the false-alarm rate several
//! fold at comparable sensitivity.
//!
//! Usage: `e2_smart_alarms [--patients N] [--hours H] [--seeds K] [--report]`

use mcps_bench::{fnum, Args, Table};
use mcps_core::scenarios::ward::{run_ward_scenario, WardConfig};
use mcps_runtime::shard::run_shards;
use mcps_runtime::telemetry::Telemetry;
use mcps_runtime::time::SimDuration;

fn main() {
    let args = Args::parse();
    let quick = args.has_flag("quick");
    let patients = args.get_u64("patients", if quick { 6 } else { 16 }) as u32;
    let hours = args.get_f64("hours", if quick { 2.0 } else { 8.0 });
    let seeds = args.get_u64("seeds", if quick { 1 } else { 3 });

    println!("E2: threshold vs fusion alarms — {patients} beds × {hours} h × {seeds} seeds\n");

    // One shard per seed; each shard runs the plain ward and the
    // NIBP-cuff ward for that seed on its own isolated RNG streams.
    let outs = run_shards((0..seeds).collect(), |seed| {
        let cfg = WardConfig {
            seed,
            patients,
            duration: SimDuration::from_secs_f64(hours * 3600.0),
            ..WardConfig::default()
        };
        let plain = run_ward_scenario(&cfg);
        let cuffed = run_ward_scenario(&WardConfig { nibp_cuff: true, ..cfg });
        (plain, cuffed)
    });

    let mut threshold = mcps_alarms::stats::AlarmScore::default();
    let mut fusion = mcps_alarms::stats::AlarmScore::default();
    let mut threshold_nibp = mcps_alarms::stats::AlarmScore::default();
    let mut fusion_nibp = mcps_alarms::stats::AlarmScore::default();
    let mut episodes = 0;
    let mut thr_op = mcps_alarms::fatigue::OperationalScore::default();
    let mut fus_op = mcps_alarms::fatigue::OperationalScore::default();
    for (plain, cuffed) in &outs {
        threshold.merge(&plain.threshold);
        fusion.merge(&plain.fusion);
        episodes += plain.episodes;
        for (total, part) in
            [(&mut thr_op, &plain.threshold_operational), (&mut fus_op, &plain.fusion_operational)]
        {
            total.true_answered += part.true_answered;
            total.true_unanswered += part.true_unanswered;
            total.false_answered += part.false_answered;
            total.mean_delay_secs += part.mean_delay_secs / seeds as f64;
        }
        threshold_nibp.merge(&cuffed.threshold);
        fusion_nibp.merge(&cuffed.fusion);
    }

    // The merged scores all flow into one telemetry bus — the single
    // sink a caller (or --report) can export.
    let mut bus = Telemetry::new();
    bus.annotate("scenario", "e2_smart_alarms");
    bus.annotate("patients", patients.to_string());
    bus.annotate("hours", hours.to_string());
    bus.annotate("seeds", seeds.to_string());
    bus.incr("ground_truth_episodes", u64::from(episodes));
    threshold.export_into(&mut bus, "threshold");
    fusion.export_into(&mut bus, "fusion");
    threshold_nibp.export_into(&mut bus, "threshold_nibp");
    fusion_nibp.export_into(&mut bus, "fusion_nibp");

    let mut t = Table::new([
        "algorithm",
        "true alarms",
        "false alarms",
        "FAR /pt-h",
        "sensitivity",
        "precision",
    ]);
    for (name, s) in [
        ("threshold", &threshold),
        ("fusion", &fusion),
        ("threshold + NIBP cuff", &threshold_nibp),
        ("fusion + NIBP cuff", &fusion_nibp),
    ] {
        t.row([
            name.to_owned(),
            s.true_alarms.to_string(),
            s.false_alarms.to_string(),
            fnum(s.false_alarm_rate_per_hour()),
            fnum(s.sensitivity()),
            fnum(s.precision()),
        ]);
    }
    t.print();
    println!("\nground-truth episodes across the ward: {}", bus.counter("ground_truth_episodes"));

    println!("\n-- operational impact (pooled central station, nurse fatigue model) --");
    let mut t = Table::new([
        "algorithm",
        "true alarms answered",
        "true alarms MISSED",
        "wasted trips",
        "mean response delay s",
    ]);
    for (name, s) in [("threshold", &thr_op), ("fusion", &fus_op)] {
        t.row([
            name.to_owned(),
            s.true_answered.to_string(),
            s.true_unanswered.to_string(),
            s.false_answered.to_string(),
            fnum(s.mean_delay_secs),
        ]);
    }
    t.print();

    if args.has_flag("report") {
        println!("\n-- telemetry --");
        print!("{}", bus.render_report());
    }

    let far_ratio = if fusion.false_alarm_rate_per_hour() > 0.0 {
        threshold.false_alarm_rate_per_hour() / fusion.false_alarm_rate_per_hour()
    } else {
        f64::INFINITY
    };
    let sens_ok = episodes == 0 || fusion.sensitivity() >= threshold.sensitivity() - 0.15;
    let op_ok = fus_op.true_unanswered <= thr_op.true_unanswered;
    if far_ratio >= 2.0 && sens_ok && op_ok {
        println!(
            "SHAPE OK: fusion cuts the false-alarm rate {far_ratio:.1}x at comparable \
             sensitivity; under the fatigue model that converts to {} vs {} missed true \
             alarms and {:.0}s vs {:.0}s response delays.",
            fus_op.true_unanswered,
            thr_op.true_unanswered,
            fus_op.mean_delay_secs,
            thr_op.mean_delay_secs
        );
    } else {
        println!(
            "SHAPE WARNING: FAR ratio {far_ratio:.1}, sensitivity ok = {sens_ok}, \
             operational ok = {op_ok}."
        );
    }
}
