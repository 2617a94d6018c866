//! E6 — Closed-loop infusion control vs open-loop dosing (claim C6).
//!
//! Each virtual patient receives a continuous analgesic infusion for
//! several hours under three controllers: weight-based fixed rate
//! (open loop), target-controlled infusion against a nominal PK model
//! (TCI), and TCI with respiratory-rate feedback. The score is the
//! fraction of time the *true* effect-site concentration stays in the
//! therapeutic band, plus safety (time above the band / respiratory
//! floor violations).
//!
//! Expected shape: fixed < TCI < TCI+feedback on time-in-band; the
//! feedback arm also cuts overshoot for sensitive patients.
//!
//! Usage: `e6_closed_loop [--patients N] [--hours H] [--seed S]`

use mcps_bench::{fnum, Args, Table};
use mcps_control::closed_loop::{
    FeedbackTciController, FixedRateController, InfusionController, TciController,
};
use mcps_patient::cohort::{CohortConfig, CohortGenerator};
use mcps_patient::sensors::{SensorSpec, SimulatedSensor};
use mcps_patient::vitals::VitalKind;
use mcps_runtime::rng::RngFactory;
use mcps_runtime::telemetry::Summary;

/// Therapeutic band of effect-site concentration, mg/L.
const BAND: (f64, f64) = (0.04, 0.10);
/// Respiratory safety floor, breaths/min.
const RR_FLOOR: f64 = 8.0;

#[derive(Default)]
struct ArmStats {
    in_band: Vec<f64>,
    above_band: Vec<f64>,
    rr_floor_secs: Vec<f64>,
    mean_pain: Vec<f64>,
}

fn run_patient(
    controller: &mut dyn InfusionController,
    params: mcps_patient::patient::PatientParams,
    hours: f64,
    seed: u64,
) -> (f64, f64, f64, f64) {
    let mut patient = mcps_patient::patient::VirtualPatient::new(params);
    let factory = RngFactory::new(seed);
    let mut rng = factory.stream("e6-patient");
    let mut sensor_rng = factory.stream("e6-sensor");
    let mut rr_sensor =
        SimulatedSensor::new(VitalKind::RespRate, SensorSpec::default_for(VitalKind::RespRate));
    let secs = (hours * 3600.0) as u64;
    let (mut in_band, mut above, mut rr_floor, mut pain_sum) = (0u64, 0u64, 0u64, 0.0);
    for s in 0..secs {
        let truth = patient.vitals();
        let measured_rr = rr_sensor.read(s as f64, 1.0, truth.resp_rate, &mut sensor_rng).value;
        let rate = controller.step(1.0, measured_rr);
        patient.set_infusion_rate(rate / 60.0);
        patient.advance(1.0, &mut rng);
        let ce = patient.effect_site_conc();
        if ce >= BAND.0 && ce <= BAND.1 {
            in_band += 1;
        } else if ce > BAND.1 {
            above += 1;
        }
        if patient.vitals().resp_rate < RR_FLOOR {
            rr_floor += 1;
        }
        pain_sum += patient.perceived_pain();
    }
    (
        in_band as f64 / secs as f64,
        above as f64 / secs as f64,
        rr_floor as f64,
        pain_sum / secs as f64,
    )
}

/// Runs one cohort through all three controllers; returns per-arm
/// `(in_band, above_band, rr_floor_secs)` means plus the printed table.
fn run_cohort(
    label: &str,
    cohort_cfg: CohortConfig,
    patients: u64,
    hours: f64,
    seed: u64,
    target: f64,
) -> Vec<(f64, f64, f64)> {
    let cohort = CohortGenerator::new(seed, cohort_cfg);
    let mut arms: Vec<(&str, ArmStats)> = vec![
        ("fixed-rate", ArmStats::default()),
        ("tci", ArmStats::default()),
        ("tci+feedback", ArmStats::default()),
    ];

    for i in 0..patients {
        let params = cohort.params(i);
        let w = params.weight_kg;
        let runs: Vec<Box<dyn InfusionController>> = vec![
            Box::new(FixedRateController::for_weight(w)),
            Box::new(TciController::new(w, target)),
            Box::new(FeedbackTciController::new(w, target, RR_FLOOR)),
        ];
        for (mut ctl, (_, stats)) in runs.into_iter().zip(arms.iter_mut()) {
            let (in_band, above, rr_secs, pain) =
                run_patient(ctl.as_mut(), params, hours, seed.wrapping_add(i));
            stats.in_band.push(in_band);
            stats.above_band.push(above);
            stats.rr_floor_secs.push(rr_secs);
            stats.mean_pain.push(pain);
        }
    }

    println!("-- {label} --");
    let mut t =
        Table::new(["controller", "time-in-band", "time-above-band", "RR<8 s/pt", "mean pain"]);
    let mut means = Vec::new();
    for (name, stats) in &arms {
        let ib = Summary::from_values(&stats.in_band);
        let ab = Summary::from_values(&stats.above_band);
        let rr = Summary::from_values(&stats.rr_floor_secs);
        let p = Summary::from_values(&stats.mean_pain);
        means.push((ib.mean, ab.mean, rr.mean));
        t.row([
            (*name).to_owned(),
            format!("{} ± {}", fnum(ib.mean), fnum(ib.ci95_half_width())),
            fnum(ab.mean),
            fnum(rr.mean),
            fnum(p.mean),
        ]);
    }
    t.print();
    println!();
    means
}

fn main() {
    let args = Args::parse();
    let quick = args.has_flag("quick");
    let patients = args.get_u64("patients", if quick { 10 } else { 50 });
    let hours = args.get_f64("hours", if quick { 3.0 } else { 6.0 });
    let seed = args.get_u64("seed", 21);
    let target = 0.08;

    println!(
        "E6: infusion control — {patients} patients × {hours} h, target {target} mg/L, \
         therapeutic band [{:.2}, {:.2}] mg/L\n",
        BAND.0, BAND.1
    );

    let standard =
        run_cohort("standard cohort", CohortConfig::default(), patients, hours, seed, target);
    let sensitive = run_cohort(
        "opioid-sensitive cohort (stress test)",
        CohortConfig { frac_opioid_sensitive: 1.0, frac_sleep_apnea: 0.0, variability_sigma: 0.25 },
        patients,
        hours,
        seed ^ 0x5a5a,
        target,
    );

    let (fixed, tci, fb) = (standard[0], standard[1], standard[2]);
    let (s_fixed, s_tci, s_fb) = (sensitive[0], sensitive[1], sensitive[2]);
    let band_ok = tci.0 > fixed.0 + 0.1 && fb.0 >= tci.0 - 0.10;
    let safety_ok = s_fb.2 < s_tci.2 * 0.7 || (s_tci.2 == 0.0 && s_fb.2 == 0.0);
    if band_ok && safety_ok {
        println!(
            "SHAPE OK: time-in-band fixed {:.2} < tci {:.2} ~ tci+feedback {:.2}; on the \
             sensitive cohort feedback cuts RR<8 exposure {:.0}s -> {:.0}s (fixed {:.0}s).",
            fixed.0, tci.0, fb.0, s_tci.2, s_fb.2, s_fixed.2
        );
    } else {
        println!(
            "SHAPE WARNING: band_ok={band_ok} (fixed {:.2}, tci {:.2}, fb {:.2}); \
             safety_ok={safety_ok} (sensitive RR<8: fixed {:.0}, tci {:.0}, fb {:.0}).",
            fixed.0, tci.0, fb.0, s_fixed.2, s_tci.2, s_fb.2
        );
    }
}
