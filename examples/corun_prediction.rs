//! Co-run prediction: the paper's headline use-case end to end.
//!
//! Predict how two applications will degrade each other *before ever
//! running them together*, using only measurements taken on each in
//! isolation (§V) — then verify against a real co-run.
//!
//! This uses a reduced CompressionB sweep so it finishes in about a
//! minute; the `fig8_prediction_errors` harness runs the full study.
//!
//! ```text
//! cargo run --release --example corun_prediction
//! ```

use active_netprobe::core::{
    all_models, calibrate, DesBackend, ExperimentConfig, LookupTable, MuPolicy, Study, Supervisor,
};
use active_netprobe::workloads::{AppKind, CompressionConfig};

fn main() {
    let cfg = ExperimentConfig::cab();
    let apps = [AppKind::Fftw, AppKind::Milc];

    // Isolated measurements: idle calibration, a small compression table,
    // and each application's impact profile. Cost grows linearly with the
    // number of applications — the quadratic pairing space comes free.
    println!("[1/3] measuring look-up table (linear in apps and configs)...");
    let calib = calibrate(&cfg, MuPolicy::MinLatency).expect("calibration");
    let sweep: Vec<CompressionConfig> = CompressionConfig::paper_sweep()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % 5 == (i / 5) % 5)
        .map(|(_, c)| c)
        .collect();
    let (lut, _) = LookupTable::measure_supervised_with(
        &DesBackend,
        &cfg,
        calib,
        &apps,
        &sweep,
        &Supervisor::none(),
        None,
        |_| {},
    )
    .expect("table measurement");
    let table = lut
        .table
        .filter(|_| lut.failures.is_empty())
        .expect("complete table");
    println!(
        "      table covers {:.0}%..{:.0}% switch utilization",
        table.utilization_range().0 * 100.0,
        table.utilization_range().1 * 100.0
    );

    println!("[2/3] measuring each app's impact profile...");
    let (study, failures, _) = Study::measure_profiles_supervised_with(
        &DesBackend,
        &cfg,
        table,
        &apps,
        &Supervisor::none(),
        None,
        |_| {},
    )
    .expect("profiles");
    assert!(failures.is_empty(), "every profile must complete");

    // Predict both directions of the pairing with all four models.
    println!("[3/3] predicting FFTW <-> MILC, then verifying with a co-run...\n");
    let models = all_models();
    for (victim, other) in [
        (AppKind::Fftw, AppKind::Milc),
        (AppKind::Milc, AppKind::Fftw),
    ] {
        let mut outcome = study.predict_pair(victim, other, &models);
        study
            .measure_pair(&cfg, &mut outcome)
            .expect("co-run ground truth");
        println!(
            "{} co-run with {}: measured {:+.1}%",
            victim.name(),
            other.name(),
            outcome.measured.unwrap()
        );
        for (&model, prediction) in &outcome.predicted {
            println!(
                "    {:<15} predicts {:+6.1}%  (|err| {:.1})",
                model.name(),
                prediction,
                outcome.abs_error(model).unwrap()
            );
        }
        println!();
    }
}
