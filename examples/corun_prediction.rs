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
    all_models, measure_campaign, DesBackend, ExperimentConfig, Supervisor,
};
use active_netprobe::workloads::{AppKind, CompressionConfig};

fn main() {
    let cfg = ExperimentConfig::cab();
    let apps = [AppKind::Fftw, AppKind::Milc];

    // Isolated measurements: idle calibration, a small compression table,
    // and each application's impact profile. Cost grows linearly with the
    // number of applications — the quadratic pairing space comes free.
    // No pairings are measured here; the co-runs below verify by hand.
    println!("[1/2] measuring look-up table and impact profiles (linear in apps and configs)...");
    let campaign = measure_campaign(
        &DesBackend,
        &cfg,
        &apps,
        &CompressionConfig::quick_sweep(),
        false,
        &Supervisor::none(),
        None,
        |_, _| {},
    )
    .expect("campaign");
    assert!(campaign.ledger.is_complete(), "every cell must complete");
    let study = campaign.study.expect("complete study");
    println!(
        "      table covers {:.0}%..{:.0}% switch utilization",
        study.table.utilization_range().0 * 100.0,
        study.table.utilization_range().1 * 100.0
    );

    // Predict both directions of the pairing with all four models.
    println!("[2/2] predicting FFTW <-> MILC, then verifying with a co-run...\n");
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
