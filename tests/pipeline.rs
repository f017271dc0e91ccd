//! End-to-end prediction pipeline on a reduced universe: measure two
//! applications in isolation, build a small look-up table, predict their
//! pairings with all four models, and check the predictions against
//! measured co-runs.
//!
//! This is the integration-level version of the paper's §V evaluation,
//! scaled down (2 apps × 4 CompressionB configurations) so it runs in a
//! debug-build test suite.

use active_netprobe::core::{
    all_models, calibrate, Calibration, DesBackend, ExperimentConfig, LookupTable, ModelKind,
    MuPolicy, Study, Supervisor,
};
use active_netprobe::workloads::{AppKind, CompressionConfig};

fn reduced_sweep() -> Vec<CompressionConfig> {
    vec![
        CompressionConfig::new(1, 25_000_000, 1),
        CompressionConfig::new(7, 2_500_000, 10),
        CompressionConfig::new(14, 250_000, 1),
        CompressionConfig::new(17, 25_000, 10),
    ]
}

/// A complete DES look-up table, measured with no budget and no journal.
fn measure_table(
    cfg: &ExperimentConfig,
    calib: Calibration,
    apps: &[AppKind],
    sweep: &[CompressionConfig],
) -> LookupTable {
    let (lut, _) = LookupTable::measure_supervised_with(
        &DesBackend,
        cfg,
        calib,
        apps,
        sweep,
        &Supervisor::none(),
        None,
        |_| {},
    )
    .expect("journal-free measurement");
    assert!(lut.is_complete(), "every table cell must complete");
    lut.table.expect("table")
}

#[test]
fn full_pipeline_predicts_pairings_sanely() {
    let cfg = ExperimentConfig::cab().with_seed(21);
    let apps = [AppKind::Fftw, AppKind::Mcb];

    let calib = calibrate(&cfg, MuPolicy::MinLatency).expect("calibration");
    let table = measure_table(&cfg, calib, &apps, &reduced_sweep());
    let (lo, hi) = table.utilization_range();
    assert!(lo < hi, "sweep must span a utilization range");
    assert!(hi > 0.7, "heaviest config must be heavy (got {hi})");

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
    let models = all_models();
    let mut outcomes = study.predict_all(&apps, &models);
    assert_eq!(outcomes.len(), 4, "2 apps -> 4 ordered pairings");
    for o in outcomes.iter_mut() {
        assert_eq!(o.predicted.len(), 4, "all models must predict");
        study.measure_pair(&cfg, o).expect("ground truth");
    }

    // Structural expectations from the paper:
    // FFTW hurt by FFTW must far exceed FFTW hurt by MCB …
    let find = |v: AppKind, w: AppKind| {
        outcomes
            .iter()
            .find(|o| o.victim == v && o.other == w)
            .unwrap()
    };
    let ff = find(AppKind::Fftw, AppKind::Fftw).measured.unwrap();
    let fm = find(AppKind::Fftw, AppKind::Mcb).measured.unwrap();
    assert!(
        ff > fm + 5.0,
        "FFTW+FFTW ({ff}%) must exceed FFTW+MCB ({fm}%)"
    );
    // … and MCB must barely notice anything.
    let mf = find(AppKind::Mcb, AppKind::Fftw).measured.unwrap();
    assert!(mf.abs() < 10.0, "MCB must stay nearly insensitive ({mf}%)");

    // The queue model must separate the heavy pairing from the light one.
    let q_ff = find(AppKind::Fftw, AppKind::Fftw).predicted[&ModelKind::Queue];
    let q_fm = find(AppKind::Fftw, AppKind::Mcb).predicted[&ModelKind::Queue];
    assert!(
        q_ff > q_fm,
        "queue model must rank FFTW-partner above MCB-partner ({q_ff} vs {q_fm})"
    );
    // And its error on the light pairings must be small.
    let e = find(AppKind::Mcb, AppKind::Fftw)
        .abs_error(ModelKind::Queue)
        .unwrap();
    assert!(
        e < 15.0,
        "queue-model error on a light pairing too big: {e}"
    );
}

#[test]
fn study_is_deterministic() {
    let cfg = ExperimentConfig::cab().with_seed(5);
    let apps = [AppKind::Milc];
    let sweep = vec![CompressionConfig::new(7, 2_500_000, 10)];
    let run = || {
        let calib = calibrate(&cfg, MuPolicy::MinLatency).unwrap();
        let table = measure_table(&cfg, calib, &apps, &sweep);
        let entry = &table.entries[0];
        (
            entry.profile.mean().to_bits(),
            entry.utilization.to_bits(),
            entry.slowdown[&AppKind::Milc].to_bits(),
        )
    };
    assert_eq!(run(), run(), "identical configs must reproduce bit-exactly");
}
