//! The look-up table: everything measured once per CompressionB
//! configuration (paper §IV-A, §IV-C).
//!
//! For each of the 40 CompressionB configurations `Ci` the table stores:
//!
//! * the impact profile measured while `Ci` runs (its latency footprint —
//!   mean, σ, and PDF, feeding the three LUT models);
//! * the switch utilization the queue model attributes to `Ci` (Fig. 6);
//! * the measured performance degradation of each application under `Ci`
//!   (Fig. 7).
//!
//! Building the full table is the expensive, *linear* part of the paper's
//! methodology: measurements grow with the number of components, while the
//! pairings predicted from the table grow quadratically.

use std::collections::BTreeMap;

use anp_simnet::SimDuration;
use anp_workloads::{AppKind, CompressionConfig};

use crate::backend::{Backend, WorkloadSpec};
use crate::experiments::{degradation_percent, ExperimentConfig, ExperimentError};
use crate::journal::{config_fingerprint, JournalError, Journaled, RunJournal};
use crate::queue::Calibration;
use crate::samples::LatencyProfile;
use crate::supervise::{partial_exit_code, sweep_supervised_for, Supervisor, TaskError};
use crate::sweep::SweepTelemetry;

/// Everything measured for one CompressionB configuration.
#[derive(Debug, Clone)]
pub struct CompressionEntry {
    /// The configuration.
    pub config: CompressionConfig,
    /// Probe latency profile while the configuration runs.
    pub profile: LatencyProfile,
    /// Queue-model switch utilization of the configuration (`ρ` in [0, 1)).
    pub utilization: f64,
    /// Measured % degradation of each application under this
    /// configuration.
    pub slowdown: BTreeMap<AppKind, f64>,
}

/// One value of the flattened measurement grid, tagged for journaling:
/// the three cell families of a table measurement produce different
/// types, so the journal codec carries a `kind` discriminant.
enum LutCell {
    /// A solo application runtime.
    Solo(SimDuration),
    /// A per-configuration impact profile.
    Impact(LatencyProfile),
    /// One (application, configuration) loaded runtime.
    Runtime(SimDuration),
}

impl Journaled for LutCell {
    fn encode_journal(&self) -> String {
        let (kind, v) = match self {
            LutCell::Solo(t) => ("solo", t.encode_journal()),
            LutCell::Impact(p) => ("impact", p.encode_journal()),
            LutCell::Runtime(t) => ("runtime", t.encode_journal()),
        };
        format!("{{\"kind\":\"{kind}\",\"v\":{v}}}")
    }

    fn decode_journal(s: &str) -> Option<Self> {
        let body = s.trim().strip_prefix("{\"kind\":\"")?.strip_suffix('}')?;
        let (kind, v) = body.split_once("\",\"v\":")?;
        Some(match kind {
            "solo" => LutCell::Solo(Journaled::decode_journal(v)?),
            "impact" => LutCell::Impact(Journaled::decode_journal(v)?),
            "runtime" => LutCell::Runtime(Journaled::decode_journal(v)?),
            _ => return None,
        })
    }
}

/// The outcome of a supervised table measurement
/// ([`LookupTable::measure_supervised_with`]): whatever completed, plus
/// typed holes for every cell that did not.
#[derive(Debug)]
pub struct SupervisedTable {
    /// The table assembled from the completed cells. `None` when no
    /// configuration completed its impact profile (nothing to look up);
    /// partial otherwise — entries may be missing, and an entry's
    /// slowdown map covers only the apps whose runtime and solo baseline
    /// both completed.
    pub table: Option<LookupTable>,
    /// Why each missing cell is missing, in serial reassembly order.
    pub failures: Vec<TaskError>,
    /// Cells that produced a value (journaled successes included).
    pub completed: usize,
    /// Total cells in the measurement grid.
    pub total: usize,
}

impl SupervisedTable {
    /// True when every cell completed — the table equals an uninterrupted
    /// measurement byte-for-byte.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// The campaign exit code for this outcome: 0 complete, 3 partial,
    /// 1 when nothing completed.
    pub fn exit_code(&self) -> i32 {
        partial_exit_code(self.completed, self.total)
    }
}

/// The full look-up table plus the calibration it was measured under.
#[derive(Debug, Clone)]
pub struct LookupTable {
    /// Idle-switch queue calibration.
    pub calibration: Calibration,
    /// One entry per measured CompressionB configuration.
    pub entries: Vec<CompressionEntry>,
    /// Solo runtime of each application (degradation baselines).
    pub solo: BTreeMap<AppKind, SimDuration>,
}

impl LookupTable {
    /// Assembles a table from already-measured parts (used by tests and by
    /// harnesses that parallelize the measurement loop).
    pub fn from_parts(
        calibration: Calibration,
        entries: Vec<CompressionEntry>,
        solo: BTreeMap<AppKind, SimDuration>,
    ) -> Self {
        // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
        assert!(!entries.is_empty(), "a look-up table needs entries");
        LookupTable {
            calibration,
            entries,
            solo,
        }
    }

    /// Measures the complete table: for every configuration an impact
    /// profile, and for every (app, configuration) pair a compression
    /// experiment. This is the expensive path — `apps.len()` solo runs,
    /// `configs.len()` impact runs, plus `apps.len() × configs.len()`
    /// runtime runs; use [`LookupTable::from_parts`] to assemble
    /// pre-measured pieces.
    ///
    /// Every run is an independent simulation, so the whole grid fans out
    /// across [`ExperimentConfig::jobs`] worker threads on `backend`;
    /// results are collected by index, making the table — and every
    /// `progress` line — byte-identical to a serial measurement for any
    /// worker count. Pass `|_| {}` to discard the progress lines.
    ///
    /// Every cell runs inside the `supervisor`'s envelope: panic
    /// isolation, its per-cell budget and retry policy, and (with a
    /// journal) crash-safe resume. A failing cell does not abort the
    /// measurement: its siblings complete and the returned
    /// [`SupervisedTable`] names each hole. A `--resume` completion of a
    /// partial journal is byte-identical to an uninterrupted run. Failed
    /// cells emit `… FAILED: <error>` progress lines; runtimes whose solo
    /// baseline is missing cannot become slowdowns and are reported as
    /// `(no solo baseline)`.
    #[expect(clippy::too_many_arguments, reason = "each argument is independent")]
    pub fn measure_supervised_with(
        backend: &dyn Backend,
        cfg: &ExperimentConfig,
        calibration: Calibration,
        apps: &[AppKind],
        configs: &[CompressionConfig],
        supervisor: &Supervisor,
        journal: Option<&RunJournal>,
        mut progress: impl FnMut(&str),
    ) -> Result<(SupervisedTable, SweepTelemetry), JournalError> {
        type LutTask<'a> = Box<dyn Fn() -> Result<LutCell, ExperimentError> + Send + Sync + 'a>;

        // Flatten all three independent run families into one task list:
        // solo runtimes, per-config impact profiles, and the app × config
        // runtime grid. Task order is the serial measurement order, and
        // the sweep returns results in task order. Tasks are `Fn` so the
        // supervisor can retry them.
        let mut tasks: Vec<(String, LutTask<'_>)> = Vec::new();
        for &app in apps {
            tasks.push((
                format!("solo:{}", app.name()),
                Box::new(move || backend.measure_solo_runtime(cfg, app).map(LutCell::Solo)),
            ));
        }
        for comp in configs {
            tasks.push((
                format!("impact:{}", comp.label()),
                Box::new(move || {
                    backend
                        .measure_impact_profile(cfg, WorkloadSpec::Compression(comp))
                        .map(LutCell::Impact)
                }),
            ));
        }
        for comp in configs {
            for &app in apps {
                tasks.push((
                    format!("grid:{}:{}", app.name(), comp.label()),
                    Box::new(move || {
                        backend
                            .measure_compression_run(cfg, app, comp)
                            .map(LutCell::Runtime)
                    }),
                ));
            }
        }
        let total = tasks.len();
        let (results, telemetry) = sweep_supervised_for(
            "lookup-table",
            backend.name(),
            cfg.jobs,
            supervisor,
            journal,
            config_fingerprint(cfg, backend.name()),
            tasks,
        )?;
        let mut results = results.into_iter();
        let mut failures = Vec::new();

        // Reassemble in serial order, so progress lines come out exactly
        // as a serial loop would print them; failures become typed holes.
        let mut solo = BTreeMap::new();
        for &app in apps {
            match results.next().ok_or_else(|| JournalError::ShapeMismatch {
                sweep: "lookup-table".to_owned(),
                detail: "sweep returned too few cells (short at stage solo)".to_owned(),
            })? {
                Ok(LutCell::Solo(t)) => {
                    progress(&format!("solo {} = {t}", app.name()));
                    solo.insert(app, t);
                }
                Ok(_) => unreachable!("cell order mismatch"),
                Err(e) => {
                    progress(&format!("solo {} FAILED: {e}", app.name()));
                    failures.push(e);
                }
            }
        }
        let mut profiles = Vec::with_capacity(configs.len());
        for _ in configs {
            match results.next().ok_or_else(|| JournalError::ShapeMismatch {
                sweep: "lookup-table".to_owned(),
                detail: "sweep returned too few cells (short at stage impact)".to_owned(),
            })? {
                Ok(LutCell::Impact(p)) => profiles.push(Ok(p)),
                Ok(_) => unreachable!("cell order mismatch"),
                Err(e) => profiles.push(Err(e)),
            }
        }
        let mut grid = Vec::with_capacity(configs.len() * apps.len());
        for _ in 0..configs.len() * apps.len() {
            match results.next().ok_or_else(|| JournalError::ShapeMismatch {
                sweep: "lookup-table".to_owned(),
                detail: "sweep returned too few cells (short at stage grid)".to_owned(),
            })? {
                Ok(LutCell::Runtime(t)) => grid.push(Ok(t)),
                Ok(_) => unreachable!("cell order mismatch"),
                Err(e) => grid.push(Err(e)),
            }
        }

        let mut grid = grid.into_iter();
        let mut entries = Vec::with_capacity(configs.len());
        for (comp, profile) in configs.iter().zip(profiles) {
            let measured = match profile {
                Ok(profile) => {
                    let utilization = calibration.utilization(&profile);
                    progress(&format!(
                        "impact {} -> mean {:.2}us util {:.1}%",
                        comp.label(),
                        profile.mean(),
                        utilization * 100.0
                    ));
                    Some((profile, utilization))
                }
                Err(e) => {
                    progress(&format!("impact {} FAILED: {e}", comp.label()));
                    failures.push(e);
                    None
                }
            };
            let mut slowdown = BTreeMap::new();
            for &app in apps {
                match grid.next().ok_or_else(|| JournalError::ShapeMismatch {
                    sweep: "lookup-table".to_owned(),
                    detail: "runtime grid exhausted early".to_owned(),
                })? {
                    Ok(t) => match solo.get(&app) {
                        Some(&baseline) => {
                            let d = degradation_percent(baseline, t);
                            progress(&format!(
                                "  {} under {} -> {:.1}%",
                                app.name(),
                                comp.label(),
                                d
                            ));
                            slowdown.insert(app, d);
                        }
                        None => progress(&format!(
                            "  {} under {} -> (no solo baseline)",
                            app.name(),
                            comp.label()
                        )),
                    },
                    Err(e) => {
                        progress(&format!(
                            "  {} under {} FAILED: {e}",
                            app.name(),
                            comp.label()
                        ));
                        failures.push(e);
                    }
                }
            }
            // Without an impact profile the configuration has no entry:
            // its (journaled) runtimes wait for a --resume completion.
            if let Some((profile, utilization)) = measured {
                entries.push(CompressionEntry {
                    config: *comp,
                    profile,
                    utilization,
                    slowdown,
                });
            }
        }
        let completed = total - failures.len();
        let table =
            (!entries.is_empty()).then(|| LookupTable::from_parts(calibration, entries, solo));
        Ok((
            SupervisedTable {
                table,
                failures,
                completed,
                total,
            },
            telemetry,
        ))
    }

    /// The (utilization, slowdown) curve of one application, sorted by
    /// utilization — the `p_A` mapping of §V-B.
    pub fn degradation_curve(&self, app: AppKind) -> Vec<(f64, f64)> {
        let mut pts: Vec<(f64, f64)> = self
            .entries
            .iter()
            .filter_map(|e| e.slowdown.get(&app).map(|d| (e.utilization, *d)))
            .collect();
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        pts
    }

    /// Range of utilizations covered by the table (the paper reports
    /// 26–92 % on Cab).
    pub fn utilization_range(&self) -> (f64, f64) {
        let lo = self
            .entries
            .iter()
            .map(|e| e.utilization)
            .fold(f64::INFINITY, f64::min);
        let hi = self
            .entries
            .iter()
            .map(|e| e.utilization)
            .fold(f64::NEG_INFINITY, f64::max);
        (lo, hi)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use crate::queue::MuPolicy;

    /// A synthetic latency profile centred on `mean_us` with spread
    /// `sigma_us` (triangular-ish, deterministic).
    pub fn synthetic_profile(mean_us: f64, sigma_us: f64) -> LatencyProfile {
        let samples: Vec<f64> = (0..200)
            .map(|i| {
                let t = (i % 21) as f64 / 10.0 - 1.0; // -1 .. 1
                (mean_us + t * sigma_us * 1.7).max(0.05)
            })
            .collect();
        LatencyProfile::from_samples(&samples)
    }

    /// A synthetic calibration: µ = 1 /µs, Var(S) = 0.25 µs².
    pub fn synthetic_calibration() -> Calibration {
        Calibration {
            mu: 1.0,
            var_s: 0.25,
            idle_mean: 1.1,
            policy: MuPolicy::MinLatency,
        }
    }

    /// A deterministic in-memory backend for supervised-path tests. Every
    /// observable is synthetic (no simulation), each call is counted, and
    /// cells listed in `fail` / `panic` misbehave on demand. Cells are
    /// addressed by the same labels the sweeps use: `solo:{app}`,
    /// `impact:{config}`, `grid:{app}:{config}`, `profile:{app}`,
    /// `corun:{victim}+{other}`.
    pub struct FakeBackend {
        /// Labels that return [`ExperimentError::NoSamples`].
        pub fail: Vec<String>,
        /// Labels that panic mid-measurement.
        pub panic: Vec<String>,
        /// Total measurement calls served (including failing ones).
        pub calls: std::sync::atomic::AtomicUsize,
    }

    impl FakeBackend {
        /// A backend where every cell succeeds.
        pub fn clean() -> Self {
            Self::faulty(Vec::new(), Vec::new())
        }

        /// A backend with injected failures and panics.
        pub fn faulty(fail: Vec<String>, panic: Vec<String>) -> Self {
            FakeBackend {
                fail,
                panic,
                calls: std::sync::atomic::AtomicUsize::new(0),
            }
        }

        /// Calls served so far.
        pub fn call_count(&self) -> usize {
            self.calls.load(std::sync::atomic::Ordering::SeqCst)
        }

        fn gate(&self, label: &str) -> Result<(), ExperimentError> {
            self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if self.panic.iter().any(|l| l == label) {
                panic!("injected panic in {label}");
            }
            if self.fail.iter().any(|l| l == label) {
                return Err(ExperimentError::NoSamples);
            }
            Ok(())
        }
    }

    impl Backend for FakeBackend {
        fn name(&self) -> &'static str {
            "fake"
        }

        fn supports_timed_series(&self) -> bool {
            false
        }

        fn measure_impact_profile(
            &self,
            _cfg: &ExperimentConfig,
            workload: WorkloadSpec<'_>,
        ) -> Result<LatencyProfile, ExperimentError> {
            let (label, mean) = match workload {
                WorkloadSpec::Idle => ("impact:idle".to_owned(), 1.1),
                WorkloadSpec::App(app) => (
                    format!("profile:{}", app.name()),
                    2.0 + (app.name().len() % 3) as f64 * 0.4,
                ),
                WorkloadSpec::Compression(comp) => (
                    format!("impact:{}", comp.label()),
                    1.5 + (comp.label().len() % 5) as f64 * 0.3,
                ),
            };
            self.gate(&label)?;
            Ok(synthetic_profile(mean, 0.5))
        }

        fn measure_compression_run(
            &self,
            _cfg: &ExperimentConfig,
            app: AppKind,
            comp: &CompressionConfig,
        ) -> Result<SimDuration, ExperimentError> {
            self.gate(&format!("grid:{}:{}", app.name(), comp.label()))?;
            Ok(SimDuration::from_millis(150))
        }

        fn measure_solo_runtime(
            &self,
            _cfg: &ExperimentConfig,
            app: AppKind,
        ) -> Result<SimDuration, ExperimentError> {
            self.gate(&format!("solo:{}", app.name()))?;
            Ok(SimDuration::from_millis(100))
        }

        fn measure_corun_runtime(
            &self,
            _cfg: &ExperimentConfig,
            victim: AppKind,
            other: AppKind,
        ) -> Result<SimDuration, ExperimentError> {
            self.gate(&format!("corun:{}+{}", victim.name(), other.name()))?;
            Ok(SimDuration::from_millis(130))
        }
    }

    /// A synthetic table with `n` entries of rising utilization where each
    /// app's slowdown is `gain × utilization²` percent.
    pub fn synthetic_table(n: usize, gains: &[(AppKind, f64)]) -> LookupTable {
        let calibration = synthetic_calibration();
        let entries: Vec<CompressionEntry> = (0..n)
            .map(|i| {
                let u = 0.2 + 0.7 * i as f64 / (n.max(2) - 1) as f64;
                // Invert utilization to the sojourn the calibration would
                // need to see, so profiles and utilization stay coherent.
                let lambda = u * calibration.mu;
                let w = calibration.pk_sojourn(lambda);
                let profile = synthetic_profile(w, 0.2 + u);
                let utilization = calibration.utilization(&profile);
                let slowdown = gains
                    .iter()
                    .map(|&(app, g)| (app, g * utilization * utilization * 100.0))
                    .collect();
                CompressionEntry {
                    config: CompressionConfig::new(1, 25_000 * (i as u64 + 1), 1),
                    profile,
                    utilization,
                    slowdown,
                }
            })
            .collect();
        let solo = gains
            .iter()
            .map(|&(app, _)| (app, SimDuration::from_millis(100)))
            .collect();
        LookupTable::from_parts(calibration, entries, solo)
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;

    #[test]
    fn degradation_curve_is_sorted_and_complete() {
        let table = synthetic_table(8, &[(AppKind::Fftw, 2.0), (AppKind::Mcb, 0.05)]);
        let curve = table.degradation_curve(AppKind::Fftw);
        assert_eq!(curve.len(), 8);
        for w in curve.windows(2) {
            assert!(w[0].0 <= w[1].0, "curve must be sorted by utilization");
            assert!(
                w[0].1 <= w[1].1,
                "synthetic slowdown grows with utilization"
            );
        }
    }

    #[test]
    fn missing_app_yields_empty_curve() {
        let table = synthetic_table(4, &[(AppKind::Fftw, 1.0)]);
        assert!(table.degradation_curve(AppKind::Amg).is_empty());
    }

    #[test]
    fn utilization_range_brackets_entries() {
        let table = synthetic_table(6, &[(AppKind::Milc, 1.0)]);
        let (lo, hi) = table.utilization_range();
        assert!(lo < hi);
        for e in &table.entries {
            assert!((lo..=hi).contains(&e.utilization));
        }
    }

    #[test]
    #[should_panic(expected = "needs entries")]
    fn empty_table_panics() {
        LookupTable::from_parts(synthetic_calibration(), vec![], BTreeMap::new());
    }

    #[test]
    fn lut_cell_journal_codec_round_trips() {
        let cells = [
            LutCell::Solo(SimDuration::from_nanos(123_456_789)),
            LutCell::Impact(synthetic_profile(2.0, 0.5)),
            LutCell::Runtime(SimDuration::from_millis(150)),
        ];
        for cell in &cells {
            let enc = cell.encode_journal();
            let back = LutCell::decode_journal(&enc).expect("decodes");
            assert_eq!(back.encode_journal(), enc, "bit-exact round trip");
            assert_eq!(
                std::mem::discriminant(&back),
                std::mem::discriminant(cell),
                "kind tag survives"
            );
        }
        assert!(LutCell::decode_journal("{\"kind\":\"other\",\"v\":1}").is_none());
    }

    /// A clean measurement of `apps × configs` on the fake backend: the
    /// table, its progress lines, and the sweep telemetry.
    fn clean_measurement(
        cfg: &ExperimentConfig,
        apps: &[AppKind],
        configs: &[CompressionConfig],
    ) -> (LookupTable, Vec<String>, SweepTelemetry) {
        let mut lines = Vec::new();
        let (outcome, t) = LookupTable::measure_supervised_with(
            &FakeBackend::clean(),
            cfg,
            synthetic_calibration(),
            apps,
            configs,
            &Supervisor::none(),
            None,
            |l| lines.push(l.to_owned()),
        )
        .unwrap();
        assert!(outcome.is_complete());
        assert_eq!(outcome.exit_code(), 0);
        (outcome.table.unwrap(), lines, t)
    }

    #[test]
    fn clean_measurement_is_identical_across_worker_counts() {
        let apps = [AppKind::Fftw, AppKind::Milc];
        let configs = [
            CompressionConfig::new(1, 25_000, 1),
            CompressionConfig::new(2, 50_000, 1),
        ];
        let (serial, serial_lines, _) =
            clean_measurement(&ExperimentConfig::cab().with_jobs(1), &apps, &configs);
        let (table, lines, t) =
            clean_measurement(&ExperimentConfig::cab().with_jobs(4), &apps, &configs);
        assert_eq!(lines, serial_lines, "identical progress lines");
        assert_eq!(table.solo, serial.solo);
        assert_eq!(table.entries.len(), serial.entries.len());
        for (a, b) in table.entries.iter().zip(&serial.entries) {
            assert_eq!(a.profile.encode_journal(), b.profile.encode_journal());
            assert_eq!(a.utilization.to_bits(), b.utilization.to_bits());
            assert_eq!(a.slowdown, b.slowdown);
        }
        // The values are the fake backend's: 100 ms solo, 150 ms loaded.
        assert_eq!(
            lines[0],
            format!(
                "solo {} = {}",
                AppKind::Fftw.name(),
                SimDuration::from_millis(100)
            )
        );
        for e in &table.entries {
            assert_eq!(e.slowdown.len(), apps.len());
            assert!(e.slowdown.values().all(|&d| d == 50.0));
        }
        assert_eq!(t.runs.len(), 2 + 2 + 4);
        assert!(t.runs.iter().all(|r| r.outcome == "ok"));
    }

    #[test]
    fn supervised_measurement_isolates_failures_into_typed_holes() {
        let cfg = ExperimentConfig::cab();
        let apps = [AppKind::Fftw, AppKind::Milc];
        let c0 = CompressionConfig::new(1, 25_000, 1);
        let c1 = CompressionConfig::new(2, 50_000, 1);
        let backend = FakeBackend::faulty(
            vec![format!("impact:{}", c0.label())],
            vec![format!("grid:{}:{}", AppKind::Fftw.name(), c1.label())],
        );
        let (outcome, t) = LookupTable::measure_supervised_with(
            &backend,
            &cfg,
            synthetic_calibration(),
            &apps,
            &[c0, c1],
            &Supervisor::none(),
            None,
            |_| {},
        )
        .unwrap();
        assert_eq!(outcome.total, 8);
        assert_eq!(outcome.completed, 6);
        assert_eq!(outcome.exit_code(), 3);
        assert!(outcome
            .failures
            .iter()
            .any(|e| matches!(e, TaskError::Failed { .. })));
        assert!(outcome
            .failures
            .iter()
            .any(|e| matches!(e, TaskError::Panicked { .. })));
        let table = outcome.table.unwrap();
        assert_eq!(table.entries.len(), 1, "the failed impact has no entry");
        let entry = &table.entries[0];
        assert_eq!(entry.config.label(), c1.label());
        assert!(
            !entry.slowdown.contains_key(&AppKind::Fftw),
            "panicked grid cell leaves a hole"
        );
        assert!(entry.slowdown.contains_key(&AppKind::Milc));
        assert_eq!(table.solo.len(), 2, "solos are untouched by the faults");
        assert!(t.runs.iter().any(|r| r.outcome == "panicked"));
        assert!(t.runs.iter().any(|r| r.outcome == "failed"));
    }

    #[test]
    fn supervised_measurement_resumes_missing_cells_from_journal() {
        let dir = std::env::temp_dir().join(format!("anp-lut-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lut.jsonl");
        let cfg = ExperimentConfig::cab();
        let apps = [AppKind::Fftw];
        let configs = [CompressionConfig::new(1, 25_000, 1)];

        // 1 solo + 1 impact + 1 grid cell; the grid cell fails first.
        let faulty = FakeBackend::faulty(
            vec![format!(
                "grid:{}:{}",
                AppKind::Fftw.name(),
                configs[0].label()
            )],
            Vec::new(),
        );
        let journal = RunJournal::create(&path).unwrap();
        let (first, _) = LookupTable::measure_supervised_with(
            &faulty,
            &cfg,
            synthetic_calibration(),
            &apps,
            &configs,
            &Supervisor::none(),
            Some(&journal),
            |_| {},
        )
        .unwrap();
        assert_eq!(first.completed, 2);
        assert_eq!(first.exit_code(), 3);
        assert_eq!(faulty.call_count(), 3);
        drop(journal);

        let journal = RunJournal::resume(&path).unwrap();
        let clean = FakeBackend::clean();
        let mut resumed_lines = Vec::new();
        let (second, t) = LookupTable::measure_supervised_with(
            &clean,
            &cfg,
            synthetic_calibration(),
            &apps,
            &configs,
            &Supervisor::none(),
            Some(&journal),
            |l| resumed_lines.push(l.to_owned()),
        )
        .unwrap();
        assert!(second.is_complete());
        assert_eq!(clean.call_count(), 1, "only the failed grid cell re-runs");
        assert_eq!(t.runs.iter().filter(|r| r.outcome == "resumed").count(), 2);

        // The resumed table is byte-identical to an unfaulted run.
        let (clean_table, clean_lines, _) = clean_measurement(&cfg, &apps, &configs);
        assert_eq!(resumed_lines, clean_lines);
        let table = second.table.unwrap();
        assert_eq!(table.solo, clean_table.solo);
        assert_eq!(
            table.entries[0].profile.encode_journal(),
            clean_table.entries[0].profile.encode_journal()
        );
        assert_eq!(table.entries[0].slowdown, clean_table.entries[0].slowdown);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn synthetic_utilizations_are_coherent() {
        // The synthetic profiles are built by inverting P-K, so the
        // recovered utilization must be close to the intended one.
        let table = synthetic_table(5, &[(AppKind::Fftw, 1.0)]);
        for (i, e) in table.entries.iter().enumerate() {
            let intended = 0.2 + 0.7 * i as f64 / 4.0;
            assert!(
                (e.utilization - intended).abs() < 0.15,
                "entry {i}: intended {intended}, got {}",
                e.utilization
            );
        }
    }
}
