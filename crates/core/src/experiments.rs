//! Experiment drivers: the measurement procedures of §III, assembled from
//! the fabric, the world, the probes, and the workloads.
//!
//! Three experiment shapes cover the whole paper:
//!
//! * **Impact** — ImpactB probes the switch while a workload runs
//!   endlessly; the result is a [`LatencyProfile`] (Fig. 3 data, and the
//!   inputs of every prediction model).
//! * **Runtime** — a workload runs a fixed iteration count, alone or next
//!   to an endless interferer (CompressionB or another application); the
//!   result is its completion time (Fig. 7 and Table I data).
//! * **Calibration** — impact with no workload at all, yielding the idle
//!   profile that parameterizes the queue model (§IV-B).

use anp_simmpi::{JobId, Program, RunOutcome, StallReport, World};
use anp_simnet::{AuditReport, NodeId, SimDuration, SimTime, SwitchConfig};
use anp_workloads::{
    build_compressionb, build_impactb, AppKind, CompressionConfig, ImpactConfig, RunMode,
};

use crate::queue::{Calibration, CalibrationError, MuPolicy};
use crate::samples::LatencyProfile;
use crate::series::TimedSeries;
use crate::sweep::{self, Parallelism};

/// Job members: one program per rank with its node placement.
pub type Members = Vec<(Box<dyn Program>, NodeId)>;

/// Errors from experiment drivers.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentError {
    /// The measured job did not finish before the configured cap.
    HorizonExceeded {
        /// The job's name.
        job: String,
        /// The cap that was hit.
        cap: SimTime,
        /// Where the job stood when the horizon passed (which ranks were
        /// blocked on what).
        report: StallReport,
    },
    /// The probe job produced no samples inside the measurement window.
    NoSamples,
    /// The supervised run budget (simulator events and/or wall clock —
    /// see [`crate::supervise::RunBudget`]) was spent before the
    /// experiment finished. Carries the simulation's stall diagnostics
    /// at the moment the watchdog tripped.
    Budget(StallReport),
    /// The measured job can never finish: the event queue drained with
    /// ranks still blocked (a deadlock, such as a receive no send
    /// matches).
    Stalled(StallReport),
    /// The idle profile could not parameterize the queue model (e.g. it
    /// reported a non-positive idle latency).
    Calibration(CalibrationError),
    /// The simulator's invariant auditor ([`ExperimentConfig::audit`])
    /// detected a broken conservation law during the run. The cell's
    /// artefacts cannot be trusted; the report names each violated
    /// invariant and carries the event trace tail leading up to it.
    Invariant(AuditReport),
    /// The parallel sweep returned fewer cells than tasks submitted — a
    /// harness defect (the sweep contract is one result per task, in
    /// task order), surfaced as a typed error instead of a panic.
    SweepShape {
        /// Which reassembly stage came up short.
        stage: &'static str,
    },
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::HorizonExceeded { job, cap, .. } => {
                write!(f, "job '{job}' did not finish before {cap}")
            }
            ExperimentError::NoSamples => write!(f, "no probe samples collected"),
            ExperimentError::Budget(report) => {
                write!(f, "run budget exhausted: {report}")
            }
            ExperimentError::Stalled(report) => write!(f, "stalled: {report}"),
            ExperimentError::Calibration(err) => write!(f, "calibration failed: {err}"),
            ExperimentError::Invariant(report) => {
                write!(f, "simulator invariant violated: {report}")
            }
            ExperimentError::SweepShape { stage } => {
                write!(f, "sweep returned too few cells (short at stage '{stage}')")
            }
        }
    }
}

impl From<CalibrationError> for ExperimentError {
    fn from(err: CalibrationError) -> Self {
        ExperimentError::Calibration(err)
    }
}

impl std::error::Error for ExperimentError {}

/// Configuration shared by all experiments of one study.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// The network under test.
    pub switch: SwitchConfig,
    /// Probe parameters.
    pub impact: ImpactConfig,
    /// How long impact experiments sample for.
    pub measure_window: SimDuration,
    /// Fraction of early probe samples discarded as warm-up.
    pub warmup_frac: f64,
    /// Hard cap on runtime experiments.
    pub run_cap: SimDuration,
    /// Base seed; workload seeds derive from it.
    pub seed: u64,
    /// Worker threads for embarrassingly-parallel sweeps (look-up table,
    /// pairing grids, loss sweeps). Results are collected by index, so
    /// any setting produces byte-identical output; `Fixed(1)` is the
    /// exact old serial behavior.
    pub jobs: Parallelism,
    /// Runs every simulation under the invariant auditor
    /// ([`anp_simmpi::World::enable_audit`]); a tripped invariant surfaces
    /// as [`ExperimentError::Invariant`]. Requires the `audit` cargo
    /// feature — without it the flag is accepted but inert. The auditor
    /// observes without perturbing the simulation, so this flag is
    /// deliberately excluded from [`crate::journal::config_fingerprint`]:
    /// audited and unaudited runs of one configuration share a journal.
    pub audit: bool,
}

impl ExperimentConfig {
    /// The paper's setup: the Cab switch model with default probe
    /// parameters.
    pub fn cab() -> Self {
        ExperimentConfig {
            switch: SwitchConfig::cab(),
            impact: ImpactConfig::default(),
            measure_window: SimDuration::from_millis(300),
            warmup_frac: 0.1,
            run_cap: SimDuration::from_secs(120),
            seed: 0xA11CE,
            jobs: Parallelism::Auto,
            audit: false,
        }
    }

    /// Turns the invariant auditor on or off (builder style). See
    /// [`ExperimentConfig::audit`].
    pub fn with_audit(mut self, audit: bool) -> Self {
        self.audit = audit;
        self
    }

    /// Replaces the base seed (builder style). The switch seed follows.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.switch = self.switch.with_seed(seed ^ 0x5117C4);
        self
    }

    /// Replaces the sweep worker count (builder style); `1` forces the
    /// old serial behavior.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = Parallelism::fixed(jobs);
        self
    }

    /// Deterministic per-workload seed. Public so alternative measurement
    /// backends (e.g. `anp-flowsim`) build workloads from exactly the seed
    /// the DES path would use; salts follow the conventions of this
    /// module (`app as u64 + 1` for measured apps, `+ 101` for co-run
    /// interferers).
    pub fn workload_seed(&self, salt: u64) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(salt)
    }
}

/// Runs an impact experiment: probes plus an optional endless workload.
/// Returns the timed probe series after warm-up removal.
pub fn impact_series(
    cfg: &ExperimentConfig,
    workload: Option<Members>,
) -> Result<TimedSeries, ExperimentError> {
    let mut world = World::new(cfg.switch.clone());
    if cfg.audit {
        world.enable_audit();
    }
    let (probe_members, sink) = build_impactb(&cfg.impact, cfg.switch.nodes);
    let probe = world.add_job("impactb", probe_members);
    if let Some(members) = workload {
        world.add_job("workload", members);
    }
    // Under a supervised sweep the cell's remaining budget caps this run;
    // outside one the allowance is unlimited and this is a no-op.
    let (max_events, wall_deadline) = crate::supervise::world_allowance();
    world.set_run_budget(max_events, wall_deadline);
    world.run_until(SimTime::ZERO + cfg.measure_window);
    sweep::note_events(world.events_processed());
    check_audit(&mut world)?;
    if world.budget_exhausted() {
        // A truncated sample window is not a smaller measurement — it is
        // a different one. Report the budget trip instead of quietly
        // profiling whatever was collected.
        return Err(ExperimentError::Budget(world.stall_report(probe)));
    }
    let samples = sink.borrow();
    if samples.is_empty() {
        return Err(ExperimentError::NoSamples);
    }
    Ok(TimedSeries::with_warmup(samples.clone(), cfg.warmup_frac))
}

/// Runs an impact experiment and collapses the result to a time-blind
/// latency profile (what the paper's four baseline models consume).
pub fn impact_profile(
    cfg: &ExperimentConfig,
    workload: Option<Members>,
) -> Result<LatencyProfile, ExperimentError> {
    Ok(impact_series(cfg, workload)?.profile())
}

/// The idle-switch profile: probes alone (the paper's "No App" curve in
/// Fig. 3).
pub fn idle_profile(cfg: &ExperimentConfig) -> Result<LatencyProfile, ExperimentError> {
    impact_profile(cfg, None)
}

/// Calibrates the queue model from the idle profile.
pub fn calibrate(cfg: &ExperimentConfig, policy: MuPolicy) -> Result<Calibration, ExperimentError> {
    Ok(Calibration::from_idle_profile(&idle_profile(cfg)?, policy)?)
}

/// Impact profile measured while `app` runs endlessly.
pub fn impact_profile_of_app(
    cfg: &ExperimentConfig,
    app: AppKind,
) -> Result<LatencyProfile, ExperimentError> {
    Ok(impact_series_of_app(cfg, app)?.profile())
}

/// Timed impact series measured while `app` runs endlessly (feeds the
/// phase-aware extension model).
pub fn impact_series_of_app(
    cfg: &ExperimentConfig,
    app: AppKind,
) -> Result<TimedSeries, ExperimentError> {
    let members = app.build(RunMode::Endless, cfg.workload_seed(app as u64 + 1));
    impact_series(cfg, Some(members))
}

/// Impact profile measured while a CompressionB configuration runs.
pub fn impact_profile_of_compression(
    cfg: &ExperimentConfig,
    comp: &CompressionConfig,
) -> Result<LatencyProfile, ExperimentError> {
    let members = build_compressionb(comp, cfg.switch.nodes, 2, cfg.switch.cpu_hz);
    impact_profile(cfg, Some(members))
}

/// Runs `app_members` to completion next to an optional endless
/// interferer. Returns the measured job's completion time; the other run
/// outcomes map onto the error type.
pub fn runtime_of(
    cfg: &ExperimentConfig,
    name: &str,
    app_members: Members,
    interferer: Option<Members>,
) -> Result<SimDuration, ExperimentError> {
    let mut world = World::new(cfg.switch.clone());
    if cfg.audit {
        world.enable_audit();
    }
    let job: JobId = world.add_job(name, app_members);
    if let Some(members) = interferer {
        world.add_job("interferer", members);
    }
    let cap = SimTime::ZERO + cfg.run_cap;
    let (max_events, wall_deadline) = crate::supervise::world_allowance();
    world.set_run_budget(max_events, wall_deadline);
    let outcome = world.run_until_job_done(job, cap);
    sweep::note_events(world.events_processed());
    check_audit(&mut world)?;
    match outcome {
        RunOutcome::Completed { at } => Ok(at.since(SimTime::ZERO)),
        RunOutcome::DeadlineExpired(report) => Err(ExperimentError::HorizonExceeded {
            job: name.to_owned(),
            cap,
            report,
        }),
        RunOutcome::Stalled(report) => Err(ExperimentError::Stalled(report)),
        RunOutcome::BudgetExhausted(report) => Err(ExperimentError::Budget(report)),
    }
}

/// Solo runtime of `app` at its default iteration count.
pub fn solo_runtime(cfg: &ExperimentConfig, app: AppKind) -> Result<SimDuration, ExperimentError> {
    let members = app.build(RunMode::Iterations(0), cfg.workload_seed(app as u64 + 1));
    runtime_of(cfg, app.name(), members, None)
}

/// Runtime of `app` while a CompressionB configuration loads the switch
/// (the paper's §III-B compression experiment).
pub fn runtime_under_compression(
    cfg: &ExperimentConfig,
    app: AppKind,
    comp: &CompressionConfig,
) -> Result<SimDuration, ExperimentError> {
    let members = app.build(RunMode::Iterations(0), cfg.workload_seed(app as u64 + 1));
    let noise = build_compressionb(comp, cfg.switch.nodes, 2, cfg.switch.cpu_hz);
    runtime_of(cfg, app.name(), members, Some(noise))
}

/// Runtime of `victim` while `other` runs endlessly on the same switch
/// (the paper's §V pairing experiment; ground truth for Table I).
pub fn runtime_under_corun(
    cfg: &ExperimentConfig,
    victim: AppKind,
    other: AppKind,
) -> Result<SimDuration, ExperimentError> {
    let members = victim.build(RunMode::Iterations(0), cfg.workload_seed(victim as u64 + 1));
    // Distinct salt for the background copy so self-pairings (A with A)
    // do not run two phase-locked clones.
    let noise = other.build(RunMode::Endless, cfg.workload_seed(other as u64 + 101));
    runtime_of(cfg, victim.name(), members, Some(noise))
}

/// Drains a finished world's audit findings, turning a non-clean report
/// into [`ExperimentError::Invariant`]. No-op when auditing is off or
/// compiled out (the report is then `None`). Checked *before* the run
/// outcome: a broken conservation law invalidates even a "successful"
/// run's artefacts, and under supervision it must surface as its own
/// typed hole rather than hide behind a budget or stall error.
fn check_audit(world: &mut World) -> Result<(), ExperimentError> {
    match world.take_audit_report() {
        Some(report) if !report.is_clean() => Err(ExperimentError::Invariant(report)),
        _ => Ok(()),
    }
}

/// The paper's degradation metric:
/// `(T_interference − T_solo)/T_solo × 100` (percent).
pub fn degradation_percent(solo: SimDuration, loaded: SimDuration) -> f64 {
    let s = solo.as_nanos() as f64;
    let l = loaded.as_nanos() as f64;
    // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
    assert!(s > 0.0, "solo runtime must be positive");
    (l - s) / s * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use anp_simmpi::{Looping, Op, Scripted, Src};

    /// A small config on the deterministic tiny switch for fast tests.
    fn tiny_cfg() -> ExperimentConfig {
        ExperimentConfig {
            switch: SwitchConfig::tiny_deterministic(),
            impact: ImpactConfig {
                period: SimDuration::from_micros(100),
                pairs_per_node: 1,
                ..ImpactConfig::default()
            },
            measure_window: SimDuration::from_millis(5),
            warmup_frac: 0.1,
            run_cap: SimDuration::from_secs(5),
            seed: 7,
            jobs: Parallelism::Auto,
            audit: false,
        }
    }

    fn noisy_members(nodes: u32) -> Members {
        (0..nodes)
            .map(|n| {
                (
                    Box::new(Looping::new(vec![
                        Op::Isend {
                            dst: (n + 1) % nodes,
                            bytes: 8 * 1024,
                            tag: 1,
                        },
                        Op::Irecv {
                            src: Src::Any,
                            tag: 1,
                        },
                        Op::WaitAll,
                    ])) as Box<dyn Program>,
                    NodeId(n),
                )
            })
            .collect()
    }

    #[test]
    fn idle_profile_matches_deterministic_fabric() {
        let p = idle_profile(&tiny_cfg()).unwrap();
        assert!(p.count() > 20);
        // tiny switch one-way for 1 KB is exactly 2.448 µs.
        assert!((p.mean() - 2.448).abs() < 0.05, "mean {}", p.mean());
        assert!(
            p.std_dev() < 0.05,
            "idle deterministic switch has no spread"
        );
    }

    #[test]
    fn loaded_profile_shifts_right() {
        let cfg = tiny_cfg();
        let idle = idle_profile(&cfg).unwrap();
        let loaded = impact_profile(&cfg, Some(noisy_members(4))).unwrap();
        assert!(
            loaded.mean() > idle.mean() * 1.2,
            "idle {} vs loaded {}",
            idle.mean(),
            loaded.mean()
        );
    }

    #[test]
    fn calibration_under_both_policies() {
        let cfg = tiny_cfg();
        let c_min = calibrate(&cfg, MuPolicy::MinLatency).unwrap();
        let c_mean = calibrate(&cfg, MuPolicy::MeanLatency).unwrap();
        assert!(c_min.mu >= c_mean.mu);
        assert!(c_min.mu > 0.0);
    }

    #[test]
    fn utilization_estimate_grows_with_load() {
        let cfg = tiny_cfg();
        let calib = calibrate(&cfg, MuPolicy::MinLatency).unwrap();
        let idle_u = calib.utilization(&idle_profile(&cfg).unwrap());
        let loaded_u = calib.utilization(&impact_profile(&cfg, Some(noisy_members(4))).unwrap());
        assert!(loaded_u > idle_u);
        assert!(
            loaded_u > 0.1,
            "heavy ring traffic must register: {loaded_u}"
        );
    }

    #[test]
    fn runtime_of_fixed_job() {
        let cfg = tiny_cfg();
        let members: Members = vec![(
            Box::new(Scripted::new(vec![
                Op::Compute(SimDuration::from_millis(1)),
                Op::Stop,
            ])) as Box<dyn Program>,
            NodeId(0),
        )];
        let t = runtime_of(&cfg, "calc", members, None).unwrap();
        assert_eq!(t, SimDuration::from_millis(1));
    }

    #[test]
    fn horizon_exceeded_is_reported() {
        let mut cfg = tiny_cfg();
        cfg.run_cap = SimDuration::from_micros(10);
        let members: Members = vec![(
            Box::new(Scripted::new(vec![
                Op::Compute(SimDuration::from_secs(30)),
                Op::Stop,
            ])) as Box<dyn Program>,
            NodeId(0),
        )];
        let err = runtime_of(&cfg, "slow", members, None).unwrap_err();
        let ExperimentError::HorizonExceeded { ref report, .. } = err else {
            panic!("expected HorizonExceeded, got {err:?}");
        };
        assert_eq!(report.job_name, "slow");
        assert_eq!(report.blocked.len(), 1, "the computing rank is reported");
        assert!(err.to_string().contains("slow"));
    }

    /// [`tiny_cfg`] widened to the application proxies' 18-node layout.
    fn app_cfg() -> ExperimentConfig {
        let mut switch = SwitchConfig::tiny_deterministic();
        switch.nodes = 18;
        switch.route_servers = 18;
        ExperimentConfig {
            switch,
            run_cap: SimDuration::from_secs(60),
            ..tiny_cfg()
        }
    }

    /// Runs `f` inside a supervised single-cell sweep so the installed
    /// [`crate::supervise::RunBudget`] reaches the drivers' worlds.
    #[expect(
        clippy::result_large_err,
        reason = "test helper; the large variants are the point"
    )]
    fn supervised_cell<T: Send + crate::journal::Journaled>(
        budget: crate::supervise::RunBudget,
        f: impl Fn() -> Result<T, ExperimentError> + Send + Sync,
    ) -> crate::supervise::CellResult<T> {
        let supervisor = crate::supervise::Supervisor {
            budget,
            ..crate::supervise::Supervisor::none()
        };
        let (mut results, _) = crate::supervise::sweep_supervised(
            "budget-test",
            Parallelism::fixed(1),
            &supervisor,
            None,
            0,
            vec![("cell".to_owned(), f)],
        )
        .unwrap();
        results.pop().unwrap()
    }

    #[test]
    fn event_budget_turns_runtime_into_budget_error() {
        let cfg = app_cfg();
        // Establish how many events a clean solo run needs, then grant
        // half of them: the driver must report Budget (with the stall
        // diagnostics), not HorizonExceeded or a bogus runtime.
        let clean = supervised_cell(crate::supervise::RunBudget::unlimited(), || {
            solo_runtime(&cfg, AppKind::Fftw)
        });
        assert!(clean.is_ok());
        let budget = crate::supervise::RunBudget {
            wall: None,
            events: Some(500),
        };
        let err = supervised_cell(budget, || solo_runtime(&cfg, AppKind::Fftw)).unwrap_err();
        let crate::supervise::TaskError::Budget { report, .. } = err else {
            panic!("expected Budget, got {err}");
        };
        assert!(report.events >= 500, "the run charged its events");
        assert!(
            !report.stall.blocked.is_empty(),
            "diagnostics name the unfinished ranks"
        );
    }

    #[test]
    fn event_budget_turns_impact_into_budget_error() {
        let cfg = tiny_cfg();
        let budget = crate::supervise::RunBudget {
            wall: None,
            events: Some(100),
        };
        let err = supervised_cell(budget, || idle_profile(&cfg)).unwrap_err();
        assert!(
            matches!(err, crate::supervise::TaskError::Budget { .. }),
            "a truncated impact window must not masquerade as a profile: {err}"
        );
    }

    #[test]
    fn budget_spans_all_simulations_of_one_cell() {
        // One cell running two back-to-back experiments shares a single
        // event budget: granting enough for one run but not two must trip
        // on the second.
        let cfg = app_cfg();
        let one_run = {
            let _ = crate::sweep::take_events();
            solo_runtime(&cfg, AppKind::Fftw).unwrap();
            crate::sweep::take_events()
        };
        let budget = crate::supervise::RunBudget {
            wall: None,
            events: Some(one_run + one_run / 2),
        };
        let err = supervised_cell(budget, || {
            let a = solo_runtime(&cfg, AppKind::Fftw)?;
            let b = solo_runtime(&cfg, AppKind::Fftw)?;
            Ok((a, b))
        })
        .unwrap_err();
        assert!(matches!(err, crate::supervise::TaskError::Budget { .. }));
    }

    #[test]
    fn interference_slows_a_network_bound_job() {
        let cfg = tiny_cfg();
        let mk_job = || -> Members {
            // A 2-rank job ping-ponging 50 × 8 KB across the switch.
            let mut a = Vec::new();
            for _ in 0..50 {
                a.push(Op::Isend {
                    dst: 1,
                    bytes: 8 * 1024,
                    tag: 2,
                });
                a.push(Op::Irecv {
                    src: Src::Rank(1),
                    tag: 2,
                });
                a.push(Op::WaitAll);
            }
            a.push(Op::Stop);
            let mut b = Vec::new();
            for _ in 0..50 {
                b.push(Op::Irecv {
                    src: Src::Rank(0),
                    tag: 2,
                });
                b.push(Op::Isend {
                    dst: 0,
                    bytes: 8 * 1024,
                    tag: 2,
                });
                b.push(Op::WaitAll);
            }
            b.push(Op::Stop);
            vec![
                (Box::new(Scripted::new(a)) as Box<dyn Program>, NodeId(0)),
                (Box::new(Scripted::new(b)) as Box<dyn Program>, NodeId(1)),
            ]
        };
        let solo = runtime_of(&cfg, "app", mk_job(), None).unwrap();
        let loaded = runtime_of(&cfg, "app", mk_job(), Some(noisy_members(4))).unwrap();
        let deg = degradation_percent(solo, loaded);
        assert!(deg > 10.0, "expected visible slowdown, got {deg:.1}%");
    }

    #[test]
    fn stalled_job_is_reported_with_diagnostics() {
        // A receive with no sender: the queue drains, and the error must
        // carry the structured report rather than a bare timeout.
        let cfg = tiny_cfg();
        let members: Members = vec![(
            Box::new(Scripted::new(vec![
                Op::Irecv {
                    src: Src::Rank(0),
                    tag: 3,
                },
                Op::WaitAll,
                Op::Stop,
            ])) as Box<dyn Program>,
            NodeId(0),
        )];
        let err = runtime_of(&cfg, "hung", members, None).unwrap_err();
        let ExperimentError::Stalled(report) = err else {
            panic!("expected Stalled, got {err:?}");
        };
        assert_eq!(report.blocked.len(), 1);
        assert!(report.to_string().contains("tag 3"));
    }

    #[test]
    fn degradation_percent_math() {
        let solo = SimDuration::from_millis(100);
        assert_eq!(
            degradation_percent(solo, SimDuration::from_millis(150)),
            50.0
        );
        assert_eq!(degradation_percent(solo, solo), 0.0);
        // Speedups are negative degradation, as in the paper's error plots.
        assert_eq!(
            degradation_percent(solo, SimDuration::from_millis(90)),
            -10.0
        );
    }

    #[test]
    fn audited_experiments_match_unaudited_results() {
        // The auditor observes; it must not change a single sample. (With
        // the `audit` feature compiled out the flag is inert and this
        // reduces to a determinism check.)
        let plain = tiny_cfg();
        let audited = tiny_cfg().with_audit(true);
        let a = impact_profile(&plain, Some(noisy_members(4))).unwrap();
        let b = impact_profile(&audited, Some(noisy_members(4))).unwrap();
        assert_eq!(a.mean(), b.mean());
        assert_eq!(a.count(), b.count());
        // The 4-node tiny switch cannot host the 18-rank app proxies;
        // check the runtime driver on the app-sized config instead.
        let cfg_a = app_cfg();
        let cfg_b = app_cfg().with_audit(true);
        assert_eq!(
            solo_runtime(&cfg_a, AppKind::Fftw).unwrap(),
            solo_runtime(&cfg_b, AppKind::Fftw).unwrap()
        );
    }

    #[test]
    fn experiments_are_deterministic() {
        let cfg = tiny_cfg();
        let a = impact_profile(&cfg, Some(noisy_members(4))).unwrap();
        let b = impact_profile(&cfg, Some(noisy_members(4))).unwrap();
        assert_eq!(a.mean(), b.mean());
        assert_eq!(a.count(), b.count());
    }
}
