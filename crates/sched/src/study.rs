//! The scheduling study driver: policies × seeded streams → regret.
//!
//! A [`StudyOpts`] fixes the fabric, the application mix, the
//! interference ladder behind the look-up table, and the stream shape
//! (seed set, jobs per stream, offered load). [`run_suite`] then runs
//! every [`PolicySpec`] over every stream on the *same* measured ground
//! truth and aggregates realized stretch, makespan, SLO violations, and
//! decision latency per policy — the raw material of the regret table
//! (regret itself is accounted in [`crate::report`], anchored at the
//! oracle).

use std::collections::BTreeMap;
use std::time::Duration;

use anp_core::{Backend, DesBackend, ExperimentConfig, ModelKind, Parallelism};
use anp_flowsim::{BatchEvaluator, FlowBackend};
use anp_simnet::{SimDuration, SwitchConfig};
use anp_workloads::arrivals::{JobSpec, StreamConfig};
use anp_workloads::{AppKind, CompressionConfig, ImpactConfig};

use crate::cluster::{simulate, ScheduleOutcome, SLOTS_PER_SWITCH};
use crate::policy::{FirstFit, Oracle, PlacementPolicy, Predictive, Probed, Random, SoloOnly};
use crate::predictor::Predictor;
use crate::truth::GroundTruth;
use crate::SchedError;

/// Which measurement engine a predictive policy consults at decision
/// time. Both are wrapped in a memoizing [`BatchEvaluator`], so the
/// latency comparison measures the engines, not redundant re-simulation
/// of identical questions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionEngine {
    /// The analytic flow-level model — the deployable inner-loop choice.
    Flow,
    /// The packet-level DES — reference fidelity, reference cost.
    Des,
}

impl DecisionEngine {
    /// Short name (matches the underlying backend's telemetry name).
    pub fn name(self) -> &'static str {
        match self {
            DecisionEngine::Flow => "flow",
            DecisionEngine::Des => "des",
        }
    }

    /// Builds the memoized decision backend.
    pub fn backend(self) -> Box<dyn Backend> {
        match self {
            DecisionEngine::Flow => Box::new(BatchEvaluator::new(Box::new(FlowBackend))),
            DecisionEngine::Des => Box::new(BatchEvaluator::new(Box::new(DesBackend))),
        }
    }
}

/// One policy under study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicySpec {
    /// Greedy packing baseline.
    FirstFit,
    /// Seeded random placement baseline.
    Random,
    /// Never-share baseline.
    SoloOnly,
    /// Exhaustive search over the measured pair grid (regret zero point).
    Oracle,
    /// Model-driven placement with decision-time measurement through the
    /// given engine.
    Predictive(ModelKind, DecisionEngine),
    /// Model-driven placement fed by the *online monitor*: co-runner
    /// footprints probed live by the jittered train
    /// ([`anp_monitor::probed_profile_of_app`]) instead of a dedicated
    /// offline campaign.
    Probed(ModelKind),
}

impl PolicySpec {
    /// Stable display label (identical to the built policy's name).
    pub fn label(self) -> String {
        match self {
            PolicySpec::FirstFit => "first-fit".to_owned(),
            PolicySpec::Random => "random".to_owned(),
            PolicySpec::SoloOnly => "solo-only".to_owned(),
            PolicySpec::Oracle => "oracle".to_owned(),
            PolicySpec::Predictive(m, e) => {
                format!("predictive:{}:{}", m.name(), e.name())
            }
            PolicySpec::Probed(m) => format!("probed:{}", m.name()),
        }
    }
}

/// Everything a scheduling study needs fixed up front.
#[derive(Debug, Clone)]
pub struct StudyOpts {
    /// The fabric and measurement parameters for the ground truth (and
    /// for decision-time measurements).
    pub cfg: ExperimentConfig,
    /// The application mix jobs are drawn from.
    pub apps: Vec<AppKind>,
    /// CompressionB rungs behind the look-up table.
    pub ladder: Vec<CompressionConfig>,
    /// Arrival-stream seeds; every policy sees every stream.
    pub stream_seeds: Vec<u64>,
    /// Switches in the simulated pool.
    pub switches: usize,
    /// Jobs per stream.
    pub jobs_per_stream: u32,
    /// Offered load relative to cluster capacity (1.0 ≈ arrivals match
    /// aggregate solo service rate).
    pub load: f64,
}

impl StudyOpts {
    /// CI-sized study: the small deterministic fabric (probe layout
    /// widened to 18 nodes so every proxy builds), four apps, three
    /// seeds. Finishes in seconds.
    pub fn quick(seed: u64, jobs: usize) -> Self {
        let mut switch = SwitchConfig::tiny_deterministic();
        switch.nodes = 18;
        switch.route_servers = 18;
        let cfg = ExperimentConfig {
            switch,
            impact: ImpactConfig {
                period: SimDuration::from_micros(100),
                pairs_per_node: 1,
                ..ImpactConfig::default()
            },
            measure_window: SimDuration::from_millis(5),
            warmup_frac: 0.1,
            run_cap: SimDuration::from_secs(60),
            seed,
            jobs: Parallelism::fixed(jobs),
            audit: false,
        }
        .with_seed(seed);
        StudyOpts {
            cfg,
            apps: vec![AppKind::Fftw, AppKind::Lulesh, AppKind::Mcb, AppKind::Milc],
            ladder: CompressionConfig::gated_ladder(),
            stream_seeds: vec![seed + 1, seed + 2, seed + 3],
            switches: 3,
            jobs_per_stream: 16,
            load: 0.95,
        }
    }

    /// Paper-sized study: the Cab fabric, all six applications, four
    /// switches.
    pub fn full(seed: u64, jobs: usize) -> Self {
        let cfg = ExperimentConfig::cab().with_seed(seed).with_jobs(jobs);
        StudyOpts {
            cfg,
            apps: AppKind::ALL.to_vec(),
            ladder: CompressionConfig::gated_ladder(),
            stream_seeds: vec![seed + 1, seed + 2, seed + 3],
            switches: 4,
            jobs_per_stream: 24,
            load: 0.95,
        }
    }
}

/// The default policy suite: three baselines, the four prediction models
/// on the flow engine, and the oracle.
pub fn default_specs() -> Vec<PolicySpec> {
    let mut specs = vec![
        PolicySpec::FirstFit,
        PolicySpec::Random,
        PolicySpec::SoloOnly,
    ];
    for kind in ModelKind::ALL {
        specs.push(PolicySpec::Predictive(kind, DecisionEngine::Flow));
    }
    specs.push(PolicySpec::Oracle);
    specs
}

/// Generates the seeded arrival stream for one seed: the study's app
/// mix, sizes in [0.5, 2), a quarter of jobs carrying a 50 % slowdown
/// SLO, and a mean interarrival derived from the mean solo runtime so
/// the offered load lands at [`StudyOpts::load`] of cluster capacity.
pub fn stream_for(
    opts: &StudyOpts,
    solos: &BTreeMap<AppKind, SimDuration>,
    stream_seed: u64,
) -> Result<Vec<JobSpec>, SchedError> {
    let mut total_us = 0.0;
    for &app in &opts.apps {
        total_us += solos
            .get(&app)
            .ok_or(SchedError::MissingSolo { app })?
            .as_micros_f64();
    }
    let mean_solo_us = total_us / opts.apps.len() as f64;
    // Mean job size is 1.25 (uniform in [0.5, 2)); capacity is
    // switches × slots jobs in service at once.
    let capacity = (opts.switches * SLOTS_PER_SWITCH) as f64;
    let mean_interarrival_us = mean_solo_us * 1.25 / (capacity * opts.load);
    let mut stream = StreamConfig::uniform(stream_seed, opts.jobs_per_stream, mean_interarrival_us);
    stream.apps = opts.apps.clone();
    Ok(stream.generate())
}

/// One policy's aggregate over the whole seed set.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// The spec this outcome belongs to.
    pub spec: PolicySpec,
    /// Display label (stable across runs).
    pub label: String,
    /// Mean realized stretch across streams (%).
    pub mean_stretch_pct: f64,
    /// Mean makespan across streams (µs).
    pub mean_makespan_us: f64,
    /// Total SLO violations across streams.
    pub slo_violations: usize,
    /// Total jobs scheduled.
    pub jobs: usize,
    /// Total jobs that waited in a queue.
    pub queued: usize,
    /// Placement decisions that measured at decision time (predictive
    /// policies only; baselines report 0).
    pub decisions: u64,
    /// Wall clock spent inside `choose` (predictive policies only).
    pub decision_wall: Duration,
    /// Per-seed realized schedules, seed order.
    pub per_seed: Vec<(u64, ScheduleOutcome)>,
}

/// Runs every policy in `specs` over every stream seed in `opts` on the
/// same ground truth. Streams and placement run serially, so the
/// resulting tables are byte-identical regardless of `--jobs`; only the
/// decision *wall clock* varies, and that is reported separately.
pub fn run_suite(
    opts: &StudyOpts,
    truth: &GroundTruth,
    specs: &[PolicySpec],
    mut progress: impl FnMut(&str),
) -> Result<Vec<PolicyOutcome>, SchedError> {
    let solos = &truth.study.table.solo;
    let mut out = Vec::with_capacity(specs.len());
    for &spec in specs {
        // One policy instance per spec, reused across seeds so memoized
        // decision backends amortize exactly as a deployment would.
        let mut policy: Box<dyn PlacementPolicy + '_> = match spec {
            PolicySpec::FirstFit => Box::new(FirstFit),
            PolicySpec::Random => Box::new(Random::new(0)),
            PolicySpec::SoloOnly => Box::new(SoloOnly),
            PolicySpec::Oracle => Box::new(Oracle::new(&truth.pairs)),
            PolicySpec::Predictive(kind, engine) => Box::new(Predictive::new(
                kind,
                Predictor::new(engine.backend(), &opts.cfg, &truth.study.table),
            )),
            PolicySpec::Probed(kind) => Box::new(Probed::new(kind, &opts.cfg, &truth.study.table)),
        };
        let label = spec.label();
        let mut per_seed = Vec::with_capacity(opts.stream_seeds.len());
        for &seed in &opts.stream_seeds {
            let stream = stream_for(opts, solos, seed)?;
            policy.begin_stream(seed);
            let sched = simulate(solos, &truth.pairs, &stream, opts.switches, policy.as_mut())?;
            progress(&format!(
                "{label} seed {seed}: stretch {:+.1}% makespan {:.0}us slo-violations {} queued {}",
                sched.mean_stretch_pct, sched.makespan_us, sched.slo_violations, sched.queued
            ));
            per_seed.push((seed, sched));
        }
        let stats = policy.decision_stats();
        let n = per_seed.len() as f64;
        let mean_stretch_pct = per_seed
            .iter()
            .map(|(_, s)| s.mean_stretch_pct)
            .sum::<f64>()
            / n;
        let mean_makespan_us = per_seed.iter().map(|(_, s)| s.makespan_us).sum::<f64>() / n;
        out.push(PolicyOutcome {
            spec,
            label,
            mean_stretch_pct,
            mean_makespan_us,
            slo_violations: per_seed.iter().map(|(_, s)| s.slo_violations).sum(),
            jobs: per_seed.iter().map(|(_, s)| s.rows.len()).sum(),
            queued: per_seed.iter().map(|(_, s)| s.queued).sum(),
            decisions: stats.decisions,
            decision_wall: stats.wall,
            per_seed,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_have_stable_labels_and_default_suite_shape() {
        let specs = default_specs();
        assert_eq!(specs.len(), 8, "3 baselines + 4 models + oracle");
        assert_eq!(specs[0].label(), "first-fit");
        assert_eq!(
            PolicySpec::Predictive(ModelKind::Queue, DecisionEngine::Flow).label(),
            "predictive:Queue:flow"
        );
        assert_eq!(PolicySpec::Probed(ModelKind::Queue).label(), "probed:Queue");
        assert_eq!(specs.last().unwrap().label(), "oracle");
    }

    #[test]
    fn stream_load_derivation_matches_the_solo_mix() {
        let opts = StudyOpts::quick(7, 1);
        let solos: BTreeMap<AppKind, SimDuration> = opts
            .apps
            .iter()
            .map(|&a| (a, SimDuration::from_micros(10_000)))
            .collect();
        let stream = stream_for(&opts, &solos, 42).unwrap();
        assert_eq!(stream.len(), opts.jobs_per_stream as usize);
        // Expected interarrival: 10_000 × 1.25 / (3 × 2 × 0.95) ≈ 2193 µs.
        let span = stream.last().unwrap().arrival_us - stream[0].arrival_us;
        let mean_gap = span as f64 / (stream.len() - 1) as f64;
        assert!(
            (1_000.0..4_500.0).contains(&mean_gap),
            "mean interarrival {mean_gap} should sit near 2193us"
        );
        // Unknown app in the mix is a typed hole.
        let empty = BTreeMap::new();
        assert!(matches!(
            stream_for(&opts, &empty, 42),
            Err(SchedError::MissingSolo { .. })
        ));
    }
}
