//! # anp-flowsim — the analytic flow-level measurement backend
//!
//! A drop-in [`Backend`] that answers the same questions as the
//! packet-level DES — probe-latency profiles, solo runtimes, co-run and
//! compression slowdowns — from closed-form queueing theory instead of
//! event simulation, typically orders of magnitude faster.
//!
//! The pipeline:
//!
//! 1. [`extract`] walks each rank's program symbolically (lowering
//!    collectives through the DES's own expansions) into a
//!    [`TrafficDescriptor`]: bytes, packets, synchronization rounds,
//!    compute time.
//! 2. [`model`] composes per-stage queueing approximations — NIC
//!    round-robin residuals, an Allen–Cunneen M/G/k central stage,
//!    Pollaczek–Khinchine egress FIFOs, all capped by the credit-gate
//!    ceiling — and iterates a damped fixed point over job durations and
//!    stage utilizations.
//! 3. [`FlowBackend`] converts equilibria into the `anp-core` currency:
//!    deterministic quantile-sampled [`LatencyProfile`]s and
//!    [`SimDuration`] runtimes.
//!
//! ## Blind spots (by construction)
//!
//! The model reasons in steady-state rates. It cannot see transient
//! bursts inside an iteration, or head-of-line transients shorter than a
//! fixed-point time constant. Use the DES backend when those matter; use
//! this one for wide sweeps where its error envelope (see `backend_xval`)
//! is acceptable.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod extract;
pub mod model;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use anp_core::experiments::{ExperimentConfig, ExperimentError};
use anp_core::journal::config_fingerprint;
use anp_core::{Backend, BackendError, DesBackend, LatencyProfile, WorkloadSpec};
use anp_simnet::{SimDuration, Topology};
use anp_workloads::compressionb::CompressionConfig;
use anp_workloads::{AppKind, RunMode};

pub use extract::{describe_compression, describe_members, TrafficDescriptor};
pub use model::{probe_wait_ns, solve, Equilibrium, NetModel, StageLoads};

/// Golden-ratio-family multipliers for the low-discrepancy sample
/// sequences (rationally independent, so paired coordinates
/// equidistribute over the unit square).
const ALPHA_PHASE: f64 = 0.618_033_988_749_895;
const ALPHA_MAG: f64 = 0.754_877_666_246_693;
const ALPHA_WAIT: f64 = 0.569_840_290_998_053;

/// Sample-count bounds for synthesized profiles.
const MIN_SAMPLES: usize = 64;
const MAX_SAMPLES: usize = 4096;

/// Resolves a measurement backend by its CLI name (`des` or `flow`).
///
/// The factory lives here rather than in `anp-core` because the core
/// crate cannot depend back on this one; every binary that offers a
/// `--backend` flag funnels through this single spelling of the name
/// set.
pub fn backend_from_name(name: &str) -> Result<Box<dyn Backend>, BackendError> {
    match name {
        "des" => Ok(Box::new(DesBackend)),
        "flow" => Ok(Box::new(FlowBackend)),
        other => Err(BackendError::UnknownBackend(other.to_owned())),
    }
}

/// The analytic flow-level backend. Stateless; construct freely.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowBackend;

/// Everything the symbolic walk reads: the application (and its derived
/// build seed) plus the fabric facts `extract` consults — node count,
/// MTU (packet segmentation), and leaf layout (cross-leaf fractions).
type DescriptorKey = (AppKind, u64, u32, u64, u32, u32);

/// Process-wide memo of extracted application descriptors. The walk is
/// pure in [`DescriptorKey`] but runs every rank program to completion:
/// about 1–11 ms per app at Cab scale in a release build, bound by the
/// op generators once collectives are memoized per rank. Memoizing it
/// here leaves the equilibrium solve — microseconds — as the marginal
/// cost of a flow answer.
static APP_DESCRIPTORS: OnceLock<Mutex<BTreeMap<DescriptorKey, TrafficDescriptor>>> =
    OnceLock::new();

/// Recovers a memo-table lock even if a supervised sweep cell panicked
/// while holding it. The memo tables only ever hold fully computed
/// values (compute happens outside the lock), so the data behind a
/// poisoned lock is still sound — worst case a missing entry is
/// recomputed.
fn lock_memo<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn descriptor_key(cfg: &ExperimentConfig, app: AppKind, salt: u64) -> DescriptorKey {
    let (leaves, spines) = match cfg.switch.topology {
        Topology::SingleSwitch => (0, 0),
        Topology::FatTree { leaves, spines } => (leaves, spines),
    };
    (
        app,
        cfg.workload_seed(salt),
        cfg.switch.nodes,
        cfg.switch.mtu,
        leaves,
        spines,
    )
}

impl FlowBackend {
    /// Builds `app` exactly as the DES experiment drivers would (same
    /// run mode, same derived seed) and extracts its traffic descriptor,
    /// memoized process-wide. The lock is not held across the walk:
    /// concurrent first callers may extract twice, but both arrive at
    /// the same (deterministic) descriptor.
    fn app_descriptor(cfg: &ExperimentConfig, app: AppKind, salt: u64) -> TrafficDescriptor {
        let key = descriptor_key(cfg, app, salt);
        let cache = APP_DESCRIPTORS.get_or_init(|| Mutex::new(BTreeMap::new()));
        if let Some(d) = lock_memo(cache).get(&key) {
            return d.clone();
        }
        let members = app.build(RunMode::Iterations(0), cfg.workload_seed(salt));
        let d = extract::describe_members(app.name(), members, &cfg.switch);
        lock_memo(cache).insert(key, d.clone());
        d
    }

    fn equilibrium(cfg: &ExperimentConfig, workload: WorkloadSpec<'_>) -> Equilibrium {
        let net = NetModel::new(&cfg.switch);
        match workload {
            WorkloadSpec::Idle => solve(&net, &[]),
            WorkloadSpec::App(app) => {
                let d = Self::app_descriptor(cfg, app, app as u64 + 1);
                solve(&net, &[&d])
            }
            WorkloadSpec::Compression(comp) => {
                let d = extract::describe_compression(comp, &cfg.switch);
                solve(&net, &[&d])
            }
        }
    }

    /// Synthesizes the probe-latency profile observed at `loads`.
    ///
    /// Deterministic low-discrepancy sampling: the probe's fixed path
    /// cost, plus a quantile-sampled central service draw per switch
    /// traversal, plus an exponential queueing excursion whose frequency
    /// and conditional mean reproduce the analytic busy probability and
    /// mean wait.
    fn synthesize_profile(cfg: &ExperimentConfig, loads: &StageLoads) -> LatencyProfile {
        let net = NetModel::new(&cfg.switch);
        let probe_bytes = cfg.impact.msg_bytes as f64;
        let base = net.base_one_way_ns(probe_bytes, 1.0);
        let wait = probe_wait_ns(&net, loads);
        let p_busy = loads.any_busy().clamp(0.0, 0.98);
        // Mean-preserving split: p_busy * cond_mean == wait.
        let (p_wait, cond_mean) = if wait > 0.0 && p_busy > 0.0 {
            (p_busy, wait / p_busy)
        } else {
            (0.0, 0.0)
        };
        let wait_cap = 2.0 * net.wait_ceiling_ns(loads.pkt_bytes.max(probe_bytes));

        let n = Self::sample_count(cfg);
        let mut samples = Vec::with_capacity(n);
        for i in 0..n {
            let x = i as f64 + 0.5;
            let u_phase = (x * ALPHA_PHASE).fract();
            let u_mag = (x * ALPHA_MAG).fract();
            let u_wait = (x * ALPHA_WAIT).fract();
            let svc = net.service_quantile_ns(u_phase, u_mag);
            let w = if u_wait < p_wait {
                // Inverse-CDF exponential on the stratified remainder of
                // u_wait, so the excursion sizes are themselves
                // well-spread.
                let v = (u_wait / p_wait).min(0.999_999);
                (-cond_mean * (1.0 - v).ln()).min(wait_cap)
            } else {
                0.0
            };
            samples.push((base + svc + w) / 1e3); // ns → µs
        }
        LatencyProfile::from_samples(&samples)
    }

    /// How many probe samples the DES window would have produced (pinger
    /// count × exchanges per window, after warmup), clamped to keep
    /// profile synthesis cheap but well-resolved.
    fn sample_count(cfg: &ExperimentConfig) -> usize {
        let nodes = cfg.switch.nodes - cfg.switch.nodes % 2;
        let pingers = u64::from(nodes / 2) * u64::from(cfg.impact.pairs_per_node);
        let period = cfg.impact.period.as_nanos().max(1);
        let per_pinger = cfg.measure_window.as_nanos() / period;
        let kept = (pingers * per_pinger) as f64 * (1.0 - cfg.warmup_frac);
        (kept as usize).clamp(MIN_SAMPLES, MAX_SAMPLES)
    }
}

impl Backend for FlowBackend {
    fn name(&self) -> &'static str {
        "flow"
    }

    fn supports_timed_series(&self) -> bool {
        false
    }

    fn measure_impact_profile(
        &self,
        cfg: &ExperimentConfig,
        workload: WorkloadSpec<'_>,
    ) -> Result<LatencyProfile, ExperimentError> {
        let eq = Self::equilibrium(cfg, workload);
        Ok(Self::synthesize_profile(cfg, &eq.loads))
    }

    fn measure_compression_run(
        &self,
        cfg: &ExperimentConfig,
        app: AppKind,
        comp: &CompressionConfig,
    ) -> Result<SimDuration, ExperimentError> {
        let net = NetModel::new(&cfg.switch);
        let victim = Self::app_descriptor(cfg, app, app as u64 + 1);
        let noise = extract::describe_compression(comp, &cfg.switch);
        let eq = solve(&net, &[&victim, &noise]);
        Ok(SimDuration::from_nanos(eq.jobs[0].loaded_ns.round() as u64))
    }

    fn measure_solo_runtime(
        &self,
        cfg: &ExperimentConfig,
        app: AppKind,
    ) -> Result<SimDuration, ExperimentError> {
        let net = NetModel::new(&cfg.switch);
        let d = Self::app_descriptor(cfg, app, app as u64 + 1);
        let eq = solve(&net, &[&d]);
        Ok(SimDuration::from_nanos(eq.jobs[0].solo_ns.round() as u64))
    }

    fn measure_corun_runtime(
        &self,
        cfg: &ExperimentConfig,
        victim: AppKind,
        other: AppKind,
    ) -> Result<SimDuration, ExperimentError> {
        let net = NetModel::new(&cfg.switch);
        let v = Self::app_descriptor(cfg, victim, victim as u64 + 1);
        let o = Self::app_descriptor(cfg, other, other as u64 + 101);
        let eq = solve(&net, &[&v, &o]);
        Ok(SimDuration::from_nanos(eq.jobs[0].loaded_ns.round() as u64))
    }
}

/// A memoizing cache key: the experiment-config fingerprint plus the
/// question asked, so one evaluator can safely serve several configs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum BatchKey {
    /// Impact profile of a workload (idle / app / compression config).
    Profile(u64, ProfileKey),
    /// App runtime under a CompressionB configuration.
    Compression(u64, AppKind, (u32, u32, u64, u64, u32)),
    /// Solo runtime of an app.
    Solo(u64, AppKind),
    /// Ordered co-run runtime (victim, other).
    Corun(u64, AppKind, AppKind),
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum ProfileKey {
    Idle,
    App(AppKind),
    Compression((u32, u32, u64, u64, u32)),
}

fn comp_key(c: &CompressionConfig) -> (u32, u32, u64, u64, u32) {
    (c.partners, c.messages, c.bubble_cycles, c.msg_bytes, c.tag)
}

/// A batching wrapper around any measurement backend: every answered
/// question is memoized, so one calibration pass serves arbitrarily many
/// candidate pairings afterwards at zero marginal cost.
///
/// This is the evaluator the `anp-sched` placement loop drives: a
/// predictive policy asks for the same handful of impact profiles over
/// and over while scoring hundreds of candidate placements, and the
/// cache collapses those to one backend call each. Results are cached
/// keyed by [`config_fingerprint`], so evaluating under several
/// experiment configurations through one evaluator stays sound. Errors
/// are never cached — a transient failure retries on the next ask.
///
/// The wrapper is deterministic by construction: it only replays what
/// the inner backend returned, so any sequence of calls yields byte-wise
/// the results the bare backend would have produced.
pub struct BatchEvaluator {
    inner: Box<dyn Backend>,
    profiles: Mutex<BTreeMap<BatchKey, LatencyProfile>>,
    durations: Mutex<BTreeMap<BatchKey, SimDuration>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BatchEvaluator {
    /// Wraps `inner` with a fresh, empty memo.
    pub fn new(inner: Box<dyn Backend>) -> Self {
        BatchEvaluator {
            inner,
            profiles: Mutex::new(BTreeMap::new()),
            durations: Mutex::new(BTreeMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Cache hits served so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Questions that had to reach the inner backend.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    fn fp(&self, cfg: &ExperimentConfig) -> u64 {
        config_fingerprint(cfg, self.inner.name())
    }

    fn cached_duration(
        &self,
        key: BatchKey,
        compute: impl FnOnce() -> Result<SimDuration, ExperimentError>,
    ) -> Result<SimDuration, ExperimentError> {
        if let Some(&d) = lock_memo(&self.durations).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(d);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let d = compute()?;
        lock_memo(&self.durations).insert(key, d);
        Ok(d)
    }
}

impl Backend for BatchEvaluator {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn supports_timed_series(&self) -> bool {
        self.inner.supports_timed_series()
    }

    fn measure_impact_profile(
        &self,
        cfg: &ExperimentConfig,
        workload: WorkloadSpec<'_>,
    ) -> Result<LatencyProfile, ExperimentError> {
        let pk = match workload {
            WorkloadSpec::Idle => ProfileKey::Idle,
            WorkloadSpec::App(app) => ProfileKey::App(app),
            WorkloadSpec::Compression(c) => ProfileKey::Compression(comp_key(c)),
        };
        let key = BatchKey::Profile(self.fp(cfg), pk);
        if let Some(p) = lock_memo(&self.profiles).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(p.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let p = self.inner.measure_impact_profile(cfg, workload)?;
        lock_memo(&self.profiles).insert(key, p.clone());
        Ok(p)
    }

    fn measure_compression_run(
        &self,
        cfg: &ExperimentConfig,
        app: AppKind,
        comp: &CompressionConfig,
    ) -> Result<SimDuration, ExperimentError> {
        let key = BatchKey::Compression(self.fp(cfg), app, comp_key(comp));
        self.cached_duration(key, || self.inner.measure_compression_run(cfg, app, comp))
    }

    fn measure_solo_runtime(
        &self,
        cfg: &ExperimentConfig,
        app: AppKind,
    ) -> Result<SimDuration, ExperimentError> {
        let key = BatchKey::Solo(self.fp(cfg), app);
        self.cached_duration(key, || self.inner.measure_solo_runtime(cfg, app))
    }

    fn measure_corun_runtime(
        &self,
        cfg: &ExperimentConfig,
        victim: AppKind,
        other: AppKind,
    ) -> Result<SimDuration, ExperimentError> {
        let key = BatchKey::Corun(self.fp(cfg), victim, other);
        self.cached_duration(key, || self.inner.measure_corun_runtime(cfg, victim, other))
    }
}

impl std::fmt::Debug for BatchEvaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchEvaluator")
            .field("inner", &self.inner.name())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anp_simnet::SwitchConfig;

    fn tiny_cfg() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::cab();
        cfg.switch = SwitchConfig::tiny_deterministic();
        cfg.measure_window = SimDuration::from_millis(5);
        cfg
    }

    #[test]
    fn idle_profile_matches_the_pinned_des_mean() {
        // The DES tiny-config idle probe mean is pinned at 2.448 µs; the
        // analytic model must agree on a deterministic-service fabric.
        let p = FlowBackend
            .measure_impact_profile(&tiny_cfg(), WorkloadSpec::Idle)
            .unwrap();
        assert!(
            (p.mean() - 2.448).abs() < 0.001,
            "idle mean {} vs DES 2.448",
            p.mean()
        );
        assert!(p.std_dev() < 1e-9, "deterministic service has no spread");
    }

    #[test]
    fn cab_idle_profile_is_near_the_des_calibration_point() {
        let cfg = ExperimentConfig::cab();
        let p = FlowBackend
            .measure_impact_profile(&cfg, WorkloadSpec::Idle)
            .unwrap();
        assert!(
            (p.mean() - 1.285).abs() < 0.05,
            "Cab idle mean {} vs analytic 1.285",
            p.mean()
        );
        assert!(p.std_dev() > 0.0, "the service tail must show");
    }

    #[test]
    fn heavier_compression_raises_probe_latency_monotonically() {
        let cfg = ExperimentConfig::cab();
        let light = CompressionConfig::new(1, 25_000_000, 1);
        let heavy = CompressionConfig::new(17, 25_000, 10);
        let idle = FlowBackend
            .measure_impact_profile(&cfg, WorkloadSpec::Idle)
            .unwrap();
        let p_light = FlowBackend
            .measure_impact_profile(&cfg, WorkloadSpec::Compression(&light))
            .unwrap();
        let p_heavy = FlowBackend
            .measure_impact_profile(&cfg, WorkloadSpec::Compression(&heavy))
            .unwrap();
        assert!(p_light.mean() >= idle.mean());
        assert!(
            p_heavy.mean() > p_light.mean() + 1.0,
            "saturating config must add microseconds: light {} heavy {}",
            p_light.mean(),
            p_heavy.mean()
        );
    }

    #[test]
    fn compression_slows_an_app_beyond_its_solo_time() {
        let cfg = ExperimentConfig::cab();
        let comp = CompressionConfig::new(17, 25_000, 10);
        let solo = FlowBackend
            .measure_solo_runtime(&cfg, AppKind::Fftw)
            .unwrap();
        let loaded = FlowBackend
            .measure_compression_run(&cfg, AppKind::Fftw, &comp)
            .unwrap();
        assert!(
            loaded > solo,
            "saturating interference must cost time: solo {solo}, loaded {loaded}"
        );
    }

    #[test]
    fn corun_is_at_least_solo_and_symmetric_apps_agree() {
        let cfg = ExperimentConfig::cab();
        let solo = FlowBackend
            .measure_solo_runtime(&cfg, AppKind::Milc)
            .unwrap();
        let loaded = FlowBackend
            .measure_corun_runtime(&cfg, AppKind::Milc, AppKind::Fftw)
            .unwrap();
        assert!(loaded >= solo);
    }

    #[test]
    fn batch_evaluator_replays_the_bare_backend() {
        let cfg = ExperimentConfig::cab();
        let batch = BatchEvaluator::new(Box::new(FlowBackend));

        let bare_profile = FlowBackend
            .measure_impact_profile(&cfg, WorkloadSpec::App(AppKind::Milc))
            .unwrap();
        let first = batch
            .measure_impact_profile(&cfg, WorkloadSpec::App(AppKind::Milc))
            .unwrap();
        let second = batch
            .measure_impact_profile(&cfg, WorkloadSpec::App(AppKind::Milc))
            .unwrap();
        assert_eq!(first.mean().to_bits(), bare_profile.mean().to_bits());
        assert_eq!(second.mean().to_bits(), bare_profile.mean().to_bits());
        assert_eq!(first.count(), bare_profile.count());

        let bare_solo = FlowBackend
            .measure_solo_runtime(&cfg, AppKind::Fftw)
            .unwrap();
        assert_eq!(
            batch.measure_solo_runtime(&cfg, AppKind::Fftw).unwrap(),
            bare_solo
        );
        assert_eq!(
            batch.measure_solo_runtime(&cfg, AppKind::Fftw).unwrap(),
            bare_solo
        );

        assert_eq!(batch.misses(), 2, "one backend call per distinct question");
        assert_eq!(batch.hits(), 2, "repeats served from the memo");
    }

    #[test]
    fn batch_evaluator_distinguishes_configs() {
        let cab = ExperimentConfig::cab();
        let tiny = tiny_cfg();
        let batch = BatchEvaluator::new(Box::new(FlowBackend));
        let a = batch
            .measure_impact_profile(&cab, WorkloadSpec::Idle)
            .unwrap();
        let b = batch
            .measure_impact_profile(&tiny, WorkloadSpec::Idle)
            .unwrap();
        assert_ne!(
            a.mean().to_bits(),
            b.mean().to_bits(),
            "different configs must not share cache entries"
        );
        assert_eq!(batch.misses(), 2);
    }

    #[test]
    fn profiles_are_deterministic() {
        let cfg = ExperimentConfig::cab();
        let comp = CompressionConfig::new(7, 2_500_000, 10);
        let a = FlowBackend
            .measure_impact_profile(&cfg, WorkloadSpec::Compression(&comp))
            .unwrap();
        let b = FlowBackend
            .measure_impact_profile(&cfg, WorkloadSpec::Compression(&comp))
            .unwrap();
        assert_eq!(a.mean(), b.mean());
        assert_eq!(a.count(), b.count());
    }
}
