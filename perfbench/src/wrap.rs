//! Instrumented stand-ins for library calls, used only by traced runs.
//!
//! Everything here is built from public API. [`TimedProgram`] and
//! [`TimedBackend`] delegate to the wrapped generator or backend and only
//! add clock reads. [`runtime_of`] and [`impact_profile_of_compression`]
//! mirror their namesakes in `anp_core::experiments` step for step (less
//! the invariant auditor, which the benchmark never enables) but keep the
//! `World` in hand, so the run can be split into its build and run phases
//! and its simulator counters read afterwards. A traced run
//! checks that its results are bit-identical to an untraced run's, which
//! is what keeps these mirrors honest.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use anp_core::experiments::Members;
use anp_core::{
    Backend, BackendError, ExperimentConfig, ExperimentError, LatencyProfile, TimedSeries,
    WorkloadSpec,
};
use anp_simmpi::{Ctx, JobId, Op, Program, RunOutcome, World};
use anp_simnet::{SimDuration, SimTime};
use anp_workloads::{build_compressionb, build_impactb, AppKind, CompressionConfig};

use crate::trace;

/// Calls and time spent in `Program::next_op`, shared by every rank of a
/// world.
#[derive(Debug, Default)]
pub struct NextOpClock {
    calls: Cell<u64>,
    ns: Cell<u64>,
}

/// A rank program that times each `next_op` call of the program it wraps.
pub struct TimedProgram {
    inner: Box<dyn Program>,
    clock: Rc<NextOpClock>,
}

impl Program for TimedProgram {
    fn next_op(&mut self, ctx: &Ctx) -> Op {
        let start = Instant::now();
        let op = self.inner.next_op(ctx);
        let ns = start.elapsed().as_nanos() as u64;
        self.clock.calls.set(self.clock.calls.get() + 1);
        self.clock.ns.set(self.clock.ns.get() + ns);
        op
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Wraps every rank program of a job in a [`TimedProgram`].
pub fn timed(members: Members, clock: &Rc<NextOpClock>) -> Members {
    members
        .into_iter()
        .map(|(inner, node)| {
            let program: Box<dyn Program> = Box::new(TimedProgram {
                inner,
                clock: Rc::clone(clock),
            });
            (program, node)
        })
        .collect()
}

/// A backend that records one span per call into the backend it wraps.
pub struct TimedBackend<B>(pub B);

impl<B: Backend> Backend for TimedBackend<B> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn supports_faults(&self) -> bool {
        self.0.supports_faults()
    }

    fn supports_timed_series(&self) -> bool {
        self.0.supports_timed_series()
    }

    fn validate(&self, cfg: &ExperimentConfig) -> Result<(), BackendError> {
        self.0.validate(cfg)
    }

    fn measure_impact_profile(
        &self,
        cfg: &ExperimentConfig,
        workload: WorkloadSpec<'_>,
    ) -> Result<LatencyProfile, ExperimentError> {
        trace::span("flowsim.impact", || {
            self.0.measure_impact_profile(cfg, workload)
        })
    }

    fn measure_compression_run(
        &self,
        cfg: &ExperimentConfig,
        app: AppKind,
        comp: &CompressionConfig,
    ) -> Result<SimDuration, ExperimentError> {
        trace::span("flowsim.compression_run", || {
            self.0.measure_compression_run(cfg, app, comp)
        })
    }

    fn measure_solo_runtime(
        &self,
        cfg: &ExperimentConfig,
        app: AppKind,
    ) -> Result<SimDuration, ExperimentError> {
        trace::span("flowsim.solo", || self.0.measure_solo_runtime(cfg, app))
    }

    fn measure_corun_runtime(
        &self,
        cfg: &ExperimentConfig,
        victim: AppKind,
        other: AppKind,
    ) -> Result<SimDuration, ExperimentError> {
        trace::span("flowsim.corun", || {
            self.0.measure_corun_runtime(cfg, victim, other)
        })
    }
}

/// Simulator counters summed over every world a traced run built.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SimCounters {
    pub worlds: u64,
    pub events: u64,
    /// Packets delivered through the switch, and whole messages delivered.
    pub packets: u64,
    pub messages: u64,
    pub backpressure_stalls: u64,
    /// Operations the ranks executed.
    pub ops: u64,
    pub next_op_calls: u64,
    pub next_op_ns: u64,
    /// Routing-stage busy time and capacity (window × servers), for the
    /// true switch utilization.
    pub switch_busy_ns: u128,
    pub switch_capacity_ns: u128,
    pub switch_wait_ns: u128,
    pub switch_served: u64,
    pub switch_queue_len_sum: u128,
    pub switch_arrivals: u64,
    pub simulated_ns: u128,
}

thread_local! {
    static COUNTERS: Cell<SimCounters> = Cell::new(SimCounters::default());
}

/// Returns the counters collected so far on this thread and resets them.
pub fn take_counters() -> SimCounters {
    COUNTERS.with(Cell::take)
}

fn record_world(world: &World, jobs: &[JobId], clock: &NextOpClock) {
    let fabric = world.fabric().stats();
    let switch = world.fabric().switch_stats();
    let window_ns = world.now().saturating_since(switch.window_start).as_nanos();
    COUNTERS.with(|c| {
        let mut s = c.get();
        s.worlds += 1;
        s.events += world.events_processed();
        s.packets += fabric.packets_delivered;
        s.messages += fabric.messages_delivered;
        s.backpressure_stalls += fabric.backpressure_stalls;
        s.ops += jobs.iter().map(|&j| world.job_ops_executed(j)).sum::<u64>();
        s.next_op_calls += clock.calls.get();
        s.next_op_ns += clock.ns.get();
        s.switch_busy_ns += switch.busy_ns;
        s.switch_capacity_ns += u128::from(window_ns) * switch.servers.max(1) as u128;
        s.switch_wait_ns += switch.total_wait_ns;
        s.switch_served += switch.served;
        s.switch_queue_len_sum += switch.queue_len_sum;
        s.switch_arrivals += switch.arrivals;
        s.simulated_ns += u128::from(world.now().as_nanos());
        c.set(s);
    });
}

/// Builds a world holding `jobs`, every rank program timed by `clock`.
fn build_world(
    cfg: &ExperimentConfig,
    jobs: Vec<(&str, Members)>,
    clock: &Rc<NextOpClock>,
) -> (World, Vec<JobId>) {
    trace::span("simmpi.build", || {
        let mut world = World::new(cfg.switch.clone());
        let ids = jobs
            .into_iter()
            .map(|(name, members)| world.add_job(name, timed(members, clock)))
            .collect();
        (world, ids)
    })
}

/// Runs `f` in the `simmpi.run` span and files the time the rank programs
/// spent in `next_op` during it as a child span.
fn run_phase<T>(clock: &NextOpClock, f: impl FnOnce() -> T) -> T {
    trace::span("simmpi.run", || {
        let before = clock.ns.get();
        let out = f();
        trace::aggregate("workloads.next_op", clock.ns.get() - before);
        out
    })
}

/// Mirrors `anp_core::runtime_of`: runs `app_members` to completion next
/// to an optional endless interferer and returns the job's completion
/// time.
pub fn runtime_of(
    cfg: &ExperimentConfig,
    name: &str,
    app_members: Members,
    interferer: Option<Members>,
) -> Result<SimDuration, ExperimentError> {
    let clock = Rc::new(NextOpClock::default());
    let mut jobs = vec![(name, app_members)];
    if let Some(members) = interferer {
        jobs.push(("interferer", members));
    }
    let (mut world, ids) = build_world(cfg, jobs, &clock);
    let job = ids[0];
    let cap = SimTime::ZERO + cfg.run_cap;
    let (max_events, wall_deadline) = anp_core::supervise::world_allowance();
    world.set_run_budget(max_events, wall_deadline);
    let outcome = run_phase(&clock, || world.run_until_job_done(job, cap));
    anp_core::sweep::note_events(world.events_processed());
    record_world(&world, &ids, &clock);
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

/// Mirrors `anp_core::impact_profile_of_compression`: probes the switch
/// while a CompressionB configuration runs, and profiles the samples.
pub fn impact_profile_of_compression(
    cfg: &ExperimentConfig,
    comp: &CompressionConfig,
) -> Result<LatencyProfile, ExperimentError> {
    let (load, (probes, sink)) = trace::span("workloads.build", || {
        (
            build_compressionb(comp, cfg.switch.nodes, 2, cfg.switch.cpu_hz),
            build_impactb(&cfg.impact, cfg.switch.nodes),
        )
    });
    let clock = Rc::new(NextOpClock::default());
    let (mut world, ids) = build_world(cfg, vec![("impactb", probes), ("workload", load)], &clock);
    let (max_events, wall_deadline) = anp_core::supervise::world_allowance();
    world.set_run_budget(max_events, wall_deadline);
    run_phase(&clock, || {
        world.run_until(SimTime::ZERO + cfg.measure_window)
    });
    anp_core::sweep::note_events(world.events_processed());
    record_world(&world, &ids, &clock);
    if world.budget_exhausted() {
        return Err(ExperimentError::Budget(world.stall_report(ids[0])));
    }
    let samples = sink.borrow();
    if samples.is_empty() {
        return Err(ExperimentError::NoSamples);
    }
    Ok(trace::span("samples.profile", || {
        TimedSeries::with_warmup(samples.clone(), cfg.warmup_frac).profile()
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use anp_core::{Parallelism, WorkloadSpec};
    use anp_flowsim::FlowBackend;
    use anp_simnet::SwitchConfig;
    use anp_workloads::RunMode;

    /// The deterministic tiny switch, widened to the application proxies'
    /// 18-node layout, with a short probe window.
    fn tiny_cfg() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::cab().with_seed(7);
        cfg.switch = SwitchConfig::tiny_deterministic();
        cfg.switch.nodes = 18;
        cfg.switch.route_servers = 18;
        cfg.measure_window = SimDuration::from_millis(5);
        cfg.jobs = Parallelism::fixed(1);
        cfg
    }

    #[test]
    fn timed_programs_leave_runtimes_unchanged() {
        let cfg = tiny_cfg();
        let members = || AppKind::Milc.build(RunMode::Iterations(3), 11);
        let noise = || Some(AppKind::Fftw.build(RunMode::Endless, 12));
        let plain = anp_core::runtime_of(&cfg, "MILC", members(), noise()).unwrap();
        let _ = take_counters();
        let timed = runtime_of(&cfg, "MILC", members(), noise()).unwrap();
        assert_eq!(plain, timed);
        let counters = take_counters();
        assert_eq!(counters.worlds, 1);
        assert!(counters.next_op_calls > 0 && counters.ops > 0 && counters.packets > 0);
    }

    #[test]
    fn timed_impact_mirror_matches_the_library() {
        let cfg = tiny_cfg();
        let comp = CompressionConfig::new(4, 25_000, 10);
        let plain = anp_core::impact_profile_of_compression(&cfg, &comp).unwrap();
        let timed = impact_profile_of_compression(&cfg, &comp).unwrap();
        assert_eq!(plain.count(), timed.count());
        assert_eq!(plain.mean().to_bits(), timed.mean().to_bits());
        assert_eq!(plain.std_dev().to_bits(), timed.std_dev().to_bits());
    }

    #[test]
    fn timed_backend_answers_like_the_backend_it_wraps() {
        let cfg = tiny_cfg();
        let comp = CompressionConfig::new(7, 250_000, 1);
        let (plain, timed) = (FlowBackend, TimedBackend(FlowBackend));
        assert_eq!(timed.name(), plain.name());
        for spec in [
            WorkloadSpec::Idle,
            WorkloadSpec::App(AppKind::Milc),
            WorkloadSpec::Compression(&comp),
        ] {
            let a = plain.measure_impact_profile(&cfg, spec).unwrap();
            let b = timed.measure_impact_profile(&cfg, spec).unwrap();
            assert_eq!(a.mean().to_bits(), b.mean().to_bits(), "{spec}");
        }
        let app = AppKind::Fftw;
        assert_eq!(
            plain.measure_solo_runtime(&cfg, app).unwrap(),
            timed.measure_solo_runtime(&cfg, app).unwrap()
        );
        assert_eq!(
            plain.measure_compression_run(&cfg, app, &comp).unwrap(),
            timed.measure_compression_run(&cfg, app, &comp).unwrap()
        );
        assert_eq!(
            plain
                .measure_corun_runtime(&cfg, app, AppKind::Milc)
                .unwrap(),
            timed
                .measure_corun_runtime(&cfg, app, AppKind::Milc)
                .unwrap()
        );
    }
}
