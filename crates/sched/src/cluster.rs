//! The event-driven cluster simulation the policies are judged on.
//!
//! A pool of switches, each with [`SLOTS_PER_SWITCH`] job slots, receives
//! a time-ordered stream of jobs. A [`PlacementPolicy`] decides, at each
//! arrival (and again whenever a completion frees a slot), which switch a
//! job lands on — or defers it to a FIFO wait queue. While two jobs share
//! a switch, each runs at a reduced rate derived from the *measured*
//! pair-slowdown grid, so the realized schedule is DES-validated ground
//! truth, not a model's opinion of itself. A job's realized (stretch)
//! slowdown is measured from its arrival, so queueing delay counts: a
//! policy cannot look good by deferring every job.
//!
//! The loop is serial and the clock is plain `f64` microseconds; with a
//! seeded stream and deterministic policies the whole schedule table is
//! byte-identical run to run, which is what the CLI determinism test
//! pins.
//!
//! [`PlacementPolicy`]: crate::policy::PlacementPolicy

use std::collections::BTreeMap;
use std::collections::VecDeque;

use anp_simnet::SimDuration;
use anp_workloads::AppKind;

use crate::policy::{PlacementPolicy, SwitchSnapshot};
use crate::SchedError;
use anp_core::PredictionError;
use anp_workloads::arrivals::JobSpec;

/// Job slots per switch. Two, matching the paper's pairing study: the
/// measured ground truth covers solo runs and ordered pairs, so a switch
/// never holds more jobs than the measurement grid can price.
pub const SLOTS_PER_SWITCH: usize = 2;

/// One job's realized schedule: where it ran, when, and how much it
/// stretched relative to its solo ideal.
#[derive(Debug, Clone)]
pub struct JobRow {
    /// Stream id of the job.
    pub id: u32,
    /// The application the job runs.
    pub app: AppKind,
    /// Size multiplier on the solo runtime.
    pub size: f64,
    /// Arrival time (µs).
    pub arrival_us: f64,
    /// Placement time (µs); equals `arrival_us` unless the job queued.
    pub placed_us: f64,
    /// Completion time (µs).
    pub finish_us: f64,
    /// The switch the job ran on.
    pub switch: usize,
    /// Realized stretch: `(turnaround / ideal − 1) × 100`, where ideal is
    /// the solo runtime scaled by the job size. Queue wait included.
    pub stretch_pct: f64,
    /// Whether the job carried a slowdown SLO and the realized stretch
    /// broke it.
    pub slo_violated: bool,
}

/// The realized schedule of one stream under one policy.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// Per-job rows, stream order.
    pub rows: Vec<JobRow>,
    /// Completion time of the last job (µs).
    pub makespan_us: f64,
    /// Mean realized stretch across all jobs (%).
    pub mean_stretch_pct: f64,
    /// Jobs whose slowdown SLO was broken.
    pub slo_violations: usize,
    /// Jobs that spent time in the wait queue.
    pub queued: usize,
}

struct ActiveJob {
    switch: usize,
    /// Remaining work, in µs of solo-rate execution.
    remaining: f64,
    /// Current progress rate (solo = 1.0).
    rate: f64,
}

/// Progress rate of a job co-located with `partner_slowdowns` (the
/// measured % slowdown each partner inflicts on it). Solo runs at 1.0;
/// a partner inflicting +25% runs it at 1/1.25 = 0.8. Summed slowdowns
/// are floored at −50% (a co-runner can help, but not double the rate of
/// everything) and the rate is clamped to a sane band so a corrupted
/// measurement cannot wedge the clock.
fn rate_under(partner_slowdowns: &[f64]) -> f64 {
    let total: f64 = partner_slowdowns.iter().sum();
    (1.0 / (1.0 + (total / 100.0).max(-0.5))).clamp(0.05, 4.0)
}

/// Runs `stream` (time-ordered) through `policy` on a pool of `switches`
/// switches, progressing every job at the rate the measured pair grid
/// dictates.
///
/// `solos` and `pairs` are the ground truth: solo runtimes per app and
/// the directed measured pair slowdowns (`(victim, other)` → %). A
/// pairing the policy creates that the grid never measured is a typed
/// error — the realized schedule refuses to invent physics.
pub fn simulate(
    solos: &BTreeMap<AppKind, SimDuration>,
    pairs: &BTreeMap<(AppKind, AppKind), f64>,
    stream: &[JobSpec],
    switches: usize,
    policy: &mut dyn PlacementPolicy,
) -> Result<ScheduleOutcome, SchedError> {
    // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
    assert!(switches > 0, "a cluster needs at least one switch");

    let policy_name = policy.name();
    let solo_us = |app: AppKind| -> Result<f64, SchedError> {
        solos
            .get(&app)
            .map(|d| d.as_micros_f64())
            .ok_or(SchedError::MissingSolo { app })
    };
    let slowdown = |victim: AppKind, other: AppKind| -> Result<f64, SchedError> {
        pairs
            .get(&(victim, other))
            .copied()
            .ok_or(SchedError::Prediction(PredictionError::Unmeasured {
                victim,
                other,
            }))
    };

    let mut rows: Vec<JobRow> = stream
        .iter()
        .map(|j| JobRow {
            id: j.id,
            app: j.app,
            size: j.size,
            arrival_us: j.arrival_us as f64,
            placed_us: f64::NAN,
            finish_us: f64::NAN,
            switch: usize::MAX,
            stretch_pct: f64::NAN,
            slo_violated: false,
        })
        .collect();

    let mut residents: Vec<Vec<usize>> = vec![Vec::new(); switches];
    let mut active: BTreeMap<usize, ActiveJob> = BTreeMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut now = 0.0f64;
    let mut next_arrival = 0usize;
    let mut ever_queued = 0usize;

    // Recomputes the rates of every job on `switch` from the measured
    // pair grid (call after any membership change).
    #[expect(
        clippy::expect_used,
        reason = "scheduler ledger invariant: `residents` and `active` are updated in lockstep; divergence is bookkeeping corruption that must halt"
    )]
    let refresh = |switch: usize,
                   residents: &Vec<Vec<usize>>,
                   active: &mut BTreeMap<usize, ActiveJob>,
                   rows: &[JobRow]|
     -> Result<(), SchedError> {
        let members = &residents[switch];
        for &i in members {
            let mut inflicted = Vec::new();
            for &p in members {
                if p != i {
                    inflicted.push(slowdown(rows[i].app, rows[p].app)?);
                }
            }
            active
                .get_mut(&i)
                .expect("resident job must be active")
                .rate = rate_under(&inflicted);
        }
        Ok(())
    };

    // Places job `i` on `switch` at time `now`.
    let place = |i: usize,
                 switch: usize,
                 now: f64,
                 residents: &mut Vec<Vec<usize>>,
                 active: &mut BTreeMap<usize, ActiveJob>,
                 rows: &mut [JobRow]|
     -> Result<(), SchedError> {
        if switch >= residents.len() || residents[switch].len() >= SLOTS_PER_SWITCH {
            return Err(SchedError::InvalidChoice {
                policy: String::new(),
                switch,
            });
        }
        let work = solo_us(rows[i].app)? * rows[i].size;
        rows[i].placed_us = now;
        rows[i].switch = switch;
        residents[switch].push(i);
        active.insert(
            i,
            ActiveJob {
                switch,
                remaining: work,
                rate: 1.0,
            },
        );
        Ok(())
    };

    let snapshot = |residents: &Vec<Vec<usize>>, rows: &[JobRow]| -> Vec<SwitchSnapshot> {
        residents
            .iter()
            .map(|members| SwitchSnapshot {
                residents: members.iter().map(|&i| rows[i].app).collect(),
                capacity: SLOTS_PER_SWITCH,
            })
            .collect()
    };

    loop {
        // Next completion: earliest projected finish among active jobs,
        // job index as the deterministic tiebreak.
        let completion = active
            .iter()
            .map(|(&i, j)| (now + j.remaining / j.rate, i))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let arrival = stream.get(next_arrival).map(|j| j.arrival_us as f64);

        let take_completion = match (completion, arrival) {
            (Some((tc, _)), Some(ta)) => tc <= ta,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => {
                if queue.is_empty() {
                    break;
                }
                // Queued jobs, an idle cluster, and no event that could
                // change the policy's mind: wedged by construction.
                return Err(SchedError::Stalled {
                    queued: queue.len(),
                });
            }
        };

        if take_completion {
            #[expect(
                clippy::expect_used,
                reason = "locally proven: guarded by the explicit check a few lines above"
            )]
            let (tc, done) = completion.expect("checked above");
            let dt = tc - now;
            for j in active.values_mut() {
                j.remaining = (j.remaining - j.rate * dt).max(0.0);
            }
            now = tc;

            #[expect(
                clippy::expect_used,
                reason = "scheduler ledger invariant: `residents` and `active` are updated in lockstep; divergence is bookkeeping corruption that must halt"
            )]
            let job = active.remove(&done).expect("completing job is active");
            residents[job.switch].retain(|&i| i != done);
            let ideal = solo_us(rows[done].app)? * rows[done].size;
            rows[done].finish_us = now;
            rows[done].stretch_pct = ((now - rows[done].arrival_us) / ideal - 1.0) * 100.0;
            if let Some(slo) = stream[done].slo_slowdown {
                rows[done].slo_violated = rows[done].stretch_pct > slo * 100.0;
            }
            refresh(job.switch, &residents, &mut active, &rows)?;

            // A slot opened: offer the queue head (and only the head —
            // FIFO fairness) until the policy defers again.
            while let Some(&head) = queue.front() {
                let snaps = snapshot(&residents, &rows);
                match policy.choose(&stream[head], &snaps)? {
                    Some(s) => {
                        queue.pop_front();
                        place(head, s, now, &mut residents, &mut active, &mut rows)
                            .map_err(|e| annotate_choice(e, &policy_name))?;
                        refresh(s, &residents, &mut active, &rows)?;
                    }
                    None => break,
                }
            }
        } else {
            let i = next_arrival;
            next_arrival += 1;
            let ta = stream[i].arrival_us as f64;
            let dt = ta - now;
            for j in active.values_mut() {
                j.remaining = (j.remaining - j.rate * dt).max(0.0);
            }
            now = ta;

            if queue.is_empty() {
                let snaps = snapshot(&residents, &rows);
                match policy.choose(&stream[i], &snaps)? {
                    Some(s) => {
                        place(i, s, now, &mut residents, &mut active, &mut rows)
                            .map_err(|e| annotate_choice(e, &policy_name))?;
                        refresh(s, &residents, &mut active, &rows)?;
                    }
                    None => {
                        queue.push_back(i);
                        ever_queued += 1;
                    }
                }
            } else {
                // Jobs already wait; newcomers line up behind them.
                queue.push_back(i);
                ever_queued += 1;
            }
        }
    }

    let makespan_us = rows.iter().map(|r| r.finish_us).fold(0.0, f64::max);
    let mean_stretch_pct = if rows.is_empty() {
        0.0
    } else {
        rows.iter().map(|r| r.stretch_pct).sum::<f64>() / rows.len() as f64
    };
    let slo_violations = rows.iter().filter(|r| r.slo_violated).count();
    Ok(ScheduleOutcome {
        rows,
        makespan_us,
        mean_stretch_pct,
        slo_violations,
        queued: ever_queued,
    })
}

fn annotate_choice(e: SchedError, policy_name: &str) -> SchedError {
    match e {
        SchedError::InvalidChoice { switch, .. } => SchedError::InvalidChoice {
            policy: policy_name.to_owned(),
            switch,
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FirstFit, SoloOnly};

    fn solos() -> BTreeMap<AppKind, SimDuration> {
        BTreeMap::from([
            (AppKind::Fftw, SimDuration::from_micros(1_000)),
            (AppKind::Milc, SimDuration::from_micros(2_000)),
        ])
    }

    fn pairs() -> BTreeMap<(AppKind, AppKind), f64> {
        BTreeMap::from([
            ((AppKind::Fftw, AppKind::Fftw), 50.0),
            ((AppKind::Fftw, AppKind::Milc), 20.0),
            ((AppKind::Milc, AppKind::Fftw), 10.0),
            ((AppKind::Milc, AppKind::Milc), 5.0),
        ])
    }

    fn job(id: u32, app: AppKind, arrival_us: u64) -> JobSpec {
        JobSpec {
            id,
            app,
            arrival_us,
            size: 1.0,
            slo_slowdown: None,
        }
    }

    #[test]
    fn solo_job_finishes_at_its_ideal() {
        let stream = [job(0, AppKind::Fftw, 100)];
        let out = simulate(&solos(), &pairs(), &stream, 2, &mut FirstFit).unwrap();
        let r = &out.rows[0];
        assert_eq!(r.placed_us, 100.0);
        assert!((r.finish_us - 1_100.0).abs() < 1e-9);
        assert!(r.stretch_pct.abs() < 1e-9);
        assert_eq!(out.queued, 0);
        assert_eq!(out.slo_violations, 0);
    }

    #[test]
    fn shared_switch_stretches_both_by_the_measured_grid() {
        // Both arrive at t=0; FirstFit pairs them on switch 0. FFTW is
        // slowed 20% by MILC, MILC 10% by FFTW.
        let stream = [job(0, AppKind::Fftw, 0), job(1, AppKind::Milc, 0)];
        let out = simulate(&solos(), &pairs(), &stream, 2, &mut FirstFit).unwrap();
        assert_eq!(out.rows[0].switch, 0);
        assert_eq!(out.rows[1].switch, 0);
        // FFTW: 1000 µs of work at rate 1/1.2 until done at t=1200.
        assert!((out.rows[0].finish_us - 1_200.0).abs() < 1e-6);
        assert!((out.rows[0].stretch_pct - 20.0).abs() < 1e-6);
        // MILC: slowed 10% while FFTW runs (1200 µs → 2000/1.1 rate…):
        // work done by t=1200 is 1200/1.1; the rest runs solo.
        let milc_finish = 1_200.0 + (2_000.0 - 1_200.0 / 1.1);
        assert!((out.rows[1].finish_us - milc_finish).abs() < 1e-6);
        assert!(out.rows[1].stretch_pct > 0.0);
    }

    #[test]
    fn queueing_delay_counts_toward_stretch() {
        // One switch, solo-only policy: the second job waits its turn.
        let stream = [job(0, AppKind::Fftw, 0), job(1, AppKind::Fftw, 0)];
        let out = simulate(&solos(), &pairs(), &stream, 1, &mut SoloOnly).unwrap();
        assert_eq!(out.queued, 1);
        assert_eq!(out.rows[0].finish_us, 1_000.0);
        assert_eq!(out.rows[1].placed_us, 1_000.0);
        assert_eq!(out.rows[1].finish_us, 2_000.0);
        // Waited 1000 µs on a 1000 µs job: +100% stretch.
        assert!((out.rows[1].stretch_pct - 100.0).abs() < 1e-9);
        assert_eq!(out.makespan_us, 2_000.0);
    }

    #[test]
    fn slo_violations_are_counted() {
        let mut stream = [job(0, AppKind::Fftw, 0), job(1, AppKind::Fftw, 0)];
        stream[1].slo_slowdown = Some(0.5); // tolerates +50%, will see +100%
        let out = simulate(&solos(), &pairs(), &stream, 1, &mut SoloOnly).unwrap();
        assert_eq!(out.slo_violations, 1);
        assert!(out.rows[1].slo_violated);
        assert!(!out.rows[0].slo_violated);
    }

    #[test]
    fn refusing_every_placement_is_a_typed_stall() {
        struct Never;
        impl PlacementPolicy for Never {
            fn name(&self) -> String {
                "never".into()
            }
            fn choose(
                &mut self,
                _job: &JobSpec,
                _switches: &[SwitchSnapshot],
            ) -> Result<Option<usize>, SchedError> {
                Ok(None)
            }
        }
        let stream = [job(0, AppKind::Fftw, 0)];
        let err = simulate(&solos(), &pairs(), &stream, 1, &mut Never).unwrap_err();
        assert!(matches!(err, SchedError::Stalled { queued: 1 }));
    }

    #[test]
    fn out_of_range_choice_is_a_typed_error() {
        struct Wild;
        impl PlacementPolicy for Wild {
            fn name(&self) -> String {
                "wild".into()
            }
            fn choose(
                &mut self,
                _job: &JobSpec,
                _switches: &[SwitchSnapshot],
            ) -> Result<Option<usize>, SchedError> {
                Ok(Some(99))
            }
        }
        let stream = [job(0, AppKind::Fftw, 0)];
        let err = simulate(&solos(), &pairs(), &stream, 1, &mut Wild).unwrap_err();
        match err {
            SchedError::InvalidChoice { policy, switch } => {
                assert_eq!(policy, "wild");
                assert_eq!(switch, 99);
            }
            other => panic!("expected InvalidChoice, got {other}"),
        }
    }

    #[test]
    fn unmeasured_pairing_refuses_to_invent_physics() {
        let mut sparse = pairs();
        sparse.remove(&(AppKind::Fftw, AppKind::Milc));
        let stream = [job(0, AppKind::Fftw, 0), job(1, AppKind::Milc, 0)];
        let err = simulate(&solos(), &sparse, &stream, 1, &mut FirstFit).unwrap_err();
        assert!(matches!(err, SchedError::Prediction(_)));
    }

    #[test]
    fn rate_floor_survives_poisoned_measurements() {
        assert_eq!(rate_under(&[1e9]), 0.05);
        assert_eq!(rate_under(&[-1e9]), 2.0);
        assert!((rate_under(&[]) - 1.0).abs() < 1e-12);
    }
}
