//! Shared machinery for the six application proxies.

use anp_simmpi::{Ctx, Op, Program};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Whether an application instance runs a fixed number of iterations (the
/// measured workload) or loops until the horizon (the background workload
/// in a co-run, matching the paper's "run each benchmark in continuous
/// loops").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Execute exactly this many iterations, then stop. The job's finish
    /// time is the measured runtime.
    Iterations(u32),
    /// Loop forever (until the simulation horizon).
    Endless,
}

/// A rank program that generates one iteration's operations at a time from
/// a closure, with a per-rank deterministic RNG for compute jitter.
///
/// This is how every application proxy is expressed: the closure captures
/// the rank's communication skeleton (neighbours, message sizes, compute
/// spans) and may vary spans per iteration through the RNG.
///
/// The closure is called as `gen(iter, rng, ops)` and pushes iteration
/// `iter`'s operations onto `ops`, which it receives empty. The program
/// owns that one buffer for its whole life and serves it through a
/// cursor, so refilling it allocates nothing once it has grown to the
/// longest iteration. The buffer is trimmed to the first iteration's
/// length. An iteration must push at least one op.
pub struct IterativeProgram<F> {
    gen: F,
    mode: RunMode,
    iter: u32,
    ops: Vec<Op>,
    /// Index in `ops` of the next op to serve.
    cursor: usize,
    rng: StdRng,
    label: String,
}

impl<F> IterativeProgram<F>
where
    F: FnMut(u32, &mut StdRng, &mut Vec<Op>),
{
    /// Creates a program from an iteration generator.
    pub fn new(label: impl Into<String>, seed: u64, mode: RunMode, gen: F) -> Self {
        IterativeProgram {
            gen,
            mode,
            iter: 0,
            ops: Vec::new(),
            cursor: 0,
            rng: StdRng::seed_from_u64(seed),
            label: label.into(),
        }
    }
}

impl<F> Program for IterativeProgram<F>
where
    F: FnMut(u32, &mut StdRng, &mut Vec<Op>),
{
    /// # Panics
    /// Panics if the generator pushes no ops for an iteration.
    fn next_op(&mut self, _ctx: &Ctx) -> Op {
        if self.cursor == self.ops.len() {
            if let RunMode::Iterations(n) = self.mode {
                if self.iter >= n {
                    return Op::Stop;
                }
            }
            self.ops.clear();
            self.cursor = 0;
            (self.gen)(self.iter, &mut self.rng, &mut self.ops);
            // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
            assert!(
                !self.ops.is_empty(),
                "iteration generator for '{}' produced no ops",
                self.label
            );
            if self.iter == 0 {
                // Pushes grow the buffer to up to twice the iteration's
                // length, and every rank keeps its buffer for the whole
                // run: hold the first iteration exactly instead.
                self.ops.shrink_to_fit();
            }
            self.iter += 1;
        }
        let op = self.ops[self.cursor];
        self.cursor += 1;
        op
    }

    fn name(&self) -> &str {
        &self.label
    }
}

/// Derives a per-rank RNG seed from an application seed: splitmix64-style
/// mixing so consecutive ranks get decorrelated streams.
pub fn rank_seed(app_seed: u64, rank: u32) -> u64 {
    let mut z = app_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(rank) + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A compute span jittered by ±`frac` around `base_ns` (deterministic per
/// RNG stream). Jitter prevents artificial lock-step between ranks that
/// real applications never exhibit.
pub fn jittered_compute(rng: &mut StdRng, base_ns: u64, frac: f64) -> Op {
    debug_assert!((0.0..1.0).contains(&frac));
    let lo = 1.0 - frac;
    let hi = 1.0 + frac;
    let factor: f64 = rng.gen_range(lo..hi);
    Op::Compute(anp_simnet::SimDuration::from_nanos(base_ns).mul_f64(factor))
}

#[cfg(test)]
mod tests {
    use super::*;
    use anp_simnet::{SimDuration, SimTime};

    fn ctx() -> Ctx {
        Ctx { now: SimTime::ZERO }
    }

    #[test]
    fn fixed_iterations_then_stop() {
        let mut p = IterativeProgram::new("t", 1, RunMode::Iterations(2), |i, _, ops| {
            ops.push(Op::Compute(SimDuration::from_nanos(u64::from(i) + 1)));
        });
        assert_eq!(p.next_op(&ctx()), Op::Compute(SimDuration::from_nanos(1)));
        assert_eq!(p.next_op(&ctx()), Op::Compute(SimDuration::from_nanos(2)));
        assert_eq!(p.next_op(&ctx()), Op::Stop);
        assert_eq!(p.next_op(&ctx()), Op::Stop);
    }

    #[test]
    fn endless_mode_never_stops() {
        let mut p =
            IterativeProgram::new("t", 1, RunMode::Endless, |_, _, ops| ops.push(Op::WaitAll));
        for _ in 0..1000 {
            assert_eq!(p.next_op(&ctx()), Op::WaitAll);
        }
    }

    #[test]
    #[should_panic(expected = "produced no ops")]
    fn empty_generator_panics() {
        let mut p = IterativeProgram::new("t", 1, RunMode::Endless, |_, _, _| {});
        p.next_op(&ctx());
    }

    #[test]
    fn rank_seeds_are_distinct_and_stable() {
        let s1 = rank_seed(42, 0);
        let s2 = rank_seed(42, 1);
        assert_ne!(s1, s2);
        assert_eq!(s1, rank_seed(42, 0), "seeds must be deterministic");
        // Different app seeds decorrelate.
        assert_ne!(rank_seed(42, 0), rank_seed(43, 0));
    }

    #[test]
    fn jitter_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            if let Op::Compute(d) = jittered_compute(&mut rng, 1_000_000, 0.1) {
                let ns = d.as_nanos();
                assert!((900_000..=1_100_000).contains(&ns), "jitter {ns} off");
            } else {
                panic!("jittered_compute must produce Compute");
            }
        }
    }
}
