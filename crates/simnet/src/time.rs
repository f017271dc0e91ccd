//! Simulated-time primitives.
//!
//! All simulation time is kept in integer nanoseconds. Integer time makes the
//! event queue totally ordered and reproducible across platforms — there is
//! no floating-point accumulation drift between runs.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute instant on the simulation clock, in nanoseconds since the
/// start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The instant at which every simulation starts.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds an instant from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Builds an instant from microseconds since start.
    ///
    /// # Panics
    /// Panics if the instant overflows u64 nanoseconds (instead of
    /// silently wrapping in release builds).
    pub const fn from_micros(us: u64) -> Self {
        match us.checked_mul(1_000) {
            Some(ns) => SimTime(ns),
            None => panic!("SimTime::from_micros overflows u64 nanoseconds"),
        }
    }

    /// Builds an instant from milliseconds since start.
    ///
    /// # Panics
    /// Panics if the instant overflows u64 nanoseconds.
    pub const fn from_millis(ms: u64) -> Self {
        match ms.checked_mul(1_000_000) {
            Some(ns) => SimTime(ns),
            None => panic!("SimTime::from_millis overflows u64 nanoseconds"),
        }
    }

    /// Builds an instant from whole seconds since start.
    ///
    /// # Panics
    /// Panics if the instant overflows u64 nanoseconds.
    pub const fn from_secs(s: u64) -> Self {
        match s.checked_mul(1_000_000_000) {
            Some(ns) => SimTime(ns),
            None => panic!("SimTime::from_secs overflows u64 nanoseconds"),
        }
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Microseconds since simulation start, as a float (for reporting only).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    /// Panics if `earlier` is after `self`; elapsed time is never negative
    /// in a discrete-event run, so this always indicates a logic error.
    #[expect(
        clippy::expect_used,
        reason = "this IS the checked constructor D004 mandates; running past the representable range corrupts event ordering, so it halts loudly"
    )]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: `earlier` is after `self`"),
        )
    }

    /// Saturating version of [`SimTime::since`]: returns zero if `earlier`
    /// is after `self`.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a span from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Builds a span from microseconds.
    ///
    /// # Panics
    /// Panics if the span overflows u64 nanoseconds (instead of silently
    /// wrapping in release builds, which the checked `Add`/`Mul`
    /// operators never allowed either).
    pub const fn from_micros(us: u64) -> Self {
        match us.checked_mul(1_000) {
            Some(ns) => SimDuration(ns),
            None => panic!("SimDuration::from_micros overflows u64 nanoseconds"),
        }
    }

    /// Builds a span from milliseconds.
    ///
    /// # Panics
    /// Panics if the span overflows u64 nanoseconds.
    pub const fn from_millis(ms: u64) -> Self {
        match ms.checked_mul(1_000_000) {
            Some(ns) => SimDuration(ns),
            None => panic!("SimDuration::from_millis overflows u64 nanoseconds"),
        }
    }

    /// Builds a span from whole seconds.
    ///
    /// # Panics
    /// Panics if the span overflows u64 nanoseconds.
    pub const fn from_secs(s: u64) -> Self {
        match s.checked_mul(1_000_000_000) {
            Some(ns) => SimDuration(ns),
            None => panic!("SimDuration::from_secs overflows u64 nanoseconds"),
        }
    }

    /// Builds a span from fractional seconds, rounding to the nearest
    /// nanosecond. Negative and non-finite inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((s * 1e9).round() as u64)
    }

    /// Builds a span from a number of CPU cycles at the given clock rate.
    ///
    /// The paper expresses CompressionB's "bubble" parameter `B` in cycles
    /// of Cab's 2.6 GHz Xeons; this is the conversion used throughout.
    pub fn from_cycles(cycles: u64, hz: u64) -> Self {
        // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
        assert!(hz > 0, "clock rate must be positive");
        // cycles / hz seconds == cycles * 1e9 / hz nanoseconds. Use u128 to
        // avoid overflow for large cycle counts.
        SimDuration(((cycles as u128 * 1_000_000_000u128) / hz as u128) as u64)
    }

    /// The time to serialize `bytes` onto a link of `bytes_per_sec`
    /// bandwidth, rounded up to the next nanosecond (never zero for a
    /// non-empty payload).
    pub fn serialization(bytes: u64, bytes_per_sec: u64) -> Self {
        // anp-lint: allow(D003) — documented `# Panics` precondition on caller input; a bad value is a caller bug, not a runtime condition
        assert!(bytes_per_sec > 0, "bandwidth must be positive");
        // Every packet fits u64 arithmetic; only payloads above ≈18 GB need
        // the (slower) u128 division.
        let ns = match bytes.checked_mul(1_000_000_000) {
            Some(scaled) => scaled.div_ceil(bytes_per_sec),
            None => (bytes as u128 * 1_000_000_000u128).div_ceil(bytes_per_sec as u128) as u64,
        };
        SimDuration(ns)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in fractional microseconds (for reporting only).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The span in fractional seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Scales the span by a non-negative float factor, rounding to the
    /// nearest nanosecond — the checked constructor for derating and
    /// jitter factors (determinism rule D004). Saturates at the representable
    /// maximum; negative and non-finite factors clamp to zero.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        if !factor.is_finite() || factor <= 0.0 {
            return SimDuration::ZERO;
        }
        // `as u64` on a float saturates at the integer bounds, so an
        // overflowing product pins at u64::MAX instead of wrapping.
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[expect(
        clippy::expect_used,
        reason = "this IS the checked constructor D004 mandates; running past the representable range corrupts event ordering, so it halts loudly"
    )]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime overflow: simulation ran past u64 nanoseconds"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[expect(
        clippy::expect_used,
        reason = "this IS the checked constructor D004 mandates; running past the representable range corrupts event ordering, so it halts loudly"
    )]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[expect(
        clippy::expect_used,
        reason = "this IS the checked constructor D004 mandates; running past the representable range corrupts event ordering, so it halts loudly"
    )]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration underflow: negative spans are not representable"),
        )
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[expect(
        clippy::expect_used,
        reason = "this IS the checked constructor D004 mandates; running past the representable range corrupts event ordering, so it halts loudly"
    )]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_nanos(1_000);
        let d = SimDuration::from_nanos(250);
        assert_eq!((t + d).as_nanos(), 1_250);
        assert_eq!((t + d).since(t), d);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    #[should_panic(expected = "earlier")]
    fn since_panics_on_negative_span() {
        let t = SimTime::from_nanos(10);
        let u = SimTime::from_nanos(20);
        let _ = t.since(u);
    }

    #[test]
    fn saturating_since_clamps() {
        let t = SimTime::from_nanos(10);
        let u = SimTime::from_nanos(20);
        assert_eq!(t.saturating_since(u), SimDuration::ZERO);
        assert_eq!(u.saturating_since(t), SimDuration::from_nanos(10));
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimDuration::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_nanos(), 500_000_000);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn constructors_accept_extreme_in_range_values() {
        // The largest representable spans must still construct.
        assert_eq!(
            SimDuration::from_secs(u64::MAX / 1_000_000_000).as_nanos(),
            (u64::MAX / 1_000_000_000) * 1_000_000_000
        );
        assert_eq!(
            SimTime::from_micros(u64::MAX / 1_000).as_nanos(),
            (u64::MAX / 1_000) * 1_000
        );
    }

    #[test]
    #[should_panic(expected = "from_secs overflows")]
    fn duration_from_secs_overflow_panics() {
        // Pre-fix this silently wrapped in release builds (u64::MAX
        // seconds "fit" into a tiny wrapped nanosecond count).
        let _ = SimDuration::from_secs(u64::MAX);
    }

    #[test]
    #[should_panic(expected = "from_millis overflows")]
    fn duration_from_millis_overflow_panics() {
        let _ = SimDuration::from_millis(u64::MAX / 1_000);
    }

    #[test]
    #[should_panic(expected = "from_micros overflows")]
    fn duration_from_micros_overflow_panics() {
        let _ = SimDuration::from_micros(u64::MAX);
    }

    #[test]
    #[should_panic(expected = "from_secs overflows")]
    fn time_from_secs_overflow_panics() {
        let _ = SimTime::from_secs(u64::MAX);
    }

    #[test]
    #[should_panic(expected = "from_millis overflows")]
    fn time_from_millis_overflow_panics() {
        let _ = SimTime::from_millis(u64::MAX);
    }

    #[test]
    #[should_panic(expected = "from_micros overflows")]
    fn time_from_micros_overflow_panics() {
        let _ = SimTime::from_micros(u64::MAX);
    }

    #[test]
    fn cycles_at_cab_clock() {
        // 2.6e9 cycles at 2.6 GHz is exactly one second.
        let d = SimDuration::from_cycles(2_600_000_000, 2_600_000_000);
        assert_eq!(d, SimDuration::from_secs(1));
        // The paper's smallest bubble: 2.5e4 cycles at 2.6 GHz ≈ 9.615 µs.
        let b = SimDuration::from_cycles(25_000, 2_600_000_000);
        assert_eq!(b.as_nanos(), 9_615);
    }

    #[test]
    fn serialization_rounds_up_and_handles_zero() {
        // 1 KiB at 5 GB/s = 204.8 ns, rounded up to 205.
        let d = SimDuration::serialization(1024, 5_000_000_000);
        assert_eq!(d.as_nanos(), 205);
        assert_eq!(
            SimDuration::serialization(0, 5_000_000_000),
            SimDuration::ZERO
        );
        // A single byte still takes a nonzero time.
        assert!(SimDuration::serialization(1, u64::MAX / 2).as_nanos() >= 1);
    }

    proptest::proptest! {
        /// The u64 fast path of `serialization` is the u128 formula bit for
        /// bit, on both sides of the overflow boundary (`bytes` ≈ 1.8e10).
        #[test]
        fn prop_serialization_matches_u128_formula(
            class in 0u8..3,
            raw in 0u64..u64::MAX,
            bandwidth in 1u64..u64::MAX
        ) {
            let bytes = match class {
                0 => raw % 100_000,
                1 => raw % 40_000_000_000,
                _ => raw,
            };
            let bandwidth = if class == 0 { bandwidth % 100_000_000_000 + 1 } else { bandwidth };
            let wide = (bytes as u128 * 1_000_000_000u128).div_ceil(bandwidth as u128) as u64;
            proptest::prop_assert_eq!(SimDuration::serialization(bytes, bandwidth).as_nanos(), wide);
        }
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_nanos(100);
        assert_eq!((d * 3).as_nanos(), 300);
        assert_eq!((d / 4).as_nanos(), 25);
        let total: SimDuration = (0..5).map(|_| d).sum();
        assert_eq!(total.as_nanos(), 500);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000s");
    }
}
