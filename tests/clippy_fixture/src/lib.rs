//! One violation per compiler-checked rule; `check.sh` expects clippy to
//! report each exactly once. The crate roots of the workspace carry the
//! same two attributes as this one.

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

/// D001: a `RandomState` map.
pub fn hash_map() -> usize {
    std::collections::HashMap::<u8, u8>::new().len()
}

/// D002: a wall-clock read.
pub fn wall_clock() -> bool {
    std::time::Instant::now().elapsed().is_zero()
}

/// D003: `expect` in library code.
pub fn expect(v: Option<u8>) -> u8 {
    v.expect("seeded")
}

/// D000: `allow` instead of `expect`.
#[allow(dead_code, reason = "seeded")]
fn allowed() {}

/// D000: an `expect` without a reason.
#[expect(dead_code)]
fn unreasoned() {}

/// D000: an `expect` that nothing fulfils.
#[expect(clippy::expect_used, reason = "seeded")]
pub fn stale() {}

pub fn undocumented() {}
