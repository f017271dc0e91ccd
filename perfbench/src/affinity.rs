//! Spreads a run's repetitions over the CPUs the process may use.
//!
//! On the shared VMs this benchmark was calibrated on, other tenants slow
//! each vCPU down, by up to 1.7x for seconds at a time, and mostly not
//! both vCPUs at once. A single-threaded run tends
//! to stay on one vCPU, so a run that falls into one long slow stretch
//! reads slow throughout. Pinning repetition `i` to CPU `i mod n` lets
//! every unit of work sample every CPU; its fastest sample then reads
//! slow only when all CPUs were slow for the whole run.

/// The repetition indices `0..reps`; before yielding index `i` the
/// calling thread is pinned to the `i mod n`-th allowed CPU. The original
/// CPU mask is restored when the iterator is dropped.
pub fn spread(reps: usize) -> Spread {
    let original = imp::get();
    let cpus = original.as_ref().map(imp::cpus).unwrap_or_default();
    Spread {
        next: 0,
        reps,
        cpus,
        original,
    }
}

pub struct Spread {
    next: usize,
    reps: usize,
    cpus: Vec<usize>,
    original: Option<imp::Mask>,
}

impl Iterator for Spread {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.next == self.reps {
            return None;
        }
        if self.cpus.len() > 1 {
            // A failed pin leaves the thread where it was: the run is then
            // merely less protected against a slow CPU, not wrong.
            let _ = imp::set(&imp::single(self.cpus[self.next % self.cpus.len()]));
        }
        self.next += 1;
        Some(self.next - 1)
    }
}

impl Drop for Spread {
    fn drop(&mut self) {
        if let Some(mask) = &self.original {
            let _ = imp::set(mask);
        }
    }
}

#[cfg(target_os = "linux")]
mod imp {
    /// A `cpu_set_t`: 1024 bits.
    pub type Mask = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The calling thread's CPU mask.
    pub fn get() -> Option<Mask> {
        let mut mask: Mask = [0; 16];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed, and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    /// Restricts the calling thread to `mask`.
    pub fn set(mask: &Mask) -> bool {
        // SAFETY: `mask` is a live buffer of exactly the size passed, only
        // read by the call, and pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
    }

    /// The CPUs set in `mask`, ascending.
    pub fn cpus(mask: &Mask) -> Vec<usize> {
        (0..64 * mask.len())
            .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect()
    }

    /// The mask holding only `cpu`.
    pub fn single(cpu: usize) -> Mask {
        let mut mask: Mask = [0; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        mask
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub type Mask = ();

    pub fn get() -> Option<Mask> {
        None
    }

    pub fn set(_: &Mask) -> bool {
        false
    }

    pub fn cpus(_: &Mask) -> Vec<usize> {
        Vec::new()
    }

    pub fn single(_: usize) -> Mask {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yields_every_repetition_and_restores_the_mask() {
        let before = imp::get();
        assert_eq!(spread(5).collect::<Vec<_>>(), [0, 1, 2, 3, 4]);
        assert_eq!(imp::get(), before);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn masks_round_trip_through_cpu_lists() {
        let mask = imp::single(70);
        assert_eq!(imp::cpus(&mask), [70]);
        assert_eq!(imp::cpus(&imp::single(0)), [0]);
    }
}
