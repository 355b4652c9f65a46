//! Per-frame work demands.

use qgov_units::{Cycles, SimTime};

/// The work one thread must perform within one frame.
///
/// Structurally mirrors the simulator's `WorkSlice`: a
/// frequency-scalable CPU component plus a frequency-invariant memory
/// component.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ThreadDemand {
    /// CPU-bound cycles to retire.
    pub cpu_cycles: Cycles,
    /// Memory/IO stall time that does not scale with core frequency.
    pub mem_time: SimTime,
}

impl ThreadDemand {
    /// Creates a demand with both components.
    #[must_use]
    pub const fn new(cpu_cycles: Cycles, mem_time: SimTime) -> Self {
        ThreadDemand {
            cpu_cycles,
            mem_time,
        }
    }

    /// A purely CPU-bound demand.
    #[must_use]
    pub const fn cpu_only(cpu_cycles: Cycles) -> Self {
        ThreadDemand {
            cpu_cycles,
            mem_time: SimTime::ZERO,
        }
    }
}

/// The work demand of one application frame: one entry per spawned
/// thread ("at each iteration, multiple threads are spawned with each
/// thread performing a task on the input data", Section III).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrameDemand {
    /// Per-thread demands; thread `i` is scheduled on core `i`.
    pub threads: Vec<ThreadDemand>,
}

impl FrameDemand {
    /// Creates a frame demand from per-thread demands.
    #[must_use]
    pub fn new(threads: Vec<ThreadDemand>) -> Self {
        FrameDemand { threads }
    }

    /// A frame spreading `total` cycles evenly over `threads` threads
    /// (remainder cycles go to thread 0).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn split_evenly(total: Cycles, threads: usize, mem_time: SimTime) -> Self {
        assert!(threads > 0, "a frame needs at least one thread");
        let per = total.count() / threads as u64;
        let rem = total.count() % threads as u64;
        let demands = (0..threads)
            .map(|i| {
                let c = if i == 0 { per + rem } else { per };
                ThreadDemand::new(Cycles::new(c), mem_time)
            })
            .collect();
        FrameDemand { threads: demands }
    }

    /// Refills this demand with `total` cycles spread evenly over
    /// `threads` threads (remainder cycles go to thread 0) — the
    /// in-place form of [`FrameDemand::split_evenly`], reusing the
    /// existing `threads` allocation so a per-frame generator can run
    /// heap-free. Produces exactly the same demand as `split_evenly`.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn fill_split_evenly(&mut self, total: Cycles, threads: usize, mem_time: SimTime) {
        assert!(threads > 0, "a frame needs at least one thread");
        let per = total.count() / threads as u64;
        let rem = total.count() % threads as u64;
        self.threads.clear();
        self.threads.extend((0..threads).map(|i| {
            let c = if i == 0 { per + rem } else { per };
            ThreadDemand::new(Cycles::new(c), mem_time)
        }));
    }

    /// Refills this demand from another's threads in place (reusing the
    /// existing allocation — the replay hot path's `clone_from`).
    pub fn copy_from(&mut self, source: &FrameDemand) {
        self.threads.clear();
        self.threads.extend_from_slice(&source.threads);
    }

    /// Number of threads this frame spawns.
    #[must_use]
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Total CPU cycles across all threads — the frame's `CC` workload
    /// measure.
    #[must_use]
    pub fn total_cycles(&self) -> Cycles {
        self.threads.iter().map(|t| t.cpu_cycles).sum()
    }
}

/// The total cycles of a frame a trace can hold: at least one thread,
/// and `cpu_cycles` and `mem_ns` totals that fit in a `u64`, since
/// replay sums a frame's threads onto its cores. Both trace kinds check
/// their frames with this rule: [`WorkloadTrace`](crate::WorkloadTrace)
/// when it is built, the shard writer and loader frame by frame.
pub(crate) fn frame_cycles(threads: &[ThreadDemand]) -> Result<u64, &'static str> {
    if threads.is_empty() {
        return Err("the frame has no threads");
    }
    let (mut cycles, mut mem_ns) = (0u64, 0u64);
    for t in threads {
        cycles = cycles
            .checked_add(t.cpu_cycles.count())
            .ok_or("the frame's cpu_cycles total overflows u64")?;
        mem_ns = mem_ns
            .checked_add(t.mem_time.as_ns())
            .ok_or("the frame's mem_ns total overflows u64")?;
    }
    Ok(cycles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_evenly_conserves_cycles() {
        let f = FrameDemand::split_evenly(Cycles::new(103), 4, SimTime::ZERO);
        assert_eq!(f.thread_count(), 4);
        assert_eq!(f.total_cycles(), Cycles::new(103));
        // Remainder on thread 0.
        assert_eq!(f.threads[0].cpu_cycles, Cycles::new(28));
        assert_eq!(f.threads[1].cpu_cycles, Cycles::new(25));
    }

    #[test]
    fn fill_split_evenly_matches_split_evenly_and_reuses_capacity() {
        let mut out = FrameDemand::default();
        for (total, threads) in [(103u64, 4usize), (7, 7), (1_000_003, 3), (5, 1)] {
            out.fill_split_evenly(Cycles::new(total), threads, SimTime::from_us(10));
            let fresh =
                FrameDemand::split_evenly(Cycles::new(total), threads, SimTime::from_us(10));
            assert_eq!(out, fresh);
        }
    }

    #[test]
    fn copy_from_matches_clone() {
        let source = FrameDemand::split_evenly(Cycles::new(99), 3, SimTime::from_us(5));
        let mut out = FrameDemand::split_evenly(Cycles::new(7), 6, SimTime::ZERO);
        out.copy_from(&source);
        assert_eq!(out, source);
    }

    #[test]
    fn empty_frame_is_all_zero() {
        let f = FrameDemand::default();
        assert_eq!(f.thread_count(), 0);
        assert_eq!(f.total_cycles(), Cycles::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let _ = FrameDemand::split_evenly(Cycles::new(10), 0, SimTime::ZERO);
    }
}
