//! Concurrently executing applications — the paper's stated future
//! work ("investigating how to extend this approach to manage the
//! energy consumption of multiple concurrently executing applications",
//! Section IV), provided here as a workload-level composition: each
//! member application contributes its threads to disjoint cores of the
//! same frame-synchronous epoch.

use crate::{Application, FrameDemand, WorkloadError};
use qgov_units::SimTime;

/// Two or more applications running concurrently under one governor.
///
/// All members must share the same frame period (the composite is
/// frame-synchronous); each member's threads are appended in order, so
/// member 0 occupies cores `0..t₀`, member 1 cores `t₀..t₀+t₁`, and so
/// on. The composite ends when its shortest member ends.
///
/// # Examples
///
/// ```
/// use qgov_workloads::{Application, CompositeWorkload, SyntheticWorkload};
/// use qgov_units::{Cycles, SimTime};
///
/// let a = SyntheticWorkload::constant(
///     "a", Cycles::from_mcycles(20), SimTime::from_ms(40), 100, 2, 1,
/// );
/// let b = SyntheticWorkload::constant(
///     "b", Cycles::from_mcycles(30), SimTime::from_ms(40), 80, 2, 2,
/// );
/// let mut both = CompositeWorkload::new(vec![Box::new(a), Box::new(b)]).unwrap();
/// assert_eq!(both.name(), "a+b");
/// assert_eq!(both.frames(), 80);          // shortest member
/// let frame = both.next_frame();
/// assert_eq!(frame.thread_count(), 4);    // 2 + 2 threads
/// ```
pub struct CompositeWorkload {
    name: String,
    period: SimTime,
    frames: u64,
    members: Vec<Box<dyn Application>>,
}

impl CompositeWorkload {
    /// Composes applications into one concurrent workload.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] if fewer than two
    /// members are given or their periods differ.
    pub fn new(members: Vec<Box<dyn Application>>) -> Result<Self, WorkloadError> {
        if members.len() < 2 {
            return Err(WorkloadError::InvalidConfig {
                reason: "a composite needs at least two applications".into(),
            });
        }
        let period = members[0].period();
        for m in &members[1..] {
            if m.period() != period {
                return Err(WorkloadError::InvalidConfig {
                    reason: format!(
                        "member `{}` has period {} but `{}` has {}; concurrent members must \
                         share one frame period",
                        m.name(),
                        m.period(),
                        members[0].name(),
                        period
                    ),
                });
            }
        }
        let frames = members.iter().map(|m| m.frames()).min().expect("non-empty");
        let name = members
            .iter()
            .map(|m| m.name().to_owned())
            .collect::<Vec<_>>()
            .join("+");
        Ok(CompositeWorkload {
            name,
            period,
            frames,
            members,
        })
    }

    /// Names of the members, in core-assignment order.
    #[must_use]
    pub fn member_names(&self) -> Vec<&str> {
        self.members.iter().map(|m| m.name()).collect()
    }
}

impl core::fmt::Debug for CompositeWorkload {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("CompositeWorkload")
            .field("name", &self.name)
            .field("period", &self.period)
            .field("frames", &self.frames)
            .field("members", &self.member_names())
            .finish()
    }
}

impl Application for CompositeWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn period(&self) -> SimTime {
        self.period
    }

    fn frames(&self) -> u64 {
        self.frames
    }

    fn next_frame(&mut self) -> FrameDemand {
        let mut threads = Vec::new();
        for m in &mut self.members {
            threads.extend(m.next_frame().threads);
        }
        FrameDemand::new(threads)
    }

    fn reset(&mut self) {
        for m in &mut self.members {
            m.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SyntheticWorkload, VideoDecoderModel};
    use qgov_units::Cycles;

    fn two_thread_app(name: &str, mc: u64, frames: u64, seed: u64) -> SyntheticWorkload {
        SyntheticWorkload::constant(
            name,
            Cycles::from_mcycles(mc),
            SimTime::from_ms(40),
            frames,
            2,
            seed,
        )
    }

    #[test]
    fn threads_concatenate_in_member_order() {
        let a = two_thread_app("a", 20, 50, 1);
        let b = two_thread_app("b", 60, 50, 2);
        let mut both = CompositeWorkload::new(vec![Box::new(a), Box::new(b)]).unwrap();
        let f = both.next_frame();
        assert_eq!(f.thread_count(), 4);
        // Member b's threads (30 Mc each) occupy the upper cores.
        assert!(f.threads[2].cpu_cycles > f.threads[0].cpu_cycles);
    }

    #[test]
    fn shortest_member_bounds_the_run() {
        let a = two_thread_app("a", 10, 100, 1);
        let b = two_thread_app("b", 10, 30, 2);
        let both = CompositeWorkload::new(vec![Box::new(a), Box::new(b)]).unwrap();
        assert_eq!(both.frames(), 30);
    }

    #[test]
    fn mismatched_periods_are_rejected() {
        let a = two_thread_app("a", 10, 50, 1);
        let b = SyntheticWorkload::constant(
            "b",
            Cycles::from_mcycles(10),
            SimTime::from_ms(33),
            50,
            2,
            2,
        );
        assert!(CompositeWorkload::new(vec![Box::new(a), Box::new(b)]).is_err());
    }

    #[test]
    fn single_member_is_rejected() {
        let a = two_thread_app("a", 10, 50, 1);
        let only: Vec<Box<dyn Application>> = vec![Box::new(a)];
        assert!(CompositeWorkload::new(only).is_err());
    }

    #[test]
    fn reset_rewinds_every_member() {
        let a = VideoDecoderModel::mpeg4_svga_24fps(3).with_frames(40);
        let b = VideoDecoderModel::mpeg4_svga_24fps(9).with_frames(40);
        // Same period (24 fps), different seeds.
        let mut both = CompositeWorkload::new(vec![Box::new(a), Box::new(b)]).unwrap();
        let first: Vec<FrameDemand> = (0..10).map(|_| both.next_frame()).collect();
        both.reset();
        let second: Vec<FrameDemand> = (0..10).map(|_| both.next_frame()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn composite_name_and_members() {
        let a = two_thread_app("alpha", 10, 50, 1);
        let b = two_thread_app("beta", 10, 50, 2);
        let both = CompositeWorkload::new(vec![Box::new(a), Box::new(b)]).unwrap();
        assert_eq!(both.name(), "alpha+beta");
        assert_eq!(both.member_names(), vec!["alpha", "beta"]);
    }
}
