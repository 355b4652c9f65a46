//! Deterministic fault injection.
//!
//! Real boards lie: thermal sensors stick or spike, PMUs freeze or read
//! zero, DVFS requests get lost between the governor and the regulator,
//! and cores drop out of the mesh for good. A [`FaultPlan`] describes
//! such a schedule declaratively; a [`FaultInjector`] replays it as a
//! *pure function of the plan and the epoch index* — no RNG at all — so
//! any faulted run can be reproduced bit-for-bit from the plan alone.
//!
//! The injector sits *between* the platform and the governor in the
//! harness loop:
//!
//! 1. [`FaultInjector::begin_epoch`] refreshes the dead-core masks;
//! 2. [`FaultInjector::redistribute_dead`] moves a dead core's work to
//!    its surviving neighbours before the frame runs;
//! 3. the platform executes the frame truthfully (physics are never
//!    faulted — only what the governor *sees* and *actuates*);
//! 4. [`FaultInjector::perturb_sensing`] corrupts the governor's copy
//!    of the [`FrameResult`];
//! 5. [`FaultInjector::actuation`] decides whether the governor's OPP
//!    request is honoured, ignored, clamped, or latched one epoch.
//!
//! An **empty plan is a guaranteed no-op**: every perturbation method
//! returns without touching its arguments, so a run threaded through an
//! empty-plan injector is bit-identical to one that never constructed
//! an injector at all (pinned by `tests/fault_injection.rs`).
//!
//! The injector allocates only at construction; every per-epoch method
//! is allocation-free.

use crate::platform::{FrameResult, WorkSlice};
use qgov_units::{Cycles, Temp};

/// What one fault does while its window is active.
///
/// Sensor faults corrupt the governor-visible copy of a frame's
/// readings; actuation faults intercept the governor's OPP request;
/// [`CoreDrop`](FaultKind::CoreDrop) permanently removes a core from
/// service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The thermal sensor sticks at a constant `celsius`.
    TempStuck {
        /// The stuck reading, in °C.
        celsius: f64,
    },
    /// The thermal sensor reads `delta_c` above the true temperature —
    /// a transient spike as seen by the governor.
    TempSpike {
        /// Spike magnitude, in °C above truth.
        delta_c: f64,
    },
    /// Every PMU in the cluster reports a constant cycle count.
    PmuStuck {
        /// The stuck per-core cycle count.
        cycles: u64,
    },
    /// Every PMU in the cluster reads zero.
    PmuDropped,
    /// OPP requests are silently discarded: the platform stays at its
    /// current operating point.
    ActuationIgnored,
    /// OPP requests are clamped to at most `max_opp`.
    ActuationClamped {
        /// Highest OPP index the faulty regulator will accept.
        max_opp: usize,
    },
    /// OPP requests land one epoch late: each request is buffered and
    /// the previous epoch's buffered request is applied instead.
    ActuationLatched,
    /// Core `core` fails permanently at the fault's `start` epoch. The
    /// window `end` is ignored — dropped cores never come back.
    CoreDrop {
        /// Index of the failing core within its cluster.
        core: usize,
    },
}

/// One scheduled fault: a [`FaultKind`] active on `cluster` over the
/// half-open epoch window `[start, end)` (`end == None` means forever).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    /// What happens.
    pub kind: FaultKind,
    /// Which cluster it happens to (use `0` on a single-cluster
    /// [`Platform`](crate::Platform) harness).
    pub cluster: usize,
    /// First epoch the fault is active.
    pub start: u64,
    /// First epoch the fault is no longer active; `None` keeps it
    /// active for the rest of the run.
    pub end: Option<u64>,
}

impl Fault {
    /// A fault active from `start` to the end of the run.
    #[must_use]
    pub const fn permanent(kind: FaultKind, cluster: usize, start: u64) -> Self {
        Fault {
            kind,
            cluster,
            start,
            end: None,
        }
    }

    /// A fault active over `[start, end)`.
    #[must_use]
    pub const fn window(kind: FaultKind, cluster: usize, start: u64, end: u64) -> Self {
        Fault {
            kind,
            cluster,
            start,
            end: Some(end),
        }
    }

    /// `true` if the fault is active at `epoch` on `cluster`.
    #[must_use]
    pub fn active_at(&self, epoch: u64, cluster: usize) -> bool {
        self.cluster == cluster
            && epoch >= self.start
            && match self.end {
                Some(end) => epoch < end,
                None => true,
            }
    }
}

/// A declarative fault schedule: the full list of [`Fault`]s a run will
/// experience, fixed before the run starts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan (injects nothing; bit-identical to no injector).
    #[must_use]
    pub const fn none() -> Self {
        FaultPlan { faults: Vec::new() }
    }

    /// Builder-style append.
    #[must_use]
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Appends a fault to the schedule.
    pub fn push(&mut self, fault: Fault) {
        self.faults.push(fault);
    }

    /// `true` if the plan schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of scheduled faults.
    #[must_use]
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// The scheduled faults, in insertion order (earlier faults win
    /// ties on the actuation path).
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }
}

/// What happens to the governor's OPP request this epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Actuation {
    /// The request reaches the platform unmodified.
    Honest,
    /// The request is discarded; the platform keeps its current OPP.
    Ignored,
    /// The request is clamped to at most the given OPP index.
    Clamped(usize),
    /// The request is buffered for one epoch; last epoch's buffered
    /// request (if any) applies instead — see
    /// [`FaultInjector::exchange_latched`].
    Latched,
}

/// Replays a [`FaultPlan`] deterministically against a running
/// experiment. See the module docs for where each method sits in the
/// per-epoch loop.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    faults: Vec<Fault>,
    /// Per-cluster core counts (fixed at construction).
    cores: Vec<usize>,
    /// Per-cluster dead-core bitmask, refreshed by [`begin_epoch`].
    ///
    /// [`begin_epoch`]: FaultInjector::begin_epoch
    dead: Vec<u64>,
    /// Per-cluster OPP request buffered by an active
    /// [`FaultKind::ActuationLatched`] fault.
    latched: Vec<Option<usize>>,
}

impl FaultInjector {
    /// Builds an injector for a chip with the given per-cluster core
    /// counts.
    ///
    /// The seed is ignored: every fault kind is a pure function of the
    /// plan and the epoch. The parameter stays so that existing callers
    /// keep compiling; pass 0.
    ///
    /// # Panics
    ///
    /// Panics if any fault names a cluster outside the topology, a
    /// [`FaultKind::CoreDrop`] names a core outside its cluster, or a
    /// cluster has more than 64 cores (the dead mask is a `u64`).
    #[must_use]
    pub fn new(plan: &FaultPlan, _seed: u64, cluster_cores: &[usize]) -> Self {
        assert!(
            cluster_cores.iter().all(|&c| c <= 64),
            "dead-core masks support at most 64 cores per cluster"
        );
        for fault in plan.faults() {
            assert!(
                fault.cluster < cluster_cores.len(),
                "fault targets cluster {} but the chip has {}",
                fault.cluster,
                cluster_cores.len()
            );
            if let FaultKind::CoreDrop { core } = fault.kind {
                assert!(
                    core < cluster_cores[fault.cluster],
                    "core drop targets core {core} but cluster {} has {} cores",
                    fault.cluster,
                    cluster_cores[fault.cluster]
                );
            }
        }
        FaultInjector {
            faults: plan.faults().to_vec(),
            cores: cluster_cores.to_vec(),
            dead: vec![0; cluster_cores.len()],
            latched: vec![None; cluster_cores.len()],
        }
    }

    /// Builds an injector for a single-cluster [`Platform`] harness
    /// with `cores` cores (all faults must target cluster 0).
    ///
    /// [`Platform`]: crate::Platform
    ///
    /// # Panics
    ///
    /// Same conditions as [`FaultInjector::new`].
    #[must_use]
    pub fn single(plan: &FaultPlan, cores: usize) -> Self {
        Self::new(plan, 0, &[cores])
    }

    /// `true` if the plan schedules nothing (every method is a no-op).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Refreshes the per-cluster dead-core masks for `epoch`. Call once
    /// at the top of each decision epoch, before
    /// [`redistribute_dead`](FaultInjector::redistribute_dead).
    pub fn begin_epoch(&mut self, epoch: u64) {
        if self.faults.is_empty() {
            return;
        }
        for fault in &self.faults {
            // Core drops are permanent: active from `start` on,
            // regardless of the window end.
            if let FaultKind::CoreDrop { core } = fault.kind {
                if epoch >= fault.start {
                    self.dead[fault.cluster] |= 1u64 << core;
                }
            }
        }
    }

    /// Number of dropped cores on `cluster`.
    #[must_use]
    pub fn dead_core_count(&self, cluster: usize) -> u32 {
        self.dead[cluster].count_ones()
    }

    /// `true` if every core of `cluster` has dropped out.
    #[must_use]
    pub fn cluster_dead(&self, cluster: usize) -> bool {
        self.dead_core_count(cluster) as usize == self.cores[cluster]
    }

    /// Moves work assigned to dead cores onto the surviving cores of
    /// `cluster`, spreading the orphaned cycles and memory time evenly.
    /// Dead cores end up idle. If the whole cluster is dead nothing can
    /// run the work: it is dropped, and the dropped cycle count is
    /// returned — a harness must count a frame whose work was dropped
    /// as a missed deadline (the computation never happened). Returns
    /// [`Cycles::ZERO`] whenever every orphaned cycle found a survivor.
    pub fn redistribute_dead(&self, cluster: usize, work: &mut [WorkSlice]) -> Cycles {
        let mask = self.dead[cluster];
        if mask == 0 {
            return Cycles::ZERO;
        }
        let mut orphaned = WorkSlice::IDLE;
        for (core, slice) in work.iter_mut().enumerate() {
            if mask & (1u64 << core) != 0 {
                orphaned.cpu_cycles += slice.cpu_cycles;
                orphaned.mem_time += slice.mem_time;
                *slice = WorkSlice::IDLE;
            }
        }
        let alive = work.len() as u64 - mask.count_ones() as u64;
        if alive == 0 {
            return orphaned.cpu_cycles;
        }
        if orphaned.is_idle() {
            return Cycles::ZERO;
        }
        let share = WorkSlice::new(orphaned.cpu_cycles / alive, orphaned.mem_time / alive);
        let mut remainder = WorkSlice::new(orphaned.cpu_cycles - share.cpu_cycles * alive, {
            orphaned.mem_time - share.mem_time * alive
        });
        for (core, slice) in work.iter_mut().enumerate() {
            if mask & (1u64 << core) == 0 {
                slice.cpu_cycles += share.cpu_cycles + remainder.cpu_cycles;
                slice.mem_time += share.mem_time + remainder.mem_time;
                remainder = WorkSlice::IDLE; // first survivor takes it
            }
        }
        Cycles::ZERO
    }

    /// Corrupts the governor-visible copy of a frame's readings with
    /// every sensor fault active at `(epoch, cluster)`. The platform's
    /// own state (and the truth-side report) is never touched — pass a
    /// *copy* of the true [`FrameResult`].
    pub fn perturb_sensing(&self, epoch: u64, cluster: usize, sensed: &mut FrameResult) {
        for fault in &self.faults {
            if !fault.active_at(epoch, cluster) {
                continue;
            }
            match fault.kind {
                FaultKind::TempStuck { celsius } => {
                    sensed.temperature = Temp::from_celsius(celsius);
                }
                FaultKind::TempSpike { delta_c } => {
                    sensed.temperature =
                        Temp::from_celsius(sensed.temperature.as_celsius() + delta_c);
                }
                FaultKind::PmuStuck { cycles } => {
                    for c in sensed.per_core_cycles.iter_mut() {
                        *c = Cycles::new(cycles);
                    }
                }
                FaultKind::PmuDropped => {
                    for c in sensed.per_core_cycles.iter_mut() {
                        *c = Cycles::ZERO;
                    }
                }
                FaultKind::ActuationIgnored
                | FaultKind::ActuationClamped { .. }
                | FaultKind::ActuationLatched
                | FaultKind::CoreDrop { .. } => {}
            }
        }
    }

    /// What happens to an OPP request on `cluster` this epoch. The
    /// first active actuation fault in plan order wins.
    #[must_use]
    pub fn actuation(&self, epoch: u64, cluster: usize) -> Actuation {
        for fault in &self.faults {
            if !fault.active_at(epoch, cluster) {
                continue;
            }
            match fault.kind {
                FaultKind::ActuationIgnored => return Actuation::Ignored,
                FaultKind::ActuationClamped { max_opp } => return Actuation::Clamped(max_opp),
                FaultKind::ActuationLatched => return Actuation::Latched,
                _ => {}
            }
        }
        Actuation::Honest
    }

    /// Buffers `requested` for one epoch and returns the previously
    /// buffered request (the one that should be applied *now*). Used by
    /// the harness when [`actuation`](FaultInjector::actuation) returns
    /// [`Actuation::Latched`].
    pub fn exchange_latched(&mut self, cluster: usize, requested: usize) -> Option<usize> {
        self.latched[cluster].replace(requested)
    }

    /// Drains any request still buffered by a latched-actuation fault
    /// once the fault window has closed (so the delayed request is not
    /// lost forever).
    pub fn take_latched(&mut self, cluster: usize) -> Option<usize> {
        self.latched[cluster].take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgov_units::SimTime;

    fn frame() -> FrameResult {
        let mut f = FrameResult::empty();
        f.wall_time = SimTime::from_ms(40);
        f.per_core_cycles = [Cycles::from_mcycles(10); 4];
        f.temperature = Temp::from_celsius(50.0);
        f
    }

    #[test]
    fn empty_plan_is_a_no_op() {
        let mut inj = FaultInjector::single(&FaultPlan::none(), 4);
        assert!(inj.is_empty());
        inj.begin_epoch(7);
        let mut sensed = frame();
        let truth = sensed.clone();
        inj.perturb_sensing(7, 0, &mut sensed);
        assert_eq!(sensed, truth);
        let mut work = vec![WorkSlice::cpu_only(Cycles::from_mcycles(5)); 4];
        let before = work.clone();
        inj.redistribute_dead(0, &mut work);
        assert_eq!(work, before);
        assert_eq!(inj.actuation(7, 0), Actuation::Honest);
    }

    #[test]
    fn windows_bound_sensor_faults() {
        let plan = FaultPlan::none().with(Fault::window(FaultKind::PmuDropped, 0, 10, 20));
        let inj = FaultInjector::single(&plan, 4);
        let mut sensed = frame();
        inj.perturb_sensing(9, 0, &mut sensed);
        assert!(sensed.total_cycles() > Cycles::ZERO);
        inj.perturb_sensing(10, 0, &mut sensed);
        assert_eq!(sensed.total_cycles(), Cycles::ZERO);
        let mut sensed = frame();
        inj.perturb_sensing(20, 0, &mut sensed);
        assert!(sensed.total_cycles() > Cycles::ZERO);
    }

    #[test]
    fn core_drop_is_permanent_and_redistributes_work() {
        let plan = FaultPlan::none().with(Fault::window(FaultKind::CoreDrop { core: 1 }, 0, 5, 6));
        let mut inj = FaultInjector::single(&plan, 4);
        inj.begin_epoch(4);
        assert_eq!(inj.dead_core_count(0), 0);
        inj.begin_epoch(5);
        assert_eq!(inj.dead_core_count(0), 1);
        // The window end is ignored: drops are permanent.
        inj.begin_epoch(100);
        assert_eq!(inj.dead_core_count(0), 1);
        assert!(!inj.cluster_dead(0));

        let mut work = vec![WorkSlice::cpu_only(Cycles::from_mcycles(9)); 4];
        let total_before: u64 = work.iter().map(|s| s.cpu_cycles.count()).sum();
        inj.redistribute_dead(0, &mut work);
        assert!(work[1].is_idle());
        let total_after: u64 = work.iter().map(|s| s.cpu_cycles.count()).sum();
        assert_eq!(total_before, total_after, "cycles are conserved");
        assert!(work[0].cpu_cycles > Cycles::from_mcycles(9));
    }

    #[test]
    fn fully_dead_cluster_drops_all_work() {
        let mut plan = FaultPlan::none();
        for core in 0..4 {
            plan.push(Fault::permanent(FaultKind::CoreDrop { core }, 0, 0));
        }
        let mut inj = FaultInjector::single(&plan, 4);
        inj.begin_epoch(0);
        assert!(inj.cluster_dead(0));
        let mut work = vec![WorkSlice::cpu_only(Cycles::from_mcycles(9)); 4];
        inj.redistribute_dead(0, &mut work);
        assert!(work.iter().all(WorkSlice::is_idle));
    }

    #[test]
    fn actuation_faults_intercept_in_plan_order() {
        let plan = FaultPlan::none()
            .with(Fault::window(FaultKind::ActuationIgnored, 0, 10, 20))
            .with(Fault::window(
                FaultKind::ActuationClamped { max_opp: 3 },
                0,
                15,
                30,
            ));
        let mut inj = FaultInjector::single(&plan, 4);
        assert_eq!(inj.actuation(5, 0), Actuation::Honest);
        assert_eq!(inj.actuation(10, 0), Actuation::Ignored);
        assert_eq!(inj.actuation(17, 0), Actuation::Ignored); // first wins
        assert_eq!(inj.actuation(25, 0), Actuation::Clamped(3));
        assert_eq!(inj.actuation(30, 0), Actuation::Honest);

        assert_eq!(inj.exchange_latched(0, 7), None);
        assert_eq!(inj.exchange_latched(0, 9), Some(7));
        assert_eq!(inj.take_latched(0), Some(9));
        assert_eq!(inj.take_latched(0), None);
    }

    #[test]
    fn stuck_sensors_override_readings() {
        let plan = FaultPlan::none()
            .with(Fault::permanent(
                FaultKind::TempStuck { celsius: 42.0 },
                0,
                0,
            ))
            .with(Fault::permanent(FaultKind::PmuStuck { cycles: 1234 }, 0, 0));
        let inj = FaultInjector::single(&plan, 4);
        let mut sensed = frame();
        inj.perturb_sensing(0, 0, &mut sensed);
        assert_eq!(sensed.temperature.as_celsius(), 42.0);
        assert!(sensed.per_core_cycles.iter().all(|c| c.count() == 1234));
    }

    #[test]
    #[should_panic(expected = "core drop targets core 9")]
    fn out_of_range_core_drop_is_rejected() {
        let plan = FaultPlan::none().with(Fault::permanent(FaultKind::CoreDrop { core: 9 }, 0, 0));
        let _ = FaultInjector::single(&plan, 4);
    }
}
