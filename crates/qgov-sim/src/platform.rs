//! The frame-synchronous platform: cores + DVFS + power + thermal,
//! driven one decision epoch at a time.

use crate::power::OppPower;
use crate::thermal::ThermalModel;
use crate::{CmosPowerModel, OppTable, SimError, VfController};
use qgov_units::{Cycles, Energy, Freq, Power, SimTime, Temp};

/// One frame's worth of work for one core.
///
/// Execution time at frequency `f` follows the standard two-component
/// model `t = cpu_cycles / f + mem_time`: the memory-bound component
/// does not scale with core frequency, which is what makes DVFS a real
/// energy/performance trade-off (running memory-bound phases fast wastes
/// energy without finishing sooner).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct WorkSlice {
    /// Frequency-scalable CPU-bound cycles.
    pub cpu_cycles: Cycles,
    /// Frequency-invariant memory/IO stall time.
    pub mem_time: SimTime,
}

impl WorkSlice {
    /// An idle slice (no work).
    pub const IDLE: WorkSlice = WorkSlice {
        cpu_cycles: Cycles::ZERO,
        mem_time: SimTime::ZERO,
    };

    /// Creates a slice with both CPU and memory components.
    #[must_use]
    pub const fn new(cpu_cycles: Cycles, mem_time: SimTime) -> Self {
        WorkSlice {
            cpu_cycles,
            mem_time,
        }
    }

    /// A purely CPU-bound slice.
    #[must_use]
    pub const fn cpu_only(cpu_cycles: Cycles) -> Self {
        WorkSlice {
            cpu_cycles,
            mem_time: SimTime::ZERO,
        }
    }

    /// `true` if the slice carries no work at all.
    #[must_use]
    pub const fn is_idle(&self) -> bool {
        self.cpu_cycles.is_zero() && self.mem_time.is_zero()
    }

    /// Wall-clock time this slice takes at core frequency `f`.
    ///
    /// # Panics
    ///
    /// Panics if the slice has CPU cycles and `f` is zero.
    #[must_use]
    pub fn time_at(&self, f: Freq) -> SimTime {
        self.cpu_cycles.time_at(f) + self.mem_time
    }
}

/// The two things that differ between the board's clusters. Everything
/// else is the board's: [`Platform::CORES`] cores on one shared V-F rail,
/// the regulator's transition latency and a passively cooled thermal
/// node.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformConfig {
    /// The V-F operating-point table.
    pub opp_table: OppTable,
    /// The power model.
    pub power_model: CmosPowerModel,
}

impl PlatformConfig {
    /// The paper's platform: the ODROID-XU3 A15 cluster — four cores,
    /// 19 operating points on a shared V-F rail, passive cooling.
    ///
    /// perfbench builds every chip it measures from this preset, so its
    /// name and shape stay as they are.
    #[must_use]
    pub fn odroid_xu3_a15() -> Self {
        PlatformConfig {
            opp_table: OppTable::odroid_xu3_a15(),
            power_model: CmosPowerModel::a15(),
        }
    }

    /// The ODROID-XU3's companion cluster: four Cortex-A7 LITTLE cores,
    /// 13 operating points (200–1400 MHz) on a shared V-F rail, the
    /// same passive cooling as the big cluster.
    ///
    /// Together with [`odroid_xu3_a15`](PlatformConfig::odroid_xu3_a15)
    /// this completes the board's big.LITTLE pair (see
    /// `Topology::odroid_xu3_biglittle`).
    ///
    /// ```
    /// use qgov_sim::{Platform, PlatformConfig, WorkSlice};
    /// use qgov_units::{Cycles, SimTime};
    ///
    /// let mut little = Platform::new(PlatformConfig::odroid_xu3_little()).unwrap();
    /// assert_eq!(little.cores(), 4);
    /// assert_eq!(little.opp_table().len(), 13); // 200 MHz ..= 1400 MHz
    ///
    /// // The A7 finishes the same work later than an A15 would, but
    /// // dissipates far less power doing it.
    /// little.set_cluster_opp(little.opp_table().len() - 1);
    /// let work = vec![WorkSlice::cpu_only(Cycles::from_mcycles(14)); 4];
    /// let frame = little.run_frame(&work, SimTime::from_ms(40)).unwrap();
    /// assert_eq!(frame.per_core_busy[0], SimTime::from_ms(10)); // 14 Mc @ 1.4 GHz
    /// assert!(frame.met_deadline());
    /// ```
    #[must_use]
    pub fn odroid_xu3_little() -> Self {
        PlatformConfig {
            opp_table: OppTable::odroid_xu3_a7(),
            power_model: CmosPowerModel::a7(),
        }
    }
}

/// Everything observable about one completed frame (decision epoch).
#[derive(Debug, Clone, PartialEq)]
pub struct FrameResult {
    /// Time from frame start to barrier completion, including any
    /// governor/DVFS overhead (`Tᵢ` in the paper's Eq. 5).
    pub frame_time: SimTime,
    /// Wall-clock span of the epoch: `max(frame_time, period)` — an
    /// early-finishing frame idles until the next period tick.
    pub wall_time: SimTime,
    /// The period (deadline, `T_ref`) this frame ran against.
    pub period: SimTime,
    /// Governor + DVFS overhead charged to this frame (part of
    /// `T_OVH`).
    pub overhead: SimTime,
    /// Per-core busy time (work execution only).
    pub per_core_busy: [SimTime; Platform::CORES],
    /// Per-core cycles retired.
    pub per_core_cycles: [Cycles; Platform::CORES],
    /// Ground-truth energy dissipated over `wall_time`.
    pub energy: Energy,
    /// Die temperature at frame end.
    pub temperature: Temp,
    /// Cluster OPP index the frame ran at.
    pub cluster_opp: usize,
}

impl FrameResult {
    /// An all-zero result suitable as the reusable output slot of
    /// [`Platform::run_frame_into`].
    #[must_use]
    pub fn empty() -> Self {
        FrameResult {
            frame_time: SimTime::ZERO,
            wall_time: SimTime::ZERO,
            period: SimTime::ZERO,
            overhead: SimTime::ZERO,
            per_core_busy: [SimTime::ZERO; Platform::CORES],
            per_core_cycles: [Cycles::ZERO; Platform::CORES],
            energy: Energy::ZERO,
            temperature: Temp::default(),
            cluster_opp: 0,
        }
    }

    /// `true` if the frame met its deadline.
    #[must_use]
    pub fn met_deadline(&self) -> bool {
        self.frame_time <= self.period
    }

    /// Slack of this single frame as a signed ratio:
    /// `(period − frame_time) / period`; positive when early.
    #[must_use]
    pub fn frame_slack(&self) -> f64 {
        (self.period.as_secs_f64() - self.frame_time.as_secs_f64()) / self.period.as_secs_f64()
    }

    /// Busy fraction of a core over the epoch (what ondemand samples).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn utilization(&self, core: usize) -> f64 {
        if self.wall_time.is_zero() {
            return 0.0;
        }
        self.per_core_busy[core].ratio(self.wall_time).min(1.0)
    }

    /// Total cycles retired across all cores this epoch.
    #[must_use]
    pub fn total_cycles(&self) -> Cycles {
        self.per_core_cycles.iter().copied().sum()
    }
}

/// The simulated many-core platform.
///
/// See the [crate documentation](crate) for an overview and example.
#[derive(Debug)]
pub struct Platform {
    power_model: CmosPowerModel,
    /// The power model's per-OPP constants, one per table entry.
    opp_power: Vec<OppPower>,
    vf: VfController,
    thermal: ThermalModel,
    now: SimTime,
    pending_overhead: SimTime,
    frames: u64,
    total_true_energy: Energy,
}

impl Platform {
    /// Cores per cluster: the board's A15 and A7 quads.
    pub const CORES: usize = 4;

    /// Builds a platform from a configuration.
    ///
    /// # Errors
    ///
    /// None: every [`PlatformConfig`] is valid. The `Result` stays
    /// because perfbench's traced mirror of the harness unwraps it.
    pub fn new(config: PlatformConfig) -> Result<Self, SimError> {
        let vf = VfController::new(config.opp_table.clone());
        let opp_power = config
            .opp_table
            .iter()
            .map(|opp| config.power_model.opp_power(opp))
            .collect();
        Ok(Platform {
            power_model: config.power_model,
            opp_power,
            vf,
            thermal: ThermalModel::new(),
            now: SimTime::ZERO,
            pending_overhead: SimTime::ZERO,
            frames: 0,
            total_true_energy: Energy::ZERO,
        })
    }

    /// Number of cores: [`Platform::CORES`].
    #[must_use]
    pub fn cores(&self) -> usize {
        Self::CORES
    }

    /// The operating-point table.
    #[must_use]
    pub fn opp_table(&self) -> &OppTable {
        self.vf.table()
    }

    /// Simulated time elapsed since construction.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Frames executed so far.
    #[must_use]
    pub fn frames_run(&self) -> u64 {
        self.frames
    }

    /// Current cluster OPP index.
    #[must_use]
    pub fn current_opp(&self) -> usize {
        self.vf.cluster_opp()
    }

    /// Retargets the whole cluster to OPP `index`. The transition
    /// latency is charged to the next frame as overhead.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of table range (indices should come from
    /// [`opp_table`](Platform::opp_table); use
    /// [`try_set_cluster_opp`](Platform::try_set_cluster_opp) for
    /// untrusted input).
    pub fn set_cluster_opp(&mut self, index: usize) {
        self.try_set_cluster_opp(index)
            .expect("OPP index out of range");
    }

    /// Fallible variant of [`set_cluster_opp`](Platform::set_cluster_opp).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OppOutOfRange`] for a bad index.
    pub fn try_set_cluster_opp(&mut self, index: usize) -> Result<(), SimError> {
        let latency = self.vf.set_cluster_opp(index)?;
        self.pending_overhead += latency;
        Ok(())
    }

    /// Retargets the V-F domain of `core`, which on the shared rail is
    /// the whole cluster: after the core check this is
    /// [`try_set_cluster_opp`](Platform::try_set_cluster_opp). Kept
    /// because perfbench's traced mirror of the harness calls it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CoreOutOfRange`] or
    /// [`SimError::OppOutOfRange`] for bad indices.
    pub fn try_set_core_opp(&mut self, core: usize, index: usize) -> Result<(), SimError> {
        if core >= Self::CORES {
            return Err(SimError::CoreOutOfRange {
                core,
                cores: Self::CORES,
            });
        }
        self.try_set_cluster_opp(index)
    }

    /// Charges additional overhead time (e.g. the governor's own
    /// processing cost) to the next frame — the remaining components of
    /// the paper's `T_OVH`.
    pub fn add_overhead(&mut self, t: SimTime) {
        self.pending_overhead += t;
    }

    /// Current die temperature.
    #[must_use]
    pub fn temperature(&self) -> Temp {
        self.thermal.temperature()
    }

    /// Peak die temperature so far.
    #[must_use]
    pub fn peak_temperature(&self) -> Temp {
        self.thermal.peak()
    }

    /// Ground-truth energy dissipated since construction.
    #[must_use]
    pub fn total_energy(&self) -> Energy {
        self.total_true_energy
    }

    /// The V-F controller (transition counts, cumulated latency).
    #[must_use]
    pub fn vf(&self) -> &VfController {
        &self.vf
    }

    /// Runs one frame: each core executes its [`WorkSlice`] at the
    /// cluster's operating point, all cores join at the barrier, and the
    /// epoch closes at `max(frame_time, period)`.
    ///
    /// Any pending overhead (V-F transitions, governor processing) is
    /// charged serially at the start of the frame, stalling all cores —
    /// this is how learning overhead lengthens frames in the paper's
    /// Eq. 5.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WorkLengthMismatch`] if `work.len()` differs
    /// from the core count, or [`SimError::InvalidConfig`] if `period`
    /// is zero.
    pub fn run_frame(
        &mut self,
        work: &[WorkSlice],
        period: SimTime,
    ) -> Result<FrameResult, SimError> {
        let mut out = FrameResult::empty();
        self.run_frame_into(work, period, &mut out)?;
        Ok(out)
    }

    /// [`run_frame`](Platform::run_frame) into a caller-provided result
    /// slot.
    ///
    /// The experiment harness keeps one [`FrameResult`] alive across the
    /// whole run and overwrites it frame by frame. Bit-identical to
    /// [`run_frame`](Platform::run_frame), which is a thin wrapper over
    /// this one.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WorkLengthMismatch`] if `work.len()` differs
    /// from the core count, or [`SimError::InvalidConfig`] if `period`
    /// is zero; `out` is left untouched on error.
    pub fn run_frame_into(
        &mut self,
        work: &[WorkSlice],
        period: SimTime,
        out: &mut FrameResult,
    ) -> Result<(), SimError> {
        if work.len() != Self::CORES {
            return Err(SimError::WorkLengthMismatch {
                cores: Self::CORES,
                got: work.len(),
            });
        }
        if period.is_zero() {
            return Err(SimError::InvalidConfig {
                reason: "frame period must be non-zero".into(),
            });
        }

        let overhead = self.pending_overhead;
        self.pending_overhead = SimTime::ZERO;

        // Execute to the barrier at the rail's one frequency.
        let opp_idx = self.vf.cluster_opp();
        let freq = self
            .vf
            .table()
            .get(opp_idx)
            .expect("opp index in range")
            .freq;
        let mut compute_time = SimTime::ZERO;
        for (core, slice) in work.iter().enumerate() {
            let busy = slice.time_at(freq);
            compute_time = compute_time.max(busy);
            out.per_core_busy[core] = busy;
            out.per_core_cycles[core] = slice.cpu_cycles;
        }
        let frame_time = compute_time + overhead;
        let wall_time = frame_time.max(period);

        // Energy accounting at the temperature of frame start: one
        // leakage scale and one busy/idle power pair per frame, summed
        // core by core.
        let model = &self.power_model;
        let leakage_scale = model.leakage_scale(self.thermal.temperature());
        let opp = &self.opp_power[opp_idx];
        let p_busy = model.core_power_at(opp, 1.0, leakage_scale).total();
        let p_idle = model.core_power_at(opp, 0.0, leakage_scale).total();
        let mut energy = Energy::ZERO;
        for (core, &busy) in out.per_core_busy.iter().enumerate() {
            // The governor's serial overhead section runs on core 0.
            let active = if core == 0 { busy + overhead } else { busy };
            let active = active.min(wall_time);
            let idle = wall_time - active;
            energy += p_busy * active + p_idle * idle;
        }
        energy += model.uncore_power_at(opp, leakage_scale).total() * wall_time;

        let avg_power = Power::from_watts(energy.as_joules() / wall_time.as_secs_f64());
        let temperature = self.thermal.step(avg_power, wall_time);
        self.now += wall_time;
        self.frames += 1;
        self.total_true_energy += energy;

        out.frame_time = frame_time;
        out.wall_time = wall_time;
        out.period = period;
        out.overhead = overhead;
        out.energy = energy;
        out.temperature = temperature;
        out.cluster_opp = opp_idx;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thermal::{AMBIENT_C, R_TH, TAU};
    use proptest::prelude::*;

    fn a15() -> Platform {
        Platform::new(PlatformConfig::odroid_xu3_a15()).unwrap()
    }

    /// The barrier time without the overhead charged to the frame
    /// (governor processing and V-F transition latency).
    fn compute_time(frame: &FrameResult) -> SimTime {
        frame.frame_time - frame.overhead
    }

    #[test]
    fn frame_time_follows_frequency() {
        let mut p = a15();
        let work = vec![WorkSlice::cpu_only(Cycles::from_mcycles(20)); 4];
        let period = SimTime::from_ms(200);

        p.set_cluster_opp(0); // 200 MHz: 20 Mcycles take 100 ms
        let slow = p.run_frame(&work, period).unwrap();
        assert_eq!(compute_time(&slow), SimTime::from_ms(100));

        p.set_cluster_opp(18); // 2 GHz: 10 ms
        let fast = p.run_frame(&work, period).unwrap();
        assert_eq!(compute_time(&fast), SimTime::from_ms(10));
    }

    #[test]
    fn memory_time_does_not_scale() {
        let mut p = a15();
        let work = vec![WorkSlice::new(Cycles::from_mcycles(10), SimTime::from_ms(5)); 4];
        p.set_cluster_opp(18); // 2 GHz: cpu 5 ms + mem 5 ms
        let r = p.run_frame(&work, SimTime::from_ms(40)).unwrap();
        assert_eq!(compute_time(&r), SimTime::from_ms(10));
        p.set_cluster_opp(8); // 1 GHz: cpu 10 ms + mem 5 ms
        let r = p.run_frame(&work, SimTime::from_ms(40)).unwrap();
        assert_eq!(compute_time(&r), SimTime::from_ms(15));
    }

    #[test]
    fn barrier_takes_slowest_core() {
        let mut p = a15();
        p.set_cluster_opp(8); // 1 GHz
        let work = vec![
            WorkSlice::cpu_only(Cycles::from_mcycles(5)),
            WorkSlice::cpu_only(Cycles::from_mcycles(30)),
            WorkSlice::IDLE,
            WorkSlice::cpu_only(Cycles::from_mcycles(1)),
        ];
        let r = p.run_frame(&work, SimTime::from_ms(100)).unwrap();
        assert_eq!(compute_time(&r), SimTime::from_ms(30));
        assert_eq!(r.per_core_busy[1], SimTime::from_ms(30));
        assert_eq!(r.per_core_busy[2], SimTime::ZERO);
    }

    #[test]
    fn early_frames_idle_until_period() {
        let mut p = a15();
        p.set_cluster_opp(18);
        let work = vec![WorkSlice::cpu_only(Cycles::from_mcycles(2)); 4]; // 1 ms
        let r = p.run_frame(&work, SimTime::from_ms(40)).unwrap();
        assert_eq!(r.wall_time, SimTime::from_ms(40));
        assert!(r.met_deadline());
        assert!(r.frame_slack() > 0.9);
        assert_eq!(p.now(), SimTime::from_ms(40));
    }

    #[test]
    fn late_frames_extend_the_wall_clock() {
        let mut p = a15();
        p.set_cluster_opp(0); // 200 MHz
        let work = vec![WorkSlice::cpu_only(Cycles::from_mcycles(20)); 4]; // 100 ms
        let r = p.run_frame(&work, SimTime::from_ms(40)).unwrap();
        assert_eq!(r.wall_time, SimTime::from_ms(100));
        assert!(!r.met_deadline());
        assert!(r.frame_slack() < 0.0);
    }

    #[test]
    fn running_fast_and_idling_beats_racing_for_heavily_utilised_frames() {
        // Energy comparison that motivates DVFS: finishing just in time
        // at a low OPP beats racing to idle at the top OPP.
        let work = vec![WorkSlice::cpu_only(Cycles::from_mcycles(20)); 4];
        let period = SimTime::from_ms(100);

        let mut racer = a15();
        racer.set_cluster_opp(18);
        let fast = racer.run_frame(&work, period).unwrap();
        assert!(fast.met_deadline());

        let mut crawler = a15();
        crawler.set_cluster_opp(1); // 300 MHz: 66.7 ms, still meets 100 ms
        let slow = crawler.run_frame(&work, period).unwrap();
        assert!(slow.met_deadline());

        assert!(
            slow.energy.as_joules() < fast.energy.as_joules(),
            "pace-to-deadline ({}) should beat race-to-idle ({})",
            slow.energy,
            fast.energy
        );
    }

    #[test]
    fn overhead_is_charged_once_and_stalls_the_frame() {
        let mut p = a15();
        p.set_cluster_opp(8);
        let latency = p.vf().total_latency();
        p.add_overhead(SimTime::from_ms(3));
        let work = vec![WorkSlice::cpu_only(Cycles::from_mcycles(10)); 4]; // 10 ms
        let r = p.run_frame(&work, SimTime::from_ms(40)).unwrap();
        assert_eq!(r.overhead, SimTime::from_ms(3) + latency);
        assert_eq!(r.frame_time, SimTime::from_ms(10) + r.overhead);
        // Consumed: next frame is clean.
        let r2 = p.run_frame(&work, SimTime::from_ms(40)).unwrap();
        assert_eq!(r2.frame_time, SimTime::from_ms(10));
        assert_eq!(r2.overhead, SimTime::ZERO);
    }

    #[test]
    fn dvfs_transition_cost_appears_as_overhead() {
        let mut p = a15();
        p.set_cluster_opp(18); // big swing from boot OPP 0
        let work = vec![WorkSlice::cpu_only(Cycles::from_mcycles(2)); 4];
        let r = p.run_frame(&work, SimTime::from_ms(40)).unwrap();
        assert!(!r.overhead.is_zero(), "transition latency must be charged");
        assert_eq!(r.overhead, p.vf().total_latency());
        assert_eq!(p.vf().transitions(), 1);
    }

    #[test]
    fn core_set_retargets_the_whole_rail() {
        let (mut by_core, mut by_cluster) = (a15(), a15());
        assert!(matches!(
            by_core.try_set_core_opp(4, 10),
            Err(SimError::CoreOutOfRange { core: 4, cores: 4 })
        ));
        assert!(matches!(
            by_core.try_set_core_opp(0, 19),
            Err(SimError::OppOutOfRange { index: 19, len: 19 })
        ));
        let work = vec![WorkSlice::cpu_only(Cycles::from_mcycles(8)); 4];
        for (core, opp) in [(2, 10), (0, 10), (3, 18), (1, 0)] {
            by_core.try_set_core_opp(core, opp).unwrap();
            by_cluster.try_set_cluster_opp(opp).unwrap();
            // Same OPP, transition count and cumulated latency, and the
            // same latency charged to the next frame.
            assert_eq!(by_core.vf(), by_cluster.vf());
            assert_eq!(
                by_core.run_frame(&work, SimTime::from_ms(40)).unwrap(),
                by_cluster.run_frame(&work, SimTime::from_ms(40)).unwrap()
            );
        }
        assert_eq!(by_core.vf().transitions(), 3);
    }

    #[test]
    fn temperature_rises_under_sustained_load() {
        let mut p = a15();
        p.set_cluster_opp(18);
        let work = vec![WorkSlice::cpu_only(Cycles::from_mcycles(60)); 4];
        let t0 = p.temperature();
        for _ in 0..200 {
            p.run_frame(&work, SimTime::from_ms(30)).unwrap();
        }
        assert!(p.temperature() > t0);
        assert!(p.peak_temperature() >= p.temperature());
    }

    #[test]
    fn run_frame_into_matches_run_frame_bit_for_bit() {
        let work = vec![
            WorkSlice::cpu_only(Cycles::from_mcycles(5)),
            WorkSlice::new(Cycles::from_mcycles(30), SimTime::from_ms(2)),
            WorkSlice::IDLE,
            WorkSlice::cpu_only(Cycles::from_mcycles(12)),
        ];
        let period = SimTime::from_ms(40);

        let mut alloc = a15();
        alloc.set_cluster_opp(8);
        let mut reuse = a15();
        reuse.set_cluster_opp(8);

        let mut slot = FrameResult::empty();
        for _ in 0..20 {
            let fresh = alloc.run_frame(&work, period).unwrap();
            reuse.run_frame_into(&work, period, &mut slot).unwrap();
            assert_eq!(fresh, slot);
            assert_eq!(
                fresh.energy.as_joules().to_bits(),
                slot.energy.as_joules().to_bits()
            );
        }
        assert_eq!(alloc.total_energy(), reuse.total_energy());
        assert_eq!(alloc.now(), reuse.now());
    }

    #[test]
    fn run_frame_into_leaves_slot_untouched_on_error() {
        let mut p = a15();
        let mut slot = FrameResult::empty();
        p.run_frame_into(
            &[WorkSlice::cpu_only(Cycles::from_mcycles(1)); 4],
            SimTime::from_ms(40),
            &mut slot,
        )
        .unwrap();
        let before = slot.clone();
        assert!(p
            .run_frame_into(&[WorkSlice::IDLE; 3], SimTime::from_ms(40), &mut slot)
            .is_err());
        assert!(p
            .run_frame_into(&[WorkSlice::IDLE; 4], SimTime::ZERO, &mut slot)
            .is_err());
        assert_eq!(slot, before);
    }

    #[test]
    fn a_frame_past_the_largest_time_saturates_instead_of_wrapping() {
        // u64::MAX cycles at 200 MHz take ~9.2e19 ns, past u64::MAX ns.
        let mut p = a15();
        p.set_cluster_opp(0);
        let mut work = vec![WorkSlice::IDLE; Platform::CORES];
        work[0] = WorkSlice::cpu_only(Cycles::new(u64::MAX));
        let r = p.run_frame(&work, SimTime::from_ms(40)).unwrap();
        assert_eq!(r.per_core_busy[0], SimTime::MAX);
        assert_eq!(r.frame_time, SimTime::MAX);
        assert_eq!(r.wall_time, SimTime::MAX);
        assert!(!r.met_deadline());
        assert_eq!(p.now(), SimTime::MAX);
    }

    #[test]
    fn work_length_mismatch_is_rejected() {
        let mut p = a15();
        let work = vec![WorkSlice::IDLE; 3];
        assert!(matches!(
            p.run_frame(&work, SimTime::from_ms(40)),
            Err(SimError::WorkLengthMismatch { cores: 4, got: 3 })
        ));
    }

    #[test]
    fn zero_period_is_rejected() {
        let mut p = a15();
        let work = vec![WorkSlice::IDLE; 4];
        assert!(p.run_frame(&work, SimTime::ZERO).is_err());
    }

    #[test]
    fn total_energy_accumulates() {
        let mut p = a15();
        p.set_cluster_opp(5);
        let work = vec![WorkSlice::cpu_only(Cycles::from_mcycles(5)); 4];
        let r1 = p.run_frame(&work, SimTime::from_ms(40)).unwrap();
        let r2 = p.run_frame(&work, SimTime::from_ms(40)).unwrap();
        let total = p.total_energy().as_joules();
        assert!((total - r1.energy.as_joules() - r2.energy.as_joules()).abs() < 1e-12);
    }

    /// The frame kernel's energy as it was computed before the per-OPP
    /// table: both core powers evaluated per core from the model, the
    /// uncore at the cluster OPP, all at the frame-start temperature.
    fn reference_energy(
        model: &CmosPowerModel,
        table: &OppTable,
        opp: usize,
        busy: &[SimTime],
        overhead: SimTime,
        wall_time: SimTime,
        temp: Temp,
    ) -> Energy {
        let mut energy = Energy::ZERO;
        for (core, &busy) in busy.iter().enumerate() {
            let opp = table.get(opp).unwrap();
            let active = if core == 0 { busy + overhead } else { busy };
            let active = active.min(wall_time);
            let idle = wall_time - active;
            let (opp, scale) = (model.opp_power(opp), model.leakage_scale(temp));
            let p_busy = model.core_power_at(&opp, 1.0, scale).total();
            let p_idle = model.core_power_at(&opp, 0.0, scale).total();
            energy += p_busy * active + p_idle * idle;
        }
        let uncore = model.opp_power(table.get(opp).unwrap());
        energy += model
            .uncore_power_at(&uncore, model.leakage_scale(temp))
            .total()
            * wall_time;
        energy
    }

    /// One frame's inputs: an OPP draw, CPU megacycles and memory
    /// microseconds per core, governor overhead in microseconds, and a
    /// period index into `PERIODS_MS`.
    type FrameInput = (usize, Vec<u64>, Vec<u64>, u64, usize);

    /// Mostly the same period, so the thermal memo hits on on-time
    /// frames; overrunning frames and the odd period change miss it.
    const PERIODS_MS: [u64; 5] = [40, 40, 40, 16, 100];

    fn frame_inputs() -> impl Strategy<Value = Vec<FrameInput>> {
        proptest::collection::vec(
            (
                0usize..64,
                proptest::collection::vec(0u64..120, 4),
                proptest::collection::vec(0u64..8_000, 4),
                0u64..3_000,
                0usize..PERIODS_MS.len(),
            ),
            1..40,
        )
    }

    /// Runs `frames` through a platform and through the reference loop
    /// side by side, comparing energy and temperature bit for bit on
    /// every frame.
    fn check_against_reference(config: PlatformConfig, frames: &[FrameInput]) {
        let model = config.power_model.clone();
        let table = config.opp_table.clone();
        let mut platform = Platform::new(config).unwrap();
        let mut temp_c = AMBIENT_C;
        let mut out = FrameResult::empty();
        for (i, (draw, mcycles, mem_us, overhead_us, period)) in frames.iter().enumerate() {
            let opp = draw % table.len();
            platform.set_cluster_opp(opp);
            platform.add_overhead(SimTime::from_us(*overhead_us));
            let work: Vec<WorkSlice> = mcycles
                .iter()
                .zip(mem_us)
                .map(|(&mc, &us)| WorkSlice::new(Cycles::from_mcycles(mc), SimTime::from_us(us)))
                .collect();
            let period = SimTime::from_ms(PERIODS_MS[*period]);
            platform.run_frame_into(&work, period, &mut out).unwrap();

            // Busy times from the exact u128 division, not `time_at`.
            let khz = u128::from(table.get(opp).unwrap().freq.khz());
            let busy: Vec<SimTime> = work
                .iter()
                .map(|slice| {
                    let cycles = u128::from(slice.cpu_cycles.count());
                    let ns = (cycles * 1_000_000).div_ceil(khz);
                    SimTime::from_ns(u64::try_from(ns).unwrap()) + slice.mem_time
                })
                .collect();
            let frame_time = busy.iter().copied().max().unwrap() + out.overhead;
            let wall_time = frame_time.max(period);
            assert_eq!(out.per_core_busy[..], busy[..], "frame {i}");
            assert_eq!((out.frame_time, out.wall_time), (frame_time, wall_time));

            let temp = Temp::from_celsius(temp_c);
            let energy =
                reference_energy(&model, &table, opp, &busy, out.overhead, wall_time, temp);
            let avg_power = energy.as_joules() / wall_time.as_secs_f64();
            let target = AMBIENT_C + avg_power * R_TH;
            let decay = (-wall_time.as_secs_f64() / TAU.as_secs_f64()).exp();
            temp_c = target + (temp_c - target) * decay;

            assert_eq!(
                out.energy.as_joules().to_bits(),
                energy.as_joules().to_bits(),
                "energy, frame {i}: {} vs {}",
                out.energy,
                energy
            );
            assert_eq!(
                out.temperature.as_celsius().to_bits(),
                temp_c.to_bits(),
                "temperature, frame {i}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The per-OPP table, the one power pair per frame and the
        /// thermal memo reproduce the per-core reference loop bit for
        /// bit, A15 and A7.
        #[test]
        fn frame_kernel_matches_the_per_core_reference_loop(frames in frame_inputs()) {
            for config in [PlatformConfig::odroid_xu3_a15(), PlatformConfig::odroid_xu3_little()] {
                check_against_reference(config, &frames);
            }
        }
    }
}
