//! Cluster topologies: from one V-F island to a true many-core chip.
//!
//! The base [`Platform`] models a single cluster — one core quad on one
//! V-F rail with one thermal node, which is exactly the scope of each of
//! the paper's per-cluster run-time managers. This module composes those
//! single-cluster platforms into a [`Topology`] of heterogeneous
//! clusters ([`ManyCorePlatform`]): each cluster keeps its own OPP
//! table, power model, V-F rail and thermal node, and a frame executes
//! on every cluster under a shared period before all clusters join at
//! the global barrier.
//!
//! A one-cluster topology is *literally* the wrapped [`Platform`]: every
//! frame routes through the unchanged [`Platform::run_frame_into`]
//! kernel, so single-cluster results are bit-identical to the
//! pre-topology code path.

use crate::{FrameResult, Platform, PlatformConfig, SimError, WorkSlice};
use qgov_units::{Energy, SimTime, Temp};

/// One cluster of a [`Topology`]: a named single-cluster platform
/// configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Cluster name ("big", "LITTLE", "mesh3", ...).
    pub name: String,
    /// The cluster's platform: OPP table and power model.
    pub platform: PlatformConfig,
}

impl ClusterConfig {
    /// Creates a named cluster.
    #[must_use]
    pub fn new(name: impl Into<String>, platform: PlatformConfig) -> Self {
        ClusterConfig {
            name: name.into(),
            platform,
        }
    }
}

/// A chip-level arrangement of clusters.
///
/// ```
/// use qgov_sim::Topology;
///
/// let board = Topology::odroid_xu3_biglittle();
/// assert_eq!(board.cluster_count(), 2);
/// assert_eq!(board.total_cores(), 8); // A15×4 + A7×4
///
/// let mesh = Topology::homogeneous_mesh(
///     8,
///     qgov_sim::PlatformConfig::odroid_xu3_a15(),
/// );
/// assert_eq!(mesh.total_cores(), 32);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// The clusters, in index order.
    pub clusters: Vec<ClusterConfig>,
}

impl Topology {
    /// Builds a topology from explicit clusters.
    #[must_use]
    pub fn new(clusters: Vec<ClusterConfig>) -> Self {
        Topology { clusters }
    }

    /// A single-cluster topology — the degenerate case that must behave
    /// bit-for-bit like the wrapped [`Platform`].
    #[must_use]
    pub fn single(platform: PlatformConfig) -> Self {
        Topology {
            clusters: vec![ClusterConfig::new("cluster0", platform)],
        }
    }

    /// The ODROID-XU3 board: a "big" Cortex-A15 quad next to a "LITTLE"
    /// Cortex-A7 quad, each on its own V-F rail with its own thermal
    /// node.
    #[must_use]
    pub fn odroid_xu3_biglittle() -> Self {
        Topology {
            clusters: vec![
                ClusterConfig::new("big", PlatformConfig::odroid_xu3_a15()),
                ClusterConfig::new("LITTLE", PlatformConfig::odroid_xu3_little()),
            ],
        }
    }

    /// A synthetic homogeneous mesh: `clusters` replicas of `template`,
    /// named `mesh0`, `mesh1`, ... — e.g. 4/8/16 A15 quads give the
    /// 16/32/64-core scaling points.
    ///
    /// Every caller passes the A15 preset. The `template` parameter stays
    /// because perfbench builds its meshes through this signature.
    #[must_use]
    pub fn homogeneous_mesh(clusters: usize, template: PlatformConfig) -> Self {
        Topology {
            clusters: (0..clusters)
                .map(|i| ClusterConfig::new(format!("mesh{i}"), template.clone()))
                .collect(),
        }
    }

    /// Number of clusters.
    #[must_use]
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Total cores across all clusters.
    #[must_use]
    pub fn total_cores(&self) -> usize {
        self.clusters.len() * Platform::CORES
    }

    /// Validates the topology.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if there are no clusters.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.clusters.is_empty() {
            return Err(SimError::InvalidConfig {
                reason: "a topology needs at least one cluster".into(),
            });
        }
        Ok(())
    }
}

/// Everything observable about one completed many-core frame: the
/// per-cluster [`FrameResult`]s plus chip-level aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct ManyCoreFrameResult {
    /// Per-cluster frame results, in topology order.
    pub clusters: Vec<FrameResult>,
    /// Chip-level frame time: the slowest cluster's barrier time.
    pub frame_time: SimTime,
    /// Chip-level wall time: the longest cluster epoch.
    pub wall_time: SimTime,
    /// The shared period (deadline) this frame ran against.
    pub period: SimTime,
    /// Total ground-truth energy across all clusters.
    pub energy: Energy,
}

impl ManyCoreFrameResult {
    /// An all-zero result suitable as the reusable output slot of
    /// [`ManyCorePlatform::run_frame_into`] (its per-cluster slots grow
    /// to the cluster count on first use and are reused — allocation-free
    /// — thereafter).
    #[must_use]
    pub fn empty() -> Self {
        ManyCoreFrameResult {
            clusters: Vec::new(),
            frame_time: SimTime::ZERO,
            wall_time: SimTime::ZERO,
            period: SimTime::ZERO,
            energy: Energy::ZERO,
        }
    }

    /// Copies `other` into `self`, reusing the per-cluster
    /// [`FrameResult`] slots and their vector capacity (see
    /// [`FrameResult::copy_from`]) — allocation-free once `self` has
    /// grown to the chip's shape.
    pub fn copy_from(&mut self, other: &ManyCoreFrameResult) {
        self.clusters.truncate(other.clusters.len());
        while self.clusters.len() < other.clusters.len() {
            self.clusters.push(FrameResult::empty());
        }
        for (dst, src) in self.clusters.iter_mut().zip(&other.clusters) {
            dst.copy_from(src);
        }
        self.frame_time = other.frame_time;
        self.wall_time = other.wall_time;
        self.period = other.period;
        self.energy = other.energy;
    }

    /// One cluster's frame result.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    #[must_use]
    pub fn cluster(&self, cluster: usize) -> &FrameResult {
        &self.clusters[cluster]
    }

    /// `true` if the slowest cluster still met the shared deadline.
    #[must_use]
    pub fn met_deadline(&self) -> bool {
        self.frame_time <= self.period
    }

    /// Chip-level slack as a signed ratio:
    /// `(period − frame_time) / period`; positive when early.
    #[must_use]
    pub fn frame_slack(&self) -> f64 {
        (self.period.as_secs_f64() - self.frame_time.as_secs_f64()) / self.period.as_secs_f64()
    }
}

/// A topology of independently controlled clusters executing
/// frame-synchronously against a shared period.
///
/// Each cluster is a full [`Platform`] — the frame kernel, power,
/// sensing, and thermal state are exactly the single-cluster ones, which
/// is what makes the 1-cluster topology bit-identical to the wrapped
/// platform. Clusters advance their own local clocks (an early-finishing
/// cluster idles to the period tick; an overrunning cluster extends its
/// own epoch), and the chip-level result reports the slowest cluster.
///
/// ```
/// use qgov_sim::{ManyCoreFrameResult, ManyCorePlatform, Topology, WorkSlice};
/// use qgov_units::{Cycles, SimTime};
///
/// let mut chip = ManyCorePlatform::new(Topology::odroid_xu3_biglittle()).unwrap();
/// chip.set_cluster_opp(0, 18); // big at 2 GHz
/// chip.set_cluster_opp(1, 12); // LITTLE at 1.4 GHz
///
/// let work = vec![
///     vec![WorkSlice::cpu_only(Cycles::from_mcycles(40)); 4], // big
///     vec![WorkSlice::cpu_only(Cycles::from_mcycles(14)); 4], // LITTLE
/// ];
/// let mut frame = ManyCoreFrameResult::empty();
/// chip.run_frame_into(&work, SimTime::from_ms(40), &mut frame).unwrap();
/// assert!(frame.met_deadline());
/// assert_eq!(frame.clusters.len(), 2);
/// ```
#[derive(Debug)]
pub struct ManyCorePlatform {
    clusters: Vec<Platform>,
    names: Vec<String>,
}

impl ManyCorePlatform {
    /// Builds a many-core platform from a topology.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an invalid topology.
    pub fn new(topology: Topology) -> Result<Self, SimError> {
        topology.validate()?;
        let mut clusters = Vec::with_capacity(topology.clusters.len());
        let mut names = Vec::with_capacity(topology.clusters.len());
        for cluster in topology.clusters {
            clusters.push(Platform::new(cluster.platform)?);
            names.push(cluster.name);
        }
        Ok(ManyCorePlatform { clusters, names })
    }

    /// Number of clusters.
    #[must_use]
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Total cores across all clusters.
    #[must_use]
    pub fn total_cores(&self) -> usize {
        self.clusters.len() * Platform::CORES
    }

    /// One cluster's name.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    #[must_use]
    pub fn cluster_name(&self, cluster: usize) -> &str {
        &self.names[cluster]
    }

    /// Shared read access to one cluster's platform.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    #[must_use]
    pub fn cluster(&self, cluster: usize) -> &Platform {
        &self.clusters[cluster]
    }

    /// Exclusive access to one cluster's platform (per-cluster OPP
    /// control, overhead charging).
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    #[must_use]
    pub fn cluster_mut(&mut self, cluster: usize) -> &mut Platform {
        &mut self.clusters[cluster]
    }

    /// Consumes the chip and returns its cluster platforms, in topology
    /// order.
    #[must_use]
    pub fn into_clusters(self) -> Vec<Platform> {
        self.clusters
    }

    /// Number of cores in one cluster.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    #[must_use]
    pub fn cores(&self, cluster: usize) -> usize {
        self.clusters[cluster].cores()
    }

    /// Retargets one cluster's V-F rail to OPP `index`. The transition
    /// latency is charged to that cluster's next frame as overhead.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` or `index` is out of range (use
    /// [`try_set_cluster_opp`](ManyCorePlatform::try_set_cluster_opp)
    /// for untrusted input).
    pub fn set_cluster_opp(&mut self, cluster: usize, index: usize) {
        self.try_set_cluster_opp(cluster, index)
            .expect("cluster / OPP index out of range");
    }

    /// Fallible variant of
    /// [`set_cluster_opp`](ManyCorePlatform::set_cluster_opp).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ClusterOutOfRange`] or
    /// [`SimError::OppOutOfRange`] for bad indices.
    pub fn try_set_cluster_opp(&mut self, cluster: usize, index: usize) -> Result<(), SimError> {
        self.cluster_checked_mut(cluster)?
            .try_set_cluster_opp(index)
    }

    /// Current OPP index of one cluster.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    #[must_use]
    pub fn current_opp(&self, cluster: usize) -> usize {
        self.clusters[cluster].current_opp()
    }

    /// One cluster's operating-point table.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    #[must_use]
    pub fn opp_table(&self, cluster: usize) -> &crate::OppTable {
        self.clusters[cluster].opp_table()
    }

    /// Charges overhead time (e.g. a per-cluster governor's processing
    /// cost) to one cluster's next frame.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn add_overhead(&mut self, cluster: usize, t: SimTime) {
        self.clusters[cluster].add_overhead(t);
    }

    /// One cluster's current die temperature.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    #[must_use]
    pub fn temperature(&self, cluster: usize) -> Temp {
        self.clusters[cluster].temperature()
    }

    /// Peak die temperature across all clusters so far.
    #[must_use]
    pub fn peak_temperature(&self) -> Temp {
        self.clusters
            .iter()
            .map(Platform::peak_temperature)
            .fold(Temp::default(), Temp::max)
    }

    /// Ground-truth energy dissipated across all clusters since
    /// construction.
    #[must_use]
    pub fn total_energy(&self) -> Energy {
        self.clusters
            .iter()
            .fold(Energy::ZERO, |acc, c| acc + c.total_energy())
    }

    /// Total V-F transitions across all clusters.
    #[must_use]
    pub fn total_transitions(&self) -> u64 {
        self.clusters.iter().map(|c| c.vf().transitions()).sum()
    }

    /// Cumulated V-F transition latency across all clusters.
    #[must_use]
    pub fn total_transition_latency(&self) -> SimTime {
        self.clusters
            .iter()
            .fold(SimTime::ZERO, |acc, c| acc + c.vf().total_latency())
    }

    /// Simulated time on the slowest cluster's local clock.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.clusters
            .iter()
            .fold(SimTime::ZERO, |acc, c| acc.max(c.now()))
    }

    /// Frames executed so far (all clusters step in lockstep).
    #[must_use]
    pub fn frames_run(&self) -> u64 {
        self.clusters.first().map_or(0, Platform::frames_run)
    }

    /// Runs one frame on every cluster: cluster `c` executes
    /// `work[c]` through the unchanged single-cluster
    /// [`Platform::run_frame_into`] kernel, then all clusters join at
    /// the chip barrier and the result reports the slowest one.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ClusterCountMismatch`] if `work.len()`
    /// differs from the cluster count,
    /// [`SimError::WorkLengthMismatch`] if any `work[c].len()` differs
    /// from [`Platform::CORES`], or [`SimError::InvalidConfig`] if
    /// `period` is zero. All lengths are validated before any cluster
    /// runs, so no cluster state is mutated and `out` is left untouched
    /// on error.
    pub fn run_frame_into(
        &mut self,
        work: &[Vec<WorkSlice>],
        period: SimTime,
        out: &mut ManyCoreFrameResult,
    ) -> Result<(), SimError> {
        if work.len() != self.clusters.len() {
            return Err(SimError::ClusterCountMismatch {
                clusters: self.clusters.len(),
                got: work.len(),
            });
        }
        if period.is_zero() {
            return Err(SimError::InvalidConfig {
                reason: "frame period must be non-zero".into(),
            });
        }
        if let Some(slices) = work.iter().find(|s| s.len() != Platform::CORES) {
            return Err(SimError::WorkLengthMismatch {
                cores: Platform::CORES,
                got: slices.len(),
            });
        }

        out.clusters.truncate(self.clusters.len());
        while out.clusters.len() < self.clusters.len() {
            out.clusters.push(FrameResult::empty());
        }

        let mut frame_time = SimTime::ZERO;
        let mut wall_time = SimTime::ZERO;
        let mut energy = Energy::ZERO;
        for (cluster, slices) in work.iter().enumerate() {
            let slot = &mut out.clusters[cluster];
            self.clusters[cluster]
                .run_frame_into(slices, period, slot)
                .expect("lengths validated above");
            frame_time = frame_time.max(slot.frame_time);
            wall_time = wall_time.max(slot.wall_time);
            energy += slot.energy;
        }
        out.frame_time = frame_time;
        out.wall_time = wall_time;
        out.period = period;
        out.energy = energy;
        Ok(())
    }

    /// Allocating convenience form of
    /// [`run_frame_into`](ManyCorePlatform::run_frame_into).
    ///
    /// # Errors
    ///
    /// Same as [`run_frame_into`](ManyCorePlatform::run_frame_into).
    pub fn run_frame(
        &mut self,
        work: &[Vec<WorkSlice>],
        period: SimTime,
    ) -> Result<ManyCoreFrameResult, SimError> {
        let mut out = ManyCoreFrameResult::empty();
        self.run_frame_into(work, period, &mut out)?;
        Ok(out)
    }

    fn cluster_checked_mut(&mut self, cluster: usize) -> Result<&mut Platform, SimError> {
        let clusters = self.clusters.len();
        self.clusters
            .get_mut(cluster)
            .ok_or(SimError::ClusterOutOfRange { cluster, clusters })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgov_units::Cycles;

    fn biglittle() -> ManyCorePlatform {
        ManyCorePlatform::new(Topology::new(vec![
            ClusterConfig::new("big", PlatformConfig::odroid_xu3_a15()),
            ClusterConfig::new("LITTLE", PlatformConfig::odroid_xu3_little()),
        ]))
        .unwrap()
    }

    #[test]
    fn presets_have_expected_shape() {
        let board = Topology::odroid_xu3_biglittle();
        assert_eq!(board.cluster_count(), 2);
        assert_eq!(board.total_cores(), 8);
        assert_eq!(board.clusters[0].name, "big");
        assert_eq!(board.clusters[1].name, "LITTLE");

        let mesh = Topology::homogeneous_mesh(4, PlatformConfig::odroid_xu3_a15());
        assert_eq!(mesh.total_cores(), 16);
        assert_eq!(mesh.clusters[3].name, "mesh3");

        assert_eq!(
            Topology::single(PlatformConfig::odroid_xu3_a15()).total_cores(),
            4
        );
    }

    #[test]
    fn empty_topology_is_rejected() {
        assert!(Topology::new(Vec::new()).validate().is_err());
        assert!(ManyCorePlatform::new(Topology::new(Vec::new())).is_err());
    }

    #[test]
    fn single_cluster_topology_is_bit_identical_to_the_platform() {
        let config = PlatformConfig::odroid_xu3_a15();
        let mut flat = Platform::new(config.clone()).unwrap();
        let mut chip = ManyCorePlatform::new(Topology::single(config)).unwrap();

        flat.set_cluster_opp(9);
        chip.set_cluster_opp(0, 9);

        let slices = vec![
            WorkSlice::cpu_only(Cycles::from_mcycles(25)),
            WorkSlice::new(Cycles::from_mcycles(40), SimTime::from_ms(3)),
            WorkSlice::IDLE,
            WorkSlice::cpu_only(Cycles::from_mcycles(8)),
        ];
        let work = vec![slices.clone()];
        let period = SimTime::from_ms(40);

        let mut slot = ManyCoreFrameResult::empty();
        for _ in 0..50 {
            let reference = flat.run_frame(&slices, period).unwrap();
            chip.run_frame_into(&work, period, &mut slot).unwrap();
            assert_eq!(slot.clusters[0], reference);
            assert_eq!(
                slot.energy.as_joules().to_bits(),
                reference.energy.as_joules().to_bits()
            );
            assert_eq!(slot.frame_time, reference.frame_time);
            assert_eq!(slot.wall_time, reference.wall_time);
        }
        assert_eq!(
            chip.total_energy().as_joules().to_bits(),
            flat.total_energy().as_joules().to_bits()
        );
        assert_eq!(chip.now(), flat.now());
        assert_eq!(chip.peak_temperature(), flat.peak_temperature());
        assert_eq!(chip.total_transitions(), flat.vf().transitions());
    }

    #[test]
    fn chip_barrier_reports_the_slowest_cluster() {
        let mut chip = biglittle();
        chip.set_cluster_opp(0, 18); // big at 2 GHz
        chip.set_cluster_opp(1, 0); // LITTLE at 200 MHz

        // 20 Mc: 10 ms on big, 100 ms on LITTLE — LITTLE overruns.
        let work = vec![
            vec![WorkSlice::cpu_only(Cycles::from_mcycles(20)); 4],
            vec![WorkSlice::cpu_only(Cycles::from_mcycles(20)); 4],
        ];
        let frame = chip.run_frame(&work, SimTime::from_ms(40)).unwrap();
        assert!(!frame.met_deadline());
        assert!(frame.frame_time >= SimTime::from_ms(100));
        assert!(frame.clusters[0].met_deadline());
        assert!(!frame.clusters[1].met_deadline());
        assert_eq!(
            frame.energy.as_joules().to_bits(),
            (frame.clusters[0].energy + frame.clusters[1].energy)
                .as_joules()
                .to_bits()
        );
    }

    #[test]
    fn per_cluster_opp_control_is_independent() {
        let mut chip = biglittle();
        chip.set_cluster_opp(0, 18);
        assert_eq!(chip.current_opp(0), 18);
        assert_eq!(chip.current_opp(1), 0);
        assert_eq!(chip.opp_table(0).len(), 19);
        assert_eq!(chip.opp_table(1).len(), 13);
        assert_eq!(chip.cluster_name(0), "big");
        assert!(matches!(
            chip.try_set_cluster_opp(2, 0),
            Err(SimError::ClusterOutOfRange {
                cluster: 2,
                clusters: 2
            })
        ));
        assert!(chip.try_set_cluster_opp(1, 13).is_err());
    }

    #[test]
    fn run_frame_into_validates_before_mutating() {
        let mut chip = biglittle();
        let mut slot = ManyCoreFrameResult::empty();
        let good = vec![
            vec![WorkSlice::cpu_only(Cycles::from_mcycles(5)); 4],
            vec![WorkSlice::cpu_only(Cycles::from_mcycles(5)); 4],
        ];
        chip.run_frame_into(&good, SimTime::from_ms(40), &mut slot)
            .unwrap();
        let before = slot.clone();
        let frames = chip.frames_run();

        // Wrong cluster count, wrong per-cluster core count, zero period:
        // all rejected with no cluster stepped and the slot untouched.
        let wrong_clusters = vec![good[0].clone()];
        let wrong_cores = vec![good[0].clone(), vec![WorkSlice::IDLE; 3]];
        let err = chip
            .run_frame_into(&wrong_clusters, SimTime::from_ms(40), &mut slot)
            .unwrap_err();
        assert_eq!(
            err,
            SimError::ClusterCountMismatch {
                clusters: 2,
                got: 1
            }
        );
        assert_eq!(
            err.to_string(),
            "work vector count 1 does not match cluster count 2"
        );
        assert!(matches!(
            chip.run_frame_into(&wrong_cores, SimTime::from_ms(40), &mut slot),
            Err(SimError::WorkLengthMismatch { cores: 4, got: 3 })
        ));
        assert!(chip
            .run_frame_into(&good, SimTime::ZERO, &mut slot)
            .is_err());
        assert_eq!(slot, before);
        assert_eq!(chip.frames_run(), frames);
        assert_eq!(chip.cluster(1).frames_run(), frames);
    }

    #[test]
    fn little_cluster_is_cheaper_on_the_same_light_work() {
        // The board's whole premise: for work both clusters can finish
        // in time, the A7 quad dissipates far less energy.
        let mut chip = biglittle();
        chip.set_cluster_opp(0, 18);
        chip.set_cluster_opp(1, 12);

        // 14 Mc fits the period on both (7 ms big, 10 ms LITTLE).
        let work = vec![
            vec![WorkSlice::cpu_only(Cycles::from_mcycles(14)); 4],
            vec![WorkSlice::cpu_only(Cycles::from_mcycles(14)); 4],
        ];
        let frame = chip.run_frame(&work, SimTime::from_ms(40)).unwrap();
        assert!(frame.clusters[0].met_deadline());
        assert!(frame.clusters[1].met_deadline());
        assert!(
            frame.clusters[1].energy.as_joules() < 0.5 * frame.clusters[0].energy.as_joules(),
            "LITTLE ({}) should be far cheaper than big ({})",
            frame.clusters[1].energy,
            frame.clusters[0].energy
        );
    }
}
