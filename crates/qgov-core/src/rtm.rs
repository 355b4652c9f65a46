//! The run-time manager.

use crate::degrade::{HardeningConfig, PlausibilityFilter};
use crate::{HistoryMode, RtmConfig, StateKind, StateMapper};
use qgov_governors::{EpochObservation, Governor, GovernorContext, SlackTracker, VfDecision};
use qgov_rl::{slack_reward, ActionSpace, EwmaPredictor, QLearningAgent, QTable, RlError};
use qgov_sim::{FrameResult, OppTable};
use qgov_units::SimTime;

/// The sensing and processing shares of the paper's `T_OVH` (Section
/// III-D), as a kernel-space governor on an A15 pays them: one PMU
/// sample per core, a fixed decision cost (slack update, reward,
/// bookkeeping), and the Bellman update plus argmax scan per action.
/// V-F transition latency, the third share, is charged by the platform.
const SAMPLE_PER_CORE: SimTime = SimTime::from_us(5);
const BASE_PROCESSING: SimTime = SimTime::from_us(15);
const PER_ACTION: SimTime = SimTime::from_ns(200);

/// Epochs in the sliding window of the average slack ratio `L`
/// (Eq. 5). A short window keeps `L` responsive enough for per-action
/// credit assignment; the paper bounds `D` by restarting it whenever
/// `T_ref` changes.
const SLACK_WINDOW: usize = 8;

/// One decision epoch's telemetry, recorded by the RTM for analysis
/// (drives the Fig. 3 misprediction/slack series).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRecord {
    /// Zero-based epoch index.
    pub epoch: u64,
    /// Total workload the RTM had predicted for this frame (cycles);
    /// zero for the very first frame, before any prediction existed.
    pub predicted_total_cycles: f64,
    /// Total workload the frame actually demanded (cycles).
    pub actual_total_cycles: f64,
    /// This frame's raw slack ratio.
    pub frame_slack: f64,
    /// The average slack ratio `L` after this frame (Eq. 5).
    pub avg_slack: f64,
    /// Q-table state selected for the next frame.
    pub state: usize,
    /// Action (OPP index) selected for the next frame.
    pub action: usize,
    /// Exploration probability ε at selection time.
    pub epsilon: f64,
    /// Cumulative exploratory selections so far.
    pub explorations: u64,
}

impl EpochRecord {
    /// Relative misprediction `|predicted − actual| / actual` of this
    /// frame's workload (zero when no prediction existed yet).
    #[must_use]
    pub fn misprediction(&self) -> f64 {
        if self.actual_total_cycles <= 0.0 || self.predicted_total_cycles <= 0.0 {
            0.0
        } else {
            (self.predicted_total_cycles - self.actual_total_cycles).abs()
                / self.actual_total_cycles
        }
    }
}

/// Bounded per-epoch telemetry storage behind
/// [`RtmGovernor::history`], parameterised by [`HistoryMode`].
///
/// `LastN(n)` is a *compacting* ring: records append into a buffer of
/// fixed capacity `2n`; when it fills, the older half is discarded by
/// one `memmove` (amortised O(1) per push, allocation-free after the
/// buffer's one-time reservation) so the retained tail is always a
/// plain chronological slice — which is what lets `history()` keep its
/// `&[EpochRecord]` return type across modes.
#[derive(Debug)]
struct EpochHistory {
    mode: HistoryMode,
    records: Vec<EpochRecord>,
}

impl EpochHistory {
    fn new(mode: HistoryMode) -> Self {
        let records = match mode {
            HistoryMode::LastN(n) => Vec::with_capacity(2 * n),
            HistoryMode::Full => Vec::new(),
        };
        EpochHistory { mode, records }
    }

    fn push(&mut self, record: EpochRecord) {
        match self.mode {
            HistoryMode::Full => self.records.push(record),
            HistoryMode::LastN(n) => {
                if self.records.len() == 2 * n {
                    self.records.copy_within(n.., 0);
                    self.records.truncate(n);
                }
                self.records.push(record);
            }
        }
    }

    fn as_slice(&self) -> &[EpochRecord] {
        match self.mode {
            HistoryMode::Full => &self.records,
            HistoryMode::LastN(n) => &self.records[self.records.len().saturating_sub(n)..],
        }
    }
}

/// The paper's Q-learning run-time manager, usable as a drop-in
/// [`Governor`].
///
/// See the [crate documentation](crate) for the algorithm outline and an
/// example.
#[derive(Debug)]
pub struct RtmGovernor {
    config: RtmConfig,
    /// The learning agent, rebuilt by every `init` for the platform's
    /// action space.
    agent: Option<QLearningAgent>,
    /// The platform's operating points (set at `init`).
    table: Option<OppTable>,
    cores: usize,
    /// Built by `init` from the configured workload bounds.
    mapper: Option<StateMapper>,
    predictors: Vec<EwmaPredictor>,
    slack: SlackTracker,
    rr_core: usize,
    last_prediction_total: f64,
    last_frame_slack: f64,
    history: EpochHistory,
    /// Scratch buffers reused every epoch so the steady-state decide
    /// path performs no heap allocation (sized to the core count at
    /// `init`).
    scratch_actual: Vec<f64>,
    scratch_predicted: Vec<f64>,
    /// Set by [`with_hardening`](RtmGovernor::with_hardening): routes
    /// every observation through a plausibility filter first.
    hardened: bool,
    /// The live filter (rebuilt fresh on every `init`).
    filter: Option<PlausibilityFilter>,
    /// Reusable governor-side copy of the sensed frame, so filtering
    /// never mutates the caller's observation and never allocates in
    /// steady state.
    sensed_scratch: FrameResult,
    /// Epochs spent parked in the quarantined safe state.
    safe_state_epochs: u64,
}

impl RtmGovernor {
    /// Creates an RTM from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns an [`RlError`] naming the offending parameter.
    pub fn new(config: RtmConfig) -> Result<Self, RlError> {
        config.validate()?;
        Ok(RtmGovernor {
            history: EpochHistory::new(config.history),
            config,
            agent: None,
            table: None,
            cores: 0,
            mapper: None,
            predictors: Vec::new(),
            slack: SlackTracker::new(SLACK_WINDOW),
            rr_core: 0,
            last_prediction_total: 0.0,
            last_frame_slack: 0.0,
            scratch_actual: Vec::new(),
            scratch_predicted: Vec::new(),
            hardened: false,
            filter: None,
            sensed_scratch: FrameResult::empty(),
            safe_state_epochs: 0,
        })
    }

    /// Hardens the governor against faulty sensors: every observation
    /// passes a [`PlausibilityFilter`] before it reaches the learning
    /// loop (implausible readings are replaced by last-good values),
    /// and after five consecutive rejections the governor parks the
    /// cluster at its top OPP — without learning from the garbage —
    /// until a plausible reading arrives. See [`PlausibilityFilter`].
    #[must_use]
    pub fn with_hardening(mut self, _hardening: HardeningConfig) -> Self {
        self.hardened = true;
        self
    }

    /// Epochs that ran on substituted or safe-state data (0 for a
    /// naive governor).
    #[must_use]
    pub fn degraded_epochs(&self) -> u64 {
        self.filter
            .as_ref()
            .map_or(0, PlausibilityFilter::degraded_epochs)
    }

    /// Epochs spent parked at the top OPP while quarantined.
    #[must_use]
    pub fn safe_state_epochs(&self) -> u64 {
        self.safe_state_epochs
    }

    /// The learnt Q-table (empty rows until learning starts).
    ///
    /// # Panics
    ///
    /// Panics if called before [`Governor::init`].
    #[must_use]
    pub fn q_table(&self) -> &QTable {
        self.agent
            .as_ref()
            .expect("init() builds the agent")
            .q_table()
    }

    /// Cumulative exploratory (non-greedy) selections.
    #[must_use]
    pub fn exploration_count(&self) -> u64 {
        self.agent
            .as_ref()
            .map_or(0, QLearningAgent::exploration_count)
    }

    /// Explorations frozen at first convergence — the Table II measure.
    #[must_use]
    pub fn explorations_to_convergence(&self) -> Option<u64> {
        self.agent
            .as_ref()
            .and_then(QLearningAgent::explorations_to_convergence)
    }

    /// First convergence epoch — the Table III learning-overhead
    /// measure.
    #[must_use]
    pub fn converged_at(&self) -> Option<u64> {
        self.agent.as_ref().and_then(QLearningAgent::converged_at)
    }

    /// Length of the exploration phase in decision epochs: how long the
    /// ε schedule (Eq. 6) takes to decay to its exploitation floor. This
    /// is the period during which every epoch pays the full learning
    /// overhead (sampling + processing + exploratory V-F switches) —
    /// the paper's Table III quantity.
    #[must_use]
    pub fn exploration_phase_epochs(&self) -> u64 {
        self.config.agent.epsilon.epochs_to_floor()
    }

    /// Current exploration probability ε.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.agent.as_ref().map_or(1.0, QLearningAgent::epsilon)
    }

    /// `true` once ε has decayed to its floor (exploitation phase).
    #[must_use]
    pub fn is_exploitation(&self) -> bool {
        self.agent
            .as_ref()
            .is_some_and(QLearningAgent::is_exploitation)
    }

    /// The current average slack ratio `L`.
    #[must_use]
    pub fn avg_slack(&self) -> f64 {
        self.slack.average()
    }

    /// Per-epoch telemetry retained so far, in chronological order.
    ///
    /// What this covers depends on the configured [`HistoryMode`]:
    /// every epoch under [`HistoryMode::Full`] (the default), and at
    /// least the most recent `N` epochs under [`HistoryMode::LastN`].
    /// The mode never influences decisions, only retention.
    #[must_use]
    pub fn history(&self) -> &[EpochRecord] {
        self.history.as_slice()
    }

    /// The state mapper, once [`Governor::init`] has built it from the
    /// configured workload bounds.
    #[must_use]
    pub fn state_mapper(&self) -> Option<&StateMapper> {
        self.mapper.as_ref()
    }

    /// The platform's operating points.
    fn table(&self) -> &OppTable {
        self.table.as_ref().expect("init() sets the OPP table")
    }

    /// One full RTM decision epoch on `frame` — pay-off, prediction,
    /// Bellman update + proactive selection, telemetry.
    fn learn(&mut self, frame: &FrameResult, epoch: u64) -> VfDecision {
        // --- Step 1 (Section II): pay-off for the elapsed interval. ---
        // The state and the EPD bias use the average slack ratio L
        // (Eq. 5); the pay-off's level term uses the *instantaneous*
        // frame slack so the credit lands on the action that caused it
        // (the paper's L averages over D epochs, but D restarts with
        // every T_ref change, keeping it similarly responsive).
        let raw_frame_slack = frame.frame_slack();
        let frame_slack = raw_frame_slack.clamp(-1.0, 1.0);
        self.slack.observe(frame_slack);
        let l = self.slack.average();
        let reward = slack_reward(frame_slack, self.last_frame_slack);
        self.last_frame_slack = frame_slack;

        // Workload observation and EWMA prediction (Eq. 1), folded
        // through the reusable scratch buffers (sized at `init`) so the
        // steady-state epoch performs no heap allocation.
        self.scratch_actual.clear();
        self.scratch_actual
            .extend(frame.per_core_cycles.iter().map(|c| c.count() as f64));
        let actual_total: f64 = self.scratch_actual.iter().sum();
        let predicted_for_this_frame = self.last_prediction_total;
        for (p, &a) in self.predictors.iter_mut().zip(&self.scratch_actual) {
            p.observe(a);
        }
        for (slot, p) in self.scratch_predicted.iter_mut().zip(&self.predictors) {
            *slot = p.predict();
        }
        let predicted_total: f64 = self.scratch_predicted.iter().sum();
        self.last_prediction_total = predicted_total;

        // --- Steps 2 + 3: Bellman update and proactive selection. ---
        let mapper = self.mapper.as_ref().expect("init() builds it");
        let state = match self.config.state_kind {
            StateKind::TotalWorkload => mapper.state_for_total(predicted_total, l),
            StateKind::PerCoreShare => {
                // Only the round-robin core's share is needed, so the
                // Eq. 7 normalisation runs scalar (bit-identical to
                // indexing `normalize_shares`) instead of materialising
                // the share vector every epoch.
                let share = StateMapper::share_of(&self.scratch_predicted, self.rr_core);
                let s = mapper.state_for_share(share, l);
                self.rr_core = (self.rr_core + 1) % self.cores;
                s
            }
        };
        let action = self
            .agent
            .as_mut()
            .expect("init() builds the agent")
            .begin_epoch(state, reward, l);

        self.history.push(EpochRecord {
            epoch,
            predicted_total_cycles: predicted_for_this_frame,
            actual_total_cycles: actual_total,
            frame_slack: raw_frame_slack,
            avg_slack: l,
            state,
            action,
            epsilon: self.epsilon(),
            explorations: self.exploration_count(),
        });
        VfDecision::Cluster(action)
    }
}

impl Governor for RtmGovernor {
    fn name(&self) -> &str {
        "rtm"
    }

    fn init(&mut self, ctx: &GovernorContext) -> VfDecision {
        let config = &self.config;
        let cores = ctx.cores();
        self.agent = Some(QLearningAgent::new(
            config.agent.clone(),
            config.state_count(),
            ActionSpace::from_freqs_ghz(&ctx.opp_table().freqs_ghz()),
            config.seed,
        ));
        self.table = Some(ctx.opp_table().clone());
        self.cores = cores;
        let (min, max) = config.workload_bounds.expect("validated bounds");
        self.mapper = Some(
            StateMapper::from_bounds(min, max, config.levels, cores).expect("validated bounds"),
        );
        self.predictors = (0..cores)
            .map(|_| EwmaPredictor::new(config.smoothing).expect("validated"))
            .collect();
        self.slack = SlackTracker::new(SLACK_WINDOW);
        self.rr_core = 0;
        self.last_prediction_total = 0.0;
        self.last_frame_slack = 0.0;
        self.history = EpochHistory::new(config.history);
        // One-time sizing of the per-epoch scratch buffers: after this,
        // the steady-state decide path never touches the heap.
        self.scratch_actual = Vec::with_capacity(cores);
        self.scratch_predicted = vec![0.0; cores];

        // A hardened governor gets a fresh filter per run: last-good
        // history and counters do not persist.
        self.filter = self.hardened.then(PlausibilityFilter::new);
        self.sensed_scratch = FrameResult::empty();
        self.safe_state_epochs = 0;

        // Conservative start: the highest point, as a fresh governor
        // knows nothing about the workload yet.
        VfDecision::Cluster(ctx.opp_table().max_index())
    }

    fn decide(&mut self, obs: &EpochObservation<'_>) -> VfDecision {
        let Some(filter) = self.filter.as_mut() else {
            return self.learn(obs.frame, obs.epoch);
        };
        self.sensed_scratch.copy_from(obs.frame);
        filter.admit(&mut self.sensed_scratch);
        if filter.quarantined() {
            // Sensors untrustworthy: park at the top OPP, the
            // deadline-conservative safe state, and do not let the agent
            // learn from garbage (ε stays frozen, which keeps its decay
            // monotone).
            self.safe_state_epochs += 1;
            return VfDecision::Cluster(self.table().max_index());
        }
        // Learn from the filtered copy, then put it back so its vectors
        // keep their capacity.
        let sensed = std::mem::replace(&mut self.sensed_scratch, FrameResult::empty());
        let decision = self.learn(&sensed, obs.epoch);
        self.sensed_scratch = sensed;
        decision
    }

    fn processing_overhead(&self) -> SimTime {
        // Pre-init estimate: one core, a typical 19-point table.
        let (cores, actions) = self
            .table
            .as_ref()
            .map_or((1, 19), |table| (self.cores.max(1), table.len()));
        SAMPLE_PER_CORE * cores as u64 + BASE_PROCESSING + PER_ACTION * actions as u64
    }

    fn exploration_epsilon(&self) -> Option<f64> {
        Some(self.epsilon())
    }

    fn has_converged(&self) -> Option<bool> {
        Some(self.converged_at().is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgov_sim::{Platform, PlatformConfig, WorkSlice};
    use qgov_units::Cycles;
    use qgov_workloads::{Application, SyntheticWorkload};

    /// The paper's configuration over one offline workload range that
    /// spans every synthetic load below (100–160 Mcycles per frame).
    fn paper(seed: u64) -> RtmConfig {
        RtmConfig::paper(seed).with_workload_bounds(5e7, 2.5e8)
    }

    fn platform() -> Platform {
        Platform::new(PlatformConfig::odroid_xu3_a15()).unwrap()
    }

    /// Drives the RTM against a live platform + application for `frames`
    /// epochs; returns (rtm, met, missed) deadline counts over the last
    /// `tail` frames.
    fn drive(
        mut rtm: RtmGovernor,
        app: &mut dyn Application,
        frames: u64,
        tail: u64,
    ) -> (RtmGovernor, u64, u64) {
        let mut platform = platform();
        let ctx =
            GovernorContext::new(platform.opp_table().clone(), platform.cores(), app.period());
        let first = rtm.init(&ctx);
        platform.set_cluster_opp(first.resolve_cluster(platform.current_opp()));

        let mut met = 0;
        let mut missed = 0;
        for epoch in 0..frames {
            let demand = app.next_frame();
            let work: Vec<WorkSlice> = (0..platform.cores())
                .map(|c| {
                    demand.threads.get(c).map_or(WorkSlice::IDLE, |t| {
                        WorkSlice::new(t.cpu_cycles, t.mem_time)
                    })
                })
                .collect();
            let frame = platform.run_frame(&work, app.period()).unwrap();
            if epoch >= frames - tail {
                if frame.met_deadline() {
                    met += 1;
                } else {
                    missed += 1;
                }
            }
            let d = rtm.decide(&EpochObservation {
                frame: &frame,
                epoch,
            });
            let opp = d.resolve_cluster(platform.current_opp());
            platform.set_cluster_opp(opp);
            platform.add_overhead(rtm.processing_overhead());
        }
        (rtm, met, missed)
    }

    #[test]
    fn learns_to_meet_deadlines_on_steady_workload() {
        // 40 Mcycles/core in 40 ms needs exactly 1 GHz: feasible from
        // index 8 up.
        let mut app = SyntheticWorkload::constant(
            "steady",
            Cycles::from_mcycles(160),
            SimTime::from_ms(40),
            400,
            4,
            5,
        );
        let rtm = RtmGovernor::new(paper(42)).unwrap();
        let (rtm, met, missed) = drive(rtm, &mut app, 400, 100);
        assert!(
            met >= 95,
            "converged RTM should meet almost all deadlines (met {met}, missed {missed})"
        );
        assert!(rtm.is_exploitation(), "epsilon should have decayed");
        // It must NOT have settled at the top OPP: that wastes energy.
        let last_actions: Vec<usize> = rtm
            .history()
            .iter()
            .rev()
            .take(50)
            .map(|r| r.action)
            .collect();
        let avg_action: f64 = last_actions.iter().sum::<usize>() as f64 / last_actions.len() as f64;
        assert!(
            avg_action < 17.0,
            "RTM should not race at the top OPP (avg action {avg_action:.1})"
        );
        assert!(
            avg_action >= 7.0,
            "RTM cannot run below the feasibility floor (avg action {avg_action:.1})"
        );
    }

    #[test]
    fn ewma_prediction_tracks_workload() {
        let mut app = SyntheticWorkload::constant(
            "steady",
            Cycles::from_mcycles(120),
            SimTime::from_ms(40),
            120,
            4,
            5,
        );
        let rtm = RtmGovernor::new(paper(1)).unwrap();
        let (rtm, _, _) = drive(rtm, &mut app, 120, 0);
        // After warm-up, predictions should be within 1 % on a constant
        // workload.
        for r in rtm.history().iter().skip(20) {
            assert!(
                r.misprediction() < 0.01,
                "epoch {}: misprediction {:.3}",
                r.epoch,
                r.misprediction()
            );
        }
    }

    #[test]
    fn converges_and_freezes_exploration_count() {
        let mut app = SyntheticWorkload::constant(
            "steady",
            Cycles::from_mcycles(160),
            SimTime::from_ms(40),
            500,
            4,
            9,
        );
        let rtm = RtmGovernor::new(paper(7)).unwrap();
        let (rtm, _, _) = drive(rtm, &mut app, 500, 0);
        assert!(rtm.converged_at().is_some(), "must converge on steady load");
        let frozen = rtm.explorations_to_convergence().unwrap();
        assert!(frozen <= rtm.exploration_count());
        assert!(frozen > 0, "learning requires some exploration");
    }

    #[test]
    fn epd_explores_less_than_upd() {
        let run = |config: RtmConfig| {
            let mut app = SyntheticWorkload::constant(
                "steady",
                Cycles::from_mcycles(160),
                SimTime::from_ms(40),
                600,
                4,
                11,
            )
            .with_noise(0.1);
            let rtm = RtmGovernor::new(config).unwrap();
            let (rtm, _, _) = drive(rtm, &mut app, 600, 0);
            rtm.explorations_to_convergence()
                .unwrap_or_else(|| rtm.exploration_count())
        };
        let epd = run(paper(3));
        let upd = run(RtmConfig::upd_baseline(3).with_workload_bounds(5e7, 2.5e8));
        assert!(
            epd < upd,
            "EPD should need fewer explorations (epd {epd}, upd {upd})"
        );
    }

    #[test]
    fn per_core_share_state_kind_runs() {
        let mut app = SyntheticWorkload::constant(
            "steady",
            Cycles::from_mcycles(160),
            SimTime::from_ms(40),
            200,
            4,
            13,
        );
        let mut config = paper(5);
        config.state_kind = StateKind::PerCoreShare;
        let rtm = RtmGovernor::new(config).unwrap();
        let (_rtm, met, _) = drive(rtm, &mut app, 200, 50);
        assert!(
            met >= 40,
            "PerCoreShare formulation must still work (met {met})"
        );
    }

    #[test]
    fn learning_starts_at_epoch_zero() {
        let mut app = SyntheticWorkload::constant(
            "steady",
            Cycles::from_mcycles(160),
            SimTime::from_ms(40),
            60,
            4,
            13,
        );
        let rtm = RtmGovernor::new(paper(5)).unwrap();
        let (rtm, _, _) = drive(rtm, &mut app, 60, 0);
        assert!(rtm.state_mapper().is_some());
        // The bounds map the first frame's load onto the grid, so
        // non-trivial states are recorded from the first epochs on.
        assert!(rtm.history().iter().skip(1).any(|r| r.state != 0));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = |seed: u64| {
            let mut app = SyntheticWorkload::constant(
                "steady",
                Cycles::from_mcycles(100),
                SimTime::from_ms(40),
                150,
                4,
                2,
            )
            .with_noise(0.15);
            let rtm = RtmGovernor::new(paper(seed)).unwrap();
            let (rtm, _, _) = drive(rtm, &mut app, 150, 0);
            rtm.history()
                .iter()
                .map(|r| (r.action, r.state))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(21), run(21));
        assert_ne!(run(21), run(22));
    }

    #[test]
    fn processing_overhead_is_realistic() {
        let rtm = RtmGovernor::new(paper(0)).unwrap();
        let t = rtm.processing_overhead();
        assert!(t >= SimTime::from_us(10));
        assert!(t <= SimTime::from_us(200), "got {t}");

        // After `init` it scales with the cores sampled and the actions
        // scanned: tens of microseconds on the paper's quad, 5 µs × 4
        // cores + 15 µs + 0.2 µs × 19 OPPs.
        let overhead = |table: OppTable, cores: usize| {
            let mut rtm = RtmGovernor::new(paper(0)).unwrap();
            rtm.init(&GovernorContext::new(table, cores, SimTime::from_ms(40)));
            rtm.processing_overhead()
        };
        let a15 = OppTable::odroid_xu3_a15;
        assert_eq!(overhead(a15(), 4), SimTime::from_ns(38_800));
        assert!(overhead(a15(), 8) > overhead(a15(), 4));
        assert!(overhead(a15(), 4) > overhead(OppTable::odroid_xu3_a7(), 4));
    }

    #[test]
    fn history_mode_bounds_memory_without_changing_decisions() {
        let run = |history: HistoryMode| {
            let mut app = SyntheticWorkload::constant(
                "steady",
                Cycles::from_mcycles(120),
                SimTime::from_ms(40),
                300,
                4,
                2,
            )
            .with_noise(0.1);
            let config = paper(11).with_history(history);
            let rtm = RtmGovernor::new(config).unwrap();
            drive(rtm, &mut app, 300, 50)
        };

        let (full, met_full, _) = run(HistoryMode::Full);
        let (ring, met_ring, _) = run(HistoryMode::LastN(64));

        // Telemetry retention never influences decisions.
        assert_eq!(met_full, met_ring);
        assert_eq!(full.exploration_count(), ring.exploration_count());

        // Retention semantics: Full keeps everything, LastN the recent
        // tail (chronological, identical to Full's tail).
        assert_eq!(full.history().len(), 300);
        assert_eq!(ring.history().len(), 64);
        assert_eq!(ring.history(), &full.history()[300 - 64..]);
    }

    #[test]
    fn last_n_ring_is_chronological_below_capacity() {
        let mut app = SyntheticWorkload::constant(
            "steady",
            Cycles::from_mcycles(120),
            SimTime::from_ms(40),
            40,
            4,
            2,
        );
        let config = paper(1).with_history(HistoryMode::LastN(64));
        let rtm = RtmGovernor::new(config).unwrap();
        let (rtm, _, _) = drive(rtm, &mut app, 40, 0);
        assert_eq!(rtm.history().len(), 40);
        let epochs: Vec<u64> = rtm.history().iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn misprediction_helper() {
        let mut r = EpochRecord {
            epoch: 0,
            predicted_total_cycles: 110.0,
            actual_total_cycles: 100.0,
            frame_slack: 0.0,
            avg_slack: 0.0,
            state: 0,
            action: 0,
            epsilon: 1.0,
            explorations: 0,
        };
        assert!((r.misprediction() - 0.1).abs() < 1e-12);
        r.predicted_total_cycles = 0.0;
        assert_eq!(r.misprediction(), 0.0);
    }
}
