//! RTM configuration.

use qgov_rl::{AgentConfig, DecayingEpsilon, ExplorationKind, RlError};

/// How much per-epoch telemetry ([`EpochRecord`](crate::EpochRecord))
/// the RTM retains.
///
/// The paper's analyses (Fig. 3 series, the smoothing ablation's
/// misprediction statistics) read the **full** history, but a 100k+
/// frame long-horizon run must not grow O(frames) memory just to keep
/// telemetry nobody reads. The mode never influences decisions — only
/// what [`RtmGovernor::history`](crate::RtmGovernor::history) can
/// return afterwards — so experiment reports are bit-identical across
/// modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryMode {
    /// Keep every epoch's record (the default; O(frames) memory).
    Full,
    /// Keep (at least) the most recent `N` records in a bounded buffer
    /// (at most `2N` resident; amortised O(1), allocation-free after
    /// warm-up). The long-horizon experiments use this.
    LastN(usize),
}

impl HistoryMode {
    /// Validates the mode.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::EmptyDimension`] for `LastN(0)`.
    pub fn validate(&self) -> Result<(), RlError> {
        if let HistoryMode::LastN(n) = self {
            RlError::check_nonempty("history LastN window", *n)?;
        }
        Ok(())
    }
}

/// How the workload dimension of the Q-table state is formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateKind {
    /// Single-agent formulation of Section II-A applied to the whole
    /// V-F domain: the predicted **total** cycle count, discretised over
    /// the pre-characterised workload range. The natural choice on
    /// shared-rail hardware like the XU3's A15 cluster, and the
    /// default.
    TotalWorkload,
    /// The many-core formulation of Section II-D: per-core predicted
    /// workload normalised by the system total (Eq. 7), with one core's
    /// state/update per decision epoch in round-robin order on the
    /// shared Q-table.
    PerCoreShare,
}

/// Full parameterisation of the [`RtmGovernor`](crate::RtmGovernor).
#[derive(Debug, Clone, PartialEq)]
pub struct RtmConfig {
    /// Discretisation levels N of both the workload and the slack
    /// dimension (paper: 5).
    pub levels: usize,
    /// The learner's exploration rule (Eq. 2) and ε schedule (Eq. 6).
    /// α and γ of the Bellman update (Eq. 3), the convergence window
    /// and the optimistic initial-Q gradient are constants of
    /// [`qgov_rl::QLearningAgent`]; the pay-off is
    /// [`qgov_rl::slack_reward`] (Eq. 4).
    pub agent: AgentConfig,
    /// EWMA smoothing factor γ (Eq. 1; paper: 0.6).
    pub smoothing: f64,
    /// Workload range `(min, max)` in cycles from offline
    /// pre-characterisation (Section II-A). Required: `validate` rejects
    /// `None`, which only lets [`paper`](RtmConfig::paper) stay
    /// single-argument ahead of a
    /// [`with_workload_bounds`](RtmConfig::with_workload_bounds) call.
    pub workload_bounds: Option<(f64, f64)>,
    /// State formation (Section II-A vs II-D).
    pub state_kind: StateKind,
    /// How much per-epoch telemetry to retain (never affects
    /// decisions).
    pub history: HistoryMode,
    /// RNG seed for exploration sampling.
    pub seed: u64,
}

impl RtmConfig {
    /// The configuration reproducing the paper's reported setup:
    /// N = 5 workload and slack levels, EWMA γ = 0.6, EPD exploration
    /// and accelerated ε decay. It needs bounds: chain
    /// [`with_workload_bounds`](RtmConfig::with_workload_bounds).
    #[must_use]
    pub fn paper(seed: u64) -> Self {
        RtmConfig {
            levels: 5,
            agent: AgentConfig::default(),
            smoothing: 0.6,
            workload_bounds: None,
            state_kind: StateKind::TotalWorkload,
            history: HistoryMode::Full,
            seed,
        }
    }

    /// The uniform-exploration baseline of Table II (\[21\], Shen et
    /// al.): identical to [`paper`](RtmConfig::paper) except UPD
    /// exploration and the standard (slower) ε decay — isolating
    /// exactly the exploration-policy difference the paper measures.
    #[must_use]
    pub fn upd_baseline(seed: u64) -> Self {
        let mut config = Self::paper(seed);
        config.agent.exploration = ExplorationKind::Upd;
        config.agent.epsilon = DecayingEpsilon::new(1.0, 0.03, 0.01).expect("valid schedule");
        config
    }

    /// Sets offline pre-characterised workload bounds (total cycles per
    /// frame).
    #[must_use]
    pub fn with_workload_bounds(mut self, min: f64, max: f64) -> Self {
        self.workload_bounds = Some((min, max));
        self
    }

    /// Number of Q-table states this configuration spans
    /// (`levels × levels`).
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.levels * self.levels
    }

    /// Sets the telemetry retention mode (see [`HistoryMode`]).
    #[must_use]
    pub fn with_history(mut self, history: HistoryMode) -> Self {
        self.history = history;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns an [`RlError`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), RlError> {
        RlError::check_nonempty("levels", self.levels)?;
        self.agent.validate()?;
        RlError::check_probability("smoothing", self.smoothing)?;
        RlError::check_positive("smoothing", self.smoothing)?;
        match self.workload_bounds {
            Some((min, max)) if min.is_finite() && max.is_finite() && min < max && min >= 0.0 => {}
            bounds => {
                return Err(RlError::NotPositive {
                    name: "workload_bounds width",
                    value: bounds
                        .map_or_else(|| "none".to_owned(), |(min, max)| format!("({min}, {max})")),
                });
            }
        }
        self.history.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's configuration with offline bounds, valid as built.
    fn bounded(seed: u64) -> RtmConfig {
        RtmConfig::paper(seed).with_workload_bounds(1e6, 1e9)
    }

    #[test]
    fn paper_config_is_valid_and_matches_reported_constants() {
        let c = bounded(0);
        assert!(c.validate().is_ok());
        assert_eq!(c.levels, 5, "paper uses N = 5");
        assert_eq!(c.smoothing, 0.6, "paper determines gamma = 0.6");
        assert!(matches!(c.agent.exploration, ExplorationKind::Epd { .. }));
        assert_eq!(c.state_kind, StateKind::TotalWorkload);
    }

    #[test]
    fn upd_baseline_differs_only_in_exploration() {
        let ours = RtmConfig::paper(3);
        let upd = RtmConfig::upd_baseline(3);
        assert_eq!(upd.agent.exploration, ExplorationKind::Upd);
        assert_eq!(ours.levels, upd.levels);
        assert_eq!(ours.smoothing, upd.smoothing);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        // Bounds are required.
        assert!(RtmConfig::paper(0).validate().is_err());

        let mut c = bounded(0);
        c.levels = 0;
        assert!(c.validate().is_err());

        let mut c = bounded(0);
        c.smoothing = 0.0;
        assert!(c.validate().is_err());

        let mut c = bounded(0);
        c.agent.exploration = ExplorationKind::Epd {
            lambda: 0.0,
            beta: 2.0,
        };
        assert!(c.validate().is_err());

        let mut c = bounded(0);
        c.workload_bounds = Some((10.0, 5.0));
        assert!(c.validate().is_err());

        let mut c = bounded(0);
        c.history = HistoryMode::LastN(0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn history_mode_defaults_to_full_and_builder_overrides() {
        let c = bounded(0);
        assert_eq!(c.history, HistoryMode::Full);
        let c = c.with_history(HistoryMode::LastN(64));
        assert_eq!(c.history, HistoryMode::LastN(64));
        assert!(c.validate().is_ok());
        assert!(HistoryMode::LastN(0).validate().is_err());
    }

    #[test]
    fn with_workload_bounds_sets_bounds() {
        let c = RtmConfig::paper(0).with_workload_bounds(1e6, 1e9);
        assert_eq!(c.workload_bounds, Some((1e6, 1e9)));
        assert!(c.validate().is_ok());
    }
}
