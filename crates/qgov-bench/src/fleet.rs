//! Fleets: many independent RTM instances, run as one batch.
//!
//! A [`FleetSpec`] lists instances — an RTM configuration (seed
//! included), an application and a platform each — and [`run_fleet`]
//! queues one [`run_experiment`] per instance through an
//! [`ExperimentBatch`]. Instances never interact and the batch returns
//! results in push order, so every instance's report is the one
//! `run_experiment` gives for it alone, at any worker count
//! (`tests/fleet_determinism.rs`).

use crate::harness::run_experiment;
use crate::runner::{ExperimentBatch, RunnerConfig};
use qgov_core::{RtmConfig, RtmGovernor};
use qgov_metrics::{MetricSummary, RunReport};
use qgov_sim::{Platform, PlatformConfig};
use qgov_workloads::Application;

/// One fleet member: its RTM configuration (seed included), its
/// workload, and the platform it runs on.
struct FleetInstance {
    config: RtmConfig,
    app: Box<dyn Application + Send>,
    platform: PlatformConfig,
}

/// A fleet run's specification: the instances and the frame horizon.
/// Seed, workload, reward, ε schedule and platform may all vary per
/// instance.
pub struct FleetSpec {
    instances: Vec<FleetInstance>,
    frames: u64,
}

impl FleetSpec {
    /// An empty spec with a `frames` horizon (per instance, capped at
    /// each application's own length).
    #[must_use]
    pub fn new(frames: u64) -> Self {
        FleetSpec {
            instances: Vec::new(),
            frames,
        }
    }

    /// Appends one instance.
    pub fn push(
        &mut self,
        config: RtmConfig,
        app: Box<dyn Application + Send>,
        platform: PlatformConfig,
    ) {
        self.instances.push(FleetInstance {
            config,
            app,
            platform,
        });
    }

    /// A uniform fleet: one instance per seed, each with `base`
    /// re-seeded, a fresh application from `app`, and the same
    /// platform — the fleet face of a seed sweep.
    #[must_use]
    pub fn uniform(
        base: &RtmConfig,
        seeds: &[u64],
        platform: &PlatformConfig,
        frames: u64,
        mut app: impl FnMut(u64) -> Box<dyn Application + Send>,
    ) -> Self {
        let mut spec = FleetSpec::new(frames);
        for &seed in seeds {
            let mut config = base.clone();
            config.seed = seed;
            spec.push(config, app(seed), platform.clone());
        }
        spec
    }

    /// Number of instances.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// `true` when no instances were added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }
}

/// Everything a finished fleet run yields: one report and final
/// platform per instance (in instance order), plus the total frame
/// count.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Per-instance run reports, in instance order.
    pub reports: Vec<RunReport>,
    /// Per-instance final platforms, in instance order.
    pub platforms: Vec<Platform>,
    /// Total decision epochs executed across all instances.
    pub total_frames: u64,
}

impl FleetOutcome {
    /// Folds one per-instance metric across the fleet into a
    /// `mean ± σ (n)` aggregate — e.g.
    /// `outcome.summarize(|r| r.miss_rate())`.
    #[must_use]
    pub fn summarize(&self, metric: impl Fn(&RunReport) -> f64) -> MetricSummary {
        let samples: Vec<f64> = self.reports.iter().map(metric).collect();
        MetricSummary::from_samples(&samples)
    }
}

/// Runs every instance of a fleet to completion under the given
/// execution policy: one [`run_experiment`] per instance, drained by an
/// [`ExperimentBatch`] and returned in instance order, so the worker
/// count never changes any instance's results.
///
/// # Panics
///
/// Panics if an instance's RTM configuration is invalid.
#[must_use]
pub fn run_fleet(spec: FleetSpec, runner: &RunnerConfig) -> FleetOutcome {
    let frames = spec.frames;
    let mut batch = ExperimentBatch::new();
    for (i, instance) in spec.instances.into_iter().enumerate() {
        let FleetInstance {
            config,
            mut app,
            platform,
        } = instance;
        batch.push(format!("fleet-{i}"), move || {
            let mut rtm = RtmGovernor::new(config).expect("valid RTM configuration");
            run_experiment(&mut rtm, app.as_mut(), platform, frames)
        });
    }
    let mut outcome = FleetOutcome {
        reports: Vec::new(),
        platforms: Vec::new(),
        total_frames: 0,
    };
    for run in batch.run(runner) {
        outcome.total_frames += run.report.frames();
        outcome.reports.push(run.report);
        outcome.platforms.push(run.platform);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgov_sim::SensorConfig;
    use qgov_units::{Cycles, SimTime};
    use qgov_workloads::SyntheticWorkload;

    fn quiet_config() -> PlatformConfig {
        PlatformConfig {
            sensor: SensorConfig::ideal(),
            ..PlatformConfig::odroid_xu3_a15()
        }
    }

    fn noisy_app(frames: u64, seed: u64) -> SyntheticWorkload {
        SyntheticWorkload::constant(
            "fleet",
            Cycles::from_mcycles(120),
            SimTime::from_ms(40),
            frames,
            4,
            seed,
        )
        .with_noise(0.15)
    }

    fn rtm_config(seed: u64) -> RtmConfig {
        RtmConfig::paper(seed).with_workload_bounds(1e8, 1e9)
    }

    #[test]
    fn ragged_horizons_finish_independently() {
        let mut spec = FleetSpec::new(1_000);
        spec.push(rtm_config(1), Box::new(noisy_app(50, 1)), quiet_config());
        spec.push(rtm_config(2), Box::new(noisy_app(120, 2)), quiet_config());
        let outcome = run_fleet(spec, &RunnerConfig::serial());
        assert_eq!(outcome.reports[0].frames(), 50);
        assert_eq!(outcome.reports[1].frames(), 120);
        assert_eq!(outcome.total_frames, 170);
    }

    #[test]
    fn summarize_folds_across_instances() {
        let frames = 80;
        let spec = FleetSpec::uniform(&rtm_config(0), &[1, 2, 3], &quiet_config(), frames, |s| {
            Box::new(noisy_app(frames, s))
        });
        let outcome = run_fleet(spec, &RunnerConfig::serial());
        let perf = outcome.summarize(RunReport::normalized_performance);
        assert_eq!(perf.n, 3);
        assert!(perf.mean > 0.0);
    }
}
