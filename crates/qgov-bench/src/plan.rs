//! The run plan: every value a caller can set about one experiment run.
//!
//! A [`RunPlan`] names the seeds, the frame horizon, the worker policy,
//! the temporal-monitor pack, the fault schedule and the bench pass
//! count. Every experiment family runs from one
//! ([`Experiment::run`](crate::experiments::Experiment::run)), campaign
//! cells build one per seed, and [`RunPlan::from_env`] is the one place
//! the `QGOV_*` environment variables are read — an invalid value is a
//! typed [`PlanError`], never a silent fallback.
//!
//! ```
//! use qgov_bench::experiments::{Experiment, Table3};
//! use qgov_bench::plan::RunPlan;
//! use qgov_bench::runner::RunnerConfig;
//!
//! let plan = RunPlan {
//!     runner: RunnerConfig::serial(),
//!     ..RunPlan::new(vec![1, 2], 80)
//! };
//! let per_seed = Table3::run(&plan);
//! assert_eq!(per_seed.len(), 2);
//! assert_eq!(plan.describe(), "80 frames, 2 seeds (1..=2), runner: serial");
//! ```

use crate::runner::RunnerConfig;
use qgov_metrics::PackConfig;
use std::fmt;

/// What one experiment run is asked to do. Only the seeds and the
/// horizon change results; the worker policy and pass count change
/// wall-clock only.
#[derive(Debug, Clone, PartialEq)]
pub struct RunPlan {
    /// Seeds, in run order: one typed result per seed. Duplicates are
    /// kept and weight a fold; order never changes a folded metric.
    pub seeds: Vec<u64>,
    /// Frames every cell replays (`QGOV_FRAMES`).
    pub frames: u64,
    /// How the plan's cells are scheduled (`QGOV_WORKERS`).
    pub runner: RunnerConfig,
    /// The temporal property pack riding every long-horizon,
    /// big.LITTLE and mesh cell; `None` runs them unmonitored.
    pub pack: Option<PackConfig>,
    /// Whether fault-storm cells inject the standard fault schedule
    /// (`QGOV_FAULTS`); `false` replays the empty plan.
    pub faults: bool,
    /// Timed passes a bench target makes (`QGOV_BENCH_PASSES`).
    pub passes: usize,
}

/// The largest bare seed count `QGOV_SEEDS` accepts: a bare number is
/// a *count*, so a seed *value* written there (`QGOV_SEEDS=2017`) is
/// rejected instead of launching thousands of runs.
const MAX_SEED_COUNT: u64 = 1_000;

impl RunPlan {
    /// A plan over `seeds` at a `frames` horizon with the defaults:
    /// parallel on every core, unmonitored, the standard fault
    /// schedule, three bench passes.
    #[must_use]
    pub fn new(seeds: Vec<u64>, frames: u64) -> Self {
        RunPlan {
            seeds,
            frames,
            runner: RunnerConfig::default(),
            pack: None,
            faults: true,
            passes: 3,
        }
    }

    /// `defaults` with every set `QGOV_FRAMES`, `QGOV_SEEDS`,
    /// `QGOV_WORKERS`, `QGOV_FAULTS` and `QGOV_BENCH_PASSES` value
    /// applied. A bare `QGOV_SEEDS` count `n` runs the `n` consecutive
    /// seeds from the first default seed; unset or blank variables keep
    /// the default.
    ///
    /// # Errors
    ///
    /// A [`PlanError`] naming the first variable whose value is not one
    /// of its accepted forms.
    pub fn from_env(defaults: RunPlan) -> Result<RunPlan, PlanError> {
        defaults.with_vars(|name| std::env::var(name).ok())
    }

    fn with_vars(mut self, var: impl Fn(&str) -> Option<String>) -> Result<RunPlan, PlanError> {
        let set = |name: &'static str| {
            var(name)
                .map(|v| v.trim().to_owned())
                .filter(|v| !v.is_empty())
                .map(|value| (name, value))
        };
        if let Some((name, value)) = set("QGOV_FRAMES") {
            self.frames = positive(&value).ok_or_else(|| {
                PlanError::new(name, &value, "a positive frame count such as 20000")
            })?;
        }
        if let Some((name, value)) = set("QGOV_SEEDS") {
            let base = self.seeds.first().copied().unwrap_or(0);
            self.seeds = parse_seeds(&value, base).ok_or_else(|| {
                PlanError::new(
                    name,
                    &value,
                    "a seed count from 1 to 1000, or a comma-separated seed list \
                     such as 2017,5,77 (write 2017, for the single seed 2017)",
                )
            })?;
        }
        if let Some((name, value)) = set("QGOV_WORKERS") {
            self.runner = if value.eq_ignore_ascii_case("serial") || value == "0" {
                RunnerConfig::serial()
            } else {
                RunnerConfig::with_workers(positive(&value).ok_or_else(|| {
                    PlanError::new(name, &value, "serial, 0, or a positive worker count")
                })?)
            };
        }
        if let Some((name, value)) = set("QGOV_FAULTS") {
            if !matches!(value.to_ascii_lowercase().as_str(), "off" | "none" | "0") {
                return Err(PlanError::new(
                    name,
                    &value,
                    "off, none or 0 to disable faults; leave unset for the standard schedule",
                ));
            }
            self.faults = false;
        }
        if let Some((name, value)) = set("QGOV_BENCH_PASSES") {
            self.passes = positive(&value)
                .ok_or_else(|| PlanError::new(name, &value, "a positive pass count"))?;
        }
        Ok(self)
    }

    /// One-line description for bench banners, e.g.
    /// `"3000 frames, 5 seeds (2017..=2021), runner: serial"`.
    #[must_use]
    pub fn describe(&self) -> String {
        let consecutive = self
            .seeds
            .windows(2)
            .all(|w| w[0].checked_add(1) == Some(w[1]));
        let seeds = match (self.seeds.as_slice(), consecutive) {
            ([], _) => "no seeds".to_owned(),
            ([one], _) => format!("seed {one}"),
            ([first, .., last], true) => {
                format!("{} seeds ({first}..={last})", self.seeds.len())
            }
            (seeds, _) => format!("seeds {seeds:?}"),
        };
        format!(
            "{} frames, {seeds}, runner: {}",
            self.frames,
            self.runner.describe()
        )
    }
}

fn positive<T: std::str::FromStr + PartialOrd + From<u8>>(value: &str) -> Option<T> {
    value.parse::<T>().ok().filter(|n| *n > T::from(0))
}

/// A bare count `n` (at most [`MAX_SEED_COUNT`]) is the `n` seeds from
/// `base`; a value with a comma is that seed list (empty elements are
/// skipped, so `42,` is the single seed 42).
fn parse_seeds(value: &str, base: u64) -> Option<Vec<u64>> {
    if value.contains(',') {
        let seeds: Vec<u64> = value
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::parse)
            .collect::<Result<_, _>>()
            .ok()?;
        return (!seeds.is_empty()).then_some(seeds);
    }
    let n = positive::<u64>(value).filter(|&n| n <= MAX_SEED_COUNT)?;
    Some((0..n).map(|i| base.wrapping_add(i)).collect())
}

/// A `QGOV_*` environment value that is not one of the variable's
/// accepted forms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    /// The variable, e.g. `QGOV_FRAMES`.
    pub var: &'static str,
    /// The rejected value, trimmed.
    pub value: String,
    /// The accepted forms.
    pub expected: &'static str,
}

impl PlanError {
    fn new(var: &'static str, value: &str, expected: &'static str) -> Self {
        PlanError {
            var,
            value: value.to_owned(),
            expected,
        }
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid {}={:?}: expected {}",
            self.var, self.value, self.expected
        )
    }
}

impl std::error::Error for PlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_with(vars: &[(&str, &str)]) -> Result<RunPlan, PlanError> {
        RunPlan::new(vec![2017], 3_000).with_vars(|name| {
            vars.iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| (*v).to_owned())
        })
    }

    fn rejected(var: &str, value: &str) -> PlanError {
        let err = plan_with(&[(var, value)]).expect_err(value);
        assert_eq!((err.var, err.value.as_str()), (var, value.trim()));
        err
    }

    #[test]
    fn unset_and_blank_variables_keep_the_defaults() {
        let defaults = RunPlan::new(vec![2017], 3_000);
        assert_eq!(plan_with(&[]).unwrap(), defaults);
        assert_eq!(
            plan_with(&[("QGOV_FRAMES", " "), ("QGOV_SEEDS", "")]).unwrap(),
            defaults
        );
    }

    #[test]
    fn frames_accept_only_positive_counts() {
        assert_eq!(plan_with(&[("QGOV_FRAMES", " 400 ")]).unwrap().frames, 400);
        // A shorthand must not silently run the default horizon.
        let err = rejected("QGOV_FRAMES", "20k");
        assert!(err.to_string().contains("QGOV_FRAMES=\"20k\""), "{err}");
        rejected("QGOV_FRAMES", "0");
        rejected("QGOV_FRAMES", "-5");
    }

    #[test]
    fn seeds_accept_counts_and_lists_and_reject_garbage() {
        let seeds = |v: &str| plan_with(&[("QGOV_SEEDS", v)]).unwrap().seeds;
        assert_eq!(seeds("1"), [2017]);
        assert_eq!(seeds("3"), [2017, 2018, 2019]);
        assert_eq!(seeds("\t3\n"), [2017, 2018, 2019]);
        assert_eq!(seeds(" 2017, 5 , 77 "), [2017, 5, 77]);
        assert_eq!(seeds("42,"), [42]);
        // Seed value zero is reachable through the list form.
        assert_eq!(seeds("0,"), [0]);
        assert_eq!(seeds("1000").len(), MAX_SEED_COUNT as usize);
        rejected("QGOV_SEEDS", "0");
        // A seed value where a count belongs must not explode into
        // thousands of runs.
        rejected("QGOV_SEEDS", "2017");
        rejected("QGOV_SEEDS", "garbage");
        rejected("QGOV_SEEDS", "1,2,x");
        rejected("QGOV_SEEDS", ",");
    }

    #[test]
    fn workers_accept_serial_zero_and_counts() {
        let runner = |v: &str| plan_with(&[("QGOV_WORKERS", v)]).unwrap().runner;
        assert!(runner("serial").is_serial());
        assert!(runner("SERIAL").is_serial());
        assert!(runner("0").is_serial());
        assert_eq!(runner(" 5 "), RunnerConfig::with_workers(5));
        // A typo must not masquerade as the parallel default.
        rejected("QGOV_WORKERS", "seria1");
        rejected("QGOV_WORKERS", "-1");
    }

    #[test]
    fn faults_accept_only_the_off_forms() {
        assert!(plan_with(&[]).unwrap().faults);
        for off in ["off", "none", "0", "OFF"] {
            assert!(!plan_with(&[("QGOV_FAULTS", off)]).unwrap().faults, "{off}");
        }
        let err = rejected("QGOV_FAULTS", "offf");
        assert!(err.to_string().contains("off, none or 0"), "{err}");
        rejected("QGOV_FAULTS", "on");
    }

    #[test]
    fn passes_accept_only_positive_counts() {
        assert_eq!(plan_with(&[("QGOV_BENCH_PASSES", "5")]).unwrap().passes, 5);
        rejected("QGOV_BENCH_PASSES", "0");
        rejected("QGOV_BENCH_PASSES", "three");
    }

    #[test]
    fn describe_names_the_shape() {
        let describe = |seeds: Vec<u64>| {
            RunPlan {
                runner: RunnerConfig::serial(),
                ..RunPlan::new(seeds, 10)
            }
            .describe()
        };
        assert_eq!(describe(vec![42]), "10 frames, seed 42, runner: serial");
        assert_eq!(
            describe(vec![2017, 2018, 2019]),
            "10 frames, 3 seeds (2017..=2019), runner: serial"
        );
        assert_eq!(
            describe(vec![2017, 5, 77]),
            "10 frames, seeds [2017, 5, 77], runner: serial"
        );
        assert_eq!(describe(Vec::new()), "10 frames, no seeds, runner: serial");
        // Wrap-around at u64::MAX is not "consecutive".
        assert_eq!(
            describe(vec![u64::MAX, 0]),
            format!("10 frames, seeds [{}, 0], runner: serial", u64::MAX)
        );
    }

    mod describe_totality {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            // describe() is total: no seed list, including the empty one,
            // panics.
            #[test]
            fn describe_never_panics(seeds in proptest::collection::vec(0u64..u64::MAX, 0..8)) {
                let n = seeds.len();
                let described = RunPlan::new(seeds, 10).describe();
                prop_assert!(described.starts_with("10 frames, "));
                if n == 0 {
                    prop_assert!(described.contains("no seeds"));
                }
            }
        }
    }

    mod knob_totality {
        use super::*;
        use proptest::prelude::*;

        const KNOBS: [&str; 5] = [
            "QGOV_FRAMES",
            "QGOV_SEEDS",
            "QGOV_WORKERS",
            "QGOV_FAULTS",
            "QGOV_BENCH_PASSES",
        ];

        /// Characters every knob's accepted forms are made of, plus
        /// near misses, so generated values often parse.
        const ALPHABET: &[char] = &[
            '0', '1', '2', '3', '9', ',', ' ', '\t', '-', '+', '.', 'k', 'e', 's', 'r', 'i', 'a',
            'l', 'o', 'f', 'n', 'O', 'F', 'S', 'é', '\u{0}',
        ];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            // Every QGOV_* parser is total: any value either applies
            // or is a PlanError naming that variable and that value.
            #[test]
            fn every_knob_parser_is_total(
                knob in 0usize..KNOBS.len(),
                picks in proptest::collection::vec((0u32..4, 0u32..0x11_0000), 0..12),
            ) {
                let var = KNOBS[knob];
                let value: String = picks
                    .iter()
                    .map(|&(kind, code)| match kind {
                        0 => char::from_u32(code).unwrap_or('\u{fffd}'),
                        _ => ALPHABET[code as usize % ALPHABET.len()],
                    })
                    .collect();
                if let Err(err) = plan_with(&[(var, &value)]) {
                    prop_assert_eq!(err.var, var);
                    prop_assert_eq!(err.value.as_str(), value.trim());
                }
            }
        }
    }
}
