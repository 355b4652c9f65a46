//! Batched, parallel experiment execution.
//!
//! Every table, figure and ablation of the paper expands into a grid of
//! *cells* — independent (governor × seed × frames) experiment runs that
//! share no mutable state. [`ExperimentBatch`] collects those cells as
//! closures and [`ExperimentBatch::run`] drains them either inline on
//! the calling thread ([`RunnerConfig::serial`], or any policy that
//! resolves to one worker) or through a self-scheduling job queue
//! worked by scoped threads ([`RunnerConfig::parallel`]): each idle
//! worker claims the next unclaimed cell, so long cells never leave a
//! worker parked the way a static round-robin split would.
//!
//! # Determinism guarantee
//!
//! Results come back **in push order, not completion order**, and every
//! cell constructs its own governor, platform and trace replay from its
//! own inputs. A batch therefore produces *bit-identical* output
//! whether it runs serially, with one worker, or with many — the
//! property tests in this module and `tests/runner_determinism.rs`
//! enforce exactly that, and it is what lets the bench targets default
//! to parallel execution without perturbing recorded baselines.
//!
//! ```
//! use qgov_bench::runner::{ExperimentBatch, RunnerConfig};
//!
//! // Any Send closure can be a cell; experiments push whole runs.
//! let build = || {
//!     let mut batch = ExperimentBatch::new();
//!     for cell in 0..8u64 {
//!         batch.push(move || cell * cell + 1);
//!     }
//!     batch
//! };
//!
//! let serial = build().run(&RunnerConfig::serial());
//! let parallel = build().run(&RunnerConfig::with_workers(3));
//! assert_eq!(serial, parallel); // push order, bit-identical
//! assert_eq!(serial[3], 10);
//! ```
//!
//! Each cell must own a **fresh** application or trace clone:
//! [`crate::harness::precharacterize`] and the experiment loop mutate
//! the [`Application`](qgov_workloads::Application) in place (cursor
//! advance, reset), so sharing one instance across cells would make the
//! outcome depend on scheduling. Rust's `&mut` aliasing rules already
//! forbid *concurrent* sharing; the debug assertions in
//! [`crate::harness`] additionally catch applications whose `reset()`
//! does not rewind deterministically.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Execution policy for [`ExperimentBatch::run`]: serial or parallel,
/// and with how many workers.
///
/// Constructed explicitly ([`RunnerConfig::serial`],
/// [`RunnerConfig::with_workers`]) or as part of a
/// [`RunPlan`](crate::plan::RunPlan) (whose
/// [`from_env`](crate::plan::RunPlan::from_env) reads `QGOV_WORKERS`).
/// The choice never changes results — see the module docs'
/// determinism guarantee — only wall-clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunnerConfig {
    /// `false` drains cells inline on the calling thread, in push
    /// order, spawning no threads.
    parallel: bool,
    /// Worker threads of a parallel run; `None` asks the host
    /// ([`std::thread::available_parallelism`]) for one per core.
    workers: Option<NonZeroUsize>,
}

impl Default for RunnerConfig {
    /// Defaults to parallel with one worker per available core.
    fn default() -> Self {
        RunnerConfig::parallel()
    }
}

impl RunnerConfig {
    /// Inline execution on the calling thread.
    #[must_use]
    pub fn serial() -> Self {
        RunnerConfig {
            parallel: false,
            workers: None,
        }
    }

    /// Parallel execution with one worker per available core.
    #[must_use]
    pub fn parallel() -> Self {
        RunnerConfig {
            parallel: true,
            workers: None,
        }
    }

    /// Parallel execution with up to `workers` worker threads, one per
    /// cell at most. `with_workers(1)` runs inline on the calling
    /// thread, as [`RunnerConfig::serial`] does: one worker would only
    /// take the cells in push order.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero — use [`RunnerConfig::serial`] for
    /// no-thread execution.
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        let workers = NonZeroUsize::new(workers).expect("worker count must be at least 1");
        RunnerConfig {
            parallel: true,
            workers: Some(workers),
        }
    }

    /// `true` for [`RunnerConfig::serial`]. A parallel policy that
    /// resolves to one worker runs inline as well.
    #[must_use]
    pub fn is_serial(&self) -> bool {
        !self.parallel
    }

    /// Human-readable description for experiment banners, e.g.
    /// `"serial"`, `"inline (1 worker)"` or `"parallel (3 workers)"`.
    #[must_use]
    pub fn describe(&self) -> String {
        let auto = if self.workers.is_some() { "" } else { "auto: " };
        match self.workers() {
            None => "serial".to_owned(),
            Some(1) => format!("inline ({auto}1 worker)"),
            Some(n) => format!("parallel ({auto}{n} workers)"),
        }
    }

    /// The configured (or detected) worker count; `None` for serial.
    fn workers(&self) -> Option<usize> {
        self.parallel.then(|| {
            self.workers
                .map_or_else(available_workers, NonZeroUsize::get)
        })
    }

    /// Worker threads `run` will spawn for a batch of `jobs` cells:
    /// the configured (or detected) count capped at the job count, or
    /// `None` when the batch runs inline — serial, or one worker after
    /// the cap.
    fn resolved_workers(&self, jobs: usize) -> Option<usize> {
        self.workers().map(|n| n.min(jobs)).filter(|&n| n > 1)
    }
}

fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// One queued cell: the deferred run.
type Job<'a, R> = Box<dyn FnOnce() -> R + Send + 'a>;

/// A builder that collects experiment cells and runs them under a
/// [`RunnerConfig`], returning results in push order (see the module
/// docs for the determinism guarantee).
///
/// Cells are plain `FnOnce() -> R + Send` closures; each must capture
/// everything it needs by value (trace clones, configs, seeds) so no
/// mutable state crosses cells.
pub struct ExperimentBatch<'a, R> {
    jobs: Vec<Job<'a, R>>,
}

impl<R> std::fmt::Debug for ExperimentBatch<'_, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentBatch")
            .field("cells", &self.jobs.len())
            .finish()
    }
}

impl<R: Send> Default for ExperimentBatch<'_, R> {
    fn default() -> Self {
        ExperimentBatch::new()
    }
}

impl<'a, R: Send> ExperimentBatch<'a, R> {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        ExperimentBatch { jobs: Vec::new() }
    }

    /// Queues one cell; its result takes the next slot of the vector
    /// [`ExperimentBatch::run`] returns.
    pub fn push(&mut self, job: impl FnOnce() -> R + Send + 'a) {
        self.jobs.push(Box::new(job));
    }

    /// Runs every cell and returns the results **in push order**
    /// regardless of completion order. A batch that resolves to at most
    /// one worker (serial, one worker, one cell or none) runs inline on
    /// the calling thread without spawning anything.
    ///
    /// # Panics
    ///
    /// Propagates the first panic of any cell once all workers have
    /// finished (via [`std::thread::scope`]).
    #[must_use]
    pub fn run(self, config: &RunnerConfig) -> Vec<R> {
        let total = self.jobs.len();
        let Some(workers) = config.resolved_workers(total) else {
            return self.jobs.into_iter().map(|job| job()).collect();
        };

        // Self-scheduling queue: `next` hands each claimed index to
        // exactly one worker; results land in their per-index slot, so
        // output order is push order however scheduling interleaves.
        let jobs: Vec<Mutex<Option<Job<'a, R>>>> =
            self.jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let slots: Vec<Mutex<Option<R>>> = (0..total).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= total {
                        break;
                    }
                    let job = jobs[index]
                        .lock()
                        .expect("job mutex poisoned")
                        .take()
                        .expect("each job index is claimed exactly once");
                    let result = job();
                    *slots[index].lock().expect("result mutex poisoned") = Some(result);
                });
            }
        });

        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result mutex poisoned")
                    .expect("every claimed job stores its result")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn squares_batch<'a>(n: u64) -> ExperimentBatch<'a, u64> {
        let mut batch = ExperimentBatch::new();
        for i in 0..n {
            batch.push(move || i * i);
        }
        batch
    }

    #[test]
    fn empty_batch_returns_empty() {
        assert!(squares_batch(0).run(&RunnerConfig::serial()).is_empty());
        assert!(squares_batch(0).run(&RunnerConfig::parallel()).is_empty());
        assert!(squares_batch(0)
            .run(&RunnerConfig::with_workers(4))
            .is_empty());
    }

    #[test]
    fn single_worker_degenerate_case_preserves_order() {
        let results = squares_batch(10).run(&RunnerConfig::with_workers(1));
        assert_eq!(results, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn results_are_in_push_order_despite_uneven_cell_durations() {
        let mut batch = ExperimentBatch::new();
        for i in 0..12u64 {
            batch.push(move || {
                // Early cells run longest so late cells finish first.
                std::thread::sleep(std::time::Duration::from_millis(12 - i));
                i
            });
        }
        let results = batch.run(&RunnerConfig::with_workers(4));
        assert_eq!(results, (0..12).collect::<Vec<_>>());
    }

    /// One resolved worker, from the configuration or from a one-cell
    /// batch, runs its cells on the calling thread.
    #[test]
    fn one_resolved_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let on_caller = |config: &RunnerConfig, cells: usize| {
            let mut batch = ExperimentBatch::new();
            for _ in 0..cells {
                batch.push(|| std::thread::current().id());
            }
            batch.run(config).into_iter().all(|id| id == caller)
        };
        assert!(on_caller(&RunnerConfig::with_workers(1), 3));
        assert!(on_caller(&RunnerConfig::parallel(), 1));
        assert!(on_caller(&RunnerConfig::with_workers(4), 1));
        assert!(!on_caller(&RunnerConfig::with_workers(2), 2));
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let results = squares_batch(2).run(&RunnerConfig::with_workers(16));
        assert_eq!(results, vec![0, 1]);
    }

    #[test]
    fn describe_names_the_mode() {
        assert_eq!(RunnerConfig::serial().describe(), "serial");
        assert_eq!(
            RunnerConfig::with_workers(3).describe(),
            "parallel (3 workers)"
        );
        assert_eq!(
            RunnerConfig::with_workers(1).describe(),
            "inline (1 worker)"
        );
        let auto = RunnerConfig::parallel().describe();
        assert!(
            auto.starts_with("parallel (auto: ") || auto == "inline (auto: 1 worker)",
            "{auto}"
        );
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_workers_panics() {
        let _ = RunnerConfig::with_workers(0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        // The determinism guarantee at the queue level: any job count ×
        // worker count produces exactly the serial result vector.
        #[test]
        fn parallel_equals_serial_for_any_shape(jobs in 0usize..40, workers in 1usize..6) {
            let build = || {
                let mut batch = ExperimentBatch::new();
                for i in 0..jobs {
                    batch.push(move || (i as u64) * 31 + 7);
                }
                batch
            };
            let serial = build().run(&RunnerConfig::serial());
            let parallel = build().run(&RunnerConfig::with_workers(workers));
            prop_assert_eq!(serial, parallel);
        }
    }
}
