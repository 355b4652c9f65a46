//! The batched runner's determinism guarantee, end to end: for
//! identical seeds, every experiment family's results from the parallel
//! runner are **bit-identical** to the serial runner's.
//!
//! CI re-runs this file with `QGOV_WORKERS=3` so a non-default worker
//! count exercises the same assertions; [`parallel_config`] honours
//! that override and otherwise pins 2 workers.

use qgov::prelude::*;

/// The parallel side of every comparison: `QGOV_WORKERS` if it names a
/// worker count (as the CI matrix does), else 2 workers.
fn parallel_config() -> RunnerConfig {
    let from_env = RunPlan::from_env(RunPlan::new(vec![0], 1))
        .expect("valid QGOV_* values")
        .runner;
    if from_env.is_serial() {
        RunnerConfig::with_workers(2)
    } else {
        from_env
    }
}

fn plan(seeds: &[u64], frames: u64, runner: RunnerConfig) -> RunPlan {
    RunPlan {
        runner,
        ..RunPlan::new(seeds.to_vec(), frames)
    }
}

/// Every seed's metrics as `(name, f64::to_bits)` pairs.
fn metric_bits(family: Family, plan: &RunPlan) -> Vec<Vec<(String, u64)>> {
    family
        .run(plan)
        .into_iter()
        .map(|cell| cell.into_iter().map(|(n, v)| (n, v.to_bits())).collect())
        .collect()
}

/// Every family's metrics under `runners` are bit-identical to its
/// serial metrics.
fn assert_runners_agree(seeds: &[u64], frames: u64, runners: &[RunnerConfig]) {
    for &family in Family::ALL {
        let serial = metric_bits(family, &plan(seeds, frames, RunnerConfig::serial()));
        for runner in runners {
            assert_eq!(
                serial,
                metric_bits(family, &plan(seeds, frames, runner.clone())),
                "{family} under {}",
                runner.describe()
            );
        }
    }
}

/// `E`'s typed per-seed results (rows, rendered tables, every field a
/// cell metric leaves out) and the metrics flattened from them agree
/// bit for bit under the serial and the parallel runner.
fn assert_typed_runners_agree<E>(seeds: &[u64], frames: u64)
where
    E: Experiment,
    E::Output: PartialEq + std::fmt::Debug,
{
    let serial = E::run(&plan(seeds, frames, RunnerConfig::serial()));
    let parallel = E::run(&plan(seeds, frames, parallel_config()));
    let bits = |outputs: &[E::Output]| -> Vec<Vec<(String, u64)>> {
        outputs
            .iter()
            .map(|out| {
                E::metrics(out)
                    .into_iter()
                    .map(|(n, v)| (n, v.to_bits()))
                    .collect()
            })
            .collect()
    };
    assert_eq!(bits(&serial), bits(&parallel));
    assert_eq!(serial, parallel);
}

#[test]
fn table1_parallel_is_bit_identical_to_serial_across_seeds() {
    assert_typed_runners_agree::<Table1>(&[2017, 5, 77], 250);
}

#[test]
fn table2_and_table3_parallel_match_serial() {
    assert_typed_runners_agree::<Table2>(&[2017, 5, 77], 300);
    assert_typed_runners_agree::<Table3>(&[2017, 5, 77], 300);
}

#[test]
fn fig3_series_parallel_match_serial() {
    // The typed result holds the CSV, which embeds every
    // predicted/actual/slack sample verbatim.
    assert_typed_runners_agree::<Fig3>(&[2017, 5], 150);
}

#[test]
fn ablations_parallel_match_serial() {
    // The typed rows carry what the cell metrics leave out, such as
    // the smoothing ablation's per-γ misprediction in its row labels.
    assert_typed_runners_agree::<StateLevels>(&[7], 200);
    assert_typed_runners_agree::<Smoothing>(&[7], 200);
    assert_typed_runners_agree::<SharedTable>(&[7], 250);
}

/// Every family, serial against the degenerate one-worker queue, a
/// queue wider than any family's grid, and the configured pool.
#[test]
fn single_worker_queue_matches_serial_and_many_workers() {
    assert_runners_agree(
        &[11, 12],
        60,
        &[
            RunnerConfig::with_workers(1),
            RunnerConfig::with_workers(8),
            parallel_config(),
        ],
    );
}

#[test]
fn empty_batch_runs_under_every_policy() {
    for config in [
        RunnerConfig::serial(),
        RunnerConfig::parallel(),
        RunnerConfig::with_workers(3),
    ] {
        let batch: ExperimentBatch<'_, u64> = ExperimentBatch::new();
        assert!(batch.run(&config).is_empty(), "{}", config.describe());
    }
}
