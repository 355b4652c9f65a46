//! The multi-seed plan's determinism guarantees, end to end, for every
//! experiment family:
//!
//! 1. a plan run serially is **bit-identical** to the same plan on any
//!    worker count, per seed and after the fold by metric name;
//! 2. folded metrics are **invariant to seed-list order** (summaries
//!    sort their samples before folding);
//! 3. the cells of one plan are **independent across seeds** — each
//!    seed's metrics equal the same seed run alone;
//! 4. a one-seed plan folds to exactly the single campaign cell (the
//!    property that lets `QGOV_SEEDS` default to 1 without perturbing
//!    recorded baselines).
//!
//! CI re-runs this file with `QGOV_SEEDS=3 QGOV_WORKERS=3` so a
//! non-default seed count and worker count exercise the same
//! assertions; [`seeds_under_test`] and [`parallel_config`] honour
//! those overrides and otherwise pin n = 5 seeds and 3 workers.

use qgov::prelude::*;

/// `QGOV_SEEDS` / `QGOV_WORKERS` applied to a one-seed serial plan.
fn env_plan() -> RunPlan {
    RunPlan::from_env(RunPlan {
        runner: RunnerConfig::serial(),
        ..RunPlan::new(vec![2017], 1)
    })
    .expect("valid QGOV_* values")
}

/// The seeds every comparison runs: `QGOV_SEEDS` if it names more than
/// one (as the CI matrix does), else the 5 seeds from base 2017.
fn seeds_under_test() -> Vec<u64> {
    let seeds = env_plan().seeds;
    if seeds.len() == 1 {
        (2017..2022).collect()
    } else {
        seeds
    }
}

/// The parallel side of every comparison: `QGOV_WORKERS` if it names a
/// worker count, else 3 workers.
fn parallel_config() -> RunnerConfig {
    let runner = env_plan().runner;
    if runner.is_serial() {
        RunnerConfig::with_workers(3)
    } else {
        runner
    }
}

fn plan(seeds: &[u64], frames: u64, runner: RunnerConfig) -> RunPlan {
    RunPlan {
        runner,
        ..RunPlan::new(seeds.to_vec(), frames)
    }
}

fn assert_summary_bits(label: &str, a: &MetricSummary, b: &MetricSummary) {
    assert_eq!(a.n, b.n, "{label}: n");
    assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "{label}: mean");
    assert_eq!(a.std_dev.to_bits(), b.std_dev.to_bits(), "{label}: std_dev");
    assert_eq!(a.min.to_bits(), b.min.to_bits(), "{label}: min");
    assert_eq!(a.max.to_bits(), b.max.to_bits(), "{label}: max");
}

/// The fold of `cells`, sorted by metric name (a metric some seeds lack
/// may first appear at a different position when the seeds reorder).
fn sorted_fold(cells: &[CellMetrics]) -> Vec<(String, MetricSummary)> {
    let mut folded = fold_metrics(cells);
    folded.sort_by(|a, b| a.0.cmp(&b.0));
    folded
}

fn assert_folds_agree(label: &str, a: &[CellMetrics], b: &[CellMetrics]) {
    let (a, b) = (sorted_fold(a), sorted_fold(b));
    assert_eq!(a.len(), b.len(), "{label}: metric count");
    for ((name, x), (other, y)) in a.iter().zip(&b) {
        assert_eq!(name, other, "{label}");
        assert_summary_bits(&format!("{label} {name}"), x, y);
    }
}

fn assert_cells_bits(label: &str, a: &CellMetrics, b: &CellMetrics) {
    let bits = |c: &CellMetrics| -> Vec<(String, u64)> {
        c.iter().map(|(n, v)| (n.clone(), v.to_bits())).collect()
    };
    assert_eq!(bits(a), bits(b), "{label}");
}

/// `E`'s multi-seed plan, serial against parallel: the typed per-seed
/// results, the metrics flattened from them and their fold agree bit
/// for bit.
fn assert_plan_parallel_matches_serial<E>(frames: u64)
where
    E: Experiment,
    E::Output: PartialEq + std::fmt::Debug,
{
    let label = std::any::type_name::<E>();
    let seeds = seeds_under_test();
    let serial = E::run(&plan(&seeds, frames, RunnerConfig::serial()));
    let parallel = E::run(&plan(&seeds, frames, parallel_config()));
    let metrics =
        |outputs: &[E::Output]| -> Vec<CellMetrics> { outputs.iter().map(E::metrics).collect() };
    let (s, p) = (metrics(&serial), metrics(&parallel));
    for (a, b) in s.iter().zip(&p) {
        assert_cells_bits(label, a, b);
    }
    assert_folds_agree(label, &s, &p);
    assert_eq!(serial, parallel, "{label}");
}

#[test]
fn table1_sweep_parallel_is_bit_identical_to_serial() {
    assert_plan_parallel_matches_serial::<Table1>(200);
}

#[test]
fn table2_and_table3_sweeps_parallel_match_serial() {
    assert_plan_parallel_matches_serial::<Table2>(250);
    assert_plan_parallel_matches_serial::<Table3>(250);
}

#[test]
fn fig3_and_ablation_sweeps_parallel_match_serial() {
    assert_plan_parallel_matches_serial::<Fig3>(150);
    assert_plan_parallel_matches_serial::<SharedTable>(150);
}

#[test]
fn aggregates_are_invariant_to_seed_list_order() {
    for &family in Family::ALL {
        let forward = family.run(&plan(&[2017, 5, 77], 60, parallel_config()));
        let reversed = family.run(&plan(&[77, 5, 2017], 60, parallel_config()));
        assert_folds_agree(family.name(), &forward, &reversed);
    }
}

#[test]
fn sweep_cells_are_independent_across_seeds() {
    // Every per-seed result inside one multi-seed plan must be
    // bit-identical to the same seed run on its own — no state bleed
    // between the seeds of a batch.
    let seeds = [2017, 5, 77];
    for &family in Family::ALL {
        let swept = family.run(&plan(&seeds, 60, parallel_config()));
        for (cell, &seed) in swept.iter().zip(&seeds) {
            let alone = family.run(&plan(&[seed], 60, RunnerConfig::serial()));
            assert_cells_bits(&format!("{family} seed {seed}"), cell, &alone[0]);
        }
    }
}

#[test]
fn flattened_grid_matches_per_seed_nested_runs() {
    // A plan expands the full seed × methodology cross product into ONE
    // job queue. Whatever the queue's width, every per-seed bundle must
    // stay bit-identical to the same seed's experiment run alone —
    // across families with different grid shapes.
    let seeds = [2017, 5, 77];
    for workers in [1usize, 2, 7] {
        let runner = RunnerConfig::with_workers(workers);
        let table1 = Table1::run(&plan(&seeds, 150, runner.clone()));
        let table2 = Table2::run(&plan(&seeds, 150, runner.clone()));
        let levels = StateLevels::run(&plan(&seeds, 120, runner));
        for (i, &seed) in seeds.iter().enumerate() {
            let serial = RunnerConfig::serial;
            assert_eq!(
                table1[i],
                Table1::run(&plan(&[seed], 150, serial())).remove(0),
                "table1 seed {seed} at {workers} workers"
            );
            assert_eq!(
                table2[i],
                Table2::run(&plan(&[seed], 150, serial())).remove(0),
                "table2 seed {seed} at {workers} workers"
            );
            assert_eq!(
                levels[i],
                StateLevels::run(&plan(&[seed], 120, serial())).remove(0),
                "levels ablation seed {seed} at {workers} workers"
            );
        }
    }
}

#[test]
fn flattened_grid_handles_duplicate_seeds() {
    // Duplicate plan seeds share one deduplicated preparation in the
    // flattened queue; their results must still be bit-identical to
    // independent runs (and to each other).
    for &family in Family::ALL {
        let swept = family.run(&plan(&[9, 9], 60, parallel_config()));
        let alone = family.run(&plan(&[9], 60, RunnerConfig::serial()));
        assert_cells_bits(family.name(), &swept[0], &alone[0]);
        assert_cells_bits(family.name(), &swept[1], &alone[0]);
    }
}

#[test]
fn single_seed_sweep_preserves_the_single_run_baseline() {
    // A one-seed plan folds to exactly its campaign cell: n = 1, the
    // cell's bits as the mean, no spread.
    for &family in Family::ALL {
        let list = WorkList::new(family, vec![2017], 60);
        let cell = list.run_cell(&list.cells()[0]);
        for runner in [RunnerConfig::serial(), parallel_config()] {
            let folded = fold_metrics(&family.run(&plan(&[2017], 60, runner)));
            assert_eq!(folded.len(), cell.len(), "{family}");
            for ((name, summary), (cell_name, value)) in folded.iter().zip(&cell) {
                assert_eq!(name, cell_name, "{family}");
                assert_eq!(summary.n, 1, "{family} {name}");
                assert_eq!(summary.mean.to_bits(), value.to_bits(), "{family} {name}");
                assert_eq!(summary.std_dev, 0.0);
            }
        }
    }
}

#[test]
fn duplicate_seeds_have_zero_spread() {
    // Determinism in the seed means a duplicated seed list is a
    // constant series: the mean equals the single value and every
    // spread field collapses to exactly zero.
    for &family in Family::ALL {
        let single = family
            .run(&plan(&[7], 60, RunnerConfig::serial()))
            .remove(0);
        let folded = fold_metrics(&family.run(&plan(&[7, 7, 7], 60, parallel_config())));
        for ((name, summary), (_, value)) in folded.iter().zip(&single) {
            assert_eq!(summary.n, 3, "{family} {name}");
            assert_eq!(summary.mean.to_bits(), value.to_bits(), "{family} {name}");
            assert_eq!(summary.std_dev, 0.0, "{family} {name}");
        }
    }
}
