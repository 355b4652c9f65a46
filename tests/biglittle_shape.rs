//! Acceptance shape of the heterogeneous big.LITTLE experiment: over a
//! multi-seed sweep, the learned per-cluster RTM with greedy task
//! migration must beat **both** static placements — lower energy than
//! big-only at a comparable-or-better miss rate, and better
//! energy-per-useful-frame than the structurally infeasible
//! LITTLE-only placement.
//!
//! This is the paper's central claim transplanted to the heterogeneous
//! chip: learning where (and how fast) to run saves energy without
//! giving up deadlines. The horizon is deliberately short so the test
//! stays in tier-1 budget; `benches/biglittle.rs` runs the full-length
//! version and EXPERIMENTS.md records its numbers.

use qgov::prelude::*;

const FRAMES: u64 = 240;

/// The seeds of the acceptance sweep (n = 3).
fn plan() -> RunPlan {
    RunPlan::new((2017..2020).collect(), FRAMES)
}

#[test]
fn learned_migration_beats_both_static_placements() {
    let runs = BigLittle::run(&plan());
    assert_eq!(runs.len(), 3);
    let metrics: Vec<CellMetrics> = runs.iter().map(BigLittle::metrics).collect();
    let folded = fold_metrics(&metrics);
    let mean = |metric: &str, placement: &str| {
        let name = format!("{metric}/{placement}");
        let (_, summary) = folded
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("missing metric {name}"));
        assert_eq!(summary.n, 3, "{name}");
        summary.mean
    };

    // Energy: learned migration undercuts the big-only placement on
    // every aggregate (the A7 quad absorbs work at a fraction of the
    // A15's cube-law cost).
    assert!(
        mean("energy_joules", "rtm_migrate") < mean("energy_joules", "big_only"),
        "learned migration must save energy vs big-only: {:.2} J vs {:.2} J",
        mean("energy_joules", "rtm_migrate"),
        mean("energy_joules", "big_only")
    );
    assert!(
        mean("normalized_energy", "rtm_migrate") < 0.95,
        "savings should be material, got {:.3}× big-only",
        mean("normalized_energy", "rtm_migrate")
    );

    // Deadlines: comparable or better than big-only. A generous slack
    // margin (5 pp) keeps the bound honest across seeds without making
    // the test flaky.
    assert!(
        mean("miss_rate", "rtm_migrate") <= mean("miss_rate", "big_only") + 0.05,
        "learned miss rate {:.3} must stay comparable to big-only {:.3}",
        mean("miss_rate", "rtm_migrate"),
        mean("miss_rate", "big_only")
    );

    // LITTLE-only is structurally infeasible for this workload (demand
    // exceeds the A7 quad's capacity), so it drowns in misses and pays
    // more per frame it actually delivers.
    assert!(
        mean("miss_rate", "little_only") > 0.5,
        "the scaled decode must overwhelm the A7 quad, miss rate {:.3}",
        mean("miss_rate", "little_only")
    );
    assert!(
        mean("energy_per_met_frame", "rtm_migrate") < mean("energy_per_met_frame", "little_only"),
        "learned J/met-frame {:.4} must beat LITTLE-only {:.4}",
        mean("energy_per_met_frame", "rtm_migrate"),
        mean("energy_per_met_frame", "little_only")
    );

    // Every seed individually shows the energy win, not just the mean.
    for (seed, per_seed) in plan().seeds.iter().zip(&runs) {
        let find = |label: &str| {
            per_seed
                .rows
                .iter()
                .find(|r| r.placement == label)
                .unwrap_or_else(|| panic!("seed {seed}: missing {label}"))
        };
        let learned = find("Learned migration (proposed)");
        let big = find("Big-only (A15 quad)");
        assert!(
            learned.energy_joules < big.energy_joules,
            "seed {seed}: learned {:.2} J must undercut big-only {:.2} J",
            learned.energy_joules,
            big.energy_joules
        );
    }
}

/// The same sweep under the standard temporal property pack: every
/// placement on every seed runs violation-free, and monitoring leaves
/// all placement metrics untouched.
#[test]
fn biglittle_sweep_runs_clean_under_the_standard_pack() {
    let plain = BigLittle::run(&plan());
    let monitored = BigLittle::run(&RunPlan {
        pack: Some(PackConfig::paper()),
        ..plan()
    });
    for ((seed, m), p) in plan().seeds.iter().zip(&monitored).zip(&plain) {
        for (m, p) in m.rows.iter().zip(&p.rows) {
            let report = m.monitor.as_ref().expect("monitored rows carry verdicts");
            assert!(
                report.is_clean(),
                "seed {seed} {}: {}",
                m.placement,
                report.summary()
            );
            let mut stripped = m.clone();
            stripped.monitor = None;
            assert_eq!(
                &stripped, p,
                "seed {seed} {}: monitoring perturbed the run",
                m.placement
            );
        }
    }
}
