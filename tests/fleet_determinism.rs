//! Fleet determinism: a fleet cell (`qgov_bench::fleet::Fleet`) runs
//! its instances as plain `run_experiment` calls, so every instance
//! must match the flat harness bit for bit whatever the fleet size.
//!
//! Three pins:
//!
//! 1. a fleet of one equals `run_experiment` bit-for-bit;
//! 2. every member of a larger fleet equals its own flat run;
//! 3. campaign fleet cells reproduce the flat cross product.
//!
//! Instance order, duplicate seeds and the execution policy are pinned
//! for every family, `fleet` included, by `sweep_determinism` and
//! `runner_determinism`.

use qgov::prelude::*;

/// The flat-harness reference for fleet instance seed `seed`.
fn flat_run(seed: u64, frames: u64) -> ExperimentOutcome {
    let mut rtm = RtmGovernor::new(fleet_cell_config(seed)).unwrap();
    run_experiment(
        &mut rtm,
        &mut fleet_cell_app(seed, frames),
        fleet_cell_platform(),
        frames,
    )
}

/// One serial fleet cell of `fleet` instances at plan seed `seed`.
fn fleet_cell(seed: u64, frames: u64, fleet: usize) -> Vec<RunReport> {
    let plan = RunPlan {
        runner: RunnerConfig::serial(),
        fleet,
        ..RunPlan::new(vec![seed], frames)
    };
    Fleet::run(&plan).pop().unwrap()
}

/// Bit-level equality: the reports' `PartialEq` covers the per-frame
/// stats and counters; energy is additionally compared at the bit
/// level to rule out sign/zero coincidences.
fn assert_reports_identical(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a, b, "{what}: reports diverged");
    assert_eq!(
        a.total_energy().as_joules().to_bits(),
        b.total_energy().as_joules().to_bits(),
        "{what}: energy bits diverged"
    );
    assert_eq!(
        a.normalized_performance().to_bits(),
        b.normalized_performance().to_bits(),
        "{what}: performance bits diverged"
    );
}

#[test]
fn fleet_of_one_matches_flat_harness_bit_for_bit() {
    let frames = 400;
    let seed = 7;

    let fleet = fleet_cell(seed, frames, 1);
    let flat = flat_run(seed, frames);

    assert_eq!(fleet.len(), 1);
    assert_reports_identical(&fleet[0], &flat.report, "fleet-of-1 vs flat");
    assert_eq!(fleet[0].frames(), frames);
    let metrics: std::collections::HashMap<String, f64> =
        Fleet::metrics(&fleet).into_iter().collect();
    assert_eq!(
        metrics["fleet_mean_miss_rate"].to_bits(),
        flat.report.miss_rate().to_bits()
    );
    assert_eq!(metrics["fleet_total_frames"], frames as f64);
}

#[test]
fn every_fleet_member_matches_its_sequential_flat_run() {
    let frames = 250;
    let seed = 3;

    let fleet = fleet_cell(seed, frames, 4);

    assert_eq!(fleet.len(), 4);
    for (i, report) in fleet.iter().enumerate() {
        let instance_seed = seed + i as u64;
        assert_reports_identical(
            report,
            &flat_run(instance_seed, frames).report,
            &format!("instance {i} (seed {instance_seed})"),
        );
    }
}

#[test]
fn campaign_fleet_cells_match_flat_cross_product() {
    // The campaign-level pin: a `fleet` work-list cell (what `qgov
    // sweep` journals for a `family = "fleet"` campaign) crossed over
    // `fleet = n` campaign sizes and QGOV_SEEDS-style seed sets must
    // reproduce the flat harness bit-for-bit, instance by instance.
    let frames = 150;
    for fleet_size in [1usize, 3] {
        let list = WorkList::new(Family::Fleet, vec![5, 9], frames).with_fleet(fleet_size);
        assert_eq!(list.len(), 2);
        for cell in &list.cells() {
            assert_eq!(
                cell.id,
                format!(
                    "fleet/seed={}/frames={frames}/fleet={fleet_size}",
                    cell.seed
                )
            );
            let metrics: std::collections::HashMap<String, f64> =
                list.run_cell(cell).into_iter().collect();
            for i in 0..fleet_size as u64 {
                let instance_seed = cell.seed.wrapping_add(i);
                let mut rtm = RtmGovernor::new(fleet_cell_config(instance_seed)).unwrap();
                let flat = run_experiment(
                    &mut rtm,
                    &mut fleet_cell_app(instance_seed, frames),
                    fleet_cell_platform(),
                    frames,
                );
                for (key, flat_value) in [
                    (format!("miss_rate/i{i}"), flat.report.miss_rate()),
                    (
                        format!("normalized_performance/i{i}"),
                        flat.report.normalized_performance(),
                    ),
                    (format!("mean_opp/i{i}"), flat.report.mean_opp()),
                    (
                        format!("energy_joules/i{i}"),
                        flat.report.total_energy().as_joules(),
                    ),
                ] {
                    let cell_value = *metrics
                        .get(&key)
                        .unwrap_or_else(|| panic!("cell {} lacks metric {key}", cell.id));
                    assert_eq!(
                        cell_value.to_bits(),
                        flat_value.to_bits(),
                        "cell {} metric {key}: campaign cell diverged from flat harness",
                        cell.id
                    );
                }
            }
            assert_eq!(
                metrics["fleet_total_frames"],
                frames as f64 * fleet_size as f64
            );
        }
    }
}
