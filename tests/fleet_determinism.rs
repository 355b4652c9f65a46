//! Fleet determinism: a fleet (`qgov_bench::fleet`) is a batch of flat
//! runs, so every instance must match the flat harness bit for bit
//! regardless of fleet size, instance order or worker count.
//!
//! Four pins:
//!
//! 1. a fleet of one equals `run_experiment` bit-for-bit;
//! 2. per-instance results are invariant under instance order;
//! 3. per-instance results are invariant under the execution policy
//!    (serial vs any worker count);
//! 4. duplicate-seed instances inside one fleet coincide exactly.

use qgov::prelude::*;

fn quiet_config() -> PlatformConfig {
    PlatformConfig {
        sensor: SensorConfig::ideal(),
        ..PlatformConfig::odroid_xu3_a15()
    }
}

fn noisy_app(frames: u64, seed: u64) -> SyntheticWorkload {
    SyntheticWorkload::constant(
        "fleet-golden",
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

fn fleet_spec(seeds: &[u64], frames: u64) -> FleetSpec {
    FleetSpec::uniform(&rtm_config(0), seeds, &quiet_config(), frames, |seed| {
        Box::new(noisy_app(frames, seed))
    })
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

    let fleet = run_fleet(fleet_spec(&[seed], frames), &RunnerConfig::serial());

    let mut rtm = RtmGovernor::new(rtm_config(seed)).unwrap();
    let flat = run_experiment(
        &mut rtm,
        &mut noisy_app(frames, seed),
        quiet_config(),
        frames,
    );

    assert_reports_identical(&fleet.reports[0], &flat.report, "fleet-of-1 vs flat");
    assert_eq!(
        fleet.platforms[0].total_energy().as_joules().to_bits(),
        flat.platform.total_energy().as_joules().to_bits()
    );
    assert_eq!(
        fleet.platforms[0].vf().transitions(),
        flat.platform.vf().transitions()
    );
    assert_eq!(fleet.total_frames, frames);
}

#[test]
fn every_fleet_member_matches_its_sequential_flat_run() {
    let frames = 250;
    let seeds = [3u64, 11, 17, 99];

    let fleet = run_fleet(fleet_spec(&seeds, frames), &RunnerConfig::serial());

    for (i, &seed) in seeds.iter().enumerate() {
        let mut rtm = RtmGovernor::new(rtm_config(seed)).unwrap();
        let flat = run_experiment(
            &mut rtm,
            &mut noisy_app(frames, seed),
            quiet_config(),
            frames,
        );
        assert_reports_identical(
            &fleet.reports[i],
            &flat.report,
            &format!("instance {i} (seed {seed})"),
        );
    }
}

#[test]
fn instance_order_does_not_change_any_result() {
    let frames = 200;
    let forward = [2u64, 5, 8, 13];
    let reversed = [13u64, 8, 5, 2];

    let a = run_fleet(fleet_spec(&forward, frames), &RunnerConfig::serial());
    let b = run_fleet(fleet_spec(&reversed, frames), &RunnerConfig::serial());

    for (i, &seed) in forward.iter().enumerate() {
        let j = reversed.iter().position(|&s| s == seed).unwrap();
        assert_reports_identical(
            &a.reports[i],
            &b.reports[j],
            &format!("seed {seed} across orders"),
        );
    }
}

#[test]
fn execution_policy_does_not_change_any_result() {
    let frames = 200;
    let seeds = [1u64, 4, 9, 16, 25];

    let serial = run_fleet(fleet_spec(&seeds, frames), &RunnerConfig::serial());
    // Worker counts below and above the instance count.
    for workers in [2usize, 3, 8] {
        let sharded = run_fleet(
            fleet_spec(&seeds, frames),
            &RunnerConfig::with_workers(workers),
        );
        assert_eq!(
            serial.reports, sharded.reports,
            "QGOV_WORKERS-equivalent {workers} diverged from serial"
        );
        assert_eq!(serial.total_frames, sharded.total_frames);
    }
}

#[test]
fn duplicate_seed_instances_coincide_exactly() {
    let frames = 220;
    let seeds = [42u64, 42, 7, 42];

    let fleet = run_fleet(fleet_spec(&seeds, frames), &RunnerConfig::serial());

    assert_reports_identical(&fleet.reports[0], &fleet.reports[1], "dup seeds 0 vs 1");
    assert_reports_identical(&fleet.reports[0], &fleet.reports[3], "dup seeds 0 vs 3");
    assert_ne!(
        fleet.reports[0], fleet.reports[2],
        "distinct seeds should not coincide"
    );
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
