//! Compare every governor in the repository — the stock Linux family,
//! the learning baselines and the proposed RTM — on one workload, frame
//! for frame.
//!
//! ```sh
//! cargo run --release --example governor_comparison
//! ```

use qgov::prelude::*;

fn main() {
    let frames = 900u64;
    let seed = 11;
    let mut app = VideoDecoderModel::h264_football_15fps(seed).with_frames(frames);
    let (trace, bounds) = precharacterize(&mut app);
    let platform_config = PlatformConfig::odroid_xu3_a15();
    let opp_table = platform_config.opp_table.clone();

    // Build one governor of every kind.
    let mut governors: Vec<Box<dyn Governor>> = vec![
        Box::new(PerformanceGovernor::new()),
        Box::new(PowersaveGovernor::new()),
        Box::new(UserspaceGovernor::pinned(12)),
        Box::new(ConservativeGovernor::linux_default()),
        Box::new(OndemandGovernor::linux_default()),
        Box::new(GeQiuGovernor::new(seed)),
        Box::new(
            RtmGovernor::new(RtmConfig::paper(seed).with_workload_bounds(bounds.0, bounds.1))
                .expect("valid config"),
        ),
        Box::new(OracleGovernor::from_trace(&trace, &opp_table, 0.02)),
    ];

    let mut reports = Vec::new();
    for gov in &mut governors {
        let outcome = run_experiment(
            gov.as_mut(),
            &mut trace.clone(),
            platform_config.clone(),
            frames,
        );
        reports.push(outcome.report);
    }
    let oracle = reports.last().expect("oracle ran last").clone();

    println!("== every governor on H.264 football, {frames} frames ==\n");
    let mut table = ComparisonTable::new(vec![
        "Governor",
        "Energy (J)",
        "vs oracle",
        "Perf (Ti/Tref)",
        "Misses",
        "Mean OPP",
        "VF switches",
    ]);
    for r in &reports {
        table.add_row(vec![
            r.governor().to_owned(),
            format!("{:.1}", r.total_energy().as_joules()),
            format!("{:.2}", r.normalized_energy(&oracle)),
            format!("{:.2}", r.normalized_performance()),
            format!("{}", r.deadline_misses()),
            format!("{:.1}", r.mean_opp()),
            r.transitions().to_string(),
        ]);
    }
    println!("{}", table.render());

    println!("notes:");
    println!("  - performance meets every deadline but burns the most energy (race-to-idle);");
    println!("  - powersave misses nearly everything at 200 MHz;");
    println!("  - the RTM should land closest to the oracle among the online governors.");
}
