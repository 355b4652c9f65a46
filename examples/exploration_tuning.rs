//! Sweep the exploration machinery: EPD sharpness β, the ε decay rate
//! of Eq. 6, and the EPD/UPD choice — showing how the paper's choices
//! cut the number of explorations (Table II's mechanism).
//!
//! ```sh
//! cargo run --release --example exploration_tuning
//! ```

use qgov::prelude::*;

fn run_with(config: RtmConfig, trace: &WorkloadTrace, bounds: (f64, f64), frames: u64) -> String {
    let mut rtm =
        RtmGovernor::new(config.with_workload_bounds(bounds.0, bounds.1)).expect("valid config");
    let report = run_experiment(
        &mut rtm,
        &mut trace.clone(),
        PlatformConfig::odroid_xu3_a15(),
        frames,
    )
    .report;
    format!(
        "explorations {:>4}   converged {:>5}   misses {:>3}   perf {:.2}",
        rtm.explorations_to_convergence()
            .unwrap_or_else(|| rtm.exploration_count()),
        rtm.converged_at()
            .map_or_else(|| "never".into(), |e| e.to_string()),
        report.deadline_misses(),
        report.normalized_performance(),
    )
}

fn main() {
    let frames = 700u64;
    let seed = 3;
    let mut app = VideoDecoderModel::mpeg4_30fps(seed).with_frames(frames);
    let (trace, bounds) = precharacterize(&mut app);

    println!("== exploration policy (MPEG4 @ 30 fps, {frames} frames) ==");
    for (label, exploration) in [
        (
            "EPD beta=2 (paper)",
            ExplorationKind::Epd {
                lambda: 1.0 / 19.0,
                beta: 2.0,
            },
        ),
        (
            "EPD beta=0.5 (flatter)",
            ExplorationKind::Epd {
                lambda: 1.0 / 19.0,
                beta: 0.5,
            },
        ),
        (
            "EPD beta=6 (sharper)",
            ExplorationKind::Epd {
                lambda: 1.0 / 19.0,
                beta: 6.0,
            },
        ),
        ("UPD (uniform, [21])", ExplorationKind::Upd),
    ] {
        let mut config = RtmConfig::paper(seed);
        config.agent.exploration = exploration;
        println!("  {label:<24} {}", run_with(config, &trace, bounds, frames));
    }

    println!("\n== epsilon decay rate of Eq. 6 (exploration -> exploitation) ==");
    for rate in [0.01, 0.02, 0.05, 0.1, 0.2] {
        let mut config = RtmConfig::paper(seed);
        config.agent.epsilon = DecayingEpsilon::new(1.0, rate, 0.01).expect("valid schedule");
        println!(
            "  decay {rate:<5} (floor at epoch {:>3})  {}",
            config.agent.epsilon.epochs_to_floor(),
            run_with(config, &trace, bounds, frames),
        );
    }

    println!("\nthe paper's choices (EPD with moderate beta, accelerated decay) should");
    println!("show the fewest explorations without hurting deadlines.");
}
