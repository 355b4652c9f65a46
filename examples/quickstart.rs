//! Quickstart: run the paper's RTM against one video workload and print
//! what it learnt.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use qgov::prelude::*;

fn main() {
    // 1. The platform of the paper: four ARM A15 cores with 19 V-F
    //    operating points (200 MHz – 2 GHz) on one shared rail.
    let platform_config = PlatformConfig::odroid_xu3_a15();

    // 2. A workload: H.264 decode of a football sequence, 600 frames at
    //    15 frames per second (deadline T_ref = 66.7 ms per frame).
    let mut app = VideoDecoderModel::h264_football_15fps(42).with_frames(600);

    // 3. Offline pre-characterisation (the paper's "design space
    //    exploration"): record the trace once to learn the workload
    //    range, and build the Oracle reference from it.
    let (trace, bounds) = precharacterize(&mut app);
    let opp_table = platform_config.opp_table.clone();
    let mut oracle = OracleGovernor::from_trace(&trace, &opp_table, 0.02);

    // 4. The proposed run-time manager, configured as in the paper:
    //    Q-learning over 5x5 (workload x slack) states, EWMA prediction
    //    with gamma = 0.6, slack-aware EPD exploration.
    let mut rtm = RtmGovernor::new(RtmConfig::paper(42).with_workload_bounds(bounds.0, bounds.1))
        .expect("paper configuration is valid");

    // 5. Run both on the identical recorded trace.
    let frames = 600;
    let rtm_run = run_experiment(
        &mut rtm,
        &mut trace.clone(),
        platform_config.clone(),
        frames,
    );
    let oracle_run = run_experiment(&mut oracle, &mut trace.clone(), platform_config, frames);

    // 6. Report.
    println!("== qgov quickstart: RTM vs Oracle on H.264 football ==\n");
    let mut table = ComparisonTable::new(vec!["", "RTM (proposed)", "Oracle"]);
    let r = &rtm_run.report;
    let o = &oracle_run.report;
    table.add_row(vec![
        "energy".into(),
        format!("{}", r.total_energy()),
        format!("{}", o.total_energy()),
    ]);
    table.add_row(vec![
        "normalised energy".into(),
        format!("{:.3}", r.normalized_energy(o)),
        "1.000".into(),
    ]);
    table.add_row(vec![
        "normalised performance".into(),
        format!("{:.3}", r.normalized_performance()),
        format!("{:.3}", o.normalized_performance()),
    ]);
    table.add_row(vec![
        "deadline misses".into(),
        format!("{} of {}", r.deadline_misses(), r.frames()),
        format!("{} of {}", o.deadline_misses(), o.frames()),
    ]);
    table.add_row(vec![
        "mean operating point".into(),
        format!("{:.1}", r.mean_opp()),
        format!("{:.1}", o.mean_opp()),
    ]);
    table.add_row(vec![
        "V-F transitions".into(),
        r.transitions().to_string(),
        o.transitions().to_string(),
    ]);
    println!("{}", table.render());

    println!(
        "RTM learning: converged after {:?} epochs, {} exploratory actions, final epsilon {:.3}",
        rtm.converged_at(),
        rtm.exploration_count(),
        rtm.epsilon(),
    );
    println!(
        "platform after RTM run: peak die temperature {}",
        rtm_run.platform.peak_temperature(),
    );
}
