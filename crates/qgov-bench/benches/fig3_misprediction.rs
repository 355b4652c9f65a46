//! Regenerates **Fig. 3** of Biswas et al., DATE 2017: workload
//! misprediction for MPEG4 decoding at 24 fps (EWMA γ = 0.6) and the
//! learning impact on the average slack ratio. Prints the headline
//! statistics and writes the base seed's full series to
//! `target/fig3_misprediction.csv` for plotting.
//!
//! Run with `cargo bench -p qgov-bench --bench fig3_misprediction`.
//! The paper's figure shows the first 240 frames; the recorded
//! baseline uses the full 3000.
//! `QGOV_FRAMES`, `QGOV_SEEDS`, `QGOV_WORKERS` and `QGOV_BENCH_PASSES`
//! override the plan (`qgov_bench::plan::RunPlan::from_env`; an invalid
//! value exits with status 2). The default is one seed, matching the
//! recorded single-run baselines.

use qgov_bench::experiments::Fig3;
use qgov_bench::perf::bench_target;
use qgov_bench::plan::RunPlan;

fn main() {
    let run = bench_target::<Fig3>(
        "fig3_misprediction",
        "Fig. 3: workload misprediction and learning impact on slack",
        "workload: MPEG4 SVGA at 24 fps, gamma = 0.6, scene change scripted at frame 90",
        RunPlan::new(vec![2017], 3_000),
    );
    println!("paper reference: early ~8%, late ~3%");

    // The plottable series is inherently per-seed; write the first
    // (base) seed's CSV, as the single-run baseline always has.
    let out = std::path::Path::new("target").join("fig3_misprediction.csv");
    if let Some(parent) = out.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(&out, &run.outputs[0].csv) {
        Ok(()) => println!(
            "full series (seed {}) written to {}",
            run.plan.seeds[0],
            out.display()
        ),
        Err(e) => println!("could not write {}: {e}", out.display()),
    }
}
