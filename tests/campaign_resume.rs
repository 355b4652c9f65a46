//! The crash-injection battery for `qgov` campaigns: kill the campaign
//! process at every cell boundary (and mid-journal-write, via the torn
//! write injector), resume it, and assert the final report is
//! **byte-identical** to a run that was never killed — across worker
//! counts.
//!
//! Kill points are deterministic, not timing-based: the binary honours
//! `QGOV_CAMPAIGN_KILL_AFTER=<k>` (abort the process at the k-th
//! journal append; 0 aborts right after the header is written) and
//! `QGOV_CAMPAIGN_TORN=1` (the killing append writes only a prefix of
//! its line before aborting, simulating a torn write).

use proptest::prelude::*;
use qgov::prelude::ScratchDir;
use std::path::Path;
use std::process::{Command, Output};

/// Cells in [`fixture_config`]: fig3 with seeds `[1, 2, 3]`.
const FIXTURE_CELLS: u64 = 3;

fn fixture_config() -> &'static str {
    "[campaign]\n\
     name = \"resume-battery\"\n\
     family = \"fig3\"\n\
     seeds = [1, 2, 3]\n\
     frames = 120\n\
     snapshot_every = 2\n"
}

/// A `qgov` invocation with the campaign crash-injection and worker
/// environment scrubbed, so only what a test sets explicitly applies.
fn qgov() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_qgov"));
    cmd.env_remove("QGOV_CAMPAIGN_KILL_AFTER")
        .env_remove("QGOV_CAMPAIGN_TORN")
        .env_remove("QGOV_WORKERS")
        .env_remove("QGOV_SEEDS")
        .env_remove("QGOV_FRAMES");
    cmd
}

fn write_fixture(dir: &Path) -> std::path::PathBuf {
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("campaign.toml");
    std::fs::write(&path, fixture_config()).unwrap();
    path
}

fn assert_ok(output: &Output, what: &str) {
    assert!(
        output.status.success(),
        "{what} failed with {:?}\nstderr:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
}

/// Runs `qgov report` and returns the exact stdout bytes.
fn report_bytes(state: &Path) -> Vec<u8> {
    let output = qgov().arg("report").arg(state).output().unwrap();
    assert_ok(&output, "report");
    output.stdout
}

/// Runs an uninterrupted sweep into `state` and returns its report.
fn clean_baseline(scratch: &Path) -> Vec<u8> {
    let config = write_fixture(scratch);
    let state = scratch.join("clean");
    let output = qgov()
        .arg("sweep")
        .arg("--state")
        .arg(&state)
        .arg(&config)
        .output()
        .unwrap();
    assert_ok(&output, "clean sweep");
    report_bytes(&state)
}

/// Sweeps into `state` with a kill scheduled at journal append `kill`
/// (optionally torn). Returns true if the process was killed.
fn killed_sweep(scratch: &Path, state: &Path, kill: u64, torn: bool) -> bool {
    let config = write_fixture(scratch);
    let mut cmd = qgov();
    cmd.arg("sweep")
        .arg("--state")
        .arg(state)
        .arg(&config)
        .env("QGOV_CAMPAIGN_KILL_AFTER", kill.to_string());
    if torn {
        cmd.env("QGOV_CAMPAIGN_TORN", "1");
    }
    let output = cmd.output().unwrap();
    let killed = !output.status.success();
    assert_eq!(
        killed,
        kill <= FIXTURE_CELLS,
        "kill={kill} torn={torn}: unexpected status {:?}\nstderr:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    killed
}

fn resume(state: &Path, workers: &str) {
    let output = qgov()
        .arg("resume")
        .arg("--workers")
        .arg(workers)
        .arg(state)
        .output()
        .unwrap();
    assert_ok(&output, "resume");
}

#[test]
fn kill_at_every_cell_boundary_then_resume_is_bit_identical() {
    let scratch = ScratchDir::unique("qgov-resume-boundary");
    let baseline = clean_baseline(scratch.path());

    // Kill after the header (0), after each of the 3 cell appends
    // (1..=3), and past the end (4: never fires, sweep completes).
    for kill in 0..=FIXTURE_CELLS + 1 {
        let state = scratch.path().join(format!("kill-{kill}"));
        let killed = killed_sweep(scratch.path(), &state, kill, false);
        // Rotate resume worker counts: serial, 1, 2 and 7 workers must
        // all reconstruct the same bytes.
        let workers = ["0", "1", "2", "7"][kill as usize % 4];
        resume(&state, workers);
        assert_eq!(
            report_bytes(&state),
            baseline,
            "kill={kill} killed={killed} workers={workers}: resumed report diverged"
        );
    }
}

#[test]
fn torn_journal_write_is_repaired_on_resume() {
    let scratch = ScratchDir::unique("qgov-resume-torn");
    let baseline = clean_baseline(scratch.path());

    for kill in 1..=FIXTURE_CELLS {
        let state = scratch.path().join(format!("torn-{kill}"));
        assert!(killed_sweep(scratch.path(), &state, kill, true));
        // The journal must end mid-line: the torn injector writes only
        // a prefix of the killing append.
        let journal = std::fs::read_to_string(state.join("journal.log")).unwrap();
        assert!(
            !journal.ends_with('\n'),
            "kill={kill}: expected a torn (unterminated) final journal line"
        );
        resume(&state, "2");
        assert_eq!(
            report_bytes(&state),
            baseline,
            "kill={kill}: torn-write resume diverged"
        );
    }
}

#[test]
fn resume_after_resume_kill_still_converges() {
    // Kill the sweep, then kill the *resume* as well (torn), then let a
    // third invocation finish: the report must still match.
    let scratch = ScratchDir::unique("qgov-resume-double-kill");
    let baseline = clean_baseline(scratch.path());

    let state = scratch.path().join("double");
    assert!(killed_sweep(scratch.path(), &state, 1, false));
    let output = qgov()
        .arg("resume")
        .arg(&state)
        .env("QGOV_CAMPAIGN_KILL_AFTER", "1")
        .env("QGOV_CAMPAIGN_TORN", "1")
        .output()
        .unwrap();
    assert!(!output.status.success(), "second kill did not fire");
    resume(&state, "1");
    assert_eq!(report_bytes(&state), baseline);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random kill point × torn flag × resume worker count: the
    /// resumed report always matches the uninterrupted baseline.
    #[test]
    fn random_kill_points_resume_bit_identical(
        kill in 0u64..=FIXTURE_CELLS,
        torn_selector in 0u8..2,
        workers_selector in 0usize..3,
    ) {
        let torn = torn_selector == 1 && kill >= 1;
        let workers = ["1", "2", "7"][workers_selector];
        let scratch = ScratchDir::unique("qgov-resume-prop");
        let baseline = clean_baseline(scratch.path());
        let state = scratch.path().join("state");
        killed_sweep(scratch.path(), &state, kill, torn);
        resume(&state, workers);
        prop_assert_eq!(
            report_bytes(&state),
            baseline,
            "kill={} torn={} workers={}",
            kill,
            torn,
            workers
        );
    }
}
