//! Golden CLI tests for `qgov`: pinned `sweep --dry-run` output, stable
//! report structure, the exit-code contract, and the journal-robustness
//! battery (truncated tail, duplicated entries, unknown future fields,
//! unknown line kinds, empty journal, conflicting bits, interior
//! corruption, a legacy snapshot) driven end-to-end through the binary.

use qgov::cli::CampaignConfig;
use qgov::prelude::ScratchDir;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const FIXTURE: &str = "[campaign]\n\
                       name = \"golden\"\n\
                       family = \"fig3\"\n\
                       seeds = [1, 2]\n\
                       frames = 100\n\
                       snapshot_every = 2\n";

fn qgov() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_qgov"));
    cmd.env_remove("QGOV_CAMPAIGN_KILL_AFTER")
        .env_remove("QGOV_CAMPAIGN_TORN")
        .env_remove("QGOV_WORKERS");
    cmd
}

fn write_fixture(dir: &Path) -> PathBuf {
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("campaign.toml");
    std::fs::write(&path, FIXTURE).unwrap();
    path
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn assert_exit(output: &Output, code: i32, what: &str) {
    assert_eq!(
        output.status.code(),
        Some(code),
        "{what}: expected exit {code}, got {:?}\nstderr:\n{}",
        output.status,
        stderr_of(output)
    );
}

/// Clean sweep into `state`; returns the report's stdout bytes.
fn sweep_and_report(scratch: &Path, state: &Path) -> Vec<u8> {
    let config = write_fixture(scratch);
    let output = qgov()
        .arg("sweep")
        .arg("--state")
        .arg(state)
        .arg(&config)
        .output()
        .unwrap();
    assert_exit(&output, 0, "clean sweep");
    report_ok(state)
}

fn report_ok(state: &Path) -> Vec<u8> {
    let output = qgov().arg("report").arg(state).output().unwrap();
    assert_exit(&output, 0, "report");
    output.stdout
}

fn resume_expect(state: &Path, code: i32) -> Output {
    let output = qgov().arg("resume").arg(state).output().unwrap();
    assert_exit(&output, code, "resume");
    output
}

#[test]
fn dry_run_output_is_golden() {
    let scratch = ScratchDir::unique("qgov-cli-golden");
    let config = write_fixture(scratch.path());
    let output = qgov()
        .arg("sweep")
        .arg("--dry-run")
        .arg(&config)
        .output()
        .unwrap();
    assert_exit(&output, 0, "dry run");
    // The fingerprint is computed through the library so the golden
    // text tracks the canonical config rendering exactly.
    let fingerprint = CampaignConfig::from_file(&config).unwrap().fingerprint();
    let expected = format!(
        "campaign golden: 2 cells (fingerprint {fingerprint:016x})\n\
         fig3/seed=1/frames=100\n\
         fig3/seed=2/frames=100\n"
    );
    assert_eq!(String::from_utf8(output.stdout).unwrap(), expected);
}

#[test]
fn report_structure_is_pinned_and_rerun_is_byte_identical() {
    let scratch = ScratchDir::unique("qgov-cli-report");
    let state = scratch.path().join("state");
    let first = sweep_and_report(scratch.path(), &state);
    let text = String::from_utf8(first.clone()).unwrap();
    let fingerprint = CampaignConfig::from_toml_str(FIXTURE)
        .unwrap()
        .fingerprint();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines[0], "campaign golden (fig3)");
    assert_eq!(lines[1], format!("config fingerprint: {fingerprint:016x}"));
    assert_eq!(lines[2], "seeds: [1, 2]");
    assert_eq!(lines[3], "frames: 100");
    assert_eq!(lines[4], "cells complete: 2/2");
    // Metric rows keep first-appearance order, scanning cells in
    // work-list order.
    let metric_order: Vec<&str> = lines[8..]
        .iter()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(
        metric_order,
        [
            "early_misprediction",
            "late_misprediction",
            "mispredicted_frames"
        ]
    );
    // Reports are a pure function of the state dir: rerunning is
    // byte-identical.
    assert_eq!(report_ok(&state), first);
}

#[test]
fn report_bench_json_appends_records_without_touching_stdout() {
    let scratch = ScratchDir::unique("qgov-cli-benchjson");
    let state = scratch.path().join("state");
    let baseline = sweep_and_report(scratch.path(), &state);
    let json = scratch.path().join("bench.json");
    let output = qgov()
        .arg("report")
        .arg("--bench-json")
        .arg(&json)
        .arg(&state)
        .output()
        .unwrap();
    assert_exit(&output, 0, "report --bench-json");
    assert_eq!(output.stdout, baseline, "bench-json must not change stdout");
    let body = std::fs::read_to_string(&json).unwrap();
    assert!(
        body.lines().count() >= 1 && body.contains("campaign/golden"),
        "unexpected bench json:\n{body}"
    );
}

#[test]
fn exit_code_contract() {
    let scratch = ScratchDir::unique("qgov-cli-exits");
    std::fs::create_dir_all(scratch.path()).unwrap();

    // 2: usage errors.
    for args in [
        vec!["frobnicate"],
        vec!["sweep"],
        vec!["sweep", "--bogus-flag", "x.toml"],
        vec!["resume"],
        vec!["report"],
        vec!["run", "--family", "fig3"],
        vec!["run", "--family", "nonsense", "--frames", "10"],
        vec!["run", "--family", "fig3", "--frames", "1"],
        vec!["replay", "--trace", "x", "--governor", "warp-speed"],
    ] {
        let output = qgov().args(&args).output().unwrap();
        assert_exit(&output, 2, &format!("usage: {args:?}"));
    }

    // 3: config rejected (bad TOML syntax, and bad values).
    let bad_syntax = scratch.path().join("bad.toml");
    std::fs::write(&bad_syntax, "this is not toml at all\n").unwrap();
    let output = qgov()
        .arg("sweep")
        .arg("--dry-run")
        .arg(&bad_syntax)
        .output()
        .unwrap();
    assert_exit(&output, 3, "bad TOML");
    assert!(
        stderr_of(&output).contains("TOML line 1"),
        "{}",
        stderr_of(&output)
    );

    // Bad values, among them the retired `fleet` family and key and a
    // horizon shorter than the family's minimum, fail before any cell
    // runs.
    for (what, text, needle) in [
        (
            "duplicate seeds",
            "[campaign]\nfamily = \"fig3\"\nseeds = [1, 1]\nframes = 10\n",
            "duplicate seed",
        ),
        (
            "fleet family",
            "[campaign]\nfamily = \"fleet\"\nseeds = [1]\nframes = 10\n",
            "unknown family",
        ),
        (
            "fleet = 4",
            "[campaign]\nfamily = \"table1\"\nseeds = [1]\nframes = 10\nfleet = 4\n",
            "must be 1",
        ),
        (
            "fig3 at 1 frame",
            "[campaign]\nfamily = \"fig3\"\nseeds = [1]\nframes = 1\n",
            "at least 2 for family fig3",
        ),
    ] {
        let path = scratch.path().join("bad-values.toml");
        std::fs::write(&path, text).unwrap();
        let output = qgov()
            .arg("sweep")
            .arg("--dry-run")
            .arg(&path)
            .output()
            .unwrap();
        assert_exit(&output, 3, what);
        assert!(
            stderr_of(&output).contains(needle),
            "{what}: {}",
            stderr_of(&output)
        );
    }

    // 4: state errors — missing state dir for report and resume.
    let missing = scratch.path().join("no-such-dir");
    assert_exit(
        &qgov().arg("report").arg(&missing).output().unwrap(),
        4,
        "report on missing dir",
    );
    assert_exit(
        &qgov().arg("resume").arg(&missing).output().unwrap(),
        4,
        "resume on missing dir",
    );

    // 4: version-mismatched journal.
    let state = scratch.path().join("state");
    sweep_and_report(scratch.path(), &state);
    let journal = state.join("journal.log");
    let body = std::fs::read_to_string(&journal).unwrap();
    let stamped = body.replacen("qgov-journal v1 ", "qgov-journal v99 ", 1);
    assert_ne!(body, stamped, "journal header not found");
    std::fs::write(&journal, stamped).unwrap();
    let output = resume_expect(&state, 4);
    assert!(
        stderr_of(&output).contains("format version"),
        "{}",
        stderr_of(&output)
    );

    // 4: sweep refuses an already-initialised state dir.
    let config = write_fixture(scratch.path());
    std::fs::write(&journal, body).unwrap();
    let output = qgov()
        .arg("sweep")
        .arg("--state")
        .arg(&state)
        .arg(&config)
        .output()
        .unwrap();
    assert_exit(&output, 4, "sweep onto existing state");
    assert!(
        stderr_of(&output).contains("resume"),
        "{}",
        stderr_of(&output)
    );
}

/// Sets up a completed campaign, applies `tamper` to the journal text,
/// and returns (state dir, clean report bytes).
fn tampered_state(
    scratch: &Path,
    name: &str,
    tamper: impl FnOnce(String) -> String,
) -> (PathBuf, Vec<u8>) {
    let state = scratch.join(name);
    let clean = sweep_and_report(scratch, &state);
    let journal = state.join("journal.log");
    let body = std::fs::read_to_string(&journal).unwrap();
    std::fs::write(&journal, tamper(body)).unwrap();
    (state, clean)
}

#[test]
fn journal_truncated_tail_resumes_cleanly() {
    let scratch = ScratchDir::unique("qgov-cli-trunc");
    let (state, clean) = tampered_state(scratch.path(), "state", |body| {
        body[..body.len() - 25].to_owned() // mid-line cut
    });
    let output = resume_expect(&state, 0);
    assert!(
        stderr_of(&output).contains("torn"),
        "{}",
        stderr_of(&output)
    );
    assert_eq!(report_ok(&state), clean);
}

#[test]
fn journal_duplicate_identical_entry_is_collapsed() {
    let scratch = ScratchDir::unique("qgov-cli-dup");
    let (state, clean) = tampered_state(scratch.path(), "state", |body| {
        let last_cell = body.lines().last().unwrap().to_owned();
        format!("{body}{last_cell}\n")
    });
    let output = resume_expect(&state, 0);
    assert!(
        stderr_of(&output).contains("duplicate"),
        "{}",
        stderr_of(&output)
    );
    assert_eq!(report_ok(&state), clean);
}

#[test]
fn journal_unknown_future_field_is_preserved_not_fatal() {
    let scratch = ScratchDir::unique("qgov-cli-future");
    let (state, clean) = tampered_state(scratch.path(), "state", |body| {
        // A field written by a hypothetical future version: unknown
        // key=value tokens on a cell line are carried as extras.
        let mut lines: Vec<String> = body.lines().map(str::to_owned).collect();
        let first_cell = lines.iter().position(|l| l.starts_with("cell ")).unwrap();
        lines[first_cell].push_str(" future_field=from-v2");
        lines.join("\n") + "\n"
    });
    resume_expect(&state, 0);
    assert_eq!(report_ok(&state), clean);
}

#[test]
fn journal_unknown_line_kind_is_skipped_with_warning() {
    let scratch = ScratchDir::unique("qgov-cli-kind");
    let (state, clean) = tampered_state(scratch.path(), "state", |body| {
        let mut lines: Vec<String> = body.lines().map(str::to_owned).collect();
        lines.insert(1, "annotation operator-note-from-the-future".to_owned());
        lines.join("\n") + "\n"
    });
    let output = resume_expect(&state, 0);
    assert!(
        stderr_of(&output).contains("unknown"),
        "{}",
        stderr_of(&output)
    );
    assert_eq!(report_ok(&state), clean);
}

#[test]
fn empty_journal_resumes_from_scratch() {
    let scratch = ScratchDir::unique("qgov-cli-empty");
    let (state, clean) = tampered_state(scratch.path(), "state", |_| String::new());
    resume_expect(&state, 0);
    assert_eq!(report_ok(&state), clean);
}

#[test]
fn journal_conflicting_duplicate_is_fatal_not_silent() {
    let scratch = ScratchDir::unique("qgov-cli-conflict");
    let (state, _) = tampered_state(scratch.path(), "state", |body| {
        // Re-journal the first cell with different bits: the campaign
        // must refuse rather than silently pick one.
        let first_cell = body.lines().find(|l| l.starts_with("cell ")).unwrap();
        let flipped = match first_cell.strip_suffix('0') {
            Some(head) => format!("{head}1"),
            None => format!("{}0", &first_cell[..first_cell.len() - 1]),
        };
        format!("{body}{flipped}\n")
    });
    let output = resume_expect(&state, 4);
    assert!(
        stderr_of(&output).contains("conflict"),
        "{}",
        stderr_of(&output)
    );
}

#[test]
fn journal_interior_corruption_is_fatal_with_line_number() {
    let scratch = ScratchDir::unique("qgov-cli-interior");
    let (state, _) = tampered_state(scratch.path(), "state", |body| {
        // A cell line that cannot parse, NOT in final position: only
        // the final line may be repaired as a torn write.
        let mut lines: Vec<String> = body.lines().map(str::to_owned).collect();
        lines.insert(1, "cell mangled-beyond-repair".to_owned());
        lines.join("\n") + "\n"
    });
    let output = resume_expect(&state, 4);
    assert!(
        stderr_of(&output).contains("line 2"),
        "{}",
        stderr_of(&output)
    );
}

#[test]
fn journal_foreign_cell_id_is_fatal() {
    let scratch = ScratchDir::unique("qgov-cli-foreign");
    let (state, _) = tampered_state(scratch.path(), "state", |body| {
        format!(
            "{body}cell table1/seed=99/frames=5 x={:016x}\ncell pad/x y={:016x}\n",
            1f64.to_bits(),
            2f64.to_bits()
        )
    });
    let output = resume_expect(&state, 4);
    assert!(
        stderr_of(&output).contains("work list"),
        "{}",
        stderr_of(&output)
    );
}

/// The journal is a campaign's only record: a clean sweep leaves no
/// snapshot, and a `snapshot.log` left by an older build — foreign
/// version or conflicting bits — changes neither resume nor report.
#[test]
fn legacy_snapshot_log_is_ignored() {
    let scratch = ScratchDir::unique("qgov-cli-legacy-snapshot");
    let state = scratch.path().join("state");
    let clean = sweep_and_report(scratch.path(), &state);
    let mut files: Vec<String> = std::fs::read_dir(&state)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    assert_eq!(files, ["campaign.toml", "journal.log"]);

    let journal = std::fs::read_to_string(state.join("journal.log")).unwrap();
    let foreign = journal.replacen("qgov-journal v1 ", "qgov-snapshot v99 ", 1);
    assert_ne!(journal, foreign, "journal header not found");
    // A well-formed snapshot whose first cell disagrees with the journal.
    let doctored = scratch.path().join("doctored");
    std::fs::create_dir_all(&doctored).unwrap();
    std::fs::write(doctored.join("journal.log"), &journal).unwrap();
    doctor_first_metric(&doctored);
    let conflicting = std::fs::read_to_string(doctored.join("journal.log"))
        .unwrap()
        .replacen("qgov-journal ", "qgov-snapshot ", 1);

    for (case, snapshot) in [
        ("foreign version", foreign),
        ("conflicting bits", conflicting),
    ] {
        std::fs::write(state.join("snapshot.log"), snapshot).unwrap();
        let output = resume_expect(&state, 0);
        assert!(
            stderr_of(&output).contains("0 ran, 2 already journaled"),
            "{case}: {}",
            stderr_of(&output)
        );
        assert_eq!(report_ok(&state), clean, "{case}");
    }
}

#[test]
fn report_against_identical_campaign_is_clean() {
    let scratch = ScratchDir::unique("qgov-cli-against");
    let state_a = scratch.path().join("state-a");
    let state_b = scratch.path().join("state-b");
    let baseline = sweep_and_report(scratch.path(), &state_a);
    sweep_and_report(scratch.path(), &state_b);
    let output = qgov()
        .arg("report")
        .arg("--against")
        .arg(&state_b)
        .arg(&state_a)
        .output()
        .unwrap();
    assert_exit(&output, 0, "report --against identical campaign");
    let text = String::from_utf8(output.stdout).unwrap();
    // The normal report still leads the output; the diff follows.
    assert!(
        text.starts_with(std::str::from_utf8(&baseline).unwrap()),
        "{text}"
    );
    assert!(
        text.contains("2 shared cell(s)") && text.contains("0 beyond tolerance"),
        "{text}"
    );
}

/// Rewrites the first journaled metric of the first cell in `state` to
/// a different bit pattern, returning the doctored value's name.
fn doctor_first_metric(state: &Path) -> String {
    let journal = state.join("journal.log");
    let body = std::fs::read_to_string(&journal).unwrap();
    let mut doctored_name = String::new();
    let lines: Vec<String> = body
        .lines()
        .map(|line| {
            if !line.starts_with("cell ") || !doctored_name.is_empty() {
                return line.to_owned();
            }
            // Token 0 is "cell", token 1 the id (which itself contains
            // '='); metric tokens start at index 2.
            let mut tokens: Vec<String> = line.split(' ').map(str::to_owned).collect();
            let slot = 2 + tokens[2..].iter().position(|t| t.contains('=')).unwrap();
            let (name, hex) = tokens[slot].split_once('=').unwrap();
            let value = f64::from_bits(u64::from_str_radix(hex, 16).unwrap());
            doctored_name = name.to_owned();
            tokens[slot] = format!("{name}={:016x}", (value * 2.0 + 1.0).to_bits());
            tokens.join(" ")
        })
        .collect();
    std::fs::write(&journal, lines.join("\n") + "\n").unwrap();
    doctored_name
}

#[test]
fn report_against_doctored_baseline_exits_regression() {
    let scratch = ScratchDir::unique("qgov-cli-regress");
    let state_a = scratch.path().join("state-a");
    let state_b = scratch.path().join("state-b");
    sweep_and_report(scratch.path(), &state_a);
    sweep_and_report(scratch.path(), &state_b);
    let doctored = doctor_first_metric(&state_b);

    // Default tolerance 0 is a bit-drift detector: exit 5, and the
    // offending metric is named with both values.
    let output = qgov()
        .arg("report")
        .arg("--against")
        .arg(&state_b)
        .arg(&state_a)
        .output()
        .unwrap();
    assert_exit(&output, 5, "report --against doctored baseline");
    let text = String::from_utf8(output.stdout.clone()).unwrap();
    assert!(
        text.contains(&format!("  {doctored}: ")) && text.contains("1 beyond tolerance"),
        "{text}"
    );
    assert!(stderr_of(&output).contains("beyond tolerance"), "{text}");

    // A tolerance above the symmetric-relative-delta ceiling (2)
    // accepts any finite drift.
    let output = qgov()
        .arg("report")
        .arg("--against")
        .arg(&state_b)
        .arg("--tolerance")
        .arg("5")
        .arg(&state_a)
        .output()
        .unwrap();
    assert_exit(&output, 0, "report --against with loose tolerance");

    // --tolerance without --against is a usage error.
    let output = qgov()
        .arg("report")
        .arg("--tolerance")
        .arg("0.1")
        .arg(&state_a)
        .output()
        .unwrap();
    assert_exit(&output, 2, "--tolerance without --against");
}

#[test]
fn run_single_cell_prints_metrics() {
    let output = qgov()
        .args(["run", "--family", "fig3", "--seed", "1", "--frames", "60"])
        .output()
        .unwrap();
    assert_exit(&output, 0, "run");
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.starts_with("cell fig3/seed=1/frames=60\n"), "{text}");
    assert!(text.contains("early_misprediction = "), "{text}");
}

#[test]
fn record_then_replay_all_governors() {
    let scratch = ScratchDir::unique("qgov-cli-trace");
    let trace = scratch.path().join("trace");
    let output = qgov()
        .args(["record", "--out"])
        .arg(&trace)
        .args(["--frames", "90", "--seed", "3"])
        .output()
        .unwrap();
    assert_exit(&output, 0, "record");
    for governor in ["ondemand", "conservative", "rtm"] {
        let output = qgov()
            .args(["replay", "--trace"])
            .arg(&trace)
            .args(["--governor", governor, "--seed", "3"])
            .output()
            .unwrap();
        assert_exit(&output, 0, &format!("replay {governor}"));
        let text = String::from_utf8(output.stdout).unwrap();
        assert!(text.contains("replayed 90 frames"), "{governor}: {text}");
        assert!(text.contains("miss_rate = "), "{governor}: {text}");
    }
    // Replays of a recorded trace are deterministic.
    let replay = |governor: &str| {
        let output = qgov()
            .args(["replay", "--trace"])
            .arg(&trace)
            .args(["--governor", governor, "--seed", "3"])
            .output()
            .unwrap();
        assert_exit(&output, 0, "replay determinism");
        output.stdout
    };
    assert_eq!(replay("rtm"), replay("rtm"));
    // 4: missing trace dir.
    let output = qgov()
        .args(["replay", "--trace"])
        .arg(scratch.path().join("nope"))
        .args(["--governor", "rtm"])
        .output()
        .unwrap();
    assert_exit(&output, 4, "replay missing trace");
}

/// Records `frames` frames in `shard_frames`-frame shards into a fresh
/// trace directory under `scratch`.
fn record_trace(scratch: &ScratchDir, frames: &str, shard_frames: &str) -> PathBuf {
    let trace = scratch.path().join("trace");
    let output = qgov()
        .args(["record", "--out"])
        .arg(&trace)
        .args(["--frames", frames, "--shard-frames", shard_frames])
        .output()
        .unwrap();
    assert_exit(&output, 0, "record");
    trace
}

fn replay_rtm(trace: &Path) -> Output {
    qgov()
        .args(["replay", "--trace"])
        .arg(trace)
        .args(["--governor", "rtm"])
        .output()
        .unwrap()
}

/// The byte offset of the first frame in a shard file: the end of its
/// header line.
fn body_offset(shard: &[u8]) -> usize {
    shard.iter().position(|&b| b == b'\n').unwrap() + 1
}

#[test]
fn replay_of_a_corrupt_shard_exits_with_the_state_error() {
    let scratch = ScratchDir::unique("qgov-cli-corrupt-shard");
    let trace = record_trace(&scratch, "50", "20");
    // Zero the first frame's thread count in the middle shard.
    let shard = trace.join("shard-000001.bin");
    let bytes = std::fs::read(&shard).unwrap();
    let at = body_offset(&bytes);
    let mut bad = bytes.clone();
    bad[at..at + 8].copy_from_slice(&0u64.to_le_bytes());
    std::fs::write(&shard, &bad).unwrap();

    let output = replay_rtm(&trace);
    assert_exit(&output, 4, "replay of a corrupt shard");
    let stderr = stderr_of(&output);
    assert!(stderr.contains("shard-000001.bin"), "{stderr}");
    assert!(stderr.contains(&format!("at byte {at}")), "{stderr}");
    assert!(output.stdout.is_empty(), "no run may start");

    // Every field decodes, but one more thread of u64::MAX cycles
    // pushes frame 0's cycle total past the counter.
    let threads = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let mut bad = bytes[..at].to_vec();
    bad.extend_from_slice(&(threads + 1).to_le_bytes());
    let first_end = at + 8 + 16 * threads as usize;
    bad.extend_from_slice(&bytes[at + 8..first_end]);
    bad.extend_from_slice(&u64::MAX.to_le_bytes());
    bad.extend_from_slice(&1u64.to_le_bytes());
    bad.extend_from_slice(&bytes[first_end..]);
    std::fs::write(&shard, &bad).unwrap();

    let output = replay_rtm(&trace);
    assert_exit(&output, 4, "replay of a shard whose frame overflows");
    let stderr = stderr_of(&output);
    assert!(stderr.contains("shard-000001.bin"), "{stderr}");
    assert!(
        stderr.contains(&format!("at byte {at}: frame 0")),
        "{stderr}"
    );
    assert!(
        stderr.contains("cpu_cycles total overflows u64"),
        "{stderr}"
    );
    assert!(output.stdout.is_empty(), "no run may start");
}

#[test]
fn replay_of_a_non_utf8_shard_exits_with_a_located_parse_error() {
    let scratch = ScratchDir::unique("qgov-cli-non-utf8-shard");
    let trace = record_trace(&scratch, "50", "20");
    // One 0xFF byte in the header line (line 1) of the middle shard.
    let shard = trace.join("shard-000001.bin");
    let mut bytes = std::fs::read(&shard).unwrap();
    bytes[7] = 0xFF;
    std::fs::write(&shard, bytes).unwrap();

    let output = replay_rtm(&trace);
    assert_exit(&output, 4, "replay of a shard that is not UTF-8");
    let stderr = stderr_of(&output);
    assert!(stderr.contains("shard-000001.bin"), "{stderr}");
    assert!(stderr.contains("parse error at line 1"), "{stderr}");
    assert!(output.stdout.is_empty(), "no run may start");
}

#[test]
fn replay_of_a_manifest_larger_than_its_shards_exits_with_the_state_error() {
    let scratch = ScratchDir::unique("qgov-cli-oversized-manifest");
    let trace = record_trace(&scratch, "20", "20");
    // Declare 2^40 frames in one 2^40-frame shard over the real
    // 20-frame shard file: the manifest alone is consistent.
    let manifest = trace.join("manifest.csv");
    let text = std::fs::read_to_string(&manifest).unwrap();
    let doctored = text
        .replace(" frames=20 ", " frames=1099511627776 ")
        .replace(" frames_per_shard=20 ", " frames_per_shard=1099511627776 ");
    assert_ne!(doctored, text);
    std::fs::write(&manifest, doctored).unwrap();

    let output = replay_rtm(&trace);
    assert_exit(&output, 4, "replay of an oversized manifest");
    let stderr = stderr_of(&output);
    assert!(stderr.contains("shard-000000.bin"), "{stderr}");
    assert!(stderr.contains("1099511627776"), "{stderr}");
}
