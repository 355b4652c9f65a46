//! The append-only campaign journal: a campaign's only record of its
//! completed cells.
//!
//! # Format
//!
//! A journal is a line-oriented text file:
//!
//! ```text
//! qgov-journal v1 fp=0123456789abcdef
//! cell table3/seed=1/frames=120 exploration_epochs/geqiu=4053000000000000 ...
//! ```
//!
//! Line 1 is the header: format version plus the campaign config's
//! fingerprint, so a journal can never be replayed against a different
//! campaign definition. Every further `cell` line records one
//! completed cell: its stable work-list ID followed by
//! `name=<16-hex>` tokens, each value an `f64` **bit pattern**
//! ([`f64::to_bits`] as zero-padded lowercase hex) — the exact bits
//! the cell computed, so a resumed report reproduces the uninterrupted
//! report byte-for-byte. A token whose value is *not* exactly 16 hex
//! digits is preserved verbatim as an extra (forward compatibility:
//! unknown future fields survive a rewrite round trip), and lines
//! whose first word is unknown are skipped with a warning.
//!
//! # Durability and repair
//!
//! Appends are a single `write_all` of one complete line; the file is
//! an unbuffered `File`, so the bytes reach the OS before the append
//! returns and a `SIGKILL` cannot lose them (only machine loss can,
//! which re-runs cells — never corrupts them). A kill *mid-write*
//! leaves a torn final line: [`scan`] detects any unterminated or
//! unparseable tail line (a line that is not UTF-8 is unparseable),
//! reports it as a warning, and [`JournalWriter::open_append`]
//! truncates the file to the clean prefix, measured in bytes on disk,
//! so the interrupted cell simply reruns. Everything *before* the
//! tail must parse exactly; a corrupt interior line is a hard,
//! line-numbered error — resuming over silently dropped cells is how
//! wrong reports happen.
//!
//! # Crash injection
//!
//! The writer doubles as the test battery's fault injector: when
//! `QGOV_CAMPAIGN_KILL_AFTER=<k>` is set the process aborts at the
//! k-th append (k = 0: right after the header), and
//! `QGOV_CAMPAIGN_TORN=1` additionally writes only a prefix of that
//! final line first — a deterministic mid-journal-write kill, no
//! timing races. Production runs never set these.

use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Journal format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// One completed cell as journaled: its work-list ID, its metric bits,
/// and any unrecognised forward-compatibility tokens.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// The stable work-list cell ID.
    pub id: String,
    /// `(metric name, value)` pairs in cell order.
    pub metrics: Vec<(String, f64)>,
    /// Unrecognised `key=value` tokens, preserved verbatim.
    pub extras: Vec<(String, String)>,
}

impl CellRecord {
    /// A record with no extras.
    #[must_use]
    pub fn new(id: impl Into<String>, metrics: Vec<(String, f64)>) -> Self {
        CellRecord {
            id: id.into(),
            metrics,
            extras: Vec::new(),
        }
    }
}

/// Why a journal was rejected.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure.
    Io(PathBuf, std::io::Error),
    /// A structurally invalid line before the (repairable) tail.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// 1-based line number.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// The file belongs to a different format version or campaign.
    Mismatch {
        /// The offending file.
        path: PathBuf,
        /// What did not match.
        message: String,
    },
    /// Two entries for one cell disagree on its bits.
    Conflict {
        /// The offending file.
        path: PathBuf,
        /// The cell with conflicting entries.
        id: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(path, e) => write!(f, "{}: {e}", path.display()),
            JournalError::Corrupt {
                path,
                line,
                message,
            } => write!(
                f,
                "{} line {line}: corrupt journal: {message}",
                path.display()
            ),
            JournalError::Mismatch { path, message } => {
                write!(f, "{}: {message}", path.display())
            }
            JournalError::Conflict { path, id } => write!(
                f,
                "{}: conflicting entries for cell {id} — refusing to guess which bits are real",
                path.display()
            ),
        }
    }
}

impl std::error::Error for JournalError {}

/// What a [`scan`] recovered: the deduplicated completed cells (in
/// first-seen order), the diagnostics worth relaying, and the byte
/// length of the valid prefix (everything after it is a repairable
/// torn tail).
#[derive(Debug)]
pub struct ScanOutcome {
    /// Completed cells, deduplicated, in first-seen order.
    pub cells: Vec<CellRecord>,
    /// Human-readable diagnostics (torn tail dropped, duplicates
    /// collapsed, unknown line kinds skipped).
    pub warnings: Vec<String>,
    /// Length in bytes of the parseable prefix;
    /// [`JournalWriter::open_append`] truncates the file to this.
    pub clean_len: u64,
}

/// Renders one `cell` line (no trailing newline).
///
/// # Panics
///
/// Panics when the ID or a metric name would break the line grammar
/// (whitespace anywhere, `=` in a metric name) — work-list IDs and
/// metric names are token-safe by construction.
#[must_use]
pub fn render_cell_line(record: &CellRecord) -> String {
    assert!(
        !record.id.chars().any(char::is_whitespace),
        "cell ID {:?} contains whitespace",
        record.id
    );
    let mut line = format!("cell {}", record.id);
    for (name, value) in &record.metrics {
        assert!(
            !name.contains('=') && !name.chars().any(char::is_whitespace),
            "metric name {name:?} is not token-safe"
        );
        line.push_str(&format!(" {name}={:016x}", value.to_bits()));
    }
    for (key, value) in &record.extras {
        assert!(
            !key.contains('=') && !key.chars().any(char::is_whitespace),
            "extra key {key:?} is not token-safe"
        );
        assert!(
            !value.chars().any(char::is_whitespace),
            "extra value {value:?} contains whitespace"
        );
        line.push_str(&format!(" {key}={value}"));
    }
    line
}

/// Parses one `cell` line. The inverse of [`render_cell_line`]:
/// `parse ∘ render` is the identity (the round trip
/// `crates/qgov-cli/tests/journal_roundtrip.rs` proves).
///
/// # Errors
///
/// Returns a description of the first malformed token.
pub fn parse_cell_line(line: &str) -> Result<CellRecord, String> {
    let mut tokens = line.split_whitespace();
    match tokens.next() {
        Some("cell") => {}
        other => return Err(format!("expected `cell`, got {other:?}")),
    }
    let id = tokens
        .next()
        .ok_or_else(|| "missing cell ID".to_owned())?
        .to_owned();
    let mut metrics = Vec::new();
    let mut extras = Vec::new();
    for token in tokens {
        let Some((key, value)) = token.split_once('=') else {
            return Err(format!("token {token:?} is not `key=value`"));
        };
        if key.is_empty() {
            return Err(format!("token {token:?} has an empty key"));
        }
        if value.len() == 16
            && value
                .bytes()
                .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
        {
            let bits = u64::from_str_radix(value, 16).expect("16 hex digits");
            metrics.push((key.to_owned(), f64::from_bits(bits)));
        } else {
            extras.push((key.to_owned(), value.to_owned()));
        }
    }
    if metrics.is_empty() {
        return Err(format!("cell {id} carries no metrics"));
    }
    Ok(CellRecord {
        id,
        metrics,
        extras,
    })
}

fn render_header(kind: &str, fingerprint: u64) -> String {
    format!("{kind} v{FORMAT_VERSION} fp={fingerprint:016x}")
}

/// The first word of a journal header.
const JOURNAL_KIND: &str = "qgov-journal";

/// Validates a journal header line against the expected fingerprint.
fn check_header(path: &Path, line: &str, fingerprint: u64) -> Result<(), JournalError> {
    let mismatch = |message: String| JournalError::Mismatch {
        path: path.to_path_buf(),
        message,
    };
    let mut tokens = line.split_whitespace();
    if tokens.next() != Some(JOURNAL_KIND) {
        return Err(mismatch(format!(
            "not a {JOURNAL_KIND} file (header line {line:?})"
        )));
    }
    let version = tokens.next().unwrap_or("");
    if version != format!("v{FORMAT_VERSION}") {
        return Err(mismatch(format!(
            "{JOURNAL_KIND} format version {version:?} does not match this build's v{FORMAT_VERSION} — \
             refusing to reinterpret its cells"
        )));
    }
    let fp = tokens.next().unwrap_or("");
    if fp != format!("fp={fingerprint:016x}") {
        return Err(mismatch(format!(
            "campaign fingerprint mismatch ({fp:?} vs expected fp={fingerprint:016x}): \
             this {JOURNAL_KIND} belongs to a different campaign config"
        )));
    }
    Ok(())
}

/// Scans a journal file, validating the header against `fingerprint`
/// and recovering every durable cell. See the module docs for the
/// repair rules: only the *final*, unterminated-or-unparseable line is
/// treated as a torn tail; anything wrong earlier is an error.
///
/// `known_id` filters which cell IDs belong to this campaign — an
/// entry for an ID outside the work list means the journal does not
/// match the config that claims it, and is rejected rather than
/// silently folded into the wrong report.
///
/// # Errors
///
/// [`JournalError::Io`] when unreadable, [`JournalError::Mismatch`] on
/// a foreign header, [`JournalError::Corrupt`] on an invalid interior
/// line (one that is not UTF-8 included) / unknown cell ID /
/// non-finite metric, and
/// [`JournalError::Conflict`] when duplicate entries disagree.
pub fn scan(
    path: &Path,
    fingerprint: u64,
    mut known_id: impl FnMut(&str) -> bool,
) -> Result<ScanOutcome, JournalError> {
    let bytes = std::fs::read(path).map_err(|e| JournalError::Io(path.to_path_buf(), e))?;

    // Split the bytes into complete lines, so `clean_len` counts bytes
    // on disk; remember any unterminated tail.
    let mut complete: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    let tail = complete.pop().unwrap_or_default(); // after the last '\n'
    let mut warnings = Vec::new();
    let mut torn: Option<String> = if tail.is_empty() {
        None
    } else {
        Some(format!(
            "dropped unterminated final line {:?} (torn write at kill); its cell will rerun",
            String::from_utf8_lossy(tail)
        ))
    };

    let mut clean_len: u64 = 0;
    let mut cells: Vec<CellRecord> = Vec::new();
    let mut by_id: HashMap<String, usize> = HashMap::new();

    for (index, raw) in complete.iter().enumerate() {
        let line_no = index + 1;
        let line_len = raw.len() as u64 + 1; // + '\n'
        if index == 0 {
            check_header(path, &String::from_utf8_lossy(raw), fingerprint)?;
            clean_len += line_len;
            continue;
        }
        let parsed = match std::str::from_utf8(raw) {
            Err(e) => Err(format!("line is not UTF-8 ({e})")),
            Ok(line) if line.trim().is_empty() => {
                clean_len += line_len;
                continue;
            }
            Ok(line) => {
                let kind = line.split_whitespace().next().unwrap_or("");
                if kind != "cell" {
                    warnings.push(format!(
                        "line {line_no}: skipping unknown journal line kind {kind:?} (written by a newer qgov?)"
                    ));
                    clean_len += line_len;
                    continue;
                }
                parse_cell_line(line)
            }
        };
        match parsed {
            Ok(record) => {
                if !known_id(&record.id) {
                    return Err(JournalError::Corrupt {
                        path: path.to_path_buf(),
                        line: line_no,
                        message: format!(
                            "cell {} is not in this campaign's work list despite a matching fingerprint",
                            record.id
                        ),
                    });
                }
                if let Some((name, value)) = record.metrics.iter().find(|(_, v)| !v.is_finite()) {
                    return Err(JournalError::Corrupt {
                        path: path.to_path_buf(),
                        line: line_no,
                        message: format!(
                            "metric {name} of cell {} is non-finite ({value}) — campaign metrics are finite by construction",
                            record.id
                        ),
                    });
                }
                match by_id.get(&record.id) {
                    None => {
                        by_id.insert(record.id.clone(), cells.len());
                        cells.push(record);
                    }
                    Some(&existing) if cells[existing] == record => {
                        warnings.push(format!(
                            "line {line_no}: duplicate entry for cell {} (identical bits; kept one)",
                            record.id
                        ));
                    }
                    Some(_) => {
                        return Err(JournalError::Conflict {
                            path: path.to_path_buf(),
                            id: record.id,
                        });
                    }
                }
                clean_len += line_len;
            }
            Err(message) => {
                // Only the final complete line may be written off as a
                // torn tail (a mid-write kill can leave at most one);
                // earlier damage is corruption we refuse to skip.
                let is_last = index == complete.len() - 1 && torn.is_none();
                if is_last {
                    torn = Some(format!(
                        "dropped unparseable final line ({message}); its cell will rerun"
                    ));
                } else {
                    return Err(JournalError::Corrupt {
                        path: path.to_path_buf(),
                        line: line_no,
                        message,
                    });
                }
            }
        }
    }

    if complete.is_empty() {
        warnings.push(
            "journal is empty (killed before the header write); starting from zero cells"
                .to_owned(),
        );
        torn = None; // an unterminated header fragment is also just "empty"
        clean_len = 0;
    }
    if let Some(message) = torn {
        warnings.push(message);
    }

    Ok(ScanOutcome {
        cells,
        warnings,
        clean_len,
    })
}

/// Deterministic crash injection for the resume test battery (see the
/// module docs). `kill_after == Some(k)` aborts the process at the
/// k-th append; `torn` first writes only a prefix of that line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CrashPlan {
    kill_after: Option<u64>,
    torn: bool,
}

impl CrashPlan {
    fn from_env() -> Self {
        CrashPlan {
            kill_after: std::env::var("QGOV_CAMPAIGN_KILL_AFTER")
                .ok()
                .and_then(|v| v.trim().parse().ok()),
            torn: std::env::var("QGOV_CAMPAIGN_TORN").is_ok_and(|v| v.trim() == "1"),
        }
    }
}

/// The append side of the journal. One instance exists per campaign
/// run; appends are serialised by the campaign's completion lock.
#[derive(Debug)]
pub struct JournalWriter {
    path: PathBuf,
    file: File,
    appends: u64,
    crash: CrashPlan,
}

impl JournalWriter {
    /// Creates a fresh journal (truncating any existing file) and
    /// writes its header.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] on filesystem failure.
    pub fn create(path: &Path, fingerprint: u64) -> Result<JournalWriter, JournalError> {
        let crash = CrashPlan::from_env();
        let mut file = File::create(path).map_err(|e| JournalError::Io(path.to_path_buf(), e))?;
        file.write_all(format!("{}\n", render_header(JOURNAL_KIND, fingerprint)).as_bytes())
            .map_err(|e| JournalError::Io(path.to_path_buf(), e))?;
        if crash.kill_after == Some(0) {
            std::process::abort();
        }
        Ok(JournalWriter {
            path: path.to_path_buf(),
            file,
            appends: 0,
            crash,
        })
    }

    /// Reopens an existing journal for appending, truncating the torn
    /// tail a [`scan`] identified (`clean_len`). An empty journal
    /// (killed before the header write) gets its header rewritten.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] on filesystem failure.
    pub fn open_append(
        path: &Path,
        fingerprint: u64,
        clean_len: u64,
    ) -> Result<JournalWriter, JournalError> {
        let crash = CrashPlan::from_env();
        let io = |e: std::io::Error| JournalError::Io(path.to_path_buf(), e);
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(io)?;
        file.set_len(clean_len).map_err(io)?;
        use std::io::Seek as _;
        file.seek(std::io::SeekFrom::End(0)).map_err(io)?;
        if clean_len == 0 {
            file.write_all(format!("{}\n", render_header(JOURNAL_KIND, fingerprint)).as_bytes())
                .map_err(io)?;
        }
        if crash.kill_after == Some(0) {
            std::process::abort();
        }
        Ok(JournalWriter {
            path: path.to_path_buf(),
            file,
            appends: 0,
            crash,
        })
    }

    /// Appends one completed cell as a single full-line write (the
    /// durability unit) — unless this append is the configured
    /// casualty, in which case the process aborts here, torn or not.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] on filesystem failure.
    pub fn append(&mut self, record: &CellRecord) -> Result<(), JournalError> {
        let line = format!("{}\n", render_cell_line(record));
        self.appends += 1;
        if self.crash.kill_after == Some(self.appends) {
            let cut = if self.crash.torn {
                // Stop mid-token: far enough in to leave `cell <id> na`
                // on disk, well short of the terminating newline.
                (line.len() * 2 / 3).max(6).min(line.len() - 2)
            } else {
                line.len()
            };
            let _ = self.file.write_all(&line.as_bytes()[..cut]);
            let _ = self.file.flush();
            std::process::abort();
        }
        self.file
            .write_all(line.as_bytes())
            .map_err(|e| JournalError::Io(self.path.clone(), e))
    }

    /// Appends performed by this writer (not counting pre-existing
    /// journal lines).
    #[must_use]
    pub fn appends(&self) -> u64 {
        self.appends
    }
}

/// Atomically replaces the snapshot at `path` with `cells`: the same
/// line format as the journal under a `qgov-snapshot` header, written
/// to a temp file and renamed into place.
///
/// No campaign writes or reads a snapshot: the journal is a
/// campaign's only record. The one caller left is perfbench's traced
/// `storm_campaign` mirror, and this function is deleted together with
/// that mirror (ROADMAP.md, item 3).
///
/// # Errors
///
/// Returns [`JournalError::Io`] on filesystem failure.
pub fn write_snapshot(
    path: &Path,
    fingerprint: u64,
    cells: &[CellRecord],
) -> Result<(), JournalError> {
    let mut body = format!("{}\n", render_header("qgov-snapshot", fingerprint));
    for record in cells {
        body.push_str(&render_cell_line(record));
        body.push('\n');
    }
    let tmp = path.with_extension("tmp");
    let io = |e: std::io::Error| JournalError::Io(path.to_path_buf(), e);
    std::fs::write(&tmp, body).map_err(io)?;
    std::fs::rename(&tmp, path).map_err(io)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: &str, metrics: &[(&str, f64)]) -> CellRecord {
        CellRecord::new(
            id,
            metrics.iter().map(|(n, v)| ((*n).to_owned(), *v)).collect(),
        )
    }

    #[test]
    fn cell_lines_round_trip_bit_exactly() {
        let mut rec = record("table3/seed=1/frames=120", &[("a/b", 0.1), ("c", -0.0)]);
        rec.extras
            .push(("future_field".into(), "v2-payload".into()));
        let line = render_cell_line(&rec);
        let parsed = parse_cell_line(&line).unwrap();
        assert_eq!(parsed, rec);
        assert_eq!(parsed.metrics[0].1.to_bits(), 0.1f64.to_bits());
        assert_eq!(parsed.metrics[1].1.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn malformed_cell_lines_are_rejected() {
        for bad in [
            "не cell",
            "cell",
            "cell id-only",
            "cell id bare-token",
            "cell id =novalue",
        ] {
            assert!(parse_cell_line(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn header_mismatches_are_diagnosed() {
        let dir = std::env::temp_dir().join(format!("qgov-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.log");

        std::fs::write(&path, "qgov-journal v9 fp=0000000000000000\n").unwrap();
        let err = scan(&path, 0, |_| true).unwrap_err();
        assert!(err.to_string().contains("format version"), "{err}");

        std::fs::write(&path, render_header(JOURNAL_KIND, 7) + "\n").unwrap();
        let err = scan(&path, 8, |_| true).unwrap_err();
        assert!(err.to_string().contains("fingerprint mismatch"), "{err}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_repairs_only_the_tail() {
        let dir = std::env::temp_dir().join(format!("qgov-scan-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.log");
        let fp = 42u64;
        let good = render_cell_line(&record("a", &[("m", 1.5)]));

        // Torn unterminated tail: dropped with a warning.
        std::fs::write(
            &path,
            format!("{}\n{good}\ncell b m=3ff", render_header(JOURNAL_KIND, fp)),
        )
        .unwrap();
        let outcome = scan(&path, fp, |_| true).unwrap();
        assert_eq!(outcome.cells.len(), 1);
        assert!(outcome.warnings.iter().any(|w| w.contains("torn")));
        assert_eq!(
            outcome.clean_len,
            (render_header(JOURNAL_KIND, fp).len() + 1 + good.len() + 1) as u64
        );

        // Corrupt interior line: hard error with its line number.
        std::fs::write(
            &path,
            format!(
                "{}\ncell b broken-token\n{good}\n",
                render_header(JOURNAL_KIND, fp)
            ),
        )
        .unwrap();
        let err = scan(&path, fp, |_| true).unwrap_err();
        assert!(
            matches!(err, JournalError::Corrupt { line: 2, .. }),
            "{err}"
        );

        // Empty file: clean zero-cell start.
        std::fs::write(&path, "").unwrap();
        let outcome = scan(&path, fp, |_| true).unwrap();
        assert!(outcome.cells.is_empty());
        assert_eq!(outcome.clean_len, 0);
        assert!(outcome.warnings.iter().any(|w| w.contains("empty")));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicates_collapse_identical_and_reject_conflicting() {
        let dir = std::env::temp_dir().join(format!("qgov-dup-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.log");
        let fp = 1u64;
        let line = render_cell_line(&record("a", &[("m", 2.0)]));
        let other = render_cell_line(&record("a", &[("m", 3.0)]));

        std::fs::write(
            &path,
            format!("{}\n{line}\n{line}\n", render_header(JOURNAL_KIND, fp)),
        )
        .unwrap();
        let outcome = scan(&path, fp, |_| true).unwrap();
        assert_eq!(outcome.cells.len(), 1);
        assert!(outcome.warnings.iter().any(|w| w.contains("duplicate")));

        std::fs::write(
            &path,
            format!("{}\n{line}\n{other}\n", render_header(JOURNAL_KIND, fp)),
        )
        .unwrap();
        let err = scan(&path, fp, |_| true).unwrap_err();
        assert!(matches!(err, JournalError::Conflict { .. }), "{err}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_cell_ids_fail_instead_of_misfolding() {
        let dir = std::env::temp_dir().join(format!("qgov-id-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.log");
        let line = render_cell_line(&record("rogue", &[("m", 2.0)]));
        std::fs::write(
            &path,
            format!("{}\n{line}\n", render_header(JOURNAL_KIND, 5)),
        )
        .unwrap();
        let err = scan(&path, 5, |id| id == "expected").unwrap_err();
        assert!(err.to_string().contains("work list"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `clean_len` counts bytes on disk, so a line that is not UTF-8
    /// can neither stretch the clean prefix into a torn tail (which
    /// glued the next append onto the tail's first bytes) nor pass as
    /// an unknown line kind.
    #[test]
    fn non_utf8_lines_are_unparseable_and_measured_in_bytes() {
        let dir = std::env::temp_dir().join(format!("qgov-utf8-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.log");
        let fp = 42u64;
        let mut prefix = format!(
            "{}\n{}\n",
            render_header(JOURNAL_KIND, fp),
            render_cell_line(&record("a", &[("m", 1.5)]))
        )
        .into_bytes();
        let clean = prefix.len() as u64;
        prefix.extend_from_slice(b"note \xFF\n");

        // In the interior: a line-numbered corruption.
        let mut bytes = prefix.clone();
        bytes.extend_from_slice(b"cell b m=3ff");
        std::fs::write(&path, &bytes).unwrap();
        let err = scan(&path, fp, |_| true).unwrap_err();
        assert!(
            matches!(err, JournalError::Corrupt { line: 3, .. }),
            "{err}"
        );

        // As the final line: a torn tail, cut at its first byte.
        std::fs::write(&path, &prefix).unwrap();
        let outcome = scan(&path, fp, |_| true).unwrap();
        assert_eq!(outcome.cells.len(), 1);
        assert_eq!(outcome.clean_len, clean);
        assert!(outcome.warnings.iter().any(|w| w.contains("not UTF-8")));

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
