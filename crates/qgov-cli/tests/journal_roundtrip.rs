//! Property tests for a campaign's two external inputs, its journal
//! and its config.
//!
//! * Journal cell lines round-trip exactly — `parse_cell_line ∘
//!   render_cell_line` is the identity, for arbitrary token-safe IDs,
//!   metric names, *bit patterns* (including NaNs, infinities and
//!   signed zeros) and forward-compat extras.
//! * Totality: `parse_cell_line`, `journal::scan` and
//!   `CampaignConfig::from_toml_str` never panic on arbitrary or
//!   near-valid input, and whatever they accept round-trips: a parsed
//!   line re-renders to the same bits, a scan's clean prefix re-scans
//!   to the same cells with nothing torn, and an accepted config's
//!   canonical rendering re-parses to an equal config with the same
//!   fingerprint.

use proptest::collection::vec;
use proptest::prelude::*;
use qgov_cli::journal::{self, parse_cell_line, render_cell_line, CellRecord, FORMAT_VERSION};
use qgov_cli::CampaignConfig;
use qgov_workloads::shard::ScratchDir;

/// A non-empty token drawn from `charset`.
fn token(charset: &'static str, max_len: usize) -> impl Strategy<Value = String> {
    let chars: Vec<char> = charset.chars().collect();
    vec(0usize..chars.len(), 1..=max_len)
        .prop_map(move |indices| indices.into_iter().map(|i| chars[i]).collect())
}

/// Work-list-shaped cell IDs: no whitespace, `=` and `/` allowed.
fn cell_id() -> impl Strategy<Value = String> {
    token("abcdefghijklmnopqrstuvwxyz0123456789/=._-", 40)
}

/// Metric names: no whitespace and no `=`.
fn metric_name() -> impl Strategy<Value = String> {
    token("abcdefghijklmnopqrstuvwxyz0123456789_/.", 24)
}

/// Extra values: never 16 lowercase hex digits (the charset has no hex
/// digits at all), so they can never be re-classified as metrics.
fn extra_value() -> impl Strategy<Value = String> {
    token("ghijklmnopqrstuvwxyz-.:", 20)
}

fn record() -> impl Strategy<Value = CellRecord> {
    (
        cell_id(),
        vec((metric_name(), 0u64..=u64::MAX), 1..=5),
        vec((metric_name(), extra_value()), 0..=3),
    )
        .prop_map(|(id, raw_metrics, extras)| CellRecord {
            id,
            metrics: raw_metrics
                .into_iter()
                .map(|(name, bits)| (name, f64::from_bits(bits)))
                .collect(),
            extras,
        })
}

type RecordBits = (String, Vec<(String, u64)>, Vec<(String, String)>);

fn bits_of(record: &CellRecord) -> RecordBits {
    (
        record.id.clone(),
        record
            .metrics
            .iter()
            .map(|(name, value)| (name.clone(), value.to_bits()))
            .collect(),
        record.extras.clone(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parse_render_is_identity(rec in record()) {
        let line = render_cell_line(&rec);
        let parsed = parse_cell_line(&line)
            .unwrap_or_else(|e| panic!("rendered line {line:?} failed to parse: {e}"));
        prop_assert_eq!(bits_of(&parsed), bits_of(&rec), "line was {:?}", line);
    }

    /// Rendering is also stable: render ∘ parse ∘ render = render.
    #[test]
    fn render_is_stable_under_reparse(rec in record()) {
        let line = render_cell_line(&rec);
        let reparsed = parse_cell_line(&line).unwrap();
        prop_assert_eq!(render_cell_line(&reparsed), line);
    }
}

/// Words cell lines are made of: IDs, metrics (one a NaN, one an
/// infinity), extras (one an uppercase hex value, which is not a
/// metric), and words that break the grammar.
const LINE_WORDS: &[&str] = &[
    "cell",
    "a",
    "table3/seed=1/frames=120",
    "m=3ff8000000000000",
    "m=7ff8000000000000",
    "x/y=fff0000000000000",
    "m=3FF8000000000000",
    "future=v2",
    "k=a=b",
    "k==",
    "=3ff8000000000000",
    "bare",
    "é=\u{fffd}",
];

/// Separators between words, Unicode whitespace included.
const LINE_SEPARATORS: &[&str] = &[" ", "  ", "\t", "\u{a0}", "\u{2003}", ""];

/// The Unicode scalar values among `codes` (surrogates dropped).
fn scalars(codes: Vec<u32>) -> String {
    codes.into_iter().filter_map(char::from_u32).collect()
}

/// `parse_cell_line` is total on `line`, and any record it accepts
/// re-renders to a line that parses back to the same bits.
fn assert_parse_is_total(line: &str) -> Result<(), TestCaseError> {
    if let Ok(record) = parse_cell_line(line) {
        let rendered = render_cell_line(&record);
        let reparsed = parse_cell_line(&rendered);
        prop_assert!(
            reparsed.is_ok(),
            "{line:?} re-rendered as {rendered:?}, which does not parse: {:?}",
            reparsed.err()
        );
        prop_assert_eq!(
            bits_of(&reparsed.unwrap()),
            bits_of(&record),
            "{:?} re-rendered as {:?}",
            line,
            rendered
        );
    }
    Ok(())
}

/// The campaign fingerprint the journal soups are scanned against.
const FP: u64 = 0x5eed;

/// One line of a journal soup: mostly a cell line (three IDs, each with
/// its own value, so duplicates occur), otherwise a conflicting entry,
/// a blank line, an unknown line kind with or without a byte that is
/// not UTF-8, a cell line with no metric, or up to seven arbitrary
/// bytes.
fn soup_line(choice: usize, bits: u64) -> Vec<u8> {
    match choice {
        0..=8 => render_cell_line(&CellRecord::new(
            ["a", "b", "c"][choice % 3],
            vec![("m".to_owned(), [0.5, 1.5, -0.0][choice % 3])],
        ))
        .into_bytes(),
        9 => render_cell_line(&CellRecord::new("a", vec![("m".to_owned(), 2.5)])).into_bytes(),
        10 => Vec::new(),
        11 => b"note x".to_vec(),
        12 => b"note \xff".to_vec(),
        13 => "note é".as_bytes().to_vec(),
        14 => b"cell a m=3ff".to_vec(),
        _ => bits.to_le_bytes()[..(bits % 8) as usize].to_vec(),
    }
}

/// `journal::scan` is total on `bytes`, and an accepted journal's clean
/// prefix is a clean journal of its own: no longer than the file,
/// empty or ending in `\n`, and, truncated to, it scans to the same
/// cells with nothing dropped.
fn assert_scan_is_total(bytes: &[u8]) -> Result<(), TestCaseError> {
    let dir = ScratchDir::unique("qgov-journal-soup");
    std::fs::create_dir_all(dir.path()).unwrap();
    let path = dir.path().join("journal.log");
    std::fs::write(&path, bytes).unwrap();
    let shown = String::from_utf8_lossy(bytes);
    let Ok(outcome) = journal::scan(&path, FP, |_| true) else {
        return Ok(());
    };
    let clean = usize::try_from(outcome.clean_len).unwrap();
    prop_assert!(
        clean <= bytes.len(),
        "clean_len {clean} runs past the end of {shown:?}"
    );
    prop_assert!(
        clean == 0 || bytes[clean - 1] == b'\n',
        "clean prefix of {shown:?} ends mid-line at byte {clean}"
    );

    std::fs::write(&path, &bytes[..clean]).unwrap();
    let again = journal::scan(&path, FP, |_| true);
    prop_assert!(
        again.is_ok(),
        "clean prefix of {shown:?} does not re-scan: {:?}",
        again.err()
    );
    let again = again.unwrap();
    prop_assert_eq!(again.clean_len, outcome.clean_len, "{}", shown);
    prop_assert_eq!(
        again.cells.iter().map(bits_of).collect::<Vec<_>>(),
        outcome.cells.iter().map(bits_of).collect::<Vec<_>>(),
        "{}",
        shown
    );
    prop_assert!(
        !again.warnings.iter().any(|w| w.starts_with("dropped")),
        "clean prefix of {shown:?} still has a torn tail: {:?}",
        again.warnings
    );
    Ok(())
}

/// The pieces campaign configs are made of, plus a few that never
/// belong in one.
const TOML_ALPHABET: &[&str] = &[
    "[campaign]",
    "[",
    "]",
    "=",
    "\"",
    "\\",
    ",",
    "#",
    "\n",
    " ",
    "\t",
    "-",
    "+",
    "0",
    "1",
    "9",
    "18446744073709551616",
    "name",
    "family",
    "seeds",
    "frames",
    "workers",
    "fleet",
    "monitors",
    "snapshot_every",
    "fig3",
    "true",
    "x",
    "é",
    "_",
    ".",
];

/// Every `[campaign]` key with values it accepts.
const CONFIG_KEYS: [(&str, &[&str]); 8] = [
    ("name", &["\"demo\"", "\"a.b_c-1\""]),
    ("family", &["\"fig3\"", "\"long_horizon\"", "\"TABLE1\""]),
    ("seeds", &["[1, 2]", "[9223372036854775807]", "[3, 1, 2]"]),
    ("frames", &["100", "1"]),
    ("workers", &["0", "2"]),
    ("fleet", &["1"]),
    ("monitors", &["\"off\"", "\"short\""]),
    ("snapshot_every", &["4", "1"]),
];

/// A config value: one of the key's accepted values most of the time,
/// otherwise zero, the largest `u64` (which overflows the TOML
/// integer), the largest `i64`, a negative integer, or a string,
/// boolean or array where the key wants something else.
fn config_value(choice: u8, valid: &[&str]) -> String {
    match choice {
        0 => "0".into(),
        1 => u64::MAX.to_string(),
        2 => i64::MAX.to_string(),
        3 => "-1".into(),
        4 => "\"x\"".into(),
        5 => "true".into(),
        6 => "[1, -1]".into(),
        _ => valid[usize::from(choice) % valid.len()].into(),
    }
}

/// `CampaignConfig::from_toml_str` is total on `text`, and an accepted
/// config's canonical rendering re-parses to an equal config with the
/// same fingerprint.
fn assert_config_is_total(text: &str) -> Result<(), TestCaseError> {
    if let Ok(config) = CampaignConfig::from_toml_str(text) {
        let canonical = config.canonical();
        let reparsed = CampaignConfig::from_toml_str(&canonical);
        prop_assert_eq!(
            reparsed.as_ref(),
            Ok(&config),
            "{:?} rendered as {:?}",
            text,
            canonical
        );
        prop_assert_eq!(
            reparsed.unwrap().fingerprint(),
            config.fingerprint(),
            "{}",
            text
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Words and separators of cell lines in any order, half of them
    /// led by `cell `.
    #[test]
    fn parse_cell_line_is_total_on_cell_shaped_text(
        led in 0u8..2,
        words in vec((0usize..LINE_SEPARATORS.len(), 0usize..LINE_WORDS.len()), 0..8),
    ) {
        let mut line = if led == 1 { "cell ".to_owned() } else { String::new() };
        for (sep, word) in words {
            line.push_str(LINE_SEPARATORS[sep]);
            line.push_str(LINE_WORDS[word]);
        }
        assert_parse_is_total(&line)?;
    }

    /// Arbitrary Unicode scalar values in the ID, an extra's key and its
    /// value.
    #[test]
    fn parse_cell_line_is_total_on_arbitrary_chars(
        id in vec(0u32..0x11_0000, 0..8),
        key in vec(0u32..0x11_0000, 0..8),
        value in vec(0u32..0x11_0000, 0..8),
    ) {
        let line = format!(
            "cell {} m=3ff8000000000000 {}={}",
            scalars(id),
            scalars(key),
            scalars(value)
        );
        assert_parse_is_total(&line)?;
    }

    /// Line soups with and without a valid header, each line ended by
    /// `\n` and the file by an optional unterminated tail: never a
    /// panic, and the clean prefix is clean.
    #[test]
    fn scan_is_total_on_arbitrary_bytes(
        header in 0u8..4,
        lines in vec((0usize..16, 0u64..=u64::MAX), 0..8),
        tail in (0usize..32, 0u64..=u64::MAX),
    ) {
        let mut bytes = if header == 0 {
            Vec::new()
        } else {
            format!("qgov-journal v{FORMAT_VERSION} fp={FP:016x}\n").into_bytes()
        };
        for (choice, bits) in lines {
            bytes.extend(soup_line(choice, bits));
            bytes.push(b'\n');
        }
        if tail.0 < 16 {
            bytes.extend(soup_line(tail.0, tail.1));
        }
        assert_scan_is_total(&bytes)?;
    }

    /// Text over the TOML alphabet, half of it after a valid config.
    #[test]
    fn config_is_total_on_arbitrary_text(
        led in 0u8..2,
        pieces in vec(0usize..TOML_ALPHABET.len(), 0..40),
    ) {
        let mut text = if led == 1 {
            "[campaign]\nfamily = \"fig3\"\nseeds = [1]\nframes = 5\n".to_owned()
        } else {
            String::new()
        };
        text.extend(pieces.iter().map(|&i| TOML_ALPHABET[i]));
        assert_config_is_total(&text)?;
    }

    /// Near-valid configs: any key's value zero, `u64::MAX`, `i64::MAX`,
    /// negative or of the wrong type; a key missing, duplicated or
    /// unknown; a second section.
    #[test]
    fn config_is_total_on_near_valid_text(
        choices in vec(0u8..64, CONFIG_KEYS.len()),
        layout in 0u8..12,
        key in 0usize..CONFIG_KEYS.len(),
    ) {
        let mut lines: Vec<String> = CONFIG_KEYS
            .iter()
            .zip(&choices)
            .map(|(&(name, valid), &choice)| format!("{name} = {}", config_value(choice, valid)))
            .collect();
        match layout {
            0 => {
                lines.remove(key);
            }
            1 => lines.push(lines[key].clone()),
            2 => lines.insert(key, "bogus = 1".into()),
            3 => lines.insert(key, "[other]".into()),
            _ => {}
        }
        let text = format!("[campaign]\n{}\n", lines.join("\n"));
        assert_config_is_total(&text)?;
    }
}
