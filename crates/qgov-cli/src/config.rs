//! Campaign configuration: the `[campaign]` TOML table, its canonical
//! rendering, and the config fingerprint the journal binds to.
//!
//! A campaign is fully described by (family, seeds, frames, monitors)
//! — everything [`CampaignConfig::worklist`] needs to re-derive the
//! exact cell set — plus two knobs that never affect results: the
//! worker count (cells are bit-identical under any scheduling) and the
//! inert `snapshot_every`. [`CampaignConfig::canonical`] renders the
//! config deterministically; its FNV-1a hash
//! ([`CampaignConfig::fingerprint`]) is stamped into the journal
//! header so a journal can never be replayed against a different
//! campaign definition.
//!
//! `fleet` is a retired key: the `fleet` family is gone, so the key
//! accepts only 1, and the canonical rendering keeps its `fleet = 1`
//! line so that every existing state dir keeps its fingerprint.

use crate::minitoml::{Document, ParseError};
use qgov_bench::worklist::{Family, WorkList};
use qgov_bench::RunnerConfig;
use qgov_metrics::PackConfig;
use std::fmt;
use std::path::Path;

/// Which temporal-property pack rides along `long_horizon` cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorChoice {
    /// No monitors.
    Off,
    /// [`PackConfig::paper`] — full-length thresholds.
    Paper,
    /// [`PackConfig::short_run`] — smoke-length thresholds.
    Short,
}

impl MonitorChoice {
    /// The stable config-file name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MonitorChoice::Off => "off",
            MonitorChoice::Paper => "paper",
            MonitorChoice::Short => "short",
        }
    }

    /// Parses a config-file name (case-insensitive).
    #[must_use]
    pub fn parse(name: &str) -> Option<MonitorChoice> {
        match name.trim().to_ascii_lowercase().as_str() {
            "off" => Some(MonitorChoice::Off),
            "paper" => Some(MonitorChoice::Paper),
            "short" | "short_run" => Some(MonitorChoice::Short),
            _ => None,
        }
    }

    /// The pack this choice selects, if any.
    #[must_use]
    pub fn pack(self) -> Option<PackConfig> {
        match self {
            MonitorChoice::Off => None,
            MonitorChoice::Paper => Some(PackConfig::paper()),
            MonitorChoice::Short => Some(PackConfig::short_run()),
        }
    }
}

/// A rejected campaign config, with enough context to fix the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// What went wrong (line-numbered when the TOML layer caught it).
    pub message: String,
}

impl ConfigError {
    fn new(message: impl Into<String>) -> Self {
        ConfigError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid campaign config: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

impl From<ParseError> for ConfigError {
    fn from(e: ParseError) -> Self {
        ConfigError::new(e.to_string())
    }
}

/// One experiment campaign: the `[campaign]` table of a config file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Campaign name (journal-safe: `[A-Za-z0-9._-]`, ≤ 64 chars).
    pub name: String,
    /// The experiment family every cell runs.
    pub family: Family,
    /// The campaign seeds — one cell per seed, duplicates rejected.
    pub seeds: Vec<u64>,
    /// Frame horizon per cell.
    pub frames: u64,
    /// Campaign-level worker count: `None` = parallel auto, `Some(0)`
    /// = serial, `Some(n)` = `n` workers. Never affects results.
    pub workers: Option<usize>,
    /// Monitor pack for `long_horizon` (must stay `off` elsewhere).
    pub monitors: MonitorChoice,
    /// Inert: older builds rewrote a full-set snapshot every this many
    /// journal appends; the journal is now a campaign's only record.
    /// Still parsed, validated (≥ 1) and rendered by
    /// [`CampaignConfig::canonical`], because dropping it would change
    /// the fingerprint of every existing state dir.
    pub snapshot_every: u64,
}

impl CampaignConfig {
    /// Parses and validates a campaign config.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] on malformed TOML, a missing or
    /// unknown key, an out-of-range value (a `fleet` other than 1, a
    /// `frames` below the family's [`Family::min_frames`]), or a
    /// combination the work-list layer cannot honour (duplicate seeds,
    /// monitors outside `long_horizon`).
    pub fn from_toml_str(text: &str) -> Result<CampaignConfig, ConfigError> {
        let doc = Document::parse(text)?;
        const KNOWN: &[&str] = &[
            "name",
            "family",
            "seeds",
            "frames",
            "workers",
            "fleet",
            "monitors",
            "snapshot_every",
        ];
        for entry in doc.entries() {
            if entry.section != "campaign" {
                return Err(ConfigError::new(format!(
                    "line {}: unknown section [{}] (only [campaign] is recognised)",
                    entry.line, entry.section
                )));
            }
            if !KNOWN.contains(&entry.key.as_str()) {
                return Err(ConfigError::new(format!(
                    "line {}: unknown key {:?} in [campaign] (known keys: {})",
                    entry.line,
                    entry.key,
                    KNOWN.join(", ")
                )));
            }
        }

        let family_text = require_str(&doc, "family")?;
        let family = Family::parse(&family_text).ok_or_else(|| {
            ConfigError::new(format!(
                "unknown family {:?} (one of: {})",
                family_text,
                Family::ALL
                    .iter()
                    .map(|f| f.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })?;

        let seeds_value = doc
            .get("campaign", "seeds")
            .ok_or_else(|| ConfigError::new("missing required key `seeds`"))?;
        let seeds_array = seeds_value.as_array().ok_or_else(|| {
            ConfigError::new(format!(
                "`seeds` must be an array of integers, got {}",
                seeds_value.type_name()
            ))
        })?;
        let mut seeds = Vec::with_capacity(seeds_array.len());
        for item in seeds_array {
            let n = item.as_integer().ok_or_else(|| {
                ConfigError::new(format!(
                    "`seeds` elements must be integers, got {}",
                    item.type_name()
                ))
            })?;
            let seed =
                u64::try_from(n).map_err(|_| ConfigError::new(format!("seed {n} is negative")))?;
            if seeds.contains(&seed) {
                return Err(ConfigError::new(format!(
                    "duplicate seed {seed} (each seed is one campaign cell; duplicates would collide on one journal ID)"
                )));
            }
            seeds.push(seed);
        }
        if seeds.is_empty() {
            return Err(ConfigError::new("`seeds` must name at least one seed"));
        }

        let frames = require_u64(&doc, "frames")?;
        if frames < family.min_frames() {
            return Err(ConfigError::new(format!(
                "`frames` must be at least {} for family {family} (got {frames})",
                family.min_frames()
            )));
        }

        let name = match doc.get("campaign", "name") {
            Some(v) => v
                .as_str()
                .ok_or_else(|| {
                    ConfigError::new(format!("`name` must be a string, got {}", v.type_name()))
                })?
                .to_owned(),
            None => family.name().to_owned(),
        };
        if name.is_empty()
            || name.len() > 64
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
        {
            return Err(ConfigError::new(format!(
                "`name` {name:?} must be 1–64 chars of [A-Za-z0-9._-]"
            )));
        }

        let workers = match doc.get("campaign", "workers") {
            None => None,
            Some(v) => {
                let n = v.as_integer().ok_or_else(|| {
                    ConfigError::new(format!(
                        "`workers` must be an integer (0 = serial), got {}",
                        v.type_name()
                    ))
                })?;
                let n = usize::try_from(n)
                    .map_err(|_| ConfigError::new(format!("`workers` {n} is negative")))?;
                Some(n)
            }
        };

        match optional_u64(&doc, "fleet")? {
            None | Some(1) => {}
            Some(n) => {
                return Err(ConfigError::new(format!(
                    "`fleet = {n}`: the `fleet` family was removed, so `fleet` must be 1 or absent"
                )))
            }
        }

        let monitors = match doc.get("campaign", "monitors") {
            None => MonitorChoice::Off,
            Some(v) => {
                let text = v.as_str().ok_or_else(|| {
                    ConfigError::new(format!(
                        "`monitors` must be a string (off/paper/short), got {}",
                        v.type_name()
                    ))
                })?;
                MonitorChoice::parse(text).ok_or_else(|| {
                    ConfigError::new(format!(
                        "unknown monitors pack {text:?} (one of: off, paper, short)"
                    ))
                })?
            }
        };
        if monitors != MonitorChoice::Off && family != Family::LongHorizon {
            return Err(ConfigError::new(format!(
                "`monitors = \"{}\"` only applies to `family = \"long_horizon\"` (got {family})",
                monitors.name()
            )));
        }

        let snapshot_every = match optional_u64(&doc, "snapshot_every")? {
            None => 4,
            Some(0) => return Err(ConfigError::new("`snapshot_every` must be at least 1")),
            Some(n) => n,
        };

        Ok(CampaignConfig {
            name,
            family,
            seeds,
            frames,
            workers,
            monitors,
            snapshot_every,
        })
    }

    /// Reads and parses a campaign config file.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the file is unreadable or
    /// invalid (see [`CampaignConfig::from_toml_str`]).
    pub fn from_file(path: &Path) -> Result<CampaignConfig, ConfigError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ConfigError::new(format!("cannot read {}: {e}", path.display())))?;
        CampaignConfig::from_toml_str(&text)
            .map_err(|e| ConfigError::new(format!("{}: {}", path.display(), e.message)))
    }

    /// The canonical rendering: key order, spacing and quoting are
    /// fixed, so equal configs render byte-identically. This is what
    /// `sweep` writes into the state dir and what the fingerprint
    /// hashes; it re-parses to an equal config.
    #[must_use]
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        out.push_str("[campaign]\n");
        out.push_str(&format!("name = \"{}\"\n", self.name));
        out.push_str(&format!("family = \"{}\"\n", self.family.name()));
        let seeds: Vec<String> = self.seeds.iter().map(u64::to_string).collect();
        out.push_str(&format!("seeds = [{}]\n", seeds.join(", ")));
        out.push_str(&format!("frames = {}\n", self.frames));
        if let Some(workers) = self.workers {
            out.push_str(&format!("workers = {workers}\n"));
        }
        out.push_str("fleet = 1\n");
        out.push_str(&format!("monitors = \"{}\"\n", self.monitors.name()));
        out.push_str(&format!("snapshot_every = {}\n", self.snapshot_every));
        out
    }

    /// FNV-1a 64 over [`CampaignConfig::canonical`] — the identity the
    /// journal header pins, so a journal can only ever be resumed
    /// against the config that produced it.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = OFFSET;
        for byte in self.canonical().bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(PRIME);
        }
        hash
    }

    /// The campaign's enumerated cells.
    #[must_use]
    pub fn worklist(&self) -> WorkList {
        let mut list = WorkList::new(self.family, self.seeds.clone(), self.frames);
        if let Some(pack) = self.monitors.pack() {
            list = list.with_monitor_pack(pack);
        }
        list
    }

    /// The campaign-level execution policy ([`CampaignConfig::workers`]).
    #[must_use]
    pub fn runner(&self) -> RunnerConfig {
        match self.workers {
            None => RunnerConfig::parallel(),
            Some(0) => RunnerConfig::serial(),
            Some(n) => RunnerConfig::with_workers(n),
        }
    }
}

fn require_str(doc: &Document, key: &str) -> Result<String, ConfigError> {
    let value = doc
        .get("campaign", key)
        .ok_or_else(|| ConfigError::new(format!("missing required key `{key}`")))?;
    value.as_str().map(str::to_owned).ok_or_else(|| {
        ConfigError::new(format!(
            "`{key}` must be a string, got {}",
            value.type_name()
        ))
    })
}

fn require_u64(doc: &Document, key: &str) -> Result<u64, ConfigError> {
    optional_u64(doc, key)?.ok_or_else(|| ConfigError::new(format!("missing required key `{key}`")))
}

fn optional_u64(doc: &Document, key: &str) -> Result<Option<u64>, ConfigError> {
    match doc.get("campaign", key) {
        None => Ok(None),
        Some(v) => {
            let n = v.as_integer().ok_or_else(|| {
                ConfigError::new(format!("`{key}` must be an integer, got {}", v.type_name()))
            })?;
            u64::try_from(n)
                .map(Some)
                .map_err(|_| ConfigError::new(format!("`{key}` {n} is negative")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = "[campaign]\nfamily = \"table3\"\nseeds = [1, 2]\nframes = 120\n";

    #[test]
    fn minimal_config_fills_defaults() {
        let config = CampaignConfig::from_toml_str(MINIMAL).unwrap();
        assert_eq!(config.name, "table3");
        assert_eq!(config.family, Family::Table3);
        assert_eq!(config.seeds, [1, 2]);
        assert_eq!(config.frames, 120);
        assert_eq!(config.workers, None);
        assert_eq!(config.monitors, MonitorChoice::Off);
        assert_eq!(config.snapshot_every, 4);
    }

    #[test]
    fn minimal_canonical_text_and_fingerprint_are_pinned() {
        // The journal header binds this fingerprint: a state dir
        // resumes only while its config renders to the same bytes.
        let config = CampaignConfig::from_toml_str(MINIMAL).unwrap();
        assert_eq!(
            config.canonical(),
            "[campaign]\n\
             name = \"table3\"\n\
             family = \"table3\"\n\
             seeds = [1, 2]\n\
             frames = 120\n\
             fleet = 1\n\
             monitors = \"off\"\n\
             snapshot_every = 4\n"
        );
        assert_eq!(config.fingerprint(), 0x59de_f827_e81f_c70a);
        let explicit = CampaignConfig::from_toml_str(&format!("{MINIMAL}fleet = 1\n")).unwrap();
        assert_eq!(explicit, config);
    }

    #[test]
    fn canonical_round_trips_and_fingerprint_is_stable() {
        let config = CampaignConfig::from_toml_str(
            "[campaign]\nname = \"demo\"\nfamily = \"table1\"\nseeds = [3, 1]\n\
             frames = 100\nworkers = 2\nfleet = 1\nsnapshot_every = 2\n",
        )
        .unwrap();
        let reparsed = CampaignConfig::from_toml_str(&config.canonical()).unwrap();
        assert_eq!(config, reparsed);
        assert_eq!(config.fingerprint(), reparsed.fingerprint());
        // Different seeds ⇒ different fingerprint.
        let mut other = config.clone();
        other.seeds = vec![3, 2];
        assert_ne!(config.fingerprint(), other.fingerprint());
    }

    #[test]
    fn rejects_bad_configs_with_diagnostics() {
        let cases: &[(&str, &str)] = &[
            ("", "missing required key `family`"),
            (
                "[campaign]\nfamily = \"warp\"\nseeds = [1]\nframes = 9\n",
                "unknown family",
            ),
            (
                "[campaign]\nfamily = \"fleet\"\nseeds = [1]\nframes = 9\n",
                "unknown family",
            ),
            (
                "[campaign]\nfamily = \"table1\"\nframes = 9\n",
                "missing required key `seeds`",
            ),
            (
                "[campaign]\nfamily = \"table1\"\nseeds = []\nframes = 9\n",
                "at least one seed",
            ),
            (
                "[campaign]\nfamily = \"table1\"\nseeds = [1, 1]\nframes = 9\n",
                "duplicate seed",
            ),
            (
                "[campaign]\nfamily = \"table1\"\nseeds = [-4]\nframes = 9\n",
                "negative",
            ),
            (
                "[campaign]\nfamily = \"table1\"\nseeds = [1]\nframes = 0\n",
                "at least 1",
            ),
            (
                "[campaign]\nfamily = \"table1\"\nseeds = [1]\nframes = 9\nfleet = 2\n",
                "must be 1",
            ),
            (
                "[campaign]\nfamily = \"table1\"\nseeds = [1]\nframes = 9\nfleet = 4\n",
                "the `fleet` family was removed",
            ),
            (
                "[campaign]\nfamily = \"table1\"\nseeds = [1]\nframes = 9\nmonitors = \"paper\"\n",
                "only applies",
            ),
            (
                "[campaign]\nfamily = \"table1\"\nseeds = [1]\nframes = 9\nbogus = 1\n",
                "unknown key",
            ),
            ("[extra]\nx = 1\n", "unknown section"),
            (
                "[campaign]\nname = \"has space\"\nfamily = \"table1\"\nseeds = [1]\nframes = 9\n",
                "A-Za-z0-9",
            ),
        ];
        for (text, needle) in cases {
            let err = CampaignConfig::from_toml_str(text).unwrap_err();
            assert!(
                err.message.contains(needle),
                "config {text:?}: expected {needle:?} in {:?}",
                err.message
            );
        }
    }

    #[test]
    fn every_accepted_horizon_runs_its_first_cell() {
        // Fig. 3 and the smoothing ablation score predictions from
        // epoch 1 on, so a 1-frame campaign must fail validation rather
        // than panic in its first cell.
        for &family in Family::ALL {
            for frames in 1..=3 {
                let text =
                    format!("[campaign]\nfamily = \"{family}\"\nseeds = [1]\nframes = {frames}\n");
                match CampaignConfig::from_toml_str(&text) {
                    Ok(config) => {
                        let list = config.worklist();
                        let metrics = list.run_cell(&list.cells()[0]);
                        assert!(!metrics.is_empty(), "{family} at {frames} frames");
                    }
                    Err(e) => assert!(
                        frames < family.min_frames() && e.message.contains(family.name()),
                        "{family} at {frames} frames: {e}"
                    ),
                }
            }
        }
    }

    #[test]
    fn monitors_select_their_pack() {
        let config = CampaignConfig::from_toml_str(
            "[campaign]\nfamily = \"long_horizon\"\nseeds = [1]\nframes = 4000\nmonitors = \"short\"\n",
        )
        .unwrap();
        assert!(config.worklist().pack().is_some());
        assert_eq!(
            MonitorChoice::parse("SHORT_RUN"),
            Some(MonitorChoice::Short)
        );
        assert_eq!(MonitorChoice::parse("none"), None);
    }

    #[test]
    fn runner_maps_workers_to_policy() {
        let mut config = CampaignConfig::from_toml_str(MINIMAL).unwrap();
        assert_eq!(config.runner(), RunnerConfig::parallel());
        config.workers = Some(0);
        assert_eq!(config.runner(), RunnerConfig::serial());
        config.workers = Some(3);
        assert_eq!(config.runner(), RunnerConfig::with_workers(3));
    }
}
