//! Crash-safe, append-only run journals for resumable sweeps.
//!
//! A measurement campaign can take hours; a crash (or a kill) must not
//! throw away the cells that already finished. The journal is a JSONL
//! file written *cell by cell*: every completed sweep cell appends one
//! self-contained line (a single `write_all` + flush + `sync_data`, so a
//! line is either fully on disk or absent — a torn final line from a
//! crash mid-write is tolerated and simply re-run). A later invocation
//! passes the journal back via `--resume`; cells whose sweep fingerprint,
//! label, and position match are decoded instead of re-simulated, and the
//! encoding is **bit-exact** (`f64::to_bits` hex, not decimal), so a
//! resumed table is byte-identical to an unfaulted run.
//!
//! Fingerprints guard against resuming with a different experiment: the
//! [`config_fingerprint`] hashes the switch model, probe parameters,
//! windows, seed, and backend — everything that determines a cell's value
//! — but deliberately **not** the worker count, which only affects
//! scheduling (`--jobs 8` can resume a `--jobs 1` journal).

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufRead as _, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::experiments::ExperimentConfig;

/// Schema tag of the journal header lines.
pub const JOURNAL_SCHEMA: &str = "anp-journal-v1";

/// A value that can round-trip through a journal line **bit-exactly**.
///
/// `encode_journal` must produce a single-line JSON value; floating-point
/// state goes through [`encode_f64_bits`] (hex of [`f64::to_bits`]) so
/// decoding reproduces the identical bits — resumed sweeps must be
/// byte-identical to clean runs, and `{:.6}`-style decimal round-trips
/// are not.
pub trait Journaled: Sized {
    /// Encodes the value as a single-line JSON value.
    fn encode_journal(&self) -> String;
    /// Decodes a value previously produced by
    /// [`Journaled::encode_journal`]. `None` on any mismatch — the caller
    /// re-runs the cell, so decoding is allowed to be strict.
    fn decode_journal(s: &str) -> Option<Self>;
}

impl Journaled for u64 {
    fn encode_journal(&self) -> String {
        self.to_string()
    }
    fn decode_journal(s: &str) -> Option<Self> {
        s.trim().parse().ok()
    }
}

impl Journaled for String {
    fn encode_journal(&self) -> String {
        format!("\"{}\"", json_escape(self))
    }
    fn decode_journal(s: &str) -> Option<Self> {
        let inner = s.trim().strip_prefix('"')?.strip_suffix('"')?;
        unescape(inner)
    }
}

impl Journaled for anp_simnet::SimDuration {
    fn encode_journal(&self) -> String {
        self.as_nanos().to_string()
    }
    fn decode_journal(s: &str) -> Option<Self> {
        Some(anp_simnet::SimDuration::from_nanos(s.trim().parse().ok()?))
    }
}

impl Journaled for f64 {
    fn encode_journal(&self) -> String {
        encode_f64_bits(*self)
    }
    fn decode_journal(s: &str) -> Option<Self> {
        decode_f64_bits(s)
    }
}

impl<A: Journaled, B: Journaled> Journaled for (A, B) {
    fn encode_journal(&self) -> String {
        format!("[{},{}]", self.0.encode_journal(), self.1.encode_journal())
    }
    fn decode_journal(s: &str) -> Option<Self> {
        let inner = s.trim().strip_prefix('[')?.strip_suffix(']')?;
        let (a, b) = split_pair(inner)?;
        Some((A::decode_journal(a)?, B::decode_journal(b)?))
    }
}

/// `None` is journaled as `null`, `Some(x)` as `x`'s own encoding (no
/// codec in this crate encodes a value as `null`).
impl<T: Journaled> Journaled for Option<T> {
    fn encode_journal(&self) -> String {
        self.as_ref()
            .map_or_else(|| "null".to_owned(), Journaled::encode_journal)
    }
    fn decode_journal(s: &str) -> Option<Self> {
        match s.trim() {
            "null" => Some(None),
            v => T::decode_journal(v).map(Some),
        }
    }
}

/// Splits `a,b` at the first top-level comma (not inside brackets,
/// braces, or strings).
fn split_pair(s: &str) -> Option<(&str, &str)> {
    let mut depth = 0i32;
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '[' | '{' => depth += 1,
            ']' | '}' => depth -= 1,
            ',' if depth == 0 => return Some((&s[..i], &s[i + 1..])),
            _ => {}
        }
    }
    None
}

/// Encodes an `f64` as a quoted hex string of its bits (`"3ff0…"`).
/// Decimal formatting cannot round-trip every double; this can.
pub fn encode_f64_bits(x: f64) -> String {
    format!("\"{:016x}\"", x.to_bits())
}

/// Decodes a value produced by [`encode_f64_bits`].
pub fn decode_f64_bits(s: &str) -> Option<f64> {
    let hex = s.trim().strip_prefix('"')?.strip_suffix('"')?;
    Some(f64::from_bits(u64::from_str_radix(hex, 16).ok()?))
}

/// Minimal JSON string escaping: quotes, backslashes and control
/// characters. The one escaper behind the journal, the sweep telemetry
/// and the `BENCH_anp.json` writer.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Reverses [`json_escape`]. `None` on malformed escapes.
pub(crate) fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            'n' => out.push('\n'),
            't' => out.push('\t'),
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                if hex.len() != 4 {
                    return None;
                }
                out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

/// Extracts the raw (unquoted) text of `"key":<raw>` from a single-line
/// JSON object — numbers and other unquoted scalars. Searches only up to
/// the first `,"value":` marker so nested keys inside a cell value can
/// never alias an entry field.
pub(crate) fn raw_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let head = match line.find(",\"value\":") {
        Some(pos) => &line[..pos],
        None => line,
    };
    let pat = format!("\"{key}\":");
    let start = head.find(&pat)? + pat.len();
    let rest = &head[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Extracts and unescapes the string value of `"key":"…"`.
pub(crate) fn str_field(line: &str, key: &str) -> Option<String> {
    let raw = raw_field(line, key)?;
    let inner = raw.strip_prefix('"')?.strip_suffix('"')?;
    unescape(inner)
}

/// 64-bit FNV-1a over all parts, with a separator byte between parts so
/// `["ab","c"]` and `["a","bc"]` hash differently.
pub fn fnv1a(parts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for b in part.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h ^= 0x1f;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Fingerprint of everything that determines a cell's *value*: the switch
/// model, probe parameters, measurement windows, seed, and backend. The
/// worker count (`jobs`) is deliberately excluded — it only affects
/// scheduling, and results are index-collected, so a resumed run may use
/// any `--jobs`.
pub fn config_fingerprint(cfg: &ExperimentConfig, backend: &str) -> u64 {
    fnv1a(&[
        &format!("{:?}", cfg.switch),
        &format!("{:?}", cfg.impact),
        &format!("{:?}", cfg.measure_window),
        &format!("{:016x}", cfg.warmup_frac.to_bits()),
        &format!("{:?}", cfg.run_cap),
        &cfg.seed.to_string(),
        backend,
    ])
}

/// How a journaled cell ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// The cell produced its value (journaled alongside).
    Ok,
    /// The cell returned a typed experiment error.
    Failed,
    /// The cell panicked (isolated by the supervisor).
    Panicked,
    /// The cell's run budget was spent before it finished.
    Budget,
}

impl CellStatus {
    /// The journal's wire name for this status.
    pub fn as_str(self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::Failed => "failed",
            CellStatus::Panicked => "panicked",
            CellStatus::Budget => "budget",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "ok" => CellStatus::Ok,
            "failed" => CellStatus::Failed,
            "panicked" => CellStatus::Panicked,
            "budget" => CellStatus::Budget,
            _ => return None,
        })
    }
}

/// One journaled cell outcome (one line of the file).
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Name of the sweep the cell belongs to.
    pub sweep: String,
    /// Cell index within the sweep (serial task order).
    pub cell: usize,
    /// The cell's label (must match the task list on resume).
    pub label: String,
    /// How the cell ended.
    pub status: CellStatus,
    /// Retries the supervisor spent on the cell.
    pub retries: u32,
    /// Wall-clock seconds of the final attempt.
    pub wall_secs: f64,
    /// Simulation events of the final attempt.
    pub events: u64,
    /// Error rendering for non-[`CellStatus::Ok`] cells.
    pub error: Option<String>,
    /// [`Journaled`]-encoded value for [`CellStatus::Ok`] cells.
    pub value: Option<String>,
}

impl JournalEntry {
    /// Renders the entry as one JSONL line (newline included). The value
    /// is the **last** field, so the loader can slice it off without
    /// parsing its interior.
    fn to_line(&self) -> String {
        let mut line = format!(
            "{{\"sweep\":\"{}\",\"cell\":{},\"label\":\"{}\",\"status\":\"{}\",\
             \"retries\":{},\"wall_secs\":{:.6},\"events\":{}",
            json_escape(&self.sweep),
            self.cell,
            json_escape(&self.label),
            self.status.as_str(),
            self.retries,
            self.wall_secs,
            self.events,
        );
        if let Some(err) = &self.error {
            line.push_str(&format!(",\"error\":\"{}\"", json_escape(err)));
        }
        if let Some(value) = &self.value {
            line.push_str(",\"value\":");
            line.push_str(value);
        }
        line.push_str("}\n");
        line
    }

    /// Parses one entry line; `None` for torn or foreign lines.
    fn parse(line: &str) -> Option<Self> {
        if !line.starts_with("{\"sweep\":") || !line.ends_with('}') {
            return None;
        }
        let value = line
            .find(",\"value\":")
            .map(|pos| line[pos + 9..line.len() - 1].to_owned());
        Some(JournalEntry {
            sweep: str_field(line, "sweep")?,
            cell: raw_field(line, "cell")?.parse().ok()?,
            label: str_field(line, "label")?,
            status: CellStatus::parse(&str_field(line, "status")?)?,
            retries: raw_field(line, "retries")?.parse().ok()?,
            wall_secs: raw_field(line, "wall_secs")?.parse().ok()?,
            events: raw_field(line, "events")?.parse().ok()?,
            error: str_field(line, "error"),
            value,
        })
    }
}

/// Errors from journal creation, loading, or fingerprint verification.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalError {
    /// The journal file could not be created, read, or parsed at all.
    Io {
        /// The journal path.
        path: PathBuf,
        /// The underlying error rendering.
        error: String,
    },
    /// The journal was written by a run with a different experiment
    /// configuration, seed, or backend — its cells must not be reused.
    FingerprintMismatch {
        /// The sweep whose header mismatched.
        sweep: String,
        /// Fingerprint of the present configuration.
        expected: u64,
        /// Fingerprint recorded in the journal.
        found: u64,
    },
    /// The journal's sweep shape (cell count or labels) does not match
    /// the present task list despite a matching fingerprint.
    ShapeMismatch {
        /// The sweep whose shape mismatched.
        sweep: String,
        /// What differed.
        detail: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, error } => {
                write!(f, "journal {}: {error}", path.display())
            }
            JournalError::FingerprintMismatch {
                sweep,
                expected,
                found,
            } => write!(
                f,
                "journal sweep '{sweep}' was recorded under a different \
                 configuration (fingerprint {found:016x}, expected {expected:016x}); \
                 refusing to reuse its cells"
            ),
            JournalError::ShapeMismatch { sweep, detail } => {
                write!(
                    f,
                    "journal sweep '{sweep}' does not match this run: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for JournalError {}

#[derive(Debug, Default)]
struct SweepRecord {
    fingerprint: u64,
    cells: usize,
    entries: BTreeMap<usize, JournalEntry>,
}

/// An append-only cell-outcome journal backing `--resume`.
///
/// Writes are serialized under a mutex and flushed + `sync_data`'d per
/// line; a write failure warns once on stderr and disables further
/// journaling rather than aborting the sweep (the journal is a safety
/// net, not a dependency).
pub struct RunJournal {
    path: PathBuf,
    file: Mutex<File>,
    sweeps: BTreeMap<String, SweepRecord>,
    write_failed: AtomicBool,
}

impl fmt::Debug for RunJournal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunJournal")
            .field("path", &self.path)
            .field("sweeps", &self.sweeps.len())
            .finish_non_exhaustive()
    }
}

impl RunJournal {
    /// Starts a fresh journal at `path`, truncating any existing file
    /// (a new campaign).
    pub fn create(path: impl Into<PathBuf>) -> Result<Self, JournalError> {
        let path = path.into();
        let file = File::create(&path).map_err(|e| JournalError::Io {
            path: path.clone(),
            error: e.to_string(),
        })?;
        Ok(RunJournal {
            path,
            file: Mutex::new(file),
            sweeps: BTreeMap::new(),
            write_failed: AtomicBool::new(false),
        })
    }

    /// Reopens an existing journal for `--resume`: loads every intact
    /// line (a torn final line from a crash is skipped — its cell simply
    /// re-runs) and appends new outcomes at the end.
    pub fn resume(path: impl Into<PathBuf>) -> Result<Self, JournalError> {
        let path = path.into();
        let io_err = |e: std::io::Error| JournalError::Io {
            path: path.clone(),
            error: e.to_string(),
        };
        let reader = BufReader::new(File::open(&path).map_err(io_err)?);
        let mut sweeps: BTreeMap<String, SweepRecord> = BTreeMap::new();
        for line in reader.split(b'\n') {
            let line = line.map_err(io_err)?;
            let Ok(line) = String::from_utf8(line) else {
                continue; // torn mid-UTF-8 write
            };
            let line = line.trim();
            if line.starts_with("{\"journal\":") && line.ends_with('}') {
                let (Some(schema), Some(sweep)) =
                    (str_field(line, "journal"), str_field(line, "sweep"))
                else {
                    continue;
                };
                if schema != JOURNAL_SCHEMA {
                    continue;
                }
                let fingerprint =
                    str_field(line, "fingerprint").and_then(|h| u64::from_str_radix(&h, 16).ok());
                let cells = raw_field(line, "cells").and_then(|c| c.parse().ok());
                let (Some(fingerprint), Some(cells)) = (fingerprint, cells) else {
                    continue;
                };
                let rec = sweeps.entry(sweep).or_default();
                if rec.fingerprint != fingerprint {
                    // A different configuration reused the name: the
                    // newer header wins and its cells start over.
                    rec.entries.clear();
                }
                rec.fingerprint = fingerprint;
                rec.cells = cells;
            } else if let Some(entry) = JournalEntry::parse(line) {
                let rec = sweeps.entry(entry.sweep.clone()).or_default();
                // A success is final: never let a later failure (from a
                // retried resume) shadow a completed cell.
                let keep_old = rec.entries.get(&entry.cell).is_some_and(|old| {
                    old.status == CellStatus::Ok && entry.status != CellStatus::Ok
                });
                if !keep_old {
                    rec.entries.insert(entry.cell, entry);
                }
            }
        }
        let file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(io_err)?;
        Ok(RunJournal {
            path,
            file: Mutex::new(file),
            sweeps,
            write_failed: AtomicBool::new(false),
        })
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of successfully completed cells loaded from disk.
    pub fn completed_cells(&self) -> usize {
        self.sweeps
            .values()
            .flat_map(|r| r.entries.values())
            .filter(|e| e.status == CellStatus::Ok)
            .count()
    }

    /// The prior outcomes of `sweep`'s cells, index-aligned with
    /// `labels`, after verifying the fingerprint and shape. An unknown
    /// sweep yields all-`None` (nothing to resume); a fingerprint or
    /// shape conflict is an error — silently re-using cells from a
    /// different experiment would corrupt the campaign.
    pub fn prior(
        &self,
        sweep: &str,
        fingerprint: u64,
        labels: &[String],
    ) -> Result<Vec<Option<JournalEntry>>, JournalError> {
        let Some(rec) = self.sweeps.get(sweep) else {
            return Ok(vec![None; labels.len()]);
        };
        if rec.fingerprint != fingerprint {
            return Err(JournalError::FingerprintMismatch {
                sweep: sweep.to_owned(),
                expected: fingerprint,
                found: rec.fingerprint,
            });
        }
        if rec.cells != labels.len() {
            return Err(JournalError::ShapeMismatch {
                sweep: sweep.to_owned(),
                detail: format!(
                    "journal has {} cells, this run has {}",
                    rec.cells,
                    labels.len()
                ),
            });
        }
        let mut out = Vec::with_capacity(labels.len());
        for (i, label) in labels.iter().enumerate() {
            match rec.entries.get(&i) {
                Some(e) if e.label != *label => {
                    return Err(JournalError::ShapeMismatch {
                        sweep: sweep.to_owned(),
                        detail: format!(
                            "cell {i} is labeled '{}' in the journal but '{label}' here",
                            e.label
                        ),
                    });
                }
                e => out.push(e.cloned()),
            }
        }
        Ok(out)
    }

    /// Appends the header line announcing a sweep (skipped when the same
    /// sweep + fingerprint was already loaded from disk — resume does not
    /// duplicate headers).
    pub fn begin_sweep(&self, sweep: &str, fingerprint: u64, cells: usize) {
        if self
            .sweeps
            .get(sweep)
            .is_some_and(|r| r.fingerprint == fingerprint)
        {
            return;
        }
        self.append(&format!(
            "{{\"journal\":\"{JOURNAL_SCHEMA}\",\"sweep\":\"{}\",\
             \"fingerprint\":\"{fingerprint:016x}\",\"cells\":{cells}}}\n",
            json_escape(sweep),
        ));
    }

    /// Appends one cell outcome (atomic line write + fsync).
    pub fn record(&self, entry: &JournalEntry) {
        self.append(&entry.to_line());
    }

    fn append(&self, line: &str) {
        if self.write_failed.load(Ordering::Relaxed) {
            return;
        }
        let mut file = match self.file.lock() {
            Ok(f) => f,
            Err(poisoned) => poisoned.into_inner(),
        };
        let written = file
            .write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .and_then(|()| file.sync_data());
        if let Err(e) = written {
            if !self.write_failed.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "warning: cannot append to journal {}: {e}; journaling disabled \
                     (the sweep continues, but this run cannot be resumed)",
                    self.path.display()
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(sweep: &str, cell: usize, status: CellStatus, value: Option<&str>) -> JournalEntry {
        JournalEntry {
            sweep: sweep.to_owned(),
            cell,
            label: format!("cell{cell}"),
            status,
            retries: 0,
            wall_secs: 0.25,
            events: 10,
            error: (status != CellStatus::Ok).then(|| "boom".to_owned()),
            value: value.map(str::to_owned),
        }
    }

    #[test]
    fn entry_lines_round_trip() {
        let e = JournalEntry {
            sweep: "s\"weird".to_owned(),
            cell: 3,
            label: "grid:A/B".to_owned(),
            status: CellStatus::Ok,
            retries: 2,
            wall_secs: 1.5,
            events: 42,
            error: None,
            value: Some("{\"n\":1,\"status\":\"decoy\"}".to_owned()),
        };
        let line = e.to_line();
        let back = JournalEntry::parse(line.trim()).unwrap();
        assert_eq!(back.sweep, e.sweep);
        assert_eq!(back.cell, 3);
        assert_eq!(back.label, e.label);
        assert_eq!(back.status, CellStatus::Ok);
        assert_eq!(back.retries, 2);
        assert_eq!(back.events, 42);
        // The decoy "status" key inside the value must not confuse the
        // field parser, and the value must come back verbatim.
        assert_eq!(back.value.as_deref(), e.value.as_deref());
    }

    #[test]
    fn f64_bits_round_trip_exactly() {
        for x in [0.0, -0.0, 1.0 / 3.0, f64::MAX, f64::MIN_POSITIVE, -2.5e-300] {
            let enc = encode_f64_bits(x);
            assert_eq!(decode_f64_bits(&enc).unwrap().to_bits(), x.to_bits());
        }
        let nan = decode_f64_bits(&encode_f64_bits(f64::NAN)).unwrap();
        assert!(nan.is_nan());
    }

    #[test]
    fn tuple_and_scalar_codecs_round_trip() {
        let pair = (
            anp_simnet::SimDuration::from_nanos(123_456_789),
            "la,bel]{\"x\":1}".to_owned(),
        );
        let enc = pair.encode_journal();
        let back = <(anp_simnet::SimDuration, String)>::decode_journal(&enc).unwrap();
        assert_eq!(back, pair);
        assert_eq!(u64::decode_journal(&77u64.encode_journal()), Some(77));
        let x = 1.0 / 3.0;
        assert_eq!(
            f64::decode_journal(&x.encode_journal()).unwrap().to_bits(),
            x.to_bits()
        );
        let quad = ((x, -0.0f64), (f64::MAX, 2.5f64));
        let enc = quad.encode_journal();
        let back = <((f64, f64), (f64, f64))>::decode_journal(&enc).unwrap();
        assert_eq!(back, quad);
        for opt in [None, Some(anp_simnet::SimDuration::from_nanos(42))] {
            let pair = (7u64, opt);
            let back =
                <(u64, Option<anp_simnet::SimDuration>)>::decode_journal(&pair.encode_journal());
            assert_eq!(back, Some(pair));
        }
        assert_eq!(Option::<u64>::decode_journal("nul"), None, "strict decode");
    }

    #[test]
    fn create_resume_and_prior_cells() {
        let dir = std::env::temp_dir().join(format!("anp-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("basic.jsonl");

        let j = RunJournal::create(&path).unwrap();
        j.begin_sweep("lut", 0xABCD, 3);
        j.record(&entry("lut", 0, CellStatus::Ok, Some("11")));
        j.record(&entry("lut", 2, CellStatus::Panicked, None));
        drop(j);

        let j = RunJournal::resume(&path).unwrap();
        assert_eq!(j.completed_cells(), 1);
        let labels: Vec<String> = (0..3).map(|i| format!("cell{i}")).collect();
        let prior = j.prior("lut", 0xABCD, &labels).unwrap();
        assert_eq!(prior[0].as_ref().unwrap().value.as_deref(), Some("11"));
        assert!(prior[1].is_none(), "never-run cell");
        assert_eq!(prior[2].as_ref().unwrap().status, CellStatus::Panicked);
        // Unknown sweeps resume from scratch.
        assert!(j
            .prior("other", 1, &labels)
            .unwrap()
            .iter()
            .all(Option::is_none));

        // Wrong fingerprint or shape must refuse, not silently re-run.
        assert!(matches!(
            j.prior("lut", 0xBEEF, &labels),
            Err(JournalError::FingerprintMismatch { .. })
        ));
        assert!(matches!(
            j.prior("lut", 0xABCD, &labels[..2]),
            Err(JournalError::ShapeMismatch { .. })
        ));
        let mut wrong = labels.clone();
        wrong[0] = "imposter".to_owned();
        assert!(matches!(
            j.prior("lut", 0xABCD, &wrong),
            Err(JournalError::ShapeMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let dir = std::env::temp_dir().join(format!("anp-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.jsonl");
        let j = RunJournal::create(&path).unwrap();
        j.begin_sweep("s", 7, 2);
        j.record(&entry("s", 0, CellStatus::Ok, Some("1")));
        j.record(&entry("s", 1, CellStatus::Ok, Some("2")));
        drop(j);

        // Simulate a crash mid-write: chop the file mid-last-line.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 9]).unwrap();

        let j = RunJournal::resume(&path).unwrap();
        let labels = vec!["cell0".to_owned(), "cell1".to_owned()];
        let prior = j.prior("s", 7, &labels).unwrap();
        assert!(prior[0].is_some(), "intact line survives");
        assert!(prior[1].is_none(), "torn line is dropped, cell re-runs");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn success_is_never_shadowed() {
        let dir = std::env::temp_dir().join(format!("anp-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shadow.jsonl");
        let j = RunJournal::create(&path).unwrap();
        j.begin_sweep("s", 7, 1);
        j.record(&entry("s", 0, CellStatus::Ok, Some("42")));
        j.record(&entry("s", 0, CellStatus::Failed, None));
        drop(j);
        let j = RunJournal::resume(&path).unwrap();
        let prior = j.prior("s", 7, &["cell0".to_owned()]).unwrap();
        assert_eq!(prior[0].as_ref().unwrap().status, CellStatus::Ok);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_ignores_jobs_but_not_seed_or_backend() {
        let cfg = ExperimentConfig::cab();
        let base = config_fingerprint(&cfg, "des");
        assert_eq!(
            config_fingerprint(&cfg.clone().with_jobs(8), "des"),
            base,
            "worker count must not invalidate a journal"
        );
        assert_ne!(config_fingerprint(&cfg.clone().with_seed(1), "des"), base);
        assert_ne!(config_fingerprint(&cfg, "flow"), base);
    }

    #[test]
    fn fnv1a_separates_parts() {
        assert_ne!(fnv1a(&["ab", "c"]), fnv1a(&["a", "bc"]));
        assert_ne!(fnv1a(&["a"]), fnv1a(&["a", ""]));
    }

    /// A fresh on-disk path per proptest case: the macro re-runs the body
    /// many times in one process, so the pid alone is not unique enough.
    fn case_path(tag: &str) -> PathBuf {
        use std::sync::atomic::AtomicUsize;
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!("anp-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!(
            "{tag}-{}.jsonl",
            CASE.fetch_add(1, Ordering::Relaxed)
        ))
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any campaign of cells — mixed statuses, arbitrary f64 payloads
        /// — survives the write → crash → resume cycle through the real
        /// file format, with Ok values coming back bit-exactly.
        #[test]
        fn prop_journal_files_round_trip(
            fingerprint in 1u64..u64::MAX,
            cells in collection::vec((0u8..4, -1.0e300f64..1.0e300), 1..8),
        ) {
            let path = case_path("prop-roundtrip");
            let j = RunJournal::create(&path).unwrap();
            j.begin_sweep("grid", fingerprint, cells.len());
            let mut written = Vec::new();
            for (i, &(status, x)) in cells.iter().enumerate() {
                let status = match status {
                    0 => CellStatus::Ok,
                    1 => CellStatus::Failed,
                    2 => CellStatus::Panicked,
                    _ => CellStatus::Budget,
                };
                let e = entry(
                    "grid",
                    i,
                    status,
                    (status == CellStatus::Ok)
                        .then(|| x.encode_journal())
                        .as_deref(),
                );
                j.record(&e);
                written.push(e);
            }
            drop(j); // the "crash": only what hit the disk survives

            let j = RunJournal::resume(&path).unwrap();
            let oks = cells.iter().filter(|(s, _)| *s == 0).count();
            prop_assert_eq!(j.completed_cells(), oks);
            let labels: Vec<String> =
                (0..cells.len()).map(|i| format!("cell{i}")).collect();
            let prior = j.prior("grid", fingerprint, &labels).unwrap();
            for (i, (got, want)) in prior.iter().zip(&written).enumerate() {
                let got = got.as_ref().expect("every cell was journaled");
                prop_assert_eq!(got, want);
                if let (Some(enc), (_, x)) = (&got.value, cells[i]) {
                    let back = f64::decode_journal(enc).unwrap();
                    prop_assert_eq!(back.to_bits(), x.to_bits());
                }
            }
            std::fs::remove_file(&path).ok();
        }

        /// Chopping the file at *any* byte inside the last line (a crash
        /// mid-`write_all`) loses exactly that cell: every earlier line
        /// still resumes, the torn cell re-runs, and nothing errors.
        #[test]
        fn prop_torn_tail_loses_only_the_last_cell(
            values in collection::vec(-1.0e12f64..1.0e12, 2..7),
            cut_seed in 0usize..10_000,
        ) {
            let path = case_path("prop-torn");
            let j = RunJournal::create(&path).unwrap();
            j.begin_sweep("s", 7, values.len());
            for (i, x) in values.iter().enumerate() {
                j.record(&entry("s", i, CellStatus::Ok, Some(&x.encode_journal())));
            }
            drop(j);

            let text = std::fs::read_to_string(&path).unwrap();
            let last_start = text[..text.len() - 1].rfind('\n').unwrap() + 1;
            // Keep at least one byte of the last line, never its newline.
            let tear_span = text.len() - 1 - last_start;
            let cut = last_start + 1 + cut_seed % tear_span.max(1);
            std::fs::write(&path, &text[..cut.min(text.len() - 1)]).unwrap();

            let j = RunJournal::resume(&path).unwrap();
            prop_assert_eq!(j.completed_cells(), values.len() - 1);
            let labels: Vec<String> =
                (0..values.len()).map(|i| format!("cell{i}")).collect();
            let prior = j.prior("s", 7, &labels).unwrap();
            for (i, (got, x)) in prior.iter().zip(&values).enumerate() {
                if i + 1 == values.len() {
                    prop_assert!(got.is_none(), "torn cell must re-run");
                } else {
                    let enc = got.as_ref().unwrap().value.as_ref().unwrap();
                    prop_assert_eq!(
                        f64::decode_journal(enc).unwrap().to_bits(),
                        x.to_bits()
                    );
                }
            }
            std::fs::remove_file(&path).ok();
        }

        /// Resuming under any *different* fingerprint refuses with a
        /// typed error; the matching fingerprint keeps working, and a
        /// sweep the journal has never seen resumes from scratch.
        #[test]
        fn prop_fingerprint_mismatch_always_refuses(
            recorded in 1u64..u64::MAX,
            offered in 1u64..u64::MAX,
            n in 1usize..5,
        ) {
            prop_assume!(recorded != offered);
            let path = case_path("prop-fp");
            let j = RunJournal::create(&path).unwrap();
            j.begin_sweep("s", recorded, n);
            j.record(&entry("s", 0, CellStatus::Ok, Some("1")));
            drop(j);

            let j = RunJournal::resume(&path).unwrap();
            let labels: Vec<String> = (0..n).map(|i| format!("cell{i}")).collect();
            prop_assert_eq!(
                j.prior("s", offered, &labels),
                Err(JournalError::FingerprintMismatch {
                    sweep: "s".to_owned(),
                    expected: offered,
                    found: recorded,
                })
            );
            prop_assert!(j.prior("s", recorded, &labels).is_ok());
            prop_assert!(j
                .prior("unseen", offered, &labels)
                .unwrap()
                .iter()
                .all(Option::is_none));
            std::fs::remove_file(&path).ok();
        }

        /// An empty journal — zero bytes, or a header with no cell lines
        /// — resumes cleanly with nothing completed and all-`None` prior
        /// cells, whatever the sweep shape.
        #[test]
        fn prop_empty_journal_resumes_from_scratch(
            fingerprint in 1u64..u64::MAX,
            n in 1usize..6,
            header_only in 0u8..2,
        ) {
            let path = case_path("prop-empty");
            let j = RunJournal::create(&path).unwrap();
            if header_only == 1 {
                j.begin_sweep("s", fingerprint, n);
            }
            drop(j);

            let j = RunJournal::resume(&path).unwrap();
            prop_assert_eq!(j.completed_cells(), 0);
            let labels: Vec<String> = (0..n).map(|i| format!("cell{i}")).collect();
            let prior = j.prior("s", fingerprint, &labels).unwrap();
            prop_assert!(prior.iter().all(Option::is_none));
            std::fs::remove_file(&path).ok();
        }
    }
}
