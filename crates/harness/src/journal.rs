//! Durable checkpoint/resume for sweeps: the [`SweepJournal`].
//!
//! A fleet-scale sweep (`repro --mega-grid` is 10 752 cells; the
//! roadmap aims at 10⁵–10⁶) that dies at 99 % used to lose everything.
//! The journal makes completed work durable: as cells finish, the sweep
//! appends one small record per cell — the cell's *contribution to the
//! aggregate* ([`CellDelta`]), not its full report — so a resumed sweep
//! skips completed cells and reproduces the exact aggregate
//! bit-identically (deterministic [`cell_seed`]s make re-running the
//! remainder equivalent to having never stopped).
//!
//! # On-disk format
//!
//! The journal is a single append-only file:
//!
//! ```text
//! header (48 bytes, written atomically: temp + fsync + rename)
//!   [0..8)    magic  b"ESAFEJNL"
//!   [8..12)   format version      u32 LE
//!   [12..20)  sweep base seed     u64 LE
//!   [20..28)  sweep cell count    u64 LE
//!   [28..36)  post_terminal_ms    u64 LE
//!   [36..44)  correlation_window  u64 LE
//!   [44..48)  CRC-32 of [0..44)   u32 LE
//! records, each:
//!   [0..4)    payload length      u32 LE   (≤ MAX_RECORD_BYTES)
//!   [4..8)    CRC-32 of payload   u32 LE
//!   [8..)     payload — tag byte then fields (see [`JournalRecord`])
//! ```
//!
//! Appends are plain buffered writes (no per-record fsync): a
//! `SIGKILL`ed process loses at most the page cache the OS hadn't
//! flushed, and anything it *had* written — including a torn final
//! record — is handled by recovery. [`SweepJournal::open`] validates
//! the header, scans records front to back, and **truncates** the file
//! at the first short, corrupt, or undecodable record: a torn tail
//! costs re-running the cells it described, never a wrong aggregate.
//!
//! Every multi-byte integer is little-endian; every length field is
//! validated against an explicit budget *before* any allocation it
//! sizes (mirroring the TCP codec's hostile-input discipline in
//! `esafe-serve`).
//!
//! [`cell_seed`]: crate::sweep::cell_seed

use crate::crc::crc32;
use crate::experiment::{ExperimentConfig, ExperimentError, RunReport};
use crate::sweep::{AggregateBuilder, CellFailure, FailureReason};
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every journal file.
pub const JOURNAL_MAGIC: [u8; 8] = *b"ESAFEJNL";

/// On-disk format version this build writes and reads.
pub const JOURNAL_VERSION: u32 = 1;

/// Header length in bytes (see the [module docs](self)).
pub const HEADER_BYTES: usize = 48;

/// The largest record payload the decoder will buffer, checked against
/// the length prefix *before* the payload allocation. Generous: a
/// record is one cell's counters plus monitor-id strings or one panic
/// message.
pub const MAX_RECORD_BYTES: usize = 1 << 24;

const TAG_COMPLETED: u8 = 1;
const TAG_QUARANTINED: u8 = 2;

const REASON_PANIC: u8 = 1;
const REASON_ERROR: u8 = 2;
const REASON_TICK_BUDGET: u8 = 3;

/// One completed cell's contribution to the sweep aggregate — exactly
/// the quantities [`AggregateBuilder::absorb`] extracts from a
/// [`RunReport`], so replaying deltas reproduces the aggregate
/// bit-identically without persisting reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellDelta {
    /// The cell's index in the sweep's grid.
    pub cell: usize,
    /// Retry attempts the cell consumed before succeeding.
    pub retries: u32,
    /// Whether the run aborted before its schedule.
    pub terminated_early: bool,
    /// Whether the run hit a terminal event.
    pub terminal_event: bool,
    /// Correlation hits summed over the run's goals.
    pub hits: u64,
    /// False negatives summed over the run's goals.
    pub false_negatives: u64,
    /// False positives summed over the run's goals.
    pub false_positives: u64,
    /// Violation-interval counts per monitor id.
    pub violations: Vec<(String, u64)>,
}

impl CellDelta {
    /// Extracts a completed cell's delta from its report.
    pub fn from_report(cell: usize, retries: u32, report: &RunReport) -> Self {
        let mut hits = 0u64;
        let mut false_negatives = 0u64;
        let mut false_positives = 0u64;
        for row in &report.correlation.rows {
            hits += row.hits as u64;
            false_negatives += row.false_negatives as u64;
            false_positives += row.false_positives as u64;
        }
        CellDelta {
            cell,
            retries,
            terminated_early: report.terminated_early,
            terminal_event: report.terminal_event.is_some(),
            hits,
            false_negatives,
            false_positives,
            violations: report
                .violations
                .iter()
                .map(|(id, intervals)| (id.clone(), intervals.len() as u64))
                .collect(),
        }
    }
}

/// One durable journal entry: a cell that finished, healthy or
/// quarantined. Either way the cell is *done* — resume never re-runs
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// The cell completed; its aggregate contribution.
    Completed(CellDelta),
    /// The cell was quarantined; its failure provenance.
    Quarantined(CellFailure),
}

impl JournalRecord {
    /// The cell this record retires.
    pub fn cell(&self) -> usize {
        match self {
            JournalRecord::Completed(delta) => delta.cell,
            JournalRecord::Quarantined(failure) => failure.cell,
        }
    }
}

/// Outcome of decoding the record at the front of a byte buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeOutcome {
    /// A full record decoded, consuming this many bytes.
    Record(JournalRecord, usize),
    /// The buffer ends mid-record — a torn tail, not corruption.
    Incomplete,
    /// The bytes at the front are not a valid record (bad length, CRC
    /// mismatch, unknown tag, malformed payload).
    Corrupt(String),
}

fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked front-to-back reader over a record payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn string(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

fn encode_payload(record: &JournalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    match record {
        JournalRecord::Completed(delta) => {
            out.push(TAG_COMPLETED);
            put_u64(&mut out, delta.cell as u64);
            put_u32(&mut out, delta.retries);
            out.push(u8::from(delta.terminated_early));
            out.push(u8::from(delta.terminal_event));
            put_u64(&mut out, delta.hits);
            put_u64(&mut out, delta.false_negatives);
            put_u64(&mut out, delta.false_positives);
            put_u32(&mut out, delta.violations.len() as u32);
            for (id, count) in &delta.violations {
                put_str(&mut out, id);
                put_u64(&mut out, *count);
            }
        }
        JournalRecord::Quarantined(failure) => {
            out.push(TAG_QUARANTINED);
            put_u64(&mut out, failure.cell as u64);
            put_u64(&mut out, failure.seed);
            put_u32(&mut out, failure.retries);
            match &failure.reason {
                FailureReason::Panic { message } => {
                    out.push(REASON_PANIC);
                    put_str(&mut out, message);
                }
                FailureReason::Error { message } => {
                    out.push(REASON_ERROR);
                    put_str(&mut out, message);
                }
                FailureReason::TickBudgetExceeded { budget } => {
                    out.push(REASON_TICK_BUDGET);
                    put_u64(&mut out, *budget);
                }
            }
        }
    }
    out
}

fn decode_payload(payload: &[u8]) -> Option<JournalRecord> {
    let mut c = Cursor::new(payload);
    let record = match c.u8()? {
        TAG_COMPLETED => {
            let cell = usize::try_from(c.u64()?).ok()?;
            let retries = c.u32()?;
            let terminated_early = c.bool()?;
            let terminal_event = c.bool()?;
            let hits = c.u64()?;
            let false_negatives = c.u64()?;
            let false_positives = c.u64()?;
            let count = c.u32()? as usize;
            // The count sizes nothing directly (items are read one by
            // one and each read is bounds-checked), but reject counts
            // the remaining bytes cannot possibly hold so a hostile
            // count cannot reserve absurd capacity.
            if count > payload.len() {
                return None;
            }
            let mut violations = Vec::with_capacity(count);
            for _ in 0..count {
                let id = c.string()?;
                let n = c.u64()?;
                violations.push((id, n));
            }
            JournalRecord::Completed(CellDelta {
                cell,
                retries,
                terminated_early,
                terminal_event,
                hits,
                false_negatives,
                false_positives,
                violations,
            })
        }
        TAG_QUARANTINED => {
            let cell = usize::try_from(c.u64()?).ok()?;
            let seed = c.u64()?;
            let retries = c.u32()?;
            let reason = match c.u8()? {
                REASON_PANIC => FailureReason::Panic {
                    message: c.string()?,
                },
                REASON_ERROR => FailureReason::Error {
                    message: c.string()?,
                },
                REASON_TICK_BUDGET => FailureReason::TickBudgetExceeded { budget: c.u64()? },
                _ => return None,
            };
            JournalRecord::Quarantined(CellFailure {
                cell,
                seed,
                retries,
                reason,
            })
        }
        _ => return None,
    };
    c.done().then_some(record)
}

/// Encodes one record in its on-disk framing:
/// `[len u32][crc32 u32][payload]`.
pub fn encode_record(record: &JournalRecord) -> Vec<u8> {
    let payload = encode_payload(record);
    let mut out = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(&payload));
    out.extend_from_slice(&payload);
    out
}

/// Decodes the record at the front of `bytes`. Never panics on
/// arbitrary input: truncation is [`DecodeOutcome::Incomplete`],
/// everything else invalid is [`DecodeOutcome::Corrupt`].
pub fn decode_record(bytes: &[u8]) -> DecodeOutcome {
    if bytes.len() < 8 {
        return DecodeOutcome::Incomplete;
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    if len > MAX_RECORD_BYTES {
        return DecodeOutcome::Corrupt(format!(
            "record length {len} exceeds the {MAX_RECORD_BYTES}-byte budget"
        ));
    }
    let expected_crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    let Some(payload) = bytes.get(8..8 + len) else {
        return DecodeOutcome::Incomplete;
    };
    let actual = crc32(payload);
    if actual != expected_crc {
        return DecodeOutcome::Corrupt(format!(
            "record CRC mismatch: stored {expected_crc:08x}, computed {actual:08x}"
        ));
    }
    match decode_payload(payload) {
        Some(record) => DecodeOutcome::Record(record, 8 + len),
        None => DecodeOutcome::Corrupt("malformed record payload".to_owned()),
    }
}

fn encode_header(base_seed: u64, cells: u64, config: ExperimentConfig) -> [u8; HEADER_BYTES] {
    let mut out = [0u8; HEADER_BYTES];
    out[0..8].copy_from_slice(&JOURNAL_MAGIC);
    out[8..12].copy_from_slice(&JOURNAL_VERSION.to_le_bytes());
    out[12..20].copy_from_slice(&base_seed.to_le_bytes());
    out[20..28].copy_from_slice(&cells.to_le_bytes());
    out[28..36].copy_from_slice(&config.post_terminal_ms.to_le_bytes());
    out[36..44].copy_from_slice(&config.correlation_window_ms.to_le_bytes());
    let crc = crc32(&out[0..44]);
    out[44..48].copy_from_slice(&crc.to_le_bytes());
    out
}

fn journal_err(context: &str, detail: impl std::fmt::Display) -> ExperimentError {
    ExperimentError::Journal(format!("{context}: {detail}"))
}

/// An append-only, checksummed, crash-recoverable checkpoint of one
/// sweep's progress. See the [module docs](self) for the format and the
/// recovery contract.
#[derive(Debug)]
pub struct SweepJournal {
    file: File,
    path: PathBuf,
    base_seed: u64,
    cells: usize,
    config: ExperimentConfig,
    /// Cells already done, sized by the records read or appended — never
    /// by the header's cell count, which a hostile file can inflate.
    completed: HashSet<usize>,
    records: usize,
    recovered_records: usize,
    partial: AggregateBuilder,
}

impl SweepJournal {
    /// Creates a fresh journal for a sweep of `cells` cells under
    /// `base_seed` and `config`. The header is written atomically
    /// (temp file + fsync + rename), so a journal either exists with a
    /// valid header or not at all.
    ///
    /// # Errors
    ///
    /// Fails if `path` already exists (resuming an existing journal is
    /// [`SweepJournal::open`]'s job — refusing to overwrite is what
    /// makes `--checkpoint` restart-safe) or on I/O failure.
    pub fn create(
        path: impl AsRef<Path>,
        base_seed: u64,
        cells: usize,
        config: ExperimentConfig,
    ) -> Result<Self, ExperimentError> {
        let path = path.as_ref().to_path_buf();
        if path.exists() {
            return Err(journal_err(
                "create",
                format!(
                    "{} already exists (use resume to continue it)",
                    path.display()
                ),
            ));
        }
        let tmp = path.with_extension("tmp");
        {
            let mut f = File::create(&tmp).map_err(|e| journal_err("create temp", e))?;
            f.write_all(&encode_header(base_seed, cells as u64, config))
                .map_err(|e| journal_err("write header", e))?;
            f.sync_all().map_err(|e| journal_err("sync header", e))?;
        }
        std::fs::rename(&tmp, &path).map_err(|e| journal_err("commit header", e))?;
        let file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| journal_err("open journal", e))?;
        Ok(SweepJournal {
            file,
            path,
            base_seed,
            cells,
            config,
            completed: HashSet::new(),
            records: 0,
            recovered_records: 0,
            partial: AggregateBuilder::new(),
        })
    }

    /// Opens an existing journal, validates the header, replays every
    /// intact record into the in-memory partial aggregate, and
    /// truncates the file at the first torn or corrupt record.
    ///
    /// # Errors
    ///
    /// Fails if the file is missing, the header is invalid, or I/O
    /// fails. A damaged record *tail* is not an error — it is truncated
    /// and its cells will re-run.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, ExperimentError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| journal_err("open journal", e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| journal_err("read journal", e))?;
        if bytes.len() < HEADER_BYTES {
            return Err(journal_err(
                "header",
                "file shorter than the journal header",
            ));
        }
        if bytes[0..8] != JOURNAL_MAGIC {
            return Err(journal_err("header", "bad magic (not a sweep journal)"));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != JOURNAL_VERSION {
            return Err(journal_err(
                "header",
                format!(
                    "unsupported journal version {version} (this build reads {JOURNAL_VERSION})"
                ),
            ));
        }
        let stored_crc = u32::from_le_bytes(bytes[44..48].try_into().unwrap());
        let actual_crc = crc32(&bytes[0..44]);
        if stored_crc != actual_crc {
            return Err(journal_err(
                "header",
                format!("CRC mismatch: stored {stored_crc:08x}, computed {actual_crc:08x}"),
            ));
        }
        let base_seed = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
        let cells = usize::try_from(u64::from_le_bytes(bytes[20..28].try_into().unwrap()))
            .map_err(|_| journal_err("header", "cell count overflows this platform"))?;
        let config = ExperimentConfig {
            post_terminal_ms: u64::from_le_bytes(bytes[28..36].try_into().unwrap()),
            correlation_window_ms: u64::from_le_bytes(bytes[36..44].try_into().unwrap()),
        };

        let mut journal = SweepJournal {
            file: File::open(&path).map_err(|e| journal_err("open journal", e))?,
            path: path.clone(),
            base_seed,
            cells,
            config,
            completed: HashSet::new(),
            records: 0,
            recovered_records: 0,
            partial: AggregateBuilder::new(),
        };

        // Replay records front to back; stop (and truncate) at the
        // first torn or corrupt one.
        // `Incomplete` with no bytes left is the clean end of the
        // journal; a short or corrupt decode is a tail to cut.
        let mut at = HEADER_BYTES;
        while let DecodeOutcome::Record(record, consumed) = decode_record(&bytes[at..]) {
            if record.cell() >= cells {
                break;
            }
            journal.apply(record);
            at += consumed;
        }
        if at < bytes.len() {
            file.set_len(at as u64)
                .map_err(|e| journal_err("truncate torn tail", e))?;
            file.sync_all()
                .map_err(|e| journal_err("sync truncation", e))?;
        }
        drop(file);
        journal.recovered_records = journal.records;
        journal.file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| journal_err("reopen journal", e))?;
        Ok(journal)
    }

    /// Folds one replayed or freshly appended record into the in-memory
    /// state (completed set + partial aggregate). Duplicate records for
    /// an already-completed cell are ignored — first write wins, so a
    /// replay can never double-count.
    fn apply(&mut self, record: JournalRecord) {
        if !self.completed.insert(record.cell()) {
            return;
        }
        self.records += 1;
        match record {
            JournalRecord::Completed(delta) => self.partial.absorb_delta(&delta),
            JournalRecord::Quarantined(failure) => {
                self.partial.add_retries(failure.retries as usize);
                self.partial.absorb_failure(failure);
            }
        }
    }

    /// Appends one record durably (buffered write; see the [module
    /// docs](self) for the crash-safety contract) and folds it into the
    /// in-memory state.
    ///
    /// # Errors
    ///
    /// Fails on I/O failure or if the record names a cell outside the
    /// sweep.
    pub fn append(&mut self, record: JournalRecord) -> Result<(), ExperimentError> {
        if record.cell() >= self.cells {
            return Err(journal_err(
                "append",
                format!(
                    "record cell {} outside the sweep's {} cells",
                    record.cell(),
                    self.cells
                ),
            ));
        }
        self.file
            .write_all(&encode_record(&record))
            .map_err(|e| journal_err("append record", e))?;
        self.apply(record);
        Ok(())
    }

    /// Flushes appended records to stable storage (fsync). Called at
    /// sweep completion; not needed per record for kill-resume safety
    /// (the page cache survives a killed *process*; fsync guards
    /// against a killed *machine*).
    ///
    /// # Errors
    ///
    /// Fails on I/O failure.
    pub fn sync(&mut self) -> Result<(), ExperimentError> {
        self.file
            .sync_all()
            .map_err(|e| journal_err("sync journal", e))
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The sweep base seed recorded in the header.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// The sweep cell count recorded in the header.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// The experiment timing policy recorded in the header.
    pub fn config(&self) -> ExperimentConfig {
        self.config
    }

    /// Total intact records (replayed + appended this session).
    pub fn records(&self) -> usize {
        self.records
    }

    /// Records recovered from disk when this journal was opened (0 for
    /// a freshly created journal).
    pub fn recovered_records(&self) -> usize {
        self.recovered_records
    }

    /// How many cells are already done (completed or quarantined).
    pub fn completed_cells(&self) -> usize {
        self.completed.len()
    }

    /// Whether a cell is already done (completed or quarantined).
    pub fn is_completed(&self, cell: usize) -> bool {
        self.completed.contains(&cell)
    }

    /// A clone of the partial aggregate accumulated from this journal's
    /// records — the resume path merges it with the freshly-run
    /// remainder.
    pub(crate) fn partial(&self) -> AggregateBuilder {
        self.partial.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(cell: usize) -> CellDelta {
        CellDelta {
            cell,
            retries: 0,
            terminated_early: cell.is_multiple_of(2),
            terminal_event: cell.is_multiple_of(3),
            hits: cell as u64,
            false_negatives: 1,
            false_positives: 2,
            violations: vec![("G".to_owned(), 1 + cell as u64), ("G.A".to_owned(), 2)],
        }
    }

    fn failure(cell: usize) -> CellFailure {
        CellFailure {
            cell,
            seed: 0xdead_beef,
            retries: 2,
            reason: FailureReason::Panic {
                message: "lane blew up".to_owned(),
            },
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("esafe-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn records_round_trip_bit_identically() {
        for record in [
            JournalRecord::Completed(delta(7)),
            JournalRecord::Quarantined(failure(3)),
            JournalRecord::Quarantined(CellFailure {
                cell: 0,
                seed: 0,
                retries: 0,
                reason: FailureReason::TickBudgetExceeded { budget: 99 },
            }),
            JournalRecord::Quarantined(CellFailure {
                cell: usize::MAX >> 1,
                seed: u64::MAX,
                retries: u32::MAX,
                reason: FailureReason::Error {
                    message: String::new(),
                },
            }),
        ] {
            let bytes = encode_record(&record);
            match decode_record(&bytes) {
                DecodeOutcome::Record(back, consumed) => {
                    assert_eq!(back, record);
                    assert_eq!(consumed, bytes.len());
                }
                other => panic!("round trip failed: {other:?}"),
            }
            // Re-encoding the decode is byte-identical.
            let DecodeOutcome::Record(back, _) = decode_record(&bytes) else {
                unreachable!()
            };
            assert_eq!(encode_record(&back), bytes);
        }
    }

    #[test]
    fn create_open_append_resume_cycle() {
        let path = temp_path("cycle");
        let config = ExperimentConfig::default();
        let mut journal = SweepJournal::create(&path, 42, 10, config).unwrap();
        assert!(
            SweepJournal::create(&path, 42, 10, config).is_err(),
            "no overwrite"
        );
        journal.append(JournalRecord::Completed(delta(0))).unwrap();
        journal
            .append(JournalRecord::Quarantined(failure(4)))
            .unwrap();
        journal.append(JournalRecord::Completed(delta(9))).unwrap();
        journal.sync().unwrap();
        drop(journal);

        let reopened = SweepJournal::open(&path).unwrap();
        assert_eq!(reopened.base_seed(), 42);
        assert_eq!(reopened.cells(), 10);
        assert_eq!(reopened.records(), 3);
        assert_eq!(reopened.recovered_records(), 3);
        assert_eq!(reopened.completed_cells(), 3);
        for cell in 0..10 {
            assert_eq!(
                reopened.is_completed(cell),
                matches!(cell, 0 | 4 | 9),
                "cell {cell}"
            );
        }
        let agg = reopened.partial().finish();
        assert_eq!(agg.runs, 2);
        assert_eq!(agg.quarantined, vec![failure(4)]);
        assert_eq!(agg.retries, 2, "the quarantined cell burned two retries");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_intact_records_survive() {
        let path = temp_path("torn");
        let config = ExperimentConfig::default();
        let mut journal = SweepJournal::create(&path, 7, 8, config).unwrap();
        journal.append(JournalRecord::Completed(delta(1))).unwrap();
        journal.append(JournalRecord::Completed(delta(2))).unwrap();
        drop(journal);

        // Tear the file mid-final-record.
        let full = std::fs::read(&path).unwrap();
        let torn_len = full.len() - 5;
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(torn_len as u64).unwrap();
        drop(f);

        let recovered = SweepJournal::open(&path).unwrap();
        assert_eq!(recovered.records(), 1, "only the intact record survives");
        assert!(recovered.is_completed(1));
        assert!(!recovered.is_completed(2), "the torn cell must re-run");
        // Recovery truncated the torn bytes off the file itself.
        let after = std::fs::read(&path).unwrap();
        assert!(after.len() < torn_len);
        // And the journal still appends cleanly after recovery.
        let mut recovered = recovered;
        recovered
            .append(JournalRecord::Completed(delta(2)))
            .unwrap();
        drop(recovered);
        let reread = SweepJournal::open(&path).unwrap();
        assert_eq!(reread.records(), 2);
        assert!(reread.is_completed(2));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn garbage_tails_and_headers_never_panic() {
        let path = temp_path("garbage");
        let config = ExperimentConfig::default();
        let mut journal = SweepJournal::create(&path, 1, 4, config).unwrap();
        journal.append(JournalRecord::Completed(delta(0))).unwrap();
        drop(journal);
        // Smash garbage onto the tail: recovery keeps the good prefix.
        let mut bytes = std::fs::read(&path).unwrap();
        let good_len = bytes.len();
        bytes.extend_from_slice(&[0xff; 64]);
        std::fs::write(&path, &bytes).unwrap();
        let recovered = SweepJournal::open(&path).unwrap();
        assert_eq!(recovered.records(), 1);
        drop(recovered);
        assert_eq!(std::fs::read(&path).unwrap().len(), good_len);

        // A corrupt header is a hard error, not a panic.
        let mut header = std::fs::read(&path).unwrap();
        header[3] ^= 0xff;
        std::fs::write(&path, &header).unwrap();
        assert!(SweepJournal::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn decode_record_survives_truncation_at_every_boundary() {
        let record = JournalRecord::Completed(delta(5));
        let bytes = encode_record(&record);
        for cut in 0..bytes.len() {
            match decode_record(&bytes[..cut]) {
                DecodeOutcome::Incomplete | DecodeOutcome::Corrupt(_) => {}
                DecodeOutcome::Record(..) => {
                    panic!(
                        "a {cut}-byte prefix of a {}-byte record decoded",
                        bytes.len()
                    )
                }
            }
        }
    }
}
