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
//! header (48 bytes: magic b"ESAFEJNL", version, 4 fields, CRC-32)
//!   [12..20)  sweep base seed     u64 LE
//!   [20..28)  sweep cell count    u64 LE
//!   [28..36)  post_terminal_ms    u64 LE
//!   [36..44)  correlation_window  u64 LE
//! records, one frame each (payload ≤ MAX_RECORD_BYTES):
//!   payload — tag byte then fields (see [`JournalRecord`])
//! ```
//!
//! [`crate::record`] lays out the header's magic, version and checksum
//! and each record's `[len][crc]` frame.
//!
//! Appends are unbuffered writes, one per record, with no per-record
//! fsync: a `SIGKILL`ed process loses only what it had not yet handed
//! to the OS, and anything it *had* written — including a torn final
//! record — is handled by recovery. [`SweepJournal::open`] validates
//! the header, scans records front to back, and **truncates** the file
//! at the first short, corrupt, or undecodable record, or at a record
//! naming a cell outside the sweep: a torn tail costs re-running the
//! cells it described, never a wrong aggregate.
//!
//! The header codec, the framing, the atomic publish, the scan and the
//! truncation are [`crate::record`]'s; this module owns the header's
//! fields, the [`JournalRecord`] payload and first-write-wins replay.
//!
//! [`cell_seed`]: crate::sweep::cell_seed

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::experiment::{ExperimentConfig, RunReport};
use crate::record::{Cursor, Decoded, Format, FormatError, IoError, RecordFile};
use crate::sweep::{AggregateBuilder, CellFailure, FailureReason};
use std::collections::HashSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// Magic bytes opening every journal file.
pub const JOURNAL_MAGIC: [u8; 8] = *b"ESAFEJNL";

/// On-disk format version this build writes and reads.
pub const JOURNAL_VERSION: u32 = 1;

/// Header length in bytes (see the [module docs](self)).
pub const HEADER_BYTES: usize = crate::record::header_len(4);

/// The largest record payload, refused on append and checked against
/// the length prefix on read *before* the payload allocation. Generous:
/// a record is one cell's counters plus monitor-id strings or one panic
/// message.
pub const MAX_RECORD_BYTES: usize = 1 << 24;

/// The journal's record format.
pub const FORMAT: Format = Format {
    magic: JOURNAL_MAGIC,
    version: JOURNAL_VERSION,
    max_payload: MAX_RECORD_BYTES,
};

const TAG_COMPLETED: u8 = 1;
const TAG_QUARANTINED: u8 = 2;

const REASON_PANIC: u8 = 1;
const REASON_ERROR: u8 = 2;
const REASON_TICK_BUDGET: u8 = 3;

/// The sweep a journal checkpoints, as its header records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepHeader {
    /// The sweep's base seed.
    pub base_seed: u64,
    /// The sweep's cell count.
    pub cells: usize,
    /// The sweep's timing policy.
    pub config: ExperimentConfig,
}

/// A sweep journal could not be created, opened or appended to.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalError {
    /// [`SweepJournal::create`] found a file at its path already.
    Exists(PathBuf),
    /// A filesystem operation failed.
    Io(IoError),
    /// The header is not a valid journal header.
    Header(FormatError),
    /// The header names more cells than this platform can index.
    CellCount(u64),
    /// A record names a cell outside the sweep.
    CellOutOfRange {
        /// The record's cell.
        cell: usize,
        /// The sweep's cell count.
        cells: usize,
    },
    /// The record format refuses the record: its payload is over
    /// [`MAX_RECORD_BYTES`].
    Record(FormatError),
    /// The journal checkpoints a different sweep.
    OtherSweep {
        /// What the journal's header records.
        journal: SweepHeader,
        /// The sweep asked to resume from it.
        sweep: SweepHeader,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Exists(path) => write!(f, "{} already exists", path.display()),
            JournalError::Io(e) => write!(f, "{e}"),
            JournalError::Header(e) => write!(f, "header: {e}"),
            JournalError::CellCount(n) => write!(f, "{n} cells overflow this platform"),
            JournalError::CellOutOfRange { cell, cells } => {
                write!(f, "cell {cell} not in 0..{cells}")
            }
            JournalError::Record(e) => write!(f, "record refused: {e}"),
            JournalError::OtherSweep { journal, sweep } => {
                write!(
                    f,
                    "journal of a different sweep: {journal:?}, not {sweep:?}"
                )
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<IoError> for JournalError {
    fn from(e: IoError) -> Self {
        JournalError::Io(e)
    }
}

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

/// What decoding the record at the front of a byte buffer found: the
/// record and the bytes its frame took, a torn tail, or corruption.
pub type DecodeOutcome = Decoded<JournalRecord>;

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

fn decode_payload(payload: &[u8]) -> Result<JournalRecord, FormatError> {
    let mut c = Cursor::new(payload);
    let record = match c.u8()? {
        TAG_COMPLETED => {
            let mut delta = CellDelta {
                cell: c.usize()?,
                retries: c.u32()?,
                terminated_early: c.bool()?,
                terminal_event: c.bool()?,
                hits: c.u64()?,
                false_negatives: c.u64()?,
                false_positives: c.u64()?,
                violations: Vec::new(),
            };
            let count = c.u32()? as usize;
            // The count sizes nothing directly (items are read one by
            // one and each read is bounds-checked), but reject counts
            // the remaining bytes cannot possibly hold so a hostile
            // count cannot reserve absurd capacity.
            if count > payload.len() {
                return Err(FormatError::Malformed);
            }
            delta.violations.reserve_exact(count);
            for _ in 0..count {
                delta.violations.push((c.string()?, c.u64()?));
            }
            JournalRecord::Completed(delta)
        }
        TAG_QUARANTINED => JournalRecord::Quarantined(CellFailure {
            cell: c.usize()?,
            seed: c.u64()?,
            retries: c.u32()?,
            reason: match c.u8()? {
                REASON_PANIC => FailureReason::Panic {
                    message: c.string()?,
                },
                REASON_ERROR => FailureReason::Error {
                    message: c.string()?,
                },
                REASON_TICK_BUDGET => FailureReason::TickBudgetExceeded { budget: c.u64()? },
                _ => return Err(FormatError::Malformed),
            },
        }),
        _ => return Err(FormatError::Malformed),
    };
    match c.remaining() {
        0 => Ok(record),
        _ => Err(FormatError::Malformed),
    }
}

/// Encodes one record in its on-disk framing (see [`crate::record`]).
///
/// # Errors
///
/// [`JournalError::Record`] when the payload is over
/// [`MAX_RECORD_BYTES`], as a long panic message can make it: the
/// reader would stop at the record and drop every one after it.
pub fn encode_record(record: &JournalRecord) -> Result<Vec<u8>, JournalError> {
    FORMAT
        .encode_frame(&encode_payload(record))
        .map_err(JournalError::Record)
}

/// Decodes the record at the front of `bytes`. Never panics on
/// arbitrary input: truncation is [`Decoded::Incomplete`], everything
/// else invalid is [`Decoded::Corrupt`].
pub fn decode_record(bytes: &[u8]) -> DecodeOutcome {
    FORMAT.decode_frame(bytes).and_then(decode_payload)
}

/// An append-only, checksummed, crash-recoverable checkpoint of one
/// sweep's progress. See the [module docs](self) for the format and the
/// recovery contract.
#[derive(Debug)]
pub struct SweepJournal {
    file: RecordFile,
    header: SweepHeader,
    /// Cells already done, sized by the records read or appended — never
    /// by the header's cell count, which a hostile file can inflate.
    completed: HashSet<usize>,
    records: usize,
    recovered_records: usize,
    partial: AggregateBuilder,
}

impl SweepJournal {
    /// Creates a fresh journal for a sweep of `cells` cells under
    /// `base_seed` and `config`. The header is published atomically, so
    /// a journal either exists with a valid header or not at all.
    ///
    /// # Errors
    ///
    /// [`JournalError::Exists`] if `path` already exists (resuming an
    /// existing journal is [`SweepJournal::open`]'s job — refusing to
    /// overwrite is what makes `--checkpoint` restart-safe), or
    /// [`JournalError::Io`].
    pub fn create(
        path: impl AsRef<Path>,
        base_seed: u64,
        cells: usize,
        config: ExperimentConfig,
    ) -> Result<Self, JournalError> {
        let path = path.as_ref();
        if path.exists() {
            return Err(JournalError::Exists(path.to_path_buf()));
        }
        let header = FORMAT.encode_header(&[
            base_seed,
            cells as u64,
            config.post_terminal_ms,
            config.correlation_window_ms,
        ]);
        let file = RecordFile::create(path, &header)?;
        Ok(SweepJournal::new(
            file,
            SweepHeader {
                base_seed,
                cells,
                config,
            },
        ))
    }

    fn new(file: RecordFile, header: SweepHeader) -> Self {
        SweepJournal {
            file,
            header,
            completed: HashSet::new(),
            records: 0,
            recovered_records: 0,
            partial: AggregateBuilder::new(),
        }
    }

    /// Opens an existing journal, validates the header, replays every
    /// intact record into the in-memory partial aggregate, and
    /// truncates the file at the first torn or corrupt record.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the file is missing or I/O fails,
    /// [`JournalError::Header`] or [`JournalError::CellCount`] if the
    /// header is invalid. A damaged record *tail* is not an error — it
    /// is truncated and its cells will re-run.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, JournalError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(IoError::at("read", path))?;
        let [base_seed, cells, post_terminal_ms, correlation_window_ms] = FORMAT
            .decode_header(&bytes, HEADER_BYTES)
            .and_then(|mut fields| fields.u64s())
            .map_err(JournalError::Header)?;
        let cells = usize::try_from(cells).map_err(|_| JournalError::CellCount(cells))?;
        let mut replayed = Vec::new();
        let (end, _) = FORMAT.scan(&bytes, HEADER_BYTES, |_, payload| {
            let record = decode_payload(payload)?;
            if record.cell() >= cells {
                return Err(FormatError::Malformed);
            }
            replayed.push(record);
            Ok(())
        });
        let config = ExperimentConfig {
            post_terminal_ms,
            correlation_window_ms,
        };
        let file = RecordFile::reopen(path, end as u64)?;
        let mut journal = SweepJournal::new(
            file,
            SweepHeader {
                base_seed,
                cells,
                config,
            },
        );
        for record in replayed {
            journal.apply(record);
        }
        journal.recovered_records = journal.records;
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

    /// Appends one record durably (one unbuffered write; see the
    /// [module docs](self) for the crash-safety contract) and folds it
    /// into the in-memory state.
    ///
    /// # Errors
    ///
    /// [`JournalError::CellOutOfRange`] if the record names a cell
    /// outside the sweep, [`JournalError::Record`] if it is over the
    /// budget (nothing is written for either), or [`JournalError::Io`].
    pub fn append(&mut self, record: JournalRecord) -> Result<(), JournalError> {
        let (cell, cells) = (record.cell(), self.header.cells);
        if cell >= cells {
            return Err(JournalError::CellOutOfRange { cell, cells });
        }
        self.file.append(&encode_record(&record)?)?;
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
    /// [`JournalError::Io`].
    pub fn sync(&mut self) -> Result<(), JournalError> {
        Ok(self.file.sync()?)
    }

    /// The sweep the header records.
    pub fn header(&self) -> SweepHeader {
        self.header
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
    use std::fs::OpenOptions;

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
            let bytes = encode_record(&record).unwrap();
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
            assert_eq!(encode_record(&back).unwrap(), bytes);
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
        let header = SweepHeader {
            base_seed: 42,
            cells: 10,
            config,
        };
        assert_eq!(reopened.header(), header);
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
    fn an_oversized_record_is_refused_and_later_cells_survive() {
        let path = temp_path("oversized");
        let mut journal = SweepJournal::create(&path, 3, 4, ExperimentConfig::default()).unwrap();
        journal.append(JournalRecord::Completed(delta(0))).unwrap();
        let len_before = std::fs::metadata(&path).unwrap().len();
        let huge = JournalRecord::Quarantined(CellFailure {
            reason: FailureReason::Panic {
                message: "x".repeat(MAX_RECORD_BYTES + 1),
            },
            ..failure(1)
        });
        assert!(matches!(
            journal.append(huge),
            Err(JournalError::Record(FormatError::Length { .. }))
        ));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len_before);
        journal.append(JournalRecord::Completed(delta(2))).unwrap();
        assert_eq!(journal.records(), 2);
        drop(journal);

        let reopened = SweepJournal::open(&path).unwrap();
        assert_eq!(reopened.records(), 2);
        assert!(reopened.is_completed(0) && reopened.is_completed(2));
        assert!(!reopened.is_completed(1), "the refused cell must re-run");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn decode_record_survives_truncation_at_every_boundary() {
        let record = JournalRecord::Completed(delta(5));
        let bytes = encode_record(&record).unwrap();
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
