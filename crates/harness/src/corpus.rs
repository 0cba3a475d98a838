//! The on-disk trace corpus: durable archives of monitored runs, and
//! the batched offline re-monitoring backend that re-evaluates *new*
//! goal suites over them with zero simulation cost.
//!
//! The paper's emergent-safety argument is about re-checking goal
//! suites against recorded constituent behaviour; operationally that
//! means a changed safety requirement should cost a cheap pass over an
//! archived evidence base, not a re-simulation campaign. A corpus is a
//! directory holding:
//!
//! ```text
//! corpus.bin      header (32 bytes: magic b"ESAFECRP", version, 2 fields, CRC-32)
//!                   [12..20) post_terminal_ms     u64 LE
//!                   [20..28) correlation_window   u64 LE
//!                 records, one frame each (payload ≤ MAX_CORPUS_RECORD_BYTES):
//!                   payload — tag byte then a codec body:
//!                            1 = signal table   (esafe_logic::corpus::encode_table)
//!                            2 = symbol block   (encode_sym_block; flushed *before*
//!                                                the run that introduced the symbols)
//!                            3 = archived run   (encode_run: metadata + one
//!                                                contiguous encoded column per signal)
//! MANIFEST.bin    commit marker, published at finish(): a header
//!                 (magic b"ESAFECMF") whose fields are the committed
//!                 data length, the run/tick/dictionary/table totals,
//!                 then each run's frame offset and tick count.
//! ```
//!
//! [`crate::record`] lays out each header's magic, version and
//! checksum and each record's `[len][crc]` frame, publishes headers and
//! manifests atomically, and appends one unbuffered write per record.
//! `finish` fsyncs the data file and then publishes the manifest.
//! Opening scans the data file once and keeps every record up to the
//! first defect. Without a manifest (a recording killed mid-sweep) that
//! prefix is the corpus: recovery costs the interrupted run, never a
//! wrong replay. With one, any defect before the committed length is a
//! typed error, never a silent truncation, and the scanned totals must
//! equal the committed ones.
//!
//! Replay ([`replay_corpus`]) groups archived runs by signal table,
//! compiles the requested goal suite once per group, and streams
//! stripes of runs through [`MonitorSuiteBatch::observe_slab`]: each
//! run's [`RunDecoder`] writes its next tick straight into one lane of
//! a shared lane-major [`FrameBatch`] slab, so re-monitoring an
//! archived corpus runs at batched-observe speed — no simulator, no
//! materialized traces, O(width) memory.
//!
//! [`MonitorSuiteBatch::observe_slab`]: esafe_monitor::MonitorSuiteBatch::observe_slab

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::context::RunContext;
use crate::experiment::{Experiment, ExperimentConfig, ExperimentError, RunReport};
use crate::record::{
    header_len, publish, Format, FormatError, IoError, RecordFile, FRAME_OVERHEAD,
};
use crate::substrate::Substrate;
use crate::sweep::{AggregateBuilder, Sweep, SweepAggregate, SweepStats};
use esafe_logic::corpus::{
    decode_run_meta, decode_run_trace, decode_sym_block, decode_table, encode_run,
    encode_sym_block, encode_table, RunDecoder, RunMeta, SymDict,
};
use esafe_logic::{EvalError, FrameBatch, FrameTrace, SignalTable};
use esafe_monitor::{BatchMonitorError, MonitorError};
use rayon::prelude::*;
use std::fmt;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes opening every corpus data file.
pub const CORPUS_MAGIC: [u8; 8] = *b"ESAFECRP";

/// Magic bytes opening every corpus manifest.
pub const MANIFEST_MAGIC: [u8; 8] = *b"ESAFECMF";

/// On-disk format version this build writes and reads.
pub const CORPUS_VERSION: u32 = 1;

/// Corpus data-file header length in bytes (see the [module
/// docs](self)).
pub const CORPUS_HEADER_BYTES: usize = header_len(2);

/// The largest record payload, refused by the writer and checked
/// against the length prefix *before* the payload allocation. An
/// archived run is the big case: a 20 s vehicle run encodes to a few
/// megabytes at worst.
pub const MAX_CORPUS_RECORD_BYTES: usize = 1 << 26;

/// The data file's record format.
pub const DATA_FORMAT: Format = Format {
    magic: CORPUS_MAGIC,
    version: CORPUS_VERSION,
    max_payload: MAX_CORPUS_RECORD_BYTES,
};

/// The manifest's format: a header alone, no frames.
pub const MANIFEST_FORMAT: Format = Format {
    magic: MANIFEST_MAGIC,
    version: CORPUS_VERSION,
    max_payload: 0,
};

/// The data file inside a corpus directory.
pub const CORPUS_DATA_FILE: &str = "corpus.bin";

/// The commit-marker manifest inside a corpus directory.
pub const CORPUS_MANIFEST_FILE: &str = "MANIFEST.bin";

/// Record payload tag: an encoded signal table.
pub const TAG_TABLE: u8 = 1;
/// Record payload tag: a symbol-dictionary block.
pub const TAG_SYMS: u8 = 2;
/// Record payload tag: one archived run.
pub const TAG_RUN: u8 = 3;

/// Why a goal suite for replay could not be built.
#[derive(Debug, Clone, PartialEq)]
pub enum SuiteError {
    /// No suite is registered under this name.
    Unknown(String),
    /// The suite has no goals for the substrate of this name.
    NoSubstrate(String),
    /// A goal formula failed to compile against the table.
    Compile(EvalError),
}

impl fmt::Display for SuiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuiteError::Unknown(name) => write!(f, "unknown suite `{name}`"),
            SuiteError::NoSubstrate(name) => write!(f, "no suite for substrate `{name}`"),
            SuiteError::Compile(e) => write!(f, "a goal failed to compile: {e}"),
        }
    }
}

/// An error raised while writing, opening, or replaying a corpus.
#[derive(Debug, Clone, PartialEq)]
pub enum CorpusError {
    /// A filesystem operation failed.
    Io(IoError),
    /// [`TraceCorpusWriter::create`] found a corpus in this directory.
    Exists(PathBuf),
    /// The data file's header is missing or invalid.
    Header(FormatError),
    /// The manifest is invalid, or longer than any manifest of its data
    /// file can be ([`FormatError::Length`]).
    Manifest(FormatError),
    /// The manifest's totals differ from the ones the data file holds.
    Totals {
        /// The manifest's totals.
        committed: CorpusStats,
        /// The totals the scan of the data file found.
        scanned: CorpusStats,
    },
    /// The manifest's index entry for this run differs from the run.
    Index(usize),
    /// A defect inside a committed region, or an archived run that
    /// fails to decode.
    Corrupt {
        /// Where the defective frame starts in `corpus.bin`.
        at: u64,
        /// What is wrong with it.
        error: FormatError,
    },
    /// The writer refused a record over [`MAX_CORPUS_RECORD_BYTES`].
    Record(FormatError),
    /// A run offered for recording carried no frame trace.
    MissingTrace {
        /// The traceless run's label.
        label: String,
    },
    /// A sweep's timing policy differs from the corpus's.
    Config {
        /// The sweep's policy.
        sweep: ExperimentConfig,
        /// The policy the corpus records under.
        corpus: ExperimentConfig,
    },
    /// A live run failed while recording a sweep into a corpus.
    Run(ExperimentError),
    /// The goal suite for replay could not be built.
    Suite(SuiteError),
    /// Batched replay failed to observe a slab.
    Observe(BatchMonitorError),
    /// Live re-scoring failed to replay a recorded trace.
    Rescore(MonitorError),
    /// Replay was asked for stripes of zero lanes.
    ZeroWidth,
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Io(e) => write!(f, "corpus I/O: {e}"),
            CorpusError::Exists(dir) => write!(f, "a corpus exists at {}", dir.display()),
            CorpusError::Header(e) => write!(f, "corpus header: {e}"),
            CorpusError::Manifest(e) => write!(f, "corpus manifest: {e}"),
            CorpusError::Totals { committed, scanned } => {
                write!(f, "manifest totals {committed:?}, data file {scanned:?}")
            }
            CorpusError::Index(run) => write!(f, "manifest index entry {run} is wrong"),
            CorpusError::Corrupt { at, error } => write!(f, "corpus record at byte {at}: {error}"),
            CorpusError::Record(e) => write!(f, "corpus record refused: {e}"),
            CorpusError::MissingTrace { label } => {
                write!(f, "run `{label}` has no frame trace to record")
            }
            CorpusError::Config { sweep, corpus } => {
                write!(f, "sweep policy {sweep:?}, corpus policy {corpus:?}")
            }
            CorpusError::Run(e) => write!(f, "recorded run failed: {e}"),
            CorpusError::Suite(e) => write!(f, "replay suite: {e}"),
            CorpusError::Observe(e) => write!(f, "batched observe failed: {e}"),
            CorpusError::Rescore(e) => write!(f, "live re-score failed: {e}"),
            CorpusError::ZeroWidth => write!(f, "replay stripe width must be ≥ 1"),
        }
    }
}

impl std::error::Error for CorpusError {}

impl From<ExperimentError> for CorpusError {
    fn from(e: ExperimentError) -> Self {
        CorpusError::Run(e)
    }
}

impl From<IoError> for CorpusError {
    fn from(e: IoError) -> Self {
        CorpusError::Io(e)
    }
}

// --- stats -------------------------------------------------------------

/// Whole-corpus totals, as written (writer side), committed (manifest)
/// or recovered (reader side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusStats {
    /// Archived runs.
    pub runs: usize,
    /// Total archived ticks across all runs.
    pub ticks: u64,
    /// Bytes of valid data in `corpus.bin` (header + records).
    pub data_bytes: u64,
    /// Symbol-dictionary entries.
    pub dict_len: usize,
    /// Archived signal tables.
    pub tables: usize,
}

// --- writer ------------------------------------------------------------

/// An append-only corpus writer: archives each recorded run as it
/// finishes and publishes an atomic commit manifest at
/// [`finish`](TraceCorpusWriter::finish).
#[derive(Debug)]
pub struct TraceCorpusWriter {
    dir: PathBuf,
    file: RecordFile,
    config: ExperimentConfig,
    dict: SymDict,
    tables: Vec<Arc<SignalTable>>,
    /// Each run's frame offset and tick count.
    index: Vec<[u64; 2]>,
}

impl TraceCorpusWriter {
    /// Creates a fresh corpus at `dir` (the directory is created if
    /// missing), pinning the timing policy recorded runs were
    /// classified under — replay re-correlates with the same policy.
    ///
    /// # Errors
    ///
    /// [`CorpusError::Exists`] if the directory already holds a corpus
    /// data file or manifest, or [`CorpusError::Io`].
    pub fn create(dir: impl AsRef<Path>, config: ExperimentConfig) -> Result<Self, CorpusError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(IoError::at("create", &dir))?;
        let data = dir.join(CORPUS_DATA_FILE);
        if data.exists() || dir.join(CORPUS_MANIFEST_FILE).exists() {
            return Err(CorpusError::Exists(dir));
        }
        let header =
            DATA_FORMAT.encode_header(&[config.post_terminal_ms, config.correlation_window_ms]);
        let file = RecordFile::create(&data, &header)?;
        Ok(TraceCorpusWriter {
            dir,
            file,
            config,
            dict: SymDict::new(),
            tables: Vec::new(),
            index: Vec::new(),
        })
    }

    /// The timing policy this corpus records under.
    pub fn config(&self) -> ExperimentConfig {
        self.config
    }

    /// Totals so far: what [`finish`](TraceCorpusWriter::finish)
    /// commits.
    pub fn stats(&self) -> CorpusStats {
        CorpusStats {
            runs: self.index.len(),
            ticks: self.index.iter().map(|[_, ticks]| ticks).sum(),
            data_bytes: self.file.size(),
            dict_len: self.dict.len(),
            tables: self.tables.len(),
        }
    }

    fn append_record(&mut self, tag: u8, body: &[u8]) -> Result<(), CorpusError> {
        let mut payload = Vec::with_capacity(1 + body.len());
        payload.push(tag);
        payload.extend_from_slice(body);
        let frame = DATA_FORMAT
            .encode_frame(&payload)
            .map_err(CorpusError::Record)?;
        Ok(self.file.append(&frame)?)
    }

    fn table_ref(&mut self, table: &Arc<SignalTable>) -> Result<u32, CorpusError> {
        if let Some(i) = self.tables.iter().position(|t| Arc::ptr_eq(t, table)) {
            return Ok(i as u32);
        }
        self.append_record(TAG_TABLE, &encode_table(table))?;
        self.tables.push(Arc::clone(table));
        Ok((self.tables.len() - 1) as u32)
    }

    /// Archives one recorded trace with its run metadata. New symbols
    /// are flushed as a dictionary block *before* the run record, so a
    /// front-to-back reader always holds every id a run references.
    ///
    /// # Errors
    ///
    /// [`CorpusError::Io`], or [`CorpusError::Record`] for a record
    /// over the budget.
    pub fn append_trace(
        &mut self,
        trace: &FrameTrace,
        substrate: &str,
        label: &str,
        terminated_early: bool,
        terminal_event: Option<&str>,
    ) -> Result<(), CorpusError> {
        let table_ref = self.table_ref(trace.table())?;
        let meta = RunMeta {
            table_ref,
            substrate: substrate.to_owned(),
            label: label.to_owned(),
            dt_millis: trace.tick_millis(),
            ticks: trace.len() as u64,
            terminated_early,
            terminal_event: terminal_event.map(str::to_owned),
        };
        let watermark = self.dict.len();
        let body = encode_run(trace, &meta, &mut self.dict);
        if self.dict.len() > watermark {
            let block = encode_sym_block(self.dict.texts_from(watermark));
            self.append_record(TAG_SYMS, &block)?;
        }
        let offset = self.file.size();
        self.append_record(TAG_RUN, &body)?;
        self.index.push([offset, meta.ticks]);
        Ok(())
    }

    /// Archives one finished run's recording — the convenience form of
    /// [`append_trace`](TraceCorpusWriter::append_trace) over a
    /// [`RunReport`] produced with frame recording on.
    ///
    /// # Errors
    ///
    /// Fails with [`CorpusError::MissingTrace`] if the report carries
    /// no trace, otherwise as `append_trace`.
    pub fn append_run(&mut self, report: &RunReport) -> Result<(), CorpusError> {
        let trace = report
            .trace
            .as_ref()
            .ok_or_else(|| CorpusError::MissingTrace {
                label: report.label.clone(),
            })?;
        self.append_trace(
            trace,
            &report.substrate,
            &report.label,
            report.terminated_early,
            report.terminal_event.as_deref(),
        )
    }

    /// Commits the corpus: fsyncs the data file, then publishes the
    /// manifest atomically. Until this succeeds the corpus opens in
    /// recovery mode (complete runs only).
    ///
    /// # Errors
    ///
    /// [`CorpusError::Io`]; the data file keeps whatever made it to
    /// disk and remains recoverable.
    pub fn finish(self) -> Result<CorpusStats, CorpusError> {
        self.file.sync()?;
        let stats = self.stats();
        let mut fields = vec![
            stats.data_bytes,
            stats.runs as u64,
            stats.ticks,
            stats.dict_len as u64,
            stats.tables as u64,
        ];
        fields.extend_from_slice(self.index.as_flattened());
        let manifest = MANIFEST_FORMAT.encode_header(&fields);
        publish(&self.dir.join(CORPUS_MANIFEST_FILE), &manifest)?;
        Ok(stats)
    }
}

// --- recording sink on Sweep -------------------------------------------

impl<C: Sync> Sweep<C> {
    /// Runs every cell serially with frame recording on, archiving each
    /// run into `writer` as it finishes and streaming the same
    /// aggregate a plain sweep would produce. The corpus ends up in
    /// cell order; the aggregate is order-independent either way.
    ///
    /// # Errors
    ///
    /// [`CorpusError::Config`] if the writer's pinned timing policy
    /// differs from the sweep's, the first failing cell, or corpus I/O
    /// failure. Cells already archived stay in the corpus (it remains
    /// recoverable).
    pub fn run_aggregate_recorded<S, F>(
        &self,
        build: F,
        writer: &mut TraceCorpusWriter,
    ) -> Result<(SweepAggregate, SweepStats), CorpusError>
    where
        S: Substrate,
        F: Fn(&C, u64) -> S,
    {
        if writer.config() != self.config {
            return Err(CorpusError::Config {
                sweep: self.config,
                corpus: writer.config(),
            });
        }
        let mut ctx = RunContext::new();
        let mut agg = AggregateBuilder::new();
        let mut stats = SweepStats::default();
        for (index, cell) in self.cells.iter().enumerate() {
            let substrate = build(cell, crate::sweep::cell_seed(self.base_seed, index));
            let (report, provenance) = Experiment::new(&substrate)
                .with_config(self.config)
                .with_frame_recording(true)
                .run_in(&mut ctx)?;
            stats.absorb(provenance);
            writer.append_run(&report)?;
            agg.absorb(&report);
        }
        Ok((agg.finish(), stats))
    }

    /// The **live reference** for corpus replay: runs every cell with
    /// frame recording on and re-scores each recording with the suite
    /// `suite_for` builds (compiled against the live table), replacing
    /// the run's violations and correlation before aggregation. The
    /// simulations themselves always run under the substrate's own
    /// configuration — only the *monitoring* changes — so replaying an
    /// archived corpus with the same suite must match this aggregate
    /// bit for bit.
    ///
    /// # Errors
    ///
    /// Fails on the first failing cell, a run recorded without a trace,
    /// a suite failure, or [`CorpusError::Rescore`].
    pub fn run_aggregate_rescored<S, F, G>(
        &self,
        build: F,
        mut suite_for: G,
    ) -> Result<(SweepAggregate, SweepStats), CorpusError>
    where
        S: Substrate,
        F: Fn(&C, u64) -> S,
        G: FnMut(&str, &Arc<SignalTable>) -> Result<esafe_monitor::MonitorSuite, CorpusError>,
    {
        let mut ctx = RunContext::new();
        let mut agg = AggregateBuilder::new();
        let mut stats = SweepStats::default();
        // One compiled suite per (substrate, table identity) — cells of
        // a family share one table, so this compiles once per family.
        let mut suites: Vec<((String, *const SignalTable), esafe_monitor::MonitorSuite)> =
            Vec::new();
        for (index, cell) in self.cells.iter().enumerate() {
            let substrate = build(cell, crate::sweep::cell_seed(self.base_seed, index));
            let (mut report, provenance) = Experiment::new(&substrate)
                .with_config(self.config)
                .with_frame_recording(true)
                .run_in(&mut ctx)?;
            stats.absorb(provenance);
            let trace = report
                .trace
                .take()
                .ok_or_else(|| CorpusError::MissingTrace {
                    label: report.label.clone(),
                })?;
            let key = (report.substrate.clone(), Arc::as_ptr(trace.table()));
            let at = match suites.iter().position(|(k, _)| *k == key) {
                Some(at) => at,
                None => {
                    let suite = suite_for(&report.substrate, trace.table())?;
                    suites.push((key, suite));
                    suites.len() - 1
                }
            };
            let suite = &mut suites[at].1;
            suite.replay(&trace).map_err(CorpusError::Rescore)?;
            let window = self.config.correlation_window_ms.div_ceil(report.dt_millis);
            report.correlation = suite.correlate(window);
            report.violations = suite.take_violations();
            agg.absorb(&report);
        }
        Ok((agg.finish(), stats))
    }
}

// --- reader ------------------------------------------------------------

/// One archived run inside an open corpus: its metadata, its table
/// (resolved and checked at open) and where its bytes are.
#[derive(Debug, Clone)]
struct ArchivedRun {
    meta: RunMeta,
    table: Arc<SignalTable>,
    /// Where the run's frame starts in the data file.
    at: u64,
    body: Range<usize>,
}

impl ArchivedRun {
    /// The error for a run whose columns do not decode.
    fn corrupt(&self) -> CorpusError {
        CorpusError::Corrupt {
            at: self.at,
            error: FormatError::Malformed,
        }
    }
}

/// A read-only view of a corpus: the whole data file in one buffer,
/// scanned and validated once at open; run decoding borrows the buffer
/// zero-copy.
#[derive(Debug)]
pub struct TraceCorpusReader {
    bytes: Vec<u8>,
    config: ExperimentConfig,
    dict: SymDict,
    tables: Vec<Arc<SignalTable>>,
    runs: Vec<ArchivedRun>,
    stats: CorpusStats,
    recovered: bool,
}

/// A manifest's committed totals and each run's frame offset and
/// tick count.
type Committed = (CorpusStats, Vec<[u64; 2]>);

/// The committed totals and per-run index of the manifest at `path`,
/// or `None` if there is none. A manifest is read only if it is no
/// longer than one of a `data_len`-byte data file can be: every run
/// takes a frame of at least `FRAME_OVERHEAD + 1` bytes.
fn read_manifest(path: &Path, data_len: usize) -> Result<Option<Committed>, CorpusError> {
    if !path.exists() {
        return Ok(None);
    }
    let max_runs = data_len.saturating_sub(CORPUS_HEADER_BYTES) / (FRAME_OVERHEAD + 1);
    let max = header_len(5) as u64 + 16 * max_runs as u64;
    let len = std::fs::metadata(path)
        .map_err(IoError::at("stat", path))?
        .len();
    if len > max {
        return Err(CorpusError::Manifest(FormatError::Length { len, max }));
    }
    let bytes = std::fs::read(path).map_err(IoError::at("read", path))?;
    let parse = || {
        let mut m = MANIFEST_FORMAT.decode_header(&bytes, bytes.len())?;
        let committed = CorpusStats {
            data_bytes: m.u64()?,
            runs: m.usize()?,
            ticks: m.u64()?,
            dict_len: m.usize()?,
            tables: m.usize()?,
        };
        if Some(m.remaining()) != committed.runs.checked_mul(16) {
            return Err(FormatError::Malformed);
        }
        let index = (0..committed.runs)
            .map(|_| m.u64s())
            .collect::<Result<_, _>>()?;
        Ok(Some((committed, index)))
    };
    parse().map_err(CorpusError::Manifest)
}

impl TraceCorpusReader {
    /// Opens the corpus at `dir`. With a valid manifest the committed
    /// region is validated strictly (any defect is a typed error);
    /// without one — a recording killed before
    /// [`TraceCorpusWriter::finish`] — the scan keeps every complete
    /// record and drops the torn tail, and
    /// [`recovered`](TraceCorpusReader::recovered) reports `true`.
    ///
    /// # Errors
    ///
    /// [`CorpusError::Io`] if the data file is unreadable,
    /// [`CorpusError::Header`] on a damaged header,
    /// [`CorpusError::Manifest`] on a garbage or oversized manifest,
    /// [`CorpusError::Totals`] or [`CorpusError::Index`] when the
    /// manifest contradicts the data file, and [`CorpusError::Corrupt`]
    /// on damage inside a committed region.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, CorpusError> {
        let dir = dir.as_ref();
        let path = dir.join(CORPUS_DATA_FILE);
        let bytes = std::fs::read(&path).map_err(IoError::at("read", &path))?;
        let [post_terminal_ms, correlation_window_ms] = DATA_FORMAT
            .decode_header(&bytes, CORPUS_HEADER_BYTES)
            .and_then(|mut fields| fields.u64s())
            .map_err(CorpusError::Header)?;
        let manifest = read_manifest(&dir.join(CORPUS_MANIFEST_FILE), bytes.len())?;
        // A committed corpus is read up to its committed length only.
        let limit = manifest.as_ref().map_or(bytes.len(), |(committed, _)| {
            committed.data_bytes.min(bytes.len() as u64) as usize
        });

        let mut dict = SymDict::new();
        let mut tables: Vec<Arc<SignalTable>> = Vec::new();
        let mut runs: Vec<ArchivedRun> = Vec::new();
        let mut ticks = 0u64;
        let (end, defect) =
            DATA_FORMAT.scan(&bytes[..limit], CORPUS_HEADER_BYTES, |at, payload| {
                let malformed = FormatError::Malformed;
                let (&tag, body) = payload.split_first().ok_or(malformed)?;
                match tag {
                    TAG_TABLE => tables.push(decode_table(body).ok_or(malformed)?),
                    TAG_SYMS => decode_sym_block(body)
                        .ok_or(malformed)?
                        .into_iter()
                        .for_each(|text| dict.push(text)),
                    TAG_RUN => {
                        let meta = decode_run_meta(body).ok_or(malformed)?;
                        let table = tables.get(meta.table_ref as usize).ok_or(malformed)?;
                        ticks = ticks.checked_add(meta.ticks).ok_or(malformed)?;
                        let start = at + FRAME_OVERHEAD + 1;
                        runs.push(ArchivedRun {
                            table: Arc::clone(table),
                            at: at as u64,
                            body: start..start + body.len(),
                            meta,
                        });
                    }
                    _ => return Err(malformed),
                }
                Ok(())
            });
        let stats = CorpusStats {
            runs: runs.len(),
            ticks,
            data_bytes: end as u64,
            dict_len: dict.len(),
            tables: tables.len(),
        };
        let recovered = manifest.is_none();
        if let Some((committed, index)) = manifest {
            if let Some(error) = defect {
                let at = end as u64;
                return Err(CorpusError::Corrupt { at, error });
            }
            if committed != stats {
                let scanned = stats;
                return Err(CorpusError::Totals { committed, scanned });
            }
            let differs = |(&[at, ticks], run): (&[u64; 2], &ArchivedRun)| {
                at != run.at || ticks != run.meta.ticks
            };
            if let Some(run) = index.iter().zip(&runs).position(differs) {
                return Err(CorpusError::Index(run));
            }
        }
        Ok(TraceCorpusReader {
            bytes,
            config: ExperimentConfig {
                post_terminal_ms,
                correlation_window_ms,
            },
            dict,
            tables,
            runs,
            stats,
            recovered,
        })
    }

    /// The timing policy the corpus was recorded under.
    pub fn config(&self) -> ExperimentConfig {
        self.config
    }

    /// Whether the corpus was opened without a manifest (recovery
    /// mode): a torn tail may have been dropped.
    pub fn recovered(&self) -> bool {
        self.recovered
    }

    /// Number of archived runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether the corpus holds no runs.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Whole-corpus totals.
    pub fn stats(&self) -> CorpusStats {
        self.stats
    }

    /// Run `i`'s metadata.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn meta(&self, i: usize) -> &RunMeta {
        &self.runs[i].meta
    }

    /// The reader-side signal table for an archived table reference.
    pub fn table(&self, table_ref: u32) -> Option<&Arc<SignalTable>> {
        self.tables.get(table_ref as usize)
    }

    /// The corpus-global symbol dictionary.
    pub fn dict(&self) -> &SymDict {
        &self.dict
    }

    /// Strictly decodes run `i` back into a full [`FrameTrace`] — the
    /// scalar-replay and test path.
    ///
    /// # Errors
    ///
    /// [`CorpusError::Corrupt`] if the run's columns fail to decode.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn decode_trace(&self, i: usize) -> Result<FrameTrace, CorpusError> {
        let run = &self.runs[i];
        decode_run_trace(&self.bytes[run.body.clone()], &run.table, &self.dict)
            .map(|(_, trace)| trace)
            .ok_or_else(|| run.corrupt())
    }

    /// A streaming decoder over run `i`, borrowing the corpus buffer —
    /// the batched-replay path.
    ///
    /// # Errors
    ///
    /// [`CorpusError::Corrupt`] if the run's header fails to re-parse.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn decoder(&self, i: usize) -> Result<RunDecoder<'_>, CorpusError> {
        let run = &self.runs[i];
        RunDecoder::new(&self.bytes[run.body.clone()], &run.table, &self.dict)
            .map(|(_, dec)| dec)
            .ok_or_else(|| run.corrupt())
    }
}

// --- batched replay ----------------------------------------------------

/// Default stripe width for corpus replay. Offline re-monitoring has
/// no per-lane simulator state competing for cache, so wide stripes
/// are strictly better: every fused DAG node decode amortizes over
/// more lanes. Matches the mega-grid sweep's production width.
pub const DEFAULT_REPLAY_WIDTH: usize = 128;

/// The outcome of re-monitoring a corpus with a goal suite.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusReplay {
    /// The aggregate the suite produces over the archived runs —
    /// bit-identical to running the same suite live over the same
    /// cells.
    pub aggregate: SweepAggregate,
    /// Runs re-monitored.
    pub runs: usize,
    /// Ticks re-observed (the denominator of replay ns/tick/run).
    pub ticks: u64,
}

/// Re-monitors every archived run with the goal suite `suite_for`
/// builds, streaming stripes of up to `width` runs through the batched
/// observer. `suite_for` is called once per (signal table, substrate
/// name) group with the *reader-side* table — compile the suite
/// against exactly that table.
///
/// Lanes retire individually as their runs end, so a stripe may mix
/// run lengths freely (ragged lanes); per-lane verdicts are identical
/// to scalar replay of each run alone.
///
/// # Errors
///
/// Fails on suite construction failure, [`CorpusError::ZeroWidth`],
/// undecodable runs ([`CorpusError::Corrupt`]), or a batched
/// observation error ([`CorpusError::Observe`]).
pub fn replay_corpus<F>(
    reader: &TraceCorpusReader,
    width: usize,
    suite_for: F,
) -> Result<CorpusReplay, CorpusError>
where
    F: FnMut(&str, &Arc<SignalTable>) -> Result<esafe_monitor::MonitorSuite, CorpusError>,
{
    replay_inner(reader, width, suite_for, |_, _| {})
}

/// [`replay_corpus`], additionally yielding each run's reconstructed
/// per-run report (violations, correlation, flags) in corpus order —
/// the per-run equivalence-testing hook.
///
/// # Errors
///
/// As [`replay_corpus`].
pub fn replay_corpus_reports<F>(
    reader: &TraceCorpusReader,
    width: usize,
    suite_for: F,
) -> Result<(CorpusReplay, Vec<RunReport>), CorpusError>
where
    F: FnMut(&str, &Arc<SignalTable>) -> Result<esafe_monitor::MonitorSuite, CorpusError>,
{
    let mut reports: Vec<(usize, RunReport)> = Vec::with_capacity(reader.len());
    let replay = replay_inner(reader, width, suite_for, |i, report| {
        reports.push((i, report));
    })?;
    reports.sort_by_key(|(i, _)| *i);
    Ok((replay, reports.into_iter().map(|(_, r)| r).collect()))
}

fn replay_inner<F, G>(
    reader: &TraceCorpusReader,
    width: usize,
    mut suite_for: F,
    mut sink: G,
) -> Result<CorpusReplay, CorpusError>
where
    F: FnMut(&str, &Arc<SignalTable>) -> Result<esafe_monitor::MonitorSuite, CorpusError>,
    G: FnMut(usize, RunReport),
{
    if width == 0 {
        return Err(CorpusError::ZeroWidth);
    }
    // Group runs by (table, substrate) preserving corpus order: one
    // compiled suite per group, shared by every stripe in it.
    let mut groups: Vec<(&ArchivedRun, Vec<usize>)> = Vec::new();
    for (i, run) in reader.runs.iter().enumerate() {
        let key = (run.meta.table_ref, &run.meta.substrate);
        match groups
            .iter_mut()
            .find(|(first, _)| (first.meta.table_ref, &first.meta.substrate) == key)
        {
            Some((_, members)) => members.push(i),
            None => groups.push((run, vec![i])),
        }
    }

    // One compiled template per group (serial — `suite_for` is FnMut),
    // then every stripe re-monitors independently across cores. Per-lane
    // verdicts are stripe-local, so parallelism cannot change them; the
    // collected reports are re-sorted into corpus order before
    // aggregation, making the whole replay bit-deterministic.
    let mut templates = Vec::with_capacity(groups.len());
    let mut stripes: Vec<(usize, Vec<usize>)> = Vec::new();
    for (first, members) in groups {
        let suite = suite_for(&first.meta.substrate, &first.table)?;
        templates.push((&first.table, suite.template()));
        for chunk in members.chunks(width) {
            stripes.push((templates.len() - 1, chunk.to_vec()));
        }
    }
    let outcomes: Vec<Result<Vec<(usize, RunReport)>, CorpusError>> = stripes
        .into_par_iter()
        .map(|(group, chunk)| {
            let (table, template) = &templates[group];
            replay_stripe(reader, table, template, &chunk)
        })
        .collect();
    let mut reports: Vec<(usize, RunReport)> = Vec::with_capacity(reader.len());
    for outcome in outcomes {
        reports.extend(outcome?);
    }
    reports.sort_by_key(|&(i, _)| i);

    let mut agg = AggregateBuilder::new();
    let mut runs = 0usize;
    let mut ticks = 0u64;
    for (i, report) in reports {
        agg.absorb(&report);
        ticks += report.ticks;
        runs += 1;
        sink(i, report);
    }
    Ok(CorpusReplay {
        aggregate: agg.finish(),
        runs,
        ticks,
    })
}

/// Re-monitors one stripe of archived runs: decode each tick straight
/// into the lane slab, observe the slab, retire lanes as their runs
/// end, then extract one report per lane.
fn replay_stripe(
    reader: &TraceCorpusReader,
    table: &Arc<SignalTable>,
    template: &esafe_monitor::SuiteTemplate,
    chunk: &[usize],
) -> Result<Vec<(usize, RunReport)>, CorpusError> {
    let w = chunk.len();
    let mut batch = template.instantiate_batch(w);
    let mut slab = FrameBatch::new(table, w);
    let mut decoders = Vec::with_capacity(w);
    for &i in chunk {
        decoders.push(reader.decoder(i)?);
    }
    let lens: Vec<usize> = decoders.iter().map(RunDecoder::len).collect();
    for (lane, &len) in lens.iter().enumerate() {
        if len == 0 {
            batch.retire_lane(lane);
        }
    }
    let longest = lens.iter().copied().max().unwrap_or(0);
    for t in 0..longest {
        for (lane, dec) in decoders.iter_mut().enumerate() {
            if t < lens[lane] {
                dec.write_tick(&mut slab, lane, reader.dict())
                    .ok_or_else(|| reader.runs[chunk[lane]].corrupt())?;
            }
        }
        batch.observe_slab(&slab).map_err(CorpusError::Observe)?;
        for (lane, &len) in lens.iter().enumerate() {
            if t + 1 == len {
                batch.retire_lane(lane);
            }
        }
    }
    batch.finish();
    let mut reports = Vec::with_capacity(w);
    for (lane, &i) in chunk.iter().enumerate() {
        let meta = reader.meta(i);
        let window = reader.config.correlation_window_ms.div_ceil(meta.dt_millis);
        let correlation = batch.correlate_lane(lane, window);
        let violations = batch.take_violations_lane(lane);
        let report = RunReport {
            substrate: meta.substrate.clone(),
            label: meta.label.clone(),
            config: reader.config,
            dt_millis: meta.dt_millis,
            scheduled_ticks: meta.ticks,
            ticks: meta.ticks,
            end_time_s: (meta.ticks.saturating_sub(1) * meta.dt_millis) as f64 / 1000.0,
            terminated_early: meta.terminated_early,
            terminal_event: meta.terminal_event.clone(),
            violations,
            correlation,
            ..RunReport::default()
        };
        reports.push((i, report));
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use esafe_logic::Value;

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("esafe-corpus-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn table() -> Arc<SignalTable> {
        let mut b = SignalTable::builder();
        b.bool("p");
        b.real("x");
        b.sym("cmd");
        b.finish()
    }

    fn trace_over(table: &Arc<SignalTable>, n: usize, phase: i64) -> FrameTrace {
        let p = table.id("p").unwrap();
        let x = table.id("x").unwrap();
        let cmd = table.id("cmd").unwrap();
        let mut trace = FrameTrace::new(table, 1);
        let mut frame = table.frame();
        for i in 0..n as i64 {
            frame.set(p, (i + phase) % 3 != 0);
            frame.set(x, (i + phase) as f64 * 0.5);
            frame.set(
                cmd,
                Value::sym(if (i + phase) % 2 == 0 { "GO" } else { "STOP" }),
            );
            trace.push(&frame);
        }
        trace
    }

    fn write_corpus(dir: &PathBuf, lens: &[usize]) -> CorpusStats {
        let table = table();
        let mut w = TraceCorpusWriter::create(dir, ExperimentConfig::default()).unwrap();
        for (i, &n) in lens.iter().enumerate() {
            let trace = trace_over(&table, n, i as i64);
            w.append_trace(&trace, "toy", &format!("run-{i}"), false, None)
                .unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn corpus_round_trips_runs_and_stats() {
        let dir = temp_dir("round-trip");
        let stats = write_corpus(&dir, &[5, 9, 0, 3]);
        assert_eq!(stats.runs, 4);
        assert_eq!(stats.ticks, 17);
        assert_eq!(stats.tables, 1);
        assert_eq!(stats.dict_len, 2);

        let r = TraceCorpusReader::open(&dir).unwrap();
        assert!(!r.recovered());
        assert_eq!(r.stats(), stats);
        assert_eq!(r.meta(1).label, "run-1");
        let reference = trace_over(r.table(0).unwrap(), 9, 1);
        assert_eq!(r.decode_trace(1).unwrap(), reference);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_an_existing_corpus() {
        let dir = temp_dir("refuse");
        write_corpus(&dir, &[2]);
        assert!(matches!(
            TraceCorpusWriter::create(&dir, ExperimentConfig::default()),
            Err(CorpusError::Exists(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_without_manifest_recovers_complete_runs() {
        let dir = temp_dir("torn");
        write_corpus(&dir, &[4, 4, 4]);
        // Simulate a SIGKILL before finish(): drop the manifest and
        // tear the last record.
        std::fs::remove_file(dir.join(CORPUS_MANIFEST_FILE)).unwrap();
        let data = dir.join(CORPUS_DATA_FILE);
        let bytes = std::fs::read(&data).unwrap();
        std::fs::write(&data, &bytes[..bytes.len() - 7]).unwrap();

        let r = TraceCorpusReader::open(&dir).unwrap();
        assert!(r.recovered());
        assert_eq!(r.len(), 2, "the torn third run must be dropped");
        assert_eq!(r.decode_trace(0).unwrap().len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn committed_corruption_is_a_hard_typed_error() {
        let dir = temp_dir("commit-flip");
        write_corpus(&dir, &[4, 4]);
        let data = dir.join(CORPUS_DATA_FILE);
        let mut bytes = std::fs::read(&data).unwrap();
        let mid = CORPUS_HEADER_BYTES + (bytes.len() - CORPUS_HEADER_BYTES) / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&data, &bytes).unwrap();
        match TraceCorpusReader::open(&dir) {
            Err(CorpusError::Corrupt { .. } | CorpusError::Totals { .. }) => {}
            other => panic!("expected a typed corruption error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_manifest_is_a_typed_error() {
        let dir = temp_dir("garbage-manifest");
        write_corpus(&dir, &[3]);
        std::fs::write(dir.join(CORPUS_MANIFEST_FILE), b"not a manifest at all").unwrap();
        assert!(matches!(
            TraceCorpusReader::open(&dir),
            Err(CorpusError::Manifest(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_oversized_manifest_is_refused_before_it_is_read() {
        let dir = temp_dir("huge-manifest");
        write_corpus(&dir, &[]);
        let manifest = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join(CORPUS_MANIFEST_FILE))
            .unwrap();
        manifest.set_len(64 << 20).unwrap();
        drop(manifest);
        match TraceCorpusReader::open(&dir) {
            Err(CorpusError::Manifest(FormatError::Length { len, max })) => {
                assert_eq!((len, max), (64 << 20, header_len(5) as u64));
            }
            other => panic!("expected the manifest size error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_matches_scalar_replay_per_run() {
        use esafe_monitor::{Location, MonitorSuite};

        let dir = temp_dir("replay-equiv");
        write_corpus(&dir, &[7, 13, 2, 0, 9]);
        let r = TraceCorpusReader::open(&dir).unwrap();

        let build = |table: &Arc<SignalTable>| -> esafe_monitor::MonitorSuite {
            let mut suite = MonitorSuite::new(Arc::clone(table));
            suite
                .add_goal(
                    "G1",
                    Location::new("toy"),
                    esafe_logic::parse("always(x < 5.0 || p)").unwrap(),
                )
                .unwrap();
            suite
                .add_subgoal(
                    "G1A",
                    "G1",
                    Location::new("toy"),
                    esafe_logic::parse("always(cmd == 'GO' || cmd == 'STOP')").unwrap(),
                )
                .unwrap();
            suite
        };

        for width in [1, 2, 4, 64] {
            let (replay, reports) =
                replay_corpus_reports(&r, width, |_, table| Ok(build(table))).unwrap();
            assert_eq!(replay.runs, 5);
            assert_eq!(replay.ticks, 31);

            let mut agg = AggregateBuilder::new();
            for (i, report) in reports.iter().enumerate() {
                // Scalar reference: replay the decoded trace through a
                // fresh scalar suite.
                let trace = r.decode_trace(i).unwrap();
                let mut scalar = build(r.table(0).unwrap());
                scalar.replay(&trace).unwrap();
                let window = r
                    .config()
                    .correlation_window_ms
                    .div_ceil(r.meta(i).dt_millis);
                scalar.correlate(window);
                let violations = scalar.take_violations();
                assert_eq!(report.violations, violations, "width {width}, run {i}");
                agg.absorb(report);
            }
            assert_eq!(agg.finish(), replay.aggregate);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
