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
//! corpus.bin      header (32 bytes, written atomically: temp + fsync + rename)
//!                   [0..8)   magic  b"ESAFECRP"
//!                   [8..12)  format version       u32 LE
//!                   [12..20) post_terminal_ms     u64 LE
//!                   [20..28) correlation_window   u64 LE
//!                   [28..32) CRC-32 of [0..28)    u32 LE
//!                 records, each (same framing as the sweep journal):
//!                   [0..4)   payload length       u32 LE  (≤ MAX_CORPUS_RECORD_BYTES)
//!                   [4..8)   CRC-32 of payload    u32 LE
//!                   [8..)    payload — tag byte then a codec body:
//!                            1 = signal table   (esafe_logic::corpus::encode_table)
//!                            2 = symbol block   (encode_sym_block; flushed *before*
//!                                                the run that introduced the symbols)
//!                            3 = archived run   (encode_run: metadata + one
//!                                                contiguous encoded column per signal)
//! MANIFEST.bin    commit marker, written atomically at finish(): the
//!                 committed data length, run/tick/dictionary/table
//!                 totals, the per-run record index, and a trailing
//!                 CRC-32 over all of it.
//! ```
//!
//! Durability follows the [`SweepJournal`](crate::journal) idiom
//! exactly: appends are buffered writes, `finish` fsyncs the data file
//! and then publishes the manifest via temp + fsync + rename. Opening
//! a corpus *with* a valid manifest is strict — any defect inside the
//! committed region is a typed error, never a silent truncation.
//! Opening one *without* a manifest (a recording killed mid-sweep)
//! scans front to back and keeps every complete record, dropping the
//! torn tail: recovery costs the interrupted run, never a wrong
//! replay.
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

use crate::context::RunContext;
use crate::crc::crc32;
use crate::experiment::{Experiment, ExperimentConfig, ExperimentError, RunReport};
use crate::substrate::Substrate;
use crate::sweep::{AggregateBuilder, Sweep, SweepAggregate, SweepStats};
use esafe_logic::corpus::{
    decode_run_meta, decode_run_trace, decode_sym_block, decode_table, encode_run,
    encode_sym_block, encode_table, RunDecoder, RunMeta, SymDict,
};
use esafe_logic::{FrameBatch, FrameTrace, SignalTable};
use rayon::prelude::*;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
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
pub const CORPUS_HEADER_BYTES: usize = 32;

/// The largest record payload the decoder will buffer, checked against
/// the length prefix *before* the payload allocation. An archived run
/// is the big case: a 20 s vehicle run encodes to a few megabytes at
/// worst.
pub const MAX_CORPUS_RECORD_BYTES: usize = 1 << 26;

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

/// An error raised while writing, opening, or replaying a corpus.
#[derive(Debug, Clone, PartialEq)]
pub enum CorpusError {
    /// A filesystem operation failed.
    Io {
        /// What the corpus was doing (e.g. `"create corpus.bin"`).
        context: String,
        /// The underlying error's message.
        message: String,
    },
    /// The data-file header is missing, malformed, or mismatched.
    Header(String),
    /// The manifest is malformed or contradicts the data file.
    Manifest(String),
    /// A committed record region failed validation.
    Corrupt(String),
    /// A run offered for recording carried no frame trace.
    MissingTrace {
        /// The traceless run's label.
        label: String,
    },
    /// A live run failed while recording a sweep into a corpus.
    Run(ExperimentError),
    /// Replay failed (suite construction or batched observation).
    Replay(String),
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusError::Io { context, message } => write!(f, "corpus I/O ({context}): {message}"),
            CorpusError::Header(msg) => write!(f, "corpus header: {msg}"),
            CorpusError::Manifest(msg) => write!(f, "corpus manifest: {msg}"),
            CorpusError::Corrupt(msg) => write!(f, "corpus corrupt: {msg}"),
            CorpusError::MissingTrace { label } => {
                write!(f, "run `{label}` has no frame trace to record")
            }
            CorpusError::Run(e) => write!(f, "recorded run failed: {e}"),
            CorpusError::Replay(msg) => write!(f, "corpus replay: {msg}"),
        }
    }
}

impl std::error::Error for CorpusError {}

impl From<ExperimentError> for CorpusError {
    fn from(e: ExperimentError) -> Self {
        CorpusError::Run(e)
    }
}

fn io_err(context: &str, e: std::io::Error) -> CorpusError {
    CorpusError::Io {
        context: context.to_owned(),
        message: e.to_string(),
    }
}

// --- record framing ----------------------------------------------------

/// Frames a record: `[len][crc][tag + body]`, same shape as the sweep
/// journal's records.
pub fn encode_corpus_record(tag: u8, body: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(body.len() + 9);
    payload.push(tag);
    payload.extend_from_slice(body);
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// The outcome of decoding one record frame from a byte prefix.
#[derive(Debug)]
pub enum CorpusDecodeOutcome<'a> {
    /// A complete, checksum-valid record: its tag, its body (the
    /// payload after the tag byte), and the total bytes consumed.
    Record {
        /// The payload's tag byte.
        tag: u8,
        /// The payload after the tag byte, borrowed from the input.
        body: &'a [u8],
        /// Total frame length consumed from the input.
        consumed: usize,
    },
    /// The prefix ends before the record does (a torn tail).
    Incomplete,
    /// The frame is invalid: oversized length, checksum mismatch, or an
    /// empty payload.
    Corrupt(String),
}

/// Decodes one record frame from the front of `bytes` without
/// allocating — the body borrows the input.
pub fn decode_corpus_record(bytes: &[u8]) -> CorpusDecodeOutcome<'_> {
    if bytes.len() < 8 {
        return CorpusDecodeOutcome::Incomplete;
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_CORPUS_RECORD_BYTES {
        return CorpusDecodeOutcome::Corrupt(format!(
            "record length {len} exceeds the {MAX_CORPUS_RECORD_BYTES}-byte budget"
        ));
    }
    if len == 0 {
        return CorpusDecodeOutcome::Corrupt("empty record payload".to_owned());
    }
    let crc = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    let Some(payload) = bytes.get(8..8 + len) else {
        return CorpusDecodeOutcome::Incomplete;
    };
    if crc32(payload) != crc {
        return CorpusDecodeOutcome::Corrupt("record checksum mismatch".to_owned());
    }
    CorpusDecodeOutcome::Record {
        tag: payload[0],
        body: &payload[1..],
        consumed: 8 + len,
    }
}

// --- stats -------------------------------------------------------------

/// Whole-corpus totals, as written (writer side) or as recovered
/// (reader side).
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
    file: BufWriter<File>,
    config: ExperimentConfig,
    dict: SymDict,
    tables: Vec<Arc<SignalTable>>,
    data_bytes: u64,
    index: Vec<(u64, u64)>,
    total_ticks: u64,
}

fn encode_corpus_header(config: ExperimentConfig) -> [u8; CORPUS_HEADER_BYTES] {
    let mut h = [0u8; CORPUS_HEADER_BYTES];
    h[0..8].copy_from_slice(&CORPUS_MAGIC);
    h[8..12].copy_from_slice(&CORPUS_VERSION.to_le_bytes());
    h[12..20].copy_from_slice(&config.post_terminal_ms.to_le_bytes());
    h[20..28].copy_from_slice(&config.correlation_window_ms.to_le_bytes());
    let crc = crc32(&h[0..28]);
    h[28..32].copy_from_slice(&crc.to_le_bytes());
    h
}

/// Writes `bytes` at `path` atomically: temp file in the same
/// directory, fsync, rename.
fn write_atomically(path: &Path, bytes: &[u8], context: &str) -> Result<(), CorpusError> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let mut f = File::create(&tmp).map_err(|e| io_err(context, e))?;
    f.write_all(bytes).map_err(|e| io_err(context, e))?;
    f.sync_all().map_err(|e| io_err(context, e))?;
    drop(f);
    std::fs::rename(&tmp, path).map_err(|e| io_err(context, e))
}

impl TraceCorpusWriter {
    /// Creates a fresh corpus at `dir` (the directory is created if
    /// missing), pinning the timing policy recorded runs were
    /// classified under — replay re-correlates with the same policy.
    ///
    /// # Errors
    ///
    /// Fails if the directory already holds a corpus data file or
    /// manifest, or on I/O failure.
    pub fn create(dir: impl AsRef<Path>, config: ExperimentConfig) -> Result<Self, CorpusError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create corpus directory", e))?;
        let data = dir.join(CORPUS_DATA_FILE);
        let manifest = dir.join(CORPUS_MANIFEST_FILE);
        if data.exists() || manifest.exists() {
            return Err(CorpusError::Header(format!(
                "refusing to overwrite an existing corpus at {}",
                dir.display()
            )));
        }
        write_atomically(&data, &encode_corpus_header(config), "create corpus.bin")?;
        let file = OpenOptions::new()
            .append(true)
            .open(&data)
            .map_err(|e| io_err("open corpus.bin for append", e))?;
        Ok(TraceCorpusWriter {
            dir,
            file: BufWriter::new(file),
            config,
            dict: SymDict::new(),
            tables: Vec::new(),
            data_bytes: CORPUS_HEADER_BYTES as u64,
            index: Vec::new(),
            total_ticks: 0,
        })
    }

    /// The timing policy this corpus records under.
    pub fn config(&self) -> ExperimentConfig {
        self.config
    }

    /// Archived runs so far.
    pub fn runs(&self) -> usize {
        self.index.len()
    }

    /// Archived ticks so far.
    pub fn ticks(&self) -> u64 {
        self.total_ticks
    }

    /// Bytes appended so far (header included).
    pub fn data_bytes(&self) -> u64 {
        self.data_bytes
    }

    fn append_record(&mut self, tag: u8, body: &[u8]) -> Result<(), CorpusError> {
        if body.len() + 1 > MAX_CORPUS_RECORD_BYTES {
            return Err(CorpusError::Corrupt(format!(
                "record of {} bytes exceeds the {MAX_CORPUS_RECORD_BYTES}-byte budget",
                body.len() + 1
            )));
        }
        let frame = encode_corpus_record(tag, body);
        self.file
            .write_all(&frame)
            .map_err(|e| io_err("append corpus record", e))?;
        self.data_bytes += frame.len() as u64;
        Ok(())
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
    /// Fails on I/O failure or an oversized record.
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
        let offset = self.data_bytes;
        self.append_record(TAG_RUN, &body)?;
        self.index.push((offset, meta.ticks));
        self.total_ticks += meta.ticks;
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

    fn encode_manifest(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(52 + self.index.len() * 16 + 4);
        out.extend_from_slice(&MANIFEST_MAGIC);
        out.extend_from_slice(&CORPUS_VERSION.to_le_bytes());
        out.extend_from_slice(&self.data_bytes.to_le_bytes());
        out.extend_from_slice(&(self.index.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.total_ticks.to_le_bytes());
        out.extend_from_slice(&(self.dict.len() as u64).to_le_bytes());
        out.extend_from_slice(&(self.tables.len() as u64).to_le_bytes());
        for &(offset, ticks) in &self.index {
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&ticks.to_le_bytes());
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Commits the corpus: flushes and fsyncs the data file, then
    /// publishes the manifest atomically. Until this succeeds the
    /// corpus opens in recovery mode (complete runs only).
    ///
    /// # Errors
    ///
    /// Fails on I/O failure; the data file keeps whatever made it to
    /// disk and remains recoverable.
    pub fn finish(mut self) -> Result<CorpusStats, CorpusError> {
        self.file
            .flush()
            .map_err(|e| io_err("flush corpus.bin", e))?;
        self.file
            .get_ref()
            .sync_all()
            .map_err(|e| io_err("fsync corpus.bin", e))?;
        let manifest = self.encode_manifest();
        write_atomically(
            &self.dir.join(CORPUS_MANIFEST_FILE),
            &manifest,
            "publish MANIFEST.bin",
        )?;
        Ok(CorpusStats {
            runs: self.index.len(),
            ticks: self.total_ticks,
            data_bytes: self.data_bytes,
            dict_len: self.dict.len(),
            tables: self.tables.len(),
        })
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
    /// Fails if the writer's pinned timing policy differs from the
    /// sweep's, on the first failing cell, or on corpus I/O failure.
    /// Cells already archived stay in the corpus (it remains
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
            return Err(CorpusError::Header(format!(
                "sweep timing policy {:?} differs from the corpus header's {:?}",
                self.config,
                writer.config()
            )));
        }
        let mut ctx = RunContext::new();
        let mut agg = AggregateBuilder::new();
        let mut stats = SweepStats::default();
        for (index, cell) in self.cells.iter().enumerate() {
            let substrate = build(cell, crate::sweep::cell_seed(self.base_seed, index));
            let (report, timing) = Experiment::new(&substrate)
                .with_config(self.config)
                .with_frame_recording(true)
                .run_in(&mut ctx)?;
            stats.absorb(timing);
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
    /// or a suite/replay failure.
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
            let (mut report, timing) = Experiment::new(&substrate)
                .with_config(self.config)
                .with_frame_recording(true)
                .run_in(&mut ctx)?;
            stats.absorb(timing);
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
            suite
                .replay(&trace)
                .map_err(|e| CorpusError::Replay(format!("live re-score failed: {e}")))?;
            let window = self.config.correlation_window_ms.div_ceil(report.dt_millis);
            report.correlation = suite.correlate(window);
            report.violations = suite.take_violations();
            agg.absorb(&report);
        }
        Ok((agg.finish(), stats))
    }
}

// --- reader ------------------------------------------------------------

/// One archived run's location and metadata inside an open corpus.
#[derive(Debug, Clone)]
struct ArchivedRun {
    meta: RunMeta,
    body: Range<usize>,
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
    total_ticks: u64,
    recovered: bool,
    data_bytes: u64,
}

struct Manifest {
    data_bytes: u64,
    runs: u64,
    ticks: u64,
    dict_len: u64,
    tables: u64,
    index: Vec<(u64, u64)>,
}

fn parse_manifest(bytes: &[u8]) -> Result<Manifest, String> {
    if bytes.len() < 56 {
        return Err(format!("manifest too short ({} bytes)", bytes.len()));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let crc = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    if crc32(body) != crc {
        return Err("manifest checksum mismatch".to_owned());
    }
    if body[0..8] != MANIFEST_MAGIC {
        return Err("bad manifest magic".to_owned());
    }
    let version = u32::from_le_bytes(body[8..12].try_into().expect("4 bytes"));
    if version != CORPUS_VERSION {
        return Err(format!(
            "manifest version {version} (this build reads {CORPUS_VERSION})"
        ));
    }
    let u64_at = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().expect("8 bytes"));
    let data_bytes = u64_at(12);
    let runs = u64_at(20);
    let ticks = u64_at(28);
    let dict_len = u64_at(36);
    let tables = u64_at(44);
    let index_bytes = body.len() - 52;
    if runs.checked_mul(16) != Some(index_bytes as u64) {
        return Err(format!(
            "manifest index holds {index_bytes} bytes for {runs} runs"
        ));
    }
    let mut index = Vec::with_capacity(runs as usize);
    for i in 0..runs as usize {
        index.push((u64_at(52 + i * 16), u64_at(52 + i * 16 + 8)));
    }
    Ok(Manifest {
        data_bytes,
        runs,
        ticks,
        dict_len,
        tables,
        index,
    })
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
    /// [`CorpusError::Manifest`] on a garbage or contradicted manifest,
    /// [`CorpusError::Corrupt`] on damage inside a committed region.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, CorpusError> {
        let dir = dir.as_ref();
        let bytes =
            std::fs::read(dir.join(CORPUS_DATA_FILE)).map_err(|e| io_err("read corpus.bin", e))?;
        if bytes.len() < CORPUS_HEADER_BYTES {
            return Err(CorpusError::Header(format!(
                "truncated header ({} bytes)",
                bytes.len()
            )));
        }
        if bytes[0..8] != CORPUS_MAGIC {
            return Err(CorpusError::Header("bad magic".to_owned()));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != CORPUS_VERSION {
            return Err(CorpusError::Header(format!(
                "format version {version} (this build reads {CORPUS_VERSION})"
            )));
        }
        let crc = u32::from_le_bytes(bytes[28..32].try_into().expect("4 bytes"));
        if crc32(&bytes[0..28]) != crc {
            return Err(CorpusError::Header("header checksum mismatch".to_owned()));
        }
        let config = ExperimentConfig {
            post_terminal_ms: u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")),
            correlation_window_ms: u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes")),
        };

        let manifest_path = dir.join(CORPUS_MANIFEST_FILE);
        let manifest = if manifest_path.exists() {
            let mbytes =
                std::fs::read(&manifest_path).map_err(|e| io_err("read MANIFEST.bin", e))?;
            Some(parse_manifest(&mbytes).map_err(CorpusError::Manifest)?)
        } else {
            None
        };

        let limit = match &manifest {
            Some(m) => {
                let committed = usize::try_from(m.data_bytes)
                    .map_err(|_| CorpusError::Manifest("absurd committed length".to_owned()))?;
                if committed < CORPUS_HEADER_BYTES {
                    return Err(CorpusError::Manifest(format!(
                        "committed length {committed} is shorter than the header"
                    )));
                }
                if bytes.len() < committed {
                    return Err(CorpusError::Manifest(format!(
                        "data file holds {} bytes but the manifest committed {committed}",
                        bytes.len()
                    )));
                }
                committed
            }
            None => bytes.len(),
        };
        let strict = manifest.is_some();

        let mut dict = SymDict::new();
        let mut tables: Vec<Arc<SignalTable>> = Vec::new();
        let mut runs: Vec<ArchivedRun> = Vec::new();
        let mut total_ticks = 0u64;
        let mut at = CORPUS_HEADER_BYTES;
        let mut scanned = at as u64;
        'scan: while at < limit {
            match decode_corpus_record(&bytes[at..limit]) {
                CorpusDecodeOutcome::Record {
                    tag,
                    body,
                    consumed,
                } => {
                    let body_start = at + 9;
                    let fail = |what: String| -> Result<(), CorpusError> {
                        if strict {
                            Err(CorpusError::Corrupt(format!("record at byte {at}: {what}")))
                        } else {
                            Ok(())
                        }
                    };
                    match tag {
                        TAG_TABLE => match decode_table(body) {
                            Some(table) => tables.push(table),
                            None => {
                                fail("malformed signal table".to_owned())?;
                                break 'scan;
                            }
                        },
                        TAG_SYMS => match decode_sym_block(body) {
                            Some(texts) => {
                                for t in texts {
                                    dict.push(t);
                                }
                            }
                            None => {
                                fail("malformed symbol block".to_owned())?;
                                break 'scan;
                            }
                        },
                        TAG_RUN => match decode_run_meta(body) {
                            Some(meta) if (meta.table_ref as usize) < tables.len() => {
                                total_ticks += meta.ticks;
                                runs.push(ArchivedRun {
                                    meta,
                                    body: body_start..body_start + body.len(),
                                });
                            }
                            Some(meta) => {
                                fail(format!("run references unknown table {}", meta.table_ref))?;
                                break 'scan;
                            }
                            None => {
                                fail("malformed run metadata".to_owned())?;
                                break 'scan;
                            }
                        },
                        other => {
                            fail(format!("unknown record tag {other}"))?;
                            break 'scan;
                        }
                    }
                    at += consumed;
                    scanned = at as u64;
                }
                CorpusDecodeOutcome::Incomplete => {
                    if strict {
                        return Err(CorpusError::Corrupt(format!(
                            "committed region ends with a torn record at byte {at}"
                        )));
                    }
                    break;
                }
                CorpusDecodeOutcome::Corrupt(msg) => {
                    if strict {
                        return Err(CorpusError::Corrupt(format!("record at byte {at}: {msg}")));
                    }
                    break;
                }
            }
        }

        if let Some(m) = &manifest {
            if runs.len() as u64 != m.runs
                || total_ticks != m.ticks
                || dict.len() as u64 != m.dict_len
                || tables.len() as u64 != m.tables
            {
                return Err(CorpusError::Manifest(format!(
                    "totals diverge from the data file: manifest says {} runs / {} ticks / {} symbols / {} tables, scan found {} / {} / {} / {}",
                    m.runs,
                    m.ticks,
                    m.dict_len,
                    m.tables,
                    runs.len(),
                    total_ticks,
                    dict.len(),
                    tables.len()
                )));
            }
            for (i, (&(offset, ticks), run)) in m.index.iter().zip(&runs).enumerate() {
                if ticks != run.meta.ticks || offset != run.body.start as u64 - 9 {
                    return Err(CorpusError::Manifest(format!(
                        "index entry {i} does not match the data file"
                    )));
                }
            }
        }

        Ok(TraceCorpusReader {
            bytes,
            config,
            dict,
            tables,
            runs,
            total_ticks,
            recovered: manifest.is_none(),
            data_bytes: scanned,
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
        CorpusStats {
            runs: self.runs.len(),
            ticks: self.total_ticks,
            data_bytes: self.data_bytes,
            dict_len: self.dict.len(),
            tables: self.tables.len(),
        }
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
        let table = self.table(run.meta.table_ref).expect("validated at open");
        decode_run_trace(&self.bytes[run.body.clone()], table, &self.dict)
            .map(|(_, trace)| trace)
            .ok_or_else(|| {
                CorpusError::Corrupt(format!("run {i} (`{}`) failed to decode", run.meta.label))
            })
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
        let table = self.table(run.meta.table_ref).expect("validated at open");
        RunDecoder::new(&self.bytes[run.body.clone()], table, &self.dict)
            .map(|(_, dec)| dec)
            .ok_or_else(|| {
                CorpusError::Corrupt(format!("run {i} (`{}`) failed to open", run.meta.label))
            })
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
/// Fails on suite construction failure, undecodable runs, or a batched
/// observation error.
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
        return Err(CorpusError::Replay("stripe width must be ≥ 1".to_owned()));
    }
    // Group runs by (table, substrate) preserving corpus order: one
    // compiled suite per group, shared by every stripe in it.
    let mut groups: Vec<((u32, &str), Vec<usize>)> = Vec::new();
    for i in 0..reader.len() {
        let meta = reader.meta(i);
        let key = (meta.table_ref, meta.substrate.as_str());
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(i),
            None => groups.push((key, vec![i])),
        }
    }

    // One compiled template per group (serial — `suite_for` is FnMut),
    // then every stripe re-monitors independently across cores. Per-lane
    // verdicts are stripe-local, so parallelism cannot change them; the
    // collected reports are re-sorted into corpus order before
    // aggregation, making the whole replay bit-deterministic.
    let mut templates = Vec::with_capacity(groups.len());
    let mut stripes: Vec<(usize, Vec<usize>)> = Vec::new();
    for ((table_ref, substrate), members) in groups {
        let table = reader.table(table_ref).expect("validated at open");
        templates.push((table, suite_for(substrate, table)?.template()));
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
                    .ok_or_else(|| {
                        CorpusError::Corrupt(format!(
                            "run {} (`{}`) failed to decode at tick {t}",
                            chunk[lane],
                            reader.meta(chunk[lane]).label
                        ))
                    })?;
            }
        }
        batch
            .observe_slab(&slab)
            .map_err(|e| CorpusError::Replay(format!("batched observe failed: {e}")))?;
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
            Err(CorpusError::Header(_))
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
            Err(CorpusError::Corrupt(_)) | Err(CorpusError::Manifest(_)) => {}
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
