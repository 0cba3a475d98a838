//! The columnar codec behind the on-disk trace corpus.
//!
//! A corpus archives whole monitored runs so a *new* goal suite can be
//! re-evaluated over them later with zero simulation cost (the
//! requirements-change workflow: re-verify against recorded evidence,
//! don't re-simulate). This module is the payload codec only — framing,
//! CRCs, manifests, and recovery live in the harness crate's corpus
//! store, mirroring how the sweep-journal splits record payloads from
//! file durability.
//!
//! Layout decisions, all in service of bit-identical replay:
//!
//! * **column-per-signal** — a run's samples are stored one contiguous
//!   region per signal (the [`FrameTrace`] layout serialized), so the
//!   streaming reader can drop each signal's next sample straight into
//!   the matching lane-major [`FrameBatch`] row.
//! * **dictionary-encoded symbols** — [`Sym`]s are process-local interned
//!   ids, so the corpus stores each distinct text once in a [`SymDict`]
//!   and columns reference dictionary ids; the reader re-interns on its
//!   side of the process boundary.
//! * **delta/varint tick samples** — per column, the encoder picks the
//!   cheapest of seven encodings (empty, constant, bool bitmaps,
//!   zigzag-delta ints, XOR-delta `f64` bit patterns, delta'd dictionary
//!   ids, or tagged mixed values). Reals travel as bit patterns, never
//!   as decimal text, so `NaN`s, `-0.0`, and every ULP round-trip
//!   exactly.
//!
//! Decoders return `Option`: `None` means the bytes are not a valid
//! encoding (truncated, over budget, or inconsistent). They never
//! panic on hostile input and never allocate more than the input could
//! legitimately describe — the property the corpus fuzz wall pins.

use crate::frame_batch::FrameBatch;
use crate::frame_trace::FrameTrace;
use crate::signal::{SignalId, SignalKind, SignalTable};
use crate::value::{Sym, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Budget on a single run's tick count: decoders reject lengths above
/// this before allocating. Far above any real workload (the mega grid
/// runs 5 000 ticks, the thesis grid 20 000), low enough that a hostile
/// length can't provoke a multi-gigabyte allocation.
pub const MAX_RUN_TICKS: u64 = 1 << 24;

/// Budget on a table's signal count, same rationale as
/// [`MAX_RUN_TICKS`].
pub const MAX_TABLE_SIGNALS: u64 = 1 << 16;

// --- varints -----------------------------------------------------------

/// Appends `x` as an LEB128 varint (7 bits per byte, high bit =
/// continuation).
pub fn put_varint(out: &mut Vec<u8>, mut x: u64) {
    loop {
        let byte = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Zigzag-maps a signed value onto an unsigned one (small magnitudes of
/// either sign become small varints).
pub fn zigzag(x: i64) -> u64 {
    ((x << 1) ^ (x >> 63)) as u64
}

/// Inverts [`zigzag`].
pub fn unzigzag(x: u64) -> i64 {
    ((x >> 1) as i64) ^ -((x & 1) as i64)
}

/// A bounds-checked forward reader over a byte slice. Every read
/// returns `None` past the end instead of panicking.
#[derive(Debug, Clone)]
struct Cur<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cur<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cur { bytes, at: 0 }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let s = self.bytes.get(self.at..end)?;
        self.at = end;
        Some(s)
    }

    #[inline]
    fn u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.at)?;
        self.at += 1;
        Some(b)
    }

    #[inline]
    fn varint(&mut self) -> Option<u64> {
        let mut x: u64 = 0;
        for shift in 0..10 {
            let b = self.u8()?;
            // The tenth byte may only carry the final bit of a u64.
            if shift == 9 && b > 1 {
                return None;
            }
            x |= u64::from(b & 0x7f) << (shift * 7);
            if b & 0x80 == 0 {
                return Some(x);
            }
        }
        None
    }

    fn str_(&mut self) -> Option<&'a str> {
        let len = self.varint()?;
        let len = usize::try_from(len).ok()?;
        std::str::from_utf8(self.take(len)?).ok()
    }

    fn done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

/// Appends a length-prefixed UTF-8 string.
fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

// --- symbol dictionary -------------------------------------------------

/// The corpus-global symbol dictionary: each distinct [`Sym`] text is
/// stored once and columns reference it by a dense id assigned in
/// first-appearance order. The writer grows it while encoding runs and
/// flushes new entries ahead of the run that introduced them; the
/// reader appends decoded blocks in file order, so by the time a run's
/// columns are decoded every id they reference is already present.
#[derive(Debug, Default, Clone)]
pub struct SymDict {
    texts: Vec<String>,
    syms: Vec<Sym>,
    ids: HashMap<String, u32>,
}

impl SymDict {
    /// An empty dictionary.
    pub fn new() -> Self {
        SymDict::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.texts.len()
    }

    /// Whether the dictionary holds no entries.
    pub fn is_empty(&self) -> bool {
        self.texts.is_empty()
    }

    /// The id of `text`, assigning the next id on first sight (writer
    /// side).
    pub fn intern(&mut self, text: &str) -> u32 {
        if let Some(&id) = self.ids.get(text) {
            return id;
        }
        let id = self.texts.len() as u32;
        self.ids.insert(text.to_owned(), id);
        self.texts.push(text.to_owned());
        self.syms.push(Sym::new(text));
        id
    }

    /// Appends a decoded dictionary entry (reader side), re-interning
    /// the text into this process's symbol table.
    pub fn push(&mut self, text: String) {
        let id = self.texts.len() as u32;
        self.syms.push(Sym::new(&text));
        self.ids.insert(text.clone(), id);
        self.texts.push(text);
    }

    /// The re-interned [`Sym`] for a dictionary id.
    pub fn sym(&self, id: u64) -> Option<Sym> {
        self.syms.get(usize::try_from(id).ok()?).copied()
    }

    /// The text for a dictionary id.
    pub fn text(&self, id: u64) -> Option<&str> {
        self.texts
            .get(usize::try_from(id).ok()?)
            .map(String::as_str)
    }

    /// The entries from index `start` on — what the writer flushes as a
    /// dictionary block before appending the run that introduced them.
    pub fn texts_from(&self, start: usize) -> &[String] {
        &self.texts[start.min(self.texts.len())..]
    }
}

/// Encodes a dictionary block: the texts appended since the writer's
/// last flush.
pub fn encode_sym_block(texts: &[String]) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, texts.len() as u64);
    for t in texts {
        put_str(&mut out, t);
    }
    out
}

/// Decodes a dictionary block, or `None` if the bytes are not exactly
/// one well-formed block.
pub fn decode_sym_block(bytes: &[u8]) -> Option<Vec<String>> {
    let mut cur = Cur::new(bytes);
    let count = cur.varint()?;
    // Every entry costs at least one length byte.
    if count > bytes.len() as u64 {
        return None;
    }
    let mut texts = Vec::with_capacity(count as usize);
    for _ in 0..count {
        texts.push(cur.str_()?.to_owned());
    }
    cur.done().then_some(texts)
}

// --- signal tables -----------------------------------------------------

fn kind_code(kind: SignalKind) -> u8 {
    match kind {
        SignalKind::Bool => 0,
        SignalKind::Int => 1,
        SignalKind::Real => 2,
        SignalKind::Sym => 3,
    }
}

fn kind_from(code: u8) -> Option<SignalKind> {
    match code {
        0 => Some(SignalKind::Bool),
        1 => Some(SignalKind::Int),
        2 => Some(SignalKind::Real),
        3 => Some(SignalKind::Sym),
        _ => None,
    }
}

/// Encodes a signal table: the namespace archived runs are indexed by.
pub fn encode_table(table: &SignalTable) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, table.len() as u64);
    for id in table.ids() {
        out.push(kind_code(table.kind(id)));
        put_str(&mut out, table.name(id));
    }
    out
}

/// Decodes a signal table block into a fresh (reader-side) table, or
/// `None` if the bytes are not exactly one well-formed table.
pub fn decode_table(bytes: &[u8]) -> Option<Arc<SignalTable>> {
    let mut cur = Cur::new(bytes);
    let count = cur.varint()?;
    if count > MAX_TABLE_SIGNALS {
        return None;
    }
    let mut b = SignalTable::builder();
    let mut seen = 0u64;
    while seen < count {
        let kind = kind_from(cur.u8()?)?;
        let name = cur.str_()?;
        b.signal(name, kind);
        seen += 1;
    }
    cur.done().then(|| b.finish())
}

// --- run metadata ------------------------------------------------------

/// The per-run metadata stored ahead of a run's columns — everything
/// the replay path needs to rebuild a run-report-shaped record without
/// the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// Which archived signal table the run's columns are indexed by
    /// (tables are numbered in file-appearance order).
    pub table_ref: u32,
    /// The substrate family name (e.g. `"vehicle"`), which selects the
    /// goal-suite builder at replay time.
    pub substrate: String,
    /// The run's human-readable label (e.g. `"scenario-1/thesis (all)"`).
    pub label: String,
    /// Tick period, milliseconds.
    pub dt_millis: u64,
    /// Number of recorded ticks.
    pub ticks: u64,
    /// Whether the live run terminated before its scheduled end.
    pub terminated_early: bool,
    /// The live run's terminal event, if any.
    pub terminal_event: Option<String>,
}

fn put_meta(out: &mut Vec<u8>, meta: &RunMeta) {
    put_varint(out, u64::from(meta.table_ref));
    put_str(out, &meta.substrate);
    put_str(out, &meta.label);
    put_varint(out, meta.dt_millis);
    put_varint(out, meta.ticks);
    out.push(u8::from(meta.terminated_early));
    match &meta.terminal_event {
        Some(ev) => {
            out.push(1);
            put_str(out, ev);
        }
        None => out.push(0),
    }
}

fn read_meta(cur: &mut Cur<'_>) -> Option<RunMeta> {
    let table_ref = u32::try_from(cur.varint()?).ok()?;
    let substrate = cur.str_()?.to_owned();
    let label = cur.str_()?.to_owned();
    let dt_millis = cur.varint()?;
    if dt_millis == 0 {
        return None;
    }
    let ticks = cur.varint()?;
    if ticks > MAX_RUN_TICKS {
        return None;
    }
    let terminated_early = match cur.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let terminal_event = match cur.u8()? {
        0 => None,
        1 => Some(cur.str_()?.to_owned()),
        _ => return None,
    };
    Some(RunMeta {
        table_ref,
        substrate,
        label,
        dt_millis,
        ticks,
        terminated_early,
        terminal_event,
    })
}

/// Decodes just a run's metadata (cheap: no column work), or `None` if
/// the prefix is malformed.
pub fn decode_run_meta(bytes: &[u8]) -> Option<RunMeta> {
    read_meta(&mut Cur::new(bytes))
}

// --- column encodings --------------------------------------------------

const TAG_COL_EMPTY: u8 = 0;
const TAG_COL_CONST: u8 = 1;
const TAG_COL_BOOL: u8 = 2;
const TAG_COL_INT: u8 = 3;
const TAG_COL_REAL: u8 = 4;
const TAG_COL_SYM: u8 = 5;
const TAG_COL_MIXED: u8 = 6;

const VAL_BOOL: u8 = 0;
const VAL_INT: u8 = 1;
const VAL_REAL: u8 = 2;
const VAL_SYM: u8 = 3;

/// Bitwise value equality: `f64`s compare as bit patterns, so `NaN`
/// equals itself and `0.0` differs from `-0.0` — the equality the
/// round-trip goldens need.
fn bits_eq(a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Real(x), Value::Real(y)) => x.to_bits() == y.to_bits(),
        (Value::Sym(x), Value::Sym(y)) => x == y,
        _ => false,
    }
}

fn put_value(out: &mut Vec<u8>, v: Value, dict: &mut SymDict) {
    match v {
        Value::Bool(b) => {
            out.push(VAL_BOOL);
            out.push(u8::from(b));
        }
        Value::Int(i) => {
            out.push(VAL_INT);
            put_varint(out, zigzag(i));
        }
        Value::Real(r) => {
            out.push(VAL_REAL);
            out.extend_from_slice(&r.to_bits().to_le_bytes());
        }
        Value::Sym(s) => {
            out.push(VAL_SYM);
            put_varint(out, u64::from(dict.intern(s.as_str())));
        }
    }
}

#[inline]
fn read_value(cur: &mut Cur<'_>, dict: &SymDict) -> Option<Value> {
    match cur.u8()? {
        VAL_BOOL => match cur.u8()? {
            0 => Some(Value::Bool(false)),
            1 => Some(Value::Bool(true)),
            _ => None,
        },
        VAL_INT => Some(Value::Int(unzigzag(cur.varint()?))),
        VAL_REAL => {
            let bytes: [u8; 8] = cur.take(8)?.try_into().ok()?;
            Some(Value::Real(f64::from_bits(u64::from_le_bytes(bytes))))
        }
        VAL_SYM => Some(Value::Sym(dict.sym(cur.varint()?)?)),
        _ => None,
    }
}

fn push_presence_bitmap(out: &mut Vec<u8>, col: &[Option<Value>]) {
    let mut byte = 0u8;
    for (i, slot) in col.iter().enumerate() {
        if slot.is_some() {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            out.push(byte);
            byte = 0;
        }
    }
    if !col.len().is_multiple_of(8) {
        out.push(byte);
    }
}

#[inline]
fn bit(bitmap: &[u8], i: usize) -> bool {
    bitmap[i / 8] >> (i % 8) & 1 == 1
}

/// Encodes one signal column (`len` tick samples) with the cheapest
/// applicable encoding, interning any symbols into `dict`.
pub fn encode_column(col: &[Option<Value>], dict: &mut SymDict) -> Vec<u8> {
    let mut out = Vec::new();
    let n_present = col.iter().filter(|s| s.is_some()).count();
    if n_present == 0 {
        out.push(TAG_COL_EMPTY);
        return out;
    }
    if n_present == col.len() {
        let first = col[0].expect("all samples present");
        if col.iter().all(|s| bits_eq(s.expect("present"), first)) {
            out.push(TAG_COL_CONST);
            put_value(&mut out, first, dict);
            return out;
        }
    }
    let present = col.iter().filter_map(|s| *s);
    let (mut all_bool, mut all_int, mut all_real, mut all_sym) = (true, true, true, true);
    for v in present.clone() {
        match v {
            Value::Bool(_) => (all_int, all_real, all_sym) = (false, false, false),
            Value::Int(_) => (all_bool, all_real, all_sym) = (false, false, false),
            Value::Real(_) => (all_bool, all_int, all_sym) = (false, false, false),
            Value::Sym(_) => (all_bool, all_int, all_real) = (false, false, false),
        }
    }
    if all_bool {
        out.push(TAG_COL_BOOL);
        push_presence_bitmap(&mut out, col);
        let mut byte = 0u8;
        let mut n = 0usize;
        for v in present {
            if matches!(v, Value::Bool(true)) {
                byte |= 1 << (n % 8);
            }
            n += 1;
            if n.is_multiple_of(8) {
                out.push(byte);
                byte = 0;
            }
        }
        if !n.is_multiple_of(8) {
            out.push(byte);
        }
    } else if all_int {
        out.push(TAG_COL_INT);
        push_presence_bitmap(&mut out, col);
        let mut prev = 0i64;
        for v in present {
            if let Value::Int(i) = v {
                put_varint(&mut out, zigzag(i.wrapping_sub(prev)));
                prev = i;
            }
        }
    } else if all_real {
        out.push(TAG_COL_REAL);
        push_presence_bitmap(&mut out, col);
        let mut prev = 0u64;
        for v in present {
            if let Value::Real(r) = v {
                put_varint(&mut out, r.to_bits() ^ prev);
                prev = r.to_bits();
            }
        }
    } else if all_sym {
        out.push(TAG_COL_SYM);
        push_presence_bitmap(&mut out, col);
        let mut prev = 0i64;
        for v in present {
            if let Value::Sym(s) = v {
                let id = i64::from(dict.intern(s.as_str()));
                put_varint(&mut out, zigzag(id.wrapping_sub(prev)));
                prev = id;
            }
        }
    } else {
        out.push(TAG_COL_MIXED);
        push_presence_bitmap(&mut out, col);
        for v in present {
            put_value(&mut out, v, dict);
        }
    }
    out
}

enum ColMode<'a> {
    Empty,
    Const(Value),
    Bool {
        presence: &'a [u8],
        values: &'a [u8],
        seen: usize,
    },
    Int {
        presence: &'a [u8],
        data: Cur<'a>,
        prev: i64,
    },
    Real {
        presence: &'a [u8],
        data: Cur<'a>,
        prev: u64,
    },
    Sym {
        presence: &'a [u8],
        data: Cur<'a>,
        prev: i64,
    },
    Mixed {
        presence: &'a [u8],
        data: Cur<'a>,
    },
}

/// A streaming decoder over one encoded signal column: yields the next
/// tick's sample per call, holding only delta state — no materialized
/// `Vec` of the whole column. The tick it decodes and the run length
/// belong to the owning [`RunDecoder`], which bounds every call.
struct ColumnCursor<'a> {
    mode: ColMode<'a>,
}

impl<'a> ColumnCursor<'a> {
    /// Opens a column body (as produced by [`encode_column`]) holding
    /// `len` samples, or `None` if the prefix is malformed. The
    /// dictionary is needed up front because constant symbol columns
    /// decode their value eagerly.
    fn new(body: &'a [u8], len: usize, dict: &SymDict) -> Option<Self> {
        let mut cur = Cur::new(body);
        let tag = cur.u8()?;
        let presence_bytes = len.div_ceil(8);
        let mode = match tag {
            TAG_COL_EMPTY => {
                if !cur.done() {
                    return None;
                }
                ColMode::Empty
            }
            TAG_COL_CONST => {
                if len == 0 {
                    return None;
                }
                let v = read_value(&mut cur, dict)?;
                if !cur.done() {
                    return None;
                }
                ColMode::Const(v)
            }
            TAG_COL_BOOL => {
                let presence = cur.take(presence_bytes)?;
                let n_present: usize = presence.iter().map(|b| b.count_ones() as usize).sum();
                let values = cur.take(n_present.div_ceil(8))?;
                if !cur.done() {
                    return None;
                }
                ColMode::Bool {
                    presence,
                    values,
                    seen: 0,
                }
            }
            TAG_COL_INT => ColMode::Int {
                presence: cur.take(presence_bytes)?,
                data: cur,
                prev: 0,
            },
            TAG_COL_REAL => ColMode::Real {
                presence: cur.take(presence_bytes)?,
                data: cur,
                prev: 0,
            },
            TAG_COL_SYM => ColMode::Sym {
                presence: cur.take(presence_bytes)?,
                data: cur,
                prev: 0,
            },
            TAG_COL_MIXED => ColMode::Mixed {
                presence: cur.take(presence_bytes)?,
                data: cur,
            },
            _ => return None,
        };
        Some(ColumnCursor { mode })
    }

    /// Whether the column yields the same sample every tick (empty or
    /// constant encoding), so a lane's slot keeps its tick-0 value.
    fn is_static(&self) -> bool {
        matches!(self.mode, ColMode::Empty | ColMode::Const(_))
    }

    /// The sample at tick `t` (`Some(None)` = recorded-absent), or
    /// `None` if the underlying bytes are malformed. Calls must come
    /// in tick order with `t` below the run length the cursor was
    /// opened with, which sized every presence bitmap.
    #[inline]
    fn sample(&mut self, t: usize, dict: &SymDict) -> Option<Option<Value>> {
        match &mut self.mode {
            ColMode::Empty => Some(None),
            ColMode::Const(v) => Some(Some(*v)),
            ColMode::Bool {
                presence,
                values,
                seen,
            } => {
                if !bit(presence, t) {
                    return Some(None);
                }
                let b = bit(values, *seen);
                *seen += 1;
                Some(Some(Value::Bool(b)))
            }
            ColMode::Int {
                presence,
                data,
                prev,
            } => {
                if !bit(presence, t) {
                    return Some(None);
                }
                *prev = prev.wrapping_add(unzigzag(data.varint()?));
                Some(Some(Value::Int(*prev)))
            }
            ColMode::Real {
                presence,
                data,
                prev,
            } => {
                if !bit(presence, t) {
                    return Some(None);
                }
                *prev ^= data.varint()?;
                Some(Some(Value::Real(f64::from_bits(*prev))))
            }
            ColMode::Sym {
                presence,
                data,
                prev,
            } => {
                if !bit(presence, t) {
                    return Some(None);
                }
                *prev = prev.wrapping_add(unzigzag(data.varint()?));
                let id = u64::try_from(*prev).ok()?;
                Some(Some(Value::Sym(dict.sym(id)?)))
            }
            ColMode::Mixed { presence, data } => {
                if !bit(presence, t) {
                    return Some(None);
                }
                Some(Some(read_value(data, dict)?))
            }
        }
    }

    /// Whether every encoded byte was consumed, once the owning run
    /// has decoded all of its ticks. Static and bool columns carry no
    /// per-tick byte stream (their bytes were checked exact at open).
    fn bytes_consumed(&self) -> bool {
        match &self.mode {
            ColMode::Empty | ColMode::Const(_) | ColMode::Bool { .. } => true,
            ColMode::Int { data, .. }
            | ColMode::Real { data, .. }
            | ColMode::Sym { data, .. }
            | ColMode::Mixed { data, .. } => data.done(),
        }
    }
}

// --- whole runs --------------------------------------------------------

/// Encodes one recorded run: metadata, then each signal column in table
/// order, each prefixed by its byte length so readers can slice columns
/// without scanning them. New symbols are interned into `dict`; the
/// caller flushes `dict.texts_from(watermark)` as a dictionary block
/// *before* this run's record.
pub fn encode_run(trace: &FrameTrace, meta: &RunMeta, dict: &mut SymDict) -> Vec<u8> {
    debug_assert_eq!(meta.ticks, trace.len() as u64);
    debug_assert_eq!(meta.dt_millis, trace.tick_millis());
    let table = trace.table();
    let mut out = Vec::new();
    put_meta(&mut out, meta);
    put_varint(&mut out, table.len() as u64);
    for id in table.ids() {
        let body = encode_column(trace.column(id), dict);
        put_varint(&mut out, body.len() as u64);
        out.extend_from_slice(&body);
    }
    out
}

/// A streaming decoder over one encoded run: per tick, writes every
/// signal's sample directly into one lane of a lane-major
/// [`FrameBatch`] slab — the zero-materialization replay path. Holds
/// per-column cursors borrowing the corpus bytes; no column is ever
/// expanded into a `Vec`.
///
/// The cursors are stored non-static first, so after a lane's first
/// tick the per-tick walk covers one contiguous prefix: a replay
/// stripe touches only the cursor state that still changes.
pub struct RunDecoder<'a> {
    /// Column cursors; `cols[..dynamic]` are the non-static ones.
    cols: Vec<ColumnCursor<'a>>,
    /// `sigs[k]` is the signal `cols[k]` decodes.
    sigs: Vec<SignalId>,
    /// How many leading cursors change from tick to tick.
    dynamic: usize,
    len: usize,
    tick: usize,
}

impl<'a> RunDecoder<'a> {
    /// Opens a run payload (as produced by [`encode_run`]), checking
    /// the column count against `table`, or `None` if malformed.
    pub fn new(
        bytes: &'a [u8],
        table: &SignalTable,
        dict: &SymDict,
    ) -> Option<(RunMeta, RunDecoder<'a>)> {
        let mut cur = Cur::new(bytes);
        let meta = read_meta(&mut cur)?;
        let ncols = cur.varint()?;
        if ncols != table.len() as u64 {
            return None;
        }
        let len = usize::try_from(meta.ticks).ok()?;
        let mut dynamic = Vec::new();
        let mut statics = Vec::new();
        for sig in table.ids() {
            let body_len = usize::try_from(cur.varint()?).ok()?;
            let col = ColumnCursor::new(cur.take(body_len)?, len, dict)?;
            if col.is_static() {
                statics.push((sig, col));
            } else {
                dynamic.push((sig, col));
            }
        }
        if !cur.done() {
            return None;
        }
        let n_dynamic = dynamic.len();
        let (sigs, cols) = dynamic.into_iter().chain(statics).unzip();
        Some((
            meta,
            RunDecoder {
                cols,
                sigs,
                dynamic: n_dynamic,
                len,
                tick: 0,
            },
        ))
    }

    /// Number of ticks in the run.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the run holds no ticks.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Ticks already decoded.
    pub fn ticks_decoded(&self) -> usize {
        self.tick
    }

    /// Decodes the next tick into `lane` of `slab`, overwriting every
    /// signal's slot (recorded-absent samples unset the slot, so no
    /// stale neighbour data survives). The first tick writes every
    /// column; later ticks only rewrite the non-static ones — the
    /// lane's static slots already hold their run-constant samples.
    /// Returns `None` when the run is exhausted or the bytes are
    /// malformed.
    #[inline]
    pub fn write_tick(&mut self, slab: &mut FrameBatch, lane: usize, dict: &SymDict) -> Option<()> {
        let t = self.tick;
        if t >= self.len {
            return None;
        }
        debug_assert!(lane < slab.lanes(), "lane out of range");
        debug_assert_eq!(slab.table().len(), self.cols.len());
        let walk = if t == 0 {
            self.cols.len()
        } else {
            self.dynamic
        };
        for (col, &sig) in self.cols[..walk].iter_mut().zip(&self.sigs) {
            slab.put(sig, lane, col.sample(t, dict)?);
        }
        self.tick += 1;
        Some(())
    }

    /// Decodes the next tick into a full-column sink indexed by signal
    /// — used by the strict whole-trace decode below.
    fn write_tick_columns(
        &mut self,
        columns: &mut [Vec<Option<Value>>],
        dict: &SymDict,
    ) -> Option<()> {
        let t = self.tick;
        if t >= self.len {
            return None;
        }
        for (col, &sig) in self.cols.iter_mut().zip(&self.sigs) {
            columns[sig.index()].push(col.sample(t, dict)?);
        }
        self.tick += 1;
        Some(())
    }

    /// Whether every tick and every encoded byte was consumed.
    pub fn fully_consumed(&self) -> bool {
        self.tick == self.len && self.cols.iter().all(ColumnCursor::bytes_consumed)
    }
}

/// Strictly decodes a whole run back into a [`FrameTrace`] over
/// `table` (the reader-side table for the run's `table_ref`), or
/// `None` if the bytes are not exactly one well-formed run. This is
/// the scalar-replay and test path; batched replay streams through
/// [`RunDecoder`] instead.
pub fn decode_run_trace(
    bytes: &[u8],
    table: &Arc<SignalTable>,
    dict: &SymDict,
) -> Option<(RunMeta, FrameTrace)> {
    let (meta, mut dec) = RunDecoder::new(bytes, table, dict)?;
    let len = dec.len();
    let mut columns: Vec<Vec<Option<Value>>> = vec![Vec::with_capacity(len); table.len()];
    for _ in 0..len {
        dec.write_tick_columns(&mut columns, dict)?;
    }
    if !dec.fully_consumed() {
        return None;
    }
    Some((
        meta.clone(),
        FrameTrace::from_columns(table, meta.dt_millis, len, columns),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Arc<SignalTable> {
        let mut b = SignalTable::builder();
        b.bool("p");
        b.int("n");
        b.real("x");
        b.sym("cmd");
        b.finish()
    }

    fn meta(ticks: u64) -> RunMeta {
        RunMeta {
            table_ref: 0,
            substrate: "vehicle".into(),
            label: "scenario-1/none".into(),
            dt_millis: 1,
            ticks,
            terminated_early: false,
            terminal_event: None,
        }
    }

    #[test]
    fn varints_round_trip() {
        for x in [0u64, 1, 127, 128, 300, u64::MAX, 1 << 35] {
            let mut out = Vec::new();
            put_varint(&mut out, x);
            assert_eq!(Cur::new(&out).varint(), Some(x));
        }
        for x in [0i64, -1, 1, i64::MIN, i64::MAX, -300] {
            assert_eq!(unzigzag(zigzag(x)), x);
        }
    }

    #[test]
    fn tables_round_trip() {
        let t = table();
        let back = decode_table(&encode_table(&t)).unwrap();
        assert!(t.same_names(&back));
        for id in t.ids() {
            assert_eq!(t.kind(id), back.kind(back.id(t.name(id)).unwrap()));
        }
    }

    #[test]
    fn runs_round_trip_bit_identically() {
        let t = table();
        let (p, n, x, cmd) = (
            t.id("p").unwrap(),
            t.id("n").unwrap(),
            t.id("x").unwrap(),
            t.id("cmd").unwrap(),
        );
        let mut trace = FrameTrace::new(&t, 1);
        let mut frame = t.frame();
        for i in 0..20i64 {
            frame.clear();
            frame.set(p, i % 3 == 0);
            if i % 4 != 1 {
                frame.set(n, i * 1000 - 7);
            }
            // Real column with an Int sample mixed in, plus a NaN.
            if i == 5 {
                frame.set(x, Value::Int(9));
            } else if i == 6 {
                frame.set(x, f64::from_bits(0x7ff8_dead_beef_0001));
            } else {
                frame.set(x, (i as f64) * 0.25 - 1.0);
            }
            frame.set(cmd, Value::sym(if i % 2 == 0 { "GO" } else { "HOLD" }));
            trace.push(&frame);
        }
        let mut dict = SymDict::new();
        let bytes = encode_run(&trace, &meta(20), &mut dict);
        assert_eq!(dict.len(), 2);
        let (m, back) = decode_run_trace(&bytes, &t, &dict).unwrap();
        assert_eq!(m, meta(20));
        assert_eq!(back.len(), trace.len());
        for id in t.ids() {
            let (a, b) = (trace.column(id), back.column(id));
            assert_eq!(a.len(), b.len());
            for (sa, sb) in a.iter().zip(b) {
                match (sa, sb) {
                    (None, None) => {}
                    (Some(va), Some(vb)) => assert!(bits_eq(*va, *vb), "{va} != {vb}"),
                    _ => panic!("presence diverged"),
                }
            }
        }
        // Re-encoding the decoded trace with a fresh dict reproduces
        // the bytes exactly.
        let mut dict2 = SymDict::new();
        assert_eq!(encode_run(&back, &meta(20), &mut dict2), bytes);
    }

    #[test]
    fn empty_and_constant_columns_stay_small() {
        let t = table();
        let p = t.id("p").unwrap();
        let mut trace = FrameTrace::new(&t, 1);
        let mut frame = t.frame();
        frame.set(p, true);
        for _ in 0..10_000 {
            trace.push(&frame);
        }
        let mut dict = SymDict::new();
        let bytes = encode_run(&trace, &meta(10_000), &mut dict);
        assert!(
            bytes.len() < 128,
            "constant/empty columns must not scale with ticks, got {} bytes",
            bytes.len()
        );
        let (_, back) = decode_run_trace(&bytes, &t, &dict).unwrap();
        assert_eq!(back.len(), 10_000);
        assert_eq!(back.get(9_999, p), Some(Value::Bool(true)));
    }

    #[test]
    fn truncation_never_decodes() {
        let t = table();
        let x = t.id("x").unwrap();
        let mut trace = FrameTrace::new(&t, 1);
        let mut frame = t.frame();
        for i in 0..8 {
            frame.set(x, i as f64);
            trace.push(&frame);
        }
        let mut dict = SymDict::new();
        let bytes = encode_run(&trace, &meta(8), &mut dict);
        for cut in 0..bytes.len() {
            assert!(
                decode_run_trace(&bytes[..cut], &t, &dict).is_none(),
                "a {cut}-byte prefix of a {}-byte run decoded",
                bytes.len()
            );
        }
    }

    #[test]
    fn hostile_tick_counts_are_rejected_before_allocation() {
        let mut out = Vec::new();
        put_meta(
            &mut out,
            &RunMeta {
                ticks: MAX_RUN_TICKS + 1,
                ..meta(0)
            },
        );
        assert!(decode_run_meta(&out).is_none());
    }
}
