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

use crate::frame_batch::{slot_of, slot_value, FrameBatch, FALSE, INT, REAL, SYM, UNSET};
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

/// `n ≤ 57` bits of `bitmap` from bit `start` on, as the low bits of a
/// word: bit `i` of the result is bit `start + i` of the bitmap. Bits
/// past the bitmap's end read as clear.
#[inline]
fn bits(bitmap: &[u8], start: usize, n: usize) -> u64 {
    let rest = bitmap.get(start / 8..).unwrap_or_default();
    let word = match rest.first_chunk::<8>() {
        Some(eight) => u64::from_le_bytes(*eight),
        None => {
            let mut eight = [0; 8];
            eight[..rest.len()].copy_from_slice(rest);
            u64::from_le_bytes(eight)
        }
    };
    (word >> (start % 8)) & low_bits(n)
}

/// A word with its `n ≤ 64` low bits set.
#[inline]
fn low_bits(n: usize) -> u64 {
    u64::MAX.checked_shr(64 - n as u32).unwrap_or(0)
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

/// Ticks a [`RunDecoder`] decodes per column at a time. A block's
/// presence bits are one word read, so an all-present block tests no
/// sample's bit, and each column dispatches on its encoding once per
/// block. The block buffer holds this many ticks of every changing
/// column: 16 × 18 × 9 bytes, about 2.6 KiB, for a typical mega-grid run.
pub const BLOCK_TICKS: usize = 16;

// A block starts on a presence byte, and a bool block's value bits,
// which start anywhere in a byte, fit one word read.
const _: () = assert!(BLOCK_TICKS.is_multiple_of(8) && BLOCK_TICKS <= 56);

/// How a changing column stores its present samples, with the delta
/// state decoding them needs.
enum Samples<'a> {
    /// One value bit per present sample, `seen` of them decoded.
    Bool { values: &'a [u8], seen: usize },
    /// Zigzag-delta varints after the sample `prev`.
    Int { data: Cur<'a>, prev: i64 },
    /// XOR-delta varints of the bits after the sample bits `prev`.
    Real { data: Cur<'a>, prev: u64 },
    /// Zigzag-delta dictionary ids after the id `prev`.
    Sym { data: Cur<'a>, prev: i64 },
    /// Tagged values.
    Mixed { data: Cur<'a> },
}

/// A decoder over one changing (neither empty nor constant) column: it
/// decodes a block of ticks per call and holds only delta state, never
/// a materialized `Vec` of the column. The ticks it decodes and the run
/// length belong to the owning [`RunDecoder`], which bounds every call.
struct ColumnCursor<'a> {
    /// One bit per tick of the run.
    presence: &'a [u8],
    samples: Samples<'a>,
}

/// An encoded column, opened.
enum Column<'a> {
    /// An empty or constant column: the one slot every tick holds.
    Static(u8, u64),
    /// A column whose samples change from tick to tick.
    Changing(ColumnCursor<'a>),
}

/// Opens a column body (as produced by [`encode_column`]) holding `len`
/// samples, or `None` if the prefix is malformed. The dictionary is
/// needed up front because constant symbol columns decode their value
/// eagerly.
fn open_column<'a>(body: &'a [u8], len: usize, dict: &SymDict) -> Option<Column<'a>> {
    let mut cur = Cur::new(body);
    let mode = cur.u8()?;
    match mode {
        TAG_COL_EMPTY => return cur.done().then_some(Column::Static(UNSET, 0)),
        TAG_COL_CONST => {
            if len == 0 {
                return None;
            }
            let (tag, payload) = slot_of(Some(read_value(&mut cur, dict)?));
            return cur.done().then_some(Column::Static(tag, payload));
        }
        _ => {}
    }
    let presence = cur.take(len.div_ceil(8))?;
    let samples = match mode {
        TAG_COL_BOOL => {
            // The value bytes are sized by every set presence bit, pad
            // bits included, as every archive has been read.
            let n_present: usize = presence.iter().map(|b| b.count_ones() as usize).sum();
            let values = cur.take(n_present.div_ceil(8))?;
            if !cur.done() {
                return None;
            }
            Samples::Bool { values, seen: 0 }
        }
        TAG_COL_INT => Samples::Int { data: cur, prev: 0 },
        TAG_COL_REAL => Samples::Real { data: cur, prev: 0 },
        TAG_COL_SYM => Samples::Sym { data: cur, prev: 0 },
        TAG_COL_MIXED => Samples::Mixed { data: cur },
        _ => return None,
    };
    Some(Column::Changing(ColumnCursor { presence, samples }))
}

/// One column's rows of a block buffer: row `i`'s slot is
/// `tags[i * stride]` and `payloads[i * stride]`.
struct Rows<'b> {
    tags: &'b mut [u8],
    payloads: &'b mut [u64],
    stride: usize,
}

impl Rows<'_> {
    /// Fills rows `0..n`: a row whose bit in `present` is clear is
    /// unset, and the others take the slots `sample` decodes, in order.
    /// Returns `n`, or the row whose sample failed to decode.
    #[inline(always)]
    fn fill(self, present: u64, n: usize, mut sample: impl FnMut() -> Option<(u8, u64)>) -> usize {
        if present == low_bits(n) {
            for i in 0..n {
                let Some((tag, payload)) = sample() else {
                    return i;
                };
                self.tags[i * self.stride] = tag;
                self.payloads[i * self.stride] = payload;
            }
        } else {
            for i in 0..n {
                if present >> i & 1 == 0 {
                    self.tags[i * self.stride] = UNSET;
                    continue;
                }
                let Some((tag, payload)) = sample() else {
                    return i;
                };
                self.tags[i * self.stride] = tag;
                self.payloads[i * self.stride] = payload;
            }
        }
        n
    }
}

impl ColumnCursor<'_> {
    /// Decodes ticks `t0..t0 + n` into `rows`, one dispatch on the
    /// encoding for the block. Returns `n`, or the row of the first
    /// sample whose bytes are malformed. Calls come in tick order, one
    /// per block; `t0` is a multiple of [`BLOCK_TICKS`] and `n` at most
    /// that and the ticks left.
    fn decode_block(&mut self, t0: usize, n: usize, rows: Rows<'_>, dict: &SymDict) -> usize {
        // Only the block's own bits: a set pad bit past the run length
        // never makes a block look all-present.
        let present = bits(self.presence, t0, n);
        match &mut self.samples {
            Samples::Bool { values, seen } => {
                let count = present.count_ones() as usize;
                let mut v = bits(values, *seen, count);
                *seen += count;
                rows.fill(present, n, || {
                    let b = (v & 1) as u8;
                    v >>= 1;
                    Some((FALSE | b, 0))
                })
            }
            Samples::Int { data, prev } => rows.fill(present, n, || {
                *prev = prev.wrapping_add(unzigzag(data.varint()?));
                Some((INT, *prev as u64))
            }),
            Samples::Real { data, prev } => rows.fill(present, n, || {
                *prev ^= data.varint()?;
                Some((REAL, *prev))
            }),
            Samples::Sym { data, prev } => rows.fill(present, n, || {
                *prev = prev.wrapping_add(unzigzag(data.varint()?));
                let sym = dict.sym(u64::try_from(*prev).ok()?)?;
                Some((SYM, u64::from(sym.id())))
            }),
            Samples::Mixed { data } => {
                rows.fill(present, n, || Some(slot_of(Some(read_value(data, dict)?))))
            }
        }
    }

    /// Whether every encoded byte was consumed, once the owning run
    /// has decoded all of its ticks. Bool columns carry no per-tick
    /// byte stream (their bytes were checked exact at open).
    fn bytes_consumed(&self) -> bool {
        match &self.samples {
            Samples::Bool { .. } => true,
            Samples::Int { data, .. }
            | Samples::Real { data, .. }
            | Samples::Sym { data, .. }
            | Samples::Mixed { data } => data.done(),
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
/// [`FrameBatch`] slab — the zero-materialization replay path. It
/// borrows the corpus bytes and never expands a column into a `Vec`.
///
/// Each empty or constant column is decoded once, at open, to the one
/// slot it holds; a lane's first tick writes those, and later ticks
/// leave them in place. The changing columns are decoded a block of
/// [`BLOCK_TICKS`] ticks at a time, column by column, into a small
/// `[tick][column]` buffer of slab tags and payloads, and each tick
/// copies its buffered row into the lane.
pub struct RunDecoder<'a> {
    /// Cursors over the changing columns.
    cols: Vec<ColumnCursor<'a>>,
    /// Every column's signal: `sigs[k]` is the one `cols[k]` decodes,
    /// and the static columns' signals follow.
    sigs: Vec<SignalId>,
    /// Slot tags and payloads: first the block buffer, row `r`'s slot
    /// for `cols[k]` at `r * cols.len() + k`, then each static column's
    /// one slot, in `sigs` order.
    tags: Vec<u8>,
    payloads: Vec<u64>,
    len: usize,
    /// Where decoding stops: `len`, or the tick of the first sample
    /// whose bytes are malformed.
    limit: usize,
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
        let mut cols = Vec::new();
        let mut sigs = Vec::with_capacity(table.len());
        let mut statics = Vec::new();
        for sig in table.ids() {
            let body_len = usize::try_from(cur.varint()?).ok()?;
            match open_column(cur.take(body_len)?, len, dict)? {
                Column::Static(tag, payload) => statics.push((sig, tag, payload)),
                Column::Changing(col) => {
                    cols.push(col);
                    sigs.push(sig);
                }
            }
        }
        if !cur.done() {
            return None;
        }
        cols.shrink_to_fit();
        let block = len.min(BLOCK_TICKS) * cols.len();
        let mut tags = Vec::with_capacity(block + statics.len());
        let mut payloads = Vec::with_capacity(block + statics.len());
        tags.resize(block, UNSET);
        payloads.resize(block, 0);
        for (sig, tag, payload) in statics {
            sigs.push(sig);
            tags.push(tag);
            payloads.push(payload);
        }
        Some((
            meta,
            RunDecoder {
                cols,
                sigs,
                tags,
                payloads,
                len,
                limit: len,
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

    /// Advances to the next tick, decoding a new block of every
    /// changing column when the tick opens one, and returns the tick's
    /// row of the block buffer: `None` when the run is exhausted or the
    /// tick's bytes are malformed.
    #[inline]
    fn next_row(&mut self, dict: &SymDict) -> Option<usize> {
        let t = self.tick;
        if t >= self.limit {
            return None;
        }
        let row = t % BLOCK_TICKS;
        if row == 0 {
            let n = (self.len - t).min(BLOCK_TICKS);
            let stride = self.cols.len();
            let mut rows = n;
            for (k, col) in self.cols.iter_mut().enumerate() {
                let block = Rows {
                    tags: &mut self.tags[k..],
                    payloads: &mut self.payloads[k..],
                    stride,
                };
                rows = rows.min(col.decode_block(t, n, block, dict));
            }
            if rows < n {
                // Decoding stops at the first malformed sample's tick,
                // wherever it falls in its block.
                self.limit = t + rows;
                if rows == 0 {
                    return None;
                }
            }
        }
        self.tick += 1;
        Some(row)
    }

    /// The changing columns' signals and their slots in row `row` of
    /// the block buffer, or with `None` the static columns' signals and
    /// slots.
    #[inline]
    fn slots(&self, row: Option<usize>) -> (&[SignalId], &[u8], &[u64]) {
        let d = self.cols.len();
        let (sigs, at) = match row {
            Some(row) => (&self.sigs[..d], row * d),
            // The static slots end the buffers.
            None => (&self.sigs[d..], self.tags.len() + d - self.sigs.len()),
        };
        let end = at + sigs.len();
        (sigs, &self.tags[at..end], &self.payloads[at..end])
    }

    /// Decodes the next tick into `lane` of `slab`, overwriting every
    /// signal's slot (recorded-absent samples unset the slot, so no
    /// stale neighbour data survives). The first tick writes every
    /// column; later ticks only rewrite the changing ones — the lane's
    /// static slots already hold their run-constant samples.
    /// Returns `None` when the run is exhausted or the bytes are
    /// malformed.
    #[inline]
    pub fn write_tick(&mut self, slab: &mut FrameBatch, lane: usize, dict: &SymDict) -> Option<()> {
        debug_assert!(lane < slab.lanes(), "lane out of range");
        debug_assert_eq!(slab.table().len(), self.sigs.len());
        let first = self.tick == 0;
        let row = self.next_row(dict)?;
        self.put(slab, lane, Some(row));
        if first {
            self.put(slab, lane, None);
        }
        Some(())
    }

    /// Writes the slots [`slots`](RunDecoder::slots) names into `lane`
    /// of `slab`.
    #[inline]
    fn put(&self, slab: &mut FrameBatch, lane: usize, row: Option<usize>) {
        let (sigs, tags, payloads) = self.slots(row);
        for ((&sig, &tag), &payload) in sigs.iter().zip(tags).zip(payloads) {
            slab.put_slot(sig, lane, tag, payload);
        }
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
/// [`RunDecoder`] instead. It decodes through the same blocks: each
/// static column expands to its one sample, and each changing column
/// takes its sample from every tick's buffered row.
pub fn decode_run_trace(
    bytes: &[u8],
    table: &Arc<SignalTable>,
    dict: &SymDict,
) -> Option<(RunMeta, FrameTrace)> {
    let (meta, mut dec) = RunDecoder::new(bytes, table, dict)?;
    let len = dec.len();
    let mut columns: Vec<Vec<Option<Value>>> = vec![Vec::new(); table.len()];
    let (statics, tags, payloads) = dec.slots(None);
    for ((&sig, &tag), &payload) in statics.iter().zip(tags).zip(payloads) {
        columns[sig.index()] = vec![slot_value(tag, payload); len];
    }
    for &sig in &dec.sigs[..dec.cols.len()] {
        columns[sig.index()].reserve_exact(len);
    }
    while let Some(row) = dec.next_row(dict) {
        let (sigs, tags, payloads) = dec.slots(Some(row));
        for ((&sig, &tag), &payload) in sigs.iter().zip(tags).zip(payloads) {
            columns[sig.index()].push(slot_value(tag, payload));
        }
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

    /// A table with a column of every encoding: dense and sparse bool,
    /// int, real and symbol columns, a real column carrying `Int`
    /// samples (mixed), and an empty and a constant column.
    fn every_kind() -> Arc<SignalTable> {
        let mut b = SignalTable::builder();
        for kind in ["dense", "sparse"] {
            b.bool(&format!("b_{kind}"));
            b.int(&format!("n_{kind}"));
            b.real(&format!("x_{kind}"));
            b.sym(&format!("s_{kind}"));
        }
        b.real("mixed");
        b.real("empty");
        b.int("constant");
        b.finish()
    }

    /// A `len`-tick trace over [`every_kind`]. Sparse columns skip
    /// every third tick; the real samples take multi-byte varints.
    fn every_kind_trace(table: &Arc<SignalTable>, len: usize) -> FrameTrace {
        let mut trace = FrameTrace::new(table, 1);
        let mut frame = table.frame();
        for t in 0..len {
            frame.clear();
            let i = t as i64;
            for kind in ["dense", "sparse"] {
                if kind == "sparse" && t % 3 == 1 {
                    continue;
                }
                let id = |name: &str| table.id(&format!("{name}_{kind}")).unwrap();
                frame.set(id("b"), t % 5 < 2);
                frame.set(id("n"), i * i - 40);
                frame.set(id("x"), (t as f64).sqrt() * -1.25);
                frame.set(id("s"), Value::sym(["GO", "HOLD", "STOP"][t % 3]));
            }
            let mixed = table.id("mixed").unwrap();
            if t % 4 == 0 {
                frame.set(mixed, Value::Int(i));
            } else {
                frame.set(mixed, t as f64 / 3.0);
            }
            frame.set(table.id("constant").unwrap(), 7);
            trace.push(&frame);
        }
        trace
    }

    /// A value no test trace holds, planted in every slot to show a
    /// stray write.
    fn sentinel(kind: SignalKind) -> Value {
        match kind {
            SignalKind::Bool => Value::Bool(true),
            SignalKind::Int => Value::Int(i64::MIN + 3),
            SignalKind::Real => Value::Real(f64::from_bits(0x7ff0_5e47_1ee1_0001)),
            SignalKind::Sym => Value::sym("sentinel"),
        }
    }

    /// Streams `bytes` into lane 1 of a 3-lane slab planted with
    /// sentinels for `ticks` ticks, checking after every tick that the
    /// lane holds the trace's sample and the neighbour lanes their
    /// sentinels. Returns the decoder, `ticks` ticks in.
    fn stream<'a>(
        bytes: &'a [u8],
        trace: &FrameTrace,
        dict: &SymDict,
        ticks: usize,
    ) -> RunDecoder<'a> {
        let table = trace.table();
        let (_, mut dec) = RunDecoder::new(bytes, table, dict).unwrap();
        let mut slab = FrameBatch::new(table, 3);
        for id in table.ids() {
            for lane in 0..3 {
                slab.set(id, lane, sentinel(table.kind(id)));
            }
        }
        let same = |a: Option<Value>, b: Option<Value>| match (a, b) {
            (Some(a), Some(b)) => bits_eq(a, b),
            (a, b) => a == b,
        };
        for t in 0..ticks {
            assert!(dec.write_tick(&mut slab, 1, dict).is_some(), "tick {t}");
            for id in table.ids() {
                let (got, want) = (slab.get(id, 1), trace.get(t, id));
                assert!(
                    same(got, want),
                    "{} at tick {t}: {got:?}, not {want:?}",
                    table.name(id)
                );
                for lane in [0, 2] {
                    let planted = Some(sentinel(table.kind(id)));
                    assert!(same(slab.get(id, lane), planted), "lane {lane} overwritten");
                }
            }
        }
        dec
    }

    #[test]
    fn block_boundaries_decode_every_tick() {
        let table = every_kind();
        for len in [
            0,
            1,
            BLOCK_TICKS - 1,
            BLOCK_TICKS,
            BLOCK_TICKS + 1,
            2 * BLOCK_TICKS + 1,
        ] {
            let trace = every_kind_trace(&table, len);
            let mut dict = SymDict::new();
            let bytes = encode_run(&trace, &meta(len as u64), &mut dict);
            let mut dec = stream(&bytes, &trace, &dict, len);
            assert!(dec.fully_consumed(), "{len} ticks");
            let mut slab = FrameBatch::new(&table, 3);
            assert!(dec.write_tick(&mut slab, 1, &dict).is_none());
            let (_, back) = decode_run_trace(&bytes, &table, &dict).unwrap();
            assert_eq!(back, trace, "{len} ticks");
        }
    }

    #[test]
    fn a_malformed_sample_stops_decoding_at_its_own_tick() {
        // A real column last in the table, so its body ends the run.
        let mut b = SignalTable::builder();
        b.int("n");
        b.real("x");
        let table = b.finish();
        let (n, x) = (table.id("n").unwrap(), table.id("x").unwrap());
        let len = BLOCK_TICKS + BLOCK_TICKS / 2;
        let mut trace = FrameTrace::new(&table, 1);
        let mut frame = table.frame();
        for t in 0..len {
            frame.set(n, t as i64);
            frame.set(x, 0.1 * t as f64);
            trace.push(&frame);
        }
        let mut dict = SymDict::new();
        let mut bytes = Vec::new();
        put_meta(&mut bytes, &meta(len as u64));
        put_varint(&mut bytes, 2);
        for id in [n, x] {
            let mut body = encode_column(trace.column(id), &mut dict);
            if id == x {
                // Cut the last byte of the last sample's varint.
                assert!(body[body.len() - 2] & 0x80 != 0, "a multi-byte varint");
                body.pop();
            }
            put_varint(&mut bytes, body.len() as u64);
            bytes.extend_from_slice(&body);
        }
        let mut dec = stream(&bytes, &trace, &dict, len - 1);
        let mut slab = FrameBatch::new(&table, 3);
        assert!(dec.write_tick(&mut slab, 1, &dict).is_none());
        assert!(dec.write_tick(&mut slab, 1, &dict).is_none());
        assert_eq!(dec.ticks_decoded(), len - 1);
        assert!(!dec.fully_consumed());
        assert!(decode_run_trace(&bytes, &table, &dict).is_none());
    }

    #[test]
    fn presence_pad_bits_stay_inert() {
        // Five ticks: tick 2's presence bit is clear and pad bit 5 is
        // set, so the byte holds as many set bits as the run has ticks.
        let presence = 0b0011_1011;
        let mut int_col = vec![TAG_COL_INT, presence];
        let mut prev = 0;
        for v in [10i64, -3, 500, 7] {
            put_varint(&mut int_col, zigzag(v - prev));
            prev = v;
        }
        // Value bytes sized by all five set bits: one byte.
        let bool_col = vec![TAG_COL_BOOL, presence, 0b0000_0101];
        let mut bytes = Vec::new();
        put_meta(&mut bytes, &meta(5));
        put_varint(&mut bytes, 4);
        for body in [bool_col, int_col, vec![TAG_COL_EMPTY], vec![TAG_COL_EMPTY]] {
            put_varint(&mut bytes, body.len() as u64);
            bytes.extend_from_slice(&body);
        }
        let t = table();
        let (p, n) = (t.id("p").unwrap(), t.id("n").unwrap());
        let dict = SymDict::new();
        let (_, back) = decode_run_trace(&bytes, &t, &dict).unwrap();
        let bools = [Some(true), Some(false), None, Some(true), Some(false)];
        assert_eq!(back.column(p), bools.map(|b| b.map(Value::Bool)));
        let ints = [Some(10), Some(-3), None, Some(500), Some(7)];
        assert_eq!(back.column(n), ints.map(|v| v.map(Value::Int)));
        let mut dec = stream(&bytes, &back, &dict, 5);
        assert!(dec.fully_consumed());
        let mut slab = FrameBatch::new(&t, 3);
        assert!(dec.write_tick(&mut slab, 1, &dict).is_none());
    }
}
