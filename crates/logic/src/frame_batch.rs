//! Lane-major batched frames: `B` runs' signal samples in one slab.
//!
//! A [`FrameBatch`] stores one contiguous *row* per [`SignalId`], holding
//! that signal across every lane, as two parallel arrays indexed by slot
//! `sig.index() * lanes + lane`:
//!
//! * a tag byte per slot, which says whether the slot is set and what it
//!   holds: `false`, `true`, a `Real`, an `Int` or a symbol;
//! * a payload word per slot: the `f64` bits, the `i64` bits, or the
//!   interned [`Sym`] id. A boolean's value is its tag, so a boolean
//!   signal's payload row is never read.
//!
//! A lane access is one tag byte and at most one payload word at the
//! same index, and a lane holds 9 bytes per signal, which is what the
//! simulator's double-buffer refresh copies.
//! [`FusedSuiteBatch`](crate::FusedSuiteBatch) reads a boolean row as a
//! byte row, eight tags per word operation, and a numeric row as plain
//! `f64`s once its tags say every active lane holds a `Real`. The tags
//! keep every value exact, whatever the signal's declared
//! [`SignalKind`](crate::SignalKind): an `Int` in a `Real` row stays an
//! `Int`, and a mistyped state fed to
//! [`SignalTable::frame_from_state_lossy`] reads back as it was stored.
//!
//! A striped sweep keeps its whole batch of simulator states in two such
//! slabs (double-buffered); both the batched simulator and the batched
//! monitor walk them signal row by signal row. A [`Frame`] is the
//! one-lane case of the same layout.
//!
//! Scalar code migrates via the access traits: [`SignalRead`] /
//! [`SignalWrite`] abstract "one run's sample" over both a plain
//! [`Frame`] and a single lane of a batch ([`LaneRef`] / [`LaneMut`]),
//! with identical semantics — a subsystem written against the traits
//! compiles to the same arithmetic in both worlds, which is what makes
//! batched simulation bit-identical to scalar simulation.

use crate::signal::{Frame, SignalId, SignalTable};
use crate::value::{Sym, Value};
use std::sync::Arc;

/// Read access to one run's signal sample — implemented by [`Frame`] and
/// by one lane of a [`FrameBatch`]. Semantics match [`Frame`]'s inherent
/// accessors exactly.
pub trait SignalRead {
    /// The value of a signal, or `None` if unset.
    fn get(&self, id: SignalId) -> Option<Value>;

    /// The boolean value of a signal, or `default` when unset/mistyped.
    #[inline]
    fn bool_or(&self, id: SignalId, default: bool) -> bool {
        self.get(id).and_then(|v| v.as_bool()).unwrap_or(default)
    }

    /// The numeric value of a signal, or `default` when unset/mistyped.
    #[inline]
    fn real_or(&self, id: SignalId, default: f64) -> f64 {
        self.get(id).and_then(|v| v.as_real()).unwrap_or(default)
    }

    /// The symbol value of a signal, if set and symbolic.
    #[inline]
    fn sym(&self, id: SignalId) -> Option<crate::Sym> {
        self.get(id).and_then(|v| v.as_sym())
    }
}

/// Write access to one run's signal sample — implemented by [`Frame`]
/// and by one lane of a [`FrameBatch`].
pub trait SignalWrite {
    /// Sets a signal's value (same kind `debug_assert` as
    /// [`Frame::set`]).
    fn set<V: Into<Value>>(&mut self, id: SignalId, value: V);
}

impl SignalRead for Frame {
    #[inline]
    fn get(&self, id: SignalId) -> Option<Value> {
        Frame::get(self, id)
    }

    #[inline]
    fn bool_or(&self, id: SignalId, default: bool) -> bool {
        Frame::bool_or(self, id, default)
    }

    #[inline]
    fn real_or(&self, id: SignalId, default: f64) -> f64 {
        Frame::real_or(self, id, default)
    }

    #[inline]
    fn sym(&self, id: SignalId) -> Option<Sym> {
        Frame::sym(self, id)
    }
}

impl SignalWrite for Frame {
    #[inline]
    fn set<V: Into<Value>>(&mut self, id: SignalId, value: V) {
        Frame::set(self, id, value);
    }
}

/// The tag of an unset slot.
pub(crate) const UNSET: u8 = 0;
/// The tag of a `false` slot; `true` is `FALSE | 1`, so a boolean tag is
/// `0b1x` with the value in bit 0.
pub(crate) const FALSE: u8 = 2;
/// The tag of a `Real` slot, whose payload is the `f64`'s bits.
pub(crate) const REAL: u8 = 4;
/// The tag of an `Int` slot, whose payload is the `i64`'s bits.
pub(crate) const INT: u8 = 5;
/// The tag of a symbol slot, whose payload is the [`Sym`] id.
pub(crate) const SYM: u8 = 6;

/// The tag and payload that store `value` (`None` is an unset slot).
#[inline]
pub(crate) fn slot_of(value: Option<Value>) -> (u8, u64) {
    match value {
        None => (UNSET, 0),
        Some(Value::Bool(b)) => (FALSE | u8::from(b), 0),
        Some(Value::Real(x)) => (REAL, x.to_bits()),
        Some(Value::Int(n)) => (INT, n as u64),
        Some(Value::Sym(s)) => (SYM, u64::from(s.id())),
    }
}

/// The value a tag and payload store, the inverse of [`slot_of`].
#[inline]
pub(crate) fn slot_value(tag: u8, payload: u64) -> Option<Value> {
    match tag {
        UNSET => None,
        REAL => Some(Value::Real(f64::from_bits(payload))),
        INT => Some(Value::Int(payload as i64)),
        SYM => Some(Value::Sym(Sym::from_id(payload as u32))),
        tag => Some(Value::Bool(tag & 1 == 1)),
    }
}

/// One signal's row of a [`FrameBatch`], as the fused pass reads it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row<'a> {
    /// One tag per lane.
    pub(crate) tags: &'a [u8],
    /// One payload word per lane.
    pub(crate) payload: &'a [u64],
}

/// `lanes` runs' signal samples in one lane-major slab: a tag row and a
/// payload row per signal. See the [module docs](self).
#[derive(Clone)]
pub struct FrameBatch {
    /// Tags: `tags[sig.index() * lanes + lane]`.
    tags: Vec<u8>,
    /// Payloads, at their tags' indices.
    payloads: Vec<u64>,
    table: Arc<SignalTable>,
    lanes: usize,
}

impl FrameBatch {
    /// An all-unset batch of `lanes` runs over `table`'s namespace.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(table: &Arc<SignalTable>, lanes: usize) -> Self {
        assert!(lanes > 0, "a frame batch needs at least one lane");
        FrameBatch {
            tags: vec![UNSET; table.len() * lanes],
            payloads: vec![0; table.len() * lanes],
            table: Arc::clone(table),
            lanes,
        }
    }

    /// The namespace every lane is indexed by.
    pub fn table(&self) -> &Arc<SignalTable> {
        &self.table
    }

    /// Number of lanes (runs) in the batch.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// A slot's index into the tag and payload rows.
    #[inline]
    fn slot(&self, id: SignalId, lane: usize) -> usize {
        debug_assert!(lane < self.lanes, "lane out of range");
        id.index() * self.lanes + lane
    }

    /// One signal's row.
    #[inline]
    pub(crate) fn row(&self, id: SignalId) -> Row<'_> {
        let at = self.slot(id, 0);
        Row {
            tags: &self.tags[at..][..self.lanes],
            payload: &self.payloads[at..][..self.lanes],
        }
    }

    /// A slot's tag and payload. The payloads are sliced to the tags'
    /// length, so one bounds check covers both reads.
    #[inline]
    fn read(&self, id: SignalId, lane: usize) -> (u8, u64) {
        let i = self.slot(id, lane);
        let payloads = &self.payloads[..self.tags.len()];
        (self.tags[i], payloads[i])
    }

    /// The value of a signal in one lane, or `None` if unset.
    #[inline]
    pub fn get(&self, id: SignalId, lane: usize) -> Option<Value> {
        let (tag, payload) = self.read(id, lane);
        slot_value(tag, payload)
    }

    /// Sets a signal's value in one lane.
    ///
    /// `debug_assert`s that the value inhabits the signal's declared
    /// kind, exactly as [`Frame::set`] does.
    #[inline]
    pub fn set(&mut self, id: SignalId, lane: usize, value: impl Into<Value>) {
        let value = value.into();
        debug_assert!(
            self.table.kind(id).admits(&value),
            "signal `{}` declared {:?} but assigned {}",
            self.table.name(id),
            self.table.kind(id),
            value.type_name()
        );
        self.put(id, lane, Some(value));
    }

    /// Stores `value` (`None` unsets the slot) in one lane, whatever the
    /// signal's declared kind: the path for samples that were never
    /// kind-checked (name-keyed states, recorded columns).
    #[inline]
    pub(crate) fn put(&mut self, id: SignalId, lane: usize, value: Option<Value>) {
        let (tag, payload) = slot_of(value);
        self.put_slot(id, lane, tag, payload);
    }

    /// Stores a decoded tag and payload in one lane's slot; a boolean or
    /// unset slot keeps its payload word, which is never read.
    #[inline]
    pub(crate) fn put_slot(&mut self, id: SignalId, lane: usize, tag: u8, payload: u64) {
        let i = self.slot(id, lane);
        self.tags[i] = tag;
        if tag >= REAL {
            let n = self.tags.len();
            self.payloads[..n][i] = payload;
        }
    }

    /// The boolean value of a signal in one lane, or `default` when
    /// unset/mistyped.
    #[inline]
    pub fn bool_or(&self, id: SignalId, lane: usize, default: bool) -> bool {
        match self.tags[self.slot(id, lane)] {
            tag if tag & !1 == FALSE => tag & 1 == 1,
            _ => default,
        }
    }

    /// The numeric value of a signal in one lane, or `default` when
    /// unset/mistyped.
    #[inline]
    pub fn real_or(&self, id: SignalId, lane: usize, default: f64) -> f64 {
        match self.read(id, lane) {
            (REAL, payload) => f64::from_bits(payload),
            (INT, payload) => payload as i64 as f64,
            _ => default,
        }
    }

    /// The symbol value of a signal in one lane, if set and symbolic.
    #[inline]
    pub(crate) fn sym(&self, id: SignalId, lane: usize) -> Option<Sym> {
        match self.read(id, lane) {
            (SYM, payload) => Some(Sym::from_id(payload as u32)),
            _ => None,
        }
    }

    /// A read-only view of one lane.
    #[inline]
    pub fn lane(&self, lane: usize) -> LaneRef<'_> {
        debug_assert!(lane < self.lanes);
        LaneRef { batch: self, lane }
    }

    /// A read-write view of one lane.
    #[inline]
    pub fn lane_mut(&mut self, lane: usize) -> LaneMut<'_> {
        debug_assert!(lane < self.lanes);
        LaneMut { batch: self, lane }
    }

    /// Overwrites every lane's slots with `other`'s — the per-tick
    /// double-buffer refresh, batched: one memcpy per row array for all
    /// lanes, which is also what carries retired lanes' final states
    /// forward frozen.
    ///
    /// # Panics
    ///
    /// Panics if the batches index different tables or differ in width.
    #[inline]
    pub fn copy_from(&mut self, other: &FrameBatch) {
        assert!(
            Arc::ptr_eq(&self.table, &other.table),
            "frame batches must share one signal table"
        );
        assert_eq!(self.lanes, other.lanes, "frame batches must share a width");
        self.tags.copy_from_slice(&other.tags);
        self.payloads.copy_from_slice(&other.payloads);
    }

    /// Unsets every slot in every lane (a `memset`, no allocation).
    pub fn clear(&mut self) {
        self.tags.fill(UNSET);
    }

    /// Unsets every slot of one lane, leaving its neighbours untouched —
    /// the per-lane analogue of [`Frame::clear`].
    pub fn clear_lane(&mut self, lane: usize) {
        let lanes = self.lanes;
        for row in self.tags.chunks_exact_mut(lanes) {
            row[lane] = UNSET;
        }
    }

    /// Copies one lane out into a scalar [`Frame`] — the bridge for
    /// per-lane fallback paths that still want a contiguous sample.
    ///
    /// # Panics
    ///
    /// Panics if `out` indexes a different table.
    pub fn read_lane_into(&self, lane: usize, out: &mut Frame) {
        assert!(
            Arc::ptr_eq(&self.table, out.table()),
            "frame batches and frames must share one signal table"
        );
        copy_lane(self, lane, &mut out.batch, 0);
    }

    /// Copies a scalar [`Frame`] into one lane — the inverse of
    /// [`read_lane_into`](FrameBatch::read_lane_into).
    ///
    /// # Panics
    ///
    /// Panics if `src` indexes a different table.
    pub fn write_lane_from(&mut self, lane: usize, src: &Frame) {
        assert!(
            Arc::ptr_eq(&self.table, src.table()),
            "frame batches and frames must share one signal table"
        );
        copy_lane(&src.batch, 0, self, lane);
    }
}

/// Copies every slot of lane `from` of `src` into lane `to` of `dst`:
/// each tag, and the payload of a slot whose tag says it has one, so a
/// boolean or unset slot touches no payload row.
fn copy_lane(src: &FrameBatch, from: usize, dst: &mut FrameBatch, to: usize) {
    assert!(from < src.lanes && to < dst.lanes, "lane out of range");
    let (s, d) = (src.lanes, dst.lanes);
    for (sig, &tag) in src.tags[from..].iter().step_by(s).enumerate() {
        dst.tags[sig * d + to] = tag;
        if tag >= REAL {
            dst.payloads[sig * d + to] = src.payloads[sig * s + from];
        }
    }
}

impl std::fmt::Debug for FrameBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameBatch")
            .field("lanes", &self.lanes)
            .field("signals", &self.table.len())
            .finish_non_exhaustive()
    }
}

/// A read-only view of one [`FrameBatch`] lane, usable anywhere a
/// previous-state [`Frame`] is read through [`SignalRead`].
#[derive(Clone, Copy, Debug)]
pub struct LaneRef<'a> {
    batch: &'a FrameBatch,
    lane: usize,
}

impl SignalRead for LaneRef<'_> {
    #[inline]
    fn get(&self, id: SignalId) -> Option<Value> {
        self.batch.get(id, self.lane)
    }

    #[inline]
    fn bool_or(&self, id: SignalId, default: bool) -> bool {
        self.batch.bool_or(id, self.lane, default)
    }

    #[inline]
    fn real_or(&self, id: SignalId, default: f64) -> f64 {
        self.batch.real_or(id, self.lane, default)
    }

    #[inline]
    fn sym(&self, id: SignalId) -> Option<Sym> {
        self.batch.sym(id, self.lane)
    }
}

/// A read-write view of one [`FrameBatch`] lane, usable anywhere a
/// next-state [`Frame`] is written through [`SignalWrite`].
#[derive(Debug)]
pub struct LaneMut<'a> {
    batch: &'a mut FrameBatch,
    lane: usize,
}

impl SignalRead for LaneMut<'_> {
    #[inline]
    fn get(&self, id: SignalId) -> Option<Value> {
        self.batch.get(id, self.lane)
    }

    #[inline]
    fn bool_or(&self, id: SignalId, default: bool) -> bool {
        self.batch.bool_or(id, self.lane, default)
    }

    #[inline]
    fn real_or(&self, id: SignalId, default: f64) -> f64 {
        self.batch.real_or(id, self.lane, default)
    }

    #[inline]
    fn sym(&self, id: SignalId) -> Option<Sym> {
        self.batch.sym(id, self.lane)
    }
}

impl SignalWrite for LaneMut<'_> {
    #[inline]
    fn set<V: Into<Value>>(&mut self, id: SignalId, value: V) {
        self.batch.set(id, self.lane, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::SignalTable;

    fn table() -> (Arc<SignalTable>, SignalId, SignalId) {
        let mut b = SignalTable::builder();
        let x = b.real("x");
        let ok = b.bool("ok");
        (b.finish(), x, ok)
    }

    #[test]
    fn lanes_are_independent() {
        let (table, x, ok) = table();
        let mut batch = FrameBatch::new(&table, 3);
        batch.set(x, 0, 1.0);
        batch.set(x, 2, 3.0);
        batch.set(ok, 1, true);
        assert_eq!(batch.real_or(x, 0, 0.0), 1.0);
        assert_eq!(batch.get(x, 1), None);
        assert_eq!(batch.real_or(x, 2, 0.0), 3.0);
        assert!(batch.bool_or(ok, 1, false));
        assert!(!batch.bool_or(ok, 0, false));
    }

    #[test]
    fn lane_views_match_frame_semantics() {
        let (table, x, ok) = table();
        let mut batch = FrameBatch::new(&table, 2);
        {
            let mut lane = batch.lane_mut(1);
            lane.set(x, 2.5);
            lane.set(ok, true);
            assert_eq!(SignalRead::real_or(&lane, x, 0.0), 2.5);
        }
        let lane = batch.lane(1);
        assert_eq!(lane.get(x), Some(Value::Real(2.5)));
        assert!(lane.bool_or(ok, false));
        assert_eq!(batch.lane(0).get(x), None);
    }

    #[test]
    fn lane_round_trips_through_frames() {
        let (table, x, ok) = table();
        let mut batch = FrameBatch::new(&table, 4);
        let mut frame = table.frame();
        frame.set(x, 7.0);
        frame.set(ok, false);
        batch.write_lane_from(2, &frame);
        let mut out = table.frame();
        batch.read_lane_into(2, &mut out);
        assert_eq!(out, frame);
        let mut empty = table.frame();
        batch.read_lane_into(3, &mut empty);
        assert_eq!(empty.get(x), None);
    }

    #[test]
    fn copy_from_carries_every_lane() {
        let (table, x, _) = table();
        let mut a = FrameBatch::new(&table, 2);
        let mut b = FrameBatch::new(&table, 2);
        a.set(x, 0, 1.0);
        a.set(x, 1, 2.0);
        b.copy_from(&a);
        assert_eq!(b.real_or(x, 0, 0.0), 1.0);
        assert_eq!(b.real_or(x, 1, 0.0), 2.0);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_panics() {
        let (table, _, _) = table();
        FrameBatch::new(&table, 0);
    }
}
