//! Lane-major batched frames: `B` runs' signal samples in one slab.
//!
//! A [`FrameBatch`] stores one contiguous row per [`SignalId`] — slot
//! `sig.index() * lanes + lane` — which
//! [`FusedSuiteBatch`](crate::FusedSuiteBatch) sweeps row by row into
//! its bit rows, one bit per lane. A striped sweep keeps its whole batch of simulator states in two
//! such slabs (double-buffered) and both the batched simulator and the
//! batched monitor walk them signal-row by signal-row, so advancing `B`
//! runs costs straight-line lane loops instead of `B` scattered
//! `Frame`-sized pointer chases.
//!
//! Scalar code migrates via the access traits: [`SignalRead`] /
//! [`SignalWrite`] abstract "one run's sample" over both a plain
//! [`Frame`] and a single lane of a batch ([`LaneRef`] / [`LaneMut`]),
//! with identical semantics — a subsystem written against the traits
//! compiles to the same arithmetic in both worlds, which is what makes
//! batched simulation bit-identical to scalar simulation.

use crate::signal::{Frame, SignalId, SignalTable};
use crate::value::Value;
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
}

impl SignalWrite for Frame {
    #[inline]
    fn set<V: Into<Value>>(&mut self, id: SignalId, value: V) {
        Frame::set(self, id, value);
    }
}

/// `lanes` runs' signal samples in one lane-major slab: the value of
/// signal `s` in lane `l` lives at slot `s.index() * lanes + l`, so one
/// signal's row across every run is contiguous. See the
/// [module docs](self).
#[derive(Clone)]
pub struct FrameBatch {
    /// Lane-major: `slots[sig.index() * lanes + lane]`. Crate-visible
    /// so the corpus decoder can stream archived samples straight into
    /// lanes (including `None` for recorded-absent slots, which the
    /// kind-checked public `set` cannot express).
    pub(crate) slots: Vec<Option<Value>>,
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
            slots: vec![None; table.len() * lanes],
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

    /// The value of a signal in one lane, or `None` if unset.
    #[inline]
    pub fn get(&self, id: SignalId, lane: usize) -> Option<Value> {
        self.slots[id.index() * self.lanes + lane]
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
        self.slots[id.index() * self.lanes + lane] = Some(value);
    }

    /// The contiguous lane-major row of one signal: `row(id)[lane]` is
    /// [`get(id, lane)`](FrameBatch::get) for every lane. This is the
    /// whole point of the layout — batched readers sweep a signal
    /// across all runs in one straight slice pass.
    #[inline]
    pub fn row(&self, id: SignalId) -> &[Option<Value>] {
        &self.slots[id.index() * self.lanes..][..self.lanes]
    }

    /// The boolean value of a signal in one lane, or `default` when
    /// unset/mistyped.
    #[inline]
    pub fn bool_or(&self, id: SignalId, lane: usize, default: bool) -> bool {
        self.get(id, lane)
            .and_then(|v| v.as_bool())
            .unwrap_or(default)
    }

    /// The numeric value of a signal in one lane, or `default` when
    /// unset/mistyped.
    #[inline]
    pub fn real_or(&self, id: SignalId, lane: usize, default: f64) -> f64 {
        self.get(id, lane)
            .and_then(|v| v.as_real())
            .unwrap_or(default)
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
    /// double-buffer refresh, batched: one memcpy for all lanes, which
    /// is also what carries retired lanes' final states forward frozen.
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
        self.slots.copy_from_slice(&other.slots);
    }

    /// Unsets every slot in every lane (a `memset`, no allocation).
    pub fn clear(&mut self) {
        self.slots.fill(None);
    }

    /// Unsets every slot of one lane, leaving its neighbours untouched —
    /// the per-lane analogue of [`Frame::clear`].
    pub fn clear_lane(&mut self, lane: usize) {
        let lanes = self.lanes;
        for row in self.slots.chunks_exact_mut(lanes) {
            row[lane] = None;
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
        for (sig, slot) in out.slots.iter_mut().enumerate() {
            *slot = self.slots[sig * self.lanes + lane];
        }
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
        for (sig, slot) in src.slots.iter().enumerate() {
            self.slots[sig * self.lanes + lane] = *slot;
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
