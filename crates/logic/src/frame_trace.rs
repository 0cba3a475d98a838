//! Recorded traces in the production (interned) representation.
//!
//! The name-keyed [`Trace`] is the authoring and serde view of a
//! recording: a `Vec` of `BTreeMap` states. Replaying one through a
//! monitor means a map walk and a string resolution per variable per
//! sample. A [`FrameTrace`] stores the same recording **column-per-
//! signal** over a shared [`SignalTable`]: one `Vec<Option<Value>>` lane
//! per [`SignalId`], so assembling the sample at index `i` into a
//! [`Frame`] is a handful of array reads and replay runs at the same
//! frame speed as the live experiment loop.
//!
//! Conversions to and from the name-keyed view are lossless for states
//! whose variables all belong to the table
//! ([`FrameTrace::from_trace`] / [`FrameTrace::to_trace`]).
//!
//! # Example
//!
//! ```
//! use esafe_logic::{parse, FrameTrace, SignalTable};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = SignalTable::builder();
//! let p = b.bool("p");
//! let table = b.finish();
//!
//! let mut trace = FrameTrace::new(&table, 1);
//! let mut frame = table.frame();
//! for v in [false, true, true] {
//!     frame.set(p, v);
//!     trace.push(&frame);
//! }
//! let verdicts = trace.replay_expr(&parse("once(p)")?)?;
//! assert_eq!(verdicts, vec![false, false, true]);
//! # Ok(())
//! # }
//! ```

use crate::error::EvalError;
use crate::expr::Expr;
use crate::frame_batch::FrameBatch;
use crate::incremental::FusedSuiteProgram;
use crate::signal::{Frame, SignalId, SignalTable};
use crate::state::Trace;
use crate::value::Value;
use std::sync::Arc;

/// A recorded sequence of frames over one [`SignalTable`], stored as one
/// column per signal. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct FrameTrace {
    table: Arc<SignalTable>,
    /// `columns[id][i]` is signal `id`'s value at sample `i`.
    columns: Vec<Vec<Option<Value>>>,
    len: usize,
    tick_millis: u64,
}

impl FrameTrace {
    /// Creates an empty trace over the table with the given sample
    /// period in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `tick_millis` is zero.
    pub fn new(table: &Arc<SignalTable>, tick_millis: u64) -> Self {
        assert!(tick_millis > 0, "tick period must be positive");
        FrameTrace {
            columns: vec![Vec::new(); table.len()],
            table: Arc::clone(table),
            len: 0,
            tick_millis,
        }
    }

    /// Creates an empty trace with column capacity for `samples` frames.
    pub fn with_capacity(table: &Arc<SignalTable>, tick_millis: u64, samples: usize) -> Self {
        let mut t = Self::new(table, tick_millis);
        for col in &mut t.columns {
            col.reserve(samples);
        }
        t
    }

    /// Assembles a trace directly from raw columns — the corpus decode
    /// path, which already holds the data column-per-signal.
    pub(crate) fn from_columns(
        table: &Arc<SignalTable>,
        tick_millis: u64,
        len: usize,
        columns: Vec<Vec<Option<Value>>>,
    ) -> Self {
        assert!(tick_millis > 0, "tick period must be positive");
        assert_eq!(columns.len(), table.len(), "one column per signal");
        debug_assert!(columns.iter().all(|c| c.len() == len));
        FrameTrace {
            table: Arc::clone(table),
            columns,
            len,
            tick_millis,
        }
    }

    /// The namespace every sample is indexed by.
    pub fn table(&self) -> &Arc<SignalTable> {
        &self.table
    }

    /// The sample period in milliseconds.
    pub fn tick_millis(&self) -> u64 {
        self.tick_millis
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trace holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The recording time of sample `i` in seconds (`i × tick`).
    pub fn time_s(&self, i: usize) -> f64 {
        (i as u64 * self.tick_millis) as f64 / 1000.0
    }

    /// Appends one frame as the next sample.
    ///
    /// # Panics
    ///
    /// Panics if `frame` indexes a different table.
    pub fn push(&mut self, frame: &Frame) {
        assert!(
            Arc::ptr_eq(frame.table(), &self.table),
            "frame and trace must share one signal table"
        );
        for (id, col) in self.table.ids().zip(&mut self.columns) {
            col.push(frame.get(id));
        }
        self.len += 1;
    }

    /// Appends one lane of a state slab as the next sample, read in
    /// place: the per-lane recording hook of a striped tick loop.
    ///
    /// # Panics
    ///
    /// Panics if `batch` indexes a different table or `lane` is out of
    /// range.
    pub fn push_lane(&mut self, batch: &FrameBatch, lane: usize) {
        assert!(
            Arc::ptr_eq(batch.table(), &self.table),
            "frame batch and trace must share one signal table"
        );
        assert!(lane < batch.lanes(), "lane {lane} out of range");
        for (id, col) in self.table.ids().zip(&mut self.columns) {
            col.push(batch.get(id, lane));
        }
        self.len += 1;
    }

    /// The value of signal `id` at sample `i`, or `None` if unset.
    #[inline]
    pub fn get(&self, i: usize, id: SignalId) -> Option<Value> {
        self.columns[id.index()][i]
    }

    /// Signal `id`'s full column, one slot per sample.
    pub fn column(&self, id: SignalId) -> &[Option<Value>] {
        &self.columns[id.index()]
    }

    /// Writes sample `i` into `frame`, overwriting every slot (unset
    /// column entries unset the slot).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `frame` indexes a different
    /// table.
    pub fn read_into(&self, i: usize, frame: &mut Frame) {
        assert!(i < self.len, "sample index out of range");
        assert!(
            Arc::ptr_eq(frame.table(), &self.table),
            "frame and trace must share one signal table"
        );
        for (id, col) in self.table.ids().zip(&self.columns) {
            frame.batch.put(id, 0, col[i]);
        }
    }

    /// Builds a column trace from a name-keyed [`Trace`], resolving
    /// every variable of every state.
    ///
    /// # Errors
    ///
    /// Returns the first state-variable name not present in the table —
    /// strict, like [`SignalTable::frame_from_state`], so namespace
    /// typos surface immediately.
    pub fn from_trace(table: &Arc<SignalTable>, trace: &Trace) -> Result<Self, String> {
        let mut out = Self::with_capacity(table, trace.tick_millis(), trace.len());
        let mut frame = table.frame();
        for state in trace.iter() {
            frame.clear();
            for (name, value) in state.iter() {
                let id = table.id(name).ok_or_else(|| name.to_owned())?;
                frame.batch.put(id, 0, Some(*value));
            }
            out.push(&frame);
        }
        Ok(out)
    }

    /// Converts to the name-keyed [`Trace`] view (unset slots omitted,
    /// as in [`Frame::to_state`]).
    pub fn to_trace(&self) -> Trace {
        let mut trace = Trace::with_tick_millis(self.tick_millis);
        let mut frame = self.table.frame();
        for i in 0..self.len {
            self.read_into(i, &mut frame);
            trace.push(frame.to_state());
        }
        trace
    }

    /// Compiles `expr` against the trace's table as a one-root, one-lane
    /// [`FusedSuiteBatch`](crate::FusedSuiteBatch) and replays the trace
    /// through it from a clean start, returning one verdict per sample — the
    /// frame-speed analogue of [`eval_trace`](crate::eval::eval_trace)
    /// under *monitor semantics* (see
    /// [`monitor_form`](crate::incremental::monitor_form): `always` flags
    /// per-state violations, future operators are rejected at compile
    /// time).
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] on compile failure (future operator,
    /// unknown signal) or if a sample leaves a signal the formula reads
    /// unset or mistyped.
    pub fn replay_expr(&self, expr: &Expr) -> Result<Vec<bool>, EvalError> {
        let program = FusedSuiteProgram::compile(std::slice::from_ref(expr), &self.table)?;
        let mut suite = Arc::new(program).instantiate_batch(1);
        let mut frame = self.table.frame();
        let mut out = Vec::with_capacity(self.len);
        for i in 0..self.len {
            self.read_into(i, &mut frame);
            suite.observe_slab(frame.as_batch()).map_err(|e| e.source)?;
            out.push(suite.verdict(0, 0));
        }
        Ok(out)
    }
}

/// Two traces are equal when they record the same samples over the same
/// namespace (table identity or same names in the same order) at the
/// same tick period — the equality `RunReport` comparisons rely on.
impl PartialEq for FrameTrace {
    fn eq(&self, other: &Self) -> bool {
        (Arc::ptr_eq(&self.table, &other.table) || self.table.same_names(&other.table))
            && self.tick_millis == other.tick_millis
            && self.len == other.len
            && self.columns == other.columns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use crate::state::State;

    fn table() -> Arc<SignalTable> {
        let mut b = SignalTable::builder();
        b.bool("p");
        b.real("x");
        b.sym("cmd");
        b.finish()
    }

    fn sample_trace() -> Trace {
        let mut t = Trace::with_tick_millis(10);
        t.push(State::new().with_bool("p", true).with_real("x", 1.0));
        t.push(State::new().with_bool("p", false).with_sym("cmd", "GO"));
        t.push(State::new().with_bool("p", true).with_real("x", 3.5));
        t
    }

    #[test]
    fn round_trips_name_keyed_traces() {
        let table = table();
        let trace = sample_trace();
        let ft = FrameTrace::from_trace(&table, &trace).unwrap();
        assert_eq!(ft.len(), 3);
        assert_eq!(ft.tick_millis(), 10);
        assert_eq!(ft.to_trace(), trace);
    }

    #[test]
    fn from_trace_is_strict_about_unknown_names() {
        let table = table();
        let mut trace = Trace::with_tick_millis(1);
        trace.push(State::new().with_bool("nope", true));
        assert_eq!(
            FrameTrace::from_trace(&table, &trace).map(|t| t.len()),
            Err("nope".into())
        );
    }

    #[test]
    fn columns_and_samples_agree() {
        let table = table();
        let ft = FrameTrace::from_trace(&table, &sample_trace()).unwrap();
        let x = table.id("x").unwrap();
        assert_eq!(
            ft.column(x),
            &[Some(Value::Real(1.0)), None, Some(Value::Real(3.5))]
        );
        assert_eq!(ft.get(2, x), Some(Value::Real(3.5)));
        assert_eq!(ft.get(1, x), None);
        assert!((ft.time_s(2) - 0.02).abs() < 1e-12);
    }

    #[test]
    fn lane_pushes_record_what_frame_pushes_record() {
        let table = table();
        let trace = sample_trace();
        let by_frame = FrameTrace::from_trace(&table, &trace).unwrap();
        let mut by_lane = FrameTrace::new(&table, 10);
        let mut batch = FrameBatch::new(&table, 3);
        let mut frame = table.frame();
        for i in 0..by_frame.len() {
            by_frame.read_into(i, &mut frame);
            batch.clear();
            batch.write_lane_from(1, &frame);
            by_lane.push_lane(&batch, 1);
        }
        assert_eq!(by_lane, by_frame);
    }

    #[test]
    fn replay_matches_eval_over_the_name_keyed_view() {
        let table = table();
        let trace = sample_trace();
        let ft = FrameTrace::from_trace(&table, &trace).unwrap();
        let expr = parse("p || prev(p)").unwrap();
        let expected = crate::eval::eval_trace(&expr, &trace).unwrap();
        assert_eq!(ft.replay_expr(&expr).unwrap(), expected);
    }

    #[test]
    fn replay_resets_the_monitor_first() {
        let table = table();
        let ft = FrameTrace::from_trace(&table, &sample_trace()).unwrap();
        let expr = parse("prev(p)").unwrap();
        let first = ft.replay_expr(&expr).unwrap();
        let second = ft.replay_expr(&expr).unwrap();
        assert_eq!(first, second, "replay must start from clean history");
        assert!(!first[0], "no history before the first sample");
    }

    #[test]
    fn replay_surfaces_missing_signals() {
        let table = table();
        let mut ft = FrameTrace::new(&table, 1);
        ft.push(&table.frame());
        assert!(matches!(
            ft.replay_expr(&parse("p").unwrap()),
            Err(EvalError::MissingVar { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "share one signal table")]
    fn push_rejects_foreign_frames() {
        let mut ft = FrameTrace::new(&table(), 1);
        ft.push(&table().frame());
    }
}
