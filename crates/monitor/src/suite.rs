//! Monitor suites: goal and subgoal monitors bound to architecture
//! locations (thesis Table 5.3).

use crate::correlate::{CorrelationReport, CorrelationRow, SubgoalStats};
use crate::violation::{IntervalTracker, ViolationInterval};
use esafe_logic::{
    EvalError, Expr, Frame, FrameBatch, FrameTrace, FusedSuiteBatch, FusedSuiteProgram, SignalId,
    SignalTable,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Where in the architecture a monitor runs (e.g. `Vehicle`, `Arbiter`,
/// `CA`). Purely a label; the state samples are shared.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Location(String);

impl Location {
    /// Creates a location label.
    pub fn new(name: impl Into<String>) -> Self {
        Location(name.into())
    }

    /// The label text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Location {
    fn from(s: &str) -> Self {
        Location::new(s)
    }
}

/// An evaluation error raised by a specific monitor in a suite.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorError {
    /// The failing monitor's id.
    pub monitor_id: String,
    /// The underlying evaluation error.
    pub source: EvalError,
}

impl fmt::Display for MonitorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "monitor `{}`: {}", self.monitor_id, self.source)
    }
}

impl std::error::Error for MonitorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// A monitor's immutable identity — id, place in the goal hierarchy,
/// architecture location, source formula. Shared by `Arc` between a
/// suite, the [`SuiteTemplate`] it was instantiated from and the
/// batches stamped from that, so stamping out a suite clones no strings.
#[derive(Debug)]
struct EntryMeta {
    id: String,
    parent: Option<String>,
    location: Location,
    expr: Expr,
}

/// A set of goal and subgoal monitors fed from a shared [`Frame`] stream.
///
/// The suite is bound to one [`SignalTable`]; its goals compile into one
/// [`FusedSuiteProgram`] against that table, so every variable reference
/// resolves to a [`SignalId`] once. A suite runs as one lane of a
/// [`MonitorSuiteBatch`]: [`MonitorSuite::observe`] is one pass over the
/// deduplicated DAG that evaluates every shared subformula once per
/// tick, and the batch's edge-driven recorder turns the verdicts into
/// violation intervals. An authored suite ([`MonitorSuite::new`] +
/// [`add_goal`](MonitorSuite::add_goal)) compiles when it first
/// observes; a [`SuiteTemplate`] carries the compiled program, so an
/// instantiated suite never compiles.
///
/// Goals are top-level entries; subgoals name their parent goal. After the
/// run, [`MonitorSuite::correlate`] produces the hit / false-positive /
/// false-negative classification of §5.1.2.
#[derive(Debug, Clone)]
pub struct MonitorSuite {
    table: Arc<SignalTable>,
    metas: Vec<Arc<EntryMeta>>,
    /// The one-lane runtime, monitors index-aligned with `metas`;
    /// `None` until the suite compiles.
    batch: Option<MonitorSuiteBatch>,
}

impl MonitorSuite {
    /// Creates an empty suite over the given signal namespace.
    pub fn new(table: Arc<SignalTable>) -> Self {
        MonitorSuite {
            table,
            metas: Vec::new(),
            batch: None,
        }
    }

    /// The signal namespace the suite's monitors are compiled against.
    pub fn table(&self) -> &Arc<SignalTable> {
        &self.table
    }

    /// Adds a system-level goal monitor.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] if the goal contains future operators,
    /// references a signal outside the suite's table, or orders a
    /// boolean or a symbol.
    ///
    /// # Panics
    ///
    /// Panics if the suite has already compiled (it has observed, or it
    /// was instantiated from a [`SuiteTemplate`]).
    pub fn add_goal(
        &mut self,
        id: impl Into<String>,
        location: Location,
        expr: Expr,
    ) -> Result<(), EvalError> {
        self.add_entry(id.into(), None, location, expr)
    }

    /// Adds a subgoal monitor under the parent goal `parent_id`.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] if the goal contains future operators,
    /// references a signal outside the suite's table, or orders a
    /// boolean or a symbol.
    ///
    /// # Panics
    ///
    /// Panics if `parent_id` has not been added yet — the hierarchy is
    /// declared top-down — or if the suite has already compiled.
    pub fn add_subgoal(
        &mut self,
        id: impl Into<String>,
        parent_id: impl Into<String>,
        location: Location,
        expr: Expr,
    ) -> Result<(), EvalError> {
        let parent_id = parent_id.into();
        assert!(
            self.metas
                .iter()
                .any(|m| m.parent.is_none() && m.id == parent_id),
            "parent goal `{parent_id}` must be added before its subgoals"
        );
        self.add_entry(id.into(), Some(parent_id), location, expr)
    }

    fn add_entry(
        &mut self,
        id: String,
        parent: Option<String>,
        location: Location,
        expr: Expr,
    ) -> Result<(), EvalError> {
        assert!(
            self.batch.is_none(),
            "cannot add monitors to a fused suite once it has compiled; \
             add every goal before the first observe"
        );
        FusedSuiteProgram::check(&expr, &self.table)?;
        self.metas.push(Arc::new(EntryMeta {
            id,
            parent,
            location,
            expr,
        }));
        Ok(())
    }

    /// Extracts the suite's compile-once artifacts as a
    /// [`SuiteTemplate`]: the shared per-monitor metadata plus the
    /// suite-level [`FusedSuiteProgram`] merging every formula into one
    /// deduplicated DAG — compiled here unless the suite already has
    /// been. Building the template is the once-per-sweep compile point;
    /// stamping suites from it is O(monitors).
    pub fn template(&self) -> SuiteTemplate {
        let fused = match &self.batch {
            Some(batch) => Arc::clone(batch.fused.program()),
            None => {
                let exprs: Vec<Expr> = self.metas.iter().map(|m| m.expr.clone()).collect();
                Arc::new(
                    FusedSuiteProgram::compile(&exprs, &self.table)
                        .expect("every formula was checked when it was added"),
                )
            }
        };
        SuiteTemplate {
            table: self.table.clone(),
            metas: self.metas.clone(),
            fused,
        }
    }

    /// Returns every monitor to its pre-run state: compiled programs are
    /// kept, monitor history and recorded intervals are cleared in place
    /// (retaining buffer capacity). A reset suite is observationally
    /// identical to a freshly instantiated one — the property run-context
    /// pooling relies on.
    pub fn reset(&mut self) {
        if let Some(batch) = &mut self.batch {
            batch.reset();
        }
    }

    /// Feeds one frame to every monitor — the per-tick hot path: no
    /// string lookups, no allocation, one table identity check for the
    /// whole suite, then the one-lane batch's pass over the deduplicated
    /// DAG, read from the frame in place ([`Frame::as_batch`]). An
    /// authored suite compiles on its first call.
    ///
    /// Every node of the DAG is evaluated, including branches a
    /// connective has already decided, so the frame must set every
    /// signal any goal reads ([`FusedSuiteProgram::reads`]); leaving one
    /// unset is an error even where the goal's value would not depend
    /// on it.
    ///
    /// # Errors
    ///
    /// Returns a [`MonitorError`] naming the first monitor (in suite
    /// order) whose formula holds the failing node. Treat an error as
    /// fatal for this run.
    ///
    /// # Panics
    ///
    /// Panics if `frame` indexes a different table than the suite is
    /// bound to.
    pub fn observe(&mut self, frame: &Frame) -> Result<(), MonitorError> {
        assert!(
            Arc::ptr_eq(frame.table(), &self.table),
            "frame and suite must share one signal table"
        );
        if self.batch.is_none() {
            self.batch = Some(self.template().instantiate_batch(1));
        }
        let batch = self.batch.as_mut().expect("compiled above");
        batch
            .observe_slab(frame.as_batch())
            .map_err(BatchMonitorError::into_monitor_error)
    }

    /// Replays a recorded [`FrameTrace`] from a clean start: the suite
    /// is [`reset`](MonitorSuite::reset), fed every sample, and
    /// [`finish`](MonitorSuite::finish)ed — the offline re-monitoring
    /// path. Recordings captured from a live run (see the harness's
    /// frame-recording experiment option) can be re-monitored with a
    /// *different* goal suite without re-simulating, as long as both
    /// suites share the trace's signal table.
    ///
    /// # Errors
    ///
    /// Returns a [`MonitorError`] naming the failing monitor.
    ///
    /// # Panics
    ///
    /// Panics if `trace` indexes a different table than the suite is
    /// bound to.
    ///
    /// # Example
    ///
    /// ```
    /// use esafe_logic::{parse, FrameTrace, SignalTable};
    /// use esafe_monitor::{Location, MonitorSuite};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut b = SignalTable::builder();
    /// let speed = b.real("speed");
    /// let table = b.finish();
    ///
    /// // A recorded run: speed ramps 1, 2, 3 (one sample per ms).
    /// let mut trace = FrameTrace::new(&table, 1);
    /// let mut frame = table.frame();
    /// for v in [1.0, 2.0, 3.0] {
    ///     frame.set(speed, v);
    ///     trace.push(&frame);
    /// }
    ///
    /// // Re-monitor the recording offline with a goal the live run
    /// // never compiled.
    /// let mut suite = MonitorSuite::new(table.clone());
    /// suite.add_goal("tighter", Location::new("Host"), parse("speed < 2.5")?)?;
    /// suite.replay(&trace)?;
    /// let violations = suite.violations("tighter").unwrap();
    /// assert_eq!(violations.len(), 1);
    /// assert_eq!(violations[0].start_tick, 2); // the 3.0 sample
    /// # Ok(())
    /// # }
    /// ```
    pub fn replay(&mut self, trace: &FrameTrace) -> Result<(), MonitorError> {
        assert!(
            Arc::ptr_eq(trace.table(), &self.table),
            "trace and suite must share one signal table"
        );
        self.reset();
        let mut frame = self.table.frame();
        for i in 0..trace.len() {
            trace.read_into(i, &mut frame);
            self.observe(&frame)?;
        }
        self.finish();
        Ok(())
    }

    /// Ends the run: closes any open violation intervals at the number
    /// of frames observed (call once after the run).
    ///
    /// This retires the suite's lane, as
    /// [`MonitorSuiteBatch::retire_lane`] does: until
    /// [`reset`](MonitorSuite::reset) starts a new run, a later
    /// [`observe`](MonitorSuite::observe) records nothing and checks
    /// nothing, so it returns `Ok` even for a frame that leaves a read
    /// signal unset.
    pub fn finish(&mut self) {
        if let Some(batch) = &mut self.batch {
            batch.finish();
        }
    }

    /// The intervals monitor `i` recorded (none before the suite
    /// compiles).
    fn intervals(&self, i: usize) -> &[ViolationInterval] {
        self.batch
            .as_ref()
            .map_or(&[], |batch| batch.trackers[i].intervals())
    }

    /// Violation intervals recorded for monitor `id` (goals and subgoals).
    pub fn violations(&self, id: &str) -> Option<&[ViolationInterval]> {
        let i = self.metas.iter().position(|m| m.id == id)?;
        Some(self.intervals(i))
    }

    /// Drains the recorded violations into owned storage: one
    /// `(id, intervals)` pair per monitor with at least one interval, in
    /// insertion order. The intervals are *moved* out of the recorder
    /// (which reports empty afterwards), so report assembly copies
    /// nothing per monitor beyond the violating ids — call
    /// [`MonitorSuite::correlate`] first, since correlation reads the
    /// same intervals.
    pub fn take_violations(&mut self) -> Vec<(String, Vec<ViolationInterval>)> {
        self.batch
            .as_mut()
            .map_or_else(Vec::new, |batch| batch.take_violations_lane(0))
    }

    /// Ids of all top-level goals, in insertion order.
    pub fn goal_ids(&self) -> Vec<&str> {
        self.metas
            .iter()
            .filter(|m| m.parent.is_none())
            .map(|m| m.id.as_str())
            .collect()
    }

    /// Ids of the subgoals of `goal_id`, in insertion order.
    pub fn subgoal_ids(&self, goal_id: &str) -> Vec<&str> {
        self.metas
            .iter()
            .filter(|m| m.parent.as_deref() == Some(goal_id))
            .map(|m| m.id.as_str())
            .collect()
    }

    /// The `(location, formula)` of a monitor.
    pub fn describe(&self, id: &str) -> Option<(&Location, &Expr)> {
        self.metas
            .iter()
            .find(|m| m.id == id)
            .map(|m| (&m.location, &m.expr))
    }

    /// The monitoring-location matrix: `(id, parent, location)` rows in
    /// insertion order (the shape of thesis Table 5.3). Borrowed views —
    /// rendering or report assembly decides what to copy.
    pub fn location_matrix(&self) -> Vec<(&str, Option<&str>, &Location)> {
        self.metas
            .iter()
            .map(|m| (m.id.as_str(), m.parent.as_deref(), &m.location))
            .collect()
    }

    /// Classifies detections per §5.1.2 with the given correlation
    /// `window` (ticks of slack between subgoal and goal violations).
    pub fn correlate(&self, window: u64) -> CorrelationReport {
        let entries: Vec<(&EntryMeta, &[ViolationInterval])> = self
            .metas
            .iter()
            .enumerate()
            .map(|(i, m)| (&**m, self.intervals(i)))
            .collect();
        correlate_entries(&entries, window)
    }
}

/// The §5.1.2 hit / false-positive / false-negative classification over
/// one run's `(meta, recorded intervals)` rows, in suite order: **the
/// one implementation** behind [`MonitorSuiteBatch::correlate_lane`]
/// and [`MonitorSuite::correlate`], which reads its one lane's rows.
fn correlate_entries(
    entries: &[(&EntryMeta, &[ViolationInterval])],
    window: u64,
) -> CorrelationReport {
    let mut rows = Vec::new();
    for (goal, goal_violations) in entries.iter().filter(|(m, _)| m.parent.is_none()) {
        let subs: Vec<&(&EntryMeta, &[ViolationInterval])> = entries
            .iter()
            .filter(|(m, _)| m.parent.as_deref() == Some(goal.id.as_str()))
            .collect();

        let mut hits = 0usize;
        let mut false_negatives = 0usize;
        for gv in *goal_violations {
            let covered = subs
                .iter()
                .any(|(_, sv)| sv.iter().any(|sv| sv.overlaps(gv, window)));
            if covered {
                hits += 1;
            } else {
                false_negatives += 1;
            }
        }

        let mut false_positives = 0usize;
        let mut per_subgoal = Vec::new();
        for (meta, sub_viol) in &subs {
            let mut sub_fp = 0usize;
            for sv in *sub_viol {
                let matched = goal_violations.iter().any(|gv| gv.overlaps(sv, window));
                if !matched {
                    sub_fp += 1;
                }
            }
            false_positives += sub_fp;
            per_subgoal.push(SubgoalStats {
                subgoal_id: meta.id.clone(),
                location: meta.location.to_string(),
                violations: sub_viol.len(),
                false_positives: sub_fp,
            });
        }

        rows.push(CorrelationRow {
            goal_id: goal.id.clone(),
            goal_violations: goal_violations.len(),
            hits,
            false_negatives,
            false_positives,
            subgoals: per_subgoal,
        });
    }
    CorrelationReport { rows }
}

/// The compile-once form of a [`MonitorSuite`]: every goal/subgoal
/// formula of a substrate *family* compiled against the family's shared
/// [`SignalTable`] into one `Arc`-shared [`FusedSuiteProgram`] — a
/// single deduplicated DAG — plus each monitor's shared metadata.
///
/// Building a suite parses and resolves ~`O(formula size)` work per
/// monitor; a sweep that rebuilt its suite per cell paid that ×cells.
/// A template is built **once per sweep** (typically via
/// [`MonitorSuite::template`] on the first suite compiled) and
/// [`SuiteTemplate::instantiate`] stamps out a per-cell suite in
/// O(monitors): Arc clones, two slab allocations, and a `memcpy` of the
/// temporal state cells.
///
/// An instantiated suite is observationally identical to one compiled
/// from scratch — same monitors, same ids, same verdicts — which the
/// workspace's golden sweep tests pin bit-for-bit.
#[derive(Debug, Clone)]
pub struct SuiteTemplate {
    table: Arc<SignalTable>,
    /// Index-aligned with the fused program's roots.
    metas: Vec<Arc<EntryMeta>>,
    fused: Arc<FusedSuiteProgram>,
}

impl SuiteTemplate {
    /// The signal namespace the template's monitors are compiled against.
    pub fn table(&self) -> &Arc<SignalTable> {
        &self.table
    }

    /// Number of monitors (goals + subgoals) in the template.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// Whether the template holds no monitors.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// The suite-level fused program: the deduplicated DAG every
    /// instantiated suite evaluates. Its
    /// [`source_nodes`](FusedSuiteProgram::source_nodes) /
    /// [`unique_nodes`](FusedSuiteProgram::unique_nodes) counts quantify
    /// the cross-monitor sharing (the `repro --grid --json` CSE fields).
    pub fn fused_program(&self) -> &Arc<FusedSuiteProgram> {
        &self.fused
    }

    /// Stamps out a fresh suite — a one-lane
    /// [`instantiate_batch`](SuiteTemplate::instantiate_batch): no
    /// parsing, no compilation, no string copies; every monitor verdict
    /// comes from one shared evaluation pass per tick.
    ///
    /// # Example
    ///
    /// ```
    /// use esafe_logic::{parse, SignalTable};
    /// use esafe_monitor::{Location, MonitorSuite};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut b = SignalTable::builder();
    /// let speed = b.real("speed");
    /// let table = b.finish();
    ///
    /// // Author once, template once, stamp per cell.
    /// let mut authored = MonitorSuite::new(table.clone());
    /// authored.add_goal("bound", Location::new("Host"), parse("speed < 3.0")?)?;
    /// let template = authored.template();
    ///
    /// let mut cell_suite = template.instantiate();
    /// let mut frame = table.frame();
    /// frame.set(speed, 5.0);
    /// cell_suite.observe(&frame)?;
    /// cell_suite.finish();
    /// assert_eq!(cell_suite.violations("bound").unwrap().len(), 1);
    ///
    /// // Each instantiation starts clean — cells never share history.
    /// assert!(template.instantiate().violations("bound").unwrap().is_empty());
    /// # Ok(())
    /// # }
    /// ```
    pub fn instantiate(&self) -> MonitorSuite {
        MonitorSuite {
            table: self.table.clone(),
            metas: self.metas.clone(),
            batch: Some(self.instantiate_batch(1)),
        }
    }

    /// Stamps out a **batched** suite evaluating `lanes` independent
    /// runs in lock-step through one bit-sliced pass per tick — the
    /// engine behind the harness's striped sweeps and, at one lane,
    /// behind every [`MonitorSuite`]. Each lane carries its own violation
    /// trackers and temporal history (see [`MonitorSuiteBatch`]).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn instantiate_batch(&self, lanes: usize) -> MonitorSuiteBatch {
        MonitorSuiteBatch {
            table: self.table.clone(),
            trackers: vec![IntervalTracker::new(); self.metas.len() * lanes],
            prev: vec![!0; self.metas.len() * lanes.div_ceil(64)],
            metas: self.metas.clone(),
            fused: self.fused.instantiate_batch(lanes),
            lanes,
            generation: 0,
            suspended_scratch: Vec::new(),
        }
    }
}

/// An evaluation error raised by a batched suite, naming the failing
/// lane (run) and monitor.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchMonitorError {
    /// Index of the failing lane within the batch.
    pub lane: usize,
    /// The failing monitor's id.
    pub monitor_id: String,
    /// The underlying evaluation error.
    pub source: EvalError,
}

impl fmt::Display for BatchMonitorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lane #{} monitor `{}`: {}",
            self.lane, self.monitor_id, self.source
        )
    }
}

impl std::error::Error for BatchMonitorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

impl BatchMonitorError {
    /// Drops the lane attribution, leaving the per-run error that
    /// [`MonitorSuite::observe`] reports for its one lane.
    pub fn into_monitor_error(self) -> MonitorError {
        MonitorError {
            monitor_id: self.monitor_id,
            source: self.source,
        }
    }
}

/// The monitor runtime over **many runs at once**: `lanes` independent
/// runs advance in lock-step through one batched fused pass per tick
/// ([`FusedSuiteBatch`]), with one violation-tracker row per lane. A
/// [`MonitorSuite`] is its one-lane case.
///
/// The batch is the monitor-side half of the harness's striped sweeps: a
/// stripe of same-template sweep cells ticks its simulators together and
/// feeds their lane-major state slab to
/// [`MonitorSuiteBatch::observe_slab`] — each DAG node is then evaluated
/// across the whole stripe, 64 lanes per word operation, before moving
/// to the next node, instead of re-walking the suite once per run.
///
/// Lanes are observationally independent: each lane's recorded
/// intervals, correlation, and violation reports are those of its own
/// frames alone — the intervals [`eval_trace`](esafe_logic::eval::eval_trace)
/// of each monitor gives over them (pinned by unit, property, and golden
/// sweep tests) — including when a lane
/// [`retire`](MonitorSuiteBatch::retire_lane)s early while its
/// neighbours keep running.
///
/// The per-lane lifecycle is [`MonitorSuite`]'s
/// observe → finish → correlate → take_violations:
/// [`observe_slab`](MonitorSuiteBatch::observe_slab) each tick, then
/// [`retire_lane`](MonitorSuiteBatch::retire_lane) when the lane's run
/// ends (early termination) or [`finish`](MonitorSuiteBatch::finish)
/// once for everything still live, then
/// [`correlate_lane`](MonitorSuiteBatch::correlate_lane) and
/// [`take_violations_lane`](MonitorSuiteBatch::take_violations_lane)
/// per lane.
#[derive(Debug, Clone)]
pub struct MonitorSuiteBatch {
    table: Arc<SignalTable>,
    metas: Vec<Arc<EntryMeta>>,
    /// Lane-major: `trackers[lane * metas.len() + entry]`, so one lane's
    /// rows are contiguous for per-lane extraction.
    trackers: Vec<IntervalTracker>,
    /// Each monitor's verdicts as of its lanes' last recorded edges, one
    /// bit row per monitor laid out like
    /// [`FusedSuiteBatch::verdict_row`], so recording diffs whole
    /// words. Starts all-`true` (an initial `false` verdict is a
    /// recordable true→false edge).
    prev: Vec<u64>,
    fused: FusedSuiteBatch,
    lanes: usize,
    /// Which *suite generation* this batch belongs to — provenance for
    /// long-running services that hot-swap goal suites: every verdict or
    /// violation drained from this batch is attributed to this
    /// generation, never to the suite that replaced it.
    generation: u64,
    /// Reusable scratch for
    /// [`observe_slab_masked`](MonitorSuiteBatch::observe_slab_masked):
    /// the lanes temporarily suspended for the current pass.
    suspended_scratch: Vec<usize>,
}

impl MonitorSuiteBatch {
    /// The signal namespace the batch's monitors are compiled against.
    pub fn table(&self) -> &Arc<SignalTable> {
        &self.table
    }

    /// Number of lanes (runs) in the batch, retired lanes included.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of lanes still advancing.
    pub fn active_lanes(&self) -> usize {
        self.fused.active_lanes()
    }

    /// Whether `lane` is still advancing.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn is_active(&self, lane: usize) -> bool {
        self.fused.is_active(lane)
    }

    /// Number of monitors (goals + subgoals) per lane.
    pub fn monitors(&self) -> usize {
        self.metas.len()
    }

    /// Number of frames `lane` has observed so far (frozen once the lane
    /// retires) — the tick clock violation provenance is expressed in.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn steps_observed(&self, lane: usize) -> u64 {
        self.fused.steps_observed(lane)
    }

    /// The suite generation this batch is tagged with (0 unless
    /// [`set_generation`](MonitorSuiteBatch::set_generation) was called).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Tags this batch with a suite generation. A service that hot-swaps
    /// goal suites stamps each instantiated batch with a monotonically
    /// increasing generation so drained violations stay attributed to
    /// the suite that actually produced them.
    pub fn set_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// Whether every lane has retired — a *drained* batch. A draining
    /// suite (deactivated for new runs but still carrying live lanes)
    /// can be [`finish`](MonitorSuiteBatch::finish)ed and unloaded as
    /// soon as this turns true, without cutting any run short.
    pub fn drained(&self) -> bool {
        self.fused.active_lanes() == 0
    }

    /// Every signal the batch's monitors read
    /// ([`FusedSuiteProgram::reads`]): each observing lane must set all
    /// of them.
    pub fn reads(&self) -> &[SignalId] {
        self.fused.program().reads()
    }

    /// Feeds the next sample of every active lane, read **in place**
    /// from a lane-major [`FrameBatch`] slab — the zero-copy path for a
    /// batched simulator's state slab: one batched fused pass, then one
    /// verdict recording per monitor per active lane.
    ///
    /// # Errors
    ///
    /// Returns a [`BatchMonitorError`] naming the failing lane and
    /// monitor — for instance when an active lane leaves unset a signal
    /// in [`reads`](MonitorSuiteBatch::reads). As with
    /// [`MonitorSuite::observe`], treat an error as fatal for the batch
    /// instance.
    ///
    /// # Panics
    ///
    /// Panics if `slab.lanes() != lanes`; debug builds also panic if the
    /// slab indexes a different table.
    pub fn observe_slab(&mut self, slab: &FrameBatch) -> Result<(), BatchMonitorError> {
        self.fused
            .observe_slab(slab)
            .map_err(|err| BatchMonitorError {
                lane: err.lane,
                monitor_id: self.metas[err.monitor].id.clone(),
                source: err.source,
            })?;
        self.record_verdicts();
        Ok(())
    }

    /// [`observe_slab`](MonitorSuiteBatch::observe_slab) restricted to a
    /// **subset** of lanes: only lanes with `live[lane] == true` observe
    /// the pass; every other lane — retired or merely frameless this
    /// pass — is skipped with its temporal history, step counter, and
    /// recorded intervals left bit-exactly untouched, as if the pass
    /// never happened for it. This is the streaming-service path: a
    /// shard whose streams deliver frames at different rates advances
    /// exactly the lanes that produced a frame this wave, so a stalled
    /// stream never perturbs (or is perturbed by) its neighbours.
    ///
    /// Skipped lanes' slab rows are not read; they may hold stale or
    /// unset data.
    ///
    /// # Errors
    ///
    /// As [`observe_slab`](MonitorSuiteBatch::observe_slab). On error the
    /// suspended lanes are resumed before returning, but — as with every
    /// batch observe error — the batch instance should be treated as
    /// poisoned.
    ///
    /// # Panics
    ///
    /// Panics if `live.len() != lanes` or `slab.lanes() != lanes`.
    pub fn observe_slab_masked(
        &mut self,
        slab: &FrameBatch,
        live: &[bool],
    ) -> Result<(), BatchMonitorError> {
        assert_eq!(live.len(), self.lanes, "one liveness flag per lane");
        let mut suspended = std::mem::take(&mut self.suspended_scratch);
        suspended.clear();
        for (lane, &is_live) in live.iter().enumerate() {
            if !is_live && self.fused.is_active(lane) {
                self.fused.suspend_lane(lane);
                suspended.push(lane);
            }
        }
        let result = self
            .fused
            .observe_slab(slab)
            .map_err(|err| BatchMonitorError {
                lane: err.lane,
                monitor_id: self.metas[err.monitor].id.clone(),
                source: err.source,
            });
        if result.is_ok() {
            // Record while the skipped lanes are still suspended, so the
            // edge diff cannot attribute a stale verdict cell to them.
            self.record_verdicts();
        }
        for &lane in &suspended {
            self.fused.resume_lane(lane);
        }
        self.suspended_scratch = suspended;
        result
    }

    /// Folds the pass's verdicts into the violation trackers — the
    /// shared back half of both observe paths and the one interval
    /// recorder. Intervals only change at verdict *edges*, so instead of
    /// visiting every monitor of every lane each tick, this diffs each
    /// monitor's verdict words against the previous copy
    /// under the pass's active-lane mask (one XOR per 64 lanes, almost
    /// always zero) and visits only the lanes whose verdict flipped.
    ///
    /// Inactive lanes are masked out: their verdict bits are recomputed
    /// from stale inputs, and syncing `prev` to such a bit would swallow
    /// the real edge when a suspended lane resumes.
    fn record_verdicts(&mut self) {
        let n = self.metas.len();
        let words = self.lanes.div_ceil(64);
        let active = self.fused.active_mask();
        for e in 0..n {
            let row = self.fused.verdict_row(e);
            let prev = &mut self.prev[e * words..][..words];
            for (w, ((prev, &now), &live)) in prev.iter_mut().zip(row).zip(active).enumerate() {
                let mut flipped = (*prev ^ now) & live;
                *prev ^= flipped;
                while flipped != 0 {
                    let bit = flipped.trailing_zeros() as usize;
                    flipped &= flipped - 1;
                    let lane = w * 64 + bit;
                    // The tick just recorded for this lane.
                    let t = self.fused.steps_observed(lane) - 1;
                    let tracker = &mut self.trackers[lane * n + e];
                    if (now >> bit) & 1 == 1 {
                        tracker.close_at(t);
                    } else {
                        tracker.open_at(t);
                    }
                }
            }
        }
    }

    /// Ends a lane's run: closes its open violation intervals at the
    /// lane's frame count and freezes its monitors
    /// ([`MonitorSuite::finish`] does this to its one lane). Subsequent
    /// passes skip the lane. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn retire_lane(&mut self, lane: usize) {
        if self.fused.is_active(lane) {
            self.fused.retire_lane(lane);
            let steps = self.fused.steps_observed(lane);
            let n = self.metas.len();
            for tracker in &mut self.trackers[lane * n..][..n] {
                tracker.close_at(steps);
            }
        }
    }

    /// Retires every lane still active (call once after the stripe's
    /// tick loop; lanes that terminated early were retired then).
    pub fn finish(&mut self) {
        for lane in 0..self.lanes {
            self.retire_lane(lane);
        }
    }

    /// Classifies `lane`'s detections per §5.1.2 — the same
    /// classification [`MonitorSuite::correlate`] computes, over the
    /// lane's own recorded intervals (one shared implementation).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn correlate_lane(&self, lane: usize, window: u64) -> CorrelationReport {
        let n = self.metas.len();
        let row = &self.trackers[lane * n..][..n];
        let entries: Vec<(&EntryMeta, &[ViolationInterval])> = self
            .metas
            .iter()
            .zip(row)
            .map(|(m, t)| (&**m, t.intervals()))
            .collect();
        correlate_entries(&entries, window)
    }

    /// Drains `lane`'s recorded violations into owned storage — the
    /// per-lane form of [`MonitorSuite::take_violations`]: one
    /// `(id, intervals)` pair per monitor with at least one interval, in
    /// insertion order. Call
    /// [`correlate_lane`](MonitorSuiteBatch::correlate_lane) first;
    /// correlation reads the same intervals.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn take_violations_lane(&mut self, lane: usize) -> Vec<(String, Vec<ViolationInterval>)> {
        let n = self.metas.len();
        let row = &mut self.trackers[lane * n..][..n];
        let mut out = Vec::new();
        for (meta, tracker) in self.metas.iter().zip(row) {
            let intervals = tracker.take_intervals();
            if !intervals.is_empty() {
                out.push((meta.id.clone(), intervals));
            }
        }
        out
    }

    /// Reclaims a retired lane for a **new run**, in place: the lane's
    /// temporal history restarts from the initial state
    /// ([`FusedSuiteBatch::reset_lane`]), its violation trackers reset,
    /// and its previous-verdict row returns to all-`true` — exactly the
    /// state the lane had at instantiation, with no other lane touched
    /// and nothing reallocated. This is what makes lane slots *reusable*
    /// in a long-running service: a disconnecting stream retires its
    /// lane, and the next connecting stream reclaims it.
    ///
    /// Drain the lane's recorded violations
    /// ([`take_violations_lane`](MonitorSuiteBatch::take_violations_lane))
    /// before reclaiming; reclaim discards anything still recorded.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or still active — retire first,
    /// so the previous run's open intervals close at its true end.
    pub fn reclaim_lane(&mut self, lane: usize) {
        assert!(
            !self.fused.is_active(lane),
            "lane {lane} must be retired before it can be reclaimed"
        );
        self.fused.reset_lane(lane);
        let n = self.metas.len();
        for tracker in &mut self.trackers[lane * n..][..n] {
            tracker.reset();
        }
        let words = self.lanes.div_ceil(64);
        for row in self.prev.chunks_exact_mut(words) {
            row[lane / 64] |= 1 << (lane % 64);
        }
    }

    /// Returns every lane to its pre-run state — history, trackers, and
    /// retirements cleared in place, no reallocation. A reset batch is
    /// observationally identical to a freshly instantiated one, so a
    /// sweep worker can reuse one batch across the stripes it executes.
    pub fn reset(&mut self) {
        self.fused.reset();
        for tracker in &mut self.trackers {
            tracker.reset();
        }
        self.prev.fill(!0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esafe_logic::parse;

    fn table() -> Arc<SignalTable> {
        let mut b = SignalTable::builder();
        b.bool("g");
        b.bool("s");
        b.finish()
    }

    /// A test suite's monitors as authored: `(id, parent, formula)`.
    type Goals = [(&'static str, Option<&'static str>, &'static str)];

    /// The suite most tests run: goal `G` over `g`, subgoal `G.A` over `s`.
    const SUITE: &Goals = &[("G", None, "g"), ("G.A", Some("G"), "s")];

    /// Authors `goals` in order: goals at `System`, subgoals at `Sub`.
    fn author(goals: &Goals) -> MonitorSuite {
        let mut m = MonitorSuite::new(table());
        for &(id, parent, src) in goals {
            let expr = parse(src).unwrap();
            match parent {
                None => m.add_goal(id, Location::new("System"), expr).unwrap(),
                Some(p) => m.add_subgoal(id, p, Location::new("Sub"), expr).unwrap(),
            }
        }
        m
    }

    fn suite() -> MonitorSuite {
        author(SUITE)
    }

    fn observe(m: &mut MonitorSuite, goal_ok: bool, sub_ok: bool) {
        let mut f = m.table().clone().frame();
        f.set_named("g", goal_ok);
        f.set_named("s", sub_ok);
        m.observe(&f).unwrap();
    }

    #[test]
    fn hit_when_goal_and_subgoal_overlap() {
        let mut m = suite();
        for (g, s) in [(true, true), (false, false), (true, true)] {
            observe(&mut m, g, s);
        }
        m.finish();
        let r = m.correlate(0);
        let row = r.for_goal("G").unwrap();
        assert_eq!(
            (row.hits, row.false_negatives, row.false_positives),
            (1, 0, 0)
        );
    }

    #[test]
    fn false_negative_when_goal_fires_alone() {
        let mut m = suite();
        for (g, s) in [(true, true), (false, true), (true, true)] {
            observe(&mut m, g, s);
        }
        m.finish();
        let r = m.correlate(0);
        let row = r.for_goal("G").unwrap();
        assert_eq!(
            (row.hits, row.false_negatives, row.false_positives),
            (0, 1, 0)
        );
    }

    #[test]
    fn false_positive_when_subgoal_fires_alone() {
        let mut m = suite();
        for (g, s) in [(true, true), (true, false), (true, true)] {
            observe(&mut m, g, s);
        }
        m.finish();
        let r = m.correlate(0);
        let row = r.for_goal("G").unwrap();
        assert_eq!(
            (row.hits, row.false_negatives, row.false_positives),
            (0, 0, 1)
        );
        assert_eq!(row.subgoals[0].false_positives, 1);
    }

    #[test]
    fn window_turns_near_miss_into_hit() {
        let mut m = suite();
        // Subgoal violated at tick 1, goal at tick 3: 1 tick apart.
        for (g, s) in [
            (true, true),
            (true, false),
            (true, true),
            (false, true),
            (true, true),
        ] {
            observe(&mut m, g, s);
        }
        m.finish();
        assert_eq!(m.correlate(0).for_goal("G").unwrap().hits, 0);
        assert_eq!(m.correlate(2).for_goal("G").unwrap().hits, 1);
        assert_eq!(m.correlate(2).for_goal("G").unwrap().false_positives, 0);
    }

    #[test]
    fn violations_and_matrix_are_reported() {
        let mut m = suite();
        observe(&mut m, false, true);
        m.finish();
        assert_eq!(m.violations("G").unwrap().len(), 1);
        assert_eq!(m.violations("G.A").unwrap().len(), 0);
        assert!(m.violations("missing").is_none());
        let matrix = m.location_matrix();
        assert_eq!(matrix.len(), 2);
        assert_eq!(matrix[1].1, Some("G"));
        assert_eq!(m.goal_ids(), vec!["G"]);
        assert_eq!(m.subgoal_ids("G"), vec!["G.A"]);
    }

    #[test]
    fn take_violations_drains_once_in_insertion_order() {
        let mut m = suite();
        observe(&mut m, false, false);
        observe(&mut m, true, true);
        m.finish();
        let report = m.correlate(0);
        assert_eq!(report.for_goal("G").unwrap().hits, 1);
        let taken = m.take_violations();
        assert_eq!(taken.len(), 2);
        assert_eq!(taken[0].0, "G");
        assert_eq!(taken[0].1, vec![ViolationInterval::new(0, 1)]);
        assert_eq!(taken[1].0, "G.A");
        // Drained: the trackers now report empty.
        assert!(m.take_violations().is_empty());
        assert!(m.violations("G").unwrap().is_empty());
    }

    /// Runs the frames through a suite and returns its drained
    /// violations + classification — the observable outcome of a run.
    fn outcome(mut m: MonitorSuite, frames: &[(bool, bool)]) -> (Vec<(String, usize)>, usize) {
        for &(g, s) in frames {
            observe(&mut m, g, s);
        }
        m.finish();
        let hits = m.correlate(0).for_goal("G").unwrap().hits;
        let violations = m
            .take_violations()
            .into_iter()
            .map(|(id, v)| (id, v.len()))
            .collect();
        (violations, hits)
    }

    #[test]
    fn template_instantiation_matches_full_compilation() {
        let template = suite().template();
        assert_eq!(template.len(), 2);
        assert!(!template.is_empty());
        let frames = [(true, true), (false, false), (true, false)];
        let compiled = outcome(suite(), &frames);
        let instantiated = outcome(template.instantiate(), &frames);
        assert_eq!(instantiated, compiled);
        // Instantiation is repeatable: each instance starts clean.
        assert_eq!(outcome(template.instantiate(), &frames), compiled);
    }

    /// Violation intervals of a verdict sequence: maximal false runs.
    fn intervals_of(verdicts: &[bool]) -> Vec<ViolationInterval> {
        let mut out = Vec::new();
        let mut open = None;
        for (t, &ok) in (0u64..).zip(verdicts) {
            match (ok, open) {
                (false, None) => open = Some(t),
                (true, Some(start)) => {
                    out.push(ViolationInterval::new(start, t));
                    open = None;
                }
                _ => {}
            }
        }
        if let Some(start) = open {
            out.push(ViolationInterval::new(start, verdicts.len() as u64));
        }
        out
    }

    /// Each of `goals`' violation intervals over `frames` by the
    /// semantics of record: [`eval_trace`](esafe_logic::eval::eval_trace)
    /// of the monitor form of its authored formula, cut into maximal
    /// false runs — the reference the edge-driven recorder is checked
    /// against, built without reading the suite under test.
    fn eval_intervals(goals: &Goals, frames: &[(bool, bool)]) -> Vec<Vec<ViolationInterval>> {
        use esafe_logic::eval::eval_trace;
        use esafe_logic::incremental::monitor_form;
        let mut trace = esafe_logic::Trace::with_tick_millis(1);
        for &(g, s) in frames {
            trace.push(
                esafe_logic::State::new()
                    .with_bool("g", g)
                    .with_bool("s", s),
            );
        }
        goals
            .iter()
            .map(|&(_, _, src)| {
                let expr = monitor_form(&parse(src).unwrap()).unwrap();
                intervals_of(&eval_trace(&expr, &trace).unwrap())
            })
            .collect()
    }

    /// Asserts that lane `l` of `batch`, a batch of the [`author`]ed
    /// `goals` whose run is over, recorded exactly the
    /// [`eval_intervals`] of the lane's live `frames`, and correlates
    /// them as those intervals correlate under `window`. Drains the lane.
    fn assert_lane_matches_eval(
        batch: &mut MonitorSuiteBatch,
        l: usize,
        goals: &Goals,
        frames: &[(bool, bool)],
        window: u64,
    ) {
        let want = eval_intervals(goals, frames);
        let metas: Vec<EntryMeta> = goals
            .iter()
            .map(|&(id, parent, src)| EntryMeta {
                id: id.into(),
                parent: parent.map(Into::into),
                location: Location::new(if parent.is_none() { "System" } else { "Sub" }),
                expr: parse(src).unwrap(),
            })
            .collect();
        let entries: Vec<(&EntryMeta, &[ViolationInterval])> = metas
            .iter()
            .zip(&want)
            .map(|(m, v)| (m, v.as_slice()))
            .collect();
        let correlation = correlate_entries(&entries, window);
        assert_eq!(batch.correlate_lane(l, window), correlation, "lane {l}");
        let want: Vec<(String, Vec<ViolationInterval>)> = goals
            .iter()
            .zip(want)
            .filter(|(_, v)| !v.is_empty())
            .map(|(&(id, ..), v)| (id.to_string(), v))
            .collect();
        assert_eq!(batch.take_violations_lane(l), want, "lane {l}");
    }

    #[test]
    fn authored_and_instantiated_suites_match_eval() {
        const GOALS: &Goals = &[
            ("G", None, "g && prev(s)"),
            ("G.A", Some("G"), "once(!s) -> g"),
        ];
        let frames = [
            (true, true),
            (false, false),
            (true, false),
            (false, true),
            (true, true),
        ];
        let want = eval_intervals(GOALS, &frames);
        for mut suite in [author(GOALS), author(GOALS).template().instantiate()] {
            for &(g, s) in &frames {
                observe(&mut suite, g, s);
            }
            suite.finish();
            for (&(id, ..), want) in GOALS.iter().zip(&want) {
                assert_eq!(
                    suite.violations(id).unwrap(),
                    want.as_slice(),
                    "monitor {id}"
                );
            }
        }
    }

    #[test]
    fn fused_template_shares_subformulas_across_monitors() {
        let mut m = MonitorSuite::new(table());
        m.add_goal("G", Location::new("System"), parse("g && s").unwrap())
            .unwrap();
        m.add_subgoal("G.A", "G", Location::new("Sub"), parse("s && g").unwrap())
            .unwrap();
        m.add_subgoal("G.B", "G", Location::new("Sub"), parse("g && s").unwrap())
            .unwrap();
        let template = m.template();
        let program = template.fused_program();
        // g, s, g && s, s && g — the duplicate third formula is free.
        assert_eq!(program.unique_nodes(), 4);
        assert_eq!(program.source_nodes(), 9);
        assert_eq!(program.roots(), 3);
    }

    #[test]
    fn templating_a_fused_suite_round_trips() {
        // template() on an instantiated suite shares its compiled program.
        let template = suite().template();
        let retemplated = template.instantiate().template();
        assert!(Arc::ptr_eq(
            retemplated.fused_program(),
            template.fused_program()
        ));
        let frames = [(true, true), (false, true), (true, false)];
        assert_eq!(
            outcome(retemplated.instantiate(), &frames),
            outcome(suite(), &frames)
        );
    }

    #[test]
    fn replay_matches_live_observation() {
        use esafe_logic::FrameTrace;
        let frames = [(true, true), (false, false), (true, false), (false, true)];
        // Record the observed frames as a live run would.
        let t = table();
        let mut shared = MonitorSuite::new(t.clone());
        shared
            .add_goal("G", Location::new("System"), parse("g").unwrap())
            .unwrap();
        shared
            .add_subgoal("G.A", "G", Location::new("Sub"), parse("s").unwrap())
            .unwrap();
        let template = shared.template();
        let mut trace = FrameTrace::new(&t, 1);
        let mut frame = t.frame();
        for &(g, s) in &frames {
            frame.set_named("g", g);
            frame.set_named("s", s);
            trace.push(&frame);
        }
        let live = outcome(template.instantiate(), &frames);
        // Offline: replay the recording through a fresh fused suite —
        // dirty it first to prove replay resets.
        let mut offline = template.instantiate();
        observe(&mut offline, false, false);
        offline.replay(&trace).unwrap();
        let hits = offline.correlate(0).for_goal("G").unwrap().hits;
        let violations: Vec<(String, usize)> = offline
            .take_violations()
            .into_iter()
            .map(|(id, v)| (id, v.len()))
            .collect();
        assert_eq!((violations, hits), live);
    }

    /// Drives `lanes` (one frame sequence per lane, possibly of
    /// different lengths — shorter lanes retire early) through one
    /// batched suite of `goals`, asserting each lane's correlation and
    /// drained violations against `eval` of its own frames.
    fn assert_batch_lanes_match_eval(goals: &Goals, lanes: &[&[(bool, bool)]]) {
        let template = author(goals).template();
        let t = template.table().clone();
        let width = lanes.len();
        let mut batch = template.instantiate_batch(width);
        let mut slab = FrameBatch::new(&t, width);
        let (g_id, s_id) = (t.id("g").unwrap(), t.id("s").unwrap());
        let max_len = lanes.iter().map(|l| l.len()).max().unwrap();
        for step in 0..max_len {
            for (l, lane) in lanes.iter().enumerate() {
                match lane.get(step) {
                    Some(&(g, s)) => {
                        slab.set(g_id, l, g);
                        slab.set(s_id, l, s);
                    }
                    None => batch.retire_lane(l),
                }
            }
            if batch.active_lanes() == 0 {
                break;
            }
            batch.observe_slab(&slab).unwrap();
        }
        batch.finish();
        for (l, lane) in lanes.iter().enumerate() {
            assert_lane_matches_eval(&mut batch, l, goals, lane, 0);
        }
    }

    #[test]
    fn batched_suite_matches_scalar_suites_per_lane() {
        // Uniform lanes.
        assert_batch_lanes_match_eval(
            SUITE,
            &[
                &[(true, true), (false, false), (true, false)],
                &[(false, true), (true, true), (false, false)],
                &[(true, true), (true, true), (true, true)],
            ],
        );
        // Ragged lanes: lane 1 retires after one tick, lane 2 after two
        // — the early-termination-inside-a-stripe shape. Lane 0's
        // intervals must be those of its own frames regardless.
        assert_batch_lanes_match_eval(
            SUITE,
            &[
                &[(true, true), (false, false), (true, false), (false, true)],
                &[(false, false)],
                &[(true, false), (false, true)],
            ],
        );
    }

    #[test]
    fn batched_suite_reset_behaves_like_fresh() {
        let template = suite().template();
        let mut batch = template.instantiate_batch(2);
        let t = template.table().clone();
        let mut slab = FrameBatch::new(&t, 2);
        let set_all = |slab: &mut FrameBatch, v: bool| {
            for lane in 0..2 {
                slab.set(t.id("g").unwrap(), lane, v);
                slab.set(t.id("s").unwrap(), lane, v);
            }
        };
        set_all(&mut slab, false);
        batch.observe_slab(&slab).unwrap();
        batch.retire_lane(0);
        batch.finish();
        assert_eq!(batch.take_violations_lane(0).len(), 2);
        batch.reset();
        assert_eq!(batch.active_lanes(), 2);
        set_all(&mut slab, true);
        batch.observe_slab(&slab).unwrap();
        batch.finish();
        assert!(batch.take_violations_lane(0).is_empty());
        assert!(batch.take_violations_lane(1).is_empty());
    }

    #[test]
    fn reclaimed_lane_behaves_like_a_fresh_lane() {
        let template = suite().template();
        let t = template.table().clone();
        let mut batch = template.instantiate_batch(2);
        batch.set_generation(3);
        assert_eq!(batch.generation(), 3);
        let (g, s) = (t.id("g").unwrap(), t.id("s").unwrap());
        let mut slab = FrameBatch::new(&t, 2);
        // First occupant of lane 0 violates both monitors, then leaves.
        slab.set(g, 0, false);
        slab.set(s, 0, false);
        slab.set(g, 1, true);
        slab.set(s, 1, true);
        batch.observe_slab(&slab).unwrap();
        batch.retire_lane(0);
        assert!(!batch.drained(), "lane 1 is still live");
        assert_eq!(batch.take_violations_lane(0).len(), 2);

        // Second occupant reclaims lane 0 and runs clean: it must see no
        // residue — no stale intervals, a zeroed tick clock, all-true
        // previous verdicts (so staying true records nothing).
        batch.reclaim_lane(0);
        assert!(batch.is_active(0));
        assert_eq!(batch.steps_observed(0), 0);
        slab.set(g, 0, true);
        slab.set(s, 0, true);
        batch.observe_slab(&slab).unwrap();
        batch.finish();
        assert!(batch.drained());
        assert!(batch.take_violations_lane(0).is_empty());
        // Lane 1 observed both passes without interruption.
        assert_eq!(batch.steps_observed(1), 2);
        assert!(batch.take_violations_lane(1).is_empty());
    }

    #[test]
    fn masked_observe_across_words_matches_scalar_suites_per_lane() {
        // 130 lanes: two full 64-lane words and a two-lane tail.
        const LANES: usize = 130;
        const GOALS: &Goals = &[
            ("G", None, "g || prev(s)"),
            ("G.A", Some("G"), "s"),
            ("G.B", Some("G"), "held_for(g, 2ticks) -> once(s)"),
        ];
        let template = author(GOALS).template();
        let t = template.table().clone();
        let (g, s) = (t.id("g").unwrap(), t.id("s").unwrap());
        let mut batch = template.instantiate_batch(LANES);
        let mut slab = FrameBatch::new(&t, LANES);
        // Each lane's live frames since its run began: what `eval` judges.
        let mut runs: Vec<Vec<(bool, bool)>> = vec![Vec::new(); LANES];
        let mut seed = 0x5eed_u64;
        let mut next = move || {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for _ in 0..80 {
            let mut live = vec![false; LANES];
            for (l, live) in live.iter_mut().enumerate() {
                let r = next();
                if !batch.is_active(l) {
                    // A retired lane is sometimes reclaimed for a new run.
                    if r % 4 == 0 {
                        batch.reclaim_lane(l);
                    }
                    continue;
                }
                match r % 16 {
                    0 => {
                        batch.retire_lane(l);
                        // Checked and drained: the lane's run is over.
                        assert_lane_matches_eval(&mut batch, l, GOALS, &runs[l], 2);
                        runs[l].clear();
                    }
                    // Sitting out, sometimes with its slots unset.
                    1 | 2 => slab.clear_lane(l),
                    3 | 4 => {}
                    _ => {
                        let (gv, sv) = ((r >> 8) % 3 != 0, (r >> 12) % 4 != 0);
                        slab.set(g, l, gv);
                        slab.set(s, l, sv);
                        runs[l].push((gv, sv));
                        *live = true;
                    }
                }
            }
            batch.observe_slab_masked(&slab, &live).unwrap();
        }
        batch.finish();
        for (l, run) in runs.iter().enumerate() {
            assert_lane_matches_eval(&mut batch, l, GOALS, run, 2);
        }
    }

    #[test]
    #[should_panic(expected = "must be retired")]
    fn reclaiming_an_active_lane_panics() {
        let template = suite().template();
        let mut batch = template.instantiate_batch(1);
        batch.reclaim_lane(0);
    }

    #[test]
    fn batched_observe_error_names_lane_and_monitor() {
        let template = suite().template();
        let t = template.table().clone();
        let mut batch = template.instantiate_batch(2);
        let mut slab = FrameBatch::new(&t, 2);
        slab.set(t.id("g").unwrap(), 0, true);
        slab.set(t.id("s").unwrap(), 0, true);
        let err = batch.observe_slab(&slab).unwrap_err();
        assert_eq!(err.lane, 1);
        assert_eq!(err.monitor_id, "G");
        assert!(err.to_string().contains("lane #1"));
        assert_eq!(err.clone().into_monitor_error().monitor_id, "G");
    }

    #[test]
    #[should_panic(expected = "cannot add monitors to a fused suite")]
    fn fused_suites_reject_incremental_authoring() {
        let mut fused = suite().template().instantiate();
        let _ = fused.add_goal("H", Location::new("System"), parse("g").unwrap());
    }

    #[test]
    #[should_panic(expected = "cannot add monitors to a fused suite")]
    fn authored_suites_reject_goals_after_their_first_observe() {
        let mut m = suite();
        observe(&mut m, true, true);
        let _ = m.add_goal("H", Location::new("System"), parse("g").unwrap());
    }

    #[test]
    fn unset_signals_in_a_decided_branch_still_error() {
        // `g` is true, so `g || s` is decided without `s` — but every
        // node is evaluated, so the unset `s` fails the observe.
        let mut m = MonitorSuite::new(table());
        m.add_goal("G", Location::new("System"), parse("g || s").unwrap())
            .unwrap();
        let mut f = m.table().clone().frame();
        f.set_named("g", true);
        let err = m.observe(&f).unwrap_err();
        assert_eq!(err.monitor_id, "G");
        assert!(matches!(err.source, EvalError::MissingVar { ref name, .. } if name == "s"));
    }

    #[test]
    fn reset_suite_behaves_like_a_fresh_instance() {
        let template = suite().template();
        let frames = [(false, true), (true, true), (true, false)];
        let mut pooled = template.instantiate();
        // Dirty the pooled suite with an unrelated run, then reset.
        for &(g, s) in &[(false, false), (false, false)] {
            observe(&mut pooled, g, s);
        }
        pooled.finish();
        pooled.reset();
        let reused = outcome(pooled, &frames);
        assert_eq!(reused, outcome(template.instantiate(), &frames));
    }

    #[test]
    fn observing_after_finish_records_nothing_until_reset() {
        let mut m = suite();
        let empty = m.table().clone().frame();
        observe(&mut m, false, true);
        m.finish();
        // The run is over: a later frame opens no interval, and a frame
        // that leaves every signal unset raises no error.
        observe(&mut m, false, false);
        assert!(m.observe(&empty).is_ok());
        m.finish();
        assert_eq!(m.violations("G").unwrap(), [ViolationInterval::new(0, 1)]);
        assert!(m.violations("G.A").unwrap().is_empty());
        // A reset starts a new run, counted from tick 0.
        m.reset();
        observe(&mut m, true, false);
        m.finish();
        assert!(m.violations("G").unwrap().is_empty());
        assert_eq!(m.violations("G.A").unwrap(), [ViolationInterval::new(0, 1)]);
        // A new run checks its frames again.
        m.reset();
        assert_eq!(m.observe(&empty).unwrap_err().monitor_id, "G");
    }

    #[test]
    #[should_panic(expected = "must be added before")]
    fn subgoal_requires_parent() {
        let mut m = MonitorSuite::new(table());
        m.add_subgoal("X.A", "X", Location::new("L"), parse("p").unwrap())
            .unwrap();
    }

    #[test]
    fn observe_error_names_the_monitor() {
        let mut m = suite();
        let empty = m.table().clone().frame();
        let err = m.observe(&empty).unwrap_err();
        assert_eq!(err.monitor_id, "G");
        assert!(err.to_string().contains("monitor `G`"));
    }

    #[test]
    fn unknown_signal_fails_at_add_time() {
        let mut m = MonitorSuite::new(table());
        assert!(matches!(
            m.add_goal("X", Location::new("L"), parse("not_declared").unwrap()),
            Err(EvalError::UnknownSignal { .. })
        ));
        assert_eq!(
            m.add_goal(
                "Y",
                Location::new("L"),
                parse("g && missing < 1.0").unwrap()
            ),
            Err(EvalError::UnknownSignal {
                name: "missing".into()
            })
        );
        assert!(matches!(
            m.add_goal(
                "Z",
                Location::new("L"),
                parse("g -> eventually(s)").unwrap()
            ),
            Err(EvalError::FutureOperator { .. })
        ));
        assert!(m.goal_ids().is_empty(), "rejected goals are not added");
    }
}
