//! Experiment sweeps over a grid of configurations.
//!
//! One driver runs every sweep (see [`batch`](crate::batch)): it builds
//! each cell's substrate, groups same-template cells into lock-step
//! stripes of up to `width` lanes (a cell that stripes alone runs as a
//! one-lane stripe), runs the stripes in parallel, and folds each
//! finished cell into one of three shapes:
//!
//! * [`Sweep::run`] — every [`RunReport`], in cell
//!   order: the shape for tests, goldens, and callers that need per-run
//!   detail (violation tables); memory is O(cells);
//! * [`Sweep::run_aggregate`] — a streaming [`SweepAggregate`]: each
//!   worker folds the cells it finishes into a partial
//!   ([`AggregateBuilder`]), merged once at join, so memory is
//!   O(workers × width) and grid size is bounded by time, not RAM;
//! * [`Sweep::run_aggregate_checkpointed`] — the streaming aggregate
//!   plus one [`SweepJournal`] append per finished cell, so an
//!   interrupted sweep resumes bit-identically.
//!
//! Every cell's report is bit-identical to running that cell alone
//! through [`Experiment`](crate::Experiment) with its [`cell_seed`] —
//! the reference the sweep tests take their expected reports from —
//! and every aggregate total is a commutative sum, so the three shapes
//! agree. The recording sweeps
//! ([`Sweep::run_aggregate_recorded`], [`Sweep::run_aggregate_rescored`])
//! live with the trace corpus and run their cells serially.

use crate::batch::{Failure, Finished};
use crate::context::SuiteProvenance;
use crate::experiment::{ExperimentConfig, ExperimentError, RunReport};
use crate::journal::{CellDelta, JournalError, JournalRecord, SweepHeader, SweepJournal};
use crate::substrate::Substrate;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Deterministic per-cell seed: a splitmix64 mix of the sweep's base
/// seed and the cell index, so cell N gets the same seed no matter how
/// many threads run the sweep or in what order cells complete.
pub fn cell_seed(base: u64, index: usize) -> u64 {
    let mut z = base
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((index as u64).wrapping_mul(0xd1b5_4a32_d192_ed03));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic seed for retry attempt `attempt` of a cell. Attempt 0
/// is exactly [`cell_seed`], so a sweep with retries disabled (or whose
/// cells never fail) is bit-identical to one that never heard of
/// retries; reseeded attempts mix the attempt number into the base so
/// every retry is itself reproducible.
pub fn retry_seed(base: u64, index: usize, attempt: u32) -> u64 {
    if attempt == 0 {
        cell_seed(base, index)
    } else {
        cell_seed(
            base ^ u64::from(attempt).wrapping_mul(0xa076_1d64_78bd_642f),
            index,
        )
    }
}

/// Why a quarantined cell failed — the `reason` leg of a
/// [`CellFailure`]'s provenance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureReason {
    /// Building or running the cell panicked. The payload is rendered to
    /// text (`&str`/`String` payloads verbatim) so provenance survives
    /// serialization.
    Panic {
        /// The panic payload's message.
        message: String,
    },
    /// The run returned an [`ExperimentError`] (compile failure, missing
    /// signal, …), rendered via `Display`.
    Error {
        /// The error's rendering.
        message: String,
    },
    /// The quarantine's tick-budget watchdog fired: the run was still
    /// live after `budget` ticks. Deliberately *not* retried — the
    /// harness is deterministic, so a runaway run stays runaway.
    TickBudgetExceeded {
        /// The budget that was exceeded, in ticks.
        budget: u64,
    },
}

/// Full provenance of one quarantined cell: which cell, under which
/// seed, after how many retries, and why. Carried in
/// [`SweepAggregate::quarantined`] / [`SweepReport::quarantined`] so a
/// fleet-scale sweep reports its casualties instead of aborting on them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellFailure {
    /// The cell's index in the sweep's grid.
    pub cell: usize,
    /// The seed of the final (failing) attempt.
    pub seed: u64,
    /// Retry attempts consumed before quarantining (0 = failed on the
    /// first try).
    pub retries: u32,
    /// What went wrong on the final attempt.
    pub reason: FailureReason,
}

/// Bounded retry policy for quarantined cells. The default retries
/// nothing: a failure is quarantined on first sight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Extra attempts after the first failure (0 disables retries).
    pub attempts: u32,
    /// Whether each retry derives a fresh deterministic seed
    /// ([`retry_seed`]) instead of re-running the identical attempt.
    pub reseed: bool,
}

/// Fault-isolation policy for a sweep ([`Sweep::with_quarantine`]).
///
/// With a quarantine installed, a panicking or erroring cell no longer
/// aborts the sweep: the failure is caught (`catch_unwind` around the
/// cell), optionally retried per [`RetryPolicy`], and finally recorded
/// as a typed [`CellFailure`] in the aggregate while every other cell's
/// report stays bit-identical to an all-healthy run. The default policy
/// isolates faults but sets no tick budget and no retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Quarantine {
    /// Per-cell watchdog: a run still live after this many ticks is
    /// quarantined as [`FailureReason::TickBudgetExceeded`]. `None`
    /// disarms the watchdog.
    pub tick_budget: Option<u64>,
    /// Retry policy for panics and errors (tick-budget trips are
    /// deterministic and never retried).
    pub retry: RetryPolicy,
}

/// A grid of experiment cells to fan across cores.
///
/// A cell is any description of one run — a `(Scenario, DefectSet)`
/// pair, a fault configuration, a seed index. The sweep builds a
/// [`Substrate`] per cell via the caller's factory and runs each under
/// the shared [`ExperimentConfig`]; every cell's report is
/// bit-identical to running that cell alone through
/// [`Experiment`](crate::Experiment) with its [`cell_seed`].
#[derive(Debug, Clone)]
pub struct Sweep<C> {
    pub(crate) cells: Vec<C>,
    pub(crate) config: ExperimentConfig,
    pub(crate) base_seed: u64,
    pub(crate) quarantine: Option<Quarantine>,
}

impl<C: Sync> Sweep<C> {
    /// Creates a sweep over the given cells.
    pub fn new(cells: Vec<C>) -> Self {
        Sweep {
            cells,
            config: ExperimentConfig::default(),
            base_seed: 0,
            quarantine: None,
        }
    }

    /// Replaces the per-run timing policy.
    pub fn with_config(mut self, config: ExperimentConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the base seed mixed into every cell's deterministic seed.
    pub fn with_base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Installs a fault-isolation policy: failing cells are quarantined
    /// as [`CellFailure`]s in the result instead of aborting the sweep.
    /// Off by default — without a quarantine every run shape keeps the
    /// documented earliest-cell-error semantics unchanged.
    pub fn with_quarantine(mut self, quarantine: Quarantine) -> Self {
        self.quarantine = Some(quarantine);
        self
    }

    /// The sweep's cells, in run order.
    pub fn cells(&self) -> &[C] {
        &self.cells
    }

    /// Runs every cell and keeps every report, in cell order, plus the
    /// sweep's [`SweepStats`] — how each run obtained its suite.
    ///
    /// `build` receives each cell and its deterministic seed
    /// ([`cell_seed`]) and returns the substrate to run; cells sharing
    /// a suite template tick in lock-step stripes of up to `width`
    /// lanes (see [`batch`](crate::batch)). Memory is O(cells): this is
    /// the shape for tests, goldens, and callers that need per-run
    /// detail (violation tables). Sweep cells record no frames, so their
    /// reports carry no figure series.
    ///
    /// # Errors
    ///
    /// Without a quarantine, returns the earliest failing cell's
    /// [`ExperimentError`], by cell order, regardless of scheduling.
    pub fn run<S, F>(
        &self,
        build: F,
        width: usize,
    ) -> Result<(SweepReport, SweepStats), ExperimentError>
    where
        S: Substrate + Sync,
        F: Fn(&C, u64) -> S + Sync,
    {
        let mut finished = self.drive(
            &build,
            width,
            self.quarantine,
            |_| true,
            |mut all: Vec<Finished>, cell| {
                all.push(cell);
                all
            },
            |mut a, b| {
                a.extend(b);
                a
            },
        );
        finished.sort_unstable_by_key(|f| f.cell);
        let mut report = SweepReport::default();
        let mut stats = SweepStats::default();
        for f in finished {
            report.retries += f.retries as usize;
            match f.result {
                Ok((run, provenance)) => {
                    report.runs.push(run);
                    stats.absorb(provenance);
                }
                Err(Failure::Quarantined(failure)) => report.quarantined.push(failure),
                Err(Failure::Abort(e)) => return Err(e),
            }
        }
        Ok((report, stats))
    }

    /// Runs every cell as a **streaming reduction**: each worker folds
    /// the cells it finishes into a partial aggregate the moment their
    /// stripe completes, and the partials merge at join. No report
    /// outlives its stripe, so memory is O(workers × width) regardless
    /// of grid size — the engine behind `repro --grid` and
    /// `repro --mega-grid`. The aggregate equals
    /// `run(..).aggregate()` (every total is a commutative sum).
    ///
    /// # Errors
    ///
    /// Without a quarantine, returns the earliest failing cell's
    /// [`ExperimentError`], by cell order — identical to [`Sweep::run`].
    pub fn run_aggregate<S, F>(
        &self,
        build: F,
        width: usize,
    ) -> Result<(SweepAggregate, SweepStats), ExperimentError>
    where
        S: Substrate + Sync,
        F: Fn(&C, u64) -> S + Sync,
    {
        self.drive(
            &build,
            width,
            self.quarantine,
            |_| true,
            Partial::absorbed,
            Partial::merged,
        )
        .finish()
    }

    /// [`Sweep::run_aggregate`] with durable progress: every finished
    /// cell (healthy or quarantined) is appended to `journal` as it
    /// completes, and cells the journal already marks done are
    /// **skipped** — their contributions replay from the journal's
    /// records instead of re-running. Interrupt the process at any
    /// point, reopen the journal ([`SweepJournal::open`] — torn tails
    /// are truncated), and call this again: the final aggregate is
    /// bit-identical to an uninterrupted run, because per-cell seeds
    /// are deterministic ([`cell_seed`]) and every aggregate total is a
    /// commutative sum over per-cell deltas.
    ///
    /// Fault isolation is always on here (the sweep's [`Quarantine`] if
    /// installed, else the default policy): a sweep durable enough to
    /// checkpoint should not abort on one bad cell. The returned
    /// [`SweepStats`] covers only the cells run by *this* call —
    /// resumed cells are not counted.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError::Journal`] if the journal does not
    /// describe this sweep (seed, cell count, or timing policy
    /// mismatch) or on journal I/O failure; the first failed append
    /// latches, and the remaining cells still run without being
    /// journaled.
    pub fn run_aggregate_checkpointed<S, F>(
        &self,
        build: F,
        width: usize,
        journal: &mut SweepJournal,
    ) -> Result<(SweepAggregate, SweepStats), ExperimentError>
    where
        S: Substrate + Sync,
        F: Fn(&C, u64) -> S + Sync,
    {
        let sweep = SweepHeader {
            base_seed: self.base_seed,
            cells: self.cells.len(),
            config: self.config,
        };
        if journal.header() != sweep {
            let journal = journal.header();
            return Err(JournalError::OtherSweep { journal, sweep }.into());
        }
        let pending: Vec<bool> = (0..self.cells.len())
            .map(|i| !journal.is_completed(i))
            .collect();
        // Workers funnel records through one mutex; the first error
        // latches and surfaces after the join.
        let sink = Mutex::new((journal, None::<ExperimentError>));
        let stats = self.drive(
            &build,
            width,
            Some(self.quarantine.unwrap_or_default()),
            |i| pending[i],
            |mut stats: SweepStats, f: Finished| {
                let record = match f.result {
                    Ok((report, provenance)) => {
                        stats.absorb(provenance);
                        Ok(JournalRecord::Completed(CellDelta::from_report(
                            f.cell, f.retries, &report,
                        )))
                    }
                    Err(Failure::Quarantined(failure)) => Ok(JournalRecord::Quarantined(failure)),
                    Err(Failure::Abort(e)) => Err(e),
                };
                let mut guard = sink.lock().unwrap_or_else(|e| e.into_inner());
                if guard.1.is_none() {
                    if let Err(e) = record
                        .and_then(|record| guard.0.append(record).map_err(ExperimentError::Journal))
                    {
                        guard.1 = Some(e);
                    }
                }
                stats
            },
            |mut a, b| {
                a.merge(b);
                a
            },
        );
        let (journal, error) = sink.into_inner().unwrap_or_else(|e| e.into_inner());
        if let Some(e) = error {
            return Err(e);
        }
        journal.sync()?;
        Ok((journal.partial().finish(), stats))
    }
}

/// One worker's streaming fold state: the partial aggregate, the suite
/// counters, and the earliest failing cell seen so far. Merging partials
/// is commutative, so the reduction order across workers cannot change
/// the result.
#[derive(Debug, Default)]
struct Partial {
    aggregate: AggregateBuilder,
    stats: SweepStats,
    error: Option<(usize, ExperimentError)>,
}

impl Partial {
    /// Folds one finished cell in: healthy reports and quarantined
    /// failures land in the aggregate (only healthy reports count in
    /// the suite counters), and an unquarantined error is kept if it is
    /// the earliest by cell index.
    fn absorbed(mut self, f: Finished) -> Partial {
        self.aggregate.add_retries(f.retries as usize);
        match f.result {
            Ok((report, provenance)) => {
                self.stats.absorb(provenance);
                self.aggregate.absorb(&report);
            }
            Err(Failure::Quarantined(failure)) => self.aggregate.absorb_failure(failure),
            Err(Failure::Abort(e)) => {
                if self.error.as_ref().is_none_or(|(j, _)| f.cell < *j) {
                    self.error = Some((f.cell, e));
                }
            }
        }
        self
    }

    /// Merges two workers' partials.
    fn merged(mut self, other: Partial) -> Partial {
        self.aggregate.merge(other.aggregate);
        self.stats.merge(other.stats);
        self.error = match (self.error, other.error) {
            (Some(a), Some(b)) => Some(if a.0 <= b.0 { a } else { b }),
            (a, b) => a.or(b),
        };
        self
    }

    fn finish(self) -> Result<(SweepAggregate, SweepStats), ExperimentError> {
        match self.error {
            Some((_, e)) => Err(e),
            None => Ok((self.aggregate.finish(), self.stats)),
        }
    }
}

/// Streaming accumulator for [`SweepAggregate`]: absorb reports one at a
/// time, merge accumulators across workers, then
/// [`finish`](AggregateBuilder::finish). Every operation is a
/// commutative sum, so any absorb/merge order yields the same aggregate
/// — the property that makes the streaming sweep bit-identical to
/// collect-then-aggregate.
#[derive(Debug, Clone, Default)]
pub struct AggregateBuilder {
    runs: usize,
    terminated_early: usize,
    terminal_events: usize,
    hits: usize,
    false_negatives: usize,
    false_positives: usize,
    violations_by_monitor: BTreeMap<String, usize>,
    quarantined: Vec<CellFailure>,
    retries: usize,
}

impl AggregateBuilder {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one run's totals in. The report is only read — callers
    /// drop it immediately after, which is the point: nothing of the
    /// run outlives this call.
    pub fn absorb(&mut self, run: &RunReport) {
        self.runs += 1;
        self.terminated_early += usize::from(run.terminated_early);
        self.terminal_events += usize::from(run.terminal_event.is_some());
        for (id, intervals) in &run.violations {
            *self.violations_by_monitor.entry(id.clone()).or_default() += intervals.len();
        }
        for row in &run.correlation.rows {
            self.hits += row.hits;
            self.false_negatives += row.false_negatives;
            self.false_positives += row.false_positives;
        }
    }

    /// Folds one journaled cell delta in — the checkpoint-resume
    /// mirror of [`AggregateBuilder::absorb`]: replaying a
    /// [`CellDelta`] extracted from a report
    /// adds exactly what absorbing the report itself would have.
    pub fn absorb_delta(&mut self, delta: &CellDelta) {
        self.runs += 1;
        self.terminated_early += usize::from(delta.terminated_early);
        self.terminal_events += usize::from(delta.terminal_event);
        self.hits += delta.hits as usize;
        self.false_negatives += delta.false_negatives as usize;
        self.false_positives += delta.false_positives as usize;
        for (id, count) in &delta.violations {
            *self.violations_by_monitor.entry(id.clone()).or_default() += *count as usize;
        }
        self.retries += delta.retries as usize;
    }

    /// Records one quarantined cell's provenance.
    pub fn absorb_failure(&mut self, failure: CellFailure) {
        self.quarantined.push(failure);
    }

    /// Adds retry attempts consumed by cells (successful or not).
    pub fn add_retries(&mut self, retries: usize) {
        self.retries += retries;
    }

    /// Merges another accumulator in (the sweep's join step).
    pub fn merge(&mut self, other: AggregateBuilder) {
        self.runs += other.runs;
        self.terminated_early += other.terminated_early;
        self.terminal_events += other.terminal_events;
        self.hits += other.hits;
        self.false_negatives += other.false_negatives;
        self.false_positives += other.false_positives;
        for (id, count) in other.violations_by_monitor {
            *self.violations_by_monitor.entry(id).or_default() += count;
        }
        self.quarantined.extend(other.quarantined);
        self.retries += other.retries;
    }

    /// The order-independent totals (per-monitor counts sorted by id,
    /// quarantined cells sorted by index).
    pub fn finish(self) -> SweepAggregate {
        let mut quarantined = self.quarantined;
        quarantined.sort_by_key(|f| f.cell);
        SweepAggregate {
            runs: self.runs,
            terminated_early: self.terminated_early,
            terminal_events: self.terminal_events,
            hits: self.hits,
            false_negatives: self.false_negatives,
            false_positives: self.false_positives,
            violations_by_monitor: self.violations_by_monitor.into_iter().collect(),
            quarantined,
            retries: self.retries,
        }
    }
}

/// The amortization counters of one sweep: how each healthy run
/// obtained its monitor suite, summed across workers. Every striped
/// lane counts as one instantiated suite. Sweeps keep no clocks; the
/// repository's benchmark (`perfbench/`) times them from outside.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Runs whose suite was compiled from scratch (no template).
    pub suites_compiled: usize,
    /// Runs whose suite was instantiated from a [`SuiteTemplate`]
    /// (every lane of a templated stripe, one-lane stripes included).
    ///
    /// [`SuiteTemplate`]: esafe_monitor::SuiteTemplate
    pub suites_instantiated: usize,
    /// Runs that reset and reused a pooled suite (the serial recording
    /// sweeps, which run every cell on one [`RunContext`]).
    ///
    /// [`RunContext`]: crate::RunContext
    pub suites_reused: usize,
}

impl SweepStats {
    /// Counts one run's suite.
    pub(crate) fn absorb(&mut self, provenance: SuiteProvenance) {
        match provenance {
            SuiteProvenance::Compiled => self.suites_compiled += 1,
            SuiteProvenance::Instantiated => self.suites_instantiated += 1,
            SuiteProvenance::Reused => self.suites_reused += 1,
        }
    }

    /// Merges another sweep's (or worker's) totals in.
    pub fn merge(&mut self, other: SweepStats) {
        self.suites_compiled += other.suites_compiled;
        self.suites_instantiated += other.suites_instantiated;
        self.suites_reused += other.suites_reused;
    }

    /// Number of runs folded in.
    pub fn runs(&self) -> usize {
        self.suites_compiled + self.suites_instantiated + self.suites_reused
    }
}

/// All reports of a sweep, in cell order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// One report per healthy cell; quarantined cells are absent.
    pub runs: Vec<RunReport>,
    /// Cells quarantined by fault isolation, sorted by cell index.
    /// Empty unless the sweep ran [`Sweep::with_quarantine`].
    pub quarantined: Vec<CellFailure>,
    /// Retry attempts consumed across all cells.
    pub retries: usize,
}

impl SweepReport {
    /// The report for a cell label, if present.
    pub fn for_label(&self, label: &str) -> Option<&RunReport> {
        self.runs.iter().find(|r| r.label == label)
    }

    /// Aggregates the sweep into order-independent totals: every count is
    /// a commutative sum and per-monitor totals are keyed (sorted) by
    /// monitor id, so any execution order yields the same aggregate.
    /// (Same accumulator as the streaming [`Sweep::run_aggregate`] path,
    /// so collect-then-aggregate and streaming agree by construction.)
    pub fn aggregate(&self) -> SweepAggregate {
        let mut builder = AggregateBuilder::new();
        for run in &self.runs {
            builder.absorb(run);
        }
        for failure in &self.quarantined {
            builder.absorb_failure(failure.clone());
        }
        builder.add_retries(self.retries);
        builder.finish()
    }
}

/// Order-independent totals of a sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepAggregate {
    /// Number of runs aggregated.
    pub runs: usize,
    /// Runs that aborted before their schedule.
    pub terminated_early: usize,
    /// Runs that hit a terminal event.
    pub terminal_events: usize,
    /// Total hits across all runs and goals.
    pub hits: usize,
    /// Total false negatives (residual emergence).
    pub false_negatives: usize,
    /// Total false positives (restriction or redundancy).
    pub false_positives: usize,
    /// Violation-interval counts per monitor id, sorted by id.
    pub violations_by_monitor: Vec<(String, usize)>,
    /// Cells quarantined by fault isolation, sorted by cell index, with
    /// full provenance. Empty unless the sweep ran
    /// [`Sweep::with_quarantine`].
    pub quarantined: Vec<CellFailure>,
    /// Retry attempts consumed across all cells.
    pub retries: usize,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{Experiment, DEFAULT_BATCH_WIDTH};
    use esafe_logic::{parse, EvalError, SignalId, SignalTable};
    use esafe_monitor::{Location, MonitorSuite};
    use esafe_sim::{LaneSubsystem, LaneVec, SignalRead, SignalWrite, SimTime, SimulatorBatch};
    use std::sync::Arc;

    /// Emits `seed % cap` every tick; the monitor requires `y < 3`.
    struct Emit {
        y: SignalId,
        value: f64,
    }

    impl LaneSubsystem for Emit {
        fn name(&self) -> &str {
            "emit"
        }
        fn step_lane<R: SignalRead, W: SignalWrite>(
            &mut self,
            _t: &SimTime,
            _prev: &R,
            next: &mut W,
        ) {
            next.set(self.y, self.value);
        }
    }

    struct EmitSubstrate {
        value: f64,
        label: String,
        table: Arc<SignalTable>,
        y: SignalId,
    }

    impl Substrate for EmitSubstrate {
        fn name(&self) -> &str {
            "emit"
        }
        fn label(&self) -> String {
            self.label.clone()
        }
        fn duration_ms(&self) -> u64 {
            20
        }
        fn signal_table(&self) -> &Arc<SignalTable> {
            &self.table
        }
        fn build_simulator_batch(group: &[&Self]) -> SimulatorBatch {
            let mut sim = SimulatorBatch::new(1, &group[0].table, group.len());
            sim.add(LaneVec::from_fn(group.len(), |l| Emit {
                y: group[l].y,
                value: group[l].value,
            }));
            for (l, sub) in group.iter().enumerate() {
                sim.init_lane_with(l, |f| f.set(sub.y, 0.0));
            }
            sim
        }
        fn build_monitors(&self) -> Result<MonitorSuite, EvalError> {
            let mut suite = MonitorSuite::new(self.table.clone());
            suite.add_goal(
                "y-bound",
                Location::new("Emit"),
                parse("y < 3.0").expect("valid formula"),
            )?;
            Ok(suite)
        }
    }

    fn build(cell: &u64, seed: u64) -> EmitSubstrate {
        let mut b = SignalTable::builder();
        let y = b.real("y");
        EmitSubstrate {
            value: (cell % 5) as f64,
            label: format!("cell-{cell}-seed-{seed:016x}"),
            table: b.finish(),
            y,
        }
    }

    /// The reference every sweep test compares against: each cell run
    /// alone through [`Experiment`] under the sweep's seed and the
    /// default config.
    pub(crate) fn per_cell<C, S: Substrate>(
        cells: &[C],
        base: u64,
        build: impl Fn(&C, u64) -> S,
    ) -> Result<Vec<RunReport>, ExperimentError> {
        cells
            .iter()
            .enumerate()
            .map(|(i, cell)| Experiment::new(&build(cell, cell_seed(base, i))).run())
            .collect()
    }

    pub(crate) fn aggregate_of(runs: Vec<RunReport>) -> SweepAggregate {
        SweepReport {
            runs,
            ..SweepReport::default()
        }
        .aggregate()
    }

    #[test]
    fn sweep_matches_per_cell_experiments_exactly() {
        let cells: Vec<u64> = (0..16).collect();
        let expected = per_cell(&cells, 99, build).unwrap();
        let sweep = Sweep::new(cells).with_base_seed(99);
        for width in [1, 4] {
            let (report, _) = sweep.run(build, width).unwrap();
            assert_eq!(report.runs, expected, "width {width}");
            assert!(report.quarantined.is_empty());
            assert_eq!(report.aggregate(), aggregate_of(expected.clone()));
        }
    }

    #[test]
    fn cell_seeds_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..32).map(|i| cell_seed(7, i)).collect();
        let b: Vec<u64> = (0..32).map(|i| cell_seed(7, i)).collect();
        assert_eq!(a, b);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len(), "per-cell seeds must not collide");
        assert_ne!(cell_seed(7, 0), cell_seed(8, 0), "base seed must matter");
    }

    #[test]
    fn aggregate_counts_are_order_independent() {
        let sweep = Sweep::new(vec![1u64, 4, 2, 3]);
        let (report, _) = sweep.run(build, DEFAULT_BATCH_WIDTH).unwrap();
        let mut reversed = report.clone();
        reversed.runs.reverse();
        assert_eq!(report.aggregate(), reversed.aggregate());
        // Cells 3 and 4 emit y ≥ 3: two runs violate, twenty ticks each
        // merge into one interval per run.
        let agg = report.aggregate();
        assert_eq!(agg.runs, 4);
        assert_eq!(agg.violations_by_monitor, vec![("y-bound".to_string(), 2)]);
        assert_eq!(agg.false_negatives, 2, "no subgoals: violations are FNs");
    }

    #[test]
    fn timed_runs_report_stats_and_match_untimed_reports() {
        let cells: Vec<u64> = (0..8).collect();
        let expected = per_cell(&cells, 5, build).unwrap();
        let sweep = Sweep::new(cells).with_base_seed(5);
        let (report, stats) = sweep.run(build, 4).unwrap();
        assert_eq!(report.runs, expected);
        // EmitSubstrate has no template: every suite is compiled.
        assert_eq!(stats.runs(), 8);
        assert_eq!(stats.suites_compiled, 8);
        assert_eq!(stats.suites_instantiated + stats.suites_reused, 0);
        let (_, aggregate_stats) = sweep.run_aggregate(build, 4).unwrap();
        assert_eq!(aggregate_stats.runs(), 8);
        assert_eq!(aggregate_stats.suites_compiled, 8);
    }

    #[test]
    fn streaming_aggregate_matches_collect_all() {
        let cells: Vec<u64> = (0..64).collect();
        let expected = aggregate_of(per_cell(&cells, 13, build).unwrap());
        let sweep = Sweep::new(cells).with_base_seed(13);
        let (collected, collected_stats) = sweep.run(build, 8).unwrap();
        let (streamed, streamed_stats) = sweep.run_aggregate(build, 8).unwrap();
        assert_eq!(streamed, expected);
        assert_eq!(collected.aggregate(), expected);
        assert_eq!(streamed_stats.runs(), 64);
        assert_eq!(collected_stats.runs(), 64);
    }

    #[test]
    fn streaming_aggregate_over_an_empty_sweep_is_empty() {
        let sweep = Sweep::new(Vec::<u64>::new());
        let (agg, stats) = sweep.run_aggregate(build, DEFAULT_BATCH_WIDTH).unwrap();
        assert_eq!(agg, SweepAggregate::default());
        assert_eq!(stats.runs(), 0);
    }

    /// An [`EmitSubstrate`] whose goal suite references a signal the
    /// simulator never sets, so every run fails with a per-cell
    /// `MissingVar` naming its label — for error-ordering tests.
    struct BrokenSubstrate(EmitSubstrate);

    impl Substrate for BrokenSubstrate {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn label(&self) -> String {
            self.0.label()
        }
        fn duration_ms(&self) -> u64 {
            self.0.duration_ms()
        }
        fn signal_table(&self) -> &Arc<SignalTable> {
            self.0.signal_table()
        }
        fn build_simulator_batch(group: &[&Self]) -> SimulatorBatch {
            let inner: Vec<&EmitSubstrate> = group.iter().map(|b| &b.0).collect();
            EmitSubstrate::build_simulator_batch(&inner)
        }
        fn build_monitors(&self) -> Result<MonitorSuite, EvalError> {
            let mut suite = MonitorSuite::new(self.0.table.clone());
            suite.add_goal(
                self.0.label.clone(),
                Location::new("Emit"),
                parse("ghost < 3.0").expect("valid formula"),
            )?;
            Ok(suite)
        }
    }

    fn build_broken(cell: &u64, seed: u64) -> BrokenSubstrate {
        let mut b = SignalTable::builder();
        let y = b.real("y");
        b.real("ghost");
        BrokenSubstrate(EmitSubstrate {
            value: (cell % 5) as f64,
            label: format!("cell-{cell}-seed-{seed:016x}"),
            table: b.finish(),
            y,
        })
    }

    #[test]
    fn streaming_reports_the_earliest_cell_error() {
        // Every cell fails with a MissingVar from a monitor named after
        // its own label; the streaming shape must surface cell 0's
        // error, exactly like the collect-all shape and the per-cell
        // reference, regardless of scheduling. The sweep and the
        // reference run the same loop, so the rendering is also pinned
        // as a literal.
        let cells: Vec<u64> = (0..8).collect();
        let expected = per_cell(&cells, 3, build_broken).unwrap_err();
        let sweep = Sweep::new(cells).with_base_seed(3);
        let collected = sweep.run(build_broken, 4).map(|_| ());
        let streamed = sweep.run_aggregate(build_broken, 4).map(|_| ());
        match (collected, streamed) {
            (Err(a), Err(b)) => {
                assert_eq!(format!("{a}"), CELL_0_ERROR, "collect shape");
                assert_eq!(a, expected);
                assert_eq!(format!("{a}"), format!("{b}"));
            }
            (a, b) => panic!("expected both shapes to fail: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn labels_are_addressable() {
        let sweep = Sweep::new(vec![2u64]);
        let (report, _) = sweep.run(build, 1).unwrap();
        let label = &report.runs[0].label;
        assert!(report.for_label(label).is_some());
        assert!(report.for_label("nope").is_none());
    }

    /// What every broken sweep at base seed 3 reports: cell 0's error,
    /// naming cell 0's monitor.
    const CELL_0_ERROR: &str = "monitoring failed: monitor `cell-0-seed-1d0b14e4db018fed`: \
                                state variable `ghost` missing at step 0";

    /// The golden earliest-cell-error contract, quarantine OFF (the
    /// default): both run shapes, at widths 1 and 4, surface cell 0's
    /// error with the rendering cell 0's own run gives, regardless of
    /// scheduling.
    #[test]
    fn every_run_path_reports_the_earliest_cell_error_identically() {
        let cells: Vec<u64> = (0..8).collect();
        let expected = format!("{}", per_cell(&cells, 3, build_broken).unwrap_err());
        assert_eq!(expected, CELL_0_ERROR);
        let sweep = Sweep::new(cells).with_base_seed(3);
        for width in [1, 4] {
            let renderings = [
                sweep.run(build_broken, width).map(|_| ()).err(),
                sweep.run_aggregate(build_broken, width).map(|_| ()).err(),
            ];
            for (i, rendering) in renderings.into_iter().enumerate() {
                let rendering = format!("{}", rendering.expect("every shape must fail"));
                assert_eq!(rendering, expected, "width {width}, shape {i} diverged");
            }
        }
    }

    /// Panics in cell 2's build, caught: builds the rest normally.
    fn build_panicky(cell: &u64, seed: u64) -> EmitSubstrate {
        if *cell == 2 {
            panic!("cell {cell} exploded during build");
        }
        build(cell, seed)
    }

    #[test]
    fn quarantine_isolates_a_panicking_cell_with_provenance() {
        let base = 31u64;
        let cells: Vec<u64> = (0..6).collect();
        // Every healthy cell's report is bit-identical to its own run;
        // only the panicking cell is missing.
        let mut expected = per_cell(&cells, base, build).unwrap();
        expected.remove(2);
        let guarded = Sweep::new(cells)
            .with_base_seed(base)
            .with_quarantine(Quarantine::default());

        for width in [1, 4] {
            let (report, _) = guarded.run(build_panicky, width).unwrap();
            assert_eq!(report.runs, expected, "width {width}");
            assert_eq!(report.retries, 0);
            assert_eq!(
                report.quarantined,
                vec![CellFailure {
                    cell: 2,
                    seed: cell_seed(base, 2),
                    retries: 0,
                    reason: FailureReason::Panic {
                        message: "cell 2 exploded during build".to_owned(),
                    },
                }]
            );

            // The streaming-aggregate shape carries the same provenance.
            let (agg, _) = guarded.run_aggregate(build_panicky, width).unwrap();
            assert_eq!(agg, report.aggregate());
            assert_eq!(agg.quarantined, report.quarantined);
        }
    }

    #[test]
    fn quarantine_retries_flaky_cells_with_fresh_seeds() {
        let base = 77u64;
        let cells: Vec<u64> = (0..4).collect();
        // Cell values equal indices here, so a build can recognize a
        // first-attempt seed and flake exactly once per cell.
        let flaky = |cell: &u64, seed: u64| {
            if seed == cell_seed(base, *cell as usize) {
                panic!("first attempt flake");
            }
            build(cell, seed)
        };
        let sweep = Sweep::new(cells)
            .with_base_seed(base)
            .with_quarantine(Quarantine {
                tick_budget: None,
                retry: RetryPolicy {
                    attempts: 1,
                    reseed: true,
                },
            });
        let (report, _) = sweep.run(flaky, 4).unwrap();
        assert!(report.quarantined.is_empty());
        assert_eq!(report.retries, 4, "each cell burned one retry");
        for (i, run) in report.runs.iter().enumerate() {
            let reseeded = retry_seed(base, i, 1);
            assert_eq!(run.label, format!("cell-{i}-seed-{reseeded:016x}"));
            let alone = Experiment::new(&build(&(i as u64), reseeded)).run();
            assert_eq!(run, &alone.unwrap(), "cell {i}");
        }
        assert_eq!(report.aggregate().retries, 4);
    }

    #[test]
    fn quarantine_exhausts_retries_then_records_the_final_seed() {
        let base = 13u64;
        let always_panics = |cell: &u64, _seed: u64| -> EmitSubstrate {
            panic!("cell {cell} always fails");
        };
        let sweep = Sweep::new(vec![0u64])
            .with_base_seed(base)
            .with_quarantine(Quarantine {
                tick_budget: None,
                retry: RetryPolicy {
                    attempts: 2,
                    reseed: true,
                },
            });
        let (report, _) = sweep.run(always_panics, 1).unwrap();
        assert!(report.runs.is_empty());
        assert_eq!(report.retries, 2);
        assert_eq!(
            report.quarantined,
            vec![CellFailure {
                cell: 0,
                seed: retry_seed(base, 0, 2),
                retries: 2,
                reason: FailureReason::Panic {
                    message: "cell 0 always fails".to_owned(),
                },
            }]
        );
        // Without reseeding, every attempt (and the recorded seed) is
        // the canonical cell seed.
        let fixed = Sweep::new(vec![0u64])
            .with_base_seed(base)
            .with_quarantine(Quarantine {
                tick_budget: None,
                retry: RetryPolicy {
                    attempts: 1,
                    reseed: false,
                },
            });
        let (report, _) = fixed.run(always_panics, 1).unwrap();
        assert_eq!(report.quarantined[0].seed, cell_seed(base, 0));
        assert_eq!(report.quarantined[0].retries, 1);
    }

    #[test]
    fn tick_budget_trips_are_quarantined_and_never_retried() {
        // EmitSubstrate runs 20 ticks; a budget of 5 trips every cell.
        // The trip is deterministic, so the retry policy must not burn
        // attempts on it.
        let sweep = Sweep::new((0..3).collect::<Vec<u64>>())
            .with_base_seed(9)
            .with_quarantine(Quarantine {
                tick_budget: Some(5),
                retry: RetryPolicy {
                    attempts: 3,
                    reseed: true,
                },
            });
        let (report, _) = sweep.run(build, 4).unwrap();
        assert!(report.runs.is_empty());
        assert_eq!(report.retries, 0, "deterministic trips are not retried");
        assert_eq!(report.quarantined.len(), 3);
        for (i, failure) in report.quarantined.iter().enumerate() {
            assert_eq!(failure.cell, i);
            assert_eq!(failure.retries, 0);
            assert_eq!(
                failure.reason,
                FailureReason::TickBudgetExceeded { budget: 5 }
            );
        }
        // A budget covering the schedule changes nothing.
        let cells: Vec<u64> = (0..3).collect();
        let expected = per_cell(&cells, 9, build).unwrap();
        let roomy = Sweep::new(cells)
            .with_base_seed(9)
            .with_quarantine(Quarantine {
                tick_budget: Some(20),
                retry: RetryPolicy::default(),
            });
        assert_eq!(roomy.run(build, 4).unwrap().0.runs, expected);
    }
}
