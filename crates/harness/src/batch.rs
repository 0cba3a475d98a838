//! The sweep driver: the one way a [`Sweep`] runs.
//!
//! The driver builds every cell's substrate, plans the cells into
//! units, runs the units in parallel, and folds each finished cell into
//! the shape the caller asked for — every report in cell order
//! ([`Sweep::run`]), a streaming aggregate ([`Sweep::run_aggregate`]),
//! or journal appends ([`Sweep::run_aggregate_checkpointed`]).
//!
//! A unit is a **stripe** of up to `width` cells sharing a compile-once
//! [`SuiteTemplate`](esafe_monitor::SuiteTemplate) (and schedule), or a
//! single cell on the scalar path. A stripe advances through one
//! [`SimulatorBatch`] — every subsystem stepping all lanes of a
//! lane-major [`FrameBatch`](esafe_logic::FrameBatch) state slab before
//! the next subsystem runs — and feeds the slab directly to one
//! [`MonitorSuiteBatch`] pass per tick. Monitoring and terminal-event
//! checks both read the slab **in place**, and both
//! engines evaluate each node/subsystem across every run in the stripe
//! before moving on, amortizing decode and turning the inner loops into
//! straight-line sweeps over contiguous lanes.
//!
//! Striping is observationally invisible: every cell's report is
//! **bit-identical** to running that cell alone through
//! [`Experiment`], which the workspace's golden sweeps and property
//! tests pin. The shapes that don't fit a stripe degrade to the scalar
//! experiment loop, never to different results:
//!
//! * cells without a suite template (self-compiling substrates) run
//!   scalar;
//! * ragged tails — the last `< 2` cells of a group — run scalar;
//! * a run hitting its terminal event mid-stripe is *retired*: its lane
//!   freezes (temporal history, violation trackers, step counter) while
//!   the surviving lanes keep ticking, exactly as if each had run alone;
//! * a monitoring error inside a stripe reruns the whole stripe on the
//!   scalar path, so per-cell errors surface exactly as each cell's own
//!   run reports them (earliest cell first);
//! * with a [`Quarantine`] installed via [`Sweep::with_quarantine`], a
//!   panic anywhere in a stripe reruns every lane on the guarded scalar
//!   rung: the panicking cell is quarantined as a typed
//!   [`CellFailure`] while its stripe-mates reproduce their healthy
//!   reports bit-identically — fault containment at the cell boundary.
//!   A stripe honours the quarantine's tick budget itself; the lanes
//!   still live when it elapses fail exactly where a scalar run would.

use crate::context::{RunContext, SuiteProvenance};
use crate::experiment::{Experiment, ExperimentConfig, ExperimentError, RunReport};
use crate::lanes::LaneAllocator;
use crate::substrate::Substrate;
use crate::sweep::{cell_seed, retry_seed, CellFailure, FailureReason, Quarantine, Sweep};
use esafe_monitor::MonitorSuiteBatch;
use esafe_sim::{Simulator, SimulatorBatch};
use rayon::prelude::*;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Default stripe width for batched sweeps: wide enough to amortize the
/// per-node decode across many lanes, narrow enough that the 140-cell
/// thesis grid still splits into more stripes than cores. Sweeps of
/// thousands of cells pass a wider one (the mega-grid runs at 128).
pub const DEFAULT_BATCH_WIDTH: usize = 8;

/// One schedulable piece of a sweep: a lock-step stripe of
/// same-template cell indices, or a single cell on the scalar path.
#[derive(Debug)]
enum Unit {
    Stripe(Vec<usize>),
    Scalar(usize),
}

/// Partitions cells into stripes of up to `width` same-group cells plus
/// scalar singles. Cells group when they share the same suite template,
/// signal table, and scheduled duration (`Arc` identity — the family
/// pattern); template-less cells and one-cell tails run scalar. `None`
/// cells are planned into **no** unit — they are cells the caller is
/// skipping (already checkpointed) or failed to build (planned onto the
/// guarded scalar rung by [`Sweep::drive`]).
fn plan_units<S: Substrate>(subs: &[Option<S>], width: usize) -> Vec<Unit> {
    let width = width.max(1);
    let mut units = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut by_key: HashMap<(usize, usize, u64), usize> = HashMap::new();
    for (i, sub) in subs.iter().enumerate() {
        let Some(sub) = sub else { continue };
        match sub.suite_template() {
            None => units.push(Unit::Scalar(i)),
            Some(template) => {
                let key = (
                    Arc::as_ptr(sub.signal_table()) as usize,
                    Arc::as_ptr(template) as usize,
                    sub.duration_ms(),
                );
                let g = *by_key.entry(key).or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                groups[g].push(i);
            }
        }
    }
    for group in groups {
        for chunk in group.chunks(width) {
            if chunk.len() == 1 {
                units.push(Unit::Scalar(chunk[0]));
            } else {
                units.push(Unit::Stripe(chunk.to_vec()));
            }
        }
    }
    units
}

/// The per-lane run state a stripe carries for one cell: everything the
/// scalar experiment loop keeps per run, minus the monitor suite (which
/// lives lane-indexed in the shared [`MonitorSuiteBatch`]) and the
/// simulator (which lives lane-indexed in the stripe's
/// [`SimulatorBatch`]). A stripe records no frames, so, like an
/// unrecorded scalar run, its reports carry no series.
#[derive(Default)]
struct Lane {
    terminal_tick: Option<u64>,
    terminal_event: Option<String>,
    terminated_early: bool,
}

type CellOutcome = (usize, Result<(RunReport, SuiteProvenance), ExperimentError>);

/// A planned cell's substrate. Planning only emits units over built
/// (`Some`) cells, so the lookup cannot fail for a planned index.
fn built<S>(subs: &[Option<S>], i: usize) -> &S {
    subs[i].as_ref().expect("planned cells are built")
}

/// Runs one cell on the scalar experiment loop — the fallback for
/// template-less cells, one-cell tails, and stripes that hit a
/// monitoring error. `budget` is the quarantine's tick budget (always
/// `None` on the unguarded paths), forwarded so fallback runs fail
/// exactly where a guarded scalar run would.
fn run_scalar_cell<S: Substrate>(
    config: ExperimentConfig,
    budget: Option<u64>,
    substrate: &S,
    index: usize,
) -> CellOutcome {
    let result = Experiment::new(substrate)
        .with_config(config)
        .with_tick_budget(budget)
        .run_in(&mut RunContext::new());
    (index, result)
}

/// Runs one stripe: one [`SimulatorBatch`] advancing every lane through
/// lane-major state slabs, with monitors and terminal checks both
/// reading the slab **in place** — no per-lane `Frame` copy anywhere in
/// the tick loop (substrates without in-place observe overrides bridge
/// through two stripe-owned scratch frames). Per lane, the loop
/// reproduces the scalar experiment semantics exactly — same tick
/// schedule, same terminal-event grace window, same correlation — so
/// each cell's report is bit-identical to an unrecorded scalar run of
/// the same substrate.
fn run_stripe<S: Substrate>(
    config: ExperimentConfig,
    budget: Option<u64>,
    subs: &[Option<S>],
    lanes_idx: &[usize],
) -> Vec<CellOutcome> {
    let width = lanes_idx.len();
    let template = built(subs, lanes_idx[0])
        .suite_template()
        .expect("planned stripes carry a template");
    let group: Vec<&S> = lanes_idx.iter().map(|&i| built(subs, i)).collect();
    let mut lanes: Vec<Lane> = (0..width).map(|_| Lane::default()).collect();
    // A stripe is the static case of the shared lane-occupancy
    // abstraction (see [`LaneAllocator`]): every lane is claimed up
    // front and released as its run retires.
    let mut occupancy = LaneAllocator::new(width);
    for _ in 0..width {
        occupancy.claim();
    }

    let mut sim = match S::build_simulator_batch(&group) {
        Some(sim) => sim,
        None => {
            // No native batched builder: wrap scalar simulators. Their
            // per-lane chains step bit-identically inside the batch.
            let sims: Vec<Simulator> = group.iter().map(|s| s.build_simulator()).collect();
            let dt = sims[0].dt_millis();
            if sims.iter().any(|s| s.dt_millis() != dt) {
                // Mixed tick periods cannot tick in lock-step. Grouping
                // keys on the shared table/template/duration, which in
                // practice fixes dt too — this is a correctness
                // backstop, not a hot path.
                return lanes_idx
                    .iter()
                    .map(|&i| run_scalar_cell(config, budget, built(subs, i), i))
                    .collect();
            }
            SimulatorBatch::from_scalar(sims)
        }
    };
    let dt = sim.dt_millis();

    let mut batch: MonitorSuiteBatch = template.instantiate_batch(width);
    let table = built(subs, lanes_idx[0]).signal_table();
    // Stripe-owned scratch frames for substrates whose observe /
    // terminal check still runs per lane over a copied frame.
    let mut raw = table.frame();
    let mut observed = table.frame();
    let scheduled_ticks = built(subs, lanes_idx[0]).duration_ms().div_ceil(dt);
    let post_terminal_ticks = config.post_terminal_ms.div_ceil(dt);

    // Whether the quarantine's tick budget elapsed with lanes still
    // live; those lanes fail exactly where a scalar guarded run would.
    let mut budget_tripped = false;
    for tick in 1..=scheduled_ticks {
        if let Some(b) = budget {
            if tick > b {
                budget_tripped = true;
                break;
            }
        }
        sim.step();
        for (l, sub) in group.iter().enumerate().take(width) {
            if occupancy.is_claimed(l) {
                sub.observe_lane(sim.state_mut(), l, &mut raw, &mut observed);
            }
        }
        if batch.observe_slab(sim.state()).is_err() {
            // A monitoring error mid-stripe: rerun every lane on the
            // scalar path so per-cell results (successes *and* the
            // failing cell's error) match each cell's own run exactly.
            return lanes_idx
                .iter()
                .map(|&i| run_scalar_cell(config, budget, built(subs, i), i))
                .collect();
        }
        for (l, lane) in lanes.iter_mut().enumerate() {
            if !occupancy.is_claimed(l) {
                continue;
            }
            if lane.terminal_tick.is_none() {
                if let Some(event) = group[l].terminal_event_lane(sim.state(), l, &mut raw) {
                    lane.terminal_tick = Some(tick);
                    lane.terminal_event = Some(event.to_owned());
                }
            }
            if let Some(at) = lane.terminal_tick {
                if tick >= at + post_terminal_ticks {
                    lane.terminated_early = tick < scheduled_ticks;
                    occupancy.release(l);
                    batch.retire_lane(l);
                    sim.retire_lane(l);
                }
            }
        }
        if occupancy.in_use() == 0 {
            break;
        }
    }
    batch.finish();

    let window_ticks = config.correlation_window_ms.div_ceil(dt);
    lanes
        .into_iter()
        .enumerate()
        .map(|(l, lane)| {
            let index = lanes_idx[l];
            if budget_tripped && occupancy.is_claimed(l) {
                let budget = budget.expect("budget trips only when armed");
                return (index, Err(ExperimentError::TickBudget { budget }));
            }
            let substrate = built(subs, index);
            let correlation = batch.correlate_lane(l, window_ticks);
            let violations = batch.take_violations_lane(l);
            let report = RunReport {
                substrate: substrate.name().to_owned(),
                label: substrate.label(),
                config,
                dt_millis: dt,
                scheduled_ticks,
                ticks: sim.lane_tick(l),
                end_time_s: sim.lane_seconds(l),
                terminated_early: lane.terminated_early,
                terminal_event: lane.terminal_event,
                violations,
                correlation,
                ..RunReport::default()
            };
            // Every lane's suite is a row of the stripe's one
            // template-instantiated batch.
            (index, Ok((report, SuiteProvenance::Instantiated)))
        })
        .collect()
}

/// One finished cell, as the driver hands it to a sweep shape's fold.
#[derive(Debug)]
pub(crate) struct Finished {
    /// The cell's index in the sweep's grid.
    pub(crate) cell: usize,
    /// The report and how its suite was obtained, or why the cell
    /// failed.
    pub(crate) result: Result<(RunReport, SuiteProvenance), Failure>,
    /// Retry attempts the cell consumed (0 unless quarantined with
    /// retries).
    pub(crate) retries: u32,
}

/// Why a finished cell has no report.
#[derive(Debug)]
pub(crate) enum Failure {
    /// No quarantine: the error aborts the sweep (the earliest cell's
    /// error wins).
    Abort(ExperimentError),
    /// Quarantined, with provenance.
    Quarantined(CellFailure),
}

/// Renders a caught panic payload for [`FailureReason::Panic`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

impl<C: Sync> Sweep<C> {
    /// The one sweep driver (see the [module docs](self)): builds every
    /// `pending` cell, plans stripes of up to `width` lanes, runs the
    /// units in parallel, and folds each finished cell into a
    /// per-worker accumulator (`fold`), merged at join (`merge`). A
    /// fold that keeps no report holds O(workers × width) of them at
    /// most.
    pub(crate) fn drive<S, F, A>(
        &self,
        build: &F,
        width: usize,
        quarantine: Option<Quarantine>,
        pending: impl Fn(usize) -> bool,
        fold: impl Fn(A, Finished) -> A + Sync,
        merge: impl Fn(A, A) -> A,
    ) -> A
    where
        S: Substrate + Sync,
        F: Fn(&C, u64) -> S + Sync,
        A: Default + Send,
    {
        // Cells must be inspected — table, template, duration — before
        // they can be grouped into stripes; building a substrate is the
        // cheap part of a run (simulators and suites are built per
        // unit). Under a quarantine, a cell whose build panics is left
        // `None` and planned onto the guarded scalar rung, which
        // rebuilds, retries and quarantines it.
        let mut unbuilt = Vec::new();
        let subs: Vec<Option<S>> = self
            .cells
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                if !pending(i) {
                    return None;
                }
                let seed = cell_seed(self.base_seed, i);
                let sub = match quarantine {
                    None => Some(build(cell, seed)),
                    Some(_) => catch_unwind(AssertUnwindSafe(|| build(cell, seed))).ok(),
                };
                if sub.is_none() {
                    unbuilt.push(Unit::Scalar(i));
                }
                sub
            })
            .collect();
        let mut units = plan_units(&subs, width);
        units.extend(unbuilt);
        units
            .into_par_iter()
            // `map_init` only for its `fold` hook — units carry no
            // per-worker state (scalar cells build their own
            // `RunContext`).
            .map_init(
                || (),
                |(), unit| self.run_unit(quarantine, &subs, &unit, build),
            )
            .fold(A::default, |acc, cells| cells.into_iter().fold(acc, &fold))
            .reduce(A::default, merge)
    }

    /// Runs one planned unit — the one place the quarantine policy is
    /// read. Without a quarantine a failing cell's error is its outcome.
    /// With one, every failing lane — and, after a panic, every lane of
    /// its stripe — reruns on the guarded scalar rung, so provenance and
    /// retries never depend on which unit a cell was planned into.
    fn run_unit<S, F>(
        &self,
        quarantine: Option<Quarantine>,
        subs: &[Option<S>],
        unit: &Unit,
        build: &F,
    ) -> Vec<Finished>
    where
        S: Substrate + Sync,
        F: Fn(&C, u64) -> S + Sync,
    {
        let outcomes = match (unit, quarantine) {
            (Unit::Scalar(i), None) => {
                vec![run_scalar_cell(self.config, None, built(subs, *i), *i)]
            }
            (Unit::Scalar(i), Some(q)) => return vec![self.run_guarded(q, *i, build)],
            (Unit::Stripe(lanes), None) => run_stripe(self.config, None, subs, lanes),
            (Unit::Stripe(lanes), Some(q)) => {
                match catch_unwind(AssertUnwindSafe(|| {
                    run_stripe(self.config, q.tick_budget, subs, lanes)
                })) {
                    Ok(outcomes) => outcomes,
                    // The faulty cell is quarantined with its own panic
                    // payload; stripe-mates reproduce their healthy
                    // reports bit-identically.
                    Err(_) => {
                        return lanes
                            .iter()
                            .map(|&i| self.run_guarded(q, i, build))
                            .collect()
                    }
                }
            }
        };
        outcomes
            .into_iter()
            .map(|(cell, result)| match (result, quarantine) {
                (Ok(ok), _) => Finished {
                    cell,
                    result: Ok(ok),
                    retries: 0,
                },
                (Err(e), None) => Finished {
                    cell,
                    result: Err(Failure::Abort(e)),
                    retries: 0,
                },
                (Err(_), Some(q)) => self.run_guarded(q, cell, build),
            })
            .collect()
    }

    /// The guarded scalar rung: the cell rebuilt and run alone under
    /// `catch_unwind`. A tick-budget trip is quarantined as
    /// [`FailureReason::TickBudgetExceeded`] and never retried — the
    /// harness is deterministic, so a runaway run stays runaway; panics
    /// and errors are retried per the quarantine's
    /// [`RetryPolicy`](crate::RetryPolicy). A healthy cell's report is
    /// bit-identical to an unguarded run's.
    fn run_guarded<S, F>(&self, q: Quarantine, cell: usize, build: &F) -> Finished
    where
        S: Substrate,
        F: Fn(&C, u64) -> S,
    {
        let mut attempt = 0u32;
        loop {
            let seed = if q.retry.reseed {
                retry_seed(self.base_seed, cell, attempt)
            } else {
                cell_seed(self.base_seed, cell)
            };
            let caught = catch_unwind(AssertUnwindSafe(|| {
                let substrate = build(&self.cells[cell], seed);
                Experiment::new(&substrate)
                    .with_config(self.config)
                    .with_tick_budget(q.tick_budget)
                    .run_in(&mut RunContext::new())
            }));
            let reason = match caught {
                Ok(Ok(ok)) => {
                    return Finished {
                        cell,
                        result: Ok(ok),
                        retries: attempt,
                    }
                }
                Ok(Err(ExperimentError::TickBudget { budget })) => {
                    FailureReason::TickBudgetExceeded { budget }
                }
                Ok(Err(e)) => FailureReason::Error {
                    message: e.to_string(),
                },
                Err(payload) => FailureReason::Panic {
                    message: panic_message(payload.as_ref()),
                },
            };
            let deterministic = matches!(reason, FailureReason::TickBudgetExceeded { .. });
            if deterministic || attempt >= q.retry.attempts {
                return Finished {
                    cell,
                    result: Err(Failure::Quarantined(CellFailure {
                        cell,
                        seed,
                        retries: attempt,
                        reason,
                    })),
                    retries: attempt,
                };
            }
            attempt += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::SweepJournal;
    use crate::sweep::tests::{aggregate_of, per_cell};
    use crate::sweep::{RetryPolicy, SweepAggregate};
    use esafe_logic::{parse, EvalError, Frame, SignalId, SignalTable};
    use esafe_monitor::{Location, MonitorSuite, SuiteTemplate};
    use esafe_sim::{SimTime, Subsystem};

    /// A ramp that climbs by `slope` per tick.
    struct Ramp {
        x: SignalId,
        slope: f64,
    }

    impl Subsystem for Ramp {
        fn name(&self) -> &str {
            "ramp"
        }
        fn step(&mut self, _t: &SimTime, prev: &Frame, next: &mut Frame) {
            next.set(self.x, prev.real_or(self.x, 0.0) + self.slope);
        }
    }

    /// A family of ramp substrates sharing one table + suite template:
    /// per-cell `slope` controls when (or whether) the terminal limit is
    /// hit, so a stripe mixes clean, early-terminating, and
    /// limit-at-the-boundary lanes.
    struct RampFamily {
        table: Arc<SignalTable>,
        x: SignalId,
        template: Arc<SuiteTemplate>,
    }

    impl RampFamily {
        fn new() -> Self {
            let mut b = SignalTable::builder();
            let x = b.real("x");
            let table = b.finish();
            let mut suite = MonitorSuite::new(table.clone());
            suite
                .add_goal("G", Location::new("Ramp"), parse("x < 40.0").unwrap())
                .unwrap();
            suite
                .add_subgoal(
                    "G.A",
                    "G",
                    Location::new("Sub"),
                    parse("held_for(x < 35.0, 2ticks)").unwrap(),
                )
                .unwrap();
            let template = Arc::new(suite.template());
            RampFamily { table, x, template }
        }

        fn substrate(&self, slope: f64) -> RampCell {
            RampCell {
                table: self.table.clone(),
                x: self.x,
                slope,
                template: Some(Arc::clone(&self.template)),
                panic_at: None,
            }
        }

        /// A cell whose simulator panics mid-run, once `x` reaches
        /// `at` — for fault-isolation tests.
        fn panicking_substrate(&self, slope: f64, at: f64) -> RampCell {
            let mut cell = self.substrate(slope);
            cell.panic_at = Some(at);
            cell
        }
    }

    /// Panics the tick after `x` reaches `at`.
    struct PanicAt {
        x: SignalId,
        at: f64,
    }

    impl Subsystem for PanicAt {
        fn name(&self) -> &str {
            "panic-at"
        }
        fn step(&mut self, _t: &SimTime, prev: &Frame, _next: &mut Frame) {
            let x = prev.real_or(self.x, 0.0);
            if x >= self.at {
                panic!("lane melted down at x={x}");
            }
        }
    }

    struct RampCell {
        table: Arc<SignalTable>,
        x: SignalId,
        slope: f64,
        template: Option<Arc<SuiteTemplate>>,
        panic_at: Option<f64>,
    }

    impl Substrate for RampCell {
        fn name(&self) -> &str {
            "ramp"
        }
        fn label(&self) -> String {
            format!("slope-{}", self.slope)
        }
        fn duration_ms(&self) -> u64 {
            600
        }
        fn signal_table(&self) -> &Arc<SignalTable> {
            &self.table
        }
        fn build_simulator(&self) -> Simulator {
            let mut sim = Simulator::new(10, &self.table);
            sim.add(Ramp {
                x: self.x,
                slope: self.slope,
            });
            if let Some(at) = self.panic_at {
                sim.add(PanicAt { x: self.x, at });
            }
            sim.init_with(|f| f.set(self.x, 0.0));
            sim
        }
        fn build_monitors(&self) -> Result<MonitorSuite, EvalError> {
            let mut suite = MonitorSuite::new(self.table.clone());
            suite.add_goal("G", Location::new("Ramp"), parse("x < 40.0").unwrap())?;
            suite.add_subgoal(
                "G.A",
                "G",
                Location::new("Sub"),
                parse("held_for(x < 35.0, 2ticks)").unwrap(),
            )?;
            Ok(suite)
        }
        fn suite_template(&self) -> Option<&Arc<SuiteTemplate>> {
            self.template.as_ref()
        }
        fn terminal_event(&self, observed: &Frame) -> Option<&'static str> {
            (observed.real_or(self.x, 0.0) >= 50.0).then_some("limit")
        }
    }

    /// Slopes chosen so lanes terminate at different ticks: slope 2.0
    /// hits the terminal limit at tick 25 (mid-stripe), slope 1.0 at
    /// tick 50, slope 0.25 never.
    fn mixed_slopes() -> Vec<f64> {
        vec![2.0, 0.25, 1.0, 0.5, 3.0, 0.75, 1.5, 0.1, 2.5, 0.3, 4.0]
    }

    #[test]
    fn batched_sweep_matches_scalar_sweep_bit_for_bit() {
        let family = RampFamily::new();
        let build = |slope: &f64, _seed: u64| family.substrate(*slope);
        let scalar = per_cell(&mixed_slopes(), 11, build).unwrap();
        let sweep = Sweep::new(mixed_slopes()).with_base_seed(11);
        for width in [2, 3, 8, 64] {
            let (batched, _) = sweep.run(build, width).unwrap();
            assert_eq!(batched.runs, scalar, "width {width} diverged from scalar");
        }
    }

    /// The early-termination-inside-a-stripe regression: a lane that
    /// hits its terminal event mid-stripe (slope 4.0 terminates at tick
    /// ~13 of 60) must leave every surviving lane's verdicts and
    /// violation intervals bit-identical to scalar execution.
    #[test]
    fn early_termination_mid_stripe_leaves_survivors_bit_identical() {
        let family = RampFamily::new();
        // One stripe: the fast lane dies first, the slow lanes run the
        // full schedule.
        let slopes = vec![4.0, 0.2, 1.0, 0.4];
        let build = |slope: &f64, _seed: u64| family.substrate(*slope);
        let scalar = per_cell(&slopes, 3, build).unwrap();
        let sweep = Sweep::new(slopes).with_base_seed(3);
        let (batched, _) = sweep.run(build, 4).unwrap();
        assert!(
            batched.runs[0].terminated_early,
            "the fast lane must terminate early"
        );
        assert!(
            !batched.runs[1].terminated_early,
            "the slow lane must run its schedule"
        );
        assert_ne!(
            batched.runs[0].ticks, batched.runs[2].ticks,
            "lanes must terminate at different ticks"
        );
        assert_eq!(batched.runs, scalar);
    }

    #[test]
    fn batched_aggregate_matches_scalar_aggregate() {
        let family = RampFamily::new();
        let build = |slope: &f64, _seed: u64| family.substrate(*slope);
        let scalar = aggregate_of(per_cell(&mixed_slopes(), 7, build).unwrap());
        let sweep = Sweep::new(mixed_slopes()).with_base_seed(7);
        let (batched, stats) = sweep.run_aggregate(build, 4).unwrap();
        assert_eq!(batched, scalar);
        assert_eq!(stats.runs(), mixed_slopes().len());
        assert_eq!(stats.suites_compiled, 0, "stripes never recompile");
    }

    #[test]
    fn template_less_cells_fall_back_to_the_scalar_path() {
        // RampCell with template stripped: still correct, just scalar.
        let family = RampFamily::new();
        let slopes = vec![2.0, 1.0, 0.5];
        let strip = |slope: &f64, _seed: u64| {
            let mut cell = family.substrate(*slope);
            cell.template = None;
            cell
        };
        let scalar = per_cell(&slopes, 5, strip).unwrap();
        let (batched, _) = Sweep::new(slopes).with_base_seed(5).run(strip, 4).unwrap();
        assert_eq!(batched.runs, scalar);
    }

    #[test]
    fn width_one_and_empty_sweeps_are_fine() {
        let family = RampFamily::new();
        let build = |slope: &f64, _seed: u64| family.substrate(*slope);
        let sweep = Sweep::new(vec![1.0, 2.0]).with_base_seed(9);
        assert_eq!(
            sweep.run(build, 1).unwrap().0.runs,
            per_cell(&[1.0, 2.0], 9, build).unwrap()
        );
        let empty = Sweep::new(Vec::<f64>::new());
        assert_eq!(empty.run(build, 8).unwrap().0.runs.len(), 0);
        let (agg, stats) = empty.run_aggregate(build, 8).unwrap();
        assert_eq!(agg, SweepAggregate::default());
        assert_eq!(stats.runs(), 0);
    }

    /// A family whose goal references a signal the simulator never sets
    /// — the batch pass errors on the first tick and the stripe must
    /// rerun scalar, reporting the earliest cell's error exactly like
    /// the scalar sweep does.
    #[test]
    fn stripe_monitoring_errors_match_the_scalar_path() {
        let mut b = SignalTable::builder();
        let x = b.real("x");
        b.real("ghost");
        let table = b.finish();
        let mut suite = MonitorSuite::new(table.clone());
        suite
            .add_goal("G", Location::new("Ramp"), parse("ghost < 1.0").unwrap())
            .unwrap();
        let broken = RampFamily {
            table,
            x,
            template: Arc::new(suite.template()),
        };
        let slopes = vec![1.0, 2.0, 3.0];
        let build = |slope: &f64, _seed: u64| broken.substrate(*slope);
        let scalar = per_cell(&slopes, 1, build);
        let batched = Sweep::new(slopes).with_base_seed(1).run(build, 4);
        match (batched, scalar) {
            (Err(a), Err(b)) => assert_eq!(format!("{a}"), format!("{b}")),
            (a, b) => panic!("both paths must fail: {a:?} vs {b:?}"),
        }
    }

    /// The fault-isolation contract at stripe granularity: one cell
    /// panicking mid-stripe is quarantined with full provenance while
    /// every stripe-mate's report stays bit-identical to an all-healthy
    /// run — at every width from degenerate to wider-than-the-grid.
    #[test]
    fn panicking_lane_is_quarantined_and_stripe_mates_stay_bit_identical() {
        use crate::sweep::FailureReason;

        let family = RampFamily::new();
        let slopes = mixed_slopes();
        // Cell 4 (slope 3.0) reaches x = 21 at tick 7 — well before any
        // lane terminates, so the panic fires mid-stripe.
        let victim = 4usize;
        let base = 21u64;
        let healthy = |slope: &f64, _seed: u64| family.substrate(*slope);
        let poisoned = |slope: &f64, _seed: u64| {
            if *slope == slopes[victim] {
                family.panicking_substrate(*slope, 21.0)
            } else {
                family.substrate(*slope)
            }
        };
        let mut expected = per_cell(&slopes, base, healthy).unwrap();
        expected.remove(victim);
        let guarded = Sweep::new(slopes.clone())
            .with_base_seed(base)
            .with_quarantine(Quarantine::default());

        for width in [1, 2, 3, 5, 8, 16, 33, 64] {
            let (report, _) = guarded.run(poisoned, width).unwrap();
            assert_eq!(
                report.runs, expected,
                "width {width}: stripe-mates diverged"
            );
            assert_eq!(report.quarantined.len(), 1, "width {width}");
            let failure = &report.quarantined[0];
            assert_eq!(failure.cell, victim);
            assert_eq!(failure.seed, cell_seed(base, victim));
            assert_eq!(failure.retries, 0);
            assert!(
                matches!(&failure.reason, FailureReason::Panic { message }
                    if message.contains("melted down")),
                "width {width}: {:?}",
                failure.reason
            );
            // The streaming-aggregate form of the same width agrees.
            let (agg, _) = guarded.run_aggregate(poisoned, width).unwrap();
            assert_eq!(agg, report.aggregate(), "width {width} aggregate diverged");
        }
    }

    /// The stripe's own tick budget: a templated stripe under a
    /// quarantine stops at the budget, and exactly the lanes still live
    /// then — the cells whose solo run outlives the budget — are
    /// quarantined, never retried, while lanes that retired in time keep
    /// their reports. Slope 1.5 retires at tick 44, one tick inside.
    #[test]
    fn stripe_tick_budget_quarantines_exactly_the_runs_that_outlive_it() {
        use crate::sweep::FailureReason;

        let family = RampFamily::new();
        let build = |slope: &f64, _seed: u64| family.substrate(*slope);
        let slopes = mixed_slopes();
        let solo = per_cell(&slopes, 23, build).unwrap();
        let outlive: Vec<usize> = (0..slopes.len()).filter(|&i| solo[i].ticks > 45).collect();
        assert!(
            !outlive.is_empty() && outlive.len() < slopes.len(),
            "the budget must split the grid"
        );
        let survivors: Vec<RunReport> = solo
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !outlive.contains(i))
            .map(|(_, run)| run)
            .collect();
        let sweep = Sweep::new(slopes)
            .with_base_seed(23)
            .with_quarantine(Quarantine {
                tick_budget: Some(45),
                retry: RetryPolicy {
                    attempts: 2,
                    reseed: true,
                },
            });
        for width in [1, 2, 4, 16] {
            let (report, _) = sweep.run(build, width).unwrap();
            let quarantined: Vec<usize> = report.quarantined.iter().map(|f| f.cell).collect();
            assert_eq!(quarantined, outlive, "width {width}");
            for failure in &report.quarantined {
                assert_eq!(
                    failure.reason,
                    FailureReason::TickBudgetExceeded { budget: 45 },
                    "width {width}"
                );
                assert_eq!(failure.retries, 0, "width {width}");
            }
            assert_eq!(report.retries, 0, "width {width}");
            assert_eq!(report.runs, survivors, "width {width}");
            let (agg, _) = sweep.run_aggregate(build, width).unwrap();
            assert_eq!(agg, report.aggregate(), "width {width}");
        }
    }

    fn temp_journal(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("esafe-batch-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    /// The checkpoint/resume contract: interrupt a checkpointed sweep
    /// anywhere — a clean record boundary or a torn mid-record tail —
    /// reopen the journal, resume, and the final aggregate is
    /// bit-identical to the uninterrupted run, with only the lost cells
    /// re-running.
    #[test]
    fn checkpointed_sweep_resumes_bit_identically() {
        use crate::journal::{decode_record, DecodeOutcome, HEADER_BYTES};

        let family = RampFamily::new();
        let build = |slope: &f64, _seed: u64| family.substrate(*slope);
        let slopes = mixed_slopes();
        let cells = slopes.len();
        let reference = aggregate_of(per_cell(&slopes, 17, build).unwrap());
        let sweep = Sweep::new(slopes).with_base_seed(17);

        // An uninterrupted checkpointed run matches the plain aggregate.
        let full_path = temp_journal("full");
        let mut journal =
            SweepJournal::create(&full_path, 17, cells, ExperimentConfig::default()).unwrap();
        let (agg, stats) = sweep
            .run_aggregate_checkpointed(build, 4, &mut journal)
            .unwrap();
        assert_eq!(agg, reference);
        assert_eq!(stats.runs(), cells);
        assert_eq!(journal.completed_cells(), cells);
        drop(journal);

        // Simulate a crash: keep the header, the first three records,
        // and a torn fragment of the fourth.
        let bytes = std::fs::read(&full_path).unwrap();
        let mut boundary = HEADER_BYTES;
        for _ in 0..3 {
            match decode_record(&bytes[boundary..]) {
                DecodeOutcome::Record(_, consumed) => boundary += consumed,
                other => panic!("journal must hold intact records: {other:?}"),
            }
        }
        for (name, cut) in [("boundary", boundary), ("torn", boundary + 9)] {
            let cut_path = temp_journal(name);
            std::fs::write(&cut_path, &bytes[..cut]).unwrap();
            let mut resumed = SweepJournal::open(&cut_path).unwrap();
            assert_eq!(resumed.recovered_records(), 3, "{name}");
            let (resumed_agg, resumed_stats) = sweep
                .run_aggregate_checkpointed(build, 4, &mut resumed)
                .unwrap();
            assert_eq!(
                resumed_agg, reference,
                "{name}: resume must be bit-identical"
            );
            assert_eq!(
                resumed_stats.runs(),
                cells - 3,
                "{name}: only the lost cells re-run"
            );
            drop(resumed);

            // Resuming the now-complete journal runs nothing and still
            // reproduces the aggregate, purely from records.
            let mut done = SweepJournal::open(&cut_path).unwrap();
            let (replayed, replay_stats) = sweep
                .run_aggregate_checkpointed(build, 4, &mut done)
                .unwrap();
            assert_eq!(replayed, reference, "{name}");
            assert_eq!(replay_stats.runs(), 0, "{name}");
            std::fs::remove_file(&cut_path).unwrap();
        }
        std::fs::remove_file(&full_path).unwrap();
    }

    /// Quarantined cells are durable too: a resume replays the failure
    /// provenance from the journal instead of re-running the cell.
    #[test]
    fn checkpointed_resume_replays_quarantined_cells() {
        let family = RampFamily::new();
        let slopes = vec![4.0, 0.2, 1.0, 0.4];
        let poisoned = |slope: &f64, _seed: u64| {
            if *slope == 1.0 {
                family.panicking_substrate(*slope, 15.0)
            } else {
                family.substrate(*slope)
            }
        };
        let sweep = Sweep::new(slopes.clone()).with_base_seed(5);
        let path = temp_journal("quarantined");
        let mut journal =
            SweepJournal::create(&path, 5, slopes.len(), ExperimentConfig::default()).unwrap();
        // Checkpointed runs quarantine by default — no explicit policy.
        let (agg, _) = sweep
            .run_aggregate_checkpointed(poisoned, 2, &mut journal)
            .unwrap();
        assert_eq!(agg.quarantined.len(), 1);
        assert_eq!(agg.quarantined[0].cell, 2);
        assert_eq!(agg.runs, 3);
        drop(journal);

        let mut reopened = SweepJournal::open(&path).unwrap();
        let (replayed, stats) = sweep
            .run_aggregate_checkpointed(poisoned, 2, &mut reopened)
            .unwrap();
        assert_eq!(replayed, agg, "provenance must survive the journal");
        assert_eq!(stats.runs(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoint_rejects_a_journal_for_a_different_sweep() {
        let family = RampFamily::new();
        let build = |slope: &f64, _seed: u64| family.substrate(*slope);
        let sweep = Sweep::new(vec![1.0, 2.0]).with_base_seed(3);
        let path = temp_journal("mismatch");
        // Wrong seed and wrong cell count.
        let mut journal = SweepJournal::create(&path, 99, 7, ExperimentConfig::default()).unwrap();
        let err = sweep
            .run_aggregate_checkpointed(build, 4, &mut journal)
            .unwrap_err();
        assert!(
            format!("{err}").contains("different sweep"),
            "unexpected error: {err}"
        );
        std::fs::remove_file(&path).unwrap();
    }
}
