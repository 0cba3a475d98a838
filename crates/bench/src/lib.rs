//! Shared helpers for the reproduction harness and benchmarks.

use esafe_harness::{Experiment, SweepAggregate, SweepStats};
use esafe_logic::Frame;
use esafe_scenarios::{catalog, grid, mega, runner, ScenarioReport};
use esafe_vehicle::config::DefectSet;
use esafe_vehicle::VehicleFamily;

/// Figure-number → (scenario, signals) mapping for the thesis's
/// Figures 5.2–5.15.
pub fn figure_map(figure: &str) -> Option<(u8, Vec<&'static str>)> {
    Some(match figure {
        "5.2" => (1, vec!["ca.accel_request"]),
        "5.3" => (1, vec!["pa.accel_request"]),
        "5.4" => (
            2,
            vec!["arbiter.accel_cmd", "ca.accel_request", "ca.selected"],
        ),
        "5.5" => (
            3,
            vec!["ca.accel_request", "host.speed", "world.lead_distance"],
        ),
        "5.6" => (3, vec!["acc.accel_request"]),
        "5.7" => (4, vec!["acc.accel_request", "acc.accel_request_rate"]),
        "5.8" => (4, vec!["acc.active", "host.speed", "arbiter.accel_cmd"]),
        "5.9" => (5, vec!["driver.throttle", "acc.active"]),
        "5.10" => (
            6,
            vec!["lca.active", "lca.steering_request", "arbiter.steering_cmd"],
        ),
        "5.11" => (6, vec!["host.speed", "acc.selected", "lca.selected"]),
        "5.12" => (7, vec!["rca.active", "world.rear_distance", "host.speed"]),
        "5.13" => (8, vec!["acc.active", "acc.selected"]),
        "5.14" => (
            9,
            vec!["pa.accel_request", "arbiter.accel_cmd", "pa.selected"],
        ),
        "5.15" => (10, vec!["acc.active", "arbiter.accel_cmd", "host.speed"]),
        _ => return None,
    })
}

/// Runs a scenario under the thesis defect set (cached per call site —
/// runs are deterministic, so callers may memoize freely).
pub fn thesis_run(scenario: u8) -> ScenarioReport {
    runner::run(&catalog::scenario(scenario), DefectSet::thesis())
        .expect("scenario formulas compile against the simulator signals")
}

/// The per-defect ablation, fanned across cores: which defect
/// configuration produces which goal violations in a scenario. Covers
/// the fixed system, the full thesis population, and every
/// single-defect cell. Returns `(label, violated monitor ids)` in
/// configuration order.
pub fn ablation(scenario: u8) -> Vec<(String, Vec<String>)> {
    let cells = grid::cells(&[scenario], &grid::ablation_configs());
    let (sweep, _) = grid::run_parallel(cells.clone()).expect("scenario runs");
    cells
        .iter()
        .zip(&sweep.runs)
        .map(|(cell, run)| {
            let ids = run.violations.iter().map(|(id, _)| id.clone()).collect();
            (cell.config.clone(), ids)
        })
        .collect()
}

/// Runs the full ten-scenario × fourteen-configuration evaluation grid
/// in parallel and returns its order-independent aggregate plus the
/// sweep's timing/amortization stats — the source of the
/// `repro --grid --json` breakdown. Runs as a **streaming reduction**
/// (per-worker partial aggregates, no retained reports).
pub fn full_grid_timed() -> (SweepAggregate, SweepStats) {
    grid::run_parallel_aggregate(grid::full_grid()).expect("grid runs")
}

/// One-off calibration of the fused monitor hot path: the 49-monitor
/// vehicle `observe` cost per tick, measured by recording a clean
/// scenario-1 run's observed frames ([`Experiment::with_frame_recording`])
/// and replaying them through a template-instantiated (fused) suite —
/// monitoring cost only, no simulation in the loop. Also reports the
/// suite's cross-monitor CSE node counts.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ObserveCalibration {
    /// Fused suite `observe` cost per tick, nanoseconds.
    pub observe_ns_per_tick: f64,
    /// Monitors (goals + subgoals) in the calibrated suite.
    pub monitors: usize,
    /// Expression nodes summed over the monitors' own trees (what
    /// evaluating each monitor on its own would walk).
    pub cse_source_nodes: usize,
    /// Nodes in the deduplicated fused DAG (what one tick evaluates).
    pub cse_unique_nodes: usize,
}

/// Records one clean (defect-free) scenario-1 run with frame recording
/// and materializes its first `max_ticks` observed frames over the
/// family's table, so a timed replay loop is monitoring only — no
/// per-tick column-to-frame assembly. **The one recorded-run harness**
/// behind [`observe_calibration`] and the `fused_observe`/
/// `batched_observe` criterion benches: they must all measure the same
/// frame stream to stay comparable. ([`batch_calibration`] instead
/// ticks live mega-grid stripes, because it must price simulation too.)
pub fn recorded_clean_frames(family: &VehicleFamily, max_ticks: usize) -> Vec<Frame> {
    let cells = grid::cells(&[1], &[("none".to_owned(), DefectSet::none())]);
    let substrate = grid::build_cell_in(family, &cells[0], 0);
    let report = Experiment::new(&substrate)
        .with_config(runner::thesis_config())
        .with_frame_recording(true)
        .run()
        .expect("scenario formulas compile against the simulator signals");
    let trace = report.trace.expect("frame recording enabled");
    (0..trace.len().min(max_ticks))
        .map(|i| {
            let mut frame = family.table().frame();
            trace.read_into(i, &mut frame);
            frame
        })
        .collect()
}

/// Replicates recorded frames into tick-major stripe inputs:
/// `result[t]` is the `width`-lane input at tick `t` (the same
/// recorded frame in every lane) — the batched-replay analogue of
/// feeding one frame to a scalar suite.
pub fn replicate_lanes(frames: &[Frame], width: usize) -> Vec<Vec<Frame>> {
    frames.iter().map(|f| vec![f.clone(); width]).collect()
}

/// Measures [`ObserveCalibration`] on this machine (≈100 ms: one 20 s
/// recorded run plus a few replay passes).
pub fn observe_calibration() -> ObserveCalibration {
    let family = VehicleFamily::default();
    let frames = recorded_clean_frames(&family, usize::MAX);
    let mut suite = family.template().instantiate();
    let observe_pass = |suite: &mut esafe_monitor::MonitorSuite| {
        suite.reset();
        for frame in &frames {
            suite.observe(frame).expect("recorded frames are complete");
        }
    };
    // Warm-up pass, then timed passes.
    observe_pass(&mut suite);
    let passes = 3u32;
    let started = std::time::Instant::now();
    for _ in 0..passes {
        observe_pass(&mut suite);
    }
    let elapsed = started.elapsed();
    let program = family.template().fused_program().clone();
    ObserveCalibration {
        observe_ns_per_tick: elapsed.as_nanos() as f64 / (passes as usize * frames.len()) as f64,
        monitors: program.roots(),
        cse_source_nodes: program.source_nodes(),
        cse_unique_nodes: program.unique_nodes(),
    }
}

/// One measured point of the batch-width calibration: the **full
/// stripe loop** cost per tick *per run* when `width` runs advance
/// together — batched simulation, in-place probe observation, and the
/// fused monitor pass — split into its sim and observe shares.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WidthPoint {
    /// Lanes per stripe.
    pub width: usize,
    /// Whole stripe-loop cost per tick per lane, nanoseconds
    /// (`sim + observe`).
    pub ns_per_tick_per_run: f64,
    /// The [`SimulatorBatch::step`](esafe_sim::SimulatorBatch::step)
    /// share of `ns_per_tick_per_run`.
    pub sim_ns_per_tick_per_run: f64,
    /// The observation share of `ns_per_tick_per_run`: in-place probe
    /// derivation plus the fused monitor slab pass (DAG + trackers).
    pub observe_ns_per_tick_per_run: f64,
}

/// The batch-width calibration: the scalar full-loop baseline plus one
/// [`WidthPoint`] per candidate stripe width, measured by ticking real
/// mega-grid cells — simulate **and** monitor, the same loop the
/// striped sweep runs — so the chosen width reflects how sim cost
/// amortizes across lanes, not just the monitor pass.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BatchCalibration {
    /// Timed ticks per measurement (after a short warm-up).
    pub ticks: usize,
    /// Scalar baseline — one cell through `Simulator` + scalar probe
    /// observe + fused `MonitorSuite` — nanoseconds per tick per run.
    pub scalar_ns_per_tick_per_run: f64,
    /// Batched cost per candidate width, cheapest engine for a sweep
    /// stripe being the smallest `ns_per_tick_per_run`.
    pub widths: Vec<WidthPoint>,
}

impl BatchCalibration {
    /// The calibrated stripe width: the candidate with the lowest
    /// per-run cost (ties break toward the narrower stripe, which
    /// schedules better).
    pub fn best_width(&self) -> usize {
        self.best_point()
            .map_or(esafe_harness::DEFAULT_BATCH_WIDTH, |p| p.width)
    }

    /// The winning [`WidthPoint`] (`None` only for an empty sweep).
    pub fn best_point(&self) -> Option<&WidthPoint> {
        self.widths.iter().min_by(|a, b| {
            a.ns_per_tick_per_run
                .total_cmp(&b.ns_per_tick_per_run)
                .then(a.width.cmp(&b.width))
        })
    }

    /// The calibrated width's per-run cost, nanoseconds per tick.
    pub fn best_ns_per_tick_per_run(&self) -> f64 {
        self.best_point()
            .map_or(self.scalar_ns_per_tick_per_run, |p| p.ns_per_tick_per_run)
    }
}

/// Ticks each calibration measurement is timed over (after
/// [`CALIBRATION_WARMUP`] untimed warm-up ticks).
const CALIBRATION_TICKS: u64 = 1000;
/// Untimed ticks that settle caches, branch predictors, and the
/// scenario's initial transient before timing starts.
const CALIBRATION_WARMUP: u64 = 200;

/// Measures [`BatchCalibration`] on this machine: one scalar mega-cell
/// baseline, then one real stripe per candidate width (2–128) of
/// distinct mega-grid cells stepped through a native
/// [`SimulatorBatch`](esafe_sim::SimulatorBatch) with in-place probe
/// observation and one fused
/// [`MonitorSuiteBatch`](esafe_monitor::MonitorSuiteBatch) pass per tick —
/// the striped sweep's tick loop, minus series sampling and terminal
/// checks (both negligible). The sim share is timed inline around
/// `sim.step()`; the observe share is the remainder.
pub fn batch_calibration() -> BatchCalibration {
    use esafe_harness::Substrate as _;
    use std::time::{Duration, Instant};

    let family = VehicleFamily::default();
    let cells = mega::mega_grid();

    // Scalar baseline: one cell, one `Simulator`, one fused suite.
    let sub = mega::build_mega_cell_in(&family, &cells[0], 0);
    let mut sim = sub.build_simulator();
    let mut suite = family.template().instantiate();
    let mut observed = sub.signal_table().frame();
    let mut scalar_tick = |sim: &mut esafe_sim::Simulator| {
        let raw = sim.step();
        sub.observe(raw, &mut observed);
        suite.observe(&observed).expect("mega frames are complete");
    };
    for _ in 0..CALIBRATION_WARMUP {
        scalar_tick(&mut sim);
    }
    let started = Instant::now();
    for _ in 0..CALIBRATION_TICKS {
        scalar_tick(&mut sim);
    }
    let scalar_ns_per_tick_per_run = started.elapsed().as_nanos() as f64 / CALIBRATION_TICKS as f64;

    let widths = [2usize, 4, 8, 16, 32, 64, 128]
        .into_iter()
        .map(|width| {
            let subs: Vec<_> = cells[..width]
                .iter()
                .map(|c| mega::build_mega_cell_in(&family, c, 0))
                .collect();
            let group: Vec<&_> = subs.iter().collect();
            let table = subs[0].signal_table().clone();
            let mut raw = table.frame();
            let mut observed = table.frame();
            let mut sim = esafe_vehicle::VehicleSubstrate::build_simulator_batch(&group)
                .expect("the vehicle substrate has a native batched builder");
            let mut batch = family.template().instantiate_batch(width);
            let mut sim_time = Duration::ZERO;
            let mut tick = |sim: &mut esafe_sim::SimulatorBatch,
                            batch: &mut esafe_monitor::MonitorSuiteBatch,
                            sim_time: &mut Duration| {
                let t0 = Instant::now();
                sim.step();
                *sim_time += t0.elapsed();
                for (l, sub) in subs.iter().enumerate() {
                    sub.observe_lane(sim.state_mut(), l, &mut raw, &mut observed);
                }
                batch
                    .observe_slab(sim.state())
                    .expect("mega frames are complete");
            };
            for _ in 0..CALIBRATION_WARMUP {
                tick(&mut sim, &mut batch, &mut sim_time);
            }
            sim_time = Duration::ZERO;
            let started = Instant::now();
            for _ in 0..CALIBRATION_TICKS {
                tick(&mut sim, &mut batch, &mut sim_time);
            }
            let lane_ticks = (CALIBRATION_TICKS as usize * width) as f64;
            let total = started.elapsed().as_nanos() as f64 / lane_ticks;
            let sim_ns = sim_time.as_nanos() as f64 / lane_ticks;
            WidthPoint {
                width,
                ns_per_tick_per_run: total,
                sim_ns_per_tick_per_run: sim_ns,
                observe_ns_per_tick_per_run: total - sim_ns,
            }
        })
        .collect();

    BatchCalibration {
        ticks: CALIBRATION_TICKS as usize,
        scalar_ns_per_tick_per_run,
        widths,
    }
}

/// Runs an explicit mega cell list (typically [`mega_cells_subset`])
/// through the batched streaming engine, uncheckpointed.
pub fn mega_timed_over(
    cells: Vec<esafe_scenarios::mega::MegaCell>,
    width: usize,
) -> (SweepAggregate, SweepStats) {
    mega::run_mega_aggregate(cells, width).expect("mega-grid formulas compile")
}

/// The mega grid's first `subset` cells (seeds and labels keep their
/// full-grid positions), or the whole grid when `subset` is `None` —
/// the `repro --mega-grid --subset` space, sized for smoke runs and
/// the CI kill-and-resume check.
pub fn mega_cells_subset(subset: Option<usize>) -> Vec<esafe_scenarios::mega::MegaCell> {
    let cells = mega::mega_grid();
    match subset {
        Some(n) => cells.into_iter().take(n).collect(),
        None => cells,
    }
}

/// Provenance of a checkpointed mega run, carried into the schema-v6
/// summary.
#[derive(Debug, Clone, PartialEq)]
pub struct MegaCheckpointInfo {
    /// The journal path a resumed run recovered from (`None` for a
    /// fresh `--checkpoint` run).
    pub resumed_from: Option<String>,
    /// Cells replayed from the journal instead of re-running.
    pub resumed_cells: usize,
    /// Intact journal records after the run (recovered + appended).
    pub journal_records: usize,
}

/// Runs `cells` through the checkpointed mega engine
/// ([`mega::run_mega_aggregate_checkpointed`]): `resume` reopens the
/// journal at `checkpoint` (recovering its intact records and
/// truncating any torn tail), otherwise a fresh journal is created
/// there. Fault isolation is on — failing cells land in
/// [`SweepAggregate::quarantined`], not in an abort.
///
/// # Errors
///
/// Returns the journal's [`esafe_harness::ExperimentError::Journal`]
/// on create/open/mismatch/I-O failure, or a cell's error only if the
/// journal itself failed.
pub fn full_mega_checkpointed(
    cells: Vec<esafe_scenarios::mega::MegaCell>,
    width: usize,
    checkpoint: &str,
    resume: bool,
) -> Result<(SweepAggregate, SweepStats, usize, MegaCheckpointInfo), esafe_harness::ExperimentError>
{
    let count = cells.len();
    let mut journal = if resume {
        esafe_harness::SweepJournal::open(checkpoint)?
    } else {
        mega::create_mega_journal(checkpoint, &cells)?
    };
    let resumed_cells = journal.completed_cells();
    let (aggregate, stats) = mega::run_mega_aggregate_checkpointed(cells, width, &mut journal)?;
    let info = MegaCheckpointInfo {
        resumed_from: resume.then(|| checkpoint.to_owned()),
        resumed_cells,
        journal_records: journal.records(),
    };
    Ok((aggregate, stats, count, info))
}

/// The machine-readable `repro --mega-grid --json` summary — **schema
/// v6**, written to `BENCH_megagrid.json`: the ≥10⁴-cell sweep's
/// wall-clock and worker-time totals, the batch-width calibration that
/// chose the stripe width (the full sim+observe stripe loop, with the
/// chosen width's sim/observe split), the fault-isolation and
/// checkpoint/resume provenance, and the order-independent aggregate.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MegaGridSummary {
    /// Summary schema version (v4 introduced the mega-grid fields and
    /// the monitor-only width calibration; v5 recalibrated over the
    /// full sim+observe stripe loop and recorded the chosen width's
    /// sim/observe split; v6 adds the robustness provenance —
    /// `quarantined_cells`, `retries`, `resumed_from`, `resumed_cells`,
    /// `journal_records` — and zeroes the calibration fields when
    /// `--width` forces the stripe width; v1–v3 are the
    /// `BENCH_grid.json` history).
    pub schema: u32,
    /// Cells in the swept parameter space.
    pub cells: usize,
    /// Total sweep wall-clock, milliseconds.
    pub wall_clock_ms: f64,
    /// Wall-clock per monitored run, milliseconds.
    pub ms_per_run: f64,
    /// Per-run setup time summed over all workers, milliseconds.
    pub setup_ms: f64,
    /// Tick-loop time summed over all workers, milliseconds.
    pub tick_ms: f64,
    /// The stripe width the calibration selected for the sweep.
    pub batch_width: usize,
    /// Scalar full-loop baseline (sim + probe observe + fused
    /// monitors, one run at a time), ns per tick per run.
    pub scalar_ns_per_tick_per_run: f64,
    /// Full stripe-loop cost at `batch_width`, ns per tick per run —
    /// the acceptance quantity (at or below the scalar baseline).
    pub batched_ns_per_tick_per_run: f64,
    /// The [`SimulatorBatch::step`](esafe_sim::SimulatorBatch::step)
    /// share of `batched_ns_per_tick_per_run`.
    pub batched_sim_ns_per_tick_per_run: f64,
    /// The observation share of `batched_ns_per_tick_per_run`:
    /// in-place probe derivation plus the fused monitor slab pass.
    pub batched_observe_ns_per_tick_per_run: f64,
    /// The full width sweep behind the choice.
    pub width_calibration: Vec<WidthPoint>,
    /// Runs that compiled their monitor suite from scratch.
    pub suite_compiles: usize,
    /// Runs whose suite came from a template instantiation (stripe
    /// lanes count here).
    pub suite_instantiations: usize,
    /// Runs that reset and reused a worker's pooled suite.
    pub suite_reuses: usize,
    /// Cells quarantined by fault isolation instead of completing
    /// (`aggregate.quarantined` carries the full per-cell provenance).
    pub quarantined_cells: usize,
    /// Retry attempts consumed across the sweep.
    pub retries: usize,
    /// The journal path a resumed run recovered from (`null` unless
    /// `--resume`).
    pub resumed_from: Option<String>,
    /// Cells replayed from the journal instead of re-running (0 for a
    /// fresh or uncheckpointed run).
    pub resumed_cells: usize,
    /// Intact journal records after the run (0 when uncheckpointed).
    pub journal_records: usize,
    /// The order-independent classification totals.
    pub aggregate: SweepAggregate,
}

/// Serializes the mega-grid aggregate + timing + width calibration +
/// checkpoint provenance as pretty JSON (schema v6). `calibration` is
/// `None` when `--width` forced the stripe width (the calibration
/// fields are zeroed); `checkpoint` is `None` for an uncheckpointed
/// run.
///
/// # Errors
///
/// Returns a `serde_json::Error` if serialization fails (never expected
/// for these types).
pub fn mega_summary_json(
    aggregate: &SweepAggregate,
    wall: std::time::Duration,
    stats: &SweepStats,
    calibration: Option<&BatchCalibration>,
    cells: usize,
    batch_width: usize,
    checkpoint: Option<&MegaCheckpointInfo>,
) -> Result<String, serde_json::Error> {
    let wall_clock_ms = wall.as_secs_f64() * 1000.0;
    let best = calibration.and_then(BatchCalibration::best_point);
    let summary = MegaGridSummary {
        schema: 6,
        cells,
        wall_clock_ms,
        ms_per_run: if aggregate.runs == 0 {
            0.0
        } else {
            wall_clock_ms / aggregate.runs as f64
        },
        setup_ms: stats.setup.as_secs_f64() * 1000.0,
        tick_ms: stats.ticking.as_secs_f64() * 1000.0,
        batch_width,
        scalar_ns_per_tick_per_run: calibration.map_or(0.0, |c| c.scalar_ns_per_tick_per_run),
        batched_ns_per_tick_per_run: calibration
            .map_or(0.0, BatchCalibration::best_ns_per_tick_per_run),
        batched_sim_ns_per_tick_per_run: best.map_or(0.0, |p| p.sim_ns_per_tick_per_run),
        batched_observe_ns_per_tick_per_run: best.map_or(0.0, |p| p.observe_ns_per_tick_per_run),
        width_calibration: calibration.map_or_else(Vec::new, |c| c.widths.clone()),
        suite_compiles: stats.suites_compiled,
        suite_instantiations: stats.suites_instantiated,
        suite_reuses: stats.suites_reused,
        quarantined_cells: aggregate.quarantined.len(),
        retries: aggregate.retries,
        resumed_from: checkpoint.and_then(|c| c.resumed_from.clone()),
        resumed_cells: checkpoint.map_or(0, |c| c.resumed_cells),
        journal_records: checkpoint.map_or(0, |c| c.journal_records),
        aggregate: aggregate.clone(),
    };
    serde_json::to_string_pretty(&summary)
}

/// The machine-readable `repro --grid --json` summary: wall-clock timing
/// plus the order-independent grid aggregate, one JSON object per
/// benchmark run so successive PRs have a trajectory to compare.
///
/// Schema history: **v1** had `wall_clock_ms` / `ms_per_run` /
/// `aggregate` only; **v2** adds the setup/tick attribution and the
/// suite amortization counters, so future wins (and regressions) name
/// the phase they came from; **v3** adds the fused-monitor calibration —
/// `observe_ns_per_tick` and the cross-monitor CSE node counts — and is
/// produced by the streaming (per-worker-reduced) grid sweep.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GridSummary {
    /// Summary schema version (bump when fields change meaning).
    pub schema: u32,
    /// Total grid wall-clock, milliseconds.
    pub wall_clock_ms: f64,
    /// Wall-clock per monitored run, milliseconds.
    pub ms_per_run: f64,
    /// Per-run setup time summed over all workers, milliseconds
    /// (suite acquisition, simulator build, scratch frames).
    pub setup_ms: f64,
    /// Tick-loop time summed over all workers, milliseconds.
    pub tick_ms: f64,
    /// Fused 49-monitor vehicle `observe` cost per tick, nanoseconds
    /// (replay-calibrated, monitoring only — see `observe_calibration`).
    pub observe_ns_per_tick: f64,
    /// Vehicle goal-suite expression nodes before cross-monitor
    /// deduplication (summed per-monitor trees).
    pub cse_source_nodes: usize,
    /// Nodes in the deduplicated fused DAG one tick actually evaluates.
    pub cse_unique_nodes: usize,
    /// Runs that compiled their monitor suite from scratch.
    pub suite_compiles: usize,
    /// Runs that instantiated a suite from the sweep's compile-once
    /// template.
    pub suite_instantiations: usize,
    /// Runs that reset and reused a worker's pooled suite.
    pub suite_reuses: usize,
    /// The order-independent classification totals.
    pub aggregate: SweepAggregate,
}

/// Serializes the grid aggregate + timing + fused-monitor calibration
/// as pretty JSON (schema v3).
///
/// # Errors
///
/// Returns a `serde_json::Error` if serialization fails (never expected
/// for these types).
pub fn grid_summary_json(
    aggregate: &SweepAggregate,
    wall: std::time::Duration,
    stats: &SweepStats,
    calibration: &ObserveCalibration,
) -> Result<String, serde_json::Error> {
    let wall_clock_ms = wall.as_secs_f64() * 1000.0;
    let summary = GridSummary {
        schema: 3,
        wall_clock_ms,
        ms_per_run: if aggregate.runs == 0 {
            0.0
        } else {
            wall_clock_ms / aggregate.runs as f64
        },
        setup_ms: stats.setup.as_secs_f64() * 1000.0,
        tick_ms: stats.ticking.as_secs_f64() * 1000.0,
        observe_ns_per_tick: calibration.observe_ns_per_tick,
        cse_source_nodes: calibration.cse_source_nodes,
        cse_unique_nodes: calibration.cse_unique_nodes,
        suite_compiles: stats.suites_compiled,
        suite_instantiations: stats.suites_instantiated,
        suite_reuses: stats.suites_reused,
        aggregate: aggregate.clone(),
    };
    serde_json::to_string_pretty(&summary)
}

/// The machine-readable `repro --serve-bench --json` summary —
/// **schema v2 (`serve-bench`)**, written to `BENCH_serve.json`: a
/// fleet of replayed elevator runs streamed through one
/// [`esafe_serve::MonitorService`] shard worker, with the sustained
/// concurrency, the end-to-end stream-tick throughput, and — new in
/// v2 — the degradation counters (evictions, quarantines, dropped
/// reports, shard restarts) that a faulty fleet (`--faulty N`)
/// exercises.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServeBenchSummary {
    /// Serve-bench summary schema version.
    pub schema: u32,
    /// Streams held live at once (the fleet size): every close is
    /// immediately replaced until `total_streams` have launched, so the
    /// shard sustains this occupancy for the whole measured window.
    pub concurrent_streams: usize,
    /// Streams launched (and closed) over the run.
    pub total_streams: usize,
    /// Frames each stream replays before ending.
    pub ticks_per_stream: u64,
    /// Total frames monitored, summed over every stream's close-out
    /// summary — the work quantity behind the throughput figures.
    pub stream_ticks: u64,
    /// Monitors evaluated per stream tick (the elevator goal suite).
    pub monitors: usize,
    /// Length of the shared recorded elevator trace the fleet replays
    /// (members start at staggered offsets, wrapping).
    pub trace_ticks: usize,
    /// Lanes provisioned on the shard
    /// ([`lanes_per_shard`](esafe_serve::ServiceConfig::lanes_per_shard)).
    pub shard_lanes: usize,
    /// Waves between periodic violation drains
    /// ([`report_every`](esafe_serve::ServiceConfig::report_every)).
    pub report_every: u64,
    /// Violation intervals reported across the whole fleet (periodic
    /// drains plus close-out summaries — the two never overlap).
    pub violation_intervals: usize,
    /// Percentage of launched streams wrapped in a seeded
    /// [`FaultPlan`](esafe_serve::FaultPlan) (0 = the healthy fleet).
    pub faulty_pct: u32,
    /// Streams actually launched faulty.
    pub faulty_streams: usize,
    /// Streams removed by eviction rather than a clean close (stall
    /// deadline + corrupt quarantine + restart losses).
    pub evicted_streams: usize,
    /// Evictions whose reason was the stall deadline.
    pub stalled_evictions: usize,
    /// Evictions whose reason was transport corruption (quarantine).
    pub corrupt_evictions: usize,
    /// Supervisor shard restarts observed during the run.
    pub shard_restarts: usize,
    /// Report events the shard dropped under the
    /// [`DropAndCount`](esafe_serve::ReportOverflow::DropAndCount)
    /// policy (always 0 here: the benchmark runs the lossless default).
    pub reports_dropped: u64,
    /// End-to-end wall-clock, seconds: connect of the first stream to
    /// close of the last, reports consumed on the caller's thread.
    pub wall_clock_s: f64,
    /// `stream_ticks / wall_clock_s` — monitored frames per second
    /// through the single shard worker.
    pub stream_ticks_per_s: f64,
    /// `1e9 / stream_ticks_per_s` — cost of one monitored frame.
    pub ns_per_stream_tick: f64,
}

/// Drives the fleet-service benchmark behind `repro --serve-bench`:
/// `concurrent` replayed elevator streams held live on one
/// [`MonitorService`](esafe_serve::MonitorService) shard (each close
/// immediately replaced until `total` streams have run), measuring
/// end-to-end stream-tick throughput from the report channel.
///
/// The service runs one worker thread per signal-table family — here
/// exactly one — so the quoted throughput is a single-core figure; the
/// caller's thread only consumes reports and issues replacement
/// connects.
///
/// # Panics
///
/// Panics if `concurrent` is zero, `total < concurrent`,
/// `ticks_per_stream` is zero, or `faulty_pct > 100`; propagates an
/// unexpected clean shard stop.
pub fn serve_bench(
    concurrent: usize,
    total: usize,
    ticks_per_stream: u64,
    faulty_pct: u32,
) -> ServeBenchSummary {
    use esafe_serve::{EvictReason, MonitorService, ReportEvent, ServiceConfig};

    assert!(concurrent > 0, "an empty fleet measures nothing");
    assert!(total >= concurrent, "total streams must cover the fleet");
    assert!(ticks_per_stream > 0, "streams must carry frames");
    assert!(faulty_pct <= 100, "faulty_pct is a percentage");

    const FAULT_SEED: u64 = 0xE5AF_E5EB;
    let workload = esafe_scenarios::FleetWorkload::elevator(2048);
    let config = ServiceConfig {
        lanes_per_shard: concurrent,
        report_capacity: 4096,
        report_every: 64,
        // A faulty fleet needs the stall deadline, or a seeded stall
        // window longer than the stream would pin its lane forever.
        stall_limit: if faulty_pct > 0 { Some(1024) } else { None },
        ..ServiceConfig::default()
    };
    let report_every = config.report_every;
    let mut service = MonitorService::new(config);
    service.load_suite(workload.template());
    let table = std::sync::Arc::clone(workload.table());
    let monitors = workload.template().len();

    // Bresenham-style spread: exactly `faulty_pct`% of launches are
    // faulty, evenly interleaved with healthy ones.
    let is_faulty = |index: usize| {
        (index as u64 * u64::from(faulty_pct)) % 100 >= 100 - u64::from(faulty_pct)
            && faulty_pct > 0
    };
    let mut faulty_streams = 0usize;
    let launch = |service: &mut MonitorService, index: usize, faulty_streams: &mut usize| {
        let source: Box<dyn esafe_serve::StreamSource> = if is_faulty(index) {
            *faulty_streams += 1;
            Box::new(workload.faulty_stream(index, ticks_per_stream, FAULT_SEED))
        } else {
            Box::new(workload.stream(index, ticks_per_stream))
        };
        service
            .connect(&table, source)
            .expect("a loaded shard accepts streams");
    };

    let started = std::time::Instant::now();
    let mut launched = 0usize;
    while launched < concurrent {
        launch(&mut service, launched, &mut faulty_streams);
        launched += 1;
    }

    let mut closed = 0usize;
    let mut stream_ticks = 0u64;
    let mut violation_intervals = 0usize;
    let mut evicted_streams = 0usize;
    let mut stalled_evictions = 0usize;
    let mut corrupt_evictions = 0usize;
    let mut shard_restarts = 0usize;
    let mut reports_dropped = 0u64;
    let count_intervals = |violations: &esafe_serve::StreamViolations| {
        violations.iter().map(|(_, v)| v.len()).sum::<usize>()
    };
    while closed < total {
        let mut finished = false;
        match service
            .recv_report()
            .expect("the shard worker must outlive its streams")
        {
            ReportEvent::Violations(report) => {
                violation_intervals += count_intervals(&report.violations);
            }
            ReportEvent::StreamClosed(summary) => {
                finished = true;
                stream_ticks += summary.ticks;
                violation_intervals += count_intervals(&summary.violations);
            }
            ReportEvent::StreamEvicted(eviction) => {
                finished = true;
                evicted_streams += 1;
                stream_ticks += eviction.ticks;
                violation_intervals += count_intervals(&eviction.violations);
                match eviction.reason {
                    EvictReason::Stalled { .. } => stalled_evictions += 1,
                    EvictReason::Corrupt { .. } => corrupt_evictions += 1,
                    EvictReason::ShardRestart => {}
                }
            }
            ReportEvent::ReportsDropped { dropped, .. } => reports_dropped += dropped,
            ReportEvent::ShardRestarted { .. } => shard_restarts += 1,
            ReportEvent::SuiteUnloaded { .. } => {}
            ReportEvent::ShardStopped { error: Some(_), .. } => {
                // Followed by evictions and a ShardRestarted: the
                // supervisor keeps the benchmark running, degraded.
            }
            ReportEvent::ShardStopped { error: None, .. } => {
                panic!("shard stopped cleanly mid-benchmark");
            }
        }
        if finished {
            closed += 1;
            if launched < total {
                launch(&mut service, launched, &mut faulty_streams);
                launched += 1;
            }
        }
    }
    let wall = started.elapsed();
    service.shutdown();

    let wall_clock_s = wall.as_secs_f64();
    let stream_ticks_per_s = stream_ticks as f64 / wall_clock_s.max(f64::MIN_POSITIVE);
    ServeBenchSummary {
        schema: 2,
        concurrent_streams: concurrent,
        total_streams: total,
        ticks_per_stream,
        stream_ticks,
        monitors,
        trace_ticks: workload.trace_ticks(),
        shard_lanes: concurrent,
        report_every,
        violation_intervals,
        faulty_pct,
        faulty_streams,
        evicted_streams,
        stalled_evictions,
        corrupt_evictions,
        shard_restarts,
        reports_dropped,
        wall_clock_s,
        stream_ticks_per_s,
        ns_per_stream_tick: 1e9 / stream_ticks_per_s.max(f64::MIN_POSITIVE),
    }
}

/// Serializes the serve-bench summary as pretty JSON (schema v2).
///
/// # Errors
///
/// Returns a `serde_json::Error` if serialization fails (never expected
/// for these types).
pub fn serve_summary_json(summary: &ServeBenchSummary) -> Result<String, serde_json::Error> {
    serde_json::to_string_pretty(summary)
}

/// The evaluation grid's first `subset` cells (or the whole 140-cell
/// grid when `subset` is `None`) — the `repro --grid --subset` space,
/// sized for corpus smoke runs and the CI record/replay check.
pub fn grid_cells_subset(subset: Option<usize>) -> Vec<esafe_scenarios::grid::GridCell> {
    let cells = grid::full_grid();
    match subset {
        Some(n) => cells.into_iter().take(n).collect(),
        None => cells,
    }
}

/// The machine-readable `repro --grid/--mega-grid --record-corpus
/// --json` summary — **schema v7 (`corpus-record`)**: what one
/// recording sweep archived (runs, ticks, bytes, dictionary and table
/// counts) plus the live aggregate the recording produced, which any
/// later `thesis`-suite replay of the corpus must reproduce bit for
/// bit.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CorpusRecordSummary {
    /// Corpus summary schema version (v7 introduces the trace-corpus
    /// record/replay summaries; v1–v6 are the grid/mega/serve
    /// histories).
    pub schema: u32,
    /// Which sweep was recorded (`grid` or `mega-grid`).
    pub workload: String,
    /// Cells the recording sweep ran.
    pub cells: usize,
    /// Runs archived into the corpus.
    pub corpus_runs: usize,
    /// Ticks archived across all runs.
    pub corpus_ticks: u64,
    /// Bytes of committed corpus data (header + records).
    pub corpus_bytes: u64,
    /// Corpus-global symbol-dictionary entries.
    pub dict_entries: usize,
    /// Archived signal tables.
    pub tables: usize,
    /// Bytes per archived tick — the columnar-codec density.
    pub bytes_per_tick: f64,
    /// Recording wall-clock (simulate + monitor + archive), ms.
    pub wall_clock_ms: f64,
    /// The recording sweep's live aggregate.
    pub aggregate: SweepAggregate,
}

/// Records a grid or mega-grid cell prefix into a fresh corpus at
/// `dir` — the `repro --record-corpus` workload.
///
/// # Errors
///
/// Propagates [`esafe_harness::CorpusError`] from the recording sweep
/// (existing corpus, failing run, I/O failure).
pub fn record_corpus_timed(
    dir: &str,
    mega: bool,
    subset: Option<usize>,
) -> Result<CorpusRecordSummary, esafe_harness::CorpusError> {
    let started = std::time::Instant::now();
    let (workload, cells, aggregate, stats) = if mega {
        let cells = mega_cells_subset(subset);
        let count = cells.len();
        let (aggregate, _, stats) = esafe_scenarios::corpus::record_mega_corpus(dir, cells)?;
        ("mega-grid", count, aggregate, stats)
    } else {
        let cells = grid_cells_subset(subset);
        let count = cells.len();
        let (aggregate, _, stats) = esafe_scenarios::corpus::record_grid_corpus(dir, cells)?;
        ("grid", count, aggregate, stats)
    };
    Ok(CorpusRecordSummary {
        schema: 7,
        workload: workload.to_owned(),
        cells,
        corpus_runs: stats.runs,
        corpus_ticks: stats.ticks,
        corpus_bytes: stats.data_bytes,
        dict_entries: stats.dict_len,
        tables: stats.tables,
        bytes_per_tick: stats.data_bytes as f64 / (stats.ticks.max(1)) as f64,
        wall_clock_ms: started.elapsed().as_secs_f64() * 1000.0,
        aggregate,
    })
}

/// The machine-readable `repro --replay-corpus --json` summary —
/// **schema v7 (`corpus-replay`)**: the archive that was re-monitored,
/// the suite provenance (name + stripe width), whether the corpus was
/// recovered from a torn recording, the batched replay cost per
/// archived tick per run, and the aggregate the suite produced — for
/// the `thesis` suite, bit-identical to the recording sweep's; for any
/// other suite, bit-identical to running that suite live over the same
/// cells.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CorpusReplaySummary {
    /// Corpus summary schema version (see [`CorpusRecordSummary`]).
    pub schema: u32,
    /// The registered suite the corpus was re-monitored with.
    pub suite: String,
    /// Lanes per replay stripe.
    pub width: usize,
    /// Whether the corpus was opened without a commit manifest (a torn
    /// recording recovered to its complete runs).
    pub recovered: bool,
    /// Runs re-monitored.
    pub corpus_runs: usize,
    /// Ticks re-observed across all runs.
    pub corpus_ticks: u64,
    /// Bytes of valid corpus data behind the replay.
    pub corpus_bytes: u64,
    /// Corpus-global symbol-dictionary entries.
    pub dict_entries: usize,
    /// Archived signal tables.
    pub tables: usize,
    /// Opening the corpus (read, CRC-scan, table/dictionary decode), ms
    /// — linear in `corpus_bytes` (every record is checksummed),
    /// excluded from the per-tick figure.
    pub open_ms: f64,
    /// End-to-end wall-clock (open + suite compile + decode + batched
    /// observe + correlate), ms.
    pub wall_clock_ms: f64,
    /// Replay-engine cost per archived tick per run, nanoseconds
    /// (suite compile + decode + observe + correlate; excludes the
    /// one-time archive open) — the acceptance quantity, compared
    /// against the live batched-observe figure in
    /// `BENCH_megagrid.json`.
    pub replay_ns_per_tick_per_run: f64,
    /// The aggregate the replayed suite produced.
    pub aggregate: SweepAggregate,
}

/// Re-monitors the corpus at `dir` with a registered suite — the
/// `repro --replay-corpus` workload. Zero simulation: archived ticks
/// stream straight into the batched observer.
///
/// # Errors
///
/// Propagates [`esafe_harness::CorpusError`] (unopenable corpus,
/// unknown suite, replay failure).
pub fn replay_corpus_timed(
    dir: &str,
    suite: &str,
    width: usize,
) -> Result<CorpusReplaySummary, esafe_harness::CorpusError> {
    let started = std::time::Instant::now();
    let reader = esafe_harness::TraceCorpusReader::open(dir)?;
    let open = started.elapsed();
    let replay = esafe_harness::replay_corpus(&reader, width, |substrate, table| {
        esafe_scenarios::corpus::suite_for(suite, substrate, table)
    })?;
    let wall = started.elapsed();
    let engine = wall - open;
    let stats = reader.stats();
    Ok(CorpusReplaySummary {
        schema: 7,
        suite: suite.to_owned(),
        width,
        recovered: reader.recovered(),
        corpus_runs: replay.runs,
        corpus_ticks: replay.ticks,
        corpus_bytes: stats.data_bytes,
        dict_entries: stats.dict_len,
        tables: stats.tables,
        open_ms: open.as_secs_f64() * 1000.0,
        wall_clock_ms: wall.as_secs_f64() * 1000.0,
        replay_ns_per_tick_per_run: engine.as_nanos() as f64 / (replay.ticks.max(1)) as f64,
        aggregate: replay.aggregate,
    })
}

/// The machine-readable `repro --grid --suite <name> --json` summary —
/// **schema v7 (`suite-reference`)**: the live reference a corpus
/// replay of the same suite over the same cells is pinned against.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SuiteReferenceSummary {
    /// Corpus summary schema version (see [`CorpusRecordSummary`]).
    pub schema: u32,
    /// The registered suite the live runs were scored with.
    pub suite: String,
    /// Grid cells run live.
    pub cells: usize,
    /// Live wall-clock (simulate + record + re-score), ms.
    pub wall_clock_ms: f64,
    /// The aggregate the suite produced over the live runs.
    pub aggregate: SweepAggregate,
}

/// Runs a grid cell prefix live and scores it with a registered suite
/// — the `repro --grid --suite` reference workload behind the corpus
/// equivalence checks.
///
/// # Errors
///
/// Propagates [`esafe_harness::CorpusError`] (failing run, unknown
/// suite).
pub fn suite_reference_timed(
    subset: Option<usize>,
    suite: &str,
) -> Result<SuiteReferenceSummary, esafe_harness::CorpusError> {
    let started = std::time::Instant::now();
    let cells = grid_cells_subset(subset);
    let count = cells.len();
    let (aggregate, _) = esafe_scenarios::corpus::live_reference(cells, suite)?;
    Ok(SuiteReferenceSummary {
        schema: 7,
        suite: suite.to_owned(),
        cells: count,
        wall_clock_ms: started.elapsed().as_secs_f64() * 1000.0,
        aggregate,
    })
}

/// Serializes any schema-v7 corpus summary as pretty JSON.
///
/// # Errors
///
/// Returns a `serde_json::Error` if serialization fails (never expected
/// for these types).
pub fn corpus_summary_json<T: serde::Serialize>(summary: &T) -> Result<String, serde_json::Error> {
    serde_json::to_string_pretty(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_bench_counts_every_stream_tick() {
        let summary = serve_bench(8, 12, 20, 0);
        assert_eq!(summary.total_streams, 12);
        assert_eq!(summary.stream_ticks, 12 * 20);
        assert!(summary.stream_ticks_per_s > 0.0);
        assert_eq!(summary.faulty_streams, 0);
        assert_eq!(summary.evicted_streams, 0);
        assert_eq!(summary.shard_restarts, 0);
    }

    #[test]
    fn faulty_serve_bench_degrades_without_dying() {
        let summary = serve_bench(8, 20, 30, 25);
        assert_eq!(summary.faulty_pct, 25);
        assert_eq!(summary.faulty_streams, 5, "25% of 20 launches");
        // Every stream — healthy or hostile — reached a terminal event.
        assert_eq!(summary.total_streams, 20);
        // Healthy members alone account for at least their full ticks.
        assert!(summary.stream_ticks >= 15 * 30);
        assert_eq!(summary.shard_restarts, 0, "no panics were injected");
        assert_eq!(summary.reports_dropped, 0, "lossless default policy");
    }

    #[test]
    fn figure_map_covers_all_fourteen_figures() {
        for n in 2..=15 {
            let key = format!("5.{n}");
            assert!(figure_map(&key).is_some(), "missing figure {key}");
        }
        assert!(figure_map("5.99").is_none());
    }

    #[test]
    fn ablation_none_config_is_clean() {
        let rows = ablation(1);
        let (label, ids) = &rows[0];
        assert_eq!(label, "none");
        assert!(ids.is_empty());
        let (_, thesis_ids) = &rows[1];
        assert!(!thesis_ids.is_empty());
    }
}
