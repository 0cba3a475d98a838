//! Shared helpers for the reproduction binary.
//!
//! Each `repro` command runs through one function here that returns a
//! serializable summary: aggregates, counters and provenance, never a
//! clock reading. `perfbench/` is the repository's one timer; its
//! committed points are the `BENCH_*.json` files at the root. Every
//! summary is **schema v8**: v1–v3 were the grid's, v4–v6 the
//! mega-grid's, v2 the serve bench's and v7 the corpus summaries', and
//! v8 dropped their timing fields.

use esafe_harness::{
    CorpusError, ExperimentError, SweepAggregate, SweepJournal, TraceCorpusReader,
    DEFAULT_REPLAY_WIDTH,
};
use esafe_scenarios::{catalog, grid, mega, runner, ScenarioReport};
use esafe_vehicle::config::DefectSet;
use esafe_vehicle::VehicleFamily;
use serde::{Deserialize, Serialize};

/// The `schema` every summary carries.
const SCHEMA: u32 = 8;

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

/// The `repro --grid --json` summary: the thesis grid's suite counters,
/// the fused vehicle suite's size, and the order-independent aggregate
/// that `BENCH_grid.json` pins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridSummary {
    /// Summary schema version.
    pub schema: u32,
    /// Runs that compiled their monitor suite from scratch.
    pub suite_compiles: usize,
    /// Runs that instantiated a suite from the sweep's compile-once
    /// template.
    pub suite_instantiations: usize,
    /// Runs that reset and reused a worker's pooled suite.
    pub suite_reuses: usize,
    /// Vehicle goal-suite expression nodes before cross-monitor
    /// deduplication (summed per-monitor trees).
    pub cse_source_nodes: usize,
    /// Nodes in the deduplicated fused DAG one tick evaluates.
    pub cse_unique_nodes: usize,
    /// The order-independent classification totals.
    pub aggregate: SweepAggregate,
}

/// Runs the full ten-scenario × fourteen-configuration evaluation grid
/// as a streaming reduction at [`DEFAULT_BATCH_WIDTH`] — the
/// `repro --grid` workload.
///
/// [`DEFAULT_BATCH_WIDTH`]: esafe_harness::DEFAULT_BATCH_WIDTH
///
/// # Errors
///
/// Returns the first failing cell's [`ExperimentError`].
pub fn grid_summary() -> Result<GridSummary, ExperimentError> {
    let (aggregate, stats) = grid::run_parallel_aggregate(grid::full_grid())?;
    let family = VehicleFamily::default();
    let program = family.template().fused_program();
    Ok(GridSummary {
        schema: SCHEMA,
        suite_compiles: stats.suites_compiled,
        suite_instantiations: stats.suites_instantiated,
        suite_reuses: stats.suites_reused,
        cse_source_nodes: program.source_nodes(),
        cse_unique_nodes: program.unique_nodes(),
        aggregate,
    })
}

/// The mega grid's first `subset` cells (seeds and labels keep their
/// full-grid positions), or the whole grid when `subset` is `None` —
/// the `repro --mega-grid --subset` space, sized for smoke runs and
/// the CI kill-and-resume check.
pub fn mega_cells_subset(subset: Option<usize>) -> Vec<mega::MegaCell> {
    let cells = mega::mega_grid();
    match subset {
        Some(n) => cells.into_iter().take(n).collect(),
        None => cells,
    }
}

/// The `repro --mega-grid --json` summary: the swept cells, the suite
/// counters, the fault-isolation and checkpoint/resume provenance, and
/// the order-independent aggregate that `BENCH_mega.json` pins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MegaGridSummary {
    /// Summary schema version.
    pub schema: u32,
    /// Cells in the swept parameter space.
    pub cells: usize,
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

/// Runs `cells` through the batched mega engine at
/// [`mega::MEGA_WIDTH`] — the
/// `repro --mega-grid` workload. With a `checkpoint` path the sweep is
/// fault-isolated and journaled there
/// ([`mega::run_mega_aggregate_checkpointed`]): `resume` reopens the
/// journal (recovering its intact records and truncating any torn
/// tail), otherwise a fresh journal is created.
///
/// # Errors
///
/// Returns the journal's [`ExperimentError::Journal`] on
/// create/open/mismatch/I-O failure, or the first failing cell's error
/// when uncheckpointed.
pub fn mega_summary(
    cells: Vec<mega::MegaCell>,
    checkpoint: Option<&str>,
    resume: bool,
) -> Result<MegaGridSummary, ExperimentError> {
    let count = cells.len();
    let (aggregate, stats, resumed_cells, journal_records) = match checkpoint {
        Some(path) => {
            let mut journal = if resume {
                SweepJournal::open(path)?
            } else {
                mega::create_mega_journal(path, &cells)?
            };
            let resumed = journal.completed_cells();
            let (aggregate, stats) =
                mega::run_mega_aggregate_checkpointed(cells, mega::MEGA_WIDTH, &mut journal)?;
            (aggregate, stats, resumed, journal.records())
        }
        None => {
            let (aggregate, stats) = mega::run_mega_aggregate(cells, mega::MEGA_WIDTH)?;
            (aggregate, stats, 0, 0)
        }
    };
    Ok(MegaGridSummary {
        schema: SCHEMA,
        cells: count,
        suite_compiles: stats.suites_compiled,
        suite_instantiations: stats.suites_instantiated,
        suite_reuses: stats.suites_reused,
        quarantined_cells: aggregate.quarantined.len(),
        retries: aggregate.retries,
        resumed_from: checkpoint.filter(|_| resume).map(str::to_owned),
        resumed_cells,
        journal_records,
        aggregate,
    })
}

/// The `repro --serve-bench --json` summary: a fleet of replayed
/// elevator runs streamed through one [`esafe_serve::MonitorService`]
/// shard worker, with the sustained concurrency, the monitored frames,
/// and the degradation counters (evictions, quarantines, dropped
/// reports, shard restarts) that a faulty fleet (`--faulty N`)
/// exercises.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeBenchSummary {
    /// Summary schema version.
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
    /// summary.
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
}

/// Drives the fleet behind `repro --serve-bench`: `concurrent` replayed
/// elevator streams held live on one
/// [`MonitorService`](esafe_serve::MonitorService) shard (each close
/// immediately replaced until `total` streams have run), counting what
/// the report channel delivers. The service runs one worker thread per
/// signal-table family — here exactly one; the caller's thread only
/// consumes reports and issues replacement connects.
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
    service.shutdown();

    ServeBenchSummary {
        schema: SCHEMA,
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
    }
}

/// The evaluation grid's first `subset` cells (or the whole 140-cell
/// grid when `subset` is `None`) — the `repro --grid --subset` space,
/// sized for corpus smoke runs and the CI record/replay check.
pub fn grid_cells_subset(subset: Option<usize>) -> Vec<grid::GridCell> {
    let cells = grid::full_grid();
    match subset {
        Some(n) => cells.into_iter().take(n).collect(),
        None => cells,
    }
}

/// The `repro --grid/--mega-grid --record-corpus --json` summary: what
/// one recording sweep archived (runs, ticks, bytes, dictionary and
/// table counts) plus the live aggregate the recording produced, which
/// any later `thesis`-suite replay of the corpus must reproduce bit for
/// bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusRecordSummary {
    /// Summary schema version.
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
    /// The recording sweep's live aggregate.
    pub aggregate: SweepAggregate,
}

/// Records a grid or mega-grid cell prefix into a fresh corpus at
/// `dir` — the `repro --record-corpus` workload.
///
/// # Errors
///
/// Propagates [`CorpusError`] from the recording sweep (existing
/// corpus, failing run, I/O failure).
pub fn record_corpus_summary(
    dir: &str,
    mega: bool,
    subset: Option<usize>,
) -> Result<CorpusRecordSummary, CorpusError> {
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
        schema: SCHEMA,
        workload: workload.to_owned(),
        cells,
        corpus_runs: stats.runs,
        corpus_ticks: stats.ticks,
        corpus_bytes: stats.data_bytes,
        dict_entries: stats.dict_len,
        tables: stats.tables,
        bytes_per_tick: stats.data_bytes as f64 / (stats.ticks.max(1)) as f64,
        aggregate,
    })
}

/// The `repro --replay-corpus --json` summary: the archive that was
/// re-monitored, the suite it was judged by, whether the corpus was
/// recovered from a torn recording, and the aggregate the suite
/// produced — for the `thesis` suite, bit-identical to the recording
/// sweep's; for any other suite, bit-identical to running that suite
/// live over the same cells.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusReplaySummary {
    /// Summary schema version.
    pub schema: u32,
    /// The registered suite the corpus was re-monitored with.
    pub suite: String,
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
    /// The aggregate the replayed suite produced.
    pub aggregate: SweepAggregate,
}

/// Re-monitors the corpus at `dir` with a registered suite, in stripes
/// of [`DEFAULT_REPLAY_WIDTH`] — the `repro --replay-corpus` workload.
/// Zero simulation: archived ticks stream straight into the batched
/// observer.
///
/// # Errors
///
/// Propagates [`CorpusError`] (unopenable corpus, unknown suite, replay
/// failure).
pub fn replay_corpus_summary(dir: &str, suite: &str) -> Result<CorpusReplaySummary, CorpusError> {
    let reader = TraceCorpusReader::open(dir)?;
    let replay =
        esafe_harness::replay_corpus(&reader, DEFAULT_REPLAY_WIDTH, |substrate, table| {
            esafe_scenarios::corpus::suite_for(suite, substrate, table)
        })?;
    let stats = reader.stats();
    Ok(CorpusReplaySummary {
        schema: SCHEMA,
        suite: suite.to_owned(),
        recovered: reader.recovered(),
        corpus_runs: replay.runs,
        corpus_ticks: replay.ticks,
        corpus_bytes: stats.data_bytes,
        dict_entries: stats.dict_len,
        tables: stats.tables,
        aggregate: replay.aggregate,
    })
}

/// The `repro --grid --suite <name> --json` summary: the live reference
/// a corpus replay of the same suite over the same cells is pinned
/// against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteReferenceSummary {
    /// Summary schema version.
    pub schema: u32,
    /// The registered suite the live runs were scored with.
    pub suite: String,
    /// Grid cells run live.
    pub cells: usize,
    /// The aggregate the suite produced over the live runs.
    pub aggregate: SweepAggregate,
}

/// Runs a grid cell prefix live and scores it with a registered suite
/// — the `repro --grid --suite` reference workload behind the corpus
/// equivalence checks.
///
/// # Errors
///
/// Propagates [`CorpusError`] (failing run, unknown suite).
pub fn suite_reference_summary(
    subset: Option<usize>,
    suite: &str,
) -> Result<SuiteReferenceSummary, CorpusError> {
    let cells = grid_cells_subset(subset);
    let count = cells.len();
    let (aggregate, _) = esafe_scenarios::corpus::live_reference(cells, suite)?;
    Ok(SuiteReferenceSummary {
        schema: SCHEMA,
        suite: suite.to_owned(),
        cells: count,
        aggregate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_bench_counts_every_stream_tick() {
        let summary = serve_bench(8, 12, 20, 0);
        assert_eq!(summary.total_streams, 12);
        assert_eq!(summary.stream_ticks, 12 * 20);
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
