//! Trace-corpus workloads: record evaluation grids into an on-disk
//! [`TraceCorpusWriter`] archive, and re-monitor the archive offline
//! with a *named goal suite* — including one the corpus was never
//! recorded with.
//!
//! This is the operational payoff of treating safety as an emergent,
//! re-checkable property: a changed safety requirement (`strict`) is
//! re-evaluated over the recorded evidence base at batched-observe
//! speed with zero simulation cost, and the result is pinned
//! bit-identical to running the new suite live over the same cells
//! ([`live_reference`]).
//!
//! # The suite registry
//!
//! * `thesis` — the goal suites exactly as the substrates compile them
//!   live ([`VehicleParams::default`] / [`ElevatorParams::default`]
//!   thresholds). Replaying a corpus with `thesis` reproduces the
//!   recording sweep's aggregate.
//! * `strict` — the same goal *structure* with tightened monitoring
//!   thresholds: vehicle `accel_limit` and `jerk_limit` halved,
//!   elevator stop and emergency-brake margins doubled. Strict
//!   parameters feed **only** goal-suite construction, never the
//!   simulator: the vehicle's arbiter and feature rate-limiters read
//!   `VehicleParams` too, so handing strict parameters to
//!   [`VehicleFamily::new`] would change the dynamics being judged
//!   rather than the judgement.

use crate::{grid, mega, runner};
use esafe_elevator::ElevatorParams;
use esafe_harness::corpus::{CorpusStats, SuiteError};
use esafe_harness::{
    replay_corpus, CorpusError, CorpusReplay, SweepAggregate, SweepStats, TraceCorpusReader,
    TraceCorpusWriter,
};
use esafe_logic::SignalTable;
use esafe_monitor::MonitorSuite;
use esafe_vehicle::{VehicleFamily, VehicleParams};
use std::path::Path;
use std::sync::Arc;

/// The registered re-monitoring suite names, in display order.
pub const SUITE_NAMES: &[&str] = &["thesis", "strict"];

/// The tightened vehicle **monitoring** thresholds of the `strict`
/// suite. Only ever passed to [`esafe_vehicle::goals::build_suite`] —
/// see the [module docs](self) for why these must not reach the
/// simulator.
pub fn strict_vehicle_params() -> VehicleParams {
    let d = VehicleParams::default();
    VehicleParams {
        accel_limit: d.accel_limit / 2.0,
        jerk_limit: d.jerk_limit / 2.0,
        ..d
    }
}

/// The tightened elevator **monitoring** thresholds of the `strict`
/// suite (doubled hoistway margins).
pub fn strict_elevator_params() -> ElevatorParams {
    let d = ElevatorParams::default();
    ElevatorParams {
        stop_margin_m: d.stop_margin_m * 2.0,
        ebrake_margin_m: d.ebrake_margin_m * 2.0,
        ..d
    }
}

/// Builds the named goal suite for a substrate, compiled against the
/// given signal table (live table or a corpus reader's re-interned
/// table — goal formulas resolve signals by name).
///
/// # Errors
///
/// [`CorpusError::Suite`] for an unknown suite or substrate name, or
/// a formula that fails to compile against the table.
pub fn suite_for(
    suite: &str,
    substrate: &str,
    table: &Arc<SignalTable>,
) -> Result<MonitorSuite, CorpusError> {
    let built = match (suite, substrate) {
        ("thesis", "vehicle") => {
            esafe_vehicle::goals::build_suite(table, &VehicleParams::default())
        }
        ("strict", "vehicle") => esafe_vehicle::goals::build_suite(table, &strict_vehicle_params()),
        ("thesis", "elevator") => {
            esafe_elevator::goals::build_suite(table, &ElevatorParams::default())
        }
        ("strict", "elevator") => {
            esafe_elevator::goals::build_suite(table, &strict_elevator_params())
        }
        ("thesis" | "strict", other) => {
            return Err(CorpusError::Suite(SuiteError::NoSubstrate(
                other.to_owned(),
            )))
        }
        (other, _) => return Err(CorpusError::Suite(SuiteError::Unknown(other.to_owned()))),
    };
    built.map_err(|e| CorpusError::Suite(SuiteError::Compile(e)))
}

/// Records a scenario × defect grid into a fresh corpus at `dir`,
/// returning the recording sweep's aggregate and stats plus the
/// committed corpus totals. Runs serially (the corpus is append-only);
/// the aggregate is bit-identical to the parallel sweep's.
///
/// # Errors
///
/// Fails if `dir` already holds a corpus, or on the first failing run
/// or I/O failure.
pub fn record_grid_corpus(
    dir: impl AsRef<Path>,
    cells: Vec<grid::GridCell>,
) -> Result<(SweepAggregate, SweepStats, CorpusStats), CorpusError> {
    let sweep = grid::sweep(cells);
    let mut writer = TraceCorpusWriter::create(dir, runner::thesis_config())?;
    let family = VehicleFamily::default();
    let (aggregate, stats) = sweep.run_aggregate_recorded(
        |cell, seed| grid::build_cell_in(&family, cell, seed),
        &mut writer,
    )?;
    let corpus = writer.finish()?;
    Ok((aggregate, stats, corpus))
}

/// Records a mega-grid cell list into a fresh corpus at `dir` — the
/// `repro --mega-grid --record-corpus` workload.
///
/// # Errors
///
/// As [`record_grid_corpus`].
pub fn record_mega_corpus(
    dir: impl AsRef<Path>,
    cells: Vec<mega::MegaCell>,
) -> Result<(SweepAggregate, SweepStats, CorpusStats), CorpusError> {
    let sweep = mega::mega_sweep(cells);
    let mut writer = TraceCorpusWriter::create(dir, runner::thesis_config())?;
    let family = VehicleFamily::default();
    let (aggregate, stats) = sweep.run_aggregate_recorded(
        |cell, seed| mega::build_mega_cell_in(&family, cell, seed),
        &mut writer,
    )?;
    let corpus = writer.finish()?;
    Ok((aggregate, stats, corpus))
}

/// Re-monitors the corpus at `dir` with the named suite in stripes of
/// `width` lanes, returning the replay outcome alongside the reader
/// (for stats and recovery reporting).
///
/// # Errors
///
/// Fails on an unopenable corpus, an unknown suite, or a replay
/// failure.
pub fn replay_with_suite(
    dir: impl AsRef<Path>,
    suite: &str,
    width: usize,
) -> Result<(CorpusReplay, TraceCorpusReader), CorpusError> {
    let reader = TraceCorpusReader::open(dir)?;
    let replay = replay_corpus(&reader, width, |substrate, table| {
        suite_for(suite, substrate, table)
    })?;
    Ok((replay, reader))
}

/// The live reference for corpus replay over a grid subset: runs the
/// cells live (default dynamics, frame recording on) and scores each
/// run with the named suite, producing the aggregate
/// `--replay-corpus --suite <name>` must reproduce bit for bit.
///
/// # Errors
///
/// Fails on the first failing run or a suite failure.
pub fn live_reference(
    cells: Vec<grid::GridCell>,
    suite: &str,
) -> Result<(SweepAggregate, SweepStats), CorpusError> {
    let sweep = grid::sweep(cells);
    let family = VehicleFamily::default();
    sweep.run_aggregate_rescored(
        |cell, seed| grid::build_cell_in(&family, cell, seed),
        |substrate, table| suite_for(suite, substrate, table),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use esafe_harness::{replay_corpus_reports, DEFAULT_BATCH_WIDTH};

    #[test]
    fn strict_params_tighten_only_monitoring_thresholds() {
        let thesis = VehicleParams::default();
        let strict = strict_vehicle_params();
        assert_eq!(strict.accel_limit, thesis.accel_limit / 2.0);
        assert_eq!(strict.jerk_limit, thesis.jerk_limit / 2.0);
        // Everything the simulator reads is untouched.
        assert_eq!(strict.accel_tau_s, thesis.accel_tau_s);
        assert_eq!(strict.max_brake_decel, thesis.max_brake_decel);
        assert_eq!(strict.ca_margin_m, thesis.ca_margin_m);
    }

    #[test]
    fn the_registry_rejects_unknown_names() {
        let family = VehicleFamily::default();
        assert!(suite_for("thesis", "vehicle", family.table()).is_ok());
        assert!(suite_for("strict", "vehicle", family.table()).is_ok());
        assert!(matches!(
            suite_for("lenient", "vehicle", family.table()),
            Err(CorpusError::Suite(SuiteError::Unknown(name))) if name == "lenient"
        ));
        assert!(matches!(
            suite_for("thesis", "submarine", family.table()),
            Err(CorpusError::Suite(SuiteError::NoSubstrate(name))) if name == "submarine"
        ));
    }

    #[test]
    fn record_then_replay_round_trips_the_recording_aggregate() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("esafe-scen-corpus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let cells = grid::cells(&[1, 4], &grid::ablation_configs()[..2]);
        let (recorded, _, stats) = record_grid_corpus(&dir, cells.clone()).unwrap();
        assert_eq!(stats.runs, 4);

        let (replay, reader) = replay_with_suite(&dir, "thesis", 3).unwrap();
        assert!(!reader.recovered());
        assert_eq!(replay.aggregate, recorded);

        // Each replayed run ends where the live run did, on the live
        // run's clock; scenario 1 under `thesis (all)` ends early.
        let family = VehicleFamily::default();
        let (live, _) = grid::sweep(cells)
            .run(
                |cell, seed| grid::build_cell_in(&family, cell, seed),
                DEFAULT_BATCH_WIDTH,
            )
            .unwrap();
        let (_, replayed) = replay_corpus_reports(&reader, 3, |substrate, table| {
            suite_for("thesis", substrate, table)
        })
        .unwrap();
        assert_eq!(replayed.len(), live.runs.len());
        assert!(live.runs.iter().any(|r| r.terminated_early));
        for (replayed, live) in replayed.iter().zip(&live.runs) {
            assert_eq!(replayed.label, live.label);
            assert_eq!(
                (
                    replayed.ticks,
                    replayed.end_time_s,
                    replayed.terminated_early,
                    &replayed.terminal_event
                ),
                (
                    live.ticks,
                    live.end_time_s,
                    live.terminated_early,
                    &live.terminal_event
                ),
                "{}",
                live.label
            );
        }

        let (strict, _) = replay_with_suite(&dir, "strict", 3).unwrap();
        assert!(
            strict.aggregate != recorded,
            "the strict suite must judge the same runs differently"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
