//! Determinism regression for the interned-signal redesign.
//!
//! The golden files under `tests/golden/` were produced by the *seed*
//! implementation (string-keyed `BTreeMap` states, per-tick map clones)
//! immediately before the `SignalTable`/`Frame` refactor. The interned
//! pipeline must replay both substrates onto bit-identical `RunReport`s:
//! same violation intervals, same correlation classification, same
//! timing, byte-identical JSON. Any divergence means the refactor changed
//! simulation or monitoring *semantics*, not just representation.

use emergent_safety::elevator::faults::ElevatorFaults;
use emergent_safety::elevator::ElevatorSubstrate;
use emergent_safety::harness::{cell_seed, Experiment, ExperimentConfig, SweepReport};
use emergent_safety::scenarios::{catalog, grid, runner, GridCell};
use emergent_safety::vehicle::config::DefectSet;

#[test]
fn vehicle_scenario1_thesis_matches_seed_pipeline() {
    let scenario = catalog::scenario(1);
    let substrate = runner::substrate(&scenario, DefectSet::thesis());
    let report = Experiment::new(&substrate)
        .with_config(runner::thesis_config())
        .run()
        .unwrap();
    let json = serde_json::to_string_pretty(&report).unwrap();
    let golden = include_str!("golden/vehicle_scenario1_thesis.json");
    assert_eq!(
        json.trim(),
        golden.trim(),
        "vehicle scenario 1 diverged from the seed pipeline"
    );
}

/// The per-run-compile reference: every cell run alone through
/// `Experiment` on a standalone substrate that authors its suite goal
/// by goal and compiles it afresh (`grid::build_cell`).
fn per_run_compile(cells: &[GridCell]) -> SweepReport {
    let runs = cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            Experiment::new(&grid::build_cell(cell, cell_seed(0, i)))
                .with_config(runner::thesis_config())
                .run()
                .unwrap()
        })
        .collect();
    SweepReport {
        runs,
        ..SweepReport::default()
    }
}

/// The fused sweep engine (compile-once suite template whose
/// instantiations evaluate the whole 49-monitor suite as one
/// deduplicated DAG, striped through the batched engines — the
/// production `repro --grid` path) against the per-run-compile
/// reference: the whole `SweepReport` must be bit-identical, through
/// actual JSON text, for a grid slice that includes early-terminating,
/// colliding, and clean cells. This is the template-vs-per-run-compile
/// sweep golden.
#[test]
fn fused_template_sweep_matches_per_monitor_compile_sweep() {
    let cells = grid::cells(&[1, 2, 10], &grid::ablation_configs());
    assert_eq!(cells.len(), 42);
    let reference = per_run_compile(&cells);
    // Production: one family, fused template-instantiated suites,
    // stripes run in parallel.
    let (fused, _) = grid::run_parallel(cells).unwrap();
    assert_eq!(
        serde_json::to_string_pretty(&fused).unwrap(),
        serde_json::to_string_pretty(&reference).unwrap(),
        "template sweep diverged from the per-run-compile pipeline"
    );
    assert_eq!(fused, reference, "reports must match field for field");
    assert_eq!(fused.aggregate(), reference.aggregate());
}

/// The streaming sweep reducer (per-worker partial aggregates folded as
/// reports are produced, merged at join — memory O(workers)) against
/// the collect-all shape and the per-run-compile reference, over a grid
/// enlarged beyond the golden slice by replicating its scenarios: the
/// aggregates must be identical.
#[test]
fn streaming_sweep_aggregate_matches_collect_all_on_enlarged_grid() {
    // 6 scenario entries × 14 configurations = 84 cells — twice the
    // golden slice, with duplicate cells exercising accumulator merges
    // beyond one-report-per-key.
    let cells = grid::cells(&[1, 1, 2, 2, 10, 10], &grid::ablation_configs());
    assert_eq!(cells.len(), 84);
    let reference = per_run_compile(&cells).aggregate();
    let collected = grid::run_parallel(cells.clone()).unwrap().0.aggregate();
    let (streamed, stats) = grid::run_parallel_aggregate(cells).unwrap();
    assert_eq!(
        streamed, collected,
        "streaming reduction diverged from collect-then-aggregate"
    );
    assert_eq!(streamed, reference, "the sweep diverged from per-cell runs");
    assert_eq!(streamed.runs, 84);
    assert_eq!(stats.runs(), 84);
    assert_eq!(stats.suites_compiled, 0, "family sweeps never recompile");
}

#[test]
fn elevator_fault_run_matches_seed_pipeline() {
    let faults = ElevatorFaults {
        drive_ignores_door: true,
        ..ElevatorFaults::none()
    };
    let substrate = ElevatorSubstrate::new(faults, 7).with_ticks(6000);
    let report = Experiment::new(&substrate)
        .with_config(ExperimentConfig {
            post_terminal_ms: 100,
            correlation_window_ms: 50,
        })
        .run()
        .unwrap();
    let json = serde_json::to_string_pretty(&report).unwrap();
    let golden = include_str!("golden/elevator_seed7_drive_ignores_door.json");
    assert_eq!(
        json.trim(),
        golden.trim(),
        "elevator seed-7 fault run diverged from the seed pipeline"
    );
}
