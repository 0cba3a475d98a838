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
use emergent_safety::harness::{Experiment, ExperimentConfig};
use emergent_safety::scenarios::{catalog, grid, runner};
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

/// The fused sweep engine (compile-once suite template whose
/// instantiations evaluate the whole 49-monitor suite as one
/// deduplicated DAG, per-worker pooled run contexts — the production
/// `repro --grid` path) against the per-run-compile reference, whose
/// standalone substrates author their suite goal by goal and compile it
/// afresh every run: the whole `SweepReport` must be bit-identical,
/// through actual JSON text, for a grid slice that includes
/// early-terminating, colliding, and clean cells. This is the
/// template-vs-per-run-compile sweep golden.
#[test]
fn fused_template_sweep_matches_per_monitor_compile_sweep() {
    let cells = grid::cells(&[1, 2, 10], &grid::ablation_configs());
    assert_eq!(cells.len(), 42);
    // Reference: every cell builds a standalone substrate and recompiles
    // its monitor suite from the goal tables (`grid::build_cell`),
    // serially.
    let reference = grid::sweep(cells.clone())
        .run_serial(grid::build_cell)
        .unwrap();
    // Production: one family, fused template-instantiated suites, pooled
    // worker contexts, rayon-parallel.
    let fused = grid::run_parallel(cells).unwrap();
    assert_eq!(
        serde_json::to_string_pretty(&fused).unwrap(),
        serde_json::to_string_pretty(&reference).unwrap(),
        "template sweep diverged from the per-run-compile pipeline"
    );
    assert_eq!(fused, reference, "series must match too");
    assert_eq!(fused.aggregate(), reference.aggregate());
}

/// The streaming sweep reducer (per-worker partial aggregates folded as
/// reports are produced, merged at join — memory O(workers)) against
/// the collect-all path, over a grid enlarged beyond the golden slice
/// by replicating its scenarios: the aggregates must be identical.
#[test]
fn streaming_sweep_aggregate_matches_collect_all_on_enlarged_grid() {
    // 6 scenario entries × 14 configurations = 84 cells — twice the
    // golden slice, with duplicate cells exercising accumulator merges
    // beyond one-report-per-key.
    let cells = grid::cells(&[1, 1, 2, 2, 10, 10], &grid::ablation_configs());
    assert_eq!(cells.len(), 84);
    let collected = grid::run_parallel(cells.clone()).unwrap().aggregate();
    let (streamed, stats) = grid::run_parallel_aggregate(cells).unwrap();
    assert_eq!(
        streamed, collected,
        "streaming reduction diverged from collect-then-aggregate"
    );
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
