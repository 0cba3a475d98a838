//! Cross-crate determinism: the harness must produce byte-identical
//! reports for identical configurations on both substrates, and every
//! sweep must reproduce, cell for cell, what each cell's own
//! `Experiment` run reports.

use emergent_safety::elevator::faults::ElevatorFaults;
use emergent_safety::elevator::{ElevatorFamily, ElevatorSubstrate};
use emergent_safety::harness::{
    cell_seed, Experiment, ExperimentConfig, RunReport, Substrate, Sweep, SweepReport,
    DEFAULT_BATCH_WIDTH,
};
use emergent_safety::scenarios::{catalog, grid, runner};
use emergent_safety::vehicle::config::DefectSet;
use emergent_safety::vehicle::VehicleFamily;

/// Serializes a report with the series stripped (the `#[serde(skip)]`
/// field), then byte-compares — the strongest equality serde can see.
fn json(report: &RunReport) -> String {
    serde_json::to_string(report).expect("report serializes")
}

/// The reference every sweep here must reproduce: each cell run alone
/// through `Experiment` with its cell seed, collected into a report.
fn per_cell<C, S: Substrate>(
    cells: &[C],
    base: u64,
    config: ExperimentConfig,
    build: impl Fn(&C, u64) -> S,
) -> SweepReport {
    let runs = cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            Experiment::new(&build(cell, cell_seed(base, i)))
                .with_config(config)
                .run()
                .unwrap()
        })
        .collect();
    SweepReport {
        runs,
        ..SweepReport::default()
    }
}

#[test]
fn vehicle_runs_are_byte_identical_per_scenario() {
    let scenario = catalog::scenario(1);
    let substrate = runner::substrate(&scenario, DefectSet::thesis());
    let run = || {
        Experiment::new(&substrate)
            .with_config(runner::thesis_config())
            .run()
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same scenario must reproduce exactly");
    assert_eq!(json(&a), json(&b));
}

#[test]
fn elevator_runs_are_byte_identical_per_seed() {
    let substrate = ElevatorSubstrate::new(ElevatorFaults::none(), 42).with_ticks(2000);
    let a = Experiment::new(&substrate).run().unwrap();
    let b = Experiment::new(&substrate).run().unwrap();
    assert_eq!(a, b, "same seed must reproduce exactly");
    assert_eq!(json(&a), json(&b));
}

#[test]
fn vehicle_grid_sweep_matches_per_cell_runs_over_eight_cells() {
    let configs = vec![
        ("none".to_owned(), DefectSet::none()),
        ("thesis (all)".to_owned(), DefectSet::thesis()),
        (
            "ca_intermittent_braking".to_owned(),
            DefectSet {
                ca_intermittent_braking: true,
                ..DefectSet::none()
            },
        ),
        (
            "pa_requests_while_disabled".to_owned(),
            DefectSet {
                pa_requests_while_disabled: true,
                ..DefectSet::none()
            },
        ),
    ];
    let cells = grid::cells(&[1, 2], &configs);
    assert_eq!(cells.len(), 8);
    let (parallel, _) = grid::run_parallel(cells.clone()).unwrap();
    let family = VehicleFamily::default();
    let reference = per_cell(&cells, 0, runner::thesis_config(), |cell, seed| {
        grid::build_cell_in(&family, cell, seed)
    });
    assert_eq!(parallel.aggregate(), reference.aggregate());
    assert_eq!(
        parallel, reference,
        "every report must match, in cell order"
    );
    // The sweep must actually exercise the defect structure: the thesis
    // cells collide, the fixed cells stay clean.
    assert!(
        parallel
            .for_label("scenario-1/thesis (all)")
            .unwrap()
            .terminated_early
    );
    assert!(!parallel
        .for_label("scenario-1/none")
        .unwrap()
        .any_violations());
}

#[test]
fn elevator_seed_sweep_matches_per_cell_runs_over_eight_cells() {
    let cells: Vec<u64> = (0..8).collect();
    let build = |_cell: &u64, seed: u64| {
        ElevatorSubstrate::new(ElevatorFaults::none(), seed).with_ticks(1500)
    };
    let reference = per_cell(&cells, 2009, ExperimentConfig::default(), build);
    let sweep = Sweep::new(cells).with_base_seed(2009);
    let (parallel, _) = sweep.run(build, DEFAULT_BATCH_WIDTH).unwrap();
    assert_eq!(parallel.aggregate(), reference.aggregate());
    assert_eq!(parallel, reference);
    // Deterministic per-cell seeds give every cell distinct traffic.
    let labels: std::collections::BTreeSet<&String> =
        parallel.runs.iter().map(|r| &r.label).collect();
    assert_eq!(labels.len(), 8, "cell seeds must be distinct");
}

#[test]
fn elevator_family_sweep_matches_standalone_sweep_on_both_paths() {
    // The template path (family-derived substrates), striped and
    // scalar, against per-cell runs that compile every suite afresh —
    // every report must be byte-identical.
    let cells: Vec<u64> = (0..6).collect();
    let family = ElevatorFamily::default();
    let fault = ElevatorFaults {
        drive_ignores_door: true,
        ..ElevatorFaults::none()
    };
    let in_family = |_cell: &u64, seed: u64| family.substrate(fault, seed).with_ticks(1200);
    let standalone = |_cell: &u64, seed: u64| ElevatorSubstrate::new(fault, seed).with_ticks(1200);
    let reference = per_cell(&cells, 1977, ExperimentConfig::default(), standalone);
    let sweep = Sweep::new(cells).with_base_seed(1977);
    // Width 8 runs the six cells as one stripe, width 1 as scalar cells.
    for width in [DEFAULT_BATCH_WIDTH, 1] {
        let (family_sweep, stats) = sweep.run(in_family, width).unwrap();
        assert_eq!(family_sweep, reference, "width {width}");
        assert_eq!(stats.suites_compiled, 0, "family cells must not recompile");
        assert_eq!(stats.suites_instantiated + stats.suites_reused, 6);
    }
}
