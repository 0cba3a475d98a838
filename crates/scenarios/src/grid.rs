//! Scenario × defect sweep grids: the batch-parallel evaluation axis.
//!
//! A [`GridCell`] names one (scenario, defect configuration) pair; the
//! grid builders produce cell vectors for [`esafe_harness::Sweep`] to
//! fan across cores. Because every vehicle run is fully deterministic,
//! each cell's report in a sweep is bit-identical to running that cell
//! alone through [`esafe_harness::Experiment`] — which the workspace's
//! determinism tests pin.

use crate::catalog;
use crate::runner;
use esafe_harness::{
    ExperimentError, Sweep, SweepAggregate, SweepReport, SweepStats, DEFAULT_BATCH_WIDTH,
};
use esafe_vehicle::config::DefectSet;
use esafe_vehicle::substrate::{VehicleFamily, VehicleSubstrate};

/// One cell of a scenario × defect grid.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Scenario number, 1–10.
    pub scenario: u8,
    /// The defect configuration's label (e.g. `"thesis (all)"`).
    pub config: String,
    /// The defect configuration.
    pub defects: DefectSet,
}

/// The defect-ablation axis: the fixed system, the thesis's full defect
/// population, and every single-defect configuration.
pub fn ablation_configs() -> Vec<(String, DefectSet)> {
    let mut configs = vec![
        ("none".to_owned(), DefectSet::none()),
        ("thesis (all)".to_owned(), DefectSet::thesis()),
    ];
    configs.extend(
        DefectSet::singles()
            .into_iter()
            .map(|(name, set)| (name.to_owned(), set)),
    );
    configs
}

/// The cells of `scenarios` × `configs`, scenario-major.
pub fn cells(scenarios: &[u8], configs: &[(String, DefectSet)]) -> Vec<GridCell> {
    scenarios
        .iter()
        .flat_map(|&scenario| {
            configs.iter().map(move |(config, defects)| GridCell {
                scenario,
                config: config.clone(),
                defects: *defects,
            })
        })
        .collect()
}

/// The full evaluation grid: all ten scenarios × the full ablation axis
/// (140 monitored runs).
pub fn full_grid() -> Vec<GridCell> {
    let scenarios: Vec<u8> = (1..=10).collect();
    cells(&scenarios, &ablation_configs())
}

/// The substrate for one grid cell, self-compiling its monitors per run
/// (the per-run-compile reference the template-backed sweep is
/// golden-tested against; vehicle runs are deterministic, so the
/// per-cell seed is unused).
pub fn build_cell(cell: &GridCell, _seed: u64) -> VehicleSubstrate {
    let scenario = catalog::scenario(cell.scenario);
    runner::substrate(&scenario, cell.defects)
        .with_label(format!("scenario-{}/{}", cell.scenario, cell.config))
}

/// The substrate for one grid cell within a shared [`VehicleFamily`]:
/// the cell reuses the family's signal table and compile-once suite
/// template.
pub fn build_cell_in(family: &VehicleFamily, cell: &GridCell, _seed: u64) -> VehicleSubstrate {
    let scenario = catalog::scenario(cell.scenario);
    runner::substrate_in(family, &scenario, cell.defects)
        .with_label(format!("scenario-{}/{}", cell.scenario, cell.config))
}

/// A sweep over the given cells under the thesis timing policy.
pub fn sweep(grid: Vec<GridCell>) -> Sweep<GridCell> {
    Sweep::new(grid).with_config(runner::thesis_config())
}

/// Runs a grid in parallel across cores, keeping every report in cell
/// order, plus the sweep's [`SweepStats`] (suite amortization
/// counters): suite compilation amortized through one
/// [`VehicleFamily`] built for the whole sweep, and cells striped
/// [`DEFAULT_BATCH_WIDTH`] at a time ([`Sweep::run`]).
///
/// # Errors
///
/// Returns the first failing cell's [`ExperimentError`].
pub fn run_parallel(grid: Vec<GridCell>) -> Result<(SweepReport, SweepStats), ExperimentError> {
    let family = VehicleFamily::default();
    sweep(grid).run(
        |cell, seed| build_cell_in(&family, cell, seed),
        DEFAULT_BATCH_WIDTH,
    )
}

/// [`run_parallel`] as a **streaming reduction** ([`Sweep::run_aggregate`]):
/// every stripe's reports fold into a per-worker partial aggregate the
/// moment the stripe completes, so no report is retained and memory
/// stays O(workers × stripe width) no matter how many cells the grid
/// holds. This is the engine behind `repro --grid`.
///
/// # Errors
///
/// Returns the first failing cell's [`ExperimentError`], by cell order.
pub fn run_parallel_aggregate(
    grid: Vec<GridCell>,
) -> Result<(SweepAggregate, SweepStats), ExperimentError> {
    let family = VehicleFamily::default();
    sweep(grid).run_aggregate(
        |cell, seed| build_cell_in(&family, cell, seed),
        DEFAULT_BATCH_WIDTH,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use esafe_harness::{cell_seed, Experiment, RunReport};

    #[test]
    fn full_grid_is_scenarios_times_configs() {
        let grid = full_grid();
        assert_eq!(grid.len(), 10 * 14);
        assert_eq!(grid[0].scenario, 1);
        assert_eq!(grid[0].config, "none");
        assert_eq!(grid[14].scenario, 2);
    }

    /// Each cell run alone through [`Experiment`] under the thesis
    /// timing policy — the reference every grid sweep must reproduce.
    fn per_cell(
        grid: &[GridCell],
        build: impl Fn(&GridCell, u64) -> VehicleSubstrate,
    ) -> Vec<RunReport> {
        grid.iter()
            .enumerate()
            .map(|(i, cell)| {
                Experiment::new(&build(cell, cell_seed(0, i)))
                    .with_config(runner::thesis_config())
                    .run()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn family_grid_matches_per_run_compile_grid() {
        // The template-amortized sweep (the production path) against
        // per-cell runs that recompile every cell's suite.
        let grid = cells(
            &[1, 2],
            &[
                ("none".to_owned(), DefectSet::none()),
                ("thesis (all)".to_owned(), DefectSet::thesis()),
            ],
        );
        let (amortized, stats) = run_parallel(grid.clone()).unwrap();
        let reference = per_cell(&grid, build_cell);
        assert_eq!(
            amortized.runs, reference,
            "template path must be bit-identical"
        );
        assert_eq!(stats.suites_compiled, 0, "no cell may recompile the suite");
        assert_eq!(stats.suites_instantiated + stats.suites_reused, 4);
    }

    #[test]
    fn parallel_grid_matches_per_cell_runs() {
        // A small but representative slice: two early-terminating
        // scenarios × three configs, the sweep vs each cell run alone.
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
        ];
        let grid = cells(&[1, 2], &configs);
        let (parallel, _) = run_parallel(grid.clone()).unwrap();
        let family = VehicleFamily::default();
        let reference = per_cell(&grid, |cell, seed| build_cell_in(&family, cell, seed));
        assert_eq!(parallel.runs, reference, "the sweep must be bit-identical");
        let reference = SweepReport {
            runs: reference,
            ..SweepReport::default()
        };
        assert_eq!(parallel.aggregate(), reference.aggregate());
        assert_eq!(parallel.runs.len(), 6);
    }
}
