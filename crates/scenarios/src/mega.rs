//! The mega-grid: a ≥10⁴-cell scenario-*parameter* sweep.
//!
//! The thesis's evaluation grid is ten hand-written scenarios × fourteen
//! defect configurations — 140 cells. Kopetz's system-of-systems
//! analysis (arXiv:1311.3629) argues that emergent-safety claims only
//! become trustworthy when they are swept across large spaces of
//! constituent-system parameter combinations, not a handful of curated
//! points. This module opens that workload: instead of enumerating
//! scenarios, it enumerates the *physics* of scenario 1's shape — a
//! host vehicle creeping toward traffic under driver throttle with CA
//! and ACC enabled — across
//!
//! * **headways** — the lead object's initial gap (how much room the
//!   collision-avoidance margin has to work with),
//! * **lead speeds** — parked through rolling traffic (whether the gap
//!   closes, holds, or opens),
//! * **throttle levels** — how hard the scripted driver pushes into the
//!   gap, and
//! * **defect configurations** — the full ablation axis (fixed system,
//!   thesis population, every single defect).
//!
//! The default space ([`mega_grid`]) is 12 × 8 × 8 × 14 = **10 752
//! monitored runs**, swept through the batched striped engine with
//! O(workers × stripe width) memory ([`run_mega_aggregate`]) — the
//! `repro --mega-grid` workload, summarized in `BENCH_megagrid.json`
//! (schema v6). [`run_mega_aggregate_checkpointed`] is the durable
//! form behind `repro --mega-grid --checkpoint`: fault-isolated cells
//! plus a crash-recoverable [`SweepJournal`] so an interrupted sweep
//! resumes bit-identically.

use crate::runner;
use esafe_harness::{
    ExperimentError, JournalError, Quarantine, Sweep, SweepAggregate, SweepJournal, SweepStats,
};
use esafe_vehicle::config::DefectSet;
use esafe_vehicle::driver::DriverAction;
use esafe_vehicle::dynamics::{Scene, SceneObject};
use esafe_vehicle::substrate::{VehicleFamily, VehicleSubstrate};

use crate::grid::ablation_configs;

/// Scheduled length of every mega-grid run, seconds. Shorter than the
/// thesis's 20 s scenarios: the parameterized approach either collides
/// or stabilizes within a few seconds, and the point of the mega grid
/// is coverage of the parameter space, not long tails.
pub const MEGA_DURATION_S: f64 = 5.0;

/// One cell of the mega grid: a fully parameterized single-lead
/// approach under one defect configuration.
#[derive(Debug, Clone)]
pub struct MegaCell {
    /// Lead object's initial bumper-to-bumper gap, m.
    pub headway_m: f64,
    /// Lead object's (constant) speed, m/s — 0.0 is parked traffic.
    pub lead_speed: f64,
    /// Scripted driver throttle demand, 0–1.
    pub throttle: f64,
    /// The defect configuration's label (e.g. `"thesis (all)"`).
    pub config: String,
    /// The defect configuration.
    pub defects: DefectSet,
}

/// The default headway axis, m (12 points, 4–80 m: from inside the CA
/// engagement envelope to far beyond it).
pub fn headways() -> Vec<f64> {
    vec![
        4.0, 6.0, 8.0, 10.0, 14.0, 18.0, 24.0, 30.0, 38.0, 48.0, 62.0, 80.0,
    ]
}

/// The default lead-speed axis, m/s (8 points, parked to rolling).
pub fn lead_speeds() -> Vec<f64> {
    vec![0.0, 0.5, 1.0, 2.0, 3.0, 4.5, 6.0, 9.0]
}

/// The default throttle axis (8 points, creep to hard push).
pub fn throttles() -> Vec<f64> {
    vec![0.05, 0.08, 0.12, 0.16, 0.20, 0.26, 0.33, 0.40]
}

/// The cells of `headways × lead_speeds × throttles × configs`,
/// headway-major (the order only matters for stable labels and seeds —
/// the aggregate is order-independent).
pub fn mega_cells(
    headways: &[f64],
    lead_speeds: &[f64],
    throttles: &[f64],
    configs: &[(String, DefectSet)],
) -> Vec<MegaCell> {
    let mut cells =
        Vec::with_capacity(headways.len() * lead_speeds.len() * throttles.len() * configs.len());
    for &headway_m in headways {
        for &lead_speed in lead_speeds {
            for &throttle in throttles {
                for (config, defects) in configs {
                    cells.push(MegaCell {
                        headway_m,
                        lead_speed,
                        throttle,
                        config: config.clone(),
                        defects: *defects,
                    });
                }
            }
        }
    }
    cells
}

/// The full default mega grid: 12 headways × 8 lead speeds × 8
/// throttle levels × the 14-configuration ablation axis = 10 752 cells.
pub fn mega_grid() -> Vec<MegaCell> {
    mega_cells(
        &headways(),
        &lead_speeds(),
        &throttles(),
        &ablation_configs(),
    )
}

/// The substrate for one mega cell within a shared [`VehicleFamily`]:
/// scenario 1's shape (enable CA and ACC, then push the throttle into
/// the gap), parameterized by the cell's axes. No tracked signals — the
/// mega grid streams aggregates, not figure series.
pub fn build_mega_cell_in(family: &VehicleFamily, cell: &MegaCell, _seed: u64) -> VehicleSubstrate {
    let scene = Scene {
        lead: Some(SceneObject::constant(cell.headway_m, cell.lead_speed)),
        rear: None,
    };
    let script = vec![
        (0.3, DriverAction::Enable("CA".into(), true)),
        (0.3, DriverAction::Enable("ACC".into(), true)),
        (1.0, DriverAction::Throttle(cell.throttle)),
    ];
    family
        .substrate(cell.defects, scene, script)
        .with_duration_s(MEGA_DURATION_S)
        .with_label(format!(
            "mega/h{}/v{}/t{}/{}",
            cell.headway_m, cell.lead_speed, cell.throttle, cell.config
        ))
}

/// A sweep over mega cells under the thesis timing policy.
pub fn mega_sweep(cells: Vec<MegaCell>) -> Sweep<MegaCell> {
    Sweep::new(cells).with_config(runner::thesis_config())
}

/// Runs a mega grid as a **batched streaming reduction** with the given
/// stripe width: one [`VehicleFamily`] compiled for the whole sweep,
/// same-configuration cells ticking in lock-step stripes, per-worker
/// partial aggregates merged at join — O(workers × width) memory
/// however many cells the space holds.
///
/// # Errors
///
/// Returns the first failing cell's [`ExperimentError`], by cell order.
pub fn run_mega_aggregate(
    cells: Vec<MegaCell>,
    width: usize,
) -> Result<(SweepAggregate, SweepStats), ExperimentError> {
    let family = VehicleFamily::default();
    mega_sweep(cells).run_aggregate(|cell, seed| build_mega_cell_in(&family, cell, seed), width)
}

/// Creates a fresh checkpoint journal describing a mega sweep over
/// `cells` — the header pins the sweep's base seed, cell count, and
/// timing policy, so [`run_mega_aggregate_checkpointed`] can refuse a
/// journal that belongs to a different sweep.
///
/// # Errors
///
/// Fails if `path` already exists (resume with [`SweepJournal::open`])
/// or on I/O failure.
pub fn create_mega_journal(
    path: impl AsRef<std::path::Path>,
    cells: &[MegaCell],
) -> Result<SweepJournal, JournalError> {
    SweepJournal::create(path, 0, cells.len(), runner::thesis_config())
}

/// [`run_mega_aggregate`] with durable progress: completed cells are
/// appended to `journal` as they finish, cells the journal already
/// holds are skipped and replayed from their records, and the final
/// aggregate is bit-identical to an uninterrupted run. Fault isolation
/// is on (the default [`Quarantine`]): a panicking or erroring cell is
/// recorded in [`SweepAggregate::quarantined`] instead of aborting a
/// multi-hour sweep.
///
/// # Errors
///
/// Returns [`ExperimentError::Journal`] on a journal/sweep mismatch or
/// journal I/O failure.
pub fn run_mega_aggregate_checkpointed(
    cells: Vec<MegaCell>,
    width: usize,
    journal: &mut SweepJournal,
) -> Result<(SweepAggregate, SweepStats), ExperimentError> {
    let family = VehicleFamily::default();
    mega_sweep(cells)
        .with_quarantine(Quarantine::default())
        .run_aggregate_checkpointed(
            |cell, seed| build_mega_cell_in(&family, cell, seed),
            width,
            journal,
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use esafe_harness::{cell_seed, Experiment, Substrate, SweepReport};

    /// Each cell run alone through [`Experiment`] under the thesis
    /// timing policy, aggregated — the reference every mega sweep must
    /// reproduce.
    fn per_cell_aggregate(cells: &[MegaCell]) -> SweepAggregate {
        let family = VehicleFamily::default();
        let runs = cells
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                Experiment::new(&build_mega_cell_in(&family, cell, cell_seed(0, i)))
                    .with_config(runner::thesis_config())
                    .run()
                    .unwrap()
            })
            .collect();
        SweepReport {
            runs,
            ..SweepReport::default()
        }
        .aggregate()
    }

    #[test]
    fn default_mega_grid_opens_at_least_ten_thousand_cells() {
        let grid = mega_grid();
        assert!(
            grid.len() >= 10_000,
            "mega grid must open a ≥10⁴-cell space, got {}",
            grid.len()
        );
        assert_eq!(grid.len(), 12 * 8 * 8 * 14);
        // Labels are unique, so every cell is a distinct configuration.
        let family = VehicleFamily::default();
        let mut labels: Vec<String> = grid
            .iter()
            .map(|c| build_mega_cell_in(&family, c, 0).label())
            .collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), grid.len(), "labels must be unique");
    }

    #[test]
    fn mega_slice_batched_aggregate_matches_scalar() {
        // A small but mixed slice: short headways collide under the
        // thesis defects, long ones stay clean.
        let configs = vec![
            ("none".to_owned(), DefectSet::none()),
            ("thesis (all)".to_owned(), DefectSet::thesis()),
        ];
        let cells = mega_cells(&[6.0, 30.0], &[0.0, 3.0], &[0.12, 0.33], &configs);
        assert_eq!(cells.len(), 16);
        let scalar = per_cell_aggregate(&cells);
        let (batched, stats) = run_mega_aggregate(cells, 4).unwrap();
        assert_eq!(batched, scalar, "batched mega sweep diverged from scalar");
        assert_eq!(stats.runs(), 16);
        assert_eq!(stats.suites_compiled, 0, "family sweeps never recompile");
        assert!(
            batched.terminal_events > 0,
            "short headways under the thesis defects must collide"
        );
        assert!(
            batched.terminal_events < batched.runs,
            "long clean headways must survive"
        );
        // Sanity: a mega substrate runs the advertised schedule.
        let sub = build_mega_cell_in(&VehicleFamily::default(), &mega_grid()[0], 0);
        assert_eq!(sub.duration_ms(), (MEGA_DURATION_S * 1000.0) as u64);
    }

    #[test]
    fn mega_checkpointed_resume_matches_the_uninterrupted_aggregate() {
        let configs = vec![
            ("none".to_owned(), DefectSet::none()),
            ("thesis (all)".to_owned(), DefectSet::thesis()),
        ];
        let cells = mega_cells(&[6.0, 30.0], &[0.0], &[0.12, 0.33], &configs);
        assert_eq!(cells.len(), 8);
        let reference = per_cell_aggregate(&cells);

        let mut path = std::env::temp_dir();
        path.push(format!("esafe-mega-journal-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let mut journal = create_mega_journal(&path, &cells).unwrap();
        let (checkpointed, stats) =
            run_mega_aggregate_checkpointed(cells.clone(), 2, &mut journal).unwrap();
        assert_eq!(
            checkpointed, reference,
            "checkpointing must not change results"
        );
        assert_eq!(stats.runs(), 8);
        assert_eq!(journal.completed_cells(), 8);
        drop(journal);

        // A resume of the completed journal replays everything from
        // records: same aggregate, zero cells re-run.
        let mut reopened = SweepJournal::open(&path).unwrap();
        let (resumed, resumed_stats) =
            run_mega_aggregate_checkpointed(cells, 2, &mut reopened).unwrap();
        assert_eq!(resumed, reference);
        assert_eq!(resumed_stats.runs(), 0);
        std::fs::remove_file(&path).unwrap();
    }
}
