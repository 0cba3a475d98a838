//! The ten evaluation scenarios of the thesis's Chapter 5 (§5.4.1–§5.4.10)
//! and the machinery that regenerates its tables and figures:
//!
//! * [`catalog`] — the ten [`Scenario`] descriptors (world, driver script,
//!   expected phenomena);
//! * [`runner`] — lifts a scenario × [`DefectSet`](esafe_vehicle::config::DefectSet) cell into a
//!   [`esafe_vehicle::substrate::VehicleSubstrate`] and executes it
//!   through the generic [`esafe_harness::Experiment`] loop, monitoring
//!   all 49 goal/subgoal monitors; a single scenario run records its
//!   frames and reads the figure time series from them (grids of cells
//!   run in parallel via [`esafe_harness::Sweep`] and track nothing);
//! * [`tables`] — renders the per-scenario violation tables (D.1–D.11),
//!   the Table 5.3 monitoring matrix, and the figure series;
//! * [`grid`] — the 140-cell scenario × defect evaluation grid, swept on
//!   the batched striped engine (`repro --grid`);
//! * [`mega`] — the ≥10⁴-cell scenario-*parameter* mega grid (headways ×
//!   lead speeds × throttle levels × defect configurations), streamed
//!   with O(workers × stripe width) memory (`repro --mega-grid`);
//! * [`fleet`] — the fleet-service replay workload behind
//!   `repro --serve-bench`: one recorded elevator run fanned out as
//!   thousands of concurrent monitor-service streams.
//!
//! # Example
//!
//! ```no_run
//! use esafe_scenarios::{catalog, runner};
//! use esafe_vehicle::config::DefectSet;
//!
//! let report = runner::run(&catalog::scenario(1), DefectSet::thesis()).unwrap();
//! // Scenario 1 ends in an early termination and vehicle-level goal-2
//! // violations with no 2A coverage (false negatives).
//! assert!(report.terminated_early);
//! ```

pub mod catalog;
pub mod corpus;
pub mod fleet;
pub mod grid;
pub mod mega;
pub mod runner;
pub mod tables;

pub use catalog::{scenario, Scenario};
pub use fleet::FleetWorkload;
pub use grid::GridCell;
pub use mega::MegaCell;
pub use runner::{run, ScenarioReport};
