//! Scenario execution: simulate, monitor, record, classify.
//!
//! Since the harness refactor this module is a thin adapter: it lifts a
//! [`Scenario`] into a [`VehicleSubstrate`] and runs it through the
//! substrate-generic [`esafe_harness::Experiment`] loop, which owns the
//! tick schedule (derived from the simulator's own tick period), the
//! early-termination grace window, and the
//! hit/false-positive/false-negative correlation.
//!
//! Only [`run`], the figure path, tracks signals: it records the run's
//! frames and reads the scenario's figure series from that recording.
//! The substrates [`substrate`] and [`substrate_in`] build for sweep
//! cells track nothing.

use crate::catalog::Scenario;
use esafe_harness::{Experiment, ExperimentConfig, ExperimentError, RunReport};
use esafe_monitor::{CorrelationReport, ViolationInterval};
use esafe_sim::SeriesLog;
use esafe_vehicle::config::DefectSet;
use esafe_vehicle::substrate::{VehicleFamily, VehicleSubstrate};
use serde::{Deserialize, Serialize};

/// The timing policy of the thesis's vehicle evaluation: the CarSim
/// environment aborts ~100 ms after a collision (§5.4.1), and detections
/// are correlated within a ±250 ms window covering command-to-plant
/// actuation lag.
pub fn thesis_config() -> ExperimentConfig {
    ExperimentConfig {
        post_terminal_ms: 100,
        correlation_window_ms: 250,
    }
}

/// The outcome of one monitored scenario run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Scenario number.
    pub number: u8,
    /// The defect configuration used.
    pub defects: DefectSet,
    /// The timing policy the run was classified under.
    pub config: ExperimentConfig,
    /// Wall-clock end of the run, s.
    pub end_time_s: f64,
    /// Whether the run aborted before its 20 s schedule.
    pub terminated_early: bool,
    /// Whether a forward or rear collision occurred.
    pub collision: bool,
    /// Violations per monitor id (empty lists omitted).
    pub violations: Vec<(String, Vec<ViolationInterval>)>,
    /// Hit / false-positive / false-negative classification.
    pub correlation: CorrelationReport,
    /// The figure series, read from the run's frame recording (not
    /// serialized).
    #[serde(skip)]
    pub series: SeriesLog,
}

impl ScenarioReport {
    /// Violation intervals for a monitor id.
    pub fn violations_for(&self, id: &str) -> &[ViolationInterval] {
        self.violations
            .iter()
            .find(|(mid, _)| mid == id)
            .map(|(_, v)| v.as_slice())
            .unwrap_or(&[])
    }

    /// Whether any monitor recorded a violation.
    pub fn any_violations(&self) -> bool {
        !self.violations.is_empty()
    }

    /// Wraps a generic harness report into the scenario-numbered form.
    pub fn from_run(number: u8, defects: DefectSet, run: RunReport) -> Self {
        ScenarioReport {
            number,
            defects,
            config: run.config,
            end_time_s: run.end_time_s,
            terminated_early: run.terminated_early,
            collision: run.terminal_event.is_some(),
            violations: run.violations,
            correlation: run.correlation,
            series: run.series,
        }
    }
}

/// Builds the substrate configuration for a scenario × defect cell. The
/// substrate self-compiles its monitor suite per run — the reference
/// path; sweeps amortize compilation with [`substrate_in`].
pub fn substrate(scenario: &Scenario, defects: DefectSet) -> VehicleSubstrate {
    configure(
        VehicleSubstrate::new(defects, scenario.scene, scenario.script.clone()),
        scenario,
    )
}

/// Builds the substrate for a scenario × defect cell **within a
/// family**: the cell shares the family's signal table and compile-once
/// suite template, so a sweep pays formula compilation once instead of
/// once per cell. Reports are bit-identical to [`substrate`]'s.
pub fn substrate_in(
    family: &VehicleFamily,
    scenario: &Scenario,
    defects: DefectSet,
) -> VehicleSubstrate {
    configure(
        family.substrate(defects, scenario.scene, scenario.script.clone()),
        scenario,
    )
}

fn configure(substrate: VehicleSubstrate, scenario: &Scenario) -> VehicleSubstrate {
    substrate
        .with_duration_s(scenario.duration_s)
        .with_label(format!("scenario-{}", scenario.number))
}

/// Runs a scenario under the given defect configuration through the
/// generic experiment harness, recording its frames so the report
/// carries the scenario's figure series.
///
/// # Errors
///
/// Returns [`ExperimentError`] if a goal formula fails to compile or
/// references a missing signal (a programming error caught by tests).
pub fn run(scenario: &Scenario, defects: DefectSet) -> Result<ScenarioReport, ExperimentError> {
    let substrate = substrate(scenario, defects).with_tracked(scenario.figure_signals.iter());
    let report = Experiment::new(&substrate)
        .with_config(thesis_config())
        .with_frame_recording(true)
        .run()?;
    Ok(ScenarioReport::from_run(scenario.number, defects, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn scenario_1_reproduces_the_thesis_structure() {
        let report = run(&catalog::scenario(1), DefectSet::thesis()).unwrap();
        // Early termination shortly after the collision, ≈12.5–13 s.
        assert!(report.terminated_early, "must abort early");
        assert!(report.collision);
        assert!(
            report.end_time_s > 11.0 && report.end_time_s < 14.5,
            "terminated at {}",
            report.end_time_s
        );
        // Vehicle-level accel and jerk goals fire…
        assert!(!report.violations_for("1").is_empty(), "goal 1 must fire");
        assert!(!report.violations_for("2").is_empty(), "goal 2 must fire");
        // …with no Arbiter-level coverage (false negatives).
        assert!(report.violations_for("1A").is_empty());
        let row1 = report.correlation.for_goal("1").unwrap();
        assert!(row1.false_negatives > 0, "goal 1 shows residual emergence");
        // The PA defect shows up as subgoal false positives.
        assert!(!report.violations_for("4B:PA").is_empty());
        assert!(!report.violations_for("2B:PA").is_empty());
        // CA's cancel edge violates its jerk-request subgoal.
        assert!(!report.violations_for("2B:CA").is_empty());
    }

    #[test]
    fn scenario_1_fixed_system_is_clean() {
        let report = run(&catalog::scenario(1), DefectSet::none()).unwrap();
        assert!(!report.collision);
        assert!(!report.terminated_early);
        assert!(
            report.violations.is_empty(),
            "fixed system must be violation-free, got {:?}",
            report
                .violations
                .iter()
                .map(|(id, v)| (id.clone(), v.len()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn scenario_2_adds_goal_3_and_terminates_earlier() {
        let r1 = run(&catalog::scenario(1), DefectSet::thesis()).unwrap();
        let r2 = run(&catalog::scenario(2), DefectSet::thesis()).unwrap();
        assert!(!r2.violations_for("3").is_empty(), "goal 3 must fire");
        assert!(!r2.violations_for("3A").is_empty());
        assert!(
            r2.end_time_s < r1.end_time_s,
            "scenario 2 terminates earlier ({} vs {})",
            r2.end_time_s,
            r1.end_time_s
        );
    }

    #[test]
    fn scenario_10_ghost_acceleration_is_a_hit() {
        let report = run(&catalog::scenario(10), DefectSet::thesis()).unwrap();
        assert!(!report.violations_for("4").is_empty(), "goal 4 must fire");
        assert!(!report.violations_for("4A").is_empty());
        assert!(!report.violations_for("4B:ACC").is_empty());
        let row = report.correlation.for_goal("4").unwrap();
        assert!(row.hits > 0);
    }

    #[test]
    fn scenario_reports_round_trip_through_serde() {
        let report = run(&catalog::scenario(9), DefectSet::thesis()).unwrap();
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: ScenarioReport = serde_json::from_str(&json).unwrap();
        // The series log is `#[serde(skip)]`: it deserializes to its
        // `Default` and everything else round-trips exactly.
        assert_eq!(back.series, SeriesLog::default());
        let stripped = ScenarioReport {
            series: SeriesLog::default(),
            ..report
        };
        assert_eq!(back, stripped);
    }
}
