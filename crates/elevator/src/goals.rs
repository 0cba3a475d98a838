//! The Chapter 4 safety goals and their monitor suite.

use crate::model::ElevatorParams;
use esafe_core::{Goal, GoalClass};
use esafe_logic::{parse, EvalError, Expr, SignalTable};
use esafe_monitor::{Location, MonitorSuite};
use std::sync::Arc;

fn p(src: &str) -> Expr {
    parse(src).unwrap_or_else(|e| panic!("bad goal formula `{src}`: {e}"))
}

/// `Maintain[DoorClosedOrElevatorStopped]` (Fig. 4.8).
pub fn door_goal() -> Goal {
    Goal::new(
        "Maintain[DoorClosedOrElevatorStopped]",
        GoalClass::Maintain,
        "At all times the door shall be closed or the elevator speed shall \
         be STOPPED.",
        p("always(door_closed || elevator_stopped)"),
    )
}

/// Table 4.4 subgoal for the DoorController:
/// `Achieve[CloseDoorWhenElevatorMovingOrMoved]`.
pub fn door_controller_subgoal() -> Goal {
    Goal::new(
        "Achieve[CloseDoorWhenElevatorMovingOrMoved]",
        GoalClass::Achieve,
        "If the door is not blocked and the elevator is moving or has been \
         commanded to move, the door shall be commanded to CLOSE.",
        p(
            "(prev(!elevator_stopped || drive_command != 'STOP') && prev(!door_blocked)) \
           => door_motor_command == 'CLOSE'",
        ),
    )
}

/// Table 4.4 subgoal for the DriveController:
/// `Achieve[StopElevatorWhenDoorOpenOrOpened]`.
pub fn drive_controller_subgoal() -> Goal {
    Goal::new(
        "Achieve[StopElevatorWhenDoorOpenOrOpened]",
        GoalClass::Achieve,
        "If the doors are not closed or have been commanded open, the drive \
         shall be commanded to STOP.",
        p("prev(!door_closed || door_motor_command == 'OPEN') \
           => drive_command == 'STOP'"),
    )
}

/// `Maintain[DriveStoppedWhenOverweight]` (Fig. 4.6).
pub fn overweight_goal() -> Goal {
    Goal::new(
        "Maintain[DriveStoppedWhenOverweight]",
        GoalClass::Maintain,
        "If the elevator weight exceeds the weight threshold, the elevator \
         speed shall be STOPPED.",
        p("prev(overweight) => elevator_stopped"),
    )
}

/// The DriveController's overweight subgoal.
pub fn overweight_subgoal() -> Goal {
    Goal::new(
        "Achieve[StopDriveWhenOverweight]",
        GoalClass::Achieve,
        "If the weight threshold was exceeded, the drive shall be commanded \
         to STOP.",
        p("prev(overweight) => drive_command == 'STOP'"),
    )
}

/// `Maintain[ElevatorBelowHoistwayUpperLimit]` (Fig. 4.9).
pub fn hoistway_goal(params: &ElevatorParams) -> Goal {
    Goal::new(
        "Maintain[ElevatorBelowHoistwayUpperLimit]",
        GoalClass::Maintain,
        "The top of the elevator shall never exceed the upper limit of the \
         hoistway.",
        p(&format!(
            "always(elevator_position <= {})",
            params.hoistway_limit_m
        )),
    )
}

/// `Achieve[StopBeforeHoistwayUpperLimit]` (Fig. 4.10) — the primary
/// redundancy leg, with the restrictive stop margin.
pub fn hoistway_primary_subgoal(params: &ElevatorParams) -> Goal {
    let guard = params.hoistway_limit_m
        - (params.max_speed * params.max_speed / (2.0 * params.accel) + params.stop_margin_m);
    Goal::new(
        "Achieve[StopBeforeHoistwayUpperLimit]",
        GoalClass::Achieve,
        "If the elevator nears the upper hoistway limit, the drive shall \
         not be commanded upward.",
        p(&format!(
            "prev(elevator_position >= {guard}) => drive_command != 'UP'"
        )),
    )
}

/// `Achieve[EmergencyStopBeforeHoistwayUpperLimit]` (Fig. 4.11) — the
/// secondary redundancy leg.
pub fn hoistway_secondary_subgoal(params: &ElevatorParams) -> Goal {
    let trip = params.hoistway_limit_m - params.ebrake_margin_m;
    Goal::new(
        "Achieve[EmergencyStopBeforeHoistwayUpperLimit]",
        GoalClass::Achieve,
        "If the elevator nears the upper hoistway limit, the emergency \
         brake shall be applied.",
        p(&format!(
            "prev(elevator_position >= {trip}) => emergency_brake"
        )),
    )
}

/// The door-reversal goal (eq. 4.7): a blocked door is commanded open.
pub fn reversal_goal() -> Goal {
    Goal::new(
        "Achieve[DoorReversalWhenBlocked]",
        GoalClass::Achieve,
        "If the door is blocked, the door shall be commanded OPEN.",
        p("prev(door_blocked) => door_motor_command == 'OPEN'"),
    )
}

/// Assembles the hierarchical monitor suite for all Chapter 4 goals,
/// compiled against the substrate's shared signal table (all variable
/// references resolve to signal ids here, once).
///
/// Monitor ids: `door` (+`door:DoorCtl`, `door:DriveCtl`), `overweight`
/// (+`overweight:DriveCtl`), `hoistway` (+`hoistway:DriveCtl`,
/// `hoistway:EBrake`), and `reversal` (+`reversal:DoorCtl`).
///
/// # Errors
///
/// Propagates [`EvalError`] if a formula fails to compile or references a
/// signal outside the table (programming error, exercised by tests).
pub fn build_suite(
    table: &Arc<SignalTable>,
    params: &ElevatorParams,
) -> Result<MonitorSuite, EvalError> {
    let mut suite = MonitorSuite::new(table.clone());
    let system = Location::new("Elevator");
    let door_ctl = Location::new("DoorController");
    let drive_ctl = Location::new("DriveController");
    let ebrake = Location::new("EmergencyBrake");

    suite.add_goal("door", system.clone(), door_goal().formal().clone())?;
    suite.add_subgoal(
        "door:DoorCtl",
        "door",
        door_ctl.clone(),
        door_controller_subgoal().formal().clone(),
    )?;
    suite.add_subgoal(
        "door:DriveCtl",
        "door",
        drive_ctl.clone(),
        drive_controller_subgoal().formal().clone(),
    )?;

    suite.add_goal(
        "overweight",
        system.clone(),
        overweight_goal().formal().clone(),
    )?;
    suite.add_subgoal(
        "overweight:DriveCtl",
        "overweight",
        drive_ctl.clone(),
        overweight_subgoal().formal().clone(),
    )?;

    suite.add_goal(
        "hoistway",
        system.clone(),
        hoistway_goal(params).formal().clone(),
    )?;
    suite.add_subgoal(
        "hoistway:DriveCtl",
        "hoistway",
        drive_ctl,
        hoistway_primary_subgoal(params).formal().clone(),
    )?;
    suite.add_subgoal(
        "hoistway:EBrake",
        "hoistway",
        ebrake,
        hoistway_secondary_subgoal(params).formal().clone(),
    )?;

    suite.add_goal("reversal", system, reversal_goal().formal().clone())?;
    suite.add_subgoal(
        "reversal:DoorCtl",
        "reversal",
        door_ctl,
        reversal_goal().formal().clone(),
    )?;

    Ok(suite)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::ElevatorFaults;
    use crate::model;
    use crate::substrate::ElevatorSubstrate;
    use esafe_harness::{Experiment, ExperimentConfig, RunReport};
    use esafe_logic::Value;

    /// The window the elevator analyses use: 5 ticks of 10 ms.
    const WINDOW: ExperimentConfig = ExperimentConfig {
        post_terminal_ms: 100,
        correlation_window_ms: 50,
    };

    fn run_with(faults: ElevatorFaults, ticks: u64) -> RunReport {
        let substrate = ElevatorSubstrate::new(faults, 7).with_ticks(ticks);
        Experiment::new(&substrate)
            .with_config(WINDOW)
            .run()
            .unwrap()
    }

    #[test]
    fn suite_has_four_goals_and_six_subgoals() {
        let params = ElevatorParams::default();
        let (table, _sigs) = crate::model::elevator_table(&params);
        let suite = build_suite(&table, &params).unwrap();
        assert_eq!(suite.goal_ids().len(), 4);
        assert_eq!(suite.location_matrix().len(), 10);
    }

    #[test]
    fn drive_ignoring_door_is_a_hit() {
        let faults = ElevatorFaults {
            drive_ignores_door: true,
            ..ElevatorFaults::none()
        };
        let report = run_with(faults, 12_000);
        let row = report.correlation.for_goal("door").unwrap();
        assert!(
            row.goal_violations > 0,
            "system goal must fire:\n{}",
            report.correlation
        );
        assert!(
            row.hits > 0,
            "the DriveCtl subgoal must cover it:\n{}",
            report.correlation
        );
        assert!(
            !report.violations_for("door:DriveCtl").is_empty(),
            "the faulty controller's subgoal localizes the defect"
        );
    }

    #[test]
    fn early_door_open_is_caught_by_door_subgoal() {
        let faults = ElevatorFaults {
            door_opens_while_moving: true,
            ..ElevatorFaults::none()
        };
        let report = run_with(faults, 12_000);
        assert!(
            !report.violations_for("door:DoorCtl").is_empty(),
            "door controller subgoal must fire"
        );
    }

    #[test]
    fn overweight_ignored_is_a_hit_with_low_threshold() {
        let params = ElevatorParams {
            weight_threshold_kg: 100.0, // two passengers trip it
            ..ElevatorParams::default()
        };
        let faults = ElevatorFaults {
            overweight_ignored: true,
            ..ElevatorFaults::none()
        };
        let substrate = ElevatorSubstrate::new(faults, 7)
            .with_params(params)
            .with_ticks(20_000);
        let report = Experiment::new(&substrate)
            .with_config(WINDOW)
            .run()
            .unwrap();
        let row = report.correlation.for_goal("overweight").unwrap();
        assert!(
            row.goal_violations > 0,
            "goal must fire:\n{}",
            report.correlation
        );
        assert!(
            row.hits > 0,
            "subgoal must cover it:\n{}",
            report.correlation
        );
    }

    #[test]
    fn runaway_masked_by_emergency_brake_is_a_false_positive() {
        let faults = ElevatorFaults {
            hoistway_guard_missing: true,
            ..ElevatorFaults::none()
        };
        let substrate = ElevatorSubstrate::new(faults, 7).with_ticks(6_000);
        let report = Experiment::new(&substrate)
            .with_config(WINDOW)
            .with_frame_recording(true)
            .run()
            .unwrap();
        let trace = report.trace.as_ref().expect("frames recorded");
        let brake = trace.table().id(model::EMERGENCY_BRAKE).unwrap();
        let brake_engaged_at_end = trace.get(trace.len() - 1, brake) == Some(Value::Bool(true));
        let row = report.correlation.for_goal("hoistway").unwrap();
        assert_eq!(
            row.goal_violations, 0,
            "the secondary leg must keep the system safe:\n{}",
            report.correlation
        );
        assert!(
            row.false_positives > 0,
            "the primary subgoal violation is a false positive — redundant \
             coverage masked the defect (thesis §3.4):\n{}",
            report.correlation
        );
        // The emergency brake actually engaged.
        assert!(brake_engaged_at_end);
    }

    #[test]
    fn runaway_with_dead_ebrake_violates_the_system_goal() {
        let faults = ElevatorFaults {
            hoistway_guard_missing: true,
            ebrake_inoperative: true,
            ..ElevatorFaults::none()
        };
        let report = run_with(faults, 6_000);
        let row = report.correlation.for_goal("hoistway").unwrap();
        assert!(
            row.goal_violations > 0,
            "both legs lost:\n{}",
            report.correlation
        );
        assert!(
            row.hits > 0,
            "subgoal violations cover it:\n{}",
            report.correlation
        );
    }

    #[test]
    fn stuck_door_sensor_is_a_false_negative_for_the_monitors() {
        let faults = ElevatorFaults {
            door_sensor_stuck_closed: true,
            ..ElevatorFaults::none()
        };
        let substrate = ElevatorSubstrate::new(faults, 7).with_ticks(12_000);
        let report = Experiment::new(&substrate)
            .with_frame_recording(true)
            .run()
            .unwrap();
        // The elevator observes its raw frames unchanged, so the
        // recording holds the plant's own door and motion signals.
        let trace = report.trace.as_ref().expect("frames recorded");
        let column = |name| trace.column(trace.table().id(name).unwrap());
        let physically_unsafe = column(model::DOOR_POSITION)
            .iter()
            .zip(column(model::ELEVATOR_STOPPED))
            .any(|(door, stopped)| {
                let open = door.and_then(|v| v.as_real()).unwrap_or(0.0) > 0.05;
                let moving = !stopped.and_then(|v| v.as_bool()).unwrap_or(true);
                open && moving
            });
        assert!(
            physically_unsafe,
            "the lying sensor lets the car move with open doors"
        );
        // Yet every monitor is quiet: the hazard is invisible — the
        // violated critical assumption is the emergence `X` of eq. 3.14.
        assert!(!report.correlation.any_violations());
    }
}
