//! The distributed elevator control substrate of the thesis's Chapter 4 —
//! the running example for Indirect Control Path Analysis.
//!
//! The architecture follows Figure 4.5: `DoorController` and
//! `DriveController` directly control the door-motor and drive actuators;
//! `DispatchController` schedules destinations from latched hall/car
//! calls; `Passenger` agents press buttons, block doors, and load the
//! car; sensors produce `door_closed`, `elevator_speed`,
//! `elevator_weight`, and `door_blocked`.
//!
//! The safety goals are the chapter's worked examples:
//!
//! * `Maintain[DoorClosedOrElevatorStopped]` (Fig. 4.8), decomposed by
//!   *shared responsibility* into the Table 4.4 subgoals
//!   `Achieve[CloseDoorWhenElevatorMovingOrMoved]` (DoorController) and
//!   `Achieve[StopElevatorWhenDoorOpenOrOpened]` (DriveController);
//! * `Maintain[DriveStoppedWhenOverweight]` (Fig. 4.6);
//! * `Maintain[ElevatorBelowHoistwayUpperLimit]` (Fig. 4.9) with
//!   *redundant responsibility*: `Achieve[StopBeforeHoistwayUpperLimit]`
//!   (primary, DriveController) and
//!   `Achieve[EmergencyStopBeforeHoistwayUpperLimit]` (secondary,
//!   EmergencyBrake) — Figs. 4.10/4.11;
//! * the door-reversal goal `●DoorBlocked ⇒ DoorMotorCommand = OPEN`
//!   (eq. 4.7).
//!
//! [`faults::ElevatorFaults`] injects the failure modes the monitors are
//! supposed to catch; a healthy run over randomized passenger traffic
//! keeps every goal clean.
//!
//! # Example
//!
//! ```
//! use esafe_elevator::faults::ElevatorFaults;
//! use esafe_elevator::substrate::ElevatorSubstrate;
//! use esafe_harness::Experiment;
//!
//! let substrate = ElevatorSubstrate::new(ElevatorFaults::none(), 42)
//!     .with_ticks(3000);
//! let report = Experiment::new(&substrate).run().unwrap();
//! assert!(!report.correlation.any_violations());
//! ```

pub mod controllers;
pub mod faults;
pub mod goals;
pub mod icpa;
pub mod model;
pub mod passengers;
pub mod plant;
pub mod substrate;

use esafe_logic::SignalTable;
use esafe_sim::{LaneVec, Simulator, SimulatorBatch};
use std::sync::Arc;

pub use model::{ElevatorParams, ElevatorSigs};
pub use substrate::{ElevatorFamily, ElevatorSubstrate};

/// Assembles the full elevator simulation over the shared signal table:
/// passengers, button latches, dispatcher, door/drive controllers,
/// emergency brake, and the plant. `seed` drives the deterministic
/// passenger traffic. Every subsystem holds a clone of the resolved
/// [`ElevatorSigs`], so per-tick reads and writes are dense slot
/// accesses.
pub fn build_elevator(
    params: ElevatorParams,
    faults: faults::ElevatorFaults,
    seed: u64,
    table: &Arc<SignalTable>,
    sigs: &ElevatorSigs,
) -> Simulator {
    let mut sim = Simulator::new(params.dt_millis, table);
    sim.add(passengers::PassengerTraffic::new(
        params,
        seed,
        sigs.clone(),
    ));
    sim.add(controllers::ButtonLatches::new(params, sigs.clone()));
    sim.add(controllers::DispatchController::new(
        params,
        faults,
        sigs.clone(),
    ));
    sim.add(controllers::DoorController::new(
        params,
        faults,
        sigs.clone(),
    ));
    sim.add(controllers::DriveController::new(
        params,
        faults,
        sigs.clone(),
    ));
    sim.add(controllers::EmergencyBrake::new(
        params,
        faults,
        sigs.clone(),
    ));
    sim.add(plant::ElevatorPlant::new(params, faults, sigs.clone()));
    sim.init(model::initial_frame(table, sigs));
    sim
}

/// One lane's configuration for [`build_elevator_batch`]: the per-cell
/// inputs [`build_elevator`] takes, minus the shared
/// parameters/table/sigs (a batch shares one signal namespace, so every
/// lane runs the same [`ElevatorParams`]).
#[derive(Debug, Clone, Copy)]
pub struct ElevatorLaneConfig {
    /// The injected fault configuration.
    pub faults: faults::ElevatorFaults,
    /// Seed for the deterministic passenger traffic.
    pub seed: u64,
}

/// Builds a batched elevator simulator stepping every lane of `lanes`
/// together: the same seven subsystems in the same order as
/// [`build_elevator`], each as a [`LaneVec`] over per-lane instances, and
/// each lane's initial blackboard seeded exactly as `build_elevator`
/// seeds its scalar counterpart. Lane `l` is bit-identical to
/// `build_elevator(params, lanes[l]…)` because every subsystem's
/// `step_lane` body is the one `build_elevator`'s boxed subsystems
/// monomorphize (pinned by this module's tests).
///
/// # Panics
///
/// Panics if `lanes` is empty.
pub fn build_elevator_batch(
    params: ElevatorParams,
    lanes: &[ElevatorLaneConfig],
    table: &Arc<SignalTable>,
    sigs: &ElevatorSigs,
) -> SimulatorBatch {
    assert!(
        !lanes.is_empty(),
        "an elevator batch needs at least one lane"
    );
    let n = lanes.len();
    let mut sim = SimulatorBatch::new(params.dt_millis, table, n);
    sim.add(LaneVec::from_fn(n, |l| {
        passengers::PassengerTraffic::new(params, lanes[l].seed, sigs.clone())
    }));
    sim.add(LaneVec::from_fn(n, |_| {
        controllers::ButtonLatches::new(params, sigs.clone())
    }));
    sim.add(LaneVec::from_fn(n, |l| {
        controllers::DispatchController::new(params, lanes[l].faults, sigs.clone())
    }));
    sim.add(LaneVec::from_fn(n, |l| {
        controllers::DoorController::new(params, lanes[l].faults, sigs.clone())
    }));
    sim.add(LaneVec::from_fn(n, |l| {
        controllers::DriveController::new(params, lanes[l].faults, sigs.clone())
    }));
    sim.add(LaneVec::from_fn(n, |l| {
        controllers::EmergencyBrake::new(params, lanes[l].faults, sigs.clone())
    }));
    sim.add(LaneVec::from_fn(n, |l| {
        plant::ElevatorPlant::new(params, lanes[l].faults, sigs.clone())
    }));
    for l in 0..n {
        sim.init_lane_with(l, |frame| model::seed_initial(frame, sigs));
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use esafe_harness::Experiment;
    use esafe_logic::Value;

    #[test]
    fn healthy_elevator_serves_calls_without_violations() {
        let substrate =
            ElevatorSubstrate::new(faults::ElevatorFaults::none(), 7).with_ticks(12_000);
        let report = Experiment::new(&substrate)
            .with_frame_recording(true)
            .run()
            .unwrap();
        // The elevator observes its raw frames unchanged, so the
        // recording holds the plant's own signals.
        let trace = report.trace.as_ref().expect("frames recorded");
        let column = |name| trace.column(trace.table().id(name).expect("signal"));
        let served_floors: std::collections::BTreeSet<i64> = column(model::DOOR_CLOSED)
            .iter()
            .zip(column(model::FLOOR))
            .filter(|(closed, _)| **closed == Some(Value::Bool(false)))
            .filter_map(|(_, floor)| floor.and_then(|v| v.as_real()))
            .map(|f| f as i64)
            .collect();
        assert!(
            !report.correlation.any_violations(),
            "healthy run must be clean:\n{}",
            report.correlation
        );
        assert!(
            served_floors.len() >= 2,
            "traffic must move the car: served {served_floors:?}"
        );
    }

    #[test]
    fn batched_elevator_matches_scalar_lanes_bit_for_bit() {
        let params = ElevatorParams::default();
        let (table, sigs) = model::elevator_table(&params);
        let configs = vec![
            ElevatorLaneConfig {
                faults: faults::ElevatorFaults::none(),
                seed: 7,
            },
            ElevatorLaneConfig {
                faults: faults::ElevatorFaults {
                    drive_ignores_door: true,
                    ..faults::ElevatorFaults::none()
                },
                seed: 11,
            },
            ElevatorLaneConfig {
                faults: faults::ElevatorFaults {
                    door_sensor_stuck_closed: true,
                    ..faults::ElevatorFaults::none()
                },
                seed: 7,
            },
        ];
        let mut batch = build_elevator_batch(params, &configs, &table, &sigs);
        let mut scalars: Vec<Simulator> = configs
            .iter()
            .map(|c| build_elevator(params, c.faults, c.seed, &table, &sigs))
            .collect();
        let mut frame = table.frame();
        for tick in 0..2000u64 {
            batch.step();
            for (l, sim) in scalars.iter_mut().enumerate() {
                sim.step();
                batch.state().read_lane_into(l, &mut frame);
                assert_eq!(&frame, sim.state(), "lane {l} diverged at tick {tick}");
            }
        }
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        // Record the *complete* blackboard every tick, not just the
        // report: determinism must hold for every signal, including ones
        // no monitor or tracked series reads.
        let run = |seed: u64| {
            let substrate =
                ElevatorSubstrate::new(faults::ElevatorFaults::none(), seed).with_ticks(2000);
            Experiment::new(&substrate)
                .with_frame_recording(true)
                .run()
                .unwrap()
        };
        let (a, b, c) = (run(11), run(11), run(12));
        assert_eq!(a.trace.as_ref().map(|t| t.len()), Some(2000));
        assert_eq!(a.trace, b.trace, "same seed must replay every state");
        assert_eq!(a, b, "and the identical report");
        assert_ne!(a.trace, c.trace, "different seeds must diverge");
    }
}
