//! The physical plant: drive, door motor, and sensors.

use crate::faults::ElevatorFaults;
use crate::model::{ElevatorParams, ElevatorSigs};
use esafe_logic::{SignalRead, SignalWrite};
use esafe_sim::{LaneSubsystem, SimTime};

/// Drive + door-motor dynamics and the sensor package.
///
/// The drive accelerates toward ±`max_speed` under `'UP'`/`'DOWN'` and
/// decelerates to rest under `'STOP'` (the Min/Max Stop/Go delay
/// relationships of Table 4.2 emerge from the acceleration limit); the
/// emergency brake decelerates harder. The door traverses at constant
/// rate and cannot close against a blocking passenger (eq. 4.6).
#[derive(Debug)]
pub struct ElevatorPlant {
    params: ElevatorParams,
    faults: ElevatorFaults,
    sigs: ElevatorSigs,
}

impl ElevatorPlant {
    /// Creates the plant.
    pub fn new(params: ElevatorParams, faults: ElevatorFaults, sigs: ElevatorSigs) -> Self {
        ElevatorPlant {
            params,
            faults,
            sigs,
        }
    }
}

impl LaneSubsystem for ElevatorPlant {
    fn name(&self) -> &str {
        "ElevatorPlant"
    }

    fn step_lane<R: SignalRead, W: SignalWrite>(&mut self, t: &SimTime, prev: &R, next: &mut W) {
        let p = &self.params;
        let m = &self.sigs;
        let dt = t.dt_seconds();

        // ---- Drive dynamics.
        let mut speed = prev.real_or(m.elevator_speed, 0.0);
        let mut position = prev.real_or(m.position, 0.0);
        let drive_cmd = prev.get(m.drive_command);
        let ebrake = prev.bool_or(m.emergency_brake, false);

        let target_speed = if ebrake {
            0.0
        } else if drive_cmd == Some(m.sym_up) {
            p.max_speed
        } else if drive_cmd == Some(m.sym_down) {
            -p.max_speed
        } else {
            0.0
        };
        let rate = if ebrake { p.ebrake_decel } else { p.accel };
        let max_delta = rate * dt;
        speed += (target_speed - speed).clamp(-max_delta, max_delta);
        if speed.abs() < 1e-9 {
            speed = 0.0;
        }
        position = (position + speed * dt).max(0.0);

        next.set(m.elevator_speed, speed);
        next.set(m.elevator_stopped, speed.abs() <= p.stopped_eps);
        next.set(m.position, position);
        next.set(m.floor, f64::from(p.floor_at(position)));

        // ---- Door dynamics. A blocked door cannot close (eq. 4.6).
        let mut door_pos = prev.real_or(m.door_position, 0.0);
        let door_cmd = prev.get(m.door_motor_command);
        let blocked = prev.bool_or(m.door_blocked, false);
        let door_rate = dt / p.door_travel_s;
        if door_cmd == Some(m.sym_open) {
            door_pos = (door_pos + door_rate).min(1.0);
        } else if !blocked {
            door_pos = (door_pos - door_rate).max(0.0);
        } // else: closing force defeated by the passenger
        next.set(m.door_position, door_pos);
        let truly_closed = door_pos <= 0.01;
        let sensed_closed = if self.faults.door_sensor_stuck_closed {
            true // violated critical assumption: the sensor lies
        } else {
            truly_closed
        };
        next.set(m.door_closed, sensed_closed);
        next.set(m.door_open, door_pos >= 0.99);

        // ---- Weight sensor threshold.
        let weight = prev.real_or(m.elevator_weight, 0.0);
        next.set(m.overweight, weight > p.weight_threshold_kg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{self as model, elevator_table};
    use esafe_logic::{SignalTable, Value};
    use esafe_sim::Simulator;
    use std::sync::Arc;

    fn plant_sim(faults: ElevatorFaults) -> (Simulator, Arc<SignalTable>, ElevatorSigs) {
        let p = ElevatorParams::default();
        let (table, sigs) = elevator_table(&p);
        let mut sim = Simulator::new(p.dt_millis, &table);
        sim.add(ElevatorPlant::new(p, faults, sigs.clone()));
        sim.init_with(|f| model::seed_initial(f, &sigs));
        (sim, table, sigs)
    }

    fn force(sim: &mut Simulator, id: esafe_logic::SignalId, v: impl Into<Value>) {
        let mut s = sim.state().clone();
        s.set(id, v);
        // Re-seed the state while keeping history semantics: the plant
        // only reads `prev`, so restarting from the forced state is fine
        // for plant-only tests.
        sim.init_with(|f| f.copy_from(&s));
    }

    #[test]
    fn drive_accelerates_and_stops_with_bounded_rate() {
        let (mut sim, _t, m) = plant_sim(ElevatorFaults::none());
        force(&mut sim, m.drive_command, m.sym_up);
        for _ in 0..300 {
            sim.step();
        }
        let speed = sim.state().real_or(m.elevator_speed, 0.0);
        assert!(
            (speed - 2.0).abs() < 1e-6,
            "cruise at max speed, got {speed}"
        );
        force(&mut sim, m.drive_command, m.sym_stop);
        for _ in 0..300 {
            sim.step();
        }
        assert_eq!(sim.state().real_or(m.elevator_speed, 9.0), 0.0);
        assert!(sim.state().real_or(m.position, 0.0) > 0.0);
    }

    #[test]
    fn door_cannot_close_against_block() {
        let (mut sim, _t, m) = plant_sim(ElevatorFaults::none());
        force(&mut sim, m.door_motor_command, m.sym_open);
        for _ in 0..250 {
            sim.step();
        }
        assert_eq!(sim.state().real_or(m.door_position, 0.0), 1.0);
        assert!(!sim.state().bool_or(m.door_closed, true));
        let mut s = sim.state().clone();
        s.set(m.door_motor_command, m.sym_close);
        s.set(m.door_blocked, true);
        sim.init_with(|f| f.copy_from(&s));
        for _ in 0..250 {
            sim.step();
        }
        assert_eq!(
            sim.state().real_or(m.door_position, 0.0),
            1.0,
            "block holds"
        );
    }

    #[test]
    fn stuck_sensor_reports_closed_when_open() {
        let faults = ElevatorFaults {
            door_sensor_stuck_closed: true,
            ..ElevatorFaults::none()
        };
        let (mut sim, _t, m) = plant_sim(faults);
        force(&mut sim, m.door_motor_command, m.sym_open);
        for _ in 0..250 {
            sim.step();
        }
        assert!(sim.state().real_or(m.door_position, 0.0) > 0.9);
        assert!(sim.state().bool_or(m.door_closed, false), "the sensor lies");
    }

    #[test]
    fn overweight_flag_follows_threshold() {
        let (mut sim, _t, m) = plant_sim(ElevatorFaults::none());
        force(&mut sim, m.elevator_weight, 700.0);
        sim.step();
        assert!(sim.state().bool_or(m.overweight, false));
        force(&mut sim, m.elevator_weight, 100.0);
        sim.step();
        assert!(!sim.state().bool_or(m.overweight, true));
    }

    #[test]
    fn emergency_brake_stops_faster_than_drive() {
        let (mut sim, _t, m) = plant_sim(ElevatorFaults::none());
        force(&mut sim, m.drive_command, m.sym_up);
        for _ in 0..300 {
            sim.step();
        }
        let mut s = sim.state().clone();
        s.set(m.emergency_brake, true);
        sim.init_with(|f| f.copy_from(&s));
        let mut ticks = 0;
        while sim.state().real_or(m.elevator_speed, 0.0) > 0.0 && ticks < 1000 {
            sim.step();
            ticks += 1;
        }
        // 2 m/s at 4 m/s² → 0.5 s = 50 ticks (10 ms each).
        assert!(ticks <= 55, "stopped in {ticks} ticks");
    }
}
