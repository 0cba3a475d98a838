//! The software control agents: button latches, dispatcher, door and
//! drive controllers, and the emergency brake.

use crate::faults::ElevatorFaults;
use crate::model::{ElevatorParams, ElevatorSigs};
use esafe_logic::{SignalRead, SignalWrite};
use esafe_sim::{LaneSubsystem, SimTime};

/// Latches raw button presses into pending calls (the
/// `CarButtonController`/`HallButtonController` agents of Fig. 4.5).
/// A call clears when the car is at the floor with the door open.
#[derive(Debug)]
pub struct ButtonLatches {
    params: ElevatorParams,
    sigs: ElevatorSigs,
}

impl ButtonLatches {
    /// Creates the latch bank.
    pub fn new(params: ElevatorParams, sigs: ElevatorSigs) -> Self {
        ButtonLatches { params, sigs }
    }
}

impl LaneSubsystem for ButtonLatches {
    fn name(&self) -> &str {
        "ButtonLatches"
    }

    fn step_lane<R: SignalRead, W: SignalWrite>(&mut self, _t: &SimTime, prev: &R, next: &mut W) {
        let m = &self.sigs;
        let at_floor = prev.real_or(m.floor, 0.0) as u32;
        // Clear on the same fully-open sensor the dispatcher's dwell uses,
        // so the serving window and the dwell window meet.
        let door_open = prev.bool_or(m.door_open, false);
        let stopped = prev.bool_or(m.elevator_stopped, false);
        for f in 0..self.params.floors {
            let fi = f as usize;
            let serving = door_open && stopped && at_floor == f;
            for (button, call) in [
                (m.car_buttons[fi], m.car_calls[fi]),
                (m.hall_buttons[fi], m.hall_calls[fi]),
            ] {
                let latched = prev.bool_or(call, false);
                let pressed = prev.bool_or(button, false);
                next.set(call, (latched || pressed) && !serving);
            }
        }
    }
}

/// Schedules the next destination from pending calls and requests door
/// cycles at landings (the `DispatchController` agent).
#[derive(Debug)]
pub struct DispatchController {
    params: ElevatorParams,
    faults: ElevatorFaults,
    sigs: ElevatorSigs,
    dwell_ticks_left: u64,
    door_was_open: bool,
}

impl DispatchController {
    /// Creates the dispatcher.
    pub fn new(params: ElevatorParams, faults: ElevatorFaults, sigs: ElevatorSigs) -> Self {
        DispatchController {
            params,
            faults,
            sigs,
            dwell_ticks_left: 0,
            door_was_open: false,
        }
    }

    fn nearest_call<R: SignalRead>(&self, prev: &R, from_floor: u32) -> Option<u32> {
        (0..self.params.floors)
            .filter(|f| {
                let fi = *f as usize;
                prev.bool_or(self.sigs.car_calls[fi], false)
                    || prev.bool_or(self.sigs.hall_calls[fi], false)
            })
            .min_by_key(|f| u32::abs_diff(*f, from_floor))
    }
}

impl LaneSubsystem for DispatchController {
    fn name(&self) -> &str {
        "DispatchController"
    }

    fn step_lane<R: SignalRead, W: SignalWrite>(&mut self, t: &SimTime, prev: &R, next: &mut W) {
        let p = &self.params;
        let m = &self.sigs;
        let position = prev.real_or(m.position, 0.0);
        let stopped = prev.bool_or(m.elevator_stopped, false);
        let here = p.floor_at(position);
        let target = prev.real_or(m.dispatch_target, 0.0) as u32;
        let at_target = stopped && (position - p.floor_height(target)).abs() < 0.05;

        let dwell_ticks = (p.door_dwell_s * 1000.0 / t.dt_millis as f64) as u64;
        let door_open = prev.bool_or(m.door_open, false);

        if at_target && door_open && !self.door_was_open {
            // Door just reached fully open at the landing: start the dwell
            // countdown (once per opening).
            self.dwell_ticks_left = dwell_ticks;
        }
        self.door_was_open = door_open;
        if self.dwell_ticks_left > 0 {
            self.dwell_ticks_left -= 1;
        }

        let serving_here = at_target
            && (prev.bool_or(m.car_calls[here as usize], false)
                || prev.bool_or(m.hall_calls[here as usize], false));
        let want_door_open = at_target && (serving_here || self.dwell_ticks_left > 0);
        next.set(
            m.dispatch_door_request,
            if want_door_open {
                m.sym_open
            } else {
                m.sym_close
            },
        );

        // Retarget only while parked with the door (sensed) shut and no
        // dwell. The `drive_ignores_door` fault models a missing
        // door/drive interlock in this dispatch path as well.
        let door_closed_now = prev.bool_or(m.door_closed, false);
        let interlock = door_closed_now || self.faults.drive_ignores_door;
        if at_target && interlock && self.dwell_ticks_left == 0 {
            if let Some(next_target) = self.nearest_call(prev, here) {
                next.set(m.dispatch_target, i64::from(next_target));
            }
        }
    }
}

/// The `DoorController` agent, carrying its Table 4.4 safety subgoal:
/// *if the door is not blocked and the elevator is moving or has been
/// commanded to move, command the door to CLOSE.*
#[derive(Debug)]
pub struct DoorController {
    #[allow(dead_code)]
    params: ElevatorParams,
    faults: ElevatorFaults,
    sigs: ElevatorSigs,
}

impl DoorController {
    /// Creates the door controller.
    pub fn new(params: ElevatorParams, faults: ElevatorFaults, sigs: ElevatorSigs) -> Self {
        DoorController {
            params,
            faults,
            sigs,
        }
    }
}

impl LaneSubsystem for DoorController {
    fn name(&self) -> &str {
        "DoorController"
    }

    fn step_lane<R: SignalRead, W: SignalWrite>(&mut self, _t: &SimTime, prev: &R, next: &mut W) {
        let m = &self.sigs;
        let blocked = prev.bool_or(m.door_blocked, false);
        let stopped = prev.bool_or(m.elevator_stopped, false);
        let drive_cmd = prev.get(m.drive_command);
        let request = prev.get(m.dispatch_door_request).unwrap_or(m.sym_close);

        // Door-reversal safety goal (eq. 4.7): a blocked door opens, with
        // priority over everything else.
        // Early-open fault: opens as soon as the car is in the target
        // floor's band, even while still decelerating.
        let target = prev.real_or(m.dispatch_target, 0.0) as u32;
        let here = prev.real_or(m.floor, 0.0) as u32;
        let early_open = self.faults.door_opens_while_moving && here == target && !stopped;

        let cmd = if blocked || early_open {
            m.sym_open
        } else if !stopped || drive_cmd != Some(m.sym_stop) {
            // Table 4.4 subgoal: close when moving or commanded to move.
            m.sym_close
        } else {
            request
        };
        next.set(m.door_motor_command, cmd);
    }
}

/// The `DriveController` agent, carrying three safety subgoals:
/// Table 4.4's *stop when the door is open or has been commanded open*,
/// Fig. 4.6's overweight stop, and Fig. 4.10's primary hoistway guard.
#[derive(Debug)]
pub struct DriveController {
    params: ElevatorParams,
    faults: ElevatorFaults,
    sigs: ElevatorSigs,
    stuck_up: bool,
}

impl DriveController {
    /// Creates the drive controller.
    pub fn new(params: ElevatorParams, faults: ElevatorFaults, sigs: ElevatorSigs) -> Self {
        DriveController {
            params,
            faults,
            sigs,
            stuck_up: false,
        }
    }

    /// Distance needed to stop from full speed, plus the restrictive
    /// safety margin (§4.5.2).
    fn guard_distance(&self) -> f64 {
        let p = &self.params;
        p.max_speed * p.max_speed / (2.0 * p.accel) + p.stop_margin_m
    }
}

impl LaneSubsystem for DriveController {
    fn name(&self) -> &str {
        "DriveController"
    }

    fn step_lane<R: SignalRead, W: SignalWrite>(&mut self, _t: &SimTime, prev: &R, next: &mut W) {
        let p = &self.params;
        let m = &self.sigs;
        let position = prev.real_or(m.position, 0.0);
        let door_closed = prev.bool_or(m.door_closed, false);
        let door_cmd = prev.get(m.door_motor_command);
        let overweight = prev.bool_or(m.overweight, false);
        let target = prev.real_or(m.dispatch_target, 0.0) as u32;
        let target_pos = p.floor_height(target);

        let door_unsafe = !door_closed || door_cmd == Some(m.sym_open);
        if door_unsafe && !self.faults.drive_ignores_door {
            next.set(m.drive_command, m.sym_stop);
            return;
        }
        if overweight && !self.faults.overweight_ignored {
            next.set(m.drive_command, m.sym_stop);
            return;
        }
        // The `hoistway_guard_missing` fault is a runaway: once the
        // controller commands UP it never re-evaluates, and the primary
        // hoistway guard below is also absent.
        if self.faults.hoistway_guard_missing && (self.stuck_up || target_pos > position + 0.1) {
            self.stuck_up = true;
            next.set(m.drive_command, m.sym_up);
            return;
        }

        // Position tracking with a stopping-distance approach window.
        let speed = prev.real_or(m.elevator_speed, 0.0);
        let braking = speed * speed / (2.0 * p.accel) + 0.02;
        let error = target_pos - position;
        let mut cmd = if error > braking {
            m.sym_up
        } else if error < -braking {
            m.sym_down
        } else {
            m.sym_stop
        };
        // Primary hoistway guard (redundancy leg 1): upward motion is
        // forbidden inside the guard band no matter what the dispatcher
        // asked for.
        if !self.faults.hoistway_guard_missing
            && cmd == m.sym_up
            && position >= p.hoistway_limit_m - self.guard_distance()
        {
            cmd = m.sym_stop;
        }
        next.set(m.drive_command, cmd);
    }
}

/// The emergency-brake agent: the *secondary* redundancy leg of the
/// hoistway goal (Fig. 4.11), latching when the car passes the tighter
/// emergency margin.
#[derive(Debug)]
pub struct EmergencyBrake {
    params: ElevatorParams,
    faults: ElevatorFaults,
    sigs: ElevatorSigs,
}

impl EmergencyBrake {
    /// Creates the emergency brake controller.
    pub fn new(params: ElevatorParams, faults: ElevatorFaults, sigs: ElevatorSigs) -> Self {
        EmergencyBrake {
            params,
            faults,
            sigs,
        }
    }
}

impl LaneSubsystem for EmergencyBrake {
    fn name(&self) -> &str {
        "EmergencyBrake"
    }

    fn step_lane<R: SignalRead, W: SignalWrite>(&mut self, _t: &SimTime, prev: &R, next: &mut W) {
        if self.faults.ebrake_inoperative {
            return;
        }
        let p = &self.params;
        let m = &self.sigs;
        let position = prev.real_or(m.position, 0.0);
        let speed = prev.real_or(m.elevator_speed, 0.0);
        let braking = speed * speed / (2.0 * p.ebrake_decel);
        let latched = prev.bool_or(m.emergency_brake, false);
        if latched || (speed > 0.0 && position + braking >= p.hoistway_limit_m - p.ebrake_margin_m)
        {
            next.set(m.emergency_brake, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{elevator_table, initial_frame};
    use esafe_logic::{Frame, Value};
    use esafe_sim::LaneSubsystem;

    fn ctx() -> (Frame, ElevatorSigs) {
        let p = ElevatorParams::default();
        let (table, sigs) = elevator_table(&p);
        (initial_frame(&table, &sigs), sigs)
    }

    fn tick(s: &mut impl LaneSubsystem, prev: &Frame) -> Frame {
        let mut next = prev.clone();
        s.step_lane(
            &SimTime {
                tick: 1,
                dt_millis: 10,
            },
            prev,
            &mut next,
        );
        next
    }

    #[test]
    fn latch_holds_until_served() {
        let p = ElevatorParams::default();
        let (mut s, m) = ctx();
        let mut latches = ButtonLatches::new(p, m.clone());
        s.set(m.car_buttons[3], true);
        let s2 = tick(&mut latches, &s);
        assert!(s2.bool_or(m.car_calls[3], false));
        // Press released: the call stays latched.
        let mut s3 = s2.clone();
        s3.set(m.car_buttons[3], false);
        let s4 = tick(&mut latches, &s3);
        assert!(s4.bool_or(m.car_calls[3], false));
        // Serving the floor clears it.
        let mut s5 = s4.clone();
        s5.set(m.floor, 3.0);
        s5.set(m.door_open, true);
        s5.set(m.elevator_stopped, true);
        let s6 = tick(&mut latches, &s5);
        assert!(!s6.bool_or(m.car_calls[3], true));
    }

    #[test]
    fn dispatcher_targets_nearest_call() {
        let p = ElevatorParams::default();
        let (mut s, m) = ctx();
        let mut d = DispatchController::new(p, ElevatorFaults::none(), m.clone());
        s.set(m.car_calls[4], true);
        s.set(m.car_calls[1], true);
        let s2 = tick(&mut d, &s);
        assert_eq!(s2.get(m.dispatch_target), Some(Value::Int(1)));
    }

    #[test]
    fn door_controller_closes_while_moving() {
        let p = ElevatorParams::default();
        let (mut s, m) = ctx();
        let mut dc = DoorController::new(p, ElevatorFaults::none(), m.clone());
        s.set(m.elevator_stopped, false);
        s.set(m.dispatch_door_request, m.sym_open);
        let s2 = tick(&mut dc, &s);
        assert_eq!(s2.get(m.door_motor_command), Some(m.sym_close));
    }

    #[test]
    fn door_reversal_beats_everything() {
        let p = ElevatorParams::default();
        let (mut s, m) = ctx();
        let mut dc = DoorController::new(p, ElevatorFaults::none(), m.clone());
        s.set(m.door_blocked, true);
        s.set(m.elevator_stopped, false);
        let s2 = tick(&mut dc, &s);
        assert_eq!(s2.get(m.door_motor_command), Some(m.sym_open));
    }

    #[test]
    fn faulty_door_controller_opens_while_moving() {
        let p = ElevatorParams::default();
        let faults = ElevatorFaults {
            door_opens_while_moving: true,
            ..ElevatorFaults::none()
        };
        let (mut s, m) = ctx();
        let mut dc = DoorController::new(p, faults, m.clone());
        s.set(m.elevator_stopped, false);
        s.set(m.dispatch_door_request, m.sym_open);
        let s2 = tick(&mut dc, &s);
        assert_eq!(s2.get(m.door_motor_command), Some(m.sym_open));
    }

    #[test]
    fn drive_stops_for_open_door_and_overweight() {
        let p = ElevatorParams::default();
        let (mut s, m) = ctx();
        let mut drv = DriveController::new(p, ElevatorFaults::none(), m.clone());
        s.set(m.dispatch_target, 3i64);
        s.set(m.door_closed, false);
        let s2 = tick(&mut drv, &s);
        assert_eq!(s2.get(m.drive_command), Some(m.sym_stop));
        s.set(m.door_closed, true);
        s.set(m.overweight, true);
        let s3 = tick(&mut drv, &s);
        assert_eq!(s3.get(m.drive_command), Some(m.sym_stop));
        s.set(m.overweight, false);
        let s4 = tick(&mut drv, &s);
        assert_eq!(s4.get(m.drive_command), Some(m.sym_up));
    }

    #[test]
    fn hoistway_guard_blocks_upward_motion_near_limit() {
        let p = ElevatorParams::default();
        let (mut s, m) = ctx();
        let mut drv = DriveController::new(p, ElevatorFaults::none(), m.clone());
        // A corrupted dispatch target far above the hoistway would drive
        // the car up; the guard must refuse inside the band.
        s.set(m.dispatch_target, 10i64);
        s.set(m.position, p.hoistway_limit_m - 0.5);
        let s2 = tick(&mut drv, &s);
        assert_eq!(s2.get(m.drive_command), Some(m.sym_stop));
        // Downward motion is still allowed near the top.
        s.set(m.dispatch_target, 0i64);
        let s3 = tick(&mut drv, &s);
        assert_eq!(s3.get(m.drive_command), Some(m.sym_down));
    }

    #[test]
    fn ebrake_latches_near_the_limit() {
        let p = ElevatorParams::default();
        let (mut s, m) = ctx();
        let mut eb = EmergencyBrake::new(p, ElevatorFaults::none(), m.clone());
        s.set(m.position, p.hoistway_limit_m - 0.2);
        s.set(m.elevator_speed, 2.0);
        let s2 = tick(&mut eb, &s);
        assert!(s2.bool_or(m.emergency_brake, false));
        // Latched even after the hazard clears.
        let mut s3 = s2.clone();
        s3.set(m.elevator_speed, 0.0);
        s3.set(m.position, 1.0);
        let s4 = tick(&mut eb, &s3);
        assert!(s4.bool_or(m.emergency_brake, false));
    }

    #[test]
    fn inoperative_ebrake_never_fires() {
        let p = ElevatorParams::default();
        let faults = ElevatorFaults {
            ebrake_inoperative: true,
            ..ElevatorFaults::none()
        };
        let (mut s, m) = ctx();
        let mut eb = EmergencyBrake::new(p, faults, m.clone());
        s.set(m.position, p.hoistway_limit_m);
        s.set(m.elevator_speed, 2.0);
        let s2 = tick(&mut eb, &s);
        assert!(!s2.bool_or(m.emergency_brake, true));
    }
}
