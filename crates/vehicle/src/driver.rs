//! The scripted driver and HMI (thesis §5.2.1: the driver enables,
//! engages, and overrides features through pedals, wheel, and HMI).

use crate::config::VehicleParams;
use crate::signals::{feature_index, VehicleSigs};
use esafe_logic::{SignalRead, SignalWrite, Value};
use esafe_sim::{LaneSubsystem, SimTime};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One scripted driver/HMI action.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DriverAction {
    /// Set throttle pedal position (0..1).
    Throttle(f64),
    /// Set brake pedal position (0..1).
    Brake(f64),
    /// Start/stop actively steering.
    SteeringActive(bool),
    /// Set the steering-wheel input, rad.
    Steering(f64),
    /// Select a gear (`"D"` or `"R"`).
    Gear(String),
    /// Press the HMI "go" button (momentary, one tick).
    Go,
    /// Toggle a feature's HMI enable switch.
    Enable(String, bool),
    /// Toggle a feature's HMI engage request.
    Engage(String, bool),
    /// Set the ACC set speed, m/s.
    SetSpeed(f64),
}

/// The scripted driver: replays a schedule of [`DriverAction`]s and
/// publishes the pedal-demand acceleration. Feature names and gear texts
/// in the schedule are resolved to ids / interned symbols up front, so
/// replay is allocation-free.
#[derive(Debug, Clone)]
pub struct ScriptedDriver {
    params: VehicleParams,
    sigs: Arc<VehicleSigs>,
    schedule: Vec<(f64, DriverAction)>,
    next_idx: usize,
    throttle: f64,
    brake: f64,
    steering_active: bool,
    steering: f64,
    /// Interned gear symbol (`'D'` / `'R'`).
    gear: Value,
    go_pending: bool,
}

impl ScriptedDriver {
    /// Creates a driver from a `(time_s, action)` schedule. Actions are
    /// applied in schedule order once simulation time passes their
    /// timestamp.
    pub fn new(
        params: VehicleParams,
        sigs: impl Into<Arc<VehicleSigs>>,
        mut schedule: Vec<(f64, DriverAction)>,
    ) -> Self {
        let sigs: Arc<VehicleSigs> = sigs.into();
        schedule.sort_by(|a, b| a.0.total_cmp(&b.0));
        ScriptedDriver {
            params,
            schedule,
            next_idx: 0,
            throttle: 0.0,
            brake: 0.0,
            steering_active: false,
            steering: 0.0,
            gear: sigs.sym_d,
            go_pending: false,
            sigs,
        }
    }

    /// Seeds the blackboard with the driver's initial outputs.
    pub fn seed<W: SignalWrite>(frame: &mut W, sigs: &VehicleSigs) {
        frame.set(sigs.driver_throttle, 0.0);
        frame.set(sigs.driver_brake, 0.0);
        frame.set(sigs.driver_steering_active, false);
        frame.set(sigs.driver_steering, 0.0);
        frame.set(sigs.driver_accel_request, 0.0);
        frame.set(sigs.gear, sigs.sym_d);
        frame.set(sigs.hmi_go, false);
        frame.set(sigs.acc_set_speed, 0.0);
        for f in &sigs.features {
            frame.set(f.hmi_enable, false);
            frame.set(f.hmi_engage, false);
        }
    }

    fn pedal_accel(&self) -> f64 {
        let raw = self.throttle * self.params.max_throttle_accel
            - self.brake * self.params.max_brake_decel;
        if self.gear == self.sigs.sym_r {
            -raw
        } else {
            raw
        }
    }
}

impl LaneSubsystem for ScriptedDriver {
    fn name(&self) -> &str {
        "Driver"
    }

    fn step_lane<R: SignalRead, W: SignalWrite>(&mut self, t: &SimTime, _prev: &R, next: &mut W) {
        let s = &*self.sigs;
        let now = t.seconds();
        // Momentary signals reset each tick unless re-pressed.
        next.set(s.hmi_go, false);
        while self.next_idx < self.schedule.len() && self.schedule[self.next_idx].0 <= now {
            let (_, action) = &self.schedule[self.next_idx];
            match action {
                DriverAction::Throttle(v) => self.throttle = v.clamp(0.0, 1.0),
                DriverAction::Brake(v) => self.brake = v.clamp(0.0, 1.0),
                DriverAction::SteeringActive(b) => self.steering_active = *b,
                DriverAction::Steering(v) => self.steering = *v,
                DriverAction::Gear(g) => self.gear = Value::sym(g),
                DriverAction::Go => self.go_pending = true,
                DriverAction::Enable(f, b) => {
                    next.set(s.features[feature_index(f)].hmi_enable, *b);
                }
                DriverAction::Engage(f, b) => {
                    next.set(s.features[feature_index(f)].hmi_engage, *b);
                }
                DriverAction::SetSpeed(v) => next.set(s.acc_set_speed, *v),
            }
            self.next_idx += 1;
        }
        if self.go_pending {
            next.set(s.hmi_go, true);
            self.go_pending = false;
        }
        next.set(s.driver_throttle, self.throttle);
        next.set(s.driver_brake, self.brake);
        next.set(s.driver_steering_active, self.steering_active);
        next.set(s.driver_steering, self.steering);
        next.set(s.gear, self.gear);
        next.set(s.driver_accel_request, self.pedal_accel());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signals::{self as sig, vehicle_table};
    use esafe_logic::Frame;
    use esafe_sim::Simulator;

    fn run_driver(schedule: Vec<(f64, DriverAction)>, ticks: u64) -> (Frame, VehicleSigs) {
        let (table, sigs) = vehicle_table();
        let mut sim = Simulator::new(1, &table);
        sim.add(ScriptedDriver::new(
            VehicleParams::default(),
            sigs,
            schedule,
        ));
        sim.init_with(|f| ScriptedDriver::seed(f, &sigs));
        for _ in 0..ticks {
            sim.step();
        }
        (sim.state().clone(), sigs)
    }

    #[test]
    fn actions_apply_at_their_time() {
        let (s, sigs) = run_driver(vec![(0.05, DriverAction::Throttle(0.5))], 40);
        assert_eq!(s.real_or(sigs.driver_throttle, -1.0), 0.0);
        let (s, sigs) = run_driver(vec![(0.05, DriverAction::Throttle(0.5))], 60);
        assert_eq!(s.real_or(sigs.driver_throttle, -1.0), 0.5);
    }

    #[test]
    fn pedal_accel_combines_and_respects_gear() {
        let (s, sigs) = run_driver(
            vec![
                (0.0, DriverAction::Throttle(1.0)),
                (0.0, DriverAction::Brake(0.5)),
            ],
            5,
        );
        // 1.0·3.0 − 0.5·8.0 = −1.0
        assert_eq!(s.real_or(sigs.driver_accel_request, 0.0), -1.0);
        let (s, sigs) = run_driver(
            vec![
                (0.0, DriverAction::Gear("R".into())),
                (0.0, DriverAction::Throttle(1.0)),
            ],
            5,
        );
        assert_eq!(s.real_or(sigs.driver_accel_request, 0.0), -3.0);
        assert_eq!(s.get(sigs.gear), Some(sigs.sym_r));
    }

    #[test]
    fn go_is_momentary() {
        let (table, sigs) = vehicle_table();
        let mut sim = Simulator::new(1, &table);
        sim.add(ScriptedDriver::new(
            VehicleParams::default(),
            sigs,
            vec![(0.002, DriverAction::Go)],
        ));
        sim.init_with(|f| ScriptedDriver::seed(f, &sigs));
        sim.step(); // t = 1 ms: not yet
        assert_eq!(sim.state().get(sigs.hmi_go), Some(Value::Bool(false)));
        sim.step(); // t = 2 ms: pressed
        assert_eq!(sim.state().get(sigs.hmi_go), Some(Value::Bool(true)));
        sim.step(); // released
        assert_eq!(sim.state().get(sigs.hmi_go), Some(Value::Bool(false)));
    }

    #[test]
    fn enable_and_engage_write_hmi_signals() {
        let (s, sigs) = run_driver(
            vec![
                (0.0, DriverAction::Enable("ACC".into(), true)),
                (0.001, DriverAction::Engage("ACC".into(), true)),
                (0.001, DriverAction::SetSpeed(20.0)),
            ],
            5,
        );
        assert_eq!(
            s.get(sigs.features[sig::ACC].hmi_enable),
            Some(Value::Bool(true))
        );
        assert_eq!(
            s.get(sigs.features[sig::ACC].hmi_engage),
            Some(Value::Bool(true))
        );
        assert_eq!(s.real_or(sigs.acc_set_speed, 0.0), 20.0);
    }

    #[test]
    fn schedule_is_sorted_on_construction() {
        let (s, sigs) = run_driver(
            vec![
                (0.010, DriverAction::Throttle(0.9)),
                (0.005, DriverAction::Throttle(0.2)),
            ],
            20,
        );
        // Later action wins.
        assert_eq!(s.real_or(sigs.driver_throttle, 0.0), 0.9);
    }
}
