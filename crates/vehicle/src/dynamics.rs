//! Host vehicle dynamics and scene objects — the CarSim substitute.
//!
//! A point-mass longitudinal model with first-order actuation lag, jerk
//! tracking, a kinematic lateral model, and forward/rear scene objects
//! with collision detection. The thesis uses CarSim only as a plant that
//! turns acceleration/steering commands into the sampled state variables
//! the goal monitors consume; this model reproduces those signal shapes
//! (command steps filtered through actuator lag, integrated speed and
//! position, differentiated jerk).

use crate::config::{DefectSet, VehicleParams};
use crate::signals::VehicleSigs;
use esafe_logic::{SignalRead, SignalWrite};
use esafe_sim::{FirstOrderLag, LaneSubsystem, SimTime};
use serde::{Deserialize, Serialize};

/// A scene object ahead of or behind the host.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SceneObject {
    /// Gap from the host at t=0, m (positive, bumper to bumper).
    pub initial_gap_m: f64,
    /// The object's initial speed, m/s (signed, world frame).
    pub speed: f64,
    /// If set, the object starts braking at 1 m/s² toward a stop at this
    /// time (the "lead vehicle slows to a halt" situations of §5.4).
    pub stops_at_s: Option<f64>,
}

impl SceneObject {
    /// A constant-speed (or parked) object.
    pub fn constant(initial_gap_m: f64, speed: f64) -> Self {
        SceneObject {
            initial_gap_m,
            speed,
            stops_at_s: None,
        }
    }

    /// An object that brakes to a stop starting at `stops_at_s`.
    pub fn stopping(initial_gap_m: f64, speed: f64, stops_at_s: f64) -> Self {
        SceneObject {
            initial_gap_m,
            speed,
            stops_at_s: Some(stops_at_s),
        }
    }
}

/// Scene configuration for one scenario run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Scene {
    /// Object ahead of the host, if any.
    pub lead: Option<SceneObject>,
    /// Object behind the host, if any.
    pub rear: Option<SceneObject>,
}

/// The plant: integrates commands into motion, tracks scene gaps, and
/// latches collisions.
#[derive(Debug)]
pub struct HostDynamics {
    #[allow(dead_code)]
    params: VehicleParams,
    defects: DefectSet,
    sigs: VehicleSigs,
    scene: Scene,
    accel_lag: FirstOrderLag,
    steering_lag: FirstOrderLag,
    lead_position: f64,
    lead_speed: f64,
    rear_position: f64,
    impact_tick: Option<u64>,
}

/// Post-impact contact transient: a decaying oscillation of the measured
/// acceleration as the vehicle strikes the object (the crash dynamics a
/// full vehicle simulator produces in the ~100 ms before the run aborts).
/// This plant-level behaviour is exactly the emergence the command-level
/// subgoals cannot see: it drives the thesis's scenario 1 vehicle-level
/// acceleration/jerk violations that arrive with *no* subgoal violations.
fn impact_accel(ms_since_impact: f64) -> f64 {
    let envelope = (-ms_since_impact / 35.0).exp();
    let phase = (2.0 * std::f64::consts::PI * ms_since_impact / 25.0).cos();
    -32.0 * envelope * phase
}

impl HostDynamics {
    /// Creates the plant for a scene.
    pub fn new(params: VehicleParams, defects: DefectSet, scene: Scene, sigs: VehicleSigs) -> Self {
        HostDynamics {
            params,
            defects,
            sigs,
            scene,
            accel_lag: FirstOrderLag::new(params.accel_tau_s, 0.0),
            steering_lag: FirstOrderLag::new(params.steering_tau_s, 0.0),
            lead_position: scene.lead.map(|o| o.initial_gap_m).unwrap_or(f64::INFINITY),
            lead_speed: scene.lead.map(|o| o.speed).unwrap_or(0.0),
            rear_position: scene
                .rear
                .map(|o| -o.initial_gap_m)
                .unwrap_or(f64::NEG_INFINITY),
            impact_tick: None,
        }
    }

    /// Seeds the blackboard with the plant's initial outputs.
    pub fn seed<W: SignalWrite>(frame: &mut W, sigs: &VehicleSigs, scene: &Scene) {
        frame.set(sigs.host_speed, 0.0);
        frame.set(sigs.host_accel, 0.0);
        frame.set(sigs.host_jerk, 0.0);
        frame.set(sigs.host_position, 0.0);
        frame.set(sigs.host_steering, 0.0);
        frame.set(sigs.host_lane_offset, 0.0);
        frame.set(
            sigs.lead_distance,
            scene.lead.map(|o| o.initial_gap_m).unwrap_or(1e9),
        );
        frame.set(sigs.lead_speed, scene.lead.map(|o| o.speed).unwrap_or(0.0));
        frame.set(
            sigs.rear_distance,
            scene.rear.map(|o| o.initial_gap_m).unwrap_or(1e9),
        );
        frame.set(sigs.collision, false);
        frame.set(sigs.rear_collision, false);
    }
}

impl LaneSubsystem for HostDynamics {
    fn name(&self) -> &str {
        "HostDynamics"
    }

    fn step_lane<R: SignalRead, W: SignalWrite>(&mut self, t: &SimTime, prev: &R, next: &mut W) {
        let s = &self.sigs;
        let dt = t.dt_seconds();
        let cmd = prev.real_or(s.accel_cmd, 0.0);
        let steering_cmd = prev.real_or(s.steering_cmd, 0.0);
        let speed_prev = prev.real_or(s.host_speed, 0.0);
        let accel_prev = prev.real_or(s.host_accel, 0.0);
        let pos_prev = prev.real_or(s.host_position, 0.0);
        let offset_prev = prev.real_or(s.host_lane_offset, 0.0);

        let mut accel = self.accel_lag.step(cmd, dt);

        // Contact transient while striking the object (see `impact_accel`).
        if let Some(it) = self.impact_tick {
            let ms = (t.tick.saturating_sub(it) * t.dt_millis) as f64;
            if ms <= 120.0 {
                accel = impact_accel(ms);
                self.accel_lag.value = accel;
            }
        }

        let mut speed = speed_prev + accel * dt;

        // Physical zero-speed behaviour: brakes hold the vehicle at rest
        // instead of reversing it (reverse motion requires reverse gear,
        // and vice versa). The thesis vehicle lacked this clamp — scenario
        // 6 shows speed going negative under autonomous control — so the
        // defect switch removes it.
        if !self.defects.no_reverse_inhibit && self.impact_tick.is_none() {
            // An unset gear counts as 'D'; any other symbol pins nothing
            // (exact seed semantics — only 'D' and 'R' clamp).
            let gear = prev.get(s.gear).unwrap_or(s.sym_d);
            let crossing = (gear == s.sym_d && speed < 0.0) || (gear == s.sym_r && speed > 0.0);
            if crossing {
                // Pin the speed only: the measured acceleration keeps
                // following the actuator lag so the jerk signal stays
                // physical (no artificial step at the stop).
                speed = 0.0;
            }
        }

        let jerk = (accel - accel_prev) / dt;
        let position = pos_prev + speed * dt;

        let steering = self.steering_lag.step(steering_cmd, dt);
        let lane_offset = offset_prev + speed * steering * dt;

        next.set(s.host_accel, accel);
        next.set(s.host_jerk, jerk);
        next.set(s.host_speed, speed);
        next.set(s.host_position, position);
        next.set(s.host_steering, steering);
        next.set(s.host_lane_offset, lane_offset);

        if let Some(lead) = self.scene.lead {
            if lead.stops_at_s.is_some_and(|ts| t.seconds() >= ts) {
                self.lead_speed = if self.lead_speed > 0.0 {
                    (self.lead_speed - 1.0 * dt).max(0.0)
                } else {
                    (self.lead_speed + 1.0 * dt).min(0.0)
                };
            }
            self.lead_position += self.lead_speed * dt;
            let gap = self.lead_position - position;
            next.set(s.lead_distance, gap.max(0.0));
            next.set(s.lead_speed, self.lead_speed);
            if gap <= 0.0 || prev.bool_or(s.collision, false) {
                next.set(s.collision, true);
                if self.impact_tick.is_none() {
                    self.impact_tick = Some(t.tick);
                }
            }
        }
        if let Some(rear) = self.scene.rear {
            self.rear_position += rear.speed * dt;
            let gap = position - self.rear_position;
            next.set(s.rear_distance, gap.max(0.0));
            if gap <= 0.0 || prev.bool_or(s.rear_collision, false) {
                next.set(s.rear_collision, true);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signals::vehicle_table;
    use esafe_logic::{SignalId, SignalTable, Value};
    use esafe_sim::Simulator;
    use std::sync::Arc;

    /// Injects a constant acceleration command each tick.
    struct ConstCmd(SignalId, f64);
    impl LaneSubsystem for ConstCmd {
        fn name(&self) -> &str {
            "ConstCmd"
        }
        fn step_lane<R: SignalRead, W: SignalWrite>(
            &mut self,
            _t: &SimTime,
            _prev: &R,
            next: &mut W,
        ) {
            next.set(self.0, self.1);
        }
    }

    fn plant_sim(
        defects: DefectSet,
        scene: Scene,
        cmd: f64,
    ) -> (Simulator, Arc<SignalTable>, VehicleSigs) {
        let (table, sigs) = vehicle_table();
        let mut sim = Simulator::new(1, &table);
        sim.add(ConstCmd(sigs.accel_cmd, cmd));
        sim.add(HostDynamics::new(
            VehicleParams::default(),
            defects,
            scene,
            sigs,
        ));
        sim.init_with(|f| HostDynamics::seed(f, &sigs, &scene));
        (sim, table, sigs)
    }

    #[test]
    fn acceleration_command_integrates_into_speed() {
        let (mut sim, _table, sigs) = plant_sim(DefectSet::none(), Scene::default(), 1.0);
        for _ in 0..2000 {
            sim.step();
        }
        let speed = sim.state().real_or(sigs.host_speed, 0.0);
        // ~2 s at ~1 m/s² (minus lag spin-up) ≈ 1.9 m/s.
        assert!(speed > 1.7 && speed < 2.0, "speed {speed}");
        let accel = sim.state().real_or(sigs.host_accel, 0.0);
        assert!((accel - 1.0).abs() < 0.01);
    }

    #[test]
    fn braking_clamps_at_zero_without_defect() {
        let (mut sim, _table, sigs) = plant_sim(DefectSet::none(), Scene::default(), -2.0);
        let mut init = sim.state().clone();
        init.set(sigs.host_speed, Value::Real(1.0));
        sim.init_with(|f| f.copy_from(&init));
        for _ in 0..3000 {
            sim.step();
        }
        assert_eq!(sim.state().real_or(sigs.host_speed, -1.0), 0.0);
    }

    #[test]
    fn braking_goes_negative_with_defect() {
        let defects = DefectSet {
            no_reverse_inhibit: true,
            ..DefectSet::none()
        };
        let (mut sim, _table, sigs) = plant_sim(defects, Scene::default(), -2.0);
        let mut init = sim.state().clone();
        init.set(sigs.host_speed, Value::Real(1.0));
        sim.init_with(|f| f.copy_from(&init));
        for _ in 0..3000 {
            sim.step();
        }
        assert!(sim.state().real_or(sigs.host_speed, 0.0) < -0.5);
    }

    #[test]
    fn collision_latches_when_gap_closes() {
        let scene = Scene {
            lead: Some(SceneObject::constant(2.0, 0.0)),
            rear: None,
        };
        let (mut sim, _table, sigs) = plant_sim(DefectSet::none(), scene, 2.0);
        let mut collided_at = None;
        for _ in 0..5000 {
            sim.step();
            if sim.state().bool_or(sigs.collision, false) {
                collided_at = Some(sim.seconds());
                break;
            }
        }
        let t = collided_at.expect("must collide with the stopped object");
        // 2 m at 1 m/s² effective: t ≈ sqrt(2·2/2) + lag ≈ 1.4–1.8 s.
        assert!(t > 1.0 && t < 2.5, "collision at {t}");
        // Latched thereafter.
        sim.step();
        assert!(sim.state().bool_or(sigs.collision, false));
    }

    #[test]
    fn jerk_spikes_on_command_step() {
        let (mut sim, _table, sigs) = plant_sim(DefectSet::none(), Scene::default(), -8.0);
        let mut init = sim.state().clone();
        init.set(sigs.host_speed, Value::Real(10.0));
        sim.init_with(|f| f.copy_from(&init));
        sim.step();
        sim.step();
        let jerk = sim.state().real_or(sigs.host_jerk, 0.0);
        assert!(jerk < -20.0, "hard-brake step must spike jerk, got {jerk}");
    }
}
