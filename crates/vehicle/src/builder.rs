//! Assembles the complete vehicle simulation.

use crate::arbiter::Arbiter;
use crate::config::{DefectSet, VehicleParams};
use crate::driver::{DriverAction, ScriptedDriver};
use crate::dynamics::{HostDynamics, Scene};
use crate::features::{
    AdaptiveCruiseControl, CollisionAvoidance, FeatureOutputs, LaneChangeAssist, ParkAssist,
    RearCollisionAvoidance,
};
use crate::signals::VehicleSigs;
use esafe_logic::SignalTable;
use esafe_sim::{LaneVec, SimulatorBatch};
use std::sync::Arc;

/// One lane's configuration for [`build_vehicle_batch`]: a cell's
/// inputs, minus the shared table/sigs.
#[derive(Debug, Clone)]
pub struct VehicleLaneConfig {
    /// Physical and control constants.
    pub params: VehicleParams,
    /// The injected defect configuration.
    pub defects: DefectSet,
    /// Scene objects around the host.
    pub scene: Scene,
    /// Scheduled driver/HMI actions.
    pub script: Vec<(f64, DriverAction)>,
}

/// Builds a vehicle simulator at 1 kHz stepping every lane of `lanes`
/// together over the shared signal table: driver, the five feature
/// subsystems, the arbiter, and the plant, each as a [`LaneVec`] over
/// per-lane instances, with every lane's initial frame fully seeded.
/// Every subsystem carries a copy of the resolved [`VehicleSigs`], so
/// its per-tick reads and writes are dense slot accesses. A single run
/// is the one-lane case; lane `l` steps bit-identically to a one-lane
/// build of `lanes[l]` (pinned by this module's tests and the
/// workspace's sweep golden tests) because every lane runs the same
/// `step_lane` bodies.
///
/// # Example
///
/// ```
/// use esafe_vehicle::builder::{build_vehicle_batch, VehicleLaneConfig};
/// use esafe_vehicle::config::{DefectSet, VehicleParams};
/// use esafe_vehicle::dynamics::Scene;
/// use esafe_vehicle::signals::vehicle_table;
///
/// let (table, sigs) = vehicle_table();
/// let lane = VehicleLaneConfig {
///     params: VehicleParams::default(),
///     defects: DefectSet::none(),
///     scene: Scene::default(),
///     script: vec![],
/// };
/// let mut sim = build_vehicle_batch(&[lane], &table, &sigs);
/// sim.step();
/// assert!(sim.state().get(sigs.accel_cmd, 0).is_some());
/// ```
///
/// # Panics
///
/// Panics if `lanes` is empty.
pub fn build_vehicle_batch(
    lanes: &[VehicleLaneConfig],
    table: &Arc<SignalTable>,
    sigs: &VehicleSigs,
) -> SimulatorBatch {
    assert!(!lanes.is_empty(), "a vehicle batch needs at least one lane");
    let mut sim = SimulatorBatch::new(1, table, lanes.len());
    let n = lanes.len();
    sim.add(LaneVec::from_fn(n, |l| {
        ScriptedDriver::new(lanes[l].params, *sigs, lanes[l].script.clone())
    }));
    sim.add(LaneVec::from_fn(n, |l| {
        CollisionAvoidance::new(lanes[l].params, lanes[l].defects, *sigs)
    }));
    sim.add(LaneVec::from_fn(n, |l| {
        RearCollisionAvoidance::new(lanes[l].params, lanes[l].defects, *sigs)
    }));
    sim.add(LaneVec::from_fn(n, |l| {
        ParkAssist::new(lanes[l].params, lanes[l].defects, *sigs)
    }));
    sim.add(LaneVec::from_fn(n, |l| {
        LaneChangeAssist::new(lanes[l].params, lanes[l].defects, *sigs)
    }));
    sim.add(LaneVec::from_fn(n, |l| {
        AdaptiveCruiseControl::new(lanes[l].params, lanes[l].defects, *sigs)
    }));
    sim.add(LaneVec::from_fn(n, |l| {
        Arbiter::new(lanes[l].params, lanes[l].defects, *sigs)
    }));
    sim.add(LaneVec::from_fn(n, |l| {
        HostDynamics::new(lanes[l].params, lanes[l].defects, lanes[l].scene, *sigs)
    }));

    for (l, cfg) in lanes.iter().enumerate() {
        sim.init_lane_with(l, |frame| {
            HostDynamics::seed(frame, sigs, &cfg.scene);
            ScriptedDriver::seed(frame, sigs);
            Arbiter::seed(frame, sigs);
            for f in &sigs.features {
                FeatureOutputs::seed(frame, f);
            }
        });
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signals::vehicle_table;
    use esafe_sim::Simulator;

    /// One run alone: a one-lane build.
    fn build(
        defects: DefectSet,
        scene: Scene,
        script: Vec<(f64, DriverAction)>,
    ) -> (Simulator, VehicleSigs) {
        let (table, sigs) = vehicle_table();
        let lane = VehicleLaneConfig {
            params: VehicleParams::default(),
            defects,
            scene,
            script,
        };
        (
            Simulator::from_batch(build_vehicle_batch(&[lane], &table, &sigs)),
            sigs,
        )
    }
    #[test]
    fn batched_vehicle_matches_scalar_lanes_bit_for_bit() {
        let (table, sigs) = vehicle_table();
        let configs = vec![
            VehicleLaneConfig {
                params: VehicleParams::default(),
                defects: DefectSet::none(),
                scene: Scene::default(),
                script: vec![(0.5, DriverAction::Throttle(0.3))],
            },
            VehicleLaneConfig {
                params: VehicleParams::default(),
                defects: DefectSet::thesis(),
                scene: Scene {
                    lead: Some(crate::dynamics::SceneObject::constant(20.0, 0.0)),
                    rear: None,
                },
                script: vec![
                    (0.5, DriverAction::Enable("CA".into(), true)),
                    (1.0, DriverAction::Throttle(0.10)),
                ],
            },
        ];
        let mut batch = build_vehicle_batch(&configs, &table, &sigs);
        let mut alone: Vec<Simulator> = configs
            .iter()
            .map(|c| {
                Simulator::from_batch(build_vehicle_batch(std::slice::from_ref(c), &table, &sigs))
            })
            .collect();
        let mut frame = table.frame();
        for tick in 0..2000u64 {
            batch.step();
            for (l, sim) in alone.iter_mut().enumerate() {
                sim.step();
                batch.state().read_lane_into(l, &mut frame);
                assert_eq!(&frame, sim.state(), "lane {l} diverged at tick {tick}");
            }
        }
    }

    #[test]
    fn healthy_vehicle_idles_at_rest() {
        let (mut sim, sigs) = build(DefectSet::none(), Scene::default(), vec![]);
        for _ in 0..1000 {
            sim.step();
        }
        assert_eq!(sim.state().real_or(sigs.host_speed, 1.0), 0.0);
        assert_eq!(sim.state().get(sigs.accel_source), Some(sigs.sym_driver));
    }

    #[test]
    fn driver_throttle_moves_the_vehicle() {
        let (mut sim, sigs) = build(
            DefectSet::none(),
            Scene::default(),
            vec![(0.5, DriverAction::Throttle(0.3))],
        );
        for _ in 0..3000 {
            sim.step();
        }
        assert!(sim.state().real_or(sigs.host_speed, 0.0) > 1.0);
    }

    #[test]
    fn healthy_ca_stops_before_parked_vehicle() {
        let scene = Scene {
            lead: Some(crate::dynamics::SceneObject::constant(20.0, 0.0)),
            rear: None,
        };
        let (mut sim, sigs) = build(
            DefectSet::none(),
            scene,
            vec![
                (0.5, DriverAction::Enable("CA".into(), true)),
                (1.0, DriverAction::Throttle(0.10)),
            ],
        );
        let mut collided = false;
        for _ in 0..20_000 {
            sim.step();
            if sim.state().bool_or(sigs.collision, false) {
                collided = true;
                break;
            }
        }
        assert!(!collided, "a healthy CA must prevent the collision");
        // The driver keeps the throttle applied, so the vehicle cycles
        // between CA stops and driver creep — but never makes contact.
        let gap = sim.state().real_or(sigs.lead_distance, 0.0);
        assert!(gap > 0.0 && gap < 21.0, "held short of the obstacle: {gap}");
    }

    #[test]
    fn defective_ca_strikes_the_parked_vehicle() {
        let scene = Scene {
            lead: Some(crate::dynamics::SceneObject::constant(20.0, 0.0)),
            rear: None,
        };
        let (mut sim, sigs) = build(
            DefectSet::thesis(),
            scene,
            vec![
                (0.5, DriverAction::Enable("CA".into(), true)),
                (1.0, DriverAction::Throttle(0.10)),
            ],
        );
        let mut collided_at = None;
        for _ in 0..20_000 {
            sim.step();
            if sim.state().bool_or(sigs.collision, false) {
                collided_at = Some(sim.seconds());
                break;
            }
        }
        let t = collided_at.expect("the thesis vehicle strikes the object");
        // The thesis's scenario-1 run terminated at ≈12.7 s.
        assert!(t > 10.0 && t < 15.0, "collision at {t}");
    }
}
