//! Rear Collision Avoidance (RCA): stops the vehicle before striking an
//! object while reversing (thesis §5.2.1). In the thesis's partial
//! implementation RCA never engaged at all (scenario 7, Fig. 5.12).

use super::FeatureOutputs;
use crate::config::{DefectSet, VehicleParams};
use crate::signals::VehicleSigs;
use esafe_logic::{SignalRead, SignalWrite};
use esafe_sim::{LaneSubsystem, SimTime};
use std::sync::Arc;

/// The RCA feature subsystem.
#[derive(Debug)]
pub struct RearCollisionAvoidance {
    params: VehicleParams,
    defects: DefectSet,
    sigs: Arc<VehicleSigs>,
    out: FeatureOutputs,
    engaged: bool,
}

impl RearCollisionAvoidance {
    /// Creates the RCA subsystem.
    pub fn new(
        params: VehicleParams,
        defects: DefectSet,
        sigs: impl Into<Arc<VehicleSigs>>,
    ) -> Self {
        let sigs: Arc<VehicleSigs> = sigs.into();
        RearCollisionAvoidance {
            params,
            defects,
            out: FeatureOutputs::new(sigs.features[crate::signals::RCA]),
            sigs,
            engaged: false,
        }
    }
}

impl LaneSubsystem for RearCollisionAvoidance {
    fn name(&self) -> &str {
        "RCA"
    }

    fn step_lane<R: SignalRead, W: SignalWrite>(&mut self, t: &SimTime, prev: &R, next: &mut W) {
        let s = &self.sigs;
        let enabled = prev.bool_or(self.out.sigs().hmi_enable, false);
        let speed = prev.real_or(s.host_speed, 0.0);
        let rear_gap = prev.real_or(s.rear_distance, 1e9);
        let in_reverse_gear = prev.get(s.gear) == Some(s.sym_r);

        if !enabled || self.defects.rca_never_engages {
            // The thesis implementation never engages: publish the enable
            // state but take no action, ever (Fig. 5.12).
            self.engaged = false;
            self.out
                .publish(next, enabled, false, 0.0, 0.0, false, t.dt_seconds());
            return;
        }

        // Healthy behaviour: hard-stop when reversing into the envelope.
        let reversing = in_reverse_gear && speed < -0.1;
        if reversing {
            let closing = -speed;
            let stopping = closing * closing / (2.0 * self.params.ca_brake_accel.abs());
            if rear_gap <= stopping + self.params.ca_margin_m {
                self.engaged = true;
            }
        }
        if self.engaged && speed.abs() <= self.params.stopped_eps {
            // At rest: release; the plant's gear clamp holds the car, and
            // a fresh reverse attempt re-engages the envelope check.
            self.engaged = false;
        }
        let active = self.engaged;
        let request = if self.engaged {
            // Stop reverse motion (positive, world frame), tapering with
            // speed but never below the driver-override threshold: the
            // entire stop counts as a hard stop (goal 9's exemption).
            (-speed * 8.0).clamp(2.6, self.params.ca_brake_accel.abs())
        } else {
            0.0
        };
        self.out
            .publish(next, enabled, active, request, 0.0, false, t.dt_seconds());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signals::{self as sig, vehicle_table};
    use esafe_logic::{Frame, SignalTable, Value};
    use esafe_sim::LaneSubsystem;
    use std::sync::Arc;

    fn reversing_world(table: &Arc<SignalTable>, sigs: &VehicleSigs, gap: f64) -> Frame {
        let mut f = table.frame();
        f.set(sigs.features[sig::RCA].hmi_enable, true);
        f.set(sigs.host_speed, -2.0);
        f.set(sigs.rear_distance, gap);
        f.set(sigs.gear, sigs.sym_r);
        f
    }

    fn tick(rca: &mut RearCollisionAvoidance, prev: &Frame) -> Frame {
        let mut next = prev.clone();
        rca.step_lane(
            &SimTime {
                tick: 1,
                dt_millis: 1,
            },
            prev,
            &mut next,
        );
        next
    }

    #[test]
    fn thesis_defect_never_engages() {
        let (table, sigs) = vehicle_table();
        let rca_sigs = sigs.features[sig::RCA];
        let defects = DefectSet {
            rca_never_engages: true,
            ..DefectSet::none()
        };
        let mut rca = RearCollisionAvoidance::new(VehicleParams::default(), defects, sigs);
        let s = tick(&mut rca, &reversing_world(&table, &sigs, 0.2));
        assert!(!s.bool_or(rca_sigs.active, false));
        assert_eq!(s.real_or(rca_sigs.accel_request, 1.0), 0.0);
        assert!(
            s.bool_or(rca_sigs.enabled, false),
            "enable state is still published"
        );
    }

    #[test]
    fn healthy_rca_stops_reverse_motion() {
        let (table, sigs) = vehicle_table();
        let rca_sigs = sigs.features[sig::RCA];
        let mut rca =
            RearCollisionAvoidance::new(VehicleParams::default(), DefectSet::none(), sigs);
        // v = −2: stopping = 4/16 = 0.25 m; margin 1.2 → engage below ~1.45.
        let s = tick(&mut rca, &reversing_world(&table, &sigs, 3.0));
        assert!(!s.bool_or(rca_sigs.active, false));
        let s = tick(&mut rca, &reversing_world(&table, &sigs, 1.0));
        assert!(s.bool_or(rca_sigs.active, false));
        assert!(
            s.real_or(rca_sigs.accel_request, 0.0) > 0.0,
            "positive accel stops reverse"
        );
    }

    #[test]
    fn ignores_forward_motion() {
        let (table, sigs) = vehicle_table();
        let rca_sigs = sigs.features[sig::RCA];
        let mut rca =
            RearCollisionAvoidance::new(VehicleParams::default(), DefectSet::none(), sigs);
        let mut w = reversing_world(&table, &sigs, 0.5);
        w.set(sigs.host_speed, Value::Real(2.0));
        w.set(sigs.gear, sigs.sym_d);
        let s = tick(&mut rca, &w);
        assert!(!s.bool_or(rca_sigs.active, false));
    }
}
