//! Collision Avoidance (CA): detects objects in the forward path and stops
//! the vehicle before a collision occurs (thesis §5.2.1).

use super::FeatureOutputs;
use crate::config::{DefectSet, VehicleParams};
use crate::signals::VehicleSigs;
use esafe_logic::{SignalRead, SignalWrite};
use esafe_sim::{LaneSubsystem, SimTime};
use std::sync::Arc;

/// The CA feature subsystem.
///
/// Engages a hard braking action when the kinematic stopping distance
/// (plus margin) reaches the measured gap; holds the brake until the
/// vehicle is stopped.
///
/// With [`DefectSet::ca_intermittent_braking`] the braking action is
/// cancelled briefly on a cycle and released entirely at the stop — the
/// behavior of thesis Figures 5.2 and 5.5 that lets the host strike the
/// parked vehicle in scenarios 1–3.
#[derive(Debug)]
pub struct CollisionAvoidance {
    params: VehicleParams,
    defects: DefectSet,
    sigs: Arc<VehicleSigs>,
    out: FeatureOutputs,
    engaged: bool,
    engaged_ticks: u64,
}

impl CollisionAvoidance {
    /// Creates the CA subsystem.
    pub fn new(
        params: VehicleParams,
        defects: DefectSet,
        sigs: impl Into<Arc<VehicleSigs>>,
    ) -> Self {
        let sigs: Arc<VehicleSigs> = sigs.into();
        CollisionAvoidance {
            params,
            defects,
            out: FeatureOutputs::new(sigs.features[crate::signals::CA]),
            sigs,
            engaged: false,
            engaged_ticks: 0,
        }
    }

    fn last_request(&self) -> f64 {
        self.out.last_request()
    }

    fn should_engage(&self, speed: f64, gap: f64, lead_speed: f64) -> bool {
        if speed <= 0.1 {
            return false;
        }
        let closing = speed - lead_speed;
        if closing <= 0.0 {
            return false;
        }
        let stopping = closing * closing / (2.0 * self.params.ca_brake_accel.abs());
        // The defective implementation also engages late — at the raw
        // kinematic stopping distance with no safety margin — so any loss
        // of braking authority (the intermittent cancels, actuator lag)
        // ends in contact (thesis Fig. 5.5).
        let margin = if self.defects.ca_intermittent_braking {
            0.0
        } else {
            self.params.ca_margin_m
        };
        gap <= stopping + margin
    }
}

impl LaneSubsystem for CollisionAvoidance {
    fn name(&self) -> &str {
        "CA"
    }

    fn step_lane<R: SignalRead, W: SignalWrite>(&mut self, t: &SimTime, prev: &R, next: &mut W) {
        let s = &self.sigs;
        let enabled = prev.bool_or(self.out.sigs().hmi_enable, false);
        let speed = prev.real_or(s.host_speed, 0.0);
        let gap = prev.real_or(s.lead_distance, 1e9);
        let lead_speed = prev.real_or(s.lead_speed, 0.0);

        if !enabled {
            self.engaged = false;
            self.engaged_ticks = 0;
            self.out
                .publish(next, false, false, 0.0, 0.0, false, t.dt_seconds());
            return;
        }

        let throttle = prev.real_or(s.driver_throttle, 0.0) > 0.05;

        if !self.engaged && self.should_engage(speed, gap, lead_speed) {
            self.engaged = true;
            self.engaged_ticks = 0;
        }
        if self.engaged && speed <= self.params.stopped_eps {
            if self.defects.ca_intermittent_braking {
                // Defective release at the stop instead of holding the
                // vehicle until the driver re-initiates motion.
                self.engaged = false;
            } else if throttle {
                // Correct behaviour: hold the vehicle at rest until the
                // driver re-initiates motion with the throttle pedal, then
                // yield (goal 5's feature-level subgoal).
                self.engaged = false;
            }
        }

        let mut active = self.engaged;
        let mut request = if self.engaged {
            if speed <= self.params.stopped_eps {
                -1.0 // hold at rest
            } else {
                self.params.ca_brake_accel
            }
        } else if !self.defects.ca_intermittent_braking && self.last_request() < 0.0 {
            // Healthy release: ramp the request back to zero within the
            // jerk-request bound instead of stepping it (the thesis notes
            // a step release violates subgoal 2B for a single state —
            // §5.4.1's "too restrictive to be implemented practically").
            (self.last_request() + self.params.jerk_limit * 0.9 * t.dt_seconds()).min(0.0)
        } else {
            0.0
        };

        if self.engaged && self.defects.ca_intermittent_braking {
            // Cancel the braking action briefly on a cycle (Fig. 5.2):
            // ~56 ms braking, 4 ms released.
            let phase = self.engaged_ticks % 60;
            if phase >= 56 {
                active = false;
                request = 0.0;
            }
        }
        if self.engaged {
            self.engaged_ticks += 1;
        }

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

    fn ctx() -> (Arc<SignalTable>, VehicleSigs) {
        vehicle_table()
    }

    fn world(
        table: &Arc<SignalTable>,
        sigs: &VehicleSigs,
        speed: f64,
        gap: f64,
        enabled: bool,
    ) -> Frame {
        let mut f = table.frame();
        f.set(sigs.features[sig::CA].hmi_enable, enabled);
        f.set(sigs.host_speed, speed);
        f.set(sigs.lead_distance, gap);
        f.set(sigs.lead_speed, 0.0);
        f
    }

    fn tick(ca: &mut CollisionAvoidance, prev: &Frame) -> Frame {
        let mut next = prev.clone();
        let t = SimTime {
            tick: 1,
            dt_millis: 1,
        };
        ca.step_lane(&t, prev, &mut next);
        next
    }

    #[test]
    fn engages_inside_stopping_envelope() {
        let (table, sigs) = ctx();
        let ca_sigs = sigs.features[sig::CA];
        let mut ca = CollisionAvoidance::new(VehicleParams::default(), DefectSet::none(), sigs);
        // v=4: stopping = 16/16 = 1 m; margin 1.2 → engages below 2.2 m.
        let s = tick(&mut ca, &world(&table, &sigs, 4.0, 5.0, true));
        assert!(!s.bool_or(ca_sigs.active, false));
        let s = tick(&mut ca, &world(&table, &sigs, 4.0, 2.0, true));
        assert!(s.bool_or(ca_sigs.active, false));
        assert_eq!(s.real_or(ca_sigs.accel_request, 0.0), -8.0);
    }

    #[test]
    fn disabled_ca_stays_quiet() {
        let (table, sigs) = ctx();
        let ca_sigs = sigs.features[sig::CA];
        let mut ca = CollisionAvoidance::new(VehicleParams::default(), DefectSet::none(), sigs);
        let s = tick(&mut ca, &world(&table, &sigs, 4.0, 0.5, false));
        assert!(!s.bool_or(ca_sigs.active, false));
        assert_eq!(s.real_or(ca_sigs.accel_request, 1.0), 0.0);
    }

    #[test]
    fn correct_ca_holds_at_stop() {
        let (table, sigs) = ctx();
        let ca_sigs = sigs.features[sig::CA];
        let mut ca = CollisionAvoidance::new(VehicleParams::default(), DefectSet::none(), sigs);
        let _ = tick(&mut ca, &world(&table, &sigs, 4.0, 1.5, true));
        let s = tick(&mut ca, &world(&table, &sigs, 0.0, 1.5, true));
        assert!(
            s.bool_or(ca_sigs.active, false),
            "must hold the vehicle at rest"
        );
        assert_eq!(s.real_or(ca_sigs.accel_request, 0.0), -1.0);
    }

    #[test]
    fn defective_ca_releases_at_stop() {
        let (table, sigs) = ctx();
        let ca_sigs = sigs.features[sig::CA];
        let defects = DefectSet {
            ca_intermittent_braking: true,
            ..DefectSet::none()
        };
        let mut ca = CollisionAvoidance::new(VehicleParams::default(), defects, sigs);
        let _ = tick(&mut ca, &world(&table, &sigs, 4.0, 1.5, true));
        let s = tick(&mut ca, &world(&table, &sigs, 0.0, 1.5, true));
        assert!(!s.bool_or(ca_sigs.active, false));
    }

    #[test]
    fn defective_ca_cancels_braking_on_cycle() {
        let (table, sigs) = ctx();
        let ca_sigs = sigs.features[sig::CA];
        let defects = DefectSet {
            ca_intermittent_braking: true,
            ..DefectSet::none()
        };
        let mut ca = CollisionAvoidance::new(VehicleParams::default(), defects, sigs);
        let mut dropped = 0;
        let mut braking = 0;
        // Defective engagement has no margin: engage inside v²/2a = 1 m.
        let w = world(&table, &sigs, 4.0, 0.9, true);
        for _ in 0..120 {
            let s = tick(&mut ca, &w);
            if s.bool_or(ca_sigs.active, false) {
                braking += 1;
            } else {
                dropped += 1;
            }
        }
        assert_eq!(dropped, 8, "two 4-tick drops per 120 ticks");
        assert_eq!(braking, 112);
    }

    #[test]
    fn no_engagement_when_opening_gap() {
        let (table, sigs) = ctx();
        let ca_sigs = sigs.features[sig::CA];
        let mut ca = CollisionAvoidance::new(VehicleParams::default(), DefectSet::none(), sigs);
        let mut w = world(&table, &sigs, 4.0, 1.0, true);
        w.set(sigs.lead_speed, Value::Real(6.0)); // lead pulling away
        let s = tick(&mut ca, &w);
        assert!(!s.bool_or(ca_sigs.active, false));
    }
}
