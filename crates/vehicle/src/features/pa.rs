//! Park Assist (PA): finds a space and parks the vehicle on driver request
//! (thesis §5.2.1). Carries the scenario-1 defect of emitting acceleration
//! requests while disabled (Fig. 5.3).

use super::FeatureOutputs;
use crate::config::{DefectSet, VehicleParams};
use crate::signals::VehicleSigs;
use esafe_logic::{SignalRead, SignalWrite};
use esafe_sim::{LaneSubsystem, SimTime};
use std::sync::Arc;

/// The creep acceleration PA uses while maneuvering, m/s².
const PA_CREEP_ACCEL: f64 = 0.5;

/// The PA feature subsystem.
#[derive(Debug)]
pub struct ParkAssist {
    params: VehicleParams,
    defects: DefectSet,
    sigs: Arc<VehicleSigs>,
    out: FeatureOutputs,
    engaged: bool,
    authorized: bool,
    limiter: esafe_sim::RateLimiter,
}

impl ParkAssist {
    /// Creates the PA subsystem.
    pub fn new(
        params: VehicleParams,
        defects: DefectSet,
        sigs: impl Into<Arc<VehicleSigs>>,
    ) -> Self {
        let sigs: Arc<VehicleSigs> = sigs.into();
        ParkAssist {
            params,
            defects,
            out: FeatureOutputs::new(sigs.features[crate::signals::PA]),
            sigs,
            engaged: false,
            authorized: false,
            // A healthy request stream stays inside the jerk bound.
            limiter: esafe_sim::RateLimiter::new(params.jerk_limit * 0.9, 0.0),
        }
    }

    /// The thesis's Fig. 5.3 rogue request profile, reconstructed from the
    /// text: +2 m/s² from the start until 2.186 s, 0 until 9.33 s,
    /// −2 m/s² until 9.624 s, then 0.
    fn rogue_request(time_s: f64) -> f64 {
        if time_s < 2.186 {
            2.0
        } else if (9.33..9.624).contains(&time_s) {
            -2.0
        } else {
            0.0
        }
    }
}

impl LaneSubsystem for ParkAssist {
    fn name(&self) -> &str {
        "PA"
    }

    fn step_lane<R: SignalRead, W: SignalWrite>(&mut self, t: &SimTime, prev: &R, next: &mut W) {
        let s = &self.sigs;
        let enabled = prev.bool_or(self.out.sigs().hmi_enable, false);
        let engage_req = prev.bool_or(self.out.sigs().hmi_engage, false);
        let speed = prev.real_or(s.host_speed, 0.0);
        let pedal =
            prev.real_or(s.driver_throttle, 0.0) > 0.05 || prev.real_or(s.driver_brake, 0.0) > 0.05;

        self.engaged = enabled && engage_req;
        if !self.engaged {
            self.authorized = false;
        } else if prev.bool_or(s.hmi_go, false) {
            // A healthy PA moves from a stop only after an explicit HMI
            // go (goal 4). The thesis implementation skipped the
            // authorization — the same missing logic that let PA request
            // while disabled.
            self.authorized = true;
        }

        let mut active = false;
        #[allow(unused_assignments)]
        let mut accel = 0.0;
        let mut steer = 0.0;
        if self.engaged {
            // A healthy PA yields control while the driver works the
            // pedals (goal 5's feature subgoal); the thesis vehicle's
            // incomplete driver-override path kept features active
            // (Fig. 5.8), shared with the ACC/arbiter defect switch.
            active = !pedal || self.defects.acc_throttle_handoff_glitch;
            let may_creep = self.authorized || self.defects.pa_requests_while_disabled;
            // Parking maneuver: creep when (near) stopped, hold otherwise.
            if speed.abs() <= self.params.stopped_eps * 50.0 {
                accel = if may_creep { PA_CREEP_ACCEL } else { 0.0 };
                steer = if may_creep { 0.1 } else { 0.0 };
            } else if speed.abs() > 2.0 {
                // Too fast to park: request nothing (the scenario-2 state
                // where an engaged PA's request of 0 m/s² displaces CA's
                // braking through the arbitration defect).
                accel = 0.0;
            } else {
                accel = -0.5; // slow to creep speed
            }
            // Healthy request streams ramp inside the jerk bound; the
            // defective implementation steps its requests.
            if !self.defects.pa_requests_while_disabled {
                accel = self.limiter.step(accel, t.dt_seconds());
            } else {
                self.limiter.value = accel;
            }
        } else if self.defects.pa_requests_while_disabled {
            accel = Self::rogue_request(t.seconds());
            self.limiter.value = accel;
        } else {
            accel = self.limiter.step(0.0, t.dt_seconds());
        }

        self.out
            .publish(next, enabled, active, accel, steer, true, t.dt_seconds());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signals::{self as sig, vehicle_table};
    use esafe_logic::Frame;
    use esafe_sim::LaneSubsystem;

    fn tick_at(pa: &mut ParkAssist, prev: &Frame, tick: u64) -> Frame {
        let mut next = prev.clone();
        pa.step_lane(&SimTime { tick, dt_millis: 1 }, prev, &mut next);
        next
    }

    #[test]
    fn healthy_disabled_pa_is_silent() {
        let (table, sigs) = vehicle_table();
        let pa_sigs = sigs.features[sig::PA];
        let mut pa = ParkAssist::new(VehicleParams::default(), DefectSet::none(), sigs);
        let s = tick_at(&mut pa, &table.frame(), 100);
        assert!(!s.bool_or(pa_sigs.active, false));
        assert_eq!(s.real_or(pa_sigs.accel_request, 1.0), 0.0);
    }

    #[test]
    fn rogue_profile_matches_figure_5_3() {
        let (table, sigs) = vehicle_table();
        let pa_sigs = sigs.features[sig::PA];
        let defects = DefectSet {
            pa_requests_while_disabled: true,
            ..DefectSet::none()
        };
        let mut pa = ParkAssist::new(VehicleParams::default(), defects, sigs);
        let w = table.frame();
        // t = 1.0 s → +2; t = 5 s → 0; t = 9.5 s → −2; t = 10 s → 0.
        assert_eq!(
            tick_at(&mut pa, &w, 1000).real_or(pa_sigs.accel_request, 0.0),
            2.0
        );
        assert_eq!(
            tick_at(&mut pa, &w, 5000).real_or(pa_sigs.accel_request, 1.0),
            0.0
        );
        assert_eq!(
            tick_at(&mut pa, &w, 9500).real_or(pa_sigs.accel_request, 0.0),
            -2.0
        );
        assert_eq!(
            tick_at(&mut pa, &w, 10000).real_or(pa_sigs.accel_request, 1.0),
            0.0
        );
        // Never active while disabled.
        assert!(!tick_at(&mut pa, &w, 1000).bool_or(pa_sigs.active, false));
    }

    #[test]
    fn engaged_pa_creeps_from_stop_after_authorization() {
        let (table, sigs) = vehicle_table();
        let pa_sigs = sigs.features[sig::PA];
        let mut pa = ParkAssist::new(VehicleParams::default(), DefectSet::none(), sigs);
        let mut w = table.frame();
        w.set(pa_sigs.hmi_enable, true);
        w.set(pa_sigs.hmi_engage, true);
        w.set(sigs.host_speed, 0.0);
        // Without an HMI go, a healthy PA holds at rest (goal 4).
        let s = tick_at(&mut pa, &w, 10);
        assert!(s.bool_or(pa_sigs.active, false));
        assert_eq!(s.real_or(pa_sigs.accel_request, 1.0), 0.0);
        // After the go, it creeps — ramped inside the jerk bound.
        let mut authorized = w.clone();
        authorized.set(sigs.hmi_go, true);
        let mut s = tick_at(&mut pa, &authorized, 11);
        for tick in 12..500 {
            s = tick_at(&mut pa, &authorized, tick);
        }
        assert_eq!(s.real_or(pa_sigs.accel_request, 0.0), PA_CREEP_ACCEL);
        assert!(s.bool_or(pa_sigs.requests_steering, false));
    }

    #[test]
    fn engaged_pa_at_speed_requests_zero() {
        let (table, sigs) = vehicle_table();
        let pa_sigs = sigs.features[sig::PA];
        let mut pa = ParkAssist::new(VehicleParams::default(), DefectSet::none(), sigs);
        let mut w = table.frame();
        w.set(pa_sigs.hmi_enable, true);
        w.set(pa_sigs.hmi_engage, true);
        w.set(sigs.host_speed, 3.0);
        let s = tick_at(&mut pa, &w, 10);
        assert!(s.bool_or(pa_sigs.active, false));
        assert_eq!(s.real_or(pa_sigs.accel_request, 1.0), 0.0);
    }
}
