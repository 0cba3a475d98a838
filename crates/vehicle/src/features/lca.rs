//! Lane Change Assist (LCA): performs a driver-requested lane change,
//! working in conjunction with ACC for longitudinal control (thesis
//! §5.2.1, §5.3.2: "ACC performs the longitudinal control for LCA; thus
//! ACC and LCA share acceleration requests").

use super::FeatureOutputs;
use crate::config::{DefectSet, VehicleParams};
use crate::signals::VehicleSigs;
use esafe_logic::{SignalRead, SignalWrite};
use esafe_sim::{LaneSubsystem, SimTime};

/// Ticks after engage before LCA requests control (thesis Fig. 5.10:
/// control gained at 5.001 s after a 5.0 s enable — one 1 ms state).
const ACTIVATION_DELAY_TICKS: u64 = 1;
/// Ticks after activation before the steering profile begins (Fig. 5.10:
/// first steering request at 5.051 s).
const STEER_START_TICKS: u64 = 50;
/// Length of each half of the lane-change steering profile, ticks.
const STEER_HALF_TICKS: u64 = 1500;

/// The LCA feature subsystem.
#[derive(Debug)]
pub struct LaneChangeAssist {
    #[allow(dead_code)]
    params: VehicleParams,
    defects: DefectSet,
    sigs: VehicleSigs,
    out: FeatureOutputs,
    engaged: bool,
    ticks_since_engage: u64,
}

impl LaneChangeAssist {
    /// Creates the LCA subsystem.
    pub fn new(params: VehicleParams, defects: DefectSet, sigs: VehicleSigs) -> Self {
        LaneChangeAssist {
            params,
            defects,
            sigs,
            out: FeatureOutputs::new(sigs.features[crate::signals::LCA]),
            engaged: false,
            ticks_since_engage: 0,
        }
    }

    fn steering_profile(&self, ticks: u64) -> f64 {
        if ticks < STEER_START_TICKS {
            return 0.0;
        }
        let t = ticks - STEER_START_TICKS;
        if t < STEER_HALF_TICKS {
            0.04
        } else if t < 2 * STEER_HALF_TICKS {
            -0.04
        } else {
            0.0
        }
    }
}

impl LaneSubsystem for LaneChangeAssist {
    fn name(&self) -> &str {
        "LCA"
    }

    fn step_lane<R: SignalRead, W: SignalWrite>(&mut self, t: &SimTime, prev: &R, next: &mut W) {
        let s = &self.sigs;
        let enabled = prev.bool_or(self.out.sigs().hmi_enable, false);
        let engage_req = prev.bool_or(self.out.sigs().hmi_engage, false);
        let acc_engaged_signal = prev.bool_or(s.features[crate::signals::ACC].hmi_engage, false);

        // LCA requires ACC to be engaged (it borrows ACC's longitudinal
        // control). The reverse-motion inhibit is the healthy behaviour
        // scenario 6 shows missing.
        let speed = prev.real_or(s.host_speed, 0.0);
        let reverse_ok = self.defects.no_reverse_inhibit || speed >= 0.0;

        if enabled && engage_req && acc_engaged_signal && reverse_ok {
            if !self.engaged {
                self.engaged = true;
                self.ticks_since_engage = 0;
            }
        } else {
            self.engaged = false;
        }

        let mut active = false;
        let mut accel = 0.0;
        let mut steer = 0.0;
        if self.engaged {
            self.ticks_since_engage += 1;
            active = self.ticks_since_engage >= ACTIVATION_DELAY_TICKS;
            // Shared longitudinal channel: mirror ACC's request.
            accel = prev.real_or(s.features[crate::signals::ACC].accel_request, 0.0);
            steer = self.steering_profile(self.ticks_since_engage);
        }

        self.out
            .publish(next, enabled, active, accel, steer, true, t.dt_seconds());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signals::{self as sig, vehicle_table};
    use esafe_logic::{Frame, SignalTable, Value};
    use esafe_sim::LaneSubsystem;
    use std::sync::Arc;

    fn world(table: &Arc<SignalTable>, sigs: &VehicleSigs, acc_request: f64) -> Frame {
        let mut f = table.frame();
        f.set(sigs.features[sig::LCA].hmi_enable, true);
        f.set(sigs.features[sig::LCA].hmi_engage, true);
        f.set(sigs.features[sig::ACC].hmi_engage, true);
        f.set(sigs.host_speed, 10.0);
        f.set(sigs.features[sig::ACC].accel_request, acc_request);
        f
    }

    fn run(lca: &mut LaneChangeAssist, prev: &Frame, n: u64) -> Frame {
        let mut s = prev.clone();
        let t = SimTime {
            tick: 1,
            dt_millis: 1,
        };
        for _ in 0..n {
            let snapshot = s.clone();
            lca.step_lane(&t, &snapshot, &mut s);
        }
        s
    }

    #[test]
    fn activates_one_tick_after_engage() {
        let (table, sigs) = vehicle_table();
        let lca_sigs = sigs.features[sig::LCA];
        let mut lca = LaneChangeAssist::new(VehicleParams::default(), DefectSet::none(), sigs);
        let s = run(&mut lca, &world(&table, &sigs, 0.5), 2);
        assert!(s.bool_or(lca_sigs.active, false));
        assert!(s.bool_or(lca_sigs.requests_steering, false));
    }

    #[test]
    fn mirrors_acc_longitudinal_request() {
        let (table, sigs) = vehicle_table();
        let lca_sigs = sigs.features[sig::LCA];
        let mut lca = LaneChangeAssist::new(VehicleParams::default(), DefectSet::none(), sigs);
        let s = run(&mut lca, &world(&table, &sigs, 0.7), 5);
        assert_eq!(s.real_or(lca_sigs.accel_request, 0.0), 0.7);
    }

    #[test]
    fn steering_profile_starts_at_50_ms() {
        let (table, sigs) = vehicle_table();
        let lca_sigs = sigs.features[sig::LCA];
        let mut lca = LaneChangeAssist::new(VehicleParams::default(), DefectSet::none(), sigs);
        let s = run(&mut lca, &world(&table, &sigs, 0.0), 45);
        assert_eq!(s.real_or(lca_sigs.steering_request, 1.0), 0.0);
        let s = run(&mut lca, &world(&table, &sigs, 0.0), 10);
        assert!(s.real_or(lca_sigs.steering_request, 0.0) > 0.0);
    }

    #[test]
    fn requires_acc_engaged() {
        let (table, sigs) = vehicle_table();
        let lca_sigs = sigs.features[sig::LCA];
        let mut lca = LaneChangeAssist::new(VehicleParams::default(), DefectSet::none(), sigs);
        let mut w = world(&table, &sigs, 0.0);
        w.set(sigs.features[sig::ACC].hmi_engage, false);
        let s = run(&mut lca, &w, 10);
        assert!(!s.bool_or(lca_sigs.active, false));
    }

    #[test]
    fn healthy_lca_disengages_in_reverse_motion() {
        let (table, sigs) = vehicle_table();
        let lca_sigs = sigs.features[sig::LCA];
        let mut lca = LaneChangeAssist::new(VehicleParams::default(), DefectSet::none(), sigs);
        let mut w = world(&table, &sigs, 0.0);
        w.set(sigs.host_speed, Value::Real(-0.5));
        let s = run(&mut lca, &w, 10);
        assert!(!s.bool_or(lca_sigs.active, false));

        let defects = DefectSet {
            no_reverse_inhibit: true,
            ..DefectSet::none()
        };
        let mut lca2 = LaneChangeAssist::new(VehicleParams::default(), defects, sigs);
        let s = run(&mut lca2, &w, 10);
        assert!(
            s.bool_or(lca_sigs.active, false),
            "defect keeps LCA active in reverse"
        );
    }
}
