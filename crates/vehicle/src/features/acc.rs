//! Adaptive Cruise Control (ACC): tracks a driver-set speed, or a safe
//! following speed behind a slower lead vehicle (thesis §5.2.1).

use super::FeatureOutputs;
use crate::config::{DefectSet, VehicleParams};
use crate::signals::VehicleSigs;
use esafe_logic::{SignalRead, SignalWrite};
use esafe_sim::{LaneSubsystem, SimTime};
use std::sync::Arc;

/// Ticks after an engage before a healthy ACC starts requesting control.
const ACTIVATION_DELAY_TICKS: u64 = 50;
/// The defective post-throttle-release handoff delay (thesis Fig. 5.9:
/// control gained 0.101 s after the pedal is released).
const DEFECT_HANDOFF_TICKS: u64 = 101;
/// How long the defective ACC clings to control under an applied throttle
/// before losing it (thesis Fig. 5.8).
const DEFECT_GLITCH_TICKS: u64 = 50;

/// The ACC feature subsystem, carrying four of the thesis's defects (see
/// [`DefectSet`]).
#[derive(Debug)]
pub struct AdaptiveCruiseControl {
    params: VehicleParams,
    defects: DefectSet,
    sigs: Arc<VehicleSigs>,
    out: FeatureOutputs,
    engaged: bool,
    engage_refused: bool,
    go_authorized: bool,
    was_active: bool,
    limiter: esafe_sim::RateLimiter,
    ticks_since_engage: u64,
    ticks_since_throttle_release: u64,
}

impl AdaptiveCruiseControl {
    /// Creates the ACC subsystem.
    pub fn new(
        params: VehicleParams,
        defects: DefectSet,
        sigs: impl Into<Arc<VehicleSigs>>,
    ) -> Self {
        let sigs: Arc<VehicleSigs> = sigs.into();
        AdaptiveCruiseControl {
            params,
            defects,
            out: FeatureOutputs::new(sigs.features[crate::signals::ACC]),
            sigs,
            engaged: false,
            engage_refused: false,
            go_authorized: false,
            was_active: false,
            limiter: esafe_sim::RateLimiter::new(params.jerk_limit * 0.9, 0.0),
            ticks_since_engage: u64::MAX,
            ticks_since_throttle_release: u64::MAX,
        }
    }

    /// Whether any of the ACC-related defect switches is active (the
    /// thesis implementation stepped its request stream; a healthy ACC
    /// ramps it inside the jerk bound and blends in at takeover).
    fn defective(&self) -> bool {
        self.defects.acc_requests_while_disengaged
            || self.defects.acc_throttle_handoff_glitch
            || self.defects.acc_engage_handoff_delay
            || self.defects.acc_ghost_accel_from_stop
            || self.defects.acc_engages_in_reverse
    }

    /// Speed-tracking control law: proportional control toward the target,
    /// reduced toward the lead vehicle's speed inside the desired headway.
    fn control(&self, speed: f64, set_speed: f64, gap: f64, lead_speed: f64) -> f64 {
        let desired_gap = 2.0 * speed.abs().max(2.0); // ~2 s headway, min 4 m
        let target = if gap < desired_gap * 2.0 {
            let follow = lead_speed + 0.3 * (gap - desired_gap);
            follow.min(set_speed)
        } else {
            set_speed
        };
        (self.params.acc_gain * (target - speed))
            .clamp(self.params.acc_min_accel, self.params.acc_max_accel)
    }
}

impl LaneSubsystem for AdaptiveCruiseControl {
    fn name(&self) -> &str {
        "ACC"
    }

    fn step_lane<R: SignalRead, W: SignalWrite>(&mut self, t: &SimTime, prev: &R, next: &mut W) {
        let s = &self.sigs;
        let enabled = prev.bool_or(self.out.sigs().hmi_enable, false);
        let engage_req = prev.bool_or(self.out.sigs().hmi_engage, false);
        let set_speed = prev.real_or(s.acc_set_speed, 0.0);
        let speed = prev.real_or(s.host_speed, 0.0);
        let gap = prev.real_or(s.lead_distance, 1e9);
        let lead_speed = prev.real_or(s.lead_speed, 0.0);
        let in_reverse_gear = prev.get(s.gear) == Some(s.sym_r);
        let throttle = prev.real_or(s.driver_throttle, 0.0) > 0.05;
        let stopped = speed.abs() <= self.params.stopped_eps;

        // Engagement state machine. A refused engage latches until the
        // driver releases the engage request: the thesis's scenario 10
        // shows ACC *never* becoming active after the failed attempt.
        if !enabled || !engage_req {
            self.engaged = false;
            self.engage_refused = false;
            self.go_authorized = false;
            self.ticks_since_engage = u64::MAX;
        } else if !self.engaged && !self.engage_refused {
            let reverse_block = in_reverse_gear && !self.defects.acc_engages_in_reverse;
            let ghost_block = stopped && self.defects.acc_ghost_accel_from_stop;
            if ghost_block {
                self.engage_refused = true;
            } else if !reverse_block {
                self.engaged = true;
                // Engaging at speed is implicitly authorized; from a
                // standstill the driver must confirm (goal 4).
                self.go_authorized = !stopped;
                self.ticks_since_engage = 0;
            }
        }
        if self.engaged && (prev.bool_or(s.hmi_go, false) || throttle || !stopped) {
            self.go_authorized = true;
        }
        if self.engaged && self.ticks_since_engage < u64::MAX {
            self.ticks_since_engage = self.ticks_since_engage.saturating_add(1);
        }
        if throttle {
            self.ticks_since_throttle_release = 0;
        } else {
            self.ticks_since_throttle_release = self.ticks_since_throttle_release.saturating_add(1);
        }

        let mut active = false;
        let mut request = 0.0;

        if self.engaged {
            request = self.control(speed, set_speed, gap, lead_speed);
            if !self.go_authorized {
                // Hold at rest until the driver re-authorizes motion.
                request = request.min(0.0);
            }
            active = self.ticks_since_engage >= ACTIVATION_DELAY_TICKS;
            if throttle {
                active = if self.defects.acc_throttle_handoff_glitch {
                    // Clings to control briefly after engage, then loses it
                    // until the pedal is released (Fig. 5.8).
                    self.ticks_since_engage <= DEFECT_GLITCH_TICKS
                } else {
                    false // correct: the driver's pedal overrides
                };
            } else if self.defects.acc_engage_handoff_delay
                && self.ticks_since_throttle_release < DEFECT_HANDOFF_TICKS
            {
                active = false; // 101 ms handoff lag (Fig. 5.9)
            }
        } else if enabled && engage_req && self.engage_refused && stopped {
            // Refused the engagement, yet leaks a creep request into the
            // arbitration default path (Fig. 5.15). Checked before the
            // disengaged-request defect: a refused engage is the more
            // specific state.
            request = 0.8;
        } else if enabled && self.defects.acc_requests_while_disengaged {
            // Controls toward a phantom 0 m/s set speed while merely
            // enabled (Fig. 5.6).
            request = (self.params.acc_gain * (0.0 - speed))
                .clamp(self.params.acc_min_accel, self.params.acc_max_accel);
        }

        if self.defective() {
            self.limiter.value = request;
        } else {
            if active && !self.was_active {
                // Smooth takeover: start the ramp from the vehicle's
                // current acceleration.
                self.limiter.value = prev.real_or(s.host_accel, 0.0);
            }
            request = self.limiter.step(request, t.dt_seconds());
        }
        self.was_active = active;

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

    fn world(table: &Arc<SignalTable>, sigs: &VehicleSigs, speed: f64, set: f64) -> Frame {
        let mut f = table.frame();
        f.set(sigs.features[sig::ACC].hmi_enable, true);
        f.set(sigs.features[sig::ACC].hmi_engage, true);
        f.set(sigs.acc_set_speed, set);
        f.set(sigs.host_speed, speed);
        f.set(sigs.lead_distance, 1e9);
        f.set(sigs.lead_speed, 0.0);
        f.set(sigs.driver_throttle, 0.0);
        f.set(sigs.gear, sigs.sym_d);
        f
    }

    fn tick(acc: &mut AdaptiveCruiseControl, prev: &Frame) -> Frame {
        let mut next = prev.clone();
        acc.step_lane(
            &SimTime {
                tick: 1,
                dt_millis: 1,
            },
            prev,
            &mut next,
        );
        next
    }

    /// Runs n ticks keeping the world inputs of `prev` pinned.
    fn run(acc: &mut AdaptiveCruiseControl, prev: &Frame, n: u64) -> Frame {
        let mut s = prev.clone();
        for _ in 0..n {
            let mut out = tick(acc, &s);
            // keep the world inputs pinned: copy everything the ACC does
            // not publish back from the template.
            let acc_sigs = acc.out.sigs();
            let published = [
                acc_sigs.enabled,
                acc_sigs.active,
                acc_sigs.accel_request,
                acc_sigs.accel_request_rate,
                acc_sigs.requests_accel,
                acc_sigs.steering_request,
                acc_sigs.requests_steering,
            ];
            for (id, v) in prev.iter() {
                if !published.contains(&id) {
                    out.set(id, v);
                }
            }
            s = out;
        }
        s
    }

    #[test]
    fn engages_and_tracks_set_speed() {
        let (table, sigs) = vehicle_table();
        let acc_sigs = sigs.features[sig::ACC];
        let mut acc = AdaptiveCruiseControl::new(VehicleParams::default(), DefectSet::none(), sigs);
        let s = run(&mut acc, &world(&table, &sigs, 10.0, 15.0), 60);
        assert!(s.bool_or(acc_sigs.active, false));
        let req = s.real_or(acc_sigs.accel_request, 0.0);
        assert!(req > 0.0 && req <= 1.5, "req {req}");
    }

    #[test]
    fn follows_slower_lead_with_deceleration() {
        let (table, sigs) = vehicle_table();
        let acc_sigs = sigs.features[sig::ACC];
        let mut acc = AdaptiveCruiseControl::new(VehicleParams::default(), DefectSet::none(), sigs);
        let mut w = world(&table, &sigs, 15.0, 20.0);
        w.set(sigs.lead_distance, Value::Real(10.0));
        w.set(sigs.lead_speed, Value::Real(5.0));
        let s = run(&mut acc, &w, 60);
        assert!(s.real_or(acc_sigs.accel_request, 0.0) < 0.0);
    }

    #[test]
    fn healthy_acc_defers_to_throttle() {
        let (table, sigs) = vehicle_table();
        let acc_sigs = sigs.features[sig::ACC];
        let mut acc = AdaptiveCruiseControl::new(VehicleParams::default(), DefectSet::none(), sigs);
        let mut w = world(&table, &sigs, 10.0, 15.0);
        w.set(sigs.driver_throttle, Value::Real(0.5));
        let s = run(&mut acc, &w, 120);
        assert!(!s.bool_or(acc_sigs.active, false));
    }

    #[test]
    fn glitch_defect_clings_then_drops_under_throttle() {
        let (table, sigs) = vehicle_table();
        let acc_sigs = sigs.features[sig::ACC];
        let defects = DefectSet {
            acc_throttle_handoff_glitch: true,
            ..DefectSet::none()
        };
        let mut acc = AdaptiveCruiseControl::new(VehicleParams::default(), defects, sigs);
        let mut w = world(&table, &sigs, 10.0, 15.0);
        w.set(sigs.driver_throttle, Value::Real(0.5));
        let s = run(&mut acc, &w, 30);
        assert!(
            s.bool_or(acc_sigs.active, false),
            "clings for the first 50 ms"
        );
        let s = run(&mut acc, &w, 60);
        assert!(!s.bool_or(acc_sigs.active, false), "then loses control");
    }

    #[test]
    fn handoff_delay_defect_waits_101_ms() {
        let (table, sigs) = vehicle_table();
        let acc_sigs = sigs.features[sig::ACC];
        let defects = DefectSet {
            acc_engage_handoff_delay: true,
            ..DefectSet::none()
        };
        let mut acc = AdaptiveCruiseControl::new(VehicleParams::default(), defects, sigs);
        // Engage under throttle, then release.
        let mut w = world(&table, &sigs, 10.0, 15.0);
        w.set(sigs.driver_throttle, Value::Real(0.5));
        let _ = run(&mut acc, &w, 200);
        w.set(sigs.driver_throttle, Value::Real(0.0));
        let s = run(&mut acc, &w, 100);
        assert!(
            !s.bool_or(acc_sigs.active, false),
            "still waiting at 100 ms"
        );
        let s = run(&mut acc, &w, 2);
        assert!(
            s.bool_or(acc_sigs.active, false),
            "control gained at ~101 ms"
        );
    }

    #[test]
    fn reverse_engage_blocked_without_defect() {
        let (table, sigs) = vehicle_table();
        let acc_sigs = sigs.features[sig::ACC];
        let mut acc = AdaptiveCruiseControl::new(VehicleParams::default(), DefectSet::none(), sigs);
        let mut w = world(&table, &sigs, -2.0, 15.0);
        w.set(sigs.gear, sigs.sym_r);
        let s = run(&mut acc, &w, 100);
        assert!(!s.bool_or(acc_sigs.active, false));
        let defects = DefectSet {
            acc_engages_in_reverse: true,
            ..DefectSet::none()
        };
        let mut acc2 = AdaptiveCruiseControl::new(VehicleParams::default(), defects, sigs);
        let s = run(&mut acc2, &w, 100);
        assert!(
            s.bool_or(acc_sigs.active, false),
            "defect engages in reverse"
        );
    }

    #[test]
    fn disengaged_request_defect_controls_to_zero() {
        let (table, sigs) = vehicle_table();
        let acc_sigs = sigs.features[sig::ACC];
        let defects = DefectSet {
            acc_requests_while_disengaged: true,
            ..DefectSet::none()
        };
        let mut acc = AdaptiveCruiseControl::new(VehicleParams::default(), defects, sigs);
        let mut w = world(&table, &sigs, 10.0, 15.0);
        w.set(acc_sigs.hmi_engage, false);
        let s = run(&mut acc, &w, 10);
        assert!(!s.bool_or(acc_sigs.active, false));
        assert!(
            s.real_or(acc_sigs.accel_request, 0.0) < -1.0,
            "brakes toward 0 m/s"
        );
    }

    #[test]
    fn ghost_defect_leaks_request_from_stop() {
        let (table, sigs) = vehicle_table();
        let acc_sigs = sigs.features[sig::ACC];
        let defects = DefectSet {
            acc_ghost_accel_from_stop: true,
            ..DefectSet::none()
        };
        let mut acc = AdaptiveCruiseControl::new(VehicleParams::default(), defects, sigs);
        let s = run(&mut acc, &world(&table, &sigs, 0.0, 15.0), 100);
        assert!(!s.bool_or(acc_sigs.active, false), "never becomes active");
        assert_eq!(
            s.real_or(acc_sigs.accel_request, 0.0),
            0.8,
            "yet leaks a request"
        );
    }
}
