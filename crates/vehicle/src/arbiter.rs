//! The Arbiter: selects which source's acceleration and steering requests
//! become the vehicle commands (thesis §5.2.1, §5.3.2).
//!
//! The thesis's ICPA pass surfaced four design hazards in this component,
//! all re-injected here behind [`DefectSet`] switches:
//!
//! * arbitration is split between a longitudinal stage and a steering
//!   stage, complicating coordinated actions;
//! * the steering stage's priority order is the *reverse* of the
//!   acceleration stage's — and the steering stage actually gates which
//!   requests are forwarded, while the acceleration stage only sets the
//!   `selected` flags (scenario 2, Fig. 5.4);
//! * separate `selected` flags allow control to be attributed to multiple
//!   sources at once (scenario 6, Fig. 5.11: LCA *and* ACC selected);
//! * the driver-override path is incomplete: active features win over the
//!   pedals (scenario 4, Fig. 5.8).

use crate::config::{DefectSet, VehicleParams};
use crate::signals::{self as sig, VehicleSigs};
use esafe_logic::{SignalRead, SignalWrite};
use esafe_sim::{LaneSubsystem, SimTime};
use std::sync::Arc;

/// Steering-capable features in correct priority order (indices into
/// [`sig::FEATURES`]).
const STEERING_PRIORITY: [usize; 2] = [sig::PA, sig::LCA];

/// The arbitration subsystem.
#[derive(Debug)]
pub struct Arbiter {
    params: VehicleParams,
    defects: DefectSet,
    sigs: Arc<VehicleSigs>,
    last_cmd: f64,
    last_steering_cmd: f64,
}

impl Arbiter {
    /// Creates the arbiter.
    pub fn new(
        params: VehicleParams,
        defects: DefectSet,
        sigs: impl Into<Arc<VehicleSigs>>,
    ) -> Self {
        Arbiter {
            params,
            defects,
            sigs: sigs.into(),
            last_cmd: 0.0,
            last_steering_cmd: 0.0,
        }
    }

    /// Seeds the blackboard with the arbiter's initial outputs.
    pub fn seed<W: SignalWrite>(frame: &mut W, sigs: &VehicleSigs) {
        frame.set(sigs.accel_cmd, 0.0);
        frame.set(sigs.accel_cmd_rate, 0.0);
        frame.set(sigs.accel_source, sigs.sym_driver);
        frame.set(sigs.steering_cmd, 0.0);
        frame.set(sigs.steering_source, sigs.sym_none);
        frame.set(sigs.driver_selected, true);
    }
}

impl LaneSubsystem for Arbiter {
    fn name(&self) -> &str {
        "Arbiter"
    }

    fn step_lane<R: SignalRead, W: SignalWrite>(&mut self, t: &SimTime, prev: &R, next: &mut W) {
        let s = &self.sigs;
        let speed = prev.real_or(s.host_speed, 0.0);
        let driver_request = prev.real_or(s.driver_accel_request, 0.0);
        let throttle = prev.real_or(s.driver_throttle, 0.0) > 0.05;
        let brake = prev.real_or(s.driver_brake, 0.0) > 0.05;
        let pedal = throttle || brake;
        let steering_active = prev.bool_or(s.driver_steering_active, false);

        // ---- Stage 1: acceleration arbitration (CA > RCA > PA > LCA > ACC).
        let mut winner: Option<usize> = None;
        for (i, f) in s.features.iter().enumerate() {
            if prev.bool_or(f.active, false) {
                winner = Some(i);
                break;
            }
        }

        // Scenario-10 defect: an engage request from a stop mis-selects ACC
        // even though ACC never reported itself active (Fig. 5.15).
        if winner.is_none()
            && self.defects.acc_ghost_accel_from_stop
            && prev.bool_or(s.features[sig::ACC].hmi_engage, false)
            && prev.real_or(s.features[sig::ACC].accel_request, 0.0) > 0.0
            && speed.abs() < 0.05
        {
            winner = Some(sig::ACC);
        }

        // Driver override: pedals displace a feature whose request is not a
        // hard stop (goals 5/9). The thesis implementation lacked this path
        // — features won over the pedals (Fig. 5.8) — so the defect switch
        // removes it.
        if let Some(f) = winner {
            if pedal && !self.defects.acc_throttle_handoff_glitch {
                let req = prev.real_or(s.features[f].accel_request, 0.0);
                let overridable = if speed >= 0.0 {
                    req >= -2.0
                } else {
                    req <= 2.0
                };
                if overridable {
                    winner = None;
                }
            }
        }

        let mut cmd = match winner {
            Some(f) => prev.real_or(s.features[f].accel_request, 0.0),
            None => driver_request,
        };

        // ---- Stage 2: steering arbitration.
        let steer_order: [usize; 2] = if self.defects.steering_arbitration_reversed {
            [sig::LCA, sig::PA]
        } else {
            STEERING_PRIORITY
        };
        let mut steer_winner: Option<usize> = None;
        if !steering_active {
            for f in steer_order {
                if prev.bool_or(s.features[f].requests_steering, false) {
                    steer_winner = Some(f);
                    break;
                }
            }
        }
        let (steering_cmd, steering_src) = if steering_active {
            (prev.real_or(s.driver_steering, 0.0), s.sym_driver)
        } else {
            match steer_winner {
                Some(sig::LCA) if self.defects.lca_steering_ignored => {
                    // Attributed to LCA, but the command never changes
                    // (Fig. 5.10).
                    (self.last_steering_cmd, s.features[sig::LCA].tag)
                }
                Some(f) => (
                    prev.real_or(s.features[f].steering_request, 0.0),
                    s.features[f].tag,
                ),
                None => (0.0, s.sym_none),
            }
        };

        // Scenario-2 defect: the steering stage's winner captures the
        // forwarded *acceleration* value while the stage-1 `selected`
        // flags and source tag stand (Fig. 5.4).
        if self.defects.steering_arbitration_reversed {
            if let Some(f) = steer_winner {
                if Some(f) != winner {
                    cmd = prev.real_or(s.features[f].accel_request, 0.0);
                }
            }
        }

        // Scenario-9 defect: PA is selected but its request is not what
        // gets forwarded (Fig. 5.14).
        if winner == Some(sig::PA) && self.defects.pa_request_not_forwarded {
            cmd = 0.0;
        }

        // A correctly built arbiter shapes the command's positive rate at
        // handoffs so autonomous takeovers stay inside the jerk bound
        // (negative steps — braking — are always allowed). The thesis
        // implementation forwarded raw request values, part of the same
        // incomplete-handoff finding as the override defect (Fig. 5.7).
        let raw_forwarding =
            self.defects.acc_throttle_handoff_glitch || self.defects.acc_ghost_accel_from_stop;
        if winner.is_some() && !raw_forwarding {
            let max_step = 0.95 * self.params.jerk_limit * t.dt_seconds();
            if speed >= 0.0 {
                // Forward: positive steps are comfort-bounded, braking
                // steps pass unshaped.
                if cmd > self.last_cmd + max_step {
                    cmd = self.last_cmd + max_step;
                }
            } else if cmd < self.last_cmd - max_step {
                // Reverse: the mirror image.
                cmd = self.last_cmd - max_step;
            }
        }

        // ---- Outputs.
        let rate = (cmd - self.last_cmd) / t.dt_seconds();
        self.last_cmd = cmd;
        self.last_steering_cmd = steering_cmd;

        next.set(s.accel_cmd, cmd);
        next.set(s.accel_cmd_rate, rate);
        next.set(
            s.accel_source,
            match winner {
                Some(f) => s.features[f].tag,
                None => s.sym_driver,
            },
        );
        next.set(s.steering_cmd, steering_cmd);
        next.set(s.steering_source, steering_src);
        next.set(s.driver_selected, winner.is_none());
        for (i, f) in s.features.iter().enumerate() {
            let mut selected = winner == Some(i);
            // Dual-flag hazard: LCA's longitudinal channel is executed by
            // ACC, and the implementation marks both selected (Fig. 5.11).
            if i == sig::ACC && winner == Some(sig::LCA) {
                selected = true;
            }
            next.set(f.selected, selected);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureOutputs;
    use crate::signals::vehicle_table;
    use esafe_logic::{Frame, SignalTable, Value};
    use esafe_sim::LaneSubsystem;
    use std::sync::Arc;

    fn base_state(table: &Arc<SignalTable>, sigs: &VehicleSigs) -> Frame {
        let mut f = table.frame();
        Arbiter::seed(&mut f, sigs);
        f.set(sigs.host_speed, 5.0);
        f.set(sigs.driver_accel_request, 0.0);
        f.set(sigs.driver_throttle, 0.0);
        f.set(sigs.driver_brake, 0.0);
        f.set(sigs.driver_steering_active, false);
        f.set(sigs.driver_steering, 0.0);
        for fs in &sigs.features {
            FeatureOutputs::seed(&mut f, fs);
            f.set(fs.hmi_engage, false);
        }
        f
    }

    fn tick(arb: &mut Arbiter, prev: &Frame) -> Frame {
        let mut next = prev.clone();
        arb.step_lane(
            &SimTime {
                tick: 1,
                dt_millis: 1,
            },
            prev,
            &mut next,
        );
        next
    }

    fn activate(f: &mut Frame, sigs: &VehicleSigs, feature: usize, request: f64, steering: bool) {
        let fs = &sigs.features[feature];
        f.set(fs.active, true);
        f.set(fs.requests_accel, true);
        f.set(fs.accel_request, request);
        f.set(fs.requests_steering, steering);
    }

    #[test]
    fn priority_order_prefers_ca() {
        let (table, sigs) = vehicle_table();
        let mut arb = Arbiter::new(VehicleParams::default(), DefectSet::none(), sigs);
        let mut s = base_state(&table, &sigs);
        activate(&mut s, &sigs, sig::ACC, 1.0, false);
        activate(&mut s, &sigs, sig::CA, -8.0, false);
        let out = tick(&mut arb, &s);
        assert_eq!(out.get(sigs.accel_source), Some(Value::sym("CA")));
        assert_eq!(out.real_or(sigs.accel_cmd, 0.0), -8.0);
        assert!(out.bool_or(sigs.features[sig::CA].selected, false));
        assert!(!out.bool_or(sigs.features[sig::ACC].selected, true));
    }

    #[test]
    fn driver_is_default_source() {
        let (table, sigs) = vehicle_table();
        let mut arb = Arbiter::new(VehicleParams::default(), DefectSet::none(), sigs);
        let mut s = base_state(&table, &sigs);
        s.set(sigs.driver_accel_request, Value::Real(0.9));
        let out = tick(&mut arb, &s);
        assert_eq!(out.get(sigs.accel_source), Some(sigs.sym_driver));
        assert_eq!(out.real_or(sigs.accel_cmd, 0.0), 0.9);
        assert!(out.bool_or(sigs.driver_selected, false));
    }

    #[test]
    fn healthy_pedal_overrides_soft_requests_but_not_hard_braking() {
        let (table, sigs) = vehicle_table();
        let mut arb = Arbiter::new(VehicleParams::default(), DefectSet::none(), sigs);
        let mut s = base_state(&table, &sigs);
        s.set(sigs.driver_throttle, Value::Real(0.5));
        s.set(sigs.driver_accel_request, Value::Real(1.5));
        activate(&mut s, &sigs, sig::ACC, 1.0, false);
        let out = tick(&mut arb, &s);
        assert_eq!(out.get(sigs.accel_source), Some(sigs.sym_driver));

        // CA's −8 m/s² hard stop is not overridable.
        activate(&mut s, &sigs, sig::CA, -8.0, false);
        let out = tick(&mut arb, &s);
        assert_eq!(out.get(sigs.accel_source), Some(Value::sym("CA")));
    }

    #[test]
    fn defective_override_lets_features_win_over_pedals() {
        let (table, sigs) = vehicle_table();
        let defects = DefectSet {
            acc_throttle_handoff_glitch: true,
            ..DefectSet::none()
        };
        let mut arb = Arbiter::new(VehicleParams::default(), defects, sigs);
        let mut s = base_state(&table, &sigs);
        s.set(sigs.driver_throttle, Value::Real(0.5));
        activate(&mut s, &sigs, sig::ACC, 1.0, false);
        let out = tick(&mut arb, &s);
        assert_eq!(out.get(sigs.accel_source), Some(Value::sym("ACC")));
    }

    #[test]
    fn steering_hijack_defect_reproduces_scenario_2() {
        let (table, sigs) = vehicle_table();
        let defects = DefectSet {
            steering_arbitration_reversed: true,
            ..DefectSet::none()
        };
        let mut arb = Arbiter::new(VehicleParams::default(), defects, sigs);
        let mut s = base_state(&table, &sigs);
        activate(&mut s, &sigs, sig::CA, -8.0, false);
        activate(&mut s, &sigs, sig::PA, 0.0, true);
        let out = tick(&mut arb, &s);
        // CA stays selected and tagged as the source…
        assert_eq!(out.get(sigs.accel_source), Some(Value::sym("CA")));
        assert!(out.bool_or(sigs.features[sig::CA].selected, false));
        // …but the forwarded command is PA's request.
        assert_eq!(out.real_or(sigs.accel_cmd, -8.0), 0.0);
        // And the steering stage attributes steering to PA.
        assert_eq!(out.get(sigs.steering_source), Some(Value::sym("PA")));
    }

    #[test]
    fn lca_steering_ignored_holds_the_command() {
        let (table, sigs) = vehicle_table();
        let defects = DefectSet {
            lca_steering_ignored: true,
            ..DefectSet::none()
        };
        let mut arb = Arbiter::new(VehicleParams::default(), defects, sigs);
        let mut s = base_state(&table, &sigs);
        activate(&mut s, &sigs, sig::LCA, 0.3, true);
        s.set(sigs.features[sig::LCA].steering_request, Value::Real(0.04));
        let out = tick(&mut arb, &s);
        assert_eq!(out.get(sigs.steering_source), Some(Value::sym("LCA")));
        assert_eq!(
            out.real_or(sigs.steering_cmd, 1.0),
            0.0,
            "command unchanged"
        );
        // Dual-flag hazard: ACC is marked selected alongside LCA.
        assert!(out.bool_or(sigs.features[sig::LCA].selected, false));
        assert!(out.bool_or(sigs.features[sig::ACC].selected, false));
    }

    #[test]
    fn healthy_lca_steering_flows_through() {
        let (table, sigs) = vehicle_table();
        let mut arb = Arbiter::new(VehicleParams::default(), DefectSet::none(), sigs);
        let mut s = base_state(&table, &sigs);
        activate(&mut s, &sigs, sig::LCA, 0.3, true);
        s.set(sigs.features[sig::LCA].steering_request, Value::Real(0.04));
        let out = tick(&mut arb, &s);
        assert_eq!(out.real_or(sigs.steering_cmd, 0.0), 0.04);
    }

    #[test]
    fn driver_steering_overrides_features() {
        let (table, sigs) = vehicle_table();
        let mut arb = Arbiter::new(VehicleParams::default(), DefectSet::none(), sigs);
        let mut s = base_state(&table, &sigs);
        activate(&mut s, &sigs, sig::PA, 0.5, true);
        s.set(sigs.driver_steering_active, true);
        s.set(sigs.driver_steering, Value::Real(0.2));
        let out = tick(&mut arb, &s);
        assert_eq!(out.get(sigs.steering_source), Some(sigs.sym_driver));
        assert_eq!(out.real_or(sigs.steering_cmd, 0.0), 0.2);
    }

    #[test]
    fn pa_forwarding_defect_decouples_command_from_request() {
        let (table, sigs) = vehicle_table();
        let defects = DefectSet {
            pa_request_not_forwarded: true,
            ..DefectSet::none()
        };
        let mut arb = Arbiter::new(VehicleParams::default(), defects, sigs);
        let mut s = base_state(&table, &sigs);
        s.set(sigs.host_speed, Value::Real(0.0));
        activate(&mut s, &sigs, sig::PA, 0.5, true);
        let out = tick(&mut arb, &s);
        assert!(out.bool_or(sigs.features[sig::PA].selected, false));
        assert_eq!(out.get(sigs.accel_source), Some(Value::sym("PA")));
        assert_eq!(
            out.real_or(sigs.accel_cmd, 1.0),
            0.0,
            "request 0.5 not forwarded"
        );
    }

    #[test]
    fn ghost_defect_mis_selects_acc_from_stop() {
        let (table, sigs) = vehicle_table();
        let defects = DefectSet {
            acc_ghost_accel_from_stop: true,
            ..DefectSet::none()
        };
        let mut arb = Arbiter::new(VehicleParams::default(), defects, sigs);
        let mut s = base_state(&table, &sigs);
        s.set(sigs.host_speed, Value::Real(0.0));
        s.set(sigs.features[sig::ACC].hmi_engage, true);
        s.set(sigs.features[sig::ACC].accel_request, Value::Real(0.8));
        // ACC is NOT active, yet gets selected and its request forwarded.
        let out = tick(&mut arb, &s);
        assert_eq!(out.get(sigs.accel_source), Some(Value::sym("ACC")));
        assert_eq!(out.real_or(sigs.accel_cmd, 0.0), 0.8);
        assert_eq!(out.get(sigs.steering_source), Some(sigs.sym_none));
    }

    #[test]
    fn command_rate_tracks_steps() {
        let (table, sigs) = vehicle_table();
        let mut arb = Arbiter::new(VehicleParams::default(), DefectSet::none(), sigs);
        let mut s = base_state(&table, &sigs);
        activate(&mut s, &sigs, sig::CA, -8.0, false);
        let out = tick(&mut arb, &s);
        assert_eq!(out.real_or(sigs.accel_cmd_rate, 0.0), -8000.0);
        let out2 = tick(&mut arb, &out);
        assert_eq!(out2.real_or(sigs.accel_cmd_rate, 1.0), 0.0);
    }
}
