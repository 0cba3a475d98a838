//! Monitor probe: derives the boolean signals the safety goals reference.
//!
//! The goal monitors sample the same tick as the plant signals they
//! constrain, so the derivation runs *after* each simulation step on the
//! produced frame (no extra tick of delay), mirroring the thesis's
//! monitors that share inputs with the software being observed
//! (§2.5, Peters & Parnas discussion).

use crate::config::VehicleParams;
use crate::signals::VehicleSigs;
use esafe_logic::{Frame, SignalRead, SignalWrite};

/// Writes the `probe.*` signals into any sample carrying the raw
/// frame's values — a [`Frame`] or one lane of a batched state slab,
/// **in place**. In-place derivation is safe
/// because no subsystem reads a `probe.*` signal (every probe is
/// overwritten here each tick) and `hmi.go` is only defaulted when
/// unset. Pure id-indexed slot access — no allocation.
pub fn derive_lane<F: SignalRead + SignalWrite>(
    out: &mut F,
    sigs: &VehicleSigs,
    params: &VehicleParams,
) {
    let speed = out.real_or(sigs.host_speed, 0.0);
    let accel = out.real_or(sigs.host_accel, 0.0);
    let accel_source = out.get(sigs.accel_source);
    let steering_source = out.get(sigs.steering_source);
    let throttle = out.real_or(sigs.driver_throttle, 0.0) > 0.05;
    let brake = out.real_or(sigs.driver_brake, 0.0) > 0.05;

    let auto_accel = sigs.features.iter().any(|f| accel_source == Some(f.tag));
    let auto_steer = sigs.features.iter().any(|f| steering_source == Some(f.tag));

    out.set(sigs.p_auto_accel, auto_accel);
    out.set(sigs.p_auto_steer, auto_steer);
    out.set(sigs.p_stopped, speed.abs() <= params.stopped_eps);
    out.set(sigs.p_forward, speed > params.stopped_eps);
    out.set(sigs.p_backward, speed < -params.stopped_eps);
    out.set(sigs.p_throttle, throttle);
    out.set(sigs.p_brake, brake);
    out.set(sigs.p_pedal, throttle || brake);
    out.set(sigs.p_accelerating, accel.abs() > 0.1);
    // `hmi.go` may be absent before the driver model has run once.
    if out.get(sigs.hmi_go).is_none() {
        out.set(sigs.hmi_go, false);
    }
}

/// Returns a copy of `frame` augmented with the `probe.*` signals (the
/// allocation-tolerant convenience used by tests; the tick loop runs
/// [`derive_lane`] on the state slab in place).
pub fn derive(frame: &Frame, sigs: &VehicleSigs, params: &VehicleParams) -> Frame {
    let mut out = frame.clone();
    derive_lane(&mut out, sigs, params);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signals::vehicle_table;

    #[test]
    fn classifies_sources_and_motion() {
        let (table, sigs) = vehicle_table();
        let params = VehicleParams::default();
        let mut s = table.frame();
        s.set(sigs.host_speed, 3.0);
        s.set(sigs.host_accel, 0.0);
        s.set(sigs.accel_source, sigs.features[crate::signals::CA].tag);
        s.set(sigs.steering_source, sigs.sym_driver);
        s.set(sigs.driver_throttle, 0.3);
        s.set(sigs.driver_brake, 0.0);
        let d = derive(&s, &sigs, &params);
        assert!(d.bool_or(sigs.p_auto_accel, false));
        assert!(!d.bool_or(sigs.p_auto_steer, true));
        assert!(d.bool_or(sigs.p_forward, false));
        assert!(!d.bool_or(sigs.p_backward, true) && !d.bool_or(sigs.p_stopped, true));
        assert!(d.bool_or(sigs.p_throttle, false) && d.bool_or(sigs.p_pedal, false));
        assert!(!d.bool_or(sigs.p_brake, true));
    }

    #[test]
    fn stopped_band_is_symmetric() {
        let (table, sigs) = vehicle_table();
        let params = VehicleParams::default();
        for v in [0.0, 0.005, -0.005] {
            let mut s = table.frame();
            s.set(sigs.host_speed, v);
            let d = derive(&s, &sigs, &params);
            assert!(d.bool_or(sigs.p_stopped, false), "{v} should be stopped");
        }
        let mut s = table.frame();
        s.set(sigs.host_speed, -0.5);
        let d = derive(&s, &sigs, &params);
        assert!(d.bool_or(sigs.p_backward, false));
    }

    #[test]
    fn missing_go_signal_defaults_false() {
        let (table, sigs) = vehicle_table();
        let d = derive(&table.frame(), &sigs, &VehicleParams::default());
        assert_eq!(d.get(sigs.hmi_go).and_then(|v| v.as_bool()), Some(false));
    }
}
