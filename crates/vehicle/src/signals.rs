//! Canonical signal names on the vehicle blackboard, and the interned
//! [`VehicleSigs`] id set.
//!
//! The *names* remain the specification surface: the goal definitions in
//! [`crate::goals`] reference them textually and the monitor compiler
//! resolves them against the shared [`SignalTable`] once. The *ids*
//! ([`VehicleSigs`], built by [`vehicle_table`]) are what every subsystem
//! holds at run time — each `step` reads and writes dense
//! [`SignalId`]-indexed [`Frame`](esafe_logic::Frame) slots, with the
//! source-tag symbols (`'CA'`, `'DRIVER'`, …) pre-interned as `Copy`
//! [`Value`]s. Centralizing both keeps the specification and the
//! implementation in lockstep.

use esafe_logic::{SignalId, SignalTable, SignalTableBuilder, Value};
use std::sync::Arc;

/// Host vehicle longitudinal speed, m/s (positive = forward).
pub const HOST_SPEED: &str = "host.speed";
/// Host vehicle longitudinal acceleration, m/s².
pub const HOST_ACCEL: &str = "host.accel";
/// Host vehicle jerk, m/s³.
pub const HOST_JERK: &str = "host.jerk";
/// Host vehicle position along the lane, m.
pub const HOST_POSITION: &str = "host.position";
/// Host steering angle, rad.
pub const HOST_STEERING: &str = "host.steering";
/// Host lateral lane offset, m.
pub const HOST_LANE_OFFSET: &str = "host.lane_offset";

/// Distance to the object/vehicle ahead, m (large when none).
pub const LEAD_DISTANCE: &str = "world.lead_distance";
/// Speed of the object ahead, m/s.
pub const LEAD_SPEED: &str = "world.lead_speed";
/// Distance to the object behind, m (large when none).
pub const REAR_DISTANCE: &str = "world.rear_distance";
/// Whether a forward collision has occurred.
pub const COLLISION: &str = "world.collision";
/// Whether a rear collision has occurred.
pub const REAR_COLLISION: &str = "world.rear_collision";

/// Driver throttle pedal position, 0..1.
pub const DRIVER_THROTTLE: &str = "driver.throttle";
/// Driver brake pedal position, 0..1.
pub const DRIVER_BRAKE: &str = "driver.brake";
/// Whether the driver is actively turning the steering wheel.
pub const DRIVER_STEERING_ACTIVE: &str = "driver.steering_active";
/// Driver steering input, rad.
pub const DRIVER_STEERING: &str = "driver.steering";
/// Acceleration the driver's pedals demand, m/s².
pub const DRIVER_ACCEL_REQUEST: &str = "driver.accel_request";

/// Transmission gear: `'D'` or `'R'`.
pub const GEAR: &str = "hmi.gear";
/// HMI "go" signal re-authorizing motion from a stop.
pub const HMI_GO: &str = "hmi.go";
/// ACC set speed chosen by the driver, m/s.
pub const ACC_SET_SPEED: &str = "hmi.acc.set_speed";

/// HMI enable switch for a feature (builder for `"hmi.<x>.enable"`).
pub fn hmi_enable(feature: &str) -> String {
    format!("hmi.{}.enable", feature.to_lowercase())
}

/// HMI engage request for a feature.
pub fn hmi_engage(feature: &str) -> String {
    format!("hmi.{}.engage", feature.to_lowercase())
}

/// Final arbitrated acceleration command, m/s².
pub const ACCEL_CMD: &str = "arbiter.accel_cmd";
/// Rate of change of the acceleration command, m/s³.
pub const ACCEL_CMD_RATE: &str = "arbiter.accel_cmd_rate";
/// Source tag of the acceleration command (`'CA'`, `'ACC'`, …,
/// `'DRIVER'`, `'NONE'`).
pub const ACCEL_SOURCE: &str = "arbiter.accel_source";
/// Final arbitrated steering command, rad.
pub const STEERING_CMD: &str = "arbiter.steering_cmd";
/// Source tag of the steering command.
pub const STEERING_SOURCE: &str = "arbiter.steering_source";

/// The five feature subsystems, in acceleration-arbitration priority
/// order (highest first).
pub const FEATURES: [&str; 5] = ["CA", "RCA", "PA", "LCA", "ACC"];

/// Whether the named feature is enabled (builder for `"<x>.enabled"`).
pub fn enabled(feature: &str) -> String {
    format!("{}.enabled", feature.to_lowercase())
}

/// Whether the named feature is actively requesting vehicle control.
pub fn active(feature: &str) -> String {
    format!("{}.active", feature.to_lowercase())
}

/// The feature's acceleration request, m/s².
pub fn accel_request(feature: &str) -> String {
    format!("{}.accel_request", feature.to_lowercase())
}

/// Rate of change of the feature's acceleration request, m/s³.
pub fn accel_request_rate(feature: &str) -> String {
    format!("{}.accel_request_rate", feature.to_lowercase())
}

/// Whether the feature requests acceleration control.
pub fn requests_accel(feature: &str) -> String {
    format!("{}.requests_accel", feature.to_lowercase())
}

/// The feature's steering request, rad.
pub fn steering_request(feature: &str) -> String {
    format!("{}.steering_request", feature.to_lowercase())
}

/// Whether the feature requests steering control.
pub fn requests_steering(feature: &str) -> String {
    format!("{}.requests_steering", feature.to_lowercase())
}

/// Whether the arbiter's `selected` flag is set for the feature (the
/// thesis's dual-flag attribution hazard).
pub fn selected(feature: &str) -> String {
    format!("{}.selected", feature.to_lowercase())
}

/// Whether the arbiter attributed the acceleration command to the driver.
pub const DRIVER_SELECTED: &str = "arbiter.driver_selected";

// Derived monitor-probe signals (computed by `crate::probe::derive`).

/// The acceleration command source is a feature subsystem.
pub const P_AUTO_ACCEL: &str = "probe.auto_accel_source";
/// The steering command source is a feature subsystem.
pub const P_AUTO_STEER: &str = "probe.auto_steering_source";
/// |speed| below the stopped threshold.
pub const P_STOPPED: &str = "probe.stopped";
/// Speed above the forward threshold.
pub const P_FORWARD: &str = "probe.forward";
/// Speed below the backward threshold.
pub const P_BACKWARD: &str = "probe.backward";
/// Throttle pedal meaningfully applied.
pub const P_THROTTLE: &str = "probe.throttle_applied";
/// Brake pedal meaningfully applied.
pub const P_BRAKE: &str = "probe.brake_applied";
/// Either pedal applied.
pub const P_PEDAL: &str = "probe.pedal_applied";
/// Host acceleration above the "vehicle is accelerating" threshold.
pub const P_ACCELERATING: &str = "probe.accelerating";

/// Feature indices into [`FEATURES`] and [`VehicleSigs::features`], in
/// acceleration-arbitration priority order.
pub const CA: usize = 0;
/// See [`CA`].
pub const RCA: usize = 1;
/// See [`CA`].
pub const PA: usize = 2;
/// See [`CA`].
pub const LCA: usize = 3;
/// See [`CA`].
pub const ACC: usize = 4;

/// The index of a feature tag (`"CA"`, `"acc"`, …) in [`FEATURES`].
///
/// # Panics
///
/// Panics on an unknown feature name — scripts and goal tables may only
/// reference the five features of Figure 5.1.
pub fn feature_index(name: &str) -> usize {
    FEATURES
        .iter()
        .position(|f| f.eq_ignore_ascii_case(name))
        .unwrap_or_else(|| panic!("unknown feature `{name}`"))
}

/// The resolved per-feature signal ids (one instance per entry of
/// [`FEATURES`]).
#[derive(Debug, Clone, Copy)]
pub struct FeatureSigs {
    /// `hmi.<x>.enable`
    pub hmi_enable: SignalId,
    /// `hmi.<x>.engage`
    pub hmi_engage: SignalId,
    /// `<x>.enabled`
    pub enabled: SignalId,
    /// `<x>.active`
    pub active: SignalId,
    /// `<x>.accel_request`
    pub accel_request: SignalId,
    /// `<x>.accel_request_rate`
    pub accel_request_rate: SignalId,
    /// `<x>.requests_accel`
    pub requests_accel: SignalId,
    /// `<x>.steering_request`
    pub steering_request: SignalId,
    /// `<x>.requests_steering`
    pub requests_steering: SignalId,
    /// `<x>.selected`
    pub selected: SignalId,
    /// The interned source tag, e.g. `'CA'`.
    pub tag: Value,
}

/// Every vehicle signal id plus the pre-interned source-tag symbols —
/// resolved once against the substrate's [`SignalTable`]. A stripe's
/// subsystems share one set through an `Arc` (it is ~480 bytes of plain
/// ids, eight subsystems a lane); it stays `Copy`, so a subsystem built
/// on its own may take it by value.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)]
pub struct VehicleSigs {
    pub host_speed: SignalId,
    pub host_accel: SignalId,
    pub host_jerk: SignalId,
    pub host_position: SignalId,
    pub host_steering: SignalId,
    pub host_lane_offset: SignalId,
    pub lead_distance: SignalId,
    pub lead_speed: SignalId,
    pub rear_distance: SignalId,
    pub collision: SignalId,
    pub rear_collision: SignalId,
    pub driver_throttle: SignalId,
    pub driver_brake: SignalId,
    pub driver_steering_active: SignalId,
    pub driver_steering: SignalId,
    pub driver_accel_request: SignalId,
    pub gear: SignalId,
    pub hmi_go: SignalId,
    pub acc_set_speed: SignalId,
    pub accel_cmd: SignalId,
    pub accel_cmd_rate: SignalId,
    pub accel_source: SignalId,
    pub steering_cmd: SignalId,
    pub steering_source: SignalId,
    pub driver_selected: SignalId,
    pub p_auto_accel: SignalId,
    pub p_auto_steer: SignalId,
    pub p_stopped: SignalId,
    pub p_forward: SignalId,
    pub p_backward: SignalId,
    pub p_throttle: SignalId,
    pub p_brake: SignalId,
    pub p_pedal: SignalId,
    pub p_accelerating: SignalId,
    /// Per-feature ids, indexed by [`CA`]..[`ACC`].
    pub features: [FeatureSigs; 5],
    /// `'DRIVER'`
    pub sym_driver: Value,
    /// `'NONE'`
    pub sym_none: Value,
    /// `'D'`
    pub sym_d: Value,
    /// `'R'`
    pub sym_r: Value,
}

impl VehicleSigs {
    /// Declares the complete vehicle namespace into `b` and resolves the
    /// id set. Idempotent on an already-populated builder.
    pub fn declare(b: &mut SignalTableBuilder) -> Self {
        let feature = |b: &mut SignalTableBuilder, f: &str| FeatureSigs {
            hmi_enable: b.bool(&hmi_enable(f)),
            hmi_engage: b.bool(&hmi_engage(f)),
            enabled: b.bool(&enabled(f)),
            active: b.bool(&active(f)),
            accel_request: b.real(&accel_request(f)),
            accel_request_rate: b.real(&accel_request_rate(f)),
            requests_accel: b.bool(&requests_accel(f)),
            steering_request: b.real(&steering_request(f)),
            requests_steering: b.bool(&requests_steering(f)),
            selected: b.bool(&selected(f)),
            tag: Value::sym(f),
        };
        VehicleSigs {
            host_speed: b.real(HOST_SPEED),
            host_accel: b.real(HOST_ACCEL),
            host_jerk: b.real(HOST_JERK),
            host_position: b.real(HOST_POSITION),
            host_steering: b.real(HOST_STEERING),
            host_lane_offset: b.real(HOST_LANE_OFFSET),
            lead_distance: b.real(LEAD_DISTANCE),
            lead_speed: b.real(LEAD_SPEED),
            rear_distance: b.real(REAR_DISTANCE),
            collision: b.bool(COLLISION),
            rear_collision: b.bool(REAR_COLLISION),
            driver_throttle: b.real(DRIVER_THROTTLE),
            driver_brake: b.real(DRIVER_BRAKE),
            driver_steering_active: b.bool(DRIVER_STEERING_ACTIVE),
            driver_steering: b.real(DRIVER_STEERING),
            driver_accel_request: b.real(DRIVER_ACCEL_REQUEST),
            gear: b.sym(GEAR),
            hmi_go: b.bool(HMI_GO),
            acc_set_speed: b.real(ACC_SET_SPEED),
            accel_cmd: b.real(ACCEL_CMD),
            accel_cmd_rate: b.real(ACCEL_CMD_RATE),
            accel_source: b.sym(ACCEL_SOURCE),
            steering_cmd: b.real(STEERING_CMD),
            steering_source: b.sym(STEERING_SOURCE),
            driver_selected: b.bool(DRIVER_SELECTED),
            p_auto_accel: b.bool(P_AUTO_ACCEL),
            p_auto_steer: b.bool(P_AUTO_STEER),
            p_stopped: b.bool(P_STOPPED),
            p_forward: b.bool(P_FORWARD),
            p_backward: b.bool(P_BACKWARD),
            p_throttle: b.bool(P_THROTTLE),
            p_brake: b.bool(P_BRAKE),
            p_pedal: b.bool(P_PEDAL),
            p_accelerating: b.bool(P_ACCELERATING),
            features: [
                feature(b, FEATURES[CA]),
                feature(b, FEATURES[RCA]),
                feature(b, FEATURES[PA]),
                feature(b, FEATURES[LCA]),
                feature(b, FEATURES[ACC]),
            ],
            sym_driver: Value::sym("DRIVER"),
            sym_none: Value::sym("NONE"),
            sym_d: Value::sym("D"),
            sym_r: Value::sym("R"),
        }
    }
}

/// Builds the vehicle's shared signal table and id set — the one
/// namespace every simulator, monitor suite, sweep cell, and frame
/// recording of a [`VehicleSubstrate`](crate::substrate::VehicleSubstrate)
/// indexes into.
pub fn vehicle_table() -> (Arc<SignalTable>, VehicleSigs) {
    let mut b = SignalTable::builder();
    let sigs = VehicleSigs::declare(&mut b);
    (b.finish(), sigs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_signal_names_are_lowercased() {
        assert_eq!(active("CA"), "ca.active");
        assert_eq!(accel_request("ACC"), "acc.accel_request");
        assert_eq!(selected("LCA"), "lca.selected");
        assert_eq!(requests_steering("PA"), "pa.requests_steering");
    }

    #[test]
    fn features_are_priority_ordered() {
        assert_eq!(FEATURES[0], "CA");
        assert_eq!(FEATURES[4], "ACC");
        assert_eq!(feature_index("CA"), CA);
        assert_eq!(feature_index("acc"), ACC);
    }

    #[test]
    #[should_panic(expected = "unknown feature")]
    fn unknown_feature_panics() {
        feature_index("XYZ");
    }

    #[test]
    fn table_covers_names_and_ids_agree() {
        let (table, sigs) = vehicle_table();
        assert_eq!(table.id(HOST_SPEED), Some(sigs.host_speed));
        assert_eq!(table.id(ACCEL_SOURCE), Some(sigs.accel_source));
        for (i, f) in FEATURES.iter().enumerate() {
            assert_eq!(table.id(&active(f)), Some(sigs.features[i].active));
            assert_eq!(table.id(&hmi_engage(f)), Some(sigs.features[i].hmi_engage));
            assert_eq!(sigs.features[i].tag, Value::sym(*f));
        }
        // 25 scalar + 9 probe + 5×10 feature signals.
        assert_eq!(table.len(), 25 + 9 + 50);
    }
}
