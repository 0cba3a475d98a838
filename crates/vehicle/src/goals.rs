//! The nine vehicle-level safety goals (thesis Tables 5.1–5.2), their
//! ICPA-derived subgoals, and the monitoring-location matrix (Table 5.3).
//!
//! Goal numbering follows Table 5.3:
//!
//! 1. `Achieve[AutoAccelBelowThreshold]`
//! 2. `Achieve[AutoJerkBelowThreshold]`
//! 3. `Achieve[SubsystemAccelSteeringAgreement]` (single responsibility —
//!    Arbiter only)
//! 4. `Achieve[NoAutoAccelFromStop]`
//! 5. `Achieve[DriverForwardAccelOverride]`
//! 6. `Achieve[DriverSteeringOverride]`
//! 7. `Achieve[ForwardBlockAccelSteering]`
//! 8. `Achieve[BackwardBlockAccelSteering]`
//! 9. `Achieve[DriverBackwardAccelOverride]`
//!
//! All `A` subgoals monitor the Arbiter's command stream; the `B` subgoals
//! monitor individual feature subsystems' request streams (OR-reduced
//! restrictive forms per §5.3: "it is simpler to always prohibit the
//! subsystems from requesting excessive vehicle acceleration or jerk").

use crate::config::VehicleParams;
use crate::signals as sig;
use esafe_core::{Goal, GoalClass};
use esafe_logic::{parse, EvalError, Expr, SignalTable};
use esafe_monitor::{Location, MonitorSuite};
use std::sync::Arc;

/// The window used for goal 4's `StoppedTime` / `GoTime` (ms). The thesis
/// does not publish the constant; 300 ms is within the plausible band.
pub const STOP_WINDOW_MS: u64 = 300;

/// One vehicle safety goal plus its monitored subgoals.
#[derive(Debug, Clone)]
pub struct GoalSpec {
    /// Goal number as in Table 5.3 (`"1"` … `"9"`).
    pub id: &'static str,
    /// The system-level goal (monitored at the `Vehicle` location).
    pub goal: Goal,
    /// The Arbiter-level subgoal (`<id>A`), if any.
    pub arbiter_subgoal: Option<Goal>,
    /// Feature-level subgoals (`<id>B`) as `(feature, goal)` pairs.
    pub feature_subgoals: Vec<(&'static str, Goal)>,
}

fn p(src: &str) -> Expr {
    parse(src).unwrap_or_else(|e| panic!("bad goal formula `{src}`: {e}"))
}

fn goal(name: &str, class: GoalClass, informal: &str, formal: Expr) -> Goal {
    Goal::new(name, class, informal, formal)
}

/// Conjunction over features of a per-feature formula template, with `{X}`
/// replaced by the feature tag and `{x}` by its lowercase form.
fn for_each_feature(features: &[&str], template: &str) -> Expr {
    Expr::and_all(
        features
            .iter()
            .map(|f| p(&template.replace("{X}", f).replace("{x}", &f.to_lowercase()))),
    )
}

/// `x` as a formula literal that always parses as a `Real`: `2.0`, never
/// `2`, which parses as an `Int` and is a separate DAG node from the
/// `2.0` other goals write.
fn real_literal(x: f64) -> String {
    let text = x.to_string();
    if text.contains('.') {
        text
    } else {
        format!("{text}.0")
    }
}

/// Builds the nine goal specifications.
pub fn specs(params: &VehicleParams) -> Vec<GoalSpec> {
    let accel = real_literal(params.accel_limit);
    let jerk = params.jerk_limit;
    let w = STOP_WINDOW_MS;
    let all = sig::FEATURES;
    let steering_features = ["PA", "LCA"];
    let forward_features = ["CA", "ACC", "LCA"];

    let from_stop_ante = format!(
        "held_for(probe.stopped, {w}ms) && !once_within(probe.throttle_applied, {w}ms) \
         && !once_within(hmi.go, {w}ms)"
    );

    vec![
        GoalSpec {
            id: "1",
            goal: goal(
                "Achieve[AutoAccelBelowThreshold]",
                GoalClass::Achieve,
                "Vehicle acceleration caused by autonomous vehicle control \
                 shall not exceed 2 m/s². Deceleration is exempt (forward \
                 braking is negative, reverse braking positive), so the \
                 bound is monitored in forward motion.",
                p(&format!(
                    "(probe.auto_accel_source && probe.forward) -> host.accel <= {accel}"
                )),
            ),
            arbiter_subgoal: Some(goal(
                "Achieve[AutoAccelCommandBelowThreshold]",
                GoalClass::Achieve,
                "The arbitrated acceleration command from an autonomous \
                 source shall not exceed the threshold.",
                p(&format!(
                    "(probe.auto_accel_source && probe.forward) -> arbiter.accel_cmd <= {accel}"
                )),
            )),
            feature_subgoals: all
                .iter()
                .map(|f| {
                    (
                        *f,
                        goal(
                            "Maintain[AutoAccelRequestBelowThreshold]",
                            GoalClass::Maintain,
                            "The feature shall never request acceleration \
                             above the threshold (OR-reduced restrictive \
                             form).",
                            p(&if *f == "RCA" {
                                format!(
                                    "always(prev(probe.forward) -> {}.accel_request <= {accel})",
                                    f.to_lowercase()
                                )
                            } else {
                                format!(
                                    "always({}.accel_request <= {accel})",
                                    f.to_lowercase()
                                )
                            }),
                        ),
                    )
                })
                .collect(),
        },
        GoalSpec {
            id: "2",
            goal: goal(
                "Achieve[AutoJerkBelowThreshold]",
                GoalClass::Achieve,
                "Vehicle jerk caused by autonomous vehicle control shall \
                 not exceed 2.5 m/s³ (sudden deceleration is permitted for \
                 emergency stops; the bound is on positive jerk).",
                p(&format!(
                    "(probe.auto_accel_source && probe.forward) -> host.jerk <= {jerk}"
                )),
            ),
            arbiter_subgoal: Some(goal(
                "Achieve[AutoJerkCommandBelowThreshold]",
                GoalClass::Achieve,
                "The arbitrated command's rate of change from an autonomous \
                 source shall not exceed the jerk threshold.",
                p(&format!(
                    "(probe.auto_accel_source && probe.forward) -> arbiter.accel_cmd_rate <= {jerk}"
                )),
            )),
            feature_subgoals: all
                .iter()
                .map(|f| {
                    (
                        *f,
                        goal(
                            "Maintain[AutoJerkRequestBelowThreshold]",
                            GoalClass::Maintain,
                            "The feature's request stream shall never rise \
                             faster than the jerk threshold.",
                            p(&if *f == "RCA" {
                                format!(
                                    "always(prev(probe.forward) -> {}.accel_request_rate <= {jerk})",
                                    f.to_lowercase()
                                )
                            } else {
                                format!(
                                    "always({}.accel_request_rate <= {jerk})",
                                    f.to_lowercase()
                                )
                            }),
                        ),
                    )
                })
                .collect(),
        },
        GoalSpec {
            id: "3",
            goal: goal(
                "Achieve[SubsystemAccelSteeringAgreement]",
                GoalClass::Achieve,
                "If a subsystem requests control of acceleration and \
                 steering and is granted either, it shall control both.",
                for_each_feature(
                    &all,
                    "({x}.requests_accel && {x}.requests_steering && \
                     (arbiter.accel_source == '{X}' || arbiter.steering_source == '{X}')) \
                     -> (arbiter.accel_source == '{X}' && arbiter.steering_source == '{X}')",
                ),
            ),
            arbiter_subgoal: Some(goal(
                "Achieve[SubsystemAccelSteeringCommandAgreement]",
                GoalClass::Achieve,
                "Single responsibility: only the Arbiter can satisfy this \
                 goal (maintaining arbitration logic in every feature is \
                 impractical — §5.3).",
                for_each_feature(
                    &all,
                    "({x}.requests_accel && {x}.requests_steering && \
                     (arbiter.accel_source == '{X}' || arbiter.steering_source == '{X}')) \
                     -> (arbiter.accel_source == '{X}' && arbiter.steering_source == '{X}')",
                ),
            )),
            feature_subgoals: vec![],
        },
        GoalSpec {
            id: "4",
            goal: goal(
                "Achieve[NoAutoAccelFromStop]",
                GoalClass::Achieve,
                "A vehicle stopped for StoppedTime with no throttle and no \
                 HMI go signal shall not accelerate under autonomous \
                 control.",
                p(&format!(
                    "({from_stop_ante} && probe.auto_accel_source) -> !probe.accelerating"
                )),
            ),
            arbiter_subgoal: Some(goal(
                "Achieve[NoAutoAccelCommandFromStop]",
                GoalClass::Achieve,
                "The arbitrated command shall not be positive from an \
                 unauthorized stop.",
                p(&format!(
                    "({from_stop_ante} && probe.auto_accel_source) -> arbiter.accel_cmd <= 0.0"
                )),
            )),
            feature_subgoals: all
                .iter()
                .map(|f| {
                    (
                        *f,
                        goal(
                            "Achieve[NoAutoAccelRequestFromStop]",
                            GoalClass::Achieve,
                            "The feature shall not request positive \
                             acceleration from an unauthorized stop.",
                            p(&format!(
                                "({from_stop_ante}) -> {}.accel_request <= 0.0",
                                f.to_lowercase()
                            )),
                        ),
                    )
                })
                .collect(),
        },
        GoalSpec {
            id: "5",
            goal: goal(
                "Achieve[DriverForwardAccelOverride]",
                GoalClass::Achieve,
                "In forward motion with a pedal applied, a subsystem not \
                 requesting a hard stop (≥ −2 m/s²) shall not control \
                 acceleration.",
                for_each_feature(
                    &all,
                    "(probe.forward && probe.pedal_applied && {x}.requests_accel \
                     && {x}.accel_request >= -2.0) -> arbiter.accel_source != '{X}'",
                ),
            ),
            arbiter_subgoal: Some(goal(
                "Achieve[DriverForwardAccelOverrideAccelCommand]",
                GoalClass::Achieve,
                "The Arbiter shall not select an overridable feature while \
                 a pedal is applied in forward motion.",
                for_each_feature(
                    &all,
                    "(probe.forward && probe.pedal_applied && {x}.requests_accel \
                     && {x}.accel_request >= -2.0) -> arbiter.accel_source != '{X}'",
                ),
            )),
            feature_subgoals: all
                .iter()
                .map(|f| {
                    (
                        *f,
                        goal(
                            "Achieve[DriverForwardAccelOverrideAccelRequest]",
                            GoalClass::Achieve,
                            "The feature shall cease requesting control \
                             under a driver pedal in forward motion.",
                            p(&format!(
                                "(probe.forward && probe.pedal_applied && \
                                 {x}.accel_request >= -2.0) -> !{x}.active",
                                x = f.to_lowercase()
                            )),
                        ),
                    )
                })
                .collect(),
        },
        GoalSpec {
            id: "6",
            goal: goal(
                "Achieve[DriverSteeringOverride]",
                GoalClass::Achieve,
                "If the driver is turning the steering wheel, no subsystem \
                 shall control vehicle steering.",
                p("driver.steering_active -> !probe.auto_steering_source"),
            ),
            arbiter_subgoal: Some(goal(
                "Achieve[DriverSteeringOverrideSteeringCommand]",
                GoalClass::Achieve,
                "The Arbiter shall attribute steering to the driver while \
                 the wheel is active.",
                p("driver.steering_active -> !probe.auto_steering_source"),
            )),
            feature_subgoals: steering_features
                .iter()
                .map(|f| {
                    (
                        *f,
                        goal(
                            "Achieve[DriverSteeringOverrideSteeringRequest]",
                            GoalClass::Achieve,
                            "The feature shall drop steering requests while \
                             the driver steers.",
                            p(&format!(
                                "driver.steering_active -> !{}.requests_steering",
                                f.to_lowercase()
                            )),
                        ),
                    )
                })
                .collect(),
        },
        GoalSpec {
            id: "7",
            goal: goal(
                "Achieve[ForwardBlockAccelSteering]",
                GoalClass::Achieve,
                "In forward motion, RCA shall not control vehicle \
                 acceleration or steering.",
                p("probe.forward -> (arbiter.accel_source != 'RCA' && \
                   arbiter.steering_source != 'RCA')"),
            ),
            arbiter_subgoal: Some(goal(
                "Achieve[ForwardBlockAccelSteeringCommand]",
                GoalClass::Achieve,
                "The Arbiter shall never select RCA in forward motion.",
                p("probe.forward -> (arbiter.accel_source != 'RCA' && \
                   arbiter.steering_source != 'RCA')"),
            )),
            feature_subgoals: vec![(
                "RCA",
                goal(
                    "Achieve[ForwardBlockAccelSteeringRequest]",
                    GoalClass::Achieve,
                    "RCA shall not request control in forward motion.",
                    p("probe.forward -> !rca.active"),
                ),
            )],
        },
        GoalSpec {
            id: "8",
            goal: goal(
                "Achieve[BackwardBlockAccelSteering]",
                GoalClass::Achieve,
                "In backward motion, CA, ACC, and LCA shall not control \
                 vehicle acceleration or steering.",
                for_each_feature(
                    &forward_features,
                    "probe.backward -> (arbiter.accel_source != '{X}' && \
                     arbiter.steering_source != '{X}')",
                ),
            ),
            arbiter_subgoal: Some(goal(
                "Achieve[BackwardBlockAccelSteeringCommand]",
                GoalClass::Achieve,
                "The Arbiter shall never select the forward features in \
                 backward motion.",
                for_each_feature(
                    &forward_features,
                    "probe.backward -> (arbiter.accel_source != '{X}' && \
                     arbiter.steering_source != '{X}')",
                ),
            )),
            feature_subgoals: forward_features
                .iter()
                .map(|f| {
                    (
                        *f,
                        goal(
                            "Achieve[BackwardBlockAccelSteeringRequest]",
                            GoalClass::Achieve,
                            "The feature shall not request control in \
                             backward motion.",
                            p(&format!(
                                "probe.backward -> !{}.active",
                                f.to_lowercase()
                            )),
                        ),
                    )
                })
                .collect(),
        },
        GoalSpec {
            id: "9",
            goal: goal(
                "Achieve[DriverBackwardAccelOverride]",
                GoalClass::Achieve,
                "In backward motion with a pedal applied, a subsystem not \
                 requesting a hard stop (≤ 2 m/s²) shall not control \
                 acceleration.",
                for_each_feature(
                    &all,
                    "(probe.backward && probe.pedal_applied && {x}.requests_accel \
                     && {x}.accel_request <= 2.0) -> arbiter.accel_source != '{X}'",
                ),
            ),
            arbiter_subgoal: Some(goal(
                "Achieve[DriverBackwardAccelOverrideAccelCommand]",
                GoalClass::Achieve,
                "The Arbiter shall not select an overridable feature while \
                 a pedal is applied in backward motion.",
                for_each_feature(
                    &all,
                    "(probe.backward && probe.pedal_applied && {x}.requests_accel \
                     && {x}.accel_request <= 2.0) -> arbiter.accel_source != '{X}'",
                ),
            )),
            feature_subgoals: all
                .iter()
                .map(|f| {
                    (
                        *f,
                        goal(
                            "Achieve[DriverBackwardAccelOverrideAccelRequest]",
                            GoalClass::Achieve,
                            "The feature shall cease requesting control \
                             under a driver pedal in backward motion.",
                            p(&format!(
                                "(probe.backward && probe.pedal_applied && \
                                 {x}.accel_request <= 2.0) -> !{x}.active",
                                x = f.to_lowercase()
                            )),
                        ),
                    )
                })
                .collect(),
        },
    ]
}

/// Assembles the hierarchical monitor suite of Table 5.3 against the
/// substrate's shared signal table: every goal at the `Vehicle` location,
/// every `A` subgoal at `Arbiter`, every `B` subgoal at its feature. All
/// formula variable references resolve to signal ids at compile time.
///
/// Subgoal ids follow `"<n>A"` and `"<n>B:<FEATURE>"`.
///
/// # Errors
///
/// Propagates [`EvalError`] if any formula fails to compile or references
/// a signal outside the table (a programming error in the goal tables;
/// exercised in tests).
pub fn build_suite(
    table: &Arc<SignalTable>,
    params: &VehicleParams,
) -> Result<MonitorSuite, EvalError> {
    let mut suite = MonitorSuite::new(table.clone());
    for spec in specs(params) {
        suite.add_goal(
            spec.id,
            Location::new("Vehicle"),
            spec.goal.formal().clone(),
        )?;
        if let Some(a) = &spec.arbiter_subgoal {
            suite.add_subgoal(
                format!("{}A", spec.id),
                spec.id,
                Location::new("Arbiter"),
                a.formal().clone(),
            )?;
        }
        for (feature, g) in &spec.feature_subgoals {
            suite.add_subgoal(
                format!("{}B:{}", spec.id, feature),
                spec.id,
                Location::new(*feature),
                g.formal().clone(),
            )?;
        }
    }
    Ok(suite)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_goals_with_expected_subgoal_counts() {
        let specs = specs(&VehicleParams::default());
        assert_eq!(specs.len(), 9);
        let by_id: Vec<(usize, usize)> = specs
            .iter()
            .map(|s| {
                (
                    usize::from(s.arbiter_subgoal.is_some()),
                    s.feature_subgoals.len(),
                )
            })
            .collect();
        // goals 1,2,4,5,9: A + 5 feature subgoals; 3: A only;
        // 6: A + 2; 7: A + 1; 8: A + 3.
        assert_eq!(
            by_id,
            vec![
                (1, 5),
                (1, 5),
                (1, 0),
                (1, 5),
                (1, 5),
                (1, 2),
                (1, 1),
                (1, 3),
                (1, 5)
            ]
        );
    }

    #[test]
    fn suite_builds_and_matches_matrix_shape() {
        let (table, _sigs) = sig::vehicle_table();
        let suite = build_suite(&table, &VehicleParams::default()).unwrap();
        assert_eq!(suite.goal_ids().len(), 9);
        // 9 goals + 9 A-subgoals + (5+5+0+5+5+2+1+3+5)=31 B-subgoals = 49.
        assert_eq!(suite.location_matrix().len(), 49);
        assert_eq!(suite.subgoal_ids("1").len(), 6);
        assert_eq!(suite.subgoal_ids("3"), vec!["3A"]);
        assert_eq!(suite.subgoal_ids("7"), vec!["7A", "7B:RCA"]);
    }

    #[test]
    fn goal_one_formula_references_probe_and_plant() {
        let specs = specs(&VehicleParams::default());
        let vars = specs[0].goal.vars();
        assert!(vars.contains("probe.auto_accel_source"));
        assert!(vars.contains("host.accel"));
    }

    #[test]
    fn goal_three_covers_all_features() {
        let specs = specs(&VehicleParams::default());
        let text = specs[2].goal.formal().to_string();
        for f in sig::FEATURES {
            assert!(text.contains(&format!("'{f}'")), "missing {f}");
        }
    }

    #[test]
    fn goal_cards_render_in_kaos_format() {
        let specs = specs(&VehicleParams::default());
        let card = esafe_core::render::goal_card(&specs[3].goal);
        assert!(card.contains("Achieve[NoAutoAccelFromStop]"));
        assert!(card.contains("held_for"));
    }
}
