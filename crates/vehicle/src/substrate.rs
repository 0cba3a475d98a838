//! The vehicle's [`Substrate`] implementation: one scenario × defect
//! configuration, runnable under the generic experiment harness.

use crate::builder::{build_vehicle, build_vehicle_batch, VehicleLaneConfig};
use crate::config::{DefectSet, VehicleParams};
use crate::driver::DriverAction;
use crate::dynamics::Scene;
use crate::signals::{vehicle_table, VehicleSigs};
use crate::{goals, probe};
use esafe_harness::Substrate;
use esafe_logic::{EvalError, Frame, FrameBatch, SignalId, SignalTable};
use esafe_monitor::{MonitorSuite, SuiteTemplate};
use esafe_sim::{Simulator, SimulatorBatch};
use std::sync::Arc;

/// The compile-once artifacts of the vehicle substrate *family*: the
/// shared [`SignalTable`], its resolved [`VehicleSigs`], and the
/// [`SuiteTemplate`] holding every Table 5.3 goal/subgoal formula
/// compiled against that table.
///
/// A sweep builds one family up front and derives each cell's substrate
/// from it with [`VehicleFamily::substrate`]: every cell then shares one
/// namespace and one compiled goal suite, so per-cell setup is
/// O(monitors) instead of re-parsing ~49 formulas. Standalone
/// [`VehicleSubstrate::new`] still self-compiles — the reference path
/// the template-backed sweep is golden-tested against.
#[derive(Debug, Clone)]
pub struct VehicleFamily {
    params: VehicleParams,
    table: Arc<SignalTable>,
    sigs: VehicleSigs,
    template: Arc<SuiteTemplate>,
}

impl VehicleFamily {
    /// Builds the family for the given parameters: constructs the signal
    /// table and compiles the full monitor suite once.
    ///
    /// # Panics
    ///
    /// Panics if a goal formula fails to compile — the goal tables are
    /// static, so this is a programming error caught by any test.
    pub fn new(params: VehicleParams) -> Self {
        let (table, sigs) = vehicle_table();
        let template = Arc::new(
            goals::build_suite(&table, &params)
                .expect("vehicle goal tables compile against the vehicle signal table")
                .template(),
        );
        VehicleFamily {
            params,
            table,
            sigs,
            template,
        }
    }

    /// The family's parameters.
    pub fn params(&self) -> &VehicleParams {
        &self.params
    }

    /// The family's shared signal namespace.
    pub fn table(&self) -> &Arc<SignalTable> {
        &self.table
    }

    /// The compile-once goal/subgoal suite template.
    pub fn template(&self) -> &Arc<SuiteTemplate> {
        &self.template
    }

    /// Derives one cell's substrate: shares the family's table, signal
    /// ids, parameters, and suite template (`Arc` clones — no namespace
    /// or formula work).
    pub fn substrate(
        &self,
        defects: DefectSet,
        scene: Scene,
        script: Vec<(f64, DriverAction)>,
    ) -> VehicleSubstrate {
        VehicleSubstrate {
            params: self.params,
            defects,
            scene,
            script,
            duration_s: DEFAULT_DURATION_S,
            label: DEFAULT_LABEL.to_owned(),
            table: self.table.clone(),
            sigs: self.sigs,
            tracked: Vec::new(),
            template: Some(Arc::clone(&self.template)),
        }
    }
}

/// The default schedule: every thesis scenario runs 20 s.
const DEFAULT_DURATION_S: f64 = 20.0;

/// The default report label before [`VehicleSubstrate::with_label`].
const DEFAULT_LABEL: &str = "vehicle";

impl Default for VehicleFamily {
    fn default() -> Self {
        Self::new(VehicleParams::default())
    }
}

/// One monitored vehicle run: the Chapter 5 substrate under a scene, a
/// scripted driver, and a [`DefectSet`].
///
/// The substrate builds the vehicle [`SignalTable`] once at construction;
/// every simulator it assembles, every monitor suite it compiles, and
/// every sweep cell cloned from it shares that table (cloning a substrate
/// clones an `Arc`, not the namespace).
///
/// # Example
///
/// ```
/// use esafe_harness::Experiment;
/// use esafe_vehicle::config::DefectSet;
/// use esafe_vehicle::driver::DriverAction;
/// use esafe_vehicle::dynamics::{Scene, SceneObject};
/// use esafe_vehicle::substrate::VehicleSubstrate;
///
/// let scene = Scene {
///     lead: Some(SceneObject::constant(20.0, 0.0)),
///     rear: None,
/// };
/// let script = vec![
///     (0.5, DriverAction::Enable("CA".into(), true)),
///     (1.0, DriverAction::Throttle(0.10)),
/// ];
/// let substrate = VehicleSubstrate::new(DefectSet::thesis(), scene, script)
///     .with_label("defective-ca")
///     .with_duration_s(20.0);
/// let report = Experiment::new(&substrate).run().unwrap();
/// // The thesis vehicle strikes the parked object and terminates early.
/// assert_eq!(report.terminal_event.as_deref(), Some("collision"));
/// assert!(report.terminated_early);
/// ```
#[derive(Debug, Clone)]
pub struct VehicleSubstrate {
    /// Physical and control constants.
    pub params: VehicleParams,
    /// The injected defect configuration.
    pub defects: DefectSet,
    /// Scene objects around the host.
    pub scene: Scene,
    /// Scheduled driver/HMI actions.
    pub script: Vec<(f64, DriverAction)>,
    /// Scheduled run length, s.
    pub duration_s: f64,
    /// Configuration label used in reports.
    pub label: String,
    table: Arc<SignalTable>,
    sigs: VehicleSigs,
    tracked: Vec<SignalId>,
    /// The family's compile-once suite template, when this substrate was
    /// derived from a [`VehicleFamily`]; `None` self-compiles per run.
    template: Option<Arc<SuiteTemplate>>,
}

impl VehicleSubstrate {
    /// Creates a substrate with default parameters, a 20 s schedule (every
    /// thesis scenario's length), and no tracked signals. The signal table
    /// is constructed here, once.
    pub fn new(defects: DefectSet, scene: Scene, script: Vec<(f64, DriverAction)>) -> Self {
        let (table, sigs) = vehicle_table();
        VehicleSubstrate {
            params: VehicleParams::default(),
            defects,
            scene,
            script,
            duration_s: DEFAULT_DURATION_S,
            label: DEFAULT_LABEL.to_owned(),
            table,
            sigs,
            tracked: Vec::new(),
            template: None,
        }
    }

    /// The substrate's resolved signal ids.
    pub fn sigs(&self) -> &VehicleSigs {
        &self.sigs
    }

    /// Replaces the vehicle parameters. Goal thresholds derive from the
    /// parameters, so any family suite template no longer applies and is
    /// dropped — the substrate self-compiles its monitors again.
    pub fn with_params(mut self, params: VehicleParams) -> Self {
        self.params = params;
        self.template = None;
        self
    }

    /// Sets the scheduled run length in seconds.
    pub fn with_duration_s(mut self, duration_s: f64) -> Self {
        self.duration_s = duration_s;
        self
    }

    /// Sets, by name (resolved to ids immediately), the signals whose
    /// series a run that records its frames reports
    /// ([`RunReport::series`](esafe_harness::RunReport::series)).
    ///
    /// # Panics
    ///
    /// Panics on a name outside the vehicle signal table — tracked-signal
    /// typos should fail at configuration time, not mid-run.
    pub fn with_tracked(mut self, tracked: impl IntoIterator<Item = impl AsRef<str>>) -> Self {
        self.tracked = self.table.resolve_all(tracked);
        self
    }

    /// Sets the configuration label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

impl Substrate for VehicleSubstrate {
    fn name(&self) -> &str {
        "vehicle"
    }

    fn label(&self) -> String {
        self.label.clone()
    }

    fn duration_ms(&self) -> u64 {
        (self.duration_s * 1000.0).round() as u64
    }

    fn signal_table(&self) -> &Arc<SignalTable> {
        &self.table
    }

    fn build_simulator(&self) -> Simulator {
        build_vehicle(
            self.params,
            self.defects,
            self.scene,
            self.script.clone(),
            &self.table,
            &self.sigs,
        )
    }

    /// The native batched builder: one [`SimulatorBatch`] whose lane `l`
    /// is `group[l]`'s configuration, stepping the whole stripe in
    /// lane-major loops instead of per-lane boxed-subsystem dispatch.
    fn build_simulator_batch(group: &[&Self]) -> Option<SimulatorBatch> {
        let first = group.first()?;
        let lanes: Vec<VehicleLaneConfig> = group
            .iter()
            .map(|s| VehicleLaneConfig {
                params: s.params,
                defects: s.defects,
                scene: s.scene,
                script: s.script.clone(),
            })
            .collect();
        Some(build_vehicle_batch(&lanes, &first.table, &first.sigs))
    }

    fn build_monitors(&self) -> Result<MonitorSuite, EvalError> {
        goals::build_suite(&self.table, &self.params)
    }

    fn suite_template(&self) -> Option<&Arc<SuiteTemplate>> {
        self.template.as_ref()
    }

    /// The monitors and figures read the probe-derived signals, not the
    /// raw blackboard: copy the raw frame and write the `probe.*` slots.
    fn observe(&self, raw: &Frame, observed: &mut Frame) {
        observed.copy_from(raw);
        probe::derive_into(observed, &self.sigs, &self.params);
    }

    /// Batched observation runs the probe derivation **in place** on the
    /// lane: probes are observation-only (no subsystem reads `probe.*`,
    /// and `hmi.go` is only defaulted when unset), so writing them into
    /// the live state slab is safe and skips both per-lane frame copies.
    fn observe_lane(
        &self,
        slab: &mut FrameBatch,
        lane: usize,
        _raw: &mut Frame,
        _observed: &mut Frame,
    ) {
        probe::derive_lane(&mut slab.lane_mut(lane), &self.sigs, &self.params);
    }

    /// A forward or rear collision aborts the run after the grace window
    /// (the thesis's CarSim early termination).
    fn terminal_event(&self, observed: &Frame) -> Option<&'static str> {
        if observed.bool_or(self.sigs.collision, false) {
            Some("collision")
        } else if observed.bool_or(self.sigs.rear_collision, false) {
            Some("rear_collision")
        } else {
            None
        }
    }

    /// Two direct slab reads — no per-lane frame copy.
    fn terminal_event_lane(
        &self,
        slab: &FrameBatch,
        lane: usize,
        _scratch: &mut Frame,
    ) -> Option<&'static str> {
        if slab.bool_or(self.sigs.collision, lane, false) {
            Some("collision")
        } else if slab.bool_or(self.sigs.rear_collision, lane, false) {
            Some("rear_collision")
        } else {
            None
        }
    }

    fn tracked_signals(&self) -> &[SignalId] {
        &self.tracked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::SceneObject;
    use esafe_harness::Experiment;

    fn parked_ahead() -> Scene {
        Scene {
            lead: Some(SceneObject::constant(20.0, 0.0)),
            rear: None,
        }
    }

    fn creep_script() -> Vec<(f64, DriverAction)> {
        vec![
            (0.5, DriverAction::Enable("CA".into(), true)),
            (1.0, DriverAction::Throttle(0.10)),
        ]
    }

    #[test]
    fn healthy_vehicle_never_terminates_early() {
        let substrate = VehicleSubstrate::new(DefectSet::none(), parked_ahead(), creep_script());
        let report = Experiment::new(&substrate).run().unwrap();
        assert!(report.terminal_event.is_none());
        assert!(!report.terminated_early);
        assert_eq!(report.ticks, 20_000, "1 kHz × 20 s");
        assert!(!report.any_violations());
    }

    #[test]
    fn thesis_defects_collide_and_are_localized() {
        let substrate = VehicleSubstrate::new(DefectSet::thesis(), parked_ahead(), creep_script())
            .with_tracked(["host.speed"]);
        let report = Experiment::new(&substrate)
            .with_frame_recording(true)
            .run()
            .unwrap();
        assert_eq!(report.terminal_event.as_deref(), Some("collision"));
        assert!(report.terminated_early);
        assert!(!report.violations_for("4B:PA").is_empty());
        assert!(!report.series.downsample("host.speed", 16).is_empty());
    }

    #[test]
    fn family_substrates_match_standalone_substrates() {
        let family = VehicleFamily::default();
        let standalone = VehicleSubstrate::new(DefectSet::thesis(), parked_ahead(), creep_script())
            .with_tracked(["host.speed"]);
        let derived = family
            .substrate(DefectSet::thesis(), parked_ahead(), creep_script())
            .with_tracked(["host.speed"]);
        assert!(derived.suite_template().is_some());
        assert!(standalone.suite_template().is_none());
        let a = Experiment::new(&standalone).run().unwrap();
        let b = Experiment::new(&derived).run().unwrap();
        assert_eq!(a, b, "template-backed run must match self-compiled run");
    }

    #[test]
    fn with_params_drops_the_family_template() {
        let family = VehicleFamily::default();
        let tweaked = family
            .substrate(DefectSet::none(), parked_ahead(), vec![])
            .with_params(crate::config::VehicleParams {
                accel_limit: 1.0,
                ..crate::config::VehicleParams::default()
            });
        assert!(
            tweaked.suite_template().is_none(),
            "parameter overrides invalidate the family's compiled goals"
        );
    }

    #[test]
    #[should_panic(expected = "unknown tracked signal")]
    fn tracked_signal_typos_fail_fast() {
        let _ = VehicleSubstrate::new(DefectSet::none(), parked_ahead(), vec![])
            .with_tracked(["host.sped"]);
    }
}
