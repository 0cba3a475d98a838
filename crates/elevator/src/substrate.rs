//! The elevator's [`Substrate`] implementation: one seed × fault
//! configuration, runnable under the generic experiment harness.

use crate::faults::ElevatorFaults;
use crate::model::{self, ElevatorParams, ElevatorSigs};
use crate::{build_elevator_batch, goals, ElevatorLaneConfig};
use esafe_harness::Substrate;
use esafe_logic::{EvalError, SignalId, SignalTable};
use esafe_monitor::{MonitorSuite, SuiteTemplate};
use esafe_sim::SimulatorBatch;
use std::sync::Arc;

/// The compile-once artifacts of the elevator substrate *family*: the
/// shared [`SignalTable`] (sized by the floor count), its resolved
/// [`ElevatorSigs`], and the [`SuiteTemplate`] holding every Chapter 4
/// goal/subgoal formula compiled against that table.
///
/// A seed or fault sweep builds one family and derives each cell via
/// [`ElevatorFamily::substrate`], sharing one namespace and one compiled
/// suite across all cells. Standalone [`ElevatorSubstrate::new`] still
/// self-compiles — the reference path the template-backed sweep is
/// tested against.
#[derive(Debug, Clone)]
pub struct ElevatorFamily {
    params: ElevatorParams,
    table: Arc<SignalTable>,
    sigs: ElevatorSigs,
    template: Arc<SuiteTemplate>,
}

impl ElevatorFamily {
    /// Builds the family for the given parameters: constructs the signal
    /// table and compiles the monitor suite once.
    ///
    /// # Panics
    ///
    /// Panics if a goal formula fails to compile — the goal tables are
    /// static, so this is a programming error caught by any test.
    pub fn new(params: ElevatorParams) -> Self {
        let (table, sigs) = model::elevator_table(&params);
        let template = Arc::new(
            goals::build_suite(&table, &params)
                .expect("elevator goal tables compile against the elevator signal table")
                .template(),
        );
        ElevatorFamily {
            params,
            table,
            sigs,
            template,
        }
    }

    /// The family's parameters.
    pub fn params(&self) -> &ElevatorParams {
        &self.params
    }

    /// The family's shared signal namespace.
    pub fn table(&self) -> &Arc<SignalTable> {
        &self.table
    }

    /// The family's resolved signal ids.
    pub fn sigs(&self) -> &ElevatorSigs {
        &self.sigs
    }

    /// The compile-once goal/subgoal suite template.
    pub fn template(&self) -> &Arc<SuiteTemplate> {
        &self.template
    }

    /// Derives one cell's substrate: shares the family's table, signal
    /// ids, parameters, and suite template, with the same defaults as
    /// [`ElevatorSubstrate::new`] (two simulated minutes, car
    /// position/door/weight series tracked).
    pub fn substrate(&self, faults: ElevatorFaults, seed: u64) -> ElevatorSubstrate {
        ElevatorSubstrate {
            params: self.params,
            faults,
            seed,
            ticks: DEFAULT_TICKS,
            label: None,
            table: self.table.clone(),
            sigs: self.sigs.clone(),
            tracked: default_tracked(&self.sigs),
            template: Some(Arc::clone(&self.template)),
        }
    }
}

/// The default schedule: two simulated minutes at the 10 ms tick.
const DEFAULT_TICKS: u64 = 12_000;

/// The default figure series: car position, door position, load.
fn default_tracked(sigs: &ElevatorSigs) -> Vec<SignalId> {
    vec![sigs.position, sigs.door_position, sigs.elevator_weight]
}

impl Default for ElevatorFamily {
    fn default() -> Self {
        Self::new(ElevatorParams::default())
    }
}

/// One monitored elevator run: the Chapter 4 substrate under randomized
/// passenger traffic (driven by `seed`) and an [`ElevatorFaults`]
/// configuration.
///
/// The substrate builds its [`SignalTable`] once at construction (the
/// floor count sizes the call/button signal groups); every simulator,
/// monitor suite, and sweep cell derived from it shares that table.
///
/// The elevator's monitors read the plant blackboard directly (its
/// derived signals are produced by the sensor models inside the
/// simulation), so the default [`Substrate::observe_lane`], which
/// observes the raw state unchanged, applies, and there is no terminal
/// event — runs always complete their schedule.
///
/// # Example
///
/// ```
/// use esafe_elevator::faults::ElevatorFaults;
/// use esafe_elevator::substrate::ElevatorSubstrate;
/// use esafe_harness::Experiment;
///
/// let substrate = ElevatorSubstrate::new(ElevatorFaults::none(), 42)
///     .with_ticks(3000);
/// let report = Experiment::new(&substrate).run().unwrap();
/// assert!(!report.correlation.any_violations());
/// ```
#[derive(Debug, Clone)]
pub struct ElevatorSubstrate {
    /// Physical and control constants; set through
    /// [`ElevatorSubstrate::with_params`], which rebuilds the table to
    /// match, so cells sharing a table share their parameters.
    params: ElevatorParams,
    /// The injected fault configuration.
    pub faults: ElevatorFaults,
    /// Seed for the deterministic passenger traffic.
    pub seed: u64,
    /// Scheduled run length in ticks of the substrate's own period (so
    /// the schedule stays `ticks` long no matter when `with_params`
    /// changes `dt_millis`).
    pub ticks: u64,
    /// Label override; defaults to `seed-<seed>` when `None`.
    pub label: Option<String>,
    table: Arc<SignalTable>,
    sigs: ElevatorSigs,
    tracked: Vec<SignalId>,
    /// The family's compile-once suite template, when this substrate was
    /// derived from an [`ElevatorFamily`]; `None` self-compiles per run.
    template: Option<Arc<SuiteTemplate>>,
}

impl ElevatorSubstrate {
    /// Creates a substrate with default parameters, two simulated minutes
    /// of traffic (12 000 ticks of 10 ms), and the car position/door
    /// series tracked. The signal table is constructed here, once.
    pub fn new(faults: ElevatorFaults, seed: u64) -> Self {
        let params = ElevatorParams::default();
        let (table, sigs) = model::elevator_table(&params);
        let tracked = default_tracked(&sigs);
        ElevatorSubstrate {
            params,
            faults,
            seed,
            ticks: DEFAULT_TICKS,
            label: None,
            table,
            sigs,
            tracked,
            template: None,
        }
    }

    /// The substrate's resolved signal ids.
    pub fn sigs(&self) -> &ElevatorSigs {
        &self.sigs
    }

    /// The physical and control constants.
    pub fn params(&self) -> &ElevatorParams {
        &self.params
    }

    /// Overrides the report label (sweep cells over fault configurations
    /// at a fixed seed need distinct labels).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Replaces the elevator parameters, rebuilding the signal table (the
    /// floor count shapes the namespace). The configured tracked series
    /// carry over by name; a tracked per-floor signal that no longer
    /// exists (fewer floors) is dropped, and any family suite template
    /// (compiled against the old table) is dropped with it.
    pub fn with_params(mut self, params: ElevatorParams) -> Self {
        self.params = params;
        let (table, sigs) = model::elevator_table(&params);
        self.tracked = self
            .tracked
            .iter()
            .filter_map(|&id| table.id(self.table.name(id)))
            .collect();
        self.table = table;
        self.sigs = sigs;
        self.template = None;
        self
    }

    /// Sets the schedule as a tick count.
    pub fn with_ticks(mut self, ticks: u64) -> Self {
        self.ticks = ticks;
        self
    }

    /// Sets, by name, the signals whose series a run that records its
    /// frames reports ([`RunReport::series`](esafe_harness::RunReport::series)).
    ///
    /// # Panics
    ///
    /// Panics on a name outside the elevator signal table.
    pub fn with_tracked(mut self, tracked: impl IntoIterator<Item = impl AsRef<str>>) -> Self {
        self.tracked = self.table.resolve_all(tracked);
        self
    }
}

impl Substrate for ElevatorSubstrate {
    fn name(&self) -> &str {
        "elevator"
    }

    fn label(&self) -> String {
        self.label
            .clone()
            .unwrap_or_else(|| format!("seed-{}", self.seed))
    }

    fn duration_ms(&self) -> u64 {
        self.ticks * self.params.dt_millis
    }

    fn signal_table(&self) -> &Arc<SignalTable> {
        &self.table
    }

    fn build_monitors(&self) -> Result<MonitorSuite, EvalError> {
        goals::build_suite(&self.table, &self.params)
    }

    /// One batch over the first cell's parameters. The group shares one
    /// signal table, and only [`ElevatorSubstrate::with_params`] changes
    /// the parameters, rebuilding the table with them, so every member
    /// carries the same parameters.
    fn build_simulator_batch(group: &[&Self]) -> SimulatorBatch {
        let first = group[0];
        debug_assert!(
            group.iter().all(|s| s.params == first.params),
            "a stripe's cells share one table, hence one set of parameters"
        );
        let configs: Vec<ElevatorLaneConfig> = group
            .iter()
            .map(|s| ElevatorLaneConfig {
                faults: s.faults,
                seed: s.seed,
            })
            .collect();
        build_elevator_batch(first.params, &configs, &first.table, &first.sigs)
    }

    fn suite_template(&self) -> Option<&Arc<SuiteTemplate>> {
        self.template.as_ref()
    }

    fn tracked_signals(&self) -> &[SignalId] {
        &self.tracked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esafe_harness::Experiment;

    #[test]
    fn schedule_respects_the_ten_ms_tick() {
        let substrate = ElevatorSubstrate::new(ElevatorFaults::none(), 1).with_ticks(500);
        let report = Experiment::new(&substrate).run().unwrap();
        assert_eq!(report.dt_millis, 10);
        assert_eq!(report.scheduled_ticks, 500);
        assert_eq!(report.ticks, 500);
        assert!((report.end_time_s - 5.0).abs() < 1e-12);
    }

    #[test]
    fn label_defaults_to_seed_and_can_be_overridden() {
        let default = ElevatorSubstrate::new(ElevatorFaults::none(), 42);
        assert_eq!(Substrate::label(&default), "seed-42");
        let named = default.with_label("ebrake-dead");
        assert_eq!(Substrate::label(&named), "ebrake-dead");
    }

    #[test]
    fn schedule_is_independent_of_builder_order() {
        let params = ElevatorParams {
            dt_millis: 20,
            ..ElevatorParams::default()
        };
        let ticks_first = ElevatorSubstrate::new(ElevatorFaults::none(), 1)
            .with_ticks(1000)
            .with_params(params);
        let params_first = ElevatorSubstrate::new(ElevatorFaults::none(), 1)
            .with_params(params)
            .with_ticks(1000);
        assert_eq!(Substrate::duration_ms(&ticks_first), 20_000);
        assert_eq!(
            Substrate::duration_ms(&ticks_first),
            Substrate::duration_ms(&params_first)
        );
    }

    #[test]
    fn with_params_preserves_configured_tracked_signals() {
        let params = ElevatorParams {
            dt_millis: 20,
            ..ElevatorParams::default()
        };
        let substrate = ElevatorSubstrate::new(ElevatorFaults::none(), 1)
            .with_tracked([crate::model::DOOR_CLOSED])
            .with_params(params);
        assert_eq!(substrate.tracked.len(), 1);
        assert_eq!(
            substrate.signal_table().name(substrate.tracked[0]),
            crate::model::DOOR_CLOSED
        );
    }

    #[test]
    fn family_substrates_match_standalone_substrates() {
        let family = ElevatorFamily::default();
        let faults = crate::faults::ElevatorFaults {
            drive_ignores_door: true,
            ..crate::faults::ElevatorFaults::none()
        };
        let standalone = ElevatorSubstrate::new(faults, 7).with_ticks(3000);
        let derived = family.substrate(faults, 7).with_ticks(3000);
        assert!(derived.suite_template().is_some());
        let a = Experiment::new(&standalone).run().unwrap();
        let b = Experiment::new(&derived).run().unwrap();
        assert_eq!(a, b, "template-backed run must match self-compiled run");
    }

    #[test]
    fn with_params_drops_the_family_template() {
        let family = ElevatorFamily::default();
        let params = crate::model::ElevatorParams {
            dt_millis: 20,
            ..crate::model::ElevatorParams::default()
        };
        let tweaked = family
            .substrate(crate::faults::ElevatorFaults::none(), 1)
            .with_params(params);
        assert!(
            tweaked.suite_template().is_none(),
            "the old table's compiled goals cannot monitor the new table"
        );
    }

    #[test]
    fn tracked_series_capture_the_car() {
        let substrate = ElevatorSubstrate::new(ElevatorFaults::none(), 7).with_ticks(2000);
        let report = Experiment::new(&substrate)
            .with_frame_recording(true)
            .run()
            .unwrap();
        let positions = report.series.series(crate::model::POSITION).unwrap();
        assert_eq!(positions.len(), 2000);
    }
}
