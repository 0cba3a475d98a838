//! One configured run: the generic simulate → observe → correlate
//! experiment, run as a one-lane stripe of the harness's tick loop.

use crate::batch::run_stripe;
use crate::context::{RunContext, SuiteProvenance};
use crate::journal::JournalError;
use crate::substrate::Substrate;
use esafe_logic::{EvalError, FrameTrace};
use esafe_monitor::{CorrelationReport, MonitorError, ViolationInterval};
use esafe_sim::SeriesLog;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Timing policy of an experiment, expressed in **milliseconds** so the
/// same configuration applies to substrates with different tick periods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// How long after a terminal event the environment keeps producing
    /// states before aborting ("early termination", thesis §5.4.1:
    /// violations were observed up to ~100 ms before the termination
    /// point).
    pub post_terminal_ms: u64,
    /// Correlation window for hit/false-positive/false-negative
    /// classification. Covers the actuation lag between a command-level
    /// subgoal violation and its plant-level consequence.
    pub correlation_window_ms: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            post_terminal_ms: 100,
            correlation_window_ms: 250,
        }
    }
}

/// An error raised while preparing or running an experiment.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentError {
    /// A goal formula failed to compile into a monitor.
    Compile(EvalError),
    /// A monitor referenced a signal missing from the observed state.
    Monitor(MonitorError),
    /// The run's watchdog tick budget ([`Experiment::with_tick_budget`])
    /// elapsed with the run still live — the sweep-level quarantine
    /// treats this as a runaway cell.
    TickBudget {
        /// The budget that was exceeded, in ticks.
        budget: u64,
    },
    /// A sweep checkpoint journal failed — an I/O error, a corrupt
    /// header, or a journal that does not describe this sweep.
    Journal(JournalError),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Compile(e) => write!(f, "goal compilation failed: {e}"),
            ExperimentError::Monitor(e) => write!(f, "monitoring failed: {e}"),
            ExperimentError::TickBudget { budget } => {
                write!(f, "run exceeded its watchdog tick budget of {budget} ticks")
            }
            ExperimentError::Journal(e) => write!(f, "sweep journal failed: {e}"),
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Compile(e) => Some(e),
            ExperimentError::Monitor(e) => Some(e),
            ExperimentError::Journal(e) => Some(e),
            ExperimentError::TickBudget { .. } => None,
        }
    }
}

impl From<EvalError> for ExperimentError {
    fn from(e: EvalError) -> Self {
        ExperimentError::Compile(e)
    }
}

impl From<JournalError> for ExperimentError {
    fn from(e: JournalError) -> Self {
        ExperimentError::Journal(e)
    }
}

impl From<MonitorError> for ExperimentError {
    fn from(e: MonitorError) -> Self {
        ExperimentError::Monitor(e)
    }
}

/// The substrate-independent outcome of one monitored run.
///
/// The series and the frame recording are skipped during serialization
/// (figure series run to hundreds of kilobytes); a deserialized report
/// carries neither, and everything else round-trips.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// The substrate family (e.g. `"vehicle"`).
    pub substrate: String,
    /// The configuration label (e.g. `"scenario-1"`).
    pub label: String,
    /// The timing policy the run was classified under.
    pub config: ExperimentConfig,
    /// Simulator tick period, ms.
    pub dt_millis: u64,
    /// Ticks the run was scheduled for. A report replayed from a trace
    /// corpus carries the recorded tick count here: the archive stores
    /// no schedule.
    pub scheduled_ticks: u64,
    /// Ticks actually executed.
    pub ticks: u64,
    /// Simulated end of the run, s: the simulator clock after its last
    /// executed tick (`ticks × dt_millis`).
    pub end_time_s: f64,
    /// Whether the run aborted before its schedule.
    pub terminated_early: bool,
    /// The terminal event that aborted the run, if any.
    pub terminal_event: Option<String>,
    /// Violations per monitor id (monitors with none omitted).
    pub violations: Vec<(String, Vec<ViolationInterval>)>,
    /// Hit / false-positive / false-negative classification.
    pub correlation: CorrelationReport,
    /// The series of the substrate's
    /// [`tracked_signals`](Substrate::tracked_signals), read from the
    /// frame recording after the run (not serialized). Empty unless the
    /// run recorded frames ([`Experiment::with_frame_recording`]).
    #[serde(skip)]
    pub series: SeriesLog,
    /// The full observed-frame recording, when the experiment ran with
    /// [`Experiment::with_frame_recording`] (not serialized — a 20 s
    /// vehicle run is ~20 000 frames × ~60 signals). Replay it through
    /// a different goal suite (`MonitorSuite::replay`) to re-monitor
    /// the run offline without re-simulating.
    #[serde(skip)]
    pub trace: Option<FrameTrace>,
}

impl RunReport {
    /// Violation intervals for a monitor id.
    pub fn violations_for(&self, id: &str) -> &[ViolationInterval] {
        self.violations
            .iter()
            .find(|(mid, _)| mid == id)
            .map(|(_, v)| v.as_slice())
            .unwrap_or(&[])
    }

    /// Whether any monitor recorded a violation.
    pub fn any_violations(&self) -> bool {
        !self.violations.is_empty()
    }
}

/// One configured experiment over a substrate.
///
/// Runs the substrate as a one-lane stripe of the harness's one tick
/// loop (the one every sweep stripe runs): advance the simulator (whose
/// subsystems already observe the *previous* tick's snapshot — the
/// thesis's one-tick observation delay), derive the observed state,
/// record it if asked, feed every monitor, and apply early termination
/// after a terminal event.
#[derive(Debug)]
pub struct Experiment<'a, S: Substrate> {
    substrate: &'a S,
    config: ExperimentConfig,
    record_frames: bool,
    tick_budget: Option<u64>,
}

impl<'a, S: Substrate> Experiment<'a, S> {
    /// Creates an experiment with the default timing policy.
    pub fn new(substrate: &'a S) -> Self {
        Experiment {
            substrate,
            config: ExperimentConfig::default(),
            record_frames: false,
            tick_budget: None,
        }
    }

    /// Replaces the timing policy.
    pub fn with_config(mut self, config: ExperimentConfig) -> Self {
        self.config = config;
        self
    }

    /// Arms a watchdog: a run still live after `budget` ticks fails with
    /// [`ExperimentError::TickBudget`] instead of running to its
    /// schedule. The budget is deliberately *not* part of
    /// [`ExperimentConfig`] — it is an execution-policy knob (set by the
    /// sweep quarantine), not a classification policy, and it never
    /// appears in a [`RunReport`]. A run whose schedule fits the budget
    /// is bit-identical to an unbudgeted run.
    pub fn with_tick_budget(mut self, budget: Option<u64>) -> Self {
        self.tick_budget = budget;
        self
    }

    /// Records the full observed-frame stream into the report's
    /// [`RunReport::trace`] (one [`FrameTrace`] column per signal, at
    /// the simulator's tick period). Off by default: recording a 1 kHz
    /// run copies every observed slot each tick and holds every sample
    /// in memory. Switch it on to re-monitor the run offline with new goal
    /// suites — no re-simulation — via `MonitorSuite::replay` or
    /// [`FrameTrace::replay_expr`], and to read the figure series of the
    /// substrate's tracked signals ([`RunReport::series`]).
    pub fn with_frame_recording(mut self, record: bool) -> Self {
        self.record_frames = record;
        self
    }

    /// Runs the experiment to completion.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError`] if a goal formula fails to compile or
    /// references a missing signal.
    pub fn run(&self) -> Result<RunReport, ExperimentError> {
        self.run_in(&mut RunContext::new())
            .map(|(report, _)| report)
    }

    /// Runs the experiment against a pooled [`RunContext`], reusing the
    /// context's monitor suite for template-backed substrates, and
    /// reporting how the run obtained its suite. Reuse is
    /// observationally invisible: the report is bit-identical to
    /// [`Experiment::run`]'s.
    ///
    /// The run is a one-lane stripe: the substrate's batched simulator
    /// built for `&[substrate]` and a one-lane batched suite, stepped by
    /// the same tick loop as every sweep stripe. Each tick the
    /// substrate's [`observe_lane`](Substrate::observe_lane) derivation
    /// writes into the state slab in place, which the recording (when
    /// on) and the monitors read. A recorded run's
    /// [`RunReport::series`] is read from the recording once, after the
    /// run.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError`] if a goal formula fails to compile or
    /// references a missing signal, or if the tick budget elapses.
    pub fn run_in(
        &self,
        ctx: &mut RunContext,
    ) -> Result<(RunReport, SuiteProvenance), ExperimentError> {
        let substrate = self.substrate;
        let (mut suite, provenance) = ctx.take_suite(substrate)?;
        let mut outcome = None;
        run_stripe(
            &[substrate],
            &mut suite,
            self.config,
            self.tick_budget,
            self.record_frames,
            |_, lane| outcome = Some(lane),
        )
        .map_err(|err| ExperimentError::Monitor(err.into_monitor_error()))?;
        // A failed run drops its half-stepped suite instead of pooling it.
        let report = outcome.expect("a one-lane stripe reports one lane")?;
        ctx.put_back(suite, substrate.suite_template());
        Ok((report, provenance))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esafe_logic::{parse, Frame, FrameBatch, SignalId, SignalTable};
    use esafe_monitor::{Location, MonitorSuite};
    use esafe_sim::{LaneSubsystem, LaneVec, SignalRead, SignalWrite, SimTime, SimulatorBatch};
    use std::sync::Arc;

    /// A ramp that climbs by one per tick.
    struct Ramp {
        x: SignalId,
    }

    impl LaneSubsystem for Ramp {
        fn name(&self) -> &str {
            "ramp"
        }
        fn step_lane<R: SignalRead, W: SignalWrite>(
            &mut self,
            _t: &SimTime,
            prev: &R,
            next: &mut W,
        ) {
            next.set(self.x, prev.real_or(self.x, 0.0) + 1.0);
        }
    }

    /// A ramp substrate with a coarse 10 ms tick: hits `x == limit` and
    /// terminates after the grace window.
    struct RampSubstrate {
        limit: f64,
        duration_ms: u64,
        table: Arc<SignalTable>,
        x: SignalId,
        tracked: Vec<SignalId>,
    }

    impl RampSubstrate {
        fn new(limit: f64, duration_ms: u64) -> Self {
            let mut b = SignalTable::builder();
            let x = b.real("x");
            RampSubstrate {
                limit,
                duration_ms,
                table: b.finish(),
                x,
                tracked: vec![x],
            }
        }
    }

    impl Substrate for RampSubstrate {
        fn name(&self) -> &str {
            "ramp"
        }
        fn label(&self) -> String {
            format!("limit-{}", self.limit)
        }
        fn duration_ms(&self) -> u64 {
            self.duration_ms
        }
        fn signal_table(&self) -> &Arc<SignalTable> {
            &self.table
        }
        fn build_simulator_batch(group: &[&Self]) -> SimulatorBatch {
            let mut sim = SimulatorBatch::new(10, &group[0].table, group.len());
            sim.add(LaneVec::from_fn(group.len(), |l| Ramp { x: group[l].x }));
            for (l, sub) in group.iter().enumerate() {
                sim.init_lane_with(l, |f| f.set(sub.x, 0.0));
            }
            sim
        }
        fn build_monitors(&self) -> Result<MonitorSuite, EvalError> {
            let mut suite = MonitorSuite::new(self.table.clone());
            suite.add_goal(
                "bound",
                Location::new("Ramp"),
                parse(&format!("x < {}", self.limit)).expect("valid formula"),
            )?;
            Ok(suite)
        }
        fn terminal_event_lane(
            &self,
            slab: &FrameBatch,
            lane: usize,
            _scratch: &mut Frame,
        ) -> Option<&'static str> {
            (slab.real_or(self.x, lane, 0.0) >= self.limit).then_some("limit")
        }
        fn tracked_signals(&self) -> &[SignalId] {
            &self.tracked
        }
    }

    #[test]
    fn total_ticks_follow_the_substrate_tick_period() {
        // 1 s at a 10 ms tick is 100 ticks, not the 1000 a hardwired
        // 1 kHz loop would schedule.
        let substrate = RampSubstrate::new(1e9, 1000);
        let report = Experiment::new(&substrate).run().unwrap();
        assert_eq!(report.dt_millis, 10);
        assert_eq!(report.scheduled_ticks, 100);
        assert_eq!(report.ticks, 100);
        assert!(!report.terminated_early);
        assert!((report.end_time_s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn terminal_event_aborts_after_the_grace_window() {
        let substrate = RampSubstrate::new(5.0, 10_000);
        let config = ExperimentConfig {
            post_terminal_ms: 100,
            ..ExperimentConfig::default()
        };
        let report = Experiment::new(&substrate)
            .with_config(config)
            .run()
            .unwrap();
        // Limit reached at tick 5; 100 ms grace is 10 ticks at dt=10 ms.
        assert_eq!(report.terminal_event.as_deref(), Some("limit"));
        assert_eq!(report.ticks, 15);
        assert!(report.terminated_early);
        assert_eq!(report.violations_for("bound").len(), 1);
    }

    #[test]
    fn series_are_sampled_from_observed_states() {
        let substrate = RampSubstrate::new(1e9, 50);
        let unrecorded = Experiment::new(&substrate).run().unwrap();
        assert_eq!(
            unrecorded.series,
            SeriesLog::default(),
            "no recording, no series"
        );
        let report = Experiment::new(&substrate)
            .with_frame_recording(true)
            .run()
            .unwrap();
        // The state after tick k is timed at the simulator clock of tick
        // k, one tick later than the recording's own sample time.
        let xs = report.series.series("x").unwrap();
        assert_eq!(xs.len(), 5);
        assert_eq!(xs[0], (0.01, 1.0));
        assert_eq!(xs[4], (0.05, 5.0));
    }

    /// A ramp substrate carrying a prebuilt suite template, as a family
    /// type would.
    struct TemplatedRamp {
        inner: RampSubstrate,
        template: Arc<esafe_monitor::SuiteTemplate>,
    }

    impl TemplatedRamp {
        fn new(limit: f64, duration_ms: u64) -> Self {
            let inner = RampSubstrate::new(limit, duration_ms);
            let template = Arc::new(inner.build_monitors().unwrap().template());
            TemplatedRamp { inner, template }
        }
    }

    impl Substrate for TemplatedRamp {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn label(&self) -> String {
            self.inner.label()
        }
        fn duration_ms(&self) -> u64 {
            self.inner.duration_ms()
        }
        fn signal_table(&self) -> &Arc<SignalTable> {
            self.inner.signal_table()
        }
        fn build_simulator_batch(group: &[&Self]) -> SimulatorBatch {
            let inner: Vec<&RampSubstrate> = group.iter().map(|t| &t.inner).collect();
            RampSubstrate::build_simulator_batch(&inner)
        }
        fn build_monitors(&self) -> Result<MonitorSuite, EvalError> {
            self.inner.build_monitors()
        }
        fn suite_template(&self) -> Option<&Arc<esafe_monitor::SuiteTemplate>> {
            Some(&self.template)
        }
        fn terminal_event_lane(
            &self,
            slab: &FrameBatch,
            lane: usize,
            scratch: &mut Frame,
        ) -> Option<&'static str> {
            self.inner.terminal_event_lane(slab, lane, scratch)
        }
        fn tracked_signals(&self) -> &[SignalId] {
            self.inner.tracked_signals()
        }
    }

    #[test]
    fn pooled_template_runs_match_fresh_compiled_runs() {
        let compiled = RampSubstrate::new(5.0, 10_000);
        let reference = Experiment::new(&compiled).run().unwrap();

        let templated = TemplatedRamp::new(5.0, 10_000);
        let mut ctx = RunContext::new();
        let (first, t1) = Experiment::new(&templated).run_in(&mut ctx).unwrap();
        let (second, t2) = Experiment::new(&templated).run_in(&mut ctx).unwrap();
        assert_eq!(t1, SuiteProvenance::Instantiated);
        assert_eq!(t2, SuiteProvenance::Reused, "worker pool must kick in");
        assert_eq!(first, reference, "template path must match compile path");
        assert_eq!(second, reference, "pooled reuse must be invisible");
    }

    #[test]
    fn run_in_reports_compiled_provenance_without_a_template() {
        let substrate = RampSubstrate::new(5.0, 10_000);
        let mut ctx = RunContext::new();
        let (a, ta) = Experiment::new(&substrate).run_in(&mut ctx).unwrap();
        let (b, tb) = Experiment::new(&substrate).run_in(&mut ctx).unwrap();
        assert_eq!(ta, SuiteProvenance::Compiled);
        assert_eq!(tb, SuiteProvenance::Compiled);
        assert_eq!(
            a, b,
            "a context without a pooled suite must be invisible too"
        );
    }

    #[test]
    fn frame_recording_is_opt_in_and_captures_every_observed_tick() {
        let substrate = RampSubstrate::new(5.0, 10_000);
        let unrecorded = Experiment::new(&substrate).run().unwrap();
        assert!(unrecorded.trace.is_none(), "recording must be opt-in");

        let recorded = Experiment::new(&substrate)
            .with_frame_recording(true)
            .run()
            .unwrap();
        let trace = recorded.trace.as_ref().expect("trace recorded");
        // One sample per executed tick (early termination included),
        // at the simulator's own period.
        assert_eq!(trace.len() as u64, recorded.ticks);
        assert_eq!(trace.tick_millis(), recorded.dt_millis);
        // The recording carries the observed frames: the ramp value at
        // sample i is i+1.
        let x = substrate.table.id("x").unwrap();
        assert_eq!(trace.get(0, x), Some(esafe_logic::Value::Real(1.0)));
        assert_eq!(trace.get(4, x), Some(esafe_logic::Value::Real(5.0)));
        // Everything but the trace and the series read from it matches
        // the unrecorded run.
        assert!(recorded.series.series("x").is_some());
        let stripped = RunReport {
            trace: None,
            series: SeriesLog::default(),
            ..recorded.clone()
        };
        assert_eq!(stripped, unrecorded, "recording must not change the run");
    }

    #[test]
    fn recorded_traces_re_monitor_offline_with_new_goals() {
        use esafe_logic::parse;
        // Record a run monitored with the substrate's own suite…
        let substrate = RampSubstrate::new(5.0, 10_000);
        let recorded = Experiment::new(&substrate)
            .with_frame_recording(true)
            .run()
            .unwrap();
        let trace = recorded.trace.expect("trace recorded");
        // …then evaluate a goal the live run never compiled, offline.
        let verdicts = trace.replay_expr(&parse("x < 3.0").unwrap()).unwrap();
        let violated_at: Vec<usize> = verdicts
            .iter()
            .enumerate()
            .filter_map(|(i, ok)| (!ok).then_some(i))
            .collect();
        // x ramps 1,2,3,…: x < 3 fails from sample index 2 onwards.
        assert_eq!(violated_at.first(), Some(&2));
        assert_eq!(violated_at.len(), trace.len() - 2);
        // And an offline suite replay matches the live suite verdicts.
        let mut offline = substrate.build_monitors().unwrap();
        offline.replay(&trace).unwrap();
        assert_eq!(
            offline.take_violations(),
            recorded.violations,
            "offline re-monitoring must reproduce the live verdicts"
        );
    }

    #[test]
    fn tick_budget_watchdog_aborts_runaway_runs() {
        // 10 s at dt=10 ms schedules 1000 ticks; a 40-tick budget trips.
        let substrate = RampSubstrate::new(1e9, 10_000);
        let err = Experiment::new(&substrate)
            .with_tick_budget(Some(40))
            .run()
            .unwrap_err();
        assert_eq!(err, ExperimentError::TickBudget { budget: 40 });
        assert!(err.to_string().contains("watchdog tick budget of 40"));
    }

    #[test]
    fn tick_budget_covering_the_schedule_is_invisible() {
        let substrate = RampSubstrate::new(5.0, 10_000);
        let unbudgeted = Experiment::new(&substrate).run().unwrap();
        let budgeted = Experiment::new(&substrate)
            .with_tick_budget(Some(10_000))
            .run()
            .unwrap();
        assert_eq!(budgeted, unbudgeted);
    }

    #[test]
    fn reports_round_trip_through_serde_json_without_the_series() {
        let substrate = RampSubstrate::new(5.0, 10_000);
        let report = Experiment::new(&substrate)
            .with_frame_recording(true)
            .run()
            .unwrap();
        assert!(report.series.series("x").is_some());
        // Through actual JSON text — the same path repro.rs uses.
        let json = serde_json::to_string(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.series, SeriesLog::default(), "series is skipped");
        assert!(back.trace.is_none(), "the recording is skipped");
        let stripped = RunReport {
            series: SeriesLog::default(),
            trace: None,
            ..report
        };
        assert_eq!(back, stripped);
    }
}
