//! The [`Substrate`] trait: what a composite system provides to be run
//! under the harness's tick loop.

use esafe_logic::{EvalError, Frame, FrameBatch, SignalId, SignalTable};
use esafe_monitor::{MonitorSuite, SuiteTemplate};
use esafe_sim::SimulatorBatch;
use std::sync::Arc;

/// A monitored composite system: one concrete configuration of one of
/// the thesis's evaluation substrates (or any other system built on
/// [`esafe_sim`]).
///
/// A `Substrate` value fully describes a *single deterministic run* —
/// substrate family, parameters, injected defects, scenario/seed — so
/// that [`Experiment`](crate::Experiment) can execute it and
/// [`Sweep`](crate::Sweep) can fan grids of them across cores.
///
/// The substrate owns its [`SignalTable`]: the namespace is built **once**
/// (at substrate construction) and shared by every simulator, monitor
/// suite, sweep cell, and frame recording derived from it. The per-tick
/// interfaces below — [`Substrate::observe_lane`] and
/// [`Substrate::terminal_event_lane`] — read and write one lane of the
/// simulator's [`SignalId`]-indexed state slab in place, keeping the
/// tick loop free of string lookups, allocation and per-lane copies.
pub trait Substrate {
    /// The substrate family name (e.g. `"vehicle"`, `"elevator"`).
    fn name(&self) -> &str;

    /// A label identifying this configuration (e.g. `"scenario-1"`,
    /// `"seed-42"`), used in reports and sweep aggregation.
    fn label(&self) -> String;

    /// Scheduled run length in milliseconds. The tick loop converts
    /// this to ticks using the simulator's own tick period.
    fn duration_ms(&self) -> u64;

    /// The shared signal namespace this substrate's simulator, monitors,
    /// and observed frames are indexed by.
    fn signal_table(&self) -> &Arc<SignalTable>;

    /// Assembles one batched simulator for a stripe of configurations:
    /// lane `l` simulates `group[l]`. A single run is the one-lane case
    /// (`&[substrate]`), so this is the substrate's only simulator
    /// builder. Every lane must step exactly as it would alone, whatever
    /// the stripe's width (pinned by the workspace's sweep tests).
    /// Implementations may assume `group` is non-empty and that its
    /// members share this substrate's signal table and tick period: the
    /// sweep stripes together only cells sharing a table, a suite
    /// template and a schedule.
    fn build_simulator_batch(group: &[&Self]) -> SimulatorBatch
    where
        Self: Sized;

    /// Builds the goal/subgoal monitor suite for this configuration,
    /// compiled against [`Substrate::signal_table`].
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] if a goal formula fails to compile — a
    /// programming error surfaced by tests.
    fn build_monitors(&self) -> Result<MonitorSuite, EvalError>;

    /// A prebuilt, compile-once [`SuiteTemplate`] for this substrate's
    /// goal formulas, if the caller compiled one for the whole sweep
    /// (see the family types, e.g. `VehicleFamily`). When `Some`, a
    /// run instantiates (or reuses a pooled copy of) the template, and
    /// a sweep stripes the cells sharing it, instead of calling
    /// [`Substrate::build_monitors`] per run. The template **must** describe the same suite
    /// `build_monitors` would compile — same formulas against the same
    /// table — which the workspace's golden sweep tests pin.
    fn suite_template(&self) -> Option<&Arc<SuiteTemplate>> {
        None
    }

    /// Derives the observed state the monitors and the frame recording
    /// see, **in place** on lane `lane` of the simulator's state slab:
    /// derived signals are written directly into the lane, which the
    /// monitors then read without any per-lane `Frame` copy. The default
    /// observes the raw state unchanged (the elevator's monitors read
    /// plant signals directly); the vehicle substrate overrides it to
    /// add its probe derivation. `raw` and `observed` are loop-owned
    /// scratch frames an override may use.
    ///
    /// Overrides must only write signals no subsystem reads
    /// (observation-derived probes): the slab is also the simulator's
    /// live state, and anything else would leak observation back into
    /// the dynamics.
    fn observe_lane(
        &self,
        slab: &mut FrameBatch,
        lane: usize,
        raw: &mut Frame,
        observed: &mut Frame,
    ) {
        let _ = (slab, lane, raw, observed);
    }

    /// Checks lane `lane` of the observed state slab for a terminal
    /// event (e.g. a collision). Returning `Some` starts the
    /// post-terminal grace window after which the run aborts early,
    /// mirroring the thesis's CarSim environment. The default reports
    /// none; `scratch` is a loop-owned frame an override may use.
    fn terminal_event_lane(
        &self,
        slab: &FrameBatch,
        lane: usize,
        scratch: &mut Frame,
    ) -> Option<&'static str> {
        let _ = (slab, lane, scratch);
        None
    }

    /// Signals whose series a run that records its frames
    /// ([`Experiment::with_frame_recording`]) reports in
    /// [`RunReport::series`], resolved to ids at substrate construction.
    /// The series are read from the recording once, after the run; no
    /// tick loop samples them.
    ///
    /// [`Experiment::with_frame_recording`]: crate::Experiment::with_frame_recording
    /// [`RunReport::series`]: crate::RunReport::series
    fn tracked_signals(&self) -> &[SignalId] {
        &[]
    }
}
