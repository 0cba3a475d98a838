//! The [`Substrate`] trait: what a composite system provides to be run
//! under the generic experiment loop.

use esafe_logic::{EvalError, Frame, FrameBatch, SignalId, SignalTable};
use esafe_monitor::{MonitorSuite, SuiteTemplate};
use esafe_sim::{Simulator, SimulatorBatch};
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
/// interfaces below — [`Substrate::observe`] and
/// [`Substrate::terminal_event`] — speak [`SignalId`]-indexed
/// [`Frame`]s, keeping the experiment loop free of string lookups and
/// allocation.
pub trait Substrate {
    /// The substrate family name (e.g. `"vehicle"`, `"elevator"`).
    fn name(&self) -> &str;

    /// A label identifying this configuration (e.g. `"scenario-1"`,
    /// `"seed-42"`), used in reports and sweep aggregation.
    fn label(&self) -> String;

    /// Scheduled run length in milliseconds. The experiment loop converts
    /// this to ticks using the simulator's own tick period.
    fn duration_ms(&self) -> u64;

    /// The shared signal namespace this substrate's simulator, monitors,
    /// and observed frames are indexed by.
    fn signal_table(&self) -> &Arc<SignalTable>;

    /// Assembles a fresh simulator for this configuration, over
    /// [`Substrate::signal_table`].
    fn build_simulator(&self) -> Simulator;

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
    /// (see the family types, e.g. `VehicleFamily`). When `Some`, the
    /// experiment loop instantiates (or reuses a pooled copy of) the
    /// template instead of calling [`Substrate::build_monitors`] per
    /// run. The template **must** describe the same suite
    /// `build_monitors` would compile — same formulas against the same
    /// table — which the workspace's golden sweep tests pin.
    fn suite_template(&self) -> Option<&Arc<SuiteTemplate>> {
        None
    }

    /// Assembles one batched simulator for a whole stripe of
    /// configurations (`group[lane]` builds lane `lane`), or `None` if
    /// this substrate has no native batched builder — the striped sweep
    /// then builds scalar simulators and wraps them via
    /// [`SimulatorBatch::from_scalar`], which is bit-identical but pays
    /// per-lane frame copies each tick. Implementations must produce
    /// lanes bit-identical to [`Substrate::build_simulator`] on the same
    /// configuration (pinned by the workspace's batched-sweep tests) and
    /// may assume every `group` member shares this substrate's signal
    /// table and tick period.
    fn build_simulator_batch(group: &[&Self]) -> Option<SimulatorBatch>
    where
        Self: Sized,
    {
        let _ = group;
        None
    }

    /// Derives the observed frame the monitors and the frame recording
    /// see from the raw simulator frame, writing into the loop-owned
    /// `observed` scratch frame. The default copies the raw frame (the
    /// elevator's monitors read plant signals directly); the vehicle
    /// substrate overrides this to add its probe derivation on top.
    fn observe(&self, raw: &Frame, observed: &mut Frame) {
        observed.copy_from(raw);
    }

    /// [`Substrate::observe`] for one lane of a batched simulator's
    /// state slab, **in place**: derived signals are written directly
    /// into the lane, which the monitors then read without any per-lane
    /// `Frame` copy. The default bridges through
    /// the loop-owned `raw`/`observed` scratch frames and the scalar
    /// [`Substrate::observe`], so it is correct for every substrate.
    ///
    /// Overrides that write the slab directly must only write signals no
    /// subsystem reads (observation-derived probes): the slab is also
    /// the simulator's live state, and anything else would leak
    /// observation back into the dynamics.
    fn observe_lane(
        &self,
        slab: &mut FrameBatch,
        lane: usize,
        raw: &mut Frame,
        observed: &mut Frame,
    ) {
        slab.read_lane_into(lane, raw);
        self.observe(raw, observed);
        slab.write_lane_from(lane, observed);
    }

    /// Checks the observed frame for a terminal event (e.g. a collision).
    /// Returning `Some` starts the post-terminal grace window after which
    /// the run aborts early, mirroring the thesis's CarSim environment.
    fn terminal_event(&self, observed: &Frame) -> Option<&'static str> {
        let _ = observed;
        None
    }

    /// [`Substrate::terminal_event`] for one lane of an observed state
    /// slab. The default copies the lane into `scratch` and delegates to
    /// the scalar check; substrates whose check reads a couple of
    /// signals should override it with direct slab reads.
    fn terminal_event_lane(
        &self,
        slab: &FrameBatch,
        lane: usize,
        scratch: &mut Frame,
    ) -> Option<&'static str> {
        slab.read_lane_into(lane, scratch);
        self.terminal_event(scratch)
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
