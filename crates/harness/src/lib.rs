//! Substrate-generic experiment harness.
//!
//! The thesis evaluates its run-time monitoring contribution on **two**
//! composite systems — the Chapter 4 distributed elevator and the
//! Chapter 5 semi-autonomous vehicle. Both evaluations are the same
//! experiment shape: assemble a deterministic fixed-step [`Simulator`],
//! attach a hierarchical [`MonitorSuite`], step the loop with one-tick
//! observation delay, derive probe signals, watch for terminal events
//! (collisions), record the observed frames when asked (the one run
//! history, which figure series are read from), and classify detections
//! into hits / false positives / false negatives. This crate owns that shape
//! once:
//!
//! * [`Substrate`] — what a composite system must provide to be run:
//!   the shared signal table, simulator assembly, monitor-suite
//!   construction, signal derivation, and terminal-event detection;
//! * [`Experiment`] — the generic simulate → observe → correlate loop,
//!   configured in **milliseconds** ([`ExperimentConfig`]) so substrates
//!   with different tick periods (1 ms vehicle, 10 ms elevator) share one
//!   run loop;
//! * [`RunReport`] — the substrate-independent outcome of one run;
//! * [`Sweep`] — a parallel fan-out of experiment cells (scenario ×
//!   defect grids, seed batches) with deterministic per-cell seeds. One
//!   striped driver runs every sweep: cells sharing a compile-once
//!   [`SuiteTemplate`](esafe_monitor::SuiteTemplate)
//!   ([`Substrate::suite_template`]) tick in lock-step stripes through
//!   the batched engines, and each cell's report is bit-identical to
//!   running it alone through [`Experiment`]. The driver folds finished
//!   cells into one of three shapes: every report ([`Sweep::run`]), a
//!   streaming aggregate ([`Sweep::run_aggregate`], per-worker partials
//!   via [`AggregateBuilder`] — O(workers × width) memory for
//!   arbitrarily large grids), or journal appends
//!   ([`Sweep::run_aggregate_checkpointed`]); each also reports its
//!   suite counters ([`SweepStats`]);
//! * [`RunContext`] — pooled run state (observed scratch frame,
//!   template-instantiated monitor suite) reused across runs executed
//!   one after another on one thread, as the serial recording sweeps do;
//! * [`Quarantine`] / [`SweepJournal`] — fault isolation and durable
//!   checkpoint/resume for fleet-scale sweeps: with a quarantine
//!   installed a panicking, erroring, or runaway cell is recorded as a
//!   typed [`CellFailure`] (with retry policy) instead of aborting the
//!   run, and a journal persists completed cells so an interrupted
//!   sweep resumes bit-identically, skipping work already done;
//! * [`TraceCorpusWriter`] / [`TraceCorpusReader`] — on-disk archives
//!   of recorded runs, re-monitored offline under new goal suites
//!   ([`replay_corpus`]);
//! * [`record`] — the one durable-record layer under the journal and
//!   the corpus: the header and `[len][crc][payload]` frame codecs,
//!   atomic publish, append-only files and the recovery scan. Both
//!   formats report typed errors ([`JournalError`], [`CorpusError`])
//!   built on its [`FormatError`](record::FormatError).
//!
//! A substrate constructs its [`SignalTable`](esafe_logic::SignalTable)
//! **once**; the experiment loop, every sweep cell, every compiled
//! monitor, and every frame recording share it. Per-tick data flows as
//! [`Frame`](esafe_logic::Frame)s — dense, id-indexed, `Copy`-slot
//! samples — so the loop holds zero per-tick `String` allocations.
//!
//! [`Simulator`]: esafe_sim::Simulator
//! [`MonitorSuite`]: esafe_monitor::MonitorSuite
//!
//! # Example
//!
//! ```
//! use esafe_harness::{Experiment, ExperimentConfig, RunReport, Substrate};
//! use esafe_logic::{parse, Frame, SignalId, SignalTable};
//! use esafe_monitor::{Location, MonitorSuite};
//! use esafe_sim::{SimTime, Simulator, Subsystem};
//! use std::sync::Arc;
//!
//! /// A counter that must stay below 8 — and won't.
//! struct Counter { n: SignalId }
//! impl Subsystem for Counter {
//!     fn name(&self) -> &str { "counter" }
//!     fn step(&mut self, _t: &SimTime, prev: &Frame, next: &mut Frame) {
//!         next.set(self.n, prev.real_or(self.n, 0.0) + 1.0);
//!     }
//! }
//!
//! struct CounterSubstrate { table: Arc<SignalTable>, n: SignalId }
//! impl CounterSubstrate {
//!     fn new() -> Self {
//!         let mut b = SignalTable::builder();
//!         let n = b.real("n");
//!         CounterSubstrate { table: b.finish(), n }
//!     }
//! }
//! impl Substrate for CounterSubstrate {
//!     fn name(&self) -> &str { "counter" }
//!     fn label(&self) -> String { "count-to-twenty".into() }
//!     fn duration_ms(&self) -> u64 { 20 }
//!     fn signal_table(&self) -> &Arc<SignalTable> { &self.table }
//!     fn build_simulator(&self) -> Simulator {
//!         let mut sim = Simulator::new(1, &self.table);
//!         sim.add(Counter { n: self.n });
//!         sim.init_with(|f| f.set(self.n, 0.0));
//!         sim
//!     }
//!     fn build_monitors(&self) -> Result<MonitorSuite, esafe_logic::EvalError> {
//!         let mut suite = MonitorSuite::new(self.table.clone());
//!         let goal = parse("n < 8.0").expect("valid formula");
//!         suite.add_goal("bound", Location::new("Counter"), goal)?;
//!         Ok(suite)
//!     }
//! }
//!
//! let report: RunReport = Experiment::new(&CounterSubstrate::new()).run().unwrap();
//! assert_eq!(report.violations_for("bound").len(), 1);
//! ```

pub mod batch;
pub mod context;
pub mod corpus;
pub mod crc;
pub mod experiment;
pub mod journal;
pub mod lanes;
pub mod record;
pub mod substrate;
pub mod sweep;

pub use batch::DEFAULT_BATCH_WIDTH;
pub use context::{RunContext, SuiteProvenance};
pub use corpus::{
    replay_corpus, replay_corpus_reports, CorpusError, CorpusReplay, CorpusStats,
    TraceCorpusReader, TraceCorpusWriter, DEFAULT_REPLAY_WIDTH,
};
pub use experiment::{Experiment, ExperimentConfig, ExperimentError, RunReport};
pub use journal::{CellDelta, JournalError, JournalRecord, SweepHeader, SweepJournal};
pub use lanes::LaneAllocator;
pub use substrate::Substrate;
pub use sweep::{
    cell_seed, retry_seed, AggregateBuilder, CellFailure, FailureReason, Quarantine, RetryPolicy,
    Sweep, SweepAggregate, SweepReport, SweepStats,
};
