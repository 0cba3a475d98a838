//! Past-time temporal logic for safety-goal specification.
//!
//! This crate implements the temporal-logic substrate of Black's *System
//! Safety as an Emergent Property in Composite Systems* (CMU, 2009). Safety
//! goals in that work are written in the KAOS style over system state
//! variables using the operator set of the thesis's Figure 2.5: boolean
//! connectives, current-state and all-states implication, the past-time
//! operators ● (previous state), ◆ (once in the past), ■ (historically),
//! bounded variants `●ⁿ<T` (held for the previous duration `T`) and `◆<T`
//! (true at least once within the previous duration `T`), the edge operator
//! `@P ≡ ●¬P ∧ P`, and the initial-state assertion `S0 ⊨ P`.
//!
//! # State representations
//!
//! Two views of system state coexist, by design:
//!
//! * [`signal`] — the **production** representation: a shared, immutable
//!   [`SignalTable`] interns every variable name to a dense [`SignalId`]
//!   once, and a [`Frame`] is one sample of all signals as a flat,
//!   id-indexed slot array. [`Value`] is `Copy` (symbols are interned
//!   [`Sym`]s), so the per-tick hot loop — simulator step, monitor
//!   observe — allocates no strings and performs no map lookups.
//! * [`state`] — the **authoring** representation: the name-keyed
//!   [`State`] map and recorded [`Trace`]s, used by serde, tests, goal
//!   fixtures, and the reference evaluator. Conversions:
//!   [`SignalTable::frame_from_state`] and [`Frame::to_state`].
//! * [`frame_trace`] — recorded traces in the production representation:
//!   a [`FrameTrace`] stores one column per signal so recordings replay
//!   through the fused engine at frame speed. Conversions:
//!   [`FrameTrace::from_trace`] and [`FrameTrace::to_trace`].
//!
//! # Views of the [`Expr`] AST
//!
//! * [`parser`] — a round-trippable text syntax
//!   (`always(dc || es.stopped)`, `held_for(drc == 'STOP', 200ms) -> ok`);
//! * [`eval`] — reference evaluation over complete recorded [`Trace`]s:
//!   the semantics of record, and the one oracle the incremental engine
//!   is property-tested against;
//! * [`incremental`] — the one incremental engine: a goal suite
//!   compiles into one deduplicated DAG ([`FusedSuiteProgram`]) over
//!   [`SignalId`]s resolved at compile time, evaluating every shared
//!   subexpression once per tick in one bit-sliced pass, 64 lanes per
//!   `u64` word at every width — [`FusedSuiteBatch`] reads a
//!   [`FrameBatch`], and at one lane a [`Frame`] in place
//!   ([`Frame::as_batch`]);
//! * [`prop`] — bounded two-state unrolling into propositional formulas
//!   over a dense `(variable, age)` atom table with model enumeration,
//!   used by the composability and realizability analyses of `esafe-core`.
//!
//! # Example
//!
//! ```
//! use esafe_logic::{parse, FusedSuiteProgram, SignalTable};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = SignalTable::builder();
//! let door = b.bool("door_closed");
//! let stopped = b.bool("elevator_stopped");
//! let table = b.finish();
//!
//! let goal = parse("always(door_closed || elevator_stopped)")?;
//! let program = Arc::new(FusedSuiteProgram::compile(&[goal], &table)?);
//! let mut monitor = program.instantiate_batch(1); // one run, one lane
//!
//! let mut frame = table.frame();
//! frame.set(door, true);
//! frame.set(stopped, true);
//! monitor.observe_slab(frame.as_batch())?;
//! assert!(monitor.verdict(0, 0));
//! frame.set(door, false);
//! frame.set(stopped, false);
//! monitor.observe_slab(frame.as_batch())?;
//! assert!(!monitor.verdict(0, 0)); // the safety goal is violated in the second state
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod corpus;
pub mod error;
pub mod eval;
pub mod expr;
pub mod frame_batch;
pub mod frame_trace;
pub mod incremental;
pub mod parser;
pub mod prop;
pub mod signal;
pub mod state;
pub mod value;

pub use corpus::{RunDecoder, RunMeta, SymDict};
pub use error::{EvalError, ParseError, PropError};
pub use expr::{CmpOp, Expr, Operand};
pub use frame_batch::{FrameBatch, LaneMut, LaneRef, SignalRead, SignalWrite};
pub use frame_trace::FrameTrace;
pub use incremental::{BatchError, FusedSuiteBatch, FusedSuiteProgram};
pub use parser::parse;
pub use signal::{Frame, SignalId, SignalKind, SignalTable, SignalTableBuilder};
pub use state::{State, Trace};
pub use value::{Sym, Value};
