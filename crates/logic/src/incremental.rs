//! Incremental (per-tick) evaluation for run-time goal monitoring.
//!
//! A goal suite compiles into one [`FusedSuiteProgram`]: every
//! monitor's [`monitor_form`]-rewritten formula merged into a single
//! hash-consed DAG over resolved [`SignalId`]s, in which every
//! structurally identical subexpression — stateless atoms and temporal
//! subtrees alike, since all monitors of a suite observe the same frame
//! stream — is one node. Compilation resolves every variable reference
//! against a shared [`SignalTable`] **once**, so the per-tick loop is
//! pure slot access: no string lookups, no allocation, O(#nodes) time
//! and memory independent of trace length.
//!
//! The program runs at two widths, sharing one compile, one home for
//! temporal semantics (`Cell`) and one error policy:
//!
//! * [`FusedSuite`] reads one [`Frame`] per tick — one forward pass
//!   over the topologically ordered nodes into a value slab, then one
//!   slab read per monitor verdict;
//! * [`FusedSuiteBatch`] reads one lane-major [`FrameBatch`] per tick —
//!   the same pass stepping every lane (run) through each node before
//!   moving to the next.
//!
//! Both evaluate every node on every tick, so every signal the suite
//! reads ([`FusedSuiteProgram::reads`]) must be set in every frame.
//! Verdicts are property-tested against the semantics of record,
//! [`eval_trace`](crate::eval::eval_trace) over the [`monitor_form`]
//! of each goal.
//!
//! # Monitor semantics
//!
//! Run-time monitors cannot see the future, so the future-directed forms are
//! reinterpreted with *violation semantics* (see [`monitor_form`]):
//!
//! * `always(p)` monitors `p` — a violation is reported at exactly the
//!   states where `p` is false;
//! * `p => q` (all-states entailment) monitors `p -> q` per state;
//! * `p <-> q` monitors per-state agreement;
//! * `eventually`/`next` are rejected ([`EvalError::FutureOperator`]) —
//!   the thesis notes goals containing ♦ are not finitely violable.

use crate::error::EvalError;
use crate::eval;
use crate::expr::{CmpOp, Expr, Operand};
use crate::frame_batch::FrameBatch;
use crate::signal::{Frame, SignalId, SignalTable};
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Rewrites an expression into its run-time-monitorable form.
///
/// `always(p)` becomes `p`, `p => q` becomes `p -> q`, `p <-> q` becomes
/// `(p -> q) && (q -> p)`; all past-time operators pass through unchanged.
///
/// # Errors
///
/// Returns [`EvalError::FutureOperator`] if the expression contains
/// `eventually` or `next`.
///
/// # Example
///
/// ```
/// use esafe_logic::{parse, incremental::monitor_form};
/// let e = parse("always(p => q)").unwrap();
/// assert_eq!(monitor_form(&e).unwrap().to_string(), "p -> q");
/// ```
pub fn monitor_form(expr: &Expr) -> Result<Expr, EvalError> {
    Ok(match expr {
        Expr::Const(_) | Expr::Var(_) | Expr::Cmp { .. } => expr.clone(),
        Expr::Not(e) => Expr::not(monitor_form(e)?),
        Expr::And(items) => Expr::And(
            items
                .iter()
                .map(monitor_form)
                .collect::<Result<Vec<_>, _>>()?,
        ),
        Expr::Or(items) => Expr::Or(
            items
                .iter()
                .map(monitor_form)
                .collect::<Result<Vec<_>, _>>()?,
        ),
        Expr::Implies(a, b) => Expr::implies(monitor_form(a)?, monitor_form(b)?),
        Expr::Entails(a, b) => Expr::implies(monitor_form(a)?, monitor_form(b)?),
        Expr::Iff(a, b) => {
            let (a, b) = (monitor_form(a)?, monitor_form(b)?);
            Expr::and(Expr::implies(a.clone(), b.clone()), Expr::implies(b, a))
        }
        Expr::Prev(e) => Expr::prev(monitor_form(e)?),
        Expr::Once(e) => Expr::once(monitor_form(e)?),
        Expr::Historically(e) => Expr::historically(monitor_form(e)?),
        Expr::HeldFor { expr, ticks } => Expr::held_for(monitor_form(expr)?, *ticks),
        Expr::OnceWithin { expr, ticks } => Expr::once_within(monitor_form(expr)?, *ticks),
        Expr::Became(e) => Expr::became(monitor_form(e)?),
        Expr::Initially(e) => Expr::initially(monitor_form(e)?),
        Expr::Always(e) => monitor_form(e)?,
        Expr::Eventually(_) => {
            return Err(EvalError::FutureOperator {
                operator: "eventually",
            })
        }
        Expr::Next(_) => return Err(EvalError::FutureOperator { operator: "next" }),
    })
}

/// A comparison operand with its variable reference resolved.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Sig(SignalId),
    Lit(Value),
}

impl Slot {
    fn resolve(op: &Operand, table: &SignalTable) -> Result<Slot, EvalError> {
        Ok(match op {
            Operand::Var(name) => Slot::Sig(resolve(name, table)?),
            Operand::Lit(v) => Slot::Lit(*v),
        })
    }

    /// The operand's value in one sample, read through `get`.
    #[inline]
    fn value(
        &self,
        get: impl FnOnce(SignalId) -> Option<Value>,
        step: usize,
        table: &SignalTable,
    ) -> Result<Value, EvalError> {
        match self {
            Slot::Lit(v) => Ok(*v),
            Slot::Sig(id) => get(*id).ok_or_else(|| EvalError::MissingVar {
                name: table.name(*id).to_owned(),
                step,
            }),
        }
    }

    /// This operand as a whole lane row of `src`.
    #[inline]
    fn operand_row<'a>(&self, src: &'a FrameBatch) -> LaneOperand<'a> {
        match self {
            Slot::Lit(v) => LaneOperand::Lit(*v),
            Slot::Sig(id) => LaneOperand::Row(src.row(*id)),
        }
    }
}

/// A [`Cmp`](FusedNode::Cmp) operand resolved for row-sweep evaluation:
/// a signal's lane-major row, or a literal broadcast to every lane.
enum LaneOperand<'a> {
    Row(&'a [Option<Value>]),
    Lit(Value),
}

impl LaneOperand<'_> {
    #[inline]
    fn get(&self, lane: usize) -> Option<Value> {
        match self {
            LaneOperand::Row(r) => r[lane],
            LaneOperand::Lit(v) => Some(*v),
        }
    }
}

/// Sweeps an ordering comparison of one signal row against a fixed
/// numeric bound (`f` closes over the bound and the operator). Returns
/// `false` when any lane's slot is unset or non-numeric, so the caller
/// reruns the per-lane path for exact error attribution.
#[inline]
fn num_rows(out: &mut [bool], row: &[Option<Value>], f: impl Fn(f64) -> bool) -> bool {
    let mut ok = true;
    for (out, x) in out.iter_mut().zip(row) {
        match x {
            Some(Value::Real(x)) => *out = f(*x),
            Some(Value::Int(i)) => *out = f(*i as f64),
            _ => ok = false,
        }
    }
    ok
}

/// Sweeps `==`/`!=` of one signal row against a fixed numeric literal,
/// mirroring [`Value::num_eq`]: numeric slots compare as reals, and a
/// non-numeric slot never equals a numeric literal. Returns `false` on
/// any unset slot.
#[inline]
fn num_eq_rows(out: &mut [bool], row: &[Option<Value>], y: f64, want_eq: bool) -> bool {
    let mut ok = true;
    for (out, x) in out.iter_mut().zip(row) {
        *out = match x {
            Some(Value::Real(x)) => (*x == y) == want_eq,
            Some(Value::Int(i)) => (*i as f64 == y) == want_eq,
            Some(_) => !want_eq,
            None => {
                ok = false;
                false
            }
        };
    }
    ok
}

/// Sweeps `==`/`!=` of one signal row against a fixed symbol —
/// [`Value::num_eq`]'s variant-equality fallback, specialized: interned
/// symbols compare by id, and any non-symbol slot differs. Returns
/// `false` on any unset slot.
#[inline]
fn sym_eq_rows(out: &mut [bool], row: &[Option<Value>], s: crate::Sym, want_eq: bool) -> bool {
    let mut ok = true;
    for (out, x) in out.iter_mut().zip(row) {
        *out = match x {
            Some(Value::Sym(t)) => (*t == s) == want_eq,
            Some(_) => !want_eq,
            None => {
                ok = false;
                false
            }
        };
    }
    ok
}

/// [`sym_eq_rows`] for a fixed boolean literal.
#[inline]
fn bool_eq_rows(out: &mut [bool], row: &[Option<Value>], b: bool, want_eq: bool) -> bool {
    let mut ok = true;
    for (out, x) in out.iter_mut().zip(row) {
        *out = match x {
            Some(Value::Bool(t)) => (*t == b) == want_eq,
            Some(_) => !want_eq,
            None => {
                ok = false;
                false
            }
        };
    }
    ok
}

/// One [`Cmp`](FusedNode::Cmp) node swept across whole lane rows.
/// Signal-vs-literal dominates compiled suites (probed magnitudes
/// against thresholds, sources against symbols), so those shapes get
/// dedicated branch-light sweeps; anything else runs the generic
/// comparator lane by lane, still row-addressed. Returns `false` when
/// any lane's slot is unset, mistyped, or incomparable — callers then
/// rerun the per-lane path, which attributes the error exactly.
fn cmp_rows(out: &mut [bool], a: &LaneOperand, op: CmpOp, b: &LaneOperand) -> bool {
    match (a, b) {
        (LaneOperand::Row(r), LaneOperand::Lit(lit)) => {
            if let Some(y) = lit.as_real() {
                match op {
                    CmpOp::Eq => num_eq_rows(out, r, y, true),
                    CmpOp::Ne => num_eq_rows(out, r, y, false),
                    CmpOp::Lt => num_rows(out, r, |x| x < y),
                    CmpOp::Le => num_rows(out, r, |x| x <= y),
                    CmpOp::Gt => num_rows(out, r, |x| x > y),
                    CmpOp::Ge => num_rows(out, r, |x| x >= y),
                }
            } else {
                match (op, lit) {
                    (CmpOp::Eq, Value::Sym(s)) => sym_eq_rows(out, r, *s, true),
                    (CmpOp::Ne, Value::Sym(s)) => sym_eq_rows(out, r, *s, false),
                    (CmpOp::Eq, Value::Bool(v)) => bool_eq_rows(out, r, *v, true),
                    (CmpOp::Ne, Value::Bool(v)) => bool_eq_rows(out, r, *v, false),
                    // Ordering against a non-numeric literal is
                    // incomparable in every lane — let the per-lane
                    // path raise it.
                    _ => false,
                }
            }
        }
        _ => {
            let mut ok = true;
            for (l, out) in out.iter_mut().enumerate() {
                match (a.get(l), b.get(l)) {
                    (Some(x), Some(y)) => match eval::compare_values(&x, op, &y) {
                        Ok(v) => *out = v,
                        Err(_) => ok = false,
                    },
                    _ => ok = false,
                }
            }
            ok
        }
    }
}

fn resolve(name: &str, table: &SignalTable) -> Result<SignalId, EvalError> {
    table.id(name).ok_or_else(|| EvalError::UnknownSignal {
        name: name.to_owned(),
    })
}

/// A [`Var`](FusedNode::Var) node's reading of one sample slot: the
/// boolean it holds, or the error naming the signal.
#[inline]
fn slot_bool(
    v: Option<Value>,
    id: SignalId,
    step: usize,
    table: &SignalTable,
) -> Result<bool, EvalError> {
    match v {
        None => Err(EvalError::MissingVar {
            name: table.name(id).to_owned(),
            step,
        }),
        Some(Value::Bool(b)) => Ok(b),
        Some(other) => Err(EvalError::NotBoolean {
            name: table.name(id).to_owned(),
            found: other.type_name(),
        }),
    }
}

/// The per-lane [`Var`](FusedNode::Var) evaluation with exact error
/// semantics, skipping retired lanes. The row fast path falls back here
/// when any slot in the row is unset or mistyped, so the error names
/// the right lane/step.
fn var_lanes(
    out: &mut [bool],
    src: &FrameBatch,
    id: SignalId,
    active: &[bool],
    steps: &[u64],
    table: &SignalTable,
) -> Result<(), (usize, EvalError)> {
    for (l, out) in out.iter_mut().enumerate() {
        if active[l] {
            let step = usize::try_from(steps[l]).unwrap_or(usize::MAX);
            *out = slot_bool(src.get(id, l), id, step, table).map_err(|e| (l, e))?;
        }
    }
    Ok(())
}

/// The per-lane [`Cmp`](FusedNode::Cmp) evaluation — the exact-error
/// counterpart of [`var_lanes`] for comparisons.
#[allow(clippy::too_many_arguments)]
fn cmp_lanes(
    out: &mut [bool],
    src: &FrameBatch,
    lhs: &Slot,
    op: CmpOp,
    rhs: &Slot,
    active: &[bool],
    steps: &[u64],
    table: &SignalTable,
) -> Result<(), (usize, EvalError)> {
    for (l, out) in out.iter_mut().enumerate() {
        if active[l] {
            let step = usize::try_from(steps[l]).unwrap_or(usize::MAX);
            let get = |id| src.get(id, l);
            let a = lhs.value(get, step, table).map_err(|e| (l, e))?;
            let b = rhs.value(get, step, table).map_err(|e| (l, e))?;
            *out = eval::compare_values(&a, op, &b).map_err(|e| (l, e))?;
        }
    }
    Ok(())
}

/// One temporal subformula's run state. Each variant's "empty history"
/// value is recorded in the program's `init_cells` at compile time;
/// reset and instantiation are slice copies.
#[derive(Debug, Clone, Copy)]
enum Cell {
    /// `prev` / `became`: the child's value at the previous step.
    Last(Option<bool>),
    /// `once`: whether the child held at any strictly-earlier step.
    Seen(bool),
    /// `historically`: whether the child held at every earlier step.
    All(bool),
    /// `held_for`: length of the child's current true-run before now.
    Run(u64),
    /// `once_within`: the last step at which the child held.
    LastTrue(Option<u64>),
    /// `initially`: the child's value at the first step, once seen.
    Captured(Option<bool>),
}

/// The single-step semantics of each temporal operator: advance the
/// cell with the child's current value and return the operator's output
/// at this step. **The one place these semantics live** — shared by the
/// scalar pass ([`FusedSuite::observe`]) and the batched pass
/// ([`FusedSuiteBatch::observe_slab`]), so the two widths cannot drift.
///
/// Each method panics (`unreachable!`) on a cell variant other than the
/// operator's own; variants are fixed at compile time.
impl Cell {
    /// `prev(p)`: the child's value at the previous step.
    #[inline]
    fn step_prev(&mut self, cur: bool) -> bool {
        let Cell::Last(last) = self else {
            unreachable!("cell kind fixed at compile time");
        };
        let out = last.unwrap_or(false);
        *last = Some(cur);
        out
    }

    /// `once(p)`: whether the child held at any strictly-earlier step.
    #[inline]
    fn step_once(&mut self, cur: bool) -> bool {
        let Cell::Seen(seen_true_before) = self else {
            unreachable!("cell kind fixed at compile time");
        };
        let out = *seen_true_before;
        *seen_true_before |= cur;
        out
    }

    /// `historically(p)`: whether the child held at every earlier step.
    #[inline]
    fn step_historically(&mut self, cur: bool) -> bool {
        let Cell::All(all_true_before) = self else {
            unreachable!("cell kind fixed at compile time");
        };
        let out = *all_true_before;
        *all_true_before &= cur;
        out
    }

    /// `held_for(p, ticks)`: whether the child's current true-run
    /// before now spans at least `ticks` steps.
    #[inline]
    fn step_held_for(&mut self, cur: bool, ticks: u64) -> bool {
        let Cell::Run(run_before) = self else {
            unreachable!("cell kind fixed at compile time");
        };
        let out = ticks == 0 || *run_before >= ticks;
        *run_before = if cur { run_before.saturating_add(1) } else { 0 };
        out
    }

    /// `once_within(p, ticks)`: whether the child held within the
    /// previous `ticks` steps (inclusive of now's history).
    #[inline]
    fn step_once_within(&mut self, cur: bool, step: usize, ticks: u64) -> bool {
        let Cell::LastTrue(last_true_step) = self else {
            unreachable!("cell kind fixed at compile time");
        };
        let step_u64 = step as u64;
        let out = last_true_step.is_some_and(|lt| step_u64.saturating_sub(lt) <= ticks);
        if cur {
            *last_true_step = Some(step_u64);
        }
        out
    }

    /// `became(p)` (`@p ≡ ●¬p ∧ p`): a false→true edge at this step.
    #[inline]
    fn step_became(&mut self, cur: bool) -> bool {
        let Cell::Last(last) = self else {
            unreachable!("cell kind fixed at compile time");
        };
        let out = cur && !last.unwrap_or(true);
        *last = Some(cur);
        out
    }

    /// `initially(p)` (`S0 ⊨ p`): the child's value at the first step.
    #[inline]
    fn step_initially(&mut self, cur: bool) -> bool {
        let Cell::Captured(captured) = self else {
            unreachable!("cell kind fixed at compile time");
        };
        if captured.is_none() {
            *captured = Some(cur);
        }
        captured.expect("just set")
    }
}

/// An evaluation error raised by a fused suite, attributed to the first
/// monitor (by suite order) whose formula demanded the failing node.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedError {
    /// Index of the owning monitor within the fused suite's root order.
    pub monitor: usize,
    /// The underlying evaluation error.
    pub source: EvalError,
}

impl fmt::Display for FusedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fused monitor #{}: {}", self.monitor, self.source)
    }
}

impl std::error::Error for FusedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// The structural identity of one fused node — the hash-consing key.
///
/// Children are identified by their already-interned node indices, so two
/// subtrees hash equal exactly when they are structurally identical after
/// [`monitor_form`] rewriting and [`SignalId`] resolution. `Real`
/// literals compare by bit pattern (structural, not numeric, identity).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum NodeKey {
    Const(bool),
    Var(u32),
    Cmp(SlotKey, CmpOp, SlotKey),
    Not(u32),
    And(Vec<u32>),
    Or(Vec<u32>),
    Implies(u32, u32),
    Prev(u32),
    Once(u32),
    Historically(u32),
    HeldFor(u32, u64),
    OnceWithin(u32, u64),
    Became(u32),
    Initially(u32),
}

/// A hashable [`Slot`]: reals are keyed by bit pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum SlotKey {
    Sig(u32),
    Bool(bool),
    Int(i64),
    Real(u64),
    Sym(crate::value::Sym),
}

impl SlotKey {
    fn of(slot: Slot) -> SlotKey {
        match slot {
            Slot::Sig(id) => SlotKey::Sig(id.index() as u32),
            Slot::Lit(Value::Bool(b)) => SlotKey::Bool(b),
            Slot::Lit(Value::Int(i)) => SlotKey::Int(i),
            Slot::Lit(Value::Real(r)) => SlotKey::Real(r.to_bits()),
            Slot::Lit(Value::Sym(s)) => SlotKey::Sym(s),
        }
    }
}

/// One node of a [`FusedSuiteProgram`]: expression shape with resolved
/// [`Slot`]s, children referenced by slab index (always smaller than the
/// node's own index — the node vector is topologically ordered), and
/// temporal operators referencing their suite-level state cell.
#[derive(Debug)]
enum FusedNode {
    Const(bool),
    Var(SignalId),
    Cmp { lhs: Slot, op: CmpOp, rhs: Slot },
    Not(u32),
    And(Box<[u32]>),
    Or(Box<[u32]>),
    Implies(u32, u32),
    Prev { child: u32, cell: u32 },
    Once { child: u32, cell: u32 },
    Historically { child: u32, cell: u32 },
    HeldFor { child: u32, ticks: u64, cell: u32 },
    OnceWithin { child: u32, ticks: u64, cell: u32 },
    Became { child: u32, cell: u32 },
    Initially { child: u32, cell: u32 },
}

/// The compile-once fused form of a whole goal suite: every monitor's
/// [`monitor_form`]-rewritten expression merged into **one** deduplicated
/// DAG over resolved [`SignalId`]s.
///
/// Compilation hash-conses every subexpression (`NodeKey`, the
/// structural identity over resolved ids and literal bit patterns): a
/// subformula shared by several monitors — the vehicle suite's
/// `probe.forward`, `probe.auto_accel_source == 'ACC'`, … antecedents —
/// becomes one node, evaluated **once per tick** into a shared value
/// slab. Temporal subformulas dedup too: every monitor in a suite
/// observes the same frame stream, so structurally identical temporal
/// subtrees carry identical history and can share one state cell.
/// Verdicts are property-tested against
/// [`eval_trace`](crate::eval::eval_trace) of each monitor's
/// [`monitor_form`] on random suites and traces.
///
/// Evaluation is a single forward pass over the topologically-ordered
/// node vector — no recursion, no pointer chasing, no per-monitor
/// re-walking — after which each monitor's verdict is one slab read at
/// its root index.
///
/// A fused program is immutable and carries no run state: one
/// `Arc<FusedSuiteProgram>` is shared by every [`FusedSuite`] and
/// [`FusedSuiteBatch`] instance across sweep cells and threads.
///
/// # Example
///
/// ```
/// use esafe_logic::{parse, FusedSuiteProgram, SignalTable};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SignalTable::builder();
/// let p = b.bool("p");
/// let q = b.bool("q");
/// let table = b.finish();
///
/// // Both goals share the atom `p`; the fused DAG evaluates it once.
/// let goals = [parse("p && q")?, parse("p && prev(q)")?];
/// let program = Arc::new(FusedSuiteProgram::compile(&goals, &table)?);
/// assert_eq!(program.roots(), 2);
/// assert!(program.unique_nodes() < program.source_nodes());
///
/// let mut suite = program.instantiate();
/// let mut frame = table.frame();
/// frame.set(p, true);
/// frame.set(q, true);
/// suite.observe(&frame)?;
/// assert!(suite.verdict(0));
/// assert!(!suite.verdict(1)); // no previous state yet
/// suite.observe(&frame)?;
/// assert!(suite.verdict(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FusedSuiteProgram {
    table: Arc<SignalTable>,
    /// Topologically ordered: every child index precedes its parent.
    nodes: Vec<FusedNode>,
    /// First monitor (root index) that demanded each node — error
    /// attribution for the fused evaluation pass.
    owners: Vec<u32>,
    init_cells: Vec<Cell>,
    /// One slab index per monitor, in compile order.
    roots: Vec<u32>,
    /// Every signal a `Var` or `Cmp` node reads, ascending, once each.
    reads: Box<[SignalId]>,
    /// Node count before deduplication (the sum of the standalone
    /// per-monitor tree sizes).
    source_nodes: usize,
}

/// Builder state for one [`FusedSuiteProgram`] compilation.
struct FusedBuilder<'t> {
    table: &'t SignalTable,
    nodes: Vec<FusedNode>,
    owners: Vec<u32>,
    cells: Vec<Cell>,
    interned: HashMap<NodeKey, u32>,
    source_nodes: usize,
}

impl FusedBuilder<'_> {
    /// Interns a node: an existing structural twin is reused (its state
    /// cell included), otherwise `make` materializes the node. Every
    /// call counts one *source* node toward the dedup ratio.
    fn intern(
        &mut self,
        key: NodeKey,
        monitor: u32,
        make: impl FnOnce(&mut Vec<Cell>) -> FusedNode,
    ) -> u32 {
        self.source_nodes += 1;
        if let Some(&idx) = self.interned.get(&key) {
            return idx;
        }
        let idx = u32::try_from(self.nodes.len()).expect("fused program too large");
        self.nodes.push(make(&mut self.cells));
        self.owners.push(monitor);
        self.interned.insert(key, idx);
        idx
    }

    fn build(&mut self, expr: &Expr, monitor: u32) -> Result<u32, EvalError> {
        Ok(match expr {
            Expr::Const(b) => self.intern(NodeKey::Const(*b), monitor, |_| FusedNode::Const(*b)),
            Expr::Var(v) => {
                let id = resolve(v, self.table)?;
                self.intern(NodeKey::Var(id.index() as u32), monitor, |_| {
                    FusedNode::Var(id)
                })
            }
            Expr::Cmp { lhs, op, rhs } => {
                let lhs = Slot::resolve(lhs, self.table)?;
                let rhs = Slot::resolve(rhs, self.table)?;
                self.intern(
                    NodeKey::Cmp(SlotKey::of(lhs), *op, SlotKey::of(rhs)),
                    monitor,
                    |_| FusedNode::Cmp { lhs, op: *op, rhs },
                )
            }
            Expr::Not(e) => {
                let c = self.build(e, monitor)?;
                self.intern(NodeKey::Not(c), monitor, |_| FusedNode::Not(c))
            }
            Expr::And(items) => {
                let cs = items
                    .iter()
                    .map(|e| self.build(e, monitor))
                    .collect::<Result<Vec<_>, _>>()?;
                self.intern(NodeKey::And(cs.clone()), monitor, |_| {
                    FusedNode::And(cs.into_boxed_slice())
                })
            }
            Expr::Or(items) => {
                let cs = items
                    .iter()
                    .map(|e| self.build(e, monitor))
                    .collect::<Result<Vec<_>, _>>()?;
                self.intern(NodeKey::Or(cs.clone()), monitor, |_| {
                    FusedNode::Or(cs.into_boxed_slice())
                })
            }
            Expr::Implies(a, b) => {
                let a = self.build(a, monitor)?;
                let b = self.build(b, monitor)?;
                self.intern(NodeKey::Implies(a, b), monitor, |_| {
                    FusedNode::Implies(a, b)
                })
            }
            Expr::Prev(e) => {
                let c = self.build(e, monitor)?;
                self.intern(NodeKey::Prev(c), monitor, |cells| FusedNode::Prev {
                    child: c,
                    cell: alloc_fused_cell(cells, Cell::Last(None)),
                })
            }
            Expr::Once(e) => {
                let c = self.build(e, monitor)?;
                self.intern(NodeKey::Once(c), monitor, |cells| FusedNode::Once {
                    child: c,
                    cell: alloc_fused_cell(cells, Cell::Seen(false)),
                })
            }
            Expr::Historically(e) => {
                let c = self.build(e, monitor)?;
                self.intern(NodeKey::Historically(c), monitor, |cells| {
                    FusedNode::Historically {
                        child: c,
                        cell: alloc_fused_cell(cells, Cell::All(true)),
                    }
                })
            }
            Expr::HeldFor { expr, ticks } => {
                let c = self.build(expr, monitor)?;
                self.intern(NodeKey::HeldFor(c, *ticks), monitor, |cells| {
                    FusedNode::HeldFor {
                        child: c,
                        ticks: *ticks,
                        cell: alloc_fused_cell(cells, Cell::Run(0)),
                    }
                })
            }
            Expr::OnceWithin { expr, ticks } => {
                let c = self.build(expr, monitor)?;
                self.intern(NodeKey::OnceWithin(c, *ticks), monitor, |cells| {
                    FusedNode::OnceWithin {
                        child: c,
                        ticks: *ticks,
                        cell: alloc_fused_cell(cells, Cell::LastTrue(None)),
                    }
                })
            }
            Expr::Became(e) => {
                let c = self.build(e, monitor)?;
                self.intern(NodeKey::Became(c), monitor, |cells| FusedNode::Became {
                    child: c,
                    cell: alloc_fused_cell(cells, Cell::Last(None)),
                })
            }
            Expr::Initially(e) => {
                let c = self.build(e, monitor)?;
                self.intern(NodeKey::Initially(c), monitor, |cells| {
                    FusedNode::Initially {
                        child: c,
                        cell: alloc_fused_cell(cells, Cell::Captured(None)),
                    }
                })
            }
            // monitor_form has eliminated these before build runs
            Expr::Entails(..)
            | Expr::Iff(..)
            | Expr::Always(_)
            | Expr::Eventually(_)
            | Expr::Next(_) => unreachable!("monitor_form eliminates future forms"),
        })
    }
}

/// Allocates a suite-level state cell, returning its index as `u32`.
fn alloc_fused_cell(cells: &mut Vec<Cell>, init: Cell) -> u32 {
    cells.push(init);
    u32::try_from(cells.len() - 1).expect("fused cell index overflow")
}

impl FusedSuiteProgram {
    /// Compiles a whole goal suite — one expression per monitor, in
    /// suite order — into a single deduplicated DAG over `table`.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::FutureOperator`] if any expression contains
    /// `eventually` or `next`, and [`EvalError::UnknownSignal`] if any
    /// references a name outside the table.
    pub fn compile(exprs: &[Expr], table: &Arc<SignalTable>) -> Result<Self, EvalError> {
        let mut b = FusedBuilder {
            table,
            nodes: Vec::new(),
            owners: Vec::new(),
            cells: Vec::new(),
            interned: HashMap::new(),
            source_nodes: 0,
        };
        let mut roots = Vec::with_capacity(exprs.len());
        for (monitor, expr) in exprs.iter().enumerate() {
            let rewritten = monitor_form(expr)?;
            let monitor = u32::try_from(monitor).expect("too many monitors");
            roots.push(b.build(&rewritten, monitor)?);
        }
        let mut reads = Vec::new();
        for node in &b.nodes {
            match node {
                FusedNode::Var(id) => reads.push(*id),
                FusedNode::Cmp { lhs, rhs, .. } => {
                    for slot in [lhs, rhs] {
                        if let Slot::Sig(id) = slot {
                            reads.push(*id);
                        }
                    }
                }
                _ => {}
            }
        }
        reads.sort_unstable();
        reads.dedup();
        Ok(FusedSuiteProgram {
            table: Arc::clone(table),
            nodes: b.nodes,
            owners: b.owners,
            init_cells: b.cells,
            roots,
            reads: reads.into_boxed_slice(),
            source_nodes: b.source_nodes,
        })
    }

    /// Checks that [`compile`](FusedSuiteProgram::compile) would accept
    /// `expr` over `table`, without building anything: the formula must
    /// have a [`monitor_form`] and every signal it names must resolve. A
    /// suite authored goal by goal reports each goal's errors as it is
    /// added and still compiles once.
    ///
    /// # Errors
    ///
    /// As [`compile`](FusedSuiteProgram::compile).
    pub fn check(expr: &Expr, table: &SignalTable) -> Result<(), EvalError> {
        monitor_form(expr)?;
        let mut result = Ok(());
        expr.visit(&mut |e| {
            let names = match e {
                Expr::Var(v) => [Some(v), None],
                Expr::Cmp { lhs, rhs, .. } => [lhs, rhs].map(|o| match o {
                    Operand::Var(v) => Some(v),
                    Operand::Lit(_) => None,
                }),
                _ => [None, None],
            };
            for name in names.into_iter().flatten() {
                if result.is_ok() {
                    result = resolve(name, table).map(drop);
                }
            }
        });
        result
    }

    /// The signal table the program's variable references resolve into.
    pub fn table(&self) -> &Arc<SignalTable> {
        &self.table
    }

    /// Number of monitors (roots) fused into the program.
    pub fn roots(&self) -> usize {
        self.roots.len()
    }

    /// Number of nodes in the deduplicated DAG — the work one tick
    /// actually performs.
    pub fn unique_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of nodes before deduplication (the sum of the standalone
    /// per-monitor tree sizes) — the work evaluating each monitor on its
    /// own would perform.
    pub fn source_nodes(&self) -> usize {
        self.source_nodes
    }

    /// Every signal the program reads, ascending and once each. Both
    /// widths evaluate every node on every tick, so each of these must
    /// be set in every observed sample; any other signal may stay unset.
    pub fn reads(&self) -> &[SignalId] {
        &self.reads
    }

    /// Number of suite-level temporal state cells an instance carries.
    pub fn state_cells(&self) -> usize {
        self.init_cells.len()
    }

    /// Materializes a fresh fused suite: two slab allocations plus a
    /// `memcpy` of the initial cell values.
    pub fn instantiate(self: &Arc<Self>) -> FusedSuite {
        FusedSuite {
            cells: self.init_cells.clone(),
            slab: vec![false; self.nodes.len()],
            program: Arc::clone(self),
            step: 0,
        }
    }
}

/// The run state of one [`FusedSuiteProgram`] instance: the value slab
/// (one `bool` per DAG node, rewritten every tick) and the suite-level
/// temporal cells.
///
/// [`FusedSuite::observe`] makes one forward pass over the DAG;
/// [`FusedSuite::verdict`] then reads any monitor's current truth in
/// O(1). See [`FusedSuiteProgram`].
#[derive(Debug, Clone)]
pub struct FusedSuite {
    program: Arc<FusedSuiteProgram>,
    cells: Vec<Cell>,
    slab: Vec<bool>,
    step: u64,
}

impl FusedSuite {
    /// The immutable fused program this suite executes.
    pub fn program(&self) -> &Arc<FusedSuiteProgram> {
        &self.program
    }

    /// Feeds the next frame: one forward pass evaluating every DAG node
    /// exactly once, advancing every temporal cell.
    ///
    /// Every node is evaluated, short-circuited branches included, so
    /// the frame must set every signal in
    /// [`FusedSuiteProgram::reads`]. Treat an error as fatal for this
    /// suite instance.
    ///
    /// # Errors
    ///
    /// Returns [`FusedError`] naming the first monitor (by suite order)
    /// whose formula demanded the failing node.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `frame` indexes a different table than
    /// the program was compiled against.
    pub fn observe(&mut self, frame: &Frame) -> Result<(), FusedError> {
        debug_assert!(
            Arc::ptr_eq(frame.table(), &self.program.table),
            "frame and fused suite must share one signal table"
        );
        let step = usize::try_from(self.step).unwrap_or(usize::MAX);
        let table = &self.program.table;
        let cells = &mut self.cells;
        for (i, node) in self.program.nodes.iter().enumerate() {
            let v = match node {
                FusedNode::Const(b) => *b,
                FusedNode::Var(id) => {
                    slot_bool(frame.get(*id), *id, step, table).map_err(|e| FusedError {
                        monitor: self.program.owners[i] as usize,
                        source: e,
                    })?
                }
                FusedNode::Cmp { lhs, op, rhs } => {
                    let err = |e| FusedError {
                        monitor: self.program.owners[i] as usize,
                        source: e,
                    };
                    let get = |id| frame.get(id);
                    let a = lhs.value(get, step, table).map_err(err)?;
                    let b = rhs.value(get, step, table).map_err(err)?;
                    eval::compare_values(&a, *op, &b).map_err(err)?
                }
                FusedNode::Not(c) => !self.slab[*c as usize],
                FusedNode::And(cs) => cs.iter().all(|&c| self.slab[c as usize]),
                FusedNode::Or(cs) => cs.iter().any(|&c| self.slab[c as usize]),
                FusedNode::Implies(a, b) => !self.slab[*a as usize] | self.slab[*b as usize],
                FusedNode::Prev { child, cell } => {
                    cells[*cell as usize].step_prev(self.slab[*child as usize])
                }
                FusedNode::Once { child, cell } => {
                    cells[*cell as usize].step_once(self.slab[*child as usize])
                }
                FusedNode::Historically { child, cell } => {
                    cells[*cell as usize].step_historically(self.slab[*child as usize])
                }
                FusedNode::HeldFor { child, ticks, cell } => {
                    cells[*cell as usize].step_held_for(self.slab[*child as usize], *ticks)
                }
                FusedNode::OnceWithin { child, ticks, cell } => {
                    cells[*cell as usize].step_once_within(self.slab[*child as usize], step, *ticks)
                }
                FusedNode::Became { child, cell } => {
                    cells[*cell as usize].step_became(self.slab[*child as usize])
                }
                FusedNode::Initially { child, cell } => {
                    cells[*cell as usize].step_initially(self.slab[*child as usize])
                }
            };
            self.slab[i] = v;
        }
        self.step += 1;
        Ok(())
    }

    /// Monitor `monitor`'s verdict from the most recent
    /// [`FusedSuite::observe`] pass.
    ///
    /// # Panics
    ///
    /// Panics if `monitor` is out of range.
    #[inline]
    pub fn verdict(&self, monitor: usize) -> bool {
        self.slab[self.program.roots[monitor] as usize]
    }

    /// Number of frames observed so far.
    pub fn steps_observed(&self) -> u64 {
        self.step
    }

    /// Clears all history, returning the suite to its initial state — a
    /// `memcpy` of the program's initial cell values, no allocation.
    pub fn reset(&mut self) {
        self.cells.copy_from_slice(&self.program.init_cells);
        self.step = 0;
    }
}

/// An evaluation error raised by a batched fused pass, attributed to the
/// failing lane (run) and the first monitor whose formula demanded the
/// failing node.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchError {
    /// Index of the failing lane (run) within the batch.
    pub lane: usize,
    /// Index of the owning monitor within the fused suite's root order.
    pub monitor: usize,
    /// The underlying evaluation error.
    pub source: EvalError,
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fused lane #{} monitor #{}: {}",
            self.lane, self.monitor, self.source
        )
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// The run state of one [`FusedSuiteProgram`] evaluated over **many runs
/// at once** — the batch/SoA engine.
///
/// Where a [`FusedSuite`] holds one `bool` per DAG node, a batch holds a
/// *lane row* per node: `lanes` contiguous slots, one per run
/// (slab-of-lanes layout, `slab[node * lanes + lane]`), and likewise one
/// lane row per temporal state cell. [`FusedSuiteBatch::observe_slab`]
/// advances every lane by one sample of a lane-major [`FrameBatch`] in
/// a single forward pass that steps
/// the whole batch through each DAG node before moving to the next:
/// the per-node inner loop is a straight-line sweep over contiguous
/// lanes — branch-free for the boolean combinators — so evaluating one
/// shared subexpression across N runs costs one node decode plus N slab
/// reads, instead of N full scalar passes.
///
/// Lanes are independent runs in lock-step: each lane's verdicts are
/// property-tested against [`eval_trace`](crate::eval::eval_trace) of
/// the lane's own trace, including under mid-batch retirement. A run
/// that ends early — a terminal event inside a sweep
/// stripe — is [`retire_lane`](FusedSuiteBatch::retire_lane)d: its
/// temporal cells and step counter freeze while the surviving lanes
/// keep advancing, so early termination in one lane cannot perturb its
/// neighbours.
///
/// # Example
///
/// ```
/// use esafe_logic::{parse, FrameBatch, FusedSuiteProgram, SignalTable};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SignalTable::builder();
/// let p = b.bool("p");
/// let table = b.finish();
///
/// let program = Arc::new(FusedSuiteProgram::compile(&[parse("prev(p)")?], &table)?);
/// let mut batch = program.instantiate_batch(2);
///
/// // Lane 0 sees p=true, lane 1 sees p=false.
/// let mut slab = FrameBatch::new(&table, 2);
/// slab.set(p, 0, true);
/// slab.set(p, 1, false);
/// batch.observe_slab(&slab)?;
/// batch.observe_slab(&slab)?;
/// assert!(batch.verdict(0, 0)); // lane 0: p held in the previous state
/// assert!(!batch.verdict(1, 0)); // lane 1: it did not
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FusedSuiteBatch {
    program: Arc<FusedSuiteProgram>,
    lanes: usize,
    /// Temporal cells, one lane row per suite-level cell:
    /// `cells[cell * lanes + lane]`.
    cells: Vec<Cell>,
    /// Node values, one lane row per DAG node:
    /// `slab[node * lanes + lane]`, rewritten every pass.
    slab: Vec<bool>,
    /// Per-lane frames observed so far (frozen on retirement).
    steps: Vec<u64>,
    /// Per-lane liveness; retired lanes are skipped by every pass.
    active: Vec<bool>,
    retired: usize,
}

impl FusedSuiteProgram {
    /// Materializes a batch evaluator over this program with `lanes`
    /// independent runs, every lane starting from the initial (empty
    /// history) state.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn instantiate_batch(self: &Arc<Self>, lanes: usize) -> FusedSuiteBatch {
        assert!(lanes > 0, "a batch needs at least one lane");
        let mut cells = Vec::with_capacity(self.init_cells.len() * lanes);
        for &init in &self.init_cells {
            cells.extend(std::iter::repeat_n(init, lanes));
        }
        FusedSuiteBatch {
            cells,
            slab: vec![false; self.nodes.len() * lanes],
            steps: vec![0; lanes],
            active: vec![true; lanes],
            retired: 0,
            program: Arc::clone(self),
            lanes,
        }
    }
}

impl FusedSuiteBatch {
    /// The immutable fused program this batch executes.
    pub fn program(&self) -> &Arc<FusedSuiteProgram> {
        &self.program
    }

    /// Number of lanes (runs) in the batch, retired lanes included.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of lanes still advancing.
    pub fn active_lanes(&self) -> usize {
        self.lanes - self.retired
    }

    /// Whether `lane` is still advancing.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn is_active(&self, lane: usize) -> bool {
        self.active[lane]
    }

    /// Retires a lane: its temporal cells and step counter freeze, and
    /// subsequent [`observe_slab`](FusedSuiteBatch::observe_slab)
    /// passes skip it (its slab lane is ignored). Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn retire_lane(&mut self, lane: usize) {
        if std::mem::replace(&mut self.active[lane], false) {
            self.retired += 1;
        }
    }

    /// Number of frames `lane` has observed so far.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn steps_observed(&self, lane: usize) -> u64 {
        self.steps[lane]
    }

    /// Temporarily freezes `lane` for the next observe pass(es): its
    /// temporal cells, step counter, and verdicts stay exactly as they
    /// are, and the pass skips it like a retired lane. Unlike
    /// [`retire_lane`](FusedSuiteBatch::retire_lane) the freeze is meant
    /// to be undone with [`resume_lane`](FusedSuiteBatch::resume_lane) —
    /// the pair lets a caller advance a *subset* of lanes through a pass
    /// (e.g. a streaming service whose streams deliver frames at
    /// different rates) while the rest hold their history bit-exactly.
    /// Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn suspend_lane(&mut self, lane: usize) {
        if std::mem::replace(&mut self.active[lane], false) {
            self.retired += 1;
        }
    }

    /// Reverses [`suspend_lane`](FusedSuiteBatch::suspend_lane): the lane
    /// rejoins subsequent passes with its history untouched, as if the
    /// passes it sat out never happened. Do **not** use this to revive a
    /// lane retired at end-of-run ([`retire_lane`](FusedSuiteBatch::retire_lane));
    /// a finished run's lane must be re-armed with
    /// [`reset_lane`](FusedSuiteBatch::reset_lane) instead. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn resume_lane(&mut self, lane: usize) {
        if !std::mem::replace(&mut self.active[lane], true) {
            self.retired -= 1;
        }
    }

    /// Feeds the next sample of every active lane, read **in place**
    /// from a lane-major [`FrameBatch`] slab — the zero-copy path a
    /// batched simulator feeds its state slab through (lane layouts
    /// match, so `Var`/`Cmp` reads sweep the slab's contiguous signal
    /// rows directly). Retired lanes' slab rows are ignored. One forward
    /// pass over the DAG advances **all** lanes through each node before
    /// moving to the next (see the type docs).
    ///
    /// As in [`FusedSuite::observe`], every node of every active lane is
    /// evaluated, so each active lane must set every signal in
    /// [`FusedSuiteProgram::reads`]. Treat an error as fatal for the
    /// whole batch instance.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError`] naming the failing lane and the first
    /// monitor (by suite order) whose formula demanded the failing node.
    ///
    /// # Panics
    ///
    /// Panics if `slab.lanes() != lanes`; debug builds also panic if the
    /// slab indexes a different table than the program was compiled
    /// against.
    pub fn observe_slab(&mut self, src: &FrameBatch) -> Result<(), BatchError> {
        assert_eq!(src.lanes(), self.lanes, "one slab lane per batch lane");
        let lanes = self.lanes;
        debug_assert!(
            Arc::ptr_eq(src.table(), &self.program.table),
            "slab and batch must share one signal table"
        );
        let program = Arc::clone(&self.program);
        let table = &program.table;
        let active = &self.active;
        let steps = &self.steps;
        let cells = &mut self.cells;
        for (i, node) in program.nodes.iter().enumerate() {
            // Children precede node `i` in the topological order, so
            // `prev` holds every child's lane row and `out` is node
            // `i`'s own row.
            let (prev, rest) = self.slab.split_at_mut(i * lanes);
            let out = &mut rest[..lanes];
            let row = |c: &u32| &prev[*c as usize * lanes..][..lanes];
            let err = |lane: usize, e: EvalError| BatchError {
                lane,
                monitor: program.owners[i] as usize,
                source: e,
            };
            match node {
                FusedNode::Const(b) => out.fill(*b),
                // `Var`/`Cmp` are the only nodes that read `src`. A
                // signal's samples across every run are one contiguous
                // row, so both sweep whole rows in tight slice loops —
                // no per-lane step bookkeeping, no active check (retired
                // lanes' rows are frozen-but-valid, and nothing reads
                // their slab cells). Any row that holds an unset or
                // mistyped slot bails to the per-lane path for exact
                // error attribution.
                FusedNode::Var(id) => {
                    let mut fast = true;
                    for (out, v) in out.iter_mut().zip(src.row(*id)) {
                        match v {
                            Some(Value::Bool(b)) => *out = *b,
                            _ => fast = false,
                        }
                    }
                    if !fast {
                        var_lanes(out, src, *id, active, steps, table)
                            .map_err(|(l, e)| err(l, e))?;
                    }
                }
                FusedNode::Cmp { lhs, op, rhs } => {
                    let fast = cmp_rows(out, &lhs.operand_row(src), *op, &rhs.operand_row(src));
                    if !fast {
                        cmp_lanes(out, src, lhs, *op, rhs, active, steps, table)
                            .map_err(|(l, e)| err(l, e))?;
                    }
                }
                // The boolean combinators are pure slab-to-slab sweeps:
                // no frame reads, no temporal state. They run over every
                // lane unconditionally — retired lanes compute garbage
                // from stale child rows that nothing ever reads — so the
                // inner loops stay branch-free and vectorizable.
                FusedNode::Not(c) => {
                    for (out, &v) in out.iter_mut().zip(row(c)) {
                        *out = !v;
                    }
                }
                FusedNode::And(cs) => {
                    out.fill(true);
                    for c in cs.iter() {
                        for (out, &v) in out.iter_mut().zip(row(c)) {
                            *out &= v;
                        }
                    }
                }
                FusedNode::Or(cs) => {
                    out.fill(false);
                    for c in cs.iter() {
                        for (out, &v) in out.iter_mut().zip(row(c)) {
                            *out |= v;
                        }
                    }
                }
                FusedNode::Implies(a, b) => {
                    for ((out, &av), &bv) in out.iter_mut().zip(row(a)).zip(row(b)) {
                        *out = !av | bv;
                    }
                }
                // Temporal nodes advance per-lane state, so retired
                // lanes must be skipped — their history is frozen.
                FusedNode::Prev { child, cell } => {
                    let cells = &mut cells[*cell as usize * lanes..][..lanes];
                    for ((l, out), (cell, &cur)) in out
                        .iter_mut()
                        .enumerate()
                        .zip(cells.iter_mut().zip(row(child)))
                    {
                        if active[l] {
                            *out = cell.step_prev(cur);
                        }
                    }
                }
                FusedNode::Once { child, cell } => {
                    let cells = &mut cells[*cell as usize * lanes..][..lanes];
                    for ((l, out), (cell, &cur)) in out
                        .iter_mut()
                        .enumerate()
                        .zip(cells.iter_mut().zip(row(child)))
                    {
                        if active[l] {
                            *out = cell.step_once(cur);
                        }
                    }
                }
                FusedNode::Historically { child, cell } => {
                    let cells = &mut cells[*cell as usize * lanes..][..lanes];
                    for ((l, out), (cell, &cur)) in out
                        .iter_mut()
                        .enumerate()
                        .zip(cells.iter_mut().zip(row(child)))
                    {
                        if active[l] {
                            *out = cell.step_historically(cur);
                        }
                    }
                }
                FusedNode::HeldFor { child, ticks, cell } => {
                    let cells = &mut cells[*cell as usize * lanes..][..lanes];
                    for ((l, out), (cell, &cur)) in out
                        .iter_mut()
                        .enumerate()
                        .zip(cells.iter_mut().zip(row(child)))
                    {
                        if active[l] {
                            *out = cell.step_held_for(cur, *ticks);
                        }
                    }
                }
                FusedNode::OnceWithin { child, ticks, cell } => {
                    let cells = &mut cells[*cell as usize * lanes..][..lanes];
                    for ((l, out), (cell, &cur)) in out
                        .iter_mut()
                        .enumerate()
                        .zip(cells.iter_mut().zip(row(child)))
                    {
                        if active[l] {
                            let step = usize::try_from(steps[l]).unwrap_or(usize::MAX);
                            *out = cell.step_once_within(cur, step, *ticks);
                        }
                    }
                }
                FusedNode::Became { child, cell } => {
                    let cells = &mut cells[*cell as usize * lanes..][..lanes];
                    for ((l, out), (cell, &cur)) in out
                        .iter_mut()
                        .enumerate()
                        .zip(cells.iter_mut().zip(row(child)))
                    {
                        if active[l] {
                            *out = cell.step_became(cur);
                        }
                    }
                }
                FusedNode::Initially { child, cell } => {
                    let cells = &mut cells[*cell as usize * lanes..][..lanes];
                    for ((l, out), (cell, &cur)) in out
                        .iter_mut()
                        .enumerate()
                        .zip(cells.iter_mut().zip(row(child)))
                    {
                        if active[l] {
                            *out = cell.step_initially(cur);
                        }
                    }
                }
            }
        }
        for (step, &a) in self.steps.iter_mut().zip(&self.active) {
            *step += u64::from(a);
        }
        Ok(())
    }

    /// Monitor `monitor`'s verdict in `lane` from the most recent
    /// [`FusedSuiteBatch::observe_slab`] pass the lane took part in.
    ///
    /// # Panics
    ///
    /// Panics if `lane` or `monitor` is out of range.
    #[inline]
    pub fn verdict(&self, lane: usize, monitor: usize) -> bool {
        assert!(lane < self.lanes, "lane out of range");
        self.slab[self.program.roots[monitor] as usize * self.lanes + lane]
    }

    /// Every lane's verdict for `monitor` from the most recent pass, as
    /// one contiguous lane row — the bulk counterpart of
    /// [`verdict`](FusedSuiteBatch::verdict). Retired lanes' cells hold
    /// their last active-pass verdict (nothing recomputes them from
    /// fresh inputs), so row-diffing against a previous copy sees no
    /// spurious transitions from retirement.
    ///
    /// # Panics
    ///
    /// Panics if `monitor` is out of range.
    #[inline]
    pub fn verdict_row(&self, monitor: usize) -> &[bool] {
        &self.slab[self.program.roots[monitor] as usize * self.lanes..][..self.lanes]
    }

    /// Clears all history in every lane and re-activates retired lanes,
    /// returning the batch to its freshly instantiated state without
    /// reallocating.
    pub fn reset(&mut self) {
        for (c, &init) in self.program.init_cells.iter().enumerate() {
            self.cells[c * self.lanes..][..self.lanes].fill(init);
        }
        self.steps.fill(0);
        self.active.fill(true);
        self.retired = 0;
    }

    /// Re-arms a single lane in place: its temporal cells return to the
    /// initial (empty history) state, its step counter zeroes, and it
    /// re-activates if retired — the per-lane slice of
    /// [`reset`](FusedSuiteBatch::reset). Nothing is reallocated and no
    /// other lane is touched, so a long-running batch can recycle a
    /// retired lane for a brand-new run while its neighbours keep
    /// advancing. The lane's stale slab rows are harmless: the next
    /// observe pass recomputes every node for active lanes before any
    /// verdict is read.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn reset_lane(&mut self, lane: usize) {
        assert!(lane < self.lanes, "lane out of range");
        for (c, &init) in self.program.init_cells.iter().enumerate() {
            self.cells[c * self.lanes + lane] = init;
        }
        self.steps[lane] = 0;
        if !std::mem::replace(&mut self.active[lane], true) {
            self.retired -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_trace;
    use crate::parse;
    use crate::state::{State, Trace};

    fn trace_of(bits: &[(&str, Vec<bool>)]) -> Trace {
        let n = bits[0].1.len();
        let mut t = Trace::with_tick_millis(1);
        for i in 0..n {
            let mut s = State::new();
            for (name, vals) in bits {
                s.set(*name, vals[i]);
            }
            t.push(s);
        }
        t
    }

    /// The table every unit-test trace resolves against.
    fn pqr_table() -> Arc<SignalTable> {
        let mut b = SignalTable::builder();
        for name in ["p", "q", "r"] {
            b.bool(name);
        }
        b.finish()
    }

    fn compile(srcs: &[&str], table: &Arc<SignalTable>) -> Arc<FusedSuiteProgram> {
        let exprs: Vec<Expr> = srcs.iter().map(|s| parse(s).unwrap()).collect();
        Arc::new(FusedSuiteProgram::compile(&exprs, table).unwrap())
    }

    /// The semantics of record for monitor `src` over `t`.
    fn reference(src: &str, t: &Trace) -> Vec<bool> {
        eval_trace(&monitor_form(&parse(src).unwrap()).unwrap(), t).unwrap()
    }

    /// Runs `src` as a one-root fused suite over `t`, asserting every
    /// verdict against [`reference`].
    fn monitor_run(src: &str, t: &Trace) -> Vec<bool> {
        let table = pqr_table();
        let mut suite = compile(&[src], &table).instantiate();
        let verdicts: Vec<bool> = t
            .iter()
            .map(|s| {
                suite.observe(&table.frame_from_state_lossy(s)).unwrap();
                suite.verdict(0)
            })
            .collect();
        assert_eq!(verdicts, reference(src, t), "`{src}` diverged from eval");
        verdicts
    }

    /// Copies one frame per lane into a lane-major slab.
    fn slab_of(frames: &[Frame]) -> FrameBatch {
        let mut slab = FrameBatch::new(frames[0].table(), frames.len());
        for (lane, frame) in frames.iter().enumerate() {
            slab.write_lane_from(lane, frame);
        }
        slab
    }

    #[test]
    fn matches_reference_on_past_only_formulas() {
        let t = trace_of(&[
            ("p", vec![true, false, true, true, false, true]),
            ("q", vec![false, false, true, false, true, true]),
        ]);
        for src in [
            "prev(p)",
            "once(p && q)",
            "historically(p || q)",
            "held_for(p, 2ticks)",
            "once_within(q, 3ticks)",
            "became(p)",
            "initially(p) -> q",
            "prev(prev(p)) && !q",
        ] {
            let past_only = eval_trace(&parse(src).unwrap(), &t).unwrap();
            assert_eq!(monitor_run(src, &t), past_only, "mismatch for {src}");
        }
    }

    #[test]
    fn always_uses_violation_semantics() {
        let t = trace_of(&[("p", vec![true, false, true])]);
        // reference `always` is suffix-true; the monitor flags per-state.
        assert_eq!(monitor_run("always(p)", &t), vec![true, false, true]);
    }

    #[test]
    fn entails_uses_per_state_semantics() {
        let t = trace_of(&[("p", vec![true, true]), ("q", vec![true, false])]);
        assert_eq!(monitor_run("p => q", &t), vec![true, false]);
    }

    #[test]
    fn iff_monitors_agreement() {
        let t = trace_of(&[("p", vec![true, false]), ("q", vec![true, true])]);
        assert_eq!(monitor_run("p <-> q", &t), vec![true, false]);
    }

    #[test]
    fn rejects_future_operators() {
        for src in ["eventually(p)", "next(p)", "always(p -> eventually(q))"] {
            assert!(
                matches!(
                    monitor_form(&parse(src).unwrap()),
                    Err(EvalError::FutureOperator { .. })
                ),
                "`{src}` must be rejected"
            );
        }
    }

    #[test]
    fn compile_in_rejects_unknown_signals() {
        let table = SignalTable::builder().finish();
        assert_eq!(
            FusedSuiteProgram::compile(&[parse("p").unwrap()], &table).unwrap_err(),
            EvalError::UnknownSignal { name: "p".into() }
        );
        let mut b = SignalTable::builder();
        b.real("x");
        assert!(matches!(
            FusedSuiteProgram::compile(&[parse("x < missing").unwrap()], &b.finish()),
            Err(EvalError::UnknownSignal { name }) if name == "missing"
        ));
    }

    #[test]
    fn comparisons_resolve_against_interned_symbols() {
        let mut b = SignalTable::builder();
        let cmd = b.sym("cmd");
        let table = b.finish();
        let mut suite = compile(&["cmd == 'STOP'"], &table).instantiate();
        let mut f = table.frame();
        f.set(cmd, Value::sym("STOP"));
        suite.observe(&f).unwrap();
        assert!(suite.verdict(0));
        f.set(cmd, Value::sym("GO"));
        suite.observe(&f).unwrap();
        assert!(!suite.verdict(0));
    }

    #[test]
    fn short_circuit_does_not_desync_history() {
        // The `prev(q)` inside the And must track q even while p is false.
        let t = trace_of(&[
            ("p", vec![false, false, true]),
            ("q", vec![true, false, false]),
        ]);
        assert_eq!(monitor_run("p && prev(q)", &t), vec![false, false, false]);
        let t2 = trace_of(&[
            ("p", vec![false, true, true]),
            ("q", vec![true, true, false]),
        ]);
        assert_eq!(monitor_run("p && prev(q)", &t2), vec![false, true, true]);
    }

    #[test]
    fn reset_restores_initial_behaviour() {
        let t = trace_of(&[
            ("p", vec![true, false, true, true]),
            ("q", vec![false, true, true, false]),
            ("r", vec![true, true, false, true]),
        ]);
        let srcs = ["prev(p)", "once(q) && historically(r)", "initially(p) -> q"];
        let table = pqr_table();
        let mut suite = compile(&srcs, &table).instantiate();
        let run = |suite: &mut FusedSuite| -> Vec<Vec<bool>> {
            t.iter()
                .map(|s| {
                    suite.observe(&table.frame_from_state_lossy(s)).unwrap();
                    (0..srcs.len()).map(|m| suite.verdict(m)).collect()
                })
                .collect()
        };
        let first = run(&mut suite);
        suite.reset();
        assert_eq!(suite.steps_observed(), 0);
        assert_eq!(run(&mut suite), first);
        for (m, src) in srcs.iter().enumerate() {
            let got: Vec<bool> = first.iter().map(|tick| tick[m]).collect();
            assert_eq!(got, reference(src, &t), "`{src}` diverged from eval");
        }
    }

    /// Runs `srcs` as one fused suite over `t`, checking every monitor's
    /// verdicts against its own [`reference`] evaluation.
    fn assert_fused_matches_per_monitor(srcs: &[&str], t: &Trace) {
        let table = pqr_table();
        let mut fused = compile(srcs, &table).instantiate();
        let expected: Vec<Vec<bool>> = srcs.iter().map(|src| reference(src, t)).collect();
        for (step, s) in t.iter().enumerate() {
            fused.observe(&table.frame_from_state_lossy(s)).unwrap();
            for (i, src) in srcs.iter().enumerate() {
                assert_eq!(
                    fused.verdict(i),
                    expected[i][step],
                    "monitor {i} (`{src}`) diverged at step {step}"
                );
            }
        }
    }

    #[test]
    fn fused_suite_matches_per_monitor_verdicts() {
        let t = trace_of(&[
            ("p", vec![true, false, true, true, false, true]),
            ("q", vec![false, false, true, false, true, true]),
            ("r", vec![true, true, false, false, true, false]),
        ]);
        assert_fused_matches_per_monitor(
            &[
                "always(p -> q)",
                "p -> prev(q)",
                "p && q && r",
                "once(p && q) || held_for(r, 2ticks)",
                "historically(p || q) -> became(r)",
                "initially(p) <-> once_within(q, 3ticks)",
                "p => q",
            ],
            &t,
        );
    }

    #[test]
    fn fused_suite_dedups_shared_subtrees_and_cells() {
        let table = {
            let mut b = SignalTable::builder();
            b.bool("p");
            b.bool("q");
            b.finish()
        };
        let exprs = [
            parse("p && prev(q)").unwrap(),
            parse("q || prev(q)").unwrap(),
            parse("p && prev(q)").unwrap(),
        ];
        let program = FusedSuiteProgram::compile(&exprs, &table).unwrap();
        // Unique nodes: p, q, prev(q), p && prev(q), q || prev(q).
        assert_eq!(program.unique_nodes(), 5);
        // Source nodes: 4 + 4 + 4 (each monitor re-counts its whole
        // tree: two leaves, the prev, the connective).
        assert_eq!(program.source_nodes(), 12);
        // The three `prev(q)` occurrences share one temporal cell.
        assert_eq!(program.state_cells(), 1);
        assert_eq!(program.roots(), 3);
    }

    #[test]
    fn reads_list_every_signal_the_suite_reads_once() {
        let mut b = SignalTable::builder();
        let x = b.real("x");
        b.bool("unread");
        let p = b.bool("p");
        let y = b.real("y");
        let table = b.finish();
        let program = compile(&["p || x < 3.0", "prev(x < y) && p", "1.0 < y"], &table);
        assert_eq!(program.reads(), &[x, p, y]);
        assert!(compile(&["true"], &table).reads().is_empty());
    }

    #[test]
    fn fused_reset_restores_initial_behaviour() {
        let table = {
            let mut b = SignalTable::builder();
            let p = b.bool("p");
            (b.finish(), p)
        };
        let (table, p) = table;
        let exprs = [parse("prev(p)").unwrap()];
        let mut suite = Arc::new(FusedSuiteProgram::compile(&exprs, &table).unwrap()).instantiate();
        let mut frame = table.frame();
        frame.set(p, true);
        suite.observe(&frame).unwrap();
        suite.observe(&frame).unwrap();
        assert!(suite.verdict(0));
        assert_eq!(suite.steps_observed(), 2);
        suite.reset();
        assert_eq!(suite.steps_observed(), 0);
        suite.observe(&frame).unwrap();
        assert!(!suite.verdict(0), "reset must clear temporal history");
    }

    #[test]
    fn fused_errors_name_the_first_owning_monitor() {
        let mut b = SignalTable::builder();
        b.bool("p");
        b.bool("q");
        let table = b.finish();
        let exprs = [parse("p").unwrap(), parse("p || q").unwrap()];
        let mut suite = Arc::new(FusedSuiteProgram::compile(&exprs, &table).unwrap()).instantiate();
        let mut frame = table.frame();
        frame.set_named("p", true);
        // `q` is unset: the failing node is owned by monitor 1, the
        // first (and only) formula that demanded it.
        let err = suite.observe(&frame).unwrap_err();
        assert_eq!(err.monitor, 1);
        assert!(matches!(err.source, EvalError::MissingVar { ref name, .. } if name == "q"));
        assert!(err.to_string().contains("fused monitor #1"));
    }

    #[test]
    fn fused_rejects_future_operators_and_unknown_signals() {
        let table = SignalTable::builder().finish();
        assert!(matches!(
            FusedSuiteProgram::compile(&[parse("eventually(p)").unwrap()], &table),
            Err(EvalError::FutureOperator { .. })
        ));
        assert!(matches!(
            FusedSuiteProgram::compile(&[parse("p").unwrap()], &table),
            Err(EvalError::UnknownSignal { .. })
        ));
    }

    /// Feeds `t` to one batch with a retirement schedule (`retire_at[l]`
    /// = observe count after which lane `l` stops) and to a scalar fused
    /// suite per lane, asserting at every step that both match the lane's
    /// own [`reference`] verdicts.
    fn assert_batch_matches_scalar_lanes(srcs: &[&str], traces: &[&Trace], retire_at: &[usize]) {
        let table = pqr_table();
        let program = compile(srcs, &table);
        let lanes = traces.len();
        let expected: Vec<Vec<Vec<bool>>> = traces
            .iter()
            .map(|t| srcs.iter().map(|src| reference(src, t)).collect())
            .collect();
        let mut batch = program.instantiate_batch(lanes);
        let mut scalars: Vec<FusedSuite> = (0..lanes).map(|_| program.instantiate()).collect();
        let max_len = traces.iter().map(|t| t.len()).max().unwrap_or(0);
        let mut slab = FrameBatch::new(&table, lanes);
        for step in 0..max_len {
            for l in 0..lanes {
                let lane_done = step >= retire_at[l].min(traces[l].len());
                if lane_done {
                    batch.retire_lane(l);
                } else {
                    let state = traces[l].state(step).unwrap();
                    slab.write_lane_from(l, &table.frame_from_state_lossy(state));
                }
            }
            if batch.active_lanes() == 0 {
                break;
            }
            batch.observe_slab(&slab).unwrap();
            for (l, scalar) in scalars.iter_mut().enumerate() {
                if !batch.is_active(l) {
                    continue;
                }
                scalar
                    .observe(&table.frame_from_state_lossy(traces[l].state(step).unwrap()))
                    .unwrap();
                // The tick this lane just observed.
                let tick = batch.steps_observed(l) as usize - 1;
                for (m, src) in srcs.iter().enumerate() {
                    let want = expected[l][m][tick];
                    assert_eq!(
                        (batch.verdict(l, m), scalar.verdict(m)),
                        (want, want),
                        "lane {l} monitor {m} (`{src}`) diverged at step {step}"
                    );
                }
            }
        }
        for (l, scalar) in scalars.iter().enumerate() {
            assert_eq!(
                batch.steps_observed(l),
                scalar.steps_observed(),
                "lane {l} step counter diverged"
            );
        }
    }

    #[test]
    fn batch_matches_scalar_fused_lanes() {
        let t0 = trace_of(&[
            ("p", vec![true, false, true, true, false, true]),
            ("q", vec![false, false, true, false, true, true]),
            ("r", vec![true, true, false, false, true, false]),
        ]);
        let t1 = trace_of(&[
            ("p", vec![false, false, true, false, true, true]),
            ("q", vec![true, true, true, false, false, false]),
            ("r", vec![false, true, false, true, false, true]),
        ]);
        let t2 = trace_of(&[
            ("p", vec![true, true, true, true, true, true]),
            ("q", vec![false, false, false, false, false, false]),
            ("r", vec![true, false, true, false, true, false]),
        ]);
        let srcs = [
            "always(p -> q)",
            "p -> prev(q)",
            "once(p && q) || held_for(r, 2ticks)",
            "historically(p || q) -> became(r)",
            "initially(p) <-> once_within(q, 3ticks)",
        ];
        // No retirement: all lanes run the full trace.
        assert_batch_matches_scalar_lanes(&srcs, &[&t0, &t1, &t2], &[6, 6, 6]);
        // Mid-batch retirement at different steps: surviving lanes'
        // verdicts and temporal history must be untouched.
        assert_batch_matches_scalar_lanes(&srcs, &[&t0, &t1, &t2], &[2, 6, 4]);
        assert_batch_matches_scalar_lanes(&srcs, &[&t0, &t1, &t2], &[0, 3, 6]);
    }

    #[test]
    fn batch_reset_reactivates_and_clears_history() {
        let mut b = SignalTable::builder();
        let p = b.bool("p");
        let table = b.finish();
        let program = compile(&["prev(p)"], &table);
        let mut batch = program.instantiate_batch(2);
        let mut slab = FrameBatch::new(&table, 2);
        slab.set(p, 0, true);
        slab.set(p, 1, true);
        batch.observe_slab(&slab).unwrap();
        batch.retire_lane(1);
        batch.retire_lane(1); // idempotent
        assert_eq!(batch.active_lanes(), 1);
        batch.observe_slab(&slab).unwrap();
        assert!(batch.verdict(0, 0));
        assert_eq!(batch.steps_observed(0), 2);
        assert_eq!(batch.steps_observed(1), 1, "retired lane froze");
        batch.reset();
        assert_eq!(batch.active_lanes(), 2);
        assert_eq!(batch.steps_observed(0), 0);
        batch.observe_slab(&slab).unwrap();
        assert!(!batch.verdict(0, 0), "reset must clear temporal history");
        assert!(!batch.verdict(1, 0), "reset must reactivate lane 1 clean");
    }

    #[test]
    fn reset_lane_rearms_one_lane_without_touching_neighbours() {
        let mut b = SignalTable::builder();
        let p = b.bool("p");
        let table = b.finish();
        let program = compile(&["prev(p)", "once(!p)"], &table);
        let mut batch = program.instantiate_batch(2);
        let mut slab = FrameBatch::new(&table, 2);
        slab.set(p, 0, true);
        slab.set(p, 1, false); // lane 1 trips `once(!p)` forever
        batch.observe_slab(&slab).unwrap();
        batch.observe_slab(&slab).unwrap();
        assert!(batch.verdict(1, 1), "lane 1 latched once(!p)");
        batch.retire_lane(1);
        assert_eq!(batch.active_lanes(), 1);

        // Re-arm lane 1 for a fresh run whose samples never violate.
        batch.reset_lane(1);
        assert_eq!(batch.active_lanes(), 2);
        assert_eq!(batch.steps_observed(1), 0);
        assert_eq!(batch.steps_observed(0), 2, "neighbour untouched");
        slab.set(p, 1, true);
        batch.observe_slab(&slab).unwrap();
        assert!(
            !batch.verdict(1, 1),
            "reclaimed lane must not inherit the previous run's once() latch"
        );
        assert!(
            !batch.verdict(1, 0),
            "reclaimed lane restarts with empty prev() history"
        );
        assert!(batch.verdict(0, 0), "neighbour's prev(p) history survived");
        assert_eq!(batch.steps_observed(0), 3);
        assert_eq!(batch.steps_observed(1), 1);
    }

    #[test]
    fn batch_errors_name_the_lane_and_monitor() {
        let mut b = SignalTable::builder();
        b.bool("p");
        b.bool("q");
        let table = b.finish();
        let program = compile(&["p", "p || q"], &table);
        let mut batch = program.instantiate_batch(2);
        let mut ok = table.frame();
        ok.set_named("p", true);
        ok.set_named("q", false);
        let mut missing_q = table.frame();
        missing_q.set_named("p", true);
        let err = batch.observe_slab(&slab_of(&[ok, missing_q])).unwrap_err();
        assert_eq!((err.lane, err.monitor), (1, 1));
        assert!(matches!(err.source, EvalError::MissingVar { ref name, .. } if name == "q"));
        assert!(err.to_string().contains("lane #1"));
    }

    #[test]
    fn missing_and_mistyped_signals_error_by_name() {
        let table = pqr_table();
        let mut suite = compile(&["p"], &table).instantiate();
        assert_eq!(
            suite.observe(&table.frame()).unwrap_err().source,
            EvalError::MissingVar {
                name: "p".into(),
                step: 0
            }
        );
        let mut suite = compile(&["p || q"], &table).instantiate();
        let s = State::new().with_int("p", 3).with_bool("q", true);
        assert!(matches!(
            suite.observe(&table.frame_from_state_lossy(&s)).map_err(|e| e.source),
            Err(EvalError::NotBoolean { name, found: "int" }) if name == "p"
        ));
    }
}
