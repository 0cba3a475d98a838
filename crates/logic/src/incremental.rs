//! Incremental (per-tick) evaluation for run-time goal monitoring.
//!
//! A goal suite compiles into one [`FusedSuiteProgram`]: every
//! monitor's [`monitor_form`]-rewritten formula merged into a single
//! hash-consed DAG over resolved [`SignalId`]s, in which every
//! structurally identical subexpression — stateless atoms and temporal
//! subtrees alike, since all monitors of a suite observe the same frame
//! stream — is one node. Compilation resolves every variable reference
//! against a shared [`SignalTable`] **once**, and lowers every
//! signal-vs-literal comparison into a pre-decoded test, so the per-tick
//! loop is pure slot access: no string lookups, no allocation, O(#nodes)
//! time and memory independent of trace length.
//!
//! The program runs as **one bit-sliced pass at every width**.
//! [`FusedSuiteBatch`] keeps each node's value for `lanes` runs as
//! `⌈lanes/64⌉` `u64` words (lane `l` is bit `l % 64` of word `l / 64`)
//! and evaluates the boolean combinators and most temporal operators as
//! one word operation per 64 lanes. A single run is its one-lane case:
//! a [`Frame`](crate::Frame) already has the one-lane layout, so the
//! pass reads it in place ([`Frame::as_batch`](crate::Frame::as_batch)),
//! and temporal semantics and the error policy each have one home.
//!
//! Every node is evaluated on every tick, so every signal the suite
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
use crate::frame_batch::{FrameBatch, Row, FALSE, REAL, SYM};
use crate::signal::{SignalId, SignalKind, SignalTable};
use crate::value::{Sym, Value};
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
}

fn resolve(name: &str, table: &SignalTable) -> Result<SignalId, EvalError> {
    table.id(name).ok_or_else(|| EvalError::UnknownSignal {
        name: name.to_owned(),
    })
}

/// Refuses `lhs op rhs` when `op` is an ordering and an operand is
/// boolean or symbolic: a signal the table declares so, or such a
/// literal. [`Value::num_lt`] orders numbers only, so such a comparison
/// fails on every well-typed sample.
///
/// # Errors
///
/// [`EvalError::UnorderableOperands`], naming both operands as written.
fn check_order(lhs: Slot, op: CmpOp, rhs: Slot, table: &SignalTable) -> Result<(), EvalError> {
    let numeric = |slot| match slot {
        Slot::Sig(id) => matches!(table.kind(id), SignalKind::Int | SignalKind::Real),
        Slot::Lit(value) => value.as_real().is_some(),
    };
    if matches!(op, CmpOp::Eq | CmpOp::Ne) || numeric(lhs) && numeric(rhs) {
        return Ok(());
    }
    let written = |slot| match slot {
        Slot::Sig(id) => table.name(id).to_owned(),
        Slot::Lit(value) => value.to_string(),
    };
    Err(EvalError::UnorderableOperands {
        lhs: written(lhs),
        rhs: written(rhs),
    })
}

/// A [`Var`](Leaf::Var) node's reading of one sample slot: the
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

/// A comparison node's resolved operands, kept for the exact per-lane
/// path.
#[derive(Debug)]
struct Compare {
    lhs: Slot,
    op: CmpOp,
    rhs: Slot,
}

/// A signal-vs-literal comparison's test, decoded once at compile time
/// so the pass never re-matches operand and literal kinds. A literal on
/// the left is mirrored to the right.
#[derive(Debug, Clone, Copy)]
enum Test {
    /// `x op y` against a number ([`Value::num_eq`] /
    /// [`Value::num_lt`]). The fast path compares `Real` slots; an `Int`
    /// slot, read as a real, and a non-numeric one, unequal to `y` and
    /// unordered against it, take the per-lane path.
    Num(CmpOp, f64),
    /// `x == y` (`true`) or `x != y` (`false`) against a symbol, which
    /// equals only itself.
    Sym(bool, Sym),
    /// `x == y` (`true`) or `x != y` (`false`) against a boolean.
    Bool(bool, bool),
}

impl Test {
    /// The test `lhs op rhs` lowers to over its signal, if it is a
    /// signal-vs-literal comparison that can decide a lane without error
    /// (an ordering against a symbol or boolean never can).
    fn lower(lhs: Slot, op: CmpOp, rhs: Slot) -> Option<(SignalId, Test)> {
        let (sig, op, lit) = match (lhs, rhs) {
            (Slot::Sig(sig), Slot::Lit(lit)) => (sig, op, lit),
            (Slot::Lit(lit), Slot::Sig(sig)) => (sig, op.flipped(), lit),
            _ => return None,
        };
        let eq = match op {
            CmpOp::Eq => true,
            CmpOp::Ne => false,
            _ => return Some((sig, Test::Num(op, lit.as_real()?))),
        };
        let test = match lit {
            Value::Sym(y) => Test::Sym(eq, y),
            Value::Bool(y) => Test::Bool(eq, y),
            Value::Int(_) | Value::Real(_) => Test::Num(op, lit.as_real()?),
        };
        Some((sig, test))
    }

    /// Packs the test over a signal row into `out`, or returns `false`
    /// if an active slot is unset or holds a value the test's fast path
    /// does not read (an `Int`, or another kind), so the per-lane path
    /// must decide it.
    #[inline]
    fn pack(self, out: &mut [u64], row: Row<'_>, active: &[u64]) -> bool {
        let f = f64::from_bits;
        match self {
            Test::Num(CmpOp::Lt, y) => pack_payloads(out, active, row, REAL, |x| f(x) < y),
            Test::Num(CmpOp::Le, y) => pack_payloads(out, active, row, REAL, |x| f(x) <= y),
            Test::Num(CmpOp::Gt, y) => pack_payloads(out, active, row, REAL, |x| f(x) > y),
            Test::Num(CmpOp::Ge, y) => pack_payloads(out, active, row, REAL, |x| f(x) >= y),
            Test::Num(CmpOp::Eq, y) => pack_payloads(out, active, row, REAL, |x| f(x) == y),
            Test::Num(CmpOp::Ne, y) => pack_payloads(out, active, row, REAL, |x| f(x) != y),
            Test::Sym(eq, y) => {
                let y = u64::from(y.id());
                pack_payloads(out, active, row, SYM, |x| (x == y) == eq)
            }
            Test::Bool(eq, y) => pack_bools(out, active, row.tags, y != eq),
        }
    }

    /// The test's identity over its signal (a number by its bits), and
    /// the identity of its complement, if it has one: the test that is
    /// false exactly where this one is true on every set slot.
    fn keys(self) -> (TestKey, Option<TestKey>) {
        match self {
            Test::Num(op, y) => {
                let complement = match op {
                    CmpOp::Eq => Some(CmpOp::Ne),
                    CmpOp::Ne => Some(CmpOp::Eq),
                    _ => None,
                };
                let bits = y.to_bits();
                (
                    TestKey::Num(op, bits),
                    complement.map(|op| TestKey::Num(op, bits)),
                )
            }
            Test::Sym(eq, y) => (TestKey::Sym(eq, y), Some(TestKey::Sym(!eq, y))),
            Test::Bool(eq, y) => (TestKey::Bool(eq, y), Some(TestKey::Bool(!eq, y))),
        }
    }

    /// The test's place in the leaf schedule: leaves of one kind run
    /// back to back.
    fn rank(self) -> u8 {
        match self {
            Test::Num(op, _) => 1 + op as u8,
            Test::Sym(eq, _) => 7 + u8::from(eq),
            Test::Bool(eq, _) => 9 + u8::from(eq),
        }
    }
}

/// A [`Test`]'s identity: [`Test`] with a number's bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TestKey {
    Num(CmpOp, u64),
    Sym(bool, Sym),
    Bool(bool, bool),
}

/// Eight copies of byte `b`.
#[inline]
fn bytes(b: u8) -> u64 {
    u64::from(b) * 0x0101_0101_0101_0101
}

/// Bit `i` of the result is bit 0 of byte `i` of `x`, whose other bits
/// must be clear: the multiply's partial products land on distinct bits,
/// and byte `i`'s reaches bit `56 + i`.
#[inline]
fn gather(x: u64) -> u64 {
    x.wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// Whether every active lane's tag passes `valid`. Every tag usually
/// does, so the whole row is scanned first, without an early exit so
/// that the scan vectorizes; the lane-by-lane check runs only when some
/// tag fails, such as an unset slot of a free lane.
#[inline]
fn tags_hold(tags: &[u8], active: &[u64], valid: impl Fn(u8) -> bool + Copy) -> bool {
    tags.iter().fold(true, |all, &t| all & valid(t)) || active_tags_hold(tags, active, valid)
}

/// [`tags_hold`]'s lane-by-lane check.
#[cold]
#[inline(never)]
fn active_tags_hold(tags: &[u8], active: &[u64], valid: impl Fn(u8) -> bool) -> bool {
    let mut lanes = active.iter().enumerate();
    lanes.all(|(w, &live)| ones(live).all(|b| valid(tags[w * 64 + b])))
}

/// Packs `bit` over a row of up to 64 lanes into one word, lane `l` at
/// bit `l`: whole groups of eight lanes through `groups`, which packs
/// them from bit 0 on, and the tail lane by lane.
#[inline]
fn pack_word<T: Copy>(row: &[T], groups: impl Fn(&[T]) -> u64, bit: impl Fn(T) -> bool) -> u64 {
    let at = row.len() & !7;
    let tail = row[at..].iter().rev();
    let tail = tail.fold(0, |bits, &x| bits << 1 | u64::from(bit(x)));
    // A 64-lane row has no tail to shift.
    let tail = tail.checked_shl(at as u32).unwrap_or(0);
    if at == 0 {
        return tail;
    }
    tail | groups(&row[..at])
}

/// Packs `test` over whole groups of eight payloads from bit 0 on: eight
/// tests first, then their bits, so the tests vectorize.
#[inline]
fn test_groups(payload: &[u64], test: &impl Fn(u64) -> bool) -> u64 {
    let mut word = 0;
    for (g, group) in payload.chunks_exact(8).enumerate() {
        let mut eight = [0; 8];
        eight.copy_from_slice(group);
        let tested = eight.map(test);
        let mut byte = 0;
        for (k, &t) in tested.iter().enumerate() {
            byte |= u64::from(t) << k;
        }
        word |= byte << (8 * g);
    }
    word
}

/// Packs a boolean row's values, each XOR `invert`, into `out`, lane `l`
/// at bit `l % 64` of word `l / 64`. Returns `false`, leaving `out`
/// unspecified, unless every active lane holds a boolean.
#[inline]
fn pack_bools(out: &mut [u64], active: &[u64], tags: &[u8], invert: bool) -> bool {
    if !tags_hold(tags, active, |t| t & !1 == FALSE) {
        return false;
    }
    let invert = u8::from(invert);
    // Eight tags as one word: their bit 0s, gathered.
    let groups = |tags: &[u8]| {
        let mut word = 0;
        for (g, group) in tags.chunks_exact(8).enumerate() {
            let mut eight = [0; 8];
            eight.copy_from_slice(group);
            word |= gather((u64::from_le_bytes(eight) ^ bytes(invert)) & bytes(1)) << (8 * g);
        }
        word
    };
    for (word, tags) in out.iter_mut().zip(tags.chunks(64)) {
        *word = pack_word(tags, groups, |t| (t ^ invert) & 1 == 1);
    }
    true
}

/// Packs `test` over a row's payloads into `out`, laid out as in
/// [`pack_bools`]. Returns `false`, leaving `out` unspecified, unless
/// every active lane's tag is `tag`.
#[inline]
fn pack_payloads(
    out: &mut [u64],
    active: &[u64],
    row: Row<'_>,
    tag: u8,
    test: impl Fn(u64) -> bool,
) -> bool {
    if !tags_hold(row.tags, active, |t| t == tag) {
        return false;
    }
    for (word, payload) in out.iter_mut().zip(row.payload.chunks(64)) {
        *word = pack_word(payload, |groups| test_groups(groups, &test), &test);
    }
    true
}

/// The indices of `word`'s set bits, ascending.
#[inline]
fn ones(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

/// `a` where `mask` is set, `b` elsewhere.
#[inline]
fn select(mask: u64, a: u64, b: u64) -> u64 {
    (a & mask) | (b & !mask)
}

/// A word of 64 copies of `b`.
#[inline]
fn splat(b: bool) -> u64 {
    if b {
        !0
    } else {
        0
    }
}

/// Lane `lane`'s bit in a bit row.
#[inline]
fn bit(row: &[u64], lane: usize) -> bool {
    (row[lane / 64] >> (lane % 64)) & 1 == 1
}

/// Sets lane `lane`'s bit in a bit row to `v`.
#[inline]
fn set_bit(row: &mut [u64], lane: usize, v: bool) {
    let m = 1 << (lane % 64);
    row[lane / 64] = select(m, splat(v), row[lane / 64]);
}

/// The active mask of a full batch: one set bit per lane, and the bits
/// past `lanes` in the last word clear.
fn full_mask(lanes: usize) -> Vec<u64> {
    let mut mask = vec![!0; lanes.div_ceil(64)];
    if !lanes.is_multiple_of(64) {
        if let Some(last) = mask.last_mut() {
            *last = (1 << (lanes % 64)) - 1;
        }
    }
    mask
}

/// The per-lane evaluation of a [`Leaf`] with exact error semantics: the
/// path a row takes when its fast test leaves a slot undecided. Every
/// active lane, in lane order, sets its bit in `out` or fails the pass
/// with its error; inactive lanes' bits are left as they are.
#[cold]
#[inline(never)]
fn exact_lanes(
    leaf: &Leaf,
    cmps: &[Compare],
    out: &mut [u64],
    src: &FrameBatch,
    active: &[u64],
    steps: &[u64],
    table: &SignalTable,
) -> Result<(), (usize, EvalError)> {
    for (w, &live) in active.iter().enumerate() {
        for b in ones(live) {
            let lane = w * 64 + b;
            let step = usize::try_from(steps[lane]).unwrap_or(usize::MAX);
            let get = |id: SignalId| src.get(id, lane);
            let v = match *leaf {
                Leaf::Var(id) => slot_bool(get(id), id, step, table),
                Leaf::Test { cmp, .. } | Leaf::Copy { cmp, .. } | Leaf::Cmp(cmp) => {
                    let c = &cmps[cmp as usize];
                    c.lhs.value(get, step, table).and_then(|a| {
                        let b = c.rhs.value(get, step, table)?;
                        eval::compare_values(&a, c.op, &b)
                    })
                }
            }
            .map_err(|e| (lane, e))?;
            set_bit(out, lane, v);
        }
    }
    Ok(())
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

/// A node that reads samples: the DAG's leaves.
#[derive(Debug)]
enum Leaf {
    Var(SignalId),
    /// A signal-vs-literal comparison lowered to a [`Test`] of the
    /// signal's row; `cmp` indexes its operands for the exact path.
    Test {
        sig: SignalId,
        test: Test,
        cmp: u32,
    },
    /// A comparison whose test of the same signal repeats the test of
    /// leaf node `of` (`x <= 2` beside `x <= 2.0`), or with `invert`
    /// complements it (`s != 'ACC'` beside `s == 'ACC'`): that node's
    /// bits, inverted or not, when it decided every active lane (which
    /// leaves no active slot unset).
    Copy {
        of: u32,
        invert: bool,
        cmp: u32,
    },
    /// Any other comparison, evaluated lane by lane.
    Cmp(u32),
}

impl Leaf {
    /// The leaf's place in the schedule: leaves of one kind run back to
    /// back.
    fn rank(&self) -> u8 {
        match self {
            Leaf::Var(_) => 0,
            Leaf::Test { test, .. } => test.rank(),
            Leaf::Copy { .. } => 11,
            Leaf::Cmp(_) => 12,
        }
    }
}

/// A node computed from other nodes' bit rows. Children are referenced
/// by node index, always smaller than the node's own: the nodes are
/// topologically ordered.
///
/// The temporal state lives in two kinds of rows. `prev`, `once`,
/// `historically` and `became` own one *bit row* each, and `initially`
/// owns two (captured flag, then captured value); `held_for` owns a
/// *lane row* of run lengths and `once_within` a lane row of last-true
/// steps.
#[derive(Debug)]
enum Inner {
    Const(bool),
    Not(u32),
    /// Children `arena[start..end]` of the program's child arena.
    And(u32, u32),
    Or(u32, u32),
    /// `antecedent -> consequent`.
    Implies([u32; 2]),
    Prev {
        child: u32,
        bits: u32,
    },
    Once {
        child: u32,
        bits: u32,
    },
    Historically {
        child: u32,
        bits: u32,
    },
    Became {
        child: u32,
        bits: u32,
    },
    Initially {
        child: u32,
        bits: u32,
    },
    HeldFor {
        child: u32,
        ticks: u64,
        run: u32,
    },
    OnceWithin {
        child: u32,
        ticks: u64,
        last: u32,
    },
}

impl Inner {
    /// The node's children, `And`/`Or`'s read from `arena`.
    fn children<'a>(&'a self, arena: &'a [u32]) -> &'a [u32] {
        match self {
            Inner::Const(_) => &[],
            Inner::And(start, end) | Inner::Or(start, end) => {
                &arena[*start as usize..*end as usize]
            }
            Inner::Implies(ab) => ab,
            Inner::Not(child)
            | Inner::Prev { child, .. }
            | Inner::Once { child, .. }
            | Inner::Historically { child, .. }
            | Inner::Became { child, .. }
            | Inner::Initially { child, .. }
            | Inner::HeldFor { child, .. }
            | Inner::OnceWithin { child, .. } => std::slice::from_ref(child),
        }
    }

    /// The operator's place among its level's nodes in the schedule.
    fn rank(&self) -> u8 {
        match self {
            Inner::Const(_) => 0,
            Inner::Not(_) => 1,
            Inner::And(..) => 2,
            Inner::Or(..) => 3,
            Inner::Implies(_) => 4,
            Inner::Prev { .. } => 5,
            Inner::Once { .. } => 6,
            Inner::Historically { .. } => 7,
            Inner::Became { .. } => 8,
            Inner::Initially { .. } => 9,
            Inner::HeldFor { .. } => 10,
            Inner::OnceWithin { .. } => 11,
        }
    }

    /// Whether the node carries temporal state.
    fn is_temporal(&self) -> bool {
        self.rank() >= 5
    }
}

/// One node of a [`FusedSuiteProgram`] as compilation builds it.
#[derive(Debug)]
enum FusedNode {
    Leaf(Leaf),
    Inner(Inner),
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
/// Evaluation is one forward pass over a schedule fixed at compile
/// time — no recursion, no per-monitor re-walking: the leaves that read
/// the sample first, grouped by kind, then every other node level by
/// level (a node's level exceeds its children's), grouped by operator
/// within a level, so that nodes of one kind run back to back. Each
/// monitor's verdict is then one slab read at its root index.
///
/// A fused program is immutable and carries no run state: one
/// `Arc<FusedSuiteProgram>` is shared by every [`FusedSuiteBatch`]
/// instance across sweep cells and threads.
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
/// // One run is one lane; a frame is read in place as that lane.
/// let mut suite = program.instantiate_batch(1);
/// let mut frame = table.frame();
/// frame.set(p, true);
/// frame.set(q, true);
/// suite.observe_slab(frame.as_batch())?;
/// assert!(suite.verdict(0, 0));
/// assert!(!suite.verdict(0, 1)); // no previous state yet
/// suite.observe_slab(frame.as_batch())?;
/// assert!(suite.verdict(0, 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FusedSuiteProgram {
    table: Arc<SignalTable>,
    /// The leaves as `(node, leaf)`, by kind.
    leaves: Vec<(u32, Leaf)>,
    /// Every other node as `(node, op)`, by level, then operator.
    inner: Vec<(u32, Inner)>,
    /// The children of the `And` and `Or` nodes, in schedule order.
    children: Vec<u32>,
    /// First monitor (root index) that demanded each node — error
    /// attribution for the fused evaluation pass.
    owners: Vec<u32>,
    /// The comparisons' operands, indexed by the comparison leaves.
    cmps: Vec<Compare>,
    /// The initial value of every lane of each temporal bit row.
    init_bits: Vec<bool>,
    /// Lane rows of `held_for` run lengths, each starting at zero.
    run_rows: usize,
    /// Lane rows of `once_within` last-true steps, each starting empty.
    last_rows: usize,
    /// Temporal nodes: the suite-level state cells.
    cells: usize,
    /// One slab index per monitor, in compile order.
    roots: Vec<u32>,
    /// Every signal a leaf reads, ascending, once each.
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
    cmps: Vec<Compare>,
    children: Vec<u32>,
    init_bits: Vec<bool>,
    run_rows: usize,
    last_rows: usize,
    interned: HashMap<NodeKey, u32>,
    source_nodes: usize,
}

/// A node, row or table index as the `u32` nodes store.
fn index(i: usize) -> u32 {
    u32::try_from(i).expect("fused program too large")
}

impl FusedBuilder<'_> {
    /// Interns a node: an existing structural twin is reused (its state
    /// rows included), otherwise `make` materializes the node. Every
    /// call counts one *source* node toward the dedup ratio.
    fn intern(
        &mut self,
        key: NodeKey,
        monitor: u32,
        make: impl FnOnce(&mut Self) -> FusedNode,
    ) -> u32 {
        self.source_nodes += 1;
        if let Some(&idx) = self.interned.get(&key) {
            return idx;
        }
        let node = make(self);
        let idx = index(self.nodes.len());
        self.nodes.push(node);
        self.owners.push(monitor);
        self.interned.insert(key, idx);
        idx
    }

    /// Interns an interior node.
    fn inner(&mut self, key: NodeKey, monitor: u32, make: impl FnOnce(&mut Self) -> Inner) -> u32 {
        self.intern(key, monitor, |b| FusedNode::Inner(make(b)))
    }

    /// Appends `children` to the child arena, returning their range.
    fn arena(&mut self, children: &[u32]) -> (u32, u32) {
        let start = index(self.children.len());
        self.children.extend_from_slice(children);
        (start, index(self.children.len()))
    }

    /// Allocates consecutive temporal bit rows starting at `init`'s
    /// values, returning the first row's index.
    fn bits(&mut self, init: &[bool]) -> u32 {
        let at = index(self.init_bits.len());
        self.init_bits.extend_from_slice(init);
        at
    }

    fn build(&mut self, expr: &Expr, monitor: u32) -> Result<u32, EvalError> {
        Ok(match expr {
            Expr::Const(b) => self.inner(NodeKey::Const(*b), monitor, |_| Inner::Const(*b)),
            Expr::Var(v) => {
                let id = resolve(v, self.table)?;
                self.intern(NodeKey::Var(id.index() as u32), monitor, |_| {
                    FusedNode::Leaf(Leaf::Var(id))
                })
            }
            Expr::Cmp { lhs, op, rhs } => {
                let lhs = Slot::resolve(lhs, self.table)?;
                let rhs = Slot::resolve(rhs, self.table)?;
                let op = *op;
                check_order(lhs, op, rhs, self.table)?;
                self.intern(
                    NodeKey::Cmp(SlotKey::of(lhs), op, SlotKey::of(rhs)),
                    monitor,
                    |b| {
                        b.cmps.push(Compare { lhs, op, rhs });
                        let cmp = index(b.cmps.len() - 1);
                        FusedNode::Leaf(match Test::lower(lhs, op, rhs) {
                            Some((sig, test)) => Leaf::Test { sig, test, cmp },
                            None => Leaf::Cmp(cmp),
                        })
                    },
                )
            }
            Expr::Not(e) => {
                let c = self.build(e, monitor)?;
                self.inner(NodeKey::Not(c), monitor, |_| Inner::Not(c))
            }
            Expr::And(items) => {
                let cs = items
                    .iter()
                    .map(|e| self.build(e, monitor))
                    .collect::<Result<Vec<_>, _>>()?;
                self.inner(NodeKey::And(cs.clone()), monitor, |b| {
                    let (start, end) = b.arena(&cs);
                    Inner::And(start, end)
                })
            }
            Expr::Or(items) => {
                let cs = items
                    .iter()
                    .map(|e| self.build(e, monitor))
                    .collect::<Result<Vec<_>, _>>()?;
                self.inner(NodeKey::Or(cs.clone()), monitor, |b| {
                    let (start, end) = b.arena(&cs);
                    Inner::Or(start, end)
                })
            }
            Expr::Implies(a, b) => {
                let a = self.build(a, monitor)?;
                let b = self.build(b, monitor)?;
                self.inner(NodeKey::Implies(a, b), monitor, |_| Inner::Implies([a, b]))
            }
            // Each bit row starts at the value the operator reports
            // before its child has any history.
            Expr::Prev(e) => {
                let child = self.build(e, monitor)?;
                self.inner(NodeKey::Prev(child), monitor, |b| Inner::Prev {
                    child,
                    bits: b.bits(&[false]),
                })
            }
            Expr::Once(e) => {
                let child = self.build(e, monitor)?;
                self.inner(NodeKey::Once(child), monitor, |b| Inner::Once {
                    child,
                    bits: b.bits(&[false]),
                })
            }
            Expr::Historically(e) => {
                let child = self.build(e, monitor)?;
                self.inner(NodeKey::Historically(child), monitor, |b| {
                    Inner::Historically {
                        child,
                        bits: b.bits(&[true]),
                    }
                })
            }
            Expr::HeldFor { expr, ticks } => {
                let child = self.build(expr, monitor)?;
                let ticks = *ticks;
                self.inner(NodeKey::HeldFor(child, ticks), monitor, |b| {
                    b.run_rows += 1;
                    Inner::HeldFor {
                        child,
                        ticks,
                        run: index(b.run_rows - 1),
                    }
                })
            }
            Expr::OnceWithin { expr, ticks } => {
                let child = self.build(expr, monitor)?;
                let ticks = *ticks;
                self.inner(NodeKey::OnceWithin(child, ticks), monitor, |b| {
                    b.last_rows += 1;
                    Inner::OnceWithin {
                        child,
                        ticks,
                        last: index(b.last_rows - 1),
                    }
                })
            }
            // `became` reads a missing previous value as true: no edge
            // at the first step.
            Expr::Became(e) => {
                let child = self.build(e, monitor)?;
                self.inner(NodeKey::Became(child), monitor, |b| Inner::Became {
                    child,
                    bits: b.bits(&[true]),
                })
            }
            Expr::Initially(e) => {
                let child = self.build(e, monitor)?;
                self.inner(NodeKey::Initially(child), monitor, |b| Inner::Initially {
                    child,
                    bits: b.bits(&[false, false]),
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

impl FusedSuiteProgram {
    /// Compiles a whole goal suite — one expression per monitor, in
    /// suite order — into a single deduplicated DAG over `table`.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::FutureOperator`] if any expression contains
    /// `eventually` or `next`, [`EvalError::UnknownSignal`] if any
    /// references a name outside the table, and
    /// [`EvalError::UnorderableOperands`] if any orders a boolean or a
    /// symbol.
    pub fn compile(exprs: &[Expr], table: &Arc<SignalTable>) -> Result<Self, EvalError> {
        let mut b = FusedBuilder {
            table,
            nodes: Vec::new(),
            owners: Vec::new(),
            cmps: Vec::new(),
            children: Vec::new(),
            init_bits: Vec::new(),
            run_rows: 0,
            last_rows: 0,
            interned: HashMap::new(),
            source_nodes: 0,
        };
        let mut roots = Vec::with_capacity(exprs.len());
        for (monitor, expr) in exprs.iter().enumerate() {
            let rewritten = monitor_form(expr)?;
            roots.push(b.build(&rewritten, index(monitor))?);
        }
        let mut leaves = Vec::new();
        let mut inner = Vec::new();
        let mut levels = vec![0; b.nodes.len()];
        for (i, node) in b.nodes.into_iter().enumerate() {
            match node {
                FusedNode::Leaf(leaf) => leaves.push((index(i), leaf)),
                FusedNode::Inner(op) => {
                    let children = op.children(&b.children).iter();
                    levels[i] = 1 + children.map(|&c| levels[c as usize]).max().unwrap_or(0);
                    inner.push((index(i), op));
                }
            }
        }
        // A test that repeats or complements an earlier test of the same
        // signal is computed from that test's bits.
        let mut tests = HashMap::new();
        for (node, leaf) in &mut leaves {
            if let Leaf::Test { sig, test, cmp } = *leaf {
                let (key, complement) = test.keys();
                if let Some(&of) = tests.get(&(sig, key)) {
                    *leaf = Leaf::Copy {
                        of,
                        invert: false,
                        cmp,
                    };
                } else if let Some(&of) = complement.and_then(|k| tests.get(&(sig, k))) {
                    *leaf = Leaf::Copy {
                        of,
                        invert: true,
                        cmp,
                    };
                } else {
                    tests.insert((sig, key), *node);
                }
            }
        }
        leaves.sort_by_key(|(node, leaf)| (leaf.rank(), *node));
        inner.sort_by_key(|(node, op)| (levels[*node as usize], op.rank(), *node));
        // Lay the arena out in schedule order, so the pass reads it front
        // to back.
        let mut children = Vec::with_capacity(b.children.len());
        for (_, op) in &mut inner {
            if let Inner::And(start, end) | Inner::Or(start, end) = op {
                let at = index(children.len());
                children.extend_from_slice(&b.children[*start as usize..*end as usize]);
                (*start, *end) = (at, index(children.len()));
            }
        }
        let mut reads = Vec::new();
        for (_, leaf) in &leaves {
            match *leaf {
                Leaf::Var(id) => reads.push(id),
                Leaf::Test { cmp, .. } | Leaf::Copy { cmp, .. } | Leaf::Cmp(cmp) => {
                    let c = &b.cmps[cmp as usize];
                    for slot in [c.lhs, c.rhs] {
                        if let Slot::Sig(id) = slot {
                            reads.push(id);
                        }
                    }
                }
            }
        }
        reads.sort_unstable();
        reads.dedup();
        let cells = inner.iter().filter(|(_, op)| op.is_temporal()).count();
        Ok(FusedSuiteProgram {
            table: Arc::clone(table),
            leaves,
            inner,
            children,
            owners: b.owners,
            cmps: b.cmps,
            init_bits: b.init_bits,
            run_rows: b.run_rows,
            last_rows: b.last_rows,
            cells,
            roots,
            reads: reads.into_boxed_slice(),
            source_nodes: b.source_nodes,
        })
    }

    /// Checks that [`compile`](FusedSuiteProgram::compile) would accept
    /// `expr` over `table`, without building anything: the formula must
    /// have a [`monitor_form`], every signal it names must resolve, and
    /// every ordering must compare numbers. A suite authored goal by goal
    /// reports each goal's errors as it is added and still compiles once.
    ///
    /// # Errors
    ///
    /// As [`compile`](FusedSuiteProgram::compile).
    pub fn check(expr: &Expr, table: &SignalTable) -> Result<(), EvalError> {
        monitor_form(expr)?;
        let mut result = Ok(());
        expr.visit(&mut |e| {
            if result.is_err() {
                return;
            }
            result = match e {
                Expr::Var(v) => resolve(v, table).map(drop),
                Expr::Cmp { lhs, op, rhs } => Slot::resolve(lhs, table)
                    .and_then(|lhs| check_order(lhs, *op, Slot::resolve(rhs, table)?, table)),
                _ => Ok(()),
            };
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
        self.owners.len()
    }

    /// Number of nodes before deduplication (the sum of the standalone
    /// per-monitor tree sizes) — the work evaluating each monitor on its
    /// own would perform.
    pub fn source_nodes(&self) -> usize {
        self.source_nodes
    }

    /// Every signal the program reads, ascending and once each. Every
    /// node is evaluated on every tick, so each of these must be set in
    /// every observed sample; any other signal may stay unset.
    pub fn reads(&self) -> &[SignalId] {
        &self.reads
    }

    /// Number of suite-level temporal state cells (temporal nodes) an
    /// instance carries.
    pub fn state_cells(&self) -> usize {
        self.cells
    }

    /// Materializes a batch evaluator over this program with `lanes`
    /// independent runs, every lane starting from the initial (empty
    /// history) state. One lane evaluates a single run's
    /// [`Frame`](crate::Frame)s.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn instantiate_batch(self: &Arc<Self>, lanes: usize) -> FusedSuiteBatch {
        assert!(lanes > 0, "a batch needs at least one lane");
        let words = lanes.div_ceil(64);
        let mut bits = Vec::with_capacity(self.init_bits.len() * words);
        for &init in &self.init_bits {
            bits.extend(std::iter::repeat_n(splat(init), words));
        }
        FusedSuiteBatch {
            slab: vec![0; self.unique_nodes() * words],
            bits,
            runs: vec![0; self.run_rows * lanes],
            last_true: vec![None; self.last_rows * lanes],
            steps: vec![0; lanes],
            active: full_mask(lanes),
            retired: 0,
            program: Arc::clone(self),
            failed: Vec::with_capacity(self.leaves.len()),
            lanes,
            words,
        }
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
/// at once**, bit-sliced: the one engine at every width, one lane (a
/// single run's frames, read through
/// [`Frame::as_batch`](crate::Frame::as_batch)) included.
///
/// Each DAG node's value across the batch is a *bit row* of
/// `⌈lanes/64⌉` `u64` words, lane `l` at bit `l % 64` of word `l / 64`,
/// and [`FusedSuiteBatch::observe_slab`] advances every lane by one
/// sample of a lane-major [`FrameBatch`] in a single forward pass:
///
/// * the leaves (`Var` and comparison nodes) read the slab's typed rows
///   and pack each into bits: a boolean row eight tags per word
///   operation, a test against a number or a symbol over the plain
///   payload row once the tags say every active lane holds a `Real` (or
///   a symbol); a row with an unset, `Int` or other-kind slot in an
///   active lane reruns lane by lane, so the error names the right lane
///   and monitor;
/// * `Not`, `And`, `Or` and `Implies` are one word operation per 64
///   lanes;
/// * `prev`, `once`, `historically`, `became` and `initially` keep their
///   history as bit rows too, updated word-wise under the active-lane
///   mask;
/// * `held_for` and `once_within` keep per-lane counters and visit only
///   the active lanes.
///
/// Lanes are independent runs in lock-step: each lane's verdicts are
/// property-tested against [`eval_trace`](crate::eval::eval_trace) of
/// the lane's own trace, including under mid-batch retirement and at
/// widths that cross a word. A run that ends early — a terminal event
/// inside a sweep stripe — is [`retire_lane`](FusedSuiteBatch::retire_lane)d:
/// its temporal state and step counter freeze bit for bit while the
/// surviving lanes keep advancing, so early termination in one lane
/// cannot perturb its neighbours.
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
    /// Words per bit row: `⌈lanes/64⌉`.
    words: usize,
    /// Node values, one bit row per DAG node: `slab[node * words + w]`,
    /// rewritten every pass.
    slab: Vec<u64>,
    /// Temporal bit rows: `bits[row * words + w]`.
    bits: Vec<u64>,
    /// `held_for` run lengths before now: `runs[row * lanes + lane]`.
    runs: Vec<u64>,
    /// `once_within` last steps at which the child held:
    /// `last_true[row * lanes + lane]`.
    last_true: Vec<Option<u64>>,
    /// Per-lane frames observed so far (frozen while inactive).
    steps: Vec<u64>,
    /// Active-lane bit row; the bits past `lanes` stay clear.
    active: Vec<u64>,
    retired: usize,
    /// Scratch for a pass: the leaves whose fast test left a slot
    /// undecided.
    failed: Vec<usize>,
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
        assert!(lane < self.lanes, "lane out of range");
        bit(&self.active, lane)
    }

    /// The active lanes as a bit row, laid out like
    /// [`verdict_row`](FusedSuiteBatch::verdict_row); the bits past
    /// [`lanes`](FusedSuiteBatch::lanes) are clear.
    pub fn active_mask(&self) -> &[u64] {
        &self.active
    }

    /// Retires a lane: its temporal cells and step counter freeze, and
    /// subsequent [`observe_slab`](FusedSuiteBatch::observe_slab)
    /// passes skip it. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn retire_lane(&mut self, lane: usize) {
        if self.is_active(lane) {
            set_bit(&mut self.active, lane, false);
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
    /// temporal cells and step counter stay exactly as they are, and the
    /// pass skips it like a retired lane. Unlike
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
        self.retire_lane(lane);
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
        if !self.is_active(lane) {
            set_bit(&mut self.active, lane, true);
            self.retired -= 1;
        }
    }

    /// Feeds the next sample of every active lane, read **in place**
    /// from a lane-major [`FrameBatch`] slab — the zero-copy path a
    /// batched simulator feeds its state slab through (lane layouts
    /// match, so the leaves sweep the slab's contiguous signal rows
    /// directly), and a one-lane batch a frame's
    /// ([`Frame::as_batch`](crate::Frame::as_batch)). Inactive lanes'
    /// slab rows are never consulted for errors, and their state does
    /// not move. One forward pass over the
    /// DAG advances **all** lanes through each node before moving to the
    /// next (see the type docs).
    ///
    /// Every node of every active lane is evaluated, so each active lane
    /// must set every signal in [`FusedSuiteProgram::reads`]. Treat an
    /// error as fatal for the whole batch instance.
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
        debug_assert!(
            Arc::ptr_eq(src.table(), &self.program.table),
            "slab and batch must share one signal table"
        );
        // Split-borrow the fields: the program is shared by every stripe
        // of a sweep, so the pass touches no refcount.
        let FusedSuiteBatch {
            program,
            lanes,
            words,
            slab,
            bits,
            runs,
            last_true,
            steps,
            active,
            failed,
            ..
        } = self;
        let (lanes, words, program) = (*lanes, *words, &**program);
        let active = &active[..];

        // The leaves first: only they read the sample, so only they can
        // fail.
        failed.clear();
        for (k, (node, leaf)) in program.leaves.iter().enumerate() {
            let out = &mut slab[*node as usize * words..][..words];
            let decided = match leaf {
                Leaf::Var(id) => pack_bools(out, active, src.row(*id).tags, false),
                Leaf::Test { sig, test, .. } => test.pack(out, src.row(*sig), active),
                Leaf::Copy { of, invert, .. } => {
                    let decided = !failed.iter().any(|&f| program.leaves[f].0 == *of);
                    if decided {
                        let (of, at) = (*of as usize * words, *node as usize * words);
                        let invert = splat(*invert);
                        for w in 0..words {
                            slab[at + w] = slab[of + w] ^ invert;
                        }
                    }
                    decided
                }
                Leaf::Cmp(_) => false,
            };
            if !decided {
                failed.push(k);
            }
        }
        // An undecided leaf reruns lane by lane, in node order, so the
        // error raised is the one the topological order reaches first.
        failed.sort_unstable_by_key(|&k| program.leaves[k].0);
        for &k in failed.iter() {
            let (node, leaf) = &program.leaves[k];
            let out = &mut slab[*node as usize * words..][..words];
            exact_lanes(leaf, &program.cmps, out, src, active, steps, &program.table).map_err(
                |(lane, source)| BatchError {
                    lane,
                    monitor: program.owners[*node as usize] as usize,
                    source,
                },
            )?;
        }

        // Then every other node, level by level. Each node `n`'s bit row
        // is `slab[n * words..][..words]`; its children are on lower
        // levels.
        for (node, op) in &program.inner {
            let at = *node as usize * words;
            match op {
                Inner::Const(b) => slab[at..at + words].fill(splat(*b)),
                // The combinators run over every bit: an inactive lane's
                // bit is recomputed from its stale child bits, and
                // nothing reads it.
                Inner::Not(c) => {
                    let c = *c as usize * words;
                    for w in 0..words {
                        slab[at + w] = !slab[c + w];
                    }
                }
                Inner::And(start, end) => {
                    let cs = &program.children[*start as usize..*end as usize];
                    for w in 0..words {
                        let mut all = !0;
                        for &c in cs {
                            all &= slab[c as usize * words + w];
                        }
                        slab[at + w] = all;
                    }
                }
                Inner::Or(start, end) => {
                    let cs = &program.children[*start as usize..*end as usize];
                    for w in 0..words {
                        let mut any = 0;
                        for &c in cs {
                            any |= slab[c as usize * words + w];
                        }
                        slab[at + w] = any;
                    }
                }
                Inner::Implies([a, b]) => {
                    let (a, b) = (*a as usize * words, *b as usize * words);
                    for w in 0..words {
                        slab[at + w] = !slab[a + w] | slab[b + w];
                    }
                }
                // The temporal nodes: each operator's single-step
                // semantics over the child's word, advancing its state
                // `s` only under the active mask `m`, so inactive lanes'
                // history stays frozen.
                //
                // `prev(p)`: the child's value at the previous step.
                Inner::Prev { child, bits: r } => {
                    let (c, r) = (*child as usize * words, *r as usize * words);
                    for (w, &m) in active.iter().enumerate() {
                        let s = &mut bits[r + w];
                        slab[at + w] = *s;
                        *s = select(m, slab[c + w], *s);
                    }
                }
                // `once(p)`: whether the child held at any earlier step.
                Inner::Once { child, bits: r } => {
                    let (c, r) = (*child as usize * words, *r as usize * words);
                    for (w, &m) in active.iter().enumerate() {
                        let s = &mut bits[r + w];
                        slab[at + w] = *s;
                        *s |= slab[c + w] & m;
                    }
                }
                // `historically(p)`: whether the child held at every
                // earlier step.
                Inner::Historically { child, bits: r } => {
                    let (c, r) = (*child as usize * words, *r as usize * words);
                    for (w, &m) in active.iter().enumerate() {
                        let s = &mut bits[r + w];
                        slab[at + w] = *s;
                        *s &= slab[c + w] | !m;
                    }
                }
                // `became(p)` (`@p ≡ ●¬p ∧ p`): a false→true edge now.
                Inner::Became { child, bits: r } => {
                    let (c, r) = (*child as usize * words, *r as usize * words);
                    for (w, &m) in active.iter().enumerate() {
                        let (cur, s) = (slab[c + w], &mut bits[r + w]);
                        slab[at + w] = cur & !*s;
                        *s = select(m, cur, *s);
                    }
                }
                // `initially(p)` (`S0 ⊨ p`): the child's value at the
                // first step, captured once per lane. Its rows are the
                // captured flag, then the captured value.
                Inner::Initially { child, bits: r } => {
                    let (c, r) = (*child as usize * words, *r as usize * words);
                    for (w, &m) in active.iter().enumerate() {
                        let (has, val) = (bits[r + w], bits[r + words + w]);
                        let v = select(has, val, slab[c + w]);
                        slab[at + w] = v;
                        bits[r + words + w] = select(m, v, val);
                        bits[r + w] = has | m;
                    }
                }
                // `held_for(p, ticks)`: whether the child's current
                // true-run before now spans at least `ticks` steps.
                Inner::HeldFor { child, ticks, run } => {
                    let c = *child as usize * words;
                    let runs = &mut runs[*run as usize * lanes..][..lanes];
                    for (w, &m) in active.iter().enumerate() {
                        let cur = slab[c + w];
                        let mut word = 0;
                        for b in ones(m) {
                            let run = &mut runs[w * 64 + b];
                            word |= u64::from(*ticks == 0 || *run >= *ticks) << b;
                            *run = if (cur >> b) & 1 == 1 {
                                run.saturating_add(1)
                            } else {
                                0
                            };
                        }
                        slab[at + w] = word;
                    }
                }
                // `once_within(p, ticks)`: whether the child held within
                // the previous `ticks` steps.
                Inner::OnceWithin { child, ticks, last } => {
                    let c = *child as usize * words;
                    let last = &mut last_true[*last as usize * lanes..][..lanes];
                    for (w, &m) in active.iter().enumerate() {
                        let cur = slab[c + w];
                        let mut word = 0;
                        for b in ones(m) {
                            let lane = w * 64 + b;
                            let step = steps[lane];
                            let held = last[lane].is_some_and(|t| step.saturating_sub(t) <= *ticks);
                            word |= u64::from(held) << b;
                            if (cur >> b) & 1 == 1 {
                                last[lane] = Some(step);
                            }
                        }
                        slab[at + w] = word;
                    }
                }
            }
        }
        for (w, &m) in active.iter().enumerate() {
            for b in ones(m) {
                steps[w * 64 + b] += 1;
            }
        }
        Ok(())
    }

    /// Monitor `monitor`'s verdict in `lane` from the most recent
    /// [`FusedSuiteBatch::observe_slab`] pass. It is the lane's verdict
    /// only if the lane took part in that pass; for a lane that sat it
    /// out, the bit is recomputed from stale inputs and means nothing.
    ///
    /// # Panics
    ///
    /// Panics if `lane` or `monitor` is out of range.
    #[inline]
    pub fn verdict(&self, lane: usize, monitor: usize) -> bool {
        assert!(lane < self.lanes, "lane out of range");
        bit(self.verdict_row(monitor), lane)
    }

    /// Every lane's verdict for `monitor` from the most recent pass, as
    /// one bit row (lane `l` at bit `l % 64` of word `l / 64`) — the bulk
    /// counterpart of [`verdict`](FusedSuiteBatch::verdict). Only the
    /// bits of lanes that took part in that pass are verdicts: mask the
    /// row with the [`active_mask`](FusedSuiteBatch::active_mask) the
    /// pass ran under. Inactive lanes' bits and the bits past
    /// [`lanes`](FusedSuiteBatch::lanes) are unspecified.
    ///
    /// # Panics
    ///
    /// Panics if `monitor` is out of range.
    #[inline]
    pub fn verdict_row(&self, monitor: usize) -> &[u64] {
        &self.slab[self.program.roots[monitor] as usize * self.words..][..self.words]
    }

    /// Clears all history in every lane and re-activates retired lanes,
    /// returning the batch to its freshly instantiated state without
    /// reallocating.
    pub fn reset(&mut self) {
        for (row, &init) in self
            .bits
            .chunks_exact_mut(self.words)
            .zip(&self.program.init_bits)
        {
            row.fill(splat(init));
        }
        self.runs.fill(0);
        self.last_true.fill(None);
        self.steps.fill(0);
        self.active = full_mask(self.lanes);
        self.retired = 0;
    }

    /// Re-arms a single lane in place: its temporal cells return to the
    /// initial (empty history) state, its step counter zeroes, and it
    /// re-activates if retired — the per-lane slice of
    /// [`reset`](FusedSuiteBatch::reset). Nothing is reallocated and no
    /// other lane is touched, so a long-running batch can recycle a
    /// retired lane for a brand-new run while its neighbours keep
    /// advancing. The lane's stale slab bits are harmless: the next
    /// observe pass recomputes every node for active lanes before any
    /// verdict is read.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn reset_lane(&mut self, lane: usize) {
        assert!(lane < self.lanes, "lane out of range");
        for (row, &init) in self
            .bits
            .chunks_exact_mut(self.words)
            .zip(&self.program.init_bits)
        {
            set_bit(row, lane, init);
        }
        for row in self.runs.chunks_exact_mut(self.lanes) {
            row[lane] = 0;
        }
        for row in self.last_true.chunks_exact_mut(self.lanes) {
            row[lane] = None;
        }
        self.steps[lane] = 0;
        self.resume_lane(lane);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_trace;
    use crate::parse;
    use crate::signal::Frame;
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

    /// Feeds one frame to a one-lane batch, read in place.
    fn observe(suite: &mut FusedSuiteBatch, frame: &Frame) -> Result<(), BatchError> {
        suite.observe_slab(frame.as_batch())
    }

    /// Runs `src` as a one-root, one-lane fused suite over `t`, asserting
    /// every verdict against [`reference`].
    fn monitor_run(src: &str, t: &Trace) -> Vec<bool> {
        let table = pqr_table();
        let mut suite = compile(&[src], &table).instantiate_batch(1);
        let verdicts: Vec<bool> = t
            .iter()
            .map(|s| {
                observe(&mut suite, &table.frame_from_state_lossy(s)).unwrap();
                suite.verdict(0, 0)
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
    fn orderings_of_booleans_or_symbols_are_refused_when_compiled() {
        let mut b = SignalTable::builder();
        b.real("x");
        b.int("n");
        b.bool("ok");
        b.sym("cmd");
        let table = b.finish();
        for (src, lhs, rhs) in [
            ("cmd < 'STOP'", "cmd", "'STOP'"),
            ("x >= 'STOP'", "x", "'STOP'"),
            ("ok <= 1.0", "ok", "1.0"),
            ("2 > ok", "2", "ok"),
            ("x < true", "x", "true"),
            ("cmd > n", "cmd", "n"),
        ] {
            let expr = parse(src).unwrap();
            let want = EvalError::UnorderableOperands {
                lhs: lhs.into(),
                rhs: rhs.into(),
            };
            assert_eq!(
                FusedSuiteProgram::check(&expr, &table),
                Err(want.clone()),
                "{src}"
            );
            let suite = [parse("x < 1.0").unwrap(), expr];
            assert_eq!(
                FusedSuiteProgram::compile(&suite, &table).unwrap_err(),
                want,
                "{src}"
            );
        }
        for src in [
            "x < 2",
            "n >= x",
            "1.5 > n",
            "cmd == 'STOP'",
            "ok != true",
            "x == ok",
        ] {
            let expr = parse(src).unwrap();
            assert_eq!(FusedSuiteProgram::check(&expr, &table), Ok(()), "{src}");
            assert!(FusedSuiteProgram::compile(&[expr], &table).is_ok(), "{src}");
        }
        // An unknown name is reported before the ordering.
        assert_eq!(
            FusedSuiteProgram::check(&parse("ghost < 'STOP'").unwrap(), &table),
            Err(EvalError::UnknownSignal {
                name: "ghost".into()
            })
        );
    }

    #[test]
    fn comparisons_resolve_against_interned_symbols() {
        let mut b = SignalTable::builder();
        let cmd = b.sym("cmd");
        let table = b.finish();
        let mut suite = compile(&["cmd == 'STOP'"], &table).instantiate_batch(1);
        let mut f = table.frame();
        f.set(cmd, Value::sym("STOP"));
        observe(&mut suite, &f).unwrap();
        assert!(suite.verdict(0, 0));
        f.set(cmd, Value::sym("GO"));
        observe(&mut suite, &f).unwrap();
        assert!(!suite.verdict(0, 0));
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
        let mut suite = compile(&srcs, &table).instantiate_batch(1);
        let run = |suite: &mut FusedSuiteBatch| -> Vec<Vec<bool>> {
            t.iter()
                .map(|s| {
                    observe(suite, &table.frame_from_state_lossy(s)).unwrap();
                    (0..srcs.len()).map(|m| suite.verdict(0, m)).collect()
                })
                .collect()
        };
        let first = run(&mut suite);
        suite.reset();
        assert_eq!(suite.steps_observed(0), 0);
        assert_eq!(run(&mut suite), first);
        for (m, src) in srcs.iter().enumerate() {
            let got: Vec<bool> = first.iter().map(|tick| tick[m]).collect();
            assert_eq!(got, reference(src, &t), "`{src}` diverged from eval");
        }
    }

    /// Runs `srcs` as one one-lane fused suite over `t`, checking every
    /// monitor's verdicts against its own [`reference`] evaluation.
    fn assert_fused_matches_per_monitor(srcs: &[&str], t: &Trace) {
        let table = pqr_table();
        let mut fused = compile(srcs, &table).instantiate_batch(1);
        let expected: Vec<Vec<bool>> = srcs.iter().map(|src| reference(src, t)).collect();
        for (step, s) in t.iter().enumerate() {
            observe(&mut fused, &table.frame_from_state_lossy(s)).unwrap();
            for (i, src) in srcs.iter().enumerate() {
                assert_eq!(
                    fused.verdict(0, i),
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
        let mut suite =
            Arc::new(FusedSuiteProgram::compile(&exprs, &table).unwrap()).instantiate_batch(1);
        let mut frame = table.frame();
        frame.set(p, true);
        observe(&mut suite, &frame).unwrap();
        observe(&mut suite, &frame).unwrap();
        assert!(suite.verdict(0, 0));
        assert_eq!(suite.steps_observed(0), 2);
        suite.reset();
        assert_eq!(suite.steps_observed(0), 0);
        observe(&mut suite, &frame).unwrap();
        assert!(!suite.verdict(0, 0), "reset must clear temporal history");
    }

    #[test]
    fn fused_errors_name_the_first_owning_monitor() {
        let mut b = SignalTable::builder();
        b.bool("p");
        b.bool("q");
        let table = b.finish();
        let exprs = [parse("p").unwrap(), parse("p || q").unwrap()];
        let mut suite =
            Arc::new(FusedSuiteProgram::compile(&exprs, &table).unwrap()).instantiate_batch(1);
        let mut frame = table.frame();
        frame.set_named("p", true);
        // `q` is unset: the failing node is owned by monitor 1, the
        // first (and only) formula that demanded it.
        let err = observe(&mut suite, &frame).unwrap_err();
        assert_eq!((err.lane, err.monitor), (0, 1));
        assert!(matches!(err.source, EvalError::MissingVar { ref name, .. } if name == "q"));
        assert!(err.to_string().contains("fused lane #0 monitor #1"));
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
    /// = observe count after which lane `l` stops) and to a one-lane
    /// fused suite per lane, asserting at every step that both match the
    /// lane's own [`reference`] verdicts.
    fn assert_batch_matches_scalar_lanes(srcs: &[&str], traces: &[&Trace], retire_at: &[usize]) {
        let table = pqr_table();
        let program = compile(srcs, &table);
        let lanes = traces.len();
        let expected: Vec<Vec<Vec<bool>>> = traces
            .iter()
            .map(|t| srcs.iter().map(|src| reference(src, t)).collect())
            .collect();
        let mut batch = program.instantiate_batch(lanes);
        let mut scalars: Vec<FusedSuiteBatch> =
            (0..lanes).map(|_| program.instantiate_batch(1)).collect();
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
                let state = traces[l].state(step).unwrap();
                observe(scalar, &table.frame_from_state_lossy(state)).unwrap();
                // The tick this lane just observed.
                let tick = batch.steps_observed(l) as usize - 1;
                for (m, src) in srcs.iter().enumerate() {
                    let want = expected[l][m][tick];
                    assert_eq!(
                        (batch.verdict(l, m), scalar.verdict(0, m)),
                        (want, want),
                        "lane {l} monitor {m} (`{src}`) diverged at step {step}"
                    );
                }
            }
        }
        for (l, scalar) in scalars.iter().enumerate() {
            assert_eq!(
                batch.steps_observed(l),
                scalar.steps_observed(0),
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
        let mut suite = compile(&["p"], &table).instantiate_batch(1);
        assert_eq!(
            observe(&mut suite, &table.frame()).unwrap_err().source,
            EvalError::MissingVar {
                name: "p".into(),
                step: 0
            }
        );
        let mut suite = compile(&["p || q"], &table).instantiate_batch(1);
        let s = State::new().with_int("p", 3).with_bool("q", true);
        assert!(matches!(
            observe(&mut suite, &table.frame_from_state_lossy(&s)).map_err(|e| e.source),
            Err(EvalError::NotBoolean { name, found: "int" }) if name == "p"
        ));
    }
}
