//! Property-based tests for the temporal-logic engine.

use esafe_logic::eval::{eval_at, eval_trace};
use esafe_logic::incremental::{monitor_form, FusedSuiteProgram};
use esafe_logic::{
    parse, prop, BatchError, CmpOp, EvalError, Expr, Frame, FrameBatch, FrameTrace,
    FusedSuiteBatch, Operand, RunDecoder, RunMeta, SignalId, SignalKind, SignalTable, State,
    SymDict, Trace, Value,
};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

const VARS: [&str; 4] = ["p", "q", "r", "s"];

/// The table every random four-variable trace resolves against.
fn four_bool_table() -> Arc<SignalTable> {
    let mut b = SignalTable::builder();
    for name in VARS {
        b.bool(name);
    }
    b.finish()
}

/// Strategy producing past-time expressions over a small variable pool.
fn past_expr(depth: u32) -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        Just(Expr::Const(true)),
        Just(Expr::Const(false)),
        (0..VARS.len()).prop_map(|i| Expr::var(VARS[i])),
    ];
    past_over(leaf, depth)
}

/// Past-time expressions over arbitrary `leaf` atoms.
fn past_over(
    leaf: impl Strategy<Value = Expr> + 'static,
    depth: u32,
) -> impl Strategy<Value = Expr> {
    leaf.prop_recursive(depth, 24, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(Expr::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::or(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::implies(a, b)),
            inner.clone().prop_map(Expr::prev),
            inner.clone().prop_map(Expr::once),
            inner.clone().prop_map(Expr::historically),
            inner.clone().prop_map(Expr::became),
            inner.clone().prop_map(Expr::initially),
            (inner.clone(), 1u64..4).prop_map(|(e, t)| Expr::held_for(e, t)),
            (inner, 1u64..4).prop_map(|(e, t)| Expr::once_within(e, t)),
        ]
    })
}

/// Strategy producing prop-unrollable expressions (boolean + prev/became).
fn unrollable_expr(depth: u32) -> impl Strategy<Value = Expr> {
    let leaf = (0..VARS.len()).prop_map(|i| Expr::var(VARS[i]));
    leaf.prop_recursive(depth, 16, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(Expr::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::or(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::implies(a, b)),
            inner.clone().prop_map(Expr::prev),
            inner.prop_map(Expr::became),
        ]
    })
}

/// Builds a goal suite whose monitors are random combinations of a
/// shared subexpression pool — the shape the fused engine exists for:
/// the same `pool` subtree appears in several monitors, so the fused
/// DAG must evaluate it once while per-monitor evaluation re-walks it.
fn suite_from(pool: &[Expr], spec: &[(usize, usize, u8)]) -> Vec<Expr> {
    spec.iter()
        .map(|&(i, j, op)| {
            let a = pool[i % pool.len()].clone();
            let b = pool[j % pool.len()].clone();
            match op % 7 {
                0 => Expr::and(a, b),
                1 => Expr::or(a, b),
                2 => Expr::implies(a, b),
                3 => Expr::and(Expr::once(a), b),
                4 => Expr::prev(Expr::or(a, b)),
                5 => Expr::not(Expr::and(a, Expr::historically(b))),
                _ => Expr::held_for(Expr::or(a, b), 2),
            }
        })
        .collect()
}

/// The semantics of record for one monitor: [`eval_trace`] over the
/// expression's [`monitor_form`].
fn reference(e: &Expr, trace: &Trace) -> Vec<bool> {
    eval_trace(&monitor_form(e).expect("past-only formula"), trace).expect("vars present")
}

/// Compiles `exprs` as one fused program over `table`.
fn fuse(exprs: &[Expr], table: &Arc<SignalTable>) -> Arc<FusedSuiteProgram> {
    Arc::new(FusedSuiteProgram::compile(exprs, table).expect("compiles"))
}

/// Feeds one frame to a one-lane batch, read in place: a single run.
fn observe(suite: &mut FusedSuiteBatch, frame: &Frame) -> Result<(), BatchError> {
    suite.observe_slab(frame.as_batch())
}

/// Splitmix-style per-lane retirement step in `0..24` (possibly beyond
/// the lane's trace, i.e. never retired).
fn retire_schedule(seed: u64, lanes: usize) -> Vec<usize> {
    (0..lanes)
        .map(|l| {
            let mut z = seed.wrapping_add(l as u64).wrapping_mul(0x9e3779b97f4a7c15);
            z ^= z >> 31;
            (z % 24) as usize
        })
        .collect()
}

/// Lane counts the batch properties also run at, beside the generated
/// traces' own: one short of a 64-lane word, one word, one past it, and
/// past two words.
const WIDE_LANES: [usize; 4] = [63, 64, 65, 129];

/// A lane count: the generated traces' own (`None`) or one of
/// [`WIDE_LANES`].
fn lane_count() -> impl Strategy<Value = Option<usize>> {
    (0..WIDE_LANES.len() + 1).prop_map(|i| WIDE_LANES.get(i).copied())
}

/// The generated traces, cycled across `lanes` lanes when it is set.
fn widen(traces: Vec<Trace>, lanes: Option<usize>) -> Vec<Trace> {
    match lanes {
        None => traces,
        Some(n) => traces.iter().cycle().take(n).cloned().collect(),
    }
}

/// Runs `exprs` as one fused program over `traces`, one lane per trace:
/// a batch retiring lane `l` after `retire_at[l]` samples, and a
/// one-lane batch per lane. At every step, each active lane's verdicts
/// from both must equal that lane's [`reference`] verdicts.
fn assert_lanes_match_eval(
    exprs: &[Expr],
    table: &Arc<SignalTable>,
    traces: &[Trace],
    retire_at: &[usize],
) {
    let lanes = traces.len();
    let expected: Vec<Vec<Vec<bool>>> = traces
        .iter()
        .map(|t| exprs.iter().map(|e| reference(e, t)).collect())
        .collect();
    let program = fuse(exprs, table);
    let mut batch: FusedSuiteBatch = program.instantiate_batch(lanes);
    let mut scalars: Vec<FusedSuiteBatch> =
        (0..lanes).map(|_| program.instantiate_batch(1)).collect();
    let mut slab = FrameBatch::new(table, lanes);
    let max_len = traces.iter().map(|t| t.len()).max().unwrap();
    for step in 0..max_len {
        for l in 0..lanes {
            if step >= retire_at[l].min(traces[l].len()) {
                batch.retire_lane(l);
            } else {
                let frame = table.frame_from_state_lossy(traces[l].state(step).unwrap());
                slab.write_lane_from(l, &frame);
                observe(&mut scalars[l], &frame).expect("vars present");
            }
        }
        if batch.active_lanes() == 0 {
            break;
        }
        batch.observe_slab(&slab).expect("vars present");
        for (l, scalar) in scalars.iter().enumerate() {
            if !batch.is_active(l) {
                continue;
            }
            // The tick this lane just observed.
            let tick = batch.steps_observed(l) as usize - 1;
            for (m, expr) in exprs.iter().enumerate() {
                let want = expected[l][m][tick];
                assert_eq!(
                    (batch.verdict(l, m), scalar.verdict(0, m)),
                    (want, want),
                    "lane {l} monitor {m} diverged at step {step} on `{expr}`"
                );
            }
        }
    }
}

fn random_trace(rows: Vec<[bool; 4]>) -> Trace {
    let mut t = Trace::with_tick_millis(1);
    for row in rows {
        let mut s = State::new();
        for (i, name) in VARS.iter().enumerate() {
            s.set(*name, row[i]);
        }
        t.push(s);
    }
    t
}

/// A strategy over well-typed `(name, Value)` slot assignments for the
/// frame round-trip property.
fn slot_values() -> impl Strategy<Value = Vec<(&'static str, Value)>> {
    let b = any::<bool>().prop_map(Value::Bool);
    let i = (-1000i64..1000).prop_map(Value::Int);
    let rs = ((-1000i64..1000), (0usize..3)).prop_map(|(n, k)| {
        (
            Value::Real(n as f64 / 8.0),
            Value::sym(["STOP", "GO", "OPEN"][k]),
        )
    });
    (b, i, rs).prop_map(|(b, i, (r, s))| vec![("flag", b), ("floor", i), ("speed", r), ("cmd", s)])
}

/// The signals of the comparison-atom properties: two of each kind, so
/// an atom can compare a signal with a literal, a literal with a signal,
/// or two signals of the same or of different kinds.
const TYPED: [(&str, SignalKind); 8] = [
    ("b", SignalKind::Bool),
    ("c", SignalKind::Bool),
    ("i", SignalKind::Int),
    ("j", SignalKind::Int),
    ("x", SignalKind::Real),
    ("y", SignalKind::Real),
    ("s", SignalKind::Sym),
    ("t", SignalKind::Sym),
];
static ALL_SIGNALS: [usize; 8] = [0, 1, 2, 3, 4, 5, 6, 7];
static NUMERIC_SIGNALS: [usize; 4] = [2, 3, 4, 5];
static ALL_KINDS: [SignalKind; 4] = [
    SignalKind::Bool,
    SignalKind::Int,
    SignalKind::Real,
    SignalKind::Sym,
];
static NUMERIC_KINDS: [SignalKind; 2] = [SignalKind::Int, SignalKind::Real];
static ALL_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];
static ORDERINGS: [CmpOp; 4] = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
static EQUALITIES: [CmpOp; 2] = [CmpOp::Eq, CmpOp::Ne];

/// Corner values per kind: NaN, both zeros, both infinities, and reals
/// equal to ints, so every comparison row sweep meets its edge cases.
const INTS: [i64; 4] = [-1, 0, 1, 2];
const REALS: [f64; 8] = [
    f64::NAN,
    -0.0,
    0.0,
    1.0,
    -1.5,
    2.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
];
const SYMS: [&str; 2] = ["STOP", "GO"];

/// Index past every corner table: with gaps on, the signal is unset.
const UNSET: usize = REALS.len();

fn typed_table() -> Arc<SignalTable> {
    let mut b = SignalTable::builder();
    for (name, kind) in TYPED {
        b.signal(name, kind);
    }
    b.finish()
}

/// Corner value `k` of `kind`.
fn corner(kind: SignalKind, k: usize) -> Value {
    match kind {
        SignalKind::Bool => Value::Bool(k.is_multiple_of(2)),
        SignalKind::Int => Value::Int(INTS[k % INTS.len()]),
        SignalKind::Real => Value::Real(REALS[k % REALS.len()]),
        SignalKind::Sym => Value::sym(SYMS[k % SYMS.len()]),
    }
}

/// One state per row; `row[n]` picks [`TYPED`] signal `n`'s corner
/// value. With `gaps`, [`UNSET`] leaves the signal unset.
fn typed_trace(rows: Vec<Vec<usize>>, gaps: bool) -> Trace {
    let mut t = Trace::with_tick_millis(1);
    for row in rows {
        let mut s = State::new();
        for (&(name, kind), &k) in TYPED.iter().zip(&row) {
            if !(gaps && k == UNSET) {
                s.set(name, corner(kind, k));
            }
        }
        t.push(s);
    }
    t
}

fn signal_operand(pick: &'static [usize]) -> BoxedStrategy<Operand> {
    (0..pick.len())
        .prop_map(move |i| Operand::var(TYPED[pick[i]].0))
        .boxed()
}

fn literal_operand(kinds: &'static [SignalKind]) -> BoxedStrategy<Operand> {
    (0..kinds.len(), 0..REALS.len())
        .prop_map(move |(kind, k)| Operand::Lit(corner(kinds[kind], k)))
        .boxed()
}

/// `a op b` in each of the three shapes: signal vs literal, literal vs
/// signal, and signal vs signal.
fn atom(
    signal: BoxedStrategy<Operand>,
    literal: BoxedStrategy<Operand>,
    ops: &'static [CmpOp],
) -> BoxedStrategy<Expr> {
    let op = (0..ops.len()).prop_map(move |i| ops[i]).boxed();
    prop_oneof![
        (signal.clone(), op.clone(), literal.clone()),
        (literal, op.clone(), signal.clone()),
        (signal.clone(), op, signal),
    ]
    .prop_map(|(a, op, b)| Expr::cmp(a, op, b))
    .boxed()
}

/// Any comparison atom — every shape, operator and kind, including
/// orderings on symbols and booleans, which `eval` refuses on every
/// sample and compilation refuses outright.
fn any_atom() -> BoxedStrategy<Expr> {
    atom(
        signal_operand(&ALL_SIGNALS),
        literal_operand(&ALL_KINDS),
        &ALL_OPS,
    )
}

/// A comparison atom that is never incomparable: orderings only between
/// numeric operands, equality between any.
fn comparable_atom() -> BoxedStrategy<Expr> {
    prop_oneof![
        atom(
            signal_operand(&NUMERIC_SIGNALS),
            literal_operand(&NUMERIC_KINDS),
            &ORDERINGS,
        ),
        atom(
            signal_operand(&ALL_SIGNALS),
            literal_operand(&ALL_KINDS),
            &EQUALITIES,
        ),
    ]
    .boxed()
}

/// What one fused pass over bare atoms must report.
enum Pass {
    /// Every observing lane's verdicts: `(lane, verdict per atom)`.
    Verdicts(Vec<(usize, Vec<bool>)>),
    /// The first atom (by suite order) that errors in any lane, in the
    /// first lane where it does.
    Error {
        lane: usize,
        monitor: usize,
        source: EvalError,
    },
}

/// The pass `eval`'s results for one sample call for; `results` holds
/// `(lane, one result per atom)` for every observing lane.
fn expected_pass(results: &[(usize, Vec<Result<bool, EvalError>>)]) -> Pass {
    let atoms = results.first().map_or(0, |(_, r)| r.len());
    for monitor in 0..atoms {
        for (lane, r) in results {
            if let Err(source) = &r[monitor] {
                return Pass::Error {
                    lane: *lane,
                    monitor,
                    source: source.clone(),
                };
            }
        }
    }
    Pass::Verdicts(
        results
            .iter()
            .map(|(lane, r)| (*lane, r.iter().map(|v| *v.as_ref().unwrap()).collect()))
            .collect(),
    )
}

/// Whether `atom` orders an operand that is boolean or symbolic: a
/// [`TYPED`] signal of that kind, or such a literal.
fn orders_non_number(atom: &Expr) -> bool {
    let Expr::Cmp { lhs, op, rhs } = atom else {
        return false;
    };
    let numeric = |o: &Operand| match o {
        Operand::Var(name) => TYPED
            .iter()
            .any(|&(n, k)| n == name && matches!(k, SignalKind::Int | SignalKind::Real)),
        Operand::Lit(v) => v.as_real().is_some(),
    };
    !(matches!(op, CmpOp::Eq | CmpOp::Ne) || numeric(lhs) && numeric(rhs))
}

/// Runs bare comparison `atoms` as one fused program over `traces`, one
/// lane per trace: a one-lane batch per lane, and a batch retiring lane
/// `l` after `retire_at[l]` samples. Each pass must report what
/// [`expected_pass`] derives from `eval`; a pass that errors ends that
/// engine's run. A suite compilation refuses must name its first atom
/// that orders a boolean or a symbol, which `eval` refuses on every
/// sample; its other atoms are then checked on their own.
fn check_bare_atoms(atoms: &[Expr], traces: &[Trace], retire_at: &[usize]) {
    let table = typed_table();
    // A bare atom is its own monitor form.
    let eval_tick = |l: usize, step: usize| -> Vec<Result<bool, EvalError>> {
        atoms.iter().map(|a| eval_at(a, &traces[l], step)).collect()
    };
    let program = match FusedSuiteProgram::compile(atoms, &table) {
        Ok(program) => Arc::new(program),
        Err(err) => {
            let first = atoms
                .iter()
                .find(|a| orders_non_number(a))
                .unwrap_or_else(|| panic!("{atoms:?} refused: {err}"));
            let Expr::Cmp { lhs, rhs, .. } = first else {
                unreachable!("only a comparison orders")
            };
            assert_eq!(
                err,
                EvalError::UnorderableOperands {
                    lhs: lhs.to_string(),
                    rhs: rhs.to_string()
                }
            );
            for trace in traces {
                for step in 0..trace.len() {
                    assert!(eval_at(first, trace, step).is_err(), "{first} at {step}");
                }
            }
            let kept: Vec<Expr> = atoms
                .iter()
                .filter(|a| !orders_non_number(a))
                .cloned()
                .collect();
            if !kept.is_empty() {
                check_bare_atoms(&kept, traces, retire_at);
            }
            return;
        }
    };

    for (l, trace) in traces.iter().enumerate() {
        let mut scalar = program.instantiate_batch(1);
        for (step, s) in trace.iter().enumerate() {
            let got = observe(&mut scalar, &table.frame_from_state_lossy(s));
            match expected_pass(&[(l, eval_tick(l, step))]) {
                Pass::Verdicts(want) => {
                    assert!(got.is_ok(), "lane {l} step {step}: {got:?}");
                    let verdicts: Vec<bool> =
                        (0..atoms.len()).map(|m| scalar.verdict(0, m)).collect();
                    assert_eq!(verdicts, want[0].1, "lane {l} step {step} on {atoms:?}");
                }
                Pass::Error {
                    monitor, source, ..
                } => {
                    assert_eq!(
                        got,
                        Err(BatchError {
                            lane: 0,
                            monitor,
                            source
                        })
                    );
                    break;
                }
            }
        }
    }

    let lanes = traces.len();
    let mut batch = program.instantiate_batch(lanes);
    let mut slab = FrameBatch::new(&table, lanes);
    let max_len = traces.iter().map(|t| t.len()).max().unwrap();
    for step in 0..max_len {
        let mut results = Vec::new();
        for (l, trace) in traces.iter().enumerate() {
            if step >= retire_at[l].min(trace.len()) {
                batch.retire_lane(l);
            } else {
                let state = trace.state(step).unwrap();
                slab.write_lane_from(l, &table.frame_from_state_lossy(state));
                results.push((l, eval_tick(l, step)));
            }
        }
        if results.is_empty() {
            break;
        }
        let got = batch.observe_slab(&slab);
        match expected_pass(&results) {
            Pass::Verdicts(want) => {
                assert!(got.is_ok(), "step {step}: {got:?}");
                for (l, verdicts) in want {
                    let row: Vec<bool> = (0..atoms.len()).map(|m| batch.verdict(l, m)).collect();
                    assert_eq!(row, verdicts, "lane {l} step {step} on {atoms:?}");
                }
            }
            Pass::Error {
                lane,
                monitor,
                source,
            } => {
                assert_eq!(
                    got,
                    Err(BatchError {
                        lane,
                        monitor,
                        source
                    })
                );
                break;
            }
        }
    }
}

/// A splitmix64 stream: the operation sequences of the slab property.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A value of `kind`, edge cases first: `i64` extremes and integers
    /// past `f64`'s 53 bits, `NaN`s with payloads, both zeros, both
    /// infinities and subnormals.
    fn value(&mut self, kind: SignalKind) -> Value {
        match kind {
            SignalKind::Bool => Value::Bool(self.next() & 1 == 1),
            SignalKind::Int => Value::Int(match self.below(6) {
                0 => i64::MIN,
                1 => i64::MAX,
                2 => 0,
                3 => (1 << 53) + 1,
                _ => self.next() as i64,
            }),
            SignalKind::Real => Value::Real(match self.below(9) {
                0 => f64::NAN,
                1 => -0.0,
                2 => 0.0,
                3 => f64::INFINITY,
                4 => f64::NEG_INFINITY,
                5 => f64::MIN_POSITIVE / 4.0,
                6 => i64::MIN as f64,
                _ => f64::from_bits(self.next()),
            }),
            SignalKind::Sym => Value::sym(["GO", "STOP", "OPEN"][self.below(3)]),
        }
    }

    /// A value of any kind.
    fn any_value(&mut self) -> Value {
        let kind = ALL_KINDS[self.below(ALL_KINDS.len())];
        self.value(kind)
    }

    /// A state setting each [`TYPED`] signal to a value of any kind, or
    /// leaving it unset.
    fn state(&mut self) -> State {
        let mut state = State::new();
        for (name, _) in TYPED {
            if self.below(4) > 0 {
                state.set(name, self.any_value());
            }
        }
        state
    }
}

/// Slot equality bit for bit: reals by their bits, so `NaN` equals
/// itself, `-0.0` differs from `0.0`, and an `Int` never equals a `Real`.
fn same_slot(a: Option<Value>, b: Option<Value>) -> bool {
    match (a, b) {
        (Some(Value::Real(x)), Some(Value::Real(y))) => x.to_bits() == y.to_bits(),
        _ => a == b && a.is_none_or(|v| !matches!(v, Value::Real(_))),
    }
}

/// A [`FrameBatch`] beside its model: one `Option<Value>` per slot,
/// `model[sig * lanes + lane]`, the layout the typed rows replaced.
struct Modelled {
    batch: FrameBatch,
    model: Vec<Option<Value>>,
}

impl Modelled {
    fn new(table: &Arc<SignalTable>, lanes: usize) -> Self {
        Modelled {
            batch: FrameBatch::new(table, lanes),
            model: vec![None; table.len() * lanes],
        }
    }

    /// Sets lane `lane` of the model to what `slot(sig)` gives.
    fn model_lane(&mut self, lane: usize, slot: impl Fn(SignalId) -> Option<Value>) {
        let lanes = self.batch.lanes();
        for id in self.batch.table().clone().ids() {
            self.model[id.index() * lanes + lane] = slot(id);
        }
    }

    /// Asserts every slot of the batch reads back its model's value.
    fn check(&self, what: &str) {
        let lanes = self.batch.lanes();
        for id in self.batch.table().ids() {
            for lane in 0..lanes {
                let (got, want) = (
                    self.batch.get(id, lane),
                    self.model[id.index() * lanes + lane],
                );
                assert!(
                    same_slot(got, want),
                    "after {what}: signal {id:?} lane {lane} of {lanes}: got {got:?}, want {want:?}"
                );
            }
        }
    }
}

/// One random operation on `pair[0]` or `pair[1]`, applied to batch and
/// model alike.
fn slab_op(rng: &mut Mix, pair: &mut [Modelled; 2], table: &Arc<SignalTable>) -> &'static str {
    let lanes = pair[0].batch.lanes();
    let which = rng.below(2);
    let lane = rng.below(lanes);
    match rng.below(8) {
        0 | 1 => {
            let (name, kind) = TYPED[rng.below(TYPED.len())];
            let id = table.id(name).unwrap();
            // A real row also admits an `Int`.
            let kind = if kind == SignalKind::Real && rng.below(2) == 0 {
                SignalKind::Int
            } else {
                kind
            };
            let value = rng.value(kind);
            let m = &mut pair[which];
            m.batch.set(id, lane, value);
            m.model[id.index() * lanes + lane] = Some(value);
            "set"
        }
        2 => {
            // Any kind into any row, and unset slots, through a frame that
            // was never kind-checked.
            let frame = table.frame_from_state_lossy(&rng.state());
            let m = &mut pair[which];
            m.batch.write_lane_from(lane, &frame);
            m.model_lane(lane, |id| frame.get(id));
            "write_lane_from"
        }
        3 => {
            pair[which].batch.clear_lane(lane);
            pair[which].model_lane(lane, |_| None);
            "clear_lane"
        }
        4 => {
            let [a, b] = pair;
            let (from, to) = if which == 0 { (a, b) } else { (b, a) };
            to.batch.copy_from(&from.batch);
            to.model.clone_from(&from.model);
            "copy_from"
        }
        5 => {
            let mut frame = table.frame();
            pair[which].batch.read_lane_into(lane, &mut frame);
            for id in table.ids() {
                let want = pair[which].model[id.index() * lanes + lane];
                assert!(same_slot(frame.get(id), want), "read_lane_into {id:?}");
            }
            let to = rng.below(lanes);
            let m = &mut pair[1 - which];
            m.batch.write_lane_from(to, &frame);
            m.model_lane(to, |id| frame.get(id));
            "read_lane_into"
        }
        6 => {
            // Archived samples of any kind, decoded tick by tick.
            let mut trace = Trace::with_tick_millis(1);
            for _ in 0..1 + rng.below(3) {
                trace.push(rng.state());
            }
            let trace = FrameTrace::from_trace(table, &trace).unwrap();
            let meta = RunMeta {
                table_ref: 0,
                substrate: "model".into(),
                label: "model".into(),
                dt_millis: 1,
                ticks: trace.len() as u64,
                terminated_early: false,
                terminal_event: None,
            };
            let mut dict = SymDict::new();
            let bytes = esafe_logic::corpus::encode_run(&trace, &meta, &mut dict);
            let (_, mut decoder) = RunDecoder::new(&bytes, table, &dict).unwrap();
            let m = &mut pair[which];
            for t in 0..trace.len() {
                decoder.write_tick(&mut m.batch, lane, &dict).unwrap();
                m.model_lane(lane, |id| trace.get(t, id));
                m.check("write_tick");
            }
            "write_tick"
        }
        _ => {
            pair[which].batch.clear();
            pair[which].model.fill(None);
            "clear"
        }
    }
}

proptest! {
    /// `Display` output parses back to the identical AST.
    #[test]
    fn parser_round_trips_generated_asts(e in past_expr(4)) {
        let printed = e.to_string();
        let reparsed = parse(&printed)
            .unwrap_or_else(|err| panic!("failed to reparse `{printed}`: {err}"));
        prop_assert_eq!(e, reparsed);
    }

    /// `render(parse(s)) == s` as a *string* fixpoint: one render/parse
    /// cycle reaches the canonical spelling, after which rendering is
    /// stable character for character (whitespace included).
    #[test]
    fn render_parse_is_a_string_fixpoint(e in past_expr(4)) {
        let canonical = e.to_string();
        let reparsed = parse(&canonical)
            .unwrap_or_else(|err| panic!("failed to reparse `{canonical}`: {err}"));
        prop_assert_eq!(reparsed.to_string(), canonical);
    }

    /// A frame serializes as the name-keyed map and survives the
    /// `Frame -> serde -> State -> Frame` round trip bit for bit.
    #[test]
    fn frame_round_trips_through_name_keyed_serde(slots in slot_values()) {
        let mut b = SignalTable::builder();
        for (name, value) in &slots {
            b.signal(name, match value {
                Value::Bool(_) => esafe_logic::SignalKind::Bool,
                Value::Int(_) => esafe_logic::SignalKind::Int,
                Value::Real(_) => esafe_logic::SignalKind::Real,
                Value::Sym(_) => esafe_logic::SignalKind::Sym,
            });
        }
        let table = b.finish();
        let mut frame = table.frame();
        for (name, value) in &slots {
            frame.set_named(name, *value);
        }
        // Frame -> Content (name-keyed map) -> State -> Frame.
        let content = frame.to_content();
        let named = std::collections::BTreeMap::<String, Value>::from_content(&content)
            .expect("name-keyed map decodes");
        let state: State = named.into_iter().collect();
        let back = table.frame_from_state(&state).expect("names resolve");
        prop_assert_eq!(back, frame);
    }

    /// A one-root fused suite agrees with the reference trace evaluator
    /// on the monitorable rewrite of every formula.
    #[test]
    fn incremental_matches_reference(
        e in past_expr(4),
        rows in proptest::collection::vec(proptest::array::uniform4(any::<bool>()), 1..30),
    ) {
        let trace = random_trace(rows);
        let table = four_bool_table();
        let mut suite = fuse(std::slice::from_ref(&e), &table).instantiate_batch(1);
        let incremental: Vec<bool> = trace
            .iter()
            .map(|s| {
                observe(&mut suite, &table.frame_from_state_lossy(s)).expect("vars present");
                suite.verdict(0, 0)
            })
            .collect();
        prop_assert_eq!(incremental, reference(&e, &trace));
    }

    /// A name-keyed trace survives the round trip through the
    /// column-per-signal production representation.
    #[test]
    fn frame_trace_round_trips_name_keyed_traces(
        rows in proptest::collection::vec(proptest::array::uniform4(any::<bool>()), 1..30),
    ) {
        let trace = random_trace(rows);
        let table = four_bool_table();
        let ft = FrameTrace::from_trace(&table, &trace).expect("names resolve");
        prop_assert_eq!(ft.len(), trace.len());
        prop_assert_eq!(ft.tick_millis(), trace.tick_millis());
        prop_assert_eq!(ft.to_trace(), trace);
    }

    /// Frame-speed replay over the column trace produces exactly the
    /// reference trace semantics of the monitorable rewrite.
    #[test]
    fn frame_trace_replay_matches_state_replay(
        e in past_expr(4),
        rows in proptest::collection::vec(proptest::array::uniform4(any::<bool>()), 1..30),
    ) {
        let trace = random_trace(rows);
        let table = four_bool_table();
        let ft = FrameTrace::from_trace(&table, &trace).expect("names resolve");
        prop_assert_eq!(ft.replay_expr(&e).expect("replays"), reference(&e, &trace));
    }

    /// Propositional equivalence implies identical truth on concrete traces
    /// (soundness of the model enumerator w.r.t. trace semantics, away from
    /// the trace-initial corner).
    #[test]
    fn prop_equivalence_is_sound_on_traces(
        a in unrollable_expr(3),
        b in unrollable_expr(3),
        rows in proptest::collection::vec(proptest::array::uniform4(any::<bool>()), 4..20),
    ) {
        let trace = random_trace(rows);
        if prop::equivalent(&a, &b).expect("unrollable") {
            let ta = eval_trace(&a, &trace).expect("vars present");
            let tb = eval_trace(&b, &trace).expect("vars present");
            let depth = a.prev_depth().max(b.prev_depth()) as usize;
            // Skip the initial window where free-atom semantics and
            // trace semantics legitimately differ.
            prop_assert_eq!(&ta[depth..], &tb[depth..]);
        }
    }

    /// De Morgan duality holds pointwise on arbitrary traces.
    #[test]
    fn de_morgan_on_traces(
        a in past_expr(3),
        b in past_expr(3),
        rows in proptest::collection::vec(proptest::array::uniform4(any::<bool>()), 1..20),
    ) {
        let trace = random_trace(rows);
        let lhs = eval_trace(&Expr::not(Expr::and(a.clone(), b.clone())), &trace).unwrap();
        let rhs = eval_trace(&Expr::or(Expr::not(a), Expr::not(b)), &trace).unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    /// `held_for(p, 1)` is exactly `prev(p)`.
    #[test]
    fn held_for_one_is_prev(
        rows in proptest::collection::vec(proptest::array::uniform4(any::<bool>()), 1..20),
    ) {
        let trace = random_trace(rows);
        let a = eval_trace(&Expr::held_for(Expr::var("p"), 1), &trace).unwrap();
        let b = eval_trace(&Expr::prev(Expr::var("p")), &trace).unwrap();
        prop_assert_eq!(a, b);
    }

    /// `once_within(p, n)` implies `once(p)` wherever it holds.
    #[test]
    fn once_within_implies_once(
        n in 1u64..6,
        rows in proptest::collection::vec(proptest::array::uniform4(any::<bool>()), 1..20),
    ) {
        let trace = random_trace(rows);
        let bounded = eval_trace(&Expr::once_within(Expr::var("p"), n), &trace).unwrap();
        let unbounded = eval_trace(&Expr::once(Expr::var("p")), &trace).unwrap();
        for (bw, uw) in bounded.iter().zip(&unbounded) {
            prop_assert!(!bw || *uw);
        }
    }

    /// Fused suite-level evaluation produces exactly the verdicts of
    /// evaluating each monitor on its own with the reference evaluator,
    /// on random traces and random suites built from shared
    /// subexpressions — the correctness contract of the cross-monitor
    /// CSE engine.
    #[test]
    fn fused_suite_matches_per_monitor_on_shared_suites(
        pool in proptest::collection::vec(past_expr(3), 2..5),
        spec in proptest::collection::vec(
            (0usize..16, 0usize..16, 0u8..32), 1..8),
        rows in proptest::collection::vec(proptest::array::uniform4(any::<bool>()), 1..25),
    ) {
        let exprs = suite_from(&pool, &spec);
        let table = four_bool_table();
        let trace = random_trace(rows);
        let expected: Vec<Vec<bool>> = exprs.iter().map(|e| reference(e, &trace)).collect();
        let program = fuse(&exprs, &table);
        prop_assert!(program.unique_nodes() <= program.source_nodes());
        let mut fused = program.instantiate_batch(1);
        for (step, s) in trace.iter().enumerate() {
            observe(&mut fused, &table.frame_from_state_lossy(s)).expect("vars present");
            for (i, e) in exprs.iter().enumerate() {
                prop_assert_eq!(
                    fused.verdict(0, i),
                    expected[i][step],
                    "monitor {} diverged at step {} on `{}`", i, step, e
                );
            }
        }
    }

    /// The batched SoA evaluator and a one-lane fused suite per lane both
    /// produce exactly each lane's reference verdicts — on random suites,
    /// random per-lane traces, and random mid-batch retirement schedules
    /// (a lane that stops early must freeze without perturbing its
    /// neighbours). This is the correctness contract of the striped
    /// sweep engine.
    #[test]
    fn batched_fused_matches_scalar_fused_per_lane(
        pool in proptest::collection::vec(past_expr(3), 2..5),
        spec in proptest::collection::vec(
            (0usize..16, 0usize..16, 0u8..32), 1..6),
        lane_rows in proptest::collection::vec(
            proptest::collection::vec(proptest::array::uniform4(any::<bool>()), 1..20),
            1..5),
        retire_seed in 0u64..u64::MAX,
        lanes in lane_count(),
    ) {
        let exprs = suite_from(&pool, &spec);
        let traces = widen(lane_rows.into_iter().map(random_trace).collect(), lanes);
        let retire_at = retire_schedule(retire_seed, traces.len());
        assert_lanes_match_eval(&exprs, &four_bool_table(), &traces, &retire_at);
    }

    /// Fusing the same formula list twice adds no new nodes beyond the
    /// first copy: dedup is exact on structural duplicates.
    #[test]
    fn fused_duplicate_monitors_are_free(e in past_expr(3)) {
        let table = four_bool_table();
        let single = FusedSuiteProgram::compile(
            std::slice::from_ref(&e), &table).expect("compiles");
        let doubled = FusedSuiteProgram::compile(
            &[e.clone(), e.clone()], &table).expect("compiles");
        prop_assert_eq!(doubled.unique_nodes(), single.unique_nodes());
        prop_assert_eq!(doubled.state_cells(), single.state_cells());
        prop_assert_eq!(doubled.source_nodes(), 2 * single.source_nodes());
        prop_assert_eq!(doubled.roots(), 2);
    }

    /// `reset` makes re-observation identical to a fresh suite, and both
    /// match the reference evaluator.
    #[test]
    fn reset_equals_fresh(
        e in past_expr(3),
        rows in proptest::collection::vec(proptest::array::uniform4(any::<bool>()), 1..15),
    ) {
        let trace = random_trace(rows);
        let table = four_bool_table();
        let program = fuse(std::slice::from_ref(&e), &table);
        let run = |suite: &mut FusedSuiteBatch| -> Vec<bool> {
            trace
                .iter()
                .map(|s| {
                    observe(suite, &table.frame_from_state_lossy(s)).unwrap();
                    suite.verdict(0, 0)
                })
                .collect()
        };
        let mut m = program.instantiate_batch(1);
        run(&mut m);
        m.reset();
        let replay = run(&mut m);
        prop_assert_eq!(&replay, &run(&mut program.instantiate_batch(1)));
        prop_assert_eq!(replay, reference(&e, &trace));
    }

    /// Bare comparison atoms — every shape, operator and value corner,
    /// mostly comparable, some not, with signals sometimes unset — agree
    /// with `eval` at every tick in both engines, and each engine errors
    /// exactly when `eval` does. Each case checks 32 suites.
    #[test]
    fn comparison_atoms_match_eval_and_error_with_it(
        scenarios in proptest::collection::vec(
            (
                proptest::collection::vec(
                    prop_oneof![comparable_atom(), comparable_atom(), comparable_atom(), any_atom()],
                    1..6),
                proptest::collection::vec(
                    proptest::collection::vec(
                        proptest::collection::vec(0..UNSET + 1, TYPED.len()), 1..16),
                    1..5),
                (0u64..u64::MAX, any::<bool>(), lane_count()),
            ),
            32),
    ) {
        for (atoms, lane_rows, (retire_seed, gaps, lanes)) in scenarios {
            let traces = widen(
                lane_rows.into_iter().map(|rows| typed_trace(rows, gaps)).collect(),
                lanes,
            );
            let retire_at = retire_schedule(retire_seed, traces.len());
            check_bare_atoms(&atoms, &traces, &retire_at);
        }
    }

    /// Temporal suites over comparison atoms (orderings only on numeric
    /// operands, so no sample is incomparable) match `eval` in both
    /// engines, lane by lane, under random retirement.
    #[test]
    fn comparison_atoms_in_temporal_suites_match_eval(
        pool in proptest::collection::vec(
            past_over(
                prop_oneof![comparable_atom(), (0..2usize).prop_map(|i| Expr::var(TYPED[i].0))],
                3,
            ),
            2..5),
        spec in proptest::collection::vec(
            (0usize..16, 0usize..16, 0u8..32), 1..6),
        lane_rows in proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec(0..UNSET, TYPED.len()), 1..16),
            1..5),
        retire_seed in 0u64..u64::MAX,
        lanes in lane_count(),
    ) {
        let exprs = suite_from(&pool, &spec);
        let traces = widen(
            lane_rows.into_iter().map(|rows| typed_trace(rows, false)).collect(),
            lanes,
        );
        let retire_at = retire_schedule(retire_seed, traces.len());
        assert_lanes_match_eval(&exprs, &typed_table(), &traces, &retire_at);
    }
}

proptest! {
    /// Typed lane rows hold exactly what `Option<Value>` slots held: two
    /// batches and their models go through the same random sets of every
    /// kind into every row, unsets, lane clears, copies, lane round trips
    /// through frames and decoded archive ticks, and every slot reads back
    /// its model's value bit for bit, at widths on both sides of a word.
    #[test]
    fn typed_rows_hold_what_option_slots_hold(seed in 0u64..u64::MAX, width in 0usize..5) {
        let lanes = [1, 63, 64, 65, 129][width];
        let table = typed_table();
        let mut rng = Mix(seed);
        let mut pair = [Modelled::new(&table, lanes), Modelled::new(&table, lanes)];
        for _ in 0..48 {
            let what = slab_op(&mut rng, &mut pair, &table);
            pair[0].check(what);
            pair[1].check(what);
        }
    }
}
