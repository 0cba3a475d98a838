//! Interned signal namespace and dense per-tick state frames.
//!
//! The seed implementation sampled system state as `BTreeMap<String,
//! Value>` snapshots rebuilt every tick, so the hottest loop in the
//! reproduction — sample all state variables each millisecond and feed
//! every goal monitor — was dominated by `String` allocation and
//! string-ordered map lookups. This module replaces that representation
//! with the two types the whole pipeline now shares:
//!
//! * [`SignalTable`] — an immutable name → [`SignalId`] interner with a
//!   [`SignalKind`] tag per signal. A substrate builds its table **once**;
//!   every run, sweep cell, monitor, and series sample shares it through
//!   an [`Arc`]. This is the "small, explicit relied-upon interface"
//!   between constituent systems that Kopetz's system-of-systems analysis
//!   calls for: the signal namespace is closed at build time.
//! * [`Frame`] — one sample of all signals: a flat `Vec<Option<Value>>`
//!   indexed by [`SignalId`]. Since [`Value`] is `Copy` (symbols are
//!   interned), copying a frame is a memcpy and per-tick reads/writes are
//!   array indexing — zero heap traffic on the hot path.
//!
//! The name-keyed [`State`] map remains the authoring,
//! serde, and test-fixture view; [`SignalTable::frame_from_state`] and
//! [`Frame::to_state`] convert between the two.
//!
//! # Example
//!
//! ```
//! use esafe_logic::{SignalTable, Value};
//!
//! let mut b = SignalTable::builder();
//! let speed = b.real("host.speed");
//! let stopped = b.bool("host.stopped");
//! let table = b.finish();
//!
//! let mut frame = table.frame();
//! frame.set(speed, 3.5);
//! frame.set(stopped, false);
//! assert_eq!(frame.get(speed), Some(Value::Real(3.5)));
//! assert_eq!(frame.real_or(speed, 0.0), 3.5);
//! assert_eq!(table.id("host.speed"), Some(speed));
//! ```

use crate::state::State;
use crate::value::Value;
use serde::{Content, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A dense index into a [`SignalTable`] (and into every [`Frame`] built
/// from it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SignalId(u32);

impl SignalId {
    /// The raw dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The declared type of a signal.
///
/// Kinds are declarative metadata: they document the namespace, drive
/// tooling, and back the `debug_assert` in [`Frame::set`]. Run-time type
/// errors (a non-boolean used as an atom, ordering symbols) are still
/// reported by evaluation, exactly as with the name-keyed representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalKind {
    /// Boolean signal.
    Bool,
    /// Integer signal.
    Int,
    /// Real-valued signal.
    Real,
    /// Symbolic/enumeration signal.
    Sym,
}

impl SignalKind {
    /// Whether `value` inhabits this kind (numeric kinds admit both
    /// [`Value::Int`] and [`Value::Real`]).
    pub fn admits(self, value: &Value) -> bool {
        self.admits_kind(match value {
            Value::Bool(_) => SignalKind::Bool,
            Value::Int(_) => SignalKind::Int,
            Value::Real(_) => SignalKind::Real,
            Value::Sym(_) => SignalKind::Sym,
        })
    }

    /// Whether values of kind `found` inhabit this kind: [`admits`]
    /// for a value not yet built, such as one a decoder has only seen the
    /// type tag of.
    ///
    /// [`admits`]: SignalKind::admits
    pub fn admits_kind(self, found: SignalKind) -> bool {
        self == found || (self == SignalKind::Real && found == SignalKind::Int)
    }
}

/// Builds a [`SignalTable`]; signals are interned in declaration order.
#[derive(Debug, Default)]
pub struct SignalTableBuilder {
    names: Vec<String>,
    kinds: Vec<SignalKind>,
    by_name: HashMap<String, u32>,
}

impl SignalTableBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name` with the given kind, returning its id. Re-declaring
    /// a name with the same kind is idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `name` was already declared with a different kind — the
    /// namespace is the substrate's contract, and a kind conflict is a
    /// wiring bug.
    pub fn signal(&mut self, name: &str, kind: SignalKind) -> SignalId {
        if let Some(&id) = self.by_name.get(name) {
            assert!(
                self.kinds[id as usize] == kind,
                "signal `{name}` re-declared as {kind:?} (was {:?})",
                self.kinds[id as usize]
            );
            return SignalId(id);
        }
        let id = u32::try_from(self.names.len()).expect("signal namespace overflow");
        self.names.push(name.to_owned());
        self.kinds.push(kind);
        self.by_name.insert(name.to_owned(), id);
        SignalId(id)
    }

    /// Declares a boolean signal.
    pub fn bool(&mut self, name: &str) -> SignalId {
        self.signal(name, SignalKind::Bool)
    }

    /// Declares an integer signal.
    pub fn int(&mut self, name: &str) -> SignalId {
        self.signal(name, SignalKind::Int)
    }

    /// Declares a real-valued signal.
    pub fn real(&mut self, name: &str) -> SignalId {
        self.signal(name, SignalKind::Real)
    }

    /// Declares a symbolic signal.
    pub fn sym(&mut self, name: &str) -> SignalId {
        self.signal(name, SignalKind::Sym)
    }

    /// Freezes the namespace into a shared immutable table.
    pub fn finish(self) -> Arc<SignalTable> {
        Arc::new(SignalTable {
            names: self.names,
            kinds: self.kinds,
            by_name: self.by_name,
        })
    }
}

/// The immutable, shared signal namespace: name → [`SignalId`] with a
/// [`SignalKind`] per signal. See the [module docs](self).
#[derive(Debug)]
pub struct SignalTable {
    names: Vec<String>,
    kinds: Vec<SignalKind>,
    by_name: HashMap<String, u32>,
}

impl SignalTable {
    /// Starts building a table.
    pub fn builder() -> SignalTableBuilder {
        SignalTableBuilder::new()
    }

    /// Resolves a name to its id.
    pub fn id(&self, name: &str) -> Option<SignalId> {
        self.by_name.get(name).map(|&i| SignalId(i))
    }

    /// The id at dense index `index` if that signal is named exactly
    /// `name`, byte for byte; `None` for any other name or an index past
    /// the end. An O(1) check for decoders that expect names in
    /// declaration order: names are unique, so a match is the id
    /// [`id`](SignalTable::id) would return.
    pub fn named_at(&self, index: usize, name: &[u8]) -> Option<SignalId> {
        let declared = self.names.get(index)?;
        (declared.as_bytes() == name).then_some(SignalId(index as u32))
    }

    /// The name of a signal.
    pub fn name(&self, id: SignalId) -> &str {
        &self.names[id.index()]
    }

    /// The declared kind of a signal.
    pub fn kind(&self, id: SignalId) -> SignalKind {
        self.kinds[id.index()]
    }

    /// Whether two tables declare the same namespace (same names in the
    /// same order) — the structural fallback behind [`Frame`] and
    /// [`FrameTrace`](crate::FrameTrace) equality when the `Arc`s differ.
    pub(crate) fn same_names(&self, other: &SignalTable) -> bool {
        self.names == other.names
    }

    /// Number of signals in the namespace.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the namespace is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All ids, in declaration order.
    pub fn ids(&self) -> impl Iterator<Item = SignalId> + '_ {
        (0..self.names.len() as u32).map(SignalId)
    }

    /// An all-unset frame over this namespace.
    pub fn frame(self: &Arc<Self>) -> Frame {
        Frame {
            slots: vec![None; self.len()],
            table: Arc::clone(self),
        }
    }

    /// Builds a frame from a name-keyed [`State`], resolving every entry.
    ///
    /// Values are stored as-is regardless of declared kind (States come
    /// from fixtures and deserialization; run-time type errors are
    /// evaluation's job, per [`SignalKind`]).
    ///
    /// # Errors
    ///
    /// Returns the first state-variable name not present in the table —
    /// the conversion is strict so namespace typos surface immediately.
    pub fn frame_from_state(self: &Arc<Self>, state: &State) -> Result<Frame, String> {
        let mut frame = self.frame();
        for (name, value) in state.iter() {
            let id = self.id(name).ok_or_else(|| name.to_owned())?;
            frame.slots[id.index()] = Some(*value);
        }
        Ok(frame)
    }

    /// Resolves `names` to ids, panicking on the first unknown name —
    /// the fail-fast path substrates use for tracked-signal
    /// configuration, where a typo should die at configuration time.
    pub fn resolve_all(&self, names: impl IntoIterator<Item = impl AsRef<str>>) -> Vec<SignalId> {
        names
            .into_iter()
            .map(|name| {
                let name = name.as_ref();
                self.id(name)
                    .unwrap_or_else(|| panic!("unknown tracked signal `{name}`"))
            })
            .collect()
    }

    /// Builds a frame carrying the state's values for names the table
    /// knows, silently skipping the rest (the lenient conversion behind
    /// [`CompiledMonitor::observe_state`](crate::CompiledMonitor::observe_state)).
    pub fn frame_from_state_lossy(self: &Arc<Self>, state: &State) -> Frame {
        let mut frame = self.frame();
        for (name, value) in state.iter() {
            if let Some(id) = self.id(name) {
                // Bypass the kind debug-assert: arbitrary States may
                // mistype a signal, and evaluation is where that must
                // surface (as `NotBoolean` / `IncomparableValues`).
                frame.slots[id.index()] = Some(*value);
            }
        }
        frame
    }
}

/// One sample of every signal in a [`SignalTable`]: a flat slot array
/// indexed by [`SignalId`]. See the [module docs](self).
#[derive(Clone)]
pub struct Frame {
    pub(crate) slots: Vec<Option<Value>>,
    table: Arc<SignalTable>,
}

impl Frame {
    /// The namespace this frame is indexed by.
    pub fn table(&self) -> &Arc<SignalTable> {
        &self.table
    }

    /// The value of a signal, or `None` if unset.
    #[inline]
    pub fn get(&self, id: SignalId) -> Option<Value> {
        self.slots[id.index()]
    }

    /// Sets a signal's value.
    ///
    /// `debug_assert`s that the value inhabits the signal's declared kind;
    /// release builds trust the substrate's wiring.
    #[inline]
    pub fn set(&mut self, id: SignalId, value: impl Into<Value>) {
        let value = value.into();
        debug_assert!(
            self.table.kind(id).admits(&value),
            "signal `{}` declared {:?} but assigned {}",
            self.table.name(id),
            self.table.kind(id),
            value.type_name()
        );
        self.slots[id.index()] = Some(value);
    }

    /// The boolean value of a signal, or `default` when unset/mistyped.
    #[inline]
    pub fn bool_or(&self, id: SignalId, default: bool) -> bool {
        self.get(id).and_then(|v| v.as_bool()).unwrap_or(default)
    }

    /// The numeric value of a signal, or `default` when unset/mistyped.
    #[inline]
    pub fn real_or(&self, id: SignalId, default: f64) -> f64 {
        self.get(id).and_then(|v| v.as_real()).unwrap_or(default)
    }

    /// The symbol value of a signal, if set and symbolic.
    #[inline]
    pub fn sym(&self, id: SignalId) -> Option<crate::Sym> {
        self.get(id).and_then(|v| v.as_sym())
    }

    /// Overwrites this frame's slots with `other`'s — the per-tick double
    /// buffer refresh. A memcpy: no allocation, no per-slot branching.
    ///
    /// # Panics
    ///
    /// Panics if the frames index different tables.
    #[inline]
    pub fn copy_from(&mut self, other: &Frame) {
        assert!(
            Arc::ptr_eq(&self.table, &other.table),
            "frames must share one signal table"
        );
        self.slots.copy_from_slice(&other.slots);
    }

    /// Unsets every slot, returning the frame to the all-unset state a
    /// fresh [`SignalTable::frame`] starts in — a `memset`, no
    /// allocation. Run-context pooling uses this so a reused scratch
    /// frame is indistinguishable from a newly built one.
    pub fn clear(&mut self) {
        self.slots.fill(None);
    }

    /// Number of slots (== the table's signal count).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the frame has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Looks a signal up by name (test/tooling convenience — the hot path
    /// holds resolved [`SignalId`]s).
    pub fn get_named(&self, name: &str) -> Option<Value> {
        self.table.id(name).and_then(|id| self.get(id))
    }

    /// Sets a signal by name (test/tooling convenience).
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the table.
    pub fn set_named(&mut self, name: &str, value: impl Into<Value>) {
        let id = self
            .table
            .id(name)
            .unwrap_or_else(|| panic!("signal `{name}` not declared in the table"));
        self.set(id, value);
    }

    /// Converts to the name-keyed [`State`] view (unset slots omitted).
    pub fn to_state(&self) -> State {
        self.table
            .ids()
            .filter_map(|id| self.get(id).map(|v| (self.table.name(id).to_owned(), v)))
            .collect()
    }

    /// Iterates over `(id, value)` for every set slot, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (SignalId, Value)> + '_ {
        self.table
            .ids()
            .filter_map(|id| self.get(id).map(|v| (id, v)))
    }
}

impl PartialEq for Frame {
    fn eq(&self, other: &Self) -> bool {
        (Arc::ptr_eq(&self.table, &other.table) || self.table.same_names(&other.table))
            && self.slots == other.slots
    }
}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut m = f.debug_map();
        for (id, v) in self.iter() {
            m.entry(&self.table.name(id), &v.to_string());
        }
        m.finish()
    }
}

/// Frames serialize as the name-keyed map (the same shape as
/// [`State`]), so external tooling never sees raw ids. Deserialization
/// requires a table: parse a [`State`] and use
/// [`SignalTable::frame_from_state`].
impl Serialize for Frame {
    fn to_content(&self) -> Content {
        Content::Map(
            self.iter()
                .map(|(id, v)| (self.table.name(id).to_owned(), v.to_content()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Arc<SignalTable> {
        let mut b = SignalTable::builder();
        b.bool("flag");
        b.real("speed");
        b.sym("cmd");
        b.int("floor");
        b.finish()
    }

    #[test]
    fn builder_interns_and_is_idempotent() {
        let mut b = SignalTable::builder();
        let a = b.real("x");
        let again = b.real("x");
        let y = b.bool("y");
        assert_eq!(a, again);
        assert_ne!(a, y);
        let t = b.finish();
        assert_eq!(t.len(), 2);
        assert_eq!(t.id("x"), Some(a));
        assert_eq!(t.name(a), "x");
        assert_eq!(t.kind(a), SignalKind::Real);
        assert_eq!(t.id("missing"), None);
        assert_eq!(t.named_at(0, b"x"), Some(a));
        assert_eq!(t.named_at(1, b"y"), Some(y));
        assert_eq!(t.named_at(1, b"x"), None);
        assert_eq!(t.named_at(2, b"x"), None, "past the end");
    }

    #[test]
    #[should_panic(expected = "re-declared")]
    fn kind_conflict_panics() {
        let mut b = SignalTable::builder();
        b.real("x");
        b.bool("x");
    }

    #[test]
    fn frame_set_get_and_defaults() {
        let t = table();
        let mut f = t.frame();
        let speed = t.id("speed").unwrap();
        let flag = t.id("flag").unwrap();
        assert_eq!(f.get(speed), None);
        assert_eq!(f.real_or(speed, 7.0), 7.0);
        f.set(speed, 2.5);
        f.set(flag, true);
        assert_eq!(f.get(speed), Some(Value::Real(2.5)));
        assert!(f.bool_or(flag, false));
        assert_eq!(f.get_named("speed"), Some(Value::Real(2.5)));
    }

    #[test]
    fn int_is_admitted_into_real_slots() {
        let t = table();
        let mut f = t.frame();
        f.set_named("speed", 3i64);
        assert_eq!(f.real_or(t.id("speed").unwrap(), 0.0), 3.0);
        assert!(SignalKind::Real.admits_kind(SignalKind::Int));
        assert!(!SignalKind::Int.admits_kind(SignalKind::Real));
        assert!(!SignalKind::Bool.admits_kind(SignalKind::Real));
    }

    #[test]
    fn copy_from_is_exact() {
        let t = table();
        let mut a = t.frame();
        a.set_named("cmd", Value::sym("STOP"));
        a.set_named("floor", 3i64);
        let mut b = t.frame();
        b.copy_from(&a);
        assert_eq!(a, b);
        b.set_named("floor", 4i64);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "share one signal table")]
    fn copy_from_rejects_foreign_tables() {
        let a = table().frame();
        let mut b = table().frame();
        b.copy_from(&a);
    }

    #[test]
    fn state_round_trip() {
        let t = table();
        let mut f = t.frame();
        f.set_named("flag", true);
        f.set_named("speed", 1.25);
        f.set_named("cmd", Value::sym("GO"));
        let state = f.to_state();
        assert_eq!(state.len(), 3);
        let back = t.frame_from_state(&state).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn frame_from_state_is_strict_and_lossy_variant_skips() {
        let t = table();
        let state = State::new()
            .with_bool("flag", true)
            .with_real("unknown", 1.0);
        assert_eq!(t.frame_from_state(&state), Err("unknown".to_owned()));
        let lossy = t.frame_from_state_lossy(&state);
        assert!(lossy.bool_or(t.id("flag").unwrap(), false));
        assert_eq!(lossy.iter().count(), 1);
    }

    #[test]
    fn serializes_as_name_keyed_map() {
        let t = table();
        let mut f = t.frame();
        f.set_named("floor", 2i64);
        let content = f.to_content();
        let map = content.as_map().expect("map");
        assert_eq!(map.len(), 1);
        assert_eq!(map[0].0, "floor");
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn set_named_rejects_unknown() {
        let t = table();
        t.frame().set_named("nope", 1.0);
    }
}
