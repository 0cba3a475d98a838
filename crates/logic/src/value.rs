//! Typed values carried by system state variables.

use serde::{Content, DeError, Deserialize, Serialize};
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// A process-wide interned symbol: the payload of [`Value::Sym`].
///
/// Symbolic values are drawn from tiny command alphabets (`'STOP'`,
/// `'GO'`, `'UP'`, …) yet the seed implementation stored each occurrence
/// as a fresh `String`, so every simulator tick re-allocated the same
/// handful of texts. `Sym` interns each distinct text once, process-wide:
/// the value itself is a `Copy` 4-byte id, equality is an integer compare,
/// and writing a symbol into a [`Frame`](crate::Frame) allocates nothing.
///
/// Interning is idempotent and thread-safe (parallel sweeps intern
/// concurrently); texts are leaked once and live for the process, which is
/// bounded by the fixed alphabets the substrates use. Code that interns
/// texts from outside the process bounds the alphabet itself, with
/// [`Sym::lookup`] and [`Sym::interned`] (the wire decoder does).
///
/// # Per-thread cache
///
/// [`Sym::new`] and [`Sym::lookup`] first consult a small direct-mapped
/// cache of `(text, Sym)` pairs owned by the calling thread, and take the
/// global interner's lock only on a miss. The cache is exact because the
/// interner is append-only: a text, once interned, keeps its id for the
/// life of the process and no id is ever remapped, so a cached pair can
/// never go stale. Two texts that share a slot simply evict each other.
/// A thread whose cache is already torn down (during thread exit) goes
/// straight to the global interner.
///
/// # Example
///
/// ```
/// use esafe_logic::Sym;
///
/// let a = Sym::new("STOP");
/// let b = Sym::new("STOP");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "STOP");
/// assert_ne!(a, Sym::new("GO"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

struct Interner {
    by_text: HashMap<&'static str, u32>,
    texts: Vec<&'static str>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            by_text: HashMap::new(),
            texts: Vec::new(),
        })
    })
}

/// The global interner's copy of `text` and its id, if `text` is
/// interned.
fn find(text: &str) -> Option<(&'static str, Sym)> {
    interner()
        .read()
        .expect("interner poisoned")
        .by_text
        .get_key_value(text)
        .map(|(&interned, &id)| (interned, Sym(id)))
}

/// Interns `text` in the global interner, returning the interned copy of
/// the text with its id.
fn intern(text: &str) -> (&'static str, Sym) {
    if let Some(found) = find(text) {
        return found;
    }
    let mut w = interner().write().expect("interner poisoned");
    if let Some((&interned, &id)) = w.by_text.get_key_value(text) {
        return (interned, Sym(id));
    }
    let leaked: &'static str = Box::leak(text.to_owned().into_boxed_str());
    let id = u32::try_from(w.texts.len()).expect("symbol alphabet overflow");
    w.texts.push(leaked);
    w.by_text.insert(leaked, id);
    (leaked, Sym(id))
}

/// Slots in each thread's symbol cache (a power of two).
const CACHE_SLOTS: usize = 64;

thread_local! {
    /// The calling thread's direct-mapped symbol cache; see [`Sym`].
    static CACHE: [Cell<Option<(&'static str, Sym)>>; CACHE_SLOTS] =
        const { [const { Cell::new(None) }; CACHE_SLOTS] };
}

/// The cache slot of `text`: FNV-1a over its bytes, folded to a slot
/// index by a Fibonacci multiply.
fn cache_slot(text: &str) -> usize {
    let mut h: u32 = 0x811c_9dc5;
    for &b in text.as_bytes() {
        h = (h ^ u32::from(b)).wrapping_mul(0x0100_0193);
    }
    (h.wrapping_mul(0x9e37_79b9) >> (32 - CACHE_SLOTS.trailing_zeros())) as usize
}

/// Resolves `text` through the calling thread's cache, asking `global`
/// (which answers with the interned copy of the text) on a miss and
/// caching its answer.
fn cached(text: &str, global: impl FnOnce(&str) -> Option<(&'static str, Sym)>) -> Option<Sym> {
    let slot = cache_slot(text);
    let hit = CACHE.try_with(|cache| match cache[slot].get() {
        Some((cached, sym)) if cached == text => Some(sym),
        _ => None,
    });
    if let Ok(Some(sym)) = hit {
        return Some(sym);
    }
    let (interned, sym) = global(text)?;
    // A torn-down cache just stays cold.
    let _ = CACHE.try_with(|cache| cache[slot].set(Some((interned, sym))));
    Some(sym)
}

impl Sym {
    /// Interns `text`, returning the same id for the same text forever.
    pub fn new(text: &str) -> Sym {
        cached(text, |text| Some(intern(text))).expect("interning always yields a symbol")
    }

    /// The symbol of `text` if it is already interned, without interning
    /// it: the read-only twin of [`Sym::new`], for callers that must not
    /// grow the alphabet.
    pub fn lookup(text: &str) -> Option<Sym> {
        cached(text, find)
    }

    /// How many distinct texts have been interned, process-wide.
    pub fn interned() -> usize {
        interner().read().expect("interner poisoned").texts.len()
    }

    /// The interned text.
    pub fn as_str(self) -> &'static str {
        interner().read().expect("interner poisoned").texts[self.0 as usize]
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Self {
        Sym::new(s)
    }
}

impl Serialize for Sym {
    fn to_content(&self) -> Content {
        Content::Str(self.as_str().to_owned())
    }
}

impl Deserialize for Sym {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Str(s) => Ok(Sym::new(s)),
            _ => Err(DeError::custom("expected symbol string")),
        }
    }
}

/// The value of a state variable at one instant.
///
/// Safety goals compare variables against literals or other variables, so
/// values must support equality and ordering where meaningful. Numeric
/// comparisons coerce between [`Value::Int`] and [`Value::Real`]; symbolic
/// values ([`Value::Sym`], used for command enumerations such as `'STOP'` /
/// `'GO'`) support equality only.
///
/// `Value` is `Copy`: symbols are interned ([`Sym`]), so moving values
/// through the per-tick [`Frame`](crate::Frame) double buffer costs a
/// memcpy and no heap traffic.
///
/// # Example
///
/// ```
/// use esafe_logic::Value;
///
/// assert!(Value::Int(2).num_eq(&Value::Real(2.0)));
/// assert!(Value::Real(1.5).num_lt(&Value::Int(2)).unwrap());
/// assert_eq!(Value::sym("STOP"), Value::sym("STOP"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// A boolean state variable (e.g. `DoorClosed`).
    Bool(bool),
    /// An integer-valued variable (e.g. a floor index).
    Int(i64),
    /// A real-valued variable (e.g. `VehicleAcceleration.value` in m/s²).
    Real(f64),
    /// A symbolic/enumeration value (e.g. `DriveCommand = 'STOP'`).
    Sym(Sym),
}

impl Value {
    /// Convenience constructor for symbolic values.
    ///
    /// ```
    /// use esafe_logic::{Sym, Value};
    /// assert_eq!(Value::sym("GO"), Value::Sym(Sym::new("GO")));
    /// ```
    pub fn sym(s: impl AsRef<str>) -> Self {
        Value::Sym(Sym::new(s.as_ref()))
    }

    /// Returns the boolean payload, if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the value as a real number when it is numeric.
    pub fn as_real(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Real(r) => Some(*r),
            _ => None,
        }
    }

    /// Returns the symbol payload, if this is a [`Value::Sym`].
    pub fn as_sym(&self) -> Option<Sym> {
        match self {
            Value::Sym(s) => Some(*s),
            _ => None,
        }
    }

    /// Numeric-coercing equality; falls back to structural equality for
    /// non-numeric values.
    pub fn num_eq(&self, other: &Value) -> bool {
        match (self.as_real(), other.as_real()) {
            (Some(a), Some(b)) => a == b,
            _ => self == other,
        }
    }

    /// Numeric less-than. Returns `None` when either side is not numeric.
    pub fn num_lt(&self, other: &Value) -> Option<bool> {
        Some(self.as_real()? < other.as_real()?)
    }

    /// Numeric less-than-or-equal. Returns `None` when either side is not
    /// numeric.
    pub fn num_le(&self, other: &Value) -> Option<bool> {
        Some(self.as_real()? <= other.as_real()?)
    }

    /// A short name for the value's type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Real(_) => "real",
            Value::Sym(_) => "sym",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => {
                if r.fract() == 0.0 && r.is_finite() && r.abs() < 1e15 {
                    write!(f, "{r:.1}")
                } else {
                    write!(f, "{r}")
                }
            }
            Value::Sym(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(r: f64) -> Self {
        Value::Real(r)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::sym(s)
    }
}

impl From<Sym> for Value {
    fn from(s: Sym) -> Self {
        Value::Sym(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bool_round_trip() {
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Int(1).as_bool(), None);
    }

    #[test]
    fn numeric_coercion_equality() {
        assert!(Value::Int(3).num_eq(&Value::Real(3.0)));
        assert!(!Value::Int(3).num_eq(&Value::Real(3.5)));
    }

    #[test]
    fn symbolic_equality_only() {
        assert_eq!(Value::sym("STOP"), Value::sym("STOP"));
        assert_ne!(Value::sym("STOP"), Value::sym("GO"));
        assert_eq!(Value::sym("STOP").num_lt(&Value::sym("GO")), None);
    }

    #[test]
    fn interning_is_stable_and_copy() {
        let a = Sym::new("interning_test_token");
        let b = Sym::new("interning_test_token");
        assert_eq!(a, b);
        let copied = a;
        assert_eq!(copied.as_str(), "interning_test_token");
        assert_eq!(Value::from(a), Value::sym("interning_test_token"));
    }

    /// The global interner's id for `text`, bypassing every cache.
    fn global_id(text: &str) -> Sym {
        find(text).unwrap().1
    }

    #[test]
    fn cached_symbols_match_the_global_interner() {
        // Texts that share one cache slot evict each other on every turn.
        let slot = cache_slot("slot_probe_0");
        let rivals: Vec<String> = (0..)
            .map(|i| format!("slot_probe_{i}"))
            .filter(|text| cache_slot(text) == slot)
            .take(3)
            .collect();
        assert_eq!(Sym::lookup("slot_probe_never_interned"), None);
        for _ in 0..3 {
            for text in &rivals {
                let sym = Sym::new(text);
                assert_eq!(sym, global_id(text));
                assert_eq!(Sym::lookup(text), Some(sym));
                assert_eq!(sym.as_str(), text);
            }
        }

        // Many threads interning one alphabet at once, each starting at a
        // different text, all get the global ids.
        const THREADS: usize = 8;
        let texts: Vec<String> = (0..200).map(|i| format!("thread_probe_{i}")).collect();
        let start = std::sync::Barrier::new(THREADS);
        let per_thread: Vec<Vec<Sym>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|k| {
                    let (texts, start) = (&texts, &start);
                    scope.spawn(move || {
                        start.wait();
                        let n = texts.len();
                        let mut syms = vec![Sym(u32::MAX); n];
                        for i in 0..2 * n {
                            let at = (i + k * 25) % n;
                            syms[at] = Sym::new(&texts[at]);
                        }
                        syms
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for syms in &per_thread {
            for (text, &sym) in texts.iter().zip(syms) {
                assert_eq!(sym, global_id(text), "{text}");
            }
        }
    }

    #[test]
    fn sym_serde_round_trips_as_text() {
        let v = Value::sym("OPEN");
        let c = v.to_content();
        assert_eq!(Value::from_content(&c).unwrap(), v);
    }

    #[test]
    fn ordering() {
        assert_eq!(Value::Int(1).num_lt(&Value::Int(2)), Some(true));
        assert_eq!(Value::Real(2.0).num_le(&Value::Int(2)), Some(true));
        assert_eq!(Value::Real(2.1).num_le(&Value::Int(2)), Some(false));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Bool(false).to_string(), "false");
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Real(2.0).to_string(), "2.0");
        assert_eq!(Value::sym("OPEN").to_string(), "'OPEN'");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(4i64), Value::Int(4));
        assert_eq!(Value::from(0.5), Value::Real(0.5));
        assert_eq!(Value::from("X"), Value::sym("X"));
    }
}
