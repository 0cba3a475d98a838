//! Error types for parsing, evaluation, and propositional analysis.

use std::error::Error;
use std::fmt;

/// An error produced while parsing a goal expression from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl Error for ParseError {}

/// An error produced while evaluating an expression over a trace or state.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// A referenced state variable was absent from the sampled state.
    MissingVar {
        /// The variable name.
        name: String,
        /// The sample index at which the lookup failed.
        step: usize,
    },
    /// A variable was used where a boolean was required but held another
    /// type.
    NotBoolean {
        /// The variable name.
        name: String,
        /// The type actually found.
        found: &'static str,
    },
    /// A comparison was applied to operands that do not support it (e.g.
    /// ordering two symbolic values).
    IncomparableValues {
        /// Rendered left operand.
        lhs: String,
        /// Rendered right operand.
        rhs: String,
    },
    /// A future-directed operator was used where only past-time and
    /// current-state operators are supported (run-time monitoring).
    FutureOperator {
        /// The offending operator's name.
        operator: &'static str,
    },
    /// A goal formula referenced a variable that is not in the
    /// [`SignalTable`](crate::SignalTable) it was compiled against — the
    /// namespace is closed at compile time, so unknown signals fail fast
    /// instead of erroring on the first observed tick.
    UnknownSignal {
        /// The unresolvable variable name.
        name: String,
    },
    /// An ordering (`<`, `<=`, `>`, `>=`) has a boolean or symbolic
    /// operand: a signal declared so in the
    /// [`SignalTable`](crate::SignalTable), or such a literal. Only
    /// numbers are ordered, so the comparison could never evaluate, and
    /// compilation refuses it.
    UnorderableOperands {
        /// The left operand as written.
        lhs: String,
        /// The right operand as written.
        rhs: String,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::MissingVar { name, step } => {
                write!(f, "state variable `{name}` missing at step {step}")
            }
            EvalError::NotBoolean { name, found } => {
                write!(f, "variable `{name}` used as boolean but holds {found}")
            }
            EvalError::IncomparableValues { lhs, rhs } => {
                write!(f, "cannot order values {lhs} and {rhs}")
            }
            EvalError::FutureOperator { operator } => {
                write!(
                    f,
                    "operator `{operator}` refers to future states and is not finitely violable"
                )
            }
            EvalError::UnknownSignal { name } => {
                write!(f, "variable `{name}` is not declared in the signal table")
            }
            EvalError::UnorderableOperands { lhs, rhs } => {
                write!(
                    f,
                    "cannot order `{lhs}` and `{rhs}`: an ordering needs two numeric operands"
                )
            }
        }
    }
}

impl Error for EvalError {}

/// An error produced by the propositional unroller / model enumerator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropError {
    /// The expression contains an operator that cannot be unrolled into a
    /// bounded propositional window (unbounded past or any future operator).
    Unboundable {
        /// The offending operator's name.
        operator: &'static str,
    },
    /// The formula references more distinct atoms than the enumeration
    /// limit allows.
    TooManyAtoms {
        /// Number of distinct `(variable, age)` atoms found.
        found: usize,
        /// Enumeration limit.
        limit: usize,
    },
}

impl fmt::Display for PropError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropError::Unboundable { operator } => {
                write!(
                    f,
                    "operator `{operator}` cannot be propositionally unrolled"
                )
            }
            PropError::TooManyAtoms { found, limit } => {
                write!(f, "{found} atoms exceed the enumeration limit of {limit}")
            }
        }
    }
}

impl Error for PropError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_nonempty_and_lowercase() {
        let errors: Vec<Box<dyn Error>> = vec![
            Box::new(ParseError {
                offset: 3,
                message: "expected `)`".into(),
            }),
            Box::new(EvalError::MissingVar {
                name: "x".into(),
                step: 9,
            }),
            Box::new(EvalError::FutureOperator {
                operator: "eventually",
            }),
            Box::new(PropError::TooManyAtoms {
                found: 30,
                limit: 20,
            }),
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(!msg.chars().next().unwrap().is_uppercase());
            assert!(!msg.ends_with('.'));
        }
    }
}
