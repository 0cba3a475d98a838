//! Pooled run state and suite provenance.
//!
//! Much of a run's setup is invariant across the cells of one substrate
//! family: the ~dozens of goal formulas compiled into a suite, its
//! temporal cells, the interval trackers. A caller that runs many cells
//! one after another on one thread — the serial recording sweeps, a
//! benchmark loop — owns one [`RunContext`] and passes it to every run.
//! Every run is a one-lane stripe of the harness's tick loop, so the
//! context pools a one-lane [`MonitorSuiteBatch`]: a suite instantiated
//! from a [`SuiteTemplate`] is kept and [`MonitorSuiteBatch::reset`]
//! between runs with the same template (a `memcpy` of temporal cells
//! instead of re-instantiation).
//!
//! Reuse never changes results: a reset suite is observationally
//! identical to a fresh one, so a pooled run is bit-identical to
//! `Experiment::run` — pinned by the experiment tests. Parallel sweeps
//! do not pool: each stripe instantiates its own batched suite.
//!
//! [`SuiteProvenance`] is what a run reports of its own setup: how its
//! suite was obtained, counted by `Sweep` into `SweepStats`.

use crate::substrate::Substrate;
use esafe_logic::EvalError;
use esafe_monitor::{MonitorSuiteBatch, SuiteTemplate};
use std::sync::Arc;

/// How a run obtained its monitor suite — the amortization ladder, from
/// most expensive to cheapest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteProvenance {
    /// Compiled from scratch via [`Substrate::build_monitors`] (no
    /// template available).
    Compiled,
    /// Instantiated from the substrate's [`SuiteTemplate`] (first run of
    /// a template on this worker).
    Instantiated,
    /// A pooled suite from a previous run of the same template, reset in
    /// place.
    Reused,
}

/// A fresh suite for a stripe of `lanes` cells sharing `first`'s suite
/// template, or, for a template-less substrate, its own suite compiled
/// from [`Substrate::build_monitors`].
///
/// # Errors
///
/// Returns [`EvalError`] if (template-less) suite compilation fails.
pub(crate) fn fresh_suite<S: Substrate>(
    first: &S,
    lanes: usize,
) -> Result<(MonitorSuiteBatch, SuiteProvenance), EvalError> {
    Ok(match first.suite_template() {
        Some(template) => (
            template.instantiate_batch(lanes),
            SuiteProvenance::Instantiated,
        ),
        None => (
            first.build_monitors()?.template().instantiate_batch(lanes),
            SuiteProvenance::Compiled,
        ),
    })
}

/// Per-worker state reused across the runs executed on one thread. See
/// the [module docs](self).
#[derive(Debug, Default)]
pub struct RunContext {
    pooled: Option<(Arc<SuiteTemplate>, MonitorSuiteBatch)>,
}

impl RunContext {
    /// Creates an empty context (nothing pooled yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// A pre-run one-lane suite for the substrate: the pooled suite
    /// reset in place when the substrate's template matches, a fresh one
    /// otherwise ([`fresh_suite`]).
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] if (template-less) suite compilation fails.
    pub(crate) fn take_suite<S: Substrate>(
        &mut self,
        substrate: &S,
    ) -> Result<(MonitorSuiteBatch, SuiteProvenance), EvalError> {
        if let Some(template) = substrate.suite_template() {
            if let Some((pooled_template, mut suite)) = self.pooled.take() {
                if Arc::ptr_eq(&pooled_template, template) {
                    suite.reset();
                    return Ok((suite, SuiteProvenance::Reused));
                }
            }
        }
        fresh_suite(substrate, 1)
    }

    /// Returns a finished run's suite to the pool. The suite is kept
    /// only for template-instantiated runs (`template` is the
    /// substrate's template, if any) — a per-run-compiled suite has no
    /// identity to match the next cell against.
    pub(crate) fn put_back(
        &mut self,
        suite: MonitorSuiteBatch,
        template: Option<&Arc<SuiteTemplate>>,
    ) {
        if let Some(template) = template {
            self.pooled = Some((Arc::clone(template), suite));
        }
    }
}
