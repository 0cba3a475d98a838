//! Pooled run state and suite provenance.
//!
//! Much of a run's setup is invariant across the cells of one substrate
//! family: the ~dozens of goal formulas compiled into a
//! [`MonitorSuite`], the observed-scratch [`Frame`], the interval
//! trackers. A caller that runs many cells one after another on one
//! thread — the serial recording sweeps, a benchmark loop — owns one
//! [`RunContext`] and passes it to every run:
//!
//! * the **observed scratch frame** is kept and [`Frame::clear`]ed
//!   between runs (a `memset` instead of an allocation);
//! * a suite instantiated from a [`SuiteTemplate`] is kept and
//!   [`MonitorSuite::reset`] between runs with the same template
//!   (a `memcpy` of temporal cells instead of re-instantiation).
//!
//! Reuse never changes results: a cleared frame and a reset suite are
//! observationally identical to fresh ones, so a pooled run is
//! bit-identical to `Experiment::run` — pinned by the experiment tests.
//! Parallel sweeps do not pool: their stripes instantiate one batched
//! suite per stripe, and their scalar cells start from a fresh context.
//!
//! [`SuiteProvenance`] is what a run reports of its own setup: how its
//! suite was obtained, counted by `Sweep` into `SweepStats`.

use crate::substrate::Substrate;
use esafe_logic::{EvalError, Frame};
use esafe_monitor::{MonitorSuite, SuiteTemplate};
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

/// Per-worker state reused across the runs executed on one thread. See
/// the [module docs](self).
#[derive(Debug, Default)]
pub struct RunContext {
    observed: Option<Frame>,
    pooled: Option<(Arc<SuiteTemplate>, MonitorSuite)>,
}

impl RunContext {
    /// Creates an empty context (nothing pooled yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// An all-unset observed-scratch frame over the substrate's table:
    /// the pooled frame cleared in place when the table matches, a fresh
    /// frame otherwise.
    pub(crate) fn take_observed<S: Substrate>(&mut self, substrate: &S) -> Frame {
        let table = substrate.signal_table();
        match self.observed.take() {
            Some(mut frame) if Arc::ptr_eq(frame.table(), table) => {
                frame.clear();
                frame
            }
            _ => table.frame(),
        }
    }

    /// A pre-run monitor suite for the substrate: the pooled suite reset
    /// in place when the substrate's template matches, a fresh
    /// instantiation when a template exists, a full compile otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] if (template-less) suite compilation fails.
    pub(crate) fn take_suite<S: Substrate>(
        &mut self,
        substrate: &S,
    ) -> Result<(MonitorSuite, SuiteProvenance), EvalError> {
        let Some(template) = substrate.suite_template() else {
            return Ok((substrate.build_monitors()?, SuiteProvenance::Compiled));
        };
        if let Some((pooled_template, mut suite)) = self.pooled.take() {
            if Arc::ptr_eq(&pooled_template, template) {
                suite.reset();
                return Ok((suite, SuiteProvenance::Reused));
            }
        }
        Ok((template.instantiate(), SuiteProvenance::Instantiated))
    }

    /// Returns a run's scratch state to the pool. The suite is kept only
    /// for template-instantiated runs (`template` is the substrate's
    /// template, if any) — a per-run-compiled suite has no identity to
    /// match the next cell against.
    pub(crate) fn put_back(
        &mut self,
        observed: Frame,
        suite: MonitorSuite,
        template: Option<&Arc<SuiteTemplate>>,
    ) {
        self.observed = Some(observed);
        if let Some(template) = template {
            self.pooled = Some((Arc::clone(template), suite));
        }
    }
}
