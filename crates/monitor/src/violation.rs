//! Violation intervals: contiguous runs of ticks where a goal was false.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A half-open interval `[start_tick, end_tick)` during which a monitored
/// goal evaluated false.
///
/// The thesis reports violations exactly this way ("vehicle jerk was
/// exceeded six times, for 8, 2, 1, 4, 6, and 1 ms").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ViolationInterval {
    /// First tick at which the goal was false.
    pub start_tick: u64,
    /// First tick at which the goal was true again (or the trace length,
    /// for violations still open at the end of monitoring).
    pub end_tick: u64,
}

impl ViolationInterval {
    /// Creates an interval.
    ///
    /// # Panics
    ///
    /// Panics if `end_tick <= start_tick`.
    pub fn new(start_tick: u64, end_tick: u64) -> Self {
        assert!(end_tick > start_tick, "interval must be non-empty");
        ViolationInterval {
            start_tick,
            end_tick,
        }
    }

    /// Number of ticks the violation lasted.
    pub fn duration_ticks(&self) -> u64 {
        self.end_tick - self.start_tick
    }

    /// Whether this interval intersects `other` when each is widened by
    /// `window` ticks on both sides. The correlation window absorbs the
    /// actuation/communication delays between a subsystem's subgoal
    /// violation and the system-level consequence (thesis §5.1.2).
    pub fn overlaps(&self, other: &ViolationInterval, window: u64) -> bool {
        let a_start = self.start_tick.saturating_sub(window);
        let a_end = self.end_tick.saturating_add(window);
        other.start_tick < a_end && a_start < other.end_tick
    }
}

impl fmt::Display for ViolationInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}, {}) ({} ticks)",
            self.start_tick,
            self.end_tick,
            self.duration_ticks()
        )
    }
}

/// Builds violation intervals from a monitor's verdict *edges*: a
/// true→false edge [opens](IntervalTracker::open_at) one, and a
/// false→true edge [closes](IntervalTracker::close_at) it, as does the
/// end of the run (closing at the run's length).
/// [`MonitorSuiteBatch`](crate::MonitorSuiteBatch) finds the edges by
/// diffing whole verdict words, so a tracker is touched only when its
/// verdict flips.
#[derive(Debug, Clone, Default)]
pub struct IntervalTracker {
    open_since: Option<u64>,
    closed: Vec<ViolationInterval>,
}

impl IntervalTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a violation at an absolute `tick`, the tick of a true→false
    /// edge (no-op if one is already open).
    pub fn open_at(&mut self, tick: u64) {
        if self.open_since.is_none() {
            self.open_since = Some(tick);
        }
    }

    /// Closes the open violation at an absolute `tick` (no-op if none is
    /// open) — the false→true edge counterpart of
    /// [`open_at`](IntervalTracker::open_at), or the end of the run
    /// when `tick` is the run's length.
    pub fn close_at(&mut self, tick: u64) {
        if let Some(start) = self.open_since.take() {
            if tick > start {
                self.closed.push(ViolationInterval::new(start, tick));
            }
        }
    }

    /// The closed violation intervals recorded so far.
    pub fn intervals(&self) -> &[ViolationInterval] {
        &self.closed
    }

    /// Moves the closed intervals out, leaving the tracker recording
    /// (any open violation is untouched) but with an empty interval
    /// list — the drain report assembly uses so no interval is ever
    /// copied.
    pub fn take_intervals(&mut self) -> Vec<ViolationInterval> {
        std::mem::take(&mut self.closed)
    }

    /// Returns the tracker to its initial state in place, keeping the
    /// interval buffer's capacity for reuse across pooled runs.
    pub fn reset(&mut self) {
        self.open_since = None;
        self.closed.clear();
    }

    /// Whether a violation is currently open.
    pub fn in_violation(&self) -> bool {
        self.open_since.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives `t` with the edges of a verdict sequence, as the batch's
    /// recorder does.
    fn feed(t: &mut IntervalTracker, verdicts: &[bool]) {
        let mut prev = true;
        for (tick, &ok) in (0u64..).zip(verdicts) {
            match (prev, ok) {
                (true, false) => t.open_at(tick),
                (false, true) => t.close_at(tick),
                _ => {}
            }
            prev = ok;
        }
    }

    #[test]
    fn tracker_builds_intervals() {
        let mut t = IntervalTracker::new();
        feed(&mut t, &[true, false, false, true, false, true]);
        t.close_at(6);
        assert_eq!(
            t.intervals(),
            &[ViolationInterval::new(1, 3), ViolationInterval::new(4, 5)]
        );
    }

    #[test]
    fn finish_closes_open_interval() {
        let mut t = IntervalTracker::new();
        feed(&mut t, &[true, false, false]);
        assert!(t.in_violation());
        t.close_at(3);
        assert_eq!(t.intervals(), &[ViolationInterval::new(1, 3)]);
        assert!(!t.in_violation());
    }

    #[test]
    fn all_satisfied_gives_no_intervals() {
        let mut t = IntervalTracker::new();
        feed(&mut t, &[true; 5]);
        t.close_at(5);
        assert!(t.intervals().is_empty());
        assert!(!t.in_violation());
    }

    #[test]
    fn overlap_with_window() {
        let a = ViolationInterval::new(10, 12);
        let b = ViolationInterval::new(14, 16);
        // Last violating tick of `a` is 11; first of `b` is 14 — 3 apart.
        assert!(!a.overlaps(&b, 0));
        assert!(!a.overlaps(&b, 2));
        assert!(a.overlaps(&b, 3));
        assert!(b.overlaps(&a, 3)); // symmetric
        let c = ViolationInterval::new(11, 13);
        assert!(a.overlaps(&c, 0));
    }

    #[test]
    fn duration_and_display() {
        let v = ViolationInterval::new(5, 13);
        assert_eq!(v.duration_ticks(), 8);
        assert_eq!(v.to_string(), "[5, 13) (8 ticks)");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_interval_rejected() {
        let _ = ViolationInterval::new(3, 3);
    }
}
