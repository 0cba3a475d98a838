//! Lane occupancy tracking for slab-of-lanes engines.
//!
//! Every batched engine in the workspace — [`SimulatorBatch`] state
//! slabs, [`MonitorSuiteBatch`] verdict rows, the serve layer's shard
//! slabs — indexes its per-run storage by a dense *lane* number. Who
//! owns which lane is a separate question, and this module answers it
//! once for both usage shapes:
//!
//! * **static stripes** (the [sweep driver](crate::batch)):
//!   every lane is claimed at stripe setup and released as its run
//!   retires; the stripe's tick loop keys "is this lane still running?"
//!   off the allocator instead of per-lane flags;
//! * **dynamic churn** (`esafe-serve`): streams connect and disconnect
//!   continuously, claiming the lowest free lane and releasing it on
//!   retirement so the slot can be reclaimed by the next connection.
//!
//! [`SimulatorBatch`]: esafe_sim::SimulatorBatch
//! [`MonitorSuiteBatch`]: esafe_monitor::MonitorSuiteBatch

/// A fixed-capacity free-list allocator over lane indices `0..lanes`.
///
/// Claims pop the lowest-numbered free lane (LIFO over an initially
/// ascending free list), so a batch whose occupancy never exceeds `k`
/// touches only lanes `0..k` — keeping hot slab rows dense even under
/// heavy connect/disconnect churn.
///
/// # Example
///
/// ```
/// use esafe_harness::LaneAllocator;
///
/// let mut lanes = LaneAllocator::new(2);
/// let a = lanes.claim().unwrap();
/// let b = lanes.claim().unwrap();
/// assert_eq!((a, b), (0, 1));
/// assert_eq!(lanes.claim(), None, "slab is full");
/// lanes.release(a);
/// assert_eq!(lanes.claim(), Some(0), "freed lanes are reclaimed");
/// ```
#[derive(Debug, Clone)]
pub struct LaneAllocator {
    /// Free lane indices; the next claim pops the back.
    free: Vec<usize>,
    /// `claimed[lane]` — occupancy bitmap for O(1) queries.
    claimed: Vec<bool>,
}

impl LaneAllocator {
    /// Creates an allocator over `lanes` initially-free lanes.
    pub fn new(lanes: usize) -> Self {
        LaneAllocator {
            free: (0..lanes).rev().collect(),
            claimed: vec![false; lanes],
        }
    }

    /// Total number of lanes, claimed or free.
    pub fn lanes(&self) -> usize {
        self.claimed.len()
    }

    /// Number of lanes currently claimed.
    pub fn in_use(&self) -> usize {
        self.claimed.len() - self.free.len()
    }

    /// Number of lanes currently free.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// Claims the lowest-numbered free lane, or `None` when every lane
    /// is in use.
    pub fn claim(&mut self) -> Option<usize> {
        let lane = self.free.pop()?;
        self.claimed[lane] = true;
        Some(lane)
    }

    /// Whether `lane` is currently claimed.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn is_claimed(&self, lane: usize) -> bool {
        self.claimed[lane]
    }

    /// Releases a claimed lane back to the free list.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or not currently claimed —
    /// double-releases corrupt a free list silently, so they are
    /// rejected loudly instead.
    pub fn release(&mut self, lane: usize) {
        assert!(
            std::mem::replace(&mut self.claimed[lane], false),
            "lane {lane} is not claimed"
        );
        self.free.push(lane);
    }

    /// Iterates the currently claimed lanes in ascending order.
    pub fn iter_claimed(&self) -> impl Iterator<Item = usize> + '_ {
        self.claimed
            .iter()
            .enumerate()
            .filter_map(|(l, &c)| c.then_some(l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_ascend_and_fill_the_slab() {
        let mut a = LaneAllocator::new(3);
        assert_eq!(a.lanes(), 3);
        assert_eq!(a.claim(), Some(0));
        assert_eq!(a.claim(), Some(1));
        assert_eq!(a.claim(), Some(2));
        assert_eq!(a.claim(), None);
        assert_eq!((a.in_use(), a.available()), (3, 0));
    }

    #[test]
    fn release_recycles_and_keeps_occupancy_dense() {
        let mut a = LaneAllocator::new(4);
        for _ in 0..3 {
            a.claim();
        }
        a.release(1);
        a.release(0);
        // The most recently freed lane is reclaimed first; lane 3 stays
        // cold until the warm slots run out.
        assert_eq!(a.claim(), Some(0));
        assert_eq!(a.claim(), Some(1));
        assert_eq!(a.claim(), Some(3));
        assert!(a.is_claimed(2));
        assert_eq!(a.iter_claimed().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "not claimed")]
    fn double_release_panics() {
        let mut a = LaneAllocator::new(1);
        a.claim();
        a.release(0);
        a.release(0);
    }

    #[test]
    fn zero_lane_allocator_is_inert() {
        let mut a = LaneAllocator::new(0);
        assert_eq!(a.claim(), None);
        assert_eq!((a.lanes(), a.in_use(), a.available()), (0, 0, 0));
    }
}
