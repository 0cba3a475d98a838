//! Batched simulation: step `B` runs per subsystem through lane-major
//! signal slabs.
//!
//! A [`SimulatorBatch`] keeps a whole stripe's state in two
//! [`FrameBatch`] slabs — one contiguous row per signal × lanes, the same
//! layout [`FusedSuiteBatch`](esafe_logic::FusedSuiteBatch) evaluates
//! monitor nodes in — and each [`BatchSubsystem`] advances **all** lanes
//! in a straight-line lane loop before the next subsystem runs. A
//! [`Simulator`](crate::Simulator) is the one-lane case.
//!
//! Batching is sound because of the kernel's one-tick observation delay:
//! every subsystem reads the frozen previous slab and writes the next
//! one, so lanes never see each other and the per-lane evaluation order
//! inside a subsystem is immaterial. A subsystem is written once, as a
//! [`LaneSubsystem`] against the [`SignalRead`]/[`SignalWrite`] access
//! traits, and [`LaneVec`] runs one private instance per lane over slab
//! lane views. Every lane therefore runs the same step body whatever the
//! stripe's width, so a run's arithmetic (and its floating-point
//! rounding) does not depend on which stripe it ticks in.
//!
//! Retired lanes ([`SimulatorBatch::retire_lane`]) are carried forward
//! frozen by the whole-slab double-buffer memcpy; their per-lane tick
//! counters ([`SimulatorBatch::lane_tick`]) stop, exactly like a run that
//! is no longer stepped.

use crate::SimTime;
use esafe_logic::{FrameBatch, SignalRead, SignalTable, SignalWrite};
use std::sync::Arc;

/// Which lanes of a batch are still advancing. Passed to every
/// [`BatchSubsystem::step_batch`] so subsystems skip retired lanes —
/// their slab rows hold a retired run's frozen final state, and their
/// per-lane internal state must stop advancing.
#[derive(Debug, Clone)]
pub struct LaneMask {
    active: Vec<bool>,
    retired: usize,
}

impl LaneMask {
    fn new(lanes: usize) -> Self {
        LaneMask {
            active: vec![true; lanes],
            retired: 0,
        }
    }

    /// Number of lanes, retired included.
    pub fn lanes(&self) -> usize {
        self.active.len()
    }

    /// Whether `lane` is still advancing.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    #[inline]
    pub fn is_active(&self, lane: usize) -> bool {
        self.active[lane]
    }

    /// Number of lanes still advancing.
    pub fn active_lanes(&self) -> usize {
        self.active.len() - self.retired
    }

    fn retire(&mut self, lane: usize) {
        if std::mem::replace(&mut self.active[lane], false) {
            self.retired += 1;
        }
    }
}

/// A simulated component advancing **all lanes of a stripe at once**:
/// reads the previous tick's slab, writes the next tick's, skipping
/// retired lanes.
pub trait BatchSubsystem {
    /// Display name (used in logs and error messages).
    fn name(&self) -> &str;

    /// Advances one tick for every active lane: read `prev`, write
    /// outputs into `next`. Must not write lanes where
    /// `lanes.is_active(l)` is false — those rows carry a retired run's
    /// frozen final state.
    fn step_batch(
        &mut self,
        t: &SimTime,
        prev: &FrameBatch,
        next: &mut FrameBatch,
        lanes: &LaneMask,
    );
}

/// A simulated component whose step body is generic over signal
/// storage: the one definition every lane of every [`SimulatorBatch`]
/// runs, through [`LaneVec`], whatever the batch's width.
///
/// Subsystems are stepped in registration order, but because every
/// subsystem reads the same previous snapshot, ordering does not leak
/// information within a tick — all inter-subsystem communication takes
/// at least one tick, as in the thesis's state model. Subsystems hold
/// the [`SignalId`](esafe_logic::SignalId)s they read and write,
/// resolved once at construction.
pub trait LaneSubsystem {
    /// Display name (used in logs and error messages).
    fn name(&self) -> &str;

    /// Advances one tick for one run: read `prev`, write outputs into
    /// `next`.
    fn step_lane<R: SignalRead, W: SignalWrite>(&mut self, t: &SimTime, prev: &R, next: &mut W);
}

/// One [`LaneSubsystem`] instance per lane, stepped as a straight-line
/// lane loop: the standard way to register a migrated subsystem with a
/// [`SimulatorBatch`]. Monomorphized per subsystem type — no per-lane
/// virtual dispatch, no per-lane `Frame` copies.
#[derive(Debug)]
pub struct LaneVec<T: LaneSubsystem> {
    subs: Vec<T>,
}

impl<T: LaneSubsystem> LaneVec<T> {
    /// Wraps one pre-built instance per lane.
    ///
    /// # Panics
    ///
    /// Panics if `subs` is empty.
    pub fn new(subs: Vec<T>) -> Self {
        assert!(!subs.is_empty(), "a lane vector needs at least one lane");
        LaneVec { subs }
    }

    /// Builds `lanes` instances from a per-lane constructor.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn from_fn(lanes: usize, f: impl FnMut(usize) -> T) -> Self {
        Self::new((0..lanes).map(f).collect())
    }
}

impl<T: LaneSubsystem> BatchSubsystem for LaneVec<T> {
    fn name(&self) -> &str {
        LaneSubsystem::name(&self.subs[0])
    }

    fn step_batch(
        &mut self,
        t: &SimTime,
        prev: &FrameBatch,
        next: &mut FrameBatch,
        lanes: &LaneMask,
    ) {
        debug_assert_eq!(self.subs.len(), lanes.lanes(), "one instance per lane");
        for (l, sub) in self.subs.iter_mut().enumerate() {
            if lanes.is_active(l) {
                sub.step_lane(t, &prev.lane(l), &mut next.lane_mut(l));
            }
        }
    }
}

/// The batched fixed-step simulator: a registered [`BatchSubsystem`]
/// list over a double-buffered pair of [`FrameBatch`] slabs. See the
/// [module docs](self).
pub struct SimulatorBatch {
    subsystems: Vec<Box<dyn BatchSubsystem>>,
    /// The current (front) slab.
    state: FrameBatch,
    /// The scratch (back) slab the next tick is composed into.
    scratch: FrameBatch,
    /// Per-lane tick counts; a lane's counter freezes at retirement, so
    /// it always equals the tick count of the same run stepped alone
    /// and stopped at the same moment.
    ticks: Vec<u64>,
    /// Global tick count (== every active lane's tick count).
    tick: u64,
    dt_millis: u64,
    mask: LaneMask,
}

impl SimulatorBatch {
    /// Creates a batch of `lanes` runs with the given tick period over
    /// the given signal namespace.
    ///
    /// # Panics
    ///
    /// Panics if `dt_millis` or `lanes` is zero.
    pub fn new(dt_millis: u64, table: &Arc<SignalTable>, lanes: usize) -> Self {
        assert!(dt_millis > 0, "tick period must be positive");
        SimulatorBatch {
            subsystems: Vec::new(),
            state: FrameBatch::new(table, lanes),
            scratch: FrameBatch::new(table, lanes),
            ticks: vec![0; lanes],
            tick: 0,
            dt_millis,
            mask: LaneMask::new(lanes),
        }
    }

    /// The shared signal namespace.
    pub fn table(&self) -> &Arc<SignalTable> {
        self.state.table()
    }

    /// Number of lanes (runs), retired included.
    pub fn lanes(&self) -> usize {
        self.mask.lanes()
    }

    /// Registers a batched subsystem (stepped in registration order).
    pub fn add(&mut self, s: impl BatchSubsystem + 'static) {
        self.subsystems.push(Box::new(s));
    }

    /// Seeds one lane's initial state in place: the lane is cleared to
    /// all-unset, then `seed` writes into it.
    pub fn init_lane_with(&mut self, lane: usize, seed: impl FnOnce(&mut esafe_logic::LaneMut)) {
        self.state.clear_lane(lane);
        seed(&mut self.state.lane_mut(lane));
        self.ticks[lane] = 0;
    }

    /// Global tick count (== every active lane's tick count).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// `lane`'s tick count — frozen at its retirement tick, exactly like
    /// a run that stopped being stepped.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane_tick(&self, lane: usize) -> u64 {
        self.ticks[lane]
    }

    /// `lane`'s simulated time in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane_seconds(&self, lane: usize) -> f64 {
        (self.ticks[lane] * self.dt_millis) as f64 / 1000.0
    }

    /// Tick period in milliseconds.
    pub fn dt_millis(&self) -> u64 {
        self.dt_millis
    }

    /// Whether `lane` is still advancing.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn is_active(&self, lane: usize) -> bool {
        self.mask.is_active(lane)
    }

    /// Number of lanes still advancing.
    pub fn active_lanes(&self) -> usize {
        self.mask.active_lanes()
    }

    /// Freezes a lane: subsequent steps carry its current state forward
    /// untouched and its tick counter stops. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn retire_lane(&mut self, lane: usize) {
        self.mask.retire(lane);
    }

    /// The current state slab.
    pub fn state(&self) -> &FrameBatch {
        &self.state
    }

    /// Mutable access to the current state slab — for observation-time
    /// derived-signal writes (probes) that subsystems never read.
    pub fn state_mut(&mut self) -> &mut FrameBatch {
        &mut self.state
    }

    /// Advances every active lane one tick and returns the new state
    /// slab. The double-buffer refresh is one whole-slab memcpy (which
    /// is also what carries retired lanes forward frozen); nothing on
    /// this path allocates.
    pub fn step(&mut self) -> &FrameBatch {
        let t = SimTime {
            tick: self.tick + 1,
            dt_millis: self.dt_millis,
        };
        self.scratch.copy_from(&self.state);
        for s in &mut self.subsystems {
            s.step_batch(&t, &self.state, &mut self.scratch, &self.mask);
        }
        std::mem::swap(&mut self.state, &mut self.scratch);
        self.tick += 1;
        for (tick, &active) in self.ticks.iter_mut().zip(&self.mask.active) {
            *tick += u64::from(active);
        }
        &self.state
    }
}

impl std::fmt::Debug for SimulatorBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulatorBatch")
            .field("tick", &self.tick)
            .field("dt_millis", &self.dt_millis)
            .field("lanes", &self.lanes())
            .field("active", &self.active_lanes())
            .field(
                "subsystems",
                &self.subsystems.iter().map(|s| s.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}
