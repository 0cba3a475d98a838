//! The shard core: dynamic lane churn and suite lifecycle over one
//! [`MonitorSuiteBatch`], deterministic and thread-free.
//!
//! A shard owns every stream of one [`SignalTable`] family. Its state
//! machine is synchronous — [`ShardCore::wave`] advances each live
//! stream by at most one frame, **never blocking** on any of them — so
//! the service's worker thread is a thin loop around it, and property
//! tests drive the identical code deterministically.
//!
//! # Loss-proof waves
//!
//! A wave polls every bound stream once and carries exactly the lanes
//! that delivered a frame (a masked
//! [`MonitorSuiteBatch::observe_slab_masked`] pass per generation).
//! Misbehaving constituents degrade only themselves:
//!
//! * a **starved** lane (source answered `Pending`) is skipped with its
//!   monitor history untouched; its stall clock counts consecutive
//!   frameless waves and, past [`ShardConfig::stall_limit`], the stream
//!   is evicted with provenance and the lane reclaimed;
//! * a **corrupt** stream (transport decode failure, or a frame that
//!   leaves unset a signal its suite generation reads) is quarantined:
//!   evicted with the diagnosis, no other lane perturbed;
//! * an **ended** stream retires its lane in place, as always.
//!
//! # Lanes
//!
//! Streams map onto monitor lanes through the harness's
//! [`LaneAllocator`]: a connecting stream claims a free lane and the
//! lane's monitors restart from the initial state
//! ([`MonitorSuiteBatch::reclaim_lane`]); a disconnecting stream
//! retires its lane in place ([`MonitorSuiteBatch::retire_lane`]) and
//! the slot is immediately reusable. Connections beyond the shard
//! width queue and are admitted as lanes free up.
//!
//! # Suite lifecycle
//!
//! Monitor suites are managed through the composite-component
//! lifecycle `load → activate → drain → deactivate → unload`:
//! [`ShardCore::new`]/[`ShardCore::load_suite`] *load* a generation
//! (instantiate its batch with every lane parked) and *activate* it
//! (new connections land on it); a later `load_suite` moves the
//! previous generation to *draining* — it keeps monitoring the streams
//! already on it, takes no new ones, and is *deactivated and unloaded*
//! (dropped, with a [`ReportEvent::SuiteUnloaded`]) the moment its
//! last stream closes. A suite is therefore hot-swappable on a running
//! shard without dropping a single stream, and every verdict is
//! attributed to the generation that produced it.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::report::{
    EvictReason, ReportEvent, ShardId, StreamEviction, StreamId, StreamSummary, StreamViolations,
    ViolationReport,
};
use crate::source::{Poll, StreamSource};
use esafe_harness::LaneAllocator;
use esafe_logic::{Frame, FrameBatch, SignalTable};
use esafe_monitor::{BatchMonitorError, MonitorSuiteBatch, SuiteTemplate};
use std::collections::VecDeque;
use std::sync::Arc;

/// Per-shard robustness knobs, shared by [`ShardCore::new`] and the
/// service's worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Lane count — the maximum concurrent streams; further connections
    /// queue.
    pub width: usize,
    /// Periodic violation-drain cadence, in waves per report pass.
    pub report_every: u64,
    /// Stall deadline: a bound stream that answers
    /// [`Poll::Pending`] for this many
    /// *consecutive* waves is evicted
    /// ([`ReportEvent::StreamEvicted`] with
    /// [`EvictReason::Stalled`]) and its lane reclaimed. `None` disables
    /// eviction: a starved lane is still skipped every wave (it can
    /// never stall the shard), it just stays bound forever.
    pub stall_limit: Option<u64>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            width: 1024,
            report_every: 32,
            stall_limit: None,
        }
    }
}

/// One loaded suite generation: its batch plus the count of lanes it
/// still monitors.
#[derive(Debug)]
struct SuiteSlot {
    generation: u64,
    batch: MonitorSuiteBatch,
    occupied: usize,
}

impl SuiteSlot {
    fn load(template: &SuiteTemplate, lanes: usize, generation: u64) -> Self {
        let mut batch = template.instantiate_batch(lanes);
        // Park every lane: a service lane observes nothing until a
        // stream claims (reclaims) it.
        batch.finish();
        batch.set_generation(generation);
        SuiteSlot {
            generation,
            batch,
            occupied: 0,
        }
    }
}

/// A stream bound to a lane: its identity, its frame source, the suite
/// generation monitoring it, and its stall clock.
struct LaneStream {
    id: StreamId,
    source: Box<dyn StreamSource>,
    generation: u64,
    /// Consecutive waves the source has answered `Pending`; reset to 0
    /// by every delivered frame.
    stalled_waves: u64,
}

impl std::fmt::Debug for LaneStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaneStream")
            .field("id", &self.id)
            .field("generation", &self.generation)
            .field("stalled_waves", &self.stalled_waves)
            .finish_non_exhaustive()
    }
}

/// A connection waiting for a free lane.
struct PendingStream {
    id: StreamId,
    source: Box<dyn StreamSource>,
}

/// The synchronous heart of one shard: lane allocation, stream pull,
/// batched observation, suite generations, and violation reporting.
///
/// [`wave`](ShardCore::wave) is the only advancing call; everything
/// else mutates configuration. Emitted [`ReportEvent`]s accumulate
/// internally and are drained with [`take_events`](ShardCore::take_events).
pub struct ShardCore {
    shard: ShardId,
    table: Arc<SignalTable>,
    lanes: LaneAllocator,
    slab: FrameBatch,
    scratch: Frame,
    streams: Vec<Option<LaneStream>>,
    active: SuiteSlot,
    draining: Vec<SuiteSlot>,
    next_generation: u64,
    pending: VecDeque<PendingStream>,
    report_every: u64,
    stall_limit: Option<u64>,
    /// Reusable per-wave liveness mask: `live[lane]` is true iff the
    /// lane's stream delivered a frame this wave.
    live: Vec<bool>,
    waves: u64,
    events: Vec<ReportEvent>,
}

impl std::fmt::Debug for ShardCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardCore")
            .field("shard", &self.shard)
            .field("width", &self.lanes.lanes())
            .field("occupied", &self.lanes.in_use())
            .field("generation", &self.active.generation)
            .field("draining", &self.draining.len())
            .finish_non_exhaustive()
    }
}

impl ShardCore {
    /// Loads and activates generation 0 of `template` over
    /// `config.width` lanes, with `config.report_every` as the periodic
    /// violation-drain cadence in waves (1 = report closed intervals
    /// every wave) and `config.stall_limit` as the eviction deadline.
    ///
    /// # Panics
    ///
    /// Panics if `config.width`, `config.report_every`, or a provided
    /// `config.stall_limit` is zero.
    pub fn new(shard: ShardId, template: &SuiteTemplate, config: ShardConfig) -> Self {
        assert!(config.width > 0, "a shard needs at least one lane");
        assert!(
            config.report_every > 0,
            "the report cadence must be nonzero"
        );
        assert!(
            config.stall_limit != Some(0),
            "a zero stall deadline would evict every stream instantly"
        );
        let width = config.width;
        let table = template.table().clone();
        ShardCore {
            shard,
            lanes: LaneAllocator::new(width),
            slab: FrameBatch::new(&table, width),
            scratch: table.frame(),
            streams: (0..width).map(|_| None).collect(),
            active: SuiteSlot::load(template, width, 0),
            draining: Vec::new(),
            next_generation: 1,
            pending: VecDeque::new(),
            report_every: config.report_every,
            stall_limit: config.stall_limit,
            live: vec![false; width],
            waves: 0,
            events: Vec::new(),
            table,
        }
    }

    /// This shard's id.
    pub fn id(&self) -> ShardId {
        self.shard
    }

    /// Renumbers the freshly built core so its generations continue
    /// from `first` instead of 0 — the service's supervisor uses this
    /// after a restart so generation numbers are never reused across
    /// core incarnations and verdict provenance stays unambiguous.
    ///
    /// # Panics
    ///
    /// Panics if any stream has already connected or a suite swap has
    /// already happened: renumbering is only sound on a pristine core.
    pub fn set_first_generation(&mut self, first: u64) {
        assert!(
            self.lanes.in_use() == 0 && self.pending.is_empty() && self.draining.is_empty(),
            "generations renumber only on a pristine core"
        );
        self.active.generation = first;
        self.active.batch.set_generation(first);
        self.next_generation = first + 1;
    }

    /// The signal-table family this shard serves.
    pub fn table(&self) -> &Arc<SignalTable> {
        &self.table
    }

    /// The shard's lane width (maximum concurrent streams).
    pub fn width(&self) -> usize {
        self.lanes.lanes()
    }

    /// Streams currently bound to lanes.
    pub fn occupied(&self) -> usize {
        self.lanes.in_use()
    }

    /// Connections still waiting for a lane.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// The generation new connections land on.
    pub fn active_generation(&self) -> u64 {
        self.active.generation
    }

    /// Generations still draining (monitoring pre-swap streams).
    pub fn draining_generations(&self) -> Vec<u64> {
        self.draining.iter().map(|s| s.generation).collect()
    }

    /// Whether the shard has nothing to do: no bound streams and no
    /// queued connections. An idle shard's [`wave`](ShardCore::wave) is
    /// a no-op, so a worker can park until the next control message.
    pub fn is_idle(&self) -> bool {
        self.lanes.in_use() == 0 && self.pending.is_empty()
    }

    /// Hot-swaps the monitor suite: the current generation moves to
    /// draining (or unloads at once if no stream is on it) and the new
    /// template is loaded and activated as the next generation. Streams
    /// already connected are unaffected — their verdicts keep flowing
    /// from the generation they connected under.
    ///
    /// # Panics
    ///
    /// Panics if `template` is compiled against a different signal
    /// table than this shard serves.
    pub fn load_suite(&mut self, template: &SuiteTemplate) {
        assert!(
            Arc::ptr_eq(template.table(), &self.table),
            "a shard serves exactly one signal-table family"
        );
        let generation = self.next_generation;
        self.next_generation += 1;
        let fresh = SuiteSlot::load(template, self.lanes.lanes(), generation);
        let old = std::mem::replace(&mut self.active, fresh);
        if old.occupied == 0 {
            self.events.push(ReportEvent::SuiteUnloaded {
                shard: self.shard,
                generation: old.generation,
            });
        } else {
            self.draining.push(old);
        }
    }

    /// Connects a stream: it claims a free lane right away — binding it
    /// to the currently active suite generation, so connects and
    /// [`load_suite`](ShardCore::load_suite) calls take effect in call
    /// order — or queues until a running stream closes (and is then
    /// admitted under the generation active at admission).
    pub fn connect(&mut self, id: StreamId, source: Box<dyn StreamSource>) {
        self.pending.push_back(PendingStream { id, source });
        self.admit_pending();
    }

    /// Advances the shard by one lockstep wave: admits queued
    /// connections onto free lanes, polls one frame per bound stream —
    /// **without blocking** — and runs one *masked* batched observe
    /// pass per generation carrying exactly the lanes that delivered a
    /// frame. Streams that answered
    /// [`Poll::Pending`] are skipped (and
    /// evicted once their stall streak passes the configured deadline),
    /// streams that ended are retired, and streams that answered
    /// [`Poll::Corrupt`] or delivered a frame leaving unset a signal
    /// their generation reads ([`MonitorSuiteBatch::reads`]) are
    /// quarantined — all without perturbing any other lane's verdicts.
    /// Every `report_every` waves the newly closed violation intervals
    /// drain into [`ReportEvent::Violations`]. Returns the number of frames
    /// observed (0 when the shard is empty or every stream is pending —
    /// the caller may briefly park before the next wave).
    ///
    /// # Errors
    ///
    /// A monitor evaluation error is fatal for this core, exactly as it
    /// is for a scalar suite: the caller should report it and rebuild
    /// (the service's supervisor restarts the shard).
    pub fn wave(&mut self) -> Result<usize, BatchMonitorError> {
        self.admit_pending();
        if self.lanes.in_use() == 0 {
            return Ok(0);
        }
        let width = self.lanes.lanes();
        self.live[..width].fill(false);
        let mut pulled = 0usize;
        for lane in 0..width {
            let Some(stream) = self.streams[lane].as_mut() else {
                continue;
            };
            match stream.source.poll_frame(&mut self.scratch) {
                Poll::Frame => {
                    stream.stalled_waves = 0;
                    let generation = stream.generation;
                    let unset = self
                        .slot(generation)
                        .batch
                        .reads()
                        .iter()
                        .copied()
                        .find(|&id| self.scratch.get(id).is_none());
                    if let Some(id) = unset {
                        let detail = format!(
                            "frame leaves unset signal `{}`, which the suite reads",
                            self.table.name(id)
                        );
                        self.evict(lane, EvictReason::Corrupt { detail });
                        continue;
                    }
                    self.slab.write_lane_from(lane, &self.scratch);
                    self.live[lane] = true;
                    pulled += 1;
                }
                Poll::Pending => {
                    stream.stalled_waves += 1;
                    if let Some(limit) = self.stall_limit {
                        if stream.stalled_waves >= limit {
                            let waves = stream.stalled_waves;
                            self.evict(lane, EvictReason::Stalled { waves });
                        }
                    }
                }
                Poll::End => self.retire(lane),
                Poll::Corrupt(detail) => {
                    self.evict(lane, EvictReason::Corrupt { detail });
                }
            }
        }
        if pulled == 0 {
            return Ok(0);
        }
        if self.active.occupied > 0 {
            self.active
                .batch
                .observe_slab_masked(&self.slab, &self.live)?;
        }
        for slot in &mut self.draining {
            if slot.occupied > 0 {
                slot.batch.observe_slab_masked(&self.slab, &self.live)?;
            }
        }
        self.waves += 1;
        if self.waves.is_multiple_of(self.report_every) {
            self.drain_live_violations();
        }
        Ok(pulled)
    }

    /// Closes down the shard: every bound stream is retired and
    /// summarized, queued connections are closed unobserved (a
    /// [`StreamSummary`] with zero ticks), and every generation —
    /// draining and active — is unloaded.
    pub fn shutdown(&mut self) {
        for lane in 0..self.lanes.lanes() {
            if self.streams[lane].is_some() {
                self.retire(lane);
            }
        }
        while let Some(pending) = self.pending.pop_front() {
            self.events.push(ReportEvent::StreamClosed(StreamSummary {
                stream: pending.id,
                shard: self.shard,
                generation: self.active.generation,
                ticks: 0,
                violations: Vec::new(),
            }));
        }
        // Retiring the last stream of each draining generation already
        // unloaded it; the active generation unloads here.
        debug_assert!(self.draining.is_empty());
        self.events.push(ReportEvent::SuiteUnloaded {
            shard: self.shard,
            generation: self.active.generation,
        });
    }

    /// Drains the events emitted since the previous call, in order.
    pub fn take_events(&mut self) -> Vec<ReportEvent> {
        std::mem::take(&mut self.events)
    }

    /// Binds queued connections to free lanes, oldest first.
    fn admit_pending(&mut self) {
        while let Some(pending) = self.pending.pop_front() {
            let Some(lane) = self.lanes.claim() else {
                self.pending.push_front(pending);
                break;
            };
            self.active.batch.reclaim_lane(lane);
            self.active.occupied += 1;
            self.streams[lane] = Some(LaneStream {
                id: pending.id,
                source: pending.source,
                generation: self.active.generation,
                stalled_waves: 0,
            });
        }
    }

    /// Ends the stream on `lane` cleanly: closes out the lane and emits
    /// the stream's [`StreamSummary`]. An unbound lane has nothing to
    /// end.
    fn retire(&mut self, lane: usize) {
        let Some((stream, ticks, violations)) = self.close_lane(lane) else {
            return;
        };
        self.events.push(ReportEvent::StreamClosed(StreamSummary {
            stream: stream.id,
            shard: self.shard,
            generation: stream.generation,
            ticks,
            violations,
        }));
        self.unload_if_drained(stream.generation);
    }

    /// Forcibly removes the stream on `lane` — stalled past the
    /// deadline or quarantined as corrupt — closing out the lane
    /// exactly like a clean end (open intervals close at the last
    /// observed tick) but emitting [`ReportEvent::StreamEvicted`] with
    /// the reason as provenance. Dropping the boxed source closes the
    /// transport, so the producer observes the eviction as a
    /// disconnect. An unbound lane has nothing to evict.
    fn evict(&mut self, lane: usize, reason: EvictReason) {
        let Some((stream, ticks, violations)) = self.close_lane(lane) else {
            return;
        };
        self.events.push(ReportEvent::StreamEvicted(StreamEviction {
            stream: stream.id,
            shard: self.shard,
            generation: stream.generation,
            ticks,
            violations,
            reason,
        }));
        self.unload_if_drained(stream.generation);
    }

    /// The shared lane close-out: retires the lane in its generation's
    /// batch (closing open intervals at the stream's true end), drains
    /// its violations, and releases the lane for reuse. Returns the
    /// unbound stream and its final record. Callers close bound lanes
    /// only; debug builds check it, and release builds return `None`
    /// for an unbound lane.
    fn close_lane(&mut self, lane: usize) -> Option<(LaneStream, u64, StreamViolations)> {
        debug_assert!(self.streams[lane].is_some(), "lane {lane} closed unbound");
        let stream = self.streams[lane].take()?;
        let slot = self.slot_mut(stream.generation);
        slot.batch.retire_lane(lane);
        let ticks = slot.batch.steps_observed(lane);
        let violations = slot.batch.take_violations_lane(lane);
        slot.occupied -= 1;
        self.lanes.release(lane);
        Some((stream, ticks, violations))
    }

    /// Unloads `generation` if it is draining and its last stream just
    /// closed.
    fn unload_if_drained(&mut self, generation: u64) {
        if generation == self.active.generation {
            return;
        }
        let idx = self
            .draining
            .iter()
            .position(|s| s.generation == generation);
        debug_assert!(idx.is_some(), "generation {generation} is not draining");
        let Some(idx) = idx else {
            return;
        };
        if self.draining[idx].occupied == 0 {
            self.draining.remove(idx);
            self.events.push(ReportEvent::SuiteUnloaded {
                shard: self.shard,
                generation,
            });
        }
    }

    /// Emits the newly closed violation intervals of every live stream.
    fn drain_live_violations(&mut self) {
        for lane in 0..self.lanes.lanes() {
            let Some(stream) = self.streams[lane].as_ref() else {
                continue;
            };
            let (id, generation) = (stream.id, stream.generation);
            let shard = self.shard;
            let slot = self.slot_mut(generation);
            let violations = slot.batch.take_violations_lane(lane);
            if !violations.is_empty() {
                self.events.push(ReportEvent::Violations(ViolationReport {
                    stream: id,
                    shard,
                    generation,
                    violations,
                }));
            }
        }
    }

    /// The slot monitoring `generation`: the active one or a draining
    /// one. A stream binds only to the active generation, and a
    /// generation leaves the draining set only once no stream is bound
    /// to it, so every bound stream's generation is one of the two;
    /// debug builds check it, release builds fall back to the active
    /// slot.
    fn slot(&self, generation: u64) -> &SuiteSlot {
        if self.active.generation == generation {
            return &self.active;
        }
        let draining = self.draining.iter().find(|s| s.generation == generation);
        debug_assert!(draining.is_some(), "generation {generation} is not loaded");
        draining.unwrap_or(&self.active)
    }

    /// [`slot`](Self::slot), mutably.
    fn slot_mut(&mut self, generation: u64) -> &mut SuiteSlot {
        if self.active.generation == generation {
            return &mut self.active;
        }
        let draining = self
            .draining
            .iter_mut()
            .find(|s| s.generation == generation);
        debug_assert!(draining.is_some(), "generation {generation} is not loaded");
        draining.unwrap_or(&mut self.active)
    }
}
