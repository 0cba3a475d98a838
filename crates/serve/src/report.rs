//! Violation reporting: the typed events a service emits on its
//! bounded report channel, each carrying per-stream provenance (stream
//! id, suite generation, stream-local tick intervals).

use esafe_monitor::ViolationInterval;

/// A service-assigned stream identity, unique for the service's
/// lifetime and carried on every report about the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(pub u64);

impl std::fmt::Display for StreamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stream-{}", self.0)
    }
}

/// A shard's index within its service — one shard per
/// [`SignalTable`](esafe_logic::SignalTable) family, one worker thread
/// per shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub usize);

impl std::fmt::Display for ShardId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard-{}", self.0)
    }
}

/// Per-monitor violation intervals, `(monitor id, intervals)` in suite
/// insertion order, ticks counted from the stream's own first frame.
pub type StreamViolations = Vec<(String, Vec<ViolationInterval>)>;

/// A live stream's violations drained mid-run (periodic report). Only
/// *closed* intervals are reported here; an interval still open stays
/// with the monitor and is delivered closed — by a later drain or by
/// the stream's [`StreamSummary`]. Aggregate by [`StreamId`] for a
/// stream's complete record.
#[derive(Debug, Clone, PartialEq)]
pub struct ViolationReport {
    /// The violating stream.
    pub stream: StreamId,
    /// The shard that monitored it.
    pub shard: ShardId,
    /// The suite generation whose monitors produced the verdicts.
    pub generation: u64,
    /// The newly closed violation intervals, in stream-local ticks.
    pub violations: StreamViolations,
}

/// Why the service forcibly removed a stream (see
/// [`ReportEvent::StreamEvicted`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvictReason {
    /// The stream answered `Pending` for more consecutive waves than
    /// the shard's configured stall deadline
    /// ([`stall_limit`](crate::shard::ShardConfig::stall_limit)): the
    /// producer stalled (or maliciously went quiet) while the wave
    /// front moved on, and its lane was reclaimed.
    Stalled {
        /// Consecutive frameless waves at eviction — at least the
        /// configured deadline.
        waves: u64,
    },
    /// The stream's transport yielded undecodable data
    /// ([`Poll::Corrupt`](crate::source::Poll::Corrupt)), or a frame
    /// that leaves unset a signal the stream's suite reads; the detail
    /// is the diagnosis. The stream is quarantined — removed
    /// with its verdicts-so-far — and every other stream on the shard
    /// is untouched.
    Corrupt {
        /// The transport's description of what failed to decode.
        detail: String,
    },
    /// The shard's worker panicked mid-wave and was restarted by the
    /// supervisor. In-flight streams are lost (their `ticks` and
    /// violation records went down with the panicked core), reported
    /// with zero ticks so the loss is visible, and their producers see
    /// a closed transport. New connects keep landing on the restarted
    /// shard.
    ShardRestart,
}

impl std::fmt::Display for EvictReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvictReason::Stalled { waves } => {
                write!(f, "stalled for {waves} consecutive waves")
            }
            EvictReason::Corrupt { detail } => write!(f, "corrupt stream: {detail}"),
            EvictReason::ShardRestart => write!(f, "lost to a shard restart"),
        }
    }
}

/// A stream the service removed without a clean end-of-stream from its
/// source: stalled past the deadline, quarantined as corrupt, or lost
/// to a shard restart. Carries the same provenance as a
/// [`StreamSummary`] plus the reason.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamEviction {
    /// The evicted stream.
    pub stream: StreamId,
    /// The shard that was monitoring it.
    pub shard: ShardId,
    /// The suite generation the stream ran under.
    pub generation: u64,
    /// Frames observed before eviction (0 for
    /// [`EvictReason::ShardRestart`], whose core state is gone).
    pub ticks: u64,
    /// Violations recorded up to the eviction point and not yet
    /// delivered by a periodic drain; open intervals are closed at the
    /// last observed tick.
    pub violations: StreamViolations,
    /// Why the stream was removed.
    pub reason: EvictReason,
}

/// A stream's end-of-run record, emitted exactly once per connected
/// stream when its source ends (or the service shuts down).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSummary {
    /// The finished stream.
    pub stream: StreamId,
    /// The shard that monitored it.
    pub shard: ShardId,
    /// The suite generation the stream ran under (streams never migrate
    /// between generations — a hot swap only affects later connections).
    pub generation: u64,
    /// Frames observed over the stream's lifetime.
    pub ticks: u64,
    /// Violations not yet delivered by a periodic [`ViolationReport`];
    /// open intervals are closed at the stream's final tick.
    pub violations: StreamViolations,
}

/// One event on the service's bounded report channel.
#[derive(Debug, Clone, PartialEq)]
pub enum ReportEvent {
    /// A live stream's periodic violation drain (non-empty by
    /// construction).
    Violations(ViolationReport),
    /// A stream finished; its lane is reclaimable.
    StreamClosed(StreamSummary),
    /// A stream was forcibly removed — stalled past the deadline,
    /// quarantined as corrupt, or lost to a shard restart. Emitted
    /// exactly once per evicted stream, *instead of*
    /// [`StreamClosed`](ReportEvent::StreamClosed).
    StreamEvicted(StreamEviction),
    /// The shard dropped `dropped` report events because the report
    /// channel was full and the service runs the
    /// [`DropAndCount`](crate::service::ReportOverflow::DropAndCount)
    /// overflow policy. Consecutive drops coalesce into one event, so a
    /// slow consumer sees how much it missed without ever stalling the
    /// shard.
    ReportsDropped {
        /// The shard that had to drop.
        shard: ShardId,
        /// Events dropped since the last `ReportsDropped` that got
        /// through.
        dropped: u64,
    },
    /// A panicked (or evaluation-failed) shard worker was rebuilt by
    /// its supervisor with the surviving suite configuration. Emitted
    /// after the corresponding
    /// [`ShardStopped`](ReportEvent::ShardStopped) `{error: Some(..)}`
    /// and the per-stream
    /// [`StreamEvicted`](ReportEvent::StreamEvicted)
    /// `{reason: ShardRestart}` records: the shard is degraded — those
    /// streams' verdicts are gone — but never dead, and new connects
    /// keep landing.
    ShardRestarted {
        /// The restarted shard.
        shard: ShardId,
        /// Streams (bound and queued) lost with the previous core.
        streams_lost: usize,
    },
    /// A drained suite generation left its shard: every stream it was
    /// monitoring has closed, completing the
    /// `load → activate → drain → deactivate → unload` lifecycle.
    SuiteUnloaded {
        /// The shard the suite ran on.
        shard: ShardId,
        /// The unloaded suite's generation.
        generation: u64,
    },
    /// A shard worker's core stopped — cleanly on shutdown
    /// (`error: None`), or on a wave panic / monitor evaluation error
    /// (`error: Some`). An erroring stop is followed by a
    /// [`ShardRestarted`](ReportEvent::ShardRestarted): the supervisor
    /// rebuilds the core and keeps serving.
    ShardStopped {
        /// The stopped shard.
        shard: ShardId,
        /// The fatal error, if the stop was not a requested shutdown.
        error: Option<String>,
    },
}
