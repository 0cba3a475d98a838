//! The `serve` workload: a fleet of wire-encoded elevator streams through
//! one `MonitorService` shard worker, reports consumed on the main
//! thread.
//!
//! Every stream replays, from a seeded offset, one trace recorded from
//! an elevator run with `drive_ignores_door` (the thesis's hit case: the
//! door goal and the DriveCtl subgoal both fire, so violations recur and
//! the report path carries traffic). Frames are encoded once at set-up
//! with `tcp::write_frame` and decoded on every poll with
//! `tcp::decode_payload` inside the benchmark's [`WireSource`].

use crate::stats::{median, quantile, tail, throughput, SplitMix};
use crate::trace::{self, Laps, Layer};
use crate::{
    repeat_for, same_work, timed_setup, Args, Outcome, CLOSURE_MIN_PAIRS, MIN_PASSES,
    TRACE_MIN_PASSES,
};
use esafe_elevator::faults::ElevatorFaults;
use esafe_elevator::{build_elevator, ElevatorFamily};
use esafe_harness::LaneAllocator;
use esafe_logic::{Frame, FrameBatch};
use esafe_monitor::ViolationInterval;
use esafe_serve::{
    tcp, EvictReason, MonitorService, Poll, ReportEvent, ServiceConfig, ShardConfig, ShardCore,
    ShardId, StreamId, StreamSource, StreamViolations,
};
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TryRecvError};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Ticks of the recorded elevator trace the fleet replays.
const TRACE_TICKS: usize = 2048;
/// Streams held live at once: the shard's lane count, as in
/// `repro --serve-bench` (`BENCH_serve.json`).
const LANES: usize = 1000;
/// Streams launched per pass (each close is replaced until then), as in
/// `repro --serve-bench`.
const STREAMS: usize = 2000;
/// Frames each stream replays: seeded, uniform over this range, so the
/// mean is serve-bench's 400 while closes and replacements spread over
/// the pass instead of arriving in bursts of a whole fleet.
const STREAM_TICKS: std::ops::Range<u64> = 200..601;
/// Waves between periodic violation drains, as in `repro --serve-bench`.
const REPORT_EVERY: u64 = 64;
/// Report channel capacity, as in `repro --serve-bench`.
const REPORT_CAPACITY: usize = 4096;

/// A pass's shard width and how many streams it launches (the first
/// ones of the fleet).
#[derive(Debug, Clone, Copy)]
struct Shape {
    lanes: usize,
    streams: usize,
}

/// The workload's passes: the whole fleet.
const FLEET: Shape = Shape {
    lanes: LANES,
    streams: STREAMS,
};

/// The closure check's short passes: an eighth of the fleet.
const SLICE: Shape = Shape {
    lanes: LANES / 8,
    streams: STREAMS / 8,
};
/// Shard waves between the twin's timed waves.
const TWIN_SAMPLE: u64 = 13;
/// Seed of the recorded elevator run's passenger traffic.
const TRACE_SEED: u64 = 7;

/// Per-monitor intervals of one stream, keyed by monitor id.
type Verdicts = BTreeMap<String, Vec<ViolationInterval>>;

/// The encoded trace: one wire message per frame.
struct WireTrace {
    bytes: Vec<u8>,
    payloads: Vec<std::ops::Range<usize>>,
}

/// One stream of the fleet: where it starts in the trace and how many
/// frames it replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Stream {
    offset: usize,
    ticks: u64,
}

/// Everything set-up builds: the suite, the trace, its wire encoding and
/// the seeded streams.
struct Fleet {
    family: ElevatorFamily,
    frames: Vec<Frame>,
    wire: Arc<WireTrace>,
    streams: Vec<Stream>,
}

fn build_fleet(seed: u64) -> Result<Fleet, String> {
    let family = ElevatorFamily::default();
    let faults = ElevatorFaults {
        drive_ignores_door: true,
        ..ElevatorFaults::none()
    };
    let mut sim = build_elevator(
        *family.params(),
        faults,
        TRACE_SEED,
        family.table(),
        family.sigs(),
    );
    let mut frames = Vec::with_capacity(TRACE_TICKS);
    for _ in 0..TRACE_TICKS {
        sim.step();
        frames.push(sim.state().clone());
    }
    let mut bytes = Vec::new();
    let mut payloads = Vec::with_capacity(TRACE_TICKS);
    for frame in &frames {
        let start = bytes.len() + 4;
        tcp::write_frame(&mut bytes, frame).map_err(|e| format!("wire encode failed: {e}"))?;
        payloads.push(start..bytes.len());
    }
    let mut rng = SplitMix::new(seed, 0x7365_7276);
    let span = (STREAM_TICKS.end - STREAM_TICKS.start) as usize;
    let streams = (0..STREAMS)
        .map(|_| Stream {
            offset: rng.below(TRACE_TICKS),
            ticks: STREAM_TICKS.start + rng.below(span) as u64,
        })
        .collect();
    Ok(Fleet {
        family,
        frames,
        wire: Arc::new(WireTrace { bytes, payloads }),
        streams,
    })
}

/// A stream's reference verdicts and the ticks whose pull closes one of
/// its intervals.
struct Reference {
    verdicts: Verdicts,
    intervals: usize,
    closing_ticks: Arc<[u64]>,
}

/// Scalar `MonitorSuite` replays of every stream's frames, one per
/// distinct stream.
fn references(fleet: &Fleet) -> Result<BTreeMap<Stream, Reference>, String> {
    let mut refs = BTreeMap::new();
    for &stream in &fleet.streams {
        if refs.contains_key(&stream) {
            continue;
        }
        let mut suite = fleet.family.template().instantiate();
        for k in 0..stream.ticks as usize {
            suite
                .observe(&fleet.frames[(stream.offset + k) % TRACE_TICKS])
                .map_err(|e| format!("scalar reference failed: {e}"))?;
        }
        suite.finish();
        let verdicts = verdict_map(suite.take_violations());
        let intervals = verdicts.values().map(Vec::len).sum();
        let mut closing: Vec<u64> = verdicts
            .values()
            .flat_map(|v| v.iter().map(|i| i.end_tick))
            .collect();
        closing.sort_unstable();
        closing.dedup();
        refs.insert(
            stream,
            Reference {
                verdicts,
                intervals,
                closing_ticks: closing.into(),
            },
        );
    }
    Ok(refs)
}

fn verdict_map(violations: StreamViolations) -> Verdicts {
    let mut map = Verdicts::new();
    for (id, intervals) in violations {
        if !intervals.is_empty() {
            map.entry(id).or_default().extend(intervals);
        }
    }
    map
}

/// The process-wide time origin for pull stamps.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// When each interval-closing pull of one stream happened.
struct PullClock {
    closing_ticks: Arc<[u64]>,
    /// Nanoseconds since [`epoch`], 0 until stamped. Written by the
    /// shard worker at the pull; read by the consumer after the report
    /// carrying the interval arrives through the report channel, whose
    /// send/receive orders the two, so a relaxed statistic suffices.
    stamps: Vec<AtomicU64>,
}

impl PullClock {
    fn new(closing_ticks: Arc<[u64]>) -> Self {
        let stamps = closing_ticks.iter().map(|_| AtomicU64::new(0)).collect();
        PullClock {
            closing_ticks,
            stamps,
        }
    }

    fn stamp_of(&self, tick: u64) -> Option<u64> {
        let i = self.closing_ticks.binary_search(&tick).ok()?;
        match self.stamps[i].load(Ordering::Relaxed) {
            0 => None,
            ns => Some(ns),
        }
    }
}

/// The benchmark's wire transport: replays a stream's encoded messages
/// and decodes one per poll with `tcp::decode_payload`.
struct WireSource {
    wire: Arc<WireTrace>,
    cursor: usize,
    pulled: u64,
    ticks: u64,
    clock: Option<Arc<PullClock>>,
    next_close: usize,
}

impl WireSource {
    fn new(wire: &Arc<WireTrace>, stream: Stream, clock: Option<Arc<PullClock>>) -> Self {
        WireSource {
            wire: Arc::clone(wire),
            cursor: stream.offset,
            pulled: 0,
            ticks: stream.ticks,
            clock,
            next_close: 0,
        }
    }

    /// Moves to the next message without decoding it; false once the
    /// stream has ended.
    fn advance(&mut self) -> bool {
        if self.pulled == self.ticks {
            return false;
        }
        self.pulled += 1;
        self.cursor = (self.cursor + 1) % self.wire.payloads.len();
        true
    }

    fn stamp_if_closing(&mut self) {
        if let Some(clock) = &self.clock {
            if clock.closing_ticks.get(self.next_close) == Some(&self.pulled) {
                clock.stamps[self.next_close].store(now_ns(), Ordering::Relaxed);
                self.next_close += 1;
            }
        }
    }
}

impl StreamSource for WireSource {
    fn poll_frame(&mut self, frame: &mut Frame) -> Poll {
        self.stamp_if_closing();
        if self.pulled == self.ticks {
            return Poll::End;
        }
        let payload = &self.wire.bytes[self.wire.payloads[self.cursor].clone()];
        if let Err(e) = tcp::decode_payload(payload, frame) {
            return Poll::Corrupt(e.to_string());
        }
        self.pulled += 1;
        self.cursor = (self.cursor + 1) % self.wire.payloads.len();
        Poll::Frame
    }
}

/// Exact work of one pass. Must repeat across passes and runs of a seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ServeWork {
    frames: u64,
    connects: u64,
    reported_intervals: u64,
    evicted: u64,
}

/// Collects one stream's reported intervals and checks them against its
/// reference once the stream ends.
fn absorb(got: &mut Verdicts, violations: StreamViolations) -> u64 {
    let mut n = 0;
    for (id, intervals) in violations {
        n += intervals.len() as u64;
        got.entry(id).or_default().extend(intervals);
    }
    got.retain(|_, v| !v.is_empty());
    n
}

fn check_stream(
    stream: usize,
    fleet: &Fleet,
    refs: &BTreeMap<Stream, Reference>,
    got: &Verdicts,
) -> Result<(), String> {
    let reference = &refs[&fleet.streams[stream]];
    if &reference.verdicts == got {
        Ok(())
    } else {
        Err(format!(
            "stream {stream} ({:?}) reported {got:?}, scalar replay says {:?}",
            fleet.streams[stream], reference.verdicts
        ))
    }
}

/// One untraced pass through the production service.
struct ServicePass {
    work: ServeWork,
    wall: Duration,
    lags_ms: Vec<f64>,
    consumer_wait: Duration,
}

fn service_pass(
    fleet: &Fleet,
    refs: &BTreeMap<Stream, Reference>,
    shape: Shape,
) -> Result<ServicePass, String> {
    let config = ServiceConfig {
        lanes_per_shard: shape.lanes,
        report_capacity: REPORT_CAPACITY,
        report_every: REPORT_EVERY,
        stall_limit: None,
        ..ServiceConfig::default()
    };
    let mut service = MonitorService::new(config);
    service.load_suite(fleet.family.template());
    let table = Arc::clone(fleet.family.table());
    let mut clocks: Vec<Arc<PullClock>> = Vec::with_capacity(shape.streams);
    let mut got: Vec<Verdicts> = (0..shape.streams).map(|_| Verdicts::new()).collect();
    let mut work = ServeWork::default();
    let mut lags_ms = Vec::new();
    let mut consumer_wait = Duration::ZERO;

    let started = Instant::now();
    let launch = |service: &mut MonitorService, clocks: &mut Vec<Arc<PullClock>>| {
        let stream = clocks.len();
        let spec = fleet.streams[stream];
        let clock = Arc::new(PullClock::new(Arc::clone(&refs[&spec].closing_ticks)));
        let source = WireSource::new(&fleet.wire, spec, Some(Arc::clone(&clock)));
        clocks.push(clock);
        let id = service
            .connect(&table, Box::new(source))
            .map_err(|e| format!("connect failed: {e}"))?;
        if id.0 as usize != stream {
            return Err(format!(
                "stream ids out of step: {} for stream {stream}",
                id.0
            ));
        }
        Ok::<(), String>(())
    };
    for _ in 0..shape.lanes.min(shape.streams) {
        launch(&mut service, &mut clocks)?;
    }
    let mut closed = 0usize;
    while closed < shape.streams {
        let waited = Instant::now();
        let event = service
            .recv_report()
            .map_err(|e| format!("report channel closed: {e}"))?;
        consumer_wait += waited.elapsed();
        let now = now_ns();
        let mut stamp = |stream: usize, violations: &StreamViolations| -> Result<(), String> {
            for (_, intervals) in violations {
                for interval in intervals {
                    let pulled = clocks[stream].stamp_of(interval.end_tick).ok_or_else(|| {
                        format!(
                            "stream {stream} reported an interval ending at {} that no pull closed",
                            interval.end_tick
                        )
                    })?;
                    lags_ms.push(now.saturating_sub(pulled) as f64 / 1e6);
                }
            }
            Ok(())
        };
        let finished = match event {
            ReportEvent::Violations(report) => {
                let stream = report.stream.0 as usize;
                stamp(stream, &report.violations)?;
                work.reported_intervals += absorb(&mut got[stream], report.violations);
                false
            }
            ReportEvent::StreamClosed(summary) => {
                let stream = summary.stream.0 as usize;
                stamp(stream, &summary.violations)?;
                work.frames += summary.ticks;
                work.reported_intervals += absorb(&mut got[stream], summary.violations);
                check_stream(stream, fleet, refs, &got[stream])?;
                true
            }
            ReportEvent::StreamEvicted(eviction) => {
                work.evicted += 1;
                work.frames += eviction.ticks;
                if !matches!(eviction.reason, EvictReason::ShardRestart) {
                    work.reported_intervals += eviction
                        .violations
                        .iter()
                        .map(|(_, v)| v.len() as u64)
                        .sum::<u64>();
                }
                true
            }
            ReportEvent::ReportsDropped { dropped, .. } => {
                return Err(format!("{dropped} reports dropped on a lossless channel"));
            }
            ReportEvent::ShardStopped { error: None, .. } => {
                return Err("the shard stopped mid-pass".to_owned());
            }
            ReportEvent::ShardStopped { error: Some(_), .. }
            | ReportEvent::ShardRestarted { .. }
            | ReportEvent::SuiteUnloaded { .. } => false,
        };
        if finished {
            closed += 1;
            if clocks.len() < shape.streams {
                launch(&mut service, &mut clocks)?;
            }
        }
    }
    let wall = started.elapsed();
    service.shutdown();
    work.connects = clocks.len() as u64;
    Ok(ServicePass {
        work,
        wall,
        lags_ms,
        consumer_wait,
    })
}

/// One traced pass: a `ShardCore` on a worker thread, run by the
/// service worker's loop rebuilt from public calls, with a twin slab and
/// suite mirroring its fill, observe and drain; reports consumed on this
/// thread, as in [`service_pass`].
struct TracedPass {
    work: ServeWork,
    waves: u64,
    twin_sampled_frames: u64,
    wave_us: Vec<f64>,
    /// The shard worker's laps.
    laps: Laps,
    /// The consumer's laps.
    consumer: Laps,
    wall: Duration,
}

/// The twin: the shard's wire decode, slab fill, masked observe and
/// drains replayed on a second set of sources, slab and suite, lane for
/// lane. It keeps the shard's lane assignment, stream ends and drain
/// cadence on every wave, and decodes, fills and observes on sampled
/// waves (every [`TWIN_SAMPLE`]th) only: a tight `poll_frame` loop over
/// every lane's next message, then a fill of every live lane from the
/// hot scratch frame, as the shard fills each lane right after its
/// decode. Its verdicts are never read; a pass costs the same whatever
/// history it holds.
struct Twin {
    slab: FrameBatch,
    batch: esafe_monitor::MonitorSuiteBatch,
    lanes: LaneAllocator,
    sources: Vec<Option<WireSource>>,
    scratch: Frame,
    live: Vec<bool>,
    ended: Vec<usize>,
    waves: u64,
    sampled_frames: u64,
}

impl Twin {
    fn new(fleet: &Fleet, lanes: usize) -> Self {
        let table = fleet.family.table();
        let mut batch = fleet.family.template().instantiate_batch(lanes);
        batch.finish();
        Twin {
            slab: FrameBatch::new(table, lanes),
            batch,
            lanes: LaneAllocator::new(lanes),
            sources: (0..lanes).map(|_| None).collect(),
            scratch: table.frame(),
            live: vec![false; lanes],
            ended: Vec::new(),
            waves: 0,
            sampled_frames: 0,
        }
    }

    fn connect(&mut self, source: WireSource) -> Result<(), String> {
        let lane = self
            .lanes
            .claim()
            .ok_or("the twin ran out of lanes the shard still had")?;
        self.batch.reclaim_lane(lane);
        self.sources[lane] = Some(source);
        Ok(())
    }

    /// Mirrors one shard wave; `sampled` waves are decoded and timed.
    fn wave(&mut self, sampled: bool) -> Result<(), String> {
        trace::lap(Layer::TwinOther);
        self.live.fill(false);
        self.ended.clear();
        let mut pulled = 0u64;
        for lane in 0..self.sources.len() {
            let Some(source) = self.sources[lane].as_mut() else {
                continue;
            };
            let delivered = if sampled {
                match source.poll_frame(&mut self.scratch) {
                    Poll::Frame => true,
                    Poll::End => false,
                    Poll::Pending | Poll::Corrupt(_) => {
                        return Err("the twin's source failed".to_owned());
                    }
                }
            } else {
                source.advance()
            };
            if delivered {
                self.live[lane] = true;
                pulled += 1;
            } else {
                self.ended.push(lane);
            }
        }
        if sampled && pulled > 0 {
            trace::lap(Layer::WireDecode);
            for lane in 0..self.sources.len() {
                if self.live[lane] {
                    self.slab.write_lane_from(lane, &self.scratch);
                }
            }
            trace::lap(Layer::Fill);
            self.batch
                .observe_slab_masked(&self.slab, &self.live)
                .map_err(|e| format!("twin observe failed: {e}"))?;
            trace::lap(Layer::Observe);
            self.sampled_frames += pulled;
        }
        if pulled > 0 {
            self.waves += 1;
        }
        trace::lap(Layer::TwinOther);
        for &lane in &self.ended {
            self.sources[lane] = None;
            self.batch.retire_lane(lane);
            drop(self.batch.take_violations_lane(lane));
            self.lanes.release(lane);
        }
        if pulled > 0 && self.waves.is_multiple_of(REPORT_EVERY) {
            for lane in 0..self.sources.len() {
                if self.sources[lane].is_some() {
                    drop(self.batch.take_violations_lane(lane));
                }
            }
        }
        trace::lap(Layer::Drain);
        Ok(())
    }
}

/// What the traced pass's shard worker measured.
struct WorkerOut {
    wave_us: Vec<f64>,
    twin_sampled_frames: u64,
    laps: Laps,
}

/// The traced pass's shard worker: the service worker's loop rebuilt
/// around a `ShardCore` — park on the control channel while idle, apply
/// the queued connects, run one wave under `catch_unwind`, forward its
/// events to the bounded report channel — plus the twin between each wave
/// and its forwarding.
fn traced_worker(
    fleet: &Fleet,
    lanes: usize,
    control: Receiver<usize>,
    reports: SyncSender<ReportEvent>,
) -> Result<WorkerOut, String> {
    trace::restart();
    let mut core = ShardCore::new(
        ShardId(0),
        fleet.family.template(),
        ShardConfig {
            width: lanes,
            report_every: REPORT_EVERY,
            stall_limit: None,
        },
    );
    let mut twin = Twin::new(fleet, lanes);
    let mut wave_us = Vec::new();
    let connect = |core: &mut ShardCore, twin: &mut Twin, stream: usize| {
        let spec = fleet.streams[stream];
        core.connect(
            StreamId(stream as u64),
            Box::new(WireSource::new(&fleet.wire, spec, None)),
        );
        twin.connect(WireSource::new(&fleet.wire, spec, None))
    };
    let mut open = true;
    loop {
        if open && core.is_idle() {
            let msg = control.recv();
            // Time parked waiting for work is no layer's.
            trace::skip();
            match msg {
                Ok(stream) => connect(&mut core, &mut twin, stream)?,
                Err(_) => open = false,
            }
        }
        while open {
            match control.try_recv() {
                Ok(stream) => connect(&mut core, &mut twin, stream)?,
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => open = false,
            }
        }
        if !open && core.is_idle() {
            break;
        }
        trace::lap(Layer::Control);
        let wave_started = Instant::now();
        let pulled = std::panic::catch_unwind(AssertUnwindSafe(|| core.wave()))
            .map_err(|_| "a shard wave panicked".to_owned())?
            .map_err(|e| format!("shard wave failed: {e}"))?;
        let wave_time = wave_started.elapsed();
        trace::lap(Layer::Wave);
        if pulled > 0 {
            wave_us.push(wave_time.as_secs_f64() * 1e6);
        }
        // The twin runs before the events go out, so the consumer's
        // replacement connects race the next wave as in the service.
        twin.wave(pulled > 0 && (wave_us.len() as u64).is_multiple_of(TWIN_SAMPLE))?;
        for event in core.take_events() {
            reports
                .send(event)
                .map_err(|_| "the traced consumer hung up".to_owned())?;
        }
        trace::lap(Layer::Forward);
    }
    Ok(WorkerOut {
        wave_us,
        twin_sampled_frames: twin.sampled_frames,
        laps: trace::take(),
    })
}

/// The traced pass's consumer: launches streams over the control channel,
/// replacing each close, and checks every stream's verdicts. Returns the
/// work, the wall time from first connect to last close, and its laps.
fn traced_consumer(
    fleet: &Fleet,
    refs: &BTreeMap<Stream, Reference>,
    shape: Shape,
    control: Sender<usize>,
    reports: Receiver<ReportEvent>,
) -> Result<(ServeWork, Duration, Laps), String> {
    trace::restart();
    let mut got: Vec<Verdicts> = (0..shape.streams).map(|_| Verdicts::new()).collect();
    let mut work = ServeWork::default();
    let launch = |stream: usize| {
        control
            .send(stream)
            .map_err(|_| "the traced shard worker stopped".to_owned())
    };
    let started = Instant::now();
    let mut launched = shape.lanes.min(shape.streams);
    for stream in 0..launched {
        launch(stream)?;
    }
    trace::lap(Layer::Consumer);
    let mut closed = 0usize;
    while closed < shape.streams {
        let event = reports
            .recv()
            .map_err(|_| "the traced shard worker stopped".to_owned())?;
        trace::skip();
        match event {
            ReportEvent::Violations(report) => {
                let stream = report.stream.0 as usize;
                work.reported_intervals += absorb(&mut got[stream], report.violations);
            }
            ReportEvent::StreamClosed(summary) => {
                let stream = summary.stream.0 as usize;
                work.frames += summary.ticks;
                work.reported_intervals += absorb(&mut got[stream], summary.violations);
                check_stream(stream, fleet, refs, &got[stream])?;
                closed += 1;
                if launched < shape.streams {
                    launch(launched)?;
                    launched += 1;
                }
            }
            other => return Err(format!("unexpected shard event {other:?}")),
        }
        trace::lap(Layer::Consumer);
    }
    let wall = started.elapsed();
    work.connects = launched as u64;
    Ok((work, wall, trace::take()))
}

fn traced_pass(
    fleet: &Fleet,
    refs: &BTreeMap<Stream, Reference>,
    shape: Shape,
) -> Result<TracedPass, String> {
    let (control_tx, control_rx) = mpsc::channel();
    let (report_tx, report_rx) = mpsc::sync_channel(REPORT_CAPACITY);
    std::thread::scope(|scope| {
        let worker = scope.spawn(move || traced_worker(fleet, shape.lanes, control_rx, report_tx));
        // The consumer owns both channel ends, so if it fails the worker
        // sees them close and stops.
        let consumed = traced_consumer(fleet, refs, shape, control_tx, report_rx);
        let worker = worker
            .join()
            .map_err(|_| "the traced shard worker panicked".to_owned())??;
        let (work, wall, consumer) = consumed?;
        Ok(TracedPass {
            work,
            waves: worker.wave_us.len() as u64,
            twin_sampled_frames: worker.twin_sampled_frames,
            wave_us: worker.wave_us,
            laps: worker.laps,
            consumer,
            wall,
        })
    })
}

/// The exact work a pass of `shape` must do: every launched stream's
/// frames and reference intervals, and no evictions.
fn expected_work(fleet: &Fleet, refs: &BTreeMap<Stream, Reference>, shape: Shape) -> ServeWork {
    let launched = &fleet.streams[..shape.streams];
    ServeWork {
        frames: launched.iter().map(|s| s.ticks).sum(),
        connects: shape.streams as u64,
        reported_intervals: launched.iter().map(|s| refs[s].intervals as u64).sum(),
        evicted: 0,
    }
}

/// A traced pass's production time: the shard worker is the critical
/// path (the consumer waits on it nearly all the time), so the twin's
/// time on the worker adds to the pass's wall time one for one.
fn production_time(pass: &TracedPass) -> f64 {
    let twin = pass.laps.sum(&[
        Layer::WireDecode,
        Layer::Fill,
        Layer::Observe,
        Layer::Drain,
        Layer::TwinOther,
    ]);
    pass.wall.as_secs_f64() - twin / 1e9
}

/// The closure check's pairs: an untraced and a traced pass over the
/// [`SLICE`] fleet, alternating which goes first, until `seconds` have
/// passed and at least [`CLOSURE_MIN_PAIRS`] pairs have run. Returns the
/// untraced times and the traced passes' production times.
fn closure_pairs(
    seconds: f64,
    fleet: &Fleet,
    refs: &BTreeMap<Stream, Reference>,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let expected = expected_work(fleet, refs, SLICE);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    repeat_for(seconds, CLOSURE_MIN_PAIRS, || {
        let traced_first = untraced.len() % 2 == 1;
        for traced_turn in [traced_first, !traced_first] {
            if traced_turn {
                let pass = traced_pass(fleet, refs, SLICE)?;
                same_work("serve closure slice traced", &expected, &pass.work)?;
                traced.push(production_time(&pass));
            } else {
                let pass = service_pass(fleet, refs, SLICE)?;
                same_work("serve closure slice", &expected, &pass.work)?;
                untraced.push(pass.wall.as_secs_f64());
            }
        }
        Ok(())
    })?;
    Ok((untraced, traced))
}

/// The `serve` workload.
///
/// # Errors
///
/// A failed check or run, as text.
pub fn run(args: &Args) -> Result<Outcome, String> {
    epoch();
    let (fleet, setup_s) = timed_setup(|| build_fleet(args.seed))?;
    let refs = references(&fleet)?;
    let expected = expected_work(&fleet, &refs, FLEET);
    println!(
        "serve: {STREAMS} streams of {}..{} frames, {LANES} live at once, {} monitors, \
         {} reference intervals per pass",
        STREAM_TICKS.start,
        STREAM_TICKS.end - 1,
        fleet.family.template().len(),
        expected.reported_intervals
    );

    let mut service_passes: Vec<ServicePass> = Vec::new();
    let mut traced: Vec<TracedPass> = Vec::new();
    let (seconds, min) = if args.trace {
        (args.seconds / 2.0, TRACE_MIN_PASSES)
    } else {
        (args.seconds, MIN_PASSES)
    };
    let mut kernel_rates = Vec::new();
    crate::begin_timed_phase();
    repeat_for(seconds, min, || {
        // Pairs alternate which pass goes first, so a drift of the host's
        // speed favours neither.
        let turns: &[bool] = match (args.trace, service_passes.len() % 2 == 1) {
            (false, _) => &[false],
            (true, false) => &[false, true],
            (true, true) => &[true, false],
        };
        for &traced_turn in turns {
            kernel_rates.push(crate::calib::speed());
            if traced_turn {
                let pass = traced_pass(&fleet, &refs, FLEET)?;
                same_work("serve traced", &expected, &pass.work)?;
                traced.push(pass);
            } else {
                let pass = service_pass(&fleet, &refs, FLEET)?;
                same_work("serve", &expected, &pass.work)?;
                service_passes.push(pass);
            }
        }
        Ok(())
    })?;

    let work = service_passes[0].work;
    let tps: Vec<f64> = service_passes
        .iter()
        .map(|p| p.work.frames as f64 / p.wall.as_secs_f64())
        .collect();
    crate::print_passes("serve", &tps);
    let walls: Vec<f64> = service_passes
        .iter()
        .map(|p| p.wall.as_secs_f64())
        .collect();
    let ticks_per_s = throughput(work.frames as f64, &walls);
    let lags: Vec<f64> = service_passes
        .iter()
        .flat_map(|p| p.lags_ms.iter().copied())
        .collect();
    let (tail_p, tail_ms) = if lags.is_empty() {
        (0.0, 0.0)
    } else {
        tail(&lags)
    };
    let p50 = if lags.is_empty() {
        0.0
    } else {
        quantile(&lags, 0.5)
    };
    let wait_share = median(
        &service_passes
            .iter()
            .map(|p| p.consumer_wait.as_secs_f64() / p.wall.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let failed_share = work.evicted as f64 / work.connects as f64;
    println!(
        "serve: {} passes, {} frames, {} connects, {} reported intervals, {} evicted per pass",
        service_passes.len(),
        work.frames,
        work.connects,
        work.reported_intervals,
        work.evicted
    );
    println!(
        "serve: ticks_per_s {:.0}; report_lag p50 {p50:.3} ms, p{tail_p} {tail_ms:.3} ms \
         over {} samples; consumer wait share {wait_share:.3}; failed_share {failed_share}",
        ticks_per_s,
        lags.len()
    );
    let mut outcome = Outcome {
        attempted: work.connects * service_passes.len() as u64,
        failed: work.evicted * service_passes.len() as u64,
        kernel_rates,
        ..Outcome::default()
    };
    if !args.trace {
        outcome.end_to_end = vec![("setup_s", setup_s), ("ticks_per_s", ticks_per_s)];
        return Ok(outcome);
    }

    let mut laps = Laps::default();
    let mut consumer = Laps::default();
    let mut wave_us = Vec::new();
    let mut twin_sampled = 0u64;
    for pass in &traced {
        laps.merge(&pass.laps);
        consumer.merge(&pass.consumer);
        twin_sampled += pass.twin_sampled_frames;
        wave_us.extend(pass.wave_us.iter().copied());
    }
    laps.remove_clock_cost(trace::lap_cost_ns());
    consumer.remove_clock_cost(trace::lap_cost_ns());
    let n = traced.len() as f64;
    let frames = work.frames as f64 * n;
    let twin_sampled = twin_sampled.max(1) as f64;
    let decode = laps.ns(Layer::WireDecode) / twin_sampled;
    let fill = laps.ns(Layer::Fill) / twin_sampled;
    let observe = laps.ns(Layer::Observe) / twin_sampled;
    let drain = laps.ns(Layer::Drain) / frames;
    let wave = laps.ns(Layer::Wave) / frames;
    let (untraced, equivalent) = closure_pairs(args.seconds / 2.0, &fleet, &refs)?;
    let overhead = crate::closure(
        &format!(
            "worker: wave {wave:.1} + forward {:.1} + control {:.1} ns per frame; consumer {:.1} \
             ns per frame; closure over {} lanes and {} streams",
            laps.ns(Layer::Forward) / frames,
            laps.ns(Layer::Control) / frames,
            consumer.ns(Layer::Consumer) / frames,
            SLICE.lanes,
            SLICE.streams
        ),
        &untraced,
        &equivalent,
    );
    let waves = traced[0].waves as f64;
    outcome.layers = vec![
        ("serve.decode_ns", decode),
        ("serve.wave_p50_us", quantile(&wave_us, 0.5)),
        ("serve.wave_p99_us", quantile(&wave_us, 0.99)),
        ("serve.waves", waves),
        ("serve.fill_ns", fill),
        ("serve.observe_ns", observe),
        ("serve.drain_ns", drain),
        (
            "serve.wave_other_ns",
            wave - decode - fill - observe - drain,
        ),
        (
            "serve.lane_occupancy",
            work.frames as f64 / (waves * LANES as f64),
        ),
        ("serve.connects", work.connects as f64),
        ("serve.consumer_wait_share", wait_share),
        ("serve.reported_intervals", work.reported_intervals as f64),
        ("serve.report_lag_p50_ms", p50),
        ("serve.report_lag_p99_ms", tail_ms),
        ("serve.report_lag_samples", lags.len() as f64),
        ("work.units", work.connects as f64),
        ("work.ticks", work.frames as f64),
        ("work.failed_share", failed_share),
        ("trace.overhead_share", overhead),
    ];
    Ok(outcome)
}
