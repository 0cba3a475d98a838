//! Deterministic fixed-step simulation kernel.
//!
//! Both evaluation substrates of the thesis — the distributed elevator of
//! Chapter 4 and the semi-autonomous vehicle of Chapter 5 — are discrete
//! systems sampled at a fixed period (1 ms states in the CarSim runs).
//! This crate provides the shared machinery:
//!
//! * a [`Simulator`] that steps registered [`Subsystem`]s against a shared
//!   signal blackboard with **one-tick observation delay**: every
//!   subsystem reads the *previous* tick's snapshot and writes the next
//!   one, matching the thesis's rule that monitored values are known one
//!   state late;
//! * actuation plumbing: [`FirstOrderLag`], [`RateLimiter`], [`DelayLine`];
//! * [`SeriesLog`] for recording the time series behind the thesis's
//!   figures.
//!
//! The blackboard *is* an [`esafe_logic::Frame`] over the simulator's
//! [`SignalTable`] — the signal set is declared once at build time, and
//! stepping **double-buffers two frames** instead of cloning maps: the
//! previous tick's frame is memcpy'd into the scratch frame, subsystems
//! write through [`SignalId`]-typed accessors, and the buffers swap.
//! Run-time goal monitors compiled with
//! [`FusedSuiteProgram::compile`](esafe_logic::FusedSuiteProgram::compile)
//! against the same table attach without adapters, so the whole per-tick
//! loop holds zero `String` allocations.
//!
//! # Example
//!
//! ```
//! use esafe_sim::{SimTime, Simulator, Subsystem};
//! use esafe_logic::{Frame, SignalId, SignalTable};
//!
//! struct Counter {
//!     n: SignalId,
//! }
//! impl Subsystem for Counter {
//!     fn name(&self) -> &str { "counter" }
//!     fn step(&mut self, _t: &SimTime, prev: &Frame, next: &mut Frame) {
//!         next.set(self.n, prev.real_or(self.n, 0.0) + 1.0);
//!     }
//! }
//!
//! let mut b = SignalTable::builder();
//! let n = b.real("n");
//! let table = b.finish();
//!
//! let mut sim = Simulator::new(1, &table);
//! sim.add(Counter { n });
//! sim.init_with(|frame| frame.set(n, 0.0));
//! for _ in 0..5 { sim.step(); }
//! assert_eq!(sim.state().real_or(n, -1.0), 5.0);
//! ```

use esafe_logic::{Frame, SignalId, SignalTable, Value};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

pub mod batch;

pub use batch::{BatchSubsystem, LaneMask, LaneSubsystem, LaneVec, SimulatorBatch};
pub use esafe_logic::{FrameBatch, LaneMut, LaneRef, SignalRead, SignalWrite};

/// Simulation time: the current tick and the tick period.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimTime {
    /// Ticks elapsed since simulation start (the state being computed).
    pub tick: u64,
    /// Tick period in milliseconds.
    pub dt_millis: u64,
}

impl SimTime {
    /// Elapsed time in seconds.
    pub fn seconds(&self) -> f64 {
        (self.tick * self.dt_millis) as f64 / 1000.0
    }

    /// Tick period in seconds.
    pub fn dt_seconds(&self) -> f64 {
        self.dt_millis as f64 / 1000.0
    }
}

/// A simulated component: reads the previous tick's signals, writes the
/// next tick's.
///
/// Subsystems are stepped in registration order, but because every
/// subsystem reads the same previous snapshot, ordering does not leak
/// information within a tick — all inter-subsystem communication takes at
/// least one tick, as in the thesis's state model. Subsystems hold the
/// [`SignalId`]s they read and write, resolved once at construction.
pub trait Subsystem {
    /// Display name (used in logs and error messages).
    fn name(&self) -> &str;

    /// Advances one tick: read `prev`, write outputs into `next`.
    fn step(&mut self, t: &SimTime, prev: &Frame, next: &mut Frame);
}

/// The fixed-step simulator: a registered subsystem list over a
/// double-buffered pair of [`Frame`]s sharing one [`SignalTable`].
pub struct Simulator {
    subsystems: Vec<Box<dyn Subsystem>>,
    /// The current (front) snapshot.
    state: Frame,
    /// The scratch (back) frame the next tick is composed into.
    scratch: Frame,
    tick: u64,
    dt_millis: u64,
}

impl Simulator {
    /// Creates a simulator with the given tick period in milliseconds
    /// over the given signal namespace.
    ///
    /// # Panics
    ///
    /// Panics if `dt_millis` is zero.
    pub fn new(dt_millis: u64, table: &Arc<SignalTable>) -> Self {
        assert!(dt_millis > 0, "tick period must be positive");
        Simulator {
            subsystems: Vec::new(),
            state: table.frame(),
            scratch: table.frame(),
            tick: 0,
            dt_millis,
        }
    }

    /// The shared signal namespace.
    pub fn table(&self) -> &Arc<SignalTable> {
        self.state.table()
    }

    /// Registers a subsystem (stepped in registration order).
    pub fn add(&mut self, s: impl Subsystem + 'static) {
        self.subsystems.push(Box::new(s));
    }

    /// Sets the initial state (tick 0 snapshot).
    ///
    /// # Panics
    ///
    /// Panics if `frame` indexes a different table.
    pub fn init(&mut self, frame: Frame) {
        self.state.copy_from(&frame);
        self.tick = 0;
    }

    /// Seeds the initial state in place: `seed` receives a fresh all-unset
    /// frame over the simulator's table.
    pub fn init_with(&mut self, seed: impl FnOnce(&mut Frame)) {
        let mut frame = self.table().frame();
        seed(&mut frame);
        self.init(frame);
    }

    /// Current tick count.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Tick period in milliseconds.
    pub fn dt_millis(&self) -> u64 {
        self.dt_millis
    }

    /// Current simulated time in seconds.
    pub fn seconds(&self) -> f64 {
        (self.tick * self.dt_millis) as f64 / 1000.0
    }

    /// The current state snapshot.
    pub fn state(&self) -> &Frame {
        &self.state
    }

    /// Advances one tick and returns the new state. The double-buffer
    /// refresh is a memcpy; nothing on this path allocates.
    pub fn step(&mut self) -> &Frame {
        let t = SimTime {
            tick: self.tick + 1,
            dt_millis: self.dt_millis,
        };
        self.scratch.copy_from(&self.state);
        for s in &mut self.subsystems {
            s.step(&t, &self.state, &mut self.scratch);
        }
        std::mem::swap(&mut self.state, &mut self.scratch);
        self.tick += 1;
        &self.state
    }

    /// Runs until `ticks` have elapsed or `observer` returns `false`.
    /// The observer sees each new state as it is produced.
    pub fn run(&mut self, ticks: u64, mut observer: impl FnMut(u64, &Frame) -> bool) {
        for _ in 0..ticks {
            self.step();
            if !observer(self.tick, &self.state) {
                break;
            }
        }
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("tick", &self.tick)
            .field("dt_millis", &self.dt_millis)
            .field("signals", &self.table().len())
            .field(
                "subsystems",
                &self.subsystems.iter().map(|s| s.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// First-order actuator lag: `value` approaches `target` with time
/// constant `tau` (the plant response behind the thesis's Min/Max
/// actuation-delay relationships, eq. 4.2–4.5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FirstOrderLag {
    /// Time constant in seconds.
    pub tau_s: f64,
    /// Current output.
    pub value: f64,
}

impl FirstOrderLag {
    /// Creates a lag at an initial value.
    pub fn new(tau_s: f64, initial: f64) -> Self {
        FirstOrderLag {
            tau_s,
            value: initial,
        }
    }

    /// Advances by `dt_s` toward `target`, returning the new output.
    pub fn step(&mut self, target: f64, dt_s: f64) -> f64 {
        if self.tau_s <= 0.0 {
            self.value = target;
        } else {
            let alpha = 1.0 - (-dt_s / self.tau_s).exp();
            self.value += (target - self.value) * alpha;
        }
        self.value
    }
}

/// Slew-rate limiter: output moves toward the target at a bounded rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateLimiter {
    /// Maximum rate of change per second (absolute).
    pub max_rate_per_s: f64,
    /// Current output.
    pub value: f64,
}

impl RateLimiter {
    /// Creates a limiter at an initial value.
    pub fn new(max_rate_per_s: f64, initial: f64) -> Self {
        RateLimiter {
            max_rate_per_s,
            value: initial,
        }
    }

    /// Advances by `dt_s` toward `target`, returning the new output.
    pub fn step(&mut self, target: f64, dt_s: f64) -> f64 {
        let max_delta = self.max_rate_per_s * dt_s;
        let delta = (target - self.value).clamp(-max_delta, max_delta);
        self.value += delta;
        self.value
    }
}

/// A fixed-latency value pipe modeling network/communication delay.
/// [`Value`] is `Copy`, so shifting the line never allocates.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayLine {
    queue: VecDeque<Value>,
    delay_ticks: usize,
    default: Value,
}

impl DelayLine {
    /// Creates a delay line that emits `default` until the first pushed
    /// value has aged `delay_ticks`.
    pub fn new(delay_ticks: usize, default: Value) -> Self {
        DelayLine {
            queue: VecDeque::with_capacity(delay_ticks + 1),
            delay_ticks,
            default,
        }
    }

    /// Pushes this tick's input and pops the value from `delay_ticks` ago.
    pub fn shift(&mut self, input: Value) -> Value {
        self.queue.push_back(input);
        if self.queue.len() > self.delay_ticks {
            self.queue.pop_front().expect("length checked")
        } else {
            self.default
        }
    }
}

/// Records named time series for figure reproduction.
///
/// Series are keyed by signal *name* (reports and figure tooling stay
/// name-addressable), but per-tick sampling goes through
/// [`SeriesLog::sample`] with a resolved [`SignalId`] — a map lookup of an
/// existing key plus a `Vec` push, no per-tick `String` allocation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SeriesLog {
    series: BTreeMap<String, Vec<(f64, f64)>>,
}

impl SeriesLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a `(time, value)` point to the named series. The name is
    /// only copied when its series is first created, so steady-state
    /// sampling allocates nothing but the point itself.
    pub fn push(&mut self, name: &str, time_s: f64, value: f64) {
        if let Some(points) = self.series.get_mut(name) {
            points.push((time_s, value));
        } else {
            self.series.insert(name.to_owned(), vec![(time_s, value)]);
        }
    }

    /// Samples a numeric or boolean signal from a frame into the series
    /// named after the signal (booleans record as 0/1). Unset or symbolic
    /// signals are skipped.
    pub fn sample(&mut self, frame: &Frame, id: SignalId, time_s: f64) {
        if let Some(x) = sample_point(frame.get(id)) {
            self.push(frame.table().name(id), time_s, x);
        }
    }

    /// Samples a signal's full column from a recorded [`FrameTrace`] into
    /// the series named after the signal, timed by the trace's own tick
    /// period — the batch analogue of calling [`SeriesLog::sample`] once
    /// per recorded frame, but a single pass over one contiguous column
    /// instead of a map lookup per sample.
    ///
    /// [`FrameTrace`]: esafe_logic::FrameTrace
    pub fn sample_trace(&mut self, trace: &esafe_logic::FrameTrace, id: SignalId) {
        let column = trace.column(id);
        let mut points: Vec<(f64, f64)> = Vec::with_capacity(column.len());
        for (i, slot) in column.iter().enumerate() {
            if let Some(x) = sample_point(*slot) {
                points.push((trace.time_s(i), x));
            }
        }
        if points.is_empty() {
            return;
        }
        self.append_points(trace.table().name(id), points);
    }

    /// Appends a batch of pre-collected points to the named series
    /// (creating it if absent). The experiment loop buffers each tracked
    /// signal's points in a plain `Vec` during the run — an indexed push
    /// per tick instead of a map lookup — and lands them here once;
    /// empty batches are skipped so no empty series appears.
    pub fn append_points(&mut self, name: &str, points: Vec<(f64, f64)>) {
        if points.is_empty() {
            return;
        }
        if let Some(existing) = self.series.get_mut(name) {
            existing.extend(points);
        } else {
            self.series.insert(name.to_owned(), points);
        }
    }

    /// The recorded points of a series.
    pub fn series(&self, name: &str) -> Option<&[(f64, f64)]> {
        self.series.get(name).map(Vec::as_slice)
    }

    /// Names of all recorded series.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.series.keys().map(String::as_str)
    }

    /// Downsamples a series to at most `max_points` evenly spaced points
    /// (for terminal rendering of figures).
    pub fn downsample(&self, name: &str, max_points: usize) -> Vec<(f64, f64)> {
        let Some(points) = self.series(name) else {
            return Vec::new();
        };
        if points.len() <= max_points || max_points == 0 {
            return points.to_vec();
        }
        let stride = points.len().div_ceil(max_points);
        points.iter().step_by(stride).copied().collect()
    }
}

/// How a slot value becomes a figure point: booleans as 0/1, numerics
/// as themselves, symbolic or unset slots skipped — the one sampling
/// rule shared by live runs ([`SeriesLog::sample`]), trace replay
/// ([`SeriesLog::sample_trace`]), and the experiment loop's buffered
/// sampling.
#[inline]
pub fn sample_point(value: Option<Value>) -> Option<f64> {
    match value {
        Some(Value::Bool(b)) => Some(if b { 1.0 } else { 0.0 }),
        Some(v) => v.as_real(),
        None => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esafe_logic::SignalTableBuilder;

    struct Echo {
        from: SignalId,
        to: SignalId,
    }

    impl Subsystem for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn step(&mut self, _t: &SimTime, prev: &Frame, next: &mut Frame) {
            if let Some(v) = prev.get(self.from) {
                next.set(self.to, v);
            }
        }
    }

    fn abc() -> (Arc<SignalTable>, [SignalId; 3]) {
        let mut b = SignalTableBuilder::new();
        let ids = [b.real("a"), b.real("b"), b.real("c")];
        (b.finish(), ids)
    }

    #[test]
    fn subsystems_see_previous_tick_only() {
        // a -> b -> c echo chain: values propagate one hop per tick even
        // though both echoes run every tick.
        let (table, [a, b, c]) = abc();
        let mut sim = Simulator::new(1, &table);
        sim.add(Echo { from: a, to: b });
        sim.add(Echo { from: b, to: c });
        sim.init_with(|f| {
            f.set(a, 7.0);
            f.set(b, 0.0);
            f.set(c, 0.0);
        });
        sim.step();
        assert_eq!(sim.state().real_or(b, -1.0), 7.0);
        assert_eq!(sim.state().real_or(c, -1.0), 0.0);
        sim.step();
        assert_eq!(sim.state().real_or(c, -1.0), 7.0);
    }

    #[test]
    fn run_stops_when_observer_returns_false() {
        let (table, [a, b, _]) = abc();
        let mut sim = Simulator::new(1, &table);
        sim.add(Echo { from: a, to: b });
        sim.init_with(|f| {
            f.set(a, 1.0);
            f.set(b, 0.0);
        });
        let mut seen = 0;
        sim.run(100, |tick, _| {
            seen += 1;
            tick < 5
        });
        assert_eq!(seen, 5);
        assert_eq!(sim.tick(), 5);
    }

    #[test]
    fn seconds_accounts_for_dt() {
        let (table, _) = abc();
        let mut sim = Simulator::new(10, &table);
        for _ in 0..100 {
            sim.step();
        }
        assert!((sim.seconds() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn first_order_lag_converges_monotonically() {
        let mut lag = FirstOrderLag::new(0.1, 0.0);
        let mut last = 0.0;
        for _ in 0..1000 {
            let v = lag.step(1.0, 0.001);
            assert!(v >= last && v <= 1.0);
            last = v;
        }
        assert!(last > 0.99);
    }

    #[test]
    fn zero_tau_is_passthrough() {
        let mut lag = FirstOrderLag::new(0.0, 0.0);
        assert_eq!(lag.step(5.0, 0.001), 5.0);
    }

    #[test]
    fn rate_limiter_bounds_slew() {
        let mut rl = RateLimiter::new(10.0, 0.0);
        let v = rl.step(100.0, 0.1);
        assert_eq!(v, 1.0); // 10/s * 0.1s
        let v2 = rl.step(-100.0, 0.1);
        assert_eq!(v2, 0.0);
    }

    #[test]
    fn delay_line_shifts_by_configured_ticks() {
        let mut dl = DelayLine::new(2, Value::Int(0));
        assert_eq!(dl.shift(Value::Int(1)), Value::Int(0));
        assert_eq!(dl.shift(Value::Int(2)), Value::Int(0));
        assert_eq!(dl.shift(Value::Int(3)), Value::Int(1));
        assert_eq!(dl.shift(Value::Int(4)), Value::Int(2));
    }

    #[test]
    fn zero_delay_line_is_passthrough() {
        let mut dl = DelayLine::new(0, Value::Bool(false));
        assert_eq!(dl.shift(Value::Bool(true)), Value::Bool(true));
    }

    #[test]
    fn series_log_records_and_downsamples() {
        let mut log = SeriesLog::new();
        for i in 0..100 {
            log.push("x", i as f64, (i * 2) as f64);
        }
        assert_eq!(log.series("x").unwrap().len(), 100);
        let ds = log.downsample("x", 10);
        assert!(ds.len() <= 10);
        assert_eq!(ds[0], (0.0, 0.0));
        assert!(log.series("missing").is_none());
    }

    #[test]
    fn series_log_samples_frame_traces_like_live_frames() {
        let mut b = SignalTableBuilder::new();
        let speed = b.real("speed");
        let flag = b.bool("flag");
        let table = b.finish();
        let mut trace = esafe_logic::FrameTrace::new(&table, 10);
        let mut frame = table.frame();
        for i in 0..4 {
            frame.set(speed, i as f64);
            if i == 2 {
                frame.set(flag, true);
            }
            trace.push(&frame);
        }
        // Reference: sample each frame live at the trace's own times.
        let mut live = SeriesLog::new();
        let mut scratch = table.frame();
        for i in 0..trace.len() {
            trace.read_into(i, &mut scratch);
            live.sample(&scratch, speed, trace.time_s(i));
            live.sample(&scratch, flag, trace.time_s(i));
        }
        let mut batch = SeriesLog::new();
        batch.sample_trace(&trace, speed);
        batch.sample_trace(&trace, flag);
        assert_eq!(batch, live, "trace sampling must match live sampling");
        assert_eq!(batch.series("speed").unwrap().len(), 4);
        // `flag` is unset for the first two samples, then latches true.
        assert_eq!(batch.series("flag").unwrap(), &[(0.02, 1.0), (0.03, 1.0)]);
    }

    #[test]
    fn series_log_samples_bools_as_binary() {
        let mut b = SignalTableBuilder::new();
        let flag = b.bool("flag");
        let cmd = b.sym("cmd");
        let none = b.real("none");
        let table = b.finish();
        let mut frame = table.frame();
        frame.set(flag, true);
        frame.set(cmd, Value::sym("GO"));
        let mut log = SeriesLog::new();
        log.sample(&frame, flag, 0.5);
        log.sample(&frame, cmd, 0.5); // symbolic: skipped
        log.sample(&frame, none, 0.5); // unset: skipped
        assert_eq!(log.series("flag").unwrap(), &[(0.5, 1.0)]);
        assert!(log.series("cmd").is_none());
    }
}
