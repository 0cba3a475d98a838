//! Deterministic fixed-step simulation kernel.
//!
//! Both evaluation substrates of the thesis — the distributed elevator of
//! Chapter 4 and the semi-autonomous vehicle of Chapter 5 — are discrete
//! systems sampled at a fixed period (1 ms states in the CarSim runs).
//! This crate provides the shared machinery:
//!
//! * a [`SimulatorBatch`] that steps registered subsystems against a
//!   shared signal blackboard with **one-tick observation delay**: every
//!   subsystem reads the *previous* tick's snapshot and writes the next
//!   one, matching the thesis's rule that monitored values are known one
//!   state late. It steps a stripe of runs at once, one lane each; a
//!   [`Simulator`] is its one-lane case over a [`Frame`];
//! * actuation plumbing: [`FirstOrderLag`], [`RateLimiter`], [`DelayLine`];
//! * [`SeriesLog`], the time series behind the thesis's figures, read
//!   from a run's frame recording.
//!
//! The blackboard *is* an [`esafe_logic::FrameBatch`] over the
//! simulator's [`SignalTable`] — the signal set is declared once at build
//! time, and stepping **double-buffers two slabs** instead of cloning
//! maps: the previous tick's slab is memcpy'd into the scratch slab,
//! subsystems write through [`SignalId`]-typed accessors, and the buffers
//! swap. Run-time goal monitors compiled with
//! [`FusedSuiteProgram::compile`](esafe_logic::FusedSuiteProgram::compile)
//! against the same table read the slab in place, so the whole per-tick
//! loop holds zero `String` allocations.
//!
//! # Example
//!
//! ```
//! use esafe_sim::{LaneSubsystem, SignalRead, SignalWrite, SimTime, Simulator};
//! use esafe_logic::{SignalId, SignalTable};
//!
//! struct Counter {
//!     n: SignalId,
//! }
//! impl LaneSubsystem for Counter {
//!     fn name(&self) -> &str { "counter" }
//!     fn step_lane<R: SignalRead, W: SignalWrite>(
//!         &mut self, _t: &SimTime, prev: &R, next: &mut W,
//!     ) {
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

/// The fixed-step simulator of one run: a one-lane [`SimulatorBatch`]
/// plus a [`Frame`] copy of its lane, refreshed on every step. Its
/// subsystems are [`LaneSubsystem`]s, the same step bodies a batch of
/// many runs steps per lane, so one run simulates exactly as it would
/// inside a wider batch.
#[derive(Debug)]
pub struct Simulator {
    batch: SimulatorBatch,
    /// Lane 0 of `batch`'s state.
    state: Frame,
}

impl Simulator {
    /// Creates a simulator with the given tick period in milliseconds
    /// over the given signal namespace.
    ///
    /// # Panics
    ///
    /// Panics if `dt_millis` is zero.
    pub fn new(dt_millis: u64, table: &Arc<SignalTable>) -> Self {
        Self::from_batch(SimulatorBatch::new(dt_millis, table, 1))
    }

    /// Wraps a one-lane batch, such as a substrate's batched builder
    /// returns for a single configuration.
    ///
    /// # Panics
    ///
    /// Panics if `batch` has more than one lane.
    pub fn from_batch(batch: SimulatorBatch) -> Self {
        assert_eq!(batch.lanes(), 1, "a simulator steps one lane");
        let mut state = batch.table().frame();
        batch.state().read_lane_into(0, &mut state);
        Simulator { batch, state }
    }

    /// The shared signal namespace.
    pub fn table(&self) -> &Arc<SignalTable> {
        self.batch.table()
    }

    /// Registers a subsystem (stepped in registration order).
    pub fn add(&mut self, s: impl LaneSubsystem + 'static) {
        self.batch.add(LaneVec::new(vec![s]));
    }

    /// Seeds the state in place: `seed` receives an all-unset frame over
    /// the simulator's table. Call it before the first step.
    pub fn init_with(&mut self, seed: impl FnOnce(&mut Frame)) {
        self.state.clear();
        seed(&mut self.state);
        let state = &self.state;
        self.batch.init_lane_with(0, |lane| {
            for (id, value) in state.iter() {
                lane.set(id, value);
            }
        });
    }

    /// Current tick count.
    pub fn tick(&self) -> u64 {
        self.batch.lane_tick(0)
    }

    /// Tick period in milliseconds.
    pub fn dt_millis(&self) -> u64 {
        self.batch.dt_millis()
    }

    /// Current simulated time in seconds.
    pub fn seconds(&self) -> f64 {
        self.batch.lane_seconds(0)
    }

    /// The current state snapshot.
    pub fn state(&self) -> &Frame {
        &self.state
    }

    /// Advances one tick and returns the new state.
    pub fn step(&mut self) -> &Frame {
        self.batch.step().read_lane_into(0, &mut self.state);
        &self.state
    }

    /// Runs until `ticks` have elapsed or `observer` returns `false`.
    /// The observer sees each new state as it is produced.
    pub fn run(&mut self, ticks: u64, mut observer: impl FnMut(u64, &Frame) -> bool) {
        for _ in 0..ticks {
            self.step();
            if !observer(self.tick(), &self.state) {
                break;
            }
        }
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

/// Named time series for figure reproduction.
///
/// A run's series come from its frame recording, after the run
/// ([`SeriesLog::from_recording`]): the tick loops record frames and
/// never sample. Series are keyed by signal *name*, so reports and
/// figure tooling stay name-addressable.
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
    /// only copied when its series is first created.
    pub fn push(&mut self, name: &str, time_s: f64, value: f64) {
        if let Some(points) = self.series.get_mut(name) {
            points.push((time_s, value));
        } else {
            self.series.insert(name.to_owned(), vec![(time_s, value)]);
        }
    }

    /// The series of the signals `ids` in a run's frame recording, one
    /// per signal name, each point read through [`sample_point`]. A
    /// recording holds the state after tick `k` at sample `k - 1`, so
    /// sample `i` is timed at the simulator clock of tick `i + 1`
    /// ([`Simulator::seconds`]), not at [`FrameTrace::time_s`]`(i)`. A
    /// signal with no numeric sample has no series, and a signal listed
    /// twice has one.
    ///
    /// [`FrameTrace::time_s`]: esafe_logic::FrameTrace::time_s
    pub fn from_recording(trace: &esafe_logic::FrameTrace, ids: &[SignalId]) -> Self {
        let mut log = SeriesLog::new();
        for &id in ids {
            let points: Vec<(f64, f64)> = trace
                .column(id)
                .iter()
                .enumerate()
                .filter_map(|(i, slot)| sample_point(*slot).map(|x| (trace.time_s(i + 1), x)))
                .collect();
            if !points.is_empty() {
                log.series.insert(trace.table().name(id).to_owned(), points);
            }
        }
        log
    }

    /// Appends a batch of pre-collected points to the named series
    /// (creating it if absent); empty batches are skipped so no empty
    /// series appears.
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
/// as themselves, symbolic or unset slots skipped.
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

    impl LaneSubsystem for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn step_lane<R: SignalRead, W: SignalWrite>(
            &mut self,
            _t: &SimTime,
            prev: &R,
            next: &mut W,
        ) {
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
        // Reference: each recorded frame sampled as the live loop saw
        // it, at the simulator clock of the tick that produced it.
        let mut live = SeriesLog::new();
        let mut scratch = table.frame();
        for i in 0..trace.len() {
            trace.read_into(i, &mut scratch);
            let t = SimTime {
                tick: i as u64 + 1,
                dt_millis: 10,
            }
            .seconds();
            for id in [speed, flag] {
                if let Some(x) = sample_point(scratch.get(id)) {
                    live.push(table.name(id), t, x);
                }
            }
        }
        let recorded = SeriesLog::from_recording(&trace, &[speed, flag, speed]);
        assert_eq!(recorded, live, "recording must match live sampling");
        assert_eq!(recorded.series("speed").unwrap().len(), 4);
        assert_eq!(recorded.series("speed").unwrap()[0], (0.01, 0.0));
        // `flag` is unset for the first two samples, then latches true.
        assert_eq!(
            recorded.series("flag").unwrap(),
            &[(0.03, 1.0), (0.04, 1.0)]
        );
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
        let mut trace = esafe_logic::FrameTrace::new(&table, 500);
        trace.push(&frame);
        // Symbolic and unset signals are skipped.
        let log = SeriesLog::from_recording(&trace, &[flag, cmd, none]);
        assert_eq!(log.series("flag").unwrap(), &[(0.5, 1.0)]);
        assert!(log.series("cmd").is_none());
        assert_eq!(log.names().collect::<Vec<_>>(), ["flag"]);
    }
}
