//! Lap-clock spans for the traced runs.
//!
//! A traced run times its calls into each layer with one clock per
//! worker thread: [`lap`] charges the time since the thread's previous
//! lap to a [`Layer`]. Consecutive laps give every layer its *self* time
//! directly (a parent's self time is what remains between its
//! children's laps), and a worker's layer totals add up to its busy time
//! exactly, which is what the closure check relies on. Totals stay in
//! memory and are merged when the workers join.
//!
//! A clock read costs tens of nanoseconds, so the hottest loops lap only
//! on sampled iterations and charge the iterations in between to
//! [`Layer::Unsampled`], which [`Laps::spread_unsampled`] later shares
//! out in proportion to the sampled split.

use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Every timed bucket of every workload. Names match the per-layer
/// metrics they feed (see the benchmark's README).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    // Striped sweeps (grid, mega).
    UnitOther,
    StripeSetup,
    TemplateInstantiate,
    TwinSetup,
    SimRefresh,
    SimDriver,
    SimCa,
    SimRca,
    SimPa,
    SimLca,
    SimAcc,
    SimArbiter,
    SimDynamics,
    Probe,
    Suite,
    Twin,
    Series,
    Terminal,
    TickOther,
    Unsampled,
    Trackers,
    Correlate,
    Aggregate,
    ScalarCell,
    // Serve.
    Control,
    Wave,
    Forward,
    WireDecode,
    Consumer,
    Fill,
    Observe,
    Drain,
    TwinOther,
    // Corpus.
    RecordRun,
    Encode,
    Finish,
    RecordOther,
    Open,
    Compile,
    CorpusDecode,
    CorpusObserve,
    ReplayOther,
    /// The clock reads themselves (see [`Laps::remove_clock_cost`]).
    Clock,
}

/// Number of [`Layer`] buckets.
pub const LAYERS: usize = Layer::Clock as usize + 1;

/// The tick-loop layers of a stripe: the buckets [`Layer::Unsampled`]
/// time is shared out over.
pub const TICK_LAYERS: [Layer; 16] = [
    Layer::SimRefresh,
    Layer::SimDriver,
    Layer::SimCa,
    Layer::SimRca,
    Layer::SimPa,
    Layer::SimLca,
    Layer::SimAcc,
    Layer::SimArbiter,
    Layer::SimDynamics,
    Layer::Probe,
    Layer::Suite,
    Layer::Twin,
    Layer::Series,
    Layer::Terminal,
    Layer::TickOther,
    Layer::Unsampled,
];

/// Per-layer self-time totals, nanoseconds, with the lap count behind
/// each.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Laps {
    ns: [f64; LAYERS],
    laps: [u64; LAYERS],
}

impl Default for Laps {
    fn default() -> Self {
        Laps {
            ns: [0.0; LAYERS],
            laps: [0; LAYERS],
        }
    }
}

impl Laps {
    /// A layer's total, nanoseconds.
    pub fn ns(&self, layer: Layer) -> f64 {
        self.ns[layer as usize]
    }

    /// Sum of several layers, nanoseconds.
    pub fn sum(&self, layers: &[Layer]) -> f64 {
        layers.iter().map(|&l| self.ns(l)).sum()
    }

    /// Every bucket, nanoseconds: the busy time of the workers merged in.
    pub fn total(&self) -> f64 {
        self.ns.iter().sum()
    }

    /// Adds another worker's totals.
    pub fn merge(&mut self, other: &Laps) {
        for (a, b) in self.ns.iter_mut().zip(other.ns) {
            *a += b;
        }
        for (a, b) in self.laps.iter_mut().zip(other.laps) {
            *a += b;
        }
    }

    /// Every lap's interval includes one clock read: moves `cost_ns` per
    /// lap out of each layer into [`Layer::Clock`], so small spans are
    /// not inflated by the measurement while the totals still add up.
    pub fn remove_clock_cost(&mut self, cost_ns: f64) {
        for i in 0..LAYERS - 1 {
            let take = (cost_ns * self.laps[i] as f64).min(self.ns[i]);
            self.ns[i] -= take;
            self.ns[Layer::Clock as usize] += take;
        }
    }

    /// Extrapolates the sampled tick-loop layers to every tick: scales
    /// them by (sampled + unsampled production time) ÷ sampled production
    /// time and clears [`Layer::Unsampled`]. The twin observes sampled
    /// ticks only, so it scales with the rest but counts in neither sum;
    /// the result estimates its cost had it run on every tick.
    pub fn spread_unsampled(&mut self) {
        let unsampled = self.ns(Layer::Unsampled);
        let sampled: f64 = TICK_LAYERS
            .iter()
            .filter(|&&l| l != Layer::Twin && l != Layer::Unsampled)
            .map(|&l| self.ns(l))
            .sum();
        if sampled <= 0.0 {
            return;
        }
        let factor = (sampled + unsampled) / sampled;
        for &l in &TICK_LAYERS[..TICK_LAYERS.len() - 1] {
            self.ns[l as usize] *= factor;
        }
        self.ns[Layer::Unsampled as usize] = 0.0;
    }
}

struct Clock {
    last: Instant,
    laps: Laps,
}

thread_local! {
    static CLOCK: RefCell<Clock> = RefCell::new(Clock {
        last: Instant::now(),
        laps: Laps::default(),
    });
    static SAMPLING: Cell<bool> = const { Cell::new(false) };
}

/// Charges the time since this thread's previous lap to `layer`.
#[inline]
pub fn lap(layer: Layer) {
    let now = Instant::now();
    CLOCK.with(|c| {
        let mut c = c.borrow_mut();
        let elapsed = now.duration_since(c.last).as_nanos() as f64;
        c.laps.ns[layer as usize] += elapsed;
        c.laps.laps[layer as usize] += 1;
        c.last = now;
    });
}

/// [`lap`], but only while the current iteration is sampled.
#[inline]
pub fn lap_sampled(layer: Layer) {
    if SAMPLING.with(Cell::get) {
        lap(layer);
    }
}

/// Marks the current iteration as sampled (or not) for [`lap_sampled`].
#[inline]
pub fn set_sampling(on: bool) {
    SAMPLING.with(|s| s.set(on));
}

/// Restarts this thread's clock without charging the time since the
/// previous lap to any layer (time spent waiting on other threads).
pub fn skip() {
    CLOCK.with(|c| c.borrow_mut().last = Instant::now());
}

/// Clears this thread's totals and restarts its clock.
pub fn restart() {
    CLOCK.with(|c| {
        let mut c = c.borrow_mut();
        c.laps = Laps::default();
        c.last = Instant::now();
    });
    set_sampling(false);
}

/// Takes this thread's totals, leaving it cleared.
pub fn take() -> Laps {
    CLOCK.with(|c| std::mem::take(&mut c.borrow_mut().laps))
}

/// The cost of one [`lap`], nanoseconds, measured once per process.
pub fn lap_cost_ns() -> f64 {
    static COST: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *COST.get_or_init(|| {
        const N: u64 = 200_000;
        let saved = take();
        restart();
        for _ in 0..N {
            lap(Layer::Clock);
        }
        let cost = take().ns(Layer::Clock) / N as f64;
        CLOCK.with(|c| c.borrow_mut().laps = saved);
        skip();
        cost
    })
}
