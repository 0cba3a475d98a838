//! The striped batched sweep loop, rebuilt from the layers' public calls
//! so every call can carry a span.
//!
//! This mirrors `Sweep::run_aggregate_batched` for vehicle substrates:
//! the same unit plan (same-template cells in stripes of up to `width`,
//! one-cell tails on the scalar path), the same per-tick order (sim step,
//! in-place probe overlay, suite pass, series sampling, terminal check
//! with its grace window), the same report assembly and the same
//! work-queue scheduling over `available_parallelism` workers. Its
//! aggregate must equal the production entry point's; the workloads
//! check that on every run.
//!
//! Two additions exist only for attribution: each vehicle subsystem is
//! wrapped in a [`Timed`] batch subsystem, and on sampled ticks a
//! [`FusedSuiteBatch`] twin observes the same slab as the suite, so the
//! fused-DAG share can be told apart from the violation trackers
//! (trackers = suite − twin). Twin time is kept in its own buckets and
//! left out of every production total.

use crate::trace::{self, Laps, Layer};
use esafe_harness::{
    AggregateBuilder, Experiment, ExperimentConfig, LaneAllocator, RunContext, RunReport,
    Substrate, SweepAggregate,
};
use esafe_logic::{FrameBatch, FusedSuiteBatch, SignalId};
use esafe_sim::{
    sample_point, BatchSubsystem, LaneMask, LaneVec, SeriesLog, SimTime, SimulatorBatch,
};
use esafe_vehicle::arbiter::Arbiter;
use esafe_vehicle::driver::ScriptedDriver;
use esafe_vehicle::dynamics::HostDynamics;
use esafe_vehicle::features::{
    AdaptiveCruiseControl, CollisionAvoidance, FeatureOutputs, LaneChangeAssist, ParkAssist,
    RearCollisionAvoidance,
};
use esafe_vehicle::VehicleSubstrate;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Ticks between fully traced ticks. Prime, so sampling cannot lock onto
/// a subsystem's 10/20/100-tick periods.
pub const SAMPLE_EVERY: u64 = 13;

/// Exact work of one sweep pass. Must repeat across passes and runs of a
/// seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepWork {
    /// Runs completed.
    pub runs: u64,
    /// Monitored lane-ticks: the sum of every run's ticks.
    pub lane_ticks: u64,
    /// Lane-ticks the stripes carried, active or retired.
    pub stripe_lane_ticks: u64,
    /// Monitored lane-ticks inside stripes.
    pub stripe_active_lane_ticks: u64,
    /// Stripes run.
    pub stripes: u64,
    /// Cells run on the scalar fallback path.
    pub scalar_cells: u64,
}

impl SweepWork {
    fn merge(&mut self, o: SweepWork) {
        self.runs += o.runs;
        self.lane_ticks += o.lane_ticks;
        self.stripe_lane_ticks += o.stripe_lane_ticks;
        self.stripe_active_lane_ticks += o.stripe_active_lane_ticks;
        self.stripes += o.stripes;
        self.scalar_cells += o.scalar_cells;
    }

    /// Lane-ticks stripes carried for runs that had already retired.
    pub fn retired_lane_ticks(&self) -> u64 {
        self.stripe_lane_ticks - self.stripe_active_lane_ticks
    }
}

/// The outcome of one traced sweep pass.
#[derive(Debug)]
pub struct SweepPass {
    /// The order-independent aggregate.
    pub aggregate: SweepAggregate,
    /// Exact work done.
    pub work: SweepWork,
    /// Merged self times of every worker, as lapped.
    pub laps: Laps,
    /// Wall-clock of the pass.
    pub wall: Duration,
    /// Worker threads used.
    pub threads: usize,
}

enum Unit {
    Stripe(Vec<usize>),
    Scalar(usize),
}

/// The production plan: cells group by (table, template, duration)
/// identity in first-seen order, each group chunks into stripes of up to
/// `width`, and one-cell chunks run scalar.
fn plan(subs: &[VehicleSubstrate], width: usize) -> Vec<Unit> {
    let width = width.max(1);
    let mut units = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut by_key: HashMap<(usize, usize, u64), usize> = HashMap::new();
    for (i, sub) in subs.iter().enumerate() {
        match sub.suite_template() {
            None => units.push(Unit::Scalar(i)),
            Some(template) => {
                let key = (
                    Arc::as_ptr(sub.signal_table()) as usize,
                    Arc::as_ptr(template) as usize,
                    sub.duration_ms(),
                );
                let g = *by_key.entry(key).or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                groups[g].push(i);
            }
        }
    }
    for group in groups {
        for chunk in group.chunks(width) {
            units.push(if chunk.len() == 1 {
                Unit::Scalar(chunk[0])
            } else {
                Unit::Stripe(chunk.to_vec())
            });
        }
    }
    units
}

/// Runs every cell through the rebuilt striped loop on the same worker
/// count the production sweep uses, tracing each worker.
///
/// # Errors
///
/// Any run or monitoring error, as text (the benchmark's workloads have
/// none).
pub fn run_sweep(
    subs: &[VehicleSubstrate],
    config: ExperimentConfig,
    width: usize,
) -> Result<SweepPass, String> {
    let units = plan(subs, width);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(units.len())
        .max(1);
    let next = AtomicUsize::new(0);
    type WorkerResult = Result<(AggregateBuilder, SweepWork, Laps), String>;
    let results: Mutex<Vec<WorkerResult>> = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                trace::restart();
                let mut agg = AggregateBuilder::new();
                let mut work = SweepWork::default();
                let outcome = loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(unit) = units.get(i) else {
                        break Ok(());
                    };
                    let step = match unit {
                        Unit::Stripe(lanes) => run_stripe(config, subs, lanes, &mut agg, &mut work),
                        Unit::Scalar(i) => run_scalar(config, &subs[*i], &mut agg, &mut work),
                    };
                    if let Err(e) = step {
                        break Err(e);
                    }
                };
                let laps = trace::take();
                results
                    .lock()
                    .expect("a worker panicked while reporting")
                    .push(outcome.map(|()| (agg, work, laps)));
            });
        }
    });
    let wall = started.elapsed();
    let mut agg = AggregateBuilder::new();
    let mut work = SweepWork::default();
    let mut laps = Laps::default();
    for result in results.into_inner().expect("workers joined") {
        let (a, w, l) = result?;
        agg.merge(a);
        work.merge(w);
        laps.merge(&l);
    }
    Ok(SweepPass {
        aggregate: agg.finish(),
        work,
        laps,
        wall,
        threads,
    })
}

fn run_scalar(
    config: ExperimentConfig,
    sub: &VehicleSubstrate,
    agg: &mut AggregateBuilder,
    work: &mut SweepWork,
) -> Result<(), String> {
    trace::lap(Layer::UnitOther);
    let (report, _) = Experiment::new(sub)
        .with_config(config)
        .run_in(&mut RunContext::new())
        .map_err(|e| format!("scalar cell `{}` failed: {e}", sub.label()))?;
    trace::lap(Layer::ScalarCell);
    work.runs += 1;
    work.scalar_cells += 1;
    work.lane_ticks += report.ticks;
    agg.absorb(&report);
    trace::lap(Layer::Aggregate);
    Ok(())
}

/// Per-lane run state, as the production stripe keeps it.
struct Lane<'s> {
    tracked: &'s [SignalId],
    buffers: Vec<Vec<(f64, f64)>>,
    buffered: bool,
    series: SeriesLog,
    terminal_tick: Option<u64>,
    terminal_event: Option<String>,
    terminated_early: bool,
}

impl<'s> Lane<'s> {
    fn new(substrate: &'s VehicleSubstrate) -> Self {
        let tracked = substrate.tracked_signals();
        let mut ids = tracked.to_vec();
        ids.sort_unstable();
        ids.dedup();
        let buffered = ids.len() == tracked.len();
        Lane {
            tracked,
            buffers: if buffered {
                tracked.iter().map(|_| Vec::new()).collect()
            } else {
                Vec::new()
            },
            buffered,
            series: SeriesLog::new(),
            terminal_tick: None,
            terminal_event: None,
            terminated_early: false,
        }
    }
}

fn run_stripe(
    config: ExperimentConfig,
    subs: &[VehicleSubstrate],
    lanes_idx: &[usize],
    agg: &mut AggregateBuilder,
    work: &mut SweepWork,
) -> Result<(), String> {
    trace::lap(Layer::UnitOther);
    let width = lanes_idx.len();
    let group: Vec<&VehicleSubstrate> = lanes_idx.iter().map(|&i| &subs[i]).collect();
    let template = Arc::clone(
        group[0]
            .suite_template()
            .expect("planned stripes carry a template"),
    );
    let mut lanes: Vec<Lane<'_>> = group.iter().map(|s| Lane::new(s)).collect();
    let mut occupancy = LaneAllocator::new(width);
    for _ in 0..width {
        occupancy.claim();
    }
    let mut sim = timed_vehicle_batch(&group);
    let dt = sim.dt_millis();
    let table = Arc::clone(group[0].signal_table());
    let mut raw = table.frame();
    let mut observed = table.frame();
    let scheduled_ticks = group[0].duration_ms().div_ceil(dt);
    let post_terminal_ticks = config.post_terminal_ms.div_ceil(dt);
    trace::lap(Layer::StripeSetup);
    let mut batch = template.instantiate_batch(width);
    trace::lap(Layer::TemplateInstantiate);
    let mut twin: FusedSuiteBatch = template.fused_program().instantiate_batch(width);
    trace::lap(Layer::TwinSetup);

    let mut stripe_ticks = 0u64;
    for tick in 1..=scheduled_ticks {
        let sampled = tick % SAMPLE_EVERY == 0;
        if sampled {
            trace::lap(Layer::Unsampled);
            trace::set_sampling(true);
        }
        sim.step();
        trace::lap_sampled(Layer::SimRefresh);
        for (l, sub) in group.iter().enumerate() {
            if occupancy.is_claimed(l) {
                sub.observe_lane(sim.state_mut(), l, &mut raw, &mut observed);
            }
        }
        trace::lap_sampled(Layer::Probe);
        // The twin observes sampled ticks only: its verdicts are never
        // read, and a DAG pass costs the same whatever history it holds.
        // It also observes, untimed, the tick before each sampled one, so
        // its own state is as warm in cache as the suite's. Alternate
        // which engine reads the slab first, so neither always finds the
        // slab warm.
        if (tick + 1).is_multiple_of(SAMPLE_EVERY) {
            trace::lap(Layer::Unsampled);
            observe_twin(&mut twin, sim.state())?;
            trace::lap(Layer::TwinSetup);
        }
        let twin_first = sampled && (tick / SAMPLE_EVERY) % 2 == 1;
        if twin_first {
            observe_twin(&mut twin, sim.state())?;
            trace::lap(Layer::Twin);
        }
        batch
            .observe_slab(sim.state())
            .map_err(|e| format!("stripe monitoring failed: {e}"))?;
        trace::lap_sampled(Layer::Suite);
        if sampled && !twin_first {
            observe_twin(&mut twin, sim.state())?;
            trace::lap(Layer::Twin);
        }
        for (l, lane) in lanes.iter_mut().enumerate() {
            if !occupancy.is_claimed(l) {
                continue;
            }
            let t = sim.lane_seconds(l);
            if lane.buffered {
                for (buffer, &id) in lane.buffers.iter_mut().zip(lane.tracked) {
                    if let Some(x) = sample_point(sim.state().get(id, l)) {
                        buffer.push((t, x));
                    }
                }
            } else {
                for &id in lane.tracked {
                    if let Some(x) = sample_point(sim.state().get(id, l)) {
                        lane.series.push(table.name(id), t, x);
                    }
                }
            }
        }
        trace::lap_sampled(Layer::Series);
        for (l, lane) in lanes.iter_mut().enumerate() {
            if !occupancy.is_claimed(l) {
                continue;
            }
            if lane.terminal_tick.is_none() {
                if let Some(event) = group[l].terminal_event_lane(sim.state(), l, &mut raw) {
                    lane.terminal_tick = Some(tick);
                    lane.terminal_event = Some(event.to_owned());
                }
            }
            if let Some(at) = lane.terminal_tick {
                if tick >= at + post_terminal_ticks {
                    lane.terminated_early = tick < scheduled_ticks;
                    occupancy.release(l);
                    batch.retire_lane(l);
                    twin.retire_lane(l);
                    sim.retire_lane(l);
                }
            }
        }
        trace::lap_sampled(Layer::Terminal);
        stripe_ticks += 1;
        let drained = occupancy.in_use() == 0;
        if sampled {
            trace::lap(Layer::TickOther);
            trace::set_sampling(false);
        }
        if drained {
            break;
        }
    }
    trace::lap(Layer::Unsampled);
    batch.finish();
    trace::lap(Layer::Trackers);

    let window_ticks = config.correlation_window_ms.div_ceil(dt);
    for (l, lane) in lanes.into_iter().enumerate() {
        let substrate = group[l];
        let correlation = batch.correlate_lane(l, window_ticks);
        let violations = batch.take_violations_lane(l);
        let mut series = lane.series;
        for (buffer, &id) in lane.buffers.into_iter().zip(lane.tracked) {
            series.append_points(substrate.signal_table().name(id), buffer);
        }
        let report = RunReport {
            substrate: substrate.name().to_owned(),
            label: substrate.label(),
            config,
            dt_millis: dt,
            scheduled_ticks,
            ticks: sim.lane_tick(l),
            end_time_s: sim.lane_seconds(l),
            terminated_early: lane.terminated_early,
            terminal_event: lane.terminal_event,
            violations,
            correlation,
            series,
            trace: None,
        };
        trace::lap(Layer::Correlate);
        work.runs += 1;
        work.lane_ticks += report.ticks;
        work.stripe_active_lane_ticks += report.ticks;
        agg.absorb(&report);
        trace::lap(Layer::Aggregate);
    }
    work.stripes += 1;
    work.stripe_lane_ticks += stripe_ticks * width as u64;
    Ok(())
}

fn observe_twin(twin: &mut FusedSuiteBatch, slab: &FrameBatch) -> Result<(), String> {
    twin.observe_slab(slab)
        .map_err(|e| format!("fused twin failed: {e:?}"))
}

/// A batch subsystem whose step is charged to its own layer. The first
/// subsystem of a step also closes the slab refresh that precedes it.
struct Timed<B> {
    inner: B,
    layer: Layer,
    first: bool,
}

impl<B: BatchSubsystem> BatchSubsystem for Timed<B> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn step_batch(
        &mut self,
        t: &SimTime,
        prev: &FrameBatch,
        next: &mut FrameBatch,
        lanes: &LaneMask,
    ) {
        if self.first {
            trace::lap_sampled(Layer::SimRefresh);
        }
        self.inner.step_batch(t, prev, next, lanes);
        trace::lap_sampled(self.layer);
    }
}

fn timed<B: BatchSubsystem>(inner: B, layer: Layer) -> Timed<B> {
    Timed {
        inner,
        layer,
        first: layer == Layer::SimDriver,
    }
}

/// The vehicle substrate's native batched simulator
/// (`esafe_vehicle::builder::build_vehicle_batch`), assembled from the
/// same subsystems in the same order with the same lane seeding, each
/// wrapped in a [`Timed`] subsystem.
fn timed_vehicle_batch(group: &[&VehicleSubstrate]) -> SimulatorBatch {
    let first = group[0];
    let sigs = *first.sigs();
    let n = group.len();
    let mut sim = SimulatorBatch::new(1, first.signal_table(), n);
    sim.add(timed(
        LaneVec::from_fn(n, |l| {
            ScriptedDriver::new(group[l].params, sigs, group[l].script.clone())
        }),
        Layer::SimDriver,
    ));
    sim.add(timed(
        LaneVec::from_fn(n, |l| {
            CollisionAvoidance::new(group[l].params, group[l].defects, sigs)
        }),
        Layer::SimCa,
    ));
    sim.add(timed(
        LaneVec::from_fn(n, |l| {
            RearCollisionAvoidance::new(group[l].params, group[l].defects, sigs)
        }),
        Layer::SimRca,
    ));
    sim.add(timed(
        LaneVec::from_fn(n, |l| {
            ParkAssist::new(group[l].params, group[l].defects, sigs)
        }),
        Layer::SimPa,
    ));
    sim.add(timed(
        LaneVec::from_fn(n, |l| {
            LaneChangeAssist::new(group[l].params, group[l].defects, sigs)
        }),
        Layer::SimLca,
    ));
    sim.add(timed(
        LaneVec::from_fn(n, |l| {
            AdaptiveCruiseControl::new(group[l].params, group[l].defects, sigs)
        }),
        Layer::SimAcc,
    ));
    sim.add(timed(
        LaneVec::from_fn(n, |l| Arbiter::new(group[l].params, group[l].defects, sigs)),
        Layer::SimArbiter,
    ));
    sim.add(timed(
        LaneVec::from_fn(n, |l| {
            HostDynamics::new(group[l].params, group[l].defects, group[l].scene, sigs)
        }),
        Layer::SimDynamics,
    ));
    for (l, sub) in group.iter().enumerate() {
        sim.init_lane_with(l, |frame| {
            HostDynamics::seed(frame, &sigs, &sub.scene);
            ScriptedDriver::seed(frame, &sigs);
            Arbiter::seed(frame, &sigs);
            for f in &sigs.features {
                FeatureOutputs::seed(frame, f);
            }
        });
    }
    sim
}
