//! The `grid` and `mega` workloads: striped batched sweeps through
//! `grid::run_parallel_aggregate` and `mega::run_mega_aggregate`.

use crate::stats::{throughput, SplitMix};
use crate::stripe::{run_sweep, SweepPass, SweepWork};
use crate::trace::Layer;
use crate::{
    repeat_for, same_aggregate, same_work, timed_setup, Args, Outcome, CLOSURE_MIN_PAIRS,
    MIN_PASSES, TRACE_MIN_PASSES,
};
use esafe_harness::{cell_seed, SweepAggregate, SweepStats, DEFAULT_BATCH_WIDTH};
use esafe_scenarios::{grid, mega, runner};
use esafe_vehicle::{VehicleFamily, VehicleSubstrate};
use std::time::Instant;

/// The committed thesis-grid aggregate the `grid` workload must
/// reproduce, read from `BENCH_grid.json` at the repository root.
#[derive(Debug, serde::Deserialize)]
struct GridBench {
    aggregate: CommittedAggregate,
}

#[derive(Debug, serde::Deserialize)]
struct CommittedAggregate {
    runs: usize,
    terminated_early: usize,
    terminal_events: usize,
    hits: usize,
    false_negatives: usize,
    false_positives: usize,
    violations_by_monitor: Vec<(String, usize)>,
}

fn committed_grid_aggregate() -> Result<SweepAggregate, String> {
    let text = std::fs::read_to_string("BENCH_grid.json")
        .map_err(|e| format!("cannot read BENCH_grid.json at the repository root: {e}"))?;
    let bench: GridBench =
        serde_json::from_str(&text).map_err(|e| format!("BENCH_grid.json: {e}"))?;
    let a = bench.aggregate;
    Ok(SweepAggregate {
        runs: a.runs,
        terminated_early: a.terminated_early,
        terminal_events: a.terminal_events,
        hits: a.hits,
        false_negatives: a.false_negatives,
        false_positives: a.false_positives,
        violations_by_monitor: a.violations_by_monitor,
        quarantined: Vec::new(),
        retries: 0,
    })
}

/// Mega-grid cells per defect configuration in the uniform stratum.
const MEGA_PER_CONFIG: usize = 64;
/// Extra cells drawn from the short-headway corner, where runs collide.
const MEGA_CORNER: usize = 128;
/// The fixed stripe width of the `mega` workload.
const MEGA_WIDTH: usize = 128;

/// A seeded stratified draw from the mega-grid, as sorted indices into
/// `all` (so stripes keep the grid's cell order): `per_config` uniform
/// draws among each defect configuration's cells, then `extra` more among
/// the cells `corner` selects that were not drawn yet.
pub fn stratified_sample(
    all: &[mega::MegaCell],
    rng: &mut SplitMix,
    per_config: usize,
    extra: usize,
    corner: impl Fn(&mega::MegaCell) -> bool,
) -> Vec<usize> {
    let mut chosen = vec![false; all.len()];
    for (config, _) in grid::ablation_configs() {
        let members: Vec<usize> = (0..all.len())
            .filter(|&i| all[i].config == config)
            .collect();
        for k in rng.sample(members.len(), per_config.min(members.len())) {
            chosen[members[k]] = true;
        }
    }
    let pool: Vec<usize> = (0..all.len())
        .filter(|&i| !chosen[i] && corner(&all[i]))
        .collect();
    for k in rng.sample(pool.len(), extra.min(pool.len())) {
        chosen[pool[k]] = true;
    }
    (0..all.len()).filter(|&i| chosen[i]).collect()
}

/// Whether a mega cell lies in the short-headway corner (headway ≤ 8 m,
/// lead speed ≤ 0.5 m/s, throttle ≥ 0.2) where the defective
/// configurations collide and end early.
pub fn short_headway(cell: &mega::MegaCell) -> bool {
    cell.headway_m <= 8.0 && cell.lead_speed <= 0.5 && cell.throttle >= 0.2
}

/// The `mega` workload's seeded 1024-cell sample: 64 uniform draws per
/// defect configuration plus 128 from the short-headway corner.
pub fn mega_sample(seed: u64) -> Vec<usize> {
    let all = mega::mega_grid();
    let mut rng = SplitMix::new(seed, 0x6d65_6761);
    stratified_sample(&all, &mut rng, MEGA_PER_CONFIG, MEGA_CORNER, short_headway)
}

/// What a sweep workload's set-up produced and measured.
struct Prepared {
    /// The cells as built substrates, for the rebuilt loop.
    subs: Vec<VehicleSubstrate>,
    /// Suite compile time, milliseconds.
    compile_ms: f64,
    /// Median set-up time, seconds.
    setup_s: f64,
}

/// Checks the work a production pass reports of itself in its
/// `SweepStats`: one run per cell, a suite instantiated from the template
/// for every striped lane, and the same number of suite compiles as the
/// first pass. Lane-ticks, stripes and retired lanes are not exposed by
/// the production path; the rebuilt loop counts those.
fn check_stats(
    name: &str,
    work: &SweepWork,
    first: &mut Option<SweepStats>,
    stats: SweepStats,
) -> Result<(), String> {
    let striped = work.runs - work.scalar_cells;
    if stats.runs() as u64 != work.runs || (stats.suites_instantiated as u64) < striped {
        return Err(format!(
            "{name} production reported {} runs ({} compiled, {} instantiated, {} reused); \
             the cells need {} runs, {striped} of them striped",
            stats.runs(),
            stats.suites_compiled,
            stats.suites_instantiated,
            stats.suites_reused,
            work.runs
        ));
    }
    match first {
        Some(first) => same_work(
            &format!("{name} production suite compiles"),
            &first.suites_compiled,
            &stats.suites_compiled,
        ),
        None => {
            *first = Some(stats);
            Ok(())
        }
    }
}

/// The end-to-end or traced measurement shared by both sweeps.
/// `production(n)` runs one pass through the production entry point over
/// the first `n` of the cells `prepared` holds as substrates; `expected`
/// is a committed aggregate a full pass must reproduce, if there is one.
fn measure(
    args: &Args,
    name: &str,
    width: usize,
    prepared: Prepared,
    expected: Option<SweepAggregate>,
    mut production: impl FnMut(usize) -> Result<(SweepAggregate, SweepStats), String>,
) -> Result<Outcome, String> {
    let Prepared {
        subs,
        compile_ms,
        setup_s,
    } = prepared;
    let config = runner::thesis_config();
    // Reference verdicts and exact work, outside every timed phase.
    let reference = run_sweep(&subs, config, width)?;
    // Untraced runs need the substrates no more; dropping them keeps
    // them out of the memory high-water mark.
    let subs = if args.trace { subs } else { Vec::new() };
    let expected = match expected {
        Some(committed) => {
            same_aggregate(
                &format!("{name} rebuilt loop vs committed"),
                &committed,
                &reference.aggregate,
            )?;
            committed
        }
        None => reference.aggregate.clone(),
    };
    let work = reference.work;
    println!(
        "{name}: {} runs, {} lane-ticks, {} stripes, {} scalar cells, {} retired lane-ticks, \
         {} early terminations",
        work.runs,
        work.lane_ticks,
        work.stripes,
        work.scalar_cells,
        work.retired_lane_ticks(),
        expected.terminated_early
    );

    let mut walls = Vec::new();
    let mut traced = Vec::new();
    let (seconds, min) = if args.trace {
        (args.seconds / 2.0, TRACE_MIN_PASSES)
    } else {
        (args.seconds, MIN_PASSES)
    };
    let cells = work.runs as usize;
    let mut kernel_rates = Vec::new();
    let mut first_stats = None;
    crate::begin_timed_phase();
    // The same calibration pause precedes every pass, so neither pass of
    // a pair starts with warmer caches.
    let traced_pass = |kernel_rates: &mut Vec<f64>| -> Result<SweepPass, String> {
        kernel_rates.push(crate::calib::speed());
        let pass = run_sweep(&subs, config, width)?;
        same_aggregate(&format!("{name} traced"), &expected, &pass.aggregate)?;
        same_work(name, &work, &pass.work)?;
        Ok(pass)
    };
    repeat_for(seconds, min, || {
        // Pairs alternate which pass goes first, so a drift of the host's
        // speed favours neither.
        let traced_first = args.trace && walls.len() % 2 == 1;
        if traced_first {
            traced.push(traced_pass(&mut kernel_rates)?);
        }
        kernel_rates.push(crate::calib::speed());
        let started = Instant::now();
        let (aggregate, stats) = production(cells)?;
        walls.push(started.elapsed().as_secs_f64());
        same_aggregate(&format!("{name} production"), &expected, &aggregate)?;
        check_stats(name, &work, &mut first_stats, stats)?;
        if args.trace && !traced_first {
            traced.push(traced_pass(&mut kernel_rates)?);
        }
        Ok(())
    })?;

    let tps: Vec<f64> = walls.iter().map(|w| work.lane_ticks as f64 / w).collect();
    crate::print_passes(name, &tps);
    if let Some(stats) = first_stats {
        println!(
            "{name}: production suites per pass: {} compiled, {} instantiated, {} reused",
            stats.suites_compiled, stats.suites_instantiated, stats.suites_reused
        );
    }
    let ticks_per_s = throughput(work.lane_ticks as f64, &walls);
    println!(
        "{name}: {} untraced passes, ticks_per_s {ticks_per_s:.0} (passes from {:.0} to {:.0}), \
         failed_share 0 of {} cells",
        walls.len(),
        tps.iter().copied().fold(f64::INFINITY, f64::min),
        tps.iter().copied().fold(0.0, f64::max),
        work.runs
    );
    let mut outcome = Outcome {
        attempted: work.runs * walls.len() as u64,
        failed: 0,
        kernel_rates,
        ..Outcome::default()
    };
    if !args.trace {
        outcome.end_to_end = vec![("setup_s", setup_s), ("ticks_per_s", ticks_per_s)];
        return Ok(outcome);
    }
    let (untraced, equivalent) =
        closure_pairs(args.seconds / 2.0, name, width, &subs, &mut production)?;
    outcome.layers = sweep_layers(&traced, &work, &untraced, &equivalent, compile_ms);
    Ok(outcome)
}

/// A traced pass's production time: its wall time less the twin's share
/// of the workers' busy time.
fn equivalent_wall(pass: &SweepPass) -> f64 {
    let mut laps = pass.laps;
    laps.remove_clock_cost(crate::trace::lap_cost_ns());
    let busy = laps.total();
    let twin = laps.sum(&[Layer::Twin, Layer::TwinSetup]);
    pass.wall.as_secs_f64() * (busy - twin) / busy
}

/// The closure check's pairs: a production pass and a traced pass over
/// the first two stripes' cells (one stripe per worker), alternating
/// which goes first, until `seconds` have passed and at least
/// [`CLOSURE_MIN_PAIRS`] pairs have run. Short pairs sit close in time,
/// so the host's speed swings hit both passes of a pair alike. Returns
/// the untraced times and the traced passes' production times.
fn closure_pairs(
    seconds: f64,
    name: &str,
    width: usize,
    subs: &[VehicleSubstrate],
    production: &mut impl FnMut(usize) -> Result<(SweepAggregate, SweepStats), String>,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let cells = (2 * width).min(subs.len());
    let config = runner::thesis_config();
    let reference = run_sweep(&subs[..cells], config, width)?;
    let what = format!("{name} closure slice");
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    repeat_for(seconds, CLOSURE_MIN_PAIRS, || {
        let traced_first = untraced.len() % 2 == 1;
        for traced_turn in [traced_first, !traced_first] {
            if traced_turn {
                let pass = run_sweep(&subs[..cells], config, width)?;
                same_aggregate(&what, &reference.aggregate, &pass.aggregate)?;
                same_work(&what, &reference.work, &pass.work)?;
                traced.push(equivalent_wall(&pass));
            } else {
                let started = Instant::now();
                let (aggregate, _) = production(cells)?;
                untraced.push(started.elapsed().as_secs_f64());
                same_aggregate(&what, &reference.aggregate, &aggregate)?;
            }
        }
        Ok(())
    })?;
    Ok((untraced, traced))
}

/// The per-layer metrics of a set of traced sweep passes.
fn sweep_layers(
    passes: &[SweepPass],
    work: &SweepWork,
    untraced: &[f64],
    equivalent: &[f64],
    compile_ms: f64,
) -> Vec<(&'static str, f64)> {
    let mut laps = crate::trace::Laps::default();
    let mut busy_wall = 0.0;
    let clock = crate::trace::lap_cost_ns();
    for pass in passes {
        let mut raw = pass.laps;
        raw.remove_clock_cost(clock);
        busy_wall += pass.wall.as_secs_f64() * 1e9 * pass.threads as f64;
        laps.merge(&raw);
    }
    let clock_share = laps.ns(Layer::Clock) / laps.total();
    let parallel_efficiency = laps.total() / busy_wall;
    laps.spread_unsampled();
    let n = passes.len() as f64;
    let lt = work.lane_ticks as f64 * n;
    let runs = work.runs as f64 * n;
    let stripes = (work.stripes as f64 * n).max(1.0);
    let per_lt = |layers: &[Layer]| laps.sum(layers) / lt;
    let sim = [
        Layer::SimRefresh,
        Layer::SimDriver,
        Layer::SimCa,
        Layer::SimRca,
        Layer::SimPa,
        Layer::SimLca,
        Layer::SimAcc,
        Layer::SimArbiter,
        Layer::SimDynamics,
    ];
    let production = laps.total() - laps.sum(&[Layer::Twin, Layer::TwinSetup, Layer::Clock]);
    let overhead = crate::closure(
        &format!(
            "traced layers {:.1} ns per lane-tick of worker time, clock reads {:.2}% of it",
            production / lt,
            clock_share * 100.0
        ),
        untraced,
        equivalent,
    );
    vec![
        ("template.compile_ms", compile_ms),
        (
            "template.instantiate_us",
            laps.ns(Layer::TemplateInstantiate) / stripes / 1e3,
        ),
        ("sim.step_ns", per_lt(&sim)),
        ("sim.driver_ns", per_lt(&[Layer::SimDriver])),
        ("sim.ca_ns", per_lt(&[Layer::SimCa])),
        ("sim.rca_ns", per_lt(&[Layer::SimRca])),
        ("sim.pa_ns", per_lt(&[Layer::SimPa])),
        ("sim.lca_ns", per_lt(&[Layer::SimLca])),
        ("sim.acc_ns", per_lt(&[Layer::SimAcc])),
        ("sim.arbiter_ns", per_lt(&[Layer::SimArbiter])),
        ("sim.dynamics_ns", per_lt(&[Layer::SimDynamics])),
        ("sim.refresh_ns", per_lt(&[Layer::SimRefresh])),
        ("probe.ns", per_lt(&[Layer::Probe])),
        ("dag.ns", per_lt(&[Layer::Twin])),
        (
            "trackers.ns",
            (laps.ns(Layer::Suite) - laps.ns(Layer::Twin) + laps.ns(Layer::Trackers)) / lt,
        ),
        (
            "correlate.us_per_run",
            laps.ns(Layer::Correlate) / runs / 1e3,
        ),
        ("stripe.series_ns", per_lt(&[Layer::Series])),
        ("stripe.terminal_ns", per_lt(&[Layer::Terminal])),
        (
            "stripe.setup_us",
            laps.ns(Layer::StripeSetup) / stripes / 1e3,
        ),
        (
            "stripe.other_ns",
            per_lt(&[Layer::TickOther, Layer::UnitOther, Layer::ScalarCell]),
        ),
        (
            "stripe.lane_occupancy",
            work.stripe_active_lane_ticks as f64 / (work.stripe_lane_ticks.max(1)) as f64,
        ),
        ("stripe.count", work.stripes as f64),
        ("stripe.scalar_cells", work.scalar_cells as f64),
        (
            "sweep.aggregate_us_per_run",
            laps.ns(Layer::Aggregate) / runs / 1e3,
        ),
        ("sweep.parallel_efficiency", parallel_efficiency),
        ("work.units", work.runs as f64),
        ("work.ticks", work.lane_ticks as f64),
        ("work.retired_lane_ticks", work.retired_lane_ticks() as f64),
        ("work.failed_share", 0.0),
        ("trace.overhead_share", overhead),
    ]
}

/// Builds the vehicle family and times its suite compile, milliseconds.
pub fn compiled_family() -> (VehicleFamily, f64) {
    let started = Instant::now();
    let family = VehicleFamily::default();
    (family, started.elapsed().as_secs_f64() * 1e3)
}

/// The `grid` workload: the thesis's 140-cell evaluation. The grid is
/// fixed, so the seed has no effect.
///
/// # Errors
///
/// A failed check or run, as text.
pub fn grid(args: &Args) -> Result<Outcome, String> {
    let ((cells, subs, compile_ms), setup_s) = timed_setup(|| {
        let (family, compile_ms) = compiled_family();
        let cells = grid::full_grid();
        let subs = cells
            .iter()
            .enumerate()
            .map(|(i, c)| grid::build_cell_in(&family, c, cell_seed(0, i)))
            .collect();
        Ok((cells, subs, compile_ms))
    })?;
    let committed = committed_grid_aggregate()?;
    println!(
        "grid: the 140-cell evaluation is fixed; seed {} has no effect",
        args.seed
    );
    let prepared = Prepared {
        subs,
        compile_ms,
        setup_s,
    };
    measure(
        args,
        "grid",
        DEFAULT_BATCH_WIDTH,
        prepared,
        Some(committed),
        |n| {
            grid::run_parallel_aggregate(cells[..n].to_vec())
                .map_err(|e| format!("grid sweep failed: {e}"))
        },
    )
}

/// The `mega` workload: a seeded 1024-cell sample of the mega-grid at a
/// fixed stripe width of 128.
///
/// # Errors
///
/// A failed check or run, as text.
pub fn mega(args: &Args) -> Result<Outcome, String> {
    let ((cells, subs, compile_ms), setup_s) = timed_setup(|| {
        let (family, compile_ms) = compiled_family();
        let all = mega::mega_grid();
        let cells: Vec<mega::MegaCell> = mega_sample(args.seed)
            .into_iter()
            .map(|i| all[i].clone())
            .collect();
        let subs = cells
            .iter()
            .enumerate()
            .map(|(i, c)| mega::build_mega_cell_in(&family, c, cell_seed(0, i)))
            .collect();
        Ok((cells, subs, compile_ms))
    })?;
    let prepared = Prepared {
        subs,
        compile_ms,
        setup_s,
    };
    measure(args, "mega", MEGA_WIDTH, prepared, None, |n| {
        mega::run_mega_aggregate(cells[..n].to_vec(), MEGA_WIDTH)
            .map_err(|e| format!("mega sweep failed: {e}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mega_sample_is_seeded_and_covers_every_config() {
        let a = mega_sample(1);
        assert_eq!(a.len(), 14 * MEGA_PER_CONFIG + MEGA_CORNER);
        assert_eq!(a, mega_sample(1));
        assert_ne!(a, mega_sample(2));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        let all = mega::mega_grid();
        for (config, _) in grid::ablation_configs() {
            let drawn = a.iter().filter(|&&i| all[i].config == config).count();
            assert!(drawn >= MEGA_PER_CONFIG, "{config}: {drawn}");
        }
    }
}
