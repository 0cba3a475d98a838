//! The repository's benchmark: four named workloads driven through their
//! production entry points, each checked against reference verdicts, with
//! a separate traced mode that splits the time by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid|mega|serve|corpus --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! carrying the end-to-end metrics; with `--trace 1` it carries the
//! per-layer metrics. Every metric is also printed on its own line with
//! its unit. A failed check prints `"correct": false` and exits non-zero.
//! See `perfbench/README.md` for the workloads and the metric map.

mod calib;
mod corpus;
mod serve;
mod stats;
mod stripe;
mod sweeps;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median. Set-up takes
/// a few milliseconds, so many repetitions let the median span the
/// machine's load swings rather than one moment of them.
pub const SETUP_REPS: usize = 101;

/// Fewest timed passes a run makes, however long they take.
pub const MIN_PASSES: usize = 3;

/// Fewest (untraced, traced) pairs of full passes a traced run makes.
/// The first half of a traced run's time goes to such pairs, which give
/// the per-layer metrics.
pub const TRACE_MIN_PASSES: usize = 2;

/// Fewest (untraced, traced) pairs of short passes over a slice of the
/// workload for the closure check, which takes the second half of a
/// traced run's time. On the reference container two full passes a few
/// seconds apart differ by up to ±30%, short passes next to each other
/// far less, and the check takes the median ratio over the pairs.
pub const CLOSURE_MIN_PAIRS: usize = 20;

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("ticks_per_s", "run-ticks/s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run reports, with units. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("template.compile_ms", "ms"),
    ("template.instantiate_us", "us"),
    ("sim.step_ns", "ns"),
    ("sim.driver_ns", "ns"),
    ("sim.ca_ns", "ns"),
    ("sim.rca_ns", "ns"),
    ("sim.pa_ns", "ns"),
    ("sim.lca_ns", "ns"),
    ("sim.acc_ns", "ns"),
    ("sim.arbiter_ns", "ns"),
    ("sim.dynamics_ns", "ns"),
    ("sim.refresh_ns", "ns"),
    ("probe.ns", "ns"),
    ("dag.ns", "ns"),
    ("trackers.ns", "ns"),
    ("correlate.us_per_run", "us"),
    ("stripe.series_ns", "ns"),
    ("stripe.terminal_ns", "ns"),
    ("stripe.setup_us", "us"),
    ("stripe.other_ns", "ns"),
    ("stripe.lane_occupancy", "fraction"),
    ("stripe.count", "count"),
    ("stripe.scalar_cells", "count"),
    ("sweep.aggregate_us_per_run", "us"),
    ("sweep.parallel_efficiency", "fraction"),
    ("serve.decode_ns", "ns"),
    ("serve.wave_p50_us", "us"),
    ("serve.wave_p99_us", "us"),
    ("serve.waves", "count"),
    ("serve.fill_ns", "ns"),
    ("serve.observe_ns", "ns"),
    ("serve.drain_ns", "ns"),
    ("serve.wave_other_ns", "ns"),
    ("serve.lane_occupancy", "fraction"),
    ("serve.connects", "count"),
    ("serve.consumer_wait_share", "fraction"),
    ("serve.reported_intervals", "count"),
    ("serve.report_lag_p50_ms", "ms"),
    ("serve.report_lag_p99_ms", "ms"),
    ("serve.report_lag_samples", "count"),
    ("corpus.record_ticks_per_s", "ticks/s"),
    ("corpus.record_run_ns", "ns"),
    ("codec.encode_ns", "ns"),
    ("corpus.finish_ms", "ms"),
    ("codec.bytes_per_tick", "B/tick"),
    ("corpus.open_ms", "ms"),
    ("corpus.compile_ms", "ms"),
    ("codec.decode_ns", "ns"),
    ("corpus.observe_ns", "ns"),
    ("corpus.lane_occupancy", "fraction"),
    ("corpus.other_ns", "ns"),
    ("work.units", "count"),
    ("work.ticks", "count"),
    ("work.retired_lane_ticks", "count"),
    ("work.bytes", "count"),
    ("work.failed_share", "fraction"),
    ("trace.overhead_share", "fraction"),
    ("machine.slowdown", "ratio"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// `grid`, `mega`, `serve` or `corpus`.
    pub workload: String,
    /// The workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the timed phase runs, seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|e| format!("--seed must be a whole number: {e}"))?
            }
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .map_err(|e| format!("--seconds must be a number: {e}"))?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required (grid, mega, serve or corpus)")?,
        seed,
        seconds,
        trace,
    })
}

/// What a workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells, streams or corpus runs).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// End-to-end values by name (untraced runs).
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer values by name (traced runs).
    pub layers: Vec<(&'static str, f64)>,
    /// The host's speed relative to the reference container, sampled
    /// before the timed passes ([`calib::speed`]).
    pub kernel_rates: Vec<f64>,
}

/// Runs `f` [`SETUP_REPS`] times, returning the last result and the
/// median duration in seconds, scaled to the reference speed: each
/// repetition follows a one-thread calibration slice
/// ([`calib::slice_speed`]) and is scaled by the speed it saw. Each
/// repetition's result is dropped before the next one starts, so only
/// one set-up is ever alive.
///
/// # Errors
///
/// The first error `f` returns.
pub fn timed_setup<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut raw = Vec::with_capacity(SETUP_REPS);
    let mut speeds = Vec::with_capacity(SETUP_REPS);
    let mut scaled = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let speed = calib::slice_speed();
        let started = Instant::now();
        let value = f()?;
        let seconds = started.elapsed().as_secs_f64();
        raw.push(seconds);
        speeds.push(speed);
        scaled.push(seconds * speed);
        last = Some(value);
    }
    println!(
        "setup: {SETUP_REPS} repetitions, raw median {:.6} s, set-up thread at {:.3}x the \
         reference speed",
        stats::median(&raw),
        stats::median(&speeds)
    );
    Ok((
        last.expect("at least one repetition"),
        stats::median(&scaled),
    ))
}

/// Marks the start of the timed passes: resets the memory high-water
/// mark, so `peak_rss_mb` leaves out the set-up repetitions and the
/// reference runs that came before.
pub fn begin_timed_phase() {
    if !stats::reset_peak_rss() {
        println!("memory: the high-water mark could not be reset; peak_rss_mb includes set-up");
    }
}

/// Calls `pass` until `seconds` have elapsed and at least `min` passes
/// have run; returns the number of passes.
///
/// # Errors
///
/// The first error `pass` returns.
pub fn repeat_for(
    seconds: f64,
    min: usize,
    mut pass: impl FnMut() -> Result<(), String>,
) -> Result<usize, String> {
    let started = Instant::now();
    let mut n = 0;
    while n < min || started.elapsed().as_secs_f64() < seconds {
        pass()?;
        n += 1;
    }
    Ok(n)
}

/// The tracing overhead: the median over (untraced, traced) pass pairs
/// of traced production time ÷ untraced time, minus 1. Pairing adjacent
/// passes cancels most of the machine's drift. Prints every pair's ratio
/// and the closure verdict against ROADMAP aim 1's 5%.
pub fn closure(detail: &str, untraced: &[f64], traced: &[f64]) -> f64 {
    let ratios: Vec<f64> = untraced.iter().zip(traced).map(|(u, t)| t / u).collect();
    let list: Vec<String> = ratios
        .iter()
        .map(|r| format!("{:+.1}%", (r - 1.0) * 100.0))
        .collect();
    println!(
        "closure: per pair traced ÷ untraced − 1: [{}]",
        list.join(", ")
    );
    let overhead = stats::median(&ratios) - 1.0;
    println!(
        "closure: {detail}; traced-equivalent vs untraced time over {} pass pairs: overhead \
         {:+.2}% ({})",
        ratios.len(),
        overhead * 100.0,
        if overhead.abs() <= 0.05 {
            "within 5%"
        } else {
            "OUTSIDE 5%"
        }
    );
    overhead
}

/// Prints every pass's throughput, millions per second, for people
/// judging the spread.
pub fn print_passes(what: &str, per_s: &[f64]) {
    let list: Vec<String> = per_s.iter().map(|v| format!("{:.3}", v / 1e6)).collect();
    println!("{what}: per-pass M/s [{}]", list.join(", "));
}

/// Checks a pass's aggregate against its reference.
///
/// # Errors
///
/// Both aggregates, when they differ.
pub fn same_aggregate(
    what: &str,
    expected: &esafe_harness::SweepAggregate,
    got: &esafe_harness::SweepAggregate,
) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!(
            "{what} aggregate mismatch:\n  expected {expected:?}\n  got      {got:?}"
        ))
    }
}

/// Checks that a per-pass work record repeats exactly.
///
/// # Errors
///
/// A description of the first difference.
pub fn same_work<T: PartialEq + std::fmt::Debug>(
    what: &str,
    expected: &T,
    got: &T,
) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!(
            "{what} work changed between passes: expected {expected:?}, got {got:?}"
        ))
    }
}

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

fn json_metrics(
    table: &[(&'static str, &'static str)],
    values: &[(&'static str, f64)],
) -> Result<String, String> {
    let mut out = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v);
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number ({value})"));
        }
        out.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(out.join(", "))
}

fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        // Calibrate the clock before any span is open.
        trace::lap_cost_ns();
    }
    let mut outcome = match args.workload.as_str() {
        "grid" => sweeps::grid(args)?,
        "mega" => sweeps::mega(args)?,
        "serve" => serve::run(args)?,
        "corpus" => corpus::run(args)?,
        other => {
            return Err(format!(
                "unknown workload `{other}` (grid, mega, serve or corpus)"
            ))
        }
    };
    let slowdown = calib::slowdown(&outcome.kernel_rates);
    println!(
        "machine: host at {:.3}x the reference speed over {} calibration samples; \
         ticks_per_s is scaled to the reference",
        stats::median(&outcome.kernel_rates),
        outcome.kernel_rates.len()
    );
    if args.trace {
        outcome.layers.push(("machine.slowdown", slowdown));
        return Ok(outcome);
    }
    for (name, value) in &mut outcome.end_to_end {
        if *name == "ticks_per_s" {
            println!("raw      {name:<28} {value:>16.6}");
            *value *= slowdown;
        }
    }
    outcome
        .end_to_end
        .push(("peak_rss_mb", stats::peak_rss_mib()?));
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} seed {}: {e}", args.workload, args.seed);
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            return ExitCode::FAILURE;
        }
    };
    let (table, values): (&[(&str, &str)], _) = if args.trace {
        (PER_LAYER, &outcome.layers)
    } else {
        (&END_TO_END, &outcome.end_to_end)
    };
    for &(name, value) in values.iter() {
        println!(
            "{:<8} {name:<28} {value:>16.6} {}",
            args.workload,
            unit_of(table, name)
        );
    }
    let metrics = match json_metrics(table, values) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the metric tables above must name the same
    /// metrics with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        #[derive(serde::Deserialize)]
        struct Metric {
            name: String,
            unit: String,
        }
        #[derive(serde::Deserialize)]
        struct Bench {
            end_to_end: Vec<Metric>,
            per_layer: Vec<Metric>,
        }
        let bench: Bench = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let pairs = |m: &[Metric]| -> Vec<(String, String)> {
            m.iter().map(|m| (m.name.clone(), m.unit.clone())).collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(pairs(&bench.end_to_end), table(&END_TO_END));
        assert_eq!(pairs(&bench.per_layer), table(PER_LAYER));
    }
}
