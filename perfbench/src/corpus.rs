//! The `corpus` workload: record a seeded, ragged sample of mega-grid
//! cells into a fresh trace corpus, then re-monitor it with
//! `replay_corpus` under the `strict` suite at `DEFAULT_REPLAY_WIDTH`.

use crate::stats::{throughput, SplitMix};
use crate::sweeps::{compiled_family, short_headway, stratified_sample};
use crate::trace::{self, Laps, Layer};
use crate::{
    repeat_for, same_aggregate, same_work, timed_setup, Args, Outcome, CLOSURE_MIN_PAIRS,
    MIN_PASSES, TRACE_MIN_PASSES,
};
use esafe_harness::{
    cell_seed, replay_corpus, AggregateBuilder, Experiment, RunContext, RunReport, SweepAggregate,
    TraceCorpusReader, TraceCorpusWriter, DEFAULT_BATCH_WIDTH, DEFAULT_REPLAY_WIDTH,
};
use esafe_logic::{FrameBatch, RunDecoder};
use esafe_monitor::SuiteTemplate;
use esafe_scenarios::corpus::{record_mega_corpus, suite_for};
use esafe_scenarios::{mega, runner};
use esafe_vehicle::VehicleFamily;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Uniform draws per defect configuration.
const PER_CONFIG: usize = 16;
/// Draws from the short-headway corner, where runs end early (ragged).
const CORNER: usize = 32;
/// The defect configurations whose collision avoidance brakes
/// defectively.
const COLLIDING: [&str; 2] = ["thesis (all)", "ca_intermittent_braking"];
/// The suite the corpus is re-monitored with (never recorded with).
const SUITE: &str = "strict";
/// Timed replays of each recorded corpus.
const REPLAYS_PER_PASS: usize = 4;
/// Scratch root for the corpora, inside the checkout.
const SCRATCH: &str = ".perfbench_tmp";

/// The seeded cell sample: 16 uniform draws per defect configuration plus
/// 32 from the short-headway corner under the two configurations with
/// defective collision-avoidance braking, where runs collide and end
/// early, so stripes hold runs of ragged lengths.
fn sample(seed: u64) -> Vec<mega::MegaCell> {
    let all = mega::mega_grid();
    let mut rng = SplitMix::new(seed, 0x636f_7270);
    stratified_sample(&all, &mut rng, PER_CONFIG, CORNER, |cell| {
        short_headway(cell) && COLLIDING.contains(&cell.config.as_str())
    })
    .into_iter()
    .map(|i| all[i].clone())
    .collect()
}

/// Exact work of one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CorpusWork {
    runs: u64,
    ticks: u64,
    bytes: u64,
}

/// This process's directory under the scratch root.
fn scratch_dir() -> PathBuf {
    Path::new(SCRATCH).join(std::process::id().to_string())
}

/// A fresh corpus directory for one pass.
fn fresh_dir(pass: usize) -> Result<PathBuf, String> {
    let dir = scratch_dir().join(format!("pass-{pass}"));
    if dir.exists() {
        remove(&dir)?;
    }
    Ok(dir)
}

fn remove(dir: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))
}

fn strict(
    substrate: &str,
    table: &Arc<esafe_logic::SignalTable>,
) -> Result<esafe_monitor::MonitorSuite, esafe_harness::CorpusError> {
    suite_for(SUITE, substrate, table)
}

/// A recorded corpus: where it is, its work counts, the aggregate of the
/// recorded runs and how long recording took.
struct Recording {
    dir: PathBuf,
    work: CorpusWork,
    aggregate: SweepAggregate,
    time: Duration,
}

impl Recording {
    /// Removes the corpus directory.
    fn remove(self) -> Result<(), String> {
        remove(&self.dir)
    }
}

/// A production recording into a fresh directory, checked against the
/// live sweep.
fn production_record(
    cells: &[mega::MegaCell],
    pass: usize,
    recorded_reference: &SweepAggregate,
) -> Result<Recording, String> {
    let dir = fresh_dir(pass)?;
    let started = Instant::now();
    let (aggregate, _, stats) =
        record_mega_corpus(&dir, cells.to_vec()).map_err(|e| format!("recording failed: {e}"))?;
    let time = started.elapsed();
    same_aggregate("recording vs live sweep", recorded_reference, &aggregate)?;
    Ok(Recording {
        dir,
        work: CorpusWork {
            runs: stats.runs as u64,
            ticks: stats.ticks,
            bytes: stats.data_bytes,
        },
        aggregate,
        time,
    })
}

/// A production open + `strict` replay of a recording, checked against
/// the live rescoring; returns its time and the open reader.
fn production_replay(
    recording: &Recording,
    strict_reference: &SweepAggregate,
) -> Result<(Duration, TraceCorpusReader), String> {
    let started = Instant::now();
    let reader =
        TraceCorpusReader::open(&recording.dir).map_err(|e| format!("open failed: {e}"))?;
    let replay = replay_corpus(&reader, DEFAULT_REPLAY_WIDTH, strict)
        .map_err(|e| format!("strict replay failed: {e}"))?;
    let time = started.elapsed();
    same_aggregate(
        "strict replay vs live rescoring",
        strict_reference,
        &replay.aggregate,
    )?;
    if replay.runs as u64 != recording.work.runs || replay.ticks != recording.work.ticks {
        return Err(format!(
            "replayed {} runs / {} ticks of {} / {} recorded",
            replay.runs, replay.ticks, recording.work.runs, recording.work.ticks
        ));
    }
    Ok((time, reader))
}

/// Checks that a `thesis` replay reproduces the recording's aggregate.
fn thesis_check(reader: &TraceCorpusReader, recording: &Recording) -> Result<(), String> {
    let thesis = replay_corpus(reader, DEFAULT_REPLAY_WIDTH, |s, t| {
        suite_for("thesis", s, t)
    })
    .map_err(|e| format!("thesis replay failed: {e}"))?;
    same_aggregate(
        "thesis replay vs recording",
        &recording.aggregate,
        &thesis.aggregate,
    )
}

/// One untraced pass: a production recording, then [`REPLAYS_PER_PASS`]
/// production replays (open included) of it, each after a calibration
/// sample.
#[derive(Clone)]
struct ProductionPass {
    work: CorpusWork,
    record: Duration,
    replays: Vec<Duration>,
}

fn production_pass(
    cells: &[mega::MegaCell],
    pass: usize,
    strict_reference: &SweepAggregate,
    recorded_reference: &SweepAggregate,
    kernel_rates: &mut Vec<f64>,
) -> Result<ProductionPass, String> {
    let recording = production_record(cells, pass, recorded_reference)?;
    let mut replays = Vec::with_capacity(REPLAYS_PER_PASS);
    let mut reader = None;
    for _ in 0..REPLAYS_PER_PASS {
        drop(reader.take());
        kernel_rates.push(crate::calib::speed());
        let (time, opened) = production_replay(&recording, strict_reference)?;
        replays.push(time);
        reader = Some(opened);
    }
    thesis_check(&reader.expect("at least one replay"), &recording)?;
    let pass = ProductionPass {
        work: recording.work,
        record: recording.time,
        replays,
    };
    recording.remove()?;
    Ok(pass)
}

/// The record loop rebuilt from public calls, into a fresh directory;
/// returns the recording and its laps. Like `record_mega_corpus`, it
/// builds its own vehicle family.
fn traced_record(
    cells: &[mega::MegaCell],
    pass: usize,
    recorded_reference: &SweepAggregate,
) -> Result<(Recording, Laps), String> {
    let dir = fresh_dir(pass)?;
    let config = runner::thesis_config();
    trace::restart();
    let started = Instant::now();
    let mut writer =
        TraceCorpusWriter::create(&dir, config).map_err(|e| format!("create failed: {e}"))?;
    let family = VehicleFamily::default();
    trace::lap(Layer::RecordOther);
    let mut ctx = RunContext::new();
    let mut recorded = AggregateBuilder::new();
    for (i, cell) in cells.iter().enumerate() {
        let substrate = mega::build_mega_cell_in(&family, cell, cell_seed(0, i));
        let (report, _) = Experiment::new(&substrate)
            .with_config(config)
            .with_frame_recording(true)
            .run_in(&mut ctx)
            .map_err(|e| format!("recorded run failed: {e}"))?;
        recorded.absorb(&report);
        trace::lap(Layer::RecordRun);
        let frames = report
            .trace
            .as_ref()
            .ok_or("a recorded run carries no trace")?;
        writer
            .append_trace(
                frames,
                &report.substrate,
                &report.label,
                report.terminated_early,
                report.terminal_event.as_deref(),
            )
            .map_err(|e| format!("append failed: {e}"))?;
        trace::lap(Layer::Encode);
    }
    let stats = writer.finish().map_err(|e| format!("finish failed: {e}"))?;
    trace::lap(Layer::Finish);
    let time = started.elapsed();
    let aggregate = recorded.finish();
    same_aggregate("traced recording", recorded_reference, &aggregate)?;
    let recording = Recording {
        dir,
        work: CorpusWork {
            runs: stats.runs as u64,
            ticks: stats.ticks,
            bytes: stats.data_bytes,
        },
        aggregate,
        time,
    };
    Ok((recording, trace::take()))
}

/// The open and the replay loop rebuilt from public calls; returns the
/// time, the laps and the lane-ticks the stripes carried.
fn traced_replay(
    recording: &Recording,
    strict_reference: &SweepAggregate,
) -> Result<(Duration, Laps, u64), String> {
    trace::restart();
    let started = Instant::now();
    let reader =
        TraceCorpusReader::open(&recording.dir).map_err(|e| format!("open failed: {e}"))?;
    trace::lap(Layer::Open);
    let (aggregate, worker_laps, stripe_lane_ticks) = replay_traced(&reader)?;
    let time = started.elapsed();
    same_aggregate("traced strict replay", strict_reference, &aggregate)?;
    let mut laps = trace::take();
    laps.merge(&worker_laps);
    Ok((time, laps, stripe_lane_ticks))
}

/// One traced pair: a production recording and a traced one, then a
/// production replay and a traced one, each phase next to its twin so
/// the host's speed swings hit both alike. `traced_first` swaps the order
/// within each phase. With `kernel_rates`, a calibration sample precedes
/// each recording.
struct TracedPair {
    untraced: ProductionPass,
    work: CorpusWork,
    laps: Laps,
    record: Duration,
    replay: Duration,
    stripe_lane_ticks: u64,
}

fn traced_pair(
    cells: &[mega::MegaCell],
    pass: usize,
    strict_reference: &SweepAggregate,
    recorded_reference: &SweepAggregate,
    traced_first: bool,
    mut kernel_rates: Option<&mut Vec<f64>>,
) -> Result<TracedPair, String> {
    let mut production = None;
    let mut traced = None;
    for traced_turn in [traced_first, !traced_first] {
        if let Some(rates) = kernel_rates.as_deref_mut() {
            rates.push(crate::calib::speed());
        }
        if traced_turn {
            traced = Some(traced_record(cells, pass + 1, recorded_reference)?);
        } else {
            production = Some(production_record(cells, pass, recorded_reference)?);
        }
    }
    let (production, (traced, mut laps)) = production.zip(traced).expect("both recorded");
    let mut untraced_replay = None;
    let mut traced_replay_out = None;
    for traced_turn in [traced_first, !traced_first] {
        if traced_turn {
            traced_replay_out = Some(traced_replay(&traced, strict_reference)?);
        } else {
            untraced_replay = Some(production_replay(&production, strict_reference)?);
        }
    }
    let ((replay, reader), (traced_replay, replay_laps, stripe_lane_ticks)) = untraced_replay
        .zip(traced_replay_out)
        .expect("both replayed");
    laps.merge(&replay_laps);
    thesis_check(&reader, &production)?;
    drop(reader);
    let pair = TracedPair {
        untraced: ProductionPass {
            work: production.work,
            record: production.time,
            replays: vec![replay],
        },
        work: traced.work,
        laps,
        record: traced.time,
        replay: traced_replay,
        stripe_lane_ticks,
    };
    production.remove()?;
    traced.remove()?;
    Ok(pair)
}

/// Cells in the closure check's slice: the sample's first 32.
const SLICE_CELLS: usize = 32;

/// The closure check's pairs: [`traced_pair`]s over the first
/// [`SLICE_CELLS`] cells, alternating which pass goes first, until
/// `seconds` have passed and at least [`CLOSURE_MIN_PAIRS`] pairs have
/// run. Returns the untraced and the traced times (recording + replay).
fn closure_pairs(
    seconds: f64,
    family: &VehicleFamily,
    cells: &[mega::MegaCell],
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let slice = &cells[..SLICE_CELLS.min(cells.len())];
    let (strict_reference, recorded_reference) = references(family, slice)?;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    repeat_for(seconds, CLOSURE_MIN_PAIRS, || {
        let pair = traced_pair(
            slice,
            0,
            &strict_reference,
            &recorded_reference,
            untraced.len() % 2 == 1,
            None,
        )?;
        same_work("corpus closure slice", &pair.untraced.work, &pair.work)?;
        untraced.push((pair.untraced.record + pair.untraced.replays[0]).as_secs_f64());
        traced.push((pair.record + pair.replay).as_secs_f64());
        Ok(())
    })?;
    Ok((untraced, traced))
}

/// Reference verdicts, outside every timed phase: the strict suite
/// rescoring live runs of `cells`, and the live thesis-suite aggregate a
/// recording of them must reproduce.
fn references(
    family: &VehicleFamily,
    cells: &[mega::MegaCell],
) -> Result<(SweepAggregate, SweepAggregate), String> {
    let strict_reference = mega::mega_sweep(cells.to_vec())
        .run_aggregate_rescored(
            |cell, seed| mega::build_mega_cell_in(family, cell, seed),
            strict,
        )
        .map_err(|e| format!("live strict rescoring failed: {e}"))?
        .0;
    let recorded_reference = mega::run_mega_aggregate(cells.to_vec(), DEFAULT_BATCH_WIDTH)
        .map_err(|e| format!("live mega sweep failed: {e}"))?
        .0;
    Ok((strict_reference, recorded_reference))
}

/// `replay_corpus` rebuilt: one compiled template per (table,
/// substrate) group, stripes of `DEFAULT_REPLAY_WIDTH` runs on the
/// production worker count. Returns the aggregate, the workers' laps and
/// the lane-ticks the stripes carried.
fn replay_traced(reader: &TraceCorpusReader) -> Result<(SweepAggregate, Laps, u64), String> {
    let mut groups: Vec<((u32, String), Vec<usize>)> = Vec::new();
    for i in 0..reader.len() {
        let meta = reader.meta(i);
        let key = (meta.table_ref, meta.substrate.clone());
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(i),
            None => groups.push((key, vec![i])),
        }
    }
    let mut templates: Vec<(Arc<esafe_logic::SignalTable>, SuiteTemplate)> = Vec::new();
    let mut stripes: Vec<(usize, Vec<usize>)> = Vec::new();
    for ((table_ref, substrate), members) in groups {
        let table = Arc::clone(reader.table(table_ref).ok_or("run references no table")?);
        let suite = strict(&substrate, &table).map_err(|e| format!("suite compile failed: {e}"))?;
        templates.push((table, suite.template()));
        for chunk in members.chunks(DEFAULT_REPLAY_WIDTH) {
            stripes.push((templates.len() - 1, chunk.to_vec()));
        }
    }
    trace::lap(Layer::Compile);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(stripes.len())
        .max(1);
    let next = AtomicUsize::new(0);
    type WorkerResult = Result<(Vec<(usize, RunReport)>, Laps, u64), String>;
    let results: Mutex<Vec<WorkerResult>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                trace::restart();
                let mut reports = Vec::new();
                let mut carried = 0u64;
                let outcome = loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some((group, chunk)) = stripes.get(i) else {
                        break Ok(());
                    };
                    let (table, template) = &templates[*group];
                    match replay_stripe(reader, table, template, chunk) {
                        Ok((stripe, lane_ticks)) => {
                            reports.extend(stripe);
                            carried += lane_ticks;
                        }
                        Err(e) => break Err(e),
                    }
                };
                let laps = trace::take();
                results
                    .lock()
                    .expect("a replay worker panicked while reporting")
                    .push(outcome.map(|()| (reports, laps, carried)));
            });
        }
    });
    trace::skip();
    let mut all = Vec::with_capacity(reader.len());
    let mut laps = Laps::default();
    let mut carried = 0;
    for result in results.into_inner().expect("replay workers joined") {
        let (reports, worker_laps, lane_ticks) = result?;
        all.extend(reports);
        laps.merge(&worker_laps);
        carried += lane_ticks;
    }
    all.sort_by_key(|(i, _)| *i);
    let mut agg = AggregateBuilder::new();
    for (_, report) in &all {
        agg.absorb(report);
    }
    trace::lap(Layer::ReplayOther);
    Ok((agg.finish(), laps, carried))
}

fn replay_stripe(
    reader: &TraceCorpusReader,
    table: &Arc<esafe_logic::SignalTable>,
    template: &SuiteTemplate,
    chunk: &[usize],
) -> Result<(Vec<(usize, RunReport)>, u64), String> {
    trace::lap(Layer::ReplayOther);
    let w = chunk.len();
    let mut batch = template.instantiate_batch(w);
    let mut slab = FrameBatch::new(table, w);
    let mut decoders: Vec<RunDecoder<'_>> = Vec::with_capacity(w);
    for &i in chunk {
        decoders.push(
            reader
                .decoder(i)
                .map_err(|e| format!("decoder failed: {e}"))?,
        );
    }
    let lens: Vec<usize> = decoders.iter().map(RunDecoder::len).collect();
    for (lane, &len) in lens.iter().enumerate() {
        if len == 0 {
            batch.retire_lane(lane);
        }
    }
    let longest = lens.iter().copied().max().unwrap_or(0);
    trace::lap(Layer::ReplayOther);
    for t in 0..longest {
        for (lane, dec) in decoders.iter_mut().enumerate() {
            if t < lens[lane] {
                dec.write_tick(&mut slab, lane, reader.dict())
                    .ok_or_else(|| format!("run {} failed to decode at tick {t}", chunk[lane]))?;
            }
        }
        trace::lap(Layer::CorpusDecode);
        batch
            .observe_slab(&slab)
            .map_err(|e| format!("batched observe failed: {e}"))?;
        trace::lap(Layer::CorpusObserve);
        for (lane, &len) in lens.iter().enumerate() {
            if t + 1 == len {
                batch.retire_lane(lane);
            }
        }
        trace::lap(Layer::ReplayOther);
    }
    batch.finish();
    let mut reports = Vec::with_capacity(w);
    for (lane, &i) in chunk.iter().enumerate() {
        let meta = reader.meta(i);
        let window = reader
            .config()
            .correlation_window_ms
            .div_ceil(meta.dt_millis);
        let correlation = batch.correlate_lane(lane, window);
        let violations = batch.take_violations_lane(lane);
        reports.push((
            i,
            RunReport {
                substrate: meta.substrate.clone(),
                label: meta.label.clone(),
                config: reader.config(),
                dt_millis: meta.dt_millis,
                scheduled_ticks: meta.ticks,
                ticks: meta.ticks,
                end_time_s: (meta.ticks.saturating_sub(1) * meta.dt_millis) as f64 / 1000.0,
                terminated_early: meta.terminated_early,
                terminal_event: meta.terminal_event.clone(),
                violations,
                correlation,
                ..RunReport::default()
            },
        ));
    }
    trace::lap(Layer::ReplayOther);
    Ok((reports, (longest * w) as u64))
}

/// The `corpus` workload.
///
/// # Errors
///
/// A failed check or run, as text.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let ((family, cells, compile_ms), setup_s) = timed_setup(|| {
        let (family, compile_ms) = compiled_family();
        Ok((family, sample(args.seed), compile_ms))
    })?;
    std::fs::create_dir_all(scratch_dir())
        .map_err(|e| format!("cannot create {}: {e}", scratch_dir().display()))?;
    let (strict_reference, recorded_reference) = references(&family, &cells)?;
    println!(
        "corpus: {} cells, {} early terminations; strict suite flags {} false positives, \
         thesis suite {}",
        cells.len(),
        recorded_reference.terminated_early,
        strict_reference.false_positives,
        recorded_reference.false_positives
    );

    let mut production: Vec<ProductionPass> = Vec::new();
    let mut traced: Vec<TracedPair> = Vec::new();
    let mut pass_no = 0usize;
    let mut kernel_rates = Vec::new();
    let (seconds, min) = if args.trace {
        (args.seconds / 2.0, TRACE_MIN_PASSES)
    } else {
        (args.seconds, MIN_PASSES)
    };
    crate::begin_timed_phase();
    let result = repeat_for(seconds, min, || {
        pass_no += 2;
        let pass = if args.trace {
            // Pairs alternate which pass goes first, so a drift of the
            // host's speed favours neither.
            let pair = traced_pair(
                &cells,
                pass_no,
                &strict_reference,
                &recorded_reference,
                traced.len() % 2 == 1,
                Some(&mut kernel_rates),
            )?;
            same_work("corpus traced", &pair.untraced.work, &pair.work)?;
            let pass = pair.untraced.clone();
            traced.push(pair);
            pass
        } else {
            production_pass(
                &cells,
                pass_no,
                &strict_reference,
                &recorded_reference,
                &mut kernel_rates,
            )?
        };
        if let Some(first) = production.first() {
            same_work("corpus", &first.work, &pass.work)?;
        }
        production.push(pass);
        Ok(())
    })
    .and_then(|_| {
        args.trace
            .then(|| closure_pairs(args.seconds / 2.0, &family, &cells))
            .transpose()
    });
    // A failed pass leaves its corpus behind; clear everything this
    // process wrote, and the scratch root once no other run uses it.
    let cleared = remove(&scratch_dir());
    let _ = std::fs::remove_dir(SCRATCH);
    let closure = result?;
    cleared?;

    let work = production[0].work;
    let records: Vec<f64> = production.iter().map(|p| p.record.as_secs_f64()).collect();
    let replays: Vec<f64> = production
        .iter()
        .flat_map(|p| p.replays.iter().map(Duration::as_secs_f64))
        .collect();
    let record_ticks_per_s = throughput(work.ticks as f64, &records);
    let ticks_per_s = throughput(work.ticks as f64, &replays);
    let replay_rates: Vec<f64> = replays.iter().map(|s| work.ticks as f64 / s).collect();
    let record_rates: Vec<f64> = records.iter().map(|s| work.ticks as f64 / s).collect();
    crate::print_passes("corpus record", &record_rates);
    crate::print_passes("corpus replay", &replay_rates);
    println!(
        "corpus: {} passes of {} runs, {} ticks, {} bytes; record_ticks_per_s \
         {record_ticks_per_s:.0}, replay ticks_per_s {ticks_per_s:.0}; failed_share 0",
        production.len(),
        work.runs,
        work.ticks,
        work.bytes,
    );
    let mut outcome = Outcome {
        attempted: work.runs * production.len() as u64,
        failed: 0,
        kernel_rates,
        ..Outcome::default()
    };
    if !args.trace {
        outcome.end_to_end = vec![("setup_s", setup_s), ("ticks_per_s", ticks_per_s)];
        return Ok(outcome);
    }

    let mut laps = Laps::default();
    let mut carried = 0u64;
    for pass in &traced {
        laps.merge(&pass.laps);
        carried += pass.stripe_lane_ticks;
    }
    laps.remove_clock_cost(trace::lap_cost_ns());
    let n = traced.len() as f64;
    let ticks = work.ticks as f64 * n;
    let (untraced, traced_times) = closure.expect("a traced run checks closure");
    let overhead = crate::closure(
        &format!("one recording and one replay of {SLICE_CELLS} cells per pass"),
        &untraced,
        &traced_times,
    );
    outcome.layers = vec![
        ("template.compile_ms", compile_ms),
        ("corpus.record_ticks_per_s", record_ticks_per_s),
        ("corpus.record_run_ns", laps.ns(Layer::RecordRun) / ticks),
        ("codec.encode_ns", laps.ns(Layer::Encode) / ticks),
        ("corpus.finish_ms", laps.ns(Layer::Finish) / n / 1e6),
        (
            "codec.bytes_per_tick",
            work.bytes as f64 / work.ticks as f64,
        ),
        ("corpus.open_ms", laps.ns(Layer::Open) / n / 1e6),
        ("corpus.compile_ms", laps.ns(Layer::Compile) / n / 1e6),
        ("codec.decode_ns", laps.ns(Layer::CorpusDecode) / ticks),
        ("corpus.observe_ns", laps.ns(Layer::CorpusObserve) / ticks),
        ("corpus.lane_occupancy", ticks / carried as f64),
        (
            "corpus.other_ns",
            laps.sum(&[Layer::RecordOther, Layer::ReplayOther]) / ticks,
        ),
        ("work.units", work.runs as f64),
        ("work.ticks", work.ticks as f64),
        ("work.bytes", work.bytes as f64),
        ("work.failed_share", 0.0),
        ("trace.overhead_share", overhead),
    ];
    Ok(outcome)
}
