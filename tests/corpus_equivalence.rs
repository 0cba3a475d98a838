//! The corpus replay equivalence wall: for a mixed archive of vehicle
//! and elevator runs, batched corpus replay (`observe_slab` over
//! striped lanes), scalar [`MonitorSuite::replay`] over the decoded
//! trace, and a live frame-by-frame scalar `observe` loop must agree
//! **per run** — violations and §5.1.2 correlation both — for *random*
//! goal suites the corpus was never recorded with, at stripe widths
//! 1–64 with ragged lanes and early retirement.
//!
//! This is the property that makes offline re-monitoring trustworthy:
//! the batched replay backend is not "approximately" the monitor
//! semantics, it *is* the monitor semantics, for any suite.

use emergent_safety::elevator::faults::ElevatorFaults;
use emergent_safety::elevator::{ElevatorFamily, ElevatorParams};
use emergent_safety::harness::corpus::{replay_corpus_reports, SuiteError};
use emergent_safety::harness::{CorpusError, Sweep, TraceCorpusReader, TraceCorpusWriter};
use emergent_safety::logic::SignalTable;
use emergent_safety::monitor::MonitorSuite;
use emergent_safety::scenarios::{grid, runner};
use emergent_safety::vehicle::{VehicleFamily, VehicleParams};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// Records the shared mixed corpus once: two vehicle grid cells (one
/// colliding, one clean — so one trace ends early) and three
/// family-shared elevator runs with deliberately ragged tick counts.
/// Every proptest case replays this same archive. It lives in Cargo's
/// per-target scratch directory under a fixed name, cleared first, so a
/// test run leaves at most one archive, inside `target/`.
fn corpus_dir() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("corpus-equivalence");
        let _ = std::fs::remove_dir_all(&dir);

        let mut writer =
            TraceCorpusWriter::create(&dir, runner::thesis_config()).expect("fresh corpus dir");

        let cells = grid::cells(&[1], &grid::ablation_configs()[..2]);
        let vehicles = VehicleFamily::default();
        grid::sweep(cells)
            .run_aggregate_recorded(
                |cell, seed| grid::build_cell_in(&vehicles, cell, seed),
                &mut writer,
            )
            .expect("vehicle recording");

        let elevators = ElevatorFamily::default();
        let ragged = [(0u64, 500u64), (1, 1800), (2, 1100)];
        Sweep::new(ragged.to_vec())
            .with_base_seed(2009)
            .with_config(runner::thesis_config())
            .run_aggregate_recorded(
                |&(_, ticks), seed| {
                    elevators
                        .substrate(ElevatorFaults::none(), seed)
                        .with_ticks(ticks)
                },
                &mut writer,
            )
            .expect("elevator recording");

        writer.finish().expect("corpus commit");
        dir
    })
}

/// A "random suite": the substrate's full goal structure with
/// monitoring thresholds scaled by fuzzed factors. Different factors
/// flip different monitors between pass and violate on the same
/// archived evidence.
fn fuzzed_suite(
    substrate: &str,
    table: &Arc<SignalTable>,
    vehicle_scale: f64,
    elevator_scale: f64,
) -> Result<MonitorSuite, CorpusError> {
    let compile = |e| CorpusError::Suite(SuiteError::Compile(e));
    match substrate {
        "vehicle" => {
            let d = VehicleParams::default();
            let params = VehicleParams {
                accel_limit: d.accel_limit * vehicle_scale,
                jerk_limit: d.jerk_limit * vehicle_scale,
                ..d
            };
            emergent_safety::vehicle::goals::build_suite(table, &params).map_err(compile)
        }
        "elevator" => {
            let d = ElevatorParams::default();
            let params = ElevatorParams {
                stop_margin_m: d.stop_margin_m * elevator_scale,
                ebrake_margin_m: d.ebrake_margin_m * elevator_scale,
                ..d
            };
            emergent_safety::elevator::goals::build_suite(table, &params).map_err(compile)
        }
        other => Err(CorpusError::Suite(SuiteError::NoSubstrate(
            other.to_owned(),
        ))),
    }
}

proptest! {
    /// Batched replay ≡ scalar `replay` ≡ live scalar `observe`, per
    /// run, for fuzzed suites and widths.
    #[test]
    fn batched_replay_matches_scalar_replay_and_live_observe(
        vehicle_pct in 30u64..220,
        elevator_pct in 40u64..320,
        width in 1usize..65,
    ) {
        let vehicle_scale = vehicle_pct as f64 / 100.0;
        let elevator_scale = elevator_pct as f64 / 100.0;
        let reader = TraceCorpusReader::open(corpus_dir()).expect("committed corpus opens");
        prop_assert!(!reader.recovered());
        prop_assert_eq!(reader.len(), 5);

        let (replay, reports) = replay_corpus_reports(&reader, width, |substrate, table| {
            fuzzed_suite(substrate, table, vehicle_scale, elevator_scale)
        })
        .expect("batched replay");
        prop_assert_eq!(reports.len(), reader.len());

        for (i, batched) in reports.iter().enumerate() {
            let meta = reader.meta(i);
            let trace = reader.decode_trace(i).expect("archived runs decode");
            prop_assert_eq!(trace.len() as u64, meta.ticks);
            let window = reader.config().correlation_window_ms.div_ceil(meta.dt_millis);

            // Path 2: scalar replay of the decoded trace.
            let mut scalar = fuzzed_suite(
                &meta.substrate, trace.table(), vehicle_scale, elevator_scale,
            ).expect("suite compiles against the reader table");
            scalar.replay(&trace).expect("scalar replay");
            let scalar_correlation = scalar.correlate(window);
            let scalar_violations = scalar.take_violations();

            // Path 3: live frame-by-frame scalar observation, exactly
            // as an attached monitor would have seen the run.
            let mut live = fuzzed_suite(
                &meta.substrate, trace.table(), vehicle_scale, elevator_scale,
            ).expect("suite compiles against the reader table");
            let mut frame = trace.table().frame();
            for t in 0..trace.len() {
                trace.read_into(t, &mut frame);
                live.observe(&frame).expect("live observe");
            }
            live.finish();
            let live_correlation = live.correlate(window);
            let live_violations = live.take_violations();

            prop_assert_eq!(
                &batched.violations, &scalar_violations,
                "run {} (`{}`) width {}: batched != scalar replay", i, meta.label, width
            );
            prop_assert_eq!(
                &scalar_violations, &live_violations,
                "run {} (`{}`): scalar replay != live observe", i, meta.label
            );
            prop_assert_eq!(&batched.correlation, &scalar_correlation);
            prop_assert_eq!(&scalar_correlation, &live_correlation);
            prop_assert_eq!(batched.ticks, meta.ticks);
            prop_assert_eq!(batched.terminated_early, meta.terminated_early);
        }
        prop_assert_eq!(replay.runs, reader.len());
    }
}

/// The corpus really is mixed and ragged: both substrates present,
/// lane lengths spanning two orders of magnitude, and at least one
/// early-terminated vehicle run — so the proptest above genuinely
/// exercises grouping, ragged stripes, and early retirement.
#[test]
fn the_shared_corpus_is_mixed_and_ragged() {
    let reader = TraceCorpusReader::open(corpus_dir()).expect("committed corpus opens");
    let substrates: std::collections::BTreeSet<&str> = (0..reader.len())
        .map(|i| reader.meta(i).substrate.as_str())
        .collect();
    assert_eq!(
        substrates.into_iter().collect::<Vec<_>>(),
        ["elevator", "vehicle"]
    );
    let ticks: Vec<u64> = (0..reader.len()).map(|i| reader.meta(i).ticks).collect();
    let min = ticks.iter().min().unwrap();
    let max = ticks.iter().max().unwrap();
    assert!(max > &(min * 4), "lane lengths must be ragged: {ticks:?}");
    assert!(
        (0..reader.len()).any(|i| reader.meta(i).terminated_early),
        "at least one archived run must have terminated early"
    );
}
