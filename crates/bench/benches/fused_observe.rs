//! Fused suite evaluation on the vehicle family — the cross-monitor CSE
//! win behind `repro --grid`'s `tick_ms`.
//!
//! The suite is stamped from the family's [`SuiteTemplate`] and makes
//! one pass over the deduplicated suite-level DAG in which every shared
//! subformula — `probe.forward`, `probe.auto_accel_source == '…'`, the
//! speed/accel atoms — is evaluated once; the printed dedup ratio is
//! the work saved against evaluating the 49 trees one by one. The
//! observed frames are a real recorded run (scenario 1, thesis
//! defects), replayed per iteration so temporal cells see realistic
//! edges.
//!
//! [`SuiteTemplate`]: esafe_monitor::SuiteTemplate

use criterion::{criterion_group, criterion_main, Criterion};
use esafe_harness::Experiment;
use esafe_logic::FrameTrace;
use esafe_monitor::MonitorSuite;
use esafe_scenarios::{grid, runner};
use esafe_vehicle::config::DefectSet;
use esafe_vehicle::VehicleFamily;

/// Records the observed-frame stream of one monitored vehicle run.
fn recorded_trace(family: &VehicleFamily, scenario: u8, defects: DefectSet) -> FrameTrace {
    let cells = grid::cells(&[scenario], &[("bench".to_owned(), defects)]);
    let substrate = grid::build_cell_in(family, &cells[0], 0);
    Experiment::new(&substrate)
        .with_config(runner::thesis_config())
        .with_frame_recording(true)
        .run()
        .expect("scenario formulas compile against the simulator signals")
        .trace
        .expect("frame recording enabled")
}

/// One full replay of the recording through the suite.
fn replay(suite: &mut MonitorSuite, trace: &FrameTrace) -> usize {
    suite.replay(trace).expect("recorded frames are complete");
    suite.take_violations().len()
}

fn fused_observe(c: &mut Criterion) {
    let family = VehicleFamily::default();
    let trace = recorded_trace(&family, 1, DefectSet::thesis());
    let program = family.template().fused_program();
    println!(
        "vehicle suite: {} monitors, {} source nodes -> {} fused nodes \
         (dedup ratio {:.2}x), {} temporal cells, {} frames/replay",
        program.roots(),
        program.source_nodes(),
        program.unique_nodes(),
        program.source_nodes() as f64 / program.unique_nodes() as f64,
        program.state_cells(),
        trace.len(),
    );

    let mut group = c.benchmark_group("fused_observe");
    group.sample_size(10);

    let mut fused = family.template().instantiate();
    group.bench_function("vehicle_replay_fused", |b| {
        b.iter(|| replay(&mut fused, &trace))
    });

    group.finish();
}

criterion_group!(benches, fused_observe);
criterion_main!(benches);
