//! Scalar `Simulator` vs [`SimulatorBatch`] stepping on the vehicle
//! substrate — the sim-side win behind `repro --mega-grid`'s stripe
//! engine (the simulation twin of `batched_observe`).
//!
//! All engines run the same eight vehicle subsystems over the same
//! mega-grid cells; they differ in how many runs advance per tick:
//!
//! * `scalar_per_run` — one cell per iteration: `TICKS` ticks of one
//!   `Simulator` (B virtual dispatches per subsystem per tick across a
//!   sweep, each chasing its own double-buffered `Frame` pair);
//! * `batched_w{N}_per_pass` — N distinct cells per iteration through
//!   one [`SimulatorBatch`]: every subsystem advances all N lanes of
//!   the lane-major [`FrameBatch`](esafe_logic::FrameBatch) slab before
//!   the next subsystem runs. Criterion reports the **raw per-pass**
//!   time, which covers N runs — divide by N before comparing against
//!   `scalar_per_run` (batched wins whenever `per_pass < N × per_run`).
//!
//! Widths 1–128 run up to the mega-grid's stripe width of 128; the
//! width-1 point prices the batch engine's fixed overhead against the
//! scalar baseline.
//!
//! [`SimulatorBatch`]: esafe_sim::SimulatorBatch

use criterion::{criterion_group, criterion_main, Criterion};
use esafe_harness::Substrate as _;
use esafe_scenarios::mega;
use esafe_vehicle::{VehicleFamily, VehicleSubstrate};

/// Ticks stepped per pass (a fifth of a full 50 s mega-cell run —
/// enough to leave the initial transient).
const TICKS: u64 = 1000;

fn batched_sim(c: &mut Criterion) {
    let family = VehicleFamily::default();
    let cells = mega::mega_grid();

    let mut group = c.benchmark_group("batched_sim");
    group.sample_size(10);

    let sub = mega::build_mega_cell_in(&family, &cells[0], 0);
    group.bench_function("vehicle_sim_scalar_per_run", |b| {
        b.iter(|| {
            let mut sim = sub.build_simulator();
            for _ in 0..TICKS {
                sim.step();
            }
            sim.tick()
        })
    });

    for width in [1usize, 4, 16, 64, 128] {
        let subs: Vec<_> = cells[..width]
            .iter()
            .map(|cell| mega::build_mega_cell_in(&family, cell, 0))
            .collect();
        let group_refs: Vec<&_> = subs.iter().collect();
        // One iteration advances `width` runs — see the module docs for
        // how to normalize against the scalar case.
        group.bench_function(format!("vehicle_sim_batched_w{width}_per_pass"), |b| {
            b.iter(|| {
                let mut sim = VehicleSubstrate::build_simulator_batch(&group_refs)
                    .expect("the vehicle substrate has a native batched builder");
                for _ in 0..TICKS {
                    sim.step();
                }
                sim.tick()
            })
        });
    }

    group.finish();
}

criterion_group!(benches, batched_sim);
criterion_main!(benches);
