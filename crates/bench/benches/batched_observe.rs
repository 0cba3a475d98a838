//! Scalar fused vs batched (slab-of-lanes) suite evaluation on the
//! vehicle family — the per-run win behind `repro --mega-grid`'s
//! stripe engine.
//!
//! All engines execute the same deduplicated [`FusedSuiteProgram`]
//! DAG; they differ in how many runs step through it per pass:
//!
//! * `scalar_per_run` — one run per iteration
//!   ([`SuiteTemplate::instantiate`]), the `repro --grid` per-lane
//!   baseline: its per-iteration time **is** the per-run cost;
//! * `slab_w{N}_per_pass` — N lanes per iteration
//!   ([`SuiteTemplate::instantiate_batch`]): each DAG node is decoded
//!   once and swept across all N lanes' slab rows before the pass
//!   moves to the next node. Criterion reports the **raw per-pass**
//!   time, which covers N runs — divide by N before comparing against
//!   `scalar_per_run` (so batched wins whenever `per_pass < N ×
//!   per_run`). Batched at or below scalar per run is the acceptance
//!   criterion of the mega-grid workload; `repro --mega-grid` prints
//!   the already-normalized comparison.
//!
//! The observed frames are a real recorded run (scenario 1, clean
//! system), pre-materialized per lane
//! ([`esafe_bench::recorded_clean_frames`] /
//! [`esafe_bench::replicate_lanes`] — the same harness the
//! calibrations use) and copied into one lane-major
//! [`FrameBatch`](esafe_logic::FrameBatch) stripe per tick, so the
//! timed loop is monitoring only.
//!
//! [`FusedSuiteProgram`]: esafe_logic::FusedSuiteProgram
//! [`SuiteTemplate`]: esafe_monitor::SuiteTemplate
//! [`SuiteTemplate::instantiate`]: esafe_monitor::SuiteTemplate::instantiate
//! [`SuiteTemplate::instantiate_batch`]: esafe_monitor::SuiteTemplate::instantiate_batch

use criterion::{criterion_group, criterion_main, Criterion};
use esafe_bench::{recorded_clean_frames, replicate_lanes};
use esafe_logic::FrameBatch;
use esafe_vehicle::VehicleFamily;

/// Ticks replayed per pass (bounds the width-16 lane replica set).
const TICKS: usize = 1000;

fn batched_observe(c: &mut Criterion) {
    let family = VehicleFamily::default();
    let frames = recorded_clean_frames(&family, TICKS);
    println!(
        "vehicle suite: {} monitors over {} fused nodes, {} ticks/pass",
        family.template().fused_program().roots(),
        family.template().fused_program().unique_nodes(),
        frames.len(),
    );

    let mut group = c.benchmark_group("batched_observe");
    group.sample_size(10);

    let mut scalar = family.template().instantiate();
    group.bench_function("vehicle_observe_scalar_per_run", |b| {
        b.iter(|| {
            scalar.reset();
            for frame in &frames {
                scalar.observe(frame).expect("recorded frames are complete");
            }
        })
    });

    for width in [4usize, 8, 16] {
        let stripes: Vec<FrameBatch> = replicate_lanes(&frames, width)
            .iter()
            .map(|lanes| {
                let mut stripe = FrameBatch::new(family.table(), width);
                for (lane, frame) in lanes.iter().enumerate() {
                    stripe.write_lane_from(lane, frame);
                }
                stripe
            })
            .collect();
        let mut batch = family.template().instantiate_batch(width);
        // One iteration advances `width` runs — see the module docs for
        // how to normalize against the scalar case.
        group.bench_function(format!("vehicle_observe_slab_w{width}_per_pass"), |b| {
            b.iter(|| {
                batch.reset();
                for stripe in &stripes {
                    batch
                        .observe_slab(stripe)
                        .expect("recorded frames are complete");
                }
            })
        });
    }

    group.finish();
}

criterion_group!(benches, batched_observe);
criterion_main!(benches);
