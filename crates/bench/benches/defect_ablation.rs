//! Ablation cost: the scenario-3 defect grid through the sweep driver,
//! against a per-cell `Experiment` loop over the same cells on one
//! thread (the design-choice ablation DESIGN.md calls out).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use esafe_harness::{cell_seed, AggregateBuilder, Experiment};
use esafe_scenarios::{grid, runner};
use esafe_vehicle::config::DefectSet;
use esafe_vehicle::VehicleFamily;
use std::hint::black_box;

fn ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario3_ablation");
    group.sample_size(10);
    let configs = vec![
        ("none".to_owned(), DefectSet::none()),
        ("thesis".to_owned(), DefectSet::thesis()),
        (
            "ca_only".to_owned(),
            DefectSet {
                ca_intermittent_braking: true,
                ..DefectSet::none()
            },
        ),
        (
            "acc_only".to_owned(),
            DefectSet {
                acc_requests_while_disengaged: true,
                ..DefectSet::none()
            },
        ),
    ];
    let cells = grid::cells(&[3], &configs);
    group.bench_with_input(
        BenchmarkId::from_parameter("parallel"),
        &cells,
        |b, cells| b.iter(|| black_box(grid::run_parallel(cells.clone()).unwrap().0.aggregate())),
    );
    group.bench_with_input(BenchmarkId::from_parameter("serial"), &cells, |b, cells| {
        b.iter(|| {
            let family = VehicleFamily::default();
            let mut aggregate = AggregateBuilder::new();
            for (i, cell) in cells.iter().enumerate() {
                let substrate = grid::build_cell_in(&family, cell, cell_seed(0, i));
                let report = Experiment::new(&substrate)
                    .with_config(runner::thesis_config())
                    .run()
                    .unwrap();
                aggregate.absorb(&report);
            }
            black_box(aggregate.finish())
        })
    });
    group.finish();
}

criterion_group!(benches, ablation);
criterion_main!(benches);
