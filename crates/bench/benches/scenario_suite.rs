//! End-to-end cost of monitored scenario runs through the generic
//! experiment harness, single runs and multi-cell sweeps (20k ticks ×
//! 49 monitors + simulation per run).

use criterion::{criterion_group, criterion_main, Criterion};
use esafe_harness::{cell_seed, AggregateBuilder, Experiment};
use esafe_scenarios::{catalog, grid, runner};
use esafe_vehicle::config::DefectSet;
use esafe_vehicle::VehicleFamily;
use std::hint::black_box;

fn scenario_runs(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario");
    group.sample_size(10);
    group.bench_function("scenario1_thesis_defects", |b| {
        b.iter(|| black_box(runner::run(&catalog::scenario(1), DefectSet::thesis()).unwrap()))
    });
    group.bench_function("scenario1_fixed", |b| {
        b.iter(|| black_box(runner::run(&catalog::scenario(1), DefectSet::none()).unwrap()))
    });
    group.bench_function("scenario9_short_horizon", |b| {
        b.iter(|| black_box(runner::run(&catalog::scenario(9), DefectSet::thesis()).unwrap()))
    });
    group.finish();
}

fn scenario_sweeps(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_sweep");
    group.sample_size(10);
    let configs = vec![
        ("none".to_owned(), DefectSet::none()),
        ("thesis (all)".to_owned(), DefectSet::thesis()),
    ];
    let scenarios: Vec<u8> = (1..=10).collect();
    let cells = grid::cells(&scenarios, &configs);
    group.bench_function("catalog_x2_parallel", |b| {
        b.iter(|| black_box(grid::run_parallel(cells.clone()).unwrap().0.aggregate()))
    });
    // The same cells, each run alone through `Experiment` on one thread.
    group.bench_function("catalog_x2_serial", |b| {
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

criterion_group!(benches, scenario_runs, scenario_sweeps);
criterion_main!(benches);
