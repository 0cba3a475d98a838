//! Per-tick cost of run-time goal monitoring: one monitor across formula
//! sizes, and the full 49-monitor vehicle suite — all on the fused
//! engine's id-compiled [`Frame`](esafe_logic::Frame) path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use esafe_logic::{parse, FusedSuiteProgram, SignalTable};
use esafe_vehicle::config::VehicleParams;
use esafe_vehicle::signals::vehicle_table;
use std::hint::black_box;
use std::sync::Arc;

fn single_monitor(c: &mut Criterion) {
    let mut group = c.benchmark_group("single_monitor_tick");
    let cases = [
        ("atom", "p"),
        ("implication", "p -> q"),
        ("temporal", "prev(p) && once_within(q, 100ticks) -> r"),
        (
            "goal4_shape",
            "(held_for(p, 300ticks) && !once_within(q, 300ticks) && r) -> !s",
        ),
    ];
    let mut b = SignalTable::builder();
    let (p, q, r, s) = (b.bool("p"), b.bool("q"), b.bool("r"), b.bool("s"));
    let table = b.finish();
    let mut frame = table.frame();
    frame.set(p, true);
    frame.set(q, false);
    frame.set(r, true);
    frame.set(s, false);
    for (name, src) in cases {
        let expr = parse(src).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(name), &expr, |bench, e| {
            let program = FusedSuiteProgram::compile(std::slice::from_ref(e), &table).unwrap();
            let mut m = Arc::new(program).instantiate();
            bench.iter(|| {
                m.observe(&frame).unwrap();
                black_box(m.verdict(0))
            });
        });
    }
    group.finish();
}

fn full_suite(c: &mut Criterion) {
    let params = VehicleParams::default();
    let (table, sigs) = vehicle_table();
    // A representative derived frame.
    let mut sim = esafe_vehicle::builder::build_vehicle(
        params,
        esafe_vehicle::config::DefectSet::none(),
        esafe_vehicle::dynamics::Scene::default(),
        vec![],
        &table,
        &sigs,
    );
    sim.step();
    let frame = esafe_vehicle::probe::derive(sim.state(), &sigs, &params);

    // One pass over the deduplicated suite-level DAG.
    c.bench_function("vehicle_suite_49_monitors_tick", |b| {
        let mut suite = esafe_vehicle::goals::build_suite(&table, &params)
            .unwrap()
            .template()
            .instantiate();
        b.iter(|| suite.observe(black_box(&frame)).unwrap());
    });
}

criterion_group!(benches, single_monitor, full_suite);
criterion_main!(benches);
