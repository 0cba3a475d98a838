//! The tentpole comparison: per-tick cost of the seed's string-keyed
//! `State` map sampling vs. the interned `SignalTable`/`Frame` pipeline.
//!
//! Each "tick" models what the experiment loop does every millisecond:
//! refresh the snapshot from the previous tick, write a handful of
//! subsystem outputs, and feed a panel of goal monitors.
//!
//! * `map_tick` — the seed representation's per-tick cost model: the
//!   seed `Simulator::step` cloned the full `BTreeMap<String, Value>`
//!   twice (prev snapshot + next scratch), the vehicle probe cloned it a
//!   third time, subsystems wrote through `String` keys, and each
//!   monitor resolved its variables by name per tick. The model below
//!   reproduces exactly those costs (3 map clones + keyed writes +
//!   per-monitor name lookups) and *omits* the temporal-node evaluation
//!   both pipelines share — so the measured map/frame ratio is a
//!   conservative floor, not an inflated headline.
//! * `frame_tick` — the redesign: memcpy the frame double buffer, store
//!   values into `SignalId`-indexed slots, and observe through the
//!   id-compiled path *including* full temporal evaluation. Zero
//!   allocations.

use criterion::{criterion_group, criterion_main, Criterion};
use esafe_logic::{parse, Expr, FusedSuiteProgram, State};
use esafe_vehicle::config::VehicleParams;
use esafe_vehicle::signals::{self as sig, vehicle_table};
use std::hint::black_box;
use std::sync::Arc;

/// Signals a tick's subsystems re-publish in this model.
const WRITES: [(&str, f64); 8] = [
    (sig::HOST_SPEED, 3.2),
    (sig::HOST_ACCEL, 0.4),
    (sig::HOST_JERK, 0.1),
    (sig::HOST_POSITION, 41.0),
    (sig::ACCEL_CMD, 0.5),
    (sig::ACCEL_CMD_RATE, 0.0),
    (sig::LEAD_DISTANCE, 18.0),
    (sig::LEAD_SPEED, 0.0),
];

/// A panel of goal-shaped formulas over the vehicle namespace.
const GOALS: [&str; 4] = [
    "host.accel <= 2.0",
    "arbiter.accel_cmd_rate <= 2.5",
    "held_for(host.speed <= 0.01, 300ticks) -> arbiter.accel_cmd <= 0.0",
    "world.lead_distance > 0.0 || host.speed <= 0.01",
];

fn seed_state() -> State {
    let (table, _sigs) = vehicle_table();
    let mut s = State::new();
    for id in table.ids() {
        // Seed every declared signal so both paths sample a same-sized
        // namespace; reals suffice for the monitored panel.
        s.set(table.name(id).to_owned(), 0.0f64);
    }
    s
}

fn map_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("state_throughput");
    group.sample_size(200);
    // Per-monitor variable lists, resolved once (as the seed's compiled
    // monitors held their names once); lookups still run per tick.
    let goal_vars: Vec<Vec<String>> = GOALS
        .iter()
        .map(|g| parse(g).unwrap().vars().into_iter().collect())
        .collect();
    let state = seed_state();
    group.bench_function("map_tick", |b| {
        b.iter(|| {
            // Seed Simulator::step: prev snapshot + next scratch clones.
            let prev = state.clone();
            let mut next = prev.clone();
            for (name, v) in WRITES {
                next.set(name, v);
            }
            // Seed vehicle observe: probe derivation cloned the map again.
            let observed = next.clone();
            // Seed monitor observe: per-tick name resolution per variable
            // reference. Temporal-node evaluation is excluded *here* but
            // still paid by the frame path below, so the measured ratio
            // understates the frame path's advantage (see module docs).
            for vars in &goal_vars {
                for name in vars {
                    black_box(observed.get(name));
                }
            }
            black_box(observed.len())
        })
    });
    group.finish();
}

fn frame_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("state_throughput");
    group.sample_size(200);
    let (table, sigs) = vehicle_table();
    let goals: Vec<Expr> = GOALS.iter().map(|g| parse(g).unwrap()).collect();
    let mut monitors = Arc::new(FusedSuiteProgram::compile(&goals, &table).unwrap()).instantiate();
    let writes = [
        (sigs.host_speed, 3.2),
        (sigs.host_accel, 0.4),
        (sigs.host_jerk, 0.1),
        (sigs.host_position, 41.0),
        (sigs.accel_cmd, 0.5),
        (sigs.accel_cmd_rate, 0.0),
        (sigs.lead_distance, 18.0),
        (sigs.lead_speed, 0.0),
    ];
    let mut prev = table.frame();
    for id in table.ids() {
        prev.set(id, 0.0f64);
    }
    let mut next = table.frame();
    let mut observed = table.frame();
    group.bench_function("frame_tick", |b| {
        b.iter(|| {
            // The redesigned pipeline, same tick structure: double-buffer
            // memcpy, id-indexed writes, the observed-frame memcpy, and
            // monitor observation through compiled ids — *including* the
            // temporal-node evaluation the map model above omits.
            next.copy_from(&prev);
            for (id, v) in writes {
                next.set(id, v);
            }
            observed.copy_from(&next);
            monitors.observe(&observed).unwrap();
            for m in 0..GOALS.len() {
                black_box(monitors.verdict(m));
            }
            black_box(observed.len())
        })
    });
    group.finish();
}

fn end_to_end_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("state_throughput");
    group.sample_size(10);
    // The full monitored vehicle substrate, 1000 ticks: every subsystem
    // step, probe derivation, and all 49 monitors on the frame pipeline.
    group.bench_function("vehicle_1000_monitored_ticks", |b| {
        use esafe_vehicle::config::DefectSet;
        use esafe_vehicle::dynamics::Scene;
        let (table, sigs) = vehicle_table();
        let params = VehicleParams::default();
        b.iter(|| {
            let mut sim = esafe_vehicle::builder::build_vehicle(
                params,
                DefectSet::none(),
                Scene::default(),
                vec![],
                &table,
                &sigs,
            );
            let mut suite = esafe_vehicle::goals::build_suite(&table, &params).unwrap();
            let mut observed = table.frame();
            for _ in 0..1000 {
                sim.step();
                observed.copy_from(sim.state());
                esafe_vehicle::probe::derive_into(&mut observed, &sigs, &params);
                suite.observe(&observed).unwrap();
            }
            suite.finish();
            black_box(sim.tick())
        })
    });
    group.finish();
}

criterion_group!(benches, map_sampling, frame_sampling, end_to_end_simulator);
criterion_main!(benches);
