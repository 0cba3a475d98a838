//! The committed benchmark points `BENCH_{grid,mega,serve,corpus}.json`
//! at the repository root (written by `scripts/bench_point.py record`)
//! are well formed: each names exactly the end-to-end metrics
//! `BENCHMARK.json` lists, with their units, as the median and quartiles
//! of at least five seeded runs. perfbench's `grid` workload checks every
//! pass against `BENCH_grid.json`'s aggregate, so a malformed point would
//! otherwise first show as a failed benchmark run.

use serde::Deserialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

#[derive(Deserialize)]
struct Metric {
    name: String,
    unit: String,
}

#[derive(Deserialize)]
struct Workload {
    name: String,
}

#[derive(Deserialize)]
struct Benchmark {
    run_seconds: f64,
    workloads: Vec<Workload>,
    end_to_end: Vec<Metric>,
}

#[derive(Deserialize)]
struct Summary {
    unit: String,
    median: f64,
    q1: f64,
    q3: f64,
    runs: Vec<f64>,
}

#[derive(Deserialize)]
struct Point {
    workload: String,
    seed: u64,
    run_seconds: f64,
    k: usize,
    host_speed: f64,
    tree: BTreeMap<String, String>,
    metrics: BTreeMap<String, Summary>,
}

/// The seven aggregate fields perfbench's `grid` check reads.
#[derive(Deserialize)]
struct CommittedAggregate {
    runs: usize,
    terminated_early: usize,
    terminal_events: usize,
    hits: usize,
    false_negatives: usize,
    false_positives: usize,
    violations_by_monitor: Vec<(String, usize)>,
}

#[derive(Deserialize)]
struct WithAggregate {
    aggregate: CommittedAggregate,
}

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read<T: Deserialize>(name: &str) -> T {
    let path = root().join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn every_workload_has_a_committed_point_of_the_benchmarks_metrics() {
    let bench: Benchmark = read("BENCHMARK.json");
    let wanted: BTreeMap<&str, &str> = bench
        .end_to_end
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    assert_eq!(bench.workloads.len(), 4);
    for workload in &bench.workloads {
        let file = format!("BENCH_{}.json", workload.name);
        let point: Point = read(&file);
        assert_eq!(point.workload, workload.name, "{file}");
        assert_eq!(point.seed, 1, "{file}");
        assert_eq!(point.run_seconds, bench.run_seconds, "{file}");
        assert!(point.k >= 5, "{file}: k = {}", point.k);
        assert!(point.host_speed > 0.0, "{file}: host speed");
        assert!(
            !point.tree.is_empty() && point.tree.values().all(|t| t.len() == 40),
            "{file}: the measured trees"
        );
        let names: Vec<&str> = point.metrics.keys().map(String::as_str).collect();
        let expected: Vec<&str> = wanted.keys().copied().collect();
        assert_eq!(names, expected, "{file}: end-to-end metrics");
        for (name, m) in &point.metrics {
            assert_eq!(m.unit, wanted[name.as_str()], "{file}: {name} unit");
            assert_eq!(m.runs.len(), point.k, "{file}: {name} runs");
            assert!(
                0.0 < m.q1 && m.q1 <= m.median && m.median <= m.q3,
                "{file}: {name} quartiles {} {} {}",
                m.q1,
                m.median,
                m.q3
            );
            assert!(
                m.runs.iter().all(|v| v.is_finite() && *v > 0.0),
                "{file}: {name} runs"
            );
        }
    }
}

#[test]
fn the_grid_and_mega_points_carry_their_full_aggregates() {
    for (file, runs) in [("BENCH_grid.json", 140), ("BENCH_mega.json", 10_752)] {
        let a = read::<WithAggregate>(file).aggregate;
        assert_eq!(a.runs, runs, "{file}");
        assert!(a.terminated_early <= a.runs && a.terminal_events <= a.runs);
        assert!(a.hits + a.false_negatives + a.false_positives > 0, "{file}");
        assert!(!a.violations_by_monitor.is_empty(), "{file}");
    }
}
