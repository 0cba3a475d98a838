//! Machine-speed calibration.
//!
//! The benchmark shares its host with other tenants, and the host's speed
//! drifts by ±25% over minutes, far more than the changes the benchmark
//! must resolve. Before each timed pass a run therefore times a fixed
//! synthetic kernel that no repository code touches, on every thread, and
//! takes the host's speed as the kernel's rate over its rate on the
//! reference container ([`REFERENCE_RATE`]). Throughput is scaled to the
//! reference speed: a run on a host running at 80% of it reports its
//! throughput ÷ 0.8. Both the raw and the scaled figures are printed.
//!
//! Set-up is single-threaded and takes milliseconds, so it is scaled
//! differently: each set-up repetition is preceded by a short slice of
//! the kernel on the set-up thread ([`slice_speed`]), and each
//! repetition's time is scaled by the speed that slice saw.

use crate::stats::median;
use std::collections::HashMap;
use std::time::Instant;

/// Kernel units per second on the reference container (two threads).
pub const REFERENCE_RATE: f64 = 450_000.0;

/// Kernel units per second of one thread on the reference container.
pub const REFERENCE_RATE_ONE_THREAD: f64 = 365_000.0;

/// Kernel units of one set-up slice (about 4 ms on the reference
/// container).
const UNITS_PER_SLICE: u64 = 1_000;

/// Kernel units per thread per sample (about 0.1 s on the reference
/// container).
const UNITS_PER_THREAD: u64 = 20_000;

/// One thread's kernel: per unit, a 512-lane floating-point update, a
/// boolean row fold and 64 string-keyed lookups — the mix of arithmetic,
/// branches and hashing the workloads run.
fn kernel(units: u64, seed: u64) -> f64 {
    let lanes = 512;
    let mut x: Vec<f64> = (0..lanes)
        .map(|i| (i as f64 + seed as f64) * 1e-3)
        .collect();
    let mut v = vec![0.5f64; lanes];
    let mut b = vec![false; lanes];
    let keys: Vec<String> = (0..256).map(|i| format!("signal.{i}.value")).collect();
    let index: HashMap<&str, usize> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| (k.as_str(), i))
        .collect();
    let mut acc = 0.0;
    for u in 0..units {
        for l in 0..lanes {
            let a = -0.7 * x[l] - 0.02 * v[l];
            v[l] += a * 1e-3;
            x[l] += v[l] * 1e-3;
            b[l] = (x[l] > 0.2) != (v[l] < 0.0) || b[l] && x[l] < 0.1;
        }
        for k in 0..64 {
            acc += index[keys[(u as usize * 7 + k) % keys.len()].as_str()] as f64;
        }
        acc += b.iter().filter(|&&f| f).count() as f64;
    }
    acc + x[0]
}

/// The host's speed right now on all threads, relative to the
/// reference container.
pub fn speed() -> f64 {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let started = Instant::now();
    let checksum: f64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| scope.spawn(move || kernel(UNITS_PER_THREAD, t as u64)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("the calibration kernel cannot panic"))
            .sum()
    });
    std::hint::black_box(checksum);
    let rate = (threads as u64 * UNITS_PER_THREAD) as f64 / started.elapsed().as_secs_f64();
    rate / REFERENCE_RATE
}

/// The calling thread's speed right now over one short set-up slice of
/// the kernel, relative to the reference container.
pub fn slice_speed() -> f64 {
    let started = Instant::now();
    std::hint::black_box(kernel(UNITS_PER_SLICE, 0));
    UNITS_PER_SLICE as f64 / started.elapsed().as_secs_f64() / REFERENCE_RATE_ONE_THREAD
}

/// How much faster the reference container is than this run's host: one
/// over the median of the run's speed samples.
///
/// # Panics
///
/// Panics if no sample was taken.
pub fn slowdown(speeds: &[f64]) -> f64 {
    1.0 / median(speeds)
}
