//! Figure-series golden: the series behind thesis Figs. 5.2–5.15.
//!
//! For every thesis scenario under the thesis defects, each of the
//! scenario's figure signals is pinned as `runner::run` records it:
//! point count, first and last point, and a CRC-32 over every point's
//! `(t, x)` pair as little-endian `f64` bits. Times are part of the
//! pin, so a series shifted by one tick fails here even when its values
//! match. `golden/figure_series_thesis.json` was written by the per-tick
//! series sampler that the frame recording replaced; the series derived
//! from the recording must reproduce it bit for bit.

use emergent_safety::harness::crc::crc32;
use emergent_safety::scenarios::{catalog, runner};
use emergent_safety::vehicle::config::DefectSet;
use std::fmt::Write;

/// One JSON object per line. Floats print through `{:?}`, Rust's
/// shortest round-trip form, so equal text means equal bits.
fn digest() -> String {
    let mut out = String::from("[\n");
    let mut first_entry = true;
    for scenario in catalog::all() {
        let report = runner::run(&scenario, DefectSet::thesis()).expect("scenario runs");
        for &signal in &scenario.figure_signals {
            let points = report.series.series(signal).unwrap_or(&[]);
            let bytes: Vec<u8> = points
                .iter()
                .flat_map(|(t, x)| t.to_le_bytes().into_iter().chain(x.to_le_bytes()))
                .collect();
            let point = |p: Option<&(f64, f64)>| match p {
                Some((t, x)) => format!("[{t:?}, {x:?}]"),
                None => "null".to_owned(),
            };
            if !first_entry {
                out.push_str(",\n");
            }
            first_entry = false;
            let _ = write!(
                out,
                "  {{\"scenario\": {}, \"signal\": \"{signal}\", \"points\": {}, \
                 \"first\": {}, \"last\": {}, \"crc32\": \"{:08x}\"}}",
                scenario.number,
                points.len(),
                point(points.first()),
                point(points.last()),
                crc32(&bytes),
            );
        }
    }
    out.push_str("\n]\n");
    out
}

#[test]
fn figure_series_match_the_golden() {
    let golden = include_str!("golden/figure_series_thesis.json");
    let got = digest();
    for (line, (want, have)) in golden.lines().zip(got.lines()).enumerate() {
        assert_eq!(
            have,
            want,
            "figure series differ at golden line {}",
            line + 1
        );
    }
    assert_eq!(got, golden, "figure series count differs from the golden");
}
