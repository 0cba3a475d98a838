//! Fuzzing the sweep-journal codec: arbitrary records must round-trip
//! bit-identically, truncation at every byte boundary must never yield
//! a phantom record, and garbage or corruption in a journal file must
//! never panic recovery — a damaged tail costs re-running cells, never
//! a wrong aggregate. Mirrors the TCP codec fuzz discipline in
//! `crates/serve/tests/codec_fuzz.rs`.

use esafe_harness::journal::{
    decode_record, encode_record, DecodeOutcome, JournalRecord, SweepJournal,
};
use esafe_harness::{CellDelta, CellFailure, ExperimentConfig, FailureReason};
use proptest::prelude::*;
use std::path::PathBuf;

/// Monitor ids covering the shapes a real sweep writes: plain, dotted,
/// long, and empty.
const IDS: [&str; 4] = ["G", "G.A", "G.B.a-rather-long-monitor-identifier", ""];

fn delta_from(
    cell: u64,
    flags: u64,
    counts: (u64, u64, u64),
    violations: &[(u8, u64)],
) -> CellDelta {
    CellDelta {
        cell: cell as usize,
        retries: (flags >> 2) as u32,
        terminated_early: flags & 1 == 1,
        terminal_event: flags & 2 == 2,
        hits: counts.0,
        false_negatives: counts.1,
        false_positives: counts.2,
        violations: violations
            .iter()
            .map(|&(id, n)| (IDS[(id % 4) as usize].to_owned(), n))
            .collect(),
    }
}

fn failure_from(cell: u64, seed: u64, retries: u32, which: u8, detail: u64) -> CellFailure {
    let reason = match which % 3 {
        0 => FailureReason::Panic {
            message: format!("lane melted down (payload {detail})"),
        },
        1 => FailureReason::Error {
            message: format!("signal `ghost` is not in the table ({detail})"),
        },
        _ => FailureReason::TickBudgetExceeded { budget: detail },
    };
    CellFailure {
        cell: cell as usize,
        seed,
        retries,
        reason,
    }
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("esafe-journal-fuzz-{name}-{}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// Writes a journal of `deltas` at `path` and returns the file bytes.
fn journal_bytes(path: &PathBuf, cells: usize, deltas: &[CellDelta]) -> Vec<u8> {
    let mut journal = SweepJournal::create(path, 7, cells, ExperimentConfig::default()).unwrap();
    for delta in deltas {
        journal
            .append(JournalRecord::Completed(delta.clone()))
            .unwrap();
    }
    journal.sync().unwrap();
    drop(journal);
    std::fs::read(path).unwrap()
}

proptest! {
    /// Completed records round-trip bit-identically: decode inverts
    /// encode, consumes exactly the framing, and re-encodes to the same
    /// bytes.
    #[test]
    fn completed_records_round_trip_bit_identically(
        cell in 0u64..1 << 32,
        flags in 0u64..1 << 10,
        counts in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        violations in proptest::collection::vec((0u8..8, 0u64..u64::MAX), 0..6),
    ) {
        let record = JournalRecord::Completed(delta_from(cell, flags, counts, &violations));
        let bytes = encode_record(&record).unwrap();
        match decode_record(&bytes) {
            DecodeOutcome::Record(back, consumed) => {
                prop_assert_eq!(&back, &record);
                prop_assert_eq!(consumed, bytes.len());
                prop_assert_eq!(encode_record(&back).unwrap(), bytes);
            }
            other => panic!("round trip failed: {other:?}"),
        }
    }

    /// Quarantined records round-trip bit-identically across all three
    /// failure reasons.
    #[test]
    fn quarantined_records_round_trip_bit_identically(
        cell in 0u64..1 << 32,
        seed in 0u64..u64::MAX,
        retries in 0u32..u32::MAX,
        which in 0u8..9,
        detail in 0u64..u64::MAX,
    ) {
        let record = JournalRecord::Quarantined(failure_from(cell, seed, retries, which, detail));
        let bytes = encode_record(&record).unwrap();
        match decode_record(&bytes) {
            DecodeOutcome::Record(back, consumed) => {
                prop_assert_eq!(&back, &record);
                prop_assert_eq!(consumed, bytes.len());
                prop_assert_eq!(encode_record(&back).unwrap(), bytes);
            }
            other => panic!("round trip failed: {other:?}"),
        }
    }

    /// Truncating an encoded record at EVERY byte boundary yields
    /// `Incomplete` or `Corrupt`, never a phantom record and never a
    /// panic.
    #[test]
    fn truncation_at_every_byte_boundary_never_decodes(
        cell in 0u64..1 << 20,
        flags in 0u64..1 << 10,
        counts in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        violations in proptest::collection::vec((0u8..8, 0u64..u64::MAX), 0..4),
    ) {
        let record = JournalRecord::Completed(delta_from(cell, flags, counts, &violations));
        let bytes = encode_record(&record).unwrap();
        for cut in 0..bytes.len() {
            match decode_record(&bytes[..cut]) {
                DecodeOutcome::Incomplete | DecodeOutcome::Corrupt(_) => {}
                DecodeOutcome::Record(..) => panic!(
                    "a {cut}-byte prefix of a {}-byte record decoded",
                    bytes.len()
                ),
            }
        }
    }

    /// A garbage tail smashed onto a valid journal never panics
    /// recovery: every intact record survives, the garbage is cut.
    #[test]
    fn garbage_tails_recover_without_panicking(
        count in 0usize..5,
        garbage in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 1..64),
    ) {
        let path = temp_path("garbage-tail");
        let deltas: Vec<CellDelta> = (0..count)
            .map(|i| delta_from(i as u64, i as u64, (1, 2, 3), &[(0, 1)]))
            .collect();
        let mut bytes = journal_bytes(&path, 8, &deltas);
        bytes.extend_from_slice(&garbage);
        std::fs::write(&path, &bytes).unwrap();

        let recovered = SweepJournal::open(&path).unwrap();
        prop_assert_eq!(recovered.records(), count);
        for (i, _) in deltas.iter().enumerate() {
            prop_assert!(recovered.is_completed(i), "intact record {i} must survive");
        }
        drop(recovered);
        std::fs::remove_file(&path).unwrap();
    }

    /// Arbitrary single-byte corruption anywhere in the record region
    /// never panics recovery; the journal keeps some intact prefix.
    #[test]
    fn record_corruption_recovers_without_panicking(
        flips in proptest::collection::vec((0usize..4096, 1u8..255), 1..6),
    ) {
        let path = temp_path("record-flip");
        let deltas: Vec<CellDelta> = (0..4)
            .map(|i| delta_from(i, i, (i, i + 1, i + 2), &[(0, 1), (1, 2)]))
            .collect();
        let mut bytes = journal_bytes(&path, 8, &deltas);
        let header = esafe_harness::journal::HEADER_BYTES;
        let body = bytes.len() - header;
        for &(pos, mask) in &flips {
            bytes[header + pos % body] ^= mask;
        }
        std::fs::write(&path, &bytes).unwrap();

        let recovered = SweepJournal::open(&path).unwrap();
        prop_assert!(recovered.records() <= 4, "corruption cannot invent records");
        drop(recovered);
        std::fs::remove_file(&path).unwrap();
    }

    /// Any single-byte header corruption is a hard, typed error — never
    /// a panic, never a silently-wrong sweep description.
    #[test]
    fn header_corruption_is_a_hard_error(
        pos in 0usize..esafe_harness::journal::HEADER_BYTES,
        mask in 1u8..255,
    ) {
        let path = temp_path("header-flip");
        let mut bytes = journal_bytes(&path, 4, &[delta_from(0, 0, (1, 1, 1), &[])]);
        bytes[pos] ^= mask;
        std::fs::write(&path, &bytes).unwrap();
        prop_assert!(SweepJournal::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
