//! The CRC-32 behind every journal and corpus record, and the on-disk
//! bytes it guards: known answers, agreement with a bit-serial
//! reference at every start alignment, and byte-for-byte pins of a
//! tiny corpus (`corpus.bin` + `MANIFEST.bin`), one journal header and
//! one journal record frame.
//!
//! The tiny corpus and the journal record under `tests/golden/` were
//! written with a bit-serial CRC-32 like the reference below, and the
//! journal header by `SweepJournal::create` before the journal and the
//! corpus shared one record layer. They are never
//! regenerated while `CORPUS_VERSION` and `JOURNAL_VERSION` stay 1:
//! archives and journals already on disk must keep opening, and the
//! writers must keep producing the same bytes.

use esafe_harness::corpus::{
    TraceCorpusReader, TraceCorpusWriter, CORPUS_DATA_FILE, CORPUS_MANIFEST_FILE,
};
use esafe_harness::crc::crc32;
use esafe_harness::journal::{decode_record, encode_record, DecodeOutcome, JournalRecord};
use esafe_harness::{CellDelta, ExperimentConfig, SweepHeader, SweepJournal};
use esafe_logic::{FrameTrace, SignalTable, Value};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const PINNED_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/tiny_corpus");
const PINNED_CORPUS: &[u8] = include_bytes!("golden/tiny_corpus/corpus.bin");
const PINNED_MANIFEST: &[u8] = include_bytes!("golden/tiny_corpus/MANIFEST.bin");
const PINNED_JOURNAL_RECORD: &[u8] = include_bytes!("golden/journal_record.bin");
const PINNED_JOURNAL_HEADER: &[u8] = include_bytes!("golden/journal_header.bin");

/// The bit-serial CRC-32 (reflected 0xedb88320, init and xorout
/// `!0`) — the reference the table-driven kernel must equal.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & 0u32.wrapping_sub(crc & 1));
        }
    }
    !crc
}

/// Deterministic filler bytes (splitmix64 of the position).
fn filler(salt: u64, len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| {
            let mut z = salt.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

#[test]
fn known_answers() {
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    assert_eq!(crc32_bitwise(b"123456789"), 0xcbf4_3926);
}

/// Every length up to three 16-byte blocks at every start offset:
/// each split between whole blocks and the byte-wise tail.
#[test]
fn short_inputs_match_the_bitwise_reference_at_every_alignment() {
    let buf = filler(7, 16 + 48);
    for offset in 0..16 {
        for len in 0..=48 {
            let bytes = &buf[offset..offset + len];
            assert_eq!(crc32(bytes), crc32_bitwise(bytes), "len {len} at {offset}");
        }
    }
}

proptest! {
    #[test]
    fn table_kernel_matches_the_bitwise_reference(
        len in 0usize..4097,
        offset in 0usize..16,
        salt in 0u64..u64::MAX,
    ) {
        let buf = filler(salt, offset + len);
        let bytes = &buf[offset..];
        prop_assert_eq!(crc32(bytes), crc32_bitwise(bytes));
    }
}

/// Three signals, one per column shape the tiny corpus exercises:
/// a bool, a real with an absent stretch, and a symbol.
fn tiny_table() -> Arc<SignalTable> {
    let mut b = SignalTable::builder();
    b.bool("door_open");
    b.real("speed");
    b.sym("cmd");
    b.finish()
}

/// Two runs: six ticks of changing samples, and four ticks with a
/// constant bool, absent reals and a new symbol.
fn tiny_traces(table: &Arc<SignalTable>) -> [FrameTrace; 2] {
    let (door, speed, cmd) = (
        table.id("door_open").expect("declared"),
        table.id("speed").expect("declared"),
        table.id("cmd").expect("declared"),
    );
    let mut first = FrameTrace::new(table, 10);
    let mut frame = table.frame();
    for t in 0..6i64 {
        frame.clear();
        frame.set(door, t % 3 == 0);
        frame.set(speed, 1.5 * t as f64 - 2.0);
        frame.set(cmd, Value::sym(if t < 4 { "UP" } else { "STOP" }));
        first.push(&frame);
    }
    let mut second = FrameTrace::new(table, 10);
    for t in 0..4i64 {
        frame.clear();
        frame.set(door, true);
        if t != 1 && t != 2 {
            frame.set(speed, -0.25 * t as f64);
        }
        frame.set(cmd, Value::sym(if t == 3 { "DOWN" } else { "STOP" }));
        second.push(&frame);
    }
    [first, second]
}

fn write_tiny_corpus(dir: &Path) {
    let table = tiny_table();
    let [first, second] = tiny_traces(&table);
    let mut writer = TraceCorpusWriter::create(dir, ExperimentConfig::default()).unwrap();
    writer
        .append_trace(&first, "elevator", "tiny-0", false, None)
        .unwrap();
    writer
        .append_trace(&second, "elevator", "tiny-1", true, Some("collision"))
        .unwrap();
    writer.finish().unwrap();
}

fn pinned_journal_record() -> JournalRecord {
    JournalRecord::Completed(CellDelta {
        cell: 7,
        retries: 1,
        terminated_early: true,
        terminal_event: false,
        hits: 3,
        false_negatives: 1,
        false_positives: 2,
        violations: vec![("G".to_owned(), 2), ("G.A".to_owned(), 5)],
    })
}

fn temp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("esafe-crc-format-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

#[test]
fn the_tiny_corpus_writes_the_pinned_bytes() {
    let dir = temp_dir("write");
    write_tiny_corpus(&dir);
    assert!(std::fs::read(dir.join(CORPUS_DATA_FILE)).unwrap() == PINNED_CORPUS);
    assert!(std::fs::read(dir.join(CORPUS_MANIFEST_FILE)).unwrap() == PINNED_MANIFEST);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_pinned_corpus_opens_strictly_and_decodes_to_its_traces() {
    let reader = TraceCorpusReader::open(PINNED_DIR).unwrap();
    assert!(!reader.recovered());
    assert_eq!(reader.len(), 2);
    assert_eq!(reader.stats().data_bytes, PINNED_CORPUS.len() as u64);
    assert_eq!(reader.meta(1).terminal_event.as_deref(), Some("collision"));
    let table = tiny_table();
    for (i, reference) in tiny_traces(&table).iter().enumerate() {
        let decoded = reader.decode_trace(i).unwrap();
        assert_eq!(decoded.len(), reference.len());
        for id in table.ids() {
            assert_eq!(
                decoded.column(id),
                reference.column(id),
                "run {i} signal {id:?}"
            );
        }
    }
}

#[test]
fn the_journal_record_frame_matches_the_pinned_bytes() {
    let record = pinned_journal_record();
    assert_eq!(encode_record(&record).unwrap(), PINNED_JOURNAL_RECORD);
    match decode_record(PINNED_JOURNAL_RECORD) {
        DecodeOutcome::Record(back, consumed) => {
            assert_eq!(back, record);
            assert_eq!(consumed, PINNED_JOURNAL_RECORD.len());
        }
        other => panic!("the pinned frame must decode, got {other:?}"),
    }
}

/// The header `SweepJournal::create` writes for the full mega-grid's
/// shape (base seed 2009, 10 752 cells, default timing policy), and
/// the sweep `open` reads back from those pinned bytes.
#[test]
fn the_journal_header_matches_the_pinned_bytes() {
    let path = temp_dir("journal-header").with_extension("journal");
    let _ = std::fs::remove_file(&path);
    let header = SweepHeader {
        base_seed: 2009,
        cells: 10_752,
        config: ExperimentConfig::default(),
    };
    drop(SweepJournal::create(&path, header.base_seed, header.cells, header.config).unwrap());
    assert_eq!(std::fs::read(&path).unwrap(), PINNED_JOURNAL_HEADER);

    std::fs::write(&path, PINNED_JOURNAL_HEADER).unwrap();
    let journal = SweepJournal::open(&path).unwrap();
    assert_eq!(journal.header(), header);
    assert_eq!(journal.records(), 0);
    drop(journal);
    std::fs::remove_file(&path).unwrap();
}
