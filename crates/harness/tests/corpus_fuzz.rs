//! Fuzzing the trace-corpus codec and store: random tables, runs, and
//! tick patterns must round-trip bit-identically (including NaN
//! payloads, `-0.0`, and `Int` samples in `Real` columns); truncating
//! a torn corpus at EVERY byte boundary must recover a monotone prefix
//! of complete runs without panicking; garbage manifests and corrupted
//! committed regions must be typed errors, never panics and never
//! silently-wrong replays. Mirrors the sweep-journal fuzz discipline
//! in `journal_fuzz.rs`.

use esafe_harness::corpus::{
    CorpusError, TraceCorpusReader, TraceCorpusWriter, CORPUS_DATA_FILE, CORPUS_HEADER_BYTES,
    CORPUS_MANIFEST_FILE,
};
use esafe_harness::record::FormatError;
use esafe_harness::ExperimentConfig;
use esafe_logic::corpus::{decode_run_trace, encode_run, RunMeta, SymDict};
use esafe_logic::{FrameBatch, FrameTrace, RunDecoder, SignalKind, SignalTable, Value};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("esafe-corpus-fuzz-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// A deterministic value mixer (splitmix64) so traces are pure
/// functions of the proptest inputs.
fn mix(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_add(b.rotate_left(17))
        .wrapping_add(c.rotate_left(31))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Builds a table from kind codes: one signal per code, named `s0..`.
fn table_from(kinds: &[u8]) -> Arc<SignalTable> {
    let mut b = SignalTable::builder();
    for (j, kind) in kinds.iter().enumerate() {
        let name = format!("s{j}");
        match kind % 4 {
            0 => b.bool(&name),
            1 => b.int(&name),
            2 => b.real(&name),
            _ => b.sym(&name),
        };
    }
    b.finish()
}

/// The fuzzed sample for signal `j` at tick `t`: absent with
/// probability `100 - density`, otherwise a kind-appropriate value
/// covering the codec's hard cases (NaN bit patterns, negative zero,
/// `Int` in a `Real` column, recurring and one-off symbols). About one
/// signal in four repeats its tick-0 sample for the whole run, so runs
/// mix static (empty or constant) columns with changing ones.
fn value_at(kind: SignalKind, j: usize, t: usize, density: u64, salt: u64) -> Option<Value> {
    let held = mix(salt, j as u64, u64::MAX).is_multiple_of(4);
    let m = mix(salt, j as u64, if held { 0 } else { t as u64 });
    if m % 100 >= density {
        return None;
    }
    Some(match kind {
        SignalKind::Bool => Value::Bool(m & 256 != 0),
        SignalKind::Int => Value::Int((m >> 8) as i64),
        SignalKind::Real => match (m >> 8) % 5 {
            // `Real` columns legitimately carry `Int` samples.
            0 => Value::Int((m >> 16) as i64 % 1000),
            1 => Value::Real(f64::from_bits(0x7ff8_dead_beef_0001 | (m >> 16) << 52)),
            2 => Value::Real(-0.0),
            _ => Value::Real(f64::from_bits(m)),
        },
        SignalKind::Sym => Value::sym(match (m >> 8) % 6 {
            0 => "GO".to_owned(),
            1 => "STOP".to_owned(),
            2 => "HOLD".to_owned(),
            _ => format!("sym-{}", (m >> 11) % 8),
        }),
    })
}

/// Assembles the fuzzed trace for a table.
fn trace_from(table: &Arc<SignalTable>, len: usize, density: u64, salt: u64) -> FrameTrace {
    let mut trace = FrameTrace::with_capacity(table, 1 + (salt % 20), len);
    let mut frame = table.frame();
    for t in 0..len {
        frame.clear();
        for id in table.ids() {
            if let Some(v) = value_at(table.kind(id), id.index(), t, density, salt) {
                frame.set(id, v);
            }
        }
        trace.push(&frame);
    }
    trace
}

/// `Option<Value>` equality under bit semantics: NaNs with equal
/// payloads are equal, `-0.0 != 0.0` — exactly what the codec
/// preserves.
fn bits_eq(a: &Option<Value>, b: &Option<Value>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(Value::Real(x)), Some(Value::Real(y))) => x.to_bits() == y.to_bits(),
        (x, y) => x == y,
    }
}

fn meta_for(trace: &FrameTrace, salt: u64) -> RunMeta {
    RunMeta {
        table_ref: 0,
        substrate: "fuzz".to_owned(),
        label: format!("run-{salt:x}"),
        dt_millis: trace.tick_millis(),
        ticks: trace.len() as u64,
        terminated_early: salt & 1 == 1,
        terminal_event: (salt & 2 == 2).then(|| "collision".to_owned()),
    }
}

/// Writes a small corpus of fuzzed runs at `dir`, returning each run's
/// trace.
fn write_corpus(
    dir: &PathBuf,
    table: &Arc<SignalTable>,
    lens: &[usize],
    salt: u64,
) -> Vec<FrameTrace> {
    let mut writer = TraceCorpusWriter::create(dir, ExperimentConfig::default()).unwrap();
    let traces: Vec<FrameTrace> = lens
        .iter()
        .enumerate()
        .map(|(i, &len)| trace_from(table, len, 60 + (salt % 41), salt.wrapping_add(i as u64)))
        .collect();
    for (i, trace) in traces.iter().enumerate() {
        writer
            .append_trace(trace, "fuzz", &format!("run-{i}"), false, None)
            .unwrap();
    }
    writer.finish().unwrap();
    traces
}

/// Column-by-column bit equality between a decoded and a reference
/// trace.
fn assert_traces_bit_equal(decoded: &FrameTrace, reference: &FrameTrace) {
    assert_eq!(decoded.len(), reference.len());
    assert_eq!(decoded.tick_millis(), reference.tick_millis());
    // The decoded table re-interns the same signals in the same order,
    // so recorded ids index both traces.
    for id in reference.table().ids() {
        let d = decoded.column(id);
        let r = reference.column(id);
        assert_eq!(d.len(), r.len());
        for (t, (dv, rv)) in d.iter().zip(r).enumerate() {
            assert!(
                bits_eq(dv, rv),
                "signal {} tick {t}: decoded {dv:?} != recorded {rv:?}",
                reference.table().name(id)
            );
        }
    }
}

/// A kind-appropriate value planted in every slot of a slab before
/// streaming, so a missed write shows. No fuzzed trace produces the
/// int, real or symbol sentinel; a bool has only two values, so the
/// bool sentinel is `flip`, which varies from case to case.
fn sentinel(kind: SignalKind, flip: bool) -> Value {
    match kind {
        SignalKind::Bool => Value::Bool(flip),
        SignalKind::Int => Value::Int(i64::MIN + 7),
        SignalKind::Real => Value::Real(f64::from_bits(0x7ff0_5e47_1ee1_0001)),
        SignalKind::Sym => Value::sym("sentinel"),
    }
}

/// Streams an encoded run through [`RunDecoder::write_tick`] into one
/// lane of a 3-lane slab planted with sentinels: at every tick the
/// lane must hold exactly the reference frame (absent samples unset,
/// static columns still in place after tick 0) and the neighbour lanes
/// must keep their sentinels. The run must end fully consumed and
/// refuse a further tick. `salt` picks the lane and the bool sentinel.
fn assert_write_tick_streams(bytes: &[u8], dict: &SymDict, reference: &FrameTrace, salt: u64) {
    let (lane, flip) = ((salt % 3) as usize, salt & 8 != 0);
    let table = reference.table();
    let (_, mut dec) = RunDecoder::new(bytes, table, dict).expect("a just-encoded run opens");
    assert_eq!(dec.len(), reference.len());
    let mut slab = FrameBatch::new(table, 3);
    for id in table.ids() {
        for l in 0..3 {
            slab.set(id, l, sentinel(table.kind(id), flip));
        }
    }
    for t in 0..reference.len() {
        assert!(
            dec.write_tick(&mut slab, lane, dict).is_some(),
            "tick {t} failed"
        );
        for id in table.ids() {
            let want = reference.column(id)[t];
            assert!(
                bits_eq(&slab.get(id, lane), &want),
                "signal {} tick {t}: lane holds {:?}, trace {want:?}",
                table.name(id),
                slab.get(id, lane)
            );
            for l in (0..3).filter(|&l| l != lane) {
                assert!(
                    bits_eq(&slab.get(id, l), &Some(sentinel(table.kind(id), flip))),
                    "signal {} tick {t}: neighbour lane {l} was overwritten",
                    table.name(id)
                );
            }
        }
    }
    assert!(dec.fully_consumed());
    assert_eq!(dec.ticks_decoded(), reference.len());
    assert!(dec.write_tick(&mut slab, lane, dict).is_none());
}

proptest! {
    /// Random tables × random tick patterns round-trip bit-identically
    /// through the run codec, and re-encoding the decoded trace with a
    /// fresh dictionary reproduces the original bytes. The same bytes
    /// streamed tick by tick into one lane of a slab reproduce the
    /// trace there and leave the neighbour lanes alone.
    #[test]
    fn random_runs_round_trip_bit_identically(
        kinds in proptest::collection::vec(0u8..4, 1..6),
        len in 0usize..300,
        density in 0u64..101,
        salt in 0u64..u64::MAX,
    ) {
        let table = table_from(&kinds);
        let trace = trace_from(&table, len, density, salt);
        let meta = meta_for(&trace, salt);

        let mut dict = SymDict::new();
        let bytes = encode_run(&trace, &meta, &mut dict);
        let (back_meta, decoded) =
            decode_run_trace(&bytes, &table, &dict).expect("a just-encoded run decodes");
        prop_assert_eq!(&back_meta, &meta);
        assert_traces_bit_equal(&decoded, &trace);

        // Determinism: a fresh dictionary assigns the same ids in the
        // same first-appearance order, so the bytes reproduce exactly.
        let mut dict2 = SymDict::new();
        prop_assert_eq!(encode_run(&decoded, &meta, &mut dict2), bytes);

        assert_write_tick_streams(&bytes, &dict, &trace, salt);
    }

    /// Truncating a torn (manifest-less) corpus at EVERY byte boundary
    /// never panics and never invents data: the reader recovers a
    /// monotonically growing prefix of complete runs, each decoding
    /// bit-identically to what was recorded.
    #[test]
    fn truncation_at_every_byte_boundary_recovers_a_clean_prefix(
        kinds in proptest::collection::vec(0u8..4, 1..4),
        salt in 0u64..u64::MAX,
    ) {
        let dir = temp_dir("truncate");
        let table = table_from(&kinds);
        let traces = write_corpus(&dir, &table, &[7, 11, 3], salt);
        let data = dir.join(CORPUS_DATA_FILE);
        let bytes = std::fs::read(&data).unwrap();
        // A SIGKILL mid-record never leaves a manifest behind.
        std::fs::remove_file(dir.join(CORPUS_MANIFEST_FILE)).unwrap();

        let mut last_runs = 0usize;
        for cut in 0..=bytes.len() {
            std::fs::write(&data, &bytes[..cut]).unwrap();
            match TraceCorpusReader::open(&dir) {
                Ok(reader) => {
                    prop_assert!(cut >= CORPUS_HEADER_BYTES);
                    prop_assert!(reader.recovered());
                    prop_assert!(reader.len() >= last_runs, "recovery went backwards at {cut}");
                    prop_assert!(reader.len() <= traces.len());
                    last_runs = reader.len();
                    for (i, reference) in traces.iter().enumerate().take(reader.len()) {
                        let decoded = reader.decode_trace(i).expect("recovered runs decode");
                        assert_traces_bit_equal(&decoded, reference);
                    }
                }
                // Only a header-short prefix may refuse to open.
                Err(CorpusError::Header(FormatError::Truncated)) => {
                    prop_assert!(cut < CORPUS_HEADER_BYTES)
                }
                Err(other) => panic!("unexpected error at cut {cut}: {other}"),
            }
        }
        prop_assert_eq!(last_runs, traces.len(), "the full file recovers every run");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A garbage manifest is a typed [`CorpusError::Manifest`] — never
    /// a panic, never a silent fallback to recovery mode (which could
    /// mask a half-written commit).
    #[test]
    fn garbage_manifests_are_typed_errors(
        garbage in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..96),
        salt in 0u64..u64::MAX,
    ) {
        let dir = temp_dir("garbage-manifest");
        let table = table_from(&[0, 2, 3]);
        write_corpus(&dir, &table, &[5], salt);
        std::fs::write(dir.join(CORPUS_MANIFEST_FILE), &garbage).unwrap();
        match TraceCorpusReader::open(&dir) {
            Err(CorpusError::Manifest(_)) => {}
            other => panic!("garbage manifest must be a Manifest error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Single-byte corruption anywhere in a *committed* region is a
    /// hard typed error — a manifest promises the data it indexed.
    #[test]
    fn committed_corruption_is_always_detected(
        pos in 0usize..1 << 16,
        mask in 1u8..255,
        salt in 0u64..u64::MAX,
    ) {
        let dir = temp_dir("commit-flip");
        let table = table_from(&[1, 2, 3, 0]);
        write_corpus(&dir, &table, &[6, 9], salt);
        let data = dir.join(CORPUS_DATA_FILE);
        let mut bytes = std::fs::read(&data).unwrap();
        let at = pos % bytes.len();
        bytes[at] ^= mask;
        std::fs::write(&data, &bytes).unwrap();
        match TraceCorpusReader::open(&dir) {
            Err(
                CorpusError::Header(_)
                | CorpusError::Manifest(_)
                | CorpusError::Corrupt { .. }
                | CorpusError::Totals { .. }
                | CorpusError::Index(_),
            ) => {}
            Ok(_) => panic!("corruption at byte {at} went undetected"),
            Err(other) => panic!("unexpected error kind: {other}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A garbage tail smashed onto a torn corpus (no manifest) never
    /// panics: every complete run survives, the garbage is dropped.
    #[test]
    fn garbage_tails_recover_every_complete_run(
        garbage in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 1..64),
        salt in 0u64..u64::MAX,
    ) {
        let dir = temp_dir("garbage-tail");
        let table = table_from(&[3, 3, 1]);
        let traces = write_corpus(&dir, &table, &[4, 8], salt);
        std::fs::remove_file(dir.join(CORPUS_MANIFEST_FILE)).unwrap();
        let data = dir.join(CORPUS_DATA_FILE);
        let mut bytes = std::fs::read(&data).unwrap();
        bytes.extend_from_slice(&garbage);
        std::fs::write(&data, &bytes).unwrap();

        let reader = TraceCorpusReader::open(&dir).unwrap();
        prop_assert!(reader.recovered());
        prop_assert_eq!(reader.len(), traces.len());
        for (i, reference) in traces.iter().enumerate() {
            assert_traces_bit_equal(&reader.decode_trace(i).unwrap(), reference);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
