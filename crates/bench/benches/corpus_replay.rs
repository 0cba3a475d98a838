//! Offline re-monitoring throughput: opening an archived trace corpus
//! and replaying it through a goal suite — simulate nothing, just
//! checksum the archive, decode columns into the lane slab and sweep
//! the fused DAG across stripes.
//!
//! * `crc32_16MiB` — the record checksum alone over a 16 MiB buffer;
//!   divide 16 MiB by the time for the throughput that bounds open;
//! * `open` — [`TraceCorpusReader::open`]: read the data file,
//!   checksum every record, decode tables, dictionary and run
//!   metadata. Linear in archive bytes;
//! * `decode_only` — the codec floor: materializing every archived
//!   run's columns (delta/varint/dictionary decode), no monitoring;
//! * `decode_into_slab_w8` — the replay decode: each run streamed
//!   tick by tick into one lane of an 8-lane slab;
//! * `replay_strict_w{N}` — the full `repro --replay-corpus` path at
//!   stripe width N: per-group suite compilation, column decode
//!   straight into the [`FrameBatch`] slab, `observe_slab` per tick,
//!   correlation and violation extraction per lane.
//!
//! Each decode or replay iteration covers the whole corpus (printed
//! below as runs × ticks); divide by total ticks for the ns/tick/run
//! figure. End to end, replay speed is perfbench's `corpus` workload.
//!
//! [`FrameBatch`]: esafe_logic::FrameBatch
//! [`TraceCorpusReader::open`]: esafe_harness::TraceCorpusReader::open

use criterion::{criterion_group, criterion_main, Criterion};
use esafe_scenarios::corpus::{record_grid_corpus, suite_for};
use esafe_scenarios::grid;

fn corpus_replay(c: &mut Criterion) {
    let mut dir = std::env::temp_dir();
    dir.push(format!("esafe-bench-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cells = grid::cells(&[1, 2, 10], &grid::ablation_configs()[..4]);
    let (_, _, stats) = record_grid_corpus(&dir, cells).expect("recording succeeds");
    let reader = esafe_harness::TraceCorpusReader::open(&dir).expect("committed corpus opens");
    println!(
        "corpus: {} runs, {} ticks, {} bytes ({:.2} bytes/tick)",
        stats.runs,
        stats.ticks,
        stats.data_bytes,
        stats.data_bytes as f64 / stats.ticks.max(1) as f64,
    );

    let mut group = c.benchmark_group("corpus_replay");
    group.sample_size(10);

    let buffer: Vec<u8> = (0..16u32 << 20)
        .map(|i| (i.wrapping_mul(0x9e37_79b9) >> 24) as u8)
        .collect();
    group.bench_function("crc32_16MiB", |b| {
        b.iter(|| esafe_harness::crc::crc32(std::hint::black_box(&buffer)))
    });

    group.bench_function("open", |b| {
        b.iter(|| {
            let reader =
                esafe_harness::TraceCorpusReader::open(&dir).expect("committed corpus opens");
            assert_eq!(reader.len(), stats.runs);
        })
    });

    group.bench_function("decode_only", |b| {
        b.iter(|| {
            for i in 0..reader.len() {
                let trace = reader.decode_trace(i).expect("archived runs decode");
                assert_eq!(trace.len() as u64, reader.meta(i).ticks);
            }
        })
    });

    group.bench_function("decode_into_slab_w8", |b| {
        let table = reader.table(0).expect("one table");
        let mut slab = esafe_logic::FrameBatch::new(table, 8);
        b.iter(|| {
            let mut decoders: Vec<_> = (0..reader.len())
                .map(|i| reader.decoder(i).expect("archived runs open"))
                .collect();
            for (lane, dec) in decoders.iter_mut().enumerate() {
                while dec.write_tick(&mut slab, lane % 8, reader.dict()).is_some() {}
            }
        })
    });

    for width in [1usize, 4, 12] {
        group.bench_function(format!("replay_strict_w{width}"), |b| {
            b.iter(|| {
                let replay = esafe_harness::replay_corpus(&reader, width, |substrate, table| {
                    suite_for("strict", substrate, table)
                })
                .expect("replay succeeds");
                assert_eq!(replay.runs, reader.len());
            })
        });
    }

    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, corpus_replay);
criterion_main!(benches);
