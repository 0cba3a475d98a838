//! Wire decode: `tcp::decode_payload` over one recorded elevator trace
//! (`drive_ignores_door`, 2048 ticks), the per-frame cost every TCP
//! stream and the serve workload pay.
//!
//! * `id_order` — messages as `write_frame` sends them, signals in id
//!   order: every name is resolved by the decoder's in-order guess;
//! * `reverse_order` — the same frames sent by a producer whose table
//!   declares the names in reverse: every guess misses and each name
//!   falls back to the table's name map.
//!
//! Each iteration decodes the whole trace; divide by the frame count
//! printed below for the per-frame figure.

use criterion::{criterion_group, criterion_main, Criterion};
use esafe_elevator::faults::ElevatorFaults;
use esafe_elevator::{build_elevator, ElevatorFamily};
use esafe_logic::{Frame, SignalTable};
use esafe_serve::tcp::{decode_payload, write_frame};
use std::hint::black_box;

const TICKS: usize = 2048;

/// One wire payload (the message minus its length prefix) per frame.
fn payloads(frames: &[Frame]) -> Vec<Vec<u8>> {
    frames
        .iter()
        .map(|frame| {
            let mut wire = Vec::new();
            write_frame(&mut wire, frame).expect("trace frames fit the wire budget");
            wire.split_off(4)
        })
        .collect()
}

fn wire_decode(c: &mut Criterion) {
    let family = ElevatorFamily::default();
    let faults = ElevatorFaults {
        drive_ignores_door: true,
        ..ElevatorFaults::none()
    };
    let table = family.table();
    let mut sim = build_elevator(*family.params(), faults, 7, table, family.sigs());
    let frames: Vec<Frame> = (0..TICKS)
        .map(|_| {
            sim.step();
            sim.state().clone()
        })
        .collect();

    let mut b = SignalTable::builder();
    for id in table.ids().collect::<Vec<_>>().into_iter().rev() {
        b.signal(table.name(id), table.kind(id));
    }
    let reversed = b.finish();
    let reversed_frames: Vec<Frame> = frames
        .iter()
        .map(|f| {
            reversed
                .frame_from_state(&f.to_state())
                .expect("same namespace")
        })
        .collect();

    let in_order = payloads(&frames);
    let reverse = payloads(&reversed_frames);
    println!(
        "wire_decode: {TICKS} frames of {} signals, {:.0} B/frame",
        table.len(),
        in_order.iter().map(Vec::len).sum::<usize>() as f64 / TICKS as f64
    );

    let mut group = c.benchmark_group("wire_decode");
    group.sample_size(20);
    for (label, payloads) in [("id_order", &in_order), ("reverse_order", &reverse)] {
        let mut frame = table.frame();
        // Both orders must decode to the recorded frames.
        for (payload, expected) in payloads.iter().zip(&frames) {
            decode_payload(payload, &mut frame).expect("recorded frames decode");
            assert_eq!(&frame, expected, "{label}");
        }
        group.bench_function(label, |b| {
            b.iter(|| {
                for payload in payloads {
                    decode_payload(black_box(payload), &mut frame).expect("recorded frames decode");
                }
                black_box(frame.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, wire_decode);
criterion_main!(benches);
