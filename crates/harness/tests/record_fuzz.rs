//! The durable-record layer's properties, checked once for both formats
//! built on it: the sweep journal (16 MiB payload budget) and the trace
//! corpus (64 MiB). Frames round-trip and scan back in order;
//! truncation at every byte is a torn tail; zero and over-budget
//! lengths are refused on write and are corruption on read; no
//! single-byte change turns a frame into a different payload; a
//! single-byte change anywhere in any of the three header shapes is a
//! typed error; and a scan, which checks its frames' checksums in
//! parallel, stops where a serial walk does and hands over the same
//! frames in the same order.
//!
//! Each format's own payloads are fuzzed in `journal_fuzz.rs` and
//! `corpus_fuzz.rs`.

use esafe_harness::corpus::{DATA_FORMAT, MANIFEST_FORMAT};
use esafe_harness::crc::crc32;
use esafe_harness::journal::FORMAT as JOURNAL_FORMAT;
use esafe_harness::record::{
    header_len, Decoded, Format, FormatError, CHECK_CHUNK_BYTES, FRAME_OVERHEAD,
};
use proptest::prelude::*;

/// The two framed formats: only their budgets and magic differ.
const FRAMED: [Format; 2] = [JOURNAL_FORMAT, DATA_FORMAT];

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

/// One payload per length, each from its own salt.
fn payloads(lens: &[usize], salt: u64) -> Vec<Vec<u8>> {
    lens.iter()
        .enumerate()
        .map(|(i, &len)| filler(salt ^ i as u64, len))
        .collect()
}

/// The ways [`Format::scan`]'s walk can stop at a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Defect {
    /// A payload byte flipped: a checksum mismatch.
    Flip,
    /// The file cut inside the frame: a torn tail.
    Torn,
    /// A length prefix over the budget.
    OverBudget,
    /// A payload `accept` refuses.
    Refused,
}

const DEFECTS: [Defect; 4] = [
    Defect::Flip,
    Defect::Torn,
    Defect::OverBudget,
    Defect::Refused,
];

/// The scan a serial walk with [`Format::decode_frame`] makes: where it
/// stops, why, and the offsets of the frames it accepts, `refused`
/// being the offset whose payload `accept` refuses.
fn serial_scan(
    format: &Format,
    bytes: &[u8],
    refused: Option<usize>,
) -> (usize, Option<FormatError>, Vec<usize>) {
    let (mut at, mut accepted) = (0, Vec::new());
    while at < bytes.len() {
        match format.decode_frame(&bytes[at..]) {
            Decoded::Record(_, _) if refused == Some(at) => {
                return (at, Some(FormatError::Malformed), accepted)
            }
            Decoded::Record(_, n) => {
                accepted.push(at);
                at += n;
            }
            Decoded::Incomplete => return (at, Some(FormatError::Truncated), accepted),
            Decoded::Corrupt(e) => return (at, Some(e), accepted),
        }
    }
    (at, None, accepted)
}

/// A frame header claiming `len` payload bytes, followed by filler.
fn frame_claiming(len: u64, salt: u64) -> Vec<u8> {
    let mut out = (len as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&crc32(&[]).to_le_bytes());
    out.extend_from_slice(&filler(salt, 64));
    out
}

proptest! {
    /// Each frame decodes to its payload and its own length, and a scan
    /// over back-to-back frames after a header hands over every payload
    /// at its offset and stops at the end with no defect.
    #[test]
    fn frames_round_trip_and_scan_in_order(
        lens in proptest::collection::vec(1usize..600, 1..6),
        salt in 0u64..u64::MAX,
    ) {
        for format in &FRAMED {
            let payloads = payloads(&lens, salt);
            let mut file = filler(!salt, 12);
            let mut expected = Vec::new();
            for payload in &payloads {
                let frame = format.encode_frame(payload).unwrap();
                prop_assert_eq!(frame.len(), FRAME_OVERHEAD + payload.len());
                prop_assert_eq!(
                    format.decode_frame(&frame),
                    Decoded::Record(&payload[..], frame.len())
                );
                expected.push((file.len(), payload.clone()));
                file.extend_from_slice(&frame);
            }
            let mut seen = Vec::new();
            let (end, defect) = format.scan(&file, 12, |at, payload| {
                seen.push((at, payload.to_vec()));
                Ok(())
            });
            prop_assert_eq!((end, defect), (file.len(), None));
            prop_assert_eq!(seen, expected);
        }
    }

    /// Cutting a run of frames at every byte: the first frame's prefix
    /// decodes as `Incomplete`, and the scan keeps exactly the frames
    /// wholly before the cut, ending after the last of them and
    /// reporting a torn tail unless the cut falls between frames.
    #[test]
    fn truncation_at_every_byte_is_a_torn_tail(
        lens in proptest::collection::vec(1usize..40, 1..4),
        salt in 0u64..u64::MAX,
    ) {
        for format in &FRAMED {
            let frames: Vec<Vec<u8>> = payloads(&lens, salt)
                .iter()
                .map(|payload| format.encode_frame(payload).unwrap())
                .collect();
            let file = frames.concat();
            let mut ends = vec![0];
            for frame in &frames {
                ends.push(ends[ends.len() - 1] + frame.len());
            }
            for cut in 0..file.len() {
                if cut < frames[0].len() {
                    prop_assert_eq!(format.decode_frame(&file[..cut]), Decoded::Incomplete);
                }
                let whole = ends.iter().filter(|&&end| end <= cut).count() - 1;
                let mut accepted = 0;
                let (end, defect) = format.scan(&file[..cut], 0, |_, _| {
                    accepted += 1;
                    Ok(())
                });
                prop_assert_eq!(accepted, whole);
                prop_assert_eq!(end, ends[whole]);
                prop_assert_eq!(defect, (end < cut).then_some(FormatError::Truncated));
            }
        }
    }

    /// A frame claiming zero bytes or more than the budget is `Corrupt`
    /// before any payload is read, and the writer refuses an empty
    /// payload the same way.
    #[test]
    fn zero_and_over_budget_lengths_are_corrupt(
        excess in 1u64..1 << 32,
        salt in 0u64..u64::MAX,
    ) {
        for format in &FRAMED {
            let max = format.max_payload as u64;
            for len in [0, (max + excess).min(u64::from(u32::MAX))] {
                prop_assert_eq!(
                    format.decode_frame(&frame_claiming(len, salt)),
                    Decoded::Corrupt(FormatError::Length { len, max })
                );
                let (end, defect) = format.scan(&frame_claiming(len, salt), 0, |_, _| Ok(()));
                prop_assert_eq!((end, defect), (0, Some(FormatError::Length { len, max })));
            }
            prop_assert_eq!(
                format.encode_frame(&[]),
                Err(FormatError::Length { len: 0, max })
            );
        }
    }

    /// A byte flipped anywhere in a frame, with more bytes after it as
    /// in a file, never decodes to a different payload; a flip in the
    /// checksum or the payload is always a checksum mismatch.
    #[test]
    fn a_flipped_byte_never_yields_a_different_payload(
        len in 1usize..300,
        pos in 0usize..1 << 16,
        mask in 1u16..256,
    ) {
        for format in &FRAMED {
            let payload = filler(pos as u64, len);
            let mut bytes = format.encode_frame(&payload).unwrap();
            bytes.extend_from_slice(&filler(!(pos as u64), 16));
            let at = pos % (FRAME_OVERHEAD + len);
            bytes[at] ^= mask as u8;
            match format.decode_frame(&bytes) {
                Decoded::Record(decoded, _) => prop_assert_eq!(decoded, &payload[..]),
                Decoded::Corrupt(FormatError::Checksum { .. }) => {}
                other => prop_assert!(at < 4, "flip at byte {at} gave {other:?}"),
            }
        }
    }

    /// The journal header (4 fields), the corpus header (2) and a
    /// manifest (5 plus 2 per run) read back their fields; a single
    /// changed byte is a magic, version or checksum error by where it
    /// falls, and a header cut short is `Truncated`.
    #[test]
    fn a_changed_header_byte_is_a_typed_error(
        fields in proptest::collection::vec(0u64..u64::MAX, 5..13),
        pos in 0usize..1 << 16,
        mask in 1u16..256,
    ) {
        let manifest = 5 + 2 * ((fields.len() - 5) / 2);
        for (format, n) in [(JOURNAL_FORMAT, 4), (DATA_FORMAT, 2), (MANIFEST_FORMAT, manifest)] {
            let header = format.encode_header(&fields[..n]);
            prop_assert_eq!(header.len(), header_len(n));
            let mut back = format.decode_header(&header, header.len()).unwrap();
            for &field in &fields[..n] {
                prop_assert_eq!(back.u64(), Ok(field));
            }
            prop_assert_eq!(back.remaining(), 0);

            let mut changed = header.clone();
            let at = pos % changed.len();
            changed[at] ^= mask as u8;
            let error = format.decode_header(&changed, changed.len()).unwrap_err();
            match at {
                0..8 => prop_assert_eq!(error, FormatError::Magic),
                8..12 => prop_assert!(matches!(error, FormatError::Version(v) if v != 1)),
                _ => prop_assert!(matches!(error, FormatError::Checksum { .. })),
            }
            let short = &header[..header.len() - 1];
            prop_assert_eq!(
                format.decode_header(short, header.len()).unwrap_err(),
                FormatError::Truncated
            );
        }
    }
}

proptest! {
    /// Two defects of different kinds at random frames of a file whose
    /// checksums span several work chunks: the scan stops where a serial
    /// walk with `decode_frame` stops, for the same reason, and hands
    /// `accept` exactly the frames before that point, in file order.
    #[test]
    fn scan_stops_where_a_serial_walk_does(
        lens in proptest::collection::vec(1usize..CHECK_CHUNK_BYTES / 2, 2..12),
        first in 0usize..4,
        second in 1usize..4,
        frame_a in 0usize..1 << 16,
        frame_b in 0usize..1 << 16,
        pos in 0usize..1 << 16,
        salt in 0u64..u64::MAX,
    ) {
        for format in &FRAMED {
            let payloads = payloads(&lens, salt);
            let mut frames: Vec<Vec<u8>> = payloads
                .iter()
                .map(|payload| format.encode_frame(payload).unwrap())
                .collect();
            let mut offsets = vec![0];
            for frame in &frames {
                offsets.push(offsets[offsets.len() - 1] + frame.len());
            }
            let mut refused = None;
            let mut cut = None;
            let defects = [DEFECTS[first], DEFECTS[(first + second) % 4]];
            for (defect, frame) in defects.into_iter().zip([frame_a, frame_b]) {
                let i = frame % frames.len();
                let len = frames[i].len() - FRAME_OVERHEAD;
                match defect {
                    Defect::Flip => frames[i][FRAME_OVERHEAD + pos % len] ^= 0x5a,
                    Defect::Torn => cut = Some(offsets[i] + 1 + pos % (len + FRAME_OVERHEAD - 1)),
                    Defect::OverBudget => {
                        let over = format.max_payload as u32 + 1;
                        frames[i][..4].copy_from_slice(&over.to_le_bytes());
                    }
                    Defect::Refused => refused = Some(offsets[i]),
                }
            }
            let mut file = frames.concat();
            file.truncate(cut.unwrap_or(file.len()));

            let mut seen = Vec::new();
            let (end, defect) = format.scan(&file, 0, |at, payload| {
                if refused == Some(at) {
                    return Err(FormatError::Malformed);
                }
                seen.push((at, payload.to_vec()));
                Ok(())
            });
            let (serial_end, serial_defect, accepted) = serial_scan(format, &file, refused);
            prop_assert_eq!((end, defect), (serial_end, serial_defect));
            prop_assert!(defect.is_some(), "a defect stops the walk");
            let expected: Vec<(usize, Vec<u8>)> = accepted
                .iter()
                .map(|&at| (at, payloads[offsets.iter().position(|&o| o == at).unwrap()].clone()))
                .collect();
            prop_assert_eq!(seen, expected);
        }
    }
}

/// The writer refuses a payload one byte over the budget: the reader
/// would refuse its frame.
#[test]
fn an_over_budget_payload_is_refused_on_write() {
    for format in &FRAMED {
        let max = format.max_payload;
        assert_eq!(
            format.encode_frame(&vec![0; max + 1]),
            Err(FormatError::Length {
                len: max as u64 + 1,
                max: max as u64,
            })
        );
    }
}
