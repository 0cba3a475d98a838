//! Fuzzing the TCP frame codec: arbitrary corruption, truncation, and
//! raw garbage must never panic the decoder (a hostile peer gets a
//! [`DecodeError`] quarantine, not a crashed shard), while untouched
//! frames round-trip bit-identically. Hand-encoded payloads in any
//! signal order decode exactly as a name-keyed decoder would.

use esafe_logic::{Frame, SignalTable, Value};
use esafe_serve::tcp::{
    decode_payload, read_frame, write_frame, MAX_FRAME_SIGNALS, MAX_NAME_BYTES, MAX_SYMBOL_BYTES,
};
use esafe_serve::DecodeError;
use proptest::prelude::*;
use std::sync::Arc;

fn table() -> Arc<SignalTable> {
    let mut b = SignalTable::builder();
    b.bool("flag");
    b.int("count");
    b.real("x");
    b.sym("cmd");
    b.finish()
}

/// Builds a frame from fuzz picks: each `(selector, bits)` sets one of
/// the four signals to a value derived from `bits`. Reals are kept
/// finite and non-NaN so round-trip equality is meaningful.
fn build(table: &Arc<SignalTable>, picks: &[(u8, u64)]) -> Frame {
    let mut f = table.frame();
    for &(sel, bits) in picks {
        match sel % 4 {
            0 => f.set(table.id("flag").unwrap(), Value::Bool(bits & 1 == 1)),
            1 => f.set(table.id("count").unwrap(), Value::Int(bits as i64)),
            2 => f.set(
                table.id("x").unwrap(),
                Value::Real((bits % 1_000_000) as f64 / 8.0 - 1000.0),
            ),
            _ => f.set(
                table.id("cmd").unwrap(),
                Value::sym(["GO", "STOP", "HOLD", "IDLE"][(bits % 4) as usize]),
            ),
        }
    }
    f
}

/// Reads messages until clean EOF or the first error; the property
/// under test is simply that this returns instead of panicking.
fn drain_wire(table: &Arc<SignalTable>, wire: &[u8]) -> (usize, bool) {
    let mut reader = wire;
    let mut frame = table.frame();
    let mut decoded = 0usize;
    loop {
        match read_frame(&mut reader, &mut frame) {
            Ok(true) => decoded += 1,
            Ok(false) => return (decoded, true),
            Err(_) => return (decoded, false),
        }
    }
}

fn pick() -> impl Strategy<Value = (u8, u64)> {
    (0u8..8, 0u64..u64::MAX)
}

/// The value tags of the wire format.
const TAG_BOOL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_REAL: u8 = 2;
const TAG_SYM: u8 = 3;

/// One hand-encoded entry: its name bytes, and either a value or a raw
/// symbol payload the decoder must reject.
#[derive(Debug, Clone)]
enum Payload {
    Value(Value),
    RawSymbol(Vec<u8>),
}

/// The entry for a fuzz pick `(selector, bits)`. Most selectors name one
/// of the table's signals (`selector % 4` is its id) with a value of the
/// declared kind: an integer, for `x`, half the time; for `cmd`, now and
/// then an oversized or non-UTF-8 symbol. The rest give an undeclared
/// name, a non-UTF-8 name, or a name over the name budget.
fn entry(sel: u8, bits: u64) -> (Vec<u8>, Payload) {
    let name = |s: &str| s.as_bytes().to_vec();
    match sel {
        0..=27 => match sel % 4 {
            0 => (name("flag"), Payload::Value(Value::Bool(bits & 1 == 1))),
            1 => (name("count"), Payload::Value(Value::Int(bits as i64))),
            2 if bits & 1 == 1 => (name("x"), Payload::Value(Value::Int((bits >> 1) as i64))),
            2 => (
                name("x"),
                Payload::Value(Value::Real((bits % 1_000_000) as f64 / 8.0 - 1000.0)),
            ),
            _ => match bits % 32 {
                0 => (
                    name("cmd"),
                    Payload::RawSymbol(vec![b's'; MAX_SYMBOL_BYTES + 1]),
                ),
                1 => (name("cmd"), Payload::RawSymbol(vec![0xc3, 0x28])),
                n => (
                    name("cmd"),
                    Payload::Value(Value::sym(["GO", "STOP", "HOLD"][(n % 3) as usize])),
                ),
            },
        },
        28 => (name("ghost"), Payload::Value(Value::Bool(true))),
        29 => (vec![0xff, 0xfe, b'x'], Payload::Value(Value::Bool(true))),
        _ => (
            vec![b'n'; MAX_NAME_BYTES + 1],
            Payload::Value(Value::Bool(true)),
        ),
    }
}

/// Encodes entries by the wire format's documented layout.
fn encode(entries: &[(Vec<u8>, Payload)]) -> Vec<u8> {
    let mut out = (entries.len() as u32).to_be_bytes().to_vec();
    for (name, payload) in entries {
        out.extend_from_slice(&(name.len() as u16).to_be_bytes());
        out.extend_from_slice(name);
        match payload {
            Payload::Value(Value::Bool(b)) => out.extend_from_slice(&[TAG_BOOL, u8::from(*b)]),
            Payload::Value(Value::Int(i)) => {
                out.push(TAG_INT);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Payload::Value(Value::Real(r)) => {
                out.push(TAG_REAL);
                out.extend_from_slice(&r.to_bits().to_le_bytes());
            }
            Payload::Value(Value::Sym(s)) => {
                out.push(TAG_SYM);
                out.extend_from_slice(&(s.as_str().len() as u16).to_be_bytes());
                out.extend_from_slice(s.as_str().as_bytes());
            }
            Payload::RawSymbol(text) => {
                out.push(TAG_SYM);
                out.extend_from_slice(&(text.len() as u16).to_be_bytes());
                out.extend_from_slice(text);
            }
        }
    }
    out
}

/// The reference: resolve every name through the table's name map,
/// checking the budgets and failing in the order the wire format is read.
fn name_keyed_decode(payload: &[u8], frame: &mut Frame) -> Result<(), DecodeError> {
    fn take<'a>(cursor: &mut &'a [u8], n: usize) -> Result<&'a [u8], DecodeError> {
        if cursor.len() < n {
            return Err(DecodeError::Truncated);
        }
        let (head, rest) = cursor.split_at(n);
        *cursor = rest;
        Ok(head)
    }
    let text = |bytes| std::str::from_utf8(bytes).map_err(|_| DecodeError::BadUtf8);
    let mut cursor = payload;
    let count = u32::from_be_bytes(take(&mut cursor, 4)?.try_into().unwrap());
    if count > MAX_FRAME_SIGNALS {
        return Err(DecodeError::TooManySignals { count });
    }
    frame.clear();
    for _ in 0..count {
        let len = u16::from_be_bytes(take(&mut cursor, 2)?.try_into().unwrap()) as usize;
        if len > MAX_NAME_BYTES {
            return Err(DecodeError::NameTooLong { len });
        }
        let name = text(take(&mut cursor, len)?)?;
        if frame.table().id(name).is_none() {
            return Err(DecodeError::UndeclaredSignal {
                name: name.to_owned(),
            });
        }
        let value = match take(&mut cursor, 1)?[0] {
            TAG_BOOL => Value::Bool(take(&mut cursor, 1)?[0] != 0),
            TAG_INT => Value::Int(i64::from_le_bytes(
                take(&mut cursor, 8)?.try_into().unwrap(),
            )),
            TAG_REAL => Value::Real(f64::from_bits(u64::from_le_bytes(
                take(&mut cursor, 8)?.try_into().unwrap(),
            ))),
            TAG_SYM => {
                let len = u16::from_be_bytes(take(&mut cursor, 2)?.try_into().unwrap()) as usize;
                if len > MAX_SYMBOL_BYTES {
                    return Err(DecodeError::SymbolTooLong { len });
                }
                Value::sym(text(take(&mut cursor, len)?)?)
            }
            tag => return Err(DecodeError::UnknownTag { tag }),
        };
        frame.set_named(name, value);
    }
    Ok(())
}

proptest! {
    /// Untouched frames round-trip bit-identically, any mix of value
    /// kinds, any signal subset (including the empty frame).
    #[test]
    fn untouched_frames_round_trip_bit_identically(
        frames in proptest::collection::vec(
            proptest::collection::vec(pick(), 0..10),
            1..6,
        ),
    ) {
        let table = table();
        let originals: Vec<Frame> = frames.iter().map(|p| build(&table, p)).collect();
        let mut wire = Vec::new();
        for frame in &originals {
            write_frame(&mut wire, frame).unwrap();
        }
        let mut reader = &wire[..];
        let mut decoded = table.frame();
        for (i, original) in originals.iter().enumerate() {
            assert!(read_frame(&mut reader, &mut decoded).unwrap(), "frame {i}");
            assert_eq!(&decoded, original, "frame {i} must survive the wire");
        }
        assert!(!read_frame(&mut reader, &mut decoded).unwrap(), "clean EOF");
    }

    /// Arbitrary byte corruption of a valid wire never panics the
    /// decoder: it either still decodes (the flip hit a value payload)
    /// or fails with an error.
    #[test]
    fn corrupted_wire_never_panics(
        picks in proptest::collection::vec(pick(), 0..10),
        flips in proptest::collection::vec((0usize..4096, 1u8..255), 1..8),
    ) {
        let table = table();
        let frame = build(&table, &picks);
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        write_frame(&mut wire, &frame).unwrap();
        for &(pos, mask) in &flips {
            let at = pos % wire.len();
            wire[at] ^= mask;
        }
        let _ = drain_wire(&table, &wire);
    }

    /// Truncation at every possible byte boundary never panics: a cut
    /// mid-message is an error, a cut at a message boundary is a clean
    /// EOF, and the complete messages before the cut still decode.
    #[test]
    fn truncated_wire_never_panics(
        picks in proptest::collection::vec(pick(), 0..10),
        cut in 0usize..100_000,
    ) {
        let table = table();
        let frame = build(&table, &picks);
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        let message_len = wire.len();
        write_frame(&mut wire, &frame).unwrap();
        let keep = cut % (wire.len() + 1);
        wire.truncate(keep);
        let (decoded, clean) = drain_wire(&table, &wire);
        assert_eq!(
            clean,
            keep % message_len == 0,
            "clean EOF iff the cut hit a message boundary (cut at {keep}/{message_len})"
        );
        assert_eq!(decoded, keep / message_len, "messages fully before the cut decode");
    }

    /// Raw garbage fed straight to the payload decoder never panics.
    #[test]
    fn arbitrary_payload_bytes_never_panic(
        bytes in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..128),
    ) {
        let table = table();
        let mut frame = table.frame();
        let _ = decode_payload(&bytes, &mut frame);
    }

    /// Hand-encoded payloads — in id order, reversed or shuffled, with
    /// duplicates and unset signals, undeclared, non-UTF-8 or oversized
    /// names and symbols, cut short or with a lying count — decode exactly
    /// as the name-keyed reference does: the same frame or the same error.
    /// Valid entries give the frame `Frame::set_named` builds from them,
    /// the last write to a signal winning.
    #[test]
    fn hinted_decode_matches_name_keyed_decode(
        picks in proptest::collection::vec((0u8..32, 0u64..u64::MAX), 0..10),
        shape in (0u8..6, 0usize..4096),
    ) {
        let table = table();
        let mut entries: Vec<_> = picks.iter().map(|&(sel, bits)| entry(sel, bits)).collect();
        let id_of = |name: &[u8]| {
            std::str::from_utf8(name).ok().and_then(|n| table.id(n)).map(|id| id.index())
        };
        let (mode, at) = shape;
        match mode {
            0 => entries.sort_by_key(|(name, _)| id_of(name)),
            1 => entries.sort_by_key(|(name, _)| std::cmp::Reverse(id_of(name))),
            _ => {}
        }
        let mut payload = encode(&entries);
        match mode {
            2 => payload.truncate(at % (payload.len() + 1)),
            3 => {
                let lie = entries.len() as u32 + 1;
                payload[..4].copy_from_slice(&lie.to_be_bytes());
            }
            4 => payload[..4].copy_from_slice(&(MAX_FRAME_SIGNALS + 1).to_be_bytes()),
            _ => {}
        }

        let mut hinted = table.frame();
        let mut keyed = table.frame();
        let got = decode_payload(&payload, &mut hinted);
        prop_assert_eq!(&got, &name_keyed_decode(&payload, &mut keyed));
        if got.is_ok() {
            prop_assert_eq!(&hinted, &keyed);
            let mut named = table.frame();
            for (name, payload) in &entries {
                let Payload::Value(value) = payload else {
                    panic!("a raw symbol payload decoded");
                };
                named.set_named(std::str::from_utf8(name).unwrap(), *value);
            }
            prop_assert_eq!(&hinted, &named);
        }
    }

    /// A producer whose table declares the same names in another order
    /// sends them in its own id order; the service resolves them by name.
    #[test]
    fn foreign_declaration_order_decodes_by_name(
        order in proptest::array::uniform4(0u64..u64::MAX),
        picks in proptest::collection::vec(pick(), 0..10),
    ) {
        let home = table();
        let mut ids: Vec<_> = home.ids().collect();
        ids.sort_by_key(|id| order[id.index()]);
        let mut b = SignalTable::builder();
        for &id in &ids {
            b.signal(home.name(id), home.kind(id));
        }
        let foreign = b.finish();
        let sent = build(&foreign, &picks);
        let mut wire = Vec::new();
        write_frame(&mut wire, &sent).unwrap();

        let mut got = home.frame();
        decode_payload(&wire[4..], &mut got).unwrap();
        let mut want = home.frame();
        for (id, value) in sent.iter() {
            want.set_named(foreign.name(id), value);
        }
        prop_assert_eq!(got, want);
    }
}
