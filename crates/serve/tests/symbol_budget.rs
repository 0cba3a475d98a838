//! The wire decoder's symbol budget: once the process-wide alphabet
//! reaches `MAX_WIRE_SYMBOLS`, an unseen symbol text is refused with a
//! typed error instead of being interned (and leaked) for the life of
//! the process, while every text already interned keeps decoding.
//!
//! This fills the process-wide interner, so it lives in a test binary of
//! its own with a single test.

use esafe_logic::{SignalTable, Sym, Value};
use esafe_serve::tcp::{decode_payload, read_frame, write_frame, MAX_WIRE_SYMBOLS};
use esafe_serve::DecodeError;
use std::io;

#[test]
fn unseen_symbols_past_the_budget_are_refused_and_known_ones_still_decode() {
    let mut b = SignalTable::builder();
    let cmd = b.sym("cmd");
    let table = b.finish();
    // A suite literal, interned before any wire traffic.
    let literal = Sym::new("STOP");
    // Encoding a frame would intern its symbol, so the messages are
    // spliced from one encoded template message instead.
    let mut template = table.frame();
    template.set(cmd, literal);
    let mut head = Vec::new();
    write_frame(&mut head, &template).unwrap();
    head.truncate(head.len() - "STOP".len() - 2);
    let message = |text: &str| {
        let mut wire = head.clone();
        wire.extend_from_slice(&(text.len() as u16).to_be_bytes());
        wire.extend_from_slice(text.as_bytes());
        let len = (wire.len() - 4) as u32;
        wire[..4].copy_from_slice(&len.to_be_bytes());
        wire
    };
    let decode = |text: &str| decode_payload(&message(text)[4..], &mut table.frame());

    // Hostile traffic fills the alphabet up to the budget, one fresh text
    // per message: each is interned while there is room.
    let mut fresh = 0;
    while Sym::interned() < MAX_WIRE_SYMBOLS {
        decode(&format!("flood_{fresh:04}")).expect("under budget, unseen texts intern");
        fresh += 1;
    }
    assert!(fresh > 0, "the test must reach the budget through the wire");

    // Past the budget, an unseen text is refused and not interned.
    let full = Sym::interned();
    assert_eq!(decode("flood_over"), Err(DecodeError::SymbolBudget));
    assert_eq!(Sym::lookup("flood_over"), None);
    assert_eq!(Sym::interned(), full, "a refused text grows nothing");
    let err = read_frame(&mut &message("flood_over")[..], &mut table.frame()).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);

    // Every text already seen keeps decoding: the suite literal and the
    // flood's own texts alike.
    let mut frame = table.frame();
    decode_payload(&message("STOP")[4..], &mut frame).unwrap();
    assert_eq!(frame.get(cmd), Some(Value::Sym(literal)));
    decode_payload(&message("flood_0000")[4..], &mut frame).unwrap();
    assert_eq!(frame.sym(cmd), Sym::lookup("flood_0000"));
    assert_eq!(Sym::interned(), full);
}
