//! The optional wire transport: length-prefixed frames over plain
//! [`std::net`] TCP — no async runtime, no external dependencies.
//!
//! # Wire format
//!
//! Each frame is one message: a big-endian `u32` payload length, then
//! the payload —
//!
//! ```text
//! u32  set-signal count
//! per signal:
//!   u16  name length   |  name bytes (UTF-8)
//!   u8   value tag     |  payload
//!        0 = Bool      |  u8 (0/1)
//!        1 = Int       |  i64 LE
//!        2 = Real      |  f64 LE bits
//!        3 = Sym       |  u16 length + UTF-8 bytes
//! ```
//!
//! Signals travel by *name* (and symbols by text), so producer and
//! service only need to agree on the signal namespace, not on interned
//! ids.
//!
//! # Decode path
//!
//! Every wire stream — [`TcpSource`], [`read_frame`], and any other
//! transport that carries these messages — decodes through the one
//! function [`decode_payload`], which keeps no state between calls. Per
//! signal it:
//!
//! 1. **resolves the name without hashing when it can.** [`write_frame`]
//!    emits signals in id order, so the decoder first checks whether the
//!    signal right after the previous one is named exactly these bytes
//!    ([`SignalTable::named_at`](esafe_logic::SignalTable::named_at)).
//!    Only on a miss does it fall back to UTF-8 validation and the
//!    table's name map. The guess is exact:
//!    names are unique, so a byte match is the id the map would return,
//!    and bytes equal to a valid `String` are valid UTF-8. Every input —
//!    shuffled, duplicated, sparse or in a foreign table's order — gets
//!    the same ids and the same errors either way, only slower;
//! 2. **checks the value tag against the signal's declared
//!    [`SignalKind`]** before the value is parsed or interned, so a
//!    mistyped value ([`DecodeError::KindMismatch`]) quarantines its own
//!    stream instead of failing the next wave's evaluation for the
//!    whole shard;
//! 3. **resolves symbols through [`Sym::lookup`]**, which hits the
//!    thread's symbol cache on the hot path, and interns an unseen text
//!    only while the process-wide alphabet is under
//!    [`MAX_WIRE_SYMBOLS`].
//!
//! # Hostile-peer budget
//!
//! Every length field is validated against an explicit budget **before
//! any allocation or loop it sizes**, so a hostile peer cannot make the
//! service allocate from attacker-controlled numbers:
//!
//! * [`MAX_FRAME_BYTES`] caps the message payload (the `u32` prefix is
//!   checked before the payload buffer is sized);
//! * [`MAX_FRAME_SIGNALS`] caps the per-frame signal count (checked
//!   before the decode loop trusts it);
//! * [`MAX_NAME_BYTES`] / [`MAX_SYMBOL_BYTES`] cap the embedded string
//!   fields;
//! * [`MAX_WIRE_SYMBOLS`] caps the process-wide symbol alphabet the wire
//!   may grow: interned texts live for the process, so past the budget
//!   an unseen text is refused ([`DecodeError::SymbolBudget`]) while
//!   every text already interned — every suite literal among them —
//!   keeps decoding.
//!
//! A violation is a [`DecodeError`], and for a connected stream it
//! becomes [`Poll::Corrupt`]: the shard *quarantines* that one stream —
//! eviction with the decoder's diagnosis as provenance — and every
//! other stream is untouched.
//!
//! # Non-blocking ingestion
//!
//! [`TcpSource`] reads the socket in non-blocking mode and accumulates
//! partial messages across polls: a slow (or slow-loris) peer yields
//! [`Poll::Pending`], never a blocked shard. The shard's per-stream
//! stall clock counts those pending waves, so a peer that trickles
//! bytes forever is evicted by the ordinary stall deadline
//! ([`ShardConfig::stall_limit`](crate::shard::ShardConfig::stall_limit))
//! — the wire transport needs no separate read timeout.
//!
//! Nothing here panics on what a socket delivers: every read of a
//! fixed-width field is a [`DecodeError`] when the bytes run out.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::service::ShardConnector;
use crate::source::{Poll, StreamSource};
use esafe_logic::{Frame, SignalKind, Sym, Value};
use std::io::{self, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

const TAG_BOOL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_REAL: u8 = 2;
const TAG_SYM: u8 = 3;

/// The largest message payload the decoder will buffer, checked against
/// the length prefix *before* the payload allocation. Generous: a frame
/// of [`MAX_FRAME_SIGNALS`] max-size real signals fits with room to
/// spare.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// The most signals one frame may carry, checked before the decode loop
/// trusts the wire's count field.
pub const MAX_FRAME_SIGNALS: u32 = 4096;

/// The longest signal name on the wire.
pub const MAX_NAME_BYTES: usize = 256;

/// The longest symbol value on the wire.
pub const MAX_SYMBOL_BYTES: usize = 4096;

/// The process-wide symbol alphabet ([`Sym::interned`]) up to which the
/// decoder interns texts it has not seen. Interned texts live for the
/// process, so this bounds what hostile peers can make it keep: at most
/// this many texts of up to [`MAX_SYMBOL_BYTES`] each. Concurrent
/// decoders check the budget before they intern, so together they may
/// pass it by at most one text each.
pub const MAX_WIRE_SYMBOLS: usize = 1024;

/// Why a wire message failed to decode. Carried to the operator as the
/// `detail` of an [`EvictReason::Corrupt`](crate::report::EvictReason::Corrupt)
/// quarantine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The length prefix exceeds [`MAX_FRAME_BYTES`]; rejected before
    /// the payload buffer is sized.
    FrameTooLarge {
        /// The prefix's claimed payload length.
        len: usize,
    },
    /// The signal count exceeds [`MAX_FRAME_SIGNALS`]; rejected before
    /// the decode loop runs.
    TooManySignals {
        /// The claimed signal count.
        count: u32,
    },
    /// A signal-name length exceeds [`MAX_NAME_BYTES`].
    NameTooLong {
        /// The claimed name length.
        len: usize,
    },
    /// A symbol length exceeds [`MAX_SYMBOL_BYTES`].
    SymbolTooLong {
        /// The claimed symbol length.
        len: usize,
    },
    /// A length field points past the end of the payload.
    Truncated,
    /// A name or symbol is not valid UTF-8.
    BadUtf8,
    /// The named signal is not declared in the shard's table.
    UndeclaredSignal {
        /// The undeclared name.
        name: String,
    },
    /// An unknown value tag.
    UnknownTag {
        /// The tag byte.
        tag: u8,
    },
    /// The value tag's kind does not inhabit the signal's declared kind
    /// (an integer in a real signal does); rejected before the value is
    /// parsed or interned.
    KindMismatch {
        /// The signal's name.
        name: String,
        /// The kind the shard's table declares.
        declared: SignalKind,
        /// The kind the value tag carries.
        found: SignalKind,
    },
    /// A symbol text never interned before arrived while the
    /// process-wide alphabet is at [`MAX_WIRE_SYMBOLS`].
    SymbolBudget,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::FrameTooLarge { len } => write!(
                f,
                "frame payload of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte budget"
            ),
            DecodeError::TooManySignals { count } => write!(
                f,
                "frame claims {count} signals, over the {MAX_FRAME_SIGNALS}-signal budget"
            ),
            DecodeError::NameTooLong { len } => write!(
                f,
                "signal name of {len} bytes exceeds the {MAX_NAME_BYTES}-byte budget"
            ),
            DecodeError::SymbolTooLong { len } => write!(
                f,
                "symbol of {len} bytes exceeds the {MAX_SYMBOL_BYTES}-byte budget"
            ),
            DecodeError::Truncated => write!(f, "message payload truncated"),
            DecodeError::BadUtf8 => write!(f, "name or symbol is not valid UTF-8"),
            DecodeError::UndeclaredSignal { name } => {
                write!(f, "signal `{name}` is not declared in the shard's table")
            }
            DecodeError::UnknownTag { tag } => write!(f, "unknown value tag {tag}"),
            DecodeError::KindMismatch {
                name,
                declared,
                found,
            } => write!(
                f,
                "signal `{name}` is declared {declared:?} but the wire value is {found:?}"
            ),
            DecodeError::SymbolBudget => write!(
                f,
                "unseen symbol refused: the process-wide alphabet is at its \
                 {MAX_WIRE_SYMBOLS}-symbol budget"
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for io::Error {
    fn from(err: DecodeError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, err)
    }
}

/// Encodes one frame as a length-prefixed message.
///
/// # Errors
///
/// `InvalidInput` if the frame would violate the decode budget (a
/// symbol over [`MAX_SYMBOL_BYTES`], a name over [`MAX_NAME_BYTES`],
/// more than [`MAX_FRAME_SIGNALS`] signals, or a payload over
/// [`MAX_FRAME_BYTES`]) — such a message would be rejected by every
/// compliant decoder, so it is never put on the wire. Otherwise
/// propagates writer errors.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let reject = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
    let table = frame.table();
    let mut payload = Vec::with_capacity(frame.len() * 16);
    let count = frame.iter().count() as u32;
    if count > MAX_FRAME_SIGNALS {
        return Err(reject(format!(
            "frame has {count} signals, over the {MAX_FRAME_SIGNALS}-signal wire budget"
        )));
    }
    payload.extend_from_slice(&count.to_be_bytes());
    for (id, value) in frame.iter() {
        let name = table.name(id).as_bytes();
        if name.len() > MAX_NAME_BYTES {
            return Err(reject(format!(
                "signal name of {} bytes exceeds the {MAX_NAME_BYTES}-byte wire budget",
                name.len()
            )));
        }
        payload.extend_from_slice(&(name.len() as u16).to_be_bytes());
        payload.extend_from_slice(name);
        match value {
            Value::Bool(b) => {
                payload.push(TAG_BOOL);
                payload.push(u8::from(b));
            }
            Value::Int(i) => {
                payload.push(TAG_INT);
                payload.extend_from_slice(&i.to_le_bytes());
            }
            Value::Real(r) => {
                payload.push(TAG_REAL);
                payload.extend_from_slice(&r.to_bits().to_le_bytes());
            }
            Value::Sym(s) => {
                payload.push(TAG_SYM);
                let text = s.as_str().as_bytes();
                if text.len() > MAX_SYMBOL_BYTES {
                    return Err(reject(format!(
                        "symbol of {} bytes exceeds the {MAX_SYMBOL_BYTES}-byte wire budget",
                        text.len()
                    )));
                }
                payload.extend_from_slice(&(text.len() as u16).to_be_bytes());
                payload.extend_from_slice(text);
            }
        }
    }
    if payload.len() > MAX_FRAME_BYTES {
        return Err(reject(format!(
            "frame payload of {} bytes exceeds the {MAX_FRAME_BYTES}-byte wire budget",
            payload.len()
        )));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(&payload)
}

/// Decodes one complete message payload into `frame` (cleared first),
/// resolving signal names against the frame's table (see the
/// [decode path](self#decode-path)). Every length field is budget-checked
/// before it sizes a read, so arbitrary payload bytes can never cause a
/// panic or an oversized allocation — only a [`DecodeError`].
///
/// # Errors
///
/// Any [`DecodeError`]; on error the frame's contents are unspecified.
pub fn decode_payload(payload: &[u8], frame: &mut Frame) -> Result<(), DecodeError> {
    let mut cursor = payload;
    let count = u32::from_be_bytes(take_array(&mut cursor)?);
    if count > MAX_FRAME_SIGNALS {
        return Err(DecodeError::TooManySignals { count });
    }
    frame.clear();
    // The dense index the next name is guessed to have: the one after
    // the previous signal's, as `write_frame` emits ids in order.
    let mut next = 0;
    for _ in 0..count {
        let name_len = u16::from_be_bytes(take_array(&mut cursor)?) as usize;
        if name_len > MAX_NAME_BYTES {
            return Err(DecodeError::NameTooLong { len: name_len });
        }
        let name = take(&mut cursor, name_len)?;
        let table = frame.table();
        let id = match table.named_at(next, name) {
            Some(id) => id,
            None => {
                let name = std::str::from_utf8(name).map_err(|_| DecodeError::BadUtf8)?;
                table
                    .id(name)
                    .ok_or_else(|| DecodeError::UndeclaredSignal {
                        name: name.to_string(),
                    })?
            }
        };
        next = id.index() + 1;
        let found = match take(&mut cursor, 1)?[0] {
            TAG_BOOL => SignalKind::Bool,
            TAG_INT => SignalKind::Int,
            TAG_REAL => SignalKind::Real,
            TAG_SYM => SignalKind::Sym,
            other => return Err(DecodeError::UnknownTag { tag: other }),
        };
        let declared = table.kind(id);
        if !declared.admits_kind(found) {
            return Err(DecodeError::KindMismatch {
                name: table.name(id).to_owned(),
                declared,
                found,
            });
        }
        let value = match found {
            SignalKind::Bool => Value::Bool(take(&mut cursor, 1)?[0] != 0),
            SignalKind::Int => Value::Int(i64::from_le_bytes(take_array(&mut cursor)?)),
            SignalKind::Real => Value::Real(f64::from_le_bytes(take_array(&mut cursor)?)),
            SignalKind::Sym => Value::Sym(decode_symbol(&mut cursor)?),
        };
        frame.set(id, value);
    }
    Ok(())
}

/// Decodes a symbol payload: known texts resolve read-only, and an
/// unseen one is interned only while the alphabet is under
/// [`MAX_WIRE_SYMBOLS`].
fn decode_symbol(cursor: &mut &[u8]) -> Result<Sym, DecodeError> {
    let len = u16::from_be_bytes(take_array(cursor)?) as usize;
    if len > MAX_SYMBOL_BYTES {
        return Err(DecodeError::SymbolTooLong { len });
    }
    let text = std::str::from_utf8(take(cursor, len)?).map_err(|_| DecodeError::BadUtf8)?;
    match Sym::lookup(text) {
        Some(sym) => Ok(sym),
        None if Sym::interned() < MAX_WIRE_SYMBOLS => Ok(Sym::new(text)),
        None => Err(DecodeError::SymbolBudget),
    }
}

/// Decodes the next message from a blocking reader into `frame`.
/// Returns `Ok(false)` on a clean end of stream (EOF at a message
/// boundary). The tooling-side counterpart of [`TcpSource`]'s
/// non-blocking ingestion; both share [`decode_payload`].
///
/// # Errors
///
/// `InvalidData` wrapping the [`DecodeError`] on a budget violation or
/// malformed payload; `UnexpectedEof` when the stream ends mid-message.
pub fn read_frame(r: &mut impl Read, frame: &mut Frame) -> io::Result<bool> {
    let mut header = [0u8; 4];
    if !read_exact_or_eof(r, &mut header)? {
        return Ok(false);
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(DecodeError::FrameTooLarge { len }.into());
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    decode_payload(&payload, frame)?;
    Ok(true)
}

/// `read_exact` that distinguishes EOF-before-any-byte (`Ok(false)`,
/// a clean message boundary) from EOF mid-buffer (`UnexpectedEof`).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..])? {
            0 if filled == 0 => return Ok(false),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended mid-message",
                ))
            }
            n => filled += n,
        }
    }
    Ok(true)
}

fn take<'a>(cursor: &mut &'a [u8], n: usize) -> Result<&'a [u8], DecodeError> {
    if cursor.len() < n {
        return Err(DecodeError::Truncated);
    }
    let (head, rest) = cursor.split_at(n);
    *cursor = rest;
    Ok(head)
}

/// [`take`] for a fixed-width field.
fn take_array<const N: usize>(cursor: &mut &[u8]) -> Result<[u8; N], DecodeError> {
    let (head, rest) = cursor
        .split_first_chunk::<N>()
        .ok_or(DecodeError::Truncated)?;
    *cursor = rest;
    Ok(*head)
}

/// The producing half over TCP: one [`send`](TcpFrameSender::send) per
/// simulated tick. Dropping the sender closes the connection, ending
/// the stream cleanly at the service.
#[derive(Debug)]
pub struct TcpFrameSender {
    writer: BufWriter<TcpStream>,
}

impl TcpFrameSender {
    /// Connects to a serving acceptor.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: std::net::SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpFrameSender {
            writer: BufWriter::new(stream),
        })
    }

    /// Sends one frame, flushed immediately (the consuming shard runs
    /// its streams in lockstep, so frames must not sit in the buffer).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send(&mut self, frame: &Frame) -> io::Result<()> {
        write_frame(&mut self.writer, frame)?;
        self.writer.flush()
    }
}

/// Where the source is in the current wire message.
#[derive(Debug)]
enum WireStage {
    /// Accumulating the 4-byte length prefix.
    Header,
    /// Accumulating a payload of the already-validated length.
    Payload,
    /// `End` or `Corrupt` was returned; the source is inert.
    Done,
}

/// A connected inbound TCP stream as a non-blocking [`StreamSource`]:
/// the socket is in non-blocking mode and each poll reads whatever
/// bytes are available, accumulating partial messages across waves.
///
/// * a complete message decodes into the wave's frame ([`Poll::Frame`]);
/// * no complete message yet is [`Poll::Pending`] — the shard's stall
///   clock handles peers that trickle or go quiet;
/// * EOF at a message boundary is a clean [`Poll::End`];
/// * EOF mid-message, a socket error, a length prefix over budget, or
///   an undecodable payload is [`Poll::Corrupt`] with the diagnosis —
///   the shard quarantines this stream and no other.
#[derive(Debug)]
pub struct TcpSource {
    stream: TcpStream,
    stage: WireStage,
    /// The length prefix of the current message.
    header: [u8; 4],
    /// The current message's payload, sized from its validated header.
    buf: Vec<u8>,
    /// Bytes of the current stage's buffer (`header` or `buf`) read so
    /// far.
    filled: usize,
}

impl TcpSource {
    /// Wraps an accepted connection, switching it to non-blocking mode.
    ///
    /// # Errors
    ///
    /// Propagates the `set_nonblocking` failure.
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        Ok(TcpSource {
            stream,
            stage: WireStage::Header,
            header: [0; 4],
            buf: Vec::new(),
            filled: 0,
        })
    }

    /// Reads available bytes into the current stage's buffer. Returns
    /// `Some(poll)` when polling must stop (pending, end, or corrupt);
    /// `None` when the stage's buffer is complete.
    fn fill_stage(&mut self) -> Option<Poll> {
        let target: &mut [u8] = match self.stage {
            WireStage::Header => &mut self.header,
            _ => &mut self.buf,
        };
        while self.filled < target.len() {
            match self.stream.read(&mut target[self.filled..]) {
                Ok(0) => {
                    return if self.filled == 0 && matches!(self.stage, WireStage::Header) {
                        self.stage = WireStage::Done;
                        Some(Poll::End)
                    } else {
                        self.stage = WireStage::Done;
                        Some(Poll::Corrupt("connection closed mid-message".to_string()))
                    };
                }
                Ok(n) => self.filled += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Some(Poll::Pending),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.stage = WireStage::Done;
                    return Some(Poll::Corrupt(format!("socket error: {e}")));
                }
            }
        }
        None
    }
}

impl StreamSource for TcpSource {
    fn poll_frame(&mut self, frame: &mut Frame) -> Poll {
        loop {
            match self.stage {
                WireStage::Done => return Poll::End,
                WireStage::Header => {
                    if let Some(poll) = self.fill_stage() {
                        return poll;
                    }
                    let len = u32::from_be_bytes(self.header) as usize;
                    // Budget check BEFORE the attacker-sized resize.
                    if len > MAX_FRAME_BYTES {
                        self.stage = WireStage::Done;
                        return Poll::Corrupt(DecodeError::FrameTooLarge { len }.to_string());
                    }
                    self.stage = WireStage::Payload;
                    self.buf.clear();
                    self.buf.resize(len, 0);
                    self.filled = 0;
                }
                WireStage::Payload => {
                    if let Some(poll) = self.fill_stage() {
                        return poll;
                    }
                    let decoded = decode_payload(&self.buf, frame);
                    self.stage = WireStage::Header;
                    self.filled = 0;
                    return match decoded {
                        Ok(()) => Poll::Frame,
                        Err(err) => {
                            self.stage = WireStage::Done;
                            Poll::Corrupt(err.to_string())
                        }
                    };
                }
            }
        }
    }
}

/// A running TCP acceptor: each inbound connection becomes one
/// monitored stream on the connector's shard.
#[derive(Debug)]
pub struct TcpAcceptor {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    join: JoinHandle<()>,
}

impl TcpAcceptor {
    /// The bound address (useful with a `:0` listener in tests).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the acceptor thread. Streams already
    /// connected are unaffected.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.join.join();
    }
}

/// Spawns an acceptor thread on `listener`, registering every inbound
/// connection as a stream via `connector`. The acceptor exits on its
/// own when the shard stops.
///
/// # Errors
///
/// Propagates the listener's local-address lookup failure, or the
/// operating system's refusal to start the thread.
pub fn spawn_acceptor(listener: TcpListener, connector: ShardConnector) -> io::Result<TcpAcceptor> {
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let join = std::thread::Builder::new()
        .name("esafe-serve-accept".into())
        .spawn(move || {
            for inbound in listener.incoming() {
                if stop_flag.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(stream) = inbound else { continue };
                let _ = stream.set_nodelay(true);
                let Ok(source) = TcpSource::new(stream) else {
                    continue; // a socket we cannot configure is dropped
                };
                if connector.connect(Box::new(source)).is_err() {
                    return; // shard gone; stop serving
                }
            }
        })?;
    Ok(TcpAcceptor { addr, stop, join })
}

#[cfg(test)]
mod tests {
    use super::*;
    use esafe_logic::SignalTable;

    #[test]
    fn frame_codec_round_trips_every_value_kind() {
        let mut b = SignalTable::builder();
        let flag = b.bool("flag");
        let count = b.int("count");
        let x = b.real("x");
        let cmd = b.sym("cmd");
        let table = b.finish();
        let mut frame = table.frame();
        frame.set(flag, true);
        frame.set(count, -42i64);
        frame.set(x, 1.5);
        frame.set(cmd, Value::sym("STOP"));

        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        write_frame(&mut wire, &frame).unwrap();

        let mut reader = &wire[..];
        let mut decoded = table.frame();
        assert!(read_frame(&mut reader, &mut decoded).unwrap());
        assert_eq!(decoded, frame);
        decoded.clear();
        assert!(read_frame(&mut reader, &mut decoded).unwrap());
        assert_eq!(decoded, frame);
        assert!(!read_frame(&mut reader, &mut decoded).unwrap(), "clean EOF");
    }

    #[test]
    fn undeclared_signal_is_invalid_data() {
        let mut b = SignalTable::builder();
        b.real("x");
        let sender_table = b.finish();
        let mut b = SignalTable::builder();
        b.real("y");
        let service_table = b.finish();

        let mut frame = sender_table.frame();
        frame.set_named("x", 1.0);
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        let mut decoded = service_table.frame();
        let err = read_frame(&mut &wire[..], &mut decoded).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn mistyped_value_is_rejected_before_it_is_parsed() {
        // The producer declares `p` real and `q` symbolic, the service
        // declares both boolean, and `x` is real on both sides.
        let mut b = SignalTable::builder();
        let p = b.real("p");
        let q = b.sym("q");
        let x = b.int("x");
        let sender = b.finish();
        let mut b = SignalTable::builder();
        b.bool("p");
        b.bool("q");
        b.real("x");
        let service = b.finish();
        let encode = |frame: &Frame| {
            let mut wire = Vec::new();
            write_frame(&mut wire, frame).unwrap();
            wire.split_off(4)
        };

        let mut frame = sender.frame();
        frame.set(p, 0.5);
        assert_eq!(
            decode_payload(&encode(&frame), &mut service.frame()),
            Err(DecodeError::KindMismatch {
                name: "p".to_owned(),
                declared: SignalKind::Bool,
                found: SignalKind::Real,
            })
        );

        // A mistyped symbol is refused before its text is interned.
        let text = "kind_mismatch_probe_never_interned";
        let mut frame = sender.frame();
        frame.set(q, Value::sym(text));
        let mut payload = encode(&frame);
        let at = payload.len() - text.len();
        payload[at] = b'K';
        let err = decode_payload(&payload, &mut service.frame()).unwrap_err();
        assert!(matches!(err, DecodeError::KindMismatch { .. }), "{err}");
        assert_eq!(Sym::lookup(&format!("K{}", &text[1..])), None);

        // An integer inhabits a real signal.
        let mut frame = sender.frame();
        frame.set(x, 7i64);
        let mut decoded = service.frame();
        decode_payload(&encode(&frame), &mut decoded).unwrap();
        assert_eq!(decoded.get_named("x"), Some(Value::Int(7)));
    }

    #[test]
    fn truncated_message_is_unexpected_eof() {
        let mut b = SignalTable::builder();
        let x = b.real("x");
        let table = b.finish();
        let mut frame = table.frame();
        frame.set(x, 2.0);
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        wire.truncate(wire.len() - 3);
        let mut decoded = table.frame();
        let err = read_frame(&mut &wire[..], &mut decoded).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut b = SignalTable::builder();
        b.real("x");
        let table = b.finish();
        // A hostile peer claims a 4 GiB - 1 payload; the decoder must
        // refuse from the prefix alone, never sizing a buffer from it.
        let wire = u32::MAX.to_be_bytes();
        let mut decoded = table.frame();
        let err = read_frame(&mut &wire[..], &mut decoded).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let inner = err.get_ref().expect("carries the decode error");
        assert!(
            inner.to_string().contains("exceeds"),
            "diagnosis names the budget: {inner}"
        );
    }

    #[test]
    fn hostile_signal_count_is_rejected() {
        let mut b = SignalTable::builder();
        b.real("x");
        let table = b.finish();
        // A minimal payload whose count field alone claims 2^32 - 1
        // signals.
        let payload = u32::MAX.to_be_bytes();
        let mut decoded = table.frame();
        assert_eq!(
            decode_payload(&payload, &mut decoded),
            Err(DecodeError::TooManySignals { count: u32::MAX })
        );
    }

    #[test]
    fn hostile_name_and_symbol_lengths_are_rejected() {
        let mut b = SignalTable::builder();
        let cmd = b.sym("cmd");
        let table = b.finish();

        // Name length over budget.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u32.to_be_bytes());
        payload.extend_from_slice(&(MAX_NAME_BYTES as u16 + 1).to_be_bytes());
        let mut decoded = table.frame();
        assert_eq!(
            decode_payload(&payload, &mut decoded),
            Err(DecodeError::NameTooLong {
                len: MAX_NAME_BYTES + 1
            })
        );

        // Symbol length over budget, on a declared signal.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u32.to_be_bytes());
        payload.extend_from_slice(&3u16.to_be_bytes());
        payload.extend_from_slice(b"cmd");
        payload.push(TAG_SYM);
        payload.extend_from_slice(&(MAX_SYMBOL_BYTES as u16 + 1).to_be_bytes());
        let mut decoded = table.frame();
        assert_eq!(
            decode_payload(&payload, &mut decoded),
            Err(DecodeError::SymbolTooLong {
                len: MAX_SYMBOL_BYTES + 1
            })
        );
        let _ = cmd;
    }

    #[test]
    fn oversized_symbol_is_refused_at_encode_time() {
        let mut b = SignalTable::builder();
        let cmd = b.sym("cmd");
        let table = b.finish();
        let mut frame = table.frame();
        frame.set(cmd, Value::sym("x".repeat(MAX_SYMBOL_BYTES + 1)));
        let mut wire = Vec::new();
        let err = write_frame(&mut wire, &frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
