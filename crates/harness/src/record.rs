//! Durable record files: the one layout, write path and recovery scan
//! behind the sweep journal ([`crate::journal`]) and the trace corpus
//! ([`crate::corpus`]). Each of those keeps only its own payloads and
//! policies; this module owns the bytes around them.
//!
//! # Layout
//!
//! ```text
//! header (published atomically: temp file + fsync + rename)
//!   [0..8)          magic                              8 bytes
//!   [8..12)         format version                     u32 LE
//!   [12..12+8n)     the format's n fields              u64 LE each
//!   [12+8n..16+8n)  CRC-32 of every byte before it     u32 LE
//! frames, appended one write each:
//!   [0..4)          payload length                     u32 LE  (1 ..= the format's budget)
//!   [4..8)          CRC-32 of the payload              u32 LE
//!   [8..8+len)      payload
//! ```
//!
//! A [`Format`] fixes the magic, the version and the payload budget.
//! The journal header holds 4 fields, the corpus header 2; a corpus
//! `MANIFEST.bin` is a header alone, with 5 fields plus 2 per run.
//! Every multi-byte integer is little-endian, and every length read from
//! a file is checked against its budget before anything is allocated
//! for it.
//!
//! A header is checked in one order: its length, magic, version, then
//! checksum. A frame is refused on write and on read when its length is
//! zero or over the budget. [`Format::scan`] walks frames front to back
//! and reports where the intact prefix ends and why the walk stopped
//! there; each format decides what a defect means (the journal truncates
//! it, a committed corpus refuses it). The scan checks the frames'
//! checksums across worker threads and hands the frames over in file
//! order, so what it reports is what a serial walk would.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::crc::crc32;
use rayon::prelude::*;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Bytes a frame adds around its payload: length and checksum.
pub const FRAME_OVERHEAD: usize = 8;

/// Bytes a header of `fields` fields takes on disk.
pub const fn header_len(fields: usize) -> usize {
    16 + 8 * fields
}

/// Why bytes read from a record file are not what their format says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormatError {
    /// The bytes end inside a header or a frame.
    Truncated,
    /// The magic bytes name a different kind of file.
    Magic,
    /// A format version this build does not read.
    Version(u32),
    /// A length of zero or over its budget.
    Length {
        /// The length found.
        len: u64,
        /// The largest length the format admits.
        max: u64,
    },
    /// A stored CRC-32 differs from the one computed over its bytes.
    Checksum {
        /// The checksum on disk.
        stored: u32,
        /// The checksum of the bytes it covers.
        computed: u32,
    },
    /// Checksum-valid bytes that do not decode as the format's payload.
    Malformed,
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::Truncated => write!(f, "the bytes end inside a header or frame"),
            FormatError::Magic => write!(f, "bad magic bytes"),
            FormatError::Version(v) => write!(f, "unsupported format version {v}"),
            FormatError::Length { len, max } => write!(f, "length {len} is not in 1..={max}"),
            FormatError::Checksum { stored, computed } => {
                write!(f, "CRC stored {stored:08x}, computed {computed:08x}")
            }
            FormatError::Malformed => write!(f, "malformed payload"),
        }
    }
}

impl std::error::Error for FormatError {}

/// A filesystem operation on a record file failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoError {
    /// The operation (`"read"`, `"publish"`, `"append"`, …).
    pub op: &'static str,
    /// The file it was applied to.
    pub path: PathBuf,
    /// The operating system's message.
    pub message: String,
}

impl IoError {
    /// An adapter for `map_err` naming the operation and its file.
    pub(crate) fn at<'a>(
        op: &'static str,
        path: &'a Path,
    ) -> impl FnOnce(std::io::Error) -> IoError + 'a {
        move |e| IoError {
            op,
            path: path.to_path_buf(),
            message: e.to_string(),
        }
    }
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.op, self.path.display(), self.message)
    }
}

impl std::error::Error for IoError {}

/// What decoding the front of a byte slice found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decoded<T> {
    /// A whole, valid record and the bytes its frame took.
    Record(T, usize),
    /// The bytes end inside the frame: a torn tail, not corruption.
    Incomplete,
    /// The frame or its payload is invalid.
    Corrupt(FormatError),
}

impl<T> Decoded<T> {
    /// Decodes a whole frame's payload further; a refusal is `Corrupt`.
    pub fn and_then<U>(self, f: impl FnOnce(T) -> Result<U, FormatError>) -> Decoded<U> {
        match self {
            Decoded::Record(t, n) => match f(t) {
                Ok(u) => Decoded::Record(u, n),
                Err(e) => Decoded::Corrupt(e),
            },
            Decoded::Incomplete => Decoded::Incomplete,
            Decoded::Corrupt(e) => Decoded::Corrupt(e),
        }
    }
}

/// A record file format: its magic, its version, and the largest
/// payload one frame may carry (0 for a header-only file).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Format {
    /// Magic bytes opening the file.
    pub magic: [u8; 8],
    /// The version this build writes and reads.
    pub version: u32,
    /// The largest frame payload, in bytes.
    pub max_payload: usize,
}

impl Format {
    /// Encodes a header holding `fields`.
    pub fn encode_header(&self, fields: &[u64]) -> Vec<u8> {
        let mut out = Vec::with_capacity(header_len(fields.len()));
        out.extend_from_slice(&self.magic);
        out.extend_from_slice(&self.version.to_le_bytes());
        for field in fields {
            out.extend_from_slice(&field.to_le_bytes());
        }
        out.extend_from_slice(&crc32(&out).to_le_bytes());
        out
    }

    /// Checks the `len`-byte header at the front of `bytes` and returns
    /// a cursor over its fields.
    ///
    /// # Errors
    ///
    /// [`FormatError::Truncated`] when `bytes` is shorter than `len` or
    /// `len` cannot hold a header, then [`FormatError::Magic`],
    /// [`FormatError::Version`] and [`FormatError::Checksum`], in that
    /// order.
    pub fn decode_header<'a>(
        &self,
        bytes: &'a [u8],
        len: usize,
    ) -> Result<Cursor<'a>, FormatError> {
        let (body, stored) = bytes
            .get(..len)
            .and_then(<[u8]>::split_last_chunk::<4>)
            .filter(|(body, _)| body.len() >= 12)
            .ok_or(FormatError::Truncated)?;
        let mut c = Cursor::new(body);
        if c.take(8)? != self.magic {
            return Err(FormatError::Magic);
        }
        let version = c.u32()?;
        if version != self.version {
            return Err(FormatError::Version(version));
        }
        let (stored, computed) = (u32::from_le_bytes(*stored), crc32(body));
        if stored != computed {
            return Err(FormatError::Checksum { stored, computed });
        }
        Ok(c)
    }

    /// Frames `payload` as `[len][crc][payload]`.
    ///
    /// # Errors
    ///
    /// [`FormatError::Length`] for an empty payload or one over the
    /// budget: the reader would refuse the frame.
    pub fn encode_frame(&self, payload: &[u8]) -> Result<Vec<u8>, FormatError> {
        let len = self.admit(payload.len() as u64)?;
        let mut out = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
        Ok(out)
    }

    /// Decodes the frame at the front of `bytes`, borrowing its payload.
    /// Never panics: truncation is [`Decoded::Incomplete`], a bad length
    /// or checksum is [`Decoded::Corrupt`].
    pub fn decode_frame<'a>(&self, bytes: &'a [u8]) -> Decoded<&'a [u8]> {
        let (stored, payload) = match self.split_frame(bytes) {
            Ok(frame) => frame,
            Err(FormatError::Truncated) => return Decoded::Incomplete,
            Err(e) => return Decoded::Corrupt(e),
        };
        let computed = crc32(payload);
        if stored != computed {
            return Decoded::Corrupt(FormatError::Checksum { stored, computed });
        }
        Decoded::Record(payload, FRAME_OVERHEAD + payload.len())
    }

    /// Walks the frames of `bytes` from `start`, handing each frame's
    /// offset and payload to `accept`, until the bytes end, a frame is
    /// torn or corrupt, or `accept` refuses a payload. Returns where the
    /// intact prefix ends and, if the walk stopped before the end of
    /// `bytes`, why.
    ///
    /// The walk takes three passes. The first follows the length
    /// prefixes up to the first torn or over-budget frame. The second
    /// computes every frame's CRC-32 across worker threads, in chunks
    /// of about [`CHECK_CHUNK_BYTES`]. The third hands the frames to
    /// `accept` in file order and stops at the first checksum mismatch
    /// or refusal, so the result and the `accept` calls are those of a
    /// front-to-back walk with [`decode_frame`](Format::decode_frame).
    pub fn scan(
        &self,
        bytes: &[u8],
        start: usize,
        mut accept: impl FnMut(usize, &[u8]) -> Result<(), FormatError>,
    ) -> (usize, Option<FormatError>) {
        let mut frames: Vec<(usize, u32, &[u8])> = Vec::new();
        let mut at = start;
        let mut stop = None;
        while let Some(rest) = bytes.get(at..).filter(|rest| !rest.is_empty()) {
            match self.split_frame(rest) {
                Ok((stored, payload)) => {
                    frames.push((at, stored, payload));
                    at += FRAME_OVERHEAD + payload.len();
                }
                Err(e) => {
                    stop = Some(e);
                    break;
                }
            }
        }
        for (&(at, stored, payload), computed) in frames.iter().zip(checksums(&frames)) {
            let checked = if stored == computed {
                accept(at, payload)
            } else {
                Err(FormatError::Checksum { stored, computed })
            };
            if let Err(e) = checked {
                return (at, Some(e));
            }
        }
        (at, stop)
    }

    /// The stored checksum and the payload of the frame at the front of
    /// `bytes`, its checksum unchecked: [`FormatError::Truncated`] when
    /// the bytes end inside the frame, [`FormatError::Length`] for a
    /// length of zero or over the budget.
    fn split_frame<'a>(&self, bytes: &'a [u8]) -> Result<(u32, &'a [u8]), FormatError> {
        let mut c = Cursor::new(bytes);
        let (Ok(len), Ok(stored)) = (c.u32(), c.u32()) else {
            return Err(FormatError::Truncated);
        };
        self.admit(u64::from(len))?;
        let payload = c.take(len as usize).map_err(|_| FormatError::Truncated)?;
        Ok((stored, payload))
    }

    /// `len` as a frame length, if the format admits it.
    fn admit(&self, len: u64) -> Result<u32, FormatError> {
        let max = self.max_payload as u64;
        match u32::try_from(len) {
            Ok(len32) if len != 0 && len <= max => Ok(len32),
            _ => Err(FormatError::Length { len, max }),
        }
    }
}

/// Payload bytes one worker checksums per work item when
/// [`Format::scan`] checks its frames. Below this a file's frames make one
/// item, checked on the calling thread without starting a worker: a
/// worker costs about as much to start as checksumming this many bytes.
pub const CHECK_CHUNK_BYTES: usize = 1 << 16;

/// The CRC-32 of every frame's payload, in frame order, computed across
/// worker threads over chunks of whole frames holding about
/// [`CHECK_CHUNK_BYTES`] of payload each.
fn checksums(frames: &[(usize, u32, &[u8])]) -> Vec<u32> {
    let mut chunks = Vec::new();
    let (mut from, mut bytes) = (0, 0);
    for (i, (_, _, payload)) in frames.iter().enumerate() {
        bytes += payload.len();
        if bytes >= CHECK_CHUNK_BYTES || i + 1 == frames.len() {
            chunks.push(&frames[from..=i]);
            (from, bytes) = (i + 1, 0);
        }
    }
    let sums: Vec<Vec<u32>> = chunks
        .par_iter()
        .map(|chunk| chunk.iter().map(|(_, _, payload)| crc32(payload)).collect())
        .collect();
    sums.concat()
}

/// Writes `bytes` to `path` atomically: a temporary file beside it,
/// fsync, rename. Readers see the old file or the whole new one.
///
/// # Errors
///
/// On any filesystem failure; `path` is then untouched.
pub(crate) fn publish(path: &Path, bytes: &[u8]) -> Result<(), IoError> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let mut f = File::create(&tmp).map_err(IoError::at("create", &tmp))?;
    f.write_all(bytes).map_err(IoError::at("write", &tmp))?;
    f.sync_all().map_err(IoError::at("sync", &tmp))?;
    drop(f);
    std::fs::rename(&tmp, path).map_err(IoError::at("publish", path))
}

/// An append-only record file, open for appends after its header.
/// Appends are unbuffered, one `write_all` per frame, with no fsync
/// until [`sync`](RecordFile::sync): a killed process loses only what
/// the OS had not been handed, and a torn final frame is left for the
/// next scan to find.
#[derive(Debug)]
pub(crate) struct RecordFile {
    file: File,
    path: PathBuf,
    len: u64,
}

impl RecordFile {
    /// Publishes `header` as a new file at `path` and opens it for
    /// appends. The caller refuses an existing file first.
    ///
    /// # Errors
    ///
    /// On any filesystem failure.
    pub fn create(path: &Path, header: &[u8]) -> Result<Self, IoError> {
        publish(path, header)?;
        Self::reopen(path, header.len() as u64)
    }

    /// Opens the file at `path` for appends after cutting it to `len`,
    /// the intact prefix a scan recovered; a cut is fsynced before the
    /// first append.
    ///
    /// # Errors
    ///
    /// On any filesystem failure.
    pub fn reopen(path: &Path, len: u64) -> Result<Self, IoError> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(IoError::at("open", path))?;
        let on_disk = file.metadata().map_err(IoError::at("stat", path))?.len();
        if on_disk > len {
            file.set_len(len).map_err(IoError::at("truncate", path))?;
            file.sync_all().map_err(IoError::at("sync", path))?;
        }
        let path = path.to_path_buf();
        Ok(RecordFile { file, path, len })
    }

    /// Appends one encoded frame in a single write.
    ///
    /// # Errors
    ///
    /// On a failed write; the file may then end in a torn frame.
    pub fn append(&mut self, frame: &[u8]) -> Result<(), IoError> {
        self.file
            .write_all(frame)
            .map_err(IoError::at("append", &self.path))?;
        self.len += frame.len() as u64;
        Ok(())
    }

    /// Flushes every append to stable storage.
    ///
    /// # Errors
    ///
    /// On a failed fsync.
    pub fn sync(&self) -> Result<(), IoError> {
        self.file
            .sync_all()
            .map_err(IoError::at("sync", &self.path))
    }

    /// The file's size in bytes: header plus every frame appended.
    pub fn size(&self) -> u64 {
        self.len
    }
}

/// A bounds-checked little-endian reader over a payload or header: a
/// read past the end is [`FormatError::Malformed`].
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    /// A cursor at the front of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { rest: bytes }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], FormatError> {
        let (head, rest) = self
            .rest
            .split_at_checked(n)
            .ok_or(FormatError::Malformed)?;
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], FormatError> {
        self.take(N)?.try_into().map_err(|_| FormatError::Malformed)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, FormatError> {
        self.array().map(|[b]| b)
    }

    /// The next byte as a bool: 0 or 1, nothing else.
    pub fn bool(&mut self) -> Result<bool, FormatError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(FormatError::Malformed),
        }
    }

    /// The next `u32`.
    pub fn u32(&mut self) -> Result<u32, FormatError> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next `u64`.
    pub fn u64(&mut self) -> Result<u64, FormatError> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next `N` `u64`s.
    pub fn u64s<const N: usize>(&mut self) -> Result<[u64; N], FormatError> {
        let mut out = [0; N];
        for x in &mut out {
            *x = self.u64()?;
        }
        Ok(out)
    }

    /// The next `u64`, which must fit a `usize`.
    pub fn usize(&mut self) -> Result<usize, FormatError> {
        usize::try_from(self.u64()?).map_err(|_| FormatError::Malformed)
    }

    /// A `u32`-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, FormatError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FormatError::Malformed)
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }
}
