//! CRC-32 (IEEE 802.3, the zlib polynomial) for the harness's on-disk
//! records: the durable-record layer ([`crate::record`]) under the sweep
//! journal and the trace corpus checks every header and every
//! `[len][crc][payload]` frame with this checksum.
//!
//! Opening a corpus checks every byte of `corpus.bin`, so the checksum
//! runs at archive scale (tens of megabytes per open) and is
//! table-driven: slicing-by-16, which folds 16 input bytes per step
//! through 16 lookup tables of 256 entries each (16 KiB, built at
//! compile time). Polynomial, initial value and final xor are those of
//! the standard (zlib) CRC-32, which every journal and corpus on disk
//! was written with; `tests/crc_format.rs` pins the resulting bytes.

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xedb8_8320;

/// `TABLES[k][b]` is the CRC register after feeding byte `b` followed
/// by `k` zero bytes into a zero register.
static TABLES: [[u32; 256]; 16] = tables();

const fn tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & 0u32.wrapping_sub(crc & 1));
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// The CRC-32 of `bytes` (`crc32(b"123456789") == 0xcbf4_3926`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let (blocks, tail) = bytes.as_chunks::<16>();
    for b in blocks {
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(lo & 0xff) as usize]
            ^ t[14][(lo >> 8 & 0xff) as usize]
            ^ t[13][(lo >> 16 & 0xff) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}
