//! Page checksumming.
//!
//! [`ChecksumPager`] decorates any [`Pager`] and guards every page with an
//! 8-byte trailer:
//!
//! ```text
//! physical page := payload:[u8; inner_size - 8] crc32:u32le tag:u16le ver:u16le
//! ```
//!
//! The CRC covers the payload bytes; the tag ("CP") and version pin the
//! trailer layout itself. Reads verify before handing bytes up; a mismatch
//! surfaces as [`PagerError::Corrupt`] rather than garbage data. The CRC32
//! (IEEE reflected polynomial, as used by zlib and ethernet) is implemented
//! here directly, slicing-by-16 over a 16 KiB table built at compile time —
//! the workspace deliberately carries no checksum crate, and every
//! checksummed format (pages, records, store and WAL headers, WAL records,
//! shard manifests, envelope sidecars, R-tree files, TWNP frames) uses this
//! one implementation.

use crate::pager::{Pager, PagerError};

/// Checksummed page format generation (see [`Pager::page_format_version`]).
pub const PAGE_FORMAT_CRC: u32 = 2;

/// Bytes reserved at the end of each physical page for the trailer.
pub const TRAILER_BYTES: usize = 8;

const TRAILER_TAG: u16 = u16::from_le_bytes(*b"CP");
const TRAILER_VERSION: u16 = 1;

/// One reflected-CRC step over a zero byte: eight shifts of the IEEE
/// polynomial 0xEDB88320.
const fn shift_zero_byte(mut crc: u32) -> u32 {
    let mut bit = 0;
    while bit < 8 {
        crc = if crc & 1 != 0 {
            (crc >> 1) ^ 0xEDB8_8320
        } else {
            crc >> 1
        };
        bit += 1;
    }
    crc
}

/// Slicing-by-16 tables (16 × 256 × 4 bytes = 16 KiB). Row `k`, entry `b`
/// is the CRC register after byte `b` followed by `k` zero bytes, so row 0
/// is the classic bytewise table and row `k` carries a byte `k` positions
/// ahead of the end of a 16-byte block.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut byte = 0usize;
    let mut register = 0u32;
    while byte < 256 {
        let mut crc = register;
        let mut row = 0usize;
        while row < 16 {
            crc = shift_zero_byte(crc);
            tables[row][byte] = crc;
            row += 1;
        }
        byte += 1;
        register += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

/// Table lookup; `row` is a constant at every call site, so after inlining
/// both bounds checks fold away.
#[inline(always)]
fn lookup(row: usize, byte: u8) -> u32 {
    CRC32_TABLES
        .get(row)
        .and_then(|table| table.get(usize::from(byte)))
        .copied()
        .unwrap_or(0)
}

/// Incremental CRC-32 (IEEE, reflected) — for checksumming data that is
/// produced in pieces (record header then values) without concatenating.
///
/// `update` consumes 16 bytes per step (slicing-by-16) and finishes the
/// sub-block tail one byte at a time; the result does not depend on how the
/// input is split across calls.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
        let (blocks, tail) = data.as_chunks::<16>();
        for block in blocks {
            let [c0, c1, c2, c3] = crc.to_le_bytes();
            let [b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15] = *block;
            crc = lookup(15, b0 ^ c0)
                ^ lookup(14, b1 ^ c1)
                ^ lookup(13, b2 ^ c2)
                ^ lookup(12, b3 ^ c3)
                ^ lookup(11, b4)
                ^ lookup(10, b5)
                ^ lookup(9, b6)
                ^ lookup(8, b7)
                ^ lookup(7, b8)
                ^ lookup(6, b9)
                ^ lookup(5, b10)
                ^ lookup(4, b11)
                ^ lookup(3, b12)
                ^ lookup(2, b13)
                ^ lookup(1, b14)
                ^ lookup(0, b15);
        }
        for &b in tail {
            let [c0, ..] = crc.to_le_bytes();
            crc = (crc >> 8) ^ lookup(0, b ^ c0);
        }
        self.state = crc;
    }

    pub fn finalize(self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// CRC-32 (IEEE, reflected) of `data` — matches zlib's `crc32(0, ...)`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finalize()
}

/// A pager decorator that checksums every page.
///
/// The logical page size shrinks by [`TRAILER_BYTES`]; callers above see the
/// smaller size and never touch the trailer. `allocate` seals the fresh
/// zeroed page with a valid trailer so read-modify-write paths (the store's
/// `write_span`) can read pages they have allocated but not yet written.
#[derive(Debug)]
pub struct ChecksumPager<P: Pager> {
    inner: P,
}

impl<P: Pager> ChecksumPager<P> {
    /// Wraps `inner`. Panics if the inner page size cannot fit a trailer
    /// plus a useful payload (construction-time misuse, not a data fault).
    pub fn new(inner: P) -> Self {
        assert!(
            inner.page_size() > TRAILER_BYTES + 16,
            "inner page size {} too small for a checksum trailer",
            inner.page_size()
        );
        Self { inner }
    }

    /// The wrapped pager.
    pub fn into_inner(self) -> P {
        self.inner
    }

    fn seal(&self, payload: &[u8], frame: &mut [u8]) {
        let (body, trailer) = frame.split_at_mut(payload.len());
        body.copy_from_slice(payload);
        trailer[0..4].copy_from_slice(&crc32(payload).to_le_bytes());
        trailer[4..6].copy_from_slice(&TRAILER_TAG.to_le_bytes());
        trailer[6..8].copy_from_slice(&TRAILER_VERSION.to_le_bytes());
    }

    fn verify(page: u64, frame: &[u8]) -> Result<&[u8], PagerError> {
        let (payload, trailer) = frame.split_at(frame.len() - TRAILER_BYTES);
        let tag = u16::from_le_bytes([trailer[4], trailer[5]]);
        let ver = u16::from_le_bytes([trailer[6], trailer[7]]);
        if tag != TRAILER_TAG {
            return Err(PagerError::Corrupt {
                page,
                reason: "bad page trailer tag",
            });
        }
        if ver != TRAILER_VERSION {
            return Err(PagerError::Corrupt {
                page,
                reason: "unsupported page trailer version",
            });
        }
        let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        if stored != crc32(payload) {
            return Err(PagerError::Corrupt {
                page,
                reason: "checksum mismatch",
            });
        }
        Ok(payload)
    }
}

impl<P: Pager> Pager for ChecksumPager<P> {
    fn page_size(&self) -> usize {
        self.inner.page_size() - TRAILER_BYTES
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn allocate(&mut self) -> Result<u64, PagerError> {
        let page = self.inner.allocate()?;
        // Seal the zeroed payload so the page verifies before first write.
        let mut frame = vec![0u8; self.inner.page_size()];
        let payload = vec![0u8; self.page_size()];
        self.seal(&payload, &mut frame);
        self.inner.write_page(page, &frame)?;
        Ok(page)
    }

    fn read_page(&self, page: u64, out: &mut [u8]) -> Result<(), PagerError> {
        if out.len() != self.page_size() {
            return Err(PagerError::FrameSize {
                expected: self.page_size(),
                got: out.len(),
            });
        }
        let mut frame = vec![0u8; self.inner.page_size()];
        self.inner.read_page(page, &mut frame)?;
        let payload = Self::verify(page, &frame)?;
        out.copy_from_slice(payload);
        Ok(())
    }

    fn write_page(&mut self, page: u64, data: &[u8]) -> Result<(), PagerError> {
        if data.len() != self.page_size() {
            return Err(PagerError::FrameSize {
                expected: self.page_size(),
                got: data.len(),
            });
        }
        let mut frame = vec![0u8; self.inner.page_size()];
        self.seal(data, &mut frame);
        self.inner.write_page(page, &frame)
    }

    fn sync(&mut self) -> Result<(), PagerError> {
        self.inner.sync()
    }

    fn page_format_version(&self) -> u32 {
        PAGE_FORMAT_CRC
    }

    fn checksum_retries(&self) -> u64 {
        self.inner.checksum_retries()
    }

    fn set_governor(&self, token: &crate::govern::CancelToken) {
        self.inner.set_governor(token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemPager;

    /// The bytewise CRC-32 the slicing-by-16 loop replaced, kept as the
    /// oracle: its own 256-entry table and one lookup per byte.
    fn bytewise_crc32(data: &[u8]) -> u32 {
        const fn table() -> [u32; 256] {
            let mut t = [0u32; 256];
            let mut i = 0usize;
            while i < 256 {
                let mut crc = i as u32;
                let mut bit = 0;
                while bit < 8 {
                    crc = if crc & 1 != 0 {
                        (crc >> 1) ^ 0xEDB8_8320
                    } else {
                        crc >> 1
                    };
                    bit += 1;
                }
                t[i] = crc;
                i += 1;
            }
            t
        }
        static TABLE: [u32; 256] = table();
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    /// Deterministic pseudo-random bytes (SplitMix64).
    fn seeded_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vectors for CRC-32/IEEE.
        for (data, expected) in [
            (&b""[..], 0),
            (&b"123456789"[..], 0xCBF4_3926),
            (
                &b"The quick brown fox jumps over the lazy dog"[..],
                0x414F_A339,
            ),
        ] {
            assert_eq!(crc32(data), expected);
            assert_eq!(bytewise_crc32(data), expected);
        }
    }

    #[test]
    fn sliced_crc_matches_bytewise_oracle_at_every_length() {
        let data = seeded_bytes(80, 0x5EED);
        for len in 0..=data.len() {
            let prefix = &data[..len];
            assert_eq!(crc32(prefix), bytewise_crc32(prefix), "length {len}");
        }
        // Larger inputs with a sub-block tail, and all-ones bytes that
        // exercise every table row at its last entry.
        for len in [1024, 1044, 4096 + 7] {
            let big = seeded_bytes(len, u64::try_from(len).unwrap());
            assert_eq!(crc32(&big), bytewise_crc32(&big), "length {len}");
        }
        let ones = [0xFFu8; 100];
        assert_eq!(crc32(&ones), bytewise_crc32(&ones));
    }

    #[test]
    fn split_updates_match_one_shot_at_every_split_point() {
        // Each `update` call restarts the 16-byte chunking, so a split in the
        // middle of a block must still give the one-shot answer.
        let data = seeded_bytes(100, 0xC0FFEE);
        let expected = bytewise_crc32(&data);
        for split in 0..=data.len() {
            let (head, tail) = data.split_at(split);
            let mut h = Crc32::new();
            h.update(head);
            h.update(tail);
            assert_eq!(h.finalize(), expected, "split at {split}");
        }
    }

    #[test]
    fn roundtrip_and_logical_size() {
        let mut p = ChecksumPager::new(MemPager::new(256));
        assert_eq!(p.page_size(), 256 - TRAILER_BYTES);
        assert_eq!(p.page_format_version(), PAGE_FORMAT_CRC);
        let page = p.allocate().expect("alloc");
        let data: Vec<u8> = (0..p.page_size()).map(|i| (i % 97) as u8).collect();
        p.write_page(page, &data).expect("write");
        let mut out = vec![0u8; p.page_size()];
        p.read_page(page, &mut out).expect("read");
        assert_eq!(out, data);
    }

    #[test]
    fn fresh_pages_verify_without_a_write() {
        // write_span read-modify-writes freshly allocated pages; allocate
        // must seal them or every partial-page append would fail.
        let mut p = ChecksumPager::new(MemPager::new(256));
        let page = p.allocate().expect("alloc");
        let mut out = vec![0u8; p.page_size()];
        p.read_page(page, &mut out).expect("read fresh page");
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let mut p = ChecksumPager::new(MemPager::new(128));
        let page = p.allocate().unwrap();
        let data: Vec<u8> = (0..p.page_size()).map(|i| i as u8).collect();
        p.write_page(page, &data).unwrap();

        // Grab the sealed physical frame, then flip each bit in turn.
        let mut frame = vec![0u8; 128];
        let mut inner = p.into_inner();
        inner.read_page(page, &mut frame).unwrap();
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut tampered = frame.clone();
                tampered[byte] ^= 1 << bit;
                inner.write_page(page, &tampered).unwrap();
                let reread = ChecksumPager::new(inner);
                let mut out = vec![0u8; reread.page_size()];
                let err = reread.read_page(page, &mut out).unwrap_err();
                assert!(
                    err.is_corruption(),
                    "flip at byte {byte} bit {bit} escaped: {err}"
                );
                inner = reread.into_inner();
            }
        }
    }

    #[test]
    fn wrong_frame_size_rejected() {
        let mut p = ChecksumPager::new(MemPager::new(256));
        p.allocate().unwrap();
        let mut physical = vec![0u8; 256];
        assert!(matches!(
            p.read_page(0, &mut physical),
            Err(PagerError::FrameSize { .. })
        ));
        assert!(matches!(
            p.write_page(0, &physical),
            Err(PagerError::FrameSize { .. })
        ));
    }
}
