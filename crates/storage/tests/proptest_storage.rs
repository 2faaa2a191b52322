//! Property tests of the storage substrate: codec and store round-trips,
//! decoder equivalence under damage, I/O accounting consistency, and
//! buffer-pool equivalence to the raw pager.

use std::path::{Path, PathBuf};

use bytes::{Buf, Bytes, BytesMut};
use proptest::prelude::*;
use proptest::strategy::Just;

use tw_storage::{
    create_sequence_file, decode_record, decode_record_fmt, decode_record_slice, encode_record_fmt,
    encode_record_to_bytes, open_sequence_file, BufferPool, CodecError, FilePager, MemPager, Pager,
    Record, RecordFormat, SequenceStore, MAX_RECORD_ELEMS,
};

fn values_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 0..300)
}

/// Values with occasional NaNs and infinities, so the `NanElement` path is
/// reached by clean records as well as by flipped exponent bits.
fn spiky_values() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            30 => -1e6f64..1e6,
            1 => Just(f64::NAN),
            1 => Just(f64::INFINITY),
        ],
        0..40,
    )
}

/// The record decoder as it was before the slice decoder existed: a `Buf`
/// cursor over `Bytes`, one `get_*_le` per field. Kept here as an oracle.
fn reference_decode(format: RecordFormat, buf: &mut Bytes) -> Result<Record, CodecError> {
    let header = format.header_bytes();
    if buf.remaining() < header {
        return Err(CodecError::Truncated {
            needed: header,
            available: buf.remaining(),
        });
    }
    let id_len = buf.slice(0..12);
    let id = buf.get_u64_le();
    let len = buf.get_u32_le();
    let stored_crc = (format == RecordFormat::V2).then(|| buf.get_u32_le());
    if len > MAX_RECORD_ELEMS {
        return Err(CodecError::LengthOverflow(len));
    }
    let body = 8 * len as usize;
    if buf.remaining() < body {
        return Err(CodecError::Truncated {
            needed: body,
            available: buf.remaining(),
        });
    }
    if let Some(stored) = stored_crc {
        let mut crc = tw_storage::Crc32::new();
        crc.update(&id_len);
        crc.update(&buf.slice(0..body));
        if crc.finalize() != stored {
            return Err(CodecError::ChecksumMismatch { id });
        }
    }
    let mut values = Vec::with_capacity(len as usize);
    for index in 0..len as usize {
        let v = buf.get_f64_le();
        if v.is_nan() {
            return Err(CodecError::NanElement { id, index });
        }
        values.push(v);
    }
    Ok(Record { id, values })
}

/// Decodes `bytes` three ways — the slice decoder, the public `Bytes`
/// wrapper and the reference — and requires the same record (and extent)
/// or the same error.
fn decoders_agree(format: RecordFormat, bytes: &[u8]) {
    let sliced = decode_record_slice(format, bytes);
    let mut wrapped_buf = Bytes::copy_from_slice(bytes);
    let wrapped = decode_record_fmt(format, &mut wrapped_buf);
    let reference = reference_decode(format, &mut Bytes::copy_from_slice(bytes));
    match &sliced {
        Ok((rec, used)) => {
            prop_assert_eq!(wrapped.as_ref(), Ok(rec));
            prop_assert_eq!(reference.as_ref(), Ok(rec));
            prop_assert_eq!(bytes.len() - wrapped_buf.remaining(), *used);
        }
        Err(err) => {
            prop_assert_eq!(wrapped.as_ref(), Err(err));
            prop_assert_eq!(reference.as_ref(), Err(err));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// Codec: encode/decode is the identity for any finite payload.
    #[test]
    fn codec_roundtrip(id in any::<u64>(), values in values_strategy()) {
        let mut buf = encode_record_to_bytes(id, &values);
        let rec = decode_record(&mut buf).expect("decode");
        prop_assert_eq!(rec.id, id);
        prop_assert_eq!(rec.values, values);
    }

    /// Codec: decoding any truncation of a valid record fails cleanly rather
    /// than panicking or producing garbage.
    #[test]
    fn codec_truncations_fail_cleanly(
        values in prop::collection::vec(-100.0f64..100.0, 1..50),
        cut in 0usize..16,
    ) {
        let bytes = encode_record_to_bytes(1, &values);
        let keep = bytes.len().saturating_sub(cut + 1);
        let mut sliced = bytes.slice(0..keep);
        prop_assert!(decode_record(&mut sliced).is_err());
    }

    /// Codec: the slice decoder, the `Bytes` decoder and the reference agree
    /// on every record, every truncation of it and every single-byte flip.
    #[test]
    fn slice_and_bytes_decoders_agree_under_damage(
        id in any::<u64>(),
        values in spiky_values(),
        v2 in any::<bool>(),
        mask in 1u8..=255,
    ) {
        let format = if v2 { RecordFormat::V2 } else { RecordFormat::V1 };
        let mut buf = BytesMut::new();
        encode_record_fmt(format, &mut buf, id, &values);
        let clean = buf.to_vec();
        decoders_agree(format, &clean);
        for keep in 0..clean.len() {
            decoders_agree(format, &clean[..keep]);
        }
        for at in 0..clean.len() {
            for delta in [mask, 0x01, 0x80] {
                let mut bad = clean.clone();
                bad[at] ^= delta;
                decoders_agree(format, &bad);
            }
        }
        // A record followed by more bytes decodes the same and stops at its
        // own end.
        let mut padded = clean.clone();
        padded.extend_from_slice(&[0xAB; 9]);
        decoders_agree(format, &padded);
    }

    /// Store: append then read back arbitrary batches, in order and by id.
    #[test]
    fn store_roundtrip(batches in prop::collection::vec(values_strategy(), 1..40)) {
        let mut store = SequenceStore::in_memory();
        for (i, values) in batches.iter().enumerate() {
            let id = store.append(values).expect("append");
            prop_assert_eq!(id, i as u64);
        }
        prop_assert_eq!(store.len(), batches.len());
        for (i, values) in batches.iter().enumerate() {
            prop_assert_eq!(&store.get(i as u64).expect("get"), values);
            prop_assert_eq!(store.sequence_len(i as u64).expect("len"), values.len());
        }
        let scan = store.scan().expect("scan");
        for ((id, values), expect) in scan.iter().zip(&batches) {
            prop_assert_eq!(&values, &expect);
            prop_assert!(*id < batches.len() as u64);
        }
    }

    /// Store: the accounted random reads for a `get` always equal the page
    /// span the directory predicts.
    #[test]
    fn io_accounting_matches_prediction(batches in prop::collection::vec(values_strategy(), 1..20)) {
        let mut store = SequenceStore::in_memory();
        for values in &batches {
            store.append(values).expect("append");
        }
        store.take_io();
        for i in 0..batches.len() as u64 {
            let predicted = store.sequence_pages(i).expect("pages");
            store.get(i).expect("get");
            let io = store.take_io();
            prop_assert_eq!(io.random_page_reads, predicted, "sequence {}", i);
            prop_assert_eq!(io.sequential_pages_scanned, 0);
        }
    }

    /// Buffer pool: reads through any pool capacity return exactly what the
    /// raw pager holds.
    #[test]
    fn pool_transparent_for_any_capacity(
        pages in prop::collection::vec(prop::collection::vec(any::<u8>(), 64..=64), 1..12),
        capacity in 1usize..8,
        accesses in prop::collection::vec(0usize..12, 1..40),
    ) {
        let mut pager = MemPager::new(64);
        for page in &pages {
            let n = pager.allocate().expect("alloc");
            pager.write_page(n, page).expect("write");
        }
        let pool = BufferPool::new(pager, capacity);
        let mut buf = vec![0u8; 64];
        for &a in &accesses {
            let page = a % pages.len();
            pool.read(page as u64, &mut buf).expect("read");
            prop_assert_eq!(&buf, &pages[page]);
        }
        let stats = pool.stats();
        prop_assert_eq!(stats.hits + stats.misses, accesses.len() as u64);
    }

    /// Store persists through flush + reopen on a shared pager image.
    #[test]
    fn store_reopen_equivalence(batches in prop::collection::vec(values_strategy(), 1..15)) {
        // Build on a file-backed store so reopen exercises the real path.
        let dir = std::env::temp_dir().join(format!("twprop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(format!("s{}.pages", rand_suffix(&batches)));
        {
            let pager = tw_storage::FilePager::create(&path, 1024).expect("create");
            let mut store = SequenceStore::create(pager, 8).expect("store");
            for values in &batches {
                store.append(values).expect("append");
            }
            store.flush().expect("flush");
        }
        let pager = tw_storage::FilePager::open(&path, 1024).expect("open");
        let store = SequenceStore::open(pager, 8).expect("reopen");
        prop_assert_eq!(store.len(), batches.len());
        for (i, values) in batches.iter().enumerate() {
            prop_assert_eq!(&store.get(i as u64).expect("get"), values);
        }
        std::fs::remove_file(&path).ok();
    }
}

/// A content-derived suffix so parallel proptest cases don't collide on one
/// file name.
fn rand_suffix(batches: &[Vec<f64>]) -> u64 {
    let mut h = 1469598103934665603u64;
    for b in batches {
        h ^= b.len() as u64;
        h = h.wrapping_mul(1099511628211);
        if let Some(v) = b.first() {
            h ^= v.to_bits();
            h = h.wrapping_mul(1099511628211);
        }
    }
    h
}

/// File-backed stores whose record bytes are damaged after open. A module
/// under `cfg(test)` so its helpers may unwrap like the tests they serve.
#[cfg(test)]
mod file_backed {
    use super::*;

    /// A scratch file path unique to this process and test.
    fn scratch_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("twprop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name)
    }

    /// XORs one byte of a file in place, behind the store's back.
    fn flip_file_byte(path: &Path, pos: u64) {
        use std::io::{Read, Seek, SeekFrom, Write};
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .expect("open for flip");
        let mut byte = [0u8; 1];
        file.seek(SeekFrom::Start(pos)).expect("seek");
        file.read_exact(&mut byte).expect("read byte");
        byte[0] ^= 0xFF;
        file.seek(SeekFrom::Start(pos)).expect("seek");
        file.write_all(&byte).expect("write byte");
        file.sync_all().expect("sync");
    }

    /// One record spanning several pages, followed by short ones that start on
    /// later pages.
    fn multi_page_corpus() -> Vec<Vec<f64>> {
        let mut seqs = vec![(0..100)
            .map(|i| f64::from(i) * 0.75 - 30.0)
            .collect::<Vec<_>>()];
        for k in 1..=10 {
            seqs.push((0..20).map(|i| f64::from(i + k)).collect());
        }
        seqs
    }

    /// Checks a freshly opened file-backed store that holds
    /// [`multi_page_corpus`], then flips every byte of record 0 in the file,
    /// one at a time, and requires `get` and `scan` to fail as corruption.
    /// `physical` maps a data-region offset to its byte in the file.
    fn damaged_record_never_reads_back<P: Pager>(
        store: &SequenceStore<P>,
        path: &Path,
        physical: impl Fn(u64) -> u64,
    ) {
        let seqs = multi_page_corpus();
        assert!(
            store.sequence_pages(0).unwrap() >= 3,
            "record 0 spans 3+ pages"
        );
        assert_eq!(store.get(0).unwrap(), seqs[0]);
        let scanned = store.scan().unwrap();
        assert_eq!(scanned.len(), seqs.len());
        for ((id, values), expected) in scanned.iter().zip(&seqs) {
            assert_eq!(values, expected, "record {id}");
        }
        let last = (seqs.len() - 1) as u64;
        let record_bytes = RecordFormat::V2.encoded_len(seqs[0].len()) as u64;
        for offset in 0..record_bytes {
            let pos = physical(offset);
            flip_file_byte(path, pos);
            match store.get(0) {
                Err(e) => assert!(e.is_corruption(), "get, flip at {offset}: {e}"),
                Ok(v) => panic!("get, flip at {offset}: returned data {v:?}"),
            }
            match store.scan() {
                Err(e) => assert!(e.is_corruption(), "scan, flip at {offset}: {e}"),
                Ok(_) => panic!("scan, flip at {offset}: returned data"),
            }
            flip_file_byte(path, pos);
            // The one-frame pool may still hold a damaged page: read the last
            // record, which shares no page with record 0, to evict it.
            assert_eq!(store.get(last).unwrap(), seqs[seqs.len() - 1]);
        }
        assert_eq!(store.get(0).unwrap(), seqs[0]);
    }

    /// Plain pages: only the v2 record CRC (and the directory's length) stand
    /// between a flipped byte and the caller.
    #[test]
    fn file_store_record_damage_is_corruption_on_plain_pages() {
        let path = scratch_path("plain-multipage.pages");
        let page = 256u64;
        {
            let mut store =
                SequenceStore::create(FilePager::create(&path, 256).unwrap(), 4).unwrap();
            for s in multi_page_corpus() {
                store.append(&s).unwrap();
            }
            store.flush().unwrap();
        }
        let store = SequenceStore::open(FilePager::open(&path, 256).unwrap(), 1).unwrap();
        assert_eq!(store.record_format(), RecordFormat::V2);
        damaged_record_never_reads_back(&store, &path, |off| page + off);
        drop(store);
        std::fs::remove_file(&path).ok();
    }

    /// The full file stack: checksummed pages behind the retry layer.
    #[test]
    fn file_store_record_damage_is_corruption_on_checksummed_pages() {
        let path = scratch_path("crc-multipage.tws");
        let physical_page = 264u64;
        {
            let mut store = create_sequence_file(&path, 264, 4).unwrap();
            for s in multi_page_corpus() {
                store.append(&s).unwrap();
            }
            store.flush().unwrap();
        }
        let (store, report) = open_sequence_file(&path, 264, 1).unwrap();
        assert!(report.is_clean(), "{report}");
        let logical = store.page_size() as u64;
        damaged_record_never_reads_back(&store, &path, |off| {
            (1 + off / logical) * physical_page + off % logical
        });
        drop(store);
        std::fs::remove_file(&path).ok();
    }
}
