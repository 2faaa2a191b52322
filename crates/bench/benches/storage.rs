//! Microbenchmarks of the storage substrate: append/get/scan paths, the
//! buffer pool, and the CRC-32 every checksummed format shares.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use tw_core::distance::DtwKind;
use tw_core::search::{EngineOpts, NaiveScan, SearchEngine};
use tw_storage::{crc32, create_sequence_file, SequenceStore};
use tw_workload::{generate_queries, generate_random_walks, RandomWalkConfig};

fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage");
    let data = generate_random_walks(&RandomWalkConfig::paper(1_000, 200), 9);

    group.bench_function("append_1000x200", |b| {
        b.iter(|| {
            let mut store = SequenceStore::in_memory();
            for s in &data {
                store.append(s).unwrap();
            }
            black_box(store.len())
        })
    });

    let mut store = SequenceStore::in_memory();
    for s in &data {
        store.append(s).unwrap();
    }
    group.bench_function("scan_1000x200", |b| {
        b.iter(|| black_box(store.scan().unwrap().len()))
    });
    for id in [0u64, 500, 999] {
        group.bench_with_input(BenchmarkId::new("random_get", id), &id, |b, &id| {
            b.iter(|| black_box(store.get(id).unwrap().len()))
        });
    }
    group.finish();
}

/// CRC-32 throughput on one 1 KiB page and on 1 MiB of data.
fn bench_crc32(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage");
    let bytes: Vec<u8> = (0..1u32 << 20)
        .map(|i| i.wrapping_mul(2_654_435_761).to_le_bytes()[3])
        .collect();
    group.bench_function("crc32_1k_page", |b| {
        b.iter(|| black_box(crc32(black_box(&bytes[..1024]))))
    });
    group.bench_function("crc32_1mib", |b| {
        b.iter(|| black_box(crc32(black_box(&bytes))))
    });
    group.finish();
}

/// `scan_visit` over a file-backed v2 store (checksummed pages behind the
/// retry layer) whose pool holds every page, so the timing is the record
/// decode and CRC path, not the disk.
fn bench_file_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage");
    let data = generate_random_walks(&RandomWalkConfig::paper(2_000, 128), 11);
    let dir = std::env::temp_dir().join(format!("tw-bench-storage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("scan.tws");
    let mut store = create_sequence_file(&path, 1024, 4096).unwrap();
    for s in &data {
        store.append(s).unwrap();
    }
    store.flush().unwrap();
    assert!(store.data_pages() < 4096, "pool must hold the whole store");
    group.bench_function("file_v2_scan_visit_2000x128", |b| {
        b.iter(|| {
            let mut elems = 0usize;
            store.scan_visit(|_, values| elems += values.len()).unwrap();
            black_box(elems)
        })
    });
    group.finish();
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// Naive-Scan end to end over a file-backed 10 000 × 128 store whose pool
/// holds every page: the scan decodes records and the DTW kernel verifies
/// them batch by batch. At two threads each batch fans out over two
/// workers, so the pair of cases measures what that fan-out costs.
fn bench_file_naive_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage");
    let data = generate_random_walks(&RandomWalkConfig::paper(10_000, 128), 13);
    let query = generate_queries(&data, 1, 14).remove(0);
    let dir = std::env::temp_dir().join(format!("tw-bench-naive-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("naive.tws");
    let mut store = create_sequence_file(&path, 1024, 256).unwrap();
    for s in &data {
        store.append(s).unwrap();
    }
    store.flush().unwrap();
    drop(store);
    let pool = 11_000;
    let (store, _) = tw_storage::open_sequence_file(&path, 1024, pool).unwrap();
    assert!(
        store.data_pages() < pool as u64,
        "pool must hold the whole store"
    );
    for threads in [1usize, 2] {
        let opts = EngineOpts::new().kind(DtwKind::MaxAbs).threads(threads);
        group.bench_with_input(
            BenchmarkId::new("naive_scan_file_10k_x128", format!("threads{threads}")),
            &opts,
            |b, opts| {
                b.iter(|| {
                    black_box(NaiveScan.range_search(&store, &query, 0.2, opts).unwrap())
                        .matches
                        .len()
                })
            },
        );
    }
    group.finish();
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(
    benches,
    bench_store,
    bench_crc32,
    bench_file_scan,
    bench_file_naive_scan
);
criterion_main!(benches);
