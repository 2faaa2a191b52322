//! `ingest-mixed`: one writer appends length-64 random walks through a
//! file-backed `ConcurrentIngest` (every append is a WAL commit with two
//! syncs; a checkpoint every 256 appends) while one reader runs indexed
//! range queries on pinned `Snapshot`s. The only workload that writes.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tw_core::{dtw_within, DtwKind};
use tw_core::{ConcurrentIngest, EngineOpts, Match, QueryStats, Termination, TwSimSearch};
use tw_storage::{
    create_sequence_file_shared, open_sequence_file_shared, SyncPager, DEFAULT_PAGE_SIZE,
};
use tw_workload::{generate_queries, generate_random_walks, RandomWalkConfig};

use crate::layers::{finish_trace, kernel_split, median_us, work_counters, Layers};
use crate::report::{Checks, EndToEnd, Report};
use crate::trace::Tracer;
use crate::util::{
    disk_bytes, mix, ms, peak_rss_mb, repeated_setup, same_answer, sample_indices, user_bytes,
    values_key, Ctx, Samples,
};
use crate::Config;

const BASE: usize = 100_000;
const LEN: usize = 64;
const EPSILON: f64 = 0.1;
const CHECKPOINT_EVERY: u64 = 256;
const SETUP_REPS: usize = 3;
const PROBE_QUERIES: u64 = 16;
/// Reader answers checked against a brute-force scan: one in this many,
/// at most `MAX_CHECKED` per phase.
const CHECK_EVERY: u64 = 8;
const MAX_CHECKED: usize = 8;

const STREAM_CORPUS: u64 = 1;
const STREAM_UNTRACED: u64 = 16;
const STREAM_TRACED: u64 = 32;
const STREAM_PROBE: u64 = 48;
const STREAM_SAMPLE: u64 = 64;

type Ingest = ConcurrentIngest<SyncPager>;

struct Files {
    db: PathBuf,
    wal: PathBuf,
    index: PathBuf,
}

/// Set-up: write the base store and its index sidecar, then open both
/// through `ConcurrentIngest::open_file` (recovery protocol included).
fn build(dir: &Path, base: &[Vec<f64>]) -> Result<(Ingest, Files), String> {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).ctx("creating ingest dir")?;
    let files = Files {
        db: dir.join("base.tws"),
        wal: dir.join("base.twl"),
        index: dir.join("base.twr"),
    };
    let mut store = create_sequence_file_shared(&files.db, DEFAULT_PAGE_SIZE, 256)
        .ctx("creating base store")?;
    for s in base {
        store.append(s).ctx("appending base")?;
    }
    store.flush().ctx("flushing base store")?;
    TwSimSearch::build(&store)
        .ctx("building index")?
        .save_file(&files.index)
        .ctx("saving index")?;
    drop(store);
    let (ingest, recovery) =
        ConcurrentIngest::open_file(&files.db, &files.wal, &files.index).ctx("opening ingest")?;
    if !recovery.is_clean() || recovery.index_rebuilt {
        return Err(format!("freshly built base needed recovery: {recovery}"));
    }
    Ok((ingest, files))
}

#[derive(Default)]
struct Writer {
    appends: Vec<f64>,
    checkpoints: Vec<f64>,
    /// Appends acknowledged (ids `BASE..BASE + acked`); their values are
    /// regenerated for the checks rather than held during the run.
    acked: usize,
    /// WAL bytes committed by the appends of checkpointed intervals.
    wal_bytes: u64,
    /// The same for the first interval only (a deterministic counter).
    first_interval_wal_bytes: Option<u64>,
    elapsed: Duration,
    attempted: u64,
    bad: Vec<String>,
}

#[derive(Default)]
struct Reader {
    latencies: Vec<f64>,
    stats: QueryStats,
    matches: u64,
    visible: u64,
    elapsed: Duration,
    /// `(query, sequences visible to the snapshot, answer)`.
    sampled: Vec<(Vec<f64>, usize, Vec<Match>)>,
    attempted: u64,
    bad: Vec<String>,
}

fn walk(seed: u64, stream: u64, i: u64) -> Vec<f64> {
    generate_random_walks(&RandomWalkConfig::paper(1, LEN), mix(seed, stream, i)).remove(0)
}

fn write_loop(ingest: &Ingest, config: &Config, stream: u64, tracer: &Tracer) -> Writer {
    let mut w = Writer::default();
    let mut handle = match ingest.writer() {
        Ok(h) => h,
        Err(e) => {
            w.bad.push(format!("claiming the writer: {e}"));
            return w;
        }
    };
    w.elapsed = crate::util::closed_loop(config.seconds, |i| {
        let values = walk(config.seed, stream, i);
        w.attempted += 1;
        let start = Instant::now();
        let acked = handle.append(&values);
        let end = Instant::now();
        match acked {
            Ok(id) if id == (BASE as u64 + i) => {}
            Ok(id) => w.bad.push(format!("append {i} acknowledged as id {id}")),
            Err(e) => {
                w.bad.push(format!("append {i}: {e}"));
                return false;
            }
        }
        w.appends.push(ms(end - start));
        tracer.record(i, "ingest.append", "", start, end);
        w.acked += 1;
        if (i + 1) % CHECKPOINT_EVERY == 0 {
            let bytes = ingest.wal_committed_bytes();
            w.wal_bytes += bytes;
            w.first_interval_wal_bytes.get_or_insert(bytes);
            w.attempted += 1;
            let start = Instant::now();
            if let Err(e) = handle.checkpoint() {
                w.bad.push(format!("checkpoint after append {i}: {e}"));
                return false;
            }
            let end = Instant::now();
            w.checkpoints.push(ms(end - start));
            tracer.record(i, "ingest.checkpoint", "", start, end);
        }
        true
    });
    w
}

fn read_loop(
    ingest: &Ingest,
    base: &[Vec<f64>],
    config: &Config,
    stream: u64,
    tracer: &Tracer,
) -> Reader {
    let mut r = Reader::default();
    let opts = EngineOpts::new();
    r.elapsed = crate::util::closed_loop(config.seconds, |i| {
        let q = generate_queries(base, 1, mix(config.seed, stream, i)).remove(0);
        r.attempted += 1;
        let start = Instant::now();
        let snapshot = ingest.snapshot();
        let outcome = snapshot.search(&q, EPSILON, &opts);
        let end = Instant::now();
        let visible = snapshot.len();
        drop(snapshot);
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                r.bad.push(format!("snapshot query {i}: {e}"));
                return true;
            }
        };
        if tracer.enabled() {
            let key = values_key(&q);
            tracer.record(key, "ingest.snapshot_search", "", start, end);
            tracer.record_phases(
                key,
                "ingest.snapshot_search",
                start,
                &outcome.query_stats.phases,
            );
        }
        if !outcome.query_stats.accounting_balanced() {
            r.bad
                .push(format!("query {i}: QueryStats ledger does not balance"));
            return true;
        }
        if outcome.termination != Termination::Complete {
            r.bad.push(format!(
                "query {i}: partial result {:?}",
                outcome.termination
            ));
            return true;
        }
        r.latencies.push(ms(end - start));
        r.stats.merge(&outcome.query_stats);
        r.matches += outcome.matches.len() as u64;
        r.visible += visible as u64;
        if r.sampled.len() < MAX_CHECKED
            && mix(config.seed ^ stream, STREAM_SAMPLE, i).is_multiple_of(CHECK_EVERY)
        {
            r.sampled.push((q, visible, outcome.matches));
        }
        true
    });
    r
}

/// One measured phase on a freshly built corpus.
struct Phase {
    writer: Writer,
    reader: Reader,
    stream: u64,
    disk_bytes: u64,
    peak_rss_mb: f64,
}

fn measure(
    ingest: Ingest,
    files: &Files,
    base: &[Vec<f64>],
    config: &Config,
    stream: u64,
    tracer: &Tracer,
) -> Result<Phase, String> {
    let (writer, reader) = std::thread::scope(|scope| {
        let w = scope.spawn(|| write_loop(&ingest, config, stream, tracer));
        let r = scope.spawn(|| read_loop(&ingest, base, config, stream + 1, tracer));
        (w.join(), r.join())
    });
    let writer = writer.map_err(|_| "writer thread panicked".to_string())?;
    let reader = reader.map_err(|_| "reader thread panicked".to_string())?;
    if reader.latencies.is_empty() || writer.appends.is_empty() {
        return Err(format!(
            "no completed operation: {:?} {:?}",
            writer.bad.first(),
            reader.bad.first()
        ));
    }
    let peak_rss_mb = peak_rss_mb()?;
    drop(ingest);
    let disk_bytes = disk_bytes(&files.db)? + disk_bytes(&files.wal)? + disk_bytes(&files.index)?;
    Ok(Phase {
        writer,
        reader,
        stream,
        disk_bytes,
        peak_rss_mb,
    })
}

fn check(
    phase: &Phase,
    files: &Files,
    base: &[Vec<f64>],
    config: &Config,
    checks: &mut Checks,
) -> Result<(), String> {
    let (w, r) = (&phase.writer, &phase.reader);
    checks.attempted += w.attempted + r.attempted;
    let acked: Vec<Vec<f64>> = (0..w.acked as u64)
        .map(|i| walk(config.seed, phase.stream, i))
        .collect();
    for bad in w.bad.iter().chain(&r.bad) {
        checks.fail(bad.clone());
    }
    // Each sampled answer equals a brute-force scan over exactly the
    // sequences its snapshot could see.
    for (q, visible, answer) in &r.sampled {
        let expected: Vec<Match> = base
            .iter()
            .chain(&acked)
            .take(*visible)
            .enumerate()
            .filter_map(|(id, s)| {
                dtw_within(s, q, DtwKind::MaxAbs, EPSILON)
                    .within
                    .map(|distance| Match {
                        id: id as u64,
                        distance,
                    })
            })
            .collect();
        if !same_answer(answer, &expected) {
            checks.fail(format!(
                "snapshot answer ({} match(es)) differs from a scan of its {visible} visible sequence(s) ({} match(es))",
                answer.len(),
                expected.len()
            ));
        }
    }
    // Reopening recovers exactly the acknowledged appends.
    let (reopened, recovery) =
        ConcurrentIngest::open_file(&files.db, &files.wal, &files.index).ctx("reopening ingest")?;
    let expected_len = BASE + w.acked;
    if reopened.len() != expected_len {
        checks.fail(format!(
            "reopen recovered {} sequence(s), {expected_len} acknowledged",
            reopened.len()
        ));
    }
    let unfolded = w.acked % CHECKPOINT_EVERY as usize;
    if recovery.replayed != unfolded {
        checks.fail(format!(
            "reopen replayed {} append(s) from the WAL, {unfolded} were acknowledged after the last checkpoint",
            recovery.replayed
        ));
    }
    let snapshot = reopened.snapshot();
    for (k, values) in acked.iter().enumerate() {
        let got = snapshot
            .get((BASE + k) as u64)
            .ctx("reading a recovered append")?;
        if got.len() != values.len()
            || got
                .iter()
                .zip(values)
                .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            checks.fail(format!(
                "recovered append {k} differs from what was acknowledged"
            ));
        }
    }
    Ok(())
}

pub fn run(config: &Config, dir: &Path) -> Result<Report, String> {
    let base = generate_random_walks(
        &RandomWalkConfig::paper(BASE, LEN),
        mix(config.seed, STREAM_CORPUS, 0),
    );
    let ((ingest, files), setup) = repeated_setup(SETUP_REPS, |rep| {
        build(&dir.join(format!("setup-{rep}")), &base)
    })?;
    for rep in 0..SETUP_REPS - 1 {
        std::fs::remove_dir_all(dir.join(format!("setup-{rep}"))).ok();
    }

    // Deterministic work counters of a fixed one-client probe on the base
    // corpus (which also warms the pool and the index before timing).
    let mut probe = QueryStats::default();
    let mut probe_matches = 0;
    for i in 0..PROBE_QUERIES {
        let q = generate_queries(&base, 1, mix(config.seed, STREAM_PROBE, i)).remove(0);
        let o = ingest
            .snapshot()
            .search(&q, EPSILON, &EngineOpts::new())
            .ctx("probe query")?;
        probe.merge(&o.query_stats);
        probe_matches += o.matches.len() as u64;
    }

    let tracer = Tracer::new();
    let untraced = measure(ingest, &files, &base, config, STREAM_UNTRACED, &tracer)?;
    let mut checks = Checks::default();
    check(&untraced, &files, &base, config, &mut checks)?;

    let wal_fp = match untraced.writer.first_interval_wal_bytes {
        Some(b) => format!(" wal_bytes_first_{CHECKPOINT_EVERY}_appends={b}"),
        None => " wal_bytes_first_interval=n/a".to_string(),
    };
    let (changed, mut notes) = work_counters(
        config,
        &format!("{PROBE_QUERIES} probe queries"),
        &probe,
        probe_matches,
        &wal_fp,
    )?;

    let layers = if config.trace {
        // The traced phase starts from a fresh build, as the untraced one did.
        let (ingest, files) = build(&dir.join("traced"), &base)?;
        tracer.set_enabled(true);
        let t = measure(ingest, &files, &base, config, STREAM_TRACED, &tracer)?;
        tracer.set_enabled(false);
        check(&t, &files, &base, config, &mut checks)?;
        let (w, r) = (&t.writer, &t.reader);
        let mut layers = Layers::default();
        let queries = r.latencies.len() as u64;
        let mean_visible = r.visible / queries.max(1);
        layers.set_query_stats(&r.stats, queries, mean_visible, r.matches);
        let appends = Samples::new(w.appends.clone());
        let checkpoints = Samples::new(w.checkpoints.clone());
        layers.set("ingest.append_us", appends.median() * 1e3);
        layers.set("ingest.checkpoint_ms", checkpoints.median());
        layers.set(
            "ingest.checkpoint_share",
            checkpoints.sum() / (appends.sum() + checkpoints.sum()),
        );
        let folded = checkpoints.len() * CHECKPOINT_EVERY as usize;
        if folded > 0 {
            layers.set(
                "storage.wal.bytes_per_user_byte",
                w.wal_bytes as f64 / user_bytes(folded, LEN),
            );
        }
        layers.set(
            "ingest.snapshot_search_ms",
            Samples::new(r.latencies.clone()).median(),
        );
        // Direct calls into the storage layer on the recovered store.
        let (store, _) = open_sequence_file_shared(&files.db, DEFAULT_PAGE_SIZE, 256)
            .ctx("opening the recovered store")?;
        let scan_us = median_us(0..3, |_| {
            store
                .scan_visit(|_, v| drop(std::hint::black_box(v)))
                .ctx("scan pass")
        })?;
        layers.set("storage.scan_ms", scan_us / 1e3);
        let get_us = median_us(sample_indices(config.seed, store.len(), 2000), |id| {
            std::hint::black_box(store.get(id as u64).ctx("sampled get")?);
            Ok(())
        })?;
        layers.set("storage.get_us", get_us);
        let sampled = r
            .sampled
            .iter()
            .map(|(q, _, answer)| (q.as_slice(), answer.iter().map(|m| m.id).collect()));
        notes.push(kernel_split(
            &mut layers,
            &base,
            sampled,
            config.seed,
            EPSILON,
        ));
        finish_trace(
            &mut layers,
            &mut notes,
            config,
            &tracer.take(),
            &r.latencies,
            &untraced.reader.latencies,
            changed,
        )?;
        Some(layers)
    } else {
        None
    };

    let (w, r) = (&untraced.writer, &untraced.reader);
    let e2e = EndToEnd {
        range: Samples::new(r.latencies.clone()),
        knn: None,
        appends: Some((Samples::new(w.appends.clone()), w.elapsed.as_secs_f64())),
        elapsed_s: r.elapsed.as_secs_f64(),
        queries: r.latencies.len() as u64,
        setup: Samples::new(setup),
        peak_rss_mb: untraced.peak_rss_mb,
        disk_bytes_per_user_byte: untraced.disk_bytes as f64 / user_bytes(BASE + w.acked, LEN),
    };
    Ok(Report {
        workload: config.workload.clone(),
        e2e,
        checks,
        layers,
        notes,
    })
}
