//! `flat-scan`: one client runs `NaiveScan` with default `EngineOpts` (the
//! CLI's no-index `query` path) over a file-backed store whose buffer pool
//! holds the whole store. Almost every DTW abandons early, so the distance
//! kernel's abandon path and the store's scan/decode do nearly all the work.

use std::path::Path;
use std::time::{Duration, Instant};

use tw_core::{EngineOpts, Match, NaiveScan, QueryStats, SearchEngine, Termination, TwSimSearch};
use tw_storage::{create_sequence_file, open_sequence_file, DynSequenceStore};
use tw_workload::{generate_queries, generate_random_walks, RandomWalkConfig};

use crate::layers::{finish_trace, kernel_split, median_us, work_counters, Layers};
use crate::report::{Checks, EndToEnd, Report};
use crate::trace::Tracer;
use crate::util::{
    disk_bytes, mix, ms, peak_rss_mb, repeated_setup, same_answer, sample_indices, user_bytes,
    values_key, Ctx, Samples,
};
use crate::Config;

const COUNT: usize = 10_000;
const LEN: usize = 128;
const EPSILON: f64 = 0.2;
const PAGE_SIZE: usize = 1024;
const SETUP_REPS: usize = 5;
const PROBE_QUERIES: u64 = 16;
/// One answer in this many is checked against TW-Sim-Search.
const CHECK_EVERY: u64 = 4;

const STREAM_CORPUS: u64 = 1;
const STREAM_UNTRACED: u64 = 2;
const STREAM_TRACED: u64 = 3;
const STREAM_PROBE: u64 = 4;
const STREAM_SAMPLE: u64 = 5;

/// What one measured loop saw.
#[derive(Default)]
struct Phase {
    latencies: Vec<f64>,
    stats: QueryStats,
    matches: u64,
    queries: u64,
    elapsed: Duration,
    /// `(query, answer)` pairs drawn for the correctness check.
    sampled: Vec<(Vec<f64>, Vec<Match>)>,
    /// Outcomes that were partial or whose ledger did not balance.
    bad: Vec<String>,
    pool_hits: u64,
    pool_misses: u64,
}

fn query(corpus: &[Vec<f64>], seed: u64, stream: u64, i: u64) -> Vec<f64> {
    generate_queries(corpus, 1, mix(seed, stream, i)).remove(0)
}

fn measure(
    store: &DynSequenceStore,
    corpus: &[Vec<f64>],
    config: &Config,
    stream: u64,
    tracer: &Tracer,
) -> Result<Phase, String> {
    let opts = EngineOpts::default();
    let mut phase = Phase::default();
    store.reset_buffer_stats();
    let mut error = None;
    phase.elapsed = crate::util::closed_loop(config.seconds, |i| {
        let q = query(corpus, config.seed, stream, i);
        let start = Instant::now();
        let outcome = NaiveScan.range_search(store, &q, EPSILON, &opts);
        let end = Instant::now();
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                error = Some(format!("range query {i}: {e}"));
                return false;
            }
        };
        phase.latencies.push(ms(end - start));
        if tracer.enabled() {
            let key = values_key(&q);
            tracer.record(key, "search.range", "", start, end);
            tracer.record_phases(key, "search.range", start, &outcome.query_stats.phases);
        }
        phase.queries += 1;
        phase.matches += outcome.matches.len() as u64;
        phase.stats.merge(&outcome.query_stats);
        if !outcome.query_stats.accounting_balanced() {
            phase
                .bad
                .push(format!("query {i}: QueryStats ledger does not balance"));
        } else if outcome.termination != Termination::Complete {
            phase.bad.push(format!(
                "query {i}: partial result {:?}",
                outcome.termination
            ));
        }
        if mix(config.seed ^ stream, STREAM_SAMPLE, i).is_multiple_of(CHECK_EVERY) {
            phase.sampled.push((q, outcome.matches));
        }
        true
    });
    if let Some(e) = error {
        return Err(e);
    }
    if phase.queries == 0 {
        return Err("no query completed within the measured time".into());
    }
    let pool = store.buffer_stats();
    phase.pool_hits = pool.hits;
    phase.pool_misses = pool.misses;
    Ok(phase)
}

fn check(
    phase: &Phase,
    store: &DynSequenceStore,
    reference: &TwSimSearch,
    checks: &mut Checks,
) -> Result<(), String> {
    checks.attempted += phase.queries;
    for bad in &phase.bad {
        checks.fail(bad.clone());
    }
    let opts = EngineOpts::default();
    for (q, answer) in &phase.sampled {
        let expected = reference
            .range_search(store, q, EPSILON, &opts)
            .ctx("reference TW-Sim-Search query")?;
        if !same_answer(answer, &expected.matches) {
            checks.fail(format!(
                "naive-scan answer ({} match(es)) differs from TW-Sim-Search ({} match(es))",
                answer.len(),
                expected.matches.len()
            ));
        }
    }
    Ok(())
}

pub fn run(config: &Config, dir: &Path) -> Result<Report, String> {
    let corpus = generate_random_walks(
        &RandomWalkConfig::paper(COUNT, LEN),
        mix(config.seed, STREAM_CORPUS, 0),
    );
    // Set-up: write the store, then reopen it with a pool larger than the
    // store so the data fits in the program's cache.
    let ((store, path), setup) = repeated_setup(SETUP_REPS, |rep| {
        let path = dir.join(format!("flat-{rep}.tws"));
        std::fs::remove_file(&path).ok();
        let mut store = create_sequence_file(&path, PAGE_SIZE, 256).ctx("creating store")?;
        for s in &corpus {
            store.append(s).ctx("appending")?;
        }
        store.flush().ctx("flushing store")?;
        drop(store);
        let pages = disk_bytes(&path)? / PAGE_SIZE as u64;
        let pool = usize::try_from(pages).ctx("page count")? + 64;
        let (store, recovery) =
            open_sequence_file(&path, PAGE_SIZE, pool).ctx("reopening store")?;
        if !recovery.is_clean() {
            return Err(format!("freshly written store needed recovery: {recovery}"));
        }
        Ok((store, path))
    })?;
    for rep in 0..SETUP_REPS - 1 {
        std::fs::remove_file(dir.join(format!("flat-{rep}.tws"))).ok();
    }
    // Fill the pool before timing.
    store.scan_visit(|_, _| ()).ctx("warming scan")?;
    let reference = TwSimSearch::build(&store).ctx("building reference index")?;

    let tracer = Tracer::new();
    let untraced = measure(&store, &corpus, config, STREAM_UNTRACED, &tracer)?;
    let peak_rss_mb = peak_rss_mb()?;
    let traced = if config.trace {
        tracer.set_enabled(true);
        let t = measure(&store, &corpus, config, STREAM_TRACED, &tracer)?;
        tracer.set_enabled(false);
        Some(t)
    } else {
        None
    };

    let mut checks = Checks::default();
    check(&untraced, &store, &reference, &mut checks)?;
    if let Some(t) = &traced {
        check(t, &store, &reference, &mut checks)?;
    }

    // Deterministic work counters of a fixed one-client probe.
    let mut probe = QueryStats::default();
    let mut probe_matches = 0;
    for i in 0..PROBE_QUERIES {
        let q = query(&corpus, config.seed, STREAM_PROBE, i);
        let o = NaiveScan
            .range_search(&store, &q, EPSILON, &EngineOpts::default())
            .ctx("probe query")?;
        probe.merge(&o.query_stats);
        probe_matches += o.matches.len() as u64;
    }
    let (changed, mut notes) = work_counters(
        config,
        &format!("{PROBE_QUERIES} probe queries"),
        &probe,
        probe_matches,
        "",
    )?;

    let layers = match &traced {
        Some(t) => {
            let mut layers = Layers::default();
            layers.set_query_stats(&t.stats, t.queries, COUNT as u64, t.matches);
            layers.set_pool(t.pool_hits, t.pool_misses, t.queries);
            // Direct calls into the storage layer.
            let scan_us = median_us(0..5, |_| {
                store
                    .scan_visit(|_, v| drop(std::hint::black_box(v)))
                    .ctx("scan pass")
            })?;
            layers.set("storage.scan_ms", scan_us / 1e3);
            let get_us = median_us(sample_indices(config.seed, COUNT, 2000), |id| {
                std::hint::black_box(store.get(id as u64).ctx("sampled get")?);
                Ok(())
            })?;
            layers.set("storage.get_us", get_us);
            let sampled = t
                .sampled
                .iter()
                .map(|(q, answer)| (q.as_slice(), answer.iter().map(|m| m.id).collect()));
            notes.push(kernel_split(
                &mut layers,
                &corpus,
                sampled,
                config.seed,
                EPSILON,
            ));
            finish_trace(
                &mut layers,
                &mut notes,
                config,
                &tracer.take(),
                &t.latencies,
                &untraced.latencies,
                changed,
            )?;
            Some(layers)
        }
        None => None,
    };

    let e2e = EndToEnd {
        range: Samples::new(untraced.latencies),
        knn: None,
        appends: None,
        elapsed_s: untraced.elapsed.as_secs_f64(),
        queries: untraced.queries,
        setup: Samples::new(setup),
        peak_rss_mb,
        disk_bytes_per_user_byte: disk_bytes(&path)? as f64 / user_bytes(COUNT, LEN),
    };
    Ok(Report {
        workload: config.workload.clone(),
        e2e,
        checks,
        layers,
        notes,
    })
}
