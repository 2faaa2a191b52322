//! Per-layer metrics: the canonical list, and helpers that derive them
//! from the counters the measured calls return and from direct calls into
//! single layers.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use tw_core::{dtw_within, DtwKind, QueryStats};

use crate::trace::{write_jsonl, Span};
use crate::util::{mix, sample_indices, us, Ctx, Samples};
use crate::Config;

/// Every per-layer metric with its unit, in report order. A workload that
/// does not exercise a layer reports its metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.request_ms", "ms"),
    ("net.service_ms", "ms"),
    ("net.overhead_ms", "ms"),
    ("net.service_share", "ratio"),
    ("net.frames_shed", "count"),
    ("net.error_replies", "count"),
    ("net.bad_frames", "count"),
    ("sharded.fanout_ms", "ms"),
    ("sharded.straggler_ratio", "ratio"),
    ("trace.unattributed_ms", "ms"),
    ("search.filter_ms", "ms"),
    ("search.fetch_ms", "ms"),
    ("search.verify_ms", "ms"),
    ("search.candidates_per_query", "count/query"),
    ("search.candidate_ratio", "ratio"),
    ("search.matches_per_candidate", "ratio"),
    ("rtree.node_accesses_per_query", "count/query"),
    ("rtree.leaf_accesses_per_query", "count/query"),
    ("bound.pruned_lb_kim", "count/query"),
    ("bound.pruned_lb_yi", "count/query"),
    ("bound.pruned_lb_keogh", "count/query"),
    ("bound.pruned_lb_improved", "count/query"),
    ("bound.prune_ratio", "ratio"),
    ("distance.dtw_cells_per_query", "count/query"),
    ("distance.abandon_ratio", "ratio"),
    ("distance.abandon_call_us", "us"),
    ("distance.complete_call_us", "us"),
    ("distance.abandon_call_cells", "count"),
    ("distance.complete_call_cells", "count"),
    ("storage.pager_reads_per_query", "count/query"),
    ("storage.pager_reads_mismatch_ratio", "ratio"),
    ("storage.pool_hit_ratio", "ratio"),
    ("storage.pool_misses_per_query", "count/query"),
    ("storage.scan_ms", "ms"),
    ("storage.get_us", "us"),
    ("ingest.append_us", "us"),
    ("ingest.checkpoint_ms", "ms"),
    ("ingest.checkpoint_share", "ratio"),
    ("storage.wal.bytes_per_user_byte", "ratio"),
    ("ingest.snapshot_search_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("work.fingerprint_changed", "count"),
];

/// Per-layer values of one traced run.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "per-layer metric {name} is not in PER_LAYER"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `(name, value, unit)` for every metric of [`PER_LAYER`].
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        PER_LAYER
            .iter()
            .map(|(name, unit)| (*name, self.get(name), *unit))
    }

    /// The search, R-tree, bound, distance and pager-read metrics from the
    /// merged [`QueryStats`] of `queries` range queries over a corpus of
    /// `db_size` sequences that returned `matches` answers in total.
    pub fn set_query_stats(
        &mut self,
        stats: &QueryStats,
        queries: u64,
        db_size: u64,
        matches: u64,
    ) {
        let q = queries as f64;
        let per_q = |v: u64| ratio(v as f64, q);
        self.set(
            "search.filter_ms",
            ratio(stats.phases.filter.as_secs_f64() * 1e3, q),
        );
        self.set(
            "search.fetch_ms",
            ratio(stats.phases.fetch.as_secs_f64() * 1e3, q),
        );
        self.set(
            "search.verify_ms",
            ratio(stats.phases.verify.as_secs_f64() * 1e3, q),
        );
        self.set("search.candidates_per_query", per_q(stats.candidates));
        self.set(
            "search.candidate_ratio",
            ratio(stats.candidates as f64, q * db_size as f64),
        );
        self.set(
            "search.matches_per_candidate",
            ratio(matches as f64, stats.candidates as f64),
        );
        self.set(
            "rtree.node_accesses_per_query",
            per_q(stats.index_node_accesses()),
        );
        self.set(
            "rtree.leaf_accesses_per_query",
            per_q(stats.index_leaf_accesses),
        );
        self.set("bound.pruned_lb_kim", per_q(stats.pruned_lb_kim));
        self.set("bound.pruned_lb_yi", per_q(stats.pruned_lb_yi));
        self.set("bound.pruned_lb_keogh", per_q(stats.pruned_lb_keogh));
        self.set("bound.pruned_lb_improved", per_q(stats.pruned_lb_improved));
        self.set(
            "bound.prune_ratio",
            ratio(stats.pruned_total() as f64, stats.candidates as f64),
        );
        self.set("distance.dtw_cells_per_query", per_q(stats.dtw_cells));
        self.set(
            "distance.abandon_ratio",
            ratio(
                stats.abandoned as f64,
                (stats.verified + stats.abandoned) as f64,
            ),
        );
        self.set("storage.pager_reads_per_query", per_q(stats.pager_reads));
    }

    /// Buffer-pool hits and misses accumulated over `queries` queries.
    pub fn set_pool(&mut self, hits: u64, misses: u64, queries: u64) {
        self.set(
            "storage.pool_hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
        );
        self.set(
            "storage.pool_misses_per_query",
            ratio(misses as f64, queries as f64),
        );
    }
}

/// The distance-kernel split measured from outside: direct `dtw_within`
/// calls on `(sequence, query)` pairs from the workload's corpus. Each of
/// up to 8 sampled queries (with the ids it matched) is paired with 64
/// random corpus sequences, which abandon, and with its own matches, which
/// complete. Each pair is timed in a batch of 16 calls; abandoning and
/// completing pairs are reported apart. The cell counts are the ledgered
/// `DtwOutcome::cells`: the kernel replays per-column counts, so they are
/// not necessarily the cells it evaluated. Returns a note with the counts.
pub fn kernel_split<'a>(
    layers: &mut Layers,
    corpus: &[Vec<f64>],
    sampled: impl IntoIterator<Item = (&'a [f64], Vec<u64>)>,
    seed: u64,
    epsilon: f64,
) -> String {
    const REPS: u32 = 16;
    let mut pairs: Vec<(&[f64], &[f64])> = Vec::new();
    for (k, (q, matched)) in sampled.into_iter().take(8).enumerate() {
        for idx in sample_indices(mix(seed, 7, k as u64), corpus.len(), 64) {
            pairs.push((&corpus[idx], q));
        }
        for id in matched {
            if let Some(s) = usize::try_from(id).ok().and_then(|i| corpus.get(i)) {
                pairs.push((s, q));
            }
        }
    }
    let mut abandon = (Vec::new(), Vec::new());
    let mut complete = (Vec::new(), Vec::new());
    for (s, q) in pairs {
        let outcome = dtw_within(s, q, DtwKind::MaxAbs, epsilon);
        let start = Instant::now();
        for _ in 0..REPS {
            black_box(dtw_within(
                black_box(s),
                black_box(q),
                DtwKind::MaxAbs,
                epsilon,
            ));
        }
        let per_call = us(start.elapsed()) / f64::from(REPS);
        let class = if outcome.early_abandoned {
            &mut abandon
        } else {
            &mut complete
        };
        class.0.push(per_call);
        class.1.push(outcome.cells as f64);
    }
    let n_abandon = abandon.0.len();
    let n_complete = complete.0.len();
    layers.set("distance.abandon_call_us", Samples::new(abandon.0).median());
    layers.set(
        "distance.abandon_call_cells",
        Samples::new(abandon.1).median(),
    );
    layers.set(
        "distance.complete_call_us",
        Samples::new(complete.0).median(),
    );
    layers.set(
        "distance.complete_call_cells",
        Samples::new(complete.1).median(),
    );
    format!(
        "kernel split: {n_abandon} abandoning pair(s), {n_complete} completing pair(s), \
         median of {REPS}-call batches (dtw_cells as ledgered: the kernel replays per-column counts)"
    )
}

/// Median wall time of `op` over `inputs`, in µs.
pub fn median_us<I>(
    inputs: impl IntoIterator<Item = I>,
    mut op: impl FnMut(I) -> Result<(), String>,
) -> Result<f64, String> {
    let mut times = Vec::new();
    for input in inputs {
        let start = Instant::now();
        op(input)?;
        times.push(us(start.elapsed()));
    }
    Ok(Samples::new(times).median())
}

/// The deterministic work counters of a fixed one-client probe: `stats`
/// merged over its queries, `matches` answers, plus any `extra` counters.
/// Compares them with the first run of this workload and seed in this
/// checkout (whose counters are kept under `.twbench/fingerprints/`) and
/// returns whether they changed, with the report lines.
pub fn work_counters(
    config: &Config,
    probe: &str,
    stats: &QueryStats,
    matches: u64,
    extra: &str,
) -> Result<(bool, Vec<String>), String> {
    let fingerprint = format!(
        "candidates={} verified={} abandoned={} dtw_cells={} pruned_kim={} pruned_yi={} \
         pruned_keogh={} pruned_improved={} index_internal={} index_leaf={} pager_reads={} \
         matches={matches}{extra}",
        stats.candidates,
        stats.verified,
        stats.abandoned,
        stats.dtw_cells,
        stats.pruned_lb_kim,
        stats.pruned_lb_yi,
        stats.pruned_lb_keogh,
        stats.pruned_lb_improved,
        stats.index_internal_accesses,
        stats.index_leaf_accesses,
        stats.pager_reads,
    );
    let dir = config.out_dir.join("fingerprints");
    std::fs::create_dir_all(&dir).ctx(&format!("creating {}", dir.display()))?;
    let path = dir.join(format!("{}-{}.txt", config.workload, config.seed));
    let changed = match std::fs::read_to_string(&path) {
        Ok(previous) => previous.trim() != fingerprint,
        Err(_) => {
            std::fs::write(&path, &fingerprint).ctx(&format!("writing {}", path.display()))?;
            false
        }
    };
    let mut lines = vec![format!("work counters ({probe}): {fingerprint}")];
    if changed {
        lines.push("FLAG: work counters differ from an earlier run with this seed".into());
    }
    Ok((changed, lines))
}

/// The bookkeeping every traced run ends with: the tracing overhead (the
/// traced range p50 minus the untraced one, both in ms), the work-counter
/// flag, and the span file.
pub fn finish_trace(
    layers: &mut Layers,
    notes: &mut Vec<String>,
    config: &Config,
    spans: &[Span],
    traced_ms: &[f64],
    untraced_ms: &[f64],
    counters_changed: bool,
) -> Result<(), String> {
    let overhead =
        Samples::new(traced_ms.to_vec()).median() - Samples::new(untraced_ms.to_vec()).median();
    layers.set("trace.overhead_ms", overhead);
    layers.set(
        "work.fingerprint_changed",
        f64::from(u8::from(counters_changed)),
    );
    notes.push(format!(
        "tracing overhead: traced range_p50 minus untraced range_p50 = {overhead:.4} ms"
    ));
    let file = config
        .out_dir
        .join(format!("trace-{}-{}.jsonl", config.workload, config.seed));
    write_jsonl(spans, &file)?;
    notes.push(format!(
        "{} span(s) written to {}",
        spans.len(),
        file.display()
    ));
    Ok(())
}
