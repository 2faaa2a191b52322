//! k-nearest-neighbour search under the time-warping distance (extension).
//!
//! The paper's engine answers range queries; kNN is the other query the
//! index enables. The classic optimal algorithm (Seidl & Kriegel) applies
//! because `D_tw-lb` lower-bounds `D_tw`: fetch candidates from the R-tree in
//! ascending **lower-bound** order, verify each with the exact distance, and
//! stop once the next candidate's lower bound already exceeds the current
//! k-th best exact distance — no further candidate can improve the result.

use tw_rtree::KnnMetric;
use tw_storage::{Pager, SeqId, SequenceStore};

use crate::distance::{dtw, DtwKind};
use crate::error::{validate_elements, TwError};
use crate::feature::FeatureVector;
use crate::govern::{termination_of, Termination};
use crate::search::{EngineOpts, SearchStats, TwSimSearch};
use crate::stats::{wall_now, PipelineCounters, QueryStats};

/// One kNN answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnnMatch {
    pub id: SeqId,
    pub distance: f64,
}

/// Everything one kNN query produced: neighbours plus the same observability
/// and governance surface the range engines report.
#[derive(Debug, Clone, Default)]
pub struct KnnOutcome {
    /// The `k` nearest neighbours found, ascending by distance. Under a
    /// tripped budget this may be fewer — or farther — than the true
    /// neighbours, but every reported distance is exact.
    pub matches: Vec<KnnMatch>,
    /// The legacy work accounting.
    pub stats: SearchStats,
    /// Per-phase observability breakdown; sequences fetched for exact
    /// verification are the "candidates".
    pub query_stats: QueryStats,
    /// Whether the query completed or was cut short by its budget.
    pub termination: Termination,
}

impl TwSimSearch {
    /// Finds the `k` sequences with the smallest time-warping distance to
    /// `query`. Ties beyond position `k` are cut arbitrarily (by candidate
    /// order), matching usual kNN semantics.
    pub fn knn<P: Pager>(
        &self,
        store: &SequenceStore<P>,
        query: &[f64],
        k: usize,
        kind: DtwKind,
    ) -> Result<(Vec<KnnMatch>, SearchStats), TwError> {
        let outcome = self.knn_governed(store, query, k, &EngineOpts::new().kind(kind))?;
        Ok((outcome.matches, outcome.stats))
    }

    /// [`Self::knn`] with the full option set: honours `opts.budget`
    /// (stopping the Seidl–Kriegel refinement early with whatever exact
    /// neighbours it has) and reports the per-phase [`QueryStats`] breakdown.
    pub fn knn_governed<P: Pager>(
        &self,
        store: &SequenceStore<P>,
        query: &[f64],
        k: usize,
        opts: &EngineOpts,
    ) -> Result<KnnOutcome, TwError> {
        if query.is_empty() {
            return Err(TwError::EmptySequence);
        }
        validate_elements(query)?;
        let started = wall_now();
        let token = opts.arm_budget();
        let _governed = store.govern_scope(&token);
        store.take_io();
        let retries_before = store.checksum_retries();
        let counters = PipelineCounters::new();
        let mut stats = SearchStats {
            db_size: store.len(),
            ..Default::default()
        };
        if k == 0 || self.is_empty() {
            stats.cpu_time = started.elapsed();
            return Ok(KnnOutcome {
                matches: Vec::new(),
                stats,
                query_stats: counters.snapshot(),
                termination: Termination::Complete,
            });
        }
        let q_point = FeatureVector::from_values(query).as_point();

        // Fetch candidates in ascending lower-bound (Chebyshev) order. The
        // underlying kNN is batch-shaped, so double the fetch size until the
        // stopping condition holds or the database is exhausted. Exact
        // distances are cached so refetching never re-verifies a sequence.
        let mut verified: std::collections::HashMap<tw_storage::SeqId, f64> =
            std::collections::HashMap::new();
        let mut skipped: u64 = 0;
        let mut fetch = (2 * k).max(16).min(self.len());
        let mut best: Vec<KnnMatch> = Vec::new();
        'refine: loop {
            let batch = self.tree().knn(&q_point, fetch, KnnMetric::Chebyshev);
            stats.index_node_accesses += batch.stats.node_accesses();
            counters.add_index_internal(batch.stats.node_accesses());

            best.clear();
            let mut complete = false;
            for (pos, neighbor) in batch.neighbors.iter().enumerate() {
                let kth_best = if best.len() == k {
                    best.last().map_or(f64::INFINITY, |m| m.distance)
                } else {
                    f64::INFINITY
                };
                if best.len() == k && neighbor.distance > kth_best {
                    // Lower bound of every remaining candidate exceeds the
                    // worst kept distance: done.
                    complete = true;
                    break;
                }
                if token.cancelled() {
                    // The rest of this batch was proposed but never gets a
                    // verdict: ledger the unverified ones as skipped.
                    skipped = batch
                        .neighbors
                        .iter()
                        .skip(pos)
                        .filter(|n| !verified.contains_key(&n.id))
                        .count() as u64;
                    break 'refine;
                }
                let distance = match verified.get(&neighbor.id) {
                    Some(&d) => d,
                    None => {
                        let values = store.get(neighbor.id)?;
                        let _ = token.charge_candidate_bytes(
                            (std::mem::size_of::<f64>() * values.len()) as u64,
                        );
                        stats.dtw_invocations += 1;
                        let r = dtw(&values, query, opts.kind);
                        let _ = token.charge_cells(r.cells);
                        stats.dtw_cells += r.cells;
                        counters.add_dtw_cells(r.cells);
                        verified.insert(neighbor.id, r.distance);
                        r.distance
                    }
                };
                let m = KnnMatch {
                    id: neighbor.id,
                    distance,
                };
                let pos = best
                    .binary_search_by(|x| x.distance.total_cmp(&m.distance))
                    .unwrap_or_else(|p| p);
                best.insert(pos, m);
                if best.len() > k {
                    best.pop();
                }
            }
            stats.candidates = verified.len();
            if complete || fetch >= self.len() {
                break;
            }
            fetch = (fetch * 2).min(self.len());
        }
        stats.candidates = verified.len();
        // kNN verifies with the full (never-abandoning) distance: every
        // fetched candidate is either verified exactly or skipped.
        counters.add_candidates(verified.len() as u64 + skipped);
        counters.add_verified(verified.len() as u64);
        counters.add_skipped_unverified(skipped);
        stats.io = store.take_io();
        counters.add_pager_reads(stats.io.total_pages());
        counters.add_checksum_retries(store.checksum_retries() - retries_before);
        stats.cpu_time = started.elapsed();
        Ok(KnnOutcome {
            matches: best,
            stats,
            query_stats: counters.snapshot(),
            termination: termination_of(&token),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_storage::SequenceStore;

    fn store_with(data: &[Vec<f64>]) -> SequenceStore<tw_storage::MemPager> {
        let mut store = SequenceStore::in_memory();
        for s in data {
            store.append(s).unwrap();
        }
        store
    }

    fn brute_knn(data: &[Vec<f64>], query: &[f64], k: usize, kind: DtwKind) -> Vec<f64> {
        let mut d: Vec<f64> = data.iter().map(|s| dtw(s, query, kind).distance).collect();
        d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        d.truncate(k);
        d
    }

    fn db() -> Vec<Vec<f64>> {
        (0..60)
            .map(|i| {
                let base = (i % 12) as f64 * 2.0;
                vec![base, base + 0.3, base + 0.8, base + 0.1, base + 0.5]
            })
            .collect()
    }

    #[test]
    fn knn_distances_match_brute_force() {
        let data = db();
        let store = store_with(&data);
        let engine = TwSimSearch::build(&store).unwrap();
        let query = vec![6.1, 6.4, 6.9, 6.2];
        for k in [1usize, 3, 10] {
            for kind in [DtwKind::MaxAbs, DtwKind::SumAbs] {
                let (got, _) = engine.knn(&store, &query, k, kind).unwrap();
                let expect = brute_knn(&data, &query, k, kind);
                assert_eq!(got.len(), k, "{kind:?} k={k}");
                for (g, e) in got.iter().zip(&expect) {
                    assert!(
                        (g.distance - e).abs() < 1e-9,
                        "{kind:?} k={k}: {} vs {e}",
                        g.distance
                    );
                }
            }
        }
    }

    #[test]
    fn knn_results_sorted() {
        let store = store_with(&db());
        let engine = TwSimSearch::build(&store).unwrap();
        let (got, _) = engine
            .knn(&store, &[3.0, 3.3, 3.8, 3.1], 8, DtwKind::MaxAbs)
            .unwrap();
        for w in got.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn knn_k_larger_than_db() {
        let data = db();
        let store = store_with(&data);
        let engine = TwSimSearch::build(&store).unwrap();
        let (got, _) = engine
            .knn(&store, &[1.0, 2.0], data.len() + 50, DtwKind::MaxAbs)
            .unwrap();
        assert_eq!(got.len(), data.len());
    }

    #[test]
    fn knn_zero_k_and_empty_db() {
        let store = store_with(&db());
        let engine = TwSimSearch::build(&store).unwrap();
        let (got, _) = engine.knn(&store, &[1.0], 0, DtwKind::MaxAbs).unwrap();
        assert!(got.is_empty());

        let empty = SequenceStore::in_memory();
        let engine2 = TwSimSearch::build(&empty).unwrap();
        let (got2, _) = engine2.knn(&empty, &[1.0], 3, DtwKind::MaxAbs).unwrap();
        assert!(got2.is_empty());
    }

    #[test]
    fn knn_verifies_fewer_than_db_when_selective() {
        let store = store_with(&db());
        let engine = TwSimSearch::build(&store).unwrap();
        let (_, stats) = engine
            .knn(&store, &[6.1, 6.4, 6.9, 6.2], 2, DtwKind::MaxAbs)
            .unwrap();
        assert!(
            stats.dtw_invocations < store.len() as u64,
            "verified {} of {}",
            stats.dtw_invocations,
            store.len()
        );
    }
}
