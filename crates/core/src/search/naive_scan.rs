//! Naive-Scan (§3.1): sequentially read every data sequence and verify it
//! with the exact time-warping distance.
//!
//! The only optimization applied is early abandoning, which is available to
//! every method's verification step alike; under the L∞ recurrence it fires
//! as soon as any whole DP column exceeds the tolerance (§4.1).

use tw_storage::{Pager, SequenceStore};

use crate::error::{validate_query, TwError};
use crate::govern::termination_of;
use crate::search::verify::VerifyJob;
use crate::search::{EngineHealth, EngineOpts, SearchEngine, SearchOutcome, SearchStats};
use crate::stats::{wall_now, Phase, PipelineCounters};

/// The sequential-scan baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveScan;

impl<P: Pager> SearchEngine<P> for NaiveScan {
    fn name(&self) -> &str {
        "naive-scan"
    }

    fn range_search(
        &self,
        store: &SequenceStore<P>,
        query: &[f64],
        epsilon: f64,
        opts: &EngineOpts,
    ) -> Result<SearchOutcome, TwError> {
        validate_query(query, epsilon)?;
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
        // No filtering step: every stored sequence goes to verification,
        // batch by batch as the scan decodes it.
        let cascade = opts.arm_cascade(query);
        let (matches, verify_stats) =
            VerifyJob::new(query, epsilon, opts.kind, opts.verify, opts.threads)
                .with_cascade(cascade.as_deref())
                .run_scan(store, Phase::Fetch, |_| true, &counters, &token)?;
        stats.io = store.take_io();
        counters.add_pager_reads(stats.io.total_pages());
        stats.accumulate(&verify_stats);
        // Naive-Scan has no filtering step: the paper plots its final result
        // count as its candidate count (Experiment 1).
        stats.candidates = matches.len();
        stats.cpu_time = started.elapsed();
        counters.add_checksum_retries(store.checksum_retries() - retries_before);
        Ok(SearchOutcome {
            matches,
            stats,
            plan: None,
            health: EngineHealth::Healthy,
            query_stats: counters.snapshot(),
            termination: termination_of(&token),
        })
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // Tests assert exact float round-trips and identities on purpose.
mod tests {
    use super::*;
    use crate::distance::{dtw, DtwKind};
    use crate::search::{run_search, SearchResult};
    use tw_storage::SequenceStore;

    fn store_with(data: &[Vec<f64>]) -> SequenceStore<tw_storage::MemPager> {
        let mut store = SequenceStore::in_memory();
        for s in data {
            store.append(s).unwrap();
        }
        store
    }

    fn db() -> Vec<Vec<f64>> {
        vec![
            vec![20.0, 21.0, 21.0, 20.0, 23.0],
            vec![20.0, 20.0, 21.0, 20.0, 23.0, 23.0],
            vec![5.0, 6.0, 7.0],
            vec![19.5, 21.5, 20.5, 23.5],
        ]
    }

    #[test]
    fn finds_exact_matches() {
        let store = store_with(&db());
        let query = vec![20.0, 21.0, 20.0, 23.0];
        let res = run_search(&NaiveScan, &store, &query, 0.0, DtwKind::MaxAbs).unwrap();
        // Sequences 0 and 1 warp exactly onto the query.
        assert_eq!(res.ids(), vec![0, 1]);
        for m in &res.matches {
            assert_eq!(m.distance, 0.0);
        }
    }

    #[test]
    fn tolerance_widens_result() {
        let store = store_with(&db());
        let query = vec![20.0, 21.0, 20.0, 23.0];
        let tight = run_search(&NaiveScan, &store, &query, 0.0, DtwKind::MaxAbs).unwrap();
        let loose = run_search(&NaiveScan, &store, &query, 0.6, DtwKind::MaxAbs).unwrap();
        assert!(loose.matches.len() > tight.matches.len());
        assert!(loose.ids().contains(&3));
        assert!(!loose.ids().contains(&2));
    }

    #[test]
    fn distances_match_exact_dtw() {
        let store = store_with(&db());
        let query = vec![20.5, 21.0, 22.9];
        let res = run_search(&NaiveScan, &store, &query, 2.0, DtwKind::MaxAbs).unwrap();
        for m in &res.matches {
            let expect = dtw(&db()[m.id as usize], &query, DtwKind::MaxAbs).distance;
            assert!((m.distance - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn stats_reflect_full_scan() {
        let store = store_with(&db());
        let res = run_search(&NaiveScan, &store, &[20.0, 21.0], 0.5, DtwKind::MaxAbs).unwrap();
        assert_eq!(res.stats.db_size, 4);
        assert_eq!(res.stats.dtw_invocations, 4);
        assert!(res.stats.io.sequential_pages_scanned > 0);
        assert_eq!(res.stats.io.random_page_reads, 0);
        assert_eq!(res.stats.index_node_accesses, 0);
        assert_eq!(res.stats.candidates, res.matches.len());
    }

    #[test]
    fn query_stats_account_every_row() {
        let store = store_with(&db());
        let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
        let res = NaiveScan
            .range_search(&store, &[20.0, 21.0], 0.5, &opts)
            .unwrap();
        let qs = res.query_stats;
        // Every stored row enters the pipeline; none are pruned.
        assert_eq!(qs.candidates, 4);
        assert_eq!(qs.pruned_total(), 0);
        assert!(qs.accounting_balanced());
        assert_eq!(qs.dtw_cells, res.stats.dtw_cells);
        assert!(qs.pager_reads > 0);
        assert_eq!(qs.checksum_retries, 0);
    }

    #[test]
    fn rejects_bad_tolerance() {
        let store = store_with(&db());
        assert!(run_search(&NaiveScan, &store, &[1.0], -1.0, DtwKind::MaxAbs).is_err());
        assert!(run_search(&NaiveScan, &store, &[1.0], f64::NAN, DtwKind::MaxAbs).is_err());
    }

    #[test]
    fn empty_database() {
        let store = SequenceStore::in_memory();
        let res = run_search(&NaiveScan, &store, &[1.0], 1.0, DtwKind::MaxAbs).unwrap();
        assert!(res.matches.is_empty());
        assert_eq!(res.stats.db_size, 0);
    }

    #[test]
    fn threaded_scan_empty_database() {
        let store = SequenceStore::in_memory();
        let res = scan_with_threads(&store, &[1.0], 1.0, 4);
        assert!(res.matches.is_empty());
    }

    fn scan_with_threads(
        store: &SequenceStore<tw_storage::MemPager>,
        query: &[f64],
        epsilon: f64,
        threads: usize,
    ) -> SearchResult {
        let opts = EngineOpts::new().kind(DtwKind::MaxAbs).threads(threads);
        NaiveScan
            .range_search(store, query, epsilon, &opts)
            .unwrap()
            .into_result()
    }

    fn striped_db(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let base = (i % 9) as f64;
                vec![base, base + 0.4, base + 0.9, base + 0.2]
            })
            .collect()
    }

    #[test]
    fn threaded_scan_agrees_with_sequential_scan() {
        let store = store_with(&striped_db(137));
        let query = vec![4.1, 4.5, 4.8];
        for threads in [2usize, 4, 7] {
            for eps in [0.2, 0.6, 3.0] {
                let seq = scan_with_threads(&store, &query, eps, 1);
                let par = scan_with_threads(&store, &query, eps, threads);
                assert_eq!(seq.ids(), par.ids(), "threads={threads} eps={eps}");
                assert_eq!(seq.stats.dtw_cells, par.stats.dtw_cells);
            }
        }
    }

    #[test]
    fn more_threads_than_rows() {
        let store = store_with(&striped_db(3));
        let res = scan_with_threads(&store, &[1.0, 1.4], 0.5, 16);
        assert_eq!(res.stats.dtw_invocations, 3);
    }

    /// A file-backed store of three full one-worker scan batches plus a
    /// partial one.
    /// Lengths run from 8 to 150 values (up to 1.2 KB per record against
    /// 1 KiB pages), so many records span a page boundary.
    fn streamed_store(dir: &std::path::Path) -> (tw_storage::DynSequenceStore, Vec<Vec<f64>>) {
        use crate::search::verify::SCAN_BATCH;
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join("stream.tws");
        let _ = std::fs::remove_file(&path);
        let mut store =
            tw_storage::create_sequence_file(&path, tw_storage::DEFAULT_PAGE_SIZE, 8).unwrap();
        let mut state = 0x2545_f491_u64;
        let data: Vec<Vec<f64>> = (0..3 * SCAN_BATCH + 7)
            .map(|i| {
                let len = 8 + (i * 37) % 143;
                let mut v = (i % 5) as f64;
                (0..len)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        v += ((state >> 33) % 1000) as f64 / 1000.0 - 0.5;
                        v
                    })
                    .collect()
            })
            .collect();
        for s in &data {
            store.append(s).unwrap();
        }
        store.flush().unwrap();
        (store, data)
    }

    #[test]
    fn streamed_scan_matches_verifying_the_materialized_scan() {
        let dir = std::env::temp_dir().join(format!("tw-naive-stream-{}", std::process::id()));
        let (store, data) = streamed_store(&dir);
        let query: Vec<f64> = data[100].iter().map(|v| v + 0.05).collect();
        let eps = 1.5;
        for threads in [1usize, 2, 4] {
            let opts = EngineOpts::new().kind(DtwKind::MaxAbs).threads(threads);
            let got = NaiveScan.range_search(&store, &query, eps, &opts).unwrap();

            // The pre-streaming shape: materialize every row, then verify.
            let counters = PipelineCounters::new();
            store.take_io();
            let rows = store.scan().unwrap();
            counters.add_candidates(rows.len() as u64);
            counters.add_pager_reads(store.take_io().total_pages());
            let (want, _) = VerifyJob::new(&query, eps, opts.kind, opts.verify, threads).run(
                &rows,
                &counters,
                &crate::govern::CancelToken::unlimited(),
            );

            assert!(want.len() > 1, "threads={threads}: {want:?}");
            assert_eq!(got.ids(), want.iter().map(|m| m.id).collect::<Vec<_>>());
            for (g, w) in got.matches.iter().zip(&want) {
                assert_eq!(g.distance.to_bits(), w.distance.to_bits(), "id {}", g.id);
            }
            let qs = got.query_stats;
            assert!(
                qs.counters_eq(&counters.snapshot()),
                "threads={threads}: {qs:?} vs {:?}",
                counters.snapshot()
            );
            assert_eq!(qs.candidates, data.len() as u64);
            assert!(qs.phases.fetch > std::time::Duration::ZERO, "{qs:?}");
            assert!(qs.phases.verify > std::time::Duration::ZERO, "{qs:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn candidate_byte_budget_cuts_the_stream_into_an_exact_subset() {
        use crate::govern::{BudgetKind, QueryBudget, Termination};
        let dir = std::env::temp_dir().join(format!("tw-naive-budget-{}", std::process::id()));
        let (store, data) = streamed_store(&dir);
        let query: Vec<f64> = data[3].iter().map(|v| v - 0.05).collect();
        let eps = 1.5;
        let opts = EngineOpts::new().kind(DtwKind::MaxAbs).threads(1);
        let full = NaiveScan.range_search(&store, &query, eps, &opts).unwrap();
        // Room for about one and a half one-worker batches of records.
        let bytes: usize = data[..400].iter().map(|s| 8 * s.len()).sum();
        let budget = QueryBudget::new().max_candidate_bytes(bytes as u64);
        let out = NaiveScan
            .range_search(&store, &query, eps, &opts.clone().budget(budget))
            .unwrap();
        assert_eq!(
            out.termination,
            Termination::BudgetExhausted {
                which: BudgetKind::CandidateBytes
            }
        );
        for m in &out.matches {
            assert!(
                full.matches
                    .iter()
                    .any(|f| f.id == m.id && f.distance.to_bits() == m.distance.to_bits()),
                "{m:?} is not in the unbudgeted answer"
            );
        }
        let qs = out.query_stats;
        assert!(qs.accounting_balanced(), "{qs:?}");
        assert_eq!(qs.candidates, data.len() as u64);
        // The batch verified before the trip got verdicts; the rest did not.
        assert!(qs.verified + qs.abandoned > 0, "{qs:?}");
        assert!(qs.skipped_unverified > 0, "{qs:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn works_under_additive_kinds() {
        let store = store_with(&db());
        let query = vec![20.0, 21.0, 20.0, 23.0];
        for kind in [DtwKind::SumAbs, DtwKind::SumSquared] {
            let res = run_search(&NaiveScan, &store, &query, 0.0, kind).unwrap();
            assert_eq!(res.ids(), vec![0, 1], "{kind:?}");
        }
    }
}
