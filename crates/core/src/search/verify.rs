//! The shared candidate-verification pipeline.
//!
//! Every exact engine is a *filter* followed by the same final step: compute
//! the true time-warping distance of each surviving candidate and keep those
//! within tolerance. This module centralizes that step so all engines share
//! one implementation of lower-bound cascading, early abandoning, banded
//! verification, and multi-threaded fan-out — the paper's methods differ
//! only in their filters.
//!
//! When a [`BoundCascade`] is attached (via [`VerifyJob::with_cascade`]),
//! each candidate is first run through the tiered lower bounds; candidates a
//! tier prunes are counted per tier ([`crate::stats::QueryStats`]) and never
//! reach the DP. The cascade may also override the verify mode (when its
//! spec carries a band ratio) and the early-abandon switch.
//!
//! Determinism: candidates are verified independently (pruning and early
//! abandoning are per-candidate, so `dtw_cells` does not depend on thread
//! count or order) and the merged match list is sorted by sequence id, so
//! the outcome is identical for every thread count.

use tw_storage::{Pager, SeqId, SequenceStore, StoreError};

use crate::bound::{BoundCascade, BoundTier, CascadeDecision};
use crate::distance::{dtw_decide, DtwKind};
use crate::govern::CancelToken;
use crate::search::{Match, SearchStats, VerifyMode};
use crate::stats::{wall_now, Phase, PipelineCounters};

/// Records per verify worker in one batch of a streaming scan
/// ([`VerifyJob::run_scan`]): enough to amortize spawning the batch's
/// workers, few enough that a batch is still in cache when it is verified
/// (256 records of 128 values are 256 KiB). Each batch spawns its workers
/// anew, so the batch grows with the worker count to keep every worker's
/// share worth its spawn.
pub(super) const SCAN_BATCH: usize = 256;

/// One verification request: the query-side parameters every chunk worker
/// needs, plus the optional per-query [`BoundCascade`].
///
/// Engines build the job from their [`crate::search::EngineOpts`] and call
/// [`VerifyJob::run`].
pub struct VerifyJob<'a> {
    query: &'a [f64],
    epsilon: f64,
    kind: DtwKind,
    verify: VerifyMode,
    threads: usize,
    cascade: Option<&'a BoundCascade>,
}

impl<'a> VerifyJob<'a> {
    /// A cascade-less job (the pre-cascade behaviour).
    ///
    /// # Panics
    /// Panics when `threads == 0`.
    pub fn new(
        query: &'a [f64],
        epsilon: f64,
        kind: DtwKind,
        verify: VerifyMode,
        threads: usize,
    ) -> Self {
        assert!(threads >= 1, "need at least one verify worker");
        VerifyJob {
            query,
            epsilon,
            kind,
            verify,
            threads,
            cascade: None,
        }
    }

    /// Attaches a prepared cascade. The cascade's effective verify mode
    /// replaces the job's (they agree unless the spec carried a band
    /// ratio), so pruning band and verification band never diverge.
    pub fn with_cascade(mut self, cascade: Option<&'a BoundCascade>) -> Self {
        if let Some(c) = cascade {
            self.verify = c.verify_mode();
        }
        self.cascade = cascade;
        self
    }

    /// The verify mode candidates will actually be checked under.
    pub fn verify_mode(&self) -> VerifyMode {
        self.verify
    }

    /// Verifies pre-read candidate sequences against the query, fanning the
    /// DTW work out over the job's worker count.
    ///
    /// Returns the qualifying matches sorted by ascending [`SeqId`] and a
    /// [`SearchStats`] carrying only the verification counters
    /// (`dtw_invocations`, `dtw_cells`) — the caller merges it into its own
    /// stats with [`SearchStats::accumulate`]. The shared
    /// [`PipelineCounters`] receive the observability breakdown: per-tier
    /// prunes, `verified` / `abandoned` per candidate, `dtw_cells`, and the
    /// wall-clock time of the whole call under [`Phase::Verify`]. Counting
    /// is per-candidate, so the counters are thread-count invariant.
    ///
    /// Workers receive only the candidate slices, never the store, so the
    /// pipeline works with any pager and charges no I/O of its own:
    /// candidates arrive already materialized by the engine's filter stage.
    ///
    /// Each worker checks `token` before starting a candidate and charges DP
    /// cells as it computes; once the token trips, every remaining candidate
    /// is counted as `skipped_unverified` instead of being verified. A
    /// candidate whose DTW was cut short mid-computation is also skipped —
    /// never treated as a verdict — so every returned match is still exact.
    pub fn run(
        &self,
        candidates: &[(SeqId, Vec<f64>)],
        counters: &PipelineCounters,
        token: &CancelToken,
    ) -> (Vec<Match>, SearchStats) {
        counters.time(Phase::Verify, || {
            let (mut matches, stats) = if self.threads == 1 || candidates.len() < 2 {
                self.verify_chunk(candidates, counters, token)
            } else {
                let chunk = candidates.len().div_ceil(self.threads);
                let parts: Vec<(Vec<Match>, SearchStats)> = std::thread::scope(|scope| {
                    let handles: Vec<_> = candidates
                        .chunks(chunk)
                        .map(|part| scope.spawn(move || self.verify_chunk(part, counters, token)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                        .collect()
                });
                let mut matches = Vec::new();
                let mut stats = SearchStats::default();
                for (part_matches, part_stats) in parts {
                    matches.extend(part_matches);
                    stats.accumulate(&part_stats);
                }
                (matches, stats)
            };
            matches.sort_by_key(|m| m.id);
            (matches, stats)
        })
    }

    /// One sequential pass over `store` that verifies records as the scan
    /// decodes them — the scan engines' (Naive-Scan, LB-Scan) whole
    /// filter-and-refine loop.
    ///
    /// Every record is a candidate. Once `token` has tripped, a record is
    /// still read (the scan is one pass) but ledgered as
    /// `skipped_unverified`; otherwise `admit` decides whether it goes to
    /// verification (a rejecting `admit` ledgers its own prune). Admitted
    /// records are charged as candidate bytes and collected into batches of
    /// 256 per worker, each verified by [`Self::run`] before the scan reads
    /// on, so no more than one batch of decoded records is ever resident.
    ///
    /// The scan's wall time, minus the [`Phase::Verify`] time of its
    /// batches, is attributed to `scan_phase`, so the phases still add up
    /// to the pass. Matches come back sorted by id (the scan visits ids in
    /// order); the returned [`SearchStats`] carries the admitted count in
    /// `candidates` plus the verification counters. Storage I/O is left to
    /// the caller's [`SequenceStore::take_io`].
    pub(crate) fn run_scan<P: Pager>(
        &self,
        store: &SequenceStore<P>,
        scan_phase: Phase,
        mut admit: impl FnMut(&[f64]) -> bool,
        counters: &PipelineCounters,
        token: &CancelToken,
    ) -> Result<(Vec<Match>, SearchStats), StoreError> {
        let started = wall_now();
        let verify_before = counters.snapshot().phases.verify;
        let batch_len = SCAN_BATCH * self.threads;
        let mut batch: Vec<(SeqId, Vec<f64>)> = Vec::with_capacity(batch_len);
        let mut verified = (Vec::new(), SearchStats::default());
        let (mut rows, mut admitted, mut skipped) = (0u64, 0usize, 0u64);
        store.scan_visit(|id, values| {
            rows += 1;
            if token.cancelled() {
                skipped += 1;
                return;
            }
            if !admit(&values) {
                return;
            }
            admitted += 1;
            // A charge that trips the token needs no check here: `run`
            // skips every candidate it meets after the trip.
            let _ =
                token.charge_candidate_bytes((std::mem::size_of::<f64>() * values.len()) as u64);
            batch.push((id, values));
            if batch.len() == batch_len {
                self.run_batch(&mut batch, &mut verified, counters, token);
            }
        })?;
        self.run_batch(&mut batch, &mut verified, counters, token);
        counters.add_candidates(rows);
        counters.add_skipped_unverified(skipped);
        let verify_spent = counters
            .snapshot()
            .phases
            .verify
            .saturating_sub(verify_before);
        counters.add_phase(scan_phase, started.elapsed().saturating_sub(verify_spent));
        let (matches, mut stats) = verified;
        stats.candidates = admitted;
        Ok((matches, stats))
    }

    /// Verifies and empties one scan batch, appending to the running totals.
    fn run_batch(
        &self,
        batch: &mut Vec<(SeqId, Vec<f64>)>,
        (matches, stats): &mut (Vec<Match>, SearchStats),
        counters: &PipelineCounters,
        token: &CancelToken,
    ) {
        if batch.is_empty() {
            return;
        }
        let (batch_matches, batch_stats) = self.run(batch, counters, token);
        matches.extend(batch_matches);
        stats.accumulate(&batch_stats);
        batch.clear();
    }

    /// Sequentially verifies one slice of candidates, publishing per-chunk
    /// totals into the shared counters (one `fetch_add` per counter per
    /// chunk, not per candidate, to keep contention negligible).
    fn verify_chunk(
        &self,
        candidates: &[(SeqId, Vec<f64>)],
        counters: &PipelineCounters,
        token: &CancelToken,
    ) -> (Vec<Match>, SearchStats) {
        let mut matches = Vec::new();
        let mut stats = SearchStats::default();
        let mut verified = 0u64;
        let mut abandoned = 0u64;
        let mut skipped = 0u64;
        let mut pruned = [0u64; BoundTier::ALL.len()];
        let band = self.verify.band();
        // Banded verification never abandons: its candidates always run the
        // band to completion (or cancellation).
        let abandon = band.is_none() && self.cascade.is_none_or(BoundCascade::early_abandon);
        for (i, (id, values)) in candidates.iter().enumerate() {
            if token.cancelled() {
                skipped += (candidates.len() - i) as u64;
                break;
            }
            if let Some(cascade) = self.cascade {
                if let CascadeDecision::Pruned { tier } = cascade.check(*id, values, self.epsilon) {
                    if let Some((_, n)) = BoundTier::ALL
                        .iter()
                        .zip(pruned.iter_mut())
                        .find(|(&t, _)| t == tier)
                    {
                        *n += 1;
                    }
                    continue;
                }
            }
            let outcome = dtw_decide(
                values,
                self.query,
                self.kind,
                self.epsilon,
                band,
                abandon,
                token,
            );
            stats.dtw_cells += outcome.cells;
            if outcome.cancelled {
                // Started but undecided: the cells were spent, the verdict
                // never arrived. Ledger the candidate as skipped, not as an
                // invocation.
                skipped += 1;
            } else {
                stats.dtw_invocations += 1;
                if outcome.early_abandoned {
                    abandoned += 1;
                } else {
                    verified += 1;
                }
            }
            if let Some(distance) = outcome.within {
                matches.push(Match { id: *id, distance });
            }
        }
        for (&tier, &n) in BoundTier::ALL.iter().zip(&pruned) {
            if n > 0 {
                counters.add_pruned(tier, n);
            }
        }
        counters.add_verified(verified);
        counters.add_abandoned(abandoned);
        counters.add_skipped_unverified(skipped);
        counters.add_dtw_cells(stats.dtw_cells);
        (matches, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::CascadeSpec;
    use crate::distance::dtw;

    fn candidates() -> Vec<(SeqId, Vec<f64>)> {
        (0..23)
            .map(|i| {
                let base = (i % 7) as f64;
                (i as SeqId, vec![base, base + 0.3, base + 0.8])
            })
            .collect()
    }

    #[test]
    fn thread_count_does_not_change_the_outcome() {
        let cands = candidates();
        let query = [3.0, 3.3, 3.9];
        let base_counters = PipelineCounters::new();
        let (base_matches, base_stats) =
            VerifyJob::new(&query, 0.5, DtwKind::MaxAbs, VerifyMode::Exact, 1).run(
                &cands,
                &base_counters,
                &CancelToken::unlimited(),
            );
        assert!(!base_matches.is_empty());
        for threads in [2usize, 3, 4, 16] {
            let counters = PipelineCounters::new();
            let (m, s) = VerifyJob::new(&query, 0.5, DtwKind::MaxAbs, VerifyMode::Exact, threads)
                .run(&cands, &counters, &CancelToken::unlimited());
            assert_eq!(m, base_matches, "threads={threads}");
            assert_eq!(s.dtw_invocations, base_stats.dtw_invocations);
            assert_eq!(s.dtw_cells, base_stats.dtw_cells);
            assert!(
                counters.snapshot().counters_eq(&base_counters.snapshot()),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn counters_partition_verified_and_abandoned() {
        let cands = candidates();
        let query = [3.0, 3.3, 3.9];
        let counters = PipelineCounters::new();
        let (m, s) = VerifyJob::new(&query, 0.5, DtwKind::MaxAbs, VerifyMode::Exact, 3).run(
            &cands,
            &counters,
            &CancelToken::unlimited(),
        );
        let snap = counters.snapshot();
        // Every candidate either completed or abandoned.
        assert_eq!(snap.verified + snap.abandoned, cands.len() as u64);
        // Matches only come from completed verifications.
        assert!((m.len() as u64) <= snap.verified);
        // Cells recorded in the counters equal the SearchStats total.
        assert_eq!(snap.dtw_cells, s.dtw_cells);
        // Verify-phase time was attributed.
        assert!(snap.phases.verify > std::time::Duration::ZERO);
    }

    #[test]
    fn cascade_prunes_before_dtw_and_counts_per_tier() {
        let cands = candidates();
        let query = [3.0, 3.3, 3.9];
        let plain_counters = PipelineCounters::new();
        let (plain, plain_stats) =
            VerifyJob::new(&query, 0.5, DtwKind::MaxAbs, VerifyMode::Exact, 2).run(
                &cands,
                &plain_counters,
                &CancelToken::unlimited(),
            );
        let cascade = BoundCascade::prepare(
            &CascadeSpec::standard(),
            &query,
            DtwKind::MaxAbs,
            VerifyMode::Exact,
        );
        let counters = PipelineCounters::new();
        let (m, s) = VerifyJob::new(&query, 0.5, DtwKind::MaxAbs, VerifyMode::Exact, 2)
            .with_cascade(Some(&cascade))
            .run(&cands, &counters, &CancelToken::unlimited());
        // Same matches, strictly less DP work: this candidate set is mostly
        // far from the query, so the bounds must prune.
        assert_eq!(m, plain);
        assert!(s.dtw_cells < plain_stats.dtw_cells);
        let snap = counters.snapshot();
        assert!(snap.pruned_total() > 0);
        counters.add_candidates(cands.len() as u64);
        assert!(counters.snapshot().accounting_balanced());
    }

    #[test]
    fn cascade_counters_are_thread_count_invariant() {
        let cands = candidates();
        let query = [3.0, 3.3, 3.9];
        let cascade = BoundCascade::prepare(
            &CascadeSpec::standard(),
            &query,
            DtwKind::MaxAbs,
            VerifyMode::Exact,
        );
        let base = PipelineCounters::new();
        let (base_m, base_s) = VerifyJob::new(&query, 0.5, DtwKind::MaxAbs, VerifyMode::Exact, 1)
            .with_cascade(Some(&cascade))
            .run(&cands, &base, &CancelToken::unlimited());
        for threads in [2usize, 4, 16] {
            let counters = PipelineCounters::new();
            let (m, s) = VerifyJob::new(&query, 0.5, DtwKind::MaxAbs, VerifyMode::Exact, threads)
                .with_cascade(Some(&cascade))
                .run(&cands, &counters, &CancelToken::unlimited());
            assert_eq!(m, base_m, "threads={threads}");
            assert_eq!(s.dtw_cells, base_s.dtw_cells);
            assert!(counters.snapshot().counters_eq(&base.snapshot()));
        }
    }

    #[test]
    fn cascade_band_ratio_overrides_the_job_mode() {
        let query = [3.0, 3.3, 3.9];
        let cascade = BoundCascade::prepare(
            &CascadeSpec::standard().band_ratio(0.5),
            &query,
            DtwKind::MaxAbs,
            VerifyMode::Exact,
        );
        let job = VerifyJob::new(&query, 0.5, DtwKind::MaxAbs, VerifyMode::Exact, 1)
            .with_cascade(Some(&cascade));
        assert_eq!(job.verify_mode(), VerifyMode::Banded(2));
    }

    #[test]
    fn early_abandon_off_forces_complete_dps() {
        let cands = candidates();
        let query = [3.0, 3.3, 3.9];
        let cascade = BoundCascade::prepare(
            &CascadeSpec::none().early_abandon(false),
            &query,
            DtwKind::MaxAbs,
            VerifyMode::Exact,
        );
        let counters = PipelineCounters::new();
        let _ = VerifyJob::new(&query, 0.5, DtwKind::MaxAbs, VerifyMode::Exact, 2)
            .with_cascade(Some(&cascade))
            .run(&cands, &counters, &CancelToken::unlimited());
        let snap = counters.snapshot();
        assert_eq!(snap.abandoned, 0);
        assert_eq!(snap.verified, cands.len() as u64);
        // Full DPs everywhere: 23 candidates × 3×3 cells.
        assert_eq!(snap.dtw_cells, 23 * 9);
    }

    #[test]
    fn banded_mode_never_abandons() {
        let cands = candidates();
        let query = [3.0, 3.3, 3.9];
        let counters = PipelineCounters::new();
        let _ = VerifyJob::new(&query, 0.5, DtwKind::MaxAbs, VerifyMode::Banded(1), 2).run(
            &cands,
            &counters,
            &CancelToken::unlimited(),
        );
        let snap = counters.snapshot();
        assert_eq!(snap.abandoned, 0);
        assert_eq!(snap.verified, cands.len() as u64);
    }

    #[test]
    fn matches_sorted_even_from_unsorted_candidates() {
        let mut cands = candidates();
        cands.reverse();
        let query = [3.0, 3.3, 3.9];
        let (m, _) = VerifyJob::new(&query, 5.0, DtwKind::MaxAbs, VerifyMode::Exact, 3).run(
            &cands,
            &PipelineCounters::new(),
            &CancelToken::unlimited(),
        );
        assert!(m.windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn distances_are_exact() {
        let cands = candidates();
        let query = [2.0, 2.5, 2.9];
        let (m, _) = VerifyJob::new(&query, 1.0, DtwKind::SumAbs, VerifyMode::Exact, 4).run(
            &cands,
            &PipelineCounters::new(),
            &CancelToken::unlimited(),
        );
        for matched in &m {
            let expect = dtw(&cands[matched.id as usize].1, &query, DtwKind::SumAbs).distance;
            assert!((matched.distance - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn banded_mode_is_a_subset_of_exact() {
        let cands = candidates();
        let query = [3.0, 3.3, 3.9];
        let (exact, _) = VerifyJob::new(&query, 0.5, DtwKind::MaxAbs, VerifyMode::Exact, 2).run(
            &cands,
            &PipelineCounters::new(),
            &CancelToken::unlimited(),
        );
        let (banded, _) = VerifyJob::new(&query, 0.5, DtwKind::MaxAbs, VerifyMode::Banded(1), 2)
            .run(&cands, &PipelineCounters::new(), &CancelToken::unlimited());
        let exact_ids: Vec<_> = exact.iter().map(|m| m.id).collect();
        for m in &banded {
            assert!(exact_ids.contains(&m.id));
        }
    }

    #[test]
    fn empty_candidates_are_fine() {
        let counters = PipelineCounters::new();
        let (m, s) = VerifyJob::new(&[1.0], 1.0, DtwKind::MaxAbs, VerifyMode::Exact, 4).run(
            &[],
            &counters,
            &CancelToken::unlimited(),
        );
        assert!(m.is_empty());
        assert_eq!(s.dtw_invocations, 0);
        assert_eq!(counters.snapshot().verified, 0);
    }

    #[test]
    #[should_panic(expected = "at least one verify worker")]
    fn zero_threads_rejected() {
        let _ = VerifyJob::new(&[1.0], 1.0, DtwKind::MaxAbs, VerifyMode::Exact, 0).run(
            &[],
            &PipelineCounters::new(),
            &CancelToken::unlimited(),
        );
    }
}
