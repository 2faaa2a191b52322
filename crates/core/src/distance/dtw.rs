//! The time-warping distance (Definitions 1 and 2), in four forms:
//!
//! * [`dtw`] — the exact distance;
//! * [`dtw_within`] — early-abandoning variant that proves or disproves
//!   `D_tw <= epsilon` without necessarily completing the table (§4.1 of the
//!   paper explains why the L∞ recurrence abandons especially early);
//! * [`dtw_decide`] — the same decision under a query governor, optionally
//!   banded and with the abandon cutoff switchable; every verifier runs it;
//! * [`dtw_with_path`] — full-matrix variant recovering the optimal element
//!   mapping `M`, used by diagnostics and tests.
//!
//! Every form but [`dtw_with_path`], and [`super::dtw_banded`] too, runs
//! one kernel: a two-row DP over a Sakoe–Chiba band, with the unconstrained
//! distance as the band that admits every cell. It is monomorphized per
//! [`DtwKind`] and per abandon switch, so the inner loop carries neither a
//! `match` nor a branch on the switch. Its ledger tells the truth: the
//! abandon cutoff is checked after every DP step, and the cells it reports
//! are the cells it computed.

use super::DtwKind;
use crate::govern::CancelToken;

/// Result of a full distance computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DtwResult {
    /// The time-warping distance.
    pub distance: f64,
    /// DP cells computed (the CPU-cost unit the experiments report).
    pub cells: u64,
}

/// Result of a thresholded computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DtwOutcome {
    /// `Some(d)` when `d <= epsilon`; `None` when the distance provably
    /// exceeds the tolerance (the exact value is then not computed).
    pub within: Option<f64>,
    /// DP cells computed before finishing or abandoning.
    pub cells: u64,
    /// `true` when the computation was cut short by early abandoning
    /// (a whole DP step exceeded the tolerance); `false` when it ran to
    /// completion, whatever the verdict.
    pub early_abandoned: bool,
    /// `true` when a query budget/deadline cancelled the computation before
    /// it could decide; `within` is then `None` but the candidate was *not*
    /// rejected — callers must ledger it as skipped, not pruned.
    pub cancelled: bool,
}

#[inline]
fn combine(kind: DtwKind, gap: f64, best_prev: f64) -> f64 {
    match kind {
        DtwKind::SumAbs => gap.abs() + best_prev,
        DtwKind::SumSquared => gap * gap + best_prev,
        DtwKind::MaxAbs => gap.abs().max(best_prev),
    }
}

#[inline]
fn finish(kind: DtwKind, raw: f64) -> f64 {
    match kind {
        DtwKind::SumSquared => raw.sqrt(),
        _ => raw,
    }
}

/// Converts a user tolerance into the internal accumulator scale.
#[inline]
fn threshold(kind: DtwKind, epsilon: f64) -> f64 {
    match kind {
        DtwKind::SumSquared => epsilon * epsilon,
        _ => epsilon,
    }
}

/// Two-way minimum as a compare-select, which lowers to one hardware min
/// (`minsd` on x86-64). `f64::min` also lowers to it, but adds the
/// instructions that return the non-NaN operand. For NaN-free operands the
/// two agree bit for bit (DP values are never `-0.0`, so there is no
/// signed-zero tie either), and the kernel never sees a NaN: queries are
/// validated ([`crate::error::validate_query`]) and stored records reject
/// NaN. With a NaN operand this returns `b`.
#[inline(always)]
fn min2(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// Two-way maximum as a compare-select (one `maxsd`). A NaN `a` falls
/// through to `b`, exactly as `a.max(b)` does, so the L∞ step
/// `max2(|gap|, best)` equals the `f64::max` spelling for any input.
#[inline(always)]
fn max2(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// Branch-free three-way minimum: two compare-selects ([`min2`]), each one
/// hardware min instruction, so the DP inner loop carries no branches.
#[inline(always)]
fn min3(a: f64, b: f64, c: f64) -> f64 {
    min2(min2(a, b), c)
}

/// Dispatches `kind` to a monomorphized copy of a DP kernel: each arm hands
/// the kernel a concrete closure, hoisting the per-cell recurrence `match`
/// out of the inner loop entirely (the closures mirror [`combine`]).
macro_rules! dispatch_kind {
    ($kind:expr, |$step:ident| $call:expr) => {
        match $kind {
            DtwKind::SumAbs => {
                let $step = |gap: f64, best: f64| gap.abs() + best;
                $call
            }
            DtwKind::SumSquared => {
                let $step = |gap: f64, best: f64| gap * gap + best;
                $call
            }
            DtwKind::MaxAbs => {
                let $step = |gap: f64, best: f64| max2(gap.abs(), best);
                $call
            }
        }
    };
}

/// The one two-row DP behind [`dtw`], [`dtw_decide`] and
/// [`super::dtw_banded`], monomorphized per recurrence by
/// `dispatch_kind!` and per abandon switch by `ABANDON`.
///
/// Each *step* walks one element of `outer` against the cells of `inner`
/// that lie within half-width `w` of the length-normalized diagonal; `prev`
/// and `cur` are flat row buffers of `|inner| + 1` cells (cell 0 is the
/// `dp[i][0]` boundary), swapped per step. A band at least
/// `max(|outer|, |inner|)` wide admits every cell: the unconstrained DP.
///
/// After each step the ledger runs in a fixed order: count the step's
/// cells, then (with `ABANDON`) reject once every cell of the step exceeds
/// `thr` — DP values never decrease along a warping path, so no extension
/// can come back under it — then charge the cells against `token`. The
/// returned `cells` is therefore exactly the number of `step` calls made.
///
/// A completed DP reports its raw accumulator (pre-[`finish`], unfiltered)
/// in `within`; callers convert it.
fn kernel<const ABANDON: bool>(
    outer: &[f64],
    inner: &[f64],
    w: usize,
    thr: f64,
    token: &CancelToken,
    step: impl Fn(f64, f64) -> f64,
) -> DtwOutcome {
    let (n, m) = (outer.len(), inner.len());
    // For different lengths the band must at least cover the slope gap.
    let w = w.max(n.abs_diff(m));
    let mut prev = vec![f64::INFINITY; m + 1];
    let mut cur = vec![f64::INFINITY; m + 1];
    if let Some(origin) = prev.first_mut() {
        *origin = 0.0;
    }
    // The cell range the previous step actually wrote. Cells outside it are
    // stale (two steps old), so instead of an O(m) `cur.fill` per step only
    // the read-range cells the previous step left stale are patched to +inf
    // — narrow bands then cost O((n+m)·w) instead of O(n·m). The boundary
    // row is fully initialized above, hence the full starting range.
    let (mut prev_lo, mut prev_hi) = (0usize, m);
    let mut cells = 0u64;
    let cut = |cells, early_abandoned: bool| DtwOutcome {
        within: None,
        cells,
        early_abandoned,
        cancelled: !early_abandoned,
    };
    for (i, &o) in (1..).zip(outer) {
        // Band cell range for step i (normalized diagonal j = i * m / n).
        let center = i * m / n;
        let lo = center.saturating_sub(w).max(1);
        let hi = center.saturating_add(w).min(m);
        // This step reads `prev` over [lo-1, hi]. The band center is
        // nondecreasing, so at most one cell trails below `prev_lo` and a
        // short run leads past `prev_hi`.
        let read_lo = lo - 1;
        if read_lo < prev_lo {
            let len = prev_lo.min(hi + 1) - read_lo;
            for slot in prev.iter_mut().skip(read_lo).take(len) {
                *slot = f64::INFINITY;
            }
        }
        if hi > prev_hi {
            let start = (prev_hi + 1).max(read_lo);
            for slot in prev.iter_mut().skip(start).take(hi + 1 - start) {
                *slot = f64::INFINITY;
            }
        }
        let up_left = prev.get(read_lo).copied().unwrap_or(f64::INFINITY);
        let xs = inner.get(read_lo..hi).unwrap_or_default();
        let ups = prev.get(lo..hi + 1).unwrap_or_default();
        let outs = cur.get_mut(lo..hi + 1).unwrap_or_default();
        let width = xs.len();
        let step_min = band_step::<ABANDON>(o, xs, ups, outs, up_left, &step);
        std::mem::swap(&mut prev, &mut cur);
        (prev_lo, prev_hi) = (lo, hi);
        cells += width as u64;
        if ABANDON && step_min > thr {
            return cut(cells, true);
        }
        if token.charge_cells(width as u64) {
            return cut(cells, false);
        }
    }
    DtwOutcome {
        within: prev.last().copied(),
        cells,
        early_abandoned: false,
        cancelled: false,
    }
}

/// One DP step: fills `outs` (the band's cells of the current row) from
/// `ups` (the same cells of the previous row) and `up_left`, the previous
/// row's cell left of the band. Returns the step's minimum when `ABANDON`.
///
/// `up_left` = dp[i-1][j-1], `up` = dp[i-1][j], `left` = dp[i][j-1].
/// `left` is the loop-carried value, so it goes last into `min3`:
/// `min2(up, up_left)` then does not wait on the previous cell, leaving one
/// min and the recurrence's add or max on the loop-carried chain.
///
/// Kept out of line so the register allocator sees only this loop's state;
/// inlined into [`kernel`] the band bounds were recomputed on every cell.
#[inline(never)]
fn band_step<const ABANDON: bool>(
    o: f64,
    xs: &[f64],
    ups: &[f64],
    outs: &mut [f64],
    mut up_left: f64,
    step: &impl Fn(f64, f64) -> f64,
) -> f64 {
    let mut left = f64::INFINITY;
    let mut step_min = f64::INFINITY;
    for ((&x, &up), cell) in xs.iter().zip(ups).zip(outs) {
        let v = step(o - x, min3(up, up_left, left));
        up_left = up;
        left = v;
        *cell = v;
        if ABANDON {
            step_min = min2(v, step_min);
        }
    }
    step_min
}

/// Runs [`kernel`] for `kind`, abandoning above `abandon_at` when it is set.
fn run_kernel(
    outer: &[f64],
    inner: &[f64],
    kind: DtwKind,
    w: usize,
    abandon_at: Option<f64>,
    token: &CancelToken,
) -> DtwOutcome {
    match abandon_at {
        Some(thr) => dispatch_kind!(kind, |step| kernel::<true>(
            outer, inner, w, thr, token, step
        )),
        None => dispatch_kind!(kind, |step| kernel::<false>(
            outer,
            inner,
            w,
            f64::INFINITY,
            token,
            step
        )),
    }
}

/// The distance convention for empty inputs (both empty → 0, one empty →
/// `+∞`); `None` when both are non-empty and the DP must run.
fn empty_distance(s: &[f64], q: &[f64]) -> Option<DtwResult> {
    let distance = if s.len() == q.len() {
        0.0
    } else {
        f64::INFINITY
    };
    (s.is_empty() || q.is_empty()).then_some(DtwResult { distance, cells: 0 })
}

/// A complete, ungoverned DP stepping over `outer` under half-width `w`.
pub(super) fn complete_dp(outer: &[f64], inner: &[f64], kind: DtwKind, w: usize) -> DtwResult {
    if let Some(res) = empty_distance(outer, inner) {
        return res;
    }
    let out = run_kernel(outer, inner, kind, w, None, &CancelToken::unlimited());
    DtwResult {
        distance: finish(kind, out.within.unwrap_or(f64::INFINITY)),
        cells: out.cells,
    }
}

/// The unconstrained orientation: the longer sequence drives the steps and
/// the shorter one the row buffers (minimal memory), under a band as wide
/// as the longer length.
fn unconstrained<'a>(s: &'a [f64], q: &'a [f64]) -> (&'a [f64], &'a [f64], usize) {
    let (inner, outer) = if s.len() <= q.len() { (s, q) } else { (q, s) };
    (outer, inner, outer.len())
}

/// The time-warping distance between two sequences.
///
/// Empty inputs follow the paper's definition: both empty → 0, one empty →
/// `+∞`.
pub fn dtw(s: &[f64], q: &[f64], kind: DtwKind) -> DtwResult {
    let (outer, inner, w) = unconstrained(s, q);
    complete_dp(outer, inner, kind, w)
}

/// Early-abandoning decision procedure for `D_tw(s, q) <= epsilon`.
///
/// Abandons as soon as every cell of the current DP step exceeds the
/// tolerance: DP values never decrease along a warping path under any
/// [`DtwKind`], so no extension can come back under `epsilon`.
pub fn dtw_within(s: &[f64], q: &[f64], kind: DtwKind, epsilon: f64) -> DtwOutcome {
    dtw_decide(s, q, kind, epsilon, None, true, &CancelToken::unlimited())
}

/// The governed decision procedure every verifier runs: decides
/// `D_tw(s, q) <= epsilon`, unconstrained (`band = None`) or under a
/// Sakoe–Chiba band of half-width `w` (`band = Some(w)`, the distance of
/// [`super::dtw_banded`]).
///
/// Each DP step charges its cells against `token`; once the token trips the
/// computation stops undecided, with [`DtwOutcome::cancelled`] set. With
/// `early_abandon` the DP stops as soon as a whole step exceeds the
/// tolerance ([`DtwOutcome::early_abandoned`]); without it the DP always
/// runs to completion or cancellation, which the cascade exposes through
/// [`crate::bound::CascadeSpec::early_abandon`] for ablation runs.
///
/// The unconstrained DP steps over the longer sequence with the shorter one
/// in the row buffers; the banded DP steps over `s` with `q` in the row
/// buffers.
pub fn dtw_decide(
    s: &[f64],
    q: &[f64],
    kind: DtwKind,
    epsilon: f64,
    band: Option<usize>,
    early_abandon: bool,
    token: &CancelToken,
) -> DtwOutcome {
    debug_assert!(epsilon >= 0.0);
    if s.is_empty() || q.is_empty() {
        let within = if s.len() == q.len() { Some(0.0) } else { None };
        return DtwOutcome {
            within,
            cells: 0,
            early_abandoned: false,
            cancelled: false,
        };
    }
    let (outer, inner, w) = match band {
        None => unconstrained(s, q),
        Some(w) => (s, q, w),
    };
    let abandon_at = early_abandon.then(|| threshold(kind, epsilon));
    let out = run_kernel(outer, inner, kind, w, abandon_at, token);
    DtwOutcome {
        within: out
            .within
            .map(|raw| finish(kind, raw))
            .filter(|&d| d <= epsilon),
        ..out
    }
}

/// Full-matrix computation that also recovers the optimal warping path as
/// `(s index, q index)` element mappings (the paper's `M = <m_1 ... m_|M|>`).
pub fn dtw_with_path(s: &[f64], q: &[f64], kind: DtwKind) -> (DtwResult, Vec<(usize, usize)>) {
    if let Some(res) = empty_distance(s, q) {
        return (res, Vec::new());
    }
    let (n, m) = (s.len(), q.len());
    // Row-by-row DP: each new row reads the previous one plus a running
    // `left`/`up_left` pair, so no cell is ever reached by raw indexing.
    let mut dp: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
    let mut first = vec![f64::INFINITY; m + 1];
    if let Some(origin) = first.first_mut() {
        *origin = 0.0;
    }
    dp.push(first);
    for &sv in s {
        let mut row = vec![f64::INFINITY; m + 1];
        if let Some(prev) = dp.last() {
            let mut up_left = prev.first().copied().unwrap_or(f64::INFINITY);
            let mut left = f64::INFINITY;
            for ((qv, cell), up) in q
                .iter()
                .zip(row.iter_mut().skip(1))
                .zip(prev.iter().skip(1))
            {
                let best_prev = up.min(left).min(up_left);
                let val = combine(kind, sv - qv, best_prev);
                *cell = val;
                up_left = *up;
                left = val;
            }
        }
        dp.push(row);
    }
    let at = |i: usize, j: usize| {
        dp.get(i)
            .and_then(|row| row.get(j))
            .copied()
            .unwrap_or(f64::INFINITY)
    };
    // Backtrack the path (prefer the diagonal on ties: shortest mapping).
    let mut path = Vec::with_capacity(n + m);
    let (mut i, mut j) = (n, m);
    while i >= 1 && j >= 1 {
        path.push((i - 1, j - 1));
        if i == 1 && j == 1 {
            break;
        }
        let diag = at(i - 1, j - 1);
        let up = at(i - 1, j);
        let left = at(i, j - 1);
        if diag <= up && diag <= left {
            i -= 1;
            j -= 1;
        } else if up <= left {
            i -= 1;
        } else {
            j -= 1;
        }
    }
    path.reverse();
    (
        DtwResult {
            distance: finish(kind, at(n, m)),
            cells: (n * m) as u64,
        },
        path,
    )
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // Tests assert exact float round-trips and identities on purpose.
mod tests {
    use super::*;

    const KINDS: [DtwKind; 3] = [DtwKind::SumAbs, DtwKind::SumSquared, DtwKind::MaxAbs];

    #[test]
    fn paper_intro_example_warps_to_zero() {
        // §1: S and Q transform into the same stretched sequence, so their
        // time-warping distance is 0 under every kind.
        let s = [20.0, 21.0, 21.0, 20.0, 20.0, 23.0, 23.0, 23.0];
        let q = [20.0, 20.0, 21.0, 20.0, 23.0];
        for kind in KINDS {
            assert_eq!(dtw(&s, &q, kind).distance, 0.0, "{kind:?}");
        }
    }

    #[test]
    fn identity_zero_distance() {
        let s = [1.0, 5.0, 3.0, 3.0, 8.0];
        for kind in KINDS {
            assert_eq!(dtw(&s, &s, kind).distance, 0.0, "{kind:?}");
        }
    }

    #[test]
    fn symmetry() {
        let s = [1.0, 2.0, 9.0, 4.0];
        let q = [2.0, 8.0, 5.0];
        for kind in KINDS {
            let a = dtw(&s, &q, kind).distance;
            let b = dtw(&q, &s, kind).distance;
            assert!((a - b).abs() < 1e-12, "{kind:?}: {a} vs {b}");
        }
    }

    #[test]
    fn empty_sequence_conventions() {
        for kind in KINDS {
            assert_eq!(dtw(&[], &[], kind).distance, 0.0);
            assert_eq!(dtw(&[1.0], &[], kind).distance, f64::INFINITY);
            assert_eq!(dtw(&[], &[1.0], kind).distance, f64::INFINITY);
        }
    }

    #[test]
    fn single_elements() {
        assert_eq!(dtw(&[3.0], &[7.0], DtwKind::SumAbs).distance, 4.0);
        assert_eq!(dtw(&[3.0], &[7.0], DtwKind::MaxAbs).distance, 4.0);
        assert_eq!(dtw(&[3.0], &[7.0], DtwKind::SumSquared).distance, 4.0);
    }

    #[test]
    fn hand_computed_small_case() {
        let s = [0.0, 10.0];
        let q = [0.0, 0.0, 10.0];
        // Path: (0,0)(0,1)(1,2) with gaps 0,0,0 — warping absorbs the
        // repeated 0.
        for kind in KINDS {
            assert_eq!(dtw(&s, &q, kind).distance, 0.0, "{kind:?}");
        }
        // Shifted case forces a non-zero gap somewhere.
        let q2 = [1.0, 1.0, 10.0];
        assert_eq!(dtw(&s, &q2, DtwKind::MaxAbs).distance, 1.0);
        assert_eq!(dtw(&s, &q2, DtwKind::SumAbs).distance, 2.0);
    }

    #[test]
    fn max_kind_is_max_over_optimal_path() {
        // §4.1: D_tw(S,Q) = max over the best mapping's element distances.
        let s = [0.0, 5.0, 9.0];
        let q = [1.0, 5.5, 8.0];
        let (res, path) = dtw_with_path(&s, &q, DtwKind::MaxAbs);
        let path_max = path
            .iter()
            .map(|&(i, j)| (s[i] - q[j]).abs())
            .fold(0.0, f64::max);
        assert!((res.distance - path_max).abs() < 1e-12);
        assert_eq!(res.distance, 1.0); // pairs (0,1),(5,5.5),(9,8) -> max 1.0
    }

    #[test]
    fn additive_kind_matches_matrix_version() {
        let s = [1.0, 3.0, 2.0, 8.0, 9.0, 2.0];
        let q = [1.0, 2.0, 8.5, 2.5];
        for kind in KINDS {
            let rolled = dtw(&s, &q, kind);
            let (full, path) = dtw_with_path(&s, &q, kind);
            assert!((rolled.distance - full.distance).abs() < 1e-12, "{kind:?}");
            assert!(!path.is_empty());
            // Path is monotone and starts/ends at corners.
            assert_eq!(path[0], (0, 0));
            assert_eq!(*path.last().unwrap(), (s.len() - 1, q.len() - 1));
            for w in path.windows(2) {
                let (di, dj) = (w[1].0 - w[0].0, w[1].1 - w[0].1);
                assert!(di <= 1 && dj <= 1 && di + dj >= 1);
            }
        }
    }

    #[test]
    fn dtw_within_agrees_with_exact() {
        let s = [2.0, 4.0, 6.0, 8.0];
        let q = [2.5, 4.5, 8.5];
        for kind in KINDS {
            let exact = dtw(&s, &q, kind).distance;
            // Just above the distance: accepted with the same value.
            let hit = dtw_within(&s, &q, kind, exact + 1e-9);
            assert!(hit.within.is_some(), "{kind:?}");
            assert!((hit.within.unwrap() - exact).abs() < 1e-9);
            // Just below: rejected.
            let miss = dtw_within(&s, &q, kind, (exact - 1e-9).max(0.0));
            if exact > 0.0 {
                assert!(miss.within.is_none(), "{kind:?}");
            }
        }
    }

    #[test]
    fn dtw_within_abandons_early_on_distant_pairs() {
        // Two far-apart long sequences: abandonment should happen in the
        // first few columns, far below the full |S|*|Q| cell count.
        let s: Vec<f64> = (0..500).map(|i| i as f64 * 0.01).collect();
        let q: Vec<f64> = (0..500).map(|i| 100.0 + i as f64 * 0.01).collect();
        let full_cells = (s.len() * q.len()) as u64;
        for kind in KINDS {
            let out = dtw_within(&s, &q, kind, 0.5);
            assert!(out.within.is_none());
            assert!(out.early_abandoned, "{kind:?} should abandon");
            assert!(
                out.cells <= full_cells / 100,
                "{kind:?}: {} cells",
                out.cells
            );
        }
    }

    #[test]
    fn early_abandoned_flag_is_false_on_completion() {
        let s = [2.0, 4.0, 6.0];
        let q = [2.5, 4.5, 6.5];
        for kind in KINDS {
            // Generous tolerance: runs to completion and accepts.
            let hit = dtw_within(&s, &q, kind, 100.0);
            assert!(hit.within.is_some());
            assert!(!hit.early_abandoned, "{kind:?}");
        }
        // Empty input: trivially complete, never abandoned.
        let empty = dtw_within(&[], &[1.0], DtwKind::MaxAbs, 1.0);
        assert!(empty.within.is_none());
        assert!(!empty.early_abandoned);
    }

    #[test]
    fn cells_counted() {
        let s = [1.0; 7];
        let q = [1.0; 11];
        let res = dtw(&s, &q, DtwKind::MaxAbs);
        assert_eq!(res.cells, 77);
    }

    #[test]
    fn linf_tolerance_is_length_independent() {
        // §4.1's motivation: under MaxAbs a uniform +delta shift yields
        // distance delta regardless of length; under SumAbs it scales with
        // length.
        for len in [10usize, 100] {
            let s: Vec<f64> = (0..len).map(|i| (i as f64 * 0.3).sin()).collect();
            let q: Vec<f64> = s.iter().map(|v| v + 0.25).collect();
            let dmax = dtw(&s, &q, DtwKind::MaxAbs).distance;
            assert!((dmax - 0.25).abs() < 1e-9, "len {len}: {dmax}");
        }
        let s10: Vec<f64> = (0..10).map(|i| (i as f64 * 0.3).sin()).collect();
        let q10: Vec<f64> = s10.iter().map(|v| v + 0.25).collect();
        let s100: Vec<f64> = (0..100).map(|i| (i as f64 * 0.3).sin()).collect();
        let q100: Vec<f64> = s100.iter().map(|v| v + 0.25).collect();
        let d10 = dtw(&s10, &q10, DtwKind::SumAbs).distance;
        let d100 = dtw(&s100, &q100, DtwKind::SumAbs).distance;
        assert!(d100 > 5.0 * d10);
    }

    /// The recurrence spelled with `f64::min`/`f64::max`, independent of the
    /// kernel's compare-selects and closures, for the oracles below.
    fn reference_cell(kind: DtwKind, gap: f64, up: f64, up_left: f64, left: f64) -> f64 {
        let best = up.min(up_left).min(left);
        match kind {
            DtwKind::SumAbs => gap.abs() + best,
            DtwKind::SumSquared => gap * gap + best,
            DtwKind::MaxAbs => gap.abs().max(best),
        }
    }

    /// The column-at-a-time unconstrained decision DP written out long-hand,
    /// kept as a test oracle: the kernel must reproduce its verdict, cell
    /// ledger and flags bit-for-bit for every recurrence kind.
    fn reference_decide(
        s: &[f64],
        q: &[f64],
        kind: DtwKind,
        epsilon: f64,
        token: &CancelToken,
    ) -> DtwOutcome {
        if s.is_empty() || q.is_empty() {
            let within = if s.len() == q.len() { Some(0.0) } else { None };
            return DtwOutcome {
                within,
                cells: 0,
                early_abandoned: false,
                cancelled: false,
            };
        }
        let (rows, cols) = if s.len() <= q.len() { (s, q) } else { (q, s) };
        let thr = threshold(kind, epsilon);
        let m = rows.len();
        let mut prev = vec![f64::INFINITY; m];
        let mut cur = vec![f64::INFINITY; m];
        let mut corner = 0.0f64;
        let mut cells = 0u64;
        for &c in cols {
            let mut up_left = corner;
            let mut left = f64::INFINITY;
            let mut col_min = f64::INFINITY;
            for (&r, (&up, cell)) in rows.iter().zip(prev.iter().zip(cur.iter_mut())) {
                let v = reference_cell(kind, r - c, up, up_left, left);
                up_left = up;
                left = v;
                col_min = col_min.min(v);
                *cell = v;
            }
            cells += m as u64;
            if col_min > thr {
                return DtwOutcome {
                    within: None,
                    cells,
                    early_abandoned: true,
                    cancelled: false,
                };
            }
            if token.charge_cells(m as u64) {
                return DtwOutcome {
                    within: None,
                    cells,
                    early_abandoned: false,
                    cancelled: true,
                };
            }
            corner = f64::INFINITY;
            std::mem::swap(&mut prev, &mut cur);
        }
        let within = prev
            .last()
            .map(|&raw| finish(kind, raw))
            .filter(|&d| d <= epsilon);
        DtwOutcome {
            within,
            cells,
            early_abandoned: false,
            cancelled: false,
        }
    }

    fn pseudo_seq(len: usize, salt: u64) -> Vec<f64> {
        // Deterministic, aperiodic data with enough spread to exercise both
        // accepting and abandoning paths.
        (0..len)
            .map(|i| {
                let x = (i as u64).wrapping_mul(2654435761).wrapping_add(salt);
                ((x % 1000) as f64) / 61.0 + (i as f64 * 0.37).sin()
            })
            .collect()
    }

    #[test]
    fn kernel_matches_reference_bit_for_bit() {
        // Lengths straddle multiples of 8 (the SIMD-lane and cache-block
        // sizes a kernel could be tempted to batch by) and swap rows/cols.
        let lens = [1usize, 2, 7, 8, 9, 15, 16, 17, 23];
        for &n in &lens {
            for &m in &[1usize, 3, 8, 13] {
                let s = pseudo_seq(n, 17);
                let q = pseudo_seq(m, 1031);
                for kind in KINDS {
                    for eps in [0.0, 0.4, 2.0, 9.0, 1e6] {
                        let got = dtw_within(&s, &q, kind, eps);
                        let want = reference_decide(&s, &q, kind, eps, &CancelToken::unlimited());
                        assert_eq!(
                            got.within.map(f64::to_bits),
                            want.within.map(f64::to_bits),
                            "{kind:?} n={n} m={m} eps={eps}"
                        );
                        assert_eq!(got.cells, want.cells, "{kind:?} n={n} m={m} eps={eps}");
                        assert_eq!(got.early_abandoned, want.early_abandoned);
                        assert_eq!(got.cancelled, want.cancelled);
                    }
                }
            }
        }
    }

    /// A full-fill banded decision DP (each step clears its whole row, then
    /// fills its band), kept as the oracle of the `dtw_decide` sweep. Band
    /// `None` is the unconstrained orientation — the longer sequence drives
    /// the steps under a band as wide as it — and `Some(w)` steps over `s`
    /// with `q` in the rows.
    fn reference_outcome(
        s: &[f64],
        q: &[f64],
        kind: DtwKind,
        epsilon: f64,
        band: Option<usize>,
        abandon: bool,
    ) -> DtwOutcome {
        let (outer, inner, w) = match band {
            None if s.len() <= q.len() => (q, s, q.len()),
            None => (s, q, s.len()),
            Some(w) => (s, q, w),
        };
        let (n, m) = (outer.len(), inner.len());
        let w = w.max(n.abs_diff(m));
        let thr = match kind {
            DtwKind::SumSquared => epsilon * epsilon,
            _ => epsilon,
        };
        let mut prev = vec![f64::INFINITY; m + 1];
        let mut cur = vec![f64::INFINITY; m + 1];
        prev[0] = 0.0;
        let mut cells = 0u64;
        for i in 1..=n {
            let center = i * m / n;
            let (lo, hi) = (center.saturating_sub(w).max(1), (center + w).min(m));
            cur.fill(f64::INFINITY);
            let mut step_min = f64::INFINITY;
            for j in lo..=hi {
                let gap = outer[i - 1] - inner[j - 1];
                cur[j] = reference_cell(kind, gap, prev[j], prev[j - 1], cur[j - 1]);
                step_min = step_min.min(cur[j]);
                cells += 1;
            }
            std::mem::swap(&mut prev, &mut cur);
            if abandon && step_min > thr {
                return DtwOutcome {
                    within: None,
                    cells,
                    early_abandoned: true,
                    cancelled: false,
                };
            }
        }
        let raw = prev[m];
        let d = match kind {
            DtwKind::SumSquared => raw.sqrt(),
            _ => raw,
        };
        DtwOutcome {
            within: (d <= epsilon).then_some(d),
            cells,
            early_abandoned: false,
            cancelled: false,
        }
    }

    /// SplitMix64: a seeded stream for the sweep below.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A seeded sequence of 1..=20 values; `specials` (±∞ or NaN) replace
    /// about one value in eight.
    fn sweep_seq(state: &mut u64, specials: &[f64]) -> Vec<f64> {
        let len = 1 + (splitmix(state) % 20) as usize;
        (0..len)
            .map(|_| {
                let r = splitmix(state);
                match specials.get((r % 8) as usize) {
                    Some(&v) if r % 64 < 8 => v,
                    _ => ((r >> 11) % 2000) as f64 / 200.0 - 5.0,
                }
            })
            .collect()
    }

    fn assert_decide_matches(s: &[f64], q: &[f64], kind: DtwKind, eps: f64, band: Option<usize>) {
        for abandon in [false, true] {
            let got = dtw_decide(s, q, kind, eps, band, abandon, &CancelToken::unlimited());
            let want = reference_outcome(s, q, kind, eps, band, abandon);
            let ctx = format!("{kind:?} eps={eps} band={band:?} abandon={abandon} s={s:?} q={q:?}");
            assert_eq!(
                got.within.map(f64::to_bits),
                want.within.map(f64::to_bits),
                "{ctx}"
            );
            assert_eq!(got.cells, want.cells, "{ctx}");
            assert_eq!(got.early_abandoned, want.early_abandoned, "{ctx}");
            assert_eq!(got.cancelled, want.cancelled, "{ctx}");
        }
    }

    #[test]
    fn kernel_sweep_matches_independent_oracle() {
        // Finite queries against stored values that include ±∞: every kind,
        // unconstrained and banded, abandon on and off.
        let mut state = 0x5eed_d7f0_u64;
        for _ in 0..400 {
            let s = sweep_seq(&mut state, &[f64::INFINITY, f64::NEG_INFINITY]);
            let q = sweep_seq(&mut state, &[]);
            let eps = [0.0, 0.5, 2.0, 8.0, 1e9][(splitmix(&mut state) % 5) as usize];
            for kind in KINDS {
                for band in [None, Some(0), Some(1), Some(3), Some(25)] {
                    assert_decide_matches(&s, &q, kind, eps, band);
                }
            }
        }
        // Under L∞ the compare-select max lets a NaN gap fall through to the
        // best predecessor exactly as `f64::max` does, so even NaN elements
        // (which validation keeps out of every query and store) agree.
        for _ in 0..200 {
            let s = sweep_seq(&mut state, &[f64::NAN, f64::INFINITY]);
            let q = sweep_seq(&mut state, &[f64::NAN]);
            let eps = [0.0, 0.5, 2.0, 1e9][(splitmix(&mut state) % 4) as usize];
            for band in [None, Some(1), Some(4)] {
                assert_decide_matches(&s, &q, DtwKind::MaxAbs, eps, band);
            }
        }
    }

    #[test]
    fn kernel_budget_trip_matches_reference() {
        use std::sync::Arc;
        let s = pseudo_seq(19, 5);
        let q = pseudo_seq(11, 7);
        let full_cells = (s.len() * q.len()) as u64;
        for kind in KINDS {
            for budget in [1u64, 10, 33, 80, full_cells, full_cells + 1] {
                let mk = || {
                    CancelToken::builder(Arc::new(crate::govern::SystemClock::new()))
                        .max_cells(budget)
                        .build()
                };
                let got = dtw_decide(&s, &q, kind, 1e9, None, true, &mk());
                let want = reference_decide(&s, &q, kind, 1e9, &mk());
                assert_eq!(got.cells, want.cells, "{kind:?} budget={budget}");
                assert_eq!(got.cancelled, want.cancelled, "{kind:?} budget={budget}");
                assert_eq!(
                    got.within.map(f64::to_bits),
                    want.within.map(f64::to_bits),
                    "{kind:?} budget={budget}"
                );
            }
        }
    }

    #[test]
    fn kernel_ledger_counts_exactly_the_cells_it_computes() {
        use std::cell::Cell;
        use std::sync::Arc;
        let calls = Cell::new(0u64);
        let step = |gap: f64, best: f64| {
            calls.set(calls.get() + 1);
            gap.abs().max(best)
        };
        let unlimited = CancelToken::unlimited();
        // Lengths straddle 8, so a kernel that computes several steps ahead
        // of its cutoff check cannot hide the surplus in the ledger.
        for n in [7usize, 8, 9, 17] {
            for m in [3usize, 8, 13] {
                let s = pseudo_seq(n, 3);
                let q = pseudo_seq(m, 11);
                let full = n.max(m);
                // Values stay within ~20, so the cutoff below never fires
                // until `s` jumps away from `q` at step 6.
                let jumps: Vec<f64> = (0..n)
                    .map(|i| s[i] + if i >= 5 { 1e3 } else { 0.0 })
                    .collect();
                let budget = CancelToken::builder(Arc::new(crate::govern::SystemClock::new()))
                    .max_cells(3 * m as u64 + 1)
                    .build();
                let counted = |run: &dyn Fn() -> DtwOutcome| {
                    let before = calls.get();
                    let out = run();
                    (calls.get() - before, out)
                };

                let (computed, out) =
                    counted(&|| kernel::<false>(&s, &q, full, f64::INFINITY, &unlimited, step));
                assert_eq!(computed, out.cells, "complete n={n} m={m}");
                assert_eq!(out.cells, (n * m) as u64, "complete n={n} m={m}");

                let (computed, out) =
                    counted(&|| kernel::<true>(&jumps, &q, full, 50.0, &unlimited, step));
                assert_eq!(computed, out.cells, "abandoned n={n} m={m}");
                assert!(out.early_abandoned, "abandoned n={n} m={m}");
                assert_eq!(out.cells, 6 * m as u64, "abandoned n={n} m={m}");

                let (computed, out) =
                    counted(&|| kernel::<false>(&s, &q, full, f64::INFINITY, &budget, step));
                assert_eq!(computed, out.cells, "cancelled n={n} m={m}");
                assert!(out.cancelled, "cancelled n={n} m={m}");
                assert_eq!(out.cells, 4 * m as u64, "cancelled n={n} m={m}");

                let (computed, out) =
                    counted(&|| kernel::<false>(&s, &q, 1, f64::INFINITY, &unlimited, step));
                assert_eq!(computed, out.cells, "banded n={n} m={m}");
                assert!(out.within.is_some(), "banded n={n} m={m}");
            }
        }
    }

    #[test]
    fn triangular_inequality_fails_for_dtw() {
        // The premise of the whole paper (Yi et al.'s observation): D_tw is
        // not a metric. Classic witness with repeated elements.
        let x = [0.0];
        let y = [0.0, 2.0];
        let z = [2.0, 2.0, 2.0];
        let k = DtwKind::SumAbs;
        let xz = dtw(&x, &z, k).distance; // 6 (0 maps to all three 2s)
        let xy = dtw(&x, &y, k).distance; // 2
        let yz = dtw(&y, &z, k).distance; // 2
        assert!(xz > xy + yz + 1e-12, "{xz} <= {xy} + {yz}");
    }
}
