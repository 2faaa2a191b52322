//! Global-constraint (Sakoe–Chiba band) time warping.
//!
//! An extension beyond the paper: constraining the warping path to a band of
//! half-width `w` around the (length-normalized) diagonal cuts the DP cost
//! from `|S|·|Q|` to roughly `(|S|+|Q|)·w` and is standard practice in later
//! DTW literature (the UCR suite, LB_Keogh). The banded distance
//! upper-bounds the unconstrained one, so using it in the *post-filtering*
//! step keeps the no-false-alarm side intact while it may dismiss matches the
//! unconstrained distance would accept — the trade-off is measured by the
//! harness ablations.
//!
//! The banded DP is the distance module's one kernel (see `dtw.rs`) run with
//! `s` driving the steps and `q` in the row buffers; governed, abandonable
//! banded decisions go through [`super::dtw_decide`] with `band = Some(w)`.

use super::dtw::complete_dp;
use super::{DtwKind, DtwResult};

/// Half-width that makes a band cover fraction `r` (0..=1) of the longer
/// sequence, the conventional way band sizes are quoted (e.g. "10% band").
pub fn sakoe_chiba_width(s_len: usize, q_len: usize, r: f64) -> usize {
    assert!((0.0..=1.0).contains(&r), "band fraction must be in [0,1]");
    let base = s_len.max(q_len) as f64;
    (base * r).ceil() as usize
}

/// Time-warping distance constrained to a Sakoe–Chiba band of half-width `w`
/// around the length-normalized diagonal.
///
/// With `w >= max(|S|, |Q|)` the result equals the unconstrained distance.
/// Returns `+∞` when the band admits no complete path (never happens for
/// `w >= 1` because the normalized diagonal itself is always admitted).
pub fn dtw_banded(s: &[f64], q: &[f64], kind: DtwKind, w: usize) -> DtwResult {
    complete_dp(s, q, kind, w)
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // Tests assert exact float round-trips and identities on purpose.
mod tests {
    use super::super::dtw;
    use super::*;

    const KINDS: [DtwKind; 3] = [DtwKind::SumAbs, DtwKind::SumSquared, DtwKind::MaxAbs];

    #[test]
    fn full_band_equals_unconstrained() {
        let s: Vec<f64> = (0..40).map(|i| (i as f64 * 0.2).sin() * 3.0).collect();
        let q: Vec<f64> = (0..30).map(|i| (i as f64 * 0.25).cos() * 3.0).collect();
        for kind in KINDS {
            let full = dtw(&s, &q, kind);
            for w in [40, usize::MAX] {
                let banded = dtw_banded(&s, &q, kind, w);
                assert!(
                    (banded.distance - full.distance).abs() < 1e-9,
                    "{kind:?} w={w}: {banded:?} vs {full:?}"
                );
            }
        }
    }

    #[test]
    fn banded_upper_bounds_unconstrained() {
        let s: Vec<f64> = (0..50).map(|i| ((i * 7) % 13) as f64).collect();
        let q: Vec<f64> = (0..50).map(|i| ((i * 5) % 11) as f64).collect();
        for kind in KINDS {
            let full = dtw(&s, &q, kind).distance;
            for w in [1usize, 3, 10, 25] {
                let banded = dtw_banded(&s, &q, kind, w).distance;
                assert!(
                    banded >= full - 1e-9,
                    "{kind:?} w={w}: banded {banded} < full {full}"
                );
            }
        }
    }

    #[test]
    fn band_width_monotone() {
        let s: Vec<f64> = (0..60).map(|i| ((i * 3) % 17) as f64).collect();
        let q: Vec<f64> = (0..60).map(|i| ((i * 11) % 19) as f64).collect();
        let mut last = f64::INFINITY;
        for w in [1usize, 2, 5, 15, 60] {
            let d = dtw_banded(&s, &q, DtwKind::SumAbs, w).distance;
            assert!(d <= last + 1e-9, "w={w}: {d} > {last}");
            last = d;
        }
    }

    #[test]
    fn banded_costs_fewer_cells() {
        let s = vec![1.0; 200];
        let q = vec![1.0; 200];
        let narrow = dtw_banded(&s, &q, DtwKind::MaxAbs, 5);
        let full = dtw(&s, &q, DtwKind::MaxAbs);
        assert!(narrow.cells < full.cells / 5);
        assert_eq!(narrow.distance, 0.0);
    }

    #[test]
    fn different_lengths_band_widened_to_slope() {
        // Band smaller than the length gap must still produce a finite path.
        let s = vec![2.0; 30];
        let q = vec![2.0; 10];
        let d = dtw_banded(&s, &q, DtwKind::MaxAbs, 1);
        assert_eq!(d.distance, 0.0);
    }

    /// The pre-optimization kernel (full `cur.fill` per row), kept as a test
    /// oracle: the range-patching kernel must match it bit-for-bit on the
    /// distance and the cell ledger.
    fn reference_banded(s: &[f64], q: &[f64], kind: DtwKind, w: usize) -> (f64, u64) {
        let (n, m) = (s.len(), q.len());
        let w = w.max(n.abs_diff(m));
        let mut prev = vec![f64::INFINITY; m + 1];
        let mut cur = vec![f64::INFINITY; m + 1];
        if let Some(origin) = prev.first_mut() {
            *origin = 0.0;
        }
        let mut cells = 0u64;
        for (i, &sv) in s.iter().enumerate().map(|(i, sv)| (i + 1, sv)) {
            let center = i * m / n;
            let lo = center.saturating_sub(w).max(1);
            let hi = (center + w).min(m);
            cur.fill(f64::INFINITY);
            let mut left = f64::INFINITY;
            let mut up_left = prev.get(lo - 1).copied().unwrap_or(f64::INFINITY);
            let width = (hi + 1).saturating_sub(lo);
            let band = q
                .iter()
                .skip(lo - 1)
                .zip(prev.iter().skip(lo).zip(cur.iter_mut().skip(lo)))
                .take(width);
            for (qv, (up, cell)) in band {
                let gap = sv - qv;
                // Spelled with `f64::min`/`f64::max`, independent of the
                // kernel's compare-selects.
                let best = up.min(left).min(up_left);
                let val = match kind {
                    DtwKind::SumAbs => gap.abs() + best,
                    DtwKind::SumSquared => gap * gap + best,
                    DtwKind::MaxAbs => gap.abs().max(best),
                };
                *cell = val;
                up_left = *up;
                left = val;
                cells += 1;
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        (prev.last().copied().unwrap_or(f64::INFINITY), cells)
    }

    #[test]
    fn patched_kernel_matches_full_fill_reference_bit_for_bit() {
        let seq = |len: usize, salt: u64| -> Vec<f64> {
            (0..len)
                .map(|i| {
                    let x = (i as u64).wrapping_mul(2654435761).wrapping_add(salt);
                    ((x % 787) as f64) / 37.0 + (i as f64 * 0.21).cos()
                })
                .collect()
        };
        for &(n, m) in &[
            (1usize, 1usize),
            (5, 5),
            (12, 7),
            (7, 12),
            (30, 30),
            (40, 13),
        ] {
            let s = seq(n, 3);
            let q = seq(m, 101);
            for kind in KINDS {
                for w in [0usize, 1, 2, 5, 20, 60] {
                    let got = dtw_banded(&s, &q, kind, w);
                    let (want_raw, want_cells) = reference_banded(&s, &q, kind, w);
                    let want = match kind {
                        DtwKind::SumSquared if want_raw.is_finite() => want_raw.sqrt(),
                        _ => want_raw,
                    };
                    assert_eq!(
                        got.distance.to_bits(),
                        want.to_bits(),
                        "{kind:?} n={n} m={m} w={w}"
                    );
                    assert_eq!(got.cells, want_cells, "{kind:?} n={n} m={m} w={w}");
                }
            }
        }
    }

    #[test]
    fn width_helper() {
        assert_eq!(sakoe_chiba_width(100, 80, 0.1), 10);
        assert_eq!(sakoe_chiba_width(100, 80, 0.0), 0);
        assert_eq!(sakoe_chiba_width(55, 20, 1.0), 55);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(dtw_banded(&[], &[], DtwKind::MaxAbs, 3).distance, 0.0);
        assert_eq!(
            dtw_banded(&[1.0], &[], DtwKind::MaxAbs, 3).distance,
            f64::INFINITY
        );
    }
}
