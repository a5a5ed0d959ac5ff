//! Statistical validation of empirical count distributions.
//!
//! `FusionPolicy::Aggressive` changes the RNG stream, so its counts cannot be
//! compared bit-for-bit against a `Safe` run — the two lowerings are equal *in
//! distribution*, not per shot. This module provides the statistical
//! replacement for the bit-identity check: a neutral two-sample view
//! ([`DistributionArtifact`]) and the `fusion/tvd-bound` rule, run by
//! [`Verifier::statistical`](crate::Verifier::statistical), which tests the
//! empirical total-variation distance between the two count histograms
//! against an analytic concentration bound.
//!
//! # The bound
//!
//! For `N` iid samples of a distribution over `d` outcomes, the empirical
//! distribution `p̂` satisfies `E‖p̂ − p‖₁ ≤ √(d/N)` (Cauchy–Schwarz over the
//! per-outcome variances), and `‖p̂ − p‖₁` concentrates around its mean with
//! sub-Gaussian tail `exp(−N ε²/2)` (McDiarmid; each sample moves the norm by
//! at most `2/N`). With probability at least `1 − δ` a two-sample TVD
//! therefore obeys
//!
//! ```text
//! TVD(p̂, q̂) ≤ ½·[ √(d/Nₐ) + √(d/N_b)
//!               + √(2·ln(2/δ)/Nₐ) + √(2·ln(2/δ)/N_b) ]
//! ```
//!
//! when `p = q`. The full-dimension bound is only sharp with `N ≳ d` samples,
//! so the rule always checks every per-qubit *marginal* (`d = 2`, with a
//! union bound over qubits) and adds the full-distribution check only when
//! enough samples are available.

use crate::diagnostic::Diagnostic;

/// Confidence level `1 − δ` of the `fusion/tvd-bound` rule's analytic bound
/// (the probability that two same-distribution samples stay within it).
const TVD_CONFIDENCE: f64 = 0.999_999;

/// Two empirical count histograms over the same register that are claimed to
/// be drawn from the same distribution.
///
/// Counts are `(basis_index, count)` pairs (any order, indices need not be
/// exhaustive); `num_qubits` fixes the outcome space at `2^num_qubits`.
#[derive(Debug, Clone, Copy)]
pub struct DistributionArtifact<'a> {
    /// Register width in qubits; outcomes live in `0..2^num_qubits`.
    pub num_qubits: usize,
    /// Human-readable origin of the first sample (e.g. `"safe"`).
    pub label_a: &'a str,
    /// Human-readable origin of the second sample (e.g. `"aggressive"`).
    pub label_b: &'a str,
    /// First sample's `(basis_index, count)` histogram.
    pub counts_a: &'a [(usize, usize)],
    /// Second sample's `(basis_index, count)` histogram.
    pub counts_b: &'a [(usize, usize)],
}

/// Total shots in a histogram.
fn total(counts: &[(usize, usize)]) -> usize {
    counts.iter().map(|(_, c)| c).sum()
}

/// Empirical total-variation distance between two count histograms:
/// `½ Σ_x |p̂(x) − q̂(x)|`, over the union of observed outcomes.
///
/// Returns 0.0 when either histogram is empty (no evidence of divergence).
pub fn two_sample_tvd(counts_a: &[(usize, usize)], counts_b: &[(usize, usize)]) -> f64 {
    let (na, nb) = (total(counts_a), total(counts_b));
    if na == 0 || nb == 0 {
        return 0.0;
    }
    let mut diff = std::collections::BTreeMap::new();
    for &(idx, c) in counts_a {
        *diff.entry(idx).or_insert(0.0) += c as f64 / na as f64;
    }
    for &(idx, c) in counts_b {
        *diff.entry(idx).or_insert(0.0) -= c as f64 / nb as f64;
    }
    diff.values().map(|d| d.abs()).sum::<f64>() / 2.0
}

/// The analytic high-probability bound on the two-sample TVD of two empirical
/// distributions over `dim` outcomes drawn from the *same* source: with
/// probability at least `1 − delta`,
/// `TVD ≤ ½[√(dim/nₐ) + √(dim/n_b) + √(2 ln(2/δ)/nₐ) + √(2 ln(2/δ)/n_b)]`.
pub fn tvd_bound(dim: usize, samples_a: usize, samples_b: usize, delta: f64) -> f64 {
    let (na, nb) = (samples_a.max(1) as f64, samples_b.max(1) as f64);
    let d = dim as f64;
    let tail = (2.0 * (2.0 / delta).ln()).max(0.0);
    0.5 * ((d / na).sqrt() + (d / nb).sqrt() + (tail / na).sqrt() + (tail / nb).sqrt())
}

/// Per-qubit marginal probabilities of measuring `1`, big-endian (qubit 0 is
/// the most significant bit of the basis index).
pub fn marginal_probabilities(num_qubits: usize, counts: &[(usize, usize)]) -> Vec<f64> {
    let shots = total(counts);
    let mut ones = vec![0usize; num_qubits];
    for &(idx, c) in counts {
        for (q, slot) in ones.iter_mut().enumerate() {
            if (idx >> (num_qubits - 1 - q)) & 1 == 1 {
                *slot += c;
            }
        }
    }
    ones.into_iter()
        .map(|c| {
            if shots == 0 {
                0.0
            } else {
                c as f64 / shots as f64
            }
        })
        .collect()
}

/// Sample budget ratio required before the full-dimension TVD check is sharp
/// enough to be meaningful: `min(Nₐ, N_b) ≥ FULL_CHECK_SAMPLE_FACTOR · 2^n`.
const FULL_CHECK_SAMPLE_FACTOR: usize = 4;

/// `fusion/tvd-bound`, the one statistical rule: two count histograms that
/// are claimed to share a distribution stay within the analytic TVD bound.
///
/// Always checks every per-qubit marginal (`d = 2`, union bound over qubits);
/// additionally checks the full `2^n`-outcome distribution when both samples
/// have at least `FULL_CHECK_SAMPLE_FACTOR·2^n` shots. When every check
/// passes, an info finding reports the measured distances so harnesses can
/// log distance-vs-bound.
pub(crate) fn check(art: &DistributionArtifact<'_>) -> Vec<Diagnostic> {
    const ID: &str = "fusion/tvd-bound";
    let mut out = Vec::new();
    let (na, nb) = (total(art.counts_a), total(art.counts_b));
    if na == 0 || nb == 0 || art.num_qubits == 0 {
        out.push(Diagnostic::info(
            ID,
            format!(
                "TVD check skipped: empty sample ({} has {na} shots, {} has {nb})",
                art.label_a, art.label_b
            ),
        ));
        return out;
    }
    let delta = (1.0 - TVD_CONFIDENCE).max(f64::MIN_POSITIVE);
    let mut failed = false;

    // Per-qubit marginals: d = 2, δ split across qubits (union bound).
    let marginal_delta = delta / art.num_qubits as f64;
    let marginal_limit = tvd_bound(2, na, nb, marginal_delta);
    let ma = marginal_probabilities(art.num_qubits, art.counts_a);
    let mb = marginal_probabilities(art.num_qubits, art.counts_b);
    let mut worst_marginal = 0.0f64;
    for (q, (pa, pb)) in ma.iter().zip(&mb).enumerate() {
        let dist = (pa - pb).abs();
        worst_marginal = worst_marginal.max(dist);
        if dist > marginal_limit {
            failed = true;
            out.push(Diagnostic::error(
                ID,
                format!(
                    "qubit {q} marginal diverges: |{pa:.4} − {pb:.4}| = {dist:.4} exceeds \
                     the {marginal_limit:.4} bound ({} {na} shots vs {} {nb} shots)",
                    art.label_a, art.label_b
                ),
            ));
        }
    }

    // Full-distribution check only when the samples can resolve it.
    let dim = 1usize
        .checked_shl(art.num_qubits as u32)
        .unwrap_or(usize::MAX);
    let full = if dim
        .checked_mul(FULL_CHECK_SAMPLE_FACTOR)
        .is_some_and(|needed| na.min(nb) >= needed)
    {
        let measured = two_sample_tvd(art.counts_a, art.counts_b);
        let limit = tvd_bound(dim, na, nb, delta);
        if measured > limit {
            failed = true;
            out.push(Diagnostic::error(
                ID,
                format!(
                    "full-distribution TVD {measured:.4} exceeds the {limit:.4} bound \
                     ({} {na} shots vs {} {nb} shots over {dim} outcomes)",
                    art.label_a, art.label_b
                ),
            ));
        }
        Some((measured, limit))
    } else {
        None
    };

    if !failed {
        let full_part = match full {
            Some((measured, limit)) => {
                format!("; full TVD {measured:.4} within {limit:.4}")
            }
            None => format!(
                "; full-distribution check skipped ({} shots < {FULL_CHECK_SAMPLE_FACTOR}×{dim})",
                na.min(nb)
            ),
        };
        out.push(Diagnostic::info(
            ID,
            format!(
                "{} and {} agree: worst marginal distance {worst_marginal:.4} within \
                 {marginal_limit:.4}{full_part}",
                art.label_a, art.label_b
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{Artifact, Verifier};
    use crate::Severity;

    fn run(art: &DistributionArtifact<'_>) -> crate::VerifyReport {
        Verifier::statistical().run(&Artifact::Distributions(art))
    }

    #[test]
    fn identical_histograms_pass_with_an_info_summary() {
        let counts = [(0usize, 500usize), (3, 500)];
        let art = DistributionArtifact {
            num_qubits: 2,
            label_a: "safe",
            label_b: "aggressive",
            counts_a: &counts,
            counts_b: &counts,
        };
        let report = run(&art);
        assert!(!report.has_errors(), "{report:?}");
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.severity() == Severity::Info && d.message().contains("agree")));
    }

    #[test]
    fn small_sampling_noise_stays_within_the_bound() {
        // Two samples of the same Bell distribution with realistic noise.
        let a = [(0usize, 1020usize), (3, 980)];
        let b = [(0usize, 968usize), (3, 1032)];
        let art = DistributionArtifact {
            num_qubits: 2,
            label_a: "safe",
            label_b: "aggressive",
            counts_a: &a,
            counts_b: &b,
        };
        assert!(!run(&art).has_errors());
    }

    #[test]
    fn grossly_different_distributions_fail() {
        let a = [(0usize, 2000usize)];
        let b = [(3usize, 2000usize)];
        let art = DistributionArtifact {
            num_qubits: 2,
            label_a: "safe",
            label_b: "aggressive",
            counts_a: &a,
            counts_b: &b,
        };
        let report = run(&art);
        assert!(report.has_errors());
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.rule() == "fusion/tvd-bound" && d.severity() == Severity::Error));
    }

    #[test]
    fn empty_samples_are_an_info_skip() {
        let a: [(usize, usize); 0] = [];
        let b = [(0usize, 10usize)];
        let art = DistributionArtifact {
            num_qubits: 2,
            label_a: "safe",
            label_b: "aggressive",
            counts_a: &a,
            counts_b: &b,
        };
        let report = run(&art);
        assert!(!report.has_errors());
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.message().contains("skipped")));
    }

    #[test]
    fn tvd_helpers_are_consistent() {
        let a = [(0usize, 50usize), (1, 50)];
        let b = [(0usize, 100usize)];
        // p = (.5, .5), q = (1, 0) → TVD = .5
        assert!((two_sample_tvd(&a, &b) - 0.5).abs() < 1e-12);
        assert_eq!(two_sample_tvd(&a, &a), 0.0);
        // The bound shrinks with more samples and grows with dimension.
        assert!(tvd_bound(2, 10_000, 10_000, 1e-6) < tvd_bound(2, 100, 100, 1e-6));
        assert!(tvd_bound(2, 1000, 1000, 1e-6) < tvd_bound(1024, 1000, 1000, 1e-6));
        // Marginals: indices are big-endian.
        let m = marginal_probabilities(2, &[(0b10, 3), (0b00, 1)]);
        assert!((m[0] - 0.75).abs() < 1e-12);
        assert_eq!(m[1], 0.0);
    }
}
