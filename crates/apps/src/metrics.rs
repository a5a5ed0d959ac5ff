//! Evaluation metrics (paper §VI, "Metrics").
//!
//! * Heavy-output probability (HOP) for Quantum Volume,
//! * cross-entropy difference (XED) for QAOA,
//! * linear cross-entropy benchmarking (XEB) fidelity for Fermi–Hubbard,
//! * success rate for QFT.
//!
//! Higher is better for all four.

use sim::Counts;

/// Probability floor used when a measured outcome has (numerically) zero ideal
/// probability, so cross-entropy terms stay finite.
const PROB_FLOOR: f64 = 1e-12;

/// Heavy-output probability: the fraction of measured shots that landed on a
/// "heavy" output, i.e. a basis state whose *ideal* probability exceeds the
/// median ideal probability. A set of qubits passes the Quantum Volume test
/// when the average HOP across circuits exceeds 2/3.
///
/// # Panics
/// Panics if `ideal_probabilities` is empty or its length does not cover the
/// measured outcomes.
pub fn heavy_output_probability(counts: &Counts, ideal_probabilities: &[f64]) -> f64 {
    assert!(
        !ideal_probabilities.is_empty(),
        "ideal distribution must not be empty"
    );
    let median = median(ideal_probabilities);
    let total = counts.total();
    if total == 0 {
        return 0.0;
    }
    let mut heavy_shots = 0usize;
    for (idx, count) in counts.iter() {
        assert!(
            idx < ideal_probabilities.len(),
            "outcome outside ideal distribution"
        );
        if ideal_probabilities[idx] > median {
            heavy_shots += count;
        }
    }
    heavy_shots as f64 / total as f64
}

/// Cross-entropy difference (Boixo et al.): measures how much closer the
/// sampled distribution is to the ideal one than uniform sampling is.
///
/// `XED = (H(uniform, ideal) − H(measured, ideal)) / (H(uniform, ideal) − H(ideal, ideal))`
///
/// where `H(q, p) = −Σ_x q(x) log p(x)`. The value is ≈1 when sampling from the
/// ideal distribution and ≈0 when sampling uniformly.
pub fn cross_entropy_difference(counts: &Counts, ideal_probabilities: &[f64]) -> f64 {
    let d = ideal_probabilities.len() as f64;
    assert!(d > 0.0, "ideal distribution must not be empty");
    // Cross entropy of the uniform distribution against the ideal.
    let h_uniform: f64 = ideal_probabilities
        .iter()
        .map(|&p| -(1.0 / d) * p.max(PROB_FLOOR).ln())
        .sum();
    // Self entropy of the ideal distribution.
    let h_ideal: f64 = ideal_probabilities
        .iter()
        .map(|&p| if p > PROB_FLOOR { -p * p.ln() } else { 0.0 })
        .sum();
    // Empirical cross entropy of the measured samples against the ideal.
    let total = counts.total();
    if total == 0 {
        return 0.0;
    }
    let h_measured: f64 = counts
        .iter()
        .map(|(idx, count)| {
            let p = ideal_probabilities
                .get(idx)
                .copied()
                .unwrap_or(0.0)
                .max(PROB_FLOOR);
            -(count as f64 / total as f64) * p.ln()
        })
        .sum();
    let denom = h_uniform - h_ideal;
    if denom.abs() < 1e-15 {
        // The ideal distribution *is* uniform (e.g. plain QFT on |0..0>); the
        // metric is undefined, return 0 by convention.
        return 0.0;
    }
    (h_uniform - h_measured) / denom
}

/// Linear cross-entropy benchmarking fidelity, normalized against the ideal
/// distribution's own self-overlap:
///
/// `F_XEB = (D · ⟨p_ideal(x)⟩_measured − 1) / (D · Σ_x p_ideal(x)² − 1)`
///
/// which is 1 for ideal sampling and 0 for uniform sampling. The
/// normalization matters for structured circuits (e.g. Fermi–Hubbard) whose
/// ideal distributions are far from the Porter–Thomas form assumed by the
/// unnormalized estimator; for fully scrambled random circuits the denominator
/// is ≈1 and the two definitions coincide.
pub fn linear_xeb_fidelity(counts: &Counts, ideal_probabilities: &[f64]) -> f64 {
    let d = ideal_probabilities.len() as f64;
    let total = counts.total();
    if total == 0 {
        return 0.0;
    }
    let mean_p: f64 = counts
        .iter()
        .map(|(idx, count)| ideal_probabilities.get(idx).copied().unwrap_or(0.0) * count as f64)
        .sum::<f64>()
        / total as f64;
    let numerator = d * mean_p - 1.0;
    let denominator = d * ideal_probabilities.iter().map(|p| p * p).sum::<f64>() - 1.0;
    if denominator.abs() < 1e-12 {
        // The ideal distribution is uniform; the estimator carries no signal.
        return 0.0;
    }
    numerator / denominator
}

/// Success rate: the fraction of shots that returned the expected basis state.
pub fn success_rate(counts: &Counts, expected_outcome: usize) -> f64 {
    counts.probability(expected_outcome)
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{qaoa_circuit, qv_circuit};
    use qmath::RngSeed;
    use sim::{ExecutionEngine, NoiseModel, SimJob, StateVector};

    fn ideal_counts(circuit: &circuit::Circuit, shots: usize, seed: RngSeed) -> Counts {
        ExecutionEngine::new()
            .run_job(&SimJob::ideal(circuit.clone(), shots, seed))
            .counts
    }

    fn uniform_counts(num_qubits: usize, shots_per_state: usize) -> Counts {
        let mut counts = Counts::new(num_qubits);
        for idx in 0..(1 << num_qubits) {
            for _ in 0..shots_per_state {
                counts.record(idx);
            }
        }
        counts
    }

    #[test]
    fn hop_of_ideal_sampling_exceeds_two_thirds() {
        // Sampling a QV circuit ideally gives HOP ≈ 0.85 asymptotically.
        let c = qv_circuit(4, RngSeed(1));
        let ideal = StateVector::evolve(&c).probabilities();
        let counts = ideal_counts(&c, 4000, RngSeed(2));
        let hop = heavy_output_probability(&counts, &ideal);
        assert!(hop > 2.0 / 3.0, "hop = {hop}");
    }

    #[test]
    fn hop_of_uniform_sampling_is_one_half() {
        let c = qv_circuit(4, RngSeed(3));
        let ideal = StateVector::evolve(&c).probabilities();
        let counts = uniform_counts(4, 10);
        let hop = heavy_output_probability(&counts, &ideal);
        assert!((hop - 0.5).abs() < 0.1, "hop = {hop}");
    }

    #[test]
    fn xed_is_one_for_ideal_and_zero_for_uniform() {
        let c = qaoa_circuit(4, RngSeed(4));
        let ideal = StateVector::evolve(&c).probabilities();
        let good = ideal_counts(&c, 20000, RngSeed(5));
        let xed_good = cross_entropy_difference(&good, &ideal);
        assert!(xed_good > 0.9, "xed = {xed_good}");
        let uniform = uniform_counts(4, 100);
        let xed_uniform = cross_entropy_difference(&uniform, &ideal);
        assert!(xed_uniform.abs() < 0.1, "xed = {xed_uniform}");
    }

    #[test]
    fn xeb_is_one_for_ideal_and_zero_for_uniform() {
        let c = qv_circuit(4, RngSeed(6));
        let ideal = StateVector::evolve(&c).probabilities();
        let good = ideal_counts(&c, 20000, RngSeed(7));
        let xeb = linear_xeb_fidelity(&good, &ideal);
        // With the self-overlap normalization, ideal sampling scores ≈1
        // regardless of how scrambled the circuit's distribution is.
        assert!((xeb - 1.0).abs() < 0.15, "xeb = {xeb}");
        let uniform = uniform_counts(4, 100);
        let xeb_uniform = linear_xeb_fidelity(&uniform, &ideal);
        assert!(xeb_uniform.abs() < 0.05, "xeb = {xeb_uniform}");
    }

    #[test]
    fn noise_reduces_every_metric() {
        // Clean and noisy runs of the same circuit as one engine batch.
        let c = qv_circuit(3, RngSeed(8));
        let ideal = StateVector::evolve(&c).probabilities();
        let device = device::DeviceModel::ideal(3, 0.93);
        let mut nm = NoiseModel::from_device(&device);
        nm.with_readout_error = false;
        let mut results = ExecutionEngine::new().run_batch(&[
            SimJob::ideal(c.clone(), 5000, RngSeed(9)),
            SimJob::noisy(c, nm, 2000, RngSeed(10)),
        ]);
        let noisy = results.pop().expect("noisy job ran").counts;
        let clean = results.pop().expect("ideal job ran").counts;
        assert!(
            heavy_output_probability(&noisy, &ideal) < heavy_output_probability(&clean, &ideal)
        );
        assert!(linear_xeb_fidelity(&noisy, &ideal) < linear_xeb_fidelity(&clean, &ideal));
        assert!(
            cross_entropy_difference(&noisy, &ideal) < cross_entropy_difference(&clean, &ideal)
        );
    }

    #[test]
    fn success_rate_counts_expected_outcome() {
        let mut counts = Counts::new(2);
        for _ in 0..70 {
            counts.record(2);
        }
        for _ in 0..30 {
            counts.record(1);
        }
        assert!((success_rate(&counts, 2) - 0.7).abs() < 1e-12);
        assert!((success_rate(&counts, 0) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn xed_handles_uniform_ideal_distribution() {
        // QFT on |0..0> has a uniform ideal distribution; XED is defined as 0.
        let ideal = vec![0.125; 8];
        let counts = uniform_counts(3, 10);
        assert_eq!(cross_entropy_difference(&counts, &ideal), 0.0);
    }

    #[test]
    fn median_even_and_odd() {
        assert!((median(&[3.0, 1.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((median(&[4.0, 1.0, 2.0, 3.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn empty_counts_give_zero_metrics() {
        let counts = Counts::new(2);
        let ideal = vec![0.25; 4];
        assert_eq!(heavy_output_probability(&counts, &ideal), 0.0);
        assert_eq!(cross_entropy_difference(&counts, &ideal), 0.0);
        assert_eq!(linear_xeb_fidelity(&counts, &ideal), 0.0);
    }
}
