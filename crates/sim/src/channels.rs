//! Noise channels in Kraus-operator form.
//!
//! All channels are expressed as a set of Kraus operators `{K_i}` with
//! `Σ K_i† K_i = I`. The trajectory simulator samples one operator per
//! application with probability `‖K_i|ψ⟩‖²` and renormalizes, which reproduces
//! the channel exactly in expectation.
//!
//! # Sampling a branch without probing the state
//!
//! `‖K_i|ψ⟩‖² = Tr(K_i† K_i ρ)`, where `ρ` is the 2×2 or 4×4 reduced density
//! matrix of the channel's qubits, so a branch can be picked from `ρ` alone.
//! On registers of at least
//! [`FOLD_MIN_QUBITS`](crate::precompiled::FOLD_MIN_QUBITS) qubits the
//! trajectory folds each maximal run of kernels and channels on one qubit
//! pair into one step (see [`crate::precompiled`]): one read pass takes `ρ₀`
//! of the pair (only when some channel's probabilities depend on the state),
//! then for each channel in order one uniform draw picks branch `i` with
//! `p_i = Tr(K_i†K_i ρ)/Tr ρ` (mixtures by their fixed weights), where
//! `ρ = M ρ₀ M†` is `ρ₀` carried through the kernels and branches folded so
//! far, and `M ← A·M` with `A = K_i/√p_i` (a kernel `U` folds in as
//! `M ← U·M`). One amplitude sweep then applies `M`. That is at most two
//! passes over the amplitudes per run, where probing clones the state,
//! sweeps and takes a norm for every operator tried. Below the threshold the
//! per-channel probe loop is cheaper (the small-matrix arithmetic outweighs a
//! sweep of a few dozen amplitudes) and runs instead.
//!
//! Operators are stored as stack-allocated [`SmallMat`]s: a channel is generic
//! over its qubit dimension (`KrausChannel<2>` for single-qubit channels,
//! `KrausChannel<4>` for two-qubit ones), so sampling and applying Kraus
//! operators in the trajectory inner loop never allocates per operator.

use circuit::QubitId;
use qmath::{Complex, Mat2, Mat4, SmallMat};
use serde::{Deserialize, Serialize};

/// One branch of a probabilistic unitary mixture: with probability `weight`,
/// apply `apply` (the identity when `None`).
///
/// Channels whose Kraus operators are all scaled unitaries (`K† K = λ I`) —
/// depolarizing and pure-dephasing channels, and their compositions and
/// unitary conjugations — admit a much cheaper trajectory step: the branch
/// probabilities are state-independent, so one RNG draw picks a branch and a
/// single in-place unitary applies it, with no probe clone or renormalization.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct UnitaryMixTerm<const N: usize> {
    /// Probability of this branch; the weights of a mixture sum to 1.
    pub weight: f64,
    /// The unitary applied on this branch, or `None` for the identity.
    pub apply: Option<SmallMat<N>>,
}

/// Detects whether every Kraus operator is a scaled unitary (`K† K = λ I`)
/// and, if so, returns the equivalent probability-weighted unitary mixture.
/// Exactly-zero operators become probability-zero branches and are dropped.
fn detect_unitary_mix<const N: usize>(operators: &[SmallMat<N>]) -> Option<Vec<UnitaryMixTerm<N>>> {
    let mut terms = Vec::with_capacity(operators.len());
    for k in operators {
        let gram = k.dagger() * *k;
        let lambda = gram.trace().re / N as f64;
        if lambda <= 1e-24 {
            continue;
        }
        let scaled_identity = SmallMat::<N>::identity().scale(lambda);
        if gram.max_abs_diff(&scaled_identity) > 1e-12 * lambda.max(1.0) {
            return None;
        }
        let u = k.scale(1.0 / lambda.sqrt());
        let apply = if u.approx_eq(&SmallMat::<N>::identity(), 1e-12) {
            None
        } else {
            Some(u)
        };
        terms.push(UnitaryMixTerm {
            weight: lambda,
            apply,
        });
    }
    if terms.is_empty() {
        None
    } else {
        Some(terms)
    }
}

/// A quantum channel as a list of `N`×`N` Kraus operators.
///
/// `N` is 2 for single-qubit channels and 4 for two-qubit channels; the
/// [`Kraus1q`] / [`Kraus2q`] aliases name those instantiations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KrausChannel<const N: usize> {
    operators: Vec<SmallMat<N>>,
    /// Cached scaled-unitary decomposition, recomputed on construction.
    unitary_mix: Option<Vec<UnitaryMixTerm<N>>>,
}

/// A single-qubit (2×2) Kraus channel.
pub type Kraus1q = KrausChannel<2>;

/// A two-qubit (4×4) Kraus channel.
pub type Kraus2q = KrausChannel<4>;

/// A Kraus channel placed on the qubits it acts on.
///
/// [`crate::NoiseModel::noise_for`] returns an op's channels as a list of
/// these, and each lowered op ([`crate::PrecompiledOp`]) holds one list in
/// the order a trajectory applies it. A fused op can carry a channel
/// narrower than its kernel (a 1Q gate's noise after it is absorbed into a
/// 2Q kernel), so every channel names its own qubits.
#[derive(Debug, Clone, PartialEq)]
pub enum AttachedChannel {
    /// A single-qubit channel.
    One {
        /// The Kraus channel.
        channel: Kraus1q,
        /// The qubit it acts on.
        qubit: QubitId,
    },
    /// A two-qubit channel (`q0` is the most significant qubit).
    Two {
        /// The Kraus channel.
        channel: Kraus2q,
        /// First (most significant) qubit.
        q0: QubitId,
        /// Second qubit.
        q1: QubitId,
    },
}

impl AttachedChannel {
    /// True when the channel consumes no randomness when applied.
    pub fn is_identity(&self) -> bool {
        match self {
            AttachedChannel::One { channel, .. } => channel.is_identity(),
            AttachedChannel::Two { channel, .. } => channel.is_identity(),
        }
    }

    /// The qubits the channel acts on (`None` in the second slot for a
    /// single-qubit channel).
    pub(crate) fn qubits(&self) -> (QubitId, Option<QubitId>) {
        match *self {
            AttachedChannel::One { qubit, .. } => (qubit, None),
            AttachedChannel::Two { q0, q1, .. } => (q0, Some(q1)),
        }
    }
}

impl<const N: usize> KrausChannel<N> {
    /// Creates a channel, checking the completeness relation `Σ K† K = I`.
    ///
    /// # Panics
    /// Panics if the operator list is empty or the completeness relation is
    /// violated beyond `1e-6`.
    pub fn new(operators: Vec<SmallMat<N>>) -> Self {
        assert!(
            !operators.is_empty(),
            "a channel needs at least one Kraus operator"
        );
        let mut sum = SmallMat::<N>::zeros();
        for k in &operators {
            sum = sum + k.dagger() * *k;
        }
        assert!(
            sum.approx_eq(&SmallMat::<N>::identity(), 1e-6),
            "Kraus operators do not satisfy the completeness relation"
        );
        let unitary_mix = detect_unitary_mix(&operators);
        KrausChannel {
            operators,
            unitary_mix,
        }
    }

    /// The identity channel.
    pub fn identity() -> Self {
        let operators = vec![SmallMat::identity()];
        let unitary_mix = detect_unitary_mix(&operators);
        KrausChannel {
            operators,
            unitary_mix,
        }
    }

    /// The Kraus operators.
    pub fn operators(&self) -> &[SmallMat<N>] {
        &self.operators
    }

    /// Operator dimension (2 for single-qubit channels, 4 for two-qubit).
    pub fn dim(&self) -> usize {
        N
    }

    /// True when this is (numerically) the identity channel.
    pub fn is_identity(&self) -> bool {
        self.operators.len() == 1 && self.operators[0].approx_eq(&SmallMat::<N>::identity(), 1e-12)
    }

    /// Composes two channels acting on the same space: `other ∘ self`.
    ///
    /// Exactly-zero operator products (probability-zero branches, common when
    /// one factor came from a zero-strength noise parameter) are pruned, so
    /// composing identity-in-effect channels stays cheap under fusion.
    pub fn then(&self, other: &KrausChannel<N>) -> KrausChannel<N> {
        let mut ops = Vec::with_capacity(self.operators.len() * other.operators.len());
        for a in &other.operators {
            for b in &self.operators {
                let prod = *a * *b;
                if prod.frobenius_norm() == 0.0 {
                    continue;
                }
                ops.push(prod);
            }
        }
        KrausChannel::new(ops)
    }

    /// Conjugates the channel by a unitary, mapping each Kraus operator `K`
    /// to `U K U†`.
    ///
    /// This is the channel obtained by commuting this one past `U`: applying
    /// the channel and then `U` is, in distribution, the same as applying `U`
    /// and then the conjugated channel. Aggressive fusion uses this to carry
    /// noise channels across fused unitary kernels.
    pub fn conjugate_by(&self, u: &SmallMat<N>) -> KrausChannel<N> {
        let ud = u.dagger();
        KrausChannel::new(self.operators.iter().map(|k| *u * *k * ud).collect())
    }

    /// Scaled-unitary mixture view, when every operator satisfies `K†K = λI`.
    pub(crate) fn unitary_mix(&self) -> Option<&[UnitaryMixTerm<N>]> {
        self.unitary_mix.as_deref()
    }
}

impl Kraus1q {
    /// Embeds this single-qubit channel into two-qubit arity, acting on the
    /// most-significant tensor factor (`K ↦ K ⊗ I`).
    pub fn embed_msb(&self) -> Kraus2q {
        KrausChannel::new(
            self.operators
                .iter()
                .map(|k| k.kron(&Mat2::identity()))
                .collect(),
        )
    }

    /// Embeds this single-qubit channel into two-qubit arity, acting on the
    /// least-significant tensor factor (`K ↦ I ⊗ K`).
    pub fn embed_lsb(&self) -> Kraus2q {
        KrausChannel::new(
            self.operators
                .iter()
                .map(|k| Mat2::identity().kron(k))
                .collect(),
        )
    }
}

impl Kraus2q {
    /// Swaps the two tensor factors, re-expressing a channel on qubit pair
    /// `(a, b)` as the same physical channel on `(b, a)`.
    pub fn swap_factors(&self) -> Kraus2q {
        const PERM: [usize; 4] = [0, 2, 1, 3];
        KrausChannel::new(
            self.operators
                .iter()
                .map(|k| Mat4::from_fn(|r, c| k[(PERM[r], PERM[c])]))
                .collect(),
        )
    }
}

/// The single-qubit Pauli operators `{I, X, Y, Z}`.
pub fn pauli_basis_1q() -> [Mat2; 4] {
    [
        Mat2::identity(),
        gates::standard::x(),
        gates::standard::y(),
        gates::standard::z(),
    ]
}

fn depolarizing_ops<const N: usize>(paulis: Vec<SmallMat<N>>, p: f64) -> Vec<SmallMat<N>> {
    let num_error_terms = paulis.len() - 1;
    paulis
        .into_iter()
        .enumerate()
        .map(|(i, pauli)| {
            let weight = if i == 0 {
                (1.0 - p).sqrt()
            } else {
                (p / num_error_terms as f64).sqrt()
            };
            pauli.scale(weight)
        })
        .collect()
}

/// Single-qubit depolarizing channel with error probability `p`: with
/// probability `p` a uniformly random non-identity Pauli is applied.
///
/// # Panics
/// Panics if `p` is outside `[0, 1]`.
pub fn depolarizing_1q(p: f64) -> Kraus1q {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    KrausChannel::new(depolarizing_ops(pauli_basis_1q().to_vec(), p))
}

/// Two-qubit depolarizing channel with error probability `p` over the 15
/// non-identity two-qubit Paulis.
///
/// # Panics
/// Panics if `p` is outside `[0, 1]`.
pub fn depolarizing_2q(p: f64) -> Kraus2q {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    let singles = pauli_basis_1q();
    let mut paulis = Vec::with_capacity(16);
    for a in &singles {
        for b in &singles {
            paulis.push(a.kron(b));
        }
    }
    KrausChannel::new(depolarizing_ops(paulis, p))
}

/// Amplitude-damping channel with decay probability
/// `γ = 1 − exp(−t/T1)` for an operation of duration `t`.
pub fn amplitude_damping_kraus(gamma: f64) -> Kraus1q {
    assert!((0.0..=1.0).contains(&gamma), "gamma out of range");
    let k0 = Mat2::from_rows(&[
        Complex::ONE,
        Complex::ZERO,
        Complex::ZERO,
        Complex::from_real((1.0 - gamma).sqrt()),
    ]);
    let k1 = Mat2::from_rows(&[
        Complex::ZERO,
        Complex::from_real(gamma.sqrt()),
        Complex::ZERO,
        Complex::ZERO,
    ]);
    KrausChannel::new(vec![k0, k1])
}

/// Pure-dephasing channel with phase-flip probability `p`.
///
/// For an operation of duration `t` on a qubit with times `(T1, T2)`, the pure
/// dephasing rate is `1/Tφ = 1/T2 − 1/(2 T1)` and `p = (1 − exp(−t/Tφ)) / 2`.
pub fn dephasing_kraus(p: f64) -> Kraus1q {
    assert!(
        (0.0..=0.5 + 1e-12).contains(&p),
        "dephasing probability out of range"
    );
    let k0 = Mat2::identity().scale((1.0 - p).sqrt());
    let k1 = gates::standard::z().scale(p.sqrt());
    KrausChannel::new(vec![k0, k1])
}

/// The combined thermal-relaxation channel for an idle/gate window of
/// `duration_ns` on a qubit with `t1_us` / `t2_us`.
pub fn thermal_relaxation(duration_ns: f64, t1_us: f64, t2_us: f64) -> Kraus1q {
    assert!(
        duration_ns >= 0.0 && t1_us > 0.0 && t2_us > 0.0,
        "invalid relaxation parameters"
    );
    let t = duration_ns * 1e-3; // microseconds
    let gamma = 1.0 - (-t / t1_us).exp();
    // Pure dephasing rate; T2 <= 2 T1 physically, clamp otherwise.
    let inv_tphi = (1.0 / t2_us - 1.0 / (2.0 * t1_us)).max(0.0);
    let p_phi = 0.5 * (1.0 - (-t * inv_tphi).exp());
    amplitude_damping_kraus(gamma).then(&dephasing_kraus(p_phi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depolarizing_channel_is_complete() {
        for p in [0.0, 0.01, 0.3, 1.0] {
            let c1 = depolarizing_1q(p);
            assert_eq!(c1.operators().len(), 4);
            let c2 = depolarizing_2q(p);
            assert_eq!(c2.operators().len(), 16);
            assert_eq!(c2.dim(), 4);
        }
    }

    #[test]
    fn zero_error_depolarizing_is_identity_in_effect() {
        let c = depolarizing_1q(0.0);
        // The non-identity Kraus terms have zero weight.
        for k in &c.operators()[1..] {
            assert!(k.frobenius_norm() < 1e-12);
        }
    }

    #[test]
    fn amplitude_damping_completeness_and_action() {
        for gamma in [0.0, 0.1, 0.5, 1.0] {
            let c = amplitude_damping_kraus(gamma);
            assert_eq!(c.operators().len(), 2);
        }
        // gamma = 1 maps |1> to |0> with certainty: K1|1> = |0>.
        let c = amplitude_damping_kraus(1.0);
        let k1 = &c.operators()[1];
        assert!((k1[(0, 1)] - Complex::ONE).norm() < 1e-12);
    }

    #[test]
    fn dephasing_completeness() {
        for p in [0.0, 0.2, 0.5] {
            let c = dephasing_kraus(p);
            assert_eq!(c.operators().len(), 2);
        }
    }

    #[test]
    fn thermal_relaxation_composes() {
        let c = thermal_relaxation(100.0, 20.0, 15.0);
        assert_eq!(c.dim(), 2);
        assert!(c.operators().len() >= 2);
        // Zero duration is the identity channel in effect.
        let id = thermal_relaxation(0.0, 20.0, 15.0);
        let mut total_offdiag = 0.0;
        for k in id.operators() {
            total_offdiag += k[(0, 1)].norm() + k[(1, 0)].norm();
        }
        assert!(total_offdiag < 1e-9);
    }

    #[test]
    fn channel_composition_keeps_completeness() {
        let a = depolarizing_1q(0.05);
        let b = dephasing_kraus(0.1);
        let c = a.then(&b);
        assert_eq!(c.operators().len(), 8);
    }

    #[test]
    fn identity_channel_detection() {
        assert!(Kraus1q::identity().is_identity());
        assert!(Kraus2q::identity().is_identity());
        assert!(!depolarizing_1q(0.1).is_identity());
    }

    #[test]
    #[should_panic(expected = "completeness relation")]
    fn invalid_kraus_set_panics() {
        let _ = KrausChannel::new(vec![gates::standard::x().scale(0.5)]);
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn invalid_probability_panics() {
        let _ = depolarizing_1q(1.5);
    }

    #[test]
    fn depolarizing_and_dephasing_detect_as_unitary_mixtures() {
        let mix = depolarizing_1q(0.3);
        let terms = mix.unitary_mix().expect("depolarizing is a Pauli mixture");
        let total: f64 = terms.iter().map(|t| t.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(dephasing_kraus(0.2).unitary_mix().is_some());
        assert!(depolarizing_2q(0.1).unitary_mix().is_some());
        // The identity branch is recognized and stored without a matrix.
        assert!(terms.iter().any(|t| t.apply.is_none()));
    }

    #[test]
    fn amplitude_damping_is_not_a_unitary_mixture() {
        assert!(amplitude_damping_kraus(0.3).unitary_mix().is_none());
        assert!(thermal_relaxation(100.0, 20.0, 15.0)
            .unitary_mix()
            .is_none());
    }

    #[test]
    fn conjugation_preserves_completeness_and_mixture_structure() {
        let h = gates::standard::h();
        let c = depolarizing_1q(0.2).conjugate_by(&h);
        assert_eq!(c.operators().len(), 4);
        assert!(c.unitary_mix().is_some());
        // Conjugating amplitude damping also stays a valid channel.
        let d = amplitude_damping_kraus(0.4).conjugate_by(&h);
        assert_eq!(d.operators().len(), 2);
    }

    #[test]
    fn embedding_into_two_qubit_arity_keeps_completeness() {
        let c = depolarizing_1q(0.1);
        let msb = c.embed_msb();
        let lsb = c.embed_lsb();
        assert_eq!(msb.dim(), 4);
        assert_eq!(lsb.dim(), 4);
        // Embedding a Pauli mixture is still a Pauli mixture.
        assert!(msb.unitary_mix().is_some());
        // X ⊗ I swaps under factor exchange to I ⊗ X.
        let x_on_msb = KrausChannel::new(vec![gates::standard::x().kron(&Mat2::identity())]);
        let swapped = x_on_msb.swap_factors();
        let expected = Mat2::identity().kron(&gates::standard::x());
        assert!(swapped.operators()[0].approx_eq(&expected, 1e-12));
    }

    #[test]
    fn zero_strength_composition_prunes_to_exact_identity() {
        let id = thermal_relaxation(0.0, 20.0, 15.0);
        assert_eq!(id.operators().len(), 1);
        assert!(id.is_identity());
    }
}
