//! Exact density-matrix simulation for small registers.
//!
//! The trajectory sampler of [`crate::engine`] is the scalable path; this
//! module provides the exact channel evolution `ρ → Σ_i K_i ρ K_i†` used to
//! validate it (see `tests/sim_agreement.rs` at the workspace root).

use circuit::{Circuit, QubitId};
use qmath::{CMatrix, Complex, Mat2, Mat4};

use crate::channels::AttachedChannel;
use crate::channels::{Kraus1q, Kraus2q};
use crate::noise_model::NoiseModel;
use crate::precompiled::{PrecompiledCircuit, PrecompiledKind};

/// A density matrix over an `n`-qubit register.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMatrix {
    num_qubits: usize,
    rho: CMatrix,
}

impl DensityMatrix {
    /// The pure state `|0…0⟩⟨0…0|`.
    ///
    /// # Panics
    /// Panics if `num_qubits` is zero or greater than 10 (the dense `4^n`
    /// representation would be too large).
    pub fn zero_state(num_qubits: usize) -> Self {
        assert!(num_qubits > 0, "need at least one qubit");
        assert!(
            num_qubits <= 10,
            "density-matrix simulation limited to 10 qubits"
        );
        let dim = 1 << num_qubits;
        let mut rho = CMatrix::zeros(dim, dim);
        rho[(0, 0)] = Complex::ONE;
        DensityMatrix { num_qubits, rho }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The raw density matrix.
    pub fn matrix(&self) -> &CMatrix {
        &self.rho
    }

    /// Trace of the density matrix (should remain 1).
    pub fn trace(&self) -> f64 {
        self.rho.trace().re
    }

    /// Purity `Tr(ρ²)`: 1 for pure states, `1/2^n` for the maximally mixed state.
    pub fn purity(&self) -> f64 {
        (&self.rho * &self.rho).trace().re
    }

    /// Diagonal of the density matrix: the outcome probability distribution.
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.rho.rows()).map(|i| self.rho[(i, i)].re).collect()
    }

    /// Applies a unitary acting on the full register: `ρ → U ρ U†`.
    pub fn apply_full_unitary(&mut self, u: &CMatrix) {
        self.rho = &(u * &self.rho) * &u.dagger();
    }

    /// Applies a 2×2 unitary to one qubit.
    pub fn apply_one_qubit(&mut self, m: &Mat2, q: QubitId) {
        let full = circuit::embed_one_qubit(m, q, self.num_qubits);
        self.apply_full_unitary(&full);
    }

    /// Applies a 4×4 unitary to a qubit pair.
    pub fn apply_two_qubit(&mut self, m: &Mat4, q0: QubitId, q1: QubitId) {
        let full = circuit::embed_two_qubit(m, q0, q1, self.num_qubits);
        self.apply_full_unitary(&full);
    }

    /// Applies a Kraus channel on one qubit: `ρ → Σ K ρ K†`.
    pub fn apply_channel_1q(&mut self, channel: &Kraus1q, q: QubitId) {
        let dim = self.rho.rows();
        let mut out = CMatrix::zeros(dim, dim);
        for k in channel.operators() {
            let full = circuit::embed_one_qubit(k, q, self.num_qubits);
            out = &out + &(&(&full * &self.rho) * &full.dagger());
        }
        self.rho = out;
    }

    /// Applies a Kraus channel on a qubit pair.
    pub fn apply_channel_2q(&mut self, channel: &Kraus2q, q0: QubitId, q1: QubitId) {
        let dim = self.rho.rows();
        let mut out = CMatrix::zeros(dim, dim);
        for k in channel.operators() {
            let full = circuit::embed_two_qubit(k, q0, q1, self.num_qubits);
            out = &out + &(&(&full * &self.rho) * &full.dagger());
        }
        self.rho = out;
    }

    /// Evolves the density matrix through a circuit under a noise model
    /// (measurements and barriers contribute only their relaxation noise;
    /// readout error is not included — it acts on classical outcomes).
    ///
    /// Lowers the circuit once via [`PrecompiledCircuit`] — the same
    /// simulation-ready ops the trajectory engine consumes, so the exact and
    /// Monte-Carlo paths cannot drift apart.
    pub fn evolve(circuit: &Circuit, noise: &NoiseModel) -> DensityMatrix {
        DensityMatrix::evolve_precompiled(&PrecompiledCircuit::new(circuit, noise))
    }

    /// Evolves the exact density matrix through an already-lowered circuit.
    pub fn evolve_precompiled(pre: &PrecompiledCircuit) -> DensityMatrix {
        let mut dm = DensityMatrix::zero_state(pre.num_qubits());
        for op in pre.ops() {
            match &op.kind {
                PrecompiledKind::Unitary1Q { matrix, qubit } => {
                    dm.apply_one_qubit(matrix, *qubit);
                }
                PrecompiledKind::Unitary2Q { matrix, q0, q1 } => {
                    dm.apply_two_qubit(matrix, *q0, *q1);
                }
                PrecompiledKind::Silent => {}
            }
            for channel in &op.channels {
                match channel {
                    AttachedChannel::One { channel, qubit } => {
                        dm.apply_channel_1q(channel, *qubit);
                    }
                    AttachedChannel::Two { channel, q0, q1 } => {
                        dm.apply_channel_2q(channel, *q0, *q1);
                    }
                }
            }
        }
        dm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels::{amplitude_damping_kraus, depolarizing_1q, depolarizing_2q};
    use circuit::Operation;
    use device::DeviceModel;
    use gates::standard;

    #[test]
    fn pure_state_evolution_matches_statevector() {
        let mut c = Circuit::new(2);
        c.push(Operation::h(0));
        c.push(Operation::cnot(0, 1));
        let device = DeviceModel::ideal(2, 1.0);
        let dm = DensityMatrix::evolve(&c, &NoiseModel::noiseless(&device));
        assert!((dm.trace() - 1.0).abs() < 1e-10);
        assert!((dm.purity() - 1.0).abs() < 1e-10);
        let p = dm.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-10);
        assert!((p[3] - 0.5).abs() < 1e-10);
    }

    #[test]
    fn depolarizing_reduces_purity() {
        let mut dm = DensityMatrix::zero_state(1);
        dm.apply_one_qubit(&standard::h(), 0);
        assert!((dm.purity() - 1.0).abs() < 1e-10);
        dm.apply_channel_1q(&depolarizing_1q(0.2), 0);
        assert!(dm.purity() < 1.0);
        assert!((dm.trace() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn full_depolarizing_gives_maximally_mixed_state() {
        let mut dm = DensityMatrix::zero_state(1);
        // p = 1 depolarizing: 3/4 chance of X/Y/Z; resulting state is
        // (|0><0| + X|0><0|X + Y..Y + Z..Z)/... not exactly maximally mixed for
        // this parameterization, but purity must drop substantially.
        dm.apply_channel_1q(&depolarizing_1q(0.75), 0);
        assert!(dm.purity() < 0.7);
    }

    #[test]
    fn amplitude_damping_decays_population_exactly() {
        let mut dm = DensityMatrix::zero_state(1);
        dm.apply_one_qubit(&standard::x(), 0);
        let gamma = 0.3;
        dm.apply_channel_1q(&amplitude_damping_kraus(gamma), 0);
        let p = dm.probabilities();
        assert!((p[1] - (1.0 - gamma)).abs() < 1e-10);
        assert!((p[0] - gamma).abs() < 1e-10);
    }

    #[test]
    fn two_qubit_channel_preserves_trace() {
        let mut dm = DensityMatrix::zero_state(2);
        dm.apply_one_qubit(&standard::h(), 0);
        dm.apply_two_qubit(&standard::cnot(), 0, 1);
        dm.apply_channel_2q(&depolarizing_2q(0.1), 0, 1);
        assert!((dm.trace() - 1.0).abs() < 1e-10);
        assert!(dm.purity() < 1.0);
    }

    #[test]
    fn noisy_evolution_spreads_probability() {
        let mut c = Circuit::new(2);
        c.push(Operation::h(0));
        c.push(Operation::cnot(0, 1));
        let device = DeviceModel::ideal(2, 0.9);
        let mut noise = NoiseModel::from_device(&device);
        noise.with_relaxation = false;
        noise.with_readout_error = false;
        let dm = DensityMatrix::evolve(&c, &noise);
        let p = dm.probabilities();
        // Bell outcomes dominate but leakage appears.
        assert!(p[0] + p[3] > 0.85);
        assert!(p[1] + p[2] > 0.0);
        assert!((dm.trace() - 1.0).abs() < 1e-9);
    }
}
