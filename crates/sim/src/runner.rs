//! Ideal and Monte-Carlo (trajectory) circuit execution.
//!
//! [`IdealSimulator::sample`] and [`NoisySimulator::run`] are thin single-job
//! wrappers over the [`ExecutionEngine`]: the circuit
//! is lowered once into a [`PrecompiledCircuit`]
//! and the shot loop is sharded across worker threads. Use the engine
//! directly ([`ExecutionEngine::run_batch`])
//! when executing many circuits or when the per-job
//! [`EngineReport`](crate::EngineReport) timings are wanted.

use std::collections::BTreeMap;

use circuit::{Circuit, OpKind};
use qmath::RngSeed;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::channels::ArityChannel;
use crate::engine::{ExecutionEngine, SeedPolicy};
use crate::noise_model::NoiseModel;
use crate::precompiled::{
    apply_channel_1q, apply_channel_2q, op_mat2, op_mat4, FusionPolicy, PrecompiledCircuit,
};
use crate::statevector::StateVector;

/// Error returned by [`Counts::merge`] when the two histograms cover
/// different register sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountsMismatch {
    /// Qubit count of the histogram being merged into.
    pub left: usize,
    /// Qubit count of the histogram being merged from.
    pub right: usize,
}

impl std::fmt::Display for CountsMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot merge counts over {} qubits into counts over {} qubits",
            self.right, self.left
        )
    }
}

impl std::error::Error for CountsMismatch {}

/// Measurement outcome histogram: basis index → number of shots.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Counts {
    counts: BTreeMap<usize, usize>,
    num_qubits: usize,
}

impl Counts {
    /// Creates an empty histogram for an `n`-qubit register.
    pub fn new(num_qubits: usize) -> Self {
        Counts {
            counts: BTreeMap::new(),
            num_qubits,
        }
    }

    /// Records one observation of `basis_index`.
    pub fn record(&mut self, basis_index: usize) {
        *self.counts.entry(basis_index).or_insert(0) += 1;
    }

    /// Number of qubits measured.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Total number of shots recorded.
    pub fn total(&self) -> usize {
        self.counts.values().sum()
    }

    /// Count for one basis index.
    pub fn count(&self, basis_index: usize) -> usize {
        *self.counts.get(&basis_index).unwrap_or(&0)
    }

    /// Iterates over `(basis_index, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }

    /// Adds every observation of `other` into this histogram (the engine uses
    /// this to combine per-worker shard results).
    ///
    /// Merging is commutative and associative, so the order in which partial
    /// histograms arrive cannot be observed in the result.
    pub fn merge(&mut self, other: &Counts) -> Result<(), CountsMismatch> {
        if self.num_qubits != other.num_qubits {
            return Err(CountsMismatch {
                left: self.num_qubits,
                right: other.num_qubits,
            });
        }
        for (basis_index, count) in other.iter() {
            *self.counts.entry(basis_index).or_insert(0) += count;
        }
        Ok(())
    }

    /// True when `basis_index` addresses a state of this register.
    fn in_range(&self, basis_index: usize) -> bool {
        self.num_qubits >= usize::BITS as usize || (basis_index >> self.num_qubits) == 0
    }

    /// Empirical probability of a basis index.
    ///
    /// Out-of-range indices (`≥ 2^num_qubits`) have probability 0.0; the call
    /// never panics.
    pub fn probability(&self, basis_index: usize) -> f64 {
        if !self.in_range(basis_index) {
            return 0.0;
        }
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(basis_index) as f64 / total as f64
        }
    }

    /// The big-endian bitstring of a basis index, e.g. `"010"`, always
    /// zero-padded to exactly `num_qubits` characters.
    ///
    /// The call never panics: bits beyond the register (out-of-range indices)
    /// are truncated, and qubits beyond the index width read as `'0'`.
    pub fn bitstring(&self, basis_index: usize) -> String {
        (0..self.num_qubits)
            .map(|q| {
                let shift = self.num_qubits - 1 - q;
                let bit = if shift < usize::BITS as usize {
                    (basis_index >> shift) & 1
                } else {
                    0
                };
                if bit == 1 {
                    '1'
                } else {
                    '0'
                }
            })
            .collect()
    }
}

/// Noiseless execution helpers.
pub struct IdealSimulator;

impl IdealSimulator {
    /// Runs the circuit on `|0…0⟩` and returns the final state (measurements
    /// and barriers are ignored).
    pub fn final_state(circuit: &Circuit) -> StateVector {
        let mut state = StateVector::zero_state(circuit.num_qubits());
        for op in circuit.iter() {
            match op.kind() {
                OpKind::Unitary1Q { matrix, .. } => {
                    state.apply_one_qubit(&op_mat2(matrix), op.qubits()[0]);
                }
                OpKind::Unitary2Q { matrix, .. } => {
                    state.apply_two_qubit(&op_mat4(matrix), op.qubits()[0], op.qubits()[1]);
                }
                OpKind::Measure | OpKind::Barrier => {}
            }
        }
        state
    }

    /// Ideal output probability distribution of the circuit.
    pub fn probabilities(circuit: &Circuit) -> Vec<f64> {
        IdealSimulator::final_state(circuit).probabilities()
    }

    /// Samples `shots` measurements from the ideal distribution.
    ///
    /// This is a single-job wrapper over the
    /// [`ExecutionEngine`]: the circuit is lowered with unrestricted gate
    /// fusion (no channels exist on the ideal path), the final state is
    /// computed once and sampling is sharded across worker threads, with
    /// per-shard seed streams keeping the result independent of the thread
    /// count.
    pub fn sample(circuit: &Circuit, shots: usize, seed: RngSeed) -> Counts {
        let pre = PrecompiledCircuit::ideal_with_fusion(circuit, FusionPolicy::Safe);
        ExecutionEngine::new()
            .run_precompiled(&pre, shots, seed)
            .counts
    }
}

/// Monte-Carlo trajectory simulator with a device noise model.
pub struct NoisySimulator {
    noise: NoiseModel,
}

impl NoisySimulator {
    /// Creates a simulator for the given noise model.
    pub fn new(noise: NoiseModel) -> Self {
        NoisySimulator { noise }
    }

    /// The noise model in use.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// Lowers `circuit` under this simulator's noise model once. Reuse the
    /// result with [`ExecutionEngine::run_precompiled`]
    /// when the same circuit is executed repeatedly.
    ///
    /// The lowering is deliberately **unfused** so that, below
    /// [`FOLD_MIN_QUBITS`](crate::FOLD_MIN_QUBITS) qubits,
    /// [`NoisySimulator::run`]'s bit-exact match with the historical
    /// single-threaded implementation holds by construction (from that width
    /// on, trajectories run pair runs, which pick the same branches and
    /// agree with it to rounding); use
    /// [`PrecompiledCircuit::with_fusion`](crate::PrecompiledCircuit::with_fusion)
    /// (or the engine, whose default is [`FusionPolicy::Safe`]) for the fused
    /// lowering — `Safe` fusion leaves counts bit-identical anyway.
    pub fn precompile(&self, circuit: &Circuit) -> PrecompiledCircuit {
        PrecompiledCircuit::new(circuit, &self.noise)
    }

    /// Runs `shots` noisy trajectories of `circuit` and returns the measured
    /// counts. Each trajectory applies the circuit's unitaries interleaved with
    /// sampled Kraus operators, then samples one measurement outcome and
    /// applies readout error.
    ///
    /// This is a single-job wrapper over the
    /// [`ExecutionEngine`]: the circuit's matrices and
    /// Kraus channels are lowered once (instead of once per shot) and the shot
    /// loop is sharded across worker threads. The
    /// [`SeedPolicy::PerShot`] stream derivation
    /// keeps the counts **bit-identical** to the historical single-threaded
    /// implementation for any `(circuit, shots, seed)` on registers below
    /// [`FOLD_MIN_QUBITS`](crate::FOLD_MIN_QUBITS) qubits. From that width
    /// on, trajectories run pair runs: they draw the same uniforms and pick
    /// the same branches, and their amplitudes agree with the historical ones
    /// to rounding.
    pub fn run(&self, circuit: &Circuit, shots: usize, seed: RngSeed) -> Counts {
        let pre = self.precompile(circuit);
        ExecutionEngine::builder()
            .seed_policy(SeedPolicy::PerShot)
            .build()
            .expect("default engine configuration is valid")
            .run_precompiled(&pre, shots, seed)
            .counts
    }

    /// Runs a single noisy trajectory and returns the (normalized) final state.
    ///
    /// Note: this is the *uncached* reference path — it re-derives each op's
    /// matrices and Kraus channels on every call. It is kept as the naive
    /// baseline for validation and the `sim_engine` benchmark; hot loops
    /// should go through [`NoisySimulator::precompile`] /
    /// [`PrecompiledCircuit::run_trajectory`](crate::PrecompiledCircuit::run_trajectory)
    /// instead.
    pub fn run_trajectory<R: Rng + ?Sized>(&self, circuit: &Circuit, rng: &mut R) -> StateVector {
        let mut state = StateVector::zero_state(circuit.num_qubits());
        for op in circuit.iter() {
            match op.kind() {
                OpKind::Unitary1Q { matrix, .. } => {
                    state.apply_one_qubit(&op_mat2(matrix), op.qubits()[0]);
                }
                OpKind::Unitary2Q { matrix, .. } => {
                    state.apply_two_qubit(&op_mat4(matrix), op.qubits()[0], op.qubits()[1]);
                }
                OpKind::Measure | OpKind::Barrier => {}
            }
            let noise = self.noise.noise_for(op);
            match (&noise.depolarizing, op.qubits()) {
                (Some(ArityChannel::One(channel)), [q]) => {
                    apply_channel_1q(&mut state, channel, *q, rng);
                }
                (Some(ArityChannel::Two(channel)), [q0, q1]) => {
                    apply_channel_2q(&mut state, channel, *q0, *q1, rng);
                }
                (None, _) => {}
                (Some(_), qubits) => unreachable!(
                    "noise_for returned a channel whose arity disagrees with a {}-qubit op",
                    qubits.len()
                ),
            }
            for (q, channel) in &noise.relaxation {
                apply_channel_1q(&mut state, channel, *q, rng);
            }
        }
        state
    }
}

/// Total-variation distance between an empirical distribution (counts) and a
/// reference probability vector.
pub fn total_variation_distance(counts: &Counts, reference: &[f64]) -> f64 {
    let mut tv = 0.0;
    for (idx, p) in reference.iter().enumerate() {
        tv += (counts.probability(idx) - p).abs();
    }
    tv / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::Operation;
    use device::DeviceModel;

    fn bell_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(Operation::h(0));
        c.push(Operation::cnot(0, 1));
        c.measure_all();
        c
    }

    #[test]
    fn ideal_bell_probabilities() {
        let p = IdealSimulator::probabilities(&bell_circuit());
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[3] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ideal_sampling_matches_probabilities() {
        let counts = IdealSimulator::sample(&bell_circuit(), 4000, RngSeed(1));
        assert_eq!(counts.total(), 4000);
        assert_eq!(counts.count(1) + counts.count(2), 0);
        assert!((counts.probability(0) - 0.5).abs() < 0.05);
    }

    #[test]
    fn noiseless_noisy_simulator_equals_ideal() {
        let device = DeviceModel::ideal(2, 1.0);
        let noise = NoiseModel::noiseless(&device);
        let counts = NoisySimulator::new(noise).run(&bell_circuit(), 500, RngSeed(2));
        assert_eq!(counts.count(1) + counts.count(2), 0);
    }

    #[test]
    fn noisy_simulation_degrades_gracefully() {
        // A moderately noisy device still mostly produces Bell outcomes, but
        // some leakage into |01>/|10> appears.
        let device = DeviceModel::ideal(2, 0.95);
        let mut noise = NoiseModel::from_device(&device);
        noise.with_readout_error = false;
        noise.with_relaxation = false;
        let counts = NoisySimulator::new(noise).run(&bell_circuit(), 2000, RngSeed(3));
        let good = counts.probability(0) + counts.probability(3);
        assert!(good > 0.85, "good fraction = {good}");
        assert!(good < 1.0);
    }

    #[test]
    fn readout_error_flips_bits() {
        // Empty circuit on a device with readout error: outcome should not
        // always be |00>.
        let device = DeviceModel::aspen8(RngSeed(1));
        let noise = NoiseModel::from_device(&device);
        let mut c = Circuit::new(2);
        c.measure_all();
        let counts = NoisySimulator::new(noise).run(&c, 2000, RngSeed(4));
        assert!(counts.count(0) < 2000);
        assert!(counts.probability(0) > 0.75);
    }

    #[test]
    fn deterministic_given_seed() {
        let device = DeviceModel::ideal(2, 0.97);
        let noise = NoiseModel::from_device(&device);
        let sim = NoisySimulator::new(noise);
        let a = sim.run(&bell_circuit(), 100, RngSeed(9));
        let b = sim.run(&bell_circuit(), 100, RngSeed(9));
        assert_eq!(a, b);
    }

    #[test]
    fn counts_merge_sums_observations() {
        let mut a = Counts::new(2);
        a.record(0);
        a.record(3);
        let mut b = Counts::new(2);
        b.record(3);
        b.record(1);
        a.merge(&b).unwrap();
        assert_eq!(a.total(), 4);
        assert_eq!(a.count(3), 2);
        assert_eq!(a.count(1), 1);
        // Merging an empty histogram is a no-op.
        a.merge(&Counts::new(2)).unwrap();
        assert_eq!(a.total(), 4);
    }

    #[test]
    fn counts_merge_rejects_register_mismatch() {
        let mut a = Counts::new(2);
        let b = Counts::new(3);
        let err = a.merge(&b).unwrap_err();
        assert_eq!(err, CountsMismatch { left: 2, right: 3 });
        assert!(err.to_string().contains("3 qubits"));
    }

    #[test]
    fn probability_and_bitstring_are_panic_free_out_of_range() {
        let mut counts = Counts::new(2);
        counts.record(1);
        // Out-of-range basis index: probability 0, no panic.
        assert_eq!(counts.probability(4), 0.0);
        assert_eq!(counts.probability(usize::MAX), 0.0);
        // Bitstrings are always exactly num_qubits chars, zero-padded.
        assert_eq!(counts.bitstring(0), "00");
        assert_eq!(counts.bitstring(5), "01"); // high bits truncated
        let wide = Counts::new(70);
        let s = wide.bitstring(3);
        assert_eq!(s.len(), 70);
        assert!(s.starts_with('0'));
        assert!(s.ends_with("11"));
    }

    #[test]
    fn counts_helpers() {
        let mut counts = Counts::new(3);
        counts.record(5);
        counts.record(5);
        counts.record(1);
        assert_eq!(counts.total(), 3);
        assert_eq!(counts.count(5), 2);
        assert_eq!(counts.bitstring(5), "101");
        assert!((counts.probability(1) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(counts.iter().count(), 2);
    }

    #[test]
    fn amplitude_damping_decays_excited_state() {
        // Prepare |1>, wait through many idle windows (via measurement noise),
        // and check the excited population decays.
        let device = DeviceModel::sycamore(RngSeed(11));
        let noise = NoiseModel::from_device(&device);
        let sim = NoisySimulator::new(noise);
        let mut c = Circuit::new(1);
        c.push(Operation::x(0));
        // Long idle: emulate with repeated measurement-duration relaxation by
        // adding many barriers is noise-free; instead add many X pairs (each
        // contributes gate-duration relaxation).
        for _ in 0..50 {
            c.push(Operation::x(0));
            c.push(Operation::x(0));
        }
        c.measure_all();
        let counts = sim.run(&c, 1000, RngSeed(12));
        let p1 = counts.probability(1);
        assert!(p1 < 0.99, "p1 = {p1}");
        assert!(p1 > 0.5, "p1 = {p1}");
    }

    #[test]
    fn total_variation_distance_bounds() {
        let counts = IdealSimulator::sample(&bell_circuit(), 2000, RngSeed(5));
        let ideal = IdealSimulator::probabilities(&bell_circuit());
        let tv = total_variation_distance(&counts, &ideal);
        assert!(tv < 0.05, "tv = {tv}");
        let uniform = vec![0.25; 4];
        let tv_uniform = total_variation_distance(&counts, &uniform);
        assert!(tv_uniform > 0.4);
    }
}
