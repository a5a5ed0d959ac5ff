//! Measurement histograms: the [`Counts`] every sampling path returns.
//!
//! Counts come from one place, the [`ExecutionEngine`](crate::ExecutionEngine);
//! ideal probabilities come from [`StateVector::evolve`](crate::StateVector::evolve).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

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

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::{Circuit, Operation};
    use device::DeviceModel;
    use qmath::RngSeed;

    use crate::{ExecutionEngine, FusionPolicy, NoiseModel, SeedPolicy, SimJob, StateVector};

    /// Noisy counts from per-shot seed streams over the unfused lowering.
    fn noisy_counts(circuit: &Circuit, noise: NoiseModel, shots: usize, seed: RngSeed) -> Counts {
        ExecutionEngine::builder()
            .seed_policy(SeedPolicy::PerShot)
            .fusion(FusionPolicy::Off)
            .build()
            .unwrap()
            .run_job(&SimJob::noisy(circuit.clone(), noise, shots, seed))
            .counts
    }

    fn ideal_counts(circuit: &Circuit, shots: usize, seed: RngSeed) -> Counts {
        ExecutionEngine::new()
            .run_job(&SimJob::ideal(circuit.clone(), shots, seed))
            .counts
    }

    fn bell_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(Operation::h(0));
        c.push(Operation::cnot(0, 1));
        c.measure_all();
        c
    }

    #[test]
    fn ideal_bell_probabilities() {
        let p = StateVector::evolve(&bell_circuit()).probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[3] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ideal_sampling_matches_probabilities() {
        let counts = ideal_counts(&bell_circuit(), 4000, RngSeed(1));
        assert_eq!(counts.total(), 4000);
        assert_eq!(counts.count(1) + counts.count(2), 0);
        assert!((counts.probability(0) - 0.5).abs() < 0.05);
    }

    #[test]
    fn noiseless_noisy_simulator_equals_ideal() {
        let device = DeviceModel::ideal(2, 1.0);
        let noise = NoiseModel::noiseless(&device);
        let counts = noisy_counts(&bell_circuit(), noise, 500, RngSeed(2));
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
        let counts = noisy_counts(&bell_circuit(), noise, 2000, RngSeed(3));
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
        let counts = noisy_counts(&c, noise, 2000, RngSeed(4));
        assert!(counts.count(0) < 2000);
        assert!(counts.probability(0) > 0.75);
    }

    #[test]
    fn deterministic_given_seed() {
        let device = DeviceModel::ideal(2, 0.97);
        let noise = NoiseModel::from_device(&device);
        let a = noisy_counts(&bell_circuit(), noise.clone(), 100, RngSeed(9));
        let b = noisy_counts(&bell_circuit(), noise, 100, RngSeed(9));
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
        let counts = noisy_counts(&c, noise, 1000, RngSeed(12));
        let p1 = counts.probability(1);
        assert!(p1 < 0.99, "p1 = {p1}");
        assert!(p1 > 0.5, "p1 = {p1}");
    }
}
