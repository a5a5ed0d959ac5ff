//! Bit-level fingerprint of sampled counts and ideal probabilities.
//!
//! Every figure number is scored from counts the execution engine samples
//! and from the ideal distribution of the logical circuit, so a change to
//! the lowering, the trajectory arithmetic or the seed streams shows up here
//! before it shows up as a drifted figure. The test folds three things into
//! one FNV-1a hash, for circuits on both sides of `FOLD_MIN_QUBITS` (GHZ-3,
//! QV-3, QAOA-4, QAOA-7 and QV-8):
//!
//! - noisy counts from per-shot seed streams over the unfused lowering, under
//!   a calibrated device's noise (Aspen-8) and a uniform one
//!   (`DeviceModel::ideal(n, 0.95)`), 300 shots each;
//! - ideal counts from the default engine, 500 shots;
//! - the bits of every probability of `StateVector::evolve`.
//!
//! The recorded hash was produced on x86-64 Linux, where CI runs. The Haar
//! unitaries of the QV circuits, the QAOA rotations and the relaxation
//! channels go through the platform's `sin`/`cos`/`exp`, whose last bits may
//! differ elsewhere, so the comparison only runs on that target.

use apps::workloads::{qaoa_circuit, qv_circuit};
use circuit::{Circuit, Operation};
use device::DeviceModel;
use qmath::RngSeed;
use sim::{
    Counts, ExecutionEngine, FusionPolicy, NoiseModel, SeedPolicy, SimJob, StateVector,
    FOLD_MIN_QUBITS,
};

/// FNV-1a over the little-endian bytes of each word.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn counts(&mut self, counts: &Counts) {
        self.word(counts.num_qubits() as u64);
        for (basis, count) in counts.iter() {
            self.word(basis as u64);
            self.word(count as u64);
        }
    }
}

fn ghz(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.push(Operation::h(0));
    for q in 1..n {
        c.push(Operation::cnot(q - 1, q));
    }
    c.measure_all();
    c
}

fn corpus() -> Vec<Circuit> {
    vec![
        ghz(3),
        qv_circuit(3, RngSeed(31)),
        qaoa_circuit(4, RngSeed(32)),
        qaoa_circuit(FOLD_MIN_QUBITS, RngSeed(33)),
        qv_circuit(FOLD_MIN_QUBITS + 1, RngSeed(34)),
    ]
}

fn noisy_counts(circuit: &Circuit, noise: NoiseModel, seed: RngSeed) -> Counts {
    ExecutionEngine::builder()
        .seed_policy(SeedPolicy::PerShot)
        .fusion(FusionPolicy::Off)
        .build()
        .unwrap()
        .run_job(&SimJob::noisy(circuit.clone(), noise, 300, seed))
        .counts
}

fn ideal_counts(circuit: &Circuit, seed: RngSeed) -> Counts {
    ExecutionEngine::new()
        .run_job(&SimJob::ideal(circuit.clone(), 500, seed))
        .counts
}

fn fingerprint() -> u64 {
    let calibrated = NoiseModel::from_device(&DeviceModel::aspen8(RngSeed(1)));
    let mut hash = Fnv::new();
    for (i, circuit) in corpus().iter().enumerate() {
        let seed = 100 + i as u64;
        let uniform = NoiseModel::from_device(&DeviceModel::ideal(circuit.num_qubits(), 0.95));
        hash.counts(&noisy_counts(circuit, calibrated.clone(), RngSeed(seed)));
        hash.counts(&noisy_counts(circuit, uniform, RngSeed(seed + 1)));
        hash.counts(&ideal_counts(circuit, RngSeed(seed + 2)));
        for p in StateVector::evolve(circuit).probabilities() {
            hash.word(p.to_bits());
        }
    }
    hash.0
}

#[test]
#[cfg_attr(
    not(all(target_arch = "x86_64", target_os = "linux")),
    ignore = "the hash was recorded on x86-64 Linux"
)]
fn counts_and_probabilities_are_bit_identical_to_the_recorded_fingerprint() {
    assert_eq!(fingerprint(), 0x8d16_1c80_d4cd_3bf6);
}
