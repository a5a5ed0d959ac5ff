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
//! A second test pins the lowered stream itself, and with it the `Safe` and
//! `Aggressive` counts, which the first test leaves out. It lowers the same
//! corpus, a QV-3 and a QAOA-4 compiled by NuOp for Aspen-8 under S3 (with
//! the subdevice's noise), and a hand-built circuit with a reversed pair, a
//! measurement and a barrier, under `Off`, `Safe` and `Aggressive`. For each
//! lowering it folds the fused-op count, the readout-error bits, every
//! kernel of the verifier's `kernel_ops` view (kind, qubits, matrix bits, and
//! for each channel its qubits, whether it draws and every Kraus operator's
//! bits), the exact density matrix's probabilities up to 6 qubits, and 300
//! per-shot counts from an engine at that policy.
//!
//! The recorded hash was produced on x86-64 Linux, where CI runs. The Haar
//! unitaries of the QV circuits, the QAOA rotations and the relaxation
//! channels go through the platform's `sin`/`cos`/`exp`, whose last bits may
//! differ elsewhere, so the comparison only runs on that target.

use apps::workloads::{qaoa_circuit, qv_circuit};
use circuit::{Circuit, Operation};
use compiler::{Compiler, CompilerOptions};
use device::DeviceModel;
use gates::InstructionSet;
use qmath::{MatRef, RngSeed};
use sim::{
    Counts, DensityMatrix, ExecutionEngine, FusionPolicy, NoiseModel, PrecompiledCircuit,
    SeedPolicy, SimJob, StateVector, FOLD_MIN_QUBITS,
};
use verify::{ChannelKraus, KernelKind, KernelOp};

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

    fn qubits(&mut self, qubits: &[usize]) {
        self.word(qubits.len() as u64);
        for &q in qubits {
            self.word(q as u64);
        }
    }

    fn matrix(&mut self, m: &impl MatRef) {
        for r in 0..m.nrows() {
            for c in 0..m.ncols() {
                let z = m.at(r, c);
                self.word(z.re.to_bits());
                self.word(z.im.to_bits());
            }
        }
    }

    fn kernel_op(&mut self, op: &KernelOp) {
        match &op.kind {
            KernelKind::One { matrix, qubit } => {
                self.word(1);
                self.qubits(&[*qubit]);
                self.matrix(matrix);
            }
            KernelKind::Two { matrix, q0, q1 } => {
                self.word(2);
                self.qubits(&[*q0, *q1]);
                self.matrix(matrix);
            }
            KernelKind::Silent => self.word(0),
        }
        self.word(op.channels.len() as u64);
        for channel in &op.channels {
            self.qubits(&channel.qubits);
            self.word(u64::from(channel.consumes_rng));
            match &channel.kraus {
                ChannelKraus::One(operators) => {
                    self.word(operators.len() as u64);
                    operators.iter().for_each(|k| self.matrix(k));
                }
                ChannelKraus::Two(operators) => {
                    self.word(operators.len() as u64);
                    operators.iter().for_each(|k| self.matrix(k));
                }
            }
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

/// A QV-3 and a QAOA-4 compiled by NuOp for Aspen-8 under S3, each with the
/// noise of the subdevice it was compiled for.
fn compiled_corpus() -> Vec<(Circuit, NoiseModel)> {
    let compiler = Compiler::for_device(DeviceModel::aspen8(RngSeed(1)))
        .instruction_set(InstructionSet::s(3))
        .options(CompilerOptions::sweep())
        .build()
        .unwrap();
    [qv_circuit(3, RngSeed(41)), qaoa_circuit(4, RngSeed(42))]
        .iter()
        .map(|logical| {
            let compiled = compiler.compile(logical).unwrap();
            let noise = NoiseModel::from_device(&compiled.subdevice);
            (compiled.circuit, noise)
        })
        .collect()
}

/// One-qubit gates absorbed from both slots of a pair, the pair reversed, a
/// barrier, a measurement mid-circuit, and a reversed two-qubit gate after
/// it.
fn hand_built() -> Circuit {
    let mut c = Circuit::new(4);
    c.push(Operation::h(0));
    c.push(Operation::rx(1, 0.9));
    c.push(Operation::cz(0, 1));
    c.push(Operation::cnot(1, 0));
    c.push(Operation::u3(2, 1.1, 0.3, 0.5));
    c.push(Operation::barrier(vec![0, 1, 2, 3]));
    c.push(Operation::cnot(2, 3));
    c.push(Operation::measure(vec![1]));
    c.push(Operation::zz(3, 2, 0.7));
    c.push(Operation::rx(1, 1.3));
    c.push(Operation::cz(1, 2));
    c.measure_all();
    c
}

fn lowering_fingerprint() -> u64 {
    let calibrated = NoiseModel::from_device(&DeviceModel::aspen8(RngSeed(1)));
    let mut cases: Vec<(Circuit, NoiseModel)> = corpus()
        .into_iter()
        .map(|circuit| (circuit, calibrated.clone()))
        .collect();
    cases.extend(compiled_corpus());
    cases.push((hand_built(), calibrated));
    let mut hash = Fnv::new();
    for (i, (circuit, noise)) in cases.iter().enumerate() {
        for (j, policy) in [
            FusionPolicy::Off,
            FusionPolicy::Safe,
            FusionPolicy::Aggressive,
        ]
        .into_iter()
        .enumerate()
        {
            let lowered = PrecompiledCircuit::with_fusion(circuit, noise, policy);
            hash.word(lowered.fused_ops() as u64);
            for p in lowered.readout_error() {
                hash.word(p.to_bits());
            }
            let ops = lowered.kernel_ops();
            hash.word(ops.len() as u64);
            ops.iter().for_each(|op| hash.kernel_op(op));
            if circuit.num_qubits() <= 6 {
                for p in DensityMatrix::evolve_precompiled(&lowered).probabilities() {
                    hash.word(p.to_bits());
                }
            }
            let seed = RngSeed(200 + 3 * i as u64 + j as u64);
            let counts = ExecutionEngine::builder()
                .seed_policy(SeedPolicy::PerShot)
                .fusion(policy)
                .build()
                .unwrap()
                .run_job(&SimJob::noisy(circuit.clone(), noise.clone(), 300, seed))
                .counts;
            hash.counts(&counts);
        }
    }
    hash.0
}

#[test]
#[cfg_attr(
    not(all(target_arch = "x86_64", target_os = "linux")),
    ignore = "the hash was recorded on x86-64 Linux"
)]
fn lowered_streams_and_fused_counts_are_bit_identical_to_the_recorded_fingerprint() {
    assert_eq!(lowering_fingerprint(), 0x9b42_05bf_51db_bcba);
}
