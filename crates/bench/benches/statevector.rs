//! Criterion benches for the statevector hot path at 20+ qubits: base-index
//! amplitude sweeps vs the old full-scan loops, gate fusion vs unfused
//! lowering (serial and with threaded sweeps), cumulative-table measurement
//! sampling vs the per-shot linear scan, the noisy-trajectory fusion grid
//! (`Off` / `Safe` / `Aggressive`), the calibrated-noise trajectory group on
//! both sides of `FOLD_MIN_QUBITS`, the four amplitude kernels (sweeps and
//! read passes) on low and high targets, `Safe` and `Aggressive` lowering of
//! NuOp-compiled QAOA circuits, and the serial-vs-threaded sweep crossover
//! used to calibrate `PARALLEL_SWEEP_MIN_QUBITS`.

use apps::workloads::qaoa_circuit;
use circuit::{Circuit, Operation};
use compiler::{Compiler, CompilerOptions};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use device::DeviceModel;
use gates::InstructionSet;
use qmath::{Complex, Mat2, Mat4, RngSeed};
use sim::{
    FusionPolicy, NoiseModel, PrecompiledCircuit, PrecompiledKind, StateVector,
    PARALLEL_SWEEP_MIN_QUBITS,
};

const NUM_QUBITS: usize = 20;

/// The pre-fusion sweep loop, verbatim: visit every index of the register and
/// mask-test for the cleared target bit. This is the PR 5 baseline the
/// base-index iteration is measured against.
fn full_scan_apply_one_qubit(amps: &mut [Complex], m: &Mat2, q: usize, n: usize) {
    let shift = n - 1 - q;
    let mask = 1usize << shift;
    for i in 0..amps.len() {
        if i & mask == 0 {
            let j = i | mask;
            let a0 = amps[i];
            let a1 = amps[j];
            amps[i] = m[(0, 0)] * a0 + m[(0, 1)] * a1;
            amps[j] = m[(1, 0)] * a0 + m[(1, 1)] * a1;
        }
    }
}

/// The pre-fusion two-qubit sweep loop: full scan with two mask tests.
fn full_scan_apply_two_qubit(amps: &mut [Complex], m: &Mat4, q0: usize, q1: usize, n: usize) {
    let mask0 = 1usize << (n - 1 - q0);
    let mask1 = 1usize << (n - 1 - q1);
    for i in 0..amps.len() {
        if i & mask0 == 0 && i & mask1 == 0 {
            let idx = [i, i | mask1, i | mask0, i | mask0 | mask1];
            let a = [amps[idx[0]], amps[idx[1]], amps[idx[2]], amps[idx[3]]];
            for (r, &out) in idx.iter().enumerate() {
                amps[out] =
                    m[(r, 0)] * a[0] + m[(r, 1)] * a[1] + m[(r, 2)] * a[2] + m[(r, 3)] * a[3];
            }
        }
    }
}

/// Runs an ideal trajectory with the full-scan loops above — the complete
/// PR 5 execution path for a noiseless circuit.
fn full_scan_trajectory(pre: &PrecompiledCircuit) -> Vec<Complex> {
    let n = pre.num_qubits();
    let mut amps = vec![Complex::ZERO; 1 << n];
    amps[0] = Complex::ONE;
    for op in pre.ops() {
        match &op.kind {
            PrecompiledKind::Unitary1Q { matrix, qubit } => {
                full_scan_apply_one_qubit(&mut amps, matrix, *qubit, n);
            }
            PrecompiledKind::Unitary2Q { matrix, q0, q1 } => {
                full_scan_apply_two_qubit(&mut amps, matrix, *q0, *q1, n);
            }
            PrecompiledKind::Silent => {}
        }
    }
    amps
}

/// A layered 20+ qubit workload: rotation layers interleaved with CNOT
/// chains, the structure gate fusion exploits (each rotation layer fuses into
/// the entangler layer that follows it).
fn layered_circuit(n: usize, rounds: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for r in 0..rounds {
        for q in 0..n {
            c.push(Operation::rx(q, 0.1 + (q + r) as f64 * 0.07));
        }
        for q in 1..n {
            c.push(Operation::cnot(q - 1, q));
        }
        for q in 0..n {
            c.push(Operation::rz(q, 0.3 + (q * (r + 1)) as f64 * 0.05));
        }
    }
    c.measure_all();
    c
}

fn scrambled_state(n: usize, rounds: usize) -> StateVector {
    let pre =
        PrecompiledCircuit::ideal_with_fusion(&layered_circuit(n, rounds), FusionPolicy::Safe);
    pre.run_trajectory(&mut RngSeed(3).rng())
}

fn bench_amplitude_sweep(c: &mut Criterion) {
    let n = NUM_QUBITS;
    let state = scrambled_state(n, 1);
    let h = gates::standard::h();
    let cnot = gates::standard::cnot();
    let mut group = c.benchmark_group("amplitude_sweep_20q");
    group.sample_size(20);
    group.bench_function("full_scan_1q", |b| {
        let mut amps = state.amplitudes().to_vec();
        b.iter(|| full_scan_apply_one_qubit(&mut amps, &h, n / 2, n));
    });
    group.bench_function("base_index_1q", |b| {
        let mut s = state.clone();
        b.iter(|| s.apply_one_qubit(&h, n / 2));
    });
    group.bench_function("base_index_1q_threaded", |b| {
        let mut s = state.clone();
        b.iter(|| s.apply_one_qubit_threaded(&h, n / 2, 4));
    });
    group.bench_function("full_scan_2q", |b| {
        let mut amps = state.amplitudes().to_vec();
        b.iter(|| full_scan_apply_two_qubit(&mut amps, &cnot, n / 2 - 1, n / 2, n));
    });
    group.bench_function("base_index_2q", |b| {
        let mut s = state.clone();
        b.iter(|| s.apply_two_qubit(&cnot, n / 2 - 1, n / 2));
    });
    group.bench_function("base_index_2q_threaded", |b| {
        let mut s = state.clone();
        b.iter(|| s.apply_two_qubit_threaded(&cnot, n / 2 - 1, n / 2, 4));
    });
    group.finish();
}

fn bench_trajectory_grid(c: &mut Criterion) {
    let circuit = layered_circuit(NUM_QUBITS, 2);
    let unfused = PrecompiledCircuit::ideal(&circuit);
    let fused = PrecompiledCircuit::ideal_with_fusion(&circuit, FusionPolicy::Safe);
    let mut group = c.benchmark_group("trajectory_20q");
    group.sample_size(5);
    // The complete PR 5 path: unfused ops, full-scan sweeps.
    group.bench_function("baseline_full_scan", |b| {
        b.iter(|| full_scan_trajectory(&unfused));
    });
    for (label, pre) in [("unfused", &unfused), ("fused", &fused)] {
        group.bench_with_input(BenchmarkId::new(label, "serial"), pre, |b, pre| {
            b.iter(|| pre.run_trajectory(&mut RngSeed(1).rng()));
        });
        group.bench_with_input(BenchmarkId::new(label, "parallel4"), pre, |b, pre| {
            b.iter(|| pre.run_trajectory_with(&mut RngSeed(1).rng(), 4, PARALLEL_SWEEP_MIN_QUBITS));
        });
    }
    group.finish();
}

fn bench_measurement_sampling(c: &mut Criterion) {
    // Deep scramble: probability mass is spread across the register, so the
    // linear scan cannot systematically exit early.
    let state = scrambled_state(NUM_QUBITS, 3);
    let shots = 256usize;
    let mut group = c.benchmark_group("sampling_20q_256shots");
    group.sample_size(5);
    // Per-shot linear scan over all 2^20 probabilities (the PR 5 fast path).
    group.bench_function("linear_rescan", |b| {
        b.iter(|| {
            let mut rng = RngSeed(9).rng();
            (0..shots)
                .map(|_| state.sample_measurement(&mut rng))
                .sum::<usize>()
        });
    });
    // One cumulative table, then a binary search per shot.
    group.bench_function("cumulative_table", |b| {
        b.iter(|| {
            let mut rng = RngSeed(9).rng();
            let sampler = state.measurement_sampler();
            (0..shots).map(|_| sampler.sample(&mut rng)).sum::<usize>()
        });
    });
    group.finish();
}

/// The acceptance workload: one noisy trajectory of the 20-qubit layered
/// circuit under each fusion policy, with depolarizing noise on *every* gate
/// (`bench::all_depolarizing_noise`) so `Safe` cannot fuse across any
/// boundary while `Aggressive` composes channels. Distribution-identity of
/// `Aggressive` against `Safe` on this workload shape is pinned by the TVD
/// harness (`cargo run -p bench --bin tvd`).
fn bench_noisy_trajectory_grid(c: &mut Criterion) {
    let circuit = layered_circuit(NUM_QUBITS, 2);
    let noise = bench::all_depolarizing_noise(NUM_QUBITS, 0.999, 0.95);
    let mut group = c.benchmark_group("noisy_trajectory_20q");
    group.sample_size(5);
    for (label, policy) in [
        ("off", FusionPolicy::Off),
        ("safe", FusionPolicy::Safe),
        ("aggressive", FusionPolicy::Aggressive),
    ] {
        let pre = PrecompiledCircuit::with_fusion(&circuit, &noise, policy);
        group.bench_function(label, |b| {
            b.iter(|| pre.run_trajectory(&mut RngSeed(11).rng()));
        });
    }
    group.finish();
}

/// One noisy trajectory under Aspen-8's calibrated noise (depolarizing plus
/// T1/T2 relaxation on every op, so every op carries general Kraus channels)
/// at widths on both sides of `sim::FOLD_MIN_QUBITS`, under `Safe` and
/// `Aggressive` fusion. The depolarizing-only grid above never leaves the
/// unitary-mixture fast path; this group is where the folded steps (at and
/// above the threshold) and the per-channel probe loop (below it) do their
/// work. Each iteration draws a fresh trajectory seed.
fn bench_calibrated_trajectory_grid(c: &mut Criterion) {
    let noise = NoiseModel::from_device(&DeviceModel::aspen8(RngSeed(1)));
    let mut group = c.benchmark_group("calibrated_trajectory");
    group.sample_size(40);
    for n in [4usize, 6, 8, 11, 14] {
        let circuit = layered_circuit(n, 3);
        for (label, policy) in [
            ("safe", FusionPolicy::Safe),
            ("aggressive", FusionPolicy::Aggressive),
        ] {
            let pre = PrecompiledCircuit::with_fusion(&circuit, &noise, policy);
            group.bench_with_input(BenchmarkId::new(label, n), &pre, |b, pre| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    pre.run_trajectory(&mut RngSeed(seed).rng())
                });
            });
        }
    }
    group.finish();
}

/// The four amplitude kernels on their own: one- and two-qubit sweeps and read
/// passes at 11, 14 and 20 qubits, each on a low target (the least
/// significant qubit or pair, whose runs are shorter than a split-complex
/// block and take the scalar tail) and a high target (the most significant,
/// all blocks). On CPUs with AVX2 these run the AVX2 instances of the kernels
/// (see the `sim::statevector` module docs).
fn bench_sweep_kernels(c: &mut Criterion) {
    let u = gates::standard::u3(0.7, 0.3, 1.1);
    let dense = *gates::GateType::syc().unitary() * u.kron(&gates::standard::h());
    let mut group = c.benchmark_group("sweep_kernels");
    group.sample_size(10);
    for n in [11usize, 14, 20] {
        let state = scrambled_state(n, 1);
        for (target, q, (q0, q1)) in [("low", n - 1, (n - 2, n - 1)), ("high", 0, (0, 1))] {
            let id = |kernel: &str| BenchmarkId::new(format!("{kernel}_{target}"), n);
            group.bench_with_input(id("sweep_1q"), &state, |b, state| {
                let mut s = state.clone();
                b.iter(|| s.apply_one_qubit(&u, q));
            });
            group.bench_with_input(id("sweep_2q"), &state, |b, state| {
                let mut s = state.clone();
                b.iter(|| s.apply_two_qubit(&dense, q0, q1));
            });
            group.bench_with_input(id("read_1q"), &state, |b, state| {
                b.iter(|| state.reduced_density_1q(q));
            });
            group.bench_with_input(id("read_2q"), &state, |b, state| {
                b.iter(|| state.reduced_density_2q(q0, q1));
            });
        }
    }
    group.finish();
}

/// Lowering alone: `PrecompiledCircuit::with_fusion` under `Safe` and
/// `Aggressive` on 11- and 14-qubit QAOA circuits compiled for Aspen-8 under
/// S3 with the sweep options, the shape of the circuits the `sim_wide`
/// workload of `perfbench/` runs. Calibrated noise sits on every op, so
/// `Safe` fuses nothing and only lowers, while `Aggressive` carries the
/// channels of every absorbed op across the kernels it fuses into, then
/// conjugates and composes them.
fn bench_lowering(c: &mut Criterion) {
    let compiler = Compiler::for_device(DeviceModel::aspen8(RngSeed(1)))
        .instruction_set(InstructionSet::s(3))
        .options(CompilerOptions::sweep())
        .build()
        .expect("S3 is a valid instruction set");
    let mut group = c.benchmark_group("lowering");
    group.sample_size(20);
    for n in [11usize, 14] {
        let compiled = compiler
            .compile(&qaoa_circuit(n, RngSeed(1)))
            .expect("QAOA circuits up to 20 qubits fit Aspen-8");
        let noise = NoiseModel::from_device(&compiled.subdevice);
        for (label, policy) in [
            ("safe", FusionPolicy::Safe),
            ("aggressive", FusionPolicy::Aggressive),
        ] {
            group.bench_with_input(
                BenchmarkId::new(label, n),
                &compiled.circuit,
                |b, circuit| {
                    b.iter(|| PrecompiledCircuit::with_fusion(circuit, &noise, policy));
                },
            );
        }
    }
    group.finish();
}

/// Serial vs 4-thread sweep at increasing register widths: the crossover
/// point is what the `EngineBuilder::parallel_sweep_min_qubits` knob (default
/// `PARALLEL_SWEEP_MIN_QUBITS`) should be calibrated to on a given host.
fn bench_parallel_threshold_sweep(c: &mut Criterion) {
    let h = gates::standard::h();
    let mut group = c.benchmark_group("parallel_threshold_sweep");
    group.sample_size(10);
    for n in [12usize, 16, 18, 20] {
        let state = scrambled_state(n, 1);
        group.bench_with_input(BenchmarkId::new("serial_1q", n), &state, |b, state| {
            let mut s = state.clone();
            b.iter(|| s.apply_one_qubit(&h, n / 2));
        });
        group.bench_with_input(BenchmarkId::new("threaded4_1q", n), &state, |b, state| {
            let mut s = state.clone();
            b.iter(|| s.apply_one_qubit_threaded(&h, n / 2, 4));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_amplitude_sweep,
    bench_trajectory_grid,
    bench_measurement_sampling,
    bench_noisy_trajectory_grid,
    bench_calibrated_trajectory_grid,
    bench_sweep_kernels,
    bench_lowering,
    bench_parallel_threshold_sweep
);
criterion_main!(benches);
