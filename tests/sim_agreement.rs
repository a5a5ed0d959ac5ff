//! Validation of the Monte-Carlo trajectory simulator against the exact
//! density-matrix evolution for small circuits (the DESIGN.md "trajectory vs
//! density-matrix agreement" ablation), of Aggressive fusion's lowering
//! against the unfused one through the same exact evolution, and of the
//! channels the lowering builds once and shares against the ones
//! `NoiseModel::noise_for` builds for each op.

use apps::workloads::{qaoa_circuit, qv_circuit};
use circuit::{Circuit, Operation};
use compiler::{Compiler, CompilerOptions};
use device::DeviceModel;
use gates::InstructionSet;
use qmath::RngSeed;
use sim::{
    AttachedChannel, Counts, DensityMatrix, ExecutionEngine, FusionPolicy, NoiseModel,
    PrecompiledCircuit, SeedPolicy, SimJob, FOLD_MIN_QUBITS,
};

fn bell_plus_rotation() -> Circuit {
    let mut c = Circuit::new(2);
    c.push(Operation::h(0));
    c.push(Operation::cnot(0, 1));
    c.push(Operation::rx(1, 0.6));
    c.measure_all();
    c
}

/// Counts from per-shot seed streams over the unfused lowering.
fn per_shot_unfused(circuit: &Circuit, noise: NoiseModel, shots: usize, seed: RngSeed) -> Counts {
    ExecutionEngine::builder()
        .seed_policy(SeedPolicy::PerShot)
        .fusion(FusionPolicy::Off)
        .build()
        .unwrap()
        .run_job(&SimJob::noisy(circuit.clone(), noise, shots, seed))
        .counts
}

fn total_variation(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y).abs())
        .sum::<f64>()
        / 2.0
}

#[test]
fn trajectories_converge_to_the_density_matrix_distribution() {
    let device = DeviceModel::ideal(2, 0.93);
    let mut noise = NoiseModel::from_device(&device);
    noise.with_readout_error = false; // readout acts classically, not on rho
    let circuit = bell_plus_rotation();

    let dm = DensityMatrix::evolve(&circuit, &noise);
    let exact = dm.probabilities();

    let counts = per_shot_unfused(&circuit, noise, 6000, RngSeed(1));
    let empirical: Vec<f64> = (0..4).map(|i| counts.probability(i)).collect();

    let tv = total_variation(&exact, &empirical);
    assert!(
        tv < 0.03,
        "total variation distance {tv}, exact {exact:?}, empirical {empirical:?}"
    );
}

#[test]
fn relaxation_noise_also_agrees() {
    let device = DeviceModel::sycamore(RngSeed(2));
    let region: Vec<usize> = vec![0, 1];
    let sub = device.subdevice(&region);
    let mut noise = NoiseModel::from_device(&sub);
    noise.with_readout_error = false;
    let mut circuit = Circuit::new(2);
    circuit.push(Operation::x(0));
    for _ in 0..10 {
        circuit.push(Operation::x(1));
        circuit.push(Operation::x(1));
    }
    circuit.measure_all();

    let exact = DensityMatrix::evolve(&circuit, &noise).probabilities();
    let counts = per_shot_unfused(&circuit, noise, 6000, RngSeed(3));
    let empirical: Vec<f64> = (0..4).map(|i| counts.probability(i)).collect();
    let tv = total_variation(&exact, &empirical);
    assert!(tv < 0.03, "total variation distance {tv}");
}

#[test]
fn ghz_trajectories_match_density_matrix_within_tolerance() {
    // Three-qubit noisy GHZ: the Monte-Carlo trajectory sampler
    // (`sim::engine`) must reproduce the exact density-matrix distribution
    // (`sim::density`) within a small total-variation tolerance.
    let device = DeviceModel::ideal(3, 0.95);
    let mut noise = NoiseModel::from_device(&device);
    noise.with_readout_error = false; // readout acts classically, not on rho
    let mut ghz = Circuit::new(3);
    ghz.push(Operation::h(0));
    ghz.push(Operation::cnot(0, 1));
    ghz.push(Operation::cnot(1, 2));
    ghz.measure_all();

    let exact = DensityMatrix::evolve(&ghz, &noise).probabilities();
    assert!((exact.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    // Noise leaks weight off |000> and |111>, but they must stay dominant.
    assert!(exact[0] > 0.35 && exact[7] > 0.35, "GHZ peaks: {exact:?}");

    let counts = per_shot_unfused(&ghz, noise, 8000, RngSeed(21));
    let empirical: Vec<f64> = (0..8).map(|i| counts.probability(i)).collect();
    let tv = total_variation(&exact, &empirical);
    assert!(
        tv < 0.025,
        "total variation distance {tv}, exact {exact:?}, empirical {empirical:?}"
    );
}

#[test]
fn purity_decreases_monotonically_with_error_rate() {
    let circuit = bell_plus_rotation();
    let mut last_purity = 1.1;
    for fidelity in [1.0, 0.99, 0.95, 0.90] {
        let device = DeviceModel::ideal(2, fidelity);
        let mut noise = NoiseModel::from_device(&device);
        noise.with_readout_error = false;
        let dm = DensityMatrix::evolve(&circuit, &noise);
        assert!(dm.purity() <= last_purity + 1e-9, "fidelity {fidelity}");
        assert!((dm.trace() - 1.0).abs() < 1e-9);
        last_purity = dm.purity();
    }
}

/// The one-sample concentration bound of `verify::distribution`: with
/// probability at least `1 − δ`, the empirical distribution of `n` samples
/// over `dim` outcomes lies within total-variation distance
/// `½(√(dim/n) + √(2 ln(2/δ)/n))` of the distribution it samples.
fn one_sample_bound(dim: usize, n: usize, delta: f64) -> f64 {
    let n = n as f64;
    0.5 * ((dim as f64 / n).sqrt() + (2.0 * (2.0 / delta).ln() / n).sqrt())
}

#[test]
fn folded_trajectories_match_the_density_matrix_above_the_fold_threshold() {
    // The smallest register on which trajectories run folded steps, under
    // Aspen-8's calibrated noise: CZ/CNOT depolarizing, T1/T2 relaxation for
    // every gate and a 2 µs measurement, readout off. Gates sit on the most
    // significant, middle and least significant qubits, include a reversed
    // pair, and Aggressive fusion carries channels across them.
    let n = FOLD_MIN_QUBITS;
    let mut noise = NoiseModel::from_device(&DeviceModel::aspen8(RngSeed(4)));
    noise.with_readout_error = false;
    let mut circuit = Circuit::new(n);
    circuit.push(Operation::h(0));
    circuit.push(Operation::cnot(0, 1));
    circuit.push(Operation::x(n / 2 - 1));
    circuit.push(Operation::cz(n / 2, n / 2 - 1));
    circuit.push(Operation::rx(n - 1, 2.2));
    circuit.push(Operation::measure(vec![0, 1, n / 2 - 1, n / 2, n - 1]));
    let exact = DensityMatrix::evolve(&circuit, &noise).probabilities();

    let shots = 12_000;
    let delta = 1e-3;
    for (fusion, seed) in [(FusionPolicy::Safe, 31), (FusionPolicy::Aggressive, 32)] {
        let engine = ExecutionEngine::builder()
            .fusion(fusion)
            .build()
            .expect("a default engine with a fusion policy is valid");
        let counts = engine
            .run_job(&SimJob::noisy(
                circuit.clone(),
                noise.clone(),
                shots,
                RngSeed(seed),
            ))
            .counts;
        let empirical: Vec<f64> = (0..1 << n).map(|i| counts.probability(i)).collect();
        let tv = total_variation(&exact, &empirical);
        let bound = one_sample_bound(1 << n, shots, delta);
        assert!(tv <= bound, "{fusion:?}: TVD {tv} above the bound {bound}");
        // Per-qubit marginals (two outcomes each, union bound over qubits)
        // give the sharper check.
        let marginal_bound = one_sample_bound(2, shots, delta / n as f64);
        for q in 0..n {
            let mask = 1 << (n - 1 - q);
            let one =
                |p: &[f64]| -> f64 { (0..1 << n).filter(|i| i & mask != 0).map(|i| p[i]).sum() };
            let gap = (one(&exact) - one(&empirical)).abs();
            assert!(
                gap <= marginal_bound,
                "{fusion:?}: qubit {q} marginal off by {gap}, bound {marginal_bound}"
            );
        }
    }
}

/// Asserts that Aggressive fusion leaves the exact density matrix as the
/// unfused lowering has it, to 1e-10 per entry: carrying a channel past a
/// kernel must give the same mixture, not only the same distribution. Also
/// asserts that the lowering did carry channels, so the comparison is not
/// vacuous: an op's own channels are those of the unfused lowering, while a
/// carried one has been conjugated past at least one kernel.
fn assert_aggressive_lowering_is_exact(circuit: &Circuit, noise: &NoiseModel, label: &str) {
    let unfused = PrecompiledCircuit::new(circuit, noise);
    let aggressive = PrecompiledCircuit::with_fusion(circuit, noise, FusionPolicy::Aggressive);
    let unfused_channels: Vec<&AttachedChannel> =
        unfused.ops().iter().flat_map(|op| &op.channels).collect();
    assert!(
        aggressive
            .ops()
            .iter()
            .flat_map(|op| &op.channels)
            .any(|channel| !unfused_channels.contains(&channel)),
        "{label}: Aggressive fusion carried no channel"
    );
    let expected = DensityMatrix::evolve_precompiled(&unfused);
    let fused = DensityMatrix::evolve_precompiled(&aggressive);
    let (expected, fused) = (expected.matrix(), fused.matrix());
    let dim = 1 << circuit.num_qubits();
    let mut worst: f64 = 0.0;
    for r in 0..dim {
        for c in 0..dim {
            worst = worst.max((expected[(r, c)] - fused[(r, c)]).norm());
        }
    }
    assert!(worst <= 1e-10, "{label}: an entry differs by {worst}");
}

/// Four qubits where Aggressive fusion takes every frame path:
/// - one-qubit channels widen from both slots of a pair (H on 0 and RX on 1
///   into CZ(0, 1));
/// - reversed-pair kernels cross carried two-qubit channels (CNOT(1, 0)
///   after CZ(0, 1), ZZ(3, 2) after CNOT(2, 3));
/// - a one-qubit channel left on its qubit by a disjoint kernel (CZ(0, 1)'s
///   relaxation on 1, past U3 on 0) widens into the reversed pair;
/// - a measurement mid-circuit stops the fusion scan.
fn frame_crossing_circuit() -> Circuit {
    let mut c = Circuit::new(4);
    c.push(Operation::h(0));
    c.push(Operation::rx(1, 0.9));
    c.push(Operation::cz(0, 1));
    c.push(Operation::u3(0, 0.4, 0.2, 1.7));
    c.push(Operation::cnot(1, 0));
    c.push(Operation::u3(2, 1.1, 0.3, 0.5));
    c.push(Operation::cnot(2, 3));
    c.push(Operation::zz(3, 2, 0.7));
    c.push(Operation::measure(vec![0, 1]));
    c.push(Operation::rx(1, 1.3));
    c.push(Operation::cz(1, 2));
    c.push(Operation::h(2));
    c.push(Operation::cnot(2, 1));
    c.push(Operation::cnot(0, 1));
    c.measure_all();
    c
}

#[test]
fn aggressive_lowering_evolves_the_exact_density_matrix_of_the_unfused_one() {
    let device = DeviceModel::aspen8(RngSeed(1));
    for set in [InstructionSet::s(3), InstructionSet::full_xy()] {
        let compiler = Compiler::for_device(device.clone())
            .instruction_set(set.clone())
            .options(CompilerOptions::sweep())
            .build()
            .expect("S3 and FullXY are valid instruction sets");
        for (workload, logical) in [
            ("QAOA-4", qaoa_circuit(4, RngSeed(3))),
            ("QV-3", qv_circuit(3, RngSeed(3))),
        ] {
            let compiled = compiler
                .compile(&logical)
                .expect("small circuits fit Aspen-8");
            let mut noise = NoiseModel::from_device(&compiled.subdevice);
            noise.with_readout_error = false;
            let label = format!("{workload} under {}", set.name());
            assert_aggressive_lowering_is_exact(&compiled.circuit, &noise, &label);
        }
    }
    let mut noise = NoiseModel::from_device(&device);
    noise.with_readout_error = false;
    assert_aggressive_lowering_is_exact(&frame_crossing_circuit(), &noise, "frame crossings");
}

/// Asserts that every op of the unfused lowering carries exactly the
/// channels that `noise_for` builds for its source op. The lowering builds
/// each distinct channel once and hands out clones, so a memo keyed on too
/// little would give some op another op's channel. Also asserts that some
/// channel was shared, so the comparison is not vacuous.
fn assert_lowered_channels_match_noise_for(circuit: &Circuit, noise: &NoiseModel, label: &str) {
    let lowered = PrecompiledCircuit::with_fusion(circuit, noise, FusionPolicy::Off);
    assert_eq!(lowered.ops().len(), circuit.len(), "{label}");
    for (i, (op, lowered)) in circuit.iter().zip(lowered.ops()).enumerate() {
        assert_eq!(lowered.channels, noise.noise_for(op), "{label}, op {i}");
    }
    let twoq_depolarizing: Vec<_> = lowered
        .ops()
        .iter()
        .flat_map(|op| &op.channels)
        .filter_map(|channel| match channel {
            AttachedChannel::Two { channel, .. } => Some(channel),
            AttachedChannel::One { .. } => None,
        })
        .collect();
    let shared = twoq_depolarizing
        .iter()
        .enumerate()
        .any(|(i, a)| twoq_depolarizing[i + 1..].contains(a));
    assert!(
        shared || twoq_depolarizing.is_empty(),
        "{label}: no two-qubit channel was shared"
    );
}

/// One-qubit gates, two gate types on one pair (whose calibrated fidelities
/// differ on Aspen-8), the pair reversed, a measurement and a barrier.
fn mixed_label_circuit() -> Circuit {
    let mut c = Circuit::new(4);
    c.push(Operation::h(2));
    c.push(Operation::rx(3, 0.4));
    c.push(Operation::cz(2, 3));
    c.push(Operation::unitary2q(
        "XY(pi)",
        gates::fsim::xy(std::f64::consts::PI),
        2,
        3,
    ));
    c.push(Operation::cz(3, 2));
    c.push(Operation::u3(0, 0.3, 0.2, 0.1));
    c.push(Operation::cnot(0, 1));
    c.push(Operation::barrier(vec![0, 1, 2, 3]));
    c.push(Operation::measure(vec![1, 2]));
    c.push(Operation::h(1));
    c.push(Operation::cz(2, 3));
    c.measure_all();
    c
}

/// Noise models the lowering must match op for op: the calibrated one, one
/// with doubled two-qubit error and one without relaxation.
fn noise_variants(device: &DeviceModel) -> Vec<(&'static str, NoiseModel)> {
    let calibrated = NoiseModel::from_device(device);
    let mut doubled = calibrated.clone();
    doubled.two_qubit_error_scale = 2.0;
    let mut no_relaxation = calibrated.clone();
    no_relaxation.with_relaxation = false;
    vec![
        ("calibrated", calibrated),
        ("2q error x2", doubled),
        ("no relaxation", no_relaxation),
    ]
}

#[test]
fn lowered_channels_equal_the_per_op_noise_for_channels() {
    let device = DeviceModel::aspen8(RngSeed(1));
    for set in [InstructionSet::s(3), InstructionSet::full_xy()] {
        let compiler = Compiler::for_device(device.clone())
            .instruction_set(set.clone())
            .options(CompilerOptions::sweep())
            .build()
            .expect("S3 and FullXY are valid instruction sets");
        for (workload, logical) in [
            ("QV-4", qv_circuit(4, RngSeed(4))),
            ("QAOA-6", qaoa_circuit(6, RngSeed(4))),
        ] {
            let compiled = compiler
                .compile(&logical)
                .expect("small circuits fit Aspen-8");
            for (model, noise) in noise_variants(&compiled.subdevice) {
                let label = format!("{workload} under {}, {model}", set.name());
                assert_lowered_channels_match_noise_for(&compiled.circuit, &noise, &label);
            }
        }
    }
    for (model, noise) in noise_variants(&device) {
        let label = format!("mixed labels, {model}");
        assert_lowered_channels_match_noise_for(&mixed_label_circuit(), &noise, &label);
    }
}
