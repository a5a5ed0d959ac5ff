//! Criterion micro-benchmarks for the NuOp decomposition pass and its
//! ablations (exact vs approximate, layer growth, noise-adaptive selection,
//! KAK baseline), plus the cold per-miss cost of a Rigetti-set compile.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gates::{GateType, InstructionSet};
use nuop_core::{
    decompose_approx, decompose_continuous, decompose_fixed, decompose_with_gate_choice,
    DecomposeConfig, HardwareGate,
};
use qmath::{haar_random_su4, RngSeed};
use synth::{cirq_gate_count, minimal_cnot_count, CirqTargetGate};

fn sweep_config() -> DecomposeConfig {
    DecomposeConfig::sweep()
}

/// Fig. 6 kernel: decompose a QV unitary into each hardware gate type.
fn bench_fig6_nuop_vs_cirq(c: &mut Criterion) {
    let mut rng = RngSeed(1).rng();
    let target = haar_random_su4(&mut rng);
    let mut group = c.benchmark_group("fig6_decomposition");
    group.sample_size(10);
    for gate in [GateType::cz(), GateType::syc(), GateType::sqrt_iswap()] {
        group.bench_with_input(
            BenchmarkId::new("nuop_exact", gate.name()),
            &gate,
            |b, g| b.iter(|| decompose_fixed(&target, g, &sweep_config())),
        );
    }
    group.bench_function("cirq_kak_count", |b| {
        b.iter(|| cirq_gate_count(&target, CirqTargetGate::Cz));
    });
    group.bench_function("sbm_minimal_cnot_count", |b| {
        b.iter(|| minimal_cnot_count(&target));
    });
    group.finish();
}

/// Ablation: exact vs approximate decomposition (Eq. 1 vs Eq. 2).
fn bench_approx_vs_exact(c: &mut Criterion) {
    let mut rng = RngSeed(2).rng();
    let target = haar_random_su4(&mut rng);
    let mut group = c.benchmark_group("approx_vs_exact");
    group.sample_size(10);
    group.bench_function("exact", |b| {
        b.iter(|| decompose_fixed(&target, &GateType::cz(), &sweep_config()));
    });
    group.bench_function("approx_99", |b| {
        b.iter(|| decompose_approx(&target, &GateType::cz(), 0.99, &sweep_config()));
    });
    group.bench_function("approx_95", |b| {
        b.iter(|| decompose_approx(&target, &GateType::cz(), 0.95, &sweep_config()));
    });
    group.finish();
}

/// Ablation: template depth (optimization cost grows with the layer count).
fn bench_nuop_layers(c: &mut Criterion) {
    let mut rng = RngSeed(3).rng();
    let target = haar_random_su4(&mut rng);
    let mut group = c.benchmark_group("nuop_layer_growth");
    group.sample_size(10);
    for max_layers in [1usize, 2, 3] {
        let cfg = DecomposeConfig {
            max_layers,
            ..DecomposeConfig::sweep()
        };
        group.bench_with_input(BenchmarkId::from_parameter(max_layers), &cfg, |b, cfg| {
            b.iter(|| decompose_fixed(&target, &GateType::syc(), cfg));
        });
    }
    group.finish();
}

/// Ablation: noise-adaptive selection across 1, 2 and 4 candidate gate types.
fn bench_noise_adaptive(c: &mut Criterion) {
    let mut rng = RngSeed(4).rng();
    let target = haar_random_su4(&mut rng);
    let candidates = [
        HardwareGate::new(GateType::syc(), 0.994),
        HardwareGate::new(GateType::sqrt_iswap(), 0.992),
        HardwareGate::new(GateType::cz(), 0.99),
        HardwareGate::new(GateType::iswap(), 0.988),
    ];
    let mut group = c.benchmark_group("noise_adaptive_selection");
    group.sample_size(10);
    for n in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| decompose_with_gate_choice(&target, &candidates[..n], &sweep_config()));
        });
    }
    group.finish();
}

/// Continuous-family (FullfSim) decomposition, the most expensive template.
fn bench_continuous_family(c: &mut Criterion) {
    let mut rng = RngSeed(5).rng();
    let target = haar_random_su4(&mut rng);
    let mut group = c.benchmark_group("continuous_family");
    group.sample_size(10);
    group.bench_function("full_fsim", |b| {
        b.iter(|| {
            decompose_continuous(
                &target,
                gates::fsim::ContinuousFamily::FullFsim,
                &DecomposeConfig {
                    max_layers: 2,
                    ..DecomposeConfig::sweep()
                },
            )
        });
    });
    group.finish();
}

/// One cold cache miss of a Fig. 9 compile on a Rigetti set: a Haar target
/// decomposed with each of R4's five types (S2–S6) and the best kept. The
/// fidelities are Aspen-8-like: CZ and XY(π) as on the Fig. 3 ring, the other
/// XY(θ) types within the 95–99 % of paper §VI.
fn bench_rigetti_miss(c: &mut Criterion) {
    let mut rng = RngSeed(6).rng();
    let target = haar_random_su4(&mut rng);
    let fidelities = [0.97, 0.94, 0.95, 0.96, 0.98];
    let candidates: Vec<HardwareGate> = InstructionSet::r(4)
        .gate_types()
        .iter()
        .zip(fidelities)
        .map(|(gate, fidelity)| HardwareGate::new(gate.clone(), fidelity))
        .collect();
    let mut group = c.benchmark_group("rigetti_miss");
    group.sample_size(10);
    group.bench_function("r4_gate_choice", |b| {
        b.iter(|| decompose_with_gate_choice(&target, &candidates, &sweep_config()));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fig6_nuop_vs_cirq,
    bench_approx_vs_exact,
    bench_nuop_layers,
    bench_noise_adaptive,
    bench_continuous_family,
    bench_rigetti_miss
);
criterion_main!(benches);
