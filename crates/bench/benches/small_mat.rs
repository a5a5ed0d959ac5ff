//! Micro-benchmarks for the stack-allocated small-matrix kernel (PR 4).
//!
//! Two layers are measured:
//!
//! * **Raw 4×4 / 2×2 kernels** — multiply, adjoint and Kronecker product for
//!   the heap-allocated `CMatrix` versus the stack-allocated `SmallMat`, the
//!   operations that dominate the NuOp objective function.
//! * **Cold decomposition** — a full `decompose_fixed` run on a Haar-random
//!   SU(4), the end-to-end hot path the `DecompositionCache` cannot help with.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gates::{standard, GateType};
use nuop_core::{decompose_fixed, DecomposeConfig, Template};
use qmath::{
    haar_random_su4, haar_random_unitary, hilbert_schmidt_fidelity, CMatrix, Mat2, Mat4, RngSeed,
};

/// Raw 4×4 multiply: CMatrix (heap) vs Mat4 (stack).
fn bench_mul_4x4(c: &mut Criterion) {
    let mut rng = RngSeed(1).rng();
    let a = haar_random_su4(&mut rng);
    let b = haar_random_su4(&mut rng);
    let a_heap = CMatrix::from(a);
    let b_heap = CMatrix::from(b);
    let mut group = c.benchmark_group("mul_4x4");
    group.sample_size(100_000);
    group.bench_function("cmatrix", |bch| bch.iter(|| black_box(&a_heap) * &b_heap));
    group.bench_function("small_mat", |bch| bch.iter(|| black_box(a) * b));
    group.finish();
}

/// Adjoint (conjugate transpose) of a 4×4.
fn bench_adjoint_4x4(c: &mut Criterion) {
    let mut rng = RngSeed(2).rng();
    let a = haar_random_su4(&mut rng);
    let a_heap = CMatrix::from(a);
    let mut group = c.benchmark_group("adjoint_4x4");
    group.sample_size(100_000);
    group.bench_function("cmatrix", |bch| bch.iter(|| black_box(&a_heap).dagger()));
    group.bench_function("small_mat", |bch| bch.iter(|| black_box(a).dagger()));
    group.finish();
}

/// Kronecker product `2x2 ⊗ 2x2 → 4x4` (the single-qubit layer of a template).
fn bench_kron_2x2(c: &mut Criterion) {
    let mut rng = RngSeed(3).rng();
    let a_heap = haar_random_unitary(2, &mut rng);
    let b_heap = haar_random_unitary(2, &mut rng);
    let a = Mat2::try_from(&a_heap).unwrap();
    let b = Mat2::try_from(&b_heap).unwrap();
    let mut group = c.benchmark_group("kron_2x2");
    group.sample_size(100_000);
    group.bench_function("cmatrix", |bch| {
        bch.iter(|| black_box(&a_heap).kron(&b_heap));
    });
    group.bench_function("small_mat", |bch| bch.iter(|| black_box(&a).kron(&b)));
    group.finish();
}

/// One evaluation of the NuOp objective (3-layer CZ template + HS fidelity):
/// the exact kernel BFGS calls thousands of times per decomposition.
fn bench_objective_eval(c: &mut Criterion) {
    let mut rng = RngSeed(4).rng();
    let target = haar_random_su4(&mut rng);
    let template = Template::fixed(standard::cz(), 3);
    let params: Vec<f64> = (0..template.parameter_count())
        .map(|i| (i as f64 * 0.37).sin())
        .collect();
    let mut group = c.benchmark_group("objective_eval");
    group.sample_size(10_000);
    group.bench_function("three_layer_cz", |bch| {
        bch.iter(|| 1.0 - hilbert_schmidt_fidelity(&template.unitary(black_box(&params)), &target));
    });
    group.finish();
}

/// Cold decomposition of a Haar-random SU(4): the full optimizer pipeline on
/// top of the small-matrix kernel.
fn bench_cold_decompose(c: &mut Criterion) {
    let mut rng = RngSeed(1).rng();
    let target = haar_random_su4(&mut rng);
    let mut group = c.benchmark_group("cold_decompose");
    group.sample_size(10);
    group.bench_function("su4_cz_sweep", |bch| {
        bch.iter(|| decompose_fixed(&target, &GateType::cz(), &DecomposeConfig::sweep()));
    });
    group.bench_function("su4_cz_exact", |bch| {
        bch.iter(|| decompose_fixed(&target, &GateType::cz(), &DecomposeConfig::default()));
    });
    group.finish();
}

/// Boundary conversions stay cheap (they only run outside the inner loop).
fn bench_conversions(c: &mut Criterion) {
    let mut rng = RngSeed(5).rng();
    let small = haar_random_su4(&mut rng);
    let heap = CMatrix::from(small);
    let mut group = c.benchmark_group("conversions");
    group.sample_size(100_000);
    group.bench_function("cmatrix_to_mat4", |bch| {
        bch.iter(|| Mat4::try_from(black_box(&heap)).unwrap());
    });
    group.bench_function("mat4_to_cmatrix", |bch| {
        bch.iter(|| CMatrix::from(black_box(&small)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_mul_4x4,
    bench_adjoint_4x4,
    bench_kron_2x2,
    bench_objective_eval,
    bench_cold_decompose,
    bench_conversions
);
criterion_main!(benches);
