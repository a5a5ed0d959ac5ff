//! Criterion micro-benchmarks for the simulation and compilation substrate:
//! state-vector scaling, noisy trajectories, the end-to-end pipeline
//! kernels behind Figs. 9-10, and the device-only work of a warm request.

use bench::{compiler_for, qaoa_suite, qv_suite};
use compiler::{try_select_region, CompilerOptions};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use device::DeviceModel;
use gates::InstructionSet;
use qmath::RngSeed;
use sim::{
    ExecutionEngine, FusionPolicy, NoiseModel, PrecompiledCircuit, SeedPolicy, SimJob, StateVector,
};

fn bench_statevector_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ideal_simulation");
    group.sample_size(10);
    for n in [4usize, 8, 12] {
        let circuit = apps::workloads::qv_circuit(n, RngSeed(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &circuit, |b, circ| {
            b.iter(|| StateVector::evolve(circ).probabilities());
        });
    }
    group.finish();
}

fn bench_noisy_trajectories(c: &mut Criterion) {
    let device = DeviceModel::sycamore(RngSeed(1));
    let region: Vec<usize> = (0..4).collect();
    let sub = device.subdevice(&region);
    let circuit = apps::workloads::qaoa_circuit(4, RngSeed(2));
    let noise = NoiseModel::from_device(&sub);
    // The engine the workspace's pinned noisy counts come from: per-shot
    // streams over the unfused lowering.
    let engine = ExecutionEngine::builder()
        .seed_policy(SeedPolicy::PerShot)
        .fusion(FusionPolicy::Off)
        .build()
        .expect("the default engine with per-shot streams is a valid configuration");
    let mut group = c.benchmark_group("noisy_simulation");
    group.sample_size(10);
    for shots in [50usize, 200] {
        let job = SimJob::noisy(circuit.clone(), noise.clone(), shots, RngSeed(3));
        group.bench_with_input(BenchmarkId::from_parameter(shots), &job, |b, job| {
            b.iter(|| engine.run_job(job));
        });
    }
    group.finish();
}

fn bench_compile_pipeline(c: &mut Criterion) {
    let device = DeviceModel::aspen8(RngSeed(4));
    let suite = qv_suite(3, 1, RngSeed(5));
    let options = CompilerOptions::sweep();
    let mut group = c.benchmark_group("compile_pipeline");
    group.sample_size(10);
    for set in [InstructionSet::s(3), InstructionSet::r(5)] {
        // Fresh compiler per iteration: measures the cold-cache pipeline.
        group.bench_with_input(BenchmarkId::new("qv3_cold", set.name()), &set, |b, set| {
            b.iter(|| {
                let compiler = compiler_for(&device, set, &options).expect("valid configuration");
                compiler.compile(&suite[0].circuit).expect("circuit fits")
            });
        });
        // Reused compiler, compiled once before timing: every decomposition
        // is a cache hit — the service's steady-state cost.
        let warm = compiler_for(&device, &set, &options).expect("valid configuration");
        warm.compile(&suite[0].circuit).expect("circuit fits");
        group.bench_with_input(BenchmarkId::new("qv3_warm", set.name()), &set, |b, _| {
            b.iter(|| warm.compile(&suite[0].circuit).expect("circuit fits"));
        });
    }
    let qaoa = qaoa_suite(3, 1, RngSeed(6));
    let g3 = compiler_for(&device, &InstructionSet::g(3), &options).expect("valid configuration");
    g3.compile(&qaoa[0].circuit).expect("circuit fits");
    group.bench_function("qaoa3_G3_warm", |b| {
        b.iter(|| g3.compile(&qaoa[0].circuit).expect("circuit fits"));
    });
    group.finish();
}

/// The parts of a warm request that depend only on the device: region
/// selection at the widths the job server sees (and Sycamore at 20), and
/// the Safe lowering of a QV-4 circuit compiled for Aspen-8 under S3, which
/// builds the circuit's noise channels.
fn bench_warm_request(c: &mut Criterion) {
    let aspen = DeviceModel::aspen8(RngSeed(1));
    let sycamore = DeviceModel::sycamore(RngSeed(2));
    let mut group = c.benchmark_group("warm_request");
    group.sample_size(100);
    for (label, device, n) in [
        ("region_aspen8", &aspen, 4usize),
        ("region_aspen8", &aspen, 6),
        ("region_sycamore", &sycamore, 20),
    ] {
        group.bench_with_input(BenchmarkId::new(label, n), &n, |b, &n| {
            b.iter(|| try_select_region(device, n).expect("the region fits the device"));
        });
    }
    let compiled = compiler_for(&aspen, &InstructionSet::s(3), &CompilerOptions::sweep())
        .expect("S3 is a valid instruction set")
        .compile(&apps::workloads::qv_circuit(4, RngSeed(1)))
        .expect("QV-4 fits Aspen-8");
    let noise = NoiseModel::from_device(&compiled.subdevice);
    group.bench_function("lower_safe_qv4", |b| {
        b.iter(|| PrecompiledCircuit::with_fusion(&compiled.circuit, &noise, FusionPolicy::Safe));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_statevector_scaling,
    bench_noisy_trajectories,
    bench_compile_pipeline,
    bench_warm_request
);
criterion_main!(benches);
