//! Criterion benches for the parallel batched-shot execution engine: one
//! precompiled trajectory, and 1-vs-N-thread batch throughput on a
//! figure-style workload.

use circuit::Circuit;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use device::DeviceModel;
use qmath::RngSeed;
use sim::{ExecutionEngine, NoiseModel, PrecompiledCircuit, SimJob};

/// A fig6/fig9-style workload: several QV circuits on a calibrated device
/// region, thousands of shots each.
fn fig_workload(circuits: usize, n: usize) -> (Vec<Circuit>, NoiseModel) {
    let device = DeviceModel::sycamore(RngSeed(1));
    let region: Vec<usize> = (0..n).collect();
    let sub = device.subdevice(&region);
    let noise = NoiseModel::from_device(&sub);
    let circuits = (0..circuits)
        .map(|i| apps::workloads::qv_circuit(n, RngSeed(100 + i as u64)))
        .collect();
    (circuits, noise)
}

fn bench_single_shot(c: &mut Criterion) {
    let (circuits, noise) = fig_workload(1, 4);
    let pre = PrecompiledCircuit::new(&circuits[0], &noise);
    let mut group = c.benchmark_group("single_shot");
    group.sample_size(200);
    // Channels were built once; the shot only samples them.
    group.bench_function("precompiled", |b| {
        let mut shot = 0u64;
        b.iter(|| {
            shot += 1;
            let mut rng = RngSeed(7).child(shot).rng();
            pre.run_trajectory(&mut rng)
        });
    });
    group.finish();
}

fn bench_batch_throughput(c: &mut Criterion) {
    let (circuits, noise) = fig_workload(4, 4);
    let shots = 2000;
    let jobs: Vec<SimJob> = circuits
        .iter()
        .enumerate()
        .map(|(i, circ)| SimJob::noisy(circ.clone(), noise.clone(), shots, RngSeed(i as u64)))
        .collect();
    let mut group = c.benchmark_group("fig_workload_throughput");
    group.sample_size(10);
    for threads in [1usize, 2, 8] {
        let engine = ExecutionEngine::builder().threads(threads).build().unwrap();
        group.bench_with_input(
            BenchmarkId::new("engine", format!("{threads}_threads")),
            &engine,
            |b, engine| b.iter(|| engine.run_batch(&jobs)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_single_shot, bench_batch_throughput);
criterion_main!(benches);
