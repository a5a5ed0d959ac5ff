//! Validation of the parallel batched-shot execution engine (`sim::engine`):
//! determinism across thread counts, agreement with per-shot streams over the
//! unfused lowering (how the pinned noisy counts are sampled), and
//! convergence to the exact density-matrix distribution.

use apps::workloads::{qaoa_circuit, qv_circuit};
use circuit::{Circuit, Operation};
use device::DeviceModel;
use proptest::prelude::*;
use qmath::RngSeed;
use sim::{
    Counts, DensityMatrix, ExecutionEngine, FusionPolicy, NoiseModel, SeedPolicy, SimJob, SimResult,
};

fn ghz_circuit(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.push(Operation::h(0));
    for q in 1..n {
        c.push(Operation::cnot(q - 1, q));
    }
    c.measure_all();
    c
}

fn total_variation(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y).abs())
        .sum::<f64>()
        / 2.0
}

fn engine_with(threads: usize) -> ExecutionEngine {
    ExecutionEngine::builder().threads(threads).build().unwrap()
}

fn batch_with(threads: usize, jobs: &[SimJob]) -> Vec<SimResult> {
    engine_with(threads).run_batch(jobs)
}

/// Counts from per-shot seed streams over the unfused lowering, on the
/// default thread count.
fn per_shot_unfused(circuit: &Circuit, noise: NoiseModel, shots: usize, seed: RngSeed) -> Counts {
    ExecutionEngine::builder()
        .seed_policy(SeedPolicy::PerShot)
        .fusion(FusionPolicy::Off)
        .build()
        .unwrap()
        .run_job(&SimJob::noisy(circuit.clone(), noise, shots, seed))
        .counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline determinism guarantee: for any workload, noise level,
    /// shot budget and seed, `run_batch` produces bit-identical `Counts`
    /// with 1, 2 and 8 worker threads.
    #[test]
    fn run_batch_is_bit_identical_across_thread_counts(
        seed in 0u64..500,
        shots in 1usize..400,
        fid_step in 0usize..3,
        workload in 0usize..2,
    ) {
        let fidelity = [0.9, 0.96, 0.995][fid_step];
        let circuit = match workload {
            0 => qv_circuit(3, RngSeed(seed)),
            _ => qaoa_circuit(3, RngSeed(seed)),
        };
        let noise = NoiseModel::from_device(&DeviceModel::ideal(3, fidelity));
        let jobs = vec![
            SimJob::noisy(circuit.clone(), noise.clone(), shots, RngSeed(seed ^ 0xA5)),
            SimJob::ideal(circuit, shots, RngSeed(seed ^ 0x5A)),
        ];
        let reference = batch_with(1, &jobs);
        for threads in [2usize, 8] {
            let parallel = batch_with(threads, &jobs);
            for (r, p) in reference.iter().zip(parallel.iter()) {
                prop_assert_eq!(&r.counts, &p.counts);
            }
        }
    }

    /// Under the per-shot seed policy, Safe fusion and four threads reproduce
    /// the unfused lowering on the default thread count bit for bit.
    #[test]
    fn per_shot_policy_matches_noisy_simulator_exactly(
        seed in 0u64..500,
        shots in 1usize..300,
    ) {
        let circuit = ghz_circuit(3);
        let noise = NoiseModel::from_device(&DeviceModel::ideal(3, 0.95));
        let reference = per_shot_unfused(&circuit, noise.clone(), shots, RngSeed(seed));
        let engine = ExecutionEngine::builder()
            .threads(4)
            .seed_policy(SeedPolicy::PerShot)
            .build()
            .unwrap();
        let batch = engine.run_batch(&[SimJob::noisy(circuit, noise, shots, RngSeed(seed))]);
        prop_assert_eq!(&reference, &batch[0].counts);
    }
}

#[test]
fn ghz_engine_agrees_with_noisy_simulator_distribution() {
    // The engine's default per-shard streams differ from per-shot streams,
    // so the histograms are different samples of the same distribution: they
    // must agree statistically.
    let circuit = ghz_circuit(3);
    let mut noise = NoiseModel::from_device(&DeviceModel::ideal(3, 0.95));
    noise.with_readout_error = false;
    let shots = 8000;

    let per_shot = per_shot_unfused(&circuit, noise.clone(), shots, RngSeed(21));
    let engine = engine_with(8).run_batch(&[SimJob::noisy(circuit, noise, shots, RngSeed(21))]);

    let a: Vec<f64> = (0..8).map(|i| per_shot.probability(i)).collect();
    let b: Vec<f64> = (0..8).map(|i| engine[0].counts.probability(i)).collect();
    let tv = total_variation(&a, &b);
    assert!(tv < 0.03, "per-shard vs per-shot TVD {tv}: {a:?} vs {b:?}");
}

#[test]
fn engine_counts_converge_to_the_density_matrix() {
    // Readout error acts on classical outcomes, not on rho: disable it so the
    // comparison is against the exact channel evolution.
    let circuit = ghz_circuit(3);
    let mut noise = NoiseModel::from_device(&DeviceModel::ideal(3, 0.93));
    noise.with_readout_error = false;

    let exact = DensityMatrix::evolve(&circuit, &noise).probabilities();
    let shots = 8000;
    let result = engine_with(8)
        .run_batch(&[SimJob::noisy(circuit, noise, shots, RngSeed(5))])
        .remove(0);
    let empirical: Vec<f64> = (0..8).map(|i| result.counts.probability(i)).collect();

    let tv = total_variation(&exact, &empirical);
    assert!(
        tv < 0.025,
        "engine vs density TVD {tv}: exact {exact:?}, empirical {empirical:?}"
    );
    assert_eq!(result.counts.total(), shots);
    assert!(result.report.shots_per_sec() > 0.0);
}

#[test]
fn engine_report_reflects_sharding() {
    let circuit = ghz_circuit(2);
    let noise = NoiseModel::from_device(&DeviceModel::ideal(2, 0.97));
    let engine = ExecutionEngine::builder()
        .threads(4)
        .shot_chunk_size(100)
        .build()
        .unwrap();
    let result = engine
        .run_batch(&[SimJob::noisy(circuit, noise, 1000, RngSeed(1))])
        .remove(0);
    assert_eq!(result.report.shots, 1000);
    assert_eq!(result.report.shards, 10);
    assert_eq!(result.report.threads, 4);
    assert!(result.report.precompile > std::time::Duration::ZERO);
    assert_eq!(result.counts.total(), 1000);
}

#[test]
fn batched_jobs_are_independent_of_their_neighbours() {
    // A job's counts must not depend on what else is in the batch.
    let circuit = ghz_circuit(3);
    let noise = NoiseModel::from_device(&DeviceModel::ideal(3, 0.95));
    let job = SimJob::noisy(circuit.clone(), noise.clone(), 200, RngSeed(9));
    let alone = engine_with(4).run_batch(std::slice::from_ref(&job));
    let crowded = engine_with(4).run_batch(&[
        SimJob::ideal(circuit.clone(), 50, RngSeed(1)),
        job,
        SimJob::noisy(circuit, noise, 75, RngSeed(2)),
    ]);
    assert_eq!(alone[0].counts, crowded[1].counts);
}
