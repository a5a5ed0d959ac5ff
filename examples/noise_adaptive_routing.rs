//! Demonstrates noise adaptivity across gate types (paper Fig. 3 + Fig. 5):
//! the same program compiled onto different Aspen-8 regions picks different
//! hardware gate types, following the per-edge calibration — then every
//! compiled variant is *executed* in one batch on the parallel
//! [`sim::ExecutionEngine`] to show the reliability gap directly.
//!
//! Run with `cargo run --release -p nuop-tests --example noise_adaptive_routing`.

use apps::heavy_output_probability;
use apps::workloads::qv_circuit;
use compiler::{CompiledCircuit, Compiler, CompilerOptions};
use device::DeviceModel;
use gates::InstructionSet;
use qmath::RngSeed;
use sim::{ExecutionEngine, NoiseModel, SimJob, StateVector};

fn main() {
    let device = DeviceModel::aspen8(RngSeed(1));
    let circuit = qv_circuit(3, RngSeed(7));
    let options = CompilerOptions::sweep();

    println!("Noise-adaptive gate-type selection on Aspen-8 (instruction set R2)\n");
    // Compile on the automatically selected (best) region, then on
    // deliberately different parts of the chip, and compare the chosen types.
    let compiler = Compiler::for_device(device.clone())
        .instruction_set(InstructionSet::r(2))
        .options(options.clone())
        .build()
        .expect("valid compiler configuration");
    let best = compiler.compile(&circuit).expect("circuit fits Aspen-8");
    println!(
        "best region {:?}: histogram {:?}, estimated fidelity {:.3}",
        best.region,
        best.pass_stats.gate_type_histogram,
        best.pass_stats.estimated_circuit_fidelity
    );

    let mut labels = vec![format!("best {:?}", best.region)];
    let mut variants: Vec<CompiledCircuit> = vec![best];
    for region in [[8usize, 9, 10], [16, 17, 18], [4, 5, 6]] {
        // Pin the region by compiling against the carved-out subdevice; each
        // compiler still reads that region's own calibration data.
        let sub_compiler = Compiler::for_device(device.subdevice(&region))
            .instruction_set(InstructionSet::r(2))
            .options(options.clone())
            .build()
            .expect("valid compiler configuration");
        let compiled = sub_compiler
            .compile(&circuit)
            .expect("region hosts circuit");
        println!(
            "region {:?}: histogram {:?}, estimated fidelity {:.3}, {} two-qubit gates",
            region,
            compiled.pass_stats.gate_type_histogram,
            compiled.pass_stats.estimated_circuit_fidelity,
            compiled.circuit.two_qubit_gate_count()
        );
        labels.push(format!("region {region:?}"));
        variants.push(compiled);
    }

    // Execute every compiled variant as one batch: each job pairs the
    // physical circuit with its own region's calibrated noise; the engine
    // lowers each circuit's Kraus channels once and shards the shots across
    // worker threads (deterministic for a fixed seed, any thread count).
    let shots = 2000;
    let jobs: Vec<SimJob> = variants
        .iter()
        .enumerate()
        .map(|(i, compiled)| {
            SimJob::noisy(
                compiled.circuit.clone(),
                NoiseModel::from_device(&compiled.subdevice),
                shots,
                RngSeed(0xAD).child(i as u64),
            )
        })
        .collect();
    let engine = ExecutionEngine::new();
    let results = engine.run_batch(&jobs);

    println!(
        "\nMeasured reliability ({shots} shots each, {} threads):",
        engine.threads()
    );
    let ideal = StateVector::evolve(&circuit.without_measurements()).probabilities();
    for ((label, compiled), result) in labels.iter().zip(&variants).zip(&results) {
        let logical = compiled.logical_counts(&result.counts);
        println!(
            "  {label:<22} HOP {:.3}  ({:.0} shots/s)",
            heavy_output_probability(&logical, &ideal),
            result.report.shots_per_sec()
        );
    }
    println!("\nDifferent regions favour different gate types because the calibrated");
    println!("fidelities vary edge to edge -- the compiler exploits whichever type is");
    println!("best locally, which is the paper's argument for exposing several types.");
    println!("The measured HOP tracks the compiler's estimated fidelity ordering.");
}
