//! Quickstart: decompose an application operation with NuOp, compare gate
//! types, and compile + simulate a small circuit end to end.
//!
//! Run with `cargo run --release -p nuop-tests --example quickstart`.

use circuit::{Circuit, Operation};
use compiler::{Compiler, CompilerOptions};
use device::DeviceModel;
use gates::{standard, GateType, InstructionSet};
use nuop_core::{decompose_fixed, DecomposeConfig};
use qmath::RngSeed;
use sim::{ExecutionEngine, FusionPolicy, NoiseModel, SeedPolicy, SimJob, StateVector};

fn main() {
    // 1. Decompose a single application unitary into a hardware gate type.
    let target = standard::zz_interaction(0.3); // a QAOA cost term
    let decomposition = decompose_fixed(&target, &GateType::cz(), &DecomposeConfig::default());
    println!(
        "ZZ(0.3) needs {} CZ gates (decomposition fidelity {:.6})",
        decomposition.layers, decomposition.decomposition_fidelity
    );

    // 2. Compare hardware gate types for the same operation.
    for gate in [GateType::cz(), GateType::sqrt_iswap(), GateType::syc()] {
        let d = decompose_fixed(&target, &gate, &DecomposeConfig::default());
        println!("  with {:<12} -> {} gates", gate.name(), d.layers);
    }

    // 3. Build a reusable compiler for Rigetti Aspen-8 with the R2
    //    instruction set, compile a small circuit, and simulate it with
    //    realistic noise. The compiler can be reused for further circuits —
    //    its decomposition cache persists across calls.
    let mut circuit = Circuit::new(3);
    circuit.push(Operation::h(0));
    circuit.push(Operation::zz(0, 1, 0.3));
    circuit.push(Operation::zz(1, 2, 0.3));
    circuit.push(Operation::rx(0, 0.7));
    circuit.push(Operation::rx(1, 0.7));
    circuit.push(Operation::rx(2, 0.7));
    circuit.measure_all();

    let compiler = Compiler::for_device(DeviceModel::aspen8(RngSeed(1)))
        .instruction_set(InstructionSet::r(2))
        .options(CompilerOptions::default())
        .build()
        .expect("valid compiler configuration");
    let compiled = compiler.compile(&circuit).expect("circuit fits Aspen-8");
    println!(
        "\nCompiled onto Aspen-8 qubits {:?}: {} two-qubit gates ({} routing SWAPs before decomposition)",
        compiled.region,
        compiled.two_qubit_gate_count(),
        compiled.swap_count
    );
    println!(
        "Gate-type histogram: {:?}",
        compiled.pass_stats.gate_type_histogram
    );

    // Compiling the same circuit again is served from the shared cache.
    let (_, report) = compiler
        .compile_with_report(&circuit)
        .expect("circuit fits Aspen-8");
    println!(
        "Recompile: {} cache hits, {} misses, {:?} total",
        report.cache_hits,
        report.cache_misses,
        report.total_duration()
    );

    // Per-shot seed streams over the unfused lowering: each shot's outcome
    // depends only on the seed and the shot's index.
    let engine = ExecutionEngine::builder()
        .seed_policy(SeedPolicy::PerShot)
        .fusion(FusionPolicy::Off)
        .build()
        .expect("valid engine configuration");
    let noise = NoiseModel::from_device(&compiled.subdevice);
    let job = SimJob::noisy(compiled.circuit.clone(), noise, 2000, RngSeed(2));
    let logical = compiled.logical_counts(&engine.run_job(&job).counts);
    let ideal = StateVector::evolve(&circuit.without_measurements()).probabilities();
    let xed = apps::cross_entropy_difference(&logical, &ideal);
    println!("Noisy execution cross-entropy difference: {xed:.3} (1 = ideal, 0 = useless)");
}
