//! Cross-crate integration tests: gates -> circuit -> NuOp -> compiler ->
//! simulator all agreeing with each other.

use apps::workloads::{qaoa_circuit, qft_echo_circuit, qv_circuit};
use circuit::{Circuit, Operation};
use compiler::{CompiledCircuit, Compiler, CompilerOptions};
use device::DeviceModel;
use gates::{GateType, InstructionSet};
use nuop_core::{decompose_fixed, DecomposeConfig};
use qmath::{hilbert_schmidt_fidelity, RngSeed};
use sim::{Counts, ExecutionEngine, FusionPolicy, NoiseModel, SeedPolicy, SimJob, StateVector};
use synth::minimal_cnot_count;

fn quick_options() -> CompilerOptions {
    CompilerOptions::sweep()
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

fn compile(circuit: &Circuit, device: &DeviceModel, set: &InstructionSet) -> CompiledCircuit {
    Compiler::for_device(device.clone())
        .instruction_set(set.clone())
        .options(quick_options())
        .build()
        .expect("valid compiler configuration")
        .compile(circuit)
        .expect("circuit fits device")
}

#[test]
fn nuop_matches_the_kak_lower_bound_for_cz_targets() {
    // NuOp's exact CZ decomposition of structured unitaries must use exactly
    // the minimal CNOT count predicted by the Weyl-chamber analysis.
    let cfg = DecomposeConfig::default();
    let cases = vec![
        gates::standard::cnot(),
        gates::standard::cz(),
        gates::standard::zz_interaction(0.4),
        gates::standard::cphase(0.9),
        gates::standard::swap(),
        gates::standard::iswap(),
    ];
    for target in cases {
        let kak = minimal_cnot_count(&target);
        let nuop = decompose_fixed(&target, &GateType::cz(), &cfg);
        assert_eq!(nuop.layers, kak, "target with KAK count {kak}");
        assert!(nuop.decomposition_fidelity > 0.9999);
    }
}

#[test]
fn decomposed_circuits_reproduce_application_unitaries() {
    let cfg = DecomposeConfig::default();
    let mut rng = RngSeed(11).rng();
    let target = qmath::haar_random_su4(&mut rng);
    for gate in [GateType::cz(), GateType::sqrt_iswap(), GateType::syc()] {
        let d = decompose_fixed(&target, &gate, &cfg);
        let circuit = d.to_circuit(2, 0, 1);
        let realized = circuit.unitary();
        let f = hilbert_schmidt_fidelity(&realized, &target);
        assert!(f > 0.9999, "{}: fidelity {f}", gate.name());
    }
}

#[test]
fn end_to_end_qaoa_compile_and_simulate_beats_uniform_sampling() {
    let device = DeviceModel::sycamore(RngSeed(3));
    let circuit = qaoa_circuit(4, RngSeed(4));
    let compiled = compile(&circuit, &device, &InstructionSet::g(3));
    let noise = NoiseModel::from_device(&compiled.subdevice);
    let counts = per_shot_unfused(&compiled.circuit, noise, 1000, RngSeed(5));
    let logical = compiled.logical_counts(&counts);
    let ideal = StateVector::evolve(&circuit.without_measurements()).probabilities();
    let xed = apps::cross_entropy_difference(&logical, &ideal);
    assert!(xed > 0.2, "XED = {xed}");
}

#[test]
fn qft_echo_on_noiseless_hardware_recovers_the_input_exactly() {
    let device = DeviceModel::aspen8(RngSeed(6));
    let (circuit, expected) = qft_echo_circuit(3, RngSeed(7));
    let compiled = compile(&circuit, &device, &InstructionSet::r(5));
    let noiseless = NoiseModel::noiseless(&compiled.subdevice);
    let counts = per_shot_unfused(&compiled.circuit, noiseless, 128, RngSeed(8));
    let logical = compiled.logical_counts(&counts);
    // The compiled circuit is approximate (it targets noisy calibration), but
    // the expected outcome must dominate.
    assert!(logical.probability(expected) > 0.6);
}

#[test]
fn multi_type_sets_never_lose_estimated_fidelity_versus_their_members() {
    let device = DeviceModel::sycamore(RngSeed(9));
    let circuit = qv_circuit(3, RngSeed(10));
    let g3 = compile(&circuit, &device, &InstructionSet::g(3));
    for k in 1..=3 {
        let single = compile(&circuit, &device, &InstructionSet::s(k));
        assert!(
            g3.pass_stats.estimated_circuit_fidelity
                >= single.pass_stats.estimated_circuit_fidelity - 1e-6,
            "G3 {} vs S{k} {}",
            g3.pass_stats.estimated_circuit_fidelity,
            single.pass_stats.estimated_circuit_fidelity
        );
    }
}

#[test]
fn native_swap_reduces_two_qubit_count_on_routing_heavy_circuits() {
    // A long-range interaction on a line region forces routing; the native
    // SWAP of G7 must not be worse than G6.
    let device = DeviceModel::sycamore(RngSeed(11));
    let mut circuit = Circuit::new(4);
    circuit.push(Operation::h(0));
    for q in 1..4 {
        circuit.push(Operation::zz(0, q, 0.3));
    }
    circuit.measure_all();
    let g6 = compile(&circuit, &device, &InstructionSet::g(6));
    let g7 = compile(&circuit, &device, &InstructionSet::g(7));
    assert!(g7.two_qubit_gate_count() <= g6.two_qubit_gate_count());
}

#[test]
fn instruction_set_table_is_consistent_with_calibration_model() {
    let model = calibration::CalibrationModel::default();
    for set in InstructionSet::table2() {
        let circuits = model.circuits_for_set(&set, 54);
        assert!(circuits > 0.0);
        if !set.is_continuous() {
            assert!(model.saving_versus_continuous(&set) > 50.0);
        }
    }
}

#[test]
fn compiled_circuits_only_use_gates_from_the_instruction_set() {
    let device = DeviceModel::sycamore(RngSeed(13));
    let circuit = qv_circuit(3, RngSeed(14));
    for set in [
        InstructionSet::s(2),
        InstructionSet::g(2),
        InstructionSet::r(3),
    ] {
        let compiled = compile(&circuit, &device, &set);
        let allowed: Vec<&str> = set.gate_types().iter().map(|g| g.name()).collect();
        for (label, _) in compiled.circuit.two_qubit_counts_by_label() {
            assert!(
                allowed.contains(&label.as_str()),
                "{} emitted {}",
                set.name(),
                label
            );
        }
    }
}
