//! Mutation tests: each deliberately broken artifact must be caught by
//! exactly the intended rule, with the diagnostic's span pointing at the
//! offending op.
//!
//! This is the verifier's own acceptance suite — if a mutation slips through,
//! or trips an unrelated rule, the rule set is either too lax or too noisy.

use circuit::{Circuit, Operation};
use device::DeviceModel;
use gates::{GateType, InstructionSet};
use qmath::RngSeed;
use verify::{Artifact, Severity, Stage, StageSnapshot, Verifier};

/// Runs the structural rules over a snapshot and returns `(rule, span-start)`
/// for every error-level finding.
fn errors_of(snapshot: &StageSnapshot<'_>) -> Vec<(&'static str, Option<usize>)> {
    Verifier::structural()
        .run(&Artifact::Stage(snapshot))
        .into_diagnostics()
        .into_iter()
        .filter(|d| d.severity() == Severity::Error)
        .map(|d| (d.rule(), d.span().map(|s| s.start)))
        .collect()
}

/// A three-qubit line region carved from the Sycamore model: qubits 0–1 and
/// 1–2 are coupled, 0–2 is not.
fn line3() -> (DeviceModel, Vec<usize>) {
    let device = DeviceModel::sycamore(RngSeed(1));
    let region = vec![0, 1, 2];
    (device.subdevice(&region), region)
}

#[test]
fn uncoupled_two_qubit_op_is_caught_by_coupling_rule_only() {
    let (subdevice, region) = line3();
    let mut circuit = Circuit::new(3);
    circuit.push(Operation::cz(0, 1)); // legal
    circuit.push(Operation::cz(0, 2)); // uncoupled
    let layout = [0, 1, 2];
    let snapshot = StageSnapshot {
        stage: Stage::SwapRoute,
        circuit: &circuit,
        region: &region,
        subdevice: Some(&subdevice),
        initial_layout: &layout,
        final_layout: &layout,
        swap_count: 0,
        program_swap_count: 0,
        instruction_set: None,
    };
    assert_eq!(errors_of(&snapshot), vec![("route/coupling", Some(1))]);
}

#[test]
fn off_set_gate_is_caught_by_isa_rule_only() {
    let (subdevice, region) = line3();
    let set = InstructionSet::s(1); // SYC only
    let syc = *GateType::syc().unitary();
    let mut circuit = Circuit::new(3);
    circuit.push(Operation::unitary2q("SYC", syc, 0, 1));
    circuit.push(Operation::cz(1, 2)); // CZ is not in S1
    let layout = [0, 1, 2];
    let snapshot = StageSnapshot {
        stage: Stage::NuOpDecompose,
        circuit: &circuit,
        region: &region,
        subdevice: Some(&subdevice),
        initial_layout: &layout,
        final_layout: &layout,
        swap_count: 0,
        program_swap_count: 0,
        instruction_set: Some(&set),
    };
    assert_eq!(errors_of(&snapshot), vec![("isa/gate-set", Some(1))]);
}

#[test]
fn mislabelled_gate_matrix_is_caught_by_isa_rule_only() {
    let (subdevice, region) = line3();
    let set = InstructionSet::s(1);
    // Labelled SYC, but the matrix is CZ: the label passes, the matrix must
    // not.
    let mut circuit = Circuit::new(3);
    circuit.push(Operation::unitary2q("SYC", gates::standard::cz(), 0, 1));
    let layout = [0, 1, 2];
    let snapshot = StageSnapshot {
        stage: Stage::NuOpDecompose,
        circuit: &circuit,
        region: &region,
        subdevice: Some(&subdevice),
        initial_layout: &layout,
        final_layout: &layout,
        swap_count: 0,
        program_swap_count: 0,
        instruction_set: Some(&set),
    };
    assert_eq!(errors_of(&snapshot), vec![("isa/gate-set", Some(0))]);
}

#[test]
fn qubit_bounds_mutants_are_rejected_at_construction() {
    // The circuit layer makes both bounds mutants unrepresentable through its
    // public constructors: out-of-range indices are rejected by
    // `Circuit::push` and degenerate two-qubit ops by `Operation::new`. A
    // circuit can be built no other way, so the verifier has no qubit-bounds
    // rule; these constructors are the check.
    let out_of_range = std::panic::catch_unwind(|| {
        let mut circuit = Circuit::new(3);
        circuit.push(Operation::h(7));
    });
    assert!(
        out_of_range.is_err(),
        "push must reject out-of-range qubits"
    );

    let degenerate = std::panic::catch_unwind(|| Operation::cz(1, 1));
    assert!(
        degenerate.is_err(),
        "constructors must reject degenerate two-qubit ops"
    );
}

#[test]
fn duplicated_layout_target_is_caught_by_bijection_rule_only() {
    let (subdevice, region) = line3();
    let mut circuit = Circuit::new(3);
    circuit.push(Operation::h(0));
    let initial = [0, 1, 1]; // two logical qubits on physical 1
    let final_layout = [0, 1, 2];
    let snapshot = StageSnapshot {
        stage: Stage::InitialMap,
        circuit: &circuit,
        region: &region,
        subdevice: Some(&subdevice),
        initial_layout: &initial,
        final_layout: &final_layout,
        swap_count: 0,
        program_swap_count: 0,
        instruction_set: None,
    };
    let errors = errors_of(&snapshot);
    assert_eq!(errors, vec![("layout/bijection", None)]);
}

#[test]
fn unrecorded_swap_is_caught_by_swap_consistency_rule_only() {
    let (subdevice, region) = line3();
    let mut circuit = Circuit::new(3);
    circuit.push(Operation::swap(0, 1));
    let layout = [0, 1, 2];
    // swap_count says 0 and final_layout is unpermuted: both replay checks
    // fire, and only the swap-consistency rule does.
    let snapshot = StageSnapshot {
        stage: Stage::SwapRoute,
        circuit: &circuit,
        region: &region,
        subdevice: Some(&subdevice),
        initial_layout: &layout,
        final_layout: &layout,
        swap_count: 0,
        program_swap_count: 0,
        instruction_set: None,
    };
    let errors = errors_of(&snapshot);
    assert!(!errors.is_empty());
    assert!(
        errors
            .iter()
            .all(|(rule, _)| *rule == "layout/swap-consistency"),
        "{errors:?}"
    );
}

#[test]
fn the_legal_baseline_of_every_mutation_is_clean() {
    // The unmutated artifact each case above starts from must verify clean —
    // otherwise the mutation assertions prove nothing.
    let (subdevice, region) = line3();
    let set = InstructionSet::s(1);
    let syc = *GateType::syc().unitary();
    let mut circuit = Circuit::new(3);
    circuit.push(Operation::unitary2q("SYC", syc, 0, 1));
    circuit.push(Operation::unitary2q("SYC", syc, 1, 2));
    circuit.push(Operation::measure(vec![0, 1, 2]));
    let layout = [0, 1, 2];
    for stage in [
        Stage::RegionSelect,
        Stage::InitialMap,
        Stage::SwapRoute,
        Stage::NuOpDecompose,
    ] {
        let snapshot = StageSnapshot {
            stage,
            circuit: &circuit,
            region: &region,
            subdevice: Some(&subdevice),
            initial_layout: &layout,
            final_layout: &layout,
            swap_count: 0,
            program_swap_count: 0,
            instruction_set: Some(&set),
        };
        assert_eq!(errors_of(&snapshot), vec![], "stage {stage:?}");
    }
}
