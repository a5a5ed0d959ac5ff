//! Workspace-level tests of the `compiler::Compiler` service: typed error
//! paths for hostable-but-invalid inputs, cross-call cache reuse, and the
//! batched fan-out.

use apps::workloads::{qaoa_circuit, qv_circuit};
use circuit::Circuit;
use compiler::{CompileError, Compiler, CompilerOptions};
use device::DeviceModel;
use gates::InstructionSet;
use qmath::RngSeed;
use sim::{ExecutionEngine, FusionPolicy, NoiseModel, SeedPolicy, SimJob};

fn quick_options() -> CompilerOptions {
    CompilerOptions::sweep()
}

fn compiler(device: DeviceModel, set: InstructionSet) -> Compiler {
    Compiler::for_device(device)
        .instruction_set(set)
        .options(quick_options())
        .build()
        .expect("valid compiler configuration")
}

#[test]
fn circuit_larger_than_device_returns_region_unavailable() {
    let service = compiler(DeviceModel::ideal(3, 0.99), InstructionSet::s(3));
    let circuit = qv_circuit(6, RngSeed(1));
    match service.compile(&circuit) {
        Err(CompileError::RegionUnavailable {
            requested,
            available,
        }) => {
            assert_eq!(requested, 6);
            assert_eq!(available, 3);
        }
        other => panic!("expected RegionUnavailable, got {other:?}"),
    }
}

#[test]
fn unknown_instruction_set_name_fails_at_build_time() {
    let err = Compiler::for_device(DeviceModel::ideal(3, 0.99))
        .instruction_set_named("S42")
        .build()
        .unwrap_err();
    assert!(matches!(err, CompileError::InvalidInstructionSet(_)));
    assert!(err.to_string().contains("S42"));
}

#[test]
fn compile_errors_are_std_errors() {
    let service = compiler(DeviceModel::ideal(2, 0.99), InstructionSet::s(1));
    let err = service.compile(&qv_circuit(4, RngSeed(2))).unwrap_err();
    let boxed: Box<dyn std::error::Error> = Box::new(err);
    assert!(boxed.to_string().contains("only 2 qubits"));
}

#[test]
fn second_identical_compile_reports_cache_hits() {
    let service = compiler(DeviceModel::aspen8(RngSeed(3)), InstructionSet::r(2));
    let circuit = qaoa_circuit(3, RngSeed(4));

    let (first, first_report) = service.compile_with_report(&circuit).unwrap();
    assert!(first_report.cache_misses > 0, "cold cache must miss");

    let (second, second_report) = service.compile_with_report(&circuit).unwrap();
    assert_eq!(second_report.cache_misses, 0, "warm cache must not miss");
    assert_eq!(
        second_report.cache_hits, second.pass_stats.input_two_qubit_gates,
        "every operation should be served from the cache"
    );
    assert_eq!(
        first.circuit, second.circuit,
        "cache must not change output"
    );
}

#[test]
fn cache_reuse_spans_different_circuits_with_shared_structure() {
    // Two QAOA instances over the same graph share ZZ terms; compiling the
    // second must hit the decompositions cached by the first wherever the
    // unitary, pair and fidelities coincide.
    let service = compiler(DeviceModel::aspen8(RngSeed(5)), InstructionSet::r(2));
    let a = qaoa_circuit(3, RngSeed(6));
    service.compile(&a).unwrap();
    let hits_before = service.cache().hits();
    service.compile(&a).unwrap();
    assert!(service.cache().hits() > hits_before);
}

#[test]
fn compile_batch_matches_individual_compiles() {
    let batch_service = compiler(DeviceModel::sycamore(RngSeed(7)), InstructionSet::g(2));
    let one_by_one = compiler(DeviceModel::sycamore(RngSeed(7)), InstructionSet::g(2));
    let circuits: Vec<Circuit> = (0..3).map(|i| qv_circuit(3, RngSeed(10 + i))).collect();

    let batched = batch_service.compile_batch(&circuits);
    for (circuit, batched) in circuits.iter().zip(batched.iter()) {
        let single = one_by_one.compile(circuit).unwrap();
        let batched = batched.as_ref().expect("batch member compiles");
        assert_eq!(single.circuit, batched.circuit);
        assert_eq!(single.region, batched.region);
        assert_eq!(single.swap_count, batched.swap_count);
    }
}

#[test]
fn compiled_batch_members_simulate_correctly() {
    // A batched compile must produce artifacts that execute like any other:
    // noiseless execution of a compiled QV circuit reproduces a distribution.
    let service = compiler(DeviceModel::aspen8(RngSeed(8)), InstructionSet::r(2));
    let circuits = vec![qaoa_circuit(3, RngSeed(9)), qaoa_circuit(3, RngSeed(10))];
    for result in service.compile_batch(&circuits) {
        let compiled = result.expect("suite compiles");
        let noiseless = NoiseModel::noiseless(&compiled.subdevice);
        let counts = ExecutionEngine::builder()
            .seed_policy(SeedPolicy::PerShot)
            .fusion(FusionPolicy::Off)
            .build()
            .unwrap()
            .run_job(&SimJob::noisy(
                compiled.circuit.clone(),
                noiseless,
                64,
                RngSeed(11),
            ))
            .counts;
        let logical = compiled.logical_counts(&counts);
        assert_eq!(logical.total(), 64);
    }
}

#[test]
fn sweep_over_instruction_sets_does_not_panic_on_any_table2_set() {
    // The service must never panic across the full Table II sweep (the
    // paper's headline experiment shape), even with a tiny device.
    let device = DeviceModel::aspen8(RngSeed(12));
    let circuit = qv_circuit(2, RngSeed(13));
    for set in InstructionSet::table2() {
        let service = compiler(device.clone(), set);
        let compiled = service.compile(&circuit).expect("2-qubit circuit fits");
        assert!(compiled.two_qubit_gate_count() >= 1);
    }
}
