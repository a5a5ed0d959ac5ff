//! A miniature version of the paper's headline study: sweep instruction sets
//! on both devices, report reliability, instruction counts and calibration
//! cost, and point out the 4-8 gate-type sweet spot.
//!
//! Run with `cargo run --release -p nuop-tests --example isa_design_study`.

use bench::{compiler_for, evaluate_set, qaoa_suite, qv_suite, Metric, Scale};
use calibration::CalibrationModel;
use device::DeviceModel;
use gates::InstructionSet;
use qmath::RngSeed;

fn main() {
    let scale = Scale::Small;
    let circuits = 3;
    let shots = 300;
    let seed = RngSeed(2021);
    let model = CalibrationModel::default();
    let options = scale.compiler_options();

    let sycamore = DeviceModel::sycamore(seed.child(0));
    let qv = qv_suite(3, circuits, seed.child(1));
    let qaoa = qaoa_suite(3, circuits, seed.child(2));

    println!("Instruction-set design study (Sycamore model, small scale)\n");
    println!(
        "{:<10} {:>7} {:>10} {:>10} {:>10} {:>14} {:>12}",
        "set", "types", "QV HOP", "QAOA XED", "2Q gates", "cal. circuits", "cal. hours"
    );
    let sets: Vec<InstructionSet> = vec![
        InstructionSet::s(1),
        InstructionSet::g(1),
        InstructionSet::g(3),
        InstructionSet::g(5),
        InstructionSet::g(7),
        InstructionSet::full_fsim(),
    ];
    for set in &sets {
        // One compiler per set, reused across both suites (shared cache).
        let compiler =
            compiler_for(&sycamore, set, &options).expect("valid compiler configuration");
        let rqv = evaluate_set(&qv, &compiler, shots, seed.child(3)).expect("suite compiles");
        let rqa = evaluate_set(&qaoa, &compiler, shots, seed.child(4)).expect("suite compiles");
        let types = set
            .num_gate_types()
            .map_or_else(|| "inf".to_string(), |n| n.to_string());
        println!(
            "{:<10} {:>7} {:>10.3} {:>10.3} {:>10.1} {:>14.2e} {:>12.1}",
            set.name(),
            types,
            rqv.mean_metric,
            rqa.mean_metric,
            rqv.mean_two_qubit_gates,
            model.circuits_for_set(set, 54),
            model.hours_for_set(set),
        );
    }
    let saving = model.saving_versus_continuous(&InstructionSet::g(7));
    println!(
        "\nG7 (8 gate types) keeps reliability within reach of FullfSim while needing\n\
         {saving:.0}x fewer calibration circuits -- the paper's 4-8 type sweet spot."
    );
    let _ = Metric::Hop;
}
