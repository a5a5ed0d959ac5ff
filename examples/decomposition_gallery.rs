//! A gallery of NuOp decompositions (paper Fig. 2 and Fig. 8 in miniature):
//! how many gates each hardware type needs for each kind of application
//! unitary, and what the emitted circuits look like.
//!
//! Run with `cargo run --release -p nuop-tests --example decomposition_gallery`.

use gates::{standard, GateType};
use nuop_core::{decompose_fixed, DecomposeConfig};
use qmath::{haar_random_su4, Mat4, RngSeed};

fn main() {
    let cfg = DecomposeConfig::default();
    let mut rng = RngSeed(42).rng();

    let targets: Vec<(&str, Mat4)> = vec![
        ("QV / random SU(4)", haar_random_su4(&mut rng)),
        ("QAOA ZZ(0.25)", standard::zz_interaction(0.25)),
        (
            "QFT CZ(pi/4)",
            standard::cphase(std::f64::consts::FRAC_PI_4),
        ),
        (
            "FH hopping XX+YY(0.5)",
            standard::xx_plus_yy_interaction(0.5),
        ),
        ("SWAP", standard::swap()),
        ("CNOT", standard::cnot()),
    ];
    let gate_types = [
        GateType::cz(),
        GateType::sqrt_iswap(),
        GateType::syc(),
        GateType::iswap(),
        GateType::s7(),
        GateType::swap(),
    ];

    println!(
        "{:<22} gates needed per hardware type",
        "application unitary"
    );
    print!("{:<22} ", "");
    for g in &gate_types {
        print!("{:>14}", g.name());
    }
    println!();
    for (name, target) in &targets {
        print!("{name:<22} ");
        for gate in &gate_types {
            let d = decompose_fixed(target, gate, &cfg);
            let marker = if d.decomposition_fidelity > cfg.fidelity_threshold {
                ""
            } else {
                "*"
            };
            print!("{:>14}", format!("{}{}", d.layers, marker));
        }
        println!();
    }
    println!("(* = best effort below the exact-decomposition threshold)");

    // Show one full circuit.
    let d = decompose_fixed(&standard::swap(), &GateType::cz(), &cfg);
    println!("\nSWAP via CZ ({} gates):", d.layers);
    for op in d.to_operations(0, 1) {
        println!("  {op}");
    }
}
