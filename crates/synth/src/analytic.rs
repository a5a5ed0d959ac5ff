//! Exact analytic constructions of common application unitaries from the CZ
//! gate.
//!
//! These are the textbook identities an analytic compiler hard-codes. Only
//! this module's own tests call them, checking each construction against the
//! target gate's matrix. The compiler does not use them (it has no `synth`
//! dependency): NuOp decomposes routing SWAPs like every other two-qubit
//! gate.

use circuit::{Circuit, Operation, QubitId};
use std::f64::consts::{FRAC_PI_2, PI};

/// `CNOT(control, target)` from one CZ and two Hadamards.
pub fn cnot_via_cz(control: QubitId, target: QubitId) -> Vec<Operation> {
    vec![
        Operation::h(target),
        Operation::cz(control, target),
        Operation::h(target),
    ]
}

/// `SWAP(a, b)` from three CNOTs (hence three CZs and six Hadamards).
pub fn swap_via_cz(a: QubitId, b: QubitId) -> Vec<Operation> {
    let mut ops = Vec::new();
    ops.extend(cnot_via_cz(a, b));
    ops.extend(cnot_via_cz(b, a));
    ops.extend(cnot_via_cz(a, b));
    ops
}

/// `exp(-i β Z⊗Z)` from two CNOTs and one RZ.
pub fn zz_via_cz(a: QubitId, b: QubitId, beta: f64) -> Vec<Operation> {
    let mut ops = Vec::new();
    ops.extend(cnot_via_cz(a, b));
    ops.push(Operation::rz(b, 2.0 * beta));
    ops.extend(cnot_via_cz(a, b));
    ops
}

/// Controlled-phase `CZ(φ)` from two CNOTs and three phase rotations.
pub fn cphase_via_cz(a: QubitId, b: QubitId, phi: f64) -> Vec<Operation> {
    // Standard construction: P(φ/2) on both qubits, CNOT, P(-φ/2), CNOT.
    let mut ops = Vec::new();
    ops.push(Operation::unitary1q(
        format!("P({:.3})", phi / 2.0),
        gates::standard::phase(phi / 2.0),
        a,
    ));
    ops.push(Operation::unitary1q(
        format!("P({:.3})", phi / 2.0),
        gates::standard::phase(phi / 2.0),
        b,
    ));
    ops.extend(cnot_via_cz(a, b));
    ops.push(Operation::unitary1q(
        format!("P({:.3})", -phi / 2.0),
        gates::standard::phase(-phi / 2.0),
        b,
    ));
    ops.extend(cnot_via_cz(a, b));
    ops
}

/// The three-CZ construction of an arbitrary-basis Hadamard-sandwiched SWAP
/// used when routing on devices whose only native gate is CZ. Returns a
/// circuit fragment (not a full circuit) acting on `(a, b)`.
pub fn routing_swap(a: QubitId, b: QubitId) -> Vec<Operation> {
    swap_via_cz(a, b)
}

/// Builds a [`Circuit`] over `n` qubits from a fragment of operations.
pub fn fragment_to_circuit(n: usize, ops: Vec<Operation>) -> Circuit {
    let mut c = Circuit::new(n);
    for op in ops {
        c.push(op);
    }
    c
}

/// Number of two-qubit gates in a fragment.
pub fn two_qubit_count(ops: &[Operation]) -> usize {
    ops.iter().filter(|o| o.is_two_qubit_unitary()).count()
}

/// The QFT rotation angle `π/2^t` used by QFT circuits.
pub fn qft_angle(t: u32) -> f64 {
    PI / f64::from(1u32 << t)
}

/// A Hadamard-free "half" SWAP built from iSWAP-style rotations; provided for
/// completeness of the analytic toolbox (`XY(π/2)` twice plus corrections is
/// not generally cheaper, so routing uses [`routing_swap`]).
pub fn double_sqrt_iswap(a: QubitId, b: QubitId) -> Vec<Operation> {
    let g = gates::GateType::sqrt_iswap();
    vec![
        Operation::from_gate_type(&g, a, b),
        Operation::from_gate_type(&g, a, b),
    ]
}

/// Rotation decomposition `U3(θ, φ, λ) = RZ(φ) RY(θ) RZ(λ)` sanity helper used
/// by tests: returns the three operations in application order.
pub fn u3_as_euler(q: QubitId, theta: f64, phi: f64, lambda: f64) -> Vec<Operation> {
    vec![
        Operation::rz(q, lambda),
        Operation::unitary1q(format!("RY({theta:.3})"), gates::standard::ry(theta), q),
        Operation::rz(q, phi),
    ]
}

/// π/2, the CPHASE angle of the first off-diagonal QFT rotation.
pub const QFT_FIRST_ANGLE: f64 = FRAC_PI_2;

#[cfg(test)]
mod tests {
    use super::*;
    use gates::standard;
    use qmath::hilbert_schmidt_fidelity;

    fn unitary_of(n: usize, ops: Vec<Operation>) -> qmath::CMatrix {
        fragment_to_circuit(n, ops).unitary()
    }

    #[test]
    fn cnot_construction_is_exact() {
        let u = unitary_of(2, cnot_via_cz(0, 1));
        assert!(u.approx_eq(&standard::cnot(), 1e-12));
    }

    #[test]
    fn swap_construction_is_exact() {
        let u = unitary_of(2, swap_via_cz(0, 1));
        assert!(u.approx_eq(&standard::swap(), 1e-12));
        assert_eq!(two_qubit_count(&swap_via_cz(0, 1)), 3);
    }

    #[test]
    fn zz_construction_matches_target_up_to_phase() {
        for beta in [0.0303, 0.4, 1.2] {
            let u = unitary_of(2, zz_via_cz(0, 1, beta));
            let target = standard::zz_interaction(beta);
            let f = hilbert_schmidt_fidelity(&u, &target);
            assert!(f > 1.0 - 1e-10, "beta={beta}, fidelity={f}");
        }
    }

    #[test]
    fn cphase_construction_matches_target_up_to_phase() {
        for phi in [0.1, FRAC_PI_2, 2.5] {
            let u = unitary_of(2, cphase_via_cz(0, 1, phi));
            let target = standard::cphase(phi);
            let f = hilbert_schmidt_fidelity(&u, &target);
            assert!(f > 1.0 - 1e-10, "phi={phi}, fidelity={f}");
        }
    }

    #[test]
    fn double_sqrt_iswap_gives_iswap_class() {
        let u = unitary_of(2, double_sqrt_iswap(0, 1));
        // (fSim(pi/4,0))^2 = fSim(pi/2,0), the iSWAP class.
        assert!(u.approx_eq(gates::GateType::iswap().unitary(), 1e-12));
    }

    #[test]
    fn euler_decomposition_matches_u3_up_to_phase() {
        let (theta, phi, lambda) = (0.7, 1.3, -0.4);
        let u = unitary_of(1, u3_as_euler(0, theta, phi, lambda));
        let target = standard::u3(theta, phi, lambda);
        let f = hilbert_schmidt_fidelity(&u, &target);
        assert!(f > 1.0 - 1e-10, "fidelity = {f}");
    }

    #[test]
    fn qft_angles_halve() {
        assert!((qft_angle(1) - FRAC_PI_2).abs() < 1e-15);
        assert!((qft_angle(2) - PI / 4.0).abs() < 1e-15);
        assert!((qft_angle(3) - PI / 8.0).abs() < 1e-15);
    }

    #[test]
    fn routing_swap_on_wider_register() {
        let u = unitary_of(3, routing_swap(0, 2));
        let expect = circuit::embed_two_qubit(&standard::swap(), 0, 2, 3);
        assert!(u.approx_eq(&expect, 1e-12));
    }
}
