//! Circuit operations.
//!
//! A unitary operation holds its gate as the `Mat2`/`Mat4` the gate
//! constructors return, so the NuOp pass and the simulator read it without
//! a conversion; [`Operation::matrix`] offers a read-only view of either.

use std::fmt;

use gates::{standard, GateType};
use qmath::{Mat2, Mat4, MatRef};
use serde::{Deserialize, Serialize};

/// Index of a qubit within a circuit or device.
pub type QubitId = usize;

/// The kind of an operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OpKind {
    /// A single-qubit unitary with a human-readable label (e.g. `"U3(…)"`).
    Unitary1Q {
        /// Display label.
        label: String,
        /// 2×2 unitary matrix.
        matrix: Mat2,
    },
    /// A two-qubit unitary with a label (e.g. `"CZ"`, `"fSim(pi/6,pi)"`, `"SU4"`).
    Unitary2Q {
        /// Display label.
        label: String,
        /// 4×4 unitary matrix.
        matrix: Mat4,
    },
    /// Computational-basis measurement of the operation's qubits.
    Measure,
    /// Scheduling barrier across the operation's qubits.
    Barrier,
}

/// One operation applied to an ordered list of qubits.
///
/// For two-qubit unitaries the qubit order matters: `qubits()[0]` is the first
/// (most-significant) index of the 4×4 matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Operation {
    kind: OpKind,
    qubits: Vec<QubitId>,
}

impl Operation {
    /// Creates an operation from a kind and qubit list.
    ///
    /// # Panics
    /// Panics if the arity does not match the kind (1 qubit for 1Q unitaries,
    /// 2 distinct qubits for 2Q unitaries, ≥1 for measure/barrier).
    pub fn new(kind: OpKind, qubits: Vec<QubitId>) -> Self {
        match &kind {
            OpKind::Unitary1Q { .. } => {
                assert_eq!(qubits.len(), 1, "1Q unitary must act on exactly one qubit");
            }
            OpKind::Unitary2Q { .. } => {
                assert_eq!(qubits.len(), 2, "2Q unitary must act on exactly two qubits");
                assert_ne!(qubits[0], qubits[1], "2Q unitary qubits must be distinct");
            }
            OpKind::Measure | OpKind::Barrier => {
                assert!(
                    !qubits.is_empty(),
                    "measure/barrier needs at least one qubit"
                );
            }
        }
        Operation { kind, qubits }
    }

    /// A labelled single-qubit unitary.
    pub fn unitary1q(label: impl Into<String>, matrix: Mat2, q: QubitId) -> Self {
        Operation::new(
            OpKind::Unitary1Q {
                label: label.into(),
                matrix,
            },
            vec![q],
        )
    }

    /// A labelled two-qubit unitary (`q0` is the most significant qubit of
    /// the matrix).
    pub fn unitary2q(label: impl Into<String>, matrix: Mat4, q0: QubitId, q1: QubitId) -> Self {
        Operation::new(
            OpKind::Unitary2Q {
                label: label.into(),
                matrix,
            },
            vec![q0, q1],
        )
    }

    /// A two-qubit operation from a named hardware [`GateType`].
    pub fn from_gate_type(gate: &GateType, q0: QubitId, q1: QubitId) -> Self {
        Operation::unitary2q(gate.name(), *gate.unitary(), q0, q1)
    }

    /// Arbitrary single-qubit rotation `U3(α, β, λ)`.
    pub fn u3(q: QubitId, alpha: f64, beta: f64, lambda: f64) -> Self {
        Operation::unitary1q(
            format!("U3({alpha:.3},{beta:.3},{lambda:.3})"),
            standard::u3(alpha, beta, lambda),
            q,
        )
    }

    /// Hadamard gate.
    pub fn h(q: QubitId) -> Self {
        Operation::unitary1q("H", standard::h(), q)
    }

    /// Pauli-X gate.
    pub fn x(q: QubitId) -> Self {
        Operation::unitary1q("X", standard::x(), q)
    }

    /// X-rotation gate.
    pub fn rx(q: QubitId, theta: f64) -> Self {
        Operation::unitary1q(format!("RX({theta:.3})"), standard::rx(theta), q)
    }

    /// Z-rotation gate.
    pub fn rz(q: QubitId, theta: f64) -> Self {
        Operation::unitary1q(format!("RZ({theta:.3})"), standard::rz(theta), q)
    }

    /// CZ gate.
    pub fn cz(q0: QubitId, q1: QubitId) -> Self {
        Operation::unitary2q("CZ", standard::cz(), q0, q1)
    }

    /// CNOT gate (control `q0`, target `q1`).
    pub fn cnot(q0: QubitId, q1: QubitId) -> Self {
        Operation::unitary2q("CNOT", standard::cnot(), q0, q1)
    }

    /// SWAP gate.
    pub fn swap(q0: QubitId, q1: QubitId) -> Self {
        Operation::unitary2q("SWAP", standard::swap(), q0, q1)
    }

    /// Controlled-phase gate `CZ(φ)`.
    pub fn cphase(q0: QubitId, q1: QubitId, phi: f64) -> Self {
        Operation::unitary2q(format!("CZ({phi:.3})"), standard::cphase(phi), q0, q1)
    }

    /// ZZ interaction `exp(-i β Z⊗Z)` (QAOA cost term).
    pub fn zz(q0: QubitId, q1: QubitId, beta: f64) -> Self {
        Operation::unitary2q(
            format!("ZZ({beta:.3})"),
            standard::zz_interaction(beta),
            q0,
            q1,
        )
    }

    /// XX+YY interaction (Fermi–Hubbard hopping term).
    pub fn xx_plus_yy(q0: QubitId, q1: QubitId, t: f64) -> Self {
        Operation::unitary2q(
            format!("XXPlusYY({t:.3})"),
            standard::xx_plus_yy_interaction(t),
            q0,
            q1,
        )
    }

    /// Measurement of the listed qubits.
    pub fn measure(qubits: Vec<QubitId>) -> Self {
        Operation::new(OpKind::Measure, qubits)
    }

    /// Scheduling barrier across the listed qubits.
    pub fn barrier(qubits: Vec<QubitId>) -> Self {
        Operation::new(OpKind::Barrier, qubits)
    }

    /// The operation kind.
    pub fn kind(&self) -> &OpKind {
        &self.kind
    }

    /// The qubits the operation acts on, in order.
    pub fn qubits(&self) -> &[QubitId] {
        &self.qubits
    }

    /// Display label of the operation.
    pub fn label(&self) -> &str {
        match &self.kind {
            OpKind::Unitary1Q { label, .. } | OpKind::Unitary2Q { label, .. } => label,
            OpKind::Measure => "measure",
            OpKind::Barrier => "barrier",
        }
    }

    /// A read-only view of the unitary matrix, for unitary operations. Code
    /// that needs the `Mat2`/`Mat4` itself matches on [`Operation::kind`].
    pub fn matrix(&self) -> Option<&dyn MatRef> {
        match &self.kind {
            OpKind::Unitary1Q { matrix, .. } => Some(matrix),
            OpKind::Unitary2Q { matrix, .. } => Some(matrix),
            _ => None,
        }
    }

    /// True for two-qubit unitary operations.
    pub fn is_two_qubit_unitary(&self) -> bool {
        matches!(self.kind, OpKind::Unitary2Q { .. })
    }

    /// True for single-qubit unitary operations.
    pub fn is_one_qubit_unitary(&self) -> bool {
        matches!(self.kind, OpKind::Unitary1Q { .. })
    }

    /// True for measurement operations.
    pub fn is_measurement(&self) -> bool {
        matches!(self.kind, OpKind::Measure)
    }

    /// Returns a copy of the operation re-targeted onto new qubits (used by
    /// qubit mapping). The qubit count must match.
    ///
    /// # Panics
    /// Panics if `new_qubits.len()` differs from the current arity.
    pub fn retargeted(&self, new_qubits: Vec<QubitId>) -> Operation {
        assert_eq!(
            new_qubits.len(),
            self.qubits.len(),
            "arity mismatch in retarget"
        );
        Operation::new(self.kind.clone(), new_qubits)
    }

    /// The inverse (adjoint) of a unitary operation.
    ///
    /// # Panics
    /// Panics when called on a measurement or barrier.
    pub fn inverse(&self) -> Operation {
        match &self.kind {
            OpKind::Unitary1Q { label, matrix } => Operation::new(
                OpKind::Unitary1Q {
                    label: format!("{label}^-1"),
                    matrix: matrix.dagger(),
                },
                self.qubits.clone(),
            ),
            OpKind::Unitary2Q { label, matrix } => Operation::new(
                OpKind::Unitary2Q {
                    label: format!("{label}^-1"),
                    matrix: matrix.dagger(),
                },
                self.qubits.clone(),
            ),
            _ => panic!("cannot invert a non-unitary operation"),
        }
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {:?}", self.label(), self.qubits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_arity_and_labels() {
        let h = Operation::h(3);
        assert_eq!(h.qubits(), &[3]);
        assert_eq!(h.label(), "H");
        assert!(h.is_one_qubit_unitary());

        let cz = Operation::cz(0, 1);
        assert_eq!(cz.qubits(), &[0, 1]);
        assert!(cz.is_two_qubit_unitary());

        let m = Operation::measure(vec![0, 1, 2]);
        assert!(m.is_measurement());
        assert_eq!(m.label(), "measure");
    }

    #[test]
    fn matrices_are_unitary() {
        for op in [
            Operation::h(0),
            Operation::x(0),
            Operation::rx(0, 0.3),
            Operation::rz(0, 1.2),
            Operation::u3(0, 0.1, 0.2, 0.3),
            Operation::cz(0, 1),
            Operation::cnot(0, 1),
            Operation::swap(0, 1),
            Operation::cphase(0, 1, 0.4),
            Operation::zz(0, 1, 0.25),
            Operation::xx_plus_yy(0, 1, 0.6),
        ] {
            let unitary = match op.kind() {
                OpKind::Unitary1Q { matrix, .. } => matrix.is_unitary(1e-12),
                OpKind::Unitary2Q { matrix, .. } => matrix.is_unitary(1e-12),
                OpKind::Measure | OpKind::Barrier => false,
            };
            assert!(unitary, "{op}");
        }
        assert!(Operation::measure(vec![0]).matrix().is_none());
    }

    #[test]
    fn inverse_composes_to_identity() {
        let op = Operation::u3(0, 0.7, 1.1, 2.2);
        let inv = op.inverse();
        let (OpKind::Unitary1Q { matrix: u, .. }, OpKind::Unitary1Q { matrix: v, .. }) =
            (op.kind(), inv.kind())
        else {
            panic!("U3 and its inverse are one-qubit unitaries");
        };
        assert!((*u * *v).approx_eq(&Mat2::identity(), 1e-12));
    }

    #[test]
    fn retarget_preserves_kind() {
        let op = Operation::cz(0, 1);
        let moved = op.retargeted(vec![4, 7]);
        assert_eq!(moved.qubits(), &[4, 7]);
        assert_eq!(moved.label(), "CZ");
    }

    #[test]
    fn from_gate_type_uses_gate_unitary() {
        let syc = GateType::syc();
        let op = Operation::from_gate_type(&syc, 2, 5);
        assert_eq!(op.label(), "SYC");
        let view = op.matrix().unwrap();
        assert!(qmath::CMatrix::from(syc.unitary()).approx_eq(view, 1e-12));
    }

    #[test]
    #[should_panic(expected = "must be distinct")]
    fn two_qubit_op_rejects_equal_qubits() {
        let _ = Operation::cz(1, 1);
    }

    #[test]
    #[should_panic(expected = "cannot invert")]
    fn inverse_of_measurement_panics() {
        let _ = Operation::measure(vec![0]).inverse();
    }
}
