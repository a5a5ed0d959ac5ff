//! Analytic two-qubit synthesis — the linear-algebra baseline NuOp is compared
//! against (paper §V, Fig. 6).
//!
//! Industry compilers (IBM Qiskit, Google Cirq, Rigetti Quilc) decompose
//! two-qubit unitaries with KAK-style linear algebra: every `U ∈ U(4)` can be
//! written as
//!
//! ```text
//! U = (A1 ⊗ A0) · exp(i (x XX + y YY + z ZZ)) · (B1 ⊗ B0)
//! ```
//!
//! where the *Weyl coordinates* `(x, y, z)` fully determine how many
//! applications of a given hardware gate are required. This crate provides:
//!
//! * [`weyl`] — computation of the local-equivalence invariants and Weyl
//!   coordinates of a 4×4 unitary, and the minimal CNOT/CZ count implied by
//!   them.
//! * [`cirq_baseline`] — a model of the gate counts produced by a
//!   Cirq-v0.8-style compiler for the hardware gate types studied in the paper
//!   (CZ, SYC, iSWAP, √iSWAP), used as the Fig. 6 baseline.
//! * [`analytic`] — explicit, exact constructions of common application
//!   unitaries (CNOT, SWAP, ZZ(β), CPHASE(φ)) from the CZ gate. Nothing
//!   outside this crate calls them; their own tests check each against the
//!   target gate's matrix.

#![warn(missing_docs)]

pub mod analytic;
pub mod cirq_baseline;
pub mod weyl;

pub use cirq_baseline::{cirq_gate_count, CirqTargetGate};
pub use weyl::{minimal_cnot_count, weyl_coordinates, WeylCoordinates};
