//! Quantum circuit intermediate representation.
//!
//! The compiler, the NuOp decomposition pass and the simulators all exchange
//! circuits in this crate's [`Circuit`] form: an ordered list of
//! [`Operation`]s over integer-indexed qubits. The representation is
//! deliberately "flat" (no classical control flow), which matches the NISQ
//! applications studied in the paper.
//!
//! * [`ops`] — operations: labelled 1-qubit / 2-qubit unitaries, each
//!   holding the stack-allocated [`qmath::Mat2`] / [`qmath::Mat4`] its gate
//!   constructor returns, measurement, barrier.
//! * [`circuit`] — the [`Circuit`] container, gate counting, composition,
//!   inversion and unitary extraction for small circuits.
//! * [`mod@moments`] — ASAP moment (layer) scheduling and depth computation.
//! * [`embed`] — embedding a 1- or 2-qubit operator into the full
//!   `2^n × 2^n` operator of an `n`-qubit register.
//!
//! # Example
//!
//! ```
//! use circuit::{Circuit, Operation};
//!
//! let mut c = Circuit::new(2);
//! c.push(Operation::h(0));
//! c.push(Operation::cz(0, 1));
//! c.push(Operation::h(1));
//! assert_eq!(c.two_qubit_gate_count(), 1);
//! assert_eq!(c.depth(), 3);
//! let u = c.unitary();
//! assert!(u.is_unitary(1e-10));
//! ```

#![warn(missing_docs)]

pub mod circuit;
pub mod embed;
pub mod moments;
pub mod ops;

pub use crate::circuit::Circuit;
pub use embed::{embed_one_qubit, embed_two_qubit};
pub use moments::{moments, Moment};
pub use ops::{OpKind, Operation, QubitId};
