//! Complex linear algebra primitives for quantum-gate synthesis and simulation.
//!
//! This crate is the numerical foundation of the workspace. It provides:
//!
//! * [`Complex`] — a `f64`-based complex scalar (the workspace does not depend on
//!   external numerics crates).
//! * [`SmallMat`] — a `Copy`, const-generic, **stack-allocated** N×N complex
//!   matrix ([`Mat2`] / [`Mat4`] aliases) with multiplication, adjoint,
//!   Kronecker product (`Mat2 ⊗ Mat2 → Mat4`), trace, norms and unitarity
//!   checks. This is the synthesis hot-path kernel: the NuOp objective
//!   evaluates templates with zero heap allocations per call.
//! * [`CMatrix`] — a dense, heap-allocated complex matrix for general N×N
//!   work: QR decomposition, Haar sampling, eigen-solves and the `2^n`-sized
//!   register operators built by circuit embedding.
//! * The [`MatRef`] read-only view both types implement, so fidelity measures
//!   and entry-wise comparisons accept either representation.
//! * Haar-random unitary sampling (used by Quantum Volume workloads).
//! * Fidelity measures between unitaries (Hilbert–Schmidt overlap, average gate
//!   fidelity) used by the NuOp objective function.
//!
//! # Which matrix type should I use?
//!
//! Use [`Mat2`] / [`Mat4`] for every gate (gate constructors, circuit
//! operations, decomposition targets and objectives, Weyl invariants,
//! simulator kernels and Kraus operators): they are `Copy` and never
//! allocate, and a gate keeps this form from its constructor to the kernel
//! that applies it. Use [`CMatrix`] only when the dimension is dynamic
//! (`2^n` register operators, QR/eigen routines, Haar sampling). Convert
//! losslessly with `CMatrix::from(small)` / `Mat4::try_from(&cmatrix)`
//! where the two meet.
//!
//! # Example
//!
//! ```
//! use qmath::{CMatrix, Complex, Mat2};
//!
//! // Stack-allocated 2×2 algebra…
//! let x = Mat2::from_real(&[0.0, 1.0, 1.0, 0.0]);
//! let id = x * x;
//! assert!(id.approx_eq(&Mat2::identity(), 1e-12));
//! assert!((id.trace() - Complex::new(2.0, 0.0)).norm() < 1e-12);
//!
//! // …converts losslessly to the heap representation and back.
//! let big: CMatrix = x.into();
//! assert_eq!(Mat2::try_from(&big).unwrap(), x);
//! ```

#![warn(missing_docs)]

pub mod complex;
pub mod fidelity;
pub mod matrix;
pub mod random;
pub mod small;

pub use complex::Complex;
pub use fidelity::{
    average_gate_fidelity, hilbert_schmidt_fidelity, hilbert_schmidt_inner, process_infidelity,
};
pub use matrix::CMatrix;
pub use random::{haar_random_su4, haar_random_unitary, random_special_unitary, RngSeed};
pub use small::{Mat2, Mat4, MatRef, ShapeMismatch, SmallMat};

/// Machine-precision-ish tolerance used across the workspace for unitary checks.
pub const DEFAULT_TOL: f64 = 1e-9;

/// The imaginary unit as a [`Complex`] constant.
pub const I: Complex = Complex { re: 0.0, im: 1.0 };

/// Complex one.
pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

/// Complex zero.
pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
