//! Numerical optimization for quantum gate decomposition.
//!
//! The paper's NuOp pass "uses BFGS, a well-known numerical optimization
//! method" (via SciPy) to tune the single-qubit rotation angles of a template
//! circuit. This crate provides that substrate:
//!
//! * [`bfgs`] — BFGS quasi-Newton minimization steered by a caller-supplied
//!   analytic gradient, with a strong-Wolfe line search and an inverse-Hessian
//!   update done in place on one flat buffer.
//! * [`multistart`] — restarts BFGS from several random initial points and
//!   keeps the best result; gate-decomposition landscapes are non-convex, so
//!   restarts are what make the pass robust.
//!
//! [`numerical_gradient`] is the central-difference oracle that analytic
//! gradients are tested against.
//!
//! # Example
//!
//! ```
//! use optim::{minimize_bfgs_with_grad, BfgsOptions};
//!
//! // Rosenbrock function: minimum 0 at (1, 1).
//! let rosen = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
//! let grad = |x: &[f64]| {
//!     vec![
//!         -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] * x[0]),
//!         200.0 * (x[1] - x[0] * x[0]),
//!     ]
//! };
//! let result = minimize_bfgs_with_grad(&rosen, &grad, &[-1.2, 1.0], &BfgsOptions::default());
//! assert!(result.value < 1e-8);
//! assert!((result.x[0] - 1.0).abs() < 1e-3);
//! ```

#![warn(missing_docs)]

pub mod bfgs;
pub mod multistart;

pub use bfgs::{minimize_bfgs_with_grad, BfgsOptions, OptimResult};
pub use multistart::{multistart_minimize_with_grad, MultistartOptions};

/// Central-difference numerical gradient of `f` at `x` with step `h`.
///
/// The reference that analytic gradients are tested against; `h = 1e-6` is a
/// good default for the smooth trigonometric objectives of gate decomposition.
pub fn numerical_gradient<F>(f: &F, x: &[f64], h: f64) -> Vec<f64>
where
    F: Fn(&[f64]) -> f64 + ?Sized,
{
    let mut grad = vec![0.0; x.len()];
    let mut probe = x.to_vec();
    for i in 0..x.len() {
        let orig = probe[i];
        probe[i] = orig + h;
        let fp = f(&probe);
        probe[i] = orig - h;
        let fm = f(&probe);
        probe[i] = orig;
        grad[i] = (fp - fm) / (2.0 * h);
    }
    grad
}

/// Euclidean norm of a vector.
pub fn norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Dot product of two equal-length vectors.
///
/// # Panics
/// Panics if the lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numerical_gradient_of_quadratic() {
        let f = |x: &[f64]| x[0] * x[0] + 3.0 * x[1] * x[1];
        let g = numerical_gradient(&f, &[1.0, 2.0], 1e-6);
        assert!((g[0] - 2.0).abs() < 1e-5);
        assert!((g[1] - 12.0).abs() < 1e-5);
    }

    #[test]
    fn norm_and_dot() {
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert!((dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]) - 32.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }
}
