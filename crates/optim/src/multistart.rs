//! Multistart driver.
//!
//! Gate-decomposition objectives are non-convex: the BFGS landscape has local
//! minima whose quality depends on the random initialization of the template's
//! single-qubit angles. NuOp therefore restarts the optimizer from several
//! random points and keeps the best outcome — exactly what this module
//! provides.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::bfgs::{minimize_bfgs_with_grad, BfgsOptions, OptimResult};

/// Options controlling the multistart driver.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultistartOptions {
    /// Number of random restarts (the first start always uses the caller's `x0`).
    pub restarts: usize,
    /// Half-width of the uniform window around `x0` from which restart points
    /// are drawn.
    pub spread: f64,
    /// Stop early as soon as a restart reaches a value below this threshold.
    pub target_value: Option<f64>,
    /// BFGS options used for every restart.
    pub bfgs: BfgsOptions,
}

impl Default for MultistartOptions {
    fn default() -> Self {
        MultistartOptions {
            restarts: 4,
            spread: std::f64::consts::PI,
            target_value: None,
            bfgs: BfgsOptions::default(),
        }
    }
}

/// Runs BFGS with the caller-supplied analytic gradient from `x0` and from
/// `restarts - 1` random perturbations of it, returning the best result
/// found. Its [`OptimResult::evaluations`] is the total over every restart
/// that ran, not only the best one's.
///
/// ```
/// use optim::{multistart_minimize_with_grad, MultistartOptions};
/// use rand::SeedableRng;
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// // A multi-modal objective where the global minimum is at x = 0.
/// let f = |x: &[f64]| 1.0 - (x[0].cos()).powi(2) + 0.05 * x[0].abs();
/// let grad = |x: &[f64]| vec![(2.0 * x[0]).sin() + 0.05 * x[0].signum()];
/// let r = multistart_minimize_with_grad(&f, &grad, &[2.0], &MultistartOptions::default(), &mut rng);
/// assert!(r.value < 0.2);
/// ```
///
/// # Panics
/// Panics if `opts.restarts` is zero or `x0` is empty.
pub fn multistart_minimize_with_grad<F, G, R>(
    f: &F,
    grad: &G,
    x0: &[f64],
    opts: &MultistartOptions,
    rng: &mut R,
) -> OptimResult
where
    F: Fn(&[f64]) -> f64 + ?Sized,
    G: Fn(&[f64]) -> Vec<f64> + ?Sized,
    R: Rng + ?Sized,
{
    assert!(opts.restarts >= 1, "multistart needs at least one start");
    let reached_target = |r: &OptimResult| opts.target_value.is_some_and(|t| r.value <= t);
    let mut best = minimize_bfgs_with_grad(f, grad, x0, &opts.bfgs);
    let mut total_evals = best.evaluations;
    for _ in 1..opts.restarts {
        if reached_target(&best) {
            break;
        }
        let start: Vec<f64> = x0
            .iter()
            .map(|&v| v + rng.gen_range(-opts.spread..opts.spread))
            .collect();
        let result = minimize_bfgs_with_grad(f, grad, &start, &opts.bfgs);
        total_evals += result.evaluations;
        if result.value < best.value {
            best = result;
        }
    }
    best.evaluations = total_evals;
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numerical_gradient;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::cell::Cell;

    // f has local minima near multiples of 2π, the global one at x = 0 due to
    // the |x| term.
    fn multimodal(x: &[f64]) -> f64 {
        (1.0 - x[0].cos()) + 0.3 * x[0].abs() + x[1] * x[1]
    }

    fn multimodal_grad(x: &[f64]) -> Vec<f64> {
        vec![x[0].sin() + 0.3 * x[0].signum(), 2.0 * x[1]]
    }

    fn sphere(x: &[f64]) -> f64 {
        x.iter().map(|v| v * v).sum::<f64>()
    }

    fn sphere_grad(x: &[f64]) -> Vec<f64> {
        x.iter().map(|v| 2.0 * v).collect()
    }

    fn wide_restarts() -> MultistartOptions {
        MultistartOptions {
            restarts: 8,
            spread: 6.0,
            ..MultistartOptions::default()
        }
    }

    #[test]
    fn finds_global_minimum_of_multimodal_function() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let r = multistart_minimize_with_grad(
            &multimodal,
            &multimodal_grad,
            &[5.0, 1.0],
            &wide_restarts(),
            &mut rng,
        );
        assert!(r.value < 1e-4, "value = {}", r.value);
        assert!(r.x[0].abs() < 1e-2);
    }

    #[test]
    fn gradient_variant_matches_numerical_multistart() {
        // Same seed, same restart points: steering every descent by central
        // differences instead finds the same global minimum.
        let numerical_grad = |x: &[f64]| numerical_gradient(&multimodal, x, 1e-6);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let numeric = multistart_minimize_with_grad(
            &multimodal,
            &numerical_grad,
            &[5.0, 1.0],
            &wide_restarts(),
            &mut rng,
        );
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let analytic = multistart_minimize_with_grad(
            &multimodal,
            &multimodal_grad,
            &[5.0, 1.0],
            &wide_restarts(),
            &mut rng,
        );
        assert!(numeric.value < 1e-4, "value = {}", numeric.value);
        assert!(analytic.value < 1e-4, "value = {}", analytic.value);
        assert!((analytic.x[0] - numeric.x[0]).abs() < 1e-2);
    }

    #[test]
    fn early_stop_on_target() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let opts = MultistartOptions {
            restarts: 50,
            target_value: Some(1e-6),
            ..MultistartOptions::default()
        };
        let r = multistart_minimize_with_grad(&sphere, &sphere_grad, &[1.0, 1.0], &opts, &mut rng);
        assert!(r.value <= 1e-6);
    }

    #[test]
    fn single_restart_equals_plain_bfgs() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let opts = MultistartOptions {
            restarts: 1,
            ..MultistartOptions::default()
        };
        let multi =
            multistart_minimize_with_grad(&sphere, &sphere_grad, &[2.0, -3.0], &opts, &mut rng);
        let plain = minimize_bfgs_with_grad(&sphere, &sphere_grad, &[2.0, -3.0], &opts.bfgs);
        assert_eq!(multi, plain);
    }

    #[test]
    fn evaluations_count_every_restart() {
        // The first start sits at the minimum, so no later restart beats it;
        // their work must still be counted.
        let f_calls = Cell::new(0usize);
        let g_calls = Cell::new(0usize);
        let f = |x: &[f64]| {
            f_calls.set(f_calls.get() + 1);
            sphere(x)
        };
        let grad = |x: &[f64]| {
            g_calls.set(g_calls.get() + 1);
            sphere_grad(x)
        };
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let opts = MultistartOptions {
            restarts: 3,
            target_value: None,
            ..MultistartOptions::default()
        };
        let r = multistart_minimize_with_grad(&f, &grad, &[0.0, 0.0], &opts, &mut rng);
        assert_eq!(r.value, 0.0);
        assert_eq!(r.evaluations, f_calls.get() + g_calls.get());
    }

    #[test]
    #[should_panic(expected = "at least one start")]
    fn zero_restarts_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let opts = MultistartOptions {
            restarts: 0,
            ..MultistartOptions::default()
        };
        let _ = multistart_minimize_with_grad(&sphere, &sphere_grad, &[1.0], &opts, &mut rng);
    }
}
