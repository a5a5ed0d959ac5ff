//! BFGS quasi-Newton minimization with a strong-Wolfe line search.
//!
//! This is the workhorse behind NuOp template optimization. The implementation
//! follows Nocedal & Wright, *Numerical Optimization*, Algorithms 6.1 (BFGS)
//! and 3.5/3.6 (line search satisfying the strong Wolfe conditions). The
//! caller supplies the analytic gradient; the line search takes its
//! directional derivatives as central differences along the search direction
//! (step [`BfgsOptions::fd_step`]).
//!
//! With NuOp's analytic gradient an objective call costs about a microsecond
//! and a gradient a few, so the `O(n^3)` inverse-Hessian update is a large
//! share of every iteration: `n` is `6(L+1)` for a fixed gate type with `L`
//! layers and reaches 54 for a 6-layer FullfSim template. The approximation
//! therefore lives in one row-major `n × n` buffer, updated in place with
//! scratch allocated once per run: each update forms its two matrix products
//! row by row over contiguous memory, in column strips whose accumulators
//! stay in registers. Every entry still sums its products in the textbook
//! order, so results are bit-identical to the nested-row formulation.

use serde::{Deserialize, Serialize};

use crate::{dot, norm};

/// Options controlling a BFGS run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BfgsOptions {
    /// Maximum number of quasi-Newton iterations.
    pub max_iters: usize,
    /// Convergence threshold on the Euclidean norm of the gradient.
    pub grad_tol: f64,
    /// Convergence threshold on the decrease of the objective between iterations.
    pub f_tol: f64,
    /// Step of the central difference that gives the line search its
    /// directional derivative along the search direction (two objective
    /// probes per derivative).
    pub fd_step: f64,
    /// Armijo (sufficient decrease) constant `c1` of the Wolfe conditions.
    pub c1: f64,
    /// Curvature constant `c2` of the Wolfe conditions.
    pub c2: f64,
    /// Maximum number of function evaluations inside one line search.
    pub max_line_search_steps: usize,
}

impl Default for BfgsOptions {
    fn default() -> Self {
        BfgsOptions {
            max_iters: 200,
            grad_tol: 1e-8,
            f_tol: 1e-12,
            fd_step: 1e-6,
            c1: 1e-4,
            c2: 0.9,
            max_line_search_steps: 30,
        }
    }
}

impl BfgsOptions {
    /// A cheaper option set used when the caller only needs a coarse optimum
    /// (e.g. NuOp's approximate decomposition mode).
    pub fn fast() -> Self {
        BfgsOptions {
            max_iters: 80,
            grad_tol: 1e-6,
            ..BfgsOptions::default()
        }
    }
}

/// The result of an optimization run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimResult {
    /// Location of the best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
    /// Number of outer iterations performed.
    pub iterations: usize,
    /// Number of objective calls plus gradient calls, each counting one
    /// (the line search's directional derivatives cost two objective calls).
    /// [`multistart_minimize_with_grad`](crate::multistart_minimize_with_grad)
    /// reports the total over every restart that ran.
    pub evaluations: usize,
    /// Whether a convergence criterion (gradient or f-decrease) was met.
    pub converged: bool,
    /// Final gradient norm.
    pub gradient_norm: f64,
}

/// Minimizes `f` starting from `x0` using BFGS with the caller-supplied
/// analytic gradient `grad`.
///
/// The gradient must match `f` to finite-difference accuracy; each gradient
/// call is counted as a single evaluation in [`OptimResult::evaluations`].
/// The strong-Wolfe line search probes the objective directly, so only `f` is
/// evaluated along the search direction.
///
/// ```
/// use optim::{minimize_bfgs_with_grad, BfgsOptions};
/// let sphere = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
/// let grad = |x: &[f64]| x.iter().map(|v| 2.0 * v).collect::<Vec<_>>();
/// let r = minimize_bfgs_with_grad(&sphere, &grad, &[1.0, -2.0, 3.0], &BfgsOptions::default());
/// assert!(r.value < 1e-12);
/// assert!(r.converged);
/// ```
///
/// # Panics
/// Panics if `x0` is empty.
pub fn minimize_bfgs_with_grad<F, G>(f: &F, grad: &G, x0: &[f64], opts: &BfgsOptions) -> OptimResult
where
    F: Fn(&[f64]) -> f64 + ?Sized,
    G: Fn(&[f64]) -> Vec<f64> + ?Sized,
{
    let n = x0.len();
    assert!(n > 0, "cannot optimize a zero-dimensional problem");

    let mut x = x0.to_vec();
    let mut fx = f(&x);
    let mut g = grad(&x);
    // One objective and one gradient call so far.
    let mut evaluations = 2;

    // Inverse Hessian approximation, initialized to the identity.
    let mut h_inv = InverseHessian::identity(n);

    let mut converged = false;
    let mut iterations = 0;

    for iter in 0..opts.max_iters {
        iterations = iter + 1;
        let gnorm = norm(&g);
        if gnorm < opts.grad_tol {
            converged = true;
            break;
        }

        // Search direction p = -H_inv * grad.
        let mut p = h_inv.direction(&g);
        // Safeguard: if the direction is not a descent direction (numerical
        // breakdown), restart from steepest descent.
        if dot(&p, &g) >= 0.0 {
            h_inv.reset();
            p = g.iter().map(|gi| -gi).collect();
        }

        // Strong-Wolfe line search for step length alpha.
        let (alpha, f_new, ls_evals) = wolfe_line_search(f, &x, fx, &g, &p, opts);
        evaluations += ls_evals;
        if alpha == 0.0 {
            // Line search failed to make progress; treat as converged to avoid
            // spinning.
            break;
        }

        let x_new: Vec<f64> = x
            .iter()
            .zip(p.iter())
            .map(|(xi, pi)| xi + alpha * pi)
            .collect();
        let g_new = grad(&x_new);
        evaluations += 1;

        // BFGS update of the inverse Hessian.
        let s: Vec<f64> = x_new.iter().zip(x.iter()).map(|(a, b)| a - b).collect();
        let y: Vec<f64> = g_new.iter().zip(g.iter()).map(|(a, b)| a - b).collect();
        let sy = dot(&s, &y);
        if sy > 1e-12 {
            h_inv.update(&s, &y, 1.0 / sy);
        }

        let f_decrease = fx - f_new;
        x = x_new;
        fx = f_new;
        g = g_new;

        if f_decrease.abs() < opts.f_tol && f_decrease >= 0.0 {
            converged = true;
            break;
        }
    }

    OptimResult {
        gradient_norm: norm(&g),
        x,
        value: fx,
        iterations,
        evaluations,
        converged,
    }
}

/// Column-strip width of [`mul_rows`]: eight `f64` accumulators, which stay
/// in registers across the whole `k` loop.
const STRIP: usize = 8;

/// The inverse-Hessian approximation `H` of one BFGS run, stored row-major in
/// one `n × n` buffer, together with the scratch its update needs. Everything
/// is allocated once, when the run starts.
struct InverseHessian {
    n: usize,
    /// `H`.
    h: Vec<f64>,
    /// `A = I - rho s y^T`.
    a: Vec<f64>,
    /// `A^T`: row `k` holds column `k` of `A`.
    a_t: Vec<f64>,
    /// `A H`.
    ah: Vec<f64>,
}

impl InverseHessian {
    fn identity(n: usize) -> Self {
        let mut m = InverseHessian {
            n,
            h: vec![0.0; n * n],
            a: vec![0.0; n * n],
            a_t: vec![0.0; n * n],
            ah: vec![0.0; n * n],
        };
        m.reset();
        m
    }

    /// Resets `H` to the identity.
    fn reset(&mut self) {
        self.h.fill(0.0);
        for d in self.h.iter_mut().step_by(self.n + 1) {
            *d = 1.0;
        }
    }

    /// The search direction `p = -H g`.
    fn direction(&self, g: &[f64]) -> Vec<f64> {
        self.h
            .chunks_exact(self.n)
            .map(|row| -dot(row, g))
            .collect()
    }

    /// The BFGS inverse-Hessian update, in place:
    /// `H <- (I - rho s y^T) H (I - rho y s^T) + rho s s^T`.
    ///
    /// It forms `A = I - rho s y^T`, then `A H` and `(A H) A^T` with
    /// [`mul_rows`], then adds `(rho s_i) s_j` to each entry. Every entry of
    /// both products starts at `0.0` and adds its `n` products in `k` order,
    /// so the result rounds exactly like the textbook triple loop over
    /// nested rows: only the memory layout and the loop nesting differ.
    fn update(&mut self, s: &[f64], y: &[f64], rho: f64) {
        let n = self.n;
        for (i, (a_row, &si)) in self.a.chunks_exact_mut(n).zip(s).enumerate() {
            let rho_si = rho * si;
            for (j, (aij, &yj)) in a_row.iter_mut().zip(y).enumerate() {
                *aij = if i == j { 1.0 } else { 0.0 } - rho_si * yj;
            }
        }
        for (k, a_t_row) in self.a_t.chunks_exact_mut(n).enumerate() {
            for (slot, a_row) in a_t_row.iter_mut().zip(self.a.chunks_exact(n)) {
                *slot = a_row[k];
            }
        }
        mul_rows(&self.a, &self.h, &mut self.ah, n);
        mul_rows(&self.ah, &self.a_t, &mut self.h, n);
        for (h_row, &si) in self.h.chunks_exact_mut(n).zip(s) {
            let rho_si = rho * si;
            for (hij, &sj) in h_row.iter_mut().zip(s) {
                *hij += rho_si * sj;
            }
        }
    }
}

/// `out = x y` for row-major `n × n` matrices, in i-k-j order: row `i` of
/// `out` accumulates `x[i][k] · y[k]` over `k`, reading `y` by contiguous
/// rows. Each entry starts at `0.0` and adds its products in `k` order.
/// Columns go in strips of [`STRIP`] accumulators; the last `n mod STRIP`
/// columns take a scalar loop.
fn mul_rows(x: &[f64], y: &[f64], out: &mut [f64], n: usize) {
    let strips_end = n - n % STRIP;
    for (x_row, out_row) in x.chunks_exact(n).zip(out.chunks_exact_mut(n)) {
        for j0 in (0..strips_end).step_by(STRIP) {
            let mut acc = [0.0; STRIP];
            for (&xik, y_row) in x_row.iter().zip(y.chunks_exact(n)) {
                for (c, &ykj) in acc.iter_mut().zip(&y_row[j0..j0 + STRIP]) {
                    *c += xik * ykj;
                }
            }
            out_row[j0..j0 + STRIP].copy_from_slice(&acc);
        }
        for (j, slot) in out_row.iter_mut().enumerate().skip(strips_end) {
            let mut acc = 0.0;
            for (&xik, y_row) in x_row.iter().zip(y.chunks_exact(n)) {
                acc += xik * y_row[j];
            }
            *slot = acc;
        }
    }
}

/// The one-dimensional restriction `phi(alpha) = f(x + alpha p)` with a single
/// reusable probe buffer: line-search evaluations write `x + alpha p` in place
/// instead of collecting a fresh `Vec` per objective call, so the search is
/// allocation-free after construction. Together with the stack-allocated
/// `SmallMat` objectives of gate decomposition, this keeps the whole BFGS
/// inner loop off the heap.
struct LineEval<'a, F: ?Sized> {
    f: &'a F,
    x: &'a [f64],
    p: &'a [f64],
    probe: Vec<f64>,
    fd_step: f64,
}

impl<F> LineEval<'_, F>
where
    F: Fn(&[f64]) -> f64 + ?Sized,
{
    fn probe_at(&mut self, alpha: f64) -> f64 {
        for ((slot, xi), pi) in self.probe.iter_mut().zip(self.x).zip(self.p) {
            *slot = xi + alpha * pi;
        }
        (self.f)(&self.probe)
    }

    fn phi(&mut self, alpha: f64, evals: &mut usize) -> f64 {
        *evals += 1;
        self.probe_at(alpha)
    }

    /// Directional derivative by central difference along `p`.
    fn dphi(&mut self, alpha: f64, evals: &mut usize) -> f64 {
        let h = self.fd_step;
        *evals += 2;
        (self.probe_at(alpha + h) - self.probe_at(alpha - h)) / (2.0 * h)
    }
}

/// A bracketing + zoom line search enforcing the strong Wolfe conditions.
/// Returns `(alpha, f(x + alpha p), evaluations)`; `alpha == 0` signals failure.
fn wolfe_line_search<F>(
    f: &F,
    x: &[f64],
    fx: f64,
    grad: &[f64],
    p: &[f64],
    opts: &BfgsOptions,
) -> (f64, f64, usize)
where
    F: Fn(&[f64]) -> f64 + ?Sized,
{
    let mut evals = 0usize;
    let phi0 = fx;
    let dphi0 = dot(grad, p);
    if dphi0 >= 0.0 {
        return (0.0, fx, evals);
    }
    let mut line = LineEval {
        f,
        x,
        p,
        probe: vec![0.0; x.len()],
        fd_step: opts.fd_step,
    };

    let mut alpha_prev = 0.0;
    let mut phi_prev = phi0;
    let mut alpha = 1.0;
    let alpha_max = 10.0;

    for i in 0..opts.max_line_search_steps {
        let phi_alpha = line.phi(alpha, &mut evals);
        if phi_alpha > phi0 + opts.c1 * alpha * dphi0 || (i > 0 && phi_alpha >= phi_prev) {
            let (a, fa) = zoom(
                &mut line, phi0, dphi0, alpha_prev, phi_prev, alpha, opts, &mut evals,
            );
            return (a, fa, evals);
        }
        let dphi_alpha = line.dphi(alpha, &mut evals);
        if dphi_alpha.abs() <= -opts.c2 * dphi0 {
            return (alpha, phi_alpha, evals);
        }
        if dphi_alpha >= 0.0 {
            let (a, fa) = zoom(
                &mut line, phi0, dphi0, alpha, phi_alpha, alpha_prev, opts, &mut evals,
            );
            return (a, fa, evals);
        }
        alpha_prev = alpha;
        phi_prev = phi_alpha;
        alpha = (alpha * 2.0).min(alpha_max);
    }
    // Fall back to a simple backtracking result.
    let phi_alpha = line.phi(alpha, &mut evals);
    if phi_alpha < phi0 {
        (alpha, phi_alpha, evals)
    } else {
        (0.0, phi0, evals)
    }
}

/// The `zoom` procedure of Nocedal & Wright Algorithm 3.6, expressed on the
/// one-dimensional restriction `phi(alpha) = f(x + alpha p)`.
#[allow(clippy::too_many_arguments)]
fn zoom<F>(
    line: &mut LineEval<'_, F>,
    phi0: f64,
    dphi0: f64,
    mut alpha_lo: f64,
    mut phi_lo: f64,
    mut alpha_hi: f64,
    opts: &BfgsOptions,
    evals: &mut usize,
) -> (f64, f64)
where
    F: Fn(&[f64]) -> f64 + ?Sized,
{
    let mut best = (alpha_lo, phi_lo);
    for _ in 0..opts.max_line_search_steps {
        // Bisection is robust for the smooth objectives we optimize.
        let alpha = 0.5 * (alpha_lo + alpha_hi);
        if (alpha_hi - alpha_lo).abs() < 1e-14 {
            break;
        }
        let phi_alpha = line.phi(alpha, evals);
        if phi_alpha > phi0 + opts.c1 * alpha * dphi0 || phi_alpha >= phi_lo {
            alpha_hi = alpha;
        } else {
            if phi_alpha < best.1 {
                best = (alpha, phi_alpha);
            }
            let dphi_alpha = line.dphi(alpha, evals);
            if dphi_alpha.abs() <= -opts.c2 * dphi0 {
                return (alpha, phi_alpha);
            }
            if dphi_alpha * (alpha_hi - alpha_lo) >= 0.0 {
                alpha_hi = alpha_lo;
            }
            alpha_lo = alpha;
            phi_lo = phi_alpha;
        }
    }
    if best.1 < phi0 {
        best
    } else {
        (0.0, phi0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numerical_gradient;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::cell::Cell;

    fn sphere(x: &[f64]) -> f64 {
        x.iter().map(|v| v * v).sum::<f64>()
    }

    fn sphere_grad(x: &[f64]) -> Vec<f64> {
        x.iter().map(|v| 2.0 * v).collect()
    }

    fn rosen(x: &[f64]) -> f64 {
        (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2)
    }

    fn rosen_grad(x: &[f64]) -> Vec<f64> {
        vec![
            -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] * x[0]),
            200.0 * (x[1] - x[0] * x[0]),
        ]
    }

    #[test]
    fn minimizes_sphere() {
        let r =
            minimize_bfgs_with_grad(&sphere, &sphere_grad, &[3.0, -4.0], &BfgsOptions::default());
        assert!(r.value < 1e-10, "value = {}", r.value);
        assert!(r.converged);
    }

    #[test]
    fn minimizes_rosenbrock() {
        let r = minimize_bfgs_with_grad(&rosen, &rosen_grad, &[-1.2, 1.0], &BfgsOptions::default());
        assert!(r.value < 1e-6, "value = {}", r.value);
        assert!((r.x[0] - 1.0).abs() < 1e-2);
        assert!((r.x[1] - 1.0).abs() < 1e-2);
    }

    #[test]
    fn minimizes_trig_objective() {
        // Shaped like a decomposition-fidelity landscape.
        let f = |x: &[f64]| 1.0 - (x[0].cos() * x[1].sin()).powi(2);
        let grad = |x: &[f64]| {
            let u = x[0].cos() * x[1].sin();
            vec![
                2.0 * u * x[0].sin() * x[1].sin(),
                -2.0 * u * x[0].cos() * x[1].cos(),
            ]
        };
        let r = minimize_bfgs_with_grad(&f, &grad, &[0.3, 1.0], &BfgsOptions::default());
        assert!(r.value < 1e-8, "value = {}", r.value);
    }

    #[test]
    fn already_at_minimum_converges_immediately() {
        let r = minimize_bfgs_with_grad(
            &sphere,
            &sphere_grad,
            &[0.0, 0.0, 0.0],
            &BfgsOptions::default(),
        );
        assert!(r.converged);
        assert!(r.iterations <= 2);
        assert!(r.value < 1e-15);
    }

    #[test]
    fn fast_options_still_work() {
        let r = minimize_bfgs_with_grad(&sphere, &sphere_grad, &[1.0, 1.0], &BfgsOptions::fast());
        assert!(r.value < 1e-8);
    }

    #[test]
    fn high_dimensional_quadratic() {
        let f = |x: &[f64]| {
            x.iter()
                .enumerate()
                .map(|(i, v)| (i as f64 + 1.0) * (v - 1.0) * (v - 1.0))
                .sum::<f64>()
        };
        let grad = |x: &[f64]| {
            x.iter()
                .enumerate()
                .map(|(i, v)| 2.0 * (i as f64 + 1.0) * (v - 1.0))
                .collect::<Vec<_>>()
        };
        let x0 = vec![0.0; 12];
        let r = minimize_bfgs_with_grad(&f, &grad, &x0, &BfgsOptions::default());
        assert!(r.value < 1e-8, "value = {}", r.value);
        for v in &r.x {
            assert!((v - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    #[should_panic(expected = "zero-dimensional")]
    fn zero_dimensional_panics() {
        let f = |_: &[f64]| 0.0;
        let grad = |_: &[f64]| Vec::new();
        let _ = minimize_bfgs_with_grad(&f, &grad, &[], &BfgsOptions::default());
    }

    #[test]
    fn analytic_gradient_matches_numerical_path() {
        // Steered by central differences instead, BFGS reaches the same
        // minimum of the Rosenbrock valley.
        let numerical_grad = |x: &[f64]| numerical_gradient(&rosen, x, 1e-6);
        let numeric = minimize_bfgs_with_grad(
            &rosen,
            &numerical_grad,
            &[-1.2, 1.0],
            &BfgsOptions::default(),
        );
        let analytic =
            minimize_bfgs_with_grad(&rosen, &rosen_grad, &[-1.2, 1.0], &BfgsOptions::default());
        assert!(analytic.value < 1e-6, "value = {}", analytic.value);
        assert!((analytic.x[0] - 1.0).abs() < 1e-2);
        assert!((analytic.x[1] - 1.0).abs() < 1e-2);
        assert!((analytic.x[0] - numeric.x[0]).abs() < 1e-2);
        assert!((analytic.x[1] - numeric.x[1]).abs() < 1e-2);
    }

    #[test]
    fn analytic_gradient_evaluation_accounting() {
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
        let r = minimize_bfgs_with_grad(&f, &grad, &[2.0, -1.0], &BfgsOptions::default());
        assert!(r.converged);
        assert!(r.value < 1e-12);
        assert_eq!(r.evaluations, f_calls.get() + g_calls.get());
    }

    /// The nested-row update that [`InverseHessian::update`] replaced, kept
    /// as the reference its bits must match.
    fn nested_update(h: &[Vec<f64>], s: &[f64], y: &[f64], rho: f64) -> Vec<Vec<f64>> {
        let n = s.len();
        // A = I - rho * s y^T
        let mut a = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                a[i][j] = if i == j { 1.0 } else { 0.0 } - rho * s[i] * y[j];
            }
        }
        // H' = A H A^T + rho s s^T
        let mut ah = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += a[i][k] * h[k][j];
                }
                ah[i][j] = acc;
            }
        }
        let mut out = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += ah[i][k] * a[j][k];
                }
                out[i][j] = acc + rho * s[i] * s[j];
            }
        }
        out
    }

    #[test]
    fn in_place_update_is_bit_identical_to_the_nested_reference() {
        // Odd sizes exercise the scalar remainder columns; 54 is a 6-layer
        // FullfSim template.
        let mut rng = ChaCha8Rng::seed_from_u64(0xBF65);
        for n in [1, 2, 6, 8, 13, 24, 42, 54] {
            let lower: Vec<Vec<f64>> = (0..n)
                .map(|i| (0..=i).map(|_| rng.gen_range(-1.0..1.0)).collect())
                .collect();
            let mut nested: Vec<Vec<f64>> = (0..n)
                .map(|i| (0..n).map(|j| lower[i.max(j)][i.min(j)]).collect())
                .collect();
            let mut flat = InverseHessian::identity(n);
            flat.h = nested.concat();
            for step in 0..3 {
                let s: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let y: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let rho = 1.0 / dot(&s, &y);
                nested = nested_update(&nested, &s, &y, rho);
                flat.update(&s, &y, rho);
                let want: Vec<u64> = nested.iter().flatten().map(|v| v.to_bits()).collect();
                let got: Vec<u64> = flat.h.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "n = {n}, update {step}");
            }
        }
    }
}
