//! Dense complex matrices.
//!
//! [`CMatrix`] is a row-major, heap-allocated complex matrix. Quantum gate
//! synthesis only ever needs small matrices (2×2 up to 2^n×2^n for small `n`), so
//! the implementation favours clarity and numerical robustness over blocking or
//! SIMD tricks.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

use serde::{Deserialize, Serialize};

use crate::complex::Complex;

/// A dense complex matrix stored in row-major order.
///
/// ```
/// use qmath::CMatrix;
/// let h = CMatrix::from_real(2, &[1.0, 1.0, 1.0, -1.0]).scale(1.0 / 2f64.sqrt());
/// assert!(h.is_unitary(1e-12));
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex>,
}

impl CMatrix {
    /// Creates a matrix of zeros with the given shape.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        CMatrix {
            rows,
            cols,
            data: vec![Complex::ZERO; rows * cols],
        }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex::ONE;
        }
        m
    }

    /// Creates a square matrix from a row-major slice of complex entries.
    ///
    /// # Panics
    /// Panics if `data.len() != n * n`.
    pub fn from_rows(n: usize, data: &[Complex]) -> Self {
        assert_eq!(data.len(), n * n, "expected {} entries", n * n);
        CMatrix {
            rows: n,
            cols: n,
            data: data.to_vec(),
        }
    }

    /// Creates a square matrix from a row-major slice of real entries.
    pub fn from_real(n: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), n * n, "expected {} entries", n * n);
        CMatrix {
            rows: n,
            cols: n,
            data: data.iter().map(|&x| Complex::from_real(x)).collect(),
        }
    }

    /// Creates a square matrix from interleaved `(re, im)` pairs in row-major order.
    pub fn from_re_im(n: usize, pairs: &[(f64, f64)]) -> Self {
        assert_eq!(pairs.len(), n * n, "expected {} entries", n * n);
        CMatrix {
            rows: n,
            cols: n,
            data: pairs.iter().map(|&(re, im)| Complex::new(re, im)).collect(),
        }
    }

    /// Creates a diagonal square matrix from its diagonal entries.
    pub fn diagonal(diag: &[Complex]) -> Self {
        let n = diag.len();
        let mut m = CMatrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Element access returning `None` when out of bounds.
    pub fn get(&self, r: usize, c: usize) -> Option<Complex> {
        if r < self.rows && c < self.cols {
            Some(self.data[r * self.cols + c])
        } else {
            None
        }
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> CMatrix {
        let mut out = CMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Element-wise complex conjugate.
    pub fn conj(&self) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Conjugate transpose (Hermitian adjoint), `U†`.
    pub fn dagger(&self) -> CMatrix {
        self.conj().transpose()
    }

    /// Multiplies every entry by a real scalar.
    pub fn scale(&self, s: f64) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.scale(s)).collect(),
        }
    }

    /// Multiplies every entry by a complex scalar.
    pub fn scale_complex(&self, s: Complex) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * s).collect(),
        }
    }

    /// Matrix trace.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> Complex {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Kronecker (tensor) product `self ⊗ other`.
    ///
    /// ```
    /// use qmath::CMatrix;
    /// let id = CMatrix::identity(2);
    /// let x = CMatrix::from_real(2, &[0.0, 1.0, 1.0, 0.0]);
    /// let ix = id.kron(&x);
    /// assert_eq!(ix.rows(), 4);
    /// assert_eq!(ix[(0, 1)], x[(0, 1)]);
    /// ```
    pub fn kron(&self, other: &CMatrix) -> CMatrix {
        let rows = self.rows * other.rows;
        let cols = self.cols * other.cols;
        let mut out = CMatrix::zeros(rows, cols);
        for ar in 0..self.rows {
            for ac in 0..self.cols {
                let a = self[(ar, ac)];
                if a == Complex::ZERO {
                    continue;
                }
                for br in 0..other.rows {
                    for bc in 0..other.cols {
                        out[(ar * other.rows + br, ac * other.cols + bc)] = a * other[(br, bc)];
                    }
                }
            }
        }
        out
    }

    /// Frobenius norm `sqrt(sum |a_ij|^2)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry-wise difference with another matrix (of either
    /// representation — see [`MatRef`](crate::MatRef)).
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn max_abs_diff<M: crate::MatRef + ?Sized>(&self, other: &M) -> f64 {
        crate::small::max_abs_diff_impl(self, other)
    }

    /// Entry-wise approximate equality with absolute tolerance `tol`.
    pub fn approx_eq<M: crate::MatRef + ?Sized>(&self, other: &M, tol: f64) -> bool {
        self.rows == other.nrows() && self.cols == other.ncols() && self.max_abs_diff(other) <= tol
    }

    /// Approximate equality up to a global phase factor.
    ///
    /// Two unitaries that differ only by `e^{i phi}` implement the same quantum
    /// operation; this comparison is the physically meaningful one.
    pub fn approx_eq_up_to_phase<M: crate::MatRef + ?Sized>(&self, other: &M, tol: f64) -> bool {
        crate::small::approx_eq_up_to_phase_impl(self, other, tol)
    }

    /// True when `U† U = I` within tolerance `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let prod = &self.dagger() * self;
        prod.approx_eq(&CMatrix::identity(self.rows), tol)
    }

    /// True when the matrix equals its own adjoint within `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        self.is_square() && self.approx_eq(&self.dagger(), tol)
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[Complex]) -> Vec<Complex> {
        assert_eq!(v.len(), self.cols, "vector length mismatch");
        self.data
            .chunks_exact(self.cols)
            .map(|row| {
                row.iter()
                    .zip(v.iter())
                    .fold(Complex::ZERO, |acc, (a, x)| acc + *a * *x)
            })
            .collect()
    }

    /// Determinant via LU decomposition with partial pivoting.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn determinant(&self) -> Complex {
        assert!(self.is_square(), "determinant requires a square matrix");
        let n = self.rows;
        let mut a = self.clone();
        let mut det = Complex::ONE;
        for k in 0..n {
            // Partial pivot.
            let mut piv = k;
            let mut piv_norm = a[(k, k)].norm();
            for r in (k + 1)..n {
                if a[(r, k)].norm() > piv_norm {
                    piv = r;
                    piv_norm = a[(r, k)].norm();
                }
            }
            if piv_norm == 0.0 {
                return Complex::ZERO;
            }
            if piv != k {
                for c in 0..n {
                    let tmp = a[(k, c)];
                    a[(k, c)] = a[(piv, c)];
                    a[(piv, c)] = tmp;
                }
                det = -det;
            }
            det *= a[(k, k)];
            for r in (k + 1)..n {
                let factor = a[(r, k)] / a[(k, k)];
                for c in k..n {
                    let sub = factor * a[(k, c)];
                    a[(r, c)] -= sub;
                }
            }
        }
        det
    }

    /// QR decomposition via modified Gram–Schmidt. Returns `(Q, R)` with `Q`
    /// having orthonormal columns and `R` upper triangular such that `A = Q R`.
    ///
    /// # Panics
    /// Panics if the matrix is not square (general rectangular QR is not needed
    /// by the workspace).
    pub fn qr(&self) -> (CMatrix, CMatrix) {
        assert!(self.is_square(), "qr implemented for square matrices");
        let n = self.rows;
        let mut q = CMatrix::zeros(n, n);
        let mut r = CMatrix::zeros(n, n);
        // Work column by column.
        let mut cols: Vec<Vec<Complex>> = (0..n)
            .map(|c| (0..n).map(|row| self[(row, c)]).collect())
            .collect();
        for j in 0..n {
            // Two projection passes ("twice is enough") keep Q orthonormal even
            // for ill-conditioned inputs, which plain modified Gram–Schmidt
            // does not guarantee.
            for _pass in 0..2 {
                for i in 0..j {
                    // r_ij += q_i† a_j
                    let mut dot = Complex::ZERO;
                    for row in 0..n {
                        dot += q[(row, i)].conj() * cols[j][row];
                    }
                    r[(i, j)] += dot;
                    for row in 0..n {
                        let sub = dot * q[(row, i)];
                        cols[j][row] -= sub;
                    }
                }
            }
            let norm = cols[j].iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
            r[(j, j)] = Complex::from_real(norm);
            if norm > 0.0 {
                for row in 0..n {
                    q[(row, j)] = cols[j][row] / norm;
                }
            } else {
                // Degenerate column: pick a unit vector orthogonal handling is not
                // required for our use (random Ginibre matrices are full rank
                // almost surely), but keep Q well formed.
                q[(j, j)] = Complex::ONE;
            }
        }
        (q, r)
    }

    /// Inverse of a unitary matrix (its adjoint).
    ///
    /// This is *not* a general matrix inverse: it asserts the matrix is unitary.
    ///
    /// # Panics
    /// Panics if the matrix is not unitary within `1e-8`.
    pub fn unitary_inverse(&self) -> CMatrix {
        assert!(
            self.is_unitary(1e-8),
            "unitary_inverse on a non-unitary matrix"
        );
        self.dagger()
    }

    /// Eigenvalues and eigenvectors of a *real symmetric* matrix via the cyclic
    /// Jacobi method. The imaginary parts of the input are ignored after an
    /// assertion that they are negligible.
    ///
    /// Returns `(eigenvalues, eigenvectors)` where column `k` of the returned
    /// matrix is the eigenvector for `eigenvalues[k]`. Eigen-pairs are sorted in
    /// ascending order of eigenvalue.
    ///
    /// # Panics
    /// Panics if the matrix is not square or has non-negligible imaginary parts
    /// or asymmetry.
    // Jacobi rotations couple columns p and q across every row k; index-based
    // loops mirror the textbook update and stay readable.
    #[allow(clippy::needless_range_loop)]
    pub fn symmetric_eigen(&self, tol: f64) -> (Vec<f64>, CMatrix) {
        assert!(self.is_square(), "eigen requires a square matrix");
        let n = self.rows;
        for r in 0..n {
            for c in 0..n {
                assert!(
                    self[(r, c)].im.abs() < 1e-7,
                    "symmetric_eigen requires a real matrix"
                );
                assert!(
                    (self[(r, c)].re - self[(c, r)].re).abs() < 1e-7,
                    "symmetric_eigen requires a symmetric matrix"
                );
            }
        }
        let mut a: Vec<Vec<f64>> = (0..n)
            .map(|r| (0..n).map(|c| self[(r, c)].re).collect())
            .collect();
        let mut v: Vec<Vec<f64>> = (0..n)
            .map(|r| (0..n).map(|c| if r == c { 1.0 } else { 0.0 }).collect())
            .collect();
        for _sweep in 0..100 {
            let mut off = 0.0;
            for r in 0..n {
                for c in (r + 1)..n {
                    off += a[r][c] * a[r][c];
                }
            }
            if off.sqrt() < tol {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    if a[p][q].abs() < 1e-300 {
                        continue;
                    }
                    let theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q]);
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;
                    for k in 0..n {
                        let akp = a[k][p];
                        let akq = a[k][q];
                        a[k][p] = c * akp - s * akq;
                        a[k][q] = s * akp + c * akq;
                    }
                    for k in 0..n {
                        let apk = a[p][k];
                        let aqk = a[q][k];
                        a[p][k] = c * apk - s * aqk;
                        a[q][k] = s * apk + c * aqk;
                    }
                    for k in 0..n {
                        let vkp = v[k][p];
                        let vkq = v[k][q];
                        v[k][p] = c * vkp - s * vkq;
                        v[k][q] = s * vkp + c * vkq;
                    }
                }
            }
        }
        let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (a[i][i], i)).collect();
        pairs.sort_by(|x, y| x.0.total_cmp(&y.0));
        let eigenvalues: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let mut vectors = CMatrix::zeros(n, n);
        for (new_col, &(_, old_col)) in pairs.iter().enumerate() {
            for r in 0..n {
                vectors[(r, new_col)] = Complex::from_real(v[r][old_col]);
            }
        }
        (eigenvalues, vectors)
    }

    /// Raises the matrix to the `k`-th non-negative integer power.
    pub fn pow(&self, k: usize) -> CMatrix {
        assert!(self.is_square(), "pow requires a square matrix");
        let mut result = CMatrix::identity(self.rows);
        for _ in 0..k {
            result = &result * self;
        }
        result
    }

    /// Extracts a contiguous sub-block.
    ///
    /// # Panics
    /// Panics if the block exceeds the matrix bounds.
    pub fn block(&self, row0: usize, col0: usize, rows: usize, cols: usize) -> CMatrix {
        assert!(
            row0 + rows <= self.rows && col0 + cols <= self.cols,
            "block out of bounds"
        );
        let mut out = CMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                out[(r, c)] = self[(row0 + r, col0 + c)];
            }
        }
        out
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Complex {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Complex {
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMatrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Add for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.rows, rhs.rows, "row mismatch");
        assert_eq!(self.cols, rhs.cols, "col mismatch");
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.rows, rhs.rows, "row mismatch");
        assert_eq!(self.cols, rhs.cols, "col mismatch");
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl Neg for &CMatrix {
    type Output = CMatrix;
    fn neg(self) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| -*z).collect(),
        }
    }
}

impl Mul for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.cols, rhs.rows, "inner dimension mismatch");
        let mut out = CMatrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == Complex::ZERO {
                    continue;
                }
                for c in 0..rhs.cols {
                    out[(r, c)] += a * rhs[(k, c)];
                }
            }
        }
        out
    }
}

impl Mul<Complex> for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: Complex) -> CMatrix {
        self.scale_complex(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::haar_random_unitary;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn pauli_x() -> CMatrix {
        CMatrix::from_real(2, &[0.0, 1.0, 1.0, 0.0])
    }

    fn pauli_y() -> CMatrix {
        CMatrix::from_re_im(2, &[(0.0, 0.0), (0.0, -1.0), (0.0, 1.0), (0.0, 0.0)])
    }

    fn pauli_z() -> CMatrix {
        CMatrix::from_real(2, &[1.0, 0.0, 0.0, -1.0])
    }

    #[test]
    fn identity_multiplication() {
        let id = CMatrix::identity(4);
        let x = pauli_x().kron(&pauli_z());
        assert!((&id * &x).approx_eq(&x, 1e-15));
        assert!((&x * &id).approx_eq(&x, 1e-15));
    }

    #[test]
    fn pauli_algebra() {
        let (x, y, z) = (pauli_x(), pauli_y(), pauli_z());
        // XY = iZ
        let xy = &x * &y;
        let iz = z.scale_complex(Complex::I);
        assert!(xy.approx_eq(&iz, 1e-12));
        // X^2 = Y^2 = Z^2 = I
        for p in [&x, &y, &z] {
            assert!((p * p).approx_eq(&CMatrix::identity(2), 1e-12));
        }
        // Traceless
        for p in [&x, &y, &z] {
            assert!(p.trace().norm() < 1e-12);
        }
    }

    #[test]
    fn dagger_and_unitarity() {
        let x = pauli_x();
        assert!(x.is_unitary(1e-12));
        assert!(x.is_hermitian(1e-12));
        let y = pauli_y();
        assert!(y.is_unitary(1e-12));
        assert!(y.dagger().approx_eq(&y, 1e-12));
    }

    #[test]
    fn kron_dimensions_and_values() {
        let x = pauli_x();
        let z = pauli_z();
        let xz = x.kron(&z);
        assert_eq!(xz.rows(), 4);
        assert_eq!(xz.cols(), 4);
        // (X ⊗ Z)(X ⊗ Z) = I4
        assert!((&xz * &xz).approx_eq(&CMatrix::identity(4), 1e-12));
        // Mixed-product property: (A⊗B)(C⊗D) = AC ⊗ BD
        let a = pauli_y();
        let b = pauli_z();
        let lhs = &x.kron(&z) * &a.kron(&b);
        let rhs = (&x * &a).kron(&(&z * &b));
        assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    fn trace_linear() {
        let x = pauli_x();
        let z = pauli_z();
        let sum = &x + &z;
        assert!((sum.trace() - (x.trace() + z.trace())).norm() < 1e-12);
    }

    #[test]
    fn determinant_of_paulis() {
        assert!((pauli_x().determinant() + Complex::ONE).norm() < 1e-12);
        assert!((pauli_z().determinant() + Complex::ONE).norm() < 1e-12);
        assert!((CMatrix::identity(4).determinant() - Complex::ONE).norm() < 1e-12);
    }

    #[test]
    fn determinant_of_singular_matrix_is_zero() {
        let m = CMatrix::from_real(2, &[1.0, 2.0, 2.0, 4.0]);
        assert!(m.determinant().norm() < 1e-12);
    }

    #[test]
    fn qr_reconstructs_and_q_is_unitary() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for n in [2usize, 3, 4, 8] {
            let u = haar_random_unitary(n, &mut rng);
            let a = &u
                * &CMatrix::from_real(
                    n,
                    &(0..n * n)
                        .map(|i| (i as f64 * 0.37).sin() + 1.5)
                        .collect::<Vec<_>>(),
                );
            let (q, r) = a.qr();
            assert!(q.is_unitary(1e-9), "Q not unitary for n={n}");
            assert!((&q * &r).approx_eq(&a, 1e-9), "QR != A for n={n}");
            // R upper triangular
            for row in 0..n {
                for col in 0..row {
                    assert!(r[(row, col)].norm() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn symmetric_eigen_recovers_diagonal() {
        let m = CMatrix::from_real(3, &[2.0, 1.0, 0.0, 1.0, 2.0, 0.0, 0.0, 0.0, 5.0]);
        let (vals, vecs) = m.symmetric_eigen(1e-12);
        assert!((vals[0] - 1.0).abs() < 1e-9);
        assert!((vals[1] - 3.0).abs() < 1e-9);
        assert!((vals[2] - 5.0).abs() < 1e-9);
        // Check A v = lambda v for each column.
        for k in 0..3 {
            let v: Vec<Complex> = (0..3).map(|r| vecs[(r, k)]).collect();
            let av = m.mul_vec(&v);
            for r in 0..3 {
                assert!((av[r] - v[r].scale(vals[k])).norm() < 1e-8);
            }
        }
    }

    #[test]
    fn mul_vec_matches_matrix_product() {
        let x = pauli_x();
        let v = vec![Complex::ONE, Complex::ZERO];
        let out = x.mul_vec(&v);
        assert!(out[0].norm() < 1e-12);
        assert!((out[1] - Complex::ONE).norm() < 1e-12);
    }

    #[test]
    fn approx_eq_up_to_phase() {
        let x = pauli_x();
        let phased = x.scale_complex(Complex::cis(0.7));
        assert!(x.approx_eq_up_to_phase(&phased, 1e-12));
        assert!(!x.approx_eq_up_to_phase(&pauli_z(), 1e-12));
    }

    #[test]
    fn block_extraction() {
        let m = CMatrix::from_real(4, &(0..16).map(|i| i as f64).collect::<Vec<_>>());
        let b = m.block(1, 1, 2, 2);
        assert_eq!(b[(0, 0)].re, 5.0);
        assert_eq!(b[(1, 1)].re, 10.0);
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let x = pauli_x();
        assert!(x.pow(0).approx_eq(&CMatrix::identity(2), 1e-12));
        assert!(x.pow(2).approx_eq(&CMatrix::identity(2), 1e-12));
        assert!(x.pow(3).approx_eq(&x, 1e-12));
    }

    #[test]
    fn frobenius_norm_of_unitary_is_sqrt_dim() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let u = haar_random_unitary(4, &mut rng);
        assert!((u.frobenius_norm() - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatched_multiplication_panics() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(2, 3);
        let _ = &a * &b;
    }

    #[test]
    #[should_panic(expected = "trace requires a square matrix")]
    fn trace_of_rectangular_panics() {
        let a = CMatrix::zeros(2, 3);
        let _ = a.trace();
    }
}
