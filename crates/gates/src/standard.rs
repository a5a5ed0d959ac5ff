//! Standard fixed gates and the parameterized single-qubit rotation `U3`.
//!
//! All matrices use the computational-basis ordering `|00⟩, |01⟩, |10⟩, |11⟩`
//! with the first qubit as the most significant bit, matching the paper's
//! Table I. Constructors return the stack-allocated [`Mat2`] / [`Mat4`]
//! representations so the synthesis hot path never allocates; convert with
//! `CMatrix::from(...)` where a heap matrix is needed.

use qmath::{Complex, Mat2, Mat4};

/// Arbitrary single-qubit rotation (paper footnote 1):
///
/// ```text
/// U3(α, β, λ) = [ cos(α/2)             -e^{iλ} sin(α/2)      ]
///               [ e^{iβ} sin(α/2)       e^{i(β+λ)} cos(α/2)  ]
/// ```
///
/// NuOp templates interleave layers of `U3` gates (three free parameters per
/// qubit) with the fixed hardware two-qubit gate.
pub fn u3(alpha: f64, beta: f64, lambda: f64) -> Mat2 {
    let (c, s) = ((alpha / 2.0).cos(), (alpha / 2.0).sin());
    Mat2::from_rows(&[
        Complex::from_real(c),
        -Complex::cis(lambda) * s,
        Complex::cis(beta) * s,
        Complex::cis(beta + lambda) * c,
    ])
}

/// Pauli X.
pub fn x() -> Mat2 {
    Mat2::from_real(&[0.0, 1.0, 1.0, 0.0])
}

/// Pauli Y.
pub fn y() -> Mat2 {
    Mat2::from_rows(&[
        Complex::ZERO,
        Complex::new(0.0, -1.0),
        Complex::new(0.0, 1.0),
        Complex::ZERO,
    ])
}

/// Pauli Z.
pub fn z() -> Mat2 {
    Mat2::from_real(&[1.0, 0.0, 0.0, -1.0])
}

/// Hadamard gate.
pub fn h() -> Mat2 {
    Mat2::from_real(&[1.0, 1.0, 1.0, -1.0]).scale(std::f64::consts::FRAC_1_SQRT_2)
}

/// Phase gate S = diag(1, i).
pub fn s() -> Mat2 {
    Mat2::diagonal(&[Complex::ONE, Complex::I])
}

/// T gate = diag(1, e^{iπ/4}).
pub fn t() -> Mat2 {
    Mat2::diagonal(&[Complex::ONE, Complex::cis(std::f64::consts::FRAC_PI_4)])
}

/// Rotation about X: `RX(θ) = exp(-i θ X / 2)`.
pub fn rx(theta: f64) -> Mat2 {
    let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
    Mat2::from_rows(&[
        Complex::from_real(c),
        Complex::new(0.0, -s),
        Complex::new(0.0, -s),
        Complex::from_real(c),
    ])
}

/// Rotation about Y: `RY(θ) = exp(-i θ Y / 2)`.
pub fn ry(theta: f64) -> Mat2 {
    let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
    Mat2::from_real(&[c, -s, s, c])
}

/// Rotation about Z: `RZ(θ) = exp(-i θ Z / 2)`.
pub fn rz(theta: f64) -> Mat2 {
    Mat2::diagonal(&[Complex::cis(-theta / 2.0), Complex::cis(theta / 2.0)])
}

/// Single-qubit phase gate `P(φ) = diag(1, e^{iφ})`.
pub fn phase(phi: f64) -> Mat2 {
    Mat2::diagonal(&[Complex::ONE, Complex::cis(phi)])
}

/// Controlled-Z gate (Table I).
pub fn cz() -> Mat4 {
    Mat4::diagonal(&[Complex::ONE, Complex::ONE, Complex::ONE, -Complex::ONE])
}

/// Controlled-NOT with the first qubit as control.
pub fn cnot() -> Mat4 {
    Mat4::from_real(&[
        1.0, 0.0, 0.0, 0.0, //
        0.0, 1.0, 0.0, 0.0, //
        0.0, 0.0, 0.0, 1.0, //
        0.0, 0.0, 1.0, 0.0,
    ])
}

/// SWAP gate.
pub fn swap() -> Mat4 {
    Mat4::from_real(&[
        1.0, 0.0, 0.0, 0.0, //
        0.0, 0.0, 1.0, 0.0, //
        0.0, 1.0, 0.0, 0.0, //
        0.0, 0.0, 0.0, 1.0,
    ])
}

/// iSWAP gate in the textbook convention (`+i` off-diagonal swap amplitudes).
///
/// The paper's `iSWAP` gate type is `fSim(π/2, 0)`, which has `-i` amplitudes;
/// the two differ only by single-qubit Z rotations and are interchangeable for
/// expressivity purposes. See [`crate::fsim::fsim`].
pub fn iswap() -> Mat4 {
    Mat4::from_rows(&[
        Complex::ONE,
        Complex::ZERO,
        Complex::ZERO,
        Complex::ZERO,
        //
        Complex::ZERO,
        Complex::ZERO,
        Complex::I,
        Complex::ZERO,
        //
        Complex::ZERO,
        Complex::I,
        Complex::ZERO,
        Complex::ZERO,
        //
        Complex::ZERO,
        Complex::ZERO,
        Complex::ZERO,
        Complex::ONE,
    ])
}

/// Controlled-phase gate `CZ(φ) = diag(1, 1, 1, e^{iφ})`.
///
/// QFT circuits are built from `CZ(π/2^t)` gates.
pub fn cphase(phi: f64) -> Mat4 {
    Mat4::diagonal(&[Complex::ONE, Complex::ONE, Complex::ONE, Complex::cis(phi)])
}

/// Two-qubit ZZ-interaction `exp(-i β Z⊗Z)` used by QAOA circuits (Fig. 2b).
pub fn zz_interaction(beta: f64) -> Mat4 {
    Mat4::diagonal(&[
        Complex::cis(-beta),
        Complex::cis(beta),
        Complex::cis(beta),
        Complex::cis(-beta),
    ])
}

/// Two-qubit XX+YY interaction `exp(-i t (X⊗X + Y⊗Y) / 2)` used by the
/// Fermi–Hubbard hopping terms.
pub fn xx_plus_yy_interaction(t: f64) -> Mat4 {
    // In the {|01>, |10>} subspace this acts as a rotation; it is exactly the
    // XY(θ) family with θ = -2 t (up to convention).
    let (c, s) = (t.cos(), t.sin());
    Mat4::from_rows(&[
        Complex::ONE,
        Complex::ZERO,
        Complex::ZERO,
        Complex::ZERO,
        //
        Complex::ZERO,
        Complex::from_real(c),
        Complex::new(0.0, -s),
        Complex::ZERO,
        //
        Complex::ZERO,
        Complex::new(0.0, -s),
        Complex::from_real(c),
        Complex::ZERO,
        //
        Complex::ZERO,
        Complex::ZERO,
        Complex::ZERO,
        Complex::ONE,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmath::CMatrix;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn all_fixed_gates_are_unitary() {
        for (name, g) in [
            ("x", x()),
            ("y", y()),
            ("z", z()),
            ("h", h()),
            ("s", s()),
            ("t", t()),
        ] {
            assert!(g.is_unitary(1e-12), "{name} is not unitary");
        }
        for (name, g) in [
            ("cz", cz()),
            ("cnot", cnot()),
            ("swap", swap()),
            ("iswap", iswap()),
        ] {
            assert!(g.is_unitary(1e-12), "{name} is not unitary");
        }
    }

    #[test]
    fn rotations_are_unitary_for_many_angles() {
        for k in 0..16 {
            let theta = k as f64 * PI / 8.0;
            assert!(rx(theta).is_unitary(1e-12));
            assert!(ry(theta).is_unitary(1e-12));
            assert!(rz(theta).is_unitary(1e-12));
            assert!(u3(theta, 0.3 * theta, 1.7 * theta).is_unitary(1e-12));
            assert!(cphase(theta).is_unitary(1e-12));
            assert!(zz_interaction(theta).is_unitary(1e-12));
            assert!(xx_plus_yy_interaction(theta).is_unitary(1e-12));
        }
    }

    #[test]
    fn hadamard_diagonalizes_x() {
        // H X H = Z
        let hxh = h() * x() * h();
        assert!(hxh.approx_eq(&z(), 1e-12));
    }

    #[test]
    fn s_squared_is_z_and_t_squared_is_s() {
        assert!((s() * s()).approx_eq(&z(), 1e-12));
        assert!((t() * t()).approx_eq(&s(), 1e-12));
    }

    #[test]
    fn cnot_from_cz_and_hadamards() {
        // CNOT = (I ⊗ H) CZ (I ⊗ H)
        let ih = Mat2::identity().kron(&h());
        let built = ih * cz() * ih;
        assert!(built.approx_eq(&cnot(), 1e-12));
    }

    #[test]
    fn swap_from_three_cnots() {
        let cnot01 = cnot();
        // CNOT with target as first qubit = (H⊗H) CNOT (H⊗H)
        let hh = h().kron(&h());
        let cnot10 = hh * cnot01 * hh;
        let built = cnot01 * cnot10 * cnot01;
        assert!(built.approx_eq(&swap(), 1e-12));
    }

    #[test]
    fn u3_special_cases() {
        // U3(0, 0, 0) = I
        assert!(u3(0.0, 0.0, 0.0).approx_eq(&Mat2::identity(), 1e-12));
        // U3(pi, 0, pi) = X
        assert!(u3(PI, 0.0, PI).approx_eq(&x(), 1e-12));
        // U3(pi/2, 0, pi) = H
        assert!(u3(FRAC_PI_2, 0.0, PI).approx_eq(&h(), 1e-12));
        // U3(0, 0, lambda) = P(lambda) up to convention
        assert!(u3(0.0, 0.0, 0.77).approx_eq(&phase(0.77), 1e-12));
    }

    #[test]
    fn rz_is_phase_up_to_global_phase() {
        let theta = 0.9;
        assert!(rz(theta).approx_eq_up_to_phase(&phase(theta), 1e-12));
    }

    #[test]
    fn rotations_compose_additively() {
        let a = 0.4;
        let b = 1.1;
        assert!((rx(a) * rx(b)).approx_eq(&rx(a + b), 1e-12));
        assert!((ry(a) * ry(b)).approx_eq(&ry(a + b), 1e-12));
        assert!((rz(a) * rz(b)).approx_eq(&rz(a + b), 1e-12));
    }

    #[test]
    fn cphase_pi_is_cz() {
        assert!(cphase(PI).approx_eq(&cz(), 1e-12));
    }

    #[test]
    fn zz_interaction_matches_paper_example() {
        // Fig. 2b: e^{-0.0303 i ZZ} has diagonal (e^{-0.0303 i}, e^{+...}, e^{+...}, e^{-...})
        // with |entries| all 1 and real part ~0.9995.
        let u = zz_interaction(0.0303);
        assert!((u[(1, 1)].re - 0.9995).abs() < 1e-3);
        assert!((u[(0, 0)] - u[(3, 3)]).norm() < 1e-12);
        assert!((u[(1, 1)] - u[(2, 2)]).norm() < 1e-12);
        assert!(u.is_unitary(1e-12));
    }

    #[test]
    fn xx_plus_yy_preserves_excitation_number() {
        // |00> and |11> amplitudes untouched.
        let u = xx_plus_yy_interaction(0.8);
        assert!((u[(0, 0)] - Complex::ONE).norm() < 1e-12);
        assert!((u[(3, 3)] - Complex::ONE).norm() < 1e-12);
        assert!(u[(0, 3)].norm() < 1e-12);
        assert!(u[(3, 0)].norm() < 1e-12);
    }

    #[test]
    fn iswap_is_swap_times_phases() {
        // iSWAP differs from SWAP only by i phases on the swapped amplitudes.
        let is = iswap();
        assert!((is[(1, 2)] - Complex::I).norm() < 1e-12);
        assert!((is[(2, 1)] - Complex::I).norm() < 1e-12);
    }

    #[test]
    fn gates_convert_losslessly_to_cmatrix() {
        let heap: CMatrix = swap().into();
        assert!(heap.is_unitary(1e-12));
        assert!(heap.approx_eq(&swap(), 0.0));
    }
}
