//! Application circuit generators and two-qubit unitary pools.

use circuit::{Circuit, Operation, QubitId};
use gates::standard;
use qmath::{haar_random_su4, Mat4, RngSeed};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The four benchmark applications of the paper (plus the routing SWAP pseudo
/// workload used in Fig. 8e).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Workload {
    /// Quantum Volume random circuits.
    QuantumVolume,
    /// QAOA MaxCut ansatz.
    Qaoa,
    /// 1-D Fermi–Hubbard Trotter circuits.
    FermiHubbard,
    /// Quantum Fourier Transform.
    Qft,
    /// The SWAP unitary (qubit routing primitive).
    Swap,
}

impl Workload {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::QuantumVolume => "QV",
            Workload::Qaoa => "QAOA",
            Workload::FermiHubbard => "FH",
            Workload::Qft => "QFT",
            Workload::Swap => "SWAP",
        }
    }

    /// All workloads in the order used by Fig. 8.
    pub fn all() -> [Workload; 5] {
        [
            Workload::QuantumVolume,
            Workload::Qaoa,
            Workload::Qft,
            Workload::FermiHubbard,
            Workload::Swap,
        ]
    }
}

/// An `n`-qubit Quantum Volume model circuit (Cross et al.): `n` layers, each
/// applying Haar-random SU(4) gates to a random pairing of the qubits.
///
/// The circuit ends with a measurement of all qubits.
pub fn qv_circuit(n: usize, seed: RngSeed) -> Circuit {
    assert!(n >= 2, "QV circuits need at least two qubits");
    let mut rng = seed.rng();
    let mut c = Circuit::new(n);
    for _layer in 0..n {
        let mut order: Vec<QubitId> = (0..n).collect();
        order.shuffle(&mut rng);
        for pair in order.chunks(2) {
            if pair.len() == 2 {
                c.push(Operation::unitary2q(
                    "SU4",
                    haar_random_su4(&mut rng),
                    pair[0],
                    pair[1],
                ));
            }
        }
    }
    c.measure_all();
    c
}

/// A single-layer QAOA MaxCut ansatz over a random graph with
/// `⌈3n/4⌉` edges: `H` on every qubit, `ZZ(γ)` on every edge, `RX(2β)` mixers.
pub fn qaoa_circuit(n: usize, seed: RngSeed) -> Circuit {
    assert!(n >= 2, "QAOA circuits need at least two qubits");
    let mut rng = seed.rng();
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.push(Operation::h(q));
    }
    let gamma: f64 = rng.gen_range(0.1..std::f64::consts::PI);
    let beta: f64 = rng.gen_range(0.1..std::f64::consts::PI);
    let edges = random_graph_edges(n, (3 * n).div_ceil(4), &mut rng);
    for (a, b) in edges {
        c.push(Operation::zz(a, b, gamma));
    }
    for q in 0..n {
        c.push(Operation::rx(q, 2.0 * beta));
    }
    c.measure_all();
    c
}

/// Chooses `count` distinct edges of the complete graph on `n` vertices.
fn random_graph_edges<R: Rng + ?Sized>(
    n: usize,
    count: usize,
    rng: &mut R,
) -> Vec<(QubitId, QubitId)> {
    let mut all: Vec<(QubitId, QubitId)> = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            all.push((a, b));
        }
    }
    all.shuffle(rng);
    all.truncate(count.min(all.len()));
    all
}

/// One Trotter step of the 1-D Fermi–Hubbard model on an `n`-qubit chain
/// (spinless Jordan–Wigner form): alternating layers of nearest-neighbour
/// `½(XX+YY)` hopping terms (even bonds, odd bonds, repeated) and `ZZ`
/// interaction terms, sized to match the paper's operation counts
/// (≈4n hopping terms and ≈2n ZZ terms per circuit).
pub fn fermi_hubbard_circuit(n: usize, seed: RngSeed) -> Circuit {
    assert!(n >= 2, "FH circuits need at least two qubits");
    let mut rng = seed.rng();
    let mut c = Circuit::new(n);
    // Initial product state: half filling (alternating X gates).
    for q in (0..n).step_by(2) {
        c.push(Operation::x(q));
    }
    let hop_angle: f64 = rng.gen_range(0.1..0.8);
    let zz_angle: f64 = rng.gen_range(0.05..0.5);
    // Two repetitions of (even hop, odd hop, even hop, odd hop, ZZ layer)
    // gives ~4(n-1) hopping and ~2(n-1) interaction terms.
    for _rep in 0..2 {
        for _hop_layer in 0..2 {
            for start in [0usize, 1usize] {
                let mut q = start;
                while q + 1 < n {
                    c.push(Operation::xx_plus_yy(q, q + 1, hop_angle));
                    q += 2;
                }
            }
        }
        let mut q = 0usize;
        while q + 1 < n {
            c.push(Operation::zz(q, q + 1, zz_angle));
            q += 1;
        }
    }
    c.measure_all();
    c
}

/// The standard `n`-qubit QFT circuit: `n` Hadamards and `n(n−1)/2`
/// controlled-phase gates `CZ(π/2^t)`.
pub fn qft_circuit(n: usize) -> Circuit {
    assert!(n >= 1, "QFT needs at least one qubit");
    let mut c = Circuit::new(n);
    for i in 0..n {
        c.push(Operation::h(i));
        for j in (i + 1)..n {
            let angle = std::f64::consts::PI / f64::from(1u32 << (j - i) as u32);
            c.push(Operation::cphase(j, i, angle));
        }
    }
    c
}

/// The QFT *echo* benchmark: prepare a random basis state `|x⟩`, apply QFT,
/// apply the inverse QFT, and measure. A perfect execution returns `x` with
/// probability 1, so the success rate is directly measurable on hardware.
///
/// Returns the circuit and the expected outcome index `x`.
pub fn qft_echo_circuit(n: usize, seed: RngSeed) -> (Circuit, usize) {
    let mut rng = seed.rng();
    let x: usize = rng.gen_range(0..(1usize << n));
    let mut c = Circuit::new(n);
    for q in 0..n {
        if x & (1 << (n - 1 - q)) != 0 {
            c.push(Operation::x(q));
        }
    }
    let qft = qft_circuit(n);
    c.append_circuit(&qft);
    c.append_circuit(&qft.inverse());
    c.measure_all();
    (c, x)
}

// ----- Two-qubit unitary pools for the Fig. 8 expressivity heatmaps -----

/// Haar-random SU(4) matrices: the two-qubit unitaries of QV circuits.
pub fn qv_unitaries(count: usize, seed: RngSeed) -> Vec<Mat4> {
    let mut rng = seed.rng();
    (0..count).map(|_| haar_random_su4(&mut rng)).collect()
}

/// Random-angle `exp(-iβ Z⊗Z)` matrices: the two-qubit unitaries of QAOA circuits.
pub fn qaoa_unitaries(count: usize, seed: RngSeed) -> Vec<Mat4> {
    let mut rng = seed.rng();
    (0..count)
        .map(|_| standard::zz_interaction(rng.gen_range(0.05..std::f64::consts::FRAC_PI_2)))
        .collect()
}

/// The distinct controlled-phase unitaries `CZ(π/2^t)` of an `n`-qubit QFT.
pub fn qft_unitaries(n: usize) -> Vec<Mat4> {
    (1..n)
        .map(|t| standard::cphase(std::f64::consts::PI / f64::from(1u32 << t as u32)))
        .collect()
}

/// Hopping (`½(XX+YY)`) and interaction (`ZZ`) unitaries of Fermi–Hubbard
/// circuits, with angles sampled over the physically relevant range.
pub fn fh_unitaries(count: usize, seed: RngSeed) -> Vec<Mat4> {
    let mut rng = seed.rng();
    (0..count)
        .map(|i| {
            if i % 3 == 2 {
                standard::zz_interaction(rng.gen_range(0.05..0.5))
            } else {
                standard::xx_plus_yy_interaction(rng.gen_range(0.1..0.8))
            }
        })
        .collect()
}

/// The SWAP unitary (routing primitive, Fig. 8e).
pub fn swap_unitary() -> Mat4 {
    standard::swap()
}

/// A pool of two-qubit unitaries for a workload, used by the Fig. 8 sweep.
pub fn unitary_pool(workload: Workload, count: usize, seed: RngSeed) -> Vec<Mat4> {
    match workload {
        Workload::QuantumVolume => qv_unitaries(count, seed),
        Workload::Qaoa => qaoa_unitaries(count, seed),
        Workload::Qft => {
            let pool = qft_unitaries(count.max(2) + 1);
            pool.into_iter().take(count).collect()
        }
        Workload::FermiHubbard => fh_unitaries(count, seed),
        Workload::Swap => vec![swap_unitary()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::OpKind;
    use sim::StateVector;

    #[test]
    fn qv_circuit_structure() {
        let c = qv_circuit(4, RngSeed(1));
        // 4 layers x 2 pairs = 8 SU4 gates.
        assert_eq!(c.two_qubit_gate_count(), 8);
        assert!(c.has_measurements());
        // All two-qubit gates are SU4-labelled and unitary.
        for op in c.iter().filter(|o| o.is_two_qubit_unitary()) {
            assert_eq!(op.label(), "SU4");
            let OpKind::Unitary2Q { matrix, .. } = op.kind() else {
                panic!("{op} is a two-qubit unitary");
            };
            assert!(matrix.is_unitary(1e-9));
        }
    }

    #[test]
    fn qv_odd_qubit_count_leaves_one_idle_per_layer() {
        let c = qv_circuit(5, RngSeed(2));
        assert_eq!(c.two_qubit_gate_count(), 5 * 2);
    }

    #[test]
    fn qv_circuits_differ_across_seeds_but_not_within() {
        assert_eq!(qv_circuit(3, RngSeed(7)), qv_circuit(3, RngSeed(7)));
        assert_ne!(qv_circuit(3, RngSeed(7)), qv_circuit(3, RngSeed(8)));
    }

    #[test]
    fn qaoa_circuit_structure() {
        let n = 4;
        let c = qaoa_circuit(n, RngSeed(3));
        assert_eq!(c.two_qubit_gate_count(), 3); // ceil(3*4/4) = 3 edges
                                                 // H wall + RX mixers.
        assert!(c.one_qubit_gate_count() >= 2 * n);
        assert!(c.has_measurements());
    }

    #[test]
    fn fermi_hubbard_counts_scale_with_n() {
        for n in [4usize, 6, 10] {
            let c = fermi_hubbard_circuit(n, RngSeed(4));
            let counts = c.two_qubit_counts_by_label();
            let zz: usize = counts
                .iter()
                .filter(|(k, _)| k.starts_with("ZZ"))
                .map(|(_, v)| *v)
                .sum();
            let hop: usize = counts
                .iter()
                .filter(|(k, _)| k.starts_with("XXPlusYY"))
                .map(|(_, v)| *v)
                .sum();
            assert_eq!(zz, 2 * (n - 1), "n={n}");
            assert!(
                hop >= 4 * (n - 1) - 4 && hop <= 4 * (n - 1),
                "n={n}, hop={hop}"
            );
        }
    }

    #[test]
    fn qft_circuit_gate_counts() {
        for n in [3usize, 4, 6] {
            let c = qft_circuit(n);
            assert_eq!(c.two_qubit_gate_count(), n * (n - 1) / 2);
            assert_eq!(c.one_qubit_gate_count(), n);
        }
    }

    #[test]
    fn qft_on_zero_state_gives_uniform_distribution() {
        let c = qft_circuit(3);
        let probs = StateVector::evolve(&c).probabilities();
        for p in probs {
            assert!((p - 1.0 / 8.0).abs() < 1e-10);
        }
    }

    #[test]
    fn qft_echo_returns_input_state() {
        for seed in 0..5u64 {
            let (c, x) = qft_echo_circuit(3, RngSeed(seed));
            let probs = StateVector::evolve(&c).probabilities();
            assert!(
                (probs[x] - 1.0).abs() < 1e-9,
                "seed {seed}: prob = {}",
                probs[x]
            );
        }
    }

    #[test]
    fn unitary_pools_contain_unitaries() {
        for w in Workload::all() {
            let pool = unitary_pool(w, 5, RngSeed(11));
            assert!(!pool.is_empty(), "{}", w.name());
            for u in &pool {
                assert_eq!(u.dim(), 4);
                assert!(u.is_unitary(1e-9), "{}", w.name());
            }
        }
    }

    #[test]
    fn qaoa_unitaries_are_diagonal() {
        for u in qaoa_unitaries(5, RngSeed(13)) {
            for r in 0..4 {
                for c in 0..4 {
                    if r != c {
                        assert!(u[(r, c)].norm() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn workload_names() {
        assert_eq!(Workload::QuantumVolume.name(), "QV");
        assert_eq!(Workload::all().len(), 5);
    }

    #[test]
    fn random_graph_edges_are_distinct() {
        let mut rng = RngSeed(17).rng();
        let edges = random_graph_edges(6, 10, &mut rng);
        assert_eq!(edges.len(), 10);
        for (i, e) in edges.iter().enumerate() {
            for other in &edges[i + 1..] {
                assert_ne!(e, other);
            }
        }
    }
}
