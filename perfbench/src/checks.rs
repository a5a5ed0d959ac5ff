//! Output checks. They run outside every timed window, and any failure makes
//! the run's `correct` false and its exit code non-zero.

use circuit::Circuit;
use qmath::RngSeed;
use sim::{Counts, DensityMatrix, ExecutionEngine, NoiseModel, SimJob};

use crate::report::Json;

/// The outcome of one named check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Measured values behind the verdict.
    pub detail: String,
}

/// The checks of one run.
#[derive(Debug, Clone, Default)]
pub struct Checks(pub Vec<Check>);

impl Checks {
    /// Records a check.
    pub fn push(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.0.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    /// True when every check held (and at least one ran).
    pub fn all_ok(&self) -> bool {
        !self.0.is_empty() && self.0.iter().all(|c| c.ok)
    }

    /// The checks as a JSON array for the report line.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.0
                .iter()
                .map(|c| {
                    Json::obj(vec![
                        ("check", Json::str(&c.name)),
                        ("ok", Json::Bool(c.ok)),
                        ("detail", Json::str(&c.detail)),
                    ])
                })
                .collect(),
        )
    }
}

/// Confidence parameter of the concentration bound.
pub const DELTA: f64 = 1e-3;

/// Shots of the density-matrix agreement check.
pub const DM_SHOTS: usize = 2000;

/// Largest register the density-matrix check evolves exactly.
pub const DM_MAX_QUBITS: usize = 6;

/// One-sample concentration bound on the total-variation distance between
/// `n` samples and the distribution they were drawn from, over `dim`
/// outcomes: with probability at least `1 - delta`,
/// `TVD <= (sqrt(dim / n) + sqrt(2 ln(2 / delta) / n)) / 2`.
/// This is `verify::tvd_bound` with the second sample taken as exact.
pub fn one_sample_tvd_bound(dim: usize, n: usize, delta: f64) -> f64 {
    let n = n.max(1) as f64;
    0.5 * ((dim as f64 / n).sqrt() + (2.0 * (2.0 / delta).ln() / n).sqrt())
}

/// Exact outcome distribution of `circuit` under `noise`, including the
/// classical readout flips the density matrix leaves out. Basis index bit
/// `n - 1 - q` is qubit `q`, as in `sim::PrecompiledCircuit`.
pub fn exact_distribution(circuit: &Circuit, noise: &NoiseModel) -> Vec<f64> {
    let mut probs = DensityMatrix::evolve(circuit, noise).probabilities();
    let n = circuit.num_qubits();
    for q in 0..n {
        let flip = noise.readout_error(q);
        if flip > 0.0 {
            let bit = 1 << (n - 1 - q);
            let before = probs.clone();
            for (x, p) in probs.iter_mut().enumerate() {
                *p = (1.0 - flip) * before[x] + flip * before[x ^ bit];
            }
        }
    }
    probs
}

/// Total-variation distance between empirical `counts` and `exact`.
pub fn tvd_to_exact(counts: &Counts, exact: &[f64]) -> f64 {
    let total = counts.total().max(1) as f64;
    exact
        .iter()
        .enumerate()
        .map(|(x, p)| (counts.count(x) as f64 / total - p).abs())
        .sum::<f64>()
        / 2.0
}

/// Samples `circuit` under `noise` for [`DM_SHOTS`] shots on `engine` and
/// holds the histogram to [`one_sample_tvd_bound`] around the exact
/// density-matrix distribution.
pub fn density_matrix_agreement(
    checks: &mut Checks,
    label: &str,
    engine: &ExecutionEngine,
    circuit: &Circuit,
    noise: &NoiseModel,
    seed: RngSeed,
) {
    let n = circuit.num_qubits();
    if n > DM_MAX_QUBITS {
        checks.push(
            "density-matrix agreement",
            false,
            format!("{label}: {n} qubits exceed the {DM_MAX_QUBITS}-qubit exact check"),
        );
        return;
    }
    let counts = engine
        .run_job(&SimJob::noisy(
            circuit.clone(),
            noise.clone(),
            DM_SHOTS,
            seed,
        ))
        .counts;
    let exact = exact_distribution(circuit, noise);
    let tvd = tvd_to_exact(&counts, &exact);
    let bound = one_sample_tvd_bound(1 << n, DM_SHOTS, DELTA);
    checks.push(
        "density-matrix agreement",
        counts.total() == DM_SHOTS && tvd <= bound,
        format!("{label}: {n} qubits, {DM_SHOTS} shots, TVD {tvd:.4} <= bound {bound:.4} (delta {DELTA})"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::Operation;
    use device::DeviceModel;

    #[test]
    fn bound_shrinks_with_samples_and_grows_with_dimension() {
        assert!(one_sample_tvd_bound(8, 4000, DELTA) < one_sample_tvd_bound(8, 1000, DELTA));
        assert!(one_sample_tvd_bound(64, 1000, DELTA) > one_sample_tvd_bound(8, 1000, DELTA));
    }

    #[test]
    fn noisy_ghz_agrees_with_the_density_matrix_including_readout() {
        let noise = NoiseModel::from_device(&DeviceModel::ideal(3, 0.95));
        let mut ghz = Circuit::new(3);
        ghz.push(Operation::h(0));
        ghz.push(Operation::cnot(0, 1));
        ghz.push(Operation::cnot(1, 2));
        ghz.measure_all();
        let exact = exact_distribution(&ghz, &noise);
        assert!((exact.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let mut checks = Checks::default();
        let engine = ExecutionEngine::builder().threads(1).build().unwrap();
        density_matrix_agreement(&mut checks, "ghz", &engine, &ghz, &noise, RngSeed(3));
        assert!(checks.all_ok(), "{:?}", checks.0);

        // A wrong reference distribution fails the same check.
        let mut counts = Counts::new(3);
        for _ in 0..DM_SHOTS {
            counts.record(5);
        }
        assert!(tvd_to_exact(&counts, &exact) > one_sample_tvd_bound(8, DM_SHOTS, DELTA));
    }
}
