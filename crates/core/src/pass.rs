//! The circuit-level NuOp pass (paper §V, last paragraph).
//!
//! [`NuOpPass`] walks a routed circuit and replaces every two-qubit application
//! unitary with its best decomposition under the target instruction set:
//!
//! * discrete sets use noise-adaptive selection across their gate types,
//! * continuous sets (`FullXY` / `FullfSim`) optimize the family angles per
//!   layer.
//!
//! Decompositions of distinct operations are independent, so the pass can run
//! them in parallel across worker threads, mirroring the paper's parallel
//! implementation ("with 32 threads, decomposing a circuit with 1000 2-qubit
//! gates ... requires around 220 seconds").

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use circuit::{Circuit, OpKind, QubitId};
use gates::{GateSetKind, InstructionSet};
use qmath::Mat4;
use serde::{Deserialize, Serialize};

use crate::cache::{CacheKey, DecompositionCache};
use crate::decompose::{decompose_continuous, DecomposeConfig, Decomposition};
use crate::noise_adaptive::{decompose_with_gate_choice, HardwareGate};

/// Supplies calibrated hardware fidelities to the pass.
///
/// Implementations are typically backed by a device model's calibration table
/// (see the `device` crate). Gate types are identified by name so that
/// continuous families (which have no fixed `GateType`) can also be priced.
pub trait HardwareFidelityProvider: Sync {
    /// Calibrated fidelity of gate type `gate_name` on the physical pair
    /// `(q0, q1)`.
    fn two_qubit_fidelity(&self, q0: QubitId, q1: QubitId, gate_name: &str) -> f64;

    /// Calibrated single-qubit gate fidelity on qubit `q` (defaults to 1.0,
    /// matching the paper's focus on two-qubit errors).
    fn one_qubit_fidelity(&self, _q: QubitId) -> f64 {
        1.0
    }
}

/// A provider that reports the same fidelity for every pair and gate type.
/// Useful for tests and for the "no noise variation" ablation (Fig. 10e).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UniformFidelity(pub f64);

impl HardwareFidelityProvider for UniformFidelity {
    fn two_qubit_fidelity(&self, _q0: QubitId, _q1: QubitId, _gate_name: &str) -> f64 {
        self.0
    }
}

/// Statistics gathered while running the pass over a circuit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct PassStats {
    /// Two-qubit application operations in the input circuit.
    pub input_two_qubit_gates: usize,
    /// Two-qubit hardware gates in the output circuit.
    pub output_two_qubit_gates: usize,
    /// Mean decomposition fidelity `F_d` across operations.
    pub mean_decomposition_fidelity: f64,
    /// Mean overall fidelity `F_u = F_d · F_h` across operations.
    pub mean_overall_fidelity: f64,
    /// Estimated whole-circuit fidelity: the product of per-operation `F_u`.
    pub estimated_circuit_fidelity: f64,
    /// How many operations chose each hardware gate type.
    pub gate_type_histogram: BTreeMap<String, usize>,
    /// Operations served from the decomposition cache.
    pub cache_hits: usize,
    /// Operations that required a fresh numerical optimization.
    pub cache_misses: usize,
}

/// One two-qubit operation to decompose: its index in the circuit, its
/// target unitary and its physical pair.
type Work<'a> = (usize, &'a Mat4, QubitId, QubitId);

/// The NuOp circuit pass.
pub struct NuOpPass {
    instruction_set: InstructionSet,
    config: DecomposeConfig,
    /// Worker threads; `None` means one per CPU, read when [`NuOpPass::run`]
    /// needs it.
    threads: Option<usize>,
    /// Set by [`NuOpPass::with_cache`], or to a private cache the first time
    /// [`NuOpPass::cache`] is read without one.
    cache: OnceLock<Arc<DecompositionCache>>,
}

impl NuOpPass {
    /// Creates a pass targeting `instruction_set` with the given decomposition
    /// configuration. Use [`NuOpPass::with_cache`] to share a cache across
    /// passes (and therefore across compiles); without one, the pass builds a
    /// private cache the first time it needs one.
    ///
    /// The pass uses one worker thread per CPU unless
    /// [`NuOpPass::with_threads`] sets a count. Construction does not query
    /// the host: [`NuOpPass::run`] reads the CPU count, and only when it has
    /// more than one operation to decompose and no count was set.
    pub fn new(instruction_set: InstructionSet, config: DecomposeConfig) -> Self {
        NuOpPass {
            instruction_set,
            config,
            threads: None,
            cache: OnceLock::new(),
        }
    }

    /// Sets the number of worker threads (1 disables parallelism), in place
    /// of the default of one per CPU that [`NuOpPass::run`] would otherwise
    /// read from the host.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Uses a shared cache in place of a private one, so repeated
    /// decompositions of the same unitary across circuits (or across passes)
    /// are served without re-optimizing.
    pub fn with_cache(mut self, cache: Arc<DecompositionCache>) -> Self {
        self.cache = OnceLock::from(cache);
        self
    }

    /// The instruction set this pass targets.
    pub fn instruction_set(&self) -> &InstructionSet {
        &self.instruction_set
    }

    /// The decomposition cache this pass consults.
    pub fn cache(&self) -> &DecompositionCache {
        self.cache
            .get_or_init(|| Arc::new(DecompositionCache::new()))
    }

    /// Cache-aware decomposition; the flag reports whether the result was a
    /// cache hit. Concurrent workers missing on the same key coordinate so
    /// the numerical optimization runs once (see
    /// [`DecompositionCache::get_or_insert_with`]).
    fn decompose_cached(
        &self,
        target: &Mat4,
        q0: QubitId,
        q1: QubitId,
        provider: &dyn HardwareFidelityProvider,
    ) -> (Decomposition, String, bool) {
        let key = CacheKey::new(
            target,
            &self.instruction_set,
            q0,
            q1,
            provider,
            &self.config,
        );
        let ((d, g), hit) = self
            .cache()
            .get_or_insert_with(&key, || self.decompose_uncached(target, q0, q1, provider));
        (d, g, hit)
    }

    /// The actual numerical optimization behind a cache miss.
    fn decompose_uncached(
        &self,
        target: &Mat4,
        q0: QubitId,
        q1: QubitId,
        provider: &dyn HardwareFidelityProvider,
    ) -> (Decomposition, String) {
        match self.instruction_set.kind() {
            GateSetKind::Discrete(types) => {
                let candidates: Vec<HardwareGate> = types
                    .iter()
                    .map(|t| {
                        HardwareGate::new(
                            t.clone(),
                            provider
                                .two_qubit_fidelity(q0, q1, t.name())
                                .clamp(0.0, 1.0),
                        )
                    })
                    .collect();
                let choice = decompose_with_gate_choice(target, &candidates, &self.config);
                (choice.decomposition, choice.chosen_gate)
            }
            GateSetKind::Continuous(family) => {
                let mut d = decompose_continuous(target, *family, &self.config);
                // Price the continuous decomposition with the provider's
                // fidelity for the family name (device models fall back to
                // their mean two-qubit fidelity for unknown names).
                let f2q = provider
                    .two_qubit_fidelity(q0, q1, family.name())
                    .clamp(0.0, 1.0);
                d.hardware_fidelity = f2q.powi(d.layers as i32);
                d.overall_fidelity = d.decomposition_fidelity * d.hardware_fidelity;
                let label = family.name().to_string();
                (d, label)
            }
        }
    }

    /// Runs the pass over a circuit whose two-qubit operations act on
    /// *physical* qubits (i.e. after routing). Single-qubit operations,
    /// measurements and barriers are copied through unchanged.
    pub fn run(
        &self,
        circuit: &Circuit,
        provider: &dyn HardwareFidelityProvider,
    ) -> (Circuit, PassStats) {
        // Collect the two-qubit operations that need decomposition.
        let work: Vec<Work<'_>> = circuit
            .iter()
            .enumerate()
            .filter_map(|(idx, op)| match (op.kind(), op.qubits()) {
                (OpKind::Unitary2Q { matrix, .. }, &[q0, q1]) => Some((idx, matrix, q0, q1)),
                _ => None,
            })
            .collect();

        let threads = if work.len() <= 1 {
            1
        } else {
            self.threads
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        };
        let results = if threads <= 1 {
            work.iter()
                .map(|&(_, target, q0, q1)| self.decompose_cached(target, q0, q1, provider))
                .collect()
        } else {
            self.run_parallel(&work, threads, provider)
        };

        let mut out = Circuit::new(circuit.num_qubits());
        let mut stats = PassStats {
            estimated_circuit_fidelity: 1.0,
            ..PassStats::default()
        };
        let mut fd_sum = 0.0;
        let mut fu_sum = 0.0;
        // `results` lines up with `work`, which is in circuit order.
        let mut decomposed = work.iter().zip(results).peekable();
        for (idx, op) in circuit.iter().enumerate() {
            match decomposed.next_if(|((work_idx, ..), _)| *work_idx == idx) {
                Some((&(_, _, q0, q1), (d, gate_name, hit))) => {
                    stats.input_two_qubit_gates += 1;
                    if hit {
                        stats.cache_hits += 1;
                    } else {
                        stats.cache_misses += 1;
                    }
                    stats.output_two_qubit_gates += d.layers;
                    fd_sum += d.decomposition_fidelity;
                    fu_sum += d.overall_fidelity;
                    stats.estimated_circuit_fidelity *= d.overall_fidelity;
                    *stats.gate_type_histogram.entry(gate_name).or_insert(0) += d.layers;
                    for new_op in d.to_operations(q0, q1) {
                        out.push(new_op);
                    }
                }
                None => out.push(op.clone()),
            }
        }
        if stats.input_two_qubit_gates > 0 {
            stats.mean_decomposition_fidelity = fd_sum / stats.input_two_qubit_gates as f64;
            stats.mean_overall_fidelity = fu_sum / stats.input_two_qubit_gates as f64;
        } else {
            stats.mean_decomposition_fidelity = 1.0;
            stats.mean_overall_fidelity = 1.0;
        }
        (out, stats)
    }

    /// Decomposes `work` in contiguous chunks, one per thread, and returns
    /// the results in `work`'s order. A panicking worker's panic resumes here.
    fn run_parallel(
        &self,
        work: &[Work<'_>],
        threads: usize,
        provider: &dyn HardwareFidelityProvider,
    ) -> Vec<(Decomposition, String, bool)> {
        let chunk = work.len().div_ceil(threads).max(1);
        std::thread::scope(|scope| {
            let handles: Vec<_> = work
                .chunks(chunk)
                .map(|piece| {
                    scope.spawn(move || {
                        piece
                            .iter()
                            .map(|&(_, target, q0, q1)| {
                                self.decompose_cached(target, q0, q1, provider)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut results = Vec::with_capacity(work.len());
            for handle in handles {
                match handle.join() {
                    Ok(piece) => results.extend(piece),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            results
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::Operation;
    use gates::standard;
    use qmath::{haar_random_su4, RngSeed};

    fn quick_config() -> DecomposeConfig {
        DecomposeConfig {
            restarts: 3,
            max_layers: 4,
            ..DecomposeConfig::default()
        }
    }

    fn small_qv_circuit(seed: u64) -> Circuit {
        let mut rng = RngSeed(seed).rng();
        let mut c = Circuit::new(3);
        c.push(Operation::unitary2q("SU4", haar_random_su4(&mut rng), 0, 1));
        c.push(Operation::unitary2q("SU4", haar_random_su4(&mut rng), 1, 2));
        c
    }

    #[test]
    fn pass_replaces_two_qubit_ops_with_hardware_gates() {
        let pass = NuOpPass::new(InstructionSet::s(3), quick_config()).with_threads(1);
        // Seed 3: both sampled SU(4)s sit well inside the Weyl chamber, so the
        // noise-adaptive choice never trades a layer away (seed 1's second
        // sample lies near the 2-CZ locus and legitimately decomposes shorter).
        let circ = small_qv_circuit(3);
        let (out, stats) = pass.run(&circ, &UniformFidelity(0.999));
        assert_eq!(stats.input_two_qubit_gates, 2);
        // Each SU(4) costs 3 CZs with a high-fidelity device.
        assert_eq!(stats.output_two_qubit_gates, 6);
        assert_eq!(out.two_qubit_gate_count(), 6);
        // All emitted two-qubit gates are the CZ type.
        for (label, count) in out.two_qubit_counts_by_label() {
            assert_eq!(label, "CZ");
            assert_eq!(count, 6);
        }
        assert!(stats.mean_decomposition_fidelity > 0.9999);
        assert!(stats.estimated_circuit_fidelity > 0.98);
    }

    #[test]
    fn pass_preserves_circuit_semantics_up_to_phase() {
        let pass = NuOpPass::new(InstructionSet::s(3), quick_config()).with_threads(1);
        let circ = small_qv_circuit(2);
        let (out, _) = pass.run(&circ, &UniformFidelity(1.0));
        let original = circ.unitary();
        let compiled = out.unitary();
        let fidelity = qmath::hilbert_schmidt_fidelity(&original, &compiled);
        assert!(fidelity > 0.999, "fidelity = {fidelity}");
    }

    #[test]
    fn multi_type_set_reduces_gate_count_for_mixed_workload() {
        // A circuit containing a ZZ interaction (cheap with CZ) and an
        // XX+YY interaction (cheap with iSWAP-family gates): the multi-type set
        // should use no more gates than either single-type set.
        let mut circ = Circuit::new(2);
        circ.push(Operation::zz(0, 1, 0.5));
        circ.push(Operation::xx_plus_yy(0, 1, 0.7));

        let provider = UniformFidelity(0.995);
        let single_cz = NuOpPass::new(InstructionSet::s(3), quick_config()).with_threads(1);
        let single_iswap = NuOpPass::new(InstructionSet::s(4), quick_config()).with_threads(1);
        let multi = NuOpPass::new(InstructionSet::r(1), quick_config()).with_threads(1);

        let (_, s_cz) = single_cz.run(&circ, &provider);
        let (_, s_is) = single_iswap.run(&circ, &provider);
        let (_, s_multi) = multi.run(&circ, &provider);
        assert!(s_multi.output_two_qubit_gates <= s_cz.output_two_qubit_gates);
        assert!(s_multi.output_two_qubit_gates <= s_is.output_two_qubit_gates);
        assert!(s_multi.estimated_circuit_fidelity >= s_cz.estimated_circuit_fidelity - 1e-9);
    }

    #[test]
    fn measurements_and_1q_gates_pass_through() {
        let pass = NuOpPass::new(InstructionSet::s(3), quick_config()).with_threads(1);
        let mut circ = Circuit::new(2);
        circ.push(Operation::h(0));
        circ.push(Operation::cz(0, 1));
        circ.measure_all();
        let (out, stats) = pass.run(&circ, &UniformFidelity(0.999));
        assert!(out.has_measurements());
        assert!(out.one_qubit_gate_count() >= 1);
        assert_eq!(stats.input_two_qubit_gates, 1);
        assert_eq!(stats.output_two_qubit_gates, 1);
    }

    #[test]
    fn parallel_and_serial_agree() {
        let circ = small_qv_circuit(3);
        let serial = NuOpPass::new(InstructionSet::g(1), quick_config()).with_threads(1);
        let parallel = NuOpPass::new(InstructionSet::g(1), quick_config()).with_threads(4);
        let (out_s, stats_s) = serial.run(&circ, &UniformFidelity(0.994));
        let (out_p, stats_p) = parallel.run(&circ, &UniformFidelity(0.994));
        assert_eq!(
            stats_s.output_two_qubit_gates,
            stats_p.output_two_qubit_gates
        );
        assert_eq!(out_s.two_qubit_gate_count(), out_p.two_qubit_gate_count());
    }

    #[test]
    fn cache_hits_for_repeated_operations() {
        let pass = NuOpPass::new(InstructionSet::s(3), quick_config()).with_threads(1);
        let mut circ = Circuit::new(2);
        // The same ZZ interaction three times: only one real decomposition.
        for _ in 0..3 {
            circ.push(Operation::zz(0, 1, 0.25));
        }
        let (out, stats) = pass.run(&circ, &UniformFidelity(0.999));
        assert_eq!(stats.input_two_qubit_gates, 3);
        assert_eq!(out.two_qubit_gate_count(), stats.output_two_qubit_gates);
        assert_eq!(pass.cache().len(), 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 2);
    }

    #[test]
    fn shared_cache_is_reused_across_passes() {
        let cache = Arc::new(DecompositionCache::new());
        let circ = small_qv_circuit(3);
        let first = NuOpPass::new(InstructionSet::s(3), quick_config())
            .with_threads(1)
            .with_cache(Arc::clone(&cache));
        let (_, stats_first) = first.run(&circ, &UniformFidelity(0.999));
        assert_eq!(stats_first.cache_hits, 0);
        assert_eq!(stats_first.cache_misses, 2);

        // A *different* pass instance targeting the same set and fed the same
        // cache serves every operation without re-optimizing.
        let second = NuOpPass::new(InstructionSet::s(3), quick_config())
            .with_threads(1)
            .with_cache(Arc::clone(&cache));
        let (_, stats_second) = second.run(&circ, &UniformFidelity(0.999));
        assert_eq!(stats_second.cache_hits, 2);
        assert_eq!(stats_second.cache_misses, 0);
        assert_eq!(
            stats_first.output_two_qubit_gates,
            stats_second.output_two_qubit_gates
        );
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn continuous_set_uses_fewer_gates_than_single_type() {
        let mut rng = RngSeed(9).rng();
        let target = haar_random_su4(&mut rng);
        let mut circ = Circuit::new(2);
        circ.push(Operation::unitary2q("SU4", target, 0, 1));
        let provider = UniformFidelity(0.995);
        let cfg = quick_config();
        let continuous = NuOpPass::new(InstructionSet::full_fsim(), cfg.clone()).with_threads(1);
        let single = NuOpPass::new(InstructionSet::s(3), cfg).with_threads(1);
        let (_, c_stats) = continuous.run(&circ, &provider);
        let (_, s_stats) = single.run(&circ, &provider);
        assert!(c_stats.output_two_qubit_gates <= s_stats.output_two_qubit_gates);
        assert!(c_stats.output_two_qubit_gates >= 1);
    }

    #[test]
    fn stats_for_trivial_circuit() {
        let pass = NuOpPass::new(InstructionSet::s(1), quick_config());
        let mut circ = Circuit::new(2);
        circ.push(Operation::h(0));
        let (_, stats) = pass.run(&circ, &UniformFidelity(0.99));
        assert_eq!(stats.input_two_qubit_gates, 0);
        assert_eq!(stats.mean_overall_fidelity, 1.0);
        assert_eq!(stats.estimated_circuit_fidelity, 1.0);
    }

    #[test]
    fn zz_interaction_is_direct_with_matching_cphase_type() {
        // CZ can express a ZZ(β) only with 2 applications, but a single layer
        // suffices when the target is CZ itself; check the histogram is kept.
        let pass = NuOpPass::new(InstructionSet::s(3), quick_config()).with_threads(1);
        let mut circ = Circuit::new(2);
        circ.push(Operation::cz(0, 1));
        let (_, stats) = pass.run(&circ, &UniformFidelity(0.999));
        assert_eq!(stats.gate_type_histogram.get("CZ"), Some(&1));
        let unused = standard::swap();
        assert_eq!(unused.dim(), 4);
    }
}
