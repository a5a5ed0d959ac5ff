//! Compilation options and the compiled-circuit artifact.
//!
//! Compilation itself goes through the [`crate::Compiler`] service, which
//! reuses a shared decomposition cache across compiles and returns typed
//! errors instead of panicking.

use circuit::{Circuit, QubitId};
use device::DeviceModel;
use gates::InstructionSet;
use nuop_core::{DecomposeConfig, PassStats};
use serde::{Deserialize, Serialize};
use sim::Counts;
use verify::{Artifact, Stage, StageSnapshot, Verifier, VerifyReport};

use crate::routing::logical_outcome_for;

/// Options controlling compilation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompilerOptions {
    /// Decomposition configuration forwarded to the NuOp pass.
    pub decompose: DecomposeConfig,
    /// Number of threads for the decomposition stage (1 = serial).
    pub threads: usize,
}

impl Default for CompilerOptions {
    fn default() -> Self {
        CompilerOptions {
            decompose: DecomposeConfig::default(),
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

impl CompilerOptions {
    /// A cheaper configuration (fewer optimizer restarts) suitable for large
    /// experiment sweeps.
    pub fn sweep() -> Self {
        CompilerOptions {
            decompose: DecomposeConfig::sweep(),
            ..CompilerOptions::default()
        }
    }
}

/// A compiled circuit plus everything needed to execute it and interpret the
/// results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledCircuit {
    /// The hardware circuit over the selected region's qubits (relabelled
    /// `0..region.len()`).
    pub circuit: Circuit,
    /// Physical qubit ids (in the full device) of the selected region.
    pub region: Vec<QubitId>,
    /// The sub-device the circuit was compiled against (region-local indices).
    pub subdevice: DeviceModel,
    /// Initial layout: `initial_layout[logical] = region-local physical index`.
    pub initial_layout: Vec<QubitId>,
    /// Final layout after routing SWAPs.
    pub final_layout: Vec<QubitId>,
    /// Number of routing SWAPs inserted (before decomposition).
    pub swap_count: usize,
    /// Statistics from the NuOp decomposition pass.
    pub pass_stats: PassStats,
}

impl CompiledCircuit {
    /// Number of two-qubit hardware gates in the compiled circuit (the
    /// instruction-count annotation used throughout Figs. 9 and 10).
    pub fn two_qubit_gate_count(&self) -> usize {
        self.circuit.two_qubit_gate_count()
    }

    /// Converts a measured physical basis index into the logical basis index
    /// using the final layout.
    pub fn logical_outcome(&self, physical_outcome: usize) -> usize {
        logical_outcome_for(
            &self.final_layout,
            self.circuit.num_qubits(),
            physical_outcome,
        )
    }

    /// Statically verifies the compiled artifact against `set`: every
    /// two-qubit gate on a coupled pair of the subdevice, only
    /// instruction-set gates present, qubit indices in bounds and the
    /// logical↔physical layouts bijective. Returns the findings; an empty
    /// report means the artifact is legal.
    ///
    /// This is the standalone form of
    /// [`CompilerBuilder::verify`](crate::CompilerBuilder::verify) for
    /// artifacts compiled without in-pipeline verification (e.g. the audit
    /// binary sweeping previously compiled workloads).
    pub fn verify(&self, set: &InstructionSet) -> VerifyReport {
        let snapshot = StageSnapshot {
            stage: Stage::NuOpDecompose,
            circuit: &self.circuit,
            region: &self.region,
            subdevice: Some(&self.subdevice),
            initial_layout: &self.initial_layout,
            final_layout: &self.final_layout,
            swap_count: self.swap_count,
            // Swap consistency only runs at the SwapRoute stage, so the
            // program-level SWAP count is irrelevant for this snapshot.
            program_swap_count: 0,
            instruction_set: Some(set),
        };
        Verifier::structural().run(&Artifact::Stage(&snapshot))
    }

    /// Converts physical measurement counts into logical-qubit counts using
    /// the final layout.
    pub fn logical_counts(&self, physical: &Counts) -> Counts {
        let mut logical = Counts::new(self.initial_layout.len());
        for (outcome, count) in physical.iter() {
            let mapped = self.logical_outcome(outcome);
            for _ in 0..count {
                logical.record(mapped);
            }
        }
        logical
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Compiler;
    use apps::workloads::{qaoa_circuit, qft_echo_circuit, qv_circuit};
    use gates::InstructionSet;
    use qmath::RngSeed;
    use sim::{ExecutionEngine, FusionPolicy, NoiseModel, SeedPolicy, SimJob, StateVector};

    fn quick_options() -> CompilerOptions {
        CompilerOptions {
            decompose: DecomposeConfig {
                restarts: 2,
                max_layers: 4,
                ..DecomposeConfig::default()
            },
            threads: 2,
        }
    }

    fn compiled_with(
        circuit: &Circuit,
        device: &DeviceModel,
        set: InstructionSet,
    ) -> CompiledCircuit {
        Compiler::for_device(device.clone())
            .instruction_set(set)
            .options(quick_options())
            .build()
            .unwrap()
            .compile(circuit)
            .unwrap()
    }

    #[test]
    fn compile_small_qv_circuit_on_aspen8() {
        let device = DeviceModel::aspen8(RngSeed(1));
        let circ = qv_circuit(3, RngSeed(2));
        let compiled = compiled_with(&circ, &device, InstructionSet::s(3));
        assert_eq!(compiled.region.len(), 3);
        assert!(compiled.two_qubit_gate_count() >= circ.two_qubit_gate_count());
        assert!(compiled.circuit.has_measurements());
        // Every two-qubit gate in the output is the CZ type.
        for (label, _) in compiled.circuit.two_qubit_counts_by_label() {
            assert_eq!(label, "CZ");
        }
    }

    #[test]
    fn compiled_circuit_preserves_semantics_on_ideal_device() {
        let device = DeviceModel::ideal(3, 1.0);
        let circ = qaoa_circuit(3, RngSeed(3));
        let compiled = compiled_with(&circ, &device, InstructionSet::s(3));
        let ideal = StateVector::evolve(&circ.without_measurements()).probabilities();
        let compiled_probs =
            StateVector::evolve(&compiled.circuit.without_measurements()).probabilities();
        // Undo the layout permutation and compare distributions.
        let mut remapped = vec![0.0; ideal.len()];
        for (idx, p) in compiled_probs.iter().enumerate() {
            remapped[compiled.logical_outcome(idx)] += p;
        }
        for (a, b) in ideal.iter().zip(remapped.iter()) {
            assert!((a - b).abs() < 2e-3, "ideal {a} vs compiled {b}");
        }
    }

    #[test]
    fn native_swap_set_reduces_routing_cost() {
        // A QFT echo needs routing on a ring; R5 (native SWAP) should emit no
        // more two-qubit gates than R4 (no SWAP).
        let device = DeviceModel::aspen8(RngSeed(4));
        let (circ, _) = qft_echo_circuit(4, RngSeed(5));
        let with_swap = compiled_with(&circ, &device, InstructionSet::r(5));
        let without_swap = compiled_with(&circ, &device, InstructionSet::r(4));
        assert!(
            with_swap.two_qubit_gate_count() <= without_swap.two_qubit_gate_count(),
            "R5 {} vs R4 {}",
            with_swap.two_qubit_gate_count(),
            without_swap.two_qubit_gate_count()
        );
    }

    #[test]
    fn logical_counts_reorders_outcomes() {
        let device = DeviceModel::aspen8(RngSeed(6));
        let (circ, expected) = qft_echo_circuit(3, RngSeed(7));
        let compiled = compiled_with(&circ, &device, InstructionSet::r(2));
        // Noiseless execution must return the expected outcome deterministically.
        let noiseless = NoiseModel::noiseless(&compiled.subdevice);
        let counts = ExecutionEngine::builder()
            .seed_policy(SeedPolicy::PerShot)
            .fusion(FusionPolicy::Off)
            .build()
            .unwrap()
            .run_job(&SimJob::noisy(
                compiled.circuit.clone(),
                noiseless,
                64,
                RngSeed(8),
            ))
            .counts;
        let logical = compiled.logical_counts(&counts);
        // The compiler targets the (noisy) Aspen-8 calibration, so the
        // approximate decompositions are intentionally inexact; the expected
        // outcome must still dominate by a wide margin when executed without
        // noise.
        let p_expected = logical.probability(expected);
        assert!(
            p_expected > 0.6,
            "expected outcome probability = {p_expected}"
        );
        let best = logical.iter().max_by_key(|&(_, c)| c).map(|(idx, _)| idx);
        assert_eq!(best, Some(expected));
    }

    #[test]
    fn multi_type_sets_do_not_reduce_estimated_fidelity() {
        // Per operation, the noise-adaptive choice over G3's types includes SYC
        // itself, so the multi-type compile can never be worse than S1 in
        // estimated overall fidelity (gate *counts* may differ because the
        // approximate mode trades accuracy for fewer gates differently per type).
        let device = DeviceModel::sycamore(RngSeed(9));
        let circ = qv_circuit(3, RngSeed(10));
        let single = compiled_with(&circ, &device, InstructionSet::s(1));
        let multi = compiled_with(&circ, &device, InstructionSet::g(3));
        assert!(
            multi.pass_stats.estimated_circuit_fidelity
                >= single.pass_stats.estimated_circuit_fidelity - 1e-6,
            "multi {} vs single {}",
            multi.pass_stats.estimated_circuit_fidelity,
            single.pass_stats.estimated_circuit_fidelity
        );
    }

    #[test]
    fn pass_stats_are_populated() {
        let device = DeviceModel::sycamore(RngSeed(11));
        let circ = qaoa_circuit(3, RngSeed(12));
        let compiled = compiled_with(&circ, &device, InstructionSet::g(1));
        assert_eq!(
            compiled.pass_stats.input_two_qubit_gates,
            circ.two_qubit_gate_count() + compiled.swap_count
        );
        assert!(compiled.pass_stats.mean_overall_fidelity > 0.5);
        assert!(!compiled.pass_stats.gate_type_histogram.is_empty());
    }
}
