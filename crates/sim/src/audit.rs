//! Bridge from lowered circuits to the `verify` crate's semantic rules.
//!
//! The static verifier never executes a shot; it needs a read-only view of
//! what the simulator *would* run. This module converts a
//! [`PrecompiledCircuit`] into the verifier's neutral [`KernelOp`] stream and
//! runs the semantic rules over it: every (possibly fused) kernel unitary,
//! every prebuilt Kraus channel trace-preserving, and — when an unfused
//! baseline is supplied — the fused stream equivalent to it and consuming
//! randomness in exactly the baseline's order (the `FusionPolicy::Safe`
//! invariant, proven statically instead of by sampling).
//!
//! ```
//! use circuit::{Circuit, Operation};
//! use sim::{FusionPolicy, PrecompiledCircuit};
//!
//! let mut c = Circuit::new(2);
//! c.push(Operation::h(0));
//! c.push(Operation::cnot(0, 1));
//! let fused = PrecompiledCircuit::ideal_with_fusion(&c, FusionPolicy::Safe);
//! let baseline = PrecompiledCircuit::ideal(&c);
//! let report = fused.verify_artifact(Some(&baseline));
//! assert!(!report.has_errors());
//! ```

use verify::{
    Artifact, ChannelKraus, ChannelView, KernelArtifact, KernelKind, KernelOp, Verifier,
    VerifyReport,
};

use crate::channels::AttachedChannel;
use crate::precompiled::{PrecompiledCircuit, PrecompiledKind, PrecompiledOp};

/// Converts one attached channel into the verifier's view.
fn channel_view(channel: &AttachedChannel) -> ChannelView {
    match channel {
        AttachedChannel::One { channel, qubit } => ChannelView {
            qubits: vec![*qubit],
            kraus: ChannelKraus::One(channel.operators().to_vec()),
            consumes_rng: !channel.is_identity(),
        },
        AttachedChannel::Two { channel, q0, q1 } => ChannelView {
            qubits: vec![*q0, *q1],
            kraus: ChannelKraus::Two(channel.operators().to_vec()),
            consumes_rng: !channel.is_identity(),
        },
    }
}

/// Converts one lowered op into the verifier's view, tagged with its stream
/// index.
fn kernel_op(index: usize, op: &PrecompiledOp) -> KernelOp {
    let kind = match &op.kind {
        PrecompiledKind::Unitary1Q { matrix, qubit } => KernelKind::One {
            matrix: *matrix,
            qubit: *qubit,
        },
        PrecompiledKind::Unitary2Q { matrix, q0, q1 } => KernelKind::Two {
            matrix: *matrix,
            q0: *q0,
            q1: *q1,
        },
        PrecompiledKind::Silent => KernelKind::Silent,
    };
    KernelOp {
        index,
        kind,
        channels: op.channels.iter().map(channel_view).collect(),
    }
}

impl PrecompiledCircuit {
    /// The circuit's lowered ops as the verifier's neutral [`KernelOp`]
    /// stream, channels in the exact order a trajectory draws from them.
    pub fn kernel_ops(&self) -> Vec<KernelOp> {
        self.ops()
            .iter()
            .enumerate()
            .map(|(index, op)| kernel_op(index, op))
            .collect()
    }

    /// Statically verifies this lowered circuit with the semantic kernel
    /// rules: every kernel unitary and every Kraus channel trace-preserving.
    ///
    /// With `baseline` set to the unfused lowering of the same circuit, the
    /// fusion-preservation rules additionally prove that this (fused) stream
    /// acts identically on a probe state and — under `FusionPolicy::Safe` —
    /// consumes RNG draws in exactly the baseline's order. An
    /// `Aggressive`-fused stream instead gets the `channel/composition` rule
    /// (composed channels tightly trace-preserving, draw count never above
    /// the baseline's). An empty report means the artifact is legal.
    pub fn verify_artifact(&self, baseline: Option<&PrecompiledCircuit>) -> VerifyReport {
        let ops = self.kernel_ops();
        let baseline_ops = baseline.map(PrecompiledCircuit::kernel_ops);
        let artifact = KernelArtifact {
            num_qubits: self.num_qubits(),
            ops: &ops,
            baseline: baseline_ops.as_deref(),
            rng_order_exact: self.fusion() != crate::precompiled::FusionPolicy::Aggressive,
        };
        Verifier::semantic().run(&Artifact::Kernels(&artifact))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise_model::NoiseModel;
    use crate::precompiled::FusionPolicy;
    use circuit::{Circuit, Operation};
    use device::DeviceModel;
    use qmath::{Complex, RngSeed};

    fn layered_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.push(Operation::h(0));
        c.push(Operation::rx(1, 0.4));
        c.push(Operation::cnot(0, 1));
        c.push(Operation::rz(2, 0.9));
        c.push(Operation::cnot(1, 2));
        c.measure_all();
        c
    }

    #[test]
    fn ideal_fused_stream_verifies_against_its_baseline() {
        let fused = PrecompiledCircuit::ideal_with_fusion(&layered_circuit(), FusionPolicy::Safe);
        let baseline = PrecompiledCircuit::ideal(&layered_circuit());
        assert!(fused.fused_ops() > 0, "fusion must actually happen");
        let report = fused.verify_artifact(Some(&baseline));
        assert!(!report.has_errors(), "{report:?}");
    }

    #[test]
    fn noisy_fused_stream_verifies_against_its_baseline() {
        let device = DeviceModel::aspen8(RngSeed(3));
        let noise = NoiseModel::from_device(&device);
        let fused = PrecompiledCircuit::with_fusion(&layered_circuit(), &noise, FusionPolicy::Safe);
        let baseline = PrecompiledCircuit::new(&layered_circuit(), &noise);
        let report = fused.verify_artifact(Some(&baseline));
        assert!(!report.has_errors(), "{report:?}");
    }

    #[test]
    fn corrupted_fused_kernel_is_caught_by_unitarity_and_equivalence() {
        let fused = PrecompiledCircuit::ideal_with_fusion(&layered_circuit(), FusionPolicy::Safe);
        let baseline = PrecompiledCircuit::ideal(&layered_circuit());
        let mut ops = fused.kernel_ops();
        let corrupt_index = ops
            .iter()
            .position(|op| matches!(op.kind, KernelKind::Two { .. }))
            .expect("a fused 2q kernel exists");
        if let KernelKind::Two { matrix, .. } = &mut ops[corrupt_index].kind {
            matrix[(0, 0)] += Complex::from_real(0.25);
        }
        let baseline_ops = baseline.kernel_ops();
        let artifact = KernelArtifact {
            num_qubits: fused.num_qubits(),
            ops: &ops,
            baseline: Some(&baseline_ops),
            rng_order_exact: true,
        };
        let report = Verifier::semantic().run(&Artifact::Kernels(&artifact));
        let rules: Vec<&str> = report.diagnostics().iter().map(|d| d.rule()).collect();
        assert!(rules.contains(&"kernel/unitarity"), "{report:?}");
        assert!(rules.contains(&"fusion/equivalence"), "{report:?}");
        let unitarity = report
            .diagnostics()
            .iter()
            .find(|d| d.rule() == "kernel/unitarity")
            .unwrap();
        assert_eq!(
            unitarity.span().map(|s| s.start),
            Some(corrupt_index),
            "the unitarity finding must point at the corrupted kernel"
        );
    }

    #[test]
    fn truncated_kraus_channel_is_caught_by_completeness() {
        let device = DeviceModel::aspen8(RngSeed(5));
        let noise = NoiseModel::from_device(&device);
        let pre = PrecompiledCircuit::new(&layered_circuit(), &noise);
        let mut ops = pre.kernel_ops();
        // Drop the last Kraus operator of the first multi-operator channel:
        // the channel is no longer trace-preserving.
        let (op_index, channel_index) = ops
            .iter()
            .enumerate()
            .find_map(|(i, op)| {
                op.channels
                    .iter()
                    .position(|c| match &c.kraus {
                        ChannelKraus::One(k) => k.len() > 1,
                        ChannelKraus::Two(k) => k.len() > 1,
                    })
                    .map(|j| (i, j))
            })
            .expect("a noisy lowering has a multi-operator channel");
        match &mut ops[op_index].channels[channel_index].kraus {
            ChannelKraus::One(k) => {
                k.pop();
            }
            ChannelKraus::Two(k) => {
                k.pop();
            }
        }
        let artifact = KernelArtifact {
            num_qubits: pre.num_qubits(),
            ops: &ops,
            baseline: None,
            rng_order_exact: true,
        };
        let report = Verifier::semantic().run(&Artifact::Kernels(&artifact));
        let finding = report
            .diagnostics()
            .iter()
            .find(|d| d.rule() == "channel/kraus-completeness")
            .expect("truncation must be caught");
        assert_eq!(finding.span().map(|s| s.start), Some(op_index));
    }

    #[test]
    fn reordered_noise_is_caught_by_the_rng_audit() {
        let device = DeviceModel::aspen8(RngSeed(7));
        let noise = NoiseModel::from_device(&device);
        let pre = PrecompiledCircuit::new(&layered_circuit(), &noise);
        let baseline_ops = pre.kernel_ops();
        let mut ops = pre.kernel_ops();
        // Swap the channel lists of the first two ops that both draw RNG:
        // the draw order diverges from the baseline.
        let drawing: Vec<usize> = ops
            .iter()
            .enumerate()
            .filter(|(_, op)| op.channels.iter().any(|c| c.consumes_rng))
            .map(|(i, _)| i)
            .take(2)
            .collect();
        assert_eq!(drawing.len(), 2, "need two RNG-drawing ops");
        let (a, b) = (drawing[0], drawing[1]);
        let tmp = ops[a].channels.clone();
        ops[a].channels = ops[b].channels.clone();
        ops[b].channels = tmp;
        let artifact = KernelArtifact {
            num_qubits: pre.num_qubits(),
            ops: &ops,
            baseline: Some(&baseline_ops),
            rng_order_exact: true,
        };
        let report = Verifier::semantic().run(&Artifact::Kernels(&artifact));
        assert!(
            report
                .diagnostics()
                .iter()
                .any(|d| d.rule() == "fusion/rng-order"),
            "{report:?}"
        );
    }

    #[test]
    fn aggressive_fused_stream_verifies_with_the_composition_rule() {
        let device = DeviceModel::aspen8(RngSeed(3));
        let noise = NoiseModel::from_device(&device);
        let fused =
            PrecompiledCircuit::with_fusion(&layered_circuit(), &noise, FusionPolicy::Aggressive);
        let baseline = PrecompiledCircuit::new(&layered_circuit(), &noise);
        assert!(
            fused.fused_ops() > 0,
            "aggressive fusion must cross the calibration noise"
        );
        // The RNG stream legitimately differs from the baseline, so the
        // rng-order audit must not fire; the composition rule and the
        // equivalence spot check must both hold.
        let report = fused.verify_artifact(Some(&baseline));
        assert!(!report.has_errors(), "{report:?}");
        assert!(report
            .diagnostics()
            .iter()
            .all(|d| d.rule() != "fusion/rng-order"));
    }

    #[test]
    fn wide_registers_skip_the_equivalence_spot_check_with_info() {
        let mut c = Circuit::new(2);
        c.push(Operation::h(0));
        let fused = PrecompiledCircuit::ideal_with_fusion(&c, FusionPolicy::Safe);
        let baseline = PrecompiledCircuit::ideal(&c);
        let ops = fused.kernel_ops();
        let baseline_ops = baseline.kernel_ops();
        // The streams act on qubits 0 and 1 of a register one qubit wider
        // than the 16-qubit limit of the spot check.
        let artifact = KernelArtifact {
            num_qubits: 17,
            ops: &ops,
            baseline: Some(&baseline_ops),
            rng_order_exact: true,
        };
        let report = Verifier::semantic().run(&Artifact::Kernels(&artifact));
        assert!(!report.has_errors());
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.rule() == "fusion/equivalence" && d.severity() == verify::Severity::Info));
    }
}
