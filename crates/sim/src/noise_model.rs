//! Mapping device calibration data to per-operation noise.
//!
//! The model mirrors the paper's Qiskit Aer setup (§VI): "it applies
//! single-qubit and two-qubit depolarizing noises based on single-qubit and
//! two-qubit gate error rates. It implements amplitude damping and dephasing
//! noise based on T1 and T2 times as well as gate duration", plus classical
//! readout error at measurement.

use std::collections::HashMap;

use circuit::{OpKind, Operation, QubitId};
use device::DeviceModel;
use serde::{Deserialize, Serialize};

use crate::channels::{
    depolarizing_1q, depolarizing_2q, thermal_relaxation, AttachedChannel, Kraus1q, Kraus2q,
};

/// A device-derived noise model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NoiseModel {
    device: DeviceModel,
    /// Globally scales two-qubit error rates (1.0 = calibrated values).
    pub two_qubit_error_scale: f64,
    /// Enables/disables thermal relaxation (decoherence) noise.
    pub with_relaxation: bool,
    /// Enables/disables readout error.
    pub with_readout_error: bool,
}

impl NoiseModel {
    /// Builds a noise model directly from a device's calibration data.
    pub fn from_device(device: &DeviceModel) -> Self {
        NoiseModel {
            device: device.clone(),
            two_qubit_error_scale: 1.0,
            with_relaxation: true,
            with_readout_error: true,
        }
    }

    /// A noiseless model over the same device (useful for ideal baselines).
    pub fn noiseless(device: &DeviceModel) -> Self {
        NoiseModel {
            device: device.clone(),
            two_qubit_error_scale: 0.0,
            with_relaxation: false,
            with_readout_error: false,
        }
    }

    /// The underlying device.
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    /// Readout error probability for qubit `q` (0 when readout error is
    /// disabled).
    pub fn readout_error(&self, q: QubitId) -> f64 {
        if self.with_readout_error {
            self.device.qubit(q).readout_error
        } else {
            0.0
        }
    }

    /// The channels to apply after `op`, in the order a trajectory applies
    /// them: the depolarizing channel of a noisy unitary (on the op's qubits),
    /// then one thermal-relaxation channel per qubit for the op's duration.
    pub fn noise_for(&self, op: &Operation) -> Vec<AttachedChannel> {
        self.noise_with(op, &mut ChannelMemo::default())
    }

    /// [`NoiseModel::noise_for`], taking each channel from `memo` when an
    /// earlier op of the same lowering already built it.
    pub(crate) fn noise_with(
        &self,
        op: &Operation,
        memo: &mut ChannelMemo,
    ) -> Vec<AttachedChannel> {
        use nuop_core::HardwareFidelityProvider as _;
        let durations = self.device.durations();
        let qubits = op.qubits();
        let (depolarizing, duration_ns) = match op.kind() {
            OpKind::Unitary1Q { .. } => {
                let qubit = qubits[0];
                let err = (1.0 - self.device.one_qubit_fidelity(qubit)).clamp(0.0, 1.0);
                let channel = (err > 0.0).then(|| AttachedChannel::One {
                    channel: memo.depolarizing_1q(err),
                    qubit,
                });
                (channel, durations.one_qubit_ns)
            }
            OpKind::Unitary2Q { label, .. } => {
                let (q0, q1) = (qubits[0], qubits[1]);
                let fid = self.device.two_qubit_fidelity(q0, q1, label);
                let err = ((1.0 - fid) * self.two_qubit_error_scale).clamp(0.0, 1.0);
                let channel = (err > 0.0).then(|| AttachedChannel::Two {
                    channel: memo.depolarizing_2q(err),
                    q0,
                    q1,
                });
                (channel, durations.two_qubit_ns)
            }
            OpKind::Measure => (None, durations.measurement_ns),
            OpKind::Barrier => return Vec::new(),
        };
        let relaxed = if self.with_relaxation { qubits } else { &[] };
        let mut channels = Vec::with_capacity(usize::from(depolarizing.is_some()) + relaxed.len());
        channels.extend(depolarizing);
        channels.extend(relaxed.iter().map(|&qubit| {
            let cal = self.device.qubit(qubit);
            AttachedChannel::One {
                channel: memo.relaxation(duration_ns, cal.t1_us, cal.t2_us),
                qubit,
            }
        }));
        channels
    }
}

/// The channels one lowering has built so far, keyed by the bits of the
/// parameters each is a pure function of, so every distinct channel is
/// built (and completeness-checked) once per lowering and cloned after that.
///
/// A memo lives for one call: one
/// [`PrecompiledCircuit::with_fusion`](crate::PrecompiledCircuit::with_fusion)
/// or one [`NoiseModel::noise_for`]. It is never kept in the model, whose pub
/// fields may change between calls.
#[derive(Debug, Default)]
pub(crate) struct ChannelMemo {
    depolarizing_1q: HashMap<u64, Kraus1q>,
    depolarizing_2q: HashMap<u64, Kraus2q>,
    relaxation: HashMap<[u64; 3], Kraus1q>,
}

impl ChannelMemo {
    fn depolarizing_1q(&mut self, p: f64) -> Kraus1q {
        self.depolarizing_1q
            .entry(p.to_bits())
            .or_insert_with(|| depolarizing_1q(p))
            .clone()
    }

    fn depolarizing_2q(&mut self, p: f64) -> Kraus2q {
        self.depolarizing_2q
            .entry(p.to_bits())
            .or_insert_with(|| depolarizing_2q(p))
            .clone()
    }

    fn relaxation(&mut self, duration_ns: f64, t1_us: f64, t2_us: f64) -> Kraus1q {
        let key = [duration_ns.to_bits(), t1_us.to_bits(), t2_us.to_bits()];
        self.relaxation
            .entry(key)
            .or_insert_with(|| thermal_relaxation(duration_ns, t1_us, t2_us))
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmath::RngSeed;

    /// The error weight `1 - ‖K_0‖²/d` of an op's first channel, its
    /// depolarizing one when the op has one.
    fn first_channel_weight(channels: &[AttachedChannel]) -> f64 {
        match channels.first() {
            Some(AttachedChannel::One { channel, .. }) => {
                1.0 - channel.operators()[0].frobenius_norm().powi(2) / 2.0
            }
            Some(AttachedChannel::Two { channel, .. }) => {
                1.0 - channel.operators()[0].frobenius_norm().powi(2) / 4.0
            }
            None => 0.0,
        }
    }

    #[test]
    fn two_qubit_noise_uses_gate_specific_fidelity() {
        let device = DeviceModel::aspen8(RngSeed(1));
        let model = NoiseModel::from_device(&device);
        // Edge (2,3): CZ fidelity 0.94, XY(pi) 0.97 (Fig. 3).
        let cz = Operation::unitary2q("CZ", gates::standard::cz(), 2, 3);
        let xy = Operation::unitary2q("XY(pi)", gates::fsim::xy(std::f64::consts::PI), 2, 3);
        let ncz = model.noise_for(&cz);
        let nxy = model.noise_for(&xy);
        // Both lead with a two-qubit depolarizing channel; CZ's error weight
        // should be larger.
        assert!(matches!(ncz[0], AttachedChannel::Two { q0: 2, q1: 3, .. }));
        assert!(matches!(nxy[0], AttachedChannel::Two { q0: 2, q1: 3, .. }));
        assert!(first_channel_weight(&ncz) > first_channel_weight(&nxy));
    }

    #[test]
    fn noiseless_model_has_no_channels() {
        let device = DeviceModel::sycamore(RngSeed(2));
        let model = NoiseModel::noiseless(&device);
        let op = Operation::unitary2q("SYC", *gates::GateType::syc().unitary(), 0, 1);
        assert!(model.noise_for(&op).is_empty());
        assert_eq!(model.readout_error(0), 0.0);
    }

    #[test]
    fn one_qubit_noise_is_much_weaker_than_two_qubit() {
        let device = DeviceModel::sycamore(RngSeed(3));
        let model = NoiseModel::from_device(&device);
        let one = model.noise_for(&Operation::h(0));
        let two = model.noise_for(&Operation::unitary2q(
            "SYC",
            *gates::GateType::syc().unitary(),
            0,
            1,
        ));
        assert!(first_channel_weight(&one) < first_channel_weight(&two));
    }

    #[test]
    fn error_scale_zero_silences_two_qubit_noise() {
        let device = DeviceModel::sycamore(RngSeed(4));
        let mut model = NoiseModel::from_device(&device);
        model.two_qubit_error_scale = 0.0;
        let op = Operation::unitary2q("SYC", *gates::GateType::syc().unitary(), 0, 1);
        let noise = model.noise_for(&op);
        assert_eq!(noise.len(), 2);
        assert!(noise
            .iter()
            .all(|channel| matches!(channel, AttachedChannel::One { .. })));
    }

    #[test]
    fn measurement_noise_is_relaxation_plus_readout() {
        let device = DeviceModel::aspen8(RngSeed(5));
        let model = NoiseModel::from_device(&device);
        let m = Operation::measure(vec![0, 1]);
        let noise = model.noise_for(&m);
        assert!(matches!(
            noise[..],
            [
                AttachedChannel::One { qubit: 0, .. },
                AttachedChannel::One { qubit: 1, .. }
            ]
        ));
        assert!(model.readout_error(0) > 0.0);
    }

    #[test]
    fn barrier_is_noise_free() {
        let device = DeviceModel::aspen8(RngSeed(6));
        let model = NoiseModel::from_device(&device);
        assert!(model
            .noise_for(&Operation::barrier(vec![0, 1, 2]))
            .is_empty());
    }
}
