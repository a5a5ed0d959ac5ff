//! Circuits lowered once into a simulation-ready form, with optional gate
//! fusion.
//!
//! `NoisySimulator` historically re-derived everything per shot: each
//! trajectory converted every op's `CMatrix` into its `Mat2`/`Mat4` kernel and
//! rebuilt (and completeness-checked) every Kraus channel from the calibration
//! data. Trajectory sampling runs thousands of shots over the same circuit, so
//! that work was repeated ~shots× for no benefit.
//!
//! A [`PrecompiledCircuit`] performs that lowering exactly once:
//!
//! * every unitary is converted to its stack-allocated [`Mat2`]/[`Mat4`] form,
//! * every op's depolarizing channel and per-qubit relaxation [`Kraus1q`]
//!   channels are built (and completeness-checked by
//!   [`KrausChannel::new`](crate::KrausChannel::new)) up front,
//! * readout-error probabilities are resolved into a flat per-qubit table.
//!
//! # Gate fusion
//!
//! Under [`FusionPolicy::Safe`] the lowering additionally **fuses** runs of
//! adjacent ops into single kernels before any trajectory runs: consecutive
//! one-qubit gates on the same qubit multiply into one [`Mat2`], one-qubit
//! gates absorb into an adjacent two-qubit gate on their qubit (embedded via
//! `kron`), and consecutive two-qubit gates on the same pair (either
//! orientation) multiply into one [`Mat4`]. Ops separated only by gates on
//! disjoint qubits count as adjacent — disjoint unitaries commute — so a
//! layered circuit's rotation layer fuses into the entangler layer that
//! follows it. A `Mat4` product costs ~74 ns,
//! while one amplitude sweep costs O(2^n) — fusing `k` ops amortizes `k` full
//! state sweeps into one, which is what keeps large-register simulation
//! compute-bound instead of memory-bound.
//!
//! Under [`FusionPolicy::Safe`], fusion never crosses an RNG-consuming noise
//! channel: an op can only be fused *into a later op* when its own attached
//! channels are absent or identity (identity channels consume no randomness).
//! On the ideal path all channels are empty, so fusion is unrestricted; on the
//! noisy path trajectory semantics and the RNG consumption order are preserved
//! exactly, which is what makes `Safe`-fused counts bit-identical to unfused
//! runs.
//!
//! [`FusionPolicy::Aggressive`] additionally fuses *across* noise channels by
//! carrying them forward: when an op with channels is absorbed into a later
//! kernel `U`, each of its channels `{K_i}` is commuted past `U` into
//! `{U K_i U†}` and re-attached after the fused kernel. Conjugation commutes a
//! channel past a unitary exactly — `‖U K U† (U|ψ⟩)‖ = ‖K|ψ⟩‖` for every
//! operator, so both the per-branch probabilities and the post-branch states
//! are unchanged. While the fusion scan runs, a carried channel keeps the
//! Kraus set the lowering built and a *frame* `V`, the product of the kernels
//! it has crossed so far, and stands for `{V K_i V†}`. A one-qubit channel's
//! `V` is a [`Mat2`] on its qubit until a two-qubit kernel on that qubit
//! widens it to a [`Mat4`] on the kernel's pair; a two-qubit channel's `V` is
//! a [`Mat4`] on its own pair from the start, and a kernel on the reversed
//! pair multiplies in with its tensor factors swapped. Crossing a kernel costs
//! one small-matrix product per channel, however many operators the channel
//! has. When the scan ends, each output op's channels are conjugated once
//! (a one-qubit channel on a pair frame embedded in its slot first), and
//! adjacent ones on the same target are composed once
//! ([`KrausChannel::then`](crate::KrausChannel::then)) to bound the
//! per-kernel channel count. Every conjugated and every composed Kraus set is
//! completeness-checked on construction. Noisy circuits therefore fuse as
//! deeply as ideal ones. The trade: the *number and order* of RNG draws
//! changes, so Aggressive counts are not bit-identical to `Safe` counts —
//! they are equal in distribution, which the `verify` crate's TVD harness
//! checks statistically (see `verify::distribution`), and the exact density
//! matrix of the fused lowering equals the unfused one to rounding.
//!
//! Both the Monte-Carlo engine ([`crate::engine`]) and the exact
//! density-matrix simulator ([`crate::DensityMatrix::evolve`]) consume the
//! same precompiled (and fused) ops, so the two validation paths cannot drift
//! apart.
//!
//! # Pair runs
//!
//! On registers of at least [`FOLD_MIN_QUBITS`] qubits, trajectories fold
//! whole runs of work into single amplitude sweeps instead of applying each
//! kernel and channel on its own. A trajectory is a sequence of *items*: each
//! op's kernel, then each of its non-identity channels, in the order the
//! per-channel loop applies them. A *pair run* is a maximal stretch of
//! consecutive items whose qubits fit in one pair (or stay on one qubit);
//! NuOp's `U3 U3 G U3 U3 G …` output on one pair, with its depolarizing and
//! relaxation channels, is one run however many ops it spans, and so are the
//! relaxations a measurement puts on two qubits. Each run is one folded step:
//!
//! 1. `M` starts as the identity. Each kernel multiplies in on the left, a
//!    one-qubit kernel embedded in the pair (`U ⊗ I` or `I ⊗ U`) and a
//!    kernel on the reversed pair with its tensor factors swapped.
//! 2. Each channel draws one uniform and picks a branch from
//!    `ρ = M ρ₀ M†`, where `ρ₀` is the 2×2 / 4×4 reduced density matrix of
//!    the run's qubits before the run. One read pass takes `ρ₀`, at the first
//!    channel whose branch probabilities depend on the state, so at most once
//!    per run; mixtures pick by their fixed weights and need no read. A
//!    one-qubit channel picks from `ρ` with the other qubit traced out and a
//!    reversed-pair channel from `ρ` with its factors swapped; only the
//!    picked operator `K_i/√p_i` is lifted to the pair and multiplied into
//!    `M`. See the [`channels`](crate::channels) module docs for the
//!    arithmetic.
//! 3. One sweep applies `M`.
//!
//! Runs are found by a forward scan over the borrowed lowered ops while the
//! trajectory runs, so the lowering stores no plan and no second copy of
//! anything. The RNG consumption is unchanged: one uniform per non-identity
//! channel, in the same order, so the pair runs and the per-channel loop pick
//! the same branches and agree to rounding (about 1e-10 on the amplitudes
//! after a few hundred noisy ops). The per-channel loop renormalizes the
//! state after every Kraus branch; a run scales each branch by `1/√p_i`
//! instead, which keeps the norm at 1 to rounding. A run of one kernel and
//! nothing else sweeps exactly that kernel, as the per-channel loop does.

use circuit::{Circuit, OpKind, QubitId};
use qmath::{Mat2, Mat4, SmallMat};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::channels::{ArityChannel, Kraus1q, Kraus2q, KrausChannel, UnitaryMixTerm};
use crate::noise_model::NoiseModel;
use crate::statevector::StateVector;

/// Register width, in qubits, from which trajectories run pair runs (see the
/// [module docs](crate::precompiled)) instead of the per-channel loop.
/// Each side wins on its own widths: a pair run spends a few hundred
/// nanoseconds of 2×2/4×4 matrix products per item, which a narrow
/// register's sweeps do not repay, while from this width on the amplitude
/// passes it saves cost more. The value is the crossover of the
/// `calibrated_trajectory` group in `crates/bench/benches/statevector.rs` on
/// a 2-vCPU x86-64 VM (Intel Xeon with AVX2), pinned to one CPU, medians of
/// eight runs: the per-channel loop was 1.4–2.9× faster at 4–6 qubits, the
/// two tied at 7 under `Safe` (pair runs 1.2× faster under `Aggressive`),
/// and pair runs were 1.3–1.7× faster at 8. Registers of 6 or fewer qubits
/// therefore keep the per-channel loop, bit for bit.
pub const FOLD_MIN_QUBITS: usize = 7;

/// How aggressively [`PrecompiledCircuit`] coalesces adjacent ops into single
/// kernels before simulation.
///
/// `Safe` keeps noisy counts bit-identical to the unfused lowering;
/// `Aggressive` carries noise channels across fused kernels (conjugating their
/// Kraus sets), trading bit-identity for distribution-identity so noisy
/// circuits fuse as deeply as ideal ones:
///
/// ```
/// use circuit::{Circuit, Operation};
/// use device::DeviceModel;
/// use qmath::RngSeed;
/// use sim::{FusionPolicy, NoiseModel, PrecompiledCircuit};
///
/// let mut c = Circuit::new(2);
/// c.push(Operation::h(0));
/// c.push(Operation::cnot(0, 1));
/// c.measure_all();
/// let noise = NoiseModel::from_device(&DeviceModel::aspen8(RngSeed(1)));
///
/// let safe = PrecompiledCircuit::with_fusion(&c, &noise, FusionPolicy::Safe);
/// let aggressive = PrecompiledCircuit::with_fusion(&c, &noise, FusionPolicy::Aggressive);
/// assert_eq!(safe.fused_ops(), 0); // calibration noise blocks every Safe fusion
/// assert_eq!(aggressive.fused_ops(), 1); // the H fuses across its noise into the CNOT
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FusionPolicy {
    /// No fusion: one lowered op per circuit op (the pre-fusion behaviour).
    Off,
    /// Fuse adjacent ops whenever no RNG-consuming channel sits between them.
    /// Trajectory semantics and RNG consumption are preserved exactly, so
    /// counts stay bit-identical to unfused runs; on noiseless circuits this
    /// is unrestricted fusion. The execution-engine default.
    #[default]
    Safe,
    /// Fuse across noise channels by conjugating their Kraus sets past the
    /// fused kernel and composing adjacent same-target channels. Counts are
    /// equal to [`FusionPolicy::Safe`] in distribution but not bit-identical
    /// (the RNG stream differs); the engine's `validate` mode checks the
    /// equivalence statistically with a TVD bound instead of bit-identity.
    Aggressive,
}

/// The unitary part of a lowered operation.
#[derive(Debug, Clone, PartialEq)]
pub enum PrecompiledKind {
    /// A single-qubit unitary, already converted to its 2×2 kernel.
    Unitary1Q {
        /// The stack-allocated gate matrix.
        matrix: Mat2,
        /// Target qubit.
        qubit: QubitId,
    },
    /// A two-qubit unitary, already converted to its 4×4 kernel.
    Unitary2Q {
        /// The stack-allocated gate matrix (`q0` is the most significant
        /// qubit of the matrix).
        matrix: Mat4,
        /// First (most significant) qubit.
        q0: QubitId,
        /// Second qubit.
        q1: QubitId,
    },
    /// A measurement or barrier: no unitary, only the attached noise.
    Silent,
}

/// A depolarizing channel attached to a lowered op, carrying its own target
/// qubits.
///
/// Before gate fusion the channel's targets always coincided with the op's
/// qubits, so [`ArityChannel`] alone was enough. A fused op can carry a
/// channel narrower than its kernel (a 1Q gate with 1Q noise absorbed into a
/// 2Q kernel keeps its 1Q channel), so the targets are stored explicitly.
#[derive(Debug, Clone, PartialEq)]
pub enum AttachedChannel {
    /// A single-qubit channel.
    One {
        /// The Kraus channel.
        channel: Kraus1q,
        /// The qubit it acts on.
        qubit: QubitId,
    },
    /// A two-qubit channel (`q0` is the most significant qubit).
    Two {
        /// The Kraus channel.
        channel: Kraus2q,
        /// First (most significant) qubit.
        q0: QubitId,
        /// Second qubit.
        q1: QubitId,
    },
}

impl AttachedChannel {
    /// Builds the attachment from an arity-matched channel and the op's
    /// qubits.
    fn from_arity(channel: ArityChannel, qubits: &[QubitId]) -> Self {
        match (channel, qubits) {
            (ArityChannel::One(channel), [q]) => AttachedChannel::One { channel, qubit: *q },
            (ArityChannel::Two(channel), [q0, q1]) => AttachedChannel::Two {
                channel,
                q0: *q0,
                q1: *q1,
            },
            (channel, qubits) => unreachable!(
                "noise_for returned a dim-{} channel for a {}-qubit op",
                match channel {
                    ArityChannel::One(_) => 2,
                    ArityChannel::Two(_) => 4,
                },
                qubits.len()
            ),
        }
    }

    /// True when the channel consumes no randomness when applied.
    pub fn is_identity(&self) -> bool {
        match self {
            AttachedChannel::One { channel, .. } => channel.is_identity(),
            AttachedChannel::Two { channel, .. } => channel.is_identity(),
        }
    }
}

/// One circuit operation lowered to its simulation-ready form: the unitary
/// kernel plus the prebuilt noise channels that follow it.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecompiledOp {
    /// The unitary kernel (or [`PrecompiledKind::Silent`]).
    pub kind: PrecompiledKind,
    /// Channels carried forward from earlier ops by
    /// [`FusionPolicy::Aggressive`], already conjugated past this op's kernel.
    /// Applied directly after the kernel, before
    /// [`depolarizing`](PrecompiledOp::depolarizing). Always empty under
    /// [`FusionPolicy::Off`] and [`FusionPolicy::Safe`].
    pub carried: Vec<AttachedChannel>,
    /// Depolarizing channel with its target qubits, `None` when noiseless.
    pub depolarizing: Option<AttachedChannel>,
    /// Per-qubit thermal-relaxation channels for the op's duration.
    pub relaxation: Vec<(QubitId, Kraus1q)>,
}

impl PrecompiledOp {
    /// True when applying this op draws no randomness: its carried and
    /// depolarizing channels are absent or identity and every relaxation
    /// channel is identity. Fusing a *later* op into such an op cannot disturb
    /// the RNG stream.
    fn consumes_no_rng(&self) -> bool {
        self.channels().all(|channel| channel.is_identity())
    }

    /// The op's channels in trajectory order: carried, depolarizing, then
    /// relaxation.
    fn channels(&self) -> impl Iterator<Item = OpChannel<'_>> + Clone {
        let attached = self
            .carried
            .iter()
            .chain(&self.depolarizing)
            .map(|channel| match channel {
                AttachedChannel::One { channel, qubit } => OpChannel::One(channel, *qubit),
                AttachedChannel::Two { channel, q0, q1 } => OpChannel::Two(channel, *q0, *q1),
            });
        let relaxation = self
            .relaxation
            .iter()
            .map(|(q, channel)| OpChannel::One(channel, *q));
        attached.chain(relaxation)
    }

    /// The op's trajectory items: its kernel, then its non-identity channels
    /// in trajectory order.
    fn items(&self) -> impl Iterator<Item = Item<'_>> + Clone {
        let kernel = match &self.kind {
            PrecompiledKind::Unitary1Q { matrix, qubit } => Some(Item::Kernel1(matrix, *qubit)),
            PrecompiledKind::Unitary2Q { matrix, q0, q1 } => Some(Item::Kernel2(matrix, *q0, *q1)),
            PrecompiledKind::Silent => None,
        };
        let channels = self
            .channels()
            .filter(|channel| !channel.is_identity())
            .map(Item::Channel);
        kernel.into_iter().chain(channels)
    }
}

/// A circuit lowered once into simulation-ready ops.
///
/// Build one with [`PrecompiledCircuit::new`] (noisy) or
/// [`PrecompiledCircuit::ideal`] (no noise) — both unfused, matching the
/// historical lowering bit for bit — or with the
/// [`with_fusion`](PrecompiledCircuit::with_fusion) /
/// [`ideal_with_fusion`](PrecompiledCircuit::ideal_with_fusion) variants to
/// coalesce adjacent ops first (see the [module docs](crate::precompiled)).
/// Then run as many trajectories against it as needed — no per-shot matrix
/// conversion or channel construction remains.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecompiledCircuit {
    num_qubits: usize,
    ops: Vec<PrecompiledOp>,
    /// Per-qubit readout flip probability (all zeros when disabled).
    readout_error: Vec<f64>,
    /// The fusion policy the circuit was lowered under.
    fusion: FusionPolicy,
    /// Number of source ops eliminated by fusion (0 under
    /// [`FusionPolicy::Off`]).
    fused_ops: usize,
}

impl PrecompiledCircuit {
    /// Lowers `circuit` under `noise` without fusion, building every Kraus
    /// channel exactly once.
    ///
    /// # Panics
    /// Panics if an operation carries a matrix of the wrong dimension (which
    /// [`circuit::Operation`] construction already prevents).
    pub fn new(circuit: &Circuit, noise: &NoiseModel) -> Self {
        PrecompiledCircuit::with_fusion(circuit, noise, FusionPolicy::Off)
    }

    /// Lowers `circuit` under `noise` with the given [`FusionPolicy`].
    pub fn with_fusion(circuit: &Circuit, noise: &NoiseModel, fusion: FusionPolicy) -> Self {
        let ops = circuit
            .iter()
            .map(|op| {
                let op_noise = noise.noise_for(op);
                PrecompiledOp {
                    kind: lower_kind(op),
                    carried: Vec::new(),
                    depolarizing: op_noise
                        .depolarizing
                        .map(|c| AttachedChannel::from_arity(c, op.qubits())),
                    relaxation: op_noise.relaxation,
                }
            })
            .collect();
        let readout_error = (0..circuit.num_qubits())
            .map(|q| noise.readout_error(q))
            .collect();
        PrecompiledCircuit::finish(circuit.num_qubits(), ops, readout_error, fusion)
    }

    /// Lowers `circuit` with no noise attached and no fusion: trajectories are
    /// then deterministic and only measurement sampling consumes randomness.
    pub fn ideal(circuit: &Circuit) -> Self {
        PrecompiledCircuit::ideal_with_fusion(circuit, FusionPolicy::Off)
    }

    /// Lowers `circuit` with no noise attached and the given [`FusionPolicy`]
    /// (with no channels anywhere, [`FusionPolicy::Safe`] fusion is
    /// unrestricted).
    pub fn ideal_with_fusion(circuit: &Circuit, fusion: FusionPolicy) -> Self {
        let ops = circuit
            .iter()
            .map(|op| PrecompiledOp {
                kind: lower_kind(op),
                carried: Vec::new(),
                depolarizing: None,
                relaxation: Vec::new(),
            })
            .collect();
        let readout_error = vec![0.0; circuit.num_qubits()];
        PrecompiledCircuit::finish(circuit.num_qubits(), ops, readout_error, fusion)
    }

    /// Applies the fusion policy to freshly lowered ops and assembles the
    /// circuit.
    fn finish(
        num_qubits: usize,
        ops: Vec<PrecompiledOp>,
        readout_error: Vec<f64>,
        fusion: FusionPolicy,
    ) -> Self {
        let (ops, fused_ops) = match fusion {
            FusionPolicy::Off => (ops, 0),
            FusionPolicy::Safe => fuse_ops(ops, false),
            FusionPolicy::Aggressive => fuse_ops(ops, true),
        };
        PrecompiledCircuit {
            num_qubits,
            ops,
            readout_error,
            fusion,
            fused_ops,
        }
    }

    /// Number of qubits in the register.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The lowered operations, in circuit order.
    pub fn ops(&self) -> &[PrecompiledOp] {
        &self.ops
    }

    /// Per-qubit readout flip probabilities.
    pub fn readout_error(&self) -> &[f64] {
        &self.readout_error
    }

    /// The fusion policy the circuit was lowered under.
    pub fn fusion(&self) -> FusionPolicy {
        self.fusion
    }

    /// Number of source ops eliminated by gate fusion (each one an amplitude
    /// sweep a trajectory no longer pays for).
    pub fn fused_ops(&self) -> usize {
        self.fused_ops
    }

    /// True when no stochastic noise is attached anywhere: no depolarizing or
    /// relaxation channels and zero readout error. Trajectories of a noiseless
    /// circuit are deterministic, so the engine evolves the state once and
    /// only samples measurements per shot.
    pub fn is_noiseless(&self) -> bool {
        self.readout_error.iter().all(|&p| p == 0.0)
            && self.ops.iter().all(|op| op.consumes_no_rng())
    }

    /// Runs one noisy trajectory from `|0…0⟩` and returns the final state.
    /// Consumes randomness only for the Kraus channels that are actually
    /// attached. Below [`FOLD_MIN_QUBITS`] qubits the state is renormalized
    /// after every Kraus branch; from it on, pair runs keep the norm at 1 to
    /// rounding (see the [module docs](crate::precompiled)).
    pub fn run_trajectory<R: Rng + ?Sized>(&self, rng: &mut R) -> StateVector {
        self.run_trajectory_threaded(rng, 1)
    }

    /// [`run_trajectory`](PrecompiledCircuit::run_trajectory) with each
    /// amplitude sweep split across up to `threads` worker threads (see
    /// [`StateVector::apply_one_qubit_threaded`]). Bit-identical to the serial
    /// trajectory for any thread count.
    pub fn run_trajectory_threaded<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        threads: usize,
    ) -> StateVector {
        self.run_trajectory_with(rng, threads, crate::statevector::PARALLEL_SWEEP_MIN_QUBITS)
    }

    /// [`run_trajectory_threaded`](PrecompiledCircuit::run_trajectory_threaded)
    /// with an explicit parallel-sweep threshold (see
    /// [`StateVector::apply_one_qubit_with`]). Scheduling only — bit-identical
    /// for any `(threads, min_parallel_qubits)` pair.
    pub fn run_trajectory_with<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        threads: usize,
        min_parallel_qubits: usize,
    ) -> StateVector {
        let mut state = StateVector::zero_state(self.num_qubits);
        if self.num_qubits >= FOLD_MIN_QUBITS {
            apply_pair_runs(&self.ops, &mut state, rng, threads, min_parallel_qubits);
        } else {
            for op in &self.ops {
                apply_op(op, &mut state, rng, threads, min_parallel_qubits);
            }
        }
        state
    }

    /// Runs one complete shot: trajectory, measurement sample, readout error.
    /// Randomness is consumed in the same order as the historical
    /// `NoisySimulator::run` path, so a per-shot seeded RNG reproduces its
    /// results bit for bit below [`FOLD_MIN_QUBITS`] qubits; from it on,
    /// pair runs pick the same branches and the amplitudes agree to rounding.
    pub fn sample_shot<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.sample_shot_threaded(rng, 1)
    }

    /// [`sample_shot`](PrecompiledCircuit::sample_shot) with amplitude-sweep
    /// parallelism (same RNG stream, bit-identical outcome for any thread
    /// count).
    pub fn sample_shot_threaded<R: Rng + ?Sized>(&self, rng: &mut R, threads: usize) -> usize {
        self.sample_shot_with(rng, threads, crate::statevector::PARALLEL_SWEEP_MIN_QUBITS)
    }

    /// [`sample_shot_threaded`](PrecompiledCircuit::sample_shot_threaded) with
    /// an explicit parallel-sweep threshold (scheduling only — bit-identical
    /// for any `(threads, min_parallel_qubits)` pair).
    pub fn sample_shot_with<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        threads: usize,
        min_parallel_qubits: usize,
    ) -> usize {
        let state = self.run_trajectory_with(rng, threads, min_parallel_qubits);
        let outcome = state.sample_measurement(rng);
        self.apply_readout_error(outcome, rng)
    }

    /// Flips each measured bit independently with its readout-error
    /// probability.
    pub fn apply_readout_error<R: Rng + ?Sized>(&self, outcome: usize, rng: &mut R) -> usize {
        let mut noisy = outcome;
        for (q, &p) in self.readout_error.iter().enumerate() {
            if p > 0.0 && rng.gen_bool(p) {
                noisy ^= 1 << (self.num_qubits - 1 - q);
            }
        }
        noisy
    }
}

/// A noise channel of a lowered op, borrowed, with the qubits it acts on.
#[derive(Debug, Clone, Copy)]
enum OpChannel<'a> {
    One(&'a Kraus1q, QubitId),
    Two(&'a Kraus2q, QubitId, QubitId),
}

impl<'a> OpChannel<'a> {
    fn is_identity(&self) -> bool {
        match self {
            OpChannel::One(channel, _) => channel.is_identity(),
            OpChannel::Two(channel, ..) => channel.is_identity(),
        }
    }

    /// The channel placed on the ordered pair `(q0, _)` of a pair run; its
    /// qubits must lie within the pair.
    fn in_pair(self, q0: QubitId) -> PairChannel<'a> {
        match self {
            OpChannel::One(channel, q) if q == q0 => PairChannel::First(channel),
            OpChannel::One(channel, _) => PairChannel::Second(channel),
            OpChannel::Two(channel, a, _) if a == q0 => PairChannel::Pair(channel),
            OpChannel::Two(channel, ..) => PairChannel::Reversed(channel),
        }
    }
}

/// One item of a trajectory, borrowed from its lowered op: the op's kernel,
/// or one of its non-identity channels.
#[derive(Debug, Clone, Copy)]
enum Item<'a> {
    Kernel1(&'a Mat2, QubitId),
    Kernel2(&'a Mat4, QubitId, QubitId),
    Channel(OpChannel<'a>),
}

impl Item<'_> {
    /// The qubits the item acts on.
    fn qubits(&self) -> (QubitId, Option<QubitId>) {
        match *self {
            Item::Kernel1(_, q) | Item::Channel(OpChannel::One(_, q)) => (q, None),
            Item::Kernel2(_, q0, q1) | Item::Channel(OpChannel::Two(_, q0, q1)) => (q0, Some(q1)),
        }
    }
}

/// Applies one lowered op the per-channel way: its kernel, then each channel
/// in order through [`apply_channel_1q`] / [`apply_channel_2q`].
fn apply_op<R: Rng + ?Sized>(
    op: &PrecompiledOp,
    state: &mut StateVector,
    rng: &mut R,
    threads: usize,
    min_parallel_qubits: usize,
) {
    match &op.kind {
        PrecompiledKind::Unitary1Q { matrix, qubit } => {
            state.apply_one_qubit_with(matrix, *qubit, threads, min_parallel_qubits);
        }
        PrecompiledKind::Unitary2Q { matrix, q0, q1 } => {
            state.apply_two_qubit_with(matrix, *q0, *q1, threads, min_parallel_qubits);
        }
        PrecompiledKind::Silent => {}
    }
    for carried in &op.carried {
        match carried {
            AttachedChannel::One { channel, qubit } => {
                apply_channel_1q(state, channel, *qubit, rng);
            }
            AttachedChannel::Two { channel, q0, q1 } => {
                apply_channel_2q(state, channel, *q0, *q1, rng);
            }
        }
    }
    match &op.depolarizing {
        Some(AttachedChannel::One { channel, qubit }) => {
            apply_channel_1q(state, channel, *qubit, rng);
        }
        Some(AttachedChannel::Two { channel, q0, q1 }) => {
            apply_channel_2q(state, channel, *q0, *q1, rng);
        }
        None => {}
    }
    for (q, channel) in &op.relaxation {
        apply_channel_1q(state, channel, *q, rng);
    }
}

/// The run at the front of `items`: its length in items and its qubits in
/// the order they first appear (`q1` is `None` for a one-qubit run).
#[derive(Debug, PartialEq, Eq)]
struct PairRun {
    len: usize,
    q0: QubitId,
    q1: Option<QubitId>,
}

/// Finds the maximal run at the front of `items`: the longest prefix whose
/// qubits fit in one pair. `None` when `items` is empty.
fn next_run<'a>(mut items: impl Iterator<Item = Item<'a>>) -> Option<PairRun> {
    let (q0, mut q1) = items.next()?.qubits();
    let mut len = 1;
    for item in items {
        let (a, b) = item.qubits();
        let mut pair = q1;
        for q in std::iter::once(a).chain(b) {
            if q != q0 && Some(q) != pair {
                if pair.is_some() {
                    return Some(PairRun { len, q0, q1 });
                }
                pair = Some(q);
            }
        }
        q1 = pair;
        len += 1;
    }
    Some(PairRun { len, q0, q1 })
}

/// Runs the ops' trajectory items as folded pair runs (see the
/// [module docs](crate::precompiled)): each maximal run of items on one qubit
/// or one pair becomes one step. Draws one uniform per non-identity channel,
/// in the order of [`apply_op`], so both pick the same branches and agree to
/// rounding.
fn apply_pair_runs<R: Rng + ?Sized>(
    ops: &[PrecompiledOp],
    state: &mut StateVector,
    rng: &mut R,
    threads: usize,
    min_parallel_qubits: usize,
) {
    let sweep = (threads, min_parallel_qubits);
    let mut items = ops.iter().flat_map(PrecompiledOp::items);
    while let Some(run) = next_run(items.clone()) {
        let run_items = items.by_ref().take(run.len);
        match run.q1 {
            None => fold_qubit(run_items, run.q0, state, rng, sweep),
            Some(q1) => fold_pair(run_items, (run.q0, q1), state, rng, sweep),
        }
    }
}

/// Folds a one-qubit run on `qubit` into one step and applies it in one
/// sweep, split as `(threads, min_parallel_qubits)` say.
fn fold_qubit<'a, R: Rng + ?Sized>(
    items: impl Iterator<Item = Item<'a>>,
    qubit: QubitId,
    state: &mut StateVector,
    rng: &mut R,
    (threads, min_parallel_qubits): (usize, usize),
) {
    let mut fold = Fold::default();
    for item in items {
        match item {
            Item::Kernel1(u, _) => fold.apply(u),
            Item::Channel(OpChannel::One(channel, _)) => {
                fold.pick(channel, rng, || state.reduced_density_1q(qubit));
            }
            Item::Kernel2(..) | Item::Channel(OpChannel::Two(..)) => {
                unreachable!("a one-qubit run holds one-qubit items only")
            }
        }
    }
    if let Some(m) = fold.m {
        state.apply_one_qubit_with(&m, qubit, threads, min_parallel_qubits);
    }
}

/// [`fold_qubit`] for a run on the ordered pair `(q0, q1)`: one-qubit
/// kernels are embedded in the pair, reversed kernels and channels have their
/// tensor factors swapped.
fn fold_pair<'a, R: Rng + ?Sized>(
    items: impl Iterator<Item = Item<'a>>,
    (q0, q1): (QubitId, QubitId),
    state: &mut StateVector,
    rng: &mut R,
    (threads, min_parallel_qubits): (usize, usize),
) {
    let mut fold = Fold::default();
    for item in items {
        match item {
            Item::Kernel1(u, q) => fold.apply(&embed_in_pair(u, q, q0, q1)),
            Item::Kernel2(u, a, _) if a == q0 => fold.apply(u),
            Item::Kernel2(u, ..) => fold.apply(&swap_tensor_factors(u)),
            Item::Channel(channel) => {
                fold.pick(&channel.in_pair(q0), rng, || {
                    state.reduced_density_2q(q0, q1)
                });
            }
        }
    }
    if let Some(m) = fold.m {
        state.apply_two_qubit_with(&m, q0, q1, threads, min_parallel_qubits);
    }
}

/// The running matrices of one folded step.
#[derive(Default)]
struct Fold<const N: usize> {
    /// `M`: the product of the kernels and picked branches so far, latest on
    /// the left; `None` while it is the identity.
    m: Option<SmallMat<N>>,
    /// `ρ₀`: the reduced density matrix of the step's qubits before the
    /// step, once read.
    rho: Option<SmallMat<N>>,
}

impl<const N: usize> Fold<N> {
    /// Folds the kernel `u` into `M` (`M ← u·M`).
    fn apply(&mut self, u: &SmallMat<N>) {
        self.m = Some(self.m.map_or(*u, |m| *u * m));
    }

    /// Draws one uniform and folds the branch `channel` picks into `M`,
    /// giving it the current `ρ = M ρ₀ M†`. `read` returns `ρ₀`; it runs at
    /// most once per step (the state does not change until the step's
    /// sweep), at the first channel whose branch probabilities depend on the
    /// state.
    fn pick<R: Rng + ?Sized>(
        &mut self,
        channel: &impl StepChannel<N>,
        rng: &mut R,
        read: impl FnOnce() -> SmallMat<N>,
    ) {
        let r: f64 = rng.gen_range(0.0..1.0);
        let Fold { m, rho } = self;
        let current = || {
            let rho = *rho.get_or_insert_with(read);
            m.map_or(rho, |m| m * rho * m.dagger())
        };
        if let Some(a) = channel.branch(r, current) {
            *m = Some(m.map_or(a, |m| a * m));
        }
    }
}

/// A channel as a folded step applies it: one uniform draw picks a branch,
/// returned as an operator on the step's qubits.
trait StepChannel<const N: usize> {
    /// The branch the uniform draw `r` picks, renormalized, as an `N`×`N`
    /// operator on the step's qubits; `None` when it leaves the state as it
    /// is. `rho` returns the reduced density matrix of the step's qubits and
    /// is only called when the branch probabilities depend on the state.
    fn branch(&self, r: f64, rho: impl FnOnce() -> SmallMat<N>) -> Option<SmallMat<N>>;
}

impl<const N: usize> StepChannel<N> for KrausChannel<N> {
    fn branch(&self, r: f64, rho: impl FnOnce() -> SmallMat<N>) -> Option<SmallMat<N>> {
        match self.unitary_mix() {
            Some(mix) => mixture_branch(mix, r).copied(),
            None => kraus_branch(self, &rho(), r),
        }
    }
}

/// A channel of a two-qubit step, in its own arity and placed on the step's
/// qubits: only the branch a draw picks is lifted to a 4×4 operator.
#[derive(Debug, Clone, Copy)]
enum PairChannel<'a> {
    /// A 2q channel on the step's qubits, in the step's order.
    Pair(&'a Kraus2q),
    /// A 2q channel on the step's qubits, in reversed order.
    Reversed(&'a Kraus2q),
    /// A 1q channel on the step's first (most significant) qubit.
    First(&'a Kraus1q),
    /// A 1q channel on the step's second qubit.
    Second(&'a Kraus1q),
}

impl StepChannel<4> for PairChannel<'_> {
    fn branch(&self, r: f64, rho: impl FnOnce() -> Mat4) -> Option<Mat4> {
        let id = Mat2::identity();
        match self {
            PairChannel::Pair(channel) => channel.branch(r, rho),
            PairChannel::Reversed(channel) => channel
                .branch(r, || swap_tensor_factors(&rho()))
                .map(|a| swap_tensor_factors(&a)),
            PairChannel::First(channel) => channel
                .branch(r, || trace_out(&rho(), 1))
                .map(|a| a.kron(&id)),
            PairChannel::Second(channel) => channel
                .branch(r, || trace_out(&rho(), 0))
                .map(|a| id.kron(&a)),
        }
    }
}

/// The reduced density matrix of one qubit of a pair: `rho` with tensor
/// factor `factor` (0 for the first, most significant qubit) traced out.
fn trace_out(rho: &Mat4, factor: usize) -> Mat2 {
    let index = |kept: usize, traced: usize| {
        if factor == 0 {
            2 * traced + kept
        } else {
            2 * kept + traced
        }
    };
    Mat2::from_fn(|j, k| rho[(index(j, 0), index(k, 0))] + rho[(index(j, 1), index(k, 1))])
}

/// Picks a unitary-mixture branch with the uniform draw `r`: the branch's
/// unitary, or `None` for the identity branch.
fn mixture_branch<const N: usize>(mix: &[UnitaryMixTerm<N>], mut r: f64) -> Option<&SmallMat<N>> {
    let last = mix.len() - 1;
    for (i, term) in mix.iter().enumerate() {
        if r < term.weight || i == last {
            return term.apply.as_ref();
        }
        r -= term.weight;
    }
    None
}

/// Picks a Kraus branch with the uniform draw `r` from the reduced density
/// matrix `rho` of the channel's qubits: branch `i` has probability
/// `Re Tr(K_i†K_i ρ) / Tr ρ`. Returns `K_i/√p_i`, or `None` when the picked
/// branch has (numerically) zero probability, which leaves the state as it
/// was, as the probe loop does.
fn kraus_branch<const N: usize>(
    channel: &KrausChannel<N>,
    rho: &SmallMat<N>,
    mut r: f64,
) -> Option<SmallMat<N>> {
    let trace = rho.trace().re;
    let last = channel.operators().len() - 1;
    for (i, k) in channel.operators().iter().enumerate() {
        let p = trace_of_product(&(k.dagger() * *k), rho) / trace;
        if r < p || i == last {
            return (p > 1e-300).then(|| k.scale(1.0 / p.sqrt()));
        }
        r -= p;
    }
    None
}

/// `Re Tr(a·b)`, without forming the product.
fn trace_of_product<const N: usize>(a: &SmallMat<N>, b: &SmallMat<N>) -> f64 {
    let mut acc = 0.0;
    for j in 0..N {
        for k in 0..N {
            let (x, y) = (a[(j, k)], b[(k, j)]);
            acc += x.re * y.re - x.im * y.im;
        }
    }
    acc
}

/// Stack-allocates a 1Q op's matrix. `Operation` construction shape-checks
/// every unitary, so the conversion is infallible for circuit-borne matrices;
/// the panic merely documents that invariant at the sim boundary.
pub(crate) fn op_mat2(matrix: &qmath::CMatrix) -> Mat2 {
    Mat2::try_from(matrix).expect("1Q operation carries a 2x2 matrix")
}

/// Stack-allocates a 2Q op's matrix (see [`op_mat2`]).
pub(crate) fn op_mat4(matrix: &qmath::CMatrix) -> Mat4 {
    Mat4::try_from(matrix).expect("2Q operation carries a 4x4 matrix")
}

/// Converts one circuit operation's unitary into its stack-allocated kernel —
/// the single lowering rule shared by the noisy and ideal constructors.
fn lower_kind(op: &circuit::Operation) -> PrecompiledKind {
    match op.kind() {
        OpKind::Unitary1Q { matrix, .. } => PrecompiledKind::Unitary1Q {
            matrix: op_mat2(matrix),
            qubit: op.qubits()[0],
        },
        OpKind::Unitary2Q { matrix, .. } => PrecompiledKind::Unitary2Q {
            matrix: op_mat4(matrix),
            q0: op.qubits()[0],
            q1: op.qubits()[1],
        },
        OpKind::Measure | OpKind::Barrier => PrecompiledKind::Silent,
    }
}

/// Reorders a two-qubit kernel defined on `(q1, q0)` into the equivalent
/// kernel on `(q0, q1)` by swapping the tensor factors:
/// `out[(i, j)] = m[(perm(i), perm(j))]` with `perm` exchanging the two bits
/// of the 2-bit index.
fn swap_tensor_factors(m: &Mat4) -> Mat4 {
    const PERM: [usize; 4] = [0, 2, 1, 3];
    Mat4::from_fn(|r, c| m[(PERM[r], PERM[c])])
}

/// Embeds a one-qubit kernel acting on `q` into the 4×4 space of the ordered
/// pair `(q0, q1)` (`q0` is the most significant qubit).
///
/// # Panics
/// Panics if `q` is in neither slot (callers check adjacency first).
fn embed_in_pair(m: &Mat2, q: QubitId, q0: QubitId, q1: QubitId) -> Mat4 {
    if q == q0 {
        m.kron(&Mat2::identity())
    } else {
        assert_eq!(q, q1, "qubit not in the target pair");
        Mat2::identity().kron(m)
    }
}

/// Attempts to combine the kernels of `prev` (applied first) and `cur`
/// (applied second) into one kernel; `None` when they are not fusable
/// (disjoint qubits, a partial pair overlap, or a Silent op).
fn combine_kinds(prev: &PrecompiledKind, cur: &PrecompiledKind) -> Option<PrecompiledKind> {
    use PrecompiledKind::{Silent, Unitary1Q, Unitary2Q};
    match (prev, cur) {
        (
            Unitary1Q {
                matrix: a,
                qubit: qa,
            },
            Unitary1Q {
                matrix: b,
                qubit: qb,
            },
        ) if qa == qb => Some(Unitary1Q {
            matrix: *b * *a,
            qubit: *qa,
        }),
        (
            Unitary1Q {
                matrix: a,
                qubit: qa,
            },
            Unitary2Q { matrix: b, q0, q1 },
        ) if qa == q0 || qa == q1 => Some(Unitary2Q {
            matrix: *b * embed_in_pair(a, *qa, *q0, *q1),
            q0: *q0,
            q1: *q1,
        }),
        (
            Unitary2Q { matrix: a, q0, q1 },
            Unitary1Q {
                matrix: b,
                qubit: qb,
            },
        ) if qb == q0 || qb == q1 => Some(Unitary2Q {
            matrix: embed_in_pair(b, *qb, *q0, *q1) * *a,
            q0: *q0,
            q1: *q1,
        }),
        (
            Unitary2Q {
                matrix: a,
                q0: p0,
                q1: p1,
            },
            Unitary2Q { matrix: b, q0, q1 },
        ) if (q0, q1) == (p0, p1) => Some(Unitary2Q {
            matrix: *b * *a,
            q0: *p0,
            q1: *p1,
        }),
        (
            Unitary2Q {
                matrix: a,
                q0: p0,
                q1: p1,
            },
            Unitary2Q { matrix: b, q0, q1 },
        ) if (q0, q1) == (p1, p0) => Some(Unitary2Q {
            matrix: swap_tensor_factors(b) * *a,
            q0: *p0,
            q1: *p1,
        }),
        (_, Silent) | (Silent, _) => None,
        _ => None,
    }
}

/// The qubits a kernel touches, or `None` for [`PrecompiledKind::Silent`].
fn kind_qubits(kind: &PrecompiledKind) -> Option<(QubitId, Option<QubitId>)> {
    match kind {
        PrecompiledKind::Unitary1Q { qubit, .. } => Some((*qubit, None)),
        PrecompiledKind::Unitary2Q { q0, q1, .. } => Some((*q0, Some(*q1))),
        PrecompiledKind::Silent => None,
    }
}

/// True when the qubit set `(a, b)` shares no qubit with `set`.
fn disjoint_from(set: &[QubitId], (a, b): (QubitId, Option<QubitId>)) -> bool {
    !set.contains(&a) && b.is_none_or(|b| !set.contains(&b))
}

/// True when two kernel qubit sets share a qubit.
fn qubits_overlap(a: (QubitId, Option<QubitId>), b: (QubitId, Option<QubitId>)) -> bool {
    let contains = |set: (QubitId, Option<QubitId>), q: QubitId| set.0 == q || set.1 == Some(q);
    contains(a, b.0) || b.1.is_some_and(|q| contains(a, q))
}

/// The greedy fusion pass.
///
/// For each incoming op the pass scans backward through the output for an op
/// touching its qubits that can legally move forward to it: every op in
/// between must commute with the candidate, which the scan tracks as the
/// `blocked` set of qubits touched since (disjoint unitaries commute, so
/// fusing across them is exact — this is what lets a layered circuit's
/// rotation layer fuse into the entangler layer that follows it, even with
/// other entanglers in between). The scan stops at any op that draws
/// randomness and at measurements and barriers; a candidate whose qubits
/// intersect `blocked` (or whose kernel shape cannot combine) is itself added
/// to `blocked` and the scan continues deeper.
///
/// The fused op keeps the *later* op's channels (under `Safe` the earlier
/// op's identity channels are dropped — they consumed no RNG), so the channel
/// application order of a trajectory is unchanged. With `aggressive` set, the
/// scan no longer stops at RNG-consuming ops: an absorbed op's real channels
/// move, with their frames, ahead of the absorbing op's pending list, and
/// each frame crosses the absorbing kernel ([`carry`]). A channel's frame `V`
/// is the product of the kernels it has been commuted past, so an absorption
/// costs one small-matrix product per channel and never touches a Kraus
/// operator. The one crossing a frame cannot take, a two-qubit frame sharing
/// exactly one qubit with a two-qubit kernel, declines the fusion before
/// anything moves ([`can_carry`]). When the scan ends, each output op's
/// channels are conjugated by their frames once ([`Carried::materialize`])
/// and composed once ([`compress_carried`]). Returns the fused list and the
/// number of ops eliminated.
fn fuse_ops(ops: Vec<PrecompiledOp>, aggressive: bool) -> (Vec<PrecompiledOp>, usize) {
    let mut out: Vec<PrecompiledOp> = Vec::with_capacity(ops.len());
    // `pending[i]`: the channels `out[i]` carries, still lazy. Without
    // `aggressive` every list stays empty.
    let mut pending: Vec<Vec<Carried>> = Vec::with_capacity(ops.len());
    let mut fused = 0usize;
    for op in ops {
        let mut cur = op;
        let mut cur_pending = Vec::new();
        // Each successful fuse can widen `cur`'s qubit set (1q absorbed into
        // 2q), so restart the backward scan until nothing more absorbs.
        'retry: while let Some(cur_q) = kind_qubits(&cur.kind) {
            let mut blocked: Vec<QubitId> = Vec::new();
            for i in (0..out.len()).rev() {
                let prev = &out[i];
                if !aggressive && !prev.consumes_no_rng() {
                    break 'retry;
                }
                let Some(prev_q) = kind_qubits(&prev.kind) else {
                    break 'retry;
                };
                if qubits_overlap(cur_q, prev_q)
                    && disjoint_from(&blocked, prev_q)
                    && can_carry(prev, &pending[i], &cur.kind)
                {
                    if let Some(kind) = combine_kinds(&prev.kind, &cur.kind) {
                        // The absorbed op's channels cross `cur`'s
                        // *pre-fusion* kernel — the unitary they now have to
                        // commute past.
                        let mut carried = carry(out.remove(i), pending.remove(i), &cur.kind);
                        carried.append(&mut cur_pending);
                        cur_pending = carried;
                        cur.kind = kind;
                        fused += 1;
                        continue 'retry;
                    }
                }
                blocked.push(prev_q.0);
                blocked.extend(prev_q.1);
                // Once every one of cur's qubits is blocked, no deeper op can
                // still commute its way forward.
                if !disjoint_from(&blocked, (cur_q.0, None))
                    && cur_q.1.is_none_or(|q| !disjoint_from(&blocked, (q, None)))
                {
                    break 'retry;
                }
            }
            break;
        }
        out.push(cur);
        pending.push(cur_pending);
    }
    for (op, carried) in out.iter_mut().zip(pending) {
        op.carried = compress_carried(carried.into_iter().map(Carried::materialize).collect());
    }
    (out, fused)
}

/// True when every channel `prev` would carry — its pending ones and its
/// depolarizing channel — can cross `kernel`. The one crossing that blocks
/// a fusion is a two-qubit frame sharing exactly one qubit with a two-qubit
/// kernel: its conjugate would act on three qubits.
fn can_carry(prev: &PrecompiledOp, pending: &[Carried], kernel: &PrecompiledKind) -> bool {
    let own = match &prev.depolarizing {
        Some(AttachedChannel::Two { q0, q1, .. }) => !overlaps_partially((*q0, *q1), kernel),
        Some(AttachedChannel::One { .. }) | None => true,
    };
    own && pending.iter().all(|carried| carried.can_cross(kernel))
}

/// Moves `prev`'s real (non-identity) channels — `pending`, depolarizing,
/// relaxation, in trajectory order — out of it, each frame crossed past
/// `kernel`, so they can be carried after the fused kernel. Callers check
/// [`can_carry`] first.
fn carry(prev: PrecompiledOp, mut pending: Vec<Carried>, kernel: &PrecompiledKind) -> Vec<Carried> {
    let depolarizing = prev
        .depolarizing
        .into_iter()
        .filter(|channel| !channel.is_identity())
        .map(|channel| match channel {
            AttachedChannel::One { channel, qubit } => Carried::one(channel, qubit),
            AttachedChannel::Two { channel, q0, q1 } => Carried::Two {
                channel,
                frame: PairFrame {
                    v: Mat4::identity(),
                    q0,
                    q1,
                },
            },
        });
    let relaxation = prev
        .relaxation
        .into_iter()
        .filter(|(_, channel)| !channel.is_identity())
        .map(|(qubit, channel)| Carried::one(channel, qubit));
    pending.extend(depolarizing.chain(relaxation));
    for channel in &mut pending {
        channel.cross(kernel);
    }
    pending
}

/// A channel carried by [`FusionPolicy::Aggressive`] while the fusion scan
/// runs: the Kraus set `{K}` the lowering built, untouched, and the unitary
/// frame `V` it has been commuted past. It stands for `{V K V†}`. A
/// two-qubit channel always has a two-qubit frame.
enum Carried {
    /// A one-qubit channel on `qubit`.
    One {
        channel: Kraus1q,
        qubit: QubitId,
        frame: QubitFrame,
    },
    /// A two-qubit channel on its frame's pair, in the pair's order.
    Two { channel: Kraus2q, frame: PairFrame },
}

/// The frame of a one-qubit channel: a `Mat2` on its qubit until a two-qubit
/// kernel on that qubit crosses it, then a frame on the kernel's pair.
// Most carried channels widen, and every crossing updates the frame in place,
// so the pair frame is kept inline rather than boxed.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Copy)]
enum QubitFrame {
    Qubit(Mat2),
    Pair(PairFrame),
}

/// A frame `V` on the ordered pair `(q0, q1)` (`q0` is the most significant
/// qubit of `V`).
#[derive(Clone, Copy)]
struct PairFrame {
    v: Mat4,
    q0: QubitId,
    q1: QubitId,
}

impl PairFrame {
    /// Commutes the frame past `kernel`: `V ← U·V`, with `U` the kernel on
    /// the pair's coordinates (a one-qubit kernel embedded, a reversed pair's
    /// tensor factors swapped). A disjoint kernel commutes with the channel
    /// and leaves `V` as it is; a partially overlapping one never reaches
    /// here ([`can_carry`]).
    fn cross(&mut self, kernel: &PrecompiledKind) {
        let u = match *kernel {
            PrecompiledKind::Unitary1Q { ref matrix, qubit }
                if qubit == self.q0 || qubit == self.q1 =>
            {
                embed_in_pair(matrix, qubit, self.q0, self.q1)
            }
            PrecompiledKind::Unitary2Q { ref matrix, q0, q1 } if (q0, q1) == (self.q0, self.q1) => {
                *matrix
            }
            PrecompiledKind::Unitary2Q { ref matrix, q0, q1 } if (q0, q1) == (self.q1, self.q0) => {
                swap_tensor_factors(matrix)
            }
            _ => return,
        };
        self.v = u * self.v;
    }
}

/// True when `kernel` is a two-qubit kernel sharing exactly one qubit with
/// the pair.
fn overlaps_partially((a, b): (QubitId, QubitId), kernel: &PrecompiledKind) -> bool {
    match *kernel {
        PrecompiledKind::Unitary2Q { q0, q1, .. } => (a == q0 || a == q1) != (b == q0 || b == q1),
        PrecompiledKind::Unitary1Q { .. } | PrecompiledKind::Silent => false,
    }
}

impl Carried {
    /// A one-qubit channel on `qubit` that has crossed nothing yet.
    fn one(channel: Kraus1q, qubit: QubitId) -> Carried {
        Carried::One {
            channel,
            qubit,
            frame: QubitFrame::Qubit(Mat2::identity()),
        }
    }

    /// True unless the channel has a two-qubit frame that shares exactly one
    /// qubit with `kernel`.
    fn can_cross(&self, kernel: &PrecompiledKind) -> bool {
        match self {
            Carried::One {
                frame: QubitFrame::Pair(frame),
                ..
            }
            | Carried::Two { frame, .. } => !overlaps_partially((frame.q0, frame.q1), kernel),
            Carried::One {
                frame: QubitFrame::Qubit(_),
                ..
            } => true,
        }
    }

    /// Commutes the channel past `kernel` by updating its frame: a one-qubit
    /// frame multiplies by a kernel on its qubit, or widens to a frame on the
    /// pair of a two-qubit kernel that holds its qubit.
    fn cross(&mut self, kernel: &PrecompiledKind) {
        match self {
            Carried::One { qubit, frame, .. } => {
                let qubit = *qubit;
                *frame = match (*frame, kernel) {
                    (
                        QubitFrame::Qubit(v),
                        &PrecompiledKind::Unitary1Q {
                            ref matrix,
                            qubit: q,
                        },
                    ) if q == qubit => QubitFrame::Qubit(*matrix * v),
                    (QubitFrame::Qubit(v), &PrecompiledKind::Unitary2Q { ref matrix, q0, q1 })
                        if q0 == qubit || q1 == qubit =>
                    {
                        QubitFrame::Pair(PairFrame {
                            v: *matrix * embed_in_pair(&v, qubit, q0, q1),
                            q0,
                            q1,
                        })
                    }
                    (QubitFrame::Pair(mut pair), _) => {
                        pair.cross(kernel);
                        QubitFrame::Pair(pair)
                    }
                    (unchanged, _) => unchanged,
                };
            }
            Carried::Two { frame, .. } => frame.cross(kernel),
        }
    }

    /// The channel as it is attached to the fused op: `{V K V†}`, a one-qubit
    /// channel on a pair frame embedded in its slot of the pair first. The
    /// rewritten Kraus set is completeness-checked once, by
    /// [`KrausChannel::new`](crate::KrausChannel::new).
    fn materialize(self) -> AttachedChannel {
        match self {
            Carried::One {
                channel,
                qubit,
                frame: QubitFrame::Qubit(v),
            } => AttachedChannel::One {
                channel: channel.conjugate_by(&v),
                qubit,
            },
            Carried::One {
                channel,
                qubit,
                frame: QubitFrame::Pair(PairFrame { v, q0, q1 }),
            } => {
                let vd = v.dagger();
                let operators = channel
                    .operators()
                    .iter()
                    .map(|k| v * embed_in_pair(k, qubit, q0, q1) * vd)
                    .collect();
                AttachedChannel::Two {
                    channel: Kraus2q::new(operators),
                    q0,
                    q1,
                }
            }
            Carried::Two {
                channel,
                frame: PairFrame { v, q0, q1 },
            } => AttachedChannel::Two {
                channel: channel.conjugate_by(&v),
                q0,
                q1,
            },
        }
    }
}

/// Upper bound on the Kraus-operator count of a composed carried channel;
/// adjacent same-target channels whose composition would exceed it stay
/// separate (each then costs one RNG draw instead of one combined draw).
const MAX_COMPOSED_KRAUS: usize = 64;

/// The qubit set an attached channel acts on.
fn attached_qubits(ch: &AttachedChannel) -> (QubitId, Option<QubitId>) {
    match ch {
        AttachedChannel::One { qubit, .. } => (*qubit, None),
        AttachedChannel::Two { q0, q1, .. } => (*q0, Some(*q1)),
    }
}

/// Composes adjacent same-target carried channels to bound the RNG draws per
/// fused kernel. Each incoming channel scans backward across channels on
/// disjoint qubits (which commute with it) for one on the same target; a
/// merge is taken only while the composed Kraus set stays within
/// [`MAX_COMPOSED_KRAUS`] operators.
fn compress_carried(channels: Vec<AttachedChannel>) -> Vec<AttachedChannel> {
    let mut out: Vec<AttachedChannel> = Vec::with_capacity(channels.len());
    'next: for ch in channels {
        for slot in out.iter_mut().rev() {
            if let Some(merged) = merge_same_target(slot, &ch) {
                *slot = merged;
                continue 'next;
            }
            if qubits_overlap(attached_qubits(slot), attached_qubits(&ch)) {
                break;
            }
        }
        out.push(ch);
    }
    out
}

/// Composes `later ∘ earlier` when both channels act on the same target
/// (including a reversed 2q pair) and the composed operator count stays
/// within [`MAX_COMPOSED_KRAUS`].
fn merge_same_target(
    earlier: &AttachedChannel,
    later: &AttachedChannel,
) -> Option<AttachedChannel> {
    let fits = |a: usize, b: usize| a * b <= MAX_COMPOSED_KRAUS;
    match (earlier, later) {
        (
            AttachedChannel::One { channel: a, qubit },
            AttachedChannel::One {
                channel: b,
                qubit: qb,
            },
        ) if qubit == qb && fits(a.operators().len(), b.operators().len()) => {
            Some(AttachedChannel::One {
                channel: a.then(b),
                qubit: *qubit,
            })
        }
        (
            AttachedChannel::Two { channel: a, q0, q1 },
            AttachedChannel::Two {
                channel: b,
                q0: b0,
                q1: b1,
            },
        ) if fits(a.operators().len(), b.operators().len()) => {
            if (b0, b1) == (q0, q1) {
                Some(AttachedChannel::Two {
                    channel: a.then(b),
                    q0: *q0,
                    q1: *q1,
                })
            } else if (b0, b1) == (q1, q0) {
                Some(AttachedChannel::Two {
                    channel: a.then(&b.swap_factors()),
                    q0: *q0,
                    q1: *q1,
                })
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Samples and applies one Kraus operator of a single-qubit channel.
///
/// Channels that are probabilistic unitary mixtures (`K†K = λI` for every
/// operator — depolarizing, dephasing, and their fused compositions) take a
/// fast path: the branch probabilities are state-independent, so one draw
/// picks a branch and at most one in-place sweep applies it, with no per-probe
/// state clone or renormalization. General channels fall back to the exact
/// probe loop.
pub(crate) fn apply_channel_1q<R: Rng + ?Sized>(
    state: &mut StateVector,
    channel: &Kraus1q,
    q: usize,
    rng: &mut R,
) {
    if channel.is_identity() {
        return;
    }
    let mut r: f64 = rng.gen_range(0.0..1.0);
    if let Some(mix) = channel.unitary_mix() {
        if let Some(u) = mixture_branch(mix, r) {
            state.apply_one_qubit(u, q);
        }
        return;
    }
    let last = channel.operators().len() - 1;
    for (i, k) in channel.operators().iter().enumerate() {
        let mut probe = state.clone();
        probe.apply_one_qubit(k, q);
        let p = probe.norm_sqr();
        if r < p || i == last {
            if p > 1e-300 {
                probe.normalize();
                *state = probe;
            }
            return;
        }
        r -= p;
    }
}

/// Samples and applies one Kraus operator of a two-qubit channel (same
/// unitary-mixture fast path as [`apply_channel_1q`]).
pub(crate) fn apply_channel_2q<R: Rng + ?Sized>(
    state: &mut StateVector,
    channel: &Kraus2q,
    q0: usize,
    q1: usize,
    rng: &mut R,
) {
    if channel.is_identity() {
        return;
    }
    let mut r: f64 = rng.gen_range(0.0..1.0);
    if let Some(mix) = channel.unitary_mix() {
        if let Some(u) = mixture_branch(mix, r) {
            state.apply_two_qubit(u, q0, q1);
        }
        return;
    }
    let last = channel.operators().len() - 1;
    for (i, k) in channel.operators().iter().enumerate() {
        let mut probe = state.clone();
        probe.apply_two_qubit(k, q0, q1);
        let p = probe.norm_sqr();
        if r < p || i == last {
            if p > 1e-300 {
                probe.normalize();
                *state = probe;
            }
            return;
        }
        r -= p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::Operation;
    use device::DeviceModel;
    use qmath::RngSeed;

    fn bell_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(Operation::h(0));
        c.push(Operation::cnot(0, 1));
        c.measure_all();
        c
    }

    #[test]
    fn lowering_preserves_op_structure() {
        let device = DeviceModel::aspen8(RngSeed(1));
        let noise = NoiseModel::from_device(&device);
        let pre = PrecompiledCircuit::new(&bell_circuit(), &noise);
        assert_eq!(pre.num_qubits(), 2);
        assert_eq!(pre.ops().len(), 3);
        assert!(matches!(
            pre.ops()[0].kind,
            PrecompiledKind::Unitary1Q { qubit: 0, .. }
        ));
        assert!(matches!(
            pre.ops()[1].kind,
            PrecompiledKind::Unitary2Q { q0: 0, q1: 1, .. }
        ));
        assert!(matches!(pre.ops()[2].kind, PrecompiledKind::Silent));
        // Noisy device: channels were prebuilt.
        assert!(pre.ops()[1].depolarizing.is_some());
        assert!(!pre.is_noiseless());
        assert_eq!(pre.fusion(), FusionPolicy::Off);
        assert_eq!(pre.fused_ops(), 0);
    }

    #[test]
    fn ideal_lowering_is_noiseless() {
        let pre = PrecompiledCircuit::ideal(&bell_circuit());
        assert!(pre.is_noiseless());
        assert!(pre.readout_error().iter().all(|&p| p == 0.0));
        assert!(pre.ops().iter().all(|op| op.depolarizing.is_none()));
    }

    #[test]
    fn noiseless_model_lowering_is_noiseless() {
        let device = DeviceModel::ideal(2, 1.0);
        let noise = NoiseModel::noiseless(&device);
        let pre = PrecompiledCircuit::new(&bell_circuit(), &noise);
        assert!(pre.is_noiseless());
    }

    #[test]
    fn trajectory_matches_direct_statevector_when_noiseless() {
        let pre = PrecompiledCircuit::ideal(&bell_circuit());
        let mut rng = RngSeed(3).rng();
        let state = pre.run_trajectory(&mut rng);
        let p = state.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[3] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sample_shot_stays_in_range() {
        let device = DeviceModel::aspen8(RngSeed(4));
        let noise = NoiseModel::from_device(&device);
        let pre = PrecompiledCircuit::new(&bell_circuit(), &noise);
        let mut rng = RngSeed(5).rng();
        for _ in 0..50 {
            assert!(pre.sample_shot(&mut rng) < 4);
        }
    }

    #[test]
    fn ideal_fusion_collapses_the_bell_circuit_to_one_kernel() {
        // H(0); CNOT(0,1); measure — the H absorbs into the CNOT.
        let pre = PrecompiledCircuit::ideal_with_fusion(&bell_circuit(), FusionPolicy::Safe);
        assert_eq!(pre.fused_ops(), 1);
        assert_eq!(pre.ops().len(), 2); // fused kernel + Silent measure
        let expected = gates::standard::cnot() * gates::standard::h().kron(&Mat2::identity());
        match &pre.ops()[0].kind {
            PrecompiledKind::Unitary2Q {
                matrix,
                q0: 0,
                q1: 1,
            } => {
                assert!(matrix.approx_eq(&expected, 1e-12));
            }
            other => panic!("expected a fused 2Q kernel, got {other:?}"),
        }
        let state = pre.run_trajectory(&mut RngSeed(1).rng());
        let p = state.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[3] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fusion_handles_runs_and_reversed_pairs() {
        let mut c = Circuit::new(3);
        c.push(Operation::rx(0, 0.3));
        c.push(Operation::rz(0, 0.7)); // 1q run on qubit 0
        c.push(Operation::h(1));
        c.push(Operation::cnot(0, 1)); // absorbs H(1), then the rx/rz run
        c.push(Operation::cnot(1, 0)); // reversed pair: still fuses
        c.push(Operation::x(2)); // disjoint qubit: fused across, not into
        c.push(Operation::cnot(0, 1));
        let pre = PrecompiledCircuit::ideal_with_fusion(&c, FusionPolicy::Safe);
        // rx, rz, h, cnot(0,1), cnot(1,0) collapse into one kernel, and the
        // final cnot fuses across the disjoint x(2) into it; x(2) survives.
        assert_eq!(pre.fused_ops(), 5);
        assert_eq!(pre.ops().len(), 2);
        // Agreement with the unfused lowering.
        let unfused = PrecompiledCircuit::ideal(&c);
        let a = pre.run_trajectory(&mut RngSeed(2).rng());
        let b = unfused.run_trajectory(&mut RngSeed(2).rng());
        for i in 0..8 {
            assert!((a.amplitude(i) - b.amplitude(i)).norm() < 1e-12);
        }
    }

    #[test]
    fn safe_fusion_never_crosses_noise() {
        // Real calibration noise on every op: nothing may fuse, and the
        // lowered ops must equal the unfused lowering exactly.
        let device = DeviceModel::aspen8(RngSeed(7));
        let noise = NoiseModel::from_device(&device);
        let fused = PrecompiledCircuit::with_fusion(&bell_circuit(), &noise, FusionPolicy::Safe);
        let unfused = PrecompiledCircuit::new(&bell_circuit(), &noise);
        assert_eq!(fused.fused_ops(), 0);
        assert_eq!(fused.ops(), unfused.ops());
    }

    #[test]
    fn fused_one_qubit_noise_keeps_its_target_qubit() {
        // 2q-error-only noise: 1q gates are noise-free and absorb into the
        // CNOT, whose 2q channel survives on the fused kernel.
        let device = DeviceModel::ideal(2, 0.9);
        let mut noise = NoiseModel::from_device(&device);
        noise.with_relaxation = false;
        noise.with_readout_error = false;
        let fused = PrecompiledCircuit::with_fusion(&bell_circuit(), &noise, FusionPolicy::Safe);
        assert_eq!(fused.fused_ops(), 1);
        let op = &fused.ops()[0];
        assert!(matches!(
            op.kind,
            PrecompiledKind::Unitary2Q { q0: 0, q1: 1, .. }
        ));
        assert!(matches!(
            op.depolarizing,
            Some(AttachedChannel::Two { q0: 0, q1: 1, .. })
        ));
    }

    /// An RNG that counts the 64-bit words it hands out.
    struct CountingRng<R> {
        inner: R,
        words: usize,
    }

    impl<R: rand::RngCore> rand::RngCore for CountingRng<R> {
        fn next_u32(&mut self) -> u32 {
            self.words += 1;
            self.inner.next_u32()
        }
        fn next_u64(&mut self) -> u64 {
            self.words += 1;
            self.inner.next_u64()
        }
    }

    /// A layered circuit of at least 300 ops on the first `n` qubits of
    /// Aspen-8 under its calibrated noise (depolarizing, relaxation and
    /// readout): random U3 layers between brick layers of CZ, reversed CNOT
    /// and ZZ, then a measurement of every qubit.
    fn calibrated_circuit(n: usize) -> (Circuit, NoiseModel) {
        let mut rng = RngSeed(n as u64).rng();
        let mut c = Circuit::new(n);
        let mut layer = 0;
        while c.len() < 300 {
            for q in 0..n {
                let [a, b, l] = [(); 3].map(|()| rng.gen_range(0.0..std::f64::consts::TAU));
                c.push(Operation::u3(q, a, b, l));
            }
            for q in (layer % 2..n - 1).step_by(2) {
                c.push(match layer % 3 {
                    0 => Operation::cz(q, q + 1),
                    1 => Operation::cnot(q + 1, q),
                    _ => Operation::zz(q, q + 1, 0.4),
                });
            }
            layer += 1;
        }
        c.measure_all();
        let noise = NoiseModel::from_device(&DeviceModel::aspen8(RngSeed(5)));
        assert!(noise.with_relaxation);
        (c, noise)
    }

    /// Runs `ops` from `|0…0⟩` through `apply` with a counting RNG seeded
    /// by `seed`, returning the final state and the words drawn.
    fn run_ops(
        ops: &[PrecompiledOp],
        n: usize,
        seed: u64,
        apply: fn(&[PrecompiledOp], &mut StateVector, &mut dyn rand::RngCore),
    ) -> (StateVector, usize) {
        let mut rng = CountingRng {
            inner: RngSeed(seed).rng(),
            words: 0,
        };
        let mut state = StateVector::zero_state(n);
        apply(ops, &mut state, &mut rng);
        (state, rng.words)
    }

    /// The per-channel loop, op by op.
    fn per_channel(ops: &[PrecompiledOp], state: &mut StateVector, rng: &mut dyn rand::RngCore) {
        for op in ops {
            apply_op(op, state, rng, 1, usize::MAX);
        }
    }

    /// The pair runs, serial.
    fn pair_runs(ops: &[PrecompiledOp], state: &mut StateVector, rng: &mut dyn rand::RngCore) {
        apply_pair_runs(ops, state, rng, 1, usize::MAX);
    }

    /// Asserts that pair runs and the per-channel loop draw the same words
    /// and agree to 1e-10 on `ops` for each seed, with the norm within 1e-10
    /// of 1.
    fn assert_pair_runs_match(
        ops: &[PrecompiledOp],
        n: usize,
        seeds: std::ops::Range<u64>,
        label: &str,
    ) {
        for seed in seeds {
            let (expected, expected_words) = run_ops(ops, n, seed, per_channel);
            let (folded, words) = run_ops(ops, n, seed, pair_runs);
            assert!(expected_words > 0, "{label}: the ops draw no randomness");
            assert_eq!(
                words, expected_words,
                "{label}, seed {seed}: draw counts differ"
            );
            for i in 0..1 << n {
                let diff = (folded.amplitude(i) - expected.amplitude(i)).norm();
                assert!(
                    diff < 1e-10,
                    "{label}, seed {seed}: amplitude {i} differs by {diff}"
                );
            }
            let drift = (folded.norm_sqr() - 1.0).abs();
            assert!(
                drift < 1e-10,
                "{label}, seed {seed}: norm drifted by {drift}"
            );
        }
    }

    #[test]
    fn folded_steps_match_the_per_channel_loop() {
        // The same lowered ops through the pair runs and through
        // apply_channel_1q/2q, with identically seeded RNGs, at the width
        // where trajectories switch to pair runs and above it.
        for n in [FOLD_MIN_QUBITS, FOLD_MIN_QUBITS + 2] {
            let (circuit, noise) = calibrated_circuit(n);
            for policy in [
                FusionPolicy::Off,
                FusionPolicy::Safe,
                FusionPolicy::Aggressive,
            ] {
                let pre = PrecompiledCircuit::with_fusion(&circuit, &noise, policy);
                assert_pair_runs_match(pre.ops(), n, 0..3, &format!("n = {n}, {policy:?}"));
            }
        }
    }

    /// A lowered op with the given kernel and channels.
    fn op(
        kind: PrecompiledKind,
        carried: Vec<AttachedChannel>,
        relaxation: Vec<(QubitId, Kraus1q)>,
    ) -> PrecompiledOp {
        PrecompiledOp {
            kind,
            carried,
            depolarizing: None,
            relaxation,
        }
    }

    /// Hand-built ops on a 7-qubit register: a run on the pair (2, 3) that
    /// starts with one-qubit ops on both qubits and holds a reversed
    /// two-qubit kernel, a reversed two-qubit Kraus channel mid-run, identity
    /// channels and a measurement's relaxations, then runs elsewhere.
    fn hand_built_ops() -> Vec<PrecompiledOp> {
        use gates::standard;
        let relax = crate::channels::thermal_relaxation(3000.0, 20.0, 15.0);
        let identity = Kraus1q::identity();
        let u1 = |matrix, qubit| PrecompiledKind::Unitary1Q { matrix, qubit };
        let u2 = |matrix, q0, q1| PrecompiledKind::Unitary2Q { matrix, q0, q1 };
        let one = |channel: &Kraus1q, qubit| AttachedChannel::One {
            channel: channel.clone(),
            qubit,
        };
        let two = |channel: Kraus2q, q0, q1| AttachedChannel::Two { channel, q0, q1 };
        let dense = *gates::GateType::syc().unitary() * standard::h().kron(&standard::rx(0.8));
        vec![
            op(
                u1(standard::u3(1.1, 0.2, 0.4), 2),
                vec![],
                vec![(2, relax.clone())],
            ),
            op(
                u1(standard::ry(2.0), 3),
                vec![],
                vec![(3, identity.clone())],
            ),
            // The run's pair is (2, 3), so this kernel and the first carried
            // channel are reversed.
            op(
                u2(dense, 3, 2),
                vec![
                    two(relax.embed_msb(), 3, 2),
                    one(&identity, 2),
                    two(crate::channels::depolarizing_2q(0.2), 2, 3),
                ],
                vec![(3, relax.clone()), (2, relax.clone())],
            ),
            op(u1(standard::rx(0.7), 3), vec![], vec![(3, relax.clone())]),
            op(
                PrecompiledKind::Silent,
                vec![],
                vec![(2, relax.clone()), (3, relax.clone()), (5, relax.clone())],
            ),
            op(
                u2(dense, 5, 6),
                vec![one(&identity, 5)],
                vec![(6, relax.clone())],
            ),
            op(u1(standard::h(), 0), vec![], vec![(0, relax)]),
        ]
    }

    #[test]
    fn hand_built_pair_runs_match_the_per_channel_loop() {
        let ops = hand_built_ops();
        let runs = |ops: &[PrecompiledOp]| {
            let mut items = ops.iter().flat_map(PrecompiledOp::items);
            std::iter::from_fn(|| {
                let run = next_run(items.clone())?;
                items.by_ref().take(run.len).for_each(drop);
                Some(run)
            })
            .collect::<Vec<_>>()
        };
        let pair = |len, q0, q1| PairRun { len, q0, q1 };
        // Identity channels are no items; the measurement's relaxations on 2
        // and 3 extend the first run and the one on 5 starts the next.
        assert_eq!(
            runs(&ops),
            [pair(12, 2, Some(3)), pair(3, 5, Some(6)), pair(2, 0, None)]
        );
        assert_pair_runs_match(&ops, FOLD_MIN_QUBITS, 0..40, "hand-built runs");
    }

    #[test]
    fn trajectories_fold_from_the_threshold_width() {
        // Below the threshold a trajectory is the per-channel loop bit for
        // bit; from it on it is the pair runs, which agree with the loop to
        // rounding.
        for n in [FOLD_MIN_QUBITS - 1, FOLD_MIN_QUBITS] {
            let (circuit, noise) = calibrated_circuit(n);
            let pre = PrecompiledCircuit::with_fusion(&circuit, &noise, FusionPolicy::Safe);
            let trajectory = pre.run_trajectory(&mut RngSeed(7).rng());
            let (per_channel, _) = run_ops(pre.ops(), n, 7, per_channel);
            if n < FOLD_MIN_QUBITS {
                assert_eq!(trajectory, per_channel, "n = {n}");
                continue;
            }
            let (folded, _) = run_ops(pre.ops(), n, 7, pair_runs);
            assert_eq!(trajectory, folded, "n = {n}");
            for i in 0..1 << n {
                let diff = (trajectory.amplitude(i) - per_channel.amplitude(i)).norm();
                assert!(diff < 1e-10, "n = {n}: amplitude {i} differs by {diff}");
            }
        }
    }

    #[test]
    fn kernel_steps_take_the_channels_on_their_qubits() {
        // Unfused, every channel of a unitary op lies on the kernel's qubits
        // (CNOT(2, 1)'s as well), so each op's items make one run; the
        // measurement has no kernel, and its three relaxations, one per
        // qubit, make a pair run and a one-qubit run.
        let (circuit, noise) = calibrated_circuit(3);
        let pre = PrecompiledCircuit::new(&circuit, &noise);
        let (measure, unitaries) = pre.ops().split_last().expect("the circuit has ops");
        for op in unitaries {
            let run = next_run(op.items()).expect("a unitary op has a kernel");
            assert_eq!(run.len, op.items().count(), "{:?}", op.kind);
            let (q0, q1) = kind_qubits(&op.kind).expect("a unitary op has qubits");
            assert_eq!((run.q0, run.q1), (q0, q1), "{:?}", op.kind);
        }
        assert!(matches!(measure.kind, PrecompiledKind::Silent));
        let run = next_run(measure.items()).expect("the measurement relaxes");
        assert_eq!(
            run,
            PairRun {
                len: 2,
                q0: 0,
                q1: Some(1)
            }
        );
        assert_eq!(
            next_run(measure.items().skip(2)).map(|run| run.len),
            Some(1)
        );
    }

    #[test]
    fn pair_steps_place_reversed_and_outside_channels() {
        // A Kraus2q on the reversed pair joins a (3, 5) run as Reversed and a
        // 1q channel on 5 as Second; a channel on any other qubit ends the
        // run and starts one of its own.
        let relax = crate::channels::thermal_relaxation(400.0, 20.0, 15.0);
        let on_pair = relax.embed_msb();
        assert!(matches!(
            OpChannel::Two(&on_pair, 5, 3).in_pair(3),
            PairChannel::Reversed(_)
        ));
        assert!(matches!(
            OpChannel::One(&relax, 5).in_pair(3),
            PairChannel::Second(_)
        ));
        let kernel = gates::standard::cnot();
        let items = [
            Item::Kernel2(&kernel, 3, 5),
            Item::Channel(OpChannel::Two(&on_pair, 5, 3)),
            Item::Channel(OpChannel::One(&relax, 4)),
            Item::Channel(OpChannel::Two(&on_pair, 3, 4)),
        ];
        let run = |from: usize| next_run(items[from..].iter().copied());
        assert_eq!(
            run(0),
            Some(PairRun {
                len: 2,
                q0: 3,
                q1: Some(5)
            })
        );
        assert_eq!(
            run(2),
            Some(PairRun {
                len: 2,
                q0: 4,
                q1: Some(3)
            })
        );
        assert_eq!(run(4), None);
    }

    #[test]
    fn lifted_branches_match_restated_channels() {
        // Picking a branch of a 1q channel from the traced-out ρ and lifting
        // it equals picking from ρ with the channel embedded, for every draw.
        let mut state = StateVector::zero_state(2);
        state.apply_one_qubit(&gates::standard::ry(1.1), 0);
        state.apply_two_qubit(&gates::standard::cnot(), 0, 1);
        state.apply_one_qubit(&gates::standard::rx(0.4), 1);
        let rho = state.reduced_density_2q(0, 1);
        let relax = crate::channels::thermal_relaxation(3000.0, 20.0, 15.0);
        let on_pair = relax.embed_msb();
        let cases = [
            (PairChannel::First(&relax), relax.embed_msb()),
            (PairChannel::Second(&relax), relax.embed_lsb()),
            (PairChannel::Reversed(&on_pair), on_pair.swap_factors()),
        ];
        for (placed, restated) in &cases {
            for r in [0.0, 0.3, 0.9, 0.97, 0.995, 0.9999] {
                let lifted = placed.branch(r, || rho);
                let direct = restated.branch(r, || rho);
                match (lifted, direct) {
                    (Some(a), Some(b)) => assert!(a.approx_eq(&b, 1e-12), "{placed:?}, r = {r}"),
                    (a, b) => assert_eq!(a.is_some(), b.is_some(), "{placed:?}, r = {r}"),
                }
            }
        }
    }

    #[test]
    fn carried_frames_widen_cross_and_block_as_stated() {
        let relax = crate::channels::thermal_relaxation(3000.0, 20.0, 15.0);
        let cnot = gates::standard::cnot();
        let pair = |q0, q1| PrecompiledKind::Unitary2Q {
            matrix: cnot,
            q0,
            q1,
        };
        let h = PrecompiledKind::Unitary1Q {
            matrix: gates::standard::h(),
            qubit: 1,
        };
        // A one-qubit frame crosses any kernel; CNOT(0, 1) widens it onto
        // the pair, with the channel in the least significant slot.
        let mut carried = Carried::one(relax.clone(), 1);
        assert!(carried.can_cross(&pair(1, 2)));
        carried.cross(&pair(0, 1));
        for kernel in [pair(0, 1), pair(1, 0), h.clone(), pair(2, 3)] {
            assert!(carried.can_cross(&kernel), "{kernel:?}");
        }
        for kernel in [pair(1, 2), pair(2, 0)] {
            assert!(!carried.can_cross(&kernel), "{kernel:?}");
        }
        carried.cross(&h);
        let expected = relax
            .embed_lsb()
            .conjugate_by(&cnot)
            .conjugate_by(&Mat2::identity().kron(&gates::standard::h()));
        match carried.materialize() {
            AttachedChannel::Two {
                channel,
                q0: 0,
                q1: 1,
            } => {
                for (a, b) in channel.operators().iter().zip(expected.operators()) {
                    assert!(a.approx_eq(b, 1e-12));
                }
            }
            other => panic!("expected a channel on (0, 1), got {other:?}"),
        }
        // An op's own two-qubit depolarizing channel blocks the same way.
        let noisy = PrecompiledOp {
            kind: pair(0, 1),
            carried: Vec::new(),
            depolarizing: Some(AttachedChannel::Two {
                channel: crate::channels::depolarizing_2q(0.1),
                q0: 0,
                q1: 1,
            }),
            relaxation: Vec::new(),
        };
        assert!(can_carry(&noisy, &[], &pair(1, 0)));
        assert!(!can_carry(&noisy, &[], &pair(1, 2)));
    }

    #[test]
    fn swap_tensor_factors_matches_swap_conjugation() {
        let syc = gates::GateType::syc();
        let reordered = swap_tensor_factors(syc.unitary());
        let swap = gates::standard::swap();
        let conjugated = swap * *syc.unitary() * swap;
        assert!(reordered.approx_eq(&conjugated, 1e-12));
    }
}
