//! Semantic rules over lowered simulation kernels.
//!
//! The simulator lowers circuits into streams of `Mat2`/`Mat4` kernels with
//! attached Kraus channels (and optionally fuses adjacent kernels). This
//! module defines a neutral, simulator-independent view of such a stream —
//! [`KernelOp`] — and the rules, run by
//! [`Verifier::semantic`](crate::Verifier::semantic) in this order, that
//! prove a stream is semantically sound:
//!
//! 1. `kernel/unitarity`: every kernel unitary;
//! 2. `channel/kraus-completeness`: every channel trace-preserving;
//! 3. `fusion/rng-order`: a `Safe`-fused stream consuming randomness in
//!    exactly the order of its unfused baseline;
//! 4. `channel/composition`: an `Aggressive`-fused stream's composed
//!    channels tightly trace-preserving, with no more draws than the
//!    baseline;
//! 5. `fusion/equivalence`: a fused stream equivalent to its baseline (up to
//!    global phase).

use qmath::{Complex, Mat2, Mat4, SmallMat};

use crate::diagnostic::Diagnostic;
use crate::rule::TOLERANCE;

/// Widest register (in qubits) the `fusion/equivalence` spot check
/// propagates a probe state through; wider registers are skipped with an
/// info finding.
const EQUIVALENCE_MAX_QUBITS: usize = 16;

/// Completeness tolerance for *composed* channels (`channel/composition`):
/// conjugation and composition preserve trace preservation exactly in exact
/// arithmetic, so drift beyond rounding noise indicates broken carry math.
const COMPOSED_TOLERANCE: f64 = 1e-9;

/// The unitary kernel of one lowered operation.
#[derive(Debug, Clone, Copy)]
pub enum KernelKind {
    /// A one-qubit kernel applied to `qubit`.
    One {
        /// The 2×2 kernel matrix.
        matrix: Mat2,
        /// Target qubit.
        qubit: usize,
    },
    /// A two-qubit kernel applied to the ordered pair `(q0, q1)`;
    /// `q0` indexes the most significant factor of the 4×4 matrix.
    Two {
        /// The 4×4 kernel matrix.
        matrix: Mat4,
        /// Most significant target qubit.
        q0: usize,
        /// Least significant target qubit.
        q1: usize,
    },
    /// No unitary action (barriers, measurements, identity placeholders).
    Silent,
}

/// The Kraus operators of one attached channel.
#[derive(Debug, Clone)]
pub enum ChannelKraus {
    /// A one-qubit channel.
    One(Vec<Mat2>),
    /// A two-qubit channel.
    Two(Vec<Mat4>),
}

/// A noise channel attached to a lowered operation.
#[derive(Debug, Clone)]
pub struct ChannelView {
    /// The qubits the channel acts on (one or two entries).
    pub qubits: Vec<usize>,
    /// The channel's Kraus operators.
    pub kraus: ChannelKraus,
    /// Whether sampling this channel consumes a random draw at run time
    /// (identity channels are skipped by the simulator and draw nothing).
    pub consumes_rng: bool,
}

/// One lowered operation: a kernel plus its attached channels, tagged with
/// its index in the stream so findings carry exact spans.
#[derive(Debug, Clone)]
pub struct KernelOp {
    /// Position of this op in its stream.
    pub index: usize,
    /// The unitary kernel.
    pub kind: KernelKind,
    /// Channels applied after the kernel, in draw order.
    pub channels: Vec<ChannelView>,
}

/// A lowered kernel stream under verification, with an optional unfused
/// baseline stream for fusion-preservation rules.
#[derive(Debug, Clone, Copy)]
pub struct KernelArtifact<'a> {
    /// Register width in qubits.
    pub num_qubits: usize,
    /// The stream under verification (possibly fused).
    pub ops: &'a [KernelOp],
    /// The unfused baseline the stream was derived from, when available.
    pub baseline: Option<&'a [KernelOp]>,
    /// Whether the lowering promises to preserve the baseline's RNG draw
    /// sequence verbatim (`FusionPolicy::Off`/`Safe`). When `false`
    /// (`FusionPolicy::Aggressive` carried channels past kernels), the
    /// `fusion/rng-order` audit does not apply and the `channel/composition`
    /// rule checks the composed channels instead.
    pub rng_order_exact: bool,
}

/// The semantic rules over `art`, in evaluation order.
pub(crate) fn check(art: &KernelArtifact<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    unitarity(art, &mut out);
    kraus_completeness(art, &mut out);
    rng_order(art, &mut out);
    channel_composition(art, &mut out);
    fusion_equivalence(art, &mut out);
    out
}

/// `kernel/unitarity`: every non-silent kernel matrix is unitary within
/// tolerance.
fn unitarity(art: &KernelArtifact<'_>, out: &mut Vec<Diagnostic>) {
    for op in art.ops {
        let ok = match &op.kind {
            KernelKind::One { matrix, .. } => matrix.is_unitary(TOLERANCE),
            KernelKind::Two { matrix, .. } => matrix.is_unitary(TOLERANCE),
            KernelKind::Silent => true,
        };
        if !ok {
            out.push(
                Diagnostic::error(
                    "kernel/unitarity",
                    format!("kernel {} is not unitary within {TOLERANCE:.0e}", op.index),
                )
                .at_op(op.index),
            );
        }
    }
}

/// `channel/kraus-completeness`: every attached channel satisfies
/// `Σ K†K = I` within tolerance (trace preservation).
fn kraus_completeness(art: &KernelArtifact<'_>, out: &mut Vec<Diagnostic>) {
    for op in art.ops {
        for channel in &op.channels {
            let deviation = channel_deviation(channel);
            if deviation > TOLERANCE {
                out.push(
                    Diagnostic::error(
                        "channel/kraus-completeness",
                        format!(
                            "channel on qubits {:?} of op {} deviates from completeness \
                             by {deviation:.2e}",
                            channel.qubits, op.index
                        ),
                    )
                    .at_op(op.index),
                );
            }
        }
    }
}

/// Max-entry deviation of a channel's `Σ K†K` from the identity.
fn channel_deviation(channel: &ChannelView) -> f64 {
    match &channel.kraus {
        ChannelKraus::One(ops) => completeness_deviation(ops),
        ChannelKraus::Two(ops) => completeness_deviation(ops),
    }
}

/// Max-entry deviation of `Σ K†K` from the identity.
fn completeness_deviation<const N: usize>(ops: &[SmallMat<N>]) -> f64 {
    let mut sum = SmallMat::<N>::zeros();
    for k in ops {
        sum = sum + k.dagger() * *k;
    }
    sum.max_abs_diff(&SmallMat::<N>::identity())
}

/// `fusion/rng-order`: a fused stream consumes random draws in exactly the
/// order of its unfused baseline. This statically proves the
/// `FusionPolicy::Safe` invariant: fusion may only move kernels past
/// channel-free ops, so the sequence of RNG-consuming channels (targets and
/// Kraus operators alike) must be preserved verbatim.
fn rng_order(art: &KernelArtifact<'_>, out: &mut Vec<Diagnostic>) {
    const ID: &str = "fusion/rng-order";
    if !art.rng_order_exact {
        // Aggressive fusion deliberately reorders and composes draws; the
        // channel/composition rule covers that lowering instead.
        return;
    }
    let Some(baseline) = art.baseline else {
        return;
    };
    let fused_events = rng_events(art.ops);
    let base_events = rng_events(baseline);
    for (position, (fused, base)) in fused_events.iter().zip(&base_events).enumerate() {
        if let Some(reason) = events_differ(fused, base, TOLERANCE) {
            out.push(
                Diagnostic::error(
                    ID,
                    format!(
                        "RNG draw {position} diverges from the baseline ({reason}); \
                         fusion reordered noise"
                    ),
                )
                .at_op(fused.op_index),
            );
            return;
        }
    }
    if fused_events.len() != base_events.len() {
        let mut d = Diagnostic::error(
            ID,
            format!(
                "fused stream consumes {} RNG draws but the baseline consumes {}",
                fused_events.len(),
                base_events.len()
            ),
        );
        if let Some(event) = fused_events.get(base_events.len()) {
            d = d.at_op(event.op_index);
        }
        out.push(d);
    }
}

/// One run-time random draw: a channel sampled on specific qubits.
struct RngEvent<'a> {
    op_index: usize,
    qubits: &'a [usize],
    kraus: &'a ChannelKraus,
}

/// The stream's RNG-consuming channels, in draw order.
fn rng_events(ops: &[KernelOp]) -> Vec<RngEvent<'_>> {
    let mut events = Vec::new();
    for op in ops {
        for channel in &op.channels {
            if channel.consumes_rng {
                events.push(RngEvent {
                    op_index: op.index,
                    qubits: &channel.qubits,
                    kraus: &channel.kraus,
                });
            }
        }
    }
    events
}

/// Why two draw events differ, if they do.
fn events_differ(a: &RngEvent<'_>, b: &RngEvent<'_>, tol: f64) -> Option<String> {
    if a.qubits != b.qubits {
        return Some(format!("targets {:?} vs baseline {:?}", a.qubits, b.qubits));
    }
    match (a.kraus, b.kraus) {
        (ChannelKraus::One(x), ChannelKraus::One(y)) => kraus_differ(x, y, tol),
        (ChannelKraus::Two(x), ChannelKraus::Two(y)) => kraus_differ(x, y, tol),
        _ => Some("channel arity changed".to_string()),
    }
}

fn kraus_differ<const N: usize>(a: &[SmallMat<N>], b: &[SmallMat<N>], tol: f64) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!(
            "{} Kraus operators vs baseline {}",
            a.len(),
            b.len()
        ));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x.max_abs_diff(y) > tol {
            return Some(format!("Kraus operator {i} changed"));
        }
    }
    None
}

/// `channel/composition`: sanity rules for lowerings that compose or
/// conjugate noise channels (`FusionPolicy::Aggressive`, flagged by
/// [`KernelArtifact::rng_order_exact`] being `false`).
///
/// Conjugating a Kraus set by a unitary and composing trace-preserving
/// channels both preserve completeness *exactly* in exact arithmetic, so the
/// composed channels must satisfy `Σ K†K = I` within the much tighter
/// [`COMPOSED_TOLERANCE`] — numerical drift here means the carry math is
/// wrong, not that the inputs were loose. Against a baseline, the composed
/// stream must also consume at most the baseline's number of draws
/// (composition only ever merges draws).
fn channel_composition(art: &KernelArtifact<'_>, out: &mut Vec<Diagnostic>) {
    const ID: &str = "channel/composition";
    if art.rng_order_exact {
        return;
    }
    for op in art.ops {
        for channel in &op.channels {
            let deviation = channel_deviation(channel);
            if deviation > COMPOSED_TOLERANCE {
                out.push(
                    Diagnostic::error(
                        ID,
                        format!(
                            "composed channel on qubits {:?} of op {} deviates from \
                             completeness by {deviation:.2e} (composition must preserve \
                             it within {COMPOSED_TOLERANCE:.0e})",
                            channel.qubits, op.index
                        ),
                    )
                    .at_op(op.index),
                );
            }
        }
    }
    if let Some(baseline) = art.baseline {
        let fused_draws = rng_events(art.ops).len();
        let base_draws = rng_events(baseline).len();
        if fused_draws > base_draws {
            out.push(Diagnostic::error(
                ID,
                format!(
                    "composed stream consumes {fused_draws} RNG draws but the baseline \
                     consumes {base_draws}; channel composition may only merge draws"
                ),
            ));
        }
    }
}

/// `fusion/equivalence`: phase-insensitive spot check that the fused stream's
/// overall unitary action equals the baseline's. Both streams are applied to
/// a fixed non-degenerate probe state; the final states must coincide up to a
/// global phase. Registers wider than [`EQUIVALENCE_MAX_QUBITS`] are skipped
/// with an info finding.
fn fusion_equivalence(art: &KernelArtifact<'_>, out: &mut Vec<Diagnostic>) {
    const ID: &str = "fusion/equivalence";
    let Some(baseline) = art.baseline else {
        return;
    };
    if art.num_qubits > EQUIVALENCE_MAX_QUBITS {
        out.push(Diagnostic::info(
            ID,
            format!(
                "equivalence spot check skipped: {} qubits exceeds the \
                 {EQUIVALENCE_MAX_QUBITS}-qubit limit",
                art.num_qubits
            ),
        ));
        return;
    }
    let fused_state = apply_stream(art.num_qubits, art.ops);
    let base_state = apply_stream(art.num_qubits, baseline);
    let overlap = state_overlap(&fused_state, &base_state);
    if (overlap - 1.0).abs() > TOLERANCE {
        out.push(Diagnostic::error(
            ID,
            format!(
                "fused stream diverges from the baseline: probe-state overlap {overlap:.6} \
                 (1.0 expected)"
            ),
        ));
    }
}

/// Applies a kernel stream (unitaries only; channels are noise, not part of
/// the deterministic action) to the fixed probe state.
fn apply_stream(num_qubits: usize, ops: &[KernelOp]) -> Vec<Complex> {
    let mut state = probe_state(num_qubits);
    for op in ops {
        match &op.kind {
            KernelKind::One { matrix, qubit } => apply_one(&mut state, num_qubits, matrix, *qubit),
            KernelKind::Two { matrix, q0, q1 } => {
                apply_two(&mut state, num_qubits, matrix, *q0, *q1);
            }
            KernelKind::Silent => {}
        }
    }
    state
}

/// A fixed, fully non-degenerate probe state: every amplitude distinct in
/// modulus and phase, generated by a deterministic recurrence.
fn probe_state(num_qubits: usize) -> Vec<Complex> {
    let dim = 1usize << num_qubits;
    let mut state = Vec::with_capacity(dim);
    let mut norm_sqr = 0.0;
    for i in 0..dim {
        let x = i as f64;
        let amp = Complex::from_polar(1.0 + (0.37 * x).sin() * 0.5, 0.61 * x);
        norm_sqr += amp.norm_sqr();
        state.push(amp);
    }
    let scale = 1.0 / norm_sqr.sqrt();
    for amp in &mut state {
        *amp = amp.scale(scale);
    }
    state
}

/// Applies a 2×2 matrix to `qubit`; qubit `q` owns bit `num_qubits - 1 - q`
/// of the amplitude index (the simulator's convention).
fn apply_one(state: &mut [Complex], num_qubits: usize, m: &Mat2, qubit: usize) {
    let mask = 1usize << (num_qubits - 1 - qubit);
    for i in 0..state.len() {
        if i & mask == 0 {
            let j = i | mask;
            let (a, b) = (state[i], state[j]);
            state[i] = m[(0, 0)] * a + m[(0, 1)] * b;
            state[j] = m[(1, 0)] * a + m[(1, 1)] * b;
        }
    }
}

/// Applies a 4×4 matrix to the pair `(q0, q1)` with `q0` as the most
/// significant factor, matching the simulator and fusion conventions.
fn apply_two(state: &mut [Complex], num_qubits: usize, m: &Mat4, q0: usize, q1: usize) {
    let mask0 = 1usize << (num_qubits - 1 - q0);
    let mask1 = 1usize << (num_qubits - 1 - q1);
    for i in 0..state.len() {
        if i & (mask0 | mask1) == 0 {
            let idx = [i, i | mask1, i | mask0, i | mask0 | mask1];
            let amps = [state[idx[0]], state[idx[1]], state[idx[2]], state[idx[3]]];
            for (r, &out_index) in idx.iter().enumerate() {
                let mut acc = Complex::ZERO;
                for (c, &amp) in amps.iter().enumerate() {
                    acc += m[(r, c)] * amp;
                }
                state[out_index] = acc;
            }
        }
    }
}

/// `|⟨a|b⟩| / (‖a‖‖b‖)`: 1.0 iff the states coincide up to a global phase.
fn state_overlap(a: &[Complex], b: &[Complex]) -> f64 {
    let mut inner = Complex::ZERO;
    let mut norm_a = 0.0;
    let mut norm_b = 0.0;
    for (x, y) in a.iter().zip(b) {
        inner += x.conj() * *y;
        norm_a += x.norm_sqr();
        norm_b += y.norm_sqr();
    }
    inner.norm() / (norm_a.sqrt() * norm_b.sqrt()).max(f64::MIN_POSITIVE)
}
