//! Dense state-vector representation and gate application.
//!
//! # Amplitude sweeps
//!
//! Gate application iterates only the *base indices* of the register — the
//! `2^(n-1)` (one-qubit) or `2^(n-2)` (two-qubit) indices whose target bits
//! are zero — instead of scanning all `2^n` amplitudes and mask-testing each
//! one. Above [`PARALLEL_SWEEP_MIN_QUBITS`] the
//! [`apply_one_qubit_threaded`](StateVector::apply_one_qubit_threaded) /
//! [`apply_two_qubit_threaded`](StateVector::apply_two_qubit_threaded)
//! variants additionally split that base-index space across scoped worker
//! threads (the [`apply_one_qubit_with`](StateVector::apply_one_qubit_with) /
//! [`apply_two_qubit_with`](StateVector::apply_two_qubit_with) variants take
//! the threshold as a parameter so the engine can expose it as a tuning
//! knob). Every base index owns a disjoint set of amplitudes and each
//! amplitude's update is computed from the same inputs with the same
//! arithmetic regardless of the split, so results are **bit-identical for any
//! thread count**.
//!
//! # Split-complex inner blocks
//!
//! Within a contiguous run of base indices the inner loop processes
//! fixed-width blocks ([`LANES_1Q`] pairs / [`LANES_2Q`] quadruples) through
//! stack-local *split-complex* scratch: amplitudes are deinterleaved into
//! separate re/im `f64` arrays, updated with lane-indexed loops over plain
//! doubles, and reinterleaved. The interleaved `Vec<Complex>` layout is great
//! for cache locality but hides the data parallelism from the
//! autovectorizer (each `Complex` multiply mixes re/im lanes); the
//! split-complex blocks expose straight-line same-shape arithmetic across
//! lanes instead. Every lane evaluates the **same floating-point expression
//! tree** as the scalar `Complex` operators (`(re·re − im·im)` then
//! left-associated additions), so the restructuring is bit-identical to the
//! scalar tail that handles run remainders. A run is as long as the stride of
//! the lowest target bit, so targets on the three least significant qubits
//! (shifts 0–2) have runs shorter than a block and take the scalar tail only.
//!
//! # Instruction-set dispatch
//!
//! The workspace builds for the baseline of its target, which on x86-64 has
//! only 128-bit SSE2 vectors: two doubles per register, so a block's eight
//! re/im lanes take four registers and four instructions per operation. Each
//! of the four amplitude kernels (one- and two-qubit sweep, one- and
//! two-qubit read pass) is therefore written once, as an `#[inline(always)]`
//! body, and compiled twice: into a `#[target_feature(enable = "avx2")]`
//! function, where the same loops use 256-bit registers, and into a baseline
//! function. Every sweep or read pass checks once, through
//! `is_x86_feature_detected!`, whether the CPU has AVX2 and calls the matching
//! instance; nothing is configured at build time. The two instances are
//! **bit-identical**: vectorization only packs independent lanes side by side,
//! every lane keeps its expression tree and summation order, and Rust never
//! contracts `a·b + c` into a fused multiply-add (which AVX2 alone does not
//! offer either). The kernels' unit tests check that bit for bit on every
//! target of 5-, 9- and 14-qubit registers.
//!
//! # Read passes
//!
//! The pair runs of [`crate::precompiled`] read the 2×2 / 4×4 reduced density
//! matrix of one or two qubits in one read-only pass over the same base
//! indices as the sweeps. The pass is serial, so its summation order and
//! result never depend on the thread count.

use std::ops::Range;

use circuit::{Circuit, OpKind, QubitId};
use qmath::{Complex, Mat2, Mat4, SmallMat};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::precompiled::{op_mat2, op_mat4};

/// Number of qubits at or above which the `apply_*_threaded` sweeps split the
/// amplitude space across worker threads. Below this (≤ 8192 amplitudes) the
/// scoped-thread setup costs more than the sweep itself and the state is
/// updated serially regardless of the requested thread count.
pub const PARALLEL_SWEEP_MIN_QUBITS: usize = 14;

/// Amplitude *pairs* per split-complex block of a one-qubit sweep. Each of
/// the block's four split input streams (re and im of both partners) holds
/// eight doubles: two 256-bit registers in the AVX2 instance of the sweep,
/// four 128-bit ones in the baseline (SSE2) instance (see the module docs on
/// dispatch).
pub const LANES_1Q: usize = 8;

/// Amplitude *quadruples* per split-complex block of a two-qubit sweep (the
/// 4×4 kernel touches four input streams, so half the width of the one-qubit
/// block keeps the live scratch within the register budget).
pub const LANES_2Q: usize = 4;

/// The instruction-set level the amplitude kernels run at (see the module
/// docs on dispatch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    /// The build target's baseline (SSE2 on x86-64).
    Baseline,
    /// AVX2. Only [`Isa::detect`] returns it, and only on a CPU that has
    /// AVX2, which is what makes calling the AVX2 instances sound.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Isa {
    /// The widest level this CPU runs.
    fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
        Isa::Baseline
    }

    /// One-qubit sweep over the base indices `range` (see [`sweep_1q_body`]).
    ///
    /// # Safety
    /// As for [`sweep_1q_body`].
    unsafe fn sweep_1q(self, amps: *mut Complex, range: Range<usize>, shift: usize, m: &Mat2) {
        match self {
            // SAFETY: `Avx2` comes from `detect`, so the CPU has AVX2.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => avx2::sweep_1q(amps, range, shift, m),
            Isa::Baseline => sweep_1q_body(amps, range, shift, m),
        }
    }

    /// Two-qubit sweep over the base indices `range` (see [`sweep_2q_body`]).
    ///
    /// # Safety
    /// As for [`sweep_2q_body`].
    unsafe fn sweep_2q(
        self,
        amps: *mut Complex,
        range: Range<usize>,
        shifts: (usize, usize),
        m: &Mat4,
    ) {
        match self {
            // SAFETY: `Avx2` comes from `detect`, so the CPU has AVX2.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => avx2::sweep_2q(amps, range, shifts, m),
            Isa::Baseline => sweep_2q_body(amps, range, shifts, m),
        }
    }

    /// One-qubit read pass (see [`read_1q_body`]).
    fn read_1q(self, amps: &[Complex], shift: usize) -> Mat2 {
        match self {
            // SAFETY: `Avx2` comes from `detect`, so the CPU has AVX2.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { avx2::read_1q(amps, shift) },
            Isa::Baseline => read_1q_body(amps, shift),
        }
    }

    /// Two-qubit read pass (see [`read_2q_body`]).
    fn read_2q(self, amps: &[Complex], shifts: (usize, usize)) -> Mat4 {
        match self {
            // SAFETY: `Avx2` comes from `detect`, so the CPU has AVX2.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { avx2::read_2q(amps, shifts) },
            Isa::Baseline => read_2q_body(amps, shifts),
        }
    }
}

/// The AVX2 instances of the four kernel bodies: the same code as the
/// baseline instances, compiled with 256-bit vectors. Named functions that
/// call the bodies directly, so the bodies inline into, and are widened with,
/// the target feature.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Complex, Mat2, Mat4, Range};

    /// # Safety
    /// The CPU must have AVX2, and the arguments must meet
    /// [`super::sweep_1q_body`]'s contract.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sweep_1q(amps: *mut Complex, range: Range<usize>, shift: usize, m: &Mat2) {
        super::sweep_1q_body(amps, range, shift, m);
    }

    /// # Safety
    /// The CPU must have AVX2, and the arguments must meet
    /// [`super::sweep_2q_body`]'s contract.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sweep_2q(
        amps: *mut Complex,
        range: Range<usize>,
        shifts: (usize, usize),
        m: &Mat4,
    ) {
        super::sweep_2q_body(amps, range, shifts, m);
    }

    /// # Safety
    /// The CPU must have AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn read_1q(amps: &[Complex], shift: usize) -> Mat2 {
        super::read_1q_body(amps, shift)
    }

    /// # Safety
    /// The CPU must have AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn read_2q(amps: &[Complex], shifts: (usize, usize)) -> Mat4 {
        super::read_2q_body(amps, shifts)
    }
}

/// One split-complex block of a one-qubit sweep: applies the 2×2 kernel
/// `[[m00, m01], [m10, m11]]` to the [`LANES_1Q`] amplitude pairs starting at
/// `(pa, pb)`. Bit-identical to the scalar `m00 * a0 + m01 * a1` /
/// `m10 * a0 + m11 * a1` updates (see the module docs).
///
/// SAFETY: `pa` and `pb` must each point at `LANES_1Q` valid amplitudes and
/// the two streams must not overlap.
#[inline(always)]
unsafe fn one_qubit_block(
    pa: *mut Complex,
    pb: *mut Complex,
    m00: Complex,
    m01: Complex,
    m10: Complex,
    m11: Complex,
) {
    let mut ar = [0.0f64; LANES_1Q];
    let mut ai = [0.0f64; LANES_1Q];
    let mut br = [0.0f64; LANES_1Q];
    let mut bi = [0.0f64; LANES_1Q];
    for l in 0..LANES_1Q {
        let a = *pa.add(l);
        ar[l] = a.re;
        ai[l] = a.im;
        let b = *pb.add(l);
        br[l] = b.re;
        bi[l] = b.im;
    }
    let mut o0r = [0.0f64; LANES_1Q];
    let mut o0i = [0.0f64; LANES_1Q];
    let mut o1r = [0.0f64; LANES_1Q];
    let mut o1i = [0.0f64; LANES_1Q];
    for l in 0..LANES_1Q {
        o0r[l] = (m00.re * ar[l] - m00.im * ai[l]) + (m01.re * br[l] - m01.im * bi[l]);
        o0i[l] = (m00.re * ai[l] + m00.im * ar[l]) + (m01.re * bi[l] + m01.im * br[l]);
        o1r[l] = (m10.re * ar[l] - m10.im * ai[l]) + (m11.re * br[l] - m11.im * bi[l]);
        o1i[l] = (m10.re * ai[l] + m10.im * ar[l]) + (m11.re * bi[l] + m11.im * br[l]);
    }
    for l in 0..LANES_1Q {
        *pa.add(l) = Complex::new(o0r[l], o0i[l]);
        *pb.add(l) = Complex::new(o1r[l], o1i[l]);
    }
}

/// One split-complex block of a two-qubit sweep: applies the 4×4 kernel `m`
/// to the [`LANES_2Q`] amplitude quadruples starting at the four stream
/// pointers `p` (basis order `|00⟩, |01⟩, |10⟩, |11⟩` of the target pair).
/// Bit-identical to the scalar four-term row updates (left-associated
/// additions — see the module docs).
///
/// SAFETY: each stream must point at `LANES_2Q` valid amplitudes and the four
/// streams must be pairwise disjoint.
#[inline(always)]
unsafe fn two_qubit_block(p: [*mut Complex; 4], m: &Mat4) {
    let mut re = [[0.0f64; LANES_2Q]; 4];
    let mut im = [[0.0f64; LANES_2Q]; 4];
    for s in 0..4 {
        for l in 0..LANES_2Q {
            let a = *p[s].add(l);
            re[s][l] = a.re;
            im[s][l] = a.im;
        }
    }
    let mut out_re = [[0.0f64; LANES_2Q]; 4];
    let mut out_im = [[0.0f64; LANES_2Q]; 4];
    for r in 0..4 {
        let (m0, m1, m2, m3) = (m[(r, 0)], m[(r, 1)], m[(r, 2)], m[(r, 3)]);
        for l in 0..LANES_2Q {
            out_re[r][l] = (m0.re * re[0][l] - m0.im * im[0][l])
                + (m1.re * re[1][l] - m1.im * im[1][l])
                + (m2.re * re[2][l] - m2.im * im[2][l])
                + (m3.re * re[3][l] - m3.im * im[3][l]);
            out_im[r][l] = (m0.re * im[0][l] + m0.im * re[0][l])
                + (m1.re * im[1][l] + m1.im * re[1][l])
                + (m2.re * im[2][l] + m2.im * re[2][l])
                + (m3.re * im[3][l] + m3.im * re[3][l]);
        }
    }
    for s in 0..4 {
        for l in 0..LANES_2Q {
            *p[s].add(l) = Complex::new(out_re[s][l], out_im[s][l]);
        }
    }
}

/// Returns `k` with a zero bit inserted at position `shift`: bits below
/// `shift` stay in place, bits at and above it move up by one. Enumerates the
/// base indices of a sweep (`insert_zero_bit(k, s)` for `k = 0..2^(n-1)`
/// visits exactly the indices whose bit `s` is clear, in increasing order).
#[inline(always)]
fn insert_zero_bit(k: usize, shift: usize) -> usize {
    ((k >> shift) << (shift + 1)) | (k & ((1usize << shift) - 1))
}

/// Raw cursor into the amplitude buffer, shared by the scoped sweep workers.
///
/// Safety contract: every worker receives a disjoint base-index range, and
/// distinct base indices address disjoint amplitude pairs/quadruples, so no
/// amplitude is ever aliased across threads during one sweep.
#[derive(Clone, Copy)]
struct AmpCursor(*mut Complex);

impl AmpCursor {
    /// Accessor (rather than direct field use) so closures capture the whole
    /// `Sync` wrapper instead of edition-2021 precise-capturing the raw
    /// pointer field.
    #[inline(always)]
    fn ptr(self) -> *mut Complex {
        self.0
    }
}

// SAFETY: the cursor is only dereferenced inside one sweep, where workers own
// disjoint index sets (see the struct docs).
unsafe impl Send for AmpCursor {}
unsafe impl Sync for AmpCursor {}

/// Runs `kernel` over `0..base_count`, split into contiguous chunks across at
/// most `threads` scoped workers. Serial when the register is below
/// `min_parallel_qubits` or only one worker is requested; the kernel performs
/// identical per-index arithmetic either way.
fn run_sweep(
    base_count: usize,
    num_qubits: usize,
    threads: usize,
    min_parallel_qubits: usize,
    kernel: impl Fn(Range<usize>) + Sync,
) {
    let workers = threads.max(1).min(base_count.max(1));
    if workers <= 1 || num_qubits < min_parallel_qubits {
        kernel(0..base_count);
        return;
    }
    let chunk = base_count.div_ceil(workers);
    std::thread::scope(|scope| {
        let kernel = &kernel;
        for w in 0..workers {
            let start = w * chunk;
            let end = (start + chunk).min(base_count);
            if start < end {
                scope.spawn(move || kernel(start..end));
            }
        }
    });
}

/// Running sums `Σ a_j a_k*` over the `N` partner streams of a read pass
/// (upper triangle, `j ≤ k`), in split real and imaginary parts of `L`
/// independent lanes each. The one-qubit pass has only three sums, so without
/// lanes each would be one long serial chain of additions; four lanes break
/// the chains and vectorize. The two-qubit pass already has ten independent
/// sums, and lanes there only add register pressure.
struct Moments<const N: usize, const L: usize> {
    re: [[[f64; L]; N]; N],
    im: [[[f64; L]; N]; N],
}

impl<const N: usize, const L: usize> Default for Moments<N, L> {
    fn default() -> Self {
        Moments {
            re: [[[0.0; L]; N]; N],
            im: [[[0.0; L]; N]; N],
        }
    }
}

impl<const N: usize, const L: usize> Moments<N, L> {
    /// Adds `run` consecutive amplitudes of each stream, the streams starting
    /// at `starts`: whole blocks of `L` positions lane by lane, the remainder
    /// into lane 0.
    #[inline(always)]
    fn add_run(&mut self, amps: &[Complex], starts: [usize; N], run: usize) {
        let streams = starts.map(|s| &amps[s..s + run]);
        let mut t = 0;
        while t + L <= run {
            for lane in 0..L {
                self.add(lane, streams.map(|stream| stream[t + lane]));
            }
            t += L;
        }
        for t in t..run {
            self.add(0, streams.map(|stream| stream[t]));
        }
    }

    /// Adds one position's amplitudes `a` (one per stream) into `lane`.
    #[inline(always)]
    fn add(&mut self, lane: usize, a: [Complex; N]) {
        for j in 0..N {
            for k in j..N {
                let (x, y) = (a[j], a[k]);
                self.re[j][k][lane] += x.re * y.re + x.im * y.im;
                self.im[j][k][lane] += x.im * y.re - x.re * y.im;
            }
        }
    }

    /// The Hermitian matrix the sums describe (lanes added in lane order).
    fn into_matrix(self) -> SmallMat<N> {
        let upper = |j: usize, k: usize| {
            Complex::new(self.re[j][k].iter().sum(), self.im[j][k].iter().sum())
        };
        SmallMat::from_fn(|j, k| {
            if j <= k {
                upper(j, k)
            } else {
                upper(k, j).conj()
            }
        })
    }
}

/// Kernel body of a one-qubit sweep: applies the 2×2 kernel `m` to the
/// amplitude pairs of the base indices `range`, the target bit at `shift`.
/// Compiled once per instruction-set level (see the module docs).
///
/// # Safety
/// `amps` must point at the amplitudes of a register with more than `shift`
/// qubits, `range` must lie within its `2^(n-1)` base indices, and no
/// other thread may touch the pairs of `range` during the call.
#[inline(always)]
unsafe fn sweep_1q_body(amps: *mut Complex, range: Range<usize>, shift: usize, m: &Mat2) {
    let mask = 1usize << shift;
    let (m00, m01, m10, m11) = (m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]);
    // Walk the range in contiguous runs: base indices whose low bits (below
    // `shift`) increment without carrying map to consecutive amplitude
    // indices, so both partner streams are straight pointer walks
    // (`(i0 + o) | mask == (i0 | mask) + o` while `o` stays inside the run).
    let mut k = range.start;
    while k < range.end {
        let run = (mask - (k & (mask - 1))).min(range.end - k);
        let i0 = insert_zero_bit(k, shift);
        let pa = amps.add(i0);
        let pb = amps.add(i0 | mask);
        let mut o = 0usize;
        while o + LANES_1Q <= run {
            one_qubit_block(pa.add(o), pb.add(o), m00, m01, m10, m11);
            o += LANES_1Q;
        }
        // Scalar tail for the run remainder (identical arithmetic to the
        // block — see the module docs).
        for t in o..run {
            let a0 = *pa.add(t);
            let a1 = *pb.add(t);
            *pa.add(t) = m00 * a0 + m01 * a1;
            *pb.add(t) = m10 * a0 + m11 * a1;
        }
        k += run;
    }
}

/// Kernel body of a two-qubit sweep: applies the 4×4 kernel `m` to the
/// amplitude quadruples of the base indices `range`, the kernel's first
/// (most significant) qubit at bit `s0` and its second at bit `s1`.
///
/// # Safety
/// `amps` must point at the amplitudes of a register with more than
/// `max(s0, s1)` qubits, `s0 != s1`, `range` must lie within its `2^(n-2)`
/// base indices, and no other thread may touch the quadruples of `range`
/// during the call.
#[inline(always)]
unsafe fn sweep_2q_body(
    amps: *mut Complex,
    range: Range<usize>,
    (s0, s1): (usize, usize),
    m: &Mat4,
) {
    let (mask0, mask1) = (1usize << s0, 1usize << s1);
    let (lo, hi) = (s0.min(s1), s0.max(s1));
    let lo_mask = (1usize << lo) - 1;
    // Walk the range in contiguous runs below the lower inserted bit (see
    // the one-qubit body): within a run the four amplitude indices advance
    // by one each step, so all four partner streams are straight pointer
    // walks.
    let mut k = range.start;
    while k < range.end {
        let run = ((lo_mask + 1) - (k & lo_mask)).min(range.end - k);
        // Insert zeros at the lower shift first, then at the higher one
        // (whose position is unchanged by the first insertion).
        let base = insert_zero_bit(insert_zero_bit(k, lo), hi);
        let p = [
            amps.add(base),
            amps.add(base | mask1),
            amps.add(base | mask0),
            amps.add(base | mask0 | mask1),
        ];
        let mut o = 0usize;
        while o + LANES_2Q <= run {
            two_qubit_block([p[0].add(o), p[1].add(o), p[2].add(o), p[3].add(o)], m);
            o += LANES_2Q;
        }
        // Scalar tail for the run remainder (identical arithmetic to the
        // block — see the module docs).
        for t in o..run {
            let a0 = *p[0].add(t);
            let a1 = *p[1].add(t);
            let a2 = *p[2].add(t);
            let a3 = *p[3].add(t);
            *p[0].add(t) = m[(0, 0)] * a0 + m[(0, 1)] * a1 + m[(0, 2)] * a2 + m[(0, 3)] * a3;
            *p[1].add(t) = m[(1, 0)] * a0 + m[(1, 1)] * a1 + m[(1, 2)] * a2 + m[(1, 3)] * a3;
            *p[2].add(t) = m[(2, 0)] * a0 + m[(2, 1)] * a1 + m[(2, 2)] * a2 + m[(2, 3)] * a3;
            *p[3].add(t) = m[(3, 0)] * a0 + m[(3, 1)] * a1 + m[(3, 2)] * a2 + m[(3, 3)] * a3;
        }
        k += run;
    }
}

/// Kernel body of a one-qubit read pass: the 2×2 reduced density matrix
/// `ρ_jk = Σ a_j a_k*` of the qubit at bit `shift` (basis `|0⟩, |1⟩`).
#[inline(always)]
fn read_1q_body(amps: &[Complex], shift: usize) -> Mat2 {
    let mask = 1usize << shift;
    let base_count = amps.len() / 2;
    let mut acc = Moments::<2, 4>::default();
    // Contiguous runs of base indices, as in the one-qubit sweep.
    let mut k = 0;
    while k < base_count {
        let run = (mask - (k & (mask - 1))).min(base_count - k);
        let i0 = insert_zero_bit(k, shift);
        acc.add_run(amps, [i0, i0 | mask], run);
        k += run;
    }
    acc.into_matrix()
}

/// Kernel body of a two-qubit read pass: the 4×4 reduced density matrix of
/// the qubits at bits `s0` (most significant) and `s1`, basis
/// `|00⟩, |01⟩, |10⟩, |11⟩`.
#[inline(always)]
fn read_2q_body(amps: &[Complex], (s0, s1): (usize, usize)) -> Mat4 {
    let (mask0, mask1) = (1usize << s0, 1usize << s1);
    let (lo, hi) = (s0.min(s1), s0.max(s1));
    let lo_mask = (1usize << lo) - 1;
    let base_count = amps.len() / 4;
    let mut acc = Moments::<4, 1>::default();
    // Contiguous runs below the lower inserted bit, as in the two-qubit
    // sweep.
    let mut k = 0;
    while k < base_count {
        let run = ((lo_mask + 1) - (k & lo_mask)).min(base_count - k);
        let base = insert_zero_bit(insert_zero_bit(k, lo), hi);
        let streams = [base, base | mask1, base | mask0, base | mask0 | mask1];
        acc.add_run(amps, streams, run);
        k += run;
    }
    acc.into_matrix()
}

/// A pure state of an `n`-qubit register, stored as `2^n` amplitudes in
/// big-endian basis ordering (qubit 0 is the most significant bit).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateVector {
    num_qubits: usize,
    amplitudes: Vec<Complex>,
}

impl StateVector {
    /// The all-zeros computational basis state `|0…0⟩`.
    ///
    /// # Panics
    /// Panics if `num_qubits` is zero or larger than 26 (the dense
    /// representation would not fit in memory).
    pub fn zero_state(num_qubits: usize) -> Self {
        assert!(num_qubits > 0, "need at least one qubit");
        assert!(num_qubits <= 26, "dense simulation limited to 26 qubits");
        let mut amplitudes = vec![Complex::ZERO; 1 << num_qubits];
        amplitudes[0] = Complex::ONE;
        StateVector {
            num_qubits,
            amplitudes,
        }
    }

    /// A specific computational basis state.
    ///
    /// # Panics
    /// Panics if `basis_index >= 2^num_qubits`.
    pub fn basis_state(num_qubits: usize, basis_index: usize) -> Self {
        let mut s = StateVector::zero_state(num_qubits);
        assert!(basis_index < s.amplitudes.len(), "basis index out of range");
        s.amplitudes[0] = Complex::ZERO;
        s.amplitudes[basis_index] = Complex::ONE;
        s
    }

    /// The ideal final state of `circuit` run on `|0…0⟩`: each unitary is
    /// applied in circuit order, one sweep per gate (measurements and
    /// barriers are ignored). The noiseless counterpart of
    /// [`DensityMatrix::evolve`](crate::DensityMatrix::evolve).
    ///
    /// Unlike a noiseless trajectory of the lowered circuit, this never fuses
    /// gates or folds pair runs, so its bits do not depend on the register
    /// width.
    pub fn evolve(circuit: &Circuit) -> StateVector {
        let mut state = StateVector::zero_state(circuit.num_qubits());
        for op in circuit.iter() {
            match op.kind() {
                OpKind::Unitary1Q { matrix, .. } => {
                    state.apply_one_qubit(&op_mat2(matrix), op.qubits()[0]);
                }
                OpKind::Unitary2Q { matrix, .. } => {
                    state.apply_two_qubit(&op_mat4(matrix), op.qubits()[0], op.qubits()[1]);
                }
                OpKind::Measure | OpKind::Barrier => {}
            }
        }
        state
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Amplitude of a basis state.
    pub fn amplitude(&self, basis_index: usize) -> Complex {
        self.amplitudes[basis_index]
    }

    /// All amplitudes.
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amplitudes
    }

    /// Squared norm (should stay 1 for unitary evolution).
    pub fn norm_sqr(&self) -> f64 {
        self.amplitudes.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Renormalizes the state to unit norm.
    ///
    /// # Panics
    /// Panics if the state has (numerically) zero norm.
    pub fn normalize(&mut self) {
        let n = self.norm_sqr().sqrt();
        assert!(n > 1e-300, "cannot normalize a zero state");
        for a in &mut self.amplitudes {
            *a = *a / n;
        }
    }

    /// Probability distribution over basis states.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amplitudes.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Applies a 2×2 unitary (or Kraus operator) to qubit `q` in place.
    ///
    /// The operator is the stack-allocated [`Mat2`]; per-gate application
    /// reads it straight from registers with no per-call allocation. The sweep
    /// visits only the `2^(n-1)` base indices (bit `q` clear), touching each
    /// amplitude pair exactly once.
    ///
    /// # Panics
    /// Panics if `q` is out of range.
    pub fn apply_one_qubit(&mut self, m: &Mat2, q: QubitId) {
        self.apply_one_qubit_threaded(m, q, 1);
    }

    /// [`apply_one_qubit`](StateVector::apply_one_qubit) with the base-index
    /// sweep split across up to `threads` scoped worker threads (registers
    /// below [`PARALLEL_SWEEP_MIN_QUBITS`] stay serial). Bit-identical to the
    /// serial sweep for any thread count.
    ///
    /// # Panics
    /// Panics if `q` is out of range.
    pub fn apply_one_qubit_threaded(&mut self, m: &Mat2, q: QubitId, threads: usize) {
        self.apply_one_qubit_with(m, q, threads, PARALLEL_SWEEP_MIN_QUBITS);
    }

    /// [`apply_one_qubit_threaded`](StateVector::apply_one_qubit_threaded)
    /// with an explicit parallel-sweep threshold: registers below
    /// `min_parallel_qubits` stay serial regardless of `threads`. The engine
    /// exposes this as a tuning knob; the threshold only affects scheduling,
    /// never the result.
    ///
    /// # Panics
    /// Panics if `q` is out of range.
    pub fn apply_one_qubit_with(
        &mut self,
        m: &Mat2,
        q: QubitId,
        threads: usize,
        min_parallel_qubits: usize,
    ) {
        self.apply_one_qubit_on(Isa::detect(), m, q, threads, min_parallel_qubits);
    }

    /// [`apply_one_qubit_with`](StateVector::apply_one_qubit_with) through
    /// the kernel instance for `isa`.
    fn apply_one_qubit_on(
        &mut self,
        isa: Isa,
        m: &Mat2,
        q: QubitId,
        threads: usize,
        min_parallel_qubits: usize,
    ) {
        assert!(q < self.num_qubits, "qubit out of range");
        let shift = self.num_qubits - 1 - q;
        let m = *m;
        let half = self.amplitudes.len() / 2;
        let cursor = AmpCursor(self.amplitudes.as_mut_ptr());
        let kernel = move |range: Range<usize>| {
            // SAFETY: `shift` names a qubit of the register, `run_sweep` hands
            // out sub-ranges of the base indices, distinct base indices map to
            // distinct amplitude pairs, and workers own disjoint ranges (see
            // AmpCursor).
            unsafe { isa.sweep_1q(cursor.ptr(), range, shift, &m) }
        };
        run_sweep(half, self.num_qubits, threads, min_parallel_qubits, kernel);
    }

    /// Applies a 4×4 unitary (or Kraus operator) to qubits `(q0, q1)` in place;
    /// `q0` is the most significant qubit of the matrix. The sweep visits only
    /// the `2^(n-2)` base indices (both target bits clear).
    ///
    /// # Panics
    /// Panics if the qubits are out of range or equal.
    pub fn apply_two_qubit(&mut self, m: &Mat4, q0: QubitId, q1: QubitId) {
        self.apply_two_qubit_threaded(m, q0, q1, 1);
    }

    /// [`apply_two_qubit`](StateVector::apply_two_qubit) with the base-index
    /// sweep split across up to `threads` scoped worker threads (registers
    /// below [`PARALLEL_SWEEP_MIN_QUBITS`] stay serial). Bit-identical to the
    /// serial sweep for any thread count.
    ///
    /// # Panics
    /// Panics if the qubits are out of range or equal.
    pub fn apply_two_qubit_threaded(&mut self, m: &Mat4, q0: QubitId, q1: QubitId, threads: usize) {
        self.apply_two_qubit_with(m, q0, q1, threads, PARALLEL_SWEEP_MIN_QUBITS);
    }

    /// [`apply_two_qubit_threaded`](StateVector::apply_two_qubit_threaded)
    /// with an explicit parallel-sweep threshold (see
    /// [`apply_one_qubit_with`](StateVector::apply_one_qubit_with)).
    ///
    /// # Panics
    /// Panics if the qubits are out of range or equal.
    pub fn apply_two_qubit_with(
        &mut self,
        m: &Mat4,
        q0: QubitId,
        q1: QubitId,
        threads: usize,
        min_parallel_qubits: usize,
    ) {
        self.apply_two_qubit_on(Isa::detect(), m, q0, q1, threads, min_parallel_qubits);
    }

    /// [`apply_two_qubit_with`](StateVector::apply_two_qubit_with) through
    /// the kernel instance for `isa`.
    fn apply_two_qubit_on(
        &mut self,
        isa: Isa,
        m: &Mat4,
        q0: QubitId,
        q1: QubitId,
        threads: usize,
        min_parallel_qubits: usize,
    ) {
        let shifts = self.pair_shifts(q0, q1);
        let m = *m;
        let quarter = self.amplitudes.len() / 4;
        let cursor = AmpCursor(self.amplitudes.as_mut_ptr());
        let kernel = move |range: Range<usize>| {
            // SAFETY: the shifts name two distinct qubits of the register,
            // `run_sweep` hands out sub-ranges of the base indices, distinct
            // base indices map to distinct amplitude quadruples, and workers
            // own disjoint ranges (see AmpCursor).
            unsafe { isa.sweep_2q(cursor.ptr(), range, shifts, &m) }
        };
        run_sweep(
            quarter,
            self.num_qubits,
            threads,
            min_parallel_qubits,
            kernel,
        );
    }

    /// The bit positions `(s0, s1)` of the ordered qubit pair `(q0, q1)`.
    ///
    /// # Panics
    /// Panics if the qubits are out of range or equal.
    fn pair_shifts(&self, q0: QubitId, q1: QubitId) -> (usize, usize) {
        assert!(
            q0 < self.num_qubits && q1 < self.num_qubits,
            "qubit out of range"
        );
        assert_ne!(q0, q1, "qubits must be distinct");
        (self.num_qubits - 1 - q0, self.num_qubits - 1 - q1)
    }

    /// The 2×2 reduced density matrix `ρ_jk = Σ a_j a_k*` of qubit `q` (basis
    /// `|0⟩, |1⟩`), in one serial read pass over the amplitudes.
    ///
    /// # Panics
    /// Panics if `q` is out of range.
    pub fn reduced_density_1q(&self, q: QubitId) -> Mat2 {
        self.reduced_density_1q_on(Isa::detect(), q)
    }

    /// [`reduced_density_1q`](StateVector::reduced_density_1q) through the
    /// kernel instance for `isa`.
    fn reduced_density_1q_on(&self, isa: Isa, q: QubitId) -> Mat2 {
        assert!(q < self.num_qubits, "qubit out of range");
        isa.read_1q(&self.amplitudes, self.num_qubits - 1 - q)
    }

    /// The 4×4 reduced density matrix of the ordered pair `(q0, q1)` (`q0` is
    /// the most significant qubit, basis `|00⟩, |01⟩, |10⟩, |11⟩`), in one
    /// serial read pass.
    ///
    /// # Panics
    /// Panics if the qubits are out of range or equal.
    pub fn reduced_density_2q(&self, q0: QubitId, q1: QubitId) -> Mat4 {
        self.reduced_density_2q_on(Isa::detect(), q0, q1)
    }

    /// [`reduced_density_2q`](StateVector::reduced_density_2q) through the
    /// kernel instance for `isa`.
    fn reduced_density_2q_on(&self, isa: Isa, q0: QubitId, q1: QubitId) -> Mat4 {
        isa.read_2q(&self.amplitudes, self.pair_shifts(q0, q1))
    }

    /// Probability of measuring qubit `q` in state `|1⟩`.
    ///
    /// Iterates only the `2^(n-1)` indices whose bit `q` is set (in the same
    /// increasing order a full scan would visit them, so the floating-point
    /// sum is unchanged).
    pub fn prob_one(&self, q: QubitId) -> f64 {
        assert!(q < self.num_qubits, "qubit out of range");
        let shift = self.num_qubits - 1 - q;
        let mask = 1usize << shift;
        let half = self.amplitudes.len() / 2;
        let mut sum = 0.0;
        for k in 0..half {
            sum += self.amplitudes[insert_zero_bit(k, shift) | mask].norm_sqr();
        }
        sum
    }

    /// Samples a complete computational-basis measurement, returning the basis
    /// index. The state is *not* collapsed (trajectory shots re-sample from the
    /// final distribution).
    ///
    /// This linear scan is O(2^n) per shot; when many shots sample the *same*
    /// state (the engine's noiseless fast path), build a
    /// [`MeasurementSampler`] once and binary-search per shot instead.
    pub fn sample_measurement<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let mut r: f64 = rng.gen_range(0.0..1.0);
        for (i, a) in self.amplitudes.iter().enumerate() {
            let p = a.norm_sqr();
            if r < p {
                return i;
            }
            r -= p;
        }
        self.amplitudes.len() - 1
    }

    /// Builds the precomputed cumulative-distribution sampler for this state.
    ///
    /// One O(2^n) prefix-sum pays for O(n)-per-shot sampling afterwards —
    /// the engine's noiseless fast path uses this to turn its O(shots·2^n)
    /// sampling loop into O(2^n + shots·n). Each
    /// [`MeasurementSampler::sample`] consumes exactly one RNG draw, the same
    /// as [`sample_measurement`](StateVector::sample_measurement).
    pub fn measurement_sampler(&self) -> MeasurementSampler {
        let mut cumulative = Vec::with_capacity(self.amplitudes.len());
        let mut acc = 0.0f64;
        for a in &self.amplitudes {
            acc += a.norm_sqr();
            cumulative.push(acc);
        }
        MeasurementSampler { cumulative }
    }

    /// Inner product `⟨self|other⟩`.
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    pub fn inner_product(&self, other: &StateVector) -> Complex {
        assert_eq!(self.num_qubits, other.num_qubits, "dimension mismatch");
        self.amplitudes
            .iter()
            .zip(other.amplitudes.iter())
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// State fidelity `|⟨self|other⟩|²`.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner_product(other).norm_sqr()
    }
}

/// Precomputed cumulative measurement distribution of one [`StateVector`].
///
/// Built once via [`StateVector::measurement_sampler`]; each
/// [`sample`](MeasurementSampler::sample) is then a single RNG draw plus a
/// binary search over the prefix sums, instead of an O(2^n) rescan of the
/// amplitudes.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasurementSampler {
    /// `cumulative[i]` is the total probability mass of basis states `0..=i`.
    cumulative: Vec<f64>,
}

impl MeasurementSampler {
    /// Samples one basis index from the precomputed distribution (one RNG
    /// draw, O(n) binary search).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let r: f64 = rng.gen_range(0.0..1.0);
        // First basis index whose cumulative mass exceeds the draw; clamp to
        // the last index to absorb rounding shortfall in the final prefix sum.
        self.cumulative
            .partition_point(|&c| c <= r)
            .min(self.cumulative.len() - 1)
    }

    /// Number of basis states covered.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// True for an empty table (never produced by
    /// [`StateVector::measurement_sampler`]).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gates::standard;
    use qmath::RngSeed;

    #[test]
    fn zero_state_is_normalized() {
        let s = StateVector::zero_state(3);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
        assert_eq!(s.amplitudes().len(), 8);
        assert!((s.amplitude(0) - Complex::ONE).norm() < 1e-12);
    }

    #[test]
    fn x_gate_flips_bit() {
        let mut s = StateVector::zero_state(2);
        s.apply_one_qubit(&standard::x(), 0);
        // Qubit 0 is the MSB: |10> = index 2.
        assert!((s.amplitude(2) - Complex::ONE).norm() < 1e-12);
        s.apply_one_qubit(&standard::x(), 1);
        assert!((s.amplitude(3) - Complex::ONE).norm() < 1e-12);
    }

    #[test]
    fn bell_state_via_h_and_cnot() {
        let mut s = StateVector::zero_state(2);
        s.apply_one_qubit(&standard::h(), 0);
        s.apply_two_qubit(&standard::cnot(), 0, 1);
        let p = s.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[3] - 0.5).abs() < 1e-12);
        assert!(p[1] < 1e-12 && p[2] < 1e-12);
    }

    #[test]
    fn two_qubit_gate_matches_circuit_unitary() {
        // Apply SYC to qubits (2, 0) of a 3-qubit register and compare with the
        // full-matrix embedding.
        let syc = gates::GateType::syc();
        let mut s = StateVector::zero_state(3);
        // Prepare a non-trivial input state.
        s.apply_one_qubit(&standard::h(), 0);
        s.apply_one_qubit(&standard::h(), 1);
        s.apply_one_qubit(&standard::h(), 2);
        let mut reference = s.clone();
        s.apply_two_qubit(syc.unitary(), 2, 0);
        let full = circuit::embed_two_qubit(syc.unitary(), 2, 0, 3);
        let expect = full.mul_vec(reference.amplitudes());
        for (i, e) in expect.iter().enumerate() {
            assert!((s.amplitude(i) - *e).norm() < 1e-12);
        }
        // Norm preserved.
        reference.normalize();
        assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn prob_one_tracks_rotations() {
        let mut s = StateVector::zero_state(1);
        assert!(s.prob_one(0) < 1e-12);
        s.apply_one_qubit(&standard::ry(std::f64::consts::FRAC_PI_2), 0);
        assert!((s.prob_one(0) - 0.5).abs() < 1e-12);
        s.apply_one_qubit(&standard::x(), 0);
        assert!((s.prob_one(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sampling_matches_distribution() {
        let mut s = StateVector::zero_state(2);
        s.apply_one_qubit(&standard::h(), 0);
        let mut rng = RngSeed(3).rng();
        let mut counts = [0usize; 4];
        for _ in 0..2000 {
            counts[s.sample_measurement(&mut rng)] += 1;
        }
        // Only |00> and |10> should appear, roughly half/half.
        assert_eq!(counts[1] + counts[3], 0);
        let frac = counts[0] as f64 / 2000.0;
        assert!((frac - 0.5).abs() < 0.05);
    }

    #[test]
    fn fidelity_and_inner_product() {
        let a = StateVector::basis_state(2, 1);
        let b = StateVector::basis_state(2, 1);
        let c = StateVector::basis_state(2, 2);
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);
        assert!(a.fidelity(&c) < 1e-12);
    }

    #[test]
    fn normalize_after_damping_like_operation() {
        let mut s = StateVector::zero_state(1);
        s.apply_one_qubit(&standard::h(), 0);
        // A non-unitary Kraus-like operator.
        let k = Mat2::from_real(&[1.0, 0.0, 0.0, 0.5]);
        s.apply_one_qubit(&k, 0);
        assert!(s.norm_sqr() < 1.0);
        s.normalize();
        assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "qubit out of range")]
    fn out_of_range_qubit_panics() {
        let mut s = StateVector::zero_state(2);
        s.apply_one_qubit(&standard::x(), 2);
    }

    #[test]
    fn insert_zero_bit_enumerates_clear_bit_indices() {
        for shift in 0..4usize {
            let mask = 1usize << shift;
            let expected: Vec<usize> = (0..32).filter(|i| i & mask == 0).collect();
            let actual: Vec<usize> = (0..16).map(|k| insert_zero_bit(k, shift)).collect();
            assert_eq!(actual, expected, "shift = {shift}");
        }
    }

    /// A random-ish dense state for sweep equality tests.
    fn scrambled_state(n: usize) -> StateVector {
        let mut s = StateVector::zero_state(n);
        for q in 0..n {
            s.apply_one_qubit(&standard::ry(0.3 + 0.1 * q as f64), q);
            s.apply_one_qubit(&standard::rz(1.1 * q as f64 + 0.2), q);
        }
        for q in 1..n {
            s.apply_two_qubit(&standard::cnot(), q - 1, q);
        }
        s
    }

    /// The bit patterns of complex entries, so `-0.0` and `0.0` differ.
    fn bits(entries: impl IntoIterator<Item = Complex>) -> Vec<(u64, u64)> {
        entries
            .into_iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect()
    }

    fn mat_bits<const N: usize>(m: &SmallMat<N>) -> Vec<(u64, u64)> {
        bits((0..N * N).map(|i| m[(i / N, i % N)]))
    }

    #[test]
    fn avx2_and_baseline_kernels_are_bit_identical() {
        // Every target and every ordered pair, so shifts 0-2 (runs shorter
        // than a block: the scalar tail only) are covered along with the
        // block loops of the higher shifts.
        let wide = Isa::detect();
        if wide == Isa::Baseline {
            eprintln!("no AVX2 on this CPU: only the baseline kernels run here");
            return;
        }
        let u = standard::u3(0.7, 0.3, 1.1);
        let v = standard::u3(1.9, -0.4, 0.6);
        let dense = *gates::GateType::syc().unitary() * u.kron(&v);
        for n in [5, 9, 14] {
            let base = scrambled_state(n);
            for q in 0..n {
                let sweep = |isa| {
                    let mut s = base.clone();
                    s.apply_one_qubit_on(isa, &u, q, 1, usize::MAX);
                    bits(s.amplitudes().iter().copied())
                };
                assert_eq!(
                    sweep(Isa::Baseline),
                    sweep(wide),
                    "1q sweep, n = {n}, q = {q}"
                );
                let read = |isa| mat_bits(&base.reduced_density_1q_on(isa, q));
                assert_eq!(read(Isa::Baseline), read(wide), "1q read, n = {n}, q = {q}");
            }
            for q0 in 0..n {
                for q1 in (0..n).filter(|&q1| q1 != q0) {
                    let sweep = |isa| {
                        let mut s = base.clone();
                        s.apply_two_qubit_on(isa, &dense, q0, q1, 1, usize::MAX);
                        bits(s.amplitudes().iter().copied())
                    };
                    let label = format!("n = {n}, ({q0}, {q1})");
                    assert_eq!(sweep(Isa::Baseline), sweep(wide), "2q sweep, {label}");
                    let read = |isa| mat_bits(&base.reduced_density_2q_on(isa, q0, q1));
                    assert_eq!(read(Isa::Baseline), read(wide), "2q read, {label}");
                }
            }
        }
    }

    #[test]
    fn threaded_sweeps_are_bit_identical_below_and_above_threshold() {
        // One size below the parallel threshold (serial fallback) and one at
        // it (actual scoped workers when threads > 1).
        for n in [PARALLEL_SWEEP_MIN_QUBITS - 1, PARALLEL_SWEEP_MIN_QUBITS] {
            let base = scrambled_state(n);
            let syc = gates::GateType::syc();
            let mut serial = base.clone();
            serial.apply_one_qubit(&standard::h(), n - 1);
            serial.apply_two_qubit(syc.unitary(), 0, n - 1);
            for threads in [2usize, 3, 8] {
                let mut par = base.clone();
                par.apply_one_qubit_threaded(&standard::h(), n - 1, threads);
                par.apply_two_qubit_threaded(syc.unitary(), 0, n - 1, threads);
                assert_eq!(par, serial, "n = {n}, threads = {threads}");
            }
        }
    }

    #[test]
    fn split_complex_blocks_match_the_scalar_expressions_exactly() {
        // Applying a gate to qubit 0 of a 6-qubit register yields runs of 32
        // (1q) / 16 (2q) base indices, so the split-complex blocks carry the
        // whole sweep. The result must be bit-identical (assert_eq on f64
        // pairs, no tolerance) to the naive scalar Complex updates.
        let base = scrambled_state(6);
        let m = standard::u3(0.7, 0.3, 1.1);
        let (m00, m01, m10, m11) = (m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]);
        let mask = 1usize << 5;
        let mut expect = base.amplitudes().to_vec();
        for i in 0..64 {
            if i & mask == 0 {
                let j = i | mask;
                let (a0, a1) = (expect[i], expect[j]);
                expect[i] = m00 * a0 + m01 * a1;
                expect[j] = m10 * a0 + m11 * a1;
            }
        }
        let mut got = base.clone();
        got.apply_one_qubit(&m, 0);
        assert_eq!(got.amplitudes(), &expect[..]);

        let syc = gates::GateType::syc();
        let u = *syc.unitary();
        let (mask0, mask1) = (1usize << 5, 1usize << 4);
        let mut expect = base.amplitudes().to_vec();
        for i in 0..64 {
            if i & (mask0 | mask1) == 0 {
                let idx = [i, i | mask1, i | mask0, i | mask0 | mask1];
                let a = idx.map(|k| expect[k]);
                for (r, &k) in idx.iter().enumerate() {
                    expect[k] =
                        u[(r, 0)] * a[0] + u[(r, 1)] * a[1] + u[(r, 2)] * a[2] + u[(r, 3)] * a[3];
                }
            }
        }
        let mut got = base.clone();
        got.apply_two_qubit(&u, 0, 1);
        assert_eq!(got.amplitudes(), &expect[..]);
    }

    #[test]
    fn explicit_sweep_threshold_is_invisible_in_the_result() {
        // The `_with` variants only reschedule: any threshold (including one
        // that forces scoped workers on a tiny register) must be bit-identical
        // to the serial sweep.
        let base = scrambled_state(6);
        let syc = gates::GateType::syc();
        let mut serial = base.clone();
        serial.apply_one_qubit(&standard::h(), 2);
        serial.apply_two_qubit(syc.unitary(), 0, 5);
        for min_parallel in [0usize, 6, 7, usize::MAX] {
            let mut par = base.clone();
            par.apply_one_qubit_with(&standard::h(), 2, 4, min_parallel);
            par.apply_two_qubit_with(syc.unitary(), 0, 5, 4, min_parallel);
            assert_eq!(par, serial, "min_parallel = {min_parallel}");
        }
    }

    #[test]
    fn prob_one_matches_full_scan() {
        let s = scrambled_state(5);
        for q in 0..5 {
            let mask = 1usize << (5 - 1 - q);
            let full: f64 = s
                .amplitudes()
                .iter()
                .enumerate()
                .filter(|(i, _)| i & mask != 0)
                .map(|(_, a)| a.norm_sqr())
                .sum();
            assert_eq!(s.prob_one(q), full, "q = {q}");
        }
    }

    #[test]
    fn reduced_density_matrices_match_the_partial_trace() {
        let n = 5;
        let s = scrambled_state(n);
        let bit = |i: usize, q: usize| (i >> (n - 1 - q)) & 1;
        // ρ_jk = Σ over basis pairs that agree off the traced-out qubits.
        let partial_trace = |qubits: &[usize]| {
            let dim = 1 << qubits.len();
            let sub = |i: usize| qubits.iter().fold(0, |acc, &q| (acc << 1) | bit(i, q));
            let rest = |i: usize| {
                (0..n)
                    .filter(|q| !qubits.contains(q))
                    .fold(0, |acc, q| (acc << 1) | bit(i, q))
            };
            let mut rho = vec![Complex::ZERO; dim * dim];
            for i in 0..1 << n {
                for j in 0..1 << n {
                    if rest(i) == rest(j) {
                        rho[sub(i) * dim + sub(j)] += s.amplitude(i) * s.amplitude(j).conj();
                    }
                }
            }
            rho
        };
        for q in 0..n {
            let expect = partial_trace(&[q]);
            let got = s.reduced_density_1q(q);
            for (idx, e) in expect.iter().enumerate() {
                assert!((got[(idx / 2, idx % 2)] - *e).norm() < 1e-12, "q = {q}");
            }
        }
        for (q0, q1) in [(0, 1), (3, 1), (4, 0), (2, 3)] {
            let expect = partial_trace(&[q0, q1]);
            let got = s.reduced_density_2q(q0, q1);
            for (idx, e) in expect.iter().enumerate() {
                assert!(
                    (got[(idx / 4, idx % 4)] - *e).norm() < 1e-12,
                    "({q0}, {q1})"
                );
            }
        }
    }

    #[test]
    fn measurement_sampler_matches_linear_scan() {
        let s = scrambled_state(6);
        let sampler = s.measurement_sampler();
        assert_eq!(sampler.len(), 64);
        assert!(!sampler.is_empty());
        // Same seed stream: the binary search picks the same outcomes as the
        // linear subtraction scan (both consume one draw per shot).
        let mut rng_a = RngSeed(41).rng();
        let mut rng_b = RngSeed(41).rng();
        for _ in 0..500 {
            assert_eq!(sampler.sample(&mut rng_a), s.sample_measurement(&mut rng_b));
        }
    }
}
