//! Bit-level pin of every finding the verifier emits.
//!
//! The three rule lists (`Verifier::structural`, `semantic` and
//! `statistical`) run over a hand-built corpus, and each finding's severity,
//! rule id, span and message fold, in order, into one FNV-1a hash:
//!
//! - stage snapshots: the mutations of `mutations.rs`, a clean snapshot at
//!   every stage, and cases for the messages those leave out (continuous
//!   instruction sets, out-of-range and mismatched layouts, program-level and
//!   unreplayable SWAPs);
//! - kernel streams: non-unitary 1q and 2q kernels, incomplete 1q and 2q
//!   Kraus sets, reordered, missing and extra draws, an Aggressive-style
//!   stream with an off-tolerance composed channel and an extra draw, a fused
//!   stream that matches its baseline and one that diverges from it, and a
//!   17-qubit stream past the equivalence spot check's limit;
//! - count pairs that agree (with and without the full-distribution check),
//!   disagree, or are empty;
//! - each list given an artifact of another list's kind, which reports
//!   nothing.
//!
//! Every rule id appears. There is no qubit-bounds rule: `Circuit::push`
//! rejects out-of-range qubits and `Operation::new` degenerate pairs (see
//! `mutations.rs`), so no snapshot can hold either.
//!
//! The recorded hash was produced on x86-64 Linux, where CI runs. The
//! equivalence probe state goes through the platform's `sin`, whose last bits
//! may differ elsewhere, so the comparison only runs on that target.

use std::collections::BTreeSet;

use circuit::{Circuit, Operation};
use device::DeviceModel;
use gates::fsim::ContinuousFamily;
use gates::{standard, GateType, InstructionSet};
use qmath::{Complex, Mat2, Mat4, RngSeed};
use verify::{
    Artifact, ChannelKraus, ChannelView, DistributionArtifact, KernelArtifact, KernelKind,
    KernelOp, Stage, StageSnapshot, Verifier,
};

/// FNV-1a over the little-endian bytes of each word.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }
}

/// Runs `verifier` over `artifact` and folds every finding into the hash.
struct Corpus {
    hash: Fnv,
    rules: BTreeSet<&'static str>,
}

impl Corpus {
    fn run(&mut self, verifier: &Verifier, artifact: &Artifact<'_>) {
        let report = verifier.run(artifact);
        self.hash.word(report.diagnostics().len() as u64);
        for d in report.diagnostics() {
            self.hash.text(d.severity().as_str());
            self.hash.text(d.rule());
            match d.span() {
                Some(span) => {
                    self.hash.word(1);
                    self.hash.word(span.start as u64);
                    self.hash.word(span.end as u64);
                }
                None => self.hash.word(0),
            }
            self.hash.text(d.message());
            self.rules.insert(d.rule());
        }
    }
}

/// A snapshot of a circuit on the three-qubit line region carved from the
/// Sycamore model (0–1 and 1–2 coupled, 0–2 not).
struct Snapshot<'a> {
    stage: Stage,
    circuit: &'a Circuit,
    initial_layout: &'a [usize],
    final_layout: &'a [usize],
    swap_count: usize,
    program_swap_count: usize,
    instruction_set: Option<&'a InstructionSet>,
}

fn stage_corpus(corpus: &mut Corpus) {
    let device = DeviceModel::sycamore(RngSeed(1));
    let region = vec![0, 1, 2];
    let subdevice = device.subdevice(&region);
    let mut check = |s: Snapshot<'_>| {
        let snapshot = StageSnapshot {
            stage: s.stage,
            circuit: s.circuit,
            region: &region,
            subdevice: Some(&subdevice),
            initial_layout: s.initial_layout,
            final_layout: s.final_layout,
            swap_count: s.swap_count,
            program_swap_count: s.program_swap_count,
            instruction_set: s.instruction_set,
        };
        corpus.run(&Verifier::structural(), &Artifact::Stage(&snapshot));
        corpus.run(&Verifier::semantic(), &Artifact::Stage(&snapshot));
    };
    let identity = [0, 1, 2];
    let s1 = InstructionSet::s(1);
    let full_xy = InstructionSet::full_xy();
    let syc = *GateType::syc().unitary();

    // The legal baseline of every mutation, at every stage.
    let mut legal = Circuit::new(3);
    legal.push(Operation::unitary2q("SYC", syc, 0, 1));
    legal.push(Operation::unitary2q("SYC", syc, 1, 2));
    legal.push(Operation::measure(vec![0, 1, 2]));
    for stage in [
        Stage::RegionSelect,
        Stage::InitialMap,
        Stage::SwapRoute,
        Stage::NuOpDecompose,
    ] {
        check(Snapshot {
            stage,
            circuit: &legal,
            initial_layout: &identity,
            final_layout: &identity,
            swap_count: 0,
            program_swap_count: 0,
            instruction_set: Some(&s1),
        });
    }

    // An uncoupled two-qubit op after routing.
    let mut uncoupled = Circuit::new(3);
    uncoupled.push(Operation::cz(0, 1));
    uncoupled.push(Operation::cz(0, 2));
    check(Snapshot {
        stage: Stage::SwapRoute,
        circuit: &uncoupled,
        initial_layout: &identity,
        final_layout: &identity,
        swap_count: 0,
        program_swap_count: 0,
        instruction_set: None,
    });

    // A gate outside the set, and a set gate's label on another matrix.
    let mut off_set = Circuit::new(3);
    off_set.push(Operation::unitary2q("SYC", syc, 0, 1));
    off_set.push(Operation::cz(1, 2));
    off_set.push(Operation::unitary2q("SYC", standard::cz(), 0, 1));
    check(Snapshot {
        stage: Stage::NuOpDecompose,
        circuit: &off_set,
        initial_layout: &identity,
        final_layout: &identity,
        swap_count: 0,
        program_swap_count: 0,
        instruction_set: Some(&s1),
    });

    // A continuous family: one member, one foreign label, one non-member.
    let mut continuous = Circuit::new(3);
    continuous.push(Operation::unitary2q(
        "FullXY",
        ContinuousFamily::FullXy.unitary(&[0.7]),
        0,
        1,
    ));
    continuous.push(Operation::cz(1, 2));
    continuous.push(Operation::unitary2q("FullXY", standard::cz(), 1, 2));
    check(Snapshot {
        stage: Stage::NuOpDecompose,
        circuit: &continuous,
        initial_layout: &identity,
        final_layout: &identity,
        swap_count: 0,
        program_swap_count: 0,
        instruction_set: Some(&full_xy),
    });

    // Two logical qubits on one physical qubit.
    let mut one_op = Circuit::new(3);
    one_op.push(Operation::h(0));
    check(Snapshot {
        stage: Stage::InitialMap,
        circuit: &one_op,
        initial_layout: &[0, 1, 1],
        final_layout: &identity,
        swap_count: 0,
        program_swap_count: 0,
        instruction_set: None,
    });

    // An out-of-range placement, and layouts of different lengths.
    check(Snapshot {
        stage: Stage::SwapRoute,
        circuit: &one_op,
        initial_layout: &[0, 1, 5],
        final_layout: &[0, 1],
        swap_count: 0,
        program_swap_count: 0,
        instruction_set: None,
    });

    // A SWAP the report does not record.
    let mut swapped = Circuit::new(3);
    swapped.push(Operation::swap(0, 1));
    check(Snapshot {
        stage: Stage::SwapRoute,
        circuit: &swapped,
        initial_layout: &identity,
        final_layout: &identity,
        swap_count: 0,
        program_swap_count: 0,
        instruction_set: None,
    });

    // A recorded SWAP whose permutation the final layout does not show.
    check(Snapshot {
        stage: Stage::SwapRoute,
        circuit: &swapped,
        initial_layout: &identity,
        final_layout: &identity,
        swap_count: 1,
        program_swap_count: 0,
        instruction_set: None,
    });

    // A program-level SWAP: counted, but the layout replay is skipped.
    check(Snapshot {
        stage: Stage::SwapRoute,
        circuit: &swapped,
        initial_layout: &identity,
        final_layout: &identity,
        swap_count: 0,
        program_swap_count: 1,
        instruction_set: None,
    });
}

/// `√(1−p)·I, √p·X`: a complete one-qubit bit-flip channel.
fn flip1(p: f64) -> Vec<Mat2> {
    vec![
        Mat2::identity().scale((1.0 - p).sqrt()),
        standard::x().scale(p.sqrt()),
    ]
}

/// `√(1−p)·I, √p·X⊗X`: a complete two-qubit bit-flip channel.
fn flip2(p: f64) -> Vec<Mat4> {
    vec![
        Mat4::identity().scale((1.0 - p).sqrt()),
        standard::x().kron(&standard::x()).scale(p.sqrt()),
    ]
}

fn channel(qubits: &[usize], kraus: ChannelKraus) -> ChannelView {
    ChannelView {
        qubits: qubits.to_vec(),
        kraus,
        consumes_rng: true,
    }
}

/// H on 0 then CZ on (0, 1) then X on 2 then a measurement, with a bit-flip
/// draw after each kernel.
fn baseline() -> Vec<KernelOp> {
    vec![
        KernelOp {
            index: 0,
            kind: KernelKind::One {
                matrix: standard::h(),
                qubit: 0,
            },
            channels: vec![channel(&[0], ChannelKraus::One(flip1(0.1)))],
        },
        KernelOp {
            index: 1,
            kind: KernelKind::Two {
                matrix: standard::cz(),
                q0: 0,
                q1: 1,
            },
            channels: vec![channel(&[0, 1], ChannelKraus::Two(flip2(0.05)))],
        },
        KernelOp {
            index: 2,
            kind: KernelKind::One {
                matrix: standard::x(),
                qubit: 2,
            },
            channels: vec![channel(&[2], ChannelKraus::One(flip1(0.2)))],
        },
        KernelOp {
            index: 3,
            kind: KernelKind::Silent,
            channels: Vec::new(),
        },
    ]
}

/// The baseline with H folded into the CZ kernel: `fused` gives the 4×4
/// product, and the draws stay in the baseline's order.
fn fused(matrix: Mat4) -> Vec<KernelOp> {
    let base = baseline();
    vec![
        KernelOp {
            index: 0,
            kind: KernelKind::Two {
                matrix,
                q0: 0,
                q1: 1,
            },
            channels: vec![base[0].channels[0].clone(), base[1].channels[0].clone()],
        },
        KernelOp {
            index: 1,
            ..base[2].clone()
        },
        KernelOp {
            index: 2,
            ..base[3].clone()
        },
    ]
}

fn kernel_corpus(corpus: &mut Corpus) {
    let base = baseline();
    let mut check = |num_qubits: usize, ops: &[KernelOp], with_baseline: bool, exact: bool| {
        let artifact = KernelArtifact {
            num_qubits,
            ops,
            baseline: with_baseline.then_some(base.as_slice()),
            rng_order_exact: exact,
        };
        corpus.run(&Verifier::semantic(), &Artifact::Kernels(&artifact));
        corpus.run(&Verifier::statistical(), &Artifact::Kernels(&artifact));
    };

    // Clean: alone, against itself, and Aggressive-style against itself.
    check(3, &base, false, true);
    check(3, &base, true, true);
    check(3, &base, true, false);

    // A non-unitary 1q kernel and a non-unitary 2q kernel.
    let mut ops = baseline();
    if let KernelKind::One { matrix, .. } = &mut ops[0].kind {
        *matrix = matrix.scale(1.1);
    }
    check(3, &ops, true, true);
    let mut ops = baseline();
    if let KernelKind::Two { matrix, .. } = &mut ops[1].kind {
        matrix[(0, 0)] += Complex::from_real(0.25);
    }
    check(3, &ops, true, true);

    // Incomplete 1q and 2q Kraus sets.
    let mut ops = baseline();
    ops[0].channels[0].kraus = ChannelKraus::One(flip1(0.1)[..1].to_vec());
    ops[1].channels[0].kraus = ChannelKraus::Two(flip2(0.05)[..1].to_vec());
    check(3, &ops, false, true);
    check(3, &ops, true, true);

    // A reordered draw, a missing draw and an extra draw.
    let mut ops = baseline();
    let first = std::mem::take(&mut ops[0].channels);
    ops[0].channels = std::mem::replace(&mut ops[2].channels, first);
    check(3, &ops, true, true);
    let mut ops = baseline();
    ops[2].channels.clear();
    check(3, &ops, true, true);
    let mut ops = baseline();
    ops[3]
        .channels
        .push(channel(&[1], ChannelKraus::One(flip1(0.3))));
    check(3, &ops, true, true);

    // Aggressive-style: a composed channel off by 1e-7 in completeness (inside
    // the plain tolerance, outside the composed one) and an extra draw.
    let mut ops = baseline();
    let mut composed = flip1(0.1);
    composed[0] = composed[0].scale(1.0 + 5e-8);
    ops[0].channels[0].kraus = ChannelKraus::One(composed);
    ops[3]
        .channels
        .push(channel(&[1], ChannelKraus::One(flip1(0.3))));
    check(3, &ops, true, false);
    check(3, &ops, false, false);

    // A fused stream that matches its baseline, and one whose product is in
    // the wrong order.
    let h0 = standard::h().kron(&Mat2::identity());
    check(3, &fused(standard::cz() * h0), true, true);
    check(3, &fused(h0 * standard::cz()), true, true);

    // A register one qubit past the equivalence spot check's limit.
    check(17, &base, true, true);
}

fn distribution_corpus(corpus: &mut Corpus) {
    let mut check =
        |num_qubits: usize, counts_a: &[(usize, usize)], counts_b: &[(usize, usize)]| {
            let artifact = DistributionArtifact {
                num_qubits,
                label_a: "safe",
                label_b: "aggressive",
                counts_a,
                counts_b,
            };
            corpus.run(
                &Verifier::statistical(),
                &Artifact::Distributions(&artifact),
            );
            corpus.run(&Verifier::structural(), &Artifact::Distributions(&artifact));
        };
    // Agreeing samples, with and then without the full-distribution check.
    check(2, &[(0, 1020), (3, 980)], &[(0, 968), (3, 1032)]);
    check(3, &[(0, 10), (7, 10)], &[(0, 9), (7, 11)]);
    // Disagreeing samples: both marginals and the full distribution.
    check(2, &[(0, 2000)], &[(3, 2000)]);
    // Small samples: a 0.5 marginal gap stays within the bound, a full flip
    // of qubit 0 does not, and neither sample can resolve the full check.
    check(3, &[(0, 20), (1, 20)], &[(0, 20), (1, 0), (5, 20)]);
    check(5, &[(0, 100)], &[(0b10000, 100)]);
    // Empty samples and an empty register.
    check(2, &[], &[(0, 10)]);
    check(2, &[(0, 10)], &[]);
    check(0, &[(0, 10)], &[(0, 10)]);
}

fn fingerprint() -> (u64, BTreeSet<&'static str>) {
    let mut corpus = Corpus {
        hash: Fnv::new(),
        rules: BTreeSet::new(),
    };
    stage_corpus(&mut corpus);
    kernel_corpus(&mut corpus);
    distribution_corpus(&mut corpus);
    (corpus.hash.0, corpus.rules)
}

#[test]
fn every_reachable_rule_reports_a_finding() {
    let (_, rules) = fingerprint();
    let expected: BTreeSet<&str> = [
        "route/coupling",
        "isa/gate-set",
        "layout/bijection",
        "layout/swap-consistency",
        "kernel/unitarity",
        "channel/kraus-completeness",
        "fusion/rng-order",
        "channel/composition",
        "fusion/equivalence",
        "fusion/tvd-bound",
    ]
    .into_iter()
    .collect();
    assert_eq!(rules, expected);
}

#[test]
#[cfg_attr(
    not(all(target_arch = "x86_64", target_os = "linux")),
    ignore = "the hash was recorded on x86-64 Linux"
)]
fn findings_are_bit_identical_to_the_recorded_fingerprint() {
    assert_eq!(fingerprint().0, 0xb9e3_7ce8_d8e9_b79a);
}
