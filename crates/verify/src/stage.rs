//! Per-stage legality rules over compilation-pipeline snapshots.
//!
//! The compiler exposes its intermediate state after every stage as a
//! [`StageSnapshot`]; the structural rules here, run by
//! [`Verifier::structural`](crate::Verifier::structural), prove the stage
//! invariants of the paper's pipeline (Fig. 1), in this order:
//!
//! 1. `route/coupling`: every post-routing two-qubit operation on a coupled
//!    pair of the subdevice;
//! 2. `isa/gate-set`: only instruction-set gates after decomposition;
//! 3. `layout/bijection`: logical↔physical layouts that are bijections;
//! 4. `layout/swap-consistency`: a final permutation consistent with the
//!    recorded SWAPs (right after routing).
//!
//! Qubit indices need no rule: `Circuit::push` rejects an index outside the
//! register and `Operation::new` a two-qubit operation on one qubit, and a
//! circuit can be built no other way.

use circuit::{Circuit, OpKind, QubitId};
use device::DeviceModel;
use gates::{GateSetKind, InstructionSet};
use qmath::Mat4;

use crate::diagnostic::Diagnostic;
use crate::rule::TOLERANCE;

/// The pipeline stage a snapshot was taken after.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// After region selection: a connected region has been chosen.
    RegionSelect,
    /// After initial mapping: logical qubits are placed on the region.
    InitialMap,
    /// After routing: the circuit acts on physical qubits, SWAPs inserted.
    SwapRoute,
    /// After NuOp decomposition: only instruction-set gates remain.
    NuOpDecompose,
}

/// A read-only view of the compiler's intermediate state after one stage.
///
/// The compiler builds one from what its stages have produced so far (the
/// region, the layouts, the current circuit); rules see only this view,
/// which keeps this crate below the compiler in the dependency graph.
#[derive(Debug, Clone, Copy)]
pub struct StageSnapshot<'a> {
    /// Which stage the snapshot was taken after.
    pub stage: Stage,
    /// The circuit as it exists at this stage. Before routing it acts on
    /// logical qubits; from [`Stage::SwapRoute`] on it acts on the physical
    /// qubits of the selected subdevice.
    pub circuit: &'a Circuit,
    /// The selected region as device-global qubit ids (empty before
    /// region selection has run).
    pub region: &'a [QubitId],
    /// The region's subdevice (region-local indexing), once selected.
    pub subdevice: Option<&'a DeviceModel>,
    /// `initial_layout[logical] = physical` placement before the first op.
    pub initial_layout: &'a [QubitId],
    /// Placement after the last operation (SWAPs permute the layout).
    pub final_layout: &'a [QubitId],
    /// Number of SWAP operations routing inserted.
    pub swap_count: usize,
    /// Number of SWAP operations the pre-routing program already contained.
    /// Program-level SWAPs are data-moving gates, not layout bookkeeping:
    /// routing keeps them in the stream without touching the layout, so the
    /// swap-consistency rule must not replay them.
    pub program_swap_count: usize,
    /// The instruction set the pipeline decomposes into, when known.
    pub instruction_set: Option<&'a InstructionSet>,
}

/// The structural rules over `snap`, in evaluation order.
pub(crate) fn check(snap: &StageSnapshot<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    coupling(snap, &mut out);
    instruction_set(snap, &mut out);
    layout_bijection(snap, &mut out);
    swap_consistency(snap, &mut out);
    out
}

/// `route/coupling`: after routing, every two-qubit operation acts on a
/// coupled pair of the selected subdevice.
fn coupling(snap: &StageSnapshot<'_>, out: &mut Vec<Diagnostic>) {
    if snap.stage < Stage::SwapRoute {
        return;
    }
    let Some(subdevice) = snap.subdevice else {
        return;
    };
    let topology = subdevice.topology();
    for (i, op) in snap.circuit.iter().enumerate() {
        if !op.is_two_qubit_unitary() {
            continue;
        }
        let (q0, q1) = (op.qubits()[0], op.qubits()[1]);
        if q0 < topology.num_qubits() && q1 < topology.num_qubits() && !topology.has_edge(q0, q1) {
            out.push(
                Diagnostic::error(
                    "route/coupling",
                    format!(
                        "op {i} ({}) acts on uncoupled pair ({q0}, {q1}) of {}",
                        op.label(),
                        subdevice.name(),
                    ),
                )
                .at_op(i),
            );
        }
    }
}

/// `isa/gate-set`: after decomposition, every two-qubit unitary is a gate of
/// the target instruction set — by label *and* by matrix. For discrete sets
/// the matrix must equal the named gate type's unitary; for continuous
/// families the matrix must be a member of the family (its parameters are
/// recovered and the gate rebuilt).
fn instruction_set(snap: &StageSnapshot<'_>, out: &mut Vec<Diagnostic>) {
    const ID: &str = "isa/gate-set";
    if snap.stage != Stage::NuOpDecompose {
        return;
    }
    let Some(set) = snap.instruction_set else {
        return;
    };
    for (i, op) in snap.circuit.iter().enumerate() {
        let OpKind::Unitary2Q { matrix, .. } = op.kind() else {
            continue;
        };
        match set.kind() {
            GateSetKind::Discrete(types) => match types.iter().find(|t| t.name() == op.label()) {
                None => out.push(
                    Diagnostic::error(
                        ID,
                        format!(
                            "op {i} ({}) is not a gate of instruction set {}",
                            op.label(),
                            set.name()
                        ),
                    )
                    .at_op(i),
                ),
                Some(gate) => {
                    if matrix.max_abs_diff(gate.unitary()) > TOLERANCE {
                        out.push(
                            Diagnostic::error(
                                ID,
                                format!(
                                    "op {i} is labelled {} but its matrix differs from \
                                     the {} gate of set {}",
                                    op.label(),
                                    gate.name(),
                                    set.name()
                                ),
                            )
                            .at_op(i),
                        );
                    }
                }
            },
            GateSetKind::Continuous(family) => {
                if op.label() != family.name() {
                    out.push(
                        Diagnostic::error(
                            ID,
                            format!("op {i} ({}) is not a {} gate", op.label(), family.name()),
                        )
                        .at_op(i),
                    );
                    continue;
                }
                // Recover the family parameters from the matrix entries
                // and rebuild; a member reproduces itself exactly.
                let params = recover_family_params(*family, matrix);
                let rebuilt = family.unitary(&params);
                if matrix.max_abs_diff(&rebuilt) > TOLERANCE {
                    out.push(
                        Diagnostic::error(
                            ID,
                            format!(
                                "op {i} is labelled {} but its matrix is not a member of \
                                 the family",
                                family.name()
                            ),
                        )
                        .at_op(i),
                    );
                }
            }
        }
    }
}

/// Recovers the parameters of a continuous-family member from its matrix.
/// For non-members the rebuilt gate simply fails the comparison.
fn recover_family_params(family: gates::fsim::ContinuousFamily, m: &Mat4) -> Vec<f64> {
    use gates::fsim::ContinuousFamily;
    match family {
        // FullXY members are emitted in the fSim coordinate system,
        // `fSim(θ/2, 0)`: centre block [[cos θ/2, -i sin θ/2], [-i sin θ/2,
        // cos θ/2]].
        ContinuousFamily::FullXy => {
            let theta = 2.0 * f64::atan2(-m[(1, 2)].im, m[(1, 1)].re);
            vec![theta]
        }
        // fSim(θ, φ): centre block [[cos θ, -i sin θ], [-i sin θ, cos θ]],
        // corner e^{-iφ}.
        ContinuousFamily::FullFsim => {
            let theta = f64::atan2(-m[(1, 2)].im, m[(1, 1)].re);
            let phi = -m[(3, 3)].arg();
            vec![theta, phi]
        }
    }
}

/// `layout/bijection`: the logical→physical layouts are injective, in range,
/// and (once routing has run) the initial and final layouts agree in length.
fn layout_bijection(snap: &StageSnapshot<'_>, out: &mut Vec<Diagnostic>) {
    const ID: &str = "layout/bijection";
    if snap.stage < Stage::InitialMap {
        return;
    }
    let physical = snap
        .subdevice
        .map_or(snap.circuit.num_qubits(), DeviceModel::num_qubits);
    for (name, layout) in [
        ("initial", snap.initial_layout),
        ("final", snap.final_layout),
    ] {
        let mut seen = vec![false; physical];
        for (logical, &p) in layout.iter().enumerate() {
            if p >= physical {
                out.push(Diagnostic::error(
                    ID,
                    format!(
                        "{name} layout places logical qubit {logical} on physical qubit {p} \
                         of {physical}"
                    ),
                ));
            } else if seen[p] {
                out.push(Diagnostic::error(
                    ID,
                    format!("{name} layout places two logical qubits on physical qubit {p}"),
                ));
            } else {
                seen[p] = true;
            }
        }
    }
    if snap.stage >= Stage::SwapRoute && snap.initial_layout.len() != snap.final_layout.len() {
        out.push(Diagnostic::error(
            ID,
            format!(
                "initial layout covers {} logical qubits but final layout covers {}",
                snap.initial_layout.len(),
                snap.final_layout.len()
            ),
        ));
    }
}

/// `layout/swap-consistency`: replaying the routed circuit's `SWAP`
/// operations over the initial layout reproduces the recorded final layout
/// and swap count. Only meaningful right after routing, while SWAPs are still
/// labelled (decomposition rewrites them into native gates).
fn swap_consistency(snap: &StageSnapshot<'_>, out: &mut Vec<Diagnostic>) {
    const ID: &str = "layout/swap-consistency";
    if snap.stage != Stage::SwapRoute {
        return;
    }
    let mut layout = snap.initial_layout.to_vec();
    let mut swaps = 0usize;
    for op in snap.circuit.iter() {
        if !(op.is_two_qubit_unitary() && op.label() == "SWAP") {
            continue;
        }
        swaps += 1;
        let (p0, p1) = (op.qubits()[0], op.qubits()[1]);
        for p in &mut layout {
            if *p == p0 {
                *p = p1;
            } else if *p == p1 {
                *p = p0;
            }
        }
    }
    let expected = snap.swap_count + snap.program_swap_count;
    if swaps != expected {
        out.push(Diagnostic::error(
            ID,
            format!(
                "circuit contains {swaps} SWAP operations but the report records \
                 {} inserted + {} program-level",
                snap.swap_count, snap.program_swap_count
            ),
        ));
    }
    if snap.program_swap_count > 0 {
        // Program-level SWAPs move data without updating the layout, and
        // the stream records no per-op provenance, so the replay below
        // would mix bookkeeping and data movement. Count consistency
        // (above) is still checked.
        out.push(Diagnostic::info(
            ID,
            format!(
                "layout replay skipped: program contains {} SWAP gate(s) \
                 indistinguishable from routing SWAPs",
                snap.program_swap_count
            ),
        ));
    } else if layout != snap.final_layout {
        out.push(Diagnostic::error(
            ID,
            format!(
                "replaying {swaps} SWAPs over the initial layout yields {layout:?}, \
                 but the recorded final layout is {:?}",
                snap.final_layout
            ),
        ));
    }
}
