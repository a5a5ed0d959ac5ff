//! SWAP-insertion routing.
//!
//! Two-qubit operations whose logical qubits sit on non-adjacent physical
//! qubits are preceded by SWAP operations that move one operand along the
//! shortest path towards the other. SWAPs are emitted as plain two-qubit
//! unitaries labelled `"SWAP"`; the NuOp pass later decomposes them into
//! whatever the instruction set offers (one native SWAP for R5/G7, three CZs
//! for CZ-only sets, …), which is exactly how the paper accounts for routing
//! cost.

use circuit::{Circuit, OpKind, Operation, QubitId};
use device::DeviceModel;
use serde::{Deserialize, Serialize};

use crate::error::CompileError;

/// The result of routing a circuit onto a device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutedCircuit {
    /// The routed circuit over the device's physical qubits.
    pub circuit: Circuit,
    /// Placement before the first operation: `initial_layout[logical] = physical`.
    pub initial_layout: Vec<QubitId>,
    /// Placement after the last operation (SWAPs permute the layout).
    pub final_layout: Vec<QubitId>,
    /// Number of SWAP operations inserted.
    pub swap_count: usize,
}

impl RoutedCircuit {
    /// Converts a measured physical basis index into the logical basis index,
    /// using the final layout (logical bit `l` is read from physical qubit
    /// `final_layout[l]`).
    pub fn logical_outcome(&self, physical_outcome: usize) -> usize {
        logical_outcome_for(
            &self.final_layout,
            self.circuit.num_qubits(),
            physical_outcome,
        )
    }
}

/// Converts a measured physical basis index into the logical basis index
/// given the final layout (logical bit `l` is read from physical qubit
/// `final_layout[l]`) and the number of physical qubits in the measured
/// register.
pub fn logical_outcome_for(
    final_layout: &[QubitId],
    num_physical: usize,
    physical_outcome: usize,
) -> usize {
    let n_logical = final_layout.len();
    let mut logical = 0usize;
    for (l, &p) in final_layout.iter().enumerate() {
        let bit = (physical_outcome >> (num_physical - 1 - p)) & 1;
        logical |= bit << (n_logical - 1 - l);
    }
    logical
}

/// Routes `circuit` onto `device` starting from `initial_layout`.
///
/// Bad layouts and disconnected devices return
/// [`CompileError`] instead of panicking.
pub fn try_route(
    circuit: &Circuit,
    device: &DeviceModel,
    initial_layout: &[QubitId],
) -> Result<RoutedCircuit, CompileError> {
    if initial_layout.len() != circuit.num_qubits() {
        return Err(CompileError::InvalidLayout {
            reason: "layout must assign every logical qubit".to_string(),
        });
    }
    for &p in initial_layout {
        if p >= device.num_qubits() {
            return Err(CompileError::InvalidLayout {
                reason: format!("layout refers to physical qubit {p} out of range"),
            });
        }
    }
    let topo = device.topology();
    let mut layout = initial_layout.to_vec(); // logical -> physical
    let mut routed = Circuit::new(device.num_qubits());
    let mut swap_count = 0usize;

    for op in circuit.iter() {
        match op.kind() {
            OpKind::Unitary1Q { .. } => {
                routed.push(op.retargeted(vec![layout[op.qubits()[0]]]));
            }
            OpKind::Measure | OpKind::Barrier => {
                let phys: Vec<QubitId> = op.qubits().iter().map(|&q| layout[q]).collect();
                routed.push(op.retargeted(phys));
            }
            OpKind::Unitary2Q { .. } => {
                let (l0, l1) = (op.qubits()[0], op.qubits()[1]);
                let (mut p0, p1) = (layout[l0], layout[l1]);
                if !topo.has_edge(p0, p1) {
                    let path = topo
                        .shortest_path(p0, p1)
                        .ok_or(CompileError::RoutingUnreachable { q0: p0, q1: p1 })?;
                    // Move l0 along the path until adjacent to p1.
                    for &next in &path[1..path.len() - 1] {
                        routed.push(Operation::swap(p0, next));
                        swap_count += 1;
                        // Update the layout: whichever logical qubit was at
                        // `next` moves to `p0`.
                        if let Some(l_at_next) = layout.iter().position(|&p| p == next) {
                            layout[l_at_next] = p0;
                        }
                        layout[l0] = next;
                        p0 = next;
                    }
                }
                routed.push(op.retargeted(vec![layout[l0], layout[l1]]));
            }
        }
    }

    Ok(RoutedCircuit {
        circuit: routed,
        initial_layout: initial_layout.to_vec(),
        final_layout: layout,
        swap_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmath::RngSeed;

    fn line_device(n: usize) -> DeviceModel {
        // A line topology with uniform calibration, built by carving a path out
        // of the Sycamore grid.
        let device = DeviceModel::sycamore(RngSeed(1));
        let physical: Vec<QubitId> = (0..n).collect(); // first row of the grid
        device.subdevice(&physical)
    }

    #[test]
    fn adjacent_operations_need_no_swaps() {
        let device = line_device(3);
        let mut c = Circuit::new(3);
        c.push(Operation::cz(0, 1));
        c.push(Operation::cz(1, 2));
        let routed = try_route(&c, &device, &[0, 1, 2]).unwrap();
        assert_eq!(routed.swap_count, 0);
        assert_eq!(routed.circuit.two_qubit_gate_count(), 2);
        assert_eq!(routed.final_layout, vec![0, 1, 2]);
    }

    #[test]
    fn distant_operation_inserts_swaps() {
        let device = line_device(4);
        let mut c = Circuit::new(4);
        c.push(Operation::cz(0, 3));
        let routed = try_route(&c, &device, &[0, 1, 2, 3]).unwrap();
        // Distance 3 on a line: two SWAPs bring qubit 0 adjacent to qubit 3.
        assert_eq!(routed.swap_count, 2);
        assert_eq!(routed.circuit.two_qubit_counts_by_label()["SWAP"], 2);
        // Logical qubit 0 now lives at physical 2.
        assert_eq!(routed.final_layout[0], 2);
    }

    #[test]
    fn routed_circuit_preserves_semantics() {
        // Compare ideal output distributions of original and routed circuits
        // (after undoing the final layout permutation).
        let device = line_device(3);
        let mut c = Circuit::new(3);
        c.push(Operation::h(0));
        c.push(Operation::cz(0, 2)); // needs routing
        c.push(Operation::h(2));
        c.measure_all();
        let routed = try_route(&c, &device, &[0, 1, 2]).unwrap();
        let ideal = sim::StateVector::evolve(&c).probabilities();
        let routed_probs = sim::StateVector::evolve(&routed.circuit).probabilities();
        for (physical_outcome, &p) in routed_probs.iter().enumerate() {
            let logical = routed.logical_outcome(physical_outcome);
            assert!(
                (p - ideal[logical]).abs() < 1e-9,
                "outcome {physical_outcome} -> {logical}"
            );
        }
    }

    #[test]
    fn one_qubit_gates_and_measurements_follow_the_layout() {
        let device = line_device(3);
        let mut c = Circuit::new(2);
        c.push(Operation::h(1));
        c.measure_all();
        let routed = try_route(&c, &device, &[2, 0]).unwrap();
        assert_eq!(routed.circuit.operations()[0].qubits(), &[0]);
        assert_eq!(routed.circuit.operations()[1].qubits(), &[2, 0]);
    }

    #[test]
    fn logical_outcome_inverts_layout_permutation() {
        let device = line_device(2);
        let mut c = Circuit::new(2);
        c.push(Operation::x(0));
        c.measure_all();
        let routed = try_route(&c, &device, &[1, 0]).unwrap();
        // Physical outcome with qubit 1 set corresponds to logical qubit 0 set.
        let physical = 0b01;
        assert_eq!(routed.logical_outcome(physical), 0b10);
    }

    #[test]
    fn try_route_reports_bad_layouts() {
        let device = line_device(3);
        let c = Circuit::new(2);
        assert!(matches!(
            try_route(&c, &device, &[0]),
            Err(CompileError::InvalidLayout { .. })
        ));
        assert!(matches!(
            try_route(&c, &device, &[0, 99]),
            Err(CompileError::InvalidLayout { .. })
        ));
    }

    #[test]
    fn try_route_reports_unreachable_pairs() {
        // Two disconnected single qubits: carve non-adjacent sites out of the
        // Sycamore grid so no path exists between them.
        let device = DeviceModel::sycamore(RngSeed(1)).subdevice(&[0, 2]);
        let mut c = Circuit::new(2);
        c.push(Operation::cz(0, 1));
        assert!(matches!(
            try_route(&c, &device, &[0, 1]),
            Err(CompileError::RoutingUnreachable { .. })
        ));
    }
}
