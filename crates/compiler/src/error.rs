//! Typed compilation errors.
//!
//! Every failure a hostable-but-invalid input can trigger surfaces as a
//! [`CompileError`] instead of a panic, so a long-running service can reject
//! one bad compile request without dying.

use std::fmt;

use circuit::QubitId;
use gates::InvalidInstructionSet;
use serde::{Deserialize, Serialize};

/// Why a compile request could not be served.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CompileError {
    /// The circuit has zero qubits — there is nothing to place.
    EmptyCircuit,
    /// The device has fewer qubits than the circuit needs.
    RegionUnavailable {
        /// Qubits the circuit needs.
        requested: usize,
        /// Qubits the device offers.
        available: usize,
    },
    /// The device is large enough but no connected region of the requested
    /// size exists (fragmented topology).
    RegionDisconnected {
        /// Qubits the circuit needs.
        requested: usize,
    },
    /// The instruction set is missing or not a valid Table II set.
    InvalidInstructionSet(InvalidInstructionSet),
    /// Routing found no path between two physical qubits (disconnected
    /// subdevice handed to the router).
    RoutingUnreachable {
        /// First physical qubit.
        q0: QubitId,
        /// Second physical qubit.
        q1: QubitId,
    },
    /// An initial layout handed to the router does not fit the circuit or
    /// device.
    InvalidLayout {
        /// Human-readable explanation.
        reason: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::EmptyCircuit => write!(f, "circuit has no qubits"),
            CompileError::RegionUnavailable {
                requested,
                available,
            } => write!(
                f,
                "device has only {available} qubits, circuit needs {requested}"
            ),
            CompileError::RegionDisconnected { requested } => {
                write!(
                    f,
                    "no connected {requested}-qubit region found on the device"
                )
            }
            CompileError::InvalidInstructionSet(err) => {
                write!(f, "invalid instruction set: {err}")
            }
            CompileError::RoutingUnreachable { q0, q1 } => {
                write!(f, "no path between physical qubits {q0} and {q1}")
            }
            CompileError::InvalidLayout { reason } => write!(f, "invalid layout: {reason}"),
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::InvalidInstructionSet(err) => Some(err),
            _ => None,
        }
    }
}

impl From<InvalidInstructionSet> for CompileError {
    fn from(err: InvalidInstructionSet) -> Self {
        CompileError::InvalidInstructionSet(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = CompileError::RegionUnavailable {
            requested: 9,
            available: 3,
        };
        assert!(e.to_string().contains("only 3 qubits"));
        assert!(e.to_string().contains("needs 9"));
        let e = CompileError::RoutingUnreachable { q0: 1, q1: 7 };
        assert!(e.to_string().contains("1 and 7"));
    }

    #[test]
    fn instruction_set_errors_convert_and_chain() {
        let err: CompileError = InvalidInstructionSet::new("G9", "G9 is not defined").into();
        assert!(err.to_string().contains("G9 is not defined"));
        let dynamic: &dyn std::error::Error = &err;
        assert!(dynamic.source().is_some());
    }
}
