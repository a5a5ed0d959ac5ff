//! Static analysis over circuits and compiled/precompiled artifacts.
//!
//! This crate proves compiled artifacts legal *before they run a single
//! shot*. It sits below the compiler and the simulator in the dependency
//! graph: both hand it neutral views of their intermediate state
//! ([`StageSnapshot`] for pipeline stages, [`KernelArtifact`] for lowered
//! kernel streams) and get back a [`VerifyReport`] of [`Diagnostic`]s.
//!
//! A [`Verifier`] ([`rule`]) runs one of three fixed rule lists over an
//! [`Artifact`]:
//!
//! * [`stage`] — [`Verifier::structural`]: legality of the compilation
//!   pipeline's stages (post-routing coupling, post-decomposition
//!   instruction-set conformance, layout bijections, swap/permutation
//!   consistency).
//! * [`kernel`] — [`Verifier::semantic`]: soundness of lowered simulation
//!   kernels (unitarity, Kraus completeness, RNG draw-order audit,
//!   composed-channel sanity for aggressive fusion, fused-vs-unfused
//!   equivalence).
//! * [`distribution`] — [`Verifier::statistical`]: agreement of two
//!   measurement-count histograms (the TVD-bound harness validating
//!   `FusionPolicy::Aggressive` against `Safe`, where bit-identity no longer
//!   holds).
//!
//! [`diagnostic`] holds the severities, op-index spans, findings and their
//! flat-JSON rendering.
//!
//! # Example
//!
//! ```
//! use circuit::{Circuit, Operation};
//! use device::DeviceModel;
//! use qmath::RngSeed;
//! use verify::{Artifact, Stage, StageSnapshot, Verifier};
//!
//! // A "routed" circuit with a two-qubit gate on an uncoupled pair.
//! let device = DeviceModel::sycamore(RngSeed(1)).subdevice(&[0, 1, 2]);
//! let mut c = Circuit::new(3);
//! c.push(Operation::cz(0, 2)); // 0 and 2 are not adjacent on the line
//! let layout = [0, 1, 2];
//! let snapshot = StageSnapshot {
//!     stage: Stage::SwapRoute,
//!     circuit: &c,
//!     region: &[0, 1, 2],
//!     subdevice: Some(&device),
//!     initial_layout: &layout,
//!     final_layout: &layout,
//!     swap_count: 0,
//!     program_swap_count: 0,
//!     instruction_set: None,
//! };
//! let report = Verifier::structural().run(&Artifact::Stage(&snapshot));
//! assert!(report.has_errors());
//! assert_eq!(report.diagnostics()[0].rule(), "route/coupling");
//! assert_eq!(report.diagnostics()[0].span().unwrap().start, 0);
//! ```

#![warn(missing_docs)]
#![deny(deprecated)]

pub mod diagnostic;
pub mod distribution;
pub mod kernel;
pub mod rule;
pub mod stage;

pub use diagnostic::{Diagnostic, Severity, Span, VerifyReport};
pub use distribution::{marginal_probabilities, tvd_bound, two_sample_tvd, DistributionArtifact};
pub use kernel::{ChannelKraus, ChannelView, KernelArtifact, KernelKind, KernelOp};
pub use rule::{Artifact, Verifier, VerifyLevel};
pub use stage::{Stage, StageSnapshot};
