//! The [`Verifier`] that runs one of the three fixed rule lists over an
//! [`Artifact`], and the [`VerifyLevel`] integration points choose.

use crate::diagnostic::VerifyReport;
use crate::distribution::{self, DistributionArtifact};
use crate::kernel::{self, KernelArtifact};
use crate::stage::{self, StageSnapshot};

/// Largest acceptable deviation for matrix comparisons, unitarity and Kraus
/// completeness.
pub(crate) const TOLERANCE: f64 = 1e-6;

/// Something the verifier can analyse. Each rule list checks one variant;
/// a [`Verifier`] given another variant reports nothing.
#[derive(Debug, Clone, Copy)]
pub enum Artifact<'a> {
    /// A compilation-pipeline snapshot (see [`StageSnapshot`]).
    Stage(&'a StageSnapshot<'a>),
    /// A lowered simulation kernel stream (see [`KernelArtifact`]).
    Kernels(&'a KernelArtifact<'a>),
    /// Two empirical count distributions that should agree (see
    /// [`DistributionArtifact`]).
    Distributions(&'a DistributionArtifact<'a>),
}

/// How much static verification an integration point should run.
///
/// The compiler and execution engine accept this knob; `Off` skips
/// verification entirely, `Final` checks only the finished artifact, and
/// `PerStage` checks after every pipeline stage (the strictest setting,
/// catching a pass that breaks an invariant even when a later pass happens
/// to repair it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum VerifyLevel {
    /// No verification.
    #[default]
    Off,
    /// Verify the final artifact only.
    Final,
    /// Verify after every pipeline stage.
    PerStage,
}

/// The rule list a [`Verifier`] runs.
#[derive(Clone, Copy)]
enum RuleList {
    Structural,
    Semantic,
    Statistical,
}

/// Runs one of the three fixed rule lists over an artifact.
///
/// ```
/// use circuit::{Circuit, Operation};
/// use verify::{Artifact, Stage, StageSnapshot, Verifier};
///
/// let mut c = Circuit::new(2);
/// c.push(Operation::cz(0, 1));
/// let snapshot = StageSnapshot {
///     stage: Stage::RegionSelect,
///     circuit: &c,
///     region: &[],
///     subdevice: None,
///     initial_layout: &[],
///     final_layout: &[],
///     swap_count: 0,
///     program_swap_count: 0,
///     instruction_set: None,
/// };
/// let report = Verifier::structural().run(&Artifact::Stage(&snapshot));
/// assert!(!report.has_errors());
/// ```
pub struct Verifier {
    list: RuleList,
}

impl Verifier {
    /// The structural rules over [`Artifact::Stage`] snapshots (see
    /// [`stage`]).
    pub fn structural() -> Verifier {
        Verifier {
            list: RuleList::Structural,
        }
    }

    /// The semantic rules over [`Artifact::Kernels`] streams (see
    /// [`kernel`]).
    pub fn semantic() -> Verifier {
        Verifier {
            list: RuleList::Semantic,
        }
    }

    /// The statistical rule over [`Artifact::Distributions`] pairs (see
    /// [`distribution`]).
    pub fn statistical() -> Verifier {
        Verifier {
            list: RuleList::Statistical,
        }
    }

    /// Runs the rule list over `artifact` and collects the findings, in rule
    /// order. An artifact of another list's kind yields an empty report.
    pub fn run(&self, artifact: &Artifact<'_>) -> VerifyReport {
        let diagnostics = match (self.list, artifact) {
            (RuleList::Structural, Artifact::Stage(snapshot)) => stage::check(snapshot),
            (RuleList::Semantic, Artifact::Kernels(kernels)) => kernel::check(kernels),
            (RuleList::Statistical, Artifact::Distributions(counts)) => distribution::check(counts),
            _ => Vec::new(),
        };
        VerifyReport::from_diagnostics(diagnostics)
    }
}
