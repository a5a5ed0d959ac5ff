//! The composable rule machinery: [`Rule`], [`Artifact`], [`Context`] and
//! the [`Verifier`] that runs a rule set over an artifact.

use crate::diagnostic::{Diagnostic, VerifyReport};
use crate::distribution::DistributionArtifact;
use crate::kernel::KernelArtifact;
use crate::stage::StageSnapshot;

/// Something the verifier can analyse. Rules receive every artifact and
/// silently skip the variants they do not apply to, so one rule set can be
/// run over a whole pipeline.
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

impl VerifyLevel {
    /// True unless the level is [`VerifyLevel::Off`].
    pub fn is_enabled(self) -> bool {
        self != VerifyLevel::Off
    }
}

/// Numerical thresholds shared by all rules.
#[derive(Debug, Clone, Copy)]
pub struct Context {
    /// Largest acceptable deviation for matrix comparisons, unitarity and
    /// Kraus completeness.
    pub tolerance: f64,
    /// Widest register (in qubits) the fused-vs-unfused equivalence spot
    /// check will propagate a probe state through; wider registers are
    /// skipped with an info finding.
    pub equivalence_max_qubits: usize,
    /// Tight completeness tolerance for *composed* channels (the
    /// `channel/composition` rule): conjugation and composition preserve
    /// trace preservation exactly in exact arithmetic, so drift beyond
    /// rounding noise indicates broken carry math.
    pub composed_tolerance: f64,
    /// Confidence level `1 − δ` for the statistical `fusion/tvd-bound` rule's
    /// analytic bound (probability that two same-distribution samples stay
    /// within the bound).
    pub tvd_confidence: f64,
}

impl Default for Context {
    fn default() -> Context {
        Context {
            tolerance: 1e-6,
            equivalence_max_qubits: 16,
            composed_tolerance: 1e-9,
            tvd_confidence: 0.999_999,
        }
    }
}

/// One legality or semantic check. Implementations inspect the artifact and
/// append [`Diagnostic`]s for every violation they find; a rule that does not
/// apply to the artifact appends nothing.
pub trait Rule: Send + Sync {
    /// Stable rule id, e.g. `"route/coupling"`; findings carry it.
    fn id(&self) -> &'static str;

    /// One-line human description of the invariant the rule proves.
    fn description(&self) -> &'static str;

    /// Checks `artifact`, appending findings to `out`.
    fn check(&self, artifact: &Artifact<'_>, ctx: &Context, out: &mut Vec<Diagnostic>);
}

/// A configured set of rules.
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
/// let report = Verifier::with_default_rules().run(&Artifact::Stage(&snapshot));
/// assert!(!report.has_errors());
/// ```
pub struct Verifier {
    rules: Vec<Box<dyn Rule>>,
    context: Context,
}

impl Verifier {
    /// An empty verifier; add rules with [`Verifier::rule`].
    pub fn new() -> Verifier {
        Verifier {
            rules: Vec::new(),
            context: Context::default(),
        }
    }

    /// A verifier loaded with every built-in rule (structural and semantic).
    pub fn with_default_rules() -> Verifier {
        let mut v = Verifier::new();
        v.rules.extend(crate::stage::structural_rules());
        v.rules.extend(crate::kernel::semantic_rules());
        v
    }

    /// A verifier with only the structural (pipeline-stage) rules.
    pub fn structural() -> Verifier {
        let mut v = Verifier::new();
        v.rules.extend(crate::stage::structural_rules());
        v
    }

    /// A verifier with only the semantic (kernel-stream) rules.
    pub fn semantic() -> Verifier {
        let mut v = Verifier::new();
        v.rules.extend(crate::kernel::semantic_rules());
        v
    }

    /// A verifier with only the statistical (count-distribution) rules.
    pub fn statistical() -> Verifier {
        let mut v = Verifier::new();
        v.rules.extend(crate::distribution::statistical_rules());
        v
    }

    /// Adds a rule.
    pub fn rule(mut self, rule: Box<dyn Rule>) -> Verifier {
        self.rules.push(rule);
        self
    }

    /// Replaces the numerical context.
    pub fn context(mut self, context: Context) -> Verifier {
        self.context = context;
        self
    }

    /// Runs every rule over the artifact and collects the findings.
    pub fn run(&self, artifact: &Artifact<'_>) -> VerifyReport {
        let mut out = Vec::new();
        for rule in &self.rules {
            rule.check(artifact, &self.context, &mut out);
        }
        VerifyReport::from_diagnostics(out)
    }
}

impl Default for Verifier {
    fn default() -> Verifier {
        Verifier::with_default_rules()
    }
}
