//! Static-verification audit: sweep the paper's instruction sets over
//! fig7/fig9-style workloads and prove every compiled and lowered artifact
//! legal — without executing a single shot.
//!
//! For every Table II instruction set × {QV, QAOA} workload the audit
//! compiles with per-stage verification enabled (coupling legality, gate-set
//! conformance, layout bijections, swap consistency), then lowers the
//! compiled circuit under both fusion policies and runs the semantic kernel
//! rules (unitarity, Kraus completeness, fused-vs-unfused equivalence and
//! RNG-draw-order fidelity).
//!
//! A machine-readable JSON report is printed to stdout after the sweep. The
//! process exits nonzero when any error-level finding survives, so CI can
//! gate on it directly:
//!
//! ```text
//! cargo run -p bench --bin audit -- --smoke   # CI: tiny sweep, fail on Error
//! cargo run -p bench --bin audit             # full small-scale sweep
//! cargo run -p bench --bin audit -- --scale paper
//! ```

use bench::{qaoa_suite, qv_suite, trace_sink_from_args, write_trace_or_exit, BenchCircuit, Scale};
use compiler::{CompiledCircuit, Compiler, VerifyLevel};
use device::DeviceModel;
use gates::InstructionSet;
use qmath::RngSeed;
use sim::{FusionPolicy, NoiseModel, PrecompiledCircuit};
use verify::{Diagnostic, Severity};

/// One finding plus the sweep coordinates it was found at.
struct Located {
    set: String,
    workload: &'static str,
    fusion: &'static str,
    phase: &'static str,
    diagnostic: Diagnostic,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let scale = Scale::from_args();
    // --trace <path>: record per-stage compiler spans as Trace Event JSON.
    let trace = trace_sink_from_args();
    let seed = RngSeed(0xA0D1);

    let sets: Vec<InstructionSet> = if smoke {
        // The CI smoke slice: one single-type set, one multi-type discrete
        // set and one continuous family — every rule family gets exercised.
        vec![
            InstructionSet::s(1),
            InstructionSet::r(2),
            InstructionSet::full_xy(),
        ]
    } else {
        InstructionSet::table2()
    };
    let circuits = if smoke { 1 } else { scale.pick(2, 8) };
    let n = 3;
    let workloads: [(&str, Vec<BenchCircuit>); 2] = [
        ("qv", qv_suite(n, circuits, seed.child(1))),
        ("qaoa", qaoa_suite(n, circuits, seed.child(2))),
    ];
    let device = DeviceModel::sycamore(seed.child(3));
    let options = scale.compiler_options();

    let mut findings: Vec<Located> = Vec::new();
    let mut combinations = 0usize;
    for set in &sets {
        let mut builder = Compiler::for_device(device.clone())
            .instruction_set(set.clone())
            .options(options.clone())
            .verify(VerifyLevel::PerStage);
        if let Some(trace) = &trace {
            builder = builder.telemetry(std::sync::Arc::clone(trace.collector()));
        }
        let compiler = builder
            .build()
            .expect("table2 sets are valid compiler configurations");
        for (workload, suite) in &workloads {
            for (index, bench) in suite.iter().enumerate() {
                combinations += 1;
                let (compiled, report) = match compiler.compile_with_report(&bench.circuit) {
                    Ok(pair) => pair,
                    Err(e) => {
                        eprintln!(
                            "audit: {} {workload}[{index}] failed to compile: {e}",
                            set.name()
                        );
                        std::process::exit(2);
                    }
                };
                locate(
                    &mut findings,
                    set,
                    workload,
                    "-",
                    "compile",
                    report.diagnostics,
                );
                locate(
                    &mut findings,
                    set,
                    workload,
                    "-",
                    "artifact",
                    compiled.verify(set).into_diagnostics(),
                );
                audit_lowering(&mut findings, set, workload, &compiled);
            }
        }
    }

    let errors = count(&findings, Severity::Error);
    let warnings = count(&findings, Severity::Warning);
    println!(
        "{}",
        render_report(combinations, errors, warnings, &findings)
    );
    eprintln!(
        "audit: {combinations} combinations, {} findings ({errors} errors, {warnings} warnings)",
        findings.len()
    );
    write_trace_or_exit(&trace);
    if errors > 0 {
        std::process::exit(1);
    }
}

/// Lowers the compiled circuit under both fusion policies and runs the
/// semantic kernel rules; `Safe` is checked against its unfused baseline.
fn audit_lowering(
    findings: &mut Vec<Located>,
    set: &InstructionSet,
    workload: &'static str,
    compiled: &CompiledCircuit,
) {
    let noise = NoiseModel::from_device(&compiled.subdevice);
    let unfused = PrecompiledCircuit::new(&compiled.circuit, &noise);
    locate(
        findings,
        set,
        workload,
        "off",
        "kernels",
        unfused.verify_artifact(None).into_diagnostics(),
    );
    let fused = PrecompiledCircuit::with_fusion(&compiled.circuit, &noise, FusionPolicy::Safe);
    locate(
        findings,
        set,
        workload,
        "safe",
        "kernels",
        fused.verify_artifact(Some(&unfused)).into_diagnostics(),
    );
}

/// Tags raw diagnostics with their sweep coordinates.
fn locate(
    findings: &mut Vec<Located>,
    set: &InstructionSet,
    workload: &'static str,
    fusion: &'static str,
    phase: &'static str,
    diagnostics: Vec<Diagnostic>,
) {
    for diagnostic in diagnostics {
        findings.push(Located {
            set: set.name().to_string(),
            workload,
            fusion,
            phase,
            diagnostic,
        });
    }
}

fn count(findings: &[Located], severity: Severity) -> usize {
    findings
        .iter()
        .filter(|f| f.diagnostic.severity() == severity)
        .count()
}

/// The machine-readable report, hand-rolled like the server's metrics
/// endpoint (the vendored `serde` is marker-only).
fn render_report(
    combinations: usize,
    errors: usize,
    warnings: usize,
    findings: &[Located],
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"combinations\": {combinations},\n"));
    out.push_str(&format!("  \"errors\": {errors},\n"));
    out.push_str(&format!("  \"warnings\": {warnings},\n"));
    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"set\": \"{}\", \"workload\": \"{}\", \"fusion\": \"{}\", \"phase\": \"{}\", \"finding\": {}}}",
            f.set,
            f.workload,
            f.fusion,
            f.phase,
            f.diagnostic.to_json()
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}");
    out
}
