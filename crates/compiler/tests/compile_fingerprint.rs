//! Bit-level pin of whole compiles.
//!
//! A compile chains region selection, mapping, routing and NuOp
//! decomposition, and every simulated count downstream starts from its
//! output, so a change anywhere in that chain (the order the stages run in,
//! what a stage hands the next, the verifier's view of a stage) shows up
//! here. Per compile the test folds into one FNV-1a hash:
//!
//! - every output op's label, qubits and matrix bits;
//! - the region, both layouts, the routing SWAP count and the subdevice's
//!   name and width;
//! - the `PassStats` (fidelity bits, gate histogram, cache traffic);
//! - the report's stage names, cache hits and misses, and the rule id of
//!   every verifier finding.
//!
//! QV-3, QAOA-4, QFT-3 and a 3-qubit circuit with a SWAP of its own are
//! compiled cold and then warm by one compiler per configuration: Aspen-8
//! under S3 and FullXY with `PerStage` verification, and Sycamore under G3
//! with `Final` verification. The program's SWAP is what gives the verifier
//! a finding to report: the swap-consistency rule notes that it skipped the
//! layout replay, which it can only do if the compiler counted that SWAP. One
//! two-worker `compile_batch` of the same circuits on a fresh compiler adds
//! its outputs. Its workers share the cache, so which member's operation
//! pays a shared decomposition's miss depends on timing; the batch folds in
//! each member's operation count and the batch's total misses instead.
//!
//! The recorded hash was produced on x86-64 Linux, where CI runs. The Haar
//! unitaries of the QV circuits and the optimizer go through the platform's
//! `sin`/`cos`, whose last bits may differ elsewhere, so the comparison only
//! runs on that target.

use apps::workloads::{qaoa_circuit, qft_echo_circuit, qv_circuit};
use circuit::{Circuit, Operation};
use compiler::{CompileReport, CompiledCircuit, Compiler, CompilerOptions, VerifyLevel};
use device::DeviceModel;
use gates::InstructionSet;
use nuop_core::{DecomposeConfig, PassStats};
use qmath::RngSeed;

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

    fn qubits(&mut self, qubits: &[usize]) {
        self.word(qubits.len() as u64);
        for &q in qubits {
            self.word(q as u64);
        }
    }

    fn circuit(&mut self, circuit: &Circuit) {
        self.word(circuit.num_qubits() as u64);
        for op in circuit.iter() {
            self.text(op.label());
            self.qubits(op.qubits());
            if let Some(m) = op.matrix() {
                for r in 0..m.nrows() {
                    for c in 0..m.ncols() {
                        let z = m.at(r, c);
                        self.word(z.re.to_bits());
                        self.word(z.im.to_bits());
                    }
                }
            }
        }
    }

    /// Everything of a compile but the cache traffic in its stats.
    fn compiled(&mut self, compiled: &CompiledCircuit) {
        self.circuit(&compiled.circuit);
        self.qubits(&compiled.region);
        self.qubits(&compiled.initial_layout);
        self.qubits(&compiled.final_layout);
        self.word(compiled.swap_count as u64);
        self.text(compiled.subdevice.name());
        self.word(compiled.subdevice.num_qubits() as u64);
        let stats = &compiled.pass_stats;
        self.word(stats.input_two_qubit_gates as u64);
        self.word(stats.output_two_qubit_gates as u64);
        self.word(stats.mean_decomposition_fidelity.to_bits());
        self.word(stats.mean_overall_fidelity.to_bits());
        self.word(stats.estimated_circuit_fidelity.to_bits());
        for (gate, count) in &stats.gate_type_histogram {
            self.text(gate);
            self.word(*count as u64);
        }
    }

    fn cache_traffic(&mut self, stats: &PassStats) {
        self.word(stats.cache_hits as u64);
        self.word(stats.cache_misses as u64);
    }

    fn report(&mut self, report: &CompileReport) {
        for stage in &report.stages {
            self.text(stage.pass);
        }
        self.word(report.cache_hits as u64);
        self.word(report.cache_misses as u64);
        self.word(report.diagnostics.len() as u64);
        for diagnostic in &report.diagnostics {
            self.text(diagnostic.rule());
        }
    }
}

fn options() -> CompilerOptions {
    CompilerOptions {
        decompose: DecomposeConfig {
            restarts: 2,
            max_layers: 4,
            ..DecomposeConfig::default()
        },
        threads: 2,
    }
}

fn with_program_swap() -> Circuit {
    let mut c = Circuit::new(3);
    c.push(Operation::h(0));
    c.push(Operation::cnot(0, 1));
    c.push(Operation::swap(1, 2));
    c.push(Operation::cnot(0, 2));
    c.measure_all();
    c
}

fn circuits() -> Vec<Circuit> {
    vec![
        qv_circuit(3, RngSeed(41)),
        qaoa_circuit(4, RngSeed(42)),
        qft_echo_circuit(3, RngSeed(43)).0,
        with_program_swap(),
    ]
}

fn compiler(device: &DeviceModel, set: InstructionSet, level: VerifyLevel) -> Compiler {
    Compiler::for_device(device.clone())
        .instruction_set(set)
        .options(options())
        .verify(level)
        .build()
        .unwrap()
}

fn fingerprint() -> u64 {
    let aspen = DeviceModel::aspen8(RngSeed(1));
    let sycamore = DeviceModel::sycamore(RngSeed(2));
    let configs = [
        (&aspen, InstructionSet::s(3), VerifyLevel::PerStage),
        (&aspen, InstructionSet::full_xy(), VerifyLevel::PerStage),
        (&sycamore, InstructionSet::g(3), VerifyLevel::Final),
    ];
    let mut hash = Fnv::new();
    for (device, set, level) in configs {
        let compiler = compiler(device, set, level);
        for circuit in circuits() {
            // Cold, then warm from the same compiler's cache.
            for _ in 0..2 {
                let (compiled, report) = compiler.compile_with_report(&circuit).unwrap();
                hash.compiled(&compiled);
                hash.cache_traffic(&compiled.pass_stats);
                hash.report(&report);
            }
        }
    }

    let batch = compiler(&aspen, InstructionSet::s(3), VerifyLevel::Off);
    let mut batch_misses = 0;
    for result in batch.compile_batch(&circuits()) {
        let compiled = result.unwrap();
        hash.compiled(&compiled);
        let stats = &compiled.pass_stats;
        hash.word((stats.cache_hits + stats.cache_misses) as u64);
        batch_misses += stats.cache_misses;
    }
    hash.word(batch_misses as u64);
    hash.0
}

#[test]
#[cfg_attr(
    not(all(target_arch = "x86_64", target_os = "linux")),
    ignore = "the hash was recorded on x86-64 Linux"
)]
fn compiles_are_bit_identical_to_the_recorded_fingerprint() {
    assert_eq!(fingerprint(), 0x5868_0a05_908a_e3aa);
}
