//! Bit-level fingerprint of NuOp decompositions.
//!
//! Every compiled circuit, count and figure number downstream of NuOp follows
//! from the exact bits of the optimized parameters, so a change to the
//! optimizer's arithmetic (summation order, association, a fused
//! multiply-add) shows up here before it shows up as a drifted figure. The
//! test runs a small fixed corpus through the three decomposition entry points
//! and folds the bits of every parameter and every `F_d` into one FNV-1a hash.
//!
//! The recorded hash was produced on x86-64 Linux, where CI runs. The
//! objective goes through the platform's `sin`/`cos`, whose last bits may
//! differ elsewhere, so the comparison only runs on that target.

use gates::fsim::ContinuousFamily;
use gates::{standard, GateType};
use nuop_core::{
    decompose_approx, decompose_continuous, decompose_fixed, DecomposeConfig, Decomposition,
};
use qmath::{haar_random_su4, Mat4, RngSeed};

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

    fn decomposition(&mut self, d: &Decomposition) {
        self.word(d.layers as u64);
        for p in &d.params {
            self.word(p.to_bits());
        }
        self.word(d.decomposition_fidelity.to_bits());
    }
}

fn corpus() -> Vec<Mat4> {
    let mut targets: Vec<Mat4> = [11, 12]
        .iter()
        .map(|&seed| haar_random_su4(&mut RngSeed(seed).rng()))
        .collect();
    targets.push(standard::cnot());
    targets.push(standard::swap());
    targets.push(standard::zz_interaction(0.37));
    targets
}

fn fingerprint() -> u64 {
    let config = DecomposeConfig::sweep();
    let mut hash = Fnv::new();
    for target in corpus() {
        for k in 2..=6 {
            hash.decomposition(&decompose_approx(&target, &GateType::s(k), 0.97, &config));
        }
        hash.decomposition(&decompose_fixed(&target, &GateType::s(3), &config));
        for family in [ContinuousFamily::FullXy, ContinuousFamily::FullFsim] {
            hash.decomposition(&decompose_continuous(&target, family, &config));
        }
    }
    hash.0
}

#[test]
#[cfg_attr(
    not(all(target_arch = "x86_64", target_os = "linux")),
    ignore = "the hash was recorded on x86-64 Linux"
)]
fn decompositions_are_bit_identical_to_the_recorded_fingerprint() {
    assert_eq!(fingerprint(), 0x8917_d45b_06d3_e58d);
}
