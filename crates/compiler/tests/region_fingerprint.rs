//! Bit-level pin of region selection.
//!
//! Every compile starts from the region `try_select_region` picks, so a
//! change to its scoring (the order of a fidelity sum, a tie-break, the order
//! candidates are walked in) moves every mapped, routed and decomposed
//! circuit downstream. The test selects a region at every listed width on
//! three devices and folds the widths and member qubits into one FNV-1a hash
//! per device. The uniform `ideal` device makes every candidate tie, so it
//! pins the tie-break order on its own.

use compiler::try_select_region;
use device::DeviceModel;
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
}

fn fingerprint(device: &DeviceModel, widths: impl IntoIterator<Item = usize>) -> u64 {
    let mut hash = Fnv::new();
    for n in widths {
        let region = try_select_region(device, n)
            .unwrap_or_else(|e| panic!("width {n} on {}: {e}", device.name()));
        hash.word(n as u64);
        for q in region {
            hash.word(q as u64);
        }
    }
    hash.0
}

#[test]
fn aspen8_regions_match_the_recorded_fingerprint() {
    let device = DeviceModel::aspen8(RngSeed(1));
    assert_eq!(
        fingerprint(&device, 1..=device.num_qubits()),
        0xd8d5_fe80_7390_0457
    );
}

#[test]
fn sycamore_regions_match_the_recorded_fingerprint() {
    let device = DeviceModel::sycamore(RngSeed(2));
    assert_eq!(
        fingerprint(&device, (2..=12).chain([20])),
        0x1189_cbbe_d899_c354
    );
}

#[test]
fn uniform_device_regions_match_the_recorded_fingerprint() {
    let device = DeviceModel::ideal(8, 0.99);
    assert_eq!(fingerprint(&device, 1..=8), 0x734c_8e3c_e138_5aad);
}
