//! Region selection: carving a connected, high-fidelity patch out of a device.

use circuit::QubitId;
use device::DeviceModel;
use nuop_core::HardwareFidelityProvider as _;

use crate::error::CompileError;

/// Selects `n` physical qubits forming a connected subgraph with high mean
/// two-qubit fidelity.
///
/// The search is greedy: every edge of the device is tried as a seed, the
/// region grows by repeatedly adding the neighbouring qubit whose connecting
/// edges have the best average (default) fidelity, and the candidate region
/// with the best overall mean fidelity wins. Ties go to the first candidate
/// met when the members are walked in the order they joined and each
/// member's neighbours in ascending order (the order
/// [`Topology::neighbors`](device::Topology::neighbors) yields), and to the
/// first seed edge in ascending order.
///
/// Cost: each qubit's neighbours, with their edges' default fidelities, are
/// gathered once per call into one flat list, ascending per qubit. A qubit
/// joining the region adds its edge fidelities to each neighbour's running
/// sum, in the order the members joined, which is the order a fresh sum over
/// the region would take; a candidate's mean is then one division. Growing a
/// region by one qubit walks its members' lists once, and scoring it looks
/// each member pair up by binary search, so a call costs `O(E · n² · d)` for
/// `E` edges and maximum degree `d`. Inside the search there is no map
/// lookup, and the only allocation copies a region that beats the best so
/// far.
///
/// Undersized devices return
/// [`CompileError::RegionUnavailable`] and fragmented topologies
/// [`CompileError::RegionDisconnected`] instead of panicking.
pub fn try_select_region(device: &DeviceModel, n: usize) -> Result<Vec<QubitId>, CompileError> {
    if n == 0 {
        return Err(CompileError::EmptyCircuit);
    }
    if n > device.num_qubits() {
        return Err(CompileError::RegionUnavailable {
            requested: n,
            available: device.num_qubits(),
        });
    }
    let topo = device.topology();
    if n == 1 {
        return Ok(vec![0]);
    }

    let neighbours = Neighbours::new(device);
    let mut links = vec![Link::default(); device.num_qubits()];
    let mut region: Vec<QubitId> = Vec::with_capacity(n);
    let mut best: Option<(f64, Vec<QubitId>)> = None;
    for (seed_a, seed_b) in topo.edges() {
        links.fill(Link::default());
        region.clear();
        for q in [seed_a, seed_b] {
            neighbours.join(q, &mut region, &mut links);
        }
        while region.len() < n {
            // The first neighbour of the region with the best mean fidelity
            // of its edges into the region.
            let mut pick: Option<(f64, QubitId)> = None;
            for &q in &region {
                for &(nb, _) in neighbours.of(q) {
                    let link = links[nb];
                    if link.joined {
                        continue;
                    }
                    let mean = link.sum / link.count as f64;
                    if pick.is_none_or(|(m, _)| mean.total_cmp(&m).is_gt()) {
                        pick = Some((mean, nb));
                    }
                }
            }
            match pick {
                Some((_, q)) => neighbours.join(q, &mut region, &mut links),
                None => break, // dead end: the component is too small
            }
        }
        if region.len() < n {
            continue;
        }
        // Score: mean fidelity over region-internal edges.
        let mut sum = 0.0;
        let mut count = 0usize;
        for (i, &a) in region.iter().enumerate() {
            for &b in &region[i + 1..] {
                if let Some(f) = neighbours.fidelity(a, b) {
                    sum += f;
                    count += 1;
                }
            }
        }
        let score = if count > 0 { sum / count as f64 } else { 0.0 };
        if best.as_ref().is_none_or(|(s, _)| score > *s) {
            best = Some((score, region.clone()));
        }
    }
    best.map(|(_, r)| r)
        .ok_or(CompileError::RegionDisconnected { requested: n })
}

/// Every qubit's neighbours in ascending order, each with the default
/// fidelity of the connecting edge (0 for an edge without calibration):
/// qubit `q`'s list is `list[start[q]..start[q + 1]]`.
struct Neighbours {
    start: Vec<usize>,
    list: Vec<(QubitId, f64)>,
}

impl Neighbours {
    fn new(device: &DeviceModel) -> Self {
        let topo = device.topology();
        let num_qubits = topo.num_qubits();
        let mut start = vec![0usize; num_qubits + 1];
        for (a, b) in topo.edges() {
            start[a + 1] += 1;
            start[b + 1] += 1;
        }
        for q in 0..num_qubits {
            start[q + 1] += start[q];
        }
        // Edges come in ascending `(low, high)` order, so each qubit's slots
        // fill in ascending neighbour order: first the lower neighbours, then
        // the higher ones. `next[q]` ends at `start[q + 1]`.
        let mut next = start.clone();
        let mut list = vec![(0, 0.0); 2 * topo.num_edges()];
        for (a, b) in topo.edges() {
            let fid = device.edge(a, b).map_or(0.0, |e| e.default_fidelity());
            list[next[a]] = (b, fid);
            next[a] += 1;
            list[next[b]] = (a, fid);
            next[b] += 1;
        }
        Neighbours { start, list }
    }

    fn of(&self, q: QubitId) -> &[(QubitId, f64)] {
        &self.list[self.start[q]..self.start[q + 1]]
    }

    /// Default fidelity of the edge `(a, b)`, or `None` when there is none.
    fn fidelity(&self, a: QubitId, b: QubitId) -> Option<f64> {
        let row = self.of(a);
        row.binary_search_by_key(&b, |&(nb, _)| nb)
            .ok()
            .map(|i| row[i].1)
    }

    /// Appends `q` to the region and adds its edge fidelities to its
    /// neighbours' running sums.
    fn join(&self, q: QubitId, region: &mut Vec<QubitId>, links: &mut [Link]) {
        region.push(q);
        links[q].joined = true;
        for &(nb, fid) in self.of(q) {
            links[nb].sum += fid;
            links[nb].count += 1;
        }
    }
}

/// A qubit's edges into the growing region: their summed fidelity, added in
/// the order the members joined, and their number.
#[derive(Debug, Clone, Copy, Default)]
struct Link {
    sum: f64,
    count: usize,
    joined: bool,
}

/// Mean calibrated fidelity of a named gate over the edges internal to a
/// region (useful for reporting which gate types a region favours).
pub fn region_gate_fidelity(device: &DeviceModel, region: &[QubitId], gate_name: &str) -> f64 {
    let topo = device.topology();
    let mut sum = 0.0;
    let mut count = 0usize;
    for (i, &a) in region.iter().enumerate() {
        for &b in &region[i + 1..] {
            if topo.has_edge(a, b) {
                sum += device.two_qubit_fidelity(a, b, gate_name);
                count += 1;
            }
        }
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmath::RngSeed;

    #[test]
    fn region_is_connected_and_right_size() {
        let device = DeviceModel::aspen8(RngSeed(1));
        for n in [2usize, 3, 4, 6, 8] {
            let region = try_select_region(&device, n).unwrap();
            assert_eq!(region.len(), n);
            let sub = device.subdevice(&region);
            assert!(sub.topology().is_connected(), "n={n}");
        }
    }

    #[test]
    fn region_prefers_high_fidelity_edges() {
        let device = DeviceModel::aspen8(RngSeed(1));
        let region = try_select_region(&device, 3).unwrap();
        let mean = region_gate_fidelity(&device, &region, "CZ");
        // The device-wide CZ fidelities range from 0.81 to 0.97; a greedy
        // selection should do clearly better than the low end.
        assert!(mean > 0.88, "mean CZ fidelity of region = {mean}");
    }

    #[test]
    fn sycamore_region_selection_works_at_several_sizes() {
        let device = DeviceModel::sycamore(RngSeed(2));
        for n in [2usize, 6, 10, 20] {
            let region = try_select_region(&device, n).unwrap();
            assert_eq!(region.len(), n);
            assert!(device.subdevice(&region).topology().is_connected());
        }
    }

    #[test]
    fn single_qubit_region() {
        let device = DeviceModel::sycamore(RngSeed(3));
        assert_eq!(try_select_region(&device, 1).unwrap().len(), 1);
    }

    #[test]
    fn try_select_region_reports_undersized_devices() {
        let device = DeviceModel::ideal(3, 0.99);
        assert_eq!(
            try_select_region(&device, 5),
            Err(CompileError::RegionUnavailable {
                requested: 5,
                available: 3,
            })
        );
        assert_eq!(
            try_select_region(&device, 0),
            Err(CompileError::EmptyCircuit)
        );
    }

    #[test]
    fn try_select_region_is_deterministic_on_valid_input() {
        let device = DeviceModel::aspen8(RngSeed(1));
        for n in [1usize, 3, 6] {
            assert_eq!(
                try_select_region(&device, n).unwrap(),
                try_select_region(&device, n).unwrap()
            );
        }
    }
}
