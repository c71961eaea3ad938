//! Cluster extraction from the converged distributed matrix.
//!
//! When MCL converges, the matrix is a disjoint union of near-star graphs
//! and is tiny relative to any earlier iterate, so [`gathered_components`]
//! gathers it to rank 0, runs sequential union-find and broadcasts the
//! labels. (HipMCL itself uses a distributed connected-components
//! algorithm, LACC.)

use crate::distmat::DistMatrix;
use hipmcl_comm::collectives::bcast;
use hipmcl_comm::ProcGrid;
use hipmcl_sparse::components::{clusters_from_labels, connected_components};

/// Gather-based components. Returns `(labels, k)` replicated on all ranks;
/// labels are dense in `0..k` over global vertex ids.
pub fn gathered_components(grid: &ProcGrid, m: &DistMatrix) -> (Vec<u32>, usize) {
    let gathered = m.gather_to_root(grid);
    let payload = gathered.map(|g| {
        let (labels, k) = connected_components(&g);
        (labels, k as u64)
    });
    let (labels, k) = bcast(&grid.world, 0, payload);
    (labels, k as usize)
}

/// Groups global vertex ids by label (see
/// [`hipmcl_sparse::components::clusters_from_labels`]).
pub fn clusters(labels: &[u32], k: usize) -> Vec<Vec<u32>> {
    clusters_from_labels(labels, k)
}

/// Histogram of cluster sizes — the headline statistic biologists read
/// off an MCL run.
pub fn cluster_size_histogram(labels: &[u32], k: usize) -> Vec<usize> {
    let mut sizes = vec![0usize; k];
    for &l in labels {
        sizes[l as usize] += 1;
    }
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmcl_comm::{MachineModel, Universe};
    use hipmcl_sparse::{Csc, Idx, Triples};

    /// Two triangles plus an isolated vertex (7 vertices, 3 components).
    fn two_triangles() -> Triples<f64> {
        let mut t = Triples::new(7, 7);
        for &(a, b) in &[(0u32, 1u32), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            t.push(a as Idx, b as Idx, 1.0);
        }
        t
    }

    #[test]
    fn gathered_components_match_serial() {
        let serial = connected_components(&Csc::from_triples(&two_triangles()));
        for p in [1usize, 4] {
            let results = Universe::run(p, MachineModel::summit(), |comm| {
                let grid = ProcGrid::new(comm);
                let m = DistMatrix::from_global(&grid, &two_triangles());
                gathered_components(&grid, &m)
            });
            for (labels, k) in &results {
                assert_eq!(*k, serial.1, "p={p}");
                assert_eq!(labels, &serial.0, "p={p}");
            }
        }
    }

    #[test]
    fn histogram_sorted_descending() {
        let labels = vec![0, 0, 1, 0, 2, 2];
        let h = cluster_size_histogram(&labels, 3);
        assert_eq!(h, vec![3, 2, 1]);
    }

    #[test]
    fn clusters_round_trip() {
        let labels = vec![1, 0, 1];
        let c = clusters(&labels, 2);
        assert_eq!(c[0], vec![1]);
        assert_eq!(c[1], vec![0, 2]);
    }
}
