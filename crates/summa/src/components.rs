//! Cluster extraction from the converged distributed matrix.
//!
//! When MCL converges, the matrix is a disjoint union of near-star graphs
//! and is tiny relative to any earlier iterate. Two extraction paths:
//!
//! * [`gathered_components`] — gather to rank 0, sequential union-find,
//!   broadcast labels. Cheap because the converged matrix is small; this
//!   is the default the driver uses.
//! * [`label_propagation_components`] — a fully distributed min-label
//!   propagation (HipMCL itself uses a distributed connected-components
//!   algorithm, LACC): every vertex repeatedly adopts the smallest label
//!   in its closed neighbourhood, implemented with the 2D distribution's
//!   row/column collectives, until a global fixed point. Kept as the
//!   scalable path and validated against union-find.

use crate::distmat::DistMatrix;
use hipmcl_comm::collectives::{allreduce, bcast};
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

/// Distributed min-label propagation. Each round:
/// `label[v] ← min(label[v], min over undirected neighbours u of label[u])`,
/// evaluated through the 2D block distribution (each block contributes
/// candidate updates for its row range and column range), followed by a
/// global elementwise-min combine; stop when no label changed anywhere.
///
/// Converges in `O(diameter)` rounds — fine for the star-like converged
/// MCL matrices it is used on.
pub fn label_propagation_components(grid: &ProcGrid, m: &DistMatrix) -> (Vec<u32>, usize) {
    let n = m.nrows_global;
    assert_eq!(n, m.ncols_global, "components need a square matrix");
    let row_range = m.row_range(grid);
    let col_range = m.col_range(grid);

    // Labels replicated on every rank (f64 for the vector allreduce; the
    // values are small integers so this is exact).
    let mut labels: Vec<f64> = (0..n).map(|v| v as f64).collect();
    loop {
        // Candidate updates from this block: edge (i, j) lets i and j
        // adopt each other's label.
        let mut proposal = labels.clone();
        for j in 0..m.local.ncols() {
            let gj = col_range.start + j;
            for &i in m.local.col_rows(j) {
                let gi = row_range.start + i as usize;
                let min = proposal[gi].min(proposal[gj]);
                proposal[gi] = min;
                proposal[gj] = min;
            }
        }
        // Elementwise min across ranks: encode min as a sum-free reduce by
        // negating (allreduce_sum_vec is the only vector reduce; use the
        // generic allreduce with an explicit min combine instead).
        let combined = hipmcl_comm::collectives::allreduce(&grid.world, proposal, |mut a, b| {
            for (x, y) in a.iter_mut().zip(&b) {
                *x = x.min(*y);
            }
            a
        });
        let changed = combined.iter().zip(&labels).filter(|(a, b)| a != b).count() as f64;
        labels = combined;
        let changed_total = allreduce(&grid.world, changed, |a, b| a + b);
        if changed_total == 0.0 {
            break;
        }
    }

    // Compact representatives to dense labels 0..k (deterministic).
    let mut map = std::collections::HashMap::new();
    let mut out = Vec::with_capacity(n);
    for &l in &labels {
        let next = map.len() as u32;
        let id = *map.entry(l.to_bits()).or_insert(next);
        out.push(id);
    }
    (out, map.len())
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
    fn label_propagation_matches_union_find() {
        for p in [1usize, 4, 9] {
            let results = Universe::run(p, MachineModel::summit(), |comm| {
                let grid = ProcGrid::new(comm);
                let m = DistMatrix::from_global(&grid, &two_triangles());
                let lp = label_propagation_components(&grid, &m);
                let uf = gathered_components(&grid, &m);
                (lp, uf)
            });
            for ((lp_labels, lp_k), (uf_labels, uf_k)) in results {
                assert_eq!(lp_k, uf_k, "p={p}");
                // Same partition (labels may permute): compare pairwise.
                for a in 0..lp_labels.len() {
                    for b in 0..lp_labels.len() {
                        assert_eq!(
                            lp_labels[a] == lp_labels[b],
                            uf_labels[a] == uf_labels[b],
                            "p={p} vertices {a},{b}"
                        );
                    }
                }
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
