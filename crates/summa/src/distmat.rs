//! 2D block-distributed sparse matrices on the SUMMA process grid.
//!
//! An `m × n` matrix on a `√P × √P` grid is split into balanced row and
//! column stripes ([`hipmcl_sparse::util::even_chunk`]); the process at
//! grid `(i, j)` owns block `(i, j)` with local indices. Blocks are stored
//! as CSC for compute; the broadcast payloads are written in, and charged
//! as, the hypersparse DCSC form (HipMCL broadcasts DCSC) —
//! [`hipmcl_sparse::Dcsc::bytes_of_csc`] of the local block.

use hipmcl_comm::collectives::{allreduce, gather};
use hipmcl_comm::ProcGrid;
use hipmcl_sparse::convert::{gather_2d, split_2d};
use hipmcl_sparse::util::even_chunk;
use hipmcl_sparse::{Csc, PlusTimes, Semiring, Triples, Value};
use std::sync::Arc;

/// One rank's block of a 2D-distributed sparse matrix.
///
/// Generic over the element type; `DistMatrix` with no parameter remains
/// the plus-times `f64` matrix the MCL driver works with.
#[derive(Clone, Debug, PartialEq)]
pub struct DistMatrix<T: Value = f64> {
    /// The local block, in local indices.
    pub local: Csc<T>,
    /// Global row count.
    pub nrows_global: usize,
    /// Global column count.
    pub ncols_global: usize,
}

/// A distributed operand as SUMMA reads it: a [`DistMatrix`], or an `Arc`
/// of one. A broadcast root hands its block out as a [`Panel`], which a
/// `DistMatrix` copies its block into and an `Arc` shares as it is.
pub trait Operand {
    /// Element type.
    type Elem: Value;
    /// The matrix.
    fn matrix(&self) -> &DistMatrix<Self::Elem>;
    /// This rank's block as a broadcast root hands it out.
    fn panel(&self) -> Panel<Self::Elem>;
}

impl<T: Value> Operand for DistMatrix<T> {
    type Elem = T;
    fn matrix(&self) -> &DistMatrix<T> {
        self
    }
    fn panel(&self) -> Panel<T> {
        Panel::Block(Arc::new(self.local.clone()))
    }
}

impl<T: Value> Operand for Arc<DistMatrix<T>> {
    type Elem = T;
    fn matrix(&self) -> &DistMatrix<T> {
        self
    }
    fn panel(&self) -> Panel<T> {
        Panel::Operand(Arc::clone(self))
    }
}

/// A block a broadcast hands out, shared, never copied: one of its own, or
/// a shared operand's.
#[derive(Clone, Debug)]
pub enum Panel<T: Value> {
    /// A block of its own.
    Block(Arc<Csc<T>>),
    /// The local block of a shared operand.
    Operand(Arc<DistMatrix<T>>),
}

impl<T: Value> std::ops::Deref for Panel<T> {
    type Target = Csc<T>;
    fn deref(&self) -> &Csc<T> {
        match self {
            Panel::Block(m) => m,
            Panel::Operand(d) => &d.local,
        }
    }
}

impl<T: Value> DistMatrix<T> {
    /// Builds this rank's block from a globally replicated matrix. Every
    /// rank calls this with the *same* `global` (e.g. generated from a
    /// shared seed); no communication happens. Duplicate triples are
    /// combined with the semiring's `⊕`.
    pub fn from_global_in<S: Semiring<Elem = T>>(
        s: S,
        grid: &ProcGrid,
        global: &Triples<T>,
    ) -> Self {
        let blocks = split_2d(global, grid.side, grid.side);
        let mine = &blocks[grid.row * grid.side + grid.col];
        Self {
            local: Csc::from_triples_in(s, mine),
            nrows_global: global.nrows(),
            ncols_global: global.ncols(),
        }
    }

    /// Scatter-based construction: rank 0 holds the global matrix and
    /// sends each rank its block (collective). Duplicates combine with `⊕`.
    pub fn scatter_from_root_in<S: Semiring<Elem = T>>(
        s: S,
        grid: &ProcGrid,
        global: Option<&Triples<T>>,
    ) -> Self {
        let comm = &grid.world;
        const TAG: u64 = 0x5CA7;
        if comm.rank() == 0 {
            let g = global.expect("root must supply the global matrix");
            let blocks = split_2d(g, grid.side, grid.side);
            for r in (1..comm.size()).rev() {
                comm.send(r, TAG, (blocks[r].clone(), g.nrows(), g.ncols()));
            }
            Self {
                local: Csc::from_triples_in(s, &blocks[0]),
                nrows_global: g.nrows(),
                ncols_global: g.ncols(),
            }
        } else {
            let (block, m, n): (Triples<T>, usize, usize) = comm.recv(0, TAG);
            Self {
                local: Csc::from_triples_in(s, &block),
                nrows_global: m,
                ncols_global: n,
            }
        }
    }

    /// Gathers the matrix to rank 0 (others get `None`). Collective.
    /// Blocks live in disjoint index ranges, so `⊕` only resolves
    /// duplicates that already coexisted within one block.
    pub fn gather_to_root_in<S: Semiring<Elem = T>>(
        &self,
        s: S,
        grid: &ProcGrid,
    ) -> Option<Csc<T>> {
        let blocks = gather(&grid.world, 0, self.local.to_triples());
        blocks.map(|blocks| {
            let t = gather_2d(
                &blocks,
                self.nrows_global,
                self.ncols_global,
                grid.side,
                grid.side,
            );
            Csc::from_triples_in(s, &t)
        })
    }

    /// Global nonzero count (collective all-reduce).
    pub fn nnz_global(&self, grid: &ProcGrid) -> u64 {
        allreduce(&grid.world, self.local.nnz() as u64, |a, b| a + b)
    }

    /// Global row range of this rank's block.
    pub fn row_range(&self, grid: &ProcGrid) -> std::ops::Range<usize> {
        even_chunk(self.nrows_global, grid.side, grid.row)
    }

    /// Global column range of this rank's block.
    pub fn col_range(&self, grid: &ProcGrid) -> std::ops::Range<usize> {
        even_chunk(self.ncols_global, grid.side, grid.col)
    }
}

/// Plus-times convenience constructors — the historical f64 API.
impl<T: Value> DistMatrix<T>
where
    PlusTimes<T>: Semiring<Elem = T>,
{
    /// [`DistMatrix::from_global_in`] under plus-times.
    pub fn from_global(grid: &ProcGrid, global: &Triples<T>) -> Self {
        Self::from_global_in(PlusTimes::new(), grid, global)
    }

    /// [`DistMatrix::scatter_from_root_in`] under plus-times.
    pub fn scatter_from_root(grid: &ProcGrid, global: Option<&Triples<T>>) -> Self {
        Self::scatter_from_root_in(PlusTimes::new(), grid, global)
    }

    /// [`DistMatrix::gather_to_root_in`] under plus-times.
    pub fn gather_to_root(&self, grid: &ProcGrid) -> Option<Csc<T>> {
        self.gather_to_root_in(PlusTimes::new(), grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmcl_comm::{MachineModel, Universe};
    use hipmcl_sparse::Idx;
    use rand::{Rng, SeedableRng};

    fn random_global(n: usize, nnz: usize, seed: u64) -> Triples<f64> {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut t = Triples::new(n, n);
        for _ in 0..nnz {
            t.push(
                rng.gen_range(0..n) as Idx,
                rng.gen_range(0..n) as Idx,
                rng.gen_range(0.5..1.5),
            );
        }
        t.sum_duplicates();
        t
    }

    #[test]
    fn from_global_then_gather_roundtrips() {
        let global = random_global(20, 80, 1);
        let want = Csc::from_triples(&global);
        for p in [1usize, 4, 9] {
            let results = Universe::run(p, MachineModel::summit(), |comm| {
                let grid = ProcGrid::new(comm);
                let dm = DistMatrix::from_global(&grid, &random_global(20, 80, 1));
                dm.gather_to_root(&grid)
            });
            assert_eq!(results[0].as_ref(), Some(&want), "p={p}");
            for r in &results[1..] {
                assert!(r.is_none());
            }
        }
    }

    #[test]
    fn scatter_matches_from_global() {
        let results = Universe::run(4, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let global = random_global(15, 60, 2);
            let a = DistMatrix::from_global(&grid, &global);
            let b = DistMatrix::scatter_from_root(
                &grid,
                if grid.world.rank() == 0 {
                    Some(&global)
                } else {
                    None
                },
            );
            a == b
        });
        assert!(results.iter().all(|&ok| ok));
    }

    #[test]
    fn nnz_global_sums_blocks() {
        let global = random_global(18, 70, 3);
        let want = global.nnz() as u64;
        let results = Universe::run(9, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let dm = DistMatrix::from_global(&grid, &random_global(18, 70, 3));
            dm.nnz_global(&grid)
        });
        assert!(results.iter().all(|&n| n == want));
    }

    #[test]
    fn ranges_partition_global_dims() {
        let results = Universe::run(4, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let dm = DistMatrix::from_global(&grid, &random_global(11, 30, 4));
            let rr = dm.row_range(&grid);
            let cr = dm.col_range(&grid);
            assert_eq!(dm.local.nrows(), rr.len());
            assert_eq!(dm.local.ncols(), cr.len());
            (rr.start, rr.end, cr.start, cr.end)
        });
        // 11 rows over 2 stripes: 6 + 5.
        assert_eq!(results[0], (0, 6, 0, 6));
        assert_eq!(results[3], (6, 11, 6, 11));
    }
}
