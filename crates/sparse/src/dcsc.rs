//! Doubly compressed sparse column (DCSC) storage for hypersparse matrices.
//!
//! When a matrix is block-distributed over a `√P × √P` process grid, each
//! local block holds `nnz/P` nonzeros across `n/√P` columns. For large `P`
//! most columns are empty (`nnz < ncols`, the *hypersparse* regime) and the
//! CSC column-pointer array alone would dwarf the data. DCSC (Buluç &
//! Gilbert, IPDPS 2008) stores only the non-empty columns: `jc` holds their
//! column indices and `cp` their pointer ranges into `ir`/`num`.
//!
//! HipMCL stores distributed blocks in DCSC. Here a block is held, and
//! computed on, as CSC and only *shipped* in DCSC form: [`crate::wire`]
//! writes a CSC block's DCSC encoding directly and decodes it straight back
//! into CSC. This type is that wire form's reference implementation — its
//! own `encode`/`decode` pin the bytes the direct paths must produce and
//! accept — and the definition of a block's hypersparse size,
//! [`Dcsc::bytes_of_csc`].

use crate::csc::Csc;
use crate::semiring::Value;
use crate::Idx;

/// Sparse matrix in doubly compressed sparse column form.
///
/// Invariants:
/// * `jc` strictly increasing, entries `< ncols` — the non-empty columns.
/// * `cp.len() == jc.len() + 1`, strictly increasing (every listed column
///   is genuinely non-empty), `cp[last] == nnz`.
/// * Row indices sorted and unique within each column, `< nrows`.
#[derive(Clone, Debug, PartialEq)]
pub struct Dcsc<T> {
    nrows: usize,
    ncols: usize,
    /// Column indices of the non-empty columns, strictly increasing.
    pub jc: Vec<Idx>,
    /// `cp[k]..cp[k+1]` is the range of column `jc[k]` in `ir`/`num`.
    pub cp: Vec<usize>,
    /// Row indices, sorted within each column.
    pub ir: Vec<Idx>,
    /// Values.
    pub num: Vec<T>,
}

impl<T: Value> Dcsc<T> {
    /// Empty matrix of the given dimensions.
    pub fn zero(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            jc: Vec::new(),
            cp: vec![0],
            ir: Vec::new(),
            num: Vec::new(),
        }
    }

    /// Builds from raw parts, validating invariants.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        jc: Vec<Idx>,
        cp: Vec<usize>,
        ir: Vec<Idx>,
        num: Vec<T>,
    ) -> Self {
        Self::try_from_parts(nrows, ncols, jc, cp, ir, num)
            .unwrap_or_else(|e| panic!("invalid DCSC: {e}"))
    }

    /// Fallible [`Dcsc::from_parts`]: the constructor for *untrusted*
    /// input (wire decoding), returning the violated invariant instead
    /// of panicking.
    pub fn try_from_parts(
        nrows: usize,
        ncols: usize,
        jc: Vec<Idx>,
        cp: Vec<usize>,
        ir: Vec<Idx>,
        num: Vec<T>,
    ) -> Result<Self, &'static str> {
        let m = Self {
            nrows,
            ncols,
            jc,
            cp,
            ir,
            num,
        };
        m.validate()?;
        Ok(m)
    }

    /// The `(jc, cp)` column index of `csc`: its non-empty columns and
    /// their pointer ranges. `O(ncols)`.
    pub(crate) fn compress_cols(csc: &Csc<T>) -> (Vec<Idx>, Vec<usize>) {
        let mut jc = Vec::new();
        let mut cp = vec![0usize];
        for j in 0..csc.ncols() {
            if csc.col_nnz(j) > 0 {
                jc.push(j as Idx);
                cp.push(csc.colptr[j + 1]);
            }
        }
        (jc, cp)
    }

    /// Compresses a CSC matrix by dropping its empty columns' pointers.
    pub fn from_csc(csc: &Csc<T>) -> Self {
        let (jc, cp) = Self::compress_cols(csc);
        Self {
            nrows: csc.nrows(),
            ncols: csc.ncols(),
            jc,
            cp,
            ir: csc.rowidx.clone(),
            num: csc.vals.clone(),
        }
    }

    /// [`Dcsc::bytes`] of `Dcsc::from_csc(csc)` without building it: an
    /// `O(ncols)` count of the non-empty columns.
    pub fn bytes_of_csc(csc: &Csc<T>) -> usize {
        let nzc = csc.colptr.windows(2).filter(|w| w[0] < w[1]).count();
        Self::bytes_for(nzc, csc.nnz())
    }

    fn bytes_for(nzc: usize, nnz: usize) -> usize {
        nzc * std::mem::size_of::<Idx>()
            + (nzc + 1) * std::mem::size_of::<usize>()
            + nnz * (std::mem::size_of::<Idx>() + std::mem::size_of::<T>())
    }

    /// Decompresses a `(jc, cp)` column index that passed
    /// [`Dcsc::validate_cols`] back to a full CSC pointer array,
    /// `O(ncols + nzc)`. `ncols` may come off the wire, so an array that
    /// cannot be allocated is an error, not an abort.
    pub(crate) fn expand_colptr(
        ncols: usize,
        jc: &[Idx],
        cp: &[usize],
    ) -> Result<Vec<usize>, &'static str> {
        let mut colptr = Vec::new();
        colptr
            .try_reserve_exact(ncols + 1)
            .map_err(|_| "ncols too large to expand to CSC")?;
        colptr.resize(ncols + 1, 0usize);
        for (k, &j) in jc.iter().enumerate() {
            colptr[j as usize + 1] = cp[k + 1] - cp[k];
        }
        for j in 0..ncols {
            colptr[j + 1] += colptr[j];
        }
        Ok(colptr)
    }

    /// Decompresses to CSC; the index and value arrays are copied (they
    /// are identical byte-for-byte in both forms).
    pub fn to_csc(&self) -> Csc<T> {
        let colptr = Self::expand_colptr(self.ncols, &self.jc, &self.cp)
            .unwrap_or_else(|e| panic!("DCSC to CSC: {e}"));
        Csc::from_parts(
            self.nrows,
            self.ncols,
            colptr,
            self.ir.clone(),
            self.num.clone(),
        )
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns (logical, including empty ones).
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.num.len()
    }

    /// Number of non-empty columns (`nzc` in the DCSC literature).
    pub fn nzc(&self) -> usize {
        self.jc.len()
    }

    /// Approximate heap footprint in bytes. For a hypersparse block this is
    /// `O(nnz + nzc)` versus CSC's `O(nnz + ncols)`.
    pub fn bytes(&self) -> usize {
        Self::bytes_for(self.nzc(), self.nnz())
    }

    /// Checks structural invariants; panics on violation.
    pub fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("invalid DCSC: {e}");
        }
    }

    /// Checks the structural invariants without panicking — total over
    /// arbitrary field contents (a corrupt or hostile frame): every
    /// access is length-guarded first, so validation itself cannot index
    /// out of bounds. A matrix that passes here is also safe to feed to
    /// [`Dcsc::to_csc`], whose pointer arithmetic relies on exactly
    /// these invariants.
    pub fn validate(&self) -> Result<(), &'static str> {
        Self::validate_cols(
            self.ncols,
            &self.jc,
            &self.cp,
            self.ir.len(),
            self.num.len(),
        )?;
        // cp[0] == 0, strictly increasing, end == nnz ⇒ every listed
        // column's range is in bounds of ir/num from here on.
        for k in 0..self.jc.len() {
            let rows = &self.ir[self.cp[k]..self.cp[k + 1]];
            if !crate::util::is_strictly_increasing(rows) {
                return Err("rows not sorted+unique within a column");
            }
            if *rows.last().expect("listed columns are non-empty") as usize >= self.nrows {
                return Err("row index out of bounds");
            }
        }
        Ok(())
    }

    /// The column-index half of [`Dcsc::validate`]: everything about
    /// `jc`/`cp` and the array lengths, nothing about row contents.
    /// Passing it makes [`Dcsc::expand_colptr`] in-bounds and its result
    /// a CSC pointer array whose column ranges are exactly `cp`'s.
    pub(crate) fn validate_cols(
        ncols: usize,
        jc: &[Idx],
        cp: &[usize],
        ir_len: usize,
        num_len: usize,
    ) -> Result<(), &'static str> {
        if ncols.checked_add(1).is_none() {
            return Err("ncols + 1 overflows");
        }
        if jc.len().checked_add(1).is_none_or(|n| cp.len() != n) {
            return Err("cp length != jc length + 1");
        }
        if cp[0] != 0 {
            return Err("cp[0] != 0");
        }
        if ir_len != num_len {
            return Err("ir/num length mismatch");
        }
        if *cp.last().expect("length checked") != num_len {
            return Err("cp end != nnz");
        }
        if !crate::util::is_strictly_increasing(jc) {
            return Err("jc not strictly increasing");
        }
        if let Some(&last) = jc.last() {
            if last as usize >= ncols {
                return Err("jc column index out of bounds");
            }
        }
        if cp.windows(2).any(|w| w[0] >= w[1]) {
            return Err("cp not strictly increasing (a listed column is empty)");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triples::Triples;

    fn hypersparse_sample() -> Csc<f64> {
        // 100 x 100 with 5 nonzeros in 3 columns: genuinely hypersparse.
        let mut t = Triples::new(100, 100);
        t.push(3, 7, 1.0);
        t.push(50, 7, 2.0);
        t.push(0, 20, 3.0);
        t.push(99, 99, 4.0);
        t.push(98, 99, 5.0);
        Csc::from_triples(&t)
    }

    #[test]
    fn roundtrip_csc() {
        let csc = hypersparse_sample();
        let d = Dcsc::from_csc(&csc);
        d.assert_valid();
        assert_eq!(d.nzc(), 3);
        assert_eq!(d.nnz(), 5);
        assert_eq!(d.to_csc(), csc);
    }

    #[test]
    fn compression_saves_pointer_space() {
        let csc = hypersparse_sample();
        let d = Dcsc::from_csc(&csc);
        assert!(
            d.bytes() < csc.bytes(),
            "DCSC must be smaller when hypersparse"
        );
    }

    #[test]
    fn zero_matrix_valid() {
        let d = Dcsc::<f64>::zero(10, 10);
        d.assert_valid();
        assert_eq!(d.nzc(), 0);
        assert_eq!(d.to_csc(), Csc::zero(10, 10));
    }

    #[test]
    fn dense_matrix_roundtrips_too() {
        let csc = Csc::<f64>::identity(8);
        let d = Dcsc::from_csc(&csc);
        d.assert_valid();
        assert_eq!(d.to_csc(), csc);
    }
}
