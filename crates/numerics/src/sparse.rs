//! Sparse matrices: a triplet (COO) builder and a compressed sparse
//! row (CSR) product format.
//!
//! The FE assembly accumulates element stiffness contributions into a
//! [`TripletMatrix`] and converts once to [`CsrMatrix`] for the
//! iterative solve.

use crate::{NumericsError, Result};

/// Coordinate-format sparse builder with duplicate accumulation.
///
/// ```
/// use mems_numerics::sparse::TripletMatrix;
/// let mut t = TripletMatrix::new(2, 2);
/// t.add(0, 0, 1.0);
/// t.add(0, 0, 2.0); // duplicates sum on conversion
/// let csr = t.to_csr();
/// assert_eq!(csr.get(0, 0), 3.0);
/// ```
#[derive(Debug, Clone)]
pub struct TripletMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl TripletMatrix {
    /// Creates an empty builder of the given shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        TripletMatrix {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Adds `v` at `(i, j)`; duplicates accumulate.
    ///
    /// # Panics
    ///
    /// Panics (debug) when the indices are out of bounds.
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols, "triplet out of bounds");
        if v != 0.0 {
            self.entries.push((i, j, v));
        }
    }

    /// Number of raw (pre-accumulation) entries.
    pub fn nnz_raw(&self) -> usize {
        self.entries.len()
    }

    /// Matrix shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Converts to CSR, summing duplicate coordinates.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut sorted = self.entries.clone();
        sorted.sort_unstable_by_key(|a| (a.0, a.1));
        // Merge duplicates into (i, j, sum) runs.
        let mut merged: Vec<(usize, usize, f64)> = Vec::with_capacity(sorted.len());
        for (i, j, v) in sorted {
            match merged.last_mut() {
                Some((pi, pj, pv)) if *pi == i && *pj == j => *pv += v,
                _ => merged.push((i, j, v)),
            }
        }
        let mut row_ptr = vec![0usize; self.rows + 1];
        for &(i, _, _) in &merged {
            row_ptr[i + 1] += 1;
        }
        for i in 0..self.rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let col_idx = merged.iter().map(|&(_, j, _)| j).collect();
        let values = merged.iter().map(|&(_, _, v)| v).collect();
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// Compressed sparse row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Matrix shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored (structural) nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Value at `(i, j)` (zero when not stored).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        match self.col_idx[lo..hi].binary_search(&j) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Iterates over the stored entries of row `i` as `(col, value)`.
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Sparse matrix–vector product `y = A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] for wrong-length `x`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(NumericsError::DimensionMismatch {
                expected: self.cols,
                found: x.len(),
            });
        }
        let mut y = vec![0.0; self.rows];
        for i in 0..self.rows {
            let mut acc = 0.0;
            for (j, v) in self.row_iter(i) {
                acc += v * x[j];
            }
            y[i] = acc;
        }
        Ok(y)
    }

    /// Extracts the diagonal (zeros where unstored).
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.rows.min(self.cols))
            .map(|i| self.get(i, i))
            .collect()
    }

    /// Maximum symmetry defect `|a_ij − a_ji|` over stored entries.
    pub fn symmetry_defect(&self) -> f64 {
        let mut d = 0.0f64;
        for i in 0..self.rows {
            for (j, v) in self.row_iter(i) {
                d = d.max((v - self.get(j, i)).abs());
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplet_accumulates_duplicates() {
        let mut t = TripletMatrix::new(3, 3);
        t.add(1, 1, 2.0);
        t.add(1, 1, 3.0);
        t.add(0, 2, 1.0);
        let c = t.to_csr();
        assert_eq!(c.get(1, 1), 5.0);
        assert_eq!(c.get(0, 2), 1.0);
        assert_eq!(c.get(2, 2), 0.0);
        assert_eq!(c.nnz(), 2);
    }

    #[test]
    fn empty_rows_are_handled() {
        let mut t = TripletMatrix::new(4, 4);
        t.add(0, 0, 1.0);
        t.add(3, 3, 2.0);
        let c = t.to_csr();
        assert_eq!(c.get(0, 0), 1.0);
        assert_eq!(c.get(3, 3), 2.0);
        assert_eq!(c.row_iter(1).count(), 0);
        assert_eq!(c.row_iter(2).count(), 0);
    }

    #[test]
    fn mul_vec_matches_dense() {
        let mut t = TripletMatrix::new(3, 3);
        let entries = [
            (0, 0, 4.0),
            (0, 1, -1.0),
            (1, 0, -1.0),
            (1, 1, 4.0),
            (1, 2, -1.0),
            (2, 1, -1.0),
            (2, 2, 4.0),
        ];
        for (i, j, v) in entries {
            t.add(i, j, v);
        }
        let c = t.to_csr();
        let x = [1.0, 2.0, 3.0];
        let y = c.mul_vec(&x).unwrap();
        assert_eq!(y, vec![2.0, 4.0, 10.0]);
    }

    #[test]
    fn zero_entries_are_dropped() {
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 0, 0.0);
        assert_eq!(t.nnz_raw(), 0);
    }

    #[test]
    fn symmetry_defect() {
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 1, 2.0);
        t.add(1, 0, 2.0);
        assert_eq!(t.to_csr().symmetry_defect(), 0.0);
        let mut t2 = TripletMatrix::new(2, 2);
        t2.add(0, 1, 2.0);
        assert_eq!(t2.to_csr().symmetry_defect(), 2.0);
    }

    #[test]
    fn get_on_unsorted_insert_order() {
        let mut t = TripletMatrix::new(2, 3);
        t.add(1, 2, 6.0);
        t.add(0, 1, 2.0);
        t.add(1, 0, 4.0);
        let c = t.to_csr();
        assert_eq!(c.get(0, 1), 2.0);
        assert_eq!(c.get(1, 0), 4.0);
        assert_eq!(c.get(1, 2), 6.0);
        let row: Vec<_> = c.row_iter(1).collect();
        assert_eq!(row, vec![(0, 4.0), (2, 6.0)]);
    }
}
