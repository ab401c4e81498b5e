//! Flat row-major distance matrix.
//!
//! The previous APSP representation, `Vec<Vec<f64>>`, costs one heap
//! allocation per source and scatters rows across the heap; every
//! `d[u][v]` read chases a pointer. [`DistMatrix`] stores all n² entries
//! in a single allocation, so row access is one multiply and the whole
//! matrix walks sequentially in cache order.
//!
//! `Index<usize>` returns the row as a `&[f64]`, so existing `d[u][v]`
//! call sites compile unchanged against either representation.

/// A dense n×n matrix of shortest-path distances in one flat allocation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DistMatrix {
    n: usize,
    data: Vec<f64>,
}

/// Arena recycling: the best-response hot path rents a matrix for each
/// rest-graph APSP instead of allocating n² doubles per evaluation.
/// `reset` shrinks to 0×0 (keeping capacity); renters call
/// [`DistMatrix::reshape`] before filling.
impl gncg_parallel::arena::Scratch for DistMatrix {
    fn reset(&mut self) {
        self.n = 0;
        self.data.clear();
    }
}

impl DistMatrix {
    /// An n×n matrix with every entry set to `value`.
    pub fn filled(n: usize, value: f64) -> Self {
        Self {
            n,
            data: vec![value; n * n],
        }
    }

    /// Resize to n×n reusing the backing buffer, for a caller that then
    /// overwrites every row. Only entries past the old length are
    /// written (with `INFINITY`); the others keep their old values, so a
    /// matrix refilled at the same size costs no extra pass.
    /// Allocation-free once the buffer has grown to its steady-state
    /// size — the reuse half of arena-rented matrices (see the
    /// [`gncg_parallel::arena::Scratch`] impl below).
    pub fn reshape(&mut self, n: usize) {
        self.n = n;
        self.data.resize(n * n, f64::INFINITY);
    }

    /// Build from ragged rows (the legacy `Vec<Vec<f64>>` shape).
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        let n = rows.len();
        let mut data = Vec::with_capacity(n * n);
        for row in &rows {
            assert_eq!(row.len(), n, "rows must form a square matrix");
            data.extend_from_slice(row);
        }
        Self { n, data }
    }

    /// Matrix dimension n (the matrix is n×n).
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True iff the matrix has zero rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Row `u` as a contiguous slice.
    #[inline]
    pub fn row(&self, u: usize) -> &[f64] {
        &self.data[u * self.n..(u + 1) * self.n]
    }

    /// Entry `d[u][v]`.
    #[inline]
    pub fn get(&self, u: usize, v: usize) -> f64 {
        self.data[u * self.n + v]
    }

    /// Set entry `d[u][v]`.
    #[inline]
    pub fn set(&mut self, u: usize, v: usize, value: f64) {
        self.data[u * self.n + v] = value;
    }

    /// The whole flat buffer (row-major).
    #[inline]
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// Fill every row in parallel, each via `f(scratch, u, row)`, with
    /// one persistent `scratch` per worker thread.
    pub fn par_fill_rows_with<S, Init, F>(&mut self, init: Init, f: F)
    where
        Init: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &mut [f64]) + Sync,
    {
        let n = self.n;
        let ptr = RowsPtr(self.data.as_mut_ptr());
        let ptr = &ptr;
        gncg_parallel::parallel_map_with(n, init, move |scratch, u| {
            // SAFETY: the loop hands out each index u < n exactly once,
            // so each row slice is written by exactly one closure
            // invocation and stays in bounds.
            let row = unsafe { std::slice::from_raw_parts_mut(ptr.0.add(u * n), n) };
            f(scratch, u, row);
        });
    }
}

/// Raw pointer wrapper so the parallel closure can carve disjoint row
/// slices. Soundness argument lives at the single use site above.
struct RowsPtr(*mut f64);
unsafe impl Send for RowsPtr {}
unsafe impl Sync for RowsPtr {}

impl std::ops::Index<usize> for DistMatrix {
    type Output = [f64];

    #[inline]
    fn index(&self, u: usize) -> &[f64] {
        self.row(u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_matches_rows() {
        let m = DistMatrix::from_rows(vec![vec![0.0, 1.0], vec![1.0, 0.0]]);
        assert_eq!(m[0][1], 1.0);
        assert_eq!(m.get(1, 0), 1.0);
        assert_eq!(m.row(1), &[1.0, 0.0]);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn as_flat_is_row_major() {
        let m = DistMatrix::from_rows(vec![vec![0.0, 3.0], vec![4.0, 0.0]]);
        assert_eq!(m.as_flat(), &[0.0, 3.0, 4.0, 0.0]);
    }

    #[test]
    fn set_and_fill() {
        let mut m = DistMatrix::filled(3, f64::INFINITY);
        assert!(m.get(2, 2).is_infinite());
        m.set(2, 2, 0.0);
        assert_eq!(m[2][2], 0.0);
        // reshape keeps the leading entries and fills new ones with
        // INFINITY: the caller overwrites every row
        m.reshape(2);
        assert_eq!(m.len(), 2);
        assert_eq!(m.as_flat().len(), 4);
        m.reshape(4);
        assert!(m.as_flat()[9..].iter().all(|x| x.is_infinite()));
    }

    #[test]
    fn par_fill_rows_writes_disjoint_rows() {
        let n = 64;
        let mut m = DistMatrix::filled(n, -1.0);
        m.par_fill_rows_with(
            || 0usize,
            |_, u, row| {
                for (v, x) in row.iter_mut().enumerate() {
                    *x = (u * n + v) as f64;
                }
            },
        );
        for u in 0..n {
            for v in 0..n {
                assert_eq!(m.get(u, v), (u * n + v) as f64);
            }
        }
    }

    #[test]
    #[should_panic(expected = "square")]
    fn ragged_rows_rejected() {
        DistMatrix::from_rows(vec![vec![0.0], vec![0.0, 1.0]]);
    }
}
