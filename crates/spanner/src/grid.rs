//! The grid spanner of Theorem 3.13, plus the [`GridIndex`] spatial
//! hash used for O(neighbourhood) candidate generation.
//!
//! On an integer grid point set `P = ℤᵈ ∩ B`, the set `N` of
//! nearest-neighbour edges (axis-aligned, length 1) is a √d-spanner
//! (Cauchy–Schwarz, as in the paper's proof), bipartite, and every vertex
//! has ≤ 2d such edges.

use gncg_geometry::PointSet;
use gncg_graph::Graph;
use std::collections::{BTreeMap, HashMap};

/// Build the nearest-neighbour grid graph over an integer grid point
/// set. Panics if any coordinate is not (within 1e-9 of) an integer.
pub fn grid_spanner(ps: &PointSet) -> Graph {
    let n = ps.len();
    let dim = ps.dim();
    let mut index: HashMap<Vec<i64>, usize> = HashMap::with_capacity(n);
    for i in 0..n {
        let coords: Vec<i64> = ps
            .point(i)
            .coords()
            .iter()
            .map(|&c| {
                let r = c.round();
                assert!(
                    (c - r).abs() < 1e-9,
                    "grid spanner needs integer coordinates, got {c}"
                );
                r as i64
            })
            .collect();
        let prev = index.insert(coords, i);
        assert!(prev.is_none(), "duplicate grid point");
    }
    let mut g = Graph::new(n);
    for (coords, &i) in index.iter().map(|(c, i)| (c.clone(), i)) {
        for axis in 0..dim {
            let mut nb = coords.clone();
            nb[axis] += 1;
            if let Some(&j) = index.get(&nb) {
                g.add_edge(i, j, 1.0);
            }
        }
    }
    g
}

/// The √d stretch bound the grid spanner satisfies on full integer grids.
pub fn grid_stretch_bound(dim: usize) -> f64 {
    (dim as f64).sqrt()
}

/// Uniform-grid spatial hash over a point set: buckets points into
/// axis-aligned cells of a fixed side length and answers radius and
/// k-nearest queries by scanning only the cells a query ball can
/// touch.
///
/// Everything about the index is **deterministic**: cells live in a
/// `BTreeMap` (no hash-iteration-order dependence), bucket member
/// lists are ascending by construction, radius results come back
/// sorted ascending by index, and k-nearest ties break by smaller
/// index. Query results are *exact* (every candidate is confirmed
/// against the point set's own metric), so callers may treat a radius
/// query as the complete set `{v ≠ u : ‖u,v‖ ≤ r}` — the completeness
/// half of the candidate-generation soundness argument.
#[derive(Debug, Clone)]
pub struct GridIndex {
    cell: f64,
    dim: usize,
    cells: BTreeMap<Vec<i64>, Vec<usize>>,
}

impl GridIndex {
    /// Build an index with the given cell side length (> 0, finite).
    pub fn build(ps: &PointSet, cell: f64) -> Self {
        assert!(cell > 0.0 && cell.is_finite(), "cell side must be positive");
        let dim = ps.dim();
        let mut cells: BTreeMap<Vec<i64>, Vec<usize>> = BTreeMap::new();
        for i in 0..ps.len() {
            let key = Self::key_of(ps.point(i).coords(), cell);
            cells.entry(key).or_default().push(i); // ascending: i grows
        }
        Self { cell, dim, cells }
    }

    /// Build with a density-derived cell side: the bounding-box
    /// diagonal divided by √n, clamped away from zero for degenerate
    /// (single-cell) inputs. A reasonable default when the caller has
    /// no better estimate of typical query radii.
    pub fn with_auto_cell(ps: &PointSet) -> Self {
        let dim = ps.dim();
        let mut lo = vec![f64::INFINITY; dim];
        let mut hi = vec![f64::NEG_INFINITY; dim];
        for p in ps.points() {
            for (axis, &c) in p.coords().iter().enumerate() {
                lo[axis] = lo[axis].min(c);
                hi[axis] = hi[axis].max(c);
            }
        }
        let diag = lo
            .iter()
            .zip(&hi)
            .map(|(a, b)| (b - a) * (b - a))
            .sum::<f64>()
            .sqrt();
        let cell = (diag / (ps.len() as f64).sqrt()).max(1e-12);
        Self::build(ps, cell)
    }

    fn key_of(coords: &[f64], cell: f64) -> Vec<i64> {
        coords.iter().map(|&c| (c / cell).floor() as i64).collect()
    }

    /// All `v ≠ u` with `‖u, v‖ ≤ radius`, pushed onto `out` sorted
    /// ascending by index (`out` is cleared first). Exact and
    /// complete: candidates come from every cell the ball can touch
    /// and are confirmed against `ps.dist`. A non-finite or huge
    /// radius degrades gracefully to a full (still exact) scan.
    pub fn within_radius(&self, ps: &PointSet, u: usize, radius: f64, out: &mut Vec<usize>) {
        out.clear();
        if radius.is_nan() || radius < 0.0 {
            return; // empty ball
        }
        let coords = ps.point(u).coords();
        let check = |cand: usize, out: &mut Vec<usize>| {
            if cand != u && ps.dist(u, cand) <= radius {
                out.push(cand);
            }
        };
        // Cells the ball can touch, per axis. When that box would
        // enumerate more cells than exist (estimated in f64 so huge
        // radii just overflow to "no"), walk the occupied cells
        // directly instead.
        let boxed = if radius.is_finite() {
            let per_axis = (2.0 * radius / self.cell).floor() + 2.0;
            per_axis.powi(self.dim as i32) <= self.cells.len() as f64
        } else {
            false
        };
        if !boxed {
            for members in self.cells.values() {
                for &cand in members {
                    check(cand, out);
                }
            }
            out.sort_unstable();
            return;
        }
        let lo: Vec<i64> = coords
            .iter()
            .map(|&c| ((c - radius) / self.cell).floor() as i64)
            .collect();
        let hi: Vec<i64> = coords
            .iter()
            .map(|&c| ((c + radius) / self.cell).floor() as i64)
            .collect();
        let mut key = lo.clone();
        'cells: loop {
            if let Some(members) = self.cells.get(&key) {
                for &cand in members {
                    check(cand, out);
                }
            }
            // odometer increment over the per-axis ranges
            for axis in 0..self.dim {
                if key[axis] < hi[axis] {
                    key[axis] += 1;
                    continue 'cells;
                }
                key[axis] = lo[axis];
            }
            break;
        }
        out.sort_unstable();
    }

    /// The `k` points nearest to `u` (excluding `u` itself), ordered
    /// by distance with ties broken by smaller index. Fewer than `k`
    /// entries when the set is small. Uses an expanding ring search
    /// over the grid, so typical cost is O(k), not O(n).
    pub fn nearest_k(&self, ps: &PointSet, u: usize, k: usize) -> Vec<usize> {
        let n = ps.len();
        if k == 0 || n <= 1 {
            return Vec::new();
        }
        let mut radius = self.cell;
        let mut found = Vec::new();
        loop {
            self.within_radius(ps, u, radius, &mut found);
            // `found` is complete for the ball, so once it holds ≥ k
            // points every true k-nearest (dist ≤ the k-th smallest
            // ≤ radius) is among them.
            if found.len() >= k || found.len() == n - 1 {
                break;
            }
            radius *= 2.0;
        }
        found.sort_by(|&a, &b| {
            ps.dist(u, a)
                .partial_cmp(&ps.dist(u, b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.cmp(&b))
        });
        found.truncate(k);
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gncg_geometry::generators;
    use gncg_graph::stretch;

    #[test]
    fn grid_2d_stretch_at_most_sqrt2() {
        let ps = generators::integer_grid(&[4, 5]);
        let g = grid_spanner(&ps);
        let s = stretch::stretch(&g, &ps);
        assert!(s <= 2f64.sqrt() + 1e-9, "stretch {s}");
    }

    #[test]
    fn grid_3d_stretch_at_most_sqrt3() {
        let ps = generators::integer_grid(&[2, 2, 2]);
        let g = grid_spanner(&ps);
        let s = stretch::stretch(&g, &ps);
        assert!(s <= 3f64.sqrt() + 1e-9, "stretch {s}");
    }

    #[test]
    fn degree_at_most_2d() {
        let ps = generators::integer_grid(&[5, 5]);
        let g = grid_spanner(&ps);
        assert!(g.max_degree() <= 4);
        let ps3 = generators::integer_grid(&[2, 2, 2]);
        let g3 = grid_spanner(&ps3);
        assert!(g3.max_degree() <= 6);
    }

    #[test]
    fn edge_count_of_full_grid() {
        // (b1+1)(b2+1) grid: edges = b1(b2+1) + b2(b1+1)
        let ps = generators::integer_grid(&[3, 4]);
        let g = grid_spanner(&ps);
        assert_eq!(g.num_edges(), 3 * 5 + 4 * 4);
    }

    #[test]
    fn grid_graph_is_bipartite() {
        let ps = generators::integer_grid(&[3, 3]);
        let g = grid_spanner(&ps);
        assert!(gncg_graph::orientation::two_colour(&g).is_some());
    }

    #[test]
    fn one_dimensional_grid_is_path() {
        let ps = generators::integer_grid(&[6]);
        let g = grid_spanner(&ps);
        assert_eq!(g.num_edges(), 6);
        assert!(gncg_graph::components::is_connected(&g));
        assert!(stretch::stretch(&g, &ps) <= 1.0 + 1e-9);
    }

    #[test]
    #[should_panic(expected = "integer coordinates")]
    fn rejects_non_integer_points() {
        let ps = generators::uniform_unit_square(5, 1);
        grid_spanner(&ps);
    }

    fn brute_within(ps: &gncg_geometry::PointSet, u: usize, r: f64) -> Vec<usize> {
        (0..ps.len())
            .filter(|&v| v != u && ps.dist(u, v) <= r)
            .collect()
    }

    #[test]
    fn within_radius_matches_brute_force() {
        for seed in 0..4 {
            let ps = generators::uniform_unit_square(60, 100 + seed);
            for &cell in &[0.05, 0.2, 1.5] {
                let idx = GridIndex::build(&ps, cell);
                let mut out = Vec::new();
                for u in 0..ps.len() {
                    for &r in &[0.0, 0.1, 0.37, 2.0] {
                        idx.within_radius(&ps, u, r, &mut out);
                        assert_eq!(out, brute_within(&ps, u, r), "seed {seed} u {u} r {r}");
                    }
                }
            }
        }
    }

    #[test]
    fn within_radius_handles_degenerate_radii() {
        let ps = generators::uniform_unit_square(20, 7);
        let idx = GridIndex::with_auto_cell(&ps);
        let mut out = Vec::new();
        idx.within_radius(&ps, 0, f64::INFINITY, &mut out);
        assert_eq!(out, (1..20).collect::<Vec<_>>());
        idx.within_radius(&ps, 0, -1.0, &mut out);
        assert!(out.is_empty());
        idx.within_radius(&ps, 0, f64::NAN, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn nearest_k_matches_brute_force() {
        for seed in 0..4 {
            let ps = generators::uniform_unit_square(50, 300 + seed);
            let idx = GridIndex::with_auto_cell(&ps);
            for u in 0..ps.len() {
                for &k in &[1usize, 3, 7, 49, 60] {
                    let got = idx.nearest_k(&ps, u, k);
                    let mut want: Vec<usize> = (0..ps.len()).filter(|&v| v != u).collect();
                    want.sort_by(|&a, &b| {
                        ps.dist(u, a)
                            .partial_cmp(&ps.dist(u, b))
                            .unwrap()
                            .then_with(|| a.cmp(&b))
                    });
                    want.truncate(k);
                    assert_eq!(got, want, "seed {seed} u {u} k {k}");
                }
            }
        }
    }

    #[test]
    fn nearest_k_breaks_ties_by_index_on_grids() {
        // Integer grid: lots of exactly-equal distances.
        let ps = generators::integer_grid(&[4, 4]);
        let idx = GridIndex::build(&ps, 1.0);
        for u in 0..ps.len() {
            let got = idx.nearest_k(&ps, u, 6);
            let mut want: Vec<usize> = (0..ps.len()).filter(|&v| v != u).collect();
            want.sort_by(|&a, &b| {
                ps.dist(u, a)
                    .partial_cmp(&ps.dist(u, b))
                    .unwrap()
                    .then_with(|| a.cmp(&b))
            });
            want.truncate(6);
            assert_eq!(got, want, "u {u}");
        }
    }

    #[test]
    fn coincident_points_are_indexed() {
        use gncg_geometry::{Point, PointSet};
        let ps = PointSet::new(vec![
            Point::d2(0.5, 0.5),
            Point::d2(0.5, 0.5),
            Point::d2(2.0, 2.0),
        ]);
        let idx = GridIndex::build(&ps, 1.0);
        let mut out = Vec::new();
        idx.within_radius(&ps, 0, 0.0, &mut out);
        assert_eq!(out, vec![1]);
        assert_eq!(idx.nearest_k(&ps, 2, 2), vec![0, 1]);
    }
}
