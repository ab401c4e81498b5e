//! Golden digests of the Θ- and Yao-graph edge lists.
//!
//! Each digest hashes a construction's edge list — endpoints and weight
//! bits in `Graph::edges` order — on inputs that stress the cone scan's
//! tie rules: uniform points, cocircular points, an integer grid (many
//! equal keys and cone-boundary angles), exactly coincident clusters and
//! uniform points with duplicates. The pinned values were computed with
//! the original sequential one-scan-per-construction code, so a change
//! to the shared parallel cone scan that moves a single edge or weight
//! bit fails here. The digests hold at every thread count and under a
//! cancelled ambient budget.

use gncg_geometry::{generators, Point, PointSet};
use gncg_parallel::{with_budget, with_max_threads, Budget};
use gncg_spanner::{build, SpannerKind};

/// FNV-1a over the vertex count and every `(u, v, w.to_bits())`.
fn digest(ps: &PointSet, kind: SpannerKind) -> u64 {
    let g = build(ps, kind);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(g.len() as u64);
    for (u, v, w) in g.edges() {
        eat(u as u64);
        eat(v as u64);
        eat(w.to_bits());
    }
    h
}

/// Uniform points with every fifth one duplicated (exact coincidences
/// scattered through the index order).
fn with_duplicates(n: usize, seed: u64) -> PointSet {
    let base = generators::uniform_unit_square(n, seed);
    let mut pts: Vec<Point> = (0..n).map(|i| base.point(i).clone()).collect();
    for i in (0..n).step_by(5) {
        pts.push(base.point(i).clone());
    }
    PointSet::new(pts)
}

fn inputs() -> Vec<(&'static str, PointSet)> {
    vec![
        ("uniform40s1", generators::uniform_unit_square(40, 1)),
        ("uniform200s2", generators::uniform_unit_square(200, 2)),
        ("circle64", generators::circle(64, 2.0)),
        ("grid9x9", generators::integer_grid(&[9, 9])),
        ("clusters5", generators::triangle_clusters(5, 0.0)),
        ("dups60s3", with_duplicates(60, 3)),
    ]
}

const KINDS: [(&str, SpannerKind); 5] = [
    ("theta12", SpannerKind::Theta { cones: 12 }),
    ("theta9", SpannerKind::Theta { cones: 9 }),
    ("theta5", SpannerKind::Theta { cones: 5 }),
    ("yao12", SpannerKind::Yao { cones: 12 }),
    ("yao5", SpannerKind::Yao { cones: 5 }),
];

/// `(input, kind, digest)` as computed by the sequential scans.
const GOLDEN: &[(&str, &str, u64)] = &[
    ("uniform40s1", "theta12", 0x19f494f6636e1370),
    ("uniform40s1", "theta9", 0x79f02622b5cedab5),
    ("uniform40s1", "theta5", 0x93d0330fecb5431b),
    ("uniform40s1", "yao12", 0x187e04d08e94d15a),
    ("uniform40s1", "yao5", 0xff53472804becf23),
    ("uniform200s2", "theta12", 0xefc116674aa0c16f),
    ("uniform200s2", "theta9", 0x41e8af367652ed25),
    ("uniform200s2", "theta5", 0x089420baa529f534),
    ("uniform200s2", "yao12", 0x88625a4d433bb250),
    ("uniform200s2", "yao5", 0xa1f3d9f04c03547a),
    ("circle64", "theta12", 0xa5de5230a02a9da2),
    ("circle64", "theta9", 0x4cff52c1696ffe1f),
    ("circle64", "theta5", 0x573a023a93df0c4d),
    ("circle64", "yao12", 0xd143081b10d56c73),
    ("circle64", "yao5", 0x573a023a93df0c4d),
    ("grid9x9", "theta12", 0x1c430dee068e7ee1),
    ("grid9x9", "theta9", 0x37d91194846ca0e1),
    ("grid9x9", "theta5", 0xc46f83f0d47464f2),
    ("grid9x9", "yao12", 0x1c430dee068e7ee1),
    ("grid9x9", "yao5", 0xc46f83f0d47464f2),
    ("clusters5", "theta12", 0xfade1b20f3410f73),
    ("clusters5", "theta9", 0xfade1b20f3410f73),
    ("clusters5", "theta5", 0x70b169f9a41d136b),
    ("clusters5", "yao12", 0xfade1b20f3410f73),
    ("clusters5", "yao5", 0x38fdf1297512626b),
    ("dups60s3", "theta12", 0x731378452c63380e),
    ("dups60s3", "theta9", 0xb51bef71831ab8d5),
    ("dups60s3", "theta5", 0x6a6cb14b79e7a7bc),
    ("dups60s3", "yao12", 0x5b2fb07031e01081),
    ("dups60s3", "yao5", 0x6ee046400a6c8ea6),
];

fn check_all(regime: &str) {
    let mut mismatches = Vec::new();
    for (name, ps) in inputs() {
        for (kname, kind) in KINDS {
            let got = digest(&ps, kind);
            let want = GOLDEN
                .iter()
                .find(|&&(i, k, _)| i == name && k == kname)
                .map(|&(_, _, d)| d);
            if want != Some(got) {
                mismatches.push(format!("(\"{name}\", \"{kname}\", {got:#018x}),"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{regime}: cone spanner digests moved:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn cone_spanners_match_their_golden_digests() {
    check_all("uncapped");
    with_max_threads(1, || check_all("one thread"));
    let dead = Budget::unlimited();
    dead.cancel();
    with_budget(&dead, || check_all("cancelled ambient budget"));
}
