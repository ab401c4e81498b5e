//! Minimal hand-rolled SVG emitter for network figures.
//!
//! Renders a 2-D point set and an owned network into a standalone SVG:
//! nodes as circles, edges as lines with an arrowhead-free ownership
//! tick near the owner (matching the paper's "edges point away from
//! their owners" convention closely enough for visual inspection).

use gncg_game::OwnedNetwork;
use gncg_geometry::PointSet;
use std::fmt::Write as _;

/// Render `net` over the 2-D points of `ps` as an SVG document.
pub fn render(ps: &PointSet, net: &OwnedNetwork, title: &str) -> String {
    assert_eq!(ps.dim(), 2, "svg rendering needs planar point sets");
    let n = ps.len();
    let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
    let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for i in 0..n {
        let p = ps.point(i);
        min_x = min_x.min(p[0]);
        max_x = max_x.max(p[0]);
        min_y = min_y.min(p[1]);
        max_y = max_y.max(p[1]);
    }
    let span_x = (max_x - min_x).max(1e-9);
    let span_y = (max_y - min_y).max(1e-9);
    let size = 640.0;
    let margin = 40.0;
    let scale = ((size - 2.0 * margin) / span_x).min((size - 2.0 * margin) / span_y);
    let tx = |x: f64| margin + (x - min_x) * scale;
    // SVG y grows downward; flip so the figure reads like the paper's
    let ty = |y: f64| size - margin - (y - min_y) * scale;

    let mut svg = String::new();
    let _ = writeln!(
        svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" viewBox="0 0 {size} {size}">"#
    );
    let _ = writeln!(
        svg,
        r#"  <rect width="100%" height="100%" fill="white"/>
  <text x="{margin}" y="24" font-family="sans-serif" font-size="14">{title}</text>"#,
    );
    // edges, with a tick at 20% from the owner end
    for u in 0..n {
        for &v in net.strategy(u) {
            let (x1, y1) = (tx(ps.point(u)[0]), ty(ps.point(u)[1]));
            let (x2, y2) = (tx(ps.point(v)[0]), ty(ps.point(v)[1]));
            let _ = writeln!(
                svg,
                r##"  <line x1="{x1:.1}" y1="{y1:.1}" x2="{x2:.1}" y2="{y2:.1}" stroke="#3366aa" stroke-width="1.2"/>"##
            );
            let (mx, my) = (x1 + 0.2 * (x2 - x1), y1 + 0.2 * (y2 - y1));
            let _ = writeln!(
                svg,
                r##"  <circle cx="{mx:.1}" cy="{my:.1}" r="2.2" fill="#3366aa"/>"##
            );
        }
    }
    for i in 0..n {
        let (x, y) = (tx(ps.point(i)[0]), ty(ps.point(i)[1]));
        let _ = writeln!(
            svg,
            r##"  <circle cx="{x:.1}" cy="{y:.1}" r="4" fill="#aa3322" stroke="black" stroke-width="0.8"/>"##
        );
    }
    svg.push_str("</svg>\n");
    svg
}

/// Write an SVG into `results/<name>.svg`; returns the path.
pub fn save(
    ps: &PointSet,
    net: &OwnedNetwork,
    name: &str,
    title: &str,
) -> std::io::Result<std::path::PathBuf> {
    let dir = gncg_sweep::results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.svg"));
    std::fs::write(&path, render(ps, net, title))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gncg_geometry::generators;

    #[test]
    fn renders_wellformed_svg() {
        let ps = generators::uniform_unit_square(10, 1);
        let net = OwnedNetwork::center_star(10, 0);
        let svg = render(&ps, &net, "test");
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        // 9 edges drawn
        assert_eq!(svg.matches("<line").count(), 9);
        // 10 node circles + 9 ownership ticks
        assert_eq!(svg.matches("<circle").count(), 19);
    }

    #[test]
    fn handles_degenerate_extent() {
        let ps = generators::triangle_clusters(2, 0.0);
        let net = OwnedNetwork::complete(6);
        let svg = render(&ps, &net, "degenerate");
        assert!(svg.contains("</svg>"));
    }
}
