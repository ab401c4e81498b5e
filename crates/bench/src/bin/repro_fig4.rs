//! Regenerate **Figure 4** and **Corollary 3.8 / 3.10**: the β exponent
//! of the constructed (β, β)-network as a function of `x` where
//! `α = nˣ`.
//!
//! The paper's figure plots the *theoretical* exponent
//! `y(x) = (3x−1)/(4x)` for x < 1, `(2x−1)/(2x)` for x ≥ 1, capped at
//! `2/3` by the MST (Corollary 3.10). We print that curve alongside the
//! *measured* certified β of the combined construction on uniform random
//! instances, and fit the measured growth exponent over an α-sweep at
//! fixed n to compare against `2/3` (the large-x regime the combination
//! guarantees).

use gncg_algo::combined::combined_network;
use gncg_algo::params::{combined_exponent, corollary_3_8_exponent};
use gncg_geometry::generators;
use gncg_sweep::harness::run_repro;
use gncg_sweep::log_log_slope;

fn main() {
    let rep = run_repro(
        "fig4",
        "Figure 4 / Cor 3.8+3.10: beta exponent y(x) for alpha = n^x; combined construction is O(alpha^{2/3})",
        |run, rep| {

    // the theoretical curve (the actual content of Figure 4) — closed
    // form, recomputed every run
    for &x in &[1.0 / 3.0, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0] {
        let y = corollary_3_8_exponent(x);
        let y_comb = combined_exponent(x);
        rep.push(
            format!("curve x={x:.3}"),
            y,
            y_comb,
            y_comb <= y + 1e-12 && y_comb <= 2.0 / 3.0 + 1e-12,
            "theoretical exponent (alg1, combined)",
        );
    }

    // measured: certified beta of the combined network, n fixed, alpha
    // sweep; slope of log beta vs log alpha must stay <= 2/3 + slack.
    // Each alpha is one checkpointed unit; the fit points are recovered
    // from the report rows so a resumed run fits identical data.
    let n = 100usize;
    let ps = generators::uniform_unit_square(n, 4242);
    let mut pts = Vec::new();
    for &alpha in &[2.0, 8.0, 32.0, 128.0, 512.0, 2048.0] {
        // stop at the first skipped unit: the slope fit below must see
        // either all sweep points or none (resume recomputes it whole)
        let Some(range) = run.unit(rep, &format!("sweep alpha={alpha}"), |rep| {
            let res = combined_network(&ps, alpha);
            rep.push(
                format!("n={n} alpha={alpha} sel={:?}", res.selected),
                alpha.powf(2.0 / 3.0),
                res.beta_upper,
                res.beta_upper.is_finite(),
                "certified beta vs alpha^{2/3} scale reference",
            );
        }) else {
            return;
        };
        let beta = rep.rows[range.start]
            .measured
            .expect("sweep rows carry a measured beta");
        pts.push((alpha, beta));
    }
    match log_log_slope(&pts) {
        Ok(slope) => rep.push(
            format!("n={n} measured growth exponent"),
            2.0 / 3.0,
            slope,
            slope <= 2.0 / 3.0 + 0.15,
            "log-log slope of certified beta over alpha sweep",
        ),
        Err(e) => rep.push_degenerate(
            format!("n={n} measured growth exponent"),
            false,
            &format!("slope fit failed: {e}"),
        ),
    }

    // small-alpha regime: alpha <= n^{1/3} gives O(1) beta. No paper-side
    // number exists for a single sample, so these rows are measured-only.
    let mut small = Vec::new();
    for &n in &[64usize, 125, 216, 343] {
        let Some(range) = run.unit(rep, &format!("small n={n}"), |rep| {
            let alpha = (n as f64).powf(1.0 / 3.0) * 0.9;
            let ps = generators::uniform_unit_square(n, 7000 + n as u64);
            let res = combined_network(&ps, alpha);
            rep.push_unreferenced(
                format!("n={n} alpha=0.9*n^(1/3)"),
                res.beta_upper,
                res.beta_upper.is_finite(),
                "O(1) regime sample",
            );
        }) else {
            return;
        };
        small.push(
            rep.rows[range.start]
                .measured
                .expect("regime rows carry a measured beta"),
        );
    }
    let spread = small.iter().cloned().fold(0.0f64, f64::max)
        / small.iter().cloned().fold(f64::INFINITY, f64::min);
    rep.push(
        "O(1) regime spread (max/min over n)".into(),
        2.0,
        spread,
        spread <= 3.0,
        "certified beta stays bounded as n grows with alpha = O(n^{1/3})",
    );

        },
    );
    if !rep.all_ok() {
        std::process::exit(1);
    }
}
