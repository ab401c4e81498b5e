//! Regenerate **Table 1** — the paper's result overview — by empirically
//! certifying each row's claim on concrete instances.
//!
//! Sections (run all by default, or pass section ids as args):
//! * `thm_2_1` — optimal networks can be (√α/3)-unstable,
//! * `thm_2_2` — social optimum ↔ minimum hitting set (reduction),
//! * `thm_3_4` — center stars are NE for α ≥ 2r−1; random a.a.s.,
//! * `thm_3_5` — complete network is (α+1, α/2+1),
//! * `thm_3_7` — Algorithm 1 computes a (β, β)-network within the bound,
//! * `thm_3_9` — MST is (n−1, n−1); combined O(α^{2/3}) (Cor 3.10),
//! * `thm_3_13` — grids get (2d, 2d),
//! * `thm_4_4` — PoS > 1 for α > 2,
//! * `sec_5` — host-network corollaries 5.1/5.2/5.3,
//! * `thm_5_4` — GNCG PoA ≤ 2(α+1) on sampled equilibria.

use gncg_algo::{
    complete::{complete_network, theorem_3_5_beta, theorem_3_5_gamma},
    grid_network::{grid_network, theorem_3_13_bound},
    mst_network::{mst_network, theorem_3_9_bound},
    params::corollary_3_8_params,
    run_algorithm1,
    star::{center_star, corollary_3_3_threshold, star_stability_threshold},
};
use gncg_game::{
    best_response, certify::certify, cost, exact, instances, moves, SolverConfig, SumDistances,
};
use gncg_geometry::generators;
use gncg_host::{corollaries as host_cor, hitting_set, poa as host_poa, HostNetwork};
use gncg_sweep::harness::run_sections;
use gncg_sweep::Report;

/// One Table 1 row's checks, as a whole report.
type Section = fn() -> Report;

/// Every section in run order; the ids are also the only accepted
/// arguments.
const SECTIONS: [(&str, Section); 10] = [
    ("thm_2_1", thm_2_1),
    ("thm_2_2", thm_2_2),
    ("thm_3_4", thm_3_4),
    ("thm_3_5", thm_3_5),
    ("thm_3_7", thm_3_7),
    ("thm_3_9", thm_3_9),
    ("thm_3_13", thm_3_13),
    ("thm_4_4", thm_4_4),
    ("sec_5", sec_5),
    ("thm_5_4", thm_5_4),
];

fn main() {
    let claim = "Table 1: every row's claim certified on concrete instances";
    let ids = SECTIONS.map(|(id, _)| id);
    let all_ok = run_sections("table1", claim, &ids, move |run, selected| {
        // each theorem section is one checkpointed unit: a killed run
        // only repeats the section that was in flight
        let mut all_ok = true;
        for (name, section) in SECTIONS {
            if !selected.is_empty() && !selected.iter().any(|a| a == name) {
                continue;
            }
            if let Some(r) = run.section(name, section) {
                r.print();
                all_ok &= r.all_ok();
                let _ = r.save();
            }
        }

        println!(
            "TABLE 1 REPRODUCTION: {}",
            if all_ok {
                "ALL SECTIONS PASS"
            } else {
                "SOME SECTIONS FAILED"
            }
        );
        all_ok
    });
    if !all_ok {
        std::process::exit(1);
    }
}

/// Theorem 2.1: in the triangle-cluster optimum, the agent owning a
/// length-1 edge improves by ≥ √α/3 by selling it.
fn thm_2_1() -> Report {
    let mut rep = Report::new(
        "thm_2_1",
        "Theorem 2.1: only (Ω(sqrt(alpha)),1)-networks exist — improvement factor >= sqrt(alpha)/3 in the optimum",
    );
    for alpha in [9.0, 25.0, 100.0, 400.0] {
        let s = instances::theorem_2_1_cluster_size(alpha);
        let (ps, opt) = instances::triangle_optimum(s, 0.0);
        // the witness agent is a cluster representative owning a
        // length-1 edge; selling it (keeping the rest) is the paper's
        // improving move — measure the factor via local search witness
        let u = 0usize;
        let now = cost::agent_cost::<_, SumDistances>(&ps, &opt, alpha, u);
        let mut sold = opt.strategy(u).clone();
        sold.remove(&s); // drop the length-1 edge 0 -> s
        let after = moves::cost_with_strategy::<_, SumDistances>(&ps, &opt, alpha, u, &sold);
        let factor = best_response::ratio(now, after);
        let bound = instances::theorem_2_1_factor(alpha);
        rep.push(
            format!("alpha={alpha} n={}", 3 * s),
            bound,
            factor,
            factor >= bound - 1e-9,
            "factor from selling one unit edge",
        );
    }
    rep
}

/// Theorem 2.2: within the proof's candidate family, the cheapest
/// network corresponds to the minimum hitting set, and the cost gap per
/// extra hitting-set element is exactly 2α.
fn thm_2_2() -> Report {
    let mut rep = Report::new(
        "thm_2_2",
        "Theorem 2.2: social optimum computation encodes MIN HITTING SET (candidate family check)",
    );
    let instances_list: Vec<(&str, hitting_set::HittingSetInstance)> = vec![
        (
            "3 elems, 3 sets",
            hitting_set::HittingSetInstance::new(3, vec![vec![0, 1], vec![1, 2], vec![2]]),
        ),
        (
            "4 elems, 3 sets",
            hitting_set::HittingSetInstance::new(4, vec![vec![0, 1], vec![2, 3], vec![1, 2]]),
        ),
        (
            "5 elems, 4 sets",
            hitting_set::HittingSetInstance::new(
                5,
                vec![vec![0, 1], vec![1, 2], vec![3, 4], vec![0, 4]],
            ),
        ),
    ];
    for (label, inst) in instances_list {
        for alpha in [1.0, 4.0] {
            let red = hitting_set::build_reduction(&inst, alpha);
            let min_hs = inst.minimum_hitting_set();
            let min_cost = red.candidate_cost(&min_hs);
            // scan the whole candidate family
            let mut best_cost = f64::INFINITY;
            let mut best_size = usize::MAX;
            for mask in 1u64..(1 << inst.n_elements) {
                let hs: Vec<usize> = (0..inst.n_elements)
                    .filter(|&e| mask & (1 << e) != 0)
                    .collect();
                if inst.is_hitting(&hs) {
                    let c = red.candidate_cost(&hs);
                    if c < best_cost - 1e-9 {
                        best_cost = c;
                        best_size = hs.len();
                    }
                }
            }
            let ok = best_size == min_hs.len() && (best_cost - min_cost).abs() < 1e-6;
            rep.push(
                format!("{label} alpha={alpha} |V|={}", red.len()),
                min_hs.len() as f64,
                best_size as f64,
                ok,
                "argmin over candidate family = min hitting set",
            );
        }
    }
    rep
}

/// Lemma 3.2 / Corollary 3.3 / Theorem 3.4: stars are NE above the
/// detour threshold; failure probability shrinks as α grows past n.
fn thm_3_4() -> Report {
    let mut rep = Report::new(
        "thm_3_4",
        "Lemma 3.2/Cor 3.3/Thm 3.4: center stars are NE once alpha >= 2r-1; random points a.a.s.",
    );
    // exact NE check on small random instances just above the threshold
    for seed in 0..4u64 {
        let n = 9;
        let ps = generators::uniform_unit_square(n, seed + 1);
        let cor = corollary_3_3_threshold(&ps).unwrap();
        let star = center_star(n, 0);
        let is_ne = exact::is_nash::<_, SumDistances>(&ps, &star, cor + 0.01);
        rep.push(
            format!("seed={seed} n={n} alpha=2r-1+eps"),
            1.0,
            if is_ne { 1.0 } else { 0.0 },
            is_ne,
            "exact NE check at Cor 3.3 threshold",
        );
        // Lemma 3.2's tighter per-center threshold also works
        let lem = star_stability_threshold(&ps, 0);
        let is_ne2 = exact::is_nash::<_, SumDistances>(&ps, &star, lem + 0.01);
        rep.push(
            format!("seed={seed} n={n} alpha=lemma3.2+eps"),
            1.0,
            if is_ne2 { 1.0 } else { 0.0 },
            is_ne2,
            "exact NE check at Lemma 3.2 threshold",
        );
    }
    // Theorem 3.4 rate: empirical failure fraction vs the 8πn²/(α+1)²
    // tail bound, alpha = n^1.5 (ω(n))
    for n in [50usize, 100, 200] {
        let alpha = (n as f64).powf(1.5);
        let trials = 40;
        let mut failures = 0;
        for seed in 0..trials {
            let ps = generators::uniform_unit_square(n, 10_000 + seed);
            let need = corollary_3_3_threshold(&ps).unwrap();
            if alpha < need {
                failures += 1;
            }
        }
        let bound = gncg_algo::star::theorem_3_4_failure_bound(n, alpha).min(1.0);
        let frac = failures as f64 / trials as f64;
        rep.push(
            format!("n={n} alpha=n^1.5 trials={trials}"),
            bound,
            frac,
            frac <= bound + 0.05,
            "empirical star-failure fraction vs tail bound",
        );
    }
    rep
}

/// Theorem 3.5: complete networks are (α+1, α/2+1).
fn thm_3_5() -> Report {
    let mut rep = Report::new(
        "thm_3_5",
        "Theorem 3.5: the complete network is an (alpha+1, alpha/2+1)-network",
    );
    for alpha in [0.5, 1.0, 2.0, 8.0] {
        // exact on small instances
        let ps = generators::uniform_unit_square(7, 3);
        let net = complete_network(7);
        let r = certify(&ps, &net, alpha, &SolverConfig::exact());
        let be = r.beta_exact.unwrap();
        let ge = r.gamma_exact.unwrap();
        rep.push(
            format!("n=7 alpha={alpha} beta"),
            theorem_3_5_beta(alpha),
            be,
            be <= theorem_3_5_beta(alpha) + 1e-6,
            "exact beta",
        );
        rep.push(
            format!("n=7 alpha={alpha} gamma"),
            theorem_3_5_gamma(alpha),
            ge,
            ge <= theorem_3_5_gamma(alpha) + 1e-6,
            "exact gamma",
        );
        // certified bounds on a larger instance
        let ps = generators::uniform_unit_square(150, 5);
        let net = complete_network(150);
        let r = certify(&ps, &net, alpha, &SolverConfig::bounds_only());
        rep.push(
            format!("n=150 alpha={alpha} beta_ub"),
            theorem_3_5_beta(alpha),
            r.beta_upper,
            r.beta_upper <= theorem_3_5_beta(alpha) + 1e-6,
            "certified beta upper bound",
        );
        rep.push(
            format!("n=150 alpha={alpha} gamma_ub"),
            theorem_3_5_gamma(alpha),
            r.gamma_upper,
            r.gamma_upper <= theorem_3_5_gamma(alpha) + 1e-6,
            "certified gamma upper bound",
        );
    }
    rep
}

/// Theorem 3.6/3.7: Algorithm 1's output respects the four-term bound,
/// on both branches.
fn thm_3_7() -> Report {
    let mut rep = Report::new(
        "thm_3_7",
        "Theorems 3.6/3.7: Algorithm 1 computes a (beta, beta)-network within the four-term bound",
    );
    // sparse branch: uniform random points
    for (n, alpha) in [(80usize, 1.0), (120, 3.0), (150, 8.0)] {
        let ps = generators::uniform_unit_square(n, 42 + n as u64);
        let params = corollary_3_8_params(alpha, n);
        let res = run_algorithm1(&ps, alpha, params);
        let r = certify(&ps, &res.network, alpha, &SolverConfig::bounds_only());
        let branch = format!("{:?}", res.branch);
        let measured = r.beta_upper.max(r.gamma_upper);
        // branches without a theoretical bound have no paper value
        rep.try_push(
            format!("n={n} alpha={alpha} {branch}"),
            res.beta_bound,
            Some(measured),
            res.beta_bound.is_none_or(|b| measured <= b + 1e-6),
            "max(beta_ub, gamma_ub) vs Thm 3.6 bound",
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }
    // cluster branch: one tight cluster plus outliers
    for (seed, alpha) in [(1u64, 2.0), (2, 5.0)] {
        let ps = generators::cluster_with_outliers(60, 5, 2, 0.02, 8.0, 10.0, seed);
        let params = gncg_algo::AlgorithmOneParams {
            b: 6.0,
            c: 6,
            spanner: gncg_spanner::SpannerKind::Greedy { t: 1.5 },
        };
        let res = run_algorithm1(&ps, alpha, params);
        let clustered = matches!(res.branch, gncg_algo::Branch::Cluster { .. });
        let r = certify(&ps, &res.network, alpha, &SolverConfig::bounds_only());
        let measured = r.beta_upper.max(r.gamma_upper);
        rep.try_push(
            format!("cluster seed={seed} alpha={alpha}"),
            res.beta_bound,
            Some(measured),
            clustered && res.beta_bound.is_none_or(|b| measured <= b + 1e-6),
            "cluster branch; Figure 3 left shape",
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }
    // small instance: exact beta below bound
    {
        let n = 12;
        let alpha = 1.5;
        let ps = generators::uniform_unit_square(n, 77);
        let res = run_algorithm1(&ps, alpha, corollary_3_8_params(alpha, n));
        let beta = exact::exact_beta(&ps, &res.network, alpha, &SolverConfig::default())
            .expect_exact("beta");
        let r = certify(&ps, &res.network, alpha, &SolverConfig::bounds_only());
        rep.push(
            format!("n={n} alpha={alpha} exact"),
            r.beta_upper,
            beta,
            beta <= r.beta_upper + 1e-6,
            "exact beta <= certified bound",
        );
    }
    rep
}

/// Theorem 3.9 / Corollary 3.10: MST is (n−1, n−1); best-of combination
/// stays within both candidates.
fn thm_3_9() -> Report {
    let mut rep = Report::new(
        "thm_3_9",
        "Theorem 3.9/Cor 3.10: MST is an (n-1, n-1)-network; combined picks the better construction",
    );
    for (n, alpha) in [(20usize, 1.0), (40, 100.0), (15, 1e6)] {
        let ps = generators::uniform_unit_square(n, n as u64);
        let net = mst_network(&ps);
        let r = certify(&ps, &net, alpha, &SolverConfig::bounds_only());
        let bound = theorem_3_9_bound(n);
        rep.push(
            format!("n={n} alpha={alpha}"),
            bound,
            r.beta_upper.max(r.gamma_upper),
            r.beta_upper <= bound + 1e-6 && r.gamma_upper <= bound + 1e-6,
            "MST certified (beta, gamma) <= n-1",
        );
    }
    // combined: must match the better candidate
    for alpha in [1.0, 1e4] {
        let ps = generators::uniform_unit_square(30, 9);
        let res = gncg_algo::combined::combined_network(&ps, alpha);
        rep.push(
            format!("n=30 alpha={alpha} combined={:?}", res.selected),
            res.alg1_beta_upper.min(res.mst_beta_upper),
            res.beta_upper,
            (res.beta_upper - res.alg1_beta_upper.min(res.mst_beta_upper)).abs() < 1e-9,
            "combined equals min of candidates",
        );
    }
    rep
}

/// Theorem 3.13: integer grids get (2d, 2d)-networks.
fn thm_3_13() -> Report {
    let mut rep = Report::new(
        "thm_3_13",
        "Theorem 3.13: integer grid point sets admit (2d, 2d)-networks",
    );
    let grids: Vec<(&str, Vec<usize>)> = vec![
        ("d=1 7pts", vec![6]),
        ("d=2 5x5", vec![4, 4]),
        ("d=2 7x3", vec![6, 2]),
        ("d=3 3x3x3", vec![2, 2, 2]),
    ];
    for (label, sides) in grids {
        let d = sides.len();
        let ps = generators::integer_grid(&sides);
        let net = grid_network(&ps);
        for alpha in [0.5, 2.0, 10.0] {
            let r = certify(&ps, &net, alpha, &SolverConfig::bounds_only());
            let bound = theorem_3_13_bound(d);
            rep.push(
                format!("{label} alpha={alpha}"),
                bound,
                r.beta_upper.max(r.gamma_upper),
                r.beta_upper <= bound + 1e-6 && r.gamma_upper <= bound + 1e-6,
                "grid certified (beta, gamma) <= 2d",
            );
        }
    }
    // exact beta on a tiny grid
    let ps = generators::integer_grid(&[3, 1]);
    let net = grid_network(&ps);
    let beta = exact::exact_beta(&ps, &net, 1.0, &SolverConfig::default()).expect_exact("beta");
    rep.push(
        "d=2 4x2 alpha=1 exact".into(),
        theorem_3_13_bound(2),
        beta,
        beta <= theorem_3_13_bound(2) + 1e-6,
        "exact beta",
    );
    rep
}

/// Theorem 4.4: PoS > 1 for α > 2 — the triangle optimum is not a NE,
/// and the two-edge NE is strictly more expensive than the optimum.
fn thm_4_4() -> Report {
    let mut rep = Report::new(
        "thm_4_4",
        "Theorem 4.4: PoS > 1 for alpha > 2 — the social optimum is unstable and every NE costs more",
    );
    for alpha in [4.0, 6.0, 10.0] {
        let s = instances::theorem_4_4_cluster_size(alpha);
        let (ps, opt) = instances::triangle_optimum(s, 0.0);
        let (_, two) = instances::triangle_two_edges(s, 0.0);
        let c_opt = cost::social_cost::<_, SumDistances>(&ps, &opt, alpha);
        let c_two = cost::social_cost::<_, SumDistances>(&ps, &two, alpha);
        // optimum condition: 3-edge beats 2-edge as social state
        let opt_is_social_opt = c_opt < c_two;
        // instability: the agent owning a unit edge improves by selling
        let u = 0usize;
        let now = cost::agent_cost::<_, SumDistances>(&ps, &opt, alpha, u);
        let mut sold = opt.strategy(u).clone();
        sold.remove(&s);
        let after = moves::cost_with_strategy::<_, SumDistances>(&ps, &opt, alpha, u, &sold);
        let unstable = after < now - 1e-9;
        rep.push(
            format!("alpha={alpha} n={}", 3 * s),
            1.0,
            c_two / c_opt,
            opt_is_social_opt && unstable && c_two / c_opt > 1.0,
            "SC(NE)/SC(OPT) > 1 with OPT unstable",
        );
    }
    rep
}

/// Section 5: host-network corollaries.
fn sec_5() -> Report {
    let mut rep = Report::new(
        "sec_5",
        "Corollaries 5.1-5.3: GNCG approximation on arbitrary (non-metric) hosts",
    );
    for seed in 0..3u64 {
        let h = HostNetwork::random_nonmetric(10, 0.2, 5.0, seed);
        let w = h.as_weights();
        let alpha = 2.0;
        // Cor 5.1
        let net = host_cor::shortest_path_subnetwork(&h);
        let r = certify(&w, &net, alpha, &SolverConfig::bounds_only());
        rep.push(
            format!("cor5.1 seed={seed} beta"),
            host_cor::corollary_5_1_beta(alpha),
            r.beta_upper,
            r.beta_upper <= host_cor::corollary_5_1_beta(alpha) + 1e-6,
            "shortest-path subnetwork",
        );
        rep.push(
            format!("cor5.1 seed={seed} gamma"),
            host_cor::corollary_5_1_gamma(alpha),
            r.gamma_upper,
            r.gamma_upper <= host_cor::corollary_5_1_gamma(alpha) + 1e-6,
            "shortest-path subnetwork",
        );
        // Cor 5.2
        let mstn = host_cor::host_mst_network(&h);
        let r2 = certify(&w, &mstn, alpha, &SolverConfig::bounds_only());
        rep.push(
            format!("cor5.2 seed={seed}"),
            9.0,
            r2.beta_upper.max(r2.gamma_upper),
            r2.beta_upper <= 9.0 + 1e-6 && r2.gamma_upper <= 9.0 + 1e-6,
            "host MST <= n-1",
        );
        // Cor 5.3: Algorithm 1 on H_M stays connected and certified
        let res = host_cor::algorithm1_on_host(
            &h,
            alpha,
            host_cor::HostAlgorithmParams {
                b: 1.0,
                c: 0,
                t: 1.5,
            },
        );
        let r3 = certify(&w, &res.network, alpha, &SolverConfig::bounds_only());
        rep.push(
            format!("cor5.3 seed={seed}"),
            res.t_measured,
            r3.beta_upper,
            r3.connected && r3.beta_upper.is_finite(),
            "Algorithm 1 on H_M connected + certified",
        );
    }
    rep
}

/// Theorem 5.4: PoA ≤ 2(α+1) on equilibria found by dynamics.
fn thm_5_4() -> Report {
    let mut rep = Report::new(
        "thm_5_4",
        "Theorem 5.4: GNCG PoA <= 2(alpha+1) — checked on equilibria found by best-response dynamics",
    );
    let mut found = 0;
    for seed in 0..8u64 {
        let metric = seed % 2 == 0;
        let h = if metric {
            HostNetwork::random_metric(6, seed)
        } else {
            HostNetwork::random_nonmetric(6, 0.3, 4.0, seed)
        };
        for alpha in [1.0, 3.0] {
            let probe = host_poa::probe_poa(&h, alpha, 400, &SolverConfig::default());
            if let Some(ne) = &probe.equilibrium {
                found += 1;
                let bound = host_poa::theorem_5_4_bound(alpha);
                let spanner_ok = host_poa::ne_is_alpha_plus_one_spanner(&h, ne, alpha);
                rep.push(
                    format!(
                        "seed={seed} {} alpha={alpha}",
                        if metric { "metric" } else { "nonmetric" }
                    ),
                    bound,
                    probe.ratio,
                    probe.ratio <= bound + 1e-6 && spanner_ok,
                    if probe.opt_is_exact {
                        "vs exact OPT; NE is (alpha+1)-spanner"
                    } else {
                        "vs OPT lower bound"
                    },
                );
            }
        }
    }
    if found == 0 {
        rep.push_degenerate(
            "no equilibria found".into(),
            false,
            "dynamics never converged",
        );
    }
    rep
}
