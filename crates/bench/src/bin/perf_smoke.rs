//! Pinned observability smoke sweep for `tools/perf_gate.sh`.
//!
//! Runs a fixed, fully deterministic workload through the instrumented
//! stack with tracing force-enabled and saves a report whose
//! `trace.counters` section the perf gate compares against a committed
//! baseline:
//!
//! - the *deterministic* counters (Dijkstra relaxations/heap pops,
//!   best-response evaluations, row invalidations, candidate tallies)
//!   must match the baseline **exactly** — they depend only on the
//!   workload, not on thread count or scheduling;
//! - per-stage wall times are reported **raw** (seconds in the
//!   `measured` column) alongside the wall time of an in-process
//!   pure-CPU calibration loop (the top-level `calibration_secs`
//!   field). The gate — not this binary — divides each stage by its
//!   file's own calibration constant, which makes the cross-machine
//!   normalization explicit and auditable in both the baseline and the
//!   current run before `GNCG_PERF_RATIO` (default 1.5×) is applied.
//!
//! Two tiers share the binary:
//!
//! * no argument — the historical exact-solver sweep (`perf_smoke` →
//!   `perf_smoke.json`, gated against `results/PERF_BASELINE.json`).
//!   Its stages, seeds and counters are frozen: refreshing tooling must
//!   never shift them;
//! * `large` — the spanner-backed large-n envelope (`perf_smoke_large`
//!   → `perf_smoke_large.json`, gated against
//!   `results/PERF_BASELINE_LARGE.json`): grid-candidate improving-move
//!   dynamics plus β/γ certification ([`approx::certify_approx`]: the
//!   exact certifier's rows up to n = 4096, the metric floor and 8
//!   pivot rows above) at n ∈ {1024, 4096, 10000}. The n = 10⁴ stage must finish well
//!   under 60 s single-threaded. Each stage row also carries its own
//!   deterministic counter delta (`counters`), so the gate can say
//!   which stage moved; the exact gate compares the merged totals.

use gncg_game::approx::{self, run_approx, ApproxDynamicsOptions};
use gncg_game::certify::certify;
use gncg_game::{best_response, dynamics, OwnedNetwork, SolverConfig};
use gncg_geometry::{generators, PointSet};
use gncg_service::{JobOptions, Session};
use gncg_spanner::{GridIndex, SpannerKind};
use gncg_sweep::Report;
use gncg_trace::{COUNTER_NAMES, DETERMINISTIC_COUNTERS};
use std::time::Instant;

/// Timed 512-job batches behind the legacy dispatch row (odd, so the
/// median is one batch).
const DISPATCH_BATCHES: usize = 15;

/// Timed runs behind the legacy best-response and certify rows (odd, so
/// the median is one run).
const STAGE_RUNS: usize = 5;

/// Median wall seconds of [`STAGE_RUNS`] runs of `f`. Only the first
/// run is traced, so the stage adds its deterministic counters exactly
/// once, as a single run would.
fn median_run_secs(mut f: impl FnMut()) -> f64 {
    let mut secs: Vec<f64> = (0..STAGE_RUNS)
        .map(|run| {
            gncg_trace::set_enabled(run == 0);
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    gncg_trace::set_enabled(true);
    secs.sort_by(f64::total_cmp);
    secs[STAGE_RUNS / 2]
}

/// Fixed-size pure-CPU loop; its wall time is the unit every stage's
/// time is expressed in.
fn calibration_secs() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut acc = 0u64;
    for _ in 0..150_000_000_u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        acc ^= x >> 33;
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// One large-tier stage: build the stage spanner, adopt its
/// distributed profile as the start network, run grid-candidate
/// improving-move dynamics, then certify a β/γ bracket on the final
/// profile. Everything inside is deterministic — the
/// candidate tallies and Dijkstra counters it adds are gated exactly,
/// and the row records them as its own ledger.
fn large_stage(
    report: &mut Report,
    name: &str,
    ps: &PointSet,
    kind: SpannerKind,
    alpha: f64,
    dynamics_opts: ApproxDynamicsOptions,
) {
    let n = ps.len();
    let before = gncg_trace::snapshot();
    let t0 = Instant::now();
    let spanner = gncg_spanner::build(ps, kind);
    let mut net = OwnedNetwork::from_distributed(n, &gncg_spanner::cert::distribute(&spanner));
    let index = GridIndex::with_auto_cell(ps);
    let out = run_approx(ps, &mut net, alpha, &index, dynamics_opts);
    std::hint::black_box(out.moves_accepted);
    let bracket = approx::certify_approx(ps, &net, alpha, &SolverConfig::default());
    assert!(
        bracket.beta_lo <= bracket.beta_hi && bracket.gamma_lo <= bracket.gamma_hi,
        "{name}: certified bracket inverted"
    );
    std::hint::black_box(bracket.beta_hi);
    let secs = t0.elapsed().as_secs_f64();
    let delta = gncg_trace::snapshot().counters_since(&before);
    report.push_unreferenced(
        name.into(),
        secs,
        true,
        "raw wall seconds; normalize by calibration_secs",
    );
    let row = report
        .rows
        .last_mut()
        .expect("the stage row was just pushed");
    row.counters = DETERMINISTIC_COUNTERS
        .iter()
        .map(|&c| (COUNTER_NAMES[c as usize].into(), delta[c as usize]))
        .collect();
}

/// The `large` tier: the spanner-backed envelope at n up to 10⁴.
fn large_tier() {
    gncg_trace::set_enabled(true);
    gncg_trace::reset();

    let calib = calibration_secs();
    let mut report = Report::new(
        "perf_smoke_large",
        "large-n perf-gate sweep: spanner-backed dynamics + bracketed certification, \
         deterministic counters and raw stage times with a recorded calibration constant",
    );
    report.set_calibration(calib);

    // stage 1: Θ-graph start, full two-sweep dynamics
    let ps = generators::uniform_unit_square(1024, 21);
    large_stage(
        &mut report,
        "approx dynamics+certify n=1024 theta",
        &ps,
        SpannerKind::Theta { cones: 12 },
        1.0,
        ApproxDynamicsOptions::default()
            .with_rounds(2)
            .with_probe_budget(8),
    );

    // stage 2: Yao-graph start, probe cap sized for the tier budget
    let ps = generators::uniform_unit_square(4096, 22);
    large_stage(
        &mut report,
        "approx dynamics+certify n=4096 yao",
        &ps,
        SpannerKind::Yao { cones: 12 },
        1.0,
        ApproxDynamicsOptions::default()
            .with_rounds(1)
            .with_probe_budget(8)
            .with_agent_probes(4096),
    );

    // stage 3: the headline envelope — the 100×100 integer grid
    // (Theorem 3.13 geometry), grid spanner start (√d stretch), capped
    // probes to hold the stage well under
    // the 60 s single-threaded ceiling
    let ps = generators::integer_grid(&[99, 99]);
    large_stage(
        &mut report,
        "approx dynamics+certify n=10000 grid",
        &ps,
        SpannerKind::Grid,
        1.0,
        ApproxDynamicsOptions::default()
            .with_rounds(1)
            .with_probe_budget(8)
            .with_agent_probes(2000),
    );

    report.print();
    match report.save() {
        Ok(path) => println!("saved {}", path.display()),
        Err(e) => {
            eprintln!("perf_smoke: save failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        None => legacy_tier(),
        Some("large") => large_tier(),
        Some(other) => {
            eprintln!("perf_smoke: unknown tier {other:?} (expected no argument or `large`)");
            std::process::exit(2);
        }
    }
}

/// The historical exact-solver sweep. Frozen: stages, seeds and the six
/// legacy deterministic counters must reproduce bit-for-bit.
fn legacy_tier() {
    // the smoke sweep is trace-centric: force the gate on so the saved
    // report always carries the counter snapshot the perf gate reads
    gncg_trace::set_enabled(true);
    gncg_trace::reset();

    let calib = calibration_secs();
    let mut report = Report::new(
        "perf_smoke",
        "perf-gate smoke sweep: deterministic work counters and raw stage times \
         with a recorded calibration constant",
    );
    report.set_calibration(calib);

    // stage 1: parallel APSP over the complete created network
    let ps = generators::uniform_unit_square(160, 11);
    let g = OwnedNetwork::complete(160).graph(&ps);
    let t0 = Instant::now();
    let m = gncg_graph::apsp::all_pairs(&g);
    std::hint::black_box(m.row(0)[159]);
    let apsp_s = t0.elapsed().as_secs_f64();
    report.push_unreferenced(
        "apsp complete n=160".into(),
        apsp_s,
        true,
        "raw wall seconds; normalize by calibration_secs",
    );

    // stage 2: improving-response dynamics (single-move rule)
    let ps = generators::uniform_unit_square(48, 5);
    let start = OwnedNetwork::center_star(48, 0);
    let t0 = Instant::now();
    let out = dynamics::run_spec(
        &ps,
        &start,
        1.0,
        dynamics::ResponseRule::BestSingleMove,
        dynamics::AgentOrder::RoundRobin,
        4000,
        &SolverConfig::default(),
    );
    std::hint::black_box(matches!(out, dynamics::Outcome::Converged { .. }));
    let dyn_s = t0.elapsed().as_secs_f64();
    report.push_unreferenced(
        "single-move dynamics n=48".into(),
        dyn_s,
        true,
        "raw wall seconds; normalize by calibration_secs",
    );

    // stage 3: exact best-response enumeration (2^17 strategy evals);
    // one run of stage 3 or 4 is too noisy to gate on, so each row is
    // the median of STAGE_RUNS runs
    let ps = generators::uniform_unit_square(18, 3);
    let net = OwnedNetwork::center_star(18, 0);
    let br_s = median_run_secs(|| {
        let br = best_response::exact_best_response(&ps, &net, 1.0, 1, &SolverConfig::default())
            .expect_exact("best response");
        std::hint::black_box(br.cost);
    });
    report.push_unreferenced(
        "exact best response n=18".into(),
        br_s,
        true,
        "raw wall seconds; normalize by calibration_secs",
    );

    // stage 4: certified bounds + witness probing
    let ps = generators::uniform_unit_square(96, 2);
    let net = OwnedNetwork::center_star(96, 0);
    let cert_s = median_run_secs(|| {
        let r = certify(&ps, &net, 2.0, &SolverConfig::default());
        std::hint::black_box(r.beta_upper);
    });
    report.push_unreferenced(
        "certify bounds n=96".into(),
        cert_s,
        true,
        "raw wall seconds; normalize by calibration_secs",
    );

    // stage 5: job-service dispatch overhead — 512 near-empty sweep jobs
    // through a Session. The jobs do a fixed trivial spin and touch none
    // of the deterministic counters, so the stage isolates admission +
    // queueing + handle-resolution cost per job. The batch lane must
    // hold all 512 jobs at once: this stage measures dispatch, not
    // admission-control rejections. One batch takes well under a
    // millisecond, too short to time against a 1.5× gate, so the row is
    // the median of DISPATCH_BATCHES timed batches.
    let session = Session::builder().queue_capacity(4, 512).build();
    let mut batch_s: Vec<f64> = (0..DISPATCH_BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            let mut handles = Vec::with_capacity(512);
            for i in 0..512u64 {
                handles.push(
                    session
                        .submit_sweep(JobOptions::default(), move |_ctx| {
                            let mut x = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                            for _ in 0..64 {
                                x = x
                                    .wrapping_mul(6364136223846793005)
                                    .wrapping_add(1442695040888963407);
                            }
                            std::hint::black_box(x)
                        })
                        .expect("perf_smoke service job admitted"),
                );
            }
            for h in handles {
                h.wait().expect("perf_smoke service job completed");
            }
            session.wait_idle();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    batch_s.sort_by(f64::total_cmp);
    report.push_unreferenced(
        "service dispatch x512".into(),
        batch_s[DISPATCH_BATCHES / 2],
        true,
        "raw wall seconds; normalize by calibration_secs",
    );

    report.print();
    match report.save() {
        Ok(path) => println!("saved {}", path.display()),
        Err(e) => {
            eprintln!("perf_smoke: save failed: {e}");
            std::process::exit(1);
        }
    }
}
