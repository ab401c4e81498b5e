//! `approx_large`: the large-n approximate pipeline. Uniform points, the
//! Yao-graph start profile, one round of `run_approx` over every agent,
//! then `certify_approx` through the spanner backend (union-row lo
//! side). Drop probes and the per-move `net.graph` + `refill_from_graph`
//! rebuilds dominate, as at the n = 4096 perf stage; the cache, the
//! service, the wire and `EvalContext` are never touched.

use crate::common::{median, ms, secs, set_tracing, timed, Outcome, Run, SeedFork};
use crate::probes::{self, Inst};
use crate::spans;
use gncg_game::approx::{self, ApproxCertifyReport, ApproxDynamicsResult};
use gncg_game::{certify, OwnedNetwork, SolverConfig};
use gncg_geometry::{generators, PointSet};
use gncg_json::{object, ToJson, Value};
use gncg_service::Session;
use gncg_spanner::GridIndex;
use gncg_trace::Counter;
use std::time::Instant;

const ALPHA: f64 = 1.0;

struct Sizes {
    /// Agents per pipeline instance.
    n: usize,
    /// Agents of the untimed warm-up instance.
    warmup: usize,
    /// Agents of the slices whose brackets are checked against the
    /// exact certifier (exact γ needs n ≤ 7).
    slices: [usize; 2],
}

impl Sizes {
    fn of(tiny: bool) -> Self {
        if tiny {
            Self {
                n: 64,
                warmup: 32,
                slices: [5, 7],
            }
        } else {
            Self {
                n: 512,
                warmup: 128,
                slices: [7, 10],
            }
        }
    }
}

/// Set-up output: the inputs of one pipeline run.
struct Instance {
    ps: PointSet,
    start: OwnedNetwork,
    index: GridIndex,
}

impl Instance {
    fn new(n: usize, seed: u64) -> Self {
        let ps = generators::uniform_unit_square(n, seed);
        let start = probes::spanner_start(&ps);
        let index = GridIndex::with_auto_cell(&ps);
        Self { ps, start, index }
    }
}

struct Pipeline {
    dynamics_s: f64,
    certify_s: f64,
    dynamics: ApproxDynamicsResult,
    /// Counter delta of the `run_approx` call alone.
    dynamics_counters: [u64; gncg_trace::NUM_COUNTERS],
    bracket: ApproxCertifyReport,
    net: OwnedNetwork,
}

fn pipeline(inst: &Instance) -> Pipeline {
    let _s = spans::span("approx.pipeline");
    let mut net = inst.start.clone();
    let t = Instant::now();
    let (dynamics, dynamics_counters) = probes::counted(|| {
        let _s = spans::span("approx.run_approx");
        approx::run_approx(
            &inst.ps,
            &mut net,
            ALPHA,
            &inst.index,
            probes::approx_options(inst.ps.len()),
        )
    });
    let dynamics_s = secs(t);
    let (bracket, certify_s) = timed(|| {
        let _s = spans::span("approx.certify_approx");
        approx::certify_approx(&inst.ps, &net, ALPHA, &probes::approx_config())
    });
    Pipeline {
        dynamics_s,
        certify_s,
        dynamics,
        dynamics_counters,
        bracket,
        net,
    }
}

fn ordered(b: &ApproxCertifyReport) -> Result<(), String> {
    let finite = [b.beta_lo, b.beta_hi, b.gamma_lo, b.gamma_hi]
        .iter()
        .all(|x| x.is_finite());
    if finite && b.connected && b.beta_lo <= b.beta_hi && b.gamma_lo <= b.gamma_hi {
        Ok(())
    } else {
        Err(format!(
            "bracket not ordered: {}",
            crate::common::print(&b.to_json())
        ))
    }
}

/// A small slice built exactly like the large instances: its brackets
/// must contain the exact certifier's figures.
fn slice(n: usize, seed: u64) -> (Inst, Result<(), String>) {
    let inst = Instance::new(n, seed);
    let p = pipeline(&inst);
    let exact = certify::certify(&inst.ps, &p.net, ALPHA, &SolverConfig::exact());
    let b = &p.bracket;
    let inside = |lo: f64, x: f64, hi: f64| lo <= x && x <= hi;
    let verdict = ordered(b).and_then(|()| {
        let ok = inside(b.beta_lo, exact.beta_upper, b.beta_hi)
            && inside(b.gamma_lo, exact.gamma_upper, b.gamma_hi)
            && exact.beta_exact.is_some_and(|x| x <= b.beta_hi)
            && exact.gamma_exact.is_none_or(|x| x <= b.gamma_hi);
        if ok {
            Ok(())
        } else {
            Err(format!("n={n}: bracket misses the exact certifier's β/γ"))
        }
    });
    let inst = Inst {
        ps: inst.ps,
        net: p.net,
        alpha: ALPHA,
        method: "combined".to_string(),
    };
    (inst, verdict)
}

fn check_slices(out: &mut Outcome, sz: &Sizes, seeds: &mut SeedFork) -> Vec<Inst> {
    sz.slices
        .iter()
        .map(|&n| {
            let (inst, verdict) = slice(n, seeds.next());
            out.check("approx slice containment", verdict);
            inst
        })
        .collect()
}

fn warm_up(sz: &Sizes, seeds: &mut SeedFork) {
    std::hint::black_box(pipeline(&Instance::new(sz.warmup, seeds.next())).dynamics_s);
}

/// End-to-end run: fresh instances until `--seconds` is spent.
pub fn measure(run: &Run, out: &mut Outcome) {
    let sz = Sizes::of(run.tiny);
    let mut seeds = SeedFork::new(run.seed);
    warm_up(&sz, &mut seeds);
    let (mut setup, mut dynamics, mut certify) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    while dynamics.is_empty() || secs(t0) < run.seconds {
        let (inst, t) = timed(|| Instance::new(sz.n, seeds.next()));
        setup.push(t);
        let p = pipeline(&inst);
        out.check("approx pipeline", ordered(&p.bracket));
        dynamics.push(p.dynamics_s);
        certify.push(p.certify_s);
    }
    check_slices(out, &sz, &mut seeds);

    out.set("setup_s", median(&setup));
    out.set("phase_a_ms", ms(median(&dynamics)));
    out.set("phase_b_ms", ms(median(&certify)));
    let pipeline_s: Vec<f64> = dynamics.iter().zip(&certify).map(|(d, c)| d + c).collect();
    out.set("ops_per_s", 1.0 / median(&pipeline_s));
    out.ctx(
        "figures",
        object(vec![
            ("dynamics_s", Value::Number(median(&dynamics))),
            ("certify_s", Value::Number(median(&certify))),
        ]),
    );
    out.ctx(
        "samples",
        object(vec![
            ("pipelines", dynamics.len().to_json()),
            ("dynamics_s", dynamics.to_json()),
            ("setup_s", setup.to_json()),
        ]),
    );
}

/// Traced run: one instance untraced, then traced twice (the counters
/// must repeat exactly), then the layer probes on the same inputs.
pub fn trace(run: &Run, out: &mut Outcome) {
    let sz = Sizes::of(run.tiny);
    let mut seeds = SeedFork::new(run.seed);
    warm_up(&sz, &mut seeds);
    let inst = Instance::new(sz.n, seeds.next());
    let (_, off) = timed(|| pipeline(&inst));

    set_tracing(true);
    let ((p, delta), on) = timed(|| probes::counted(|| pipeline(&inst)));
    out.check("approx pipeline", ordered(&p.bracket));
    let (again, delta_again) = probes::counted(|| pipeline(&inst));
    out.check(
        "approx counters repeat",
        probes::same_counters(
            &probes::deterministic(&delta),
            &probes::deterministic(&delta_again),
        )
        .and_then(|()| {
            if again.net == p.net && again.bracket == p.bracket {
                Ok(())
            } else {
                Err("repeated pipeline produced a different network or bracket".into())
            }
        }),
    );
    probes::counters(out, &delta);
    out.ctx(
        "deterministic_counters",
        probes::deterministic(&delta).to_json(),
    );
    let c = |k: Counter| p.dynamics_counters[k as usize] as f64;
    out.set("approx.run_s", p.dynamics_s);
    out.set("approx.certify_s", p.certify_s);
    out.set("approx.agents_probed", p.dynamics.agents_probed as f64);
    out.set("approx.moves_accepted", p.dynamics.moves_accepted as f64);
    out.set("approx.evals", c(Counter::BestResponseEvals));
    out.set("approx.candidates", c(Counter::CandidatesGenerated));
    out.set("trace.overhead_ratio", on / off);

    // layer probes: solver counters off, benchmark spans on
    gncg_trace::set_enabled(false);
    let slices = check_slices(out, &sz, &mut seeds);
    probes::graph_layer(out, &[(&inst.ps, &inst.start)], 3);
    probes::spanner_layer(out, &[&inst.ps], 3);
    probes::game_layer(out, &slices, &slices, &SolverConfig::default());
    let session = Session::builder().threads(run.threads).build();
    probes::service_layer(out, &session, &slices);
    probes::cache_layer(out, &run.tmp.join("probe_cache"), &[p.bracket.to_json()]);
    probes::wire_layer(out, None, &probes::certify_jobs(&slices));

    // how much of run_approx the drop probes and rebuilds explain
    let explained = out.get("approx.evals") * out.get("graph.drop_probe_us") / 1e6
        + out.get("approx.moves_accepted")
            * (out.get("network.graph_ms") + out.get("graph.csr_refill_ms"))
            / 1e3;
    let unexplained = p.dynamics_s - explained;
    out.set("approx.unexplained_share", unexplained / p.dynamics_s);
    let line = format!(
        "approx.run_s {:.3} s; approx.evals {} x graph.drop_probe_us {:.1} + approx.moves_accepted {} x \
         (network.graph_ms {:.3} + graph.csr_refill_ms {:.3}) = {:.3} s explained, {:.3} s ({:.1}%) not",
        p.dynamics_s,
        out.get("approx.evals"),
        out.get("graph.drop_probe_us"),
        out.get("approx.moves_accepted"),
        out.get("network.graph_ms"),
        out.get("graph.csr_refill_ms"),
        explained,
        unexplained,
        100.0 * unexplained / p.dynamics_s
    );
    eprintln!("{line}");
    out.ctx("attribution", Value::String(line));
}
