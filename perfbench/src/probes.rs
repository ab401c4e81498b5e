//! Per-layer probes: direct, individually timed calls into each layer's
//! public functions, on inputs taken from the workload being traced.
//! Every traced run calls all of them, so each per-layer time is
//! present on every workload; the workload decides which inputs each
//! layer sees.

use crate::common::{mean, median, ms, print, secs, timed, us, Outcome};
use crate::spans;
use gncg_config::ServeConfig;
use gncg_game::{approx, certify, dynamics, EvalBackend, OwnedNetwork, SolverConfig};
use gncg_geometry::PointSet;
use gncg_graph::csr::{Csr, DijkstraScratch};
use gncg_graph::delta;
use gncg_json::frame::{encode_frame, FrameReader};
use gncg_json::{canon, object, FromJson, ToJson, Value};
use gncg_serve::{JobSpec, Request, Response, ServeClient, Server};
use gncg_service::cache::ResultCache;
use gncg_service::{JobOptions, Session};
use gncg_spanner::{GridIndex, SpannerKind};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The spanner every workload's approximate path starts from.
pub const SPANNER: SpannerKind = SpannerKind::Yao { cones: 12 };
/// Grid-candidate neighbourhood of `run_approx`.
pub const PROBE_BUDGET: usize = 8;
/// Pivot rows of the bracketed certifier.
pub const PIVOTS: usize = 8;
/// Step cap of single-move dynamics jobs.
pub const DYN_STEPS: usize = 200;
/// Frame-size cap used when encoding probe frames (the server default).
const MAX_FRAME: usize = 16 << 20;

/// One probe input: a point set, a profile on it, its α, and the
/// network-construction method that produced the profile.
pub struct Inst {
    pub ps: PointSet,
    pub net: OwnedNetwork,
    pub alpha: f64,
    pub method: String,
}

/// The start profile of the approximate path: the distributed spanner.
pub fn spanner_start(ps: &PointSet) -> OwnedNetwork {
    let spanner = gncg_spanner::build(ps, SPANNER);
    OwnedNetwork::from_distributed(ps.len(), &gncg_spanner::cert::distribute(&spanner))
}

/// `run_approx` options: one full round over every agent.
pub fn approx_options(n: usize) -> approx::ApproxDynamicsOptions {
    approx::ApproxDynamicsOptions::default()
        .with_rounds(1)
        .with_probe_budget(PROBE_BUDGET)
        .with_agent_probes(n)
}

/// Bracketed certification through the spanner backend.
pub fn approx_config() -> SolverConfig {
    SolverConfig::default().with_backend(EvalBackend::Spanner {
        kind: SPANNER,
        pivots: PIVOTS,
    })
}

/// Up to `k` agents spread evenly over `0..n`.
fn sample_agents(n: usize, k: usize) -> Vec<usize> {
    let step = (n / k.max(1)).max(1);
    (0..n).step_by(step).take(k).collect()
}

/// `gncg-graph` and `gncg-game::network`: full rows, single-edge drop
/// and add probes (the what-if kernel `run_approx` costs every move
/// with), the per-move rebuild (`net.graph` + `refill_from_graph`), and
/// APSP.
pub fn graph_layer(out: &mut Outcome, insts: &[(&PointSet, &OwnedNetwork)], rounds: usize) {
    let _s = spans::span("probe.graph");
    let (mut rows, mut drops, mut adds) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rebuild_graph, mut refill, mut apsp) = (Vec::new(), Vec::new(), Vec::new());
    let mut scratch = DijkstraScratch::default();
    for &(ps, net) in insts {
        let n = ps.len();
        let g = net.graph(ps);
        let csr = Csr::from_graph(&g);
        let index = GridIndex::with_auto_cell(ps);
        let mut row = vec![0.0; n];
        let mut what_if = vec![0.0; n];
        for _ in 0..rounds {
            for u in sample_agents(n, 64) {
                rows.push(timed(|| csr.dijkstra_into_slice(u, &mut row, &mut scratch)).1);
                if let Some(&v) = net.strategy(u).iter().find(|&&v| !net.owns(v, u)) {
                    drops.push(
                        timed(|| delta::dijkstra_modified(&csr, u, &mut what_if, &[(u, v)], &[])).1,
                    );
                }
                let target = index
                    .nearest_k(ps, u, PROBE_BUDGET)
                    .into_iter()
                    .find(|&v| v != u && !g.has_edge(u, v));
                if let Some(v) = target {
                    let w = ps.dist(u, v);
                    adds.push(
                        timed(|| {
                            delta::dijkstra_modified(&csr, u, &mut what_if, &[], &[(u, v, w)])
                        })
                        .1,
                    );
                }
            }
            rebuild_graph.push(timed(|| std::hint::black_box(net.graph(ps))).1);
            let mut target = Csr::from_graph(&g);
            refill.push(timed(|| target.refill_from_graph(&g)).1);
            apsp.push(timed(|| std::hint::black_box(gncg_graph::apsp::all_pairs(&g))).1);
        }
    }
    out.set("graph.row_us", us(median(&rows)));
    out.set("graph.drop_probe_us", us(median(&drops)));
    out.set("graph.add_probe_us", us(median(&adds)));
    out.set("graph.csr_refill_ms", ms(median(&refill)));
    out.set("graph.apsp_ms", ms(median(&apsp)));
    out.set("network.graph_ms", ms(median(&rebuild_graph)));
}

/// `gncg-spanner`: spanner build, grid index build, nearest-k queries.
pub fn spanner_layer(out: &mut Outcome, sets: &[&PointSet], rounds: usize) {
    let _s = spans::span("probe.spanner");
    let (mut build, mut index, mut nearest) = (Vec::new(), Vec::new(), Vec::new());
    for &ps in sets {
        for _ in 0..rounds {
            build.push(timed(|| std::hint::black_box(gncg_spanner::build(ps, SPANNER))).1);
            let (idx, t) = timed(|| GridIndex::with_auto_cell(ps));
            index.push(t);
            for u in sample_agents(ps.len(), 64) {
                nearest.push(timed(|| std::hint::black_box(idx.nearest_k(ps, u, PROBE_BUDGET))).1);
            }
        }
    }
    out.set("spanner.build_s", median(&build));
    out.set("spanner.index_ms", ms(median(&index)));
    out.set("spanner.nearest_k_us", us(median(&nearest)));
}

/// `gncg-game::approx` on a workload that does not call it: the two
/// public calls on the workload's own point sets, from the spanner
/// start profile.
pub fn approx_layer(out: &mut Outcome, sets: &[&PointSet]) {
    let _s = spans::span("probe.approx");
    let (mut run, mut cert) = (Vec::new(), Vec::new());
    for &ps in sets {
        let mut net = spanner_start(ps);
        let index = GridIndex::with_auto_cell(ps);
        run.push(
            timed(|| approx::run_approx(ps, &mut net, 1.0, &index, approx_options(ps.len()))).1,
        );
        cert.push(timed(|| approx::certify_approx(ps, &net, 1.0, &approx_config())).1);
    }
    out.set("approx.run_s", median(&run));
    out.set("approx.certify_s", median(&cert));
}

/// `gncg-algo` and the `gncg-game` engines: network construction,
/// exact certification of `small`, polynomial certification of
/// `bounds` under the workload's own config, single-move dynamics.
pub fn game_layer(out: &mut Outcome, small: &[Inst], bounds: &[Inst], bounds_cfg: &SolverConfig) {
    let _s = spans::span("probe.game");
    let build: Vec<f64> = small
        .iter()
        .chain(bounds)
        .map(|i| timed(|| gncg_sweep::engine::build_network(&i.method, &i.ps, i.alpha)).1)
        .collect();
    let exact: Vec<f64> = small
        .iter()
        .map(|i| timed(|| certify::certify(&i.ps, &i.net, i.alpha, &SolverConfig::exact())).1)
        .collect();
    let bounds_t: Vec<f64> = bounds
        .iter()
        .map(|i| timed(|| certify::certify(&i.ps, &i.net, i.alpha, bounds_cfg)).1)
        .collect();
    let dynamics_t: Vec<f64> = small
        .iter()
        .map(|i| timed(|| dynamics_direct(&i.ps, i.alpha)).1)
        .collect();
    out.set("algo.build_ms", ms(median(&build)));
    out.set("certify.exact_ms", ms(median(&exact)));
    out.set("certify.bounds_ms", ms(median(&bounds_t)));
    out.set("dynamics.run_ms", ms(median(&dynamics_t)));
}

/// The direct call a serve dynamics job makes: single-move dynamics
/// from the center star at agent 0.
pub fn dynamics_direct(ps: &PointSet, alpha: f64) -> dynamics::Outcome {
    dynamics::run_spec(
        ps,
        &OwnedNetwork::center_star(ps.len(), 0),
        alpha,
        dynamics::ResponseRule::BestSingleMove,
        dynamics::AgentOrder::RoundRobin,
        DYN_STEPS,
        &SolverConfig::default(),
    )
}

/// `gncg-service`: submit→wait of a trivial job, and Session certify
/// latency minus the direct certify time on the same input. Also checks
/// the Session result is bit-identical to the direct call.
pub fn service_layer(out: &mut Outcome, session: &Session, bounds: &[Inst]) {
    let _s = spans::span("probe.service");
    let dispatch: Vec<f64> = (0..200u64)
        .map(|i| {
            timed(|| {
                session
                    .submit_sweep(JobOptions::default(), move |_| std::hint::black_box(i))
                    .expect("trivial job admitted")
                    .wait()
                    .expect("trivial job completes")
            })
            .1
        })
        .collect();
    let mut overhead = Vec::new();
    let mut identical = Ok(());
    for i in bounds.iter().take(8) {
        let cfg = SolverConfig::bounds_only();
        let mut direct = Vec::new();
        let mut via = Vec::new();
        for _ in 0..3 {
            let (d, t) = timed(|| certify::certify(&i.ps, &i.net, i.alpha, &cfg));
            direct.push(t);
            let t = Instant::now();
            let s = session
                .submit_certify(
                    Arc::new(i.ps.clone()),
                    i.net.clone(),
                    i.alpha,
                    cfg.clone(),
                    JobOptions::default(),
                )
                .map_err(|e| e.to_string())
                .and_then(|h| h.wait().map_err(|e| e.to_string()));
            via.push(secs(t));
            match s {
                Ok(s) if print(&s.to_json()) == print(&d.to_json()) => {}
                Ok(_) => identical = Err("session certify differs from direct call".to_string()),
                Err(e) => identical = Err(e),
            }
        }
        overhead.push(median(&via) - median(&direct));
    }
    out.check("service probe bit-identity", identical);
    out.set("service.dispatch_us", us(median(&dispatch)));
    out.set("service.overhead_ms", ms(median(&overhead)));
}

/// The result cache: put and verified get of the workload's own result
/// payloads, in a scratch cache directory. Checks every get returns the
/// bytes that were put. Reported as means per entry, not medians: entry
/// sizes are bimodal (a sweep's network entries carry the whole distance
/// matrix), and the large entries are where the time goes.
pub fn cache_layer(out: &mut Outcome, dir: &Path, payloads: &[Value]) {
    let _s = spans::span("probe.cache");
    let cache = ResultCache::at(dir).expect("probe cache dir");
    let (mut put, mut get) = (Vec::new(), Vec::new());
    let mut ok = Ok(());
    for (i, payload) in payloads
        .iter()
        .cycle()
        .take(64.max(payloads.len()))
        .enumerate()
    {
        let key = canon::content_key(&object(vec![
            ("probe", Value::Number(i as f64)),
            ("payload", payload.clone()),
        ]));
        let (r, t) = timed(|| cache.put(&key, payload));
        put.push(t);
        if let Err(e) = r {
            ok = Err(e.to_string());
        }
        let (back, t) = timed(|| cache.get(&key));
        get.push(t);
        // entries are stored canonically (sorted keys)
        if back.map(|b| canon::canonical_string(&b)) != Some(canon::canonical_string(payload)) {
            ok = Err(format!("cache entry {i} did not read back"));
        }
    }
    out.check("cache probe read-back", ok);
    out.set("cache.put_us", us(mean(&put)));
    out.set("cache.get_us", us(mean(&get)));
}

/// The wire (`gncg-serve` + `gncg-json` frames): encode and decode of
/// each job's request and result frames, their size, and the ping round
/// trip against `server` (a probe server is bound when the workload has
/// none).
pub fn wire_layer(out: &mut Outcome, server: Option<&Server>, jobs: &[(JobSpec, Value)]) {
    let _s = spans::span("probe.wire");
    let (mut enc, mut dec, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mut ok = Ok(());
    for (req, (spec, payload)) in jobs.iter().enumerate() {
        let req = req as u64;
        let ((request, result), t) = timed(|| {
            let request = Request::Submit {
                req,
                idem: format!("probe-{req}"),
                spec: spec.clone(),
            };
            let result = Response::Result {
                req,
                outcome: Ok(payload.clone()),
            };
            (
                encode_frame(&request.to_json(), MAX_FRAME).expect("request frame fits"),
                encode_frame(&result.to_json(), MAX_FRAME).expect("result frame fits"),
            )
        });
        enc.push(t);
        bytes.push((request.len() + result.len()) as f64);
        let ((spec_back, payload_back), t) = timed(|| {
            let mut reader = FrameReader::new(MAX_FRAME);
            let spec_back = reader
                .read_frame(&mut request.as_slice())
                .ok()
                .and_then(|v| Request::from_json(&v).ok());
            let mut reader = FrameReader::new(MAX_FRAME);
            let payload_back = reader
                .read_frame(&mut result.as_slice())
                .ok()
                .and_then(|v| Response::from_json(&v).ok());
            (spec_back, payload_back)
        });
        dec.push(t);
        let round_trips = matches!(spec_back, Some(Request::Submit { spec: ref s, .. }) if s == spec)
            && matches!(payload_back, Some(Response::Result { outcome: Ok(ref p), .. }) if print(p) == print(payload));
        if !round_trips {
            ok = Err(format!("job {req} did not survive a frame round trip"));
        }
    }
    out.check("wire probe round trip", ok);

    let own;
    let server = match server {
        Some(s) => s,
        None => {
            own = bind_server(1).expect("bind probe server");
            &own
        }
    };
    let mut client = ServeClient::new(server.local_addr().to_string(), "probe");
    let _ = client.ping(); // connect + handshake outside the samples
    let ping: Vec<f64> = (0..200)
        .map(|_| timed(|| client.ping().expect("ping")).1)
        .collect();
    out.set("wire.encode_us", us(median(&enc)));
    out.set("wire.decode_us", us(median(&dec)));
    out.set("wire.bytes_per_job", median(&bytes));
    out.set("wire.ping_us", us(median(&ping)));
}

/// Certify jobs as the wire carries them, each with the payload the
/// direct call produces (the server's certify path for `exact: false`).
pub fn certify_jobs(insts: &[Inst]) -> Vec<(JobSpec, Value)> {
    insts
        .iter()
        .map(|i| {
            let spec = JobSpec::Certify {
                points: i.ps.clone(),
                network: i.net.clone(),
                alpha: i.alpha,
                exact: false,
                model: gncg_game::ModelKind::SumDistances,
                budget_ms: None,
            };
            let payload = certify::certify(&i.ps, &i.net, i.alpha, &SolverConfig::default());
            (spec, payload.to_json())
        })
        .collect()
}

/// A `gncg-serve` server on an ephemeral loopback port.
pub fn bind_server(threads: usize) -> std::io::Result<Server> {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    Server::bind(Session::builder().threads(threads).build(), &cfg)
}

/// Fold a counter delta from the solver crates' trace layer into the
/// shared per-layer count metrics.
pub fn counters(out: &mut Outcome, delta: &[u64; gncg_trace::NUM_COUNTERS]) {
    use gncg_trace::Counter as C;
    let c = |k: C| delta[k as usize] as f64;
    out.set("graph.relaxations", c(C::DijkstraRelaxations));
    out.set("graph.heap_pops", c(C::DijkstraHeapPops));
    out.set("game.best_response_evals", c(C::BestResponseEvals));
    out.set("game.moves_evaluated", c(C::MovesEvaluated));
    out.set("game.moves_pruned", c(C::MovesPruned));
    let tried = c(C::MovesPruned) + c(C::MovesEvaluated);
    out.set(
        "game.prune_ratio",
        if tried > 0.0 {
            c(C::MovesPruned) / tried
        } else {
            0.0
        },
    );
    out.set("game.row_invalidations", c(C::RowInvalidations));
    out.set("cache.hits", c(C::CacheHits));
    out.set("cache.misses", c(C::CacheMisses));
    let lookups = c(C::CacheHits) + c(C::CacheMisses);
    out.set(
        "cache.hit_ratio",
        if lookups > 0.0 {
            c(C::CacheHits) / lookups
        } else {
            0.0
        },
    );
    out.set("serve.frames_rx", c(C::ServeFramesRx));
    out.set("serve.frames_tx", c(C::ServeFramesTx));
    out.set("serve.retries", c(C::ServeRetries));
    out.set("serve.rejected", c(C::ServeRejected));
}

/// The deterministic counters of a delta, for repeat checks.
pub fn deterministic(delta: &[u64; gncg_trace::NUM_COUNTERS]) -> Vec<u64> {
    gncg_trace::DETERMINISTIC_COUNTERS
        .iter()
        .map(|&c| delta[c as usize])
        .collect()
}

/// Check two deterministic-counter vectors agree exactly.
pub fn same_counters(a: &[u64], b: &[u64]) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("deterministic counters differ: {a:?} vs {b:?}"))
    }
}

/// Snapshot, run, and return the counter delta alongside the result.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, [u64; gncg_trace::NUM_COUNTERS]) {
    let before = gncg_trace::snapshot();
    let out = f();
    (out, gncg_trace::snapshot().counters_since(&before))
}

/// Sum of two counter deltas.
pub fn add(a: &mut [u64; gncg_trace::NUM_COUNTERS], b: &[u64; gncg_trace::NUM_COUNTERS]) {
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
}
