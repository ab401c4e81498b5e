//! `serve_mixed`: an in-process `gncg-serve` server on loopback, driven
//! by two `ServeClient` threads in a closed loop (each sends its next
//! job only after the previous result arrived). Each client runs a
//! seeded mix of small bounds certify jobs and single-move dynamics
//! jobs; about one submit in four reuses an already-resolved
//! idempotency key, which the server answers from its replay path with
//! no solver call. The only workload that pays for frames, connection
//! threads, lanes, quotas and idempotency.

use crate::common::{
    median, ms, percentile, print, secs, set_tracing, timed, Outcome, Run, SeedFork,
};
use crate::probes::{self, Inst};
use crate::spans;
use gncg_game::{certify, EdgeFormation, GameSpec, ModelKind, OwnedNetwork, SolverConfig};
use gncg_geometry::generators;
use gncg_json::{object, ToJson, Value};
use gncg_serve::{JobSpec, ServeClient, Server};
use std::time::{Duration, Instant};

/// Closed-loop clients (one connection each; ≤ the pinned threads).
const CLIENTS: usize = 2;
/// Share of submits that replay an already-resolved key.
const REPLAY_SHARE: f64 = 0.25;
/// Share of fresh submits that are certify jobs (the rest: dynamics).
const CERTIFY_SHARE: f64 = 0.75;

/// The job templates: certify jobs first, then dynamics jobs, each with
/// the canonical print of the direct solver call it stands for.
struct Pool {
    jobs: Vec<JobSpec>,
    certify: usize,
    expected: Vec<String>,
}

/// The job templates. Sizes, methods and α values are fixed per slot so
/// every seed yields the same mix of job costs; only the point sets come
/// from the seed, two per (size, method, α) so one instance's cost moves
/// the medians little.
fn pool(seed: u64, tiny: bool) -> Pool {
    let mut seeds = SeedFork::new(seed);
    let certify_ns: &[usize] = if tiny { &[8, 10] } else { &[16, 20, 24, 28] };
    let dynamics_ns: &[usize] = if tiny { &[6, 7] } else { &[10, 12, 14] };
    let mut jobs = Vec::new();
    for &n in certify_ns {
        for slot in 0..12 {
            let points = generators::uniform_unit_square(n, seeds.next());
            let method = ["mst", "star", "combined"][slot % 3];
            let alpha = [1.0, 2.5][slot % 2];
            let network = gncg_sweep::engine::build_network(method, &points, alpha);
            jobs.push(JobSpec::Certify {
                points,
                network,
                alpha,
                exact: false,
                model: ModelKind::SumDistances,
                budget_ms: None,
            });
        }
    }
    let certify = jobs.len();
    for &n in dynamics_ns {
        for slot in 0..8 {
            jobs.push(JobSpec::Dynamics {
                points: generators::uniform_unit_square(n, seeds.next()),
                alpha: [1.0, 2.5][slot % 2],
                rule: gncg_game::dynamics::ResponseRule::BestSingleMove,
                steps: probes::DYN_STEPS,
                spec: GameSpec {
                    model: ModelKind::SumDistances,
                    formation: EdgeFormation::Unilateral,
                },
                start: None,
                budget_ms: None,
            });
        }
    }
    let expected = jobs.iter().map(direct).collect();
    Pool {
        jobs,
        certify,
        expected,
    }
}

/// The direct solver call a job stands for, printed canonically.
fn direct(spec: &JobSpec) -> String {
    match spec {
        JobSpec::Certify {
            points,
            network,
            alpha,
            model,
            ..
        } => {
            let _s = spans::span("serve.direct_certify");
            let cfg = SolverConfig::default().with_model(*model);
            print(&certify::certify(points, network, *alpha, &cfg).to_json())
        }
        JobSpec::Dynamics { points, alpha, .. } => {
            let _s = spans::span("serve.direct_dynamics");
            let outcome = probes::dynamics_direct(points, *alpha);
            print(&gncg_serve::proto::dynamics_outcome_to_json(&outcome))
        }
        JobSpec::Sweep { .. } => unreachable!("the pool has no sweep jobs"),
    }
}

/// One job as its client saw it; the result is checked against the
/// direct call as it arrives and only the verdict is kept, so memory does
/// not grow with the number of jobs a run completes.
struct Record {
    template: usize,
    replay: bool,
    latency_s: f64,
    result: Result<(), String>,
}

/// A client stops at the deadline or after `jobs` jobs, whichever
/// comes first.
#[derive(Clone, Copy)]
struct Stop {
    at: Option<Instant>,
    jobs: usize,
}

impl Stop {
    fn at(t: Instant) -> Self {
        Self {
            at: Some(t),
            jobs: usize::MAX,
        }
    }

    fn after(jobs: usize) -> Self {
        Self { at: None, jobs }
    }
}

fn client_loop(
    client: &mut ServeClient,
    pool: &Pool,
    seed: u64,
    tag: &str,
    stop: Stop,
) -> Vec<Record> {
    let _flush = gncg_trace::worker_guard();
    let mut rng = SeedFork::new(seed);
    let mut resolved: Vec<(usize, String)> = Vec::new();
    let mut records = Vec::new();
    loop {
        if records.len() >= stop.jobs || stop.at.is_some_and(|t| Instant::now() >= t) {
            return records;
        }
        let replay = !resolved.is_empty() && rng.unit() < REPLAY_SHARE;
        let (template, key) = if replay {
            resolved[rng.below(resolved.len())].clone()
        } else {
            let template = if rng.unit() < CERTIFY_SHARE {
                rng.below(pool.certify)
            } else {
                pool.certify + rng.below(pool.jobs.len() - pool.certify)
            };
            (template, format!("{tag}-{}", records.len()))
        };
        let _s = spans::span("serve.job");
        let (result, latency_s) = timed(|| client.submit_with_key(&pool.jobs[template], &key));
        if result.is_ok() && !replay {
            resolved.push((template, key));
        }
        let result = match result {
            Ok(v) if print(&v) == pool.expected[template] => Ok(()),
            Ok(_) => Err(format!(
                "template {template}: result differs from direct call"
            )),
            Err(e) => Err(format!("template {template}: {e}")),
        };
        records.push(Record {
            template,
            replay,
            latency_s,
            result,
        });
    }
}

/// Records of one closed-loop pass.
struct Pass {
    records: Vec<Record>,
    /// Jobs each client completed.
    per_client: Vec<usize>,
    /// Start to the last client's finish.
    window_s: f64,
}

/// Run client `i` until `stop(i)`.
fn closed_loop(
    clients: &mut [ServeClient],
    pool: &Pool,
    seeds: &mut SeedFork,
    tag: &str,
    stop: impl Fn(usize) -> Stop,
) -> Pass {
    let client_seeds: Vec<u64> = clients.iter().map(|_| seeds.next()).collect();
    let t0 = Instant::now();
    let per_client: Vec<(Vec<Record>, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(client_seeds)
            .enumerate()
            .map(|(i, (client, seed))| {
                let tag = format!("{tag}-c{i}");
                let stop = stop(i);
                s.spawn(move || {
                    let records = client_loop(client, pool, seed, &tag, stop);
                    (records, secs(t0))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    Pass {
        window_s: per_client.iter().map(|(_, t)| *t).fold(0.0, f64::max),
        per_client: per_client.iter().map(|(r, _)| r.len()).collect(),
        records: per_client.into_iter().flat_map(|(r, _)| r).collect(),
    }
}

/// Count each job, failed unless its payload equalled the direct call's.
fn verify(out: &mut Outcome, records: &[Record]) {
    for r in records {
        out.check("serve job", r.result.clone());
    }
}

struct Stack {
    server: Server,
    clients: Vec<ServeClient>,
}

/// Bind a loopback server and connect the clients to it.
fn connect(run: &Run) -> Stack {
    let server = probes::bind_server(run.threads).expect("bind loopback server");
    let addr = server.local_addr().to_string();
    let clients = (0..CLIENTS)
        .map(|i| {
            let mut c = ServeClient::new(addr.clone(), format!("bench-{i}"))
                .with_timeout(Duration::from_secs(60));
            c.ping().expect("client connects");
            c
        })
        .collect();
    Stack { server, clients }
}

/// Set-up: job pool (with the direct call each job stands for), server
/// bind, client connect; repeated, last kept.
fn set_up(run: &Run, out: &mut Outcome, times: usize) -> (Pool, Stack, Vec<f64>) {
    let mut samples = Vec::new();
    let mut kept: Option<(Pool, Stack)> = None;
    for _ in 0..times {
        if let Some((_, old)) = kept.take() {
            finish(out, old);
        }
        let (built, t) = timed(|| (pool(run.seed, run.tiny), connect(run)));
        samples.push(t);
        kept = Some(built);
    }
    let (pool, stack) = kept.expect("at least one set-up");
    (pool, stack, samples)
}

/// Shut the server down (joining its connection threads, which flushes
/// their trace counters); every accepted job must have completed.
/// Returns the number of idempotent replays the server answered.
fn finish(out: &mut Outcome, stack: Stack) -> u64 {
    drop(stack.clients);
    let stats = stack.server.shutdown();
    out.check(
        "serve accounting",
        if stats.accepted == stats.completed && stats.panicked == 0 && stats.cancelled == 0 {
            Ok(())
        } else {
            Err(format!("{stats:?}"))
        },
    );
    stats.replayed
}

fn deadline_in(s: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(s)
}

/// Jobs each client runs on one server before a fresh one is bound. The
/// server keeps every resolved result for idempotent replays, so on one
/// server peak memory would grow with the jobs a run completes, and a
/// faster server would read as a hungrier one.
const SEGMENT_JOBS: usize = 1500;

/// End-to-end run: the closed loop for `--seconds`, in segments of at
/// most `SEGMENT_JOBS` jobs per client, each on a fresh server (the
/// rebinds between segments are not timed).
///
/// The gated median is that of fresh certify jobs, not of every job: the
/// mix is trimodal (replays ≈ 0.3 ms, dynamics ≈ 1.7 ms, certify ≈ 4.5 ms)
/// and the all-jobs median falls in the gap between dynamics and certify,
/// where a small shift in the mix moves it far. The all-jobs p90 lies
/// inside the certify mode and stays gated.
pub fn measure(run: &Run, out: &mut Outcome) {
    let (pool, mut stack, setup) = set_up(run, out, 15);
    let mut seeds = SeedFork::new(run.seed ^ 0x5e7e_c0de);
    let warm_until = deadline_in(run.seconds.min(10.0) / 10.0);
    let warm = closed_loop(&mut stack.clients, &pool, &mut seeds, "warm", |_| {
        Stop::at(warm_until)
    });
    verify(out, &warm.records);
    let until = deadline_in(run.seconds);
    let (mut records, mut window_s, mut segments) = (Vec::new(), 0.0, 0usize);
    while Instant::now() < until {
        finish(out, stack);
        stack = connect(run);
        let pass = closed_loop(&mut stack.clients, &pool, &mut seeds, "run", |_| Stop {
            at: Some(until),
            jobs: SEGMENT_JOBS,
        });
        window_s += pass.window_s;
        records.extend(pass.records);
        segments += 1;
    }
    finish(out, stack);
    verify(out, &records);

    let latency_ms = |keep: &dyn Fn(&Record) -> bool, q: f64| {
        let xs: Vec<f64> = records
            .iter()
            .filter(|r| keep(r))
            .map(|r| r.latency_s)
            .collect();
        ms(percentile(&xs, q))
    };
    let certify_job = |r: &Record| !r.replay && r.template < pool.certify;
    let dynamics_job = |r: &Record| !r.replay && r.template >= pool.certify;
    let certify_p50 = latency_ms(&certify_job, 0.5);
    let p50 = latency_ms(&|_| true, 0.5);
    let p90 = latency_ms(&|_| true, 0.9);
    // p99 is reported but not gated: on a shared 2-vCPU host its spread over
    // ten seeds (0.07–0.22 of the median in the sets run) sits too close to
    // any usable bound
    let p99 = latency_ms(&|_| true, 0.99);
    let jobs_per_s = records.len() as f64 / window_s;
    out.set("setup_s", median(&setup));
    out.set("phase_a_ms", certify_p50);
    out.set("phase_b_ms", p90);
    out.set("ops_per_s", jobs_per_s);
    out.ctx(
        "figures",
        object(vec![
            ("jobs_per_s", Value::Number(jobs_per_s)),
            ("latency_p50_ms", Value::Number(p50)),
            ("latency_p90_ms", Value::Number(p90)),
            ("latency_p99_ms", Value::Number(p99)),
            ("certify_p50_ms", Value::Number(certify_p50)),
            (
                "dynamics_p50_ms",
                Value::Number(latency_ms(&dynamics_job, 0.5)),
            ),
            (
                "replay_p50_ms",
                Value::Number(latency_ms(&|r| r.replay, 0.5)),
            ),
        ]),
    );
    let replays = records.iter().filter(|r| r.replay).count();
    let beyond_p99 = records.len() - (0.99 * records.len() as f64).ceil() as usize;
    out.ctx(
        "samples",
        object(vec![
            ("jobs", records.len().to_json()),
            ("segments", segments.to_json()),
            (
                "certify_jobs",
                records.iter().filter(|r| certify_job(r)).count().to_json(),
            ),
            ("replays", replays.to_json()),
            ("beyond_p99", beyond_p99.to_json()),
            ("setup_s", setup.to_json()),
        ]),
    );
}

/// Traced run: the closed loop untraced for a third of `--seconds`,
/// then the same job counts traced on a fresh server (shut down before
/// the counters are read, so its connection threads have flushed), a
/// sequential repeat of every template (counters must repeat exactly),
/// then the layer probes on the job pool.
pub fn trace(run: &Run, out: &mut Outcome) {
    let mut seeds = SeedFork::new(run.seed ^ 0x5e7e_c0de);
    let (pool, mut stack, _) = set_up(run, out, 1);
    let warm_until = deadline_in(run.seconds / 30.0);
    let warm = closed_loop(&mut stack.clients, &pool, &mut seeds, "warm", |_| {
        Stop::at(warm_until)
    });
    let off_until = deadline_in(run.seconds / 3.0);
    let off = closed_loop(&mut stack.clients, &pool, &mut seeds, "off", |_| {
        Stop::at(off_until)
    });
    finish(out, stack);

    let mut stack = connect(run);
    set_tracing(true);
    let before = gncg_trace::snapshot();
    let on = closed_loop(&mut stack.clients, &pool, &mut seeds, "on", |i| {
        Stop::after(off.per_client[i])
    });
    let replays = finish(out, stack);
    let delta = gncg_trace::snapshot().counters_since(&before);
    probes::counters(out, &delta);
    out.set("serve.replays", replays as f64);
    out.set("trace.overhead_ratio", on.window_s / off.window_s);

    let mut stack = connect(run);
    for pass in [&warm, &off, &on] {
        verify(out, &pass.records);
    }
    let mut sequential = |tag: &str| {
        probes::counted(|| {
            for (i, spec) in pool.jobs.iter().enumerate() {
                let _ = stack.clients[0].submit_with_key(spec, &format!("{tag}-{i}"));
            }
            stack.server.session().wait_idle();
        })
        .1
    };
    let first = sequential("det-a");
    let second = sequential("det-b");
    out.ctx(
        "deterministic_counters",
        probes::deterministic(&first).to_json(),
    );
    out.check(
        "serve counters repeat",
        probes::same_counters(
            &probes::deterministic(&first),
            &probes::deterministic(&second),
        ),
    );

    gncg_trace::set_enabled(false);
    let as_inst = |spec: &JobSpec| match spec {
        JobSpec::Certify {
            points,
            network,
            alpha,
            ..
        } => Inst {
            ps: points.clone(),
            net: network.clone(),
            alpha: *alpha,
            method: "combined".to_string(),
        },
        JobSpec::Dynamics { points, alpha, .. } => Inst {
            ps: points.clone(),
            net: OwnedNetwork::center_star(points.len(), 0),
            alpha: *alpha,
            method: "combined".to_string(),
        },
        JobSpec::Sweep { .. } => unreachable!("the pool has no sweep jobs"),
    };
    let (certify_jobs, dynamics_jobs) = pool.jobs.split_at(pool.certify);
    let bounds: Vec<Inst> = certify_jobs.iter().map(as_inst).collect();
    let small: Vec<Inst> = dynamics_jobs.iter().map(as_inst).collect();
    let graph_insts: Vec<_> = bounds.iter().map(|i| (&i.ps, &i.net)).collect();
    probes::graph_layer(out, &graph_insts, 3);
    let point_sets: Vec<_> = bounds.iter().map(|i| &i.ps).collect();
    probes::spanner_layer(out, &point_sets, 3);
    probes::approx_layer(out, &point_sets);
    probes::game_layer(out, &small, &bounds, &SolverConfig::default());
    probes::service_layer(out, stack.server.session(), &bounds);
    let jobs: Vec<(JobSpec, Value)> = pool
        .jobs
        .iter()
        .zip(&pool.expected)
        .map(|(spec, text)| {
            (
                spec.clone(),
                gncg_json::parse(text).expect("direct result parses"),
            )
        })
        .collect();
    let payloads: Vec<Value> = jobs.iter().map(|(_, v)| v.clone()).collect();
    probes::cache_layer(out, &run.tmp.join("probe_cache"), &payloads);
    probes::wire_layer(out, Some(&stack.server), &jobs);
    finish(out, stack);
}
