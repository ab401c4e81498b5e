//! `gncg` — command-line front end for the library.
//!
//! ```text
//! gncg generate --kind uniform --n 100 --seed 7 --out points.json
//! gncg build    --points points.json --alpha 2 --method combined --out net.json
//! gncg certify  --points points.json --network net.json --alpha 2 [--exact]
//! gncg dynamics --points points.json --alpha 1 --steps 500
//! gncg serve    [--addr 127.0.0.1:7117]
//! gncg connect  --points points.json --network net.json --alpha 2 [--idem KEY]
//! gncg sweep run  --spec specs/foo.sweep.json
//! gncg sweep plan --spec specs/foo.sweep.json
//! gncg sweep gc
//! ```
//!
//! Arguments are deliberately hand-parsed (`--key value` pairs) to keep
//! the dependency set to the whitelisted crates.
//!
//! `serve` / `connect` are the remote analogues of the local job
//! subcommands: `serve` fronts a [`Session`] over TCP (SIGTERM drains,
//! SIGTERM×2 cancels), `connect` submits through a retrying
//! [`ServeClient`] and exits with [`gncg_config::INTERRUPTED_EXIT`]
//! when the remote job is cancelled — the same code a local
//! budget-interrupted run uses, so driving a sweep remotely changes
//! nothing about how callers resume it.
//!
//! `sweep` drives the declarative sweep language (`gncg_sweep`): `run`
//! executes a `.sweep.json` spec through the session and the
//! content-addressed result cache (`GNCG_CACHE_DIR`), saving
//! `results/<id>.json`; `plan` prints the canonical form, content key,
//! and per-unit cache keys without running anything; `gc` collects
//! tmp/quarantine debris from the cache directory. A remote sweep is
//! `connect --job sweep --spec FILE`.

use gncg_config::ServeConfig;
use gncg_game::{dynamics, GameSpec, ModelKind, OwnedNetwork, SolverConfig};
use gncg_geometry::{generators, PointSet};
use gncg_parallel::Budget;
use gncg_serve::{ClientError, JobSpec, ServeClient, Server};
use gncg_service::cache::ResultCache;
use gncg_service::{JobError, JobOptions, Session};
use gncg_sweep::spec::SweepSpec;
use std::collections::HashMap;
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    if let Err(e) = gncg_config::env::check() {
        eprintln!("{e}");
        exit(2);
    }
    let mut args = std::env::args().skip(1);
    let cmd = match args.next() {
        Some(c) => c,
        None => usage_and_exit(),
    };
    if cmd == "sweep" {
        let sub = args.next().unwrap_or_else(|| {
            eprintln!("missing sweep subcommand (run | plan | gc)");
            usage_and_exit()
        });
        let rest = args.collect();
        match sub.as_str() {
            "run" => sweep_run(&parse_opts(rest, &["spec"], &[])),
            "plan" => sweep_plan(&parse_opts(rest, &["spec"], &[])),
            "gc" => {
                parse_opts(rest, &[], &[]);
                sweep_gc()
            }
            other => {
                eprintln!("unknown sweep subcommand {other}");
                usage_and_exit()
            }
        }
        return;
    }
    let rest = args.collect();
    match cmd.as_str() {
        "generate" => generate(&parse_opts(
            rest,
            &["kind", "n", "seed", "alpha", "out"],
            &[],
        )),
        "build" => build(&parse_opts(
            rest,
            &["points", "alpha", "method", "out"],
            &[],
        )),
        "certify" => run_certify(&parse_opts(
            rest,
            &["points", "network", "alpha"],
            &["exact"],
        )),
        "dynamics" => run_dynamics(&parse_opts(
            rest,
            &["points", "alpha", "steps", "rule"],
            &[],
        )),
        "serve" => run_serve(&parse_opts(rest, &["addr"], &[])),
        "connect" => run_connect(&parse_opts(
            rest,
            &[
                "job",
                "points",
                "network",
                "alpha",
                "spec",
                "steps",
                "rule",
                "budget-ms",
                "addr",
                "client",
                "idem",
            ],
            &["exact"],
        )),
        _ => usage_and_exit(),
    }
}

fn usage_and_exit() -> ! {
    eprintln!(
        "usage:\n  gncg generate --kind uniform|grid|cluster|chain --n N [--seed S] [--alpha A] --out FILE\n  gncg build --points FILE --alpha A --method combined|alg1|mst|complete|star --out FILE\n  gncg certify --points FILE --network FILE --alpha A [--exact]\n  gncg dynamics --points FILE --alpha A [--steps N] [--rule best|single]\n  gncg serve [--addr HOST:PORT]\n  gncg connect --job certify|dynamics|sweep [--points FILE] [--network FILE]\n               [--alpha A] [--spec FILE] [--exact] [--steps N] [--rule best|single]\n               [--budget-ms N] [--addr HOST:PORT] [--client ID] [--idem KEY]\n  gncg sweep run --spec FILE\n  gncg sweep plan --spec FILE\n  gncg sweep gc"
    );
    exit(2);
}

/// Parse `--key value` pairs and bare `--flag`s against a subcommand's
/// accepted options. An unknown or repeated key, a flag given a value,
/// or a key without one is a usage error (exit 2) before anything runs
/// or is written; a flag maps to `"true"`.
fn parse_opts(rest: Vec<String>, valued: &[&str], flags: &[&str]) -> HashMap<String, String> {
    let mut map = HashMap::new();
    let mut it = rest.into_iter().peekable();
    while let Some(arg) = it.next() {
        let Some(key) = arg.strip_prefix("--") else {
            eprintln!("unexpected argument {arg}");
            usage_and_exit();
        };
        let value = if flags.contains(&key) {
            if let Some(v) = it.next_if(|v| !v.starts_with("--")) {
                eprintln!("option --{key} takes no value (got {v})");
                usage_and_exit();
            }
            "true".to_string()
        } else if !valued.contains(&key) {
            eprintln!("unknown option --{key}");
            usage_and_exit();
        } else {
            match it.next_if(|v| !v.starts_with("--")) {
                Some(v) => v,
                None => {
                    eprintln!("option --{key} needs a value");
                    usage_and_exit();
                }
            }
        };
        if map.insert(key.to_string(), value).is_some() {
            eprintln!("option --{key} given twice");
            usage_and_exit();
        }
    }
    map
}

fn req<'a>(opts: &'a HashMap<String, String>, key: &str) -> &'a str {
    opts.get(key).map(|s| s.as_str()).unwrap_or_else(|| {
        eprintln!("missing required option --{key}");
        usage_and_exit()
    })
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("could not parse {what}: {s}");
        exit(2);
    })
}

/// The number given as `--key`, or `default` when the option is absent.
fn opt_num<T: std::str::FromStr>(opts: &HashMap<String, String>, key: &str, default: T) -> T {
    opts.get(key)
        .map_or(default, |s| parse_num(s, &format!("--{key}")))
}

/// `--rule best|single` (default `single`); anything else is a usage
/// error, never a silent fallback.
fn parse_rule(opts: &HashMap<String, String>) -> dynamics::ResponseRule {
    match opts.get("rule").map(|s| s.as_str()) {
        Some("best") => dynamics::ResponseRule::BestResponse,
        Some("single") | None => dynamics::ResponseRule::BestSingleMove,
        Some(other) => {
            eprintln!("unknown --rule {other} (expected best or single)");
            usage_and_exit()
        }
    }
}

/// The `GNCG_MODEL` objective (sum when unset or empty); an unknown
/// spelling is a usage error, never a silent fallback to sum.
fn env_model() -> ModelKind {
    gncg_config::env::model()
        .map(Option::unwrap_or_default)
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2);
        })
}

fn read_file(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    })
}

/// The JSON file at `path`, parsed as a `what`; exit 1 on failure.
fn load_json<T: gncg_json::FromJson>(path: &str, what: &str) -> T {
    gncg_json::from_str(&read_file(path)).unwrap_or_else(|e| {
        eprintln!("cannot parse {what} {path}: {e}");
        exit(1);
    })
}

fn save_json<T: gncg_json::ToJson>(value: &T, path: &str) {
    let json = gncg_json::to_string_pretty(value);
    std::fs::write(path, json).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        exit(1);
    });
    println!("wrote {path}");
}

fn generate(opts: &HashMap<String, String>) {
    let kind = req(opts, "kind");
    let n: usize = parse_num(req(opts, "n"), "--n");
    let seed: u64 = opt_num(opts, "seed", 0);
    let out = req(opts, "out");
    let ps = match kind {
        // the one generator the CLI parameterizes: --alpha is the chain's
        // growth factor (the sweep engine fixes it at 2)
        "chain" => generators::geometric_chain(n.max(2) - 1, opt_num(opts, "alpha", 2.0)),
        kind if gncg_sweep::spec::GENERATORS.contains(&kind) => {
            gncg_sweep::engine::generate_points(kind, n, seed)
        }
        other => {
            eprintln!("unknown kind {other}");
            usage_and_exit()
        }
    };
    println!("generated {} points in R^{}", ps.len(), ps.dim());
    save_json(&ps, out);
}

/// `gncg build`: the sweep engine's method table, so a method builds
/// the same network from the CLI and from a sweep spec.
fn build(opts: &HashMap<String, String>) {
    let method = req(opts, "method");
    if !gncg_sweep::spec::METHODS.contains(&method) {
        eprintln!("unknown method {method}");
        usage_and_exit()
    }
    let ps: PointSet = load_json(req(opts, "points"), "point set");
    let alpha: f64 = parse_num(req(opts, "alpha"), "--alpha");
    let out = req(opts, "out");
    let net = gncg_sweep::engine::build_network(method, &ps, alpha);
    println!("built network with {} bought edges", net.bought_edges());
    save_json(&net, out);
}

fn run_certify(opts: &HashMap<String, String>) {
    // binaries honor the env model choice; library defaults stay sum
    let model = env_model();
    let ps: PointSet = load_json(req(opts, "points"), "point set");
    let net = load_json(req(opts, "network"), "network");
    let alpha: f64 = parse_num(req(opts, "alpha"), "--alpha");
    let options = if opts.contains_key("exact") {
        SolverConfig::exact()
    } else {
        SolverConfig::default()
    }
    .with_model(model);
    // the CLI is a thin client of the job service: the session default
    // budget is GNCG_BUDGET_MS, exactly what the direct call honoured
    let session = Session::new();
    let handle = session
        .submit_certify(Arc::new(ps), net, alpha, options, JobOptions::default())
        .unwrap_or_else(|e| {
            eprintln!("certify rejected by the service: {e}");
            exit(1);
        });
    let r = handle.wait().unwrap_or_else(|e| {
        eprintln!("certify job failed: {e}");
        exit(1);
    });
    println!("{}", gncg_json::to_string_pretty(&r.to_json_with_trace()));
}

fn run_dynamics(opts: &HashMap<String, String>) {
    let model = env_model();
    let ps: PointSet = load_json(req(opts, "points"), "point set");
    let alpha: f64 = parse_num(req(opts, "alpha"), "--alpha");
    let steps: usize = opt_num(opts, "steps", 500);
    let rule = parse_rule(opts);
    let start = OwnedNetwork::center_star(ps.len(), 0);
    let session = Session::new();
    let handle = session
        .submit_dynamics(
            Arc::new(ps),
            start,
            alpha,
            rule,
            steps,
            SolverConfig::default().with_model(model),
            JobOptions::default(),
        )
        .unwrap_or_else(|e| {
            eprintln!("dynamics rejected by the service: {e}");
            exit(1);
        });
    let outcome = handle.wait().unwrap_or_else(|e| {
        let code = match e {
            JobError::Cancelled => gncg_config::INTERRUPTED_EXIT,
            JobError::Panicked(_) => 1,
        };
        eprintln!("dynamics job failed: {e}");
        exit(code);
    });
    match outcome {
        dynamics::Outcome::Converged { state, steps } => {
            println!("converged after {steps} strategy changes");
            println!("{} edges bought", state.bought_edges());
        }
        dynamics::Outcome::Cycle {
            history,
            cycle_start,
        } => {
            println!(
                "response CYCLE detected: length {} (no finite improvement property)",
                history.len() - 1 - cycle_start
            );
        }
        dynamics::Outcome::Exhausted { steps, .. } => {
            println!("stopped after {steps} strategy changes without convergence");
        }
    }
}

/// The serve tier's one setting: `--addr`, else `GNCG_SERVE_ADDR`, else
/// [`ServeConfig::DEFAULT_ADDR`].
fn serve_config(opts: &HashMap<String, String>) -> ServeConfig {
    let addr = opts
        .get("addr")
        .cloned()
        .or_else(gncg_config::env::serve_addr)
        .unwrap_or_else(|| ServeConfig::DEFAULT_ADDR.to_string());
    ServeConfig { addr }
}

fn run_serve(opts: &HashMap<String, String>) {
    let cfg = serve_config(opts);
    if !gncg_serve::signal::install_sigterm_handler() {
        eprintln!("warning: SIGTERM handler install failed; drain via client disconnects only");
    }
    let session = Session::new();
    let server = Server::bind(session, &cfg).unwrap_or_else(|e| {
        eprintln!("cannot bind {}: {e}", cfg.addr);
        exit(1);
    });
    println!("gncg-serve listening on {}", server.local_addr());
    println!("SIGTERM drains gracefully; a second SIGTERM cancels in-flight jobs");
    while !server.is_draining() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("drain initiated; finishing in-flight jobs");
    server.wait_drained(Duration::from_secs(24 * 3600));
    let stats = server.shutdown();
    eprintln!(
        "drained: {} accepted = {} completed + {} cancelled + {} panicked ({} rejected, {} replayed)",
        stats.accepted,
        stats.completed,
        stats.cancelled,
        stats.panicked,
        stats.rejected,
        stats.replayed,
    );
}

fn load_sweep_spec(path: &str) -> SweepSpec {
    SweepSpec::parse(&read_file(path)).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        exit(2);
    })
}

fn sweep_run(opts: &HashMap<String, String>) {
    let spec = load_sweep_spec(req(opts, "spec"));
    let cache = ResultCache::from_env().map(Arc::new);
    match &cache {
        Some(c) => println!("cache: {}", c.dir().display()),
        None => println!("cache: off (set GNCG_CACHE_DIR to enable)"),
    }
    // The run budget is the ambient one (GNCG_BUDGET_MS): on exhaustion
    // the checkpoint is kept and a re-run resumes, exactly like the
    // repro binaries.
    let budget = Budget::from_env();
    let session = Session::new();
    let outcome = gncg_sweep::engine::run_spec(&spec, cache, Some(&session), &budget, None);
    if outcome.interrupted {
        eprintln!(
            "sweep '{}' interrupted by its budget after {}/{} units; checkpoint kept — re-run to resume",
            spec.id, outcome.units_done, outcome.units_total
        );
        exit(gncg_config::INTERRUPTED_EXIT);
    }
    outcome.report.print();
    match outcome.report.save() {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("cannot save report: {e}");
            exit(1);
        }
    }
    if !outcome.report.all_ok() {
        exit(1);
    }
}

fn sweep_plan(opts: &HashMap<String, String>) {
    let spec = load_sweep_spec(req(opts, "spec"));
    println!(
        "{}",
        gncg_json::to_string_pretty(&gncg_sweep::engine::plan_spec(&spec))
    );
}

fn sweep_gc() {
    let Some(cache) = ResultCache::from_env() else {
        eprintln!("cache: off (set GNCG_CACHE_DIR to enable)");
        exit(2);
    };
    match cache.gc() {
        Ok(removed) => println!(
            "collected {removed} debris file(s) from {}",
            cache.dir().display()
        ),
        Err(e) => {
            eprintln!("gc failed: {e}");
            exit(1);
        }
    }
}

fn run_connect(opts: &HashMap<String, String>) {
    let addr = serve_config(opts).addr;
    let client_id = opts
        .get("client")
        .cloned()
        .unwrap_or_else(|| format!("gncg-cli-{}", std::process::id()));
    let budget_ms: Option<u64> = opts.get("budget-ms").map(|s| parse_num(s, "--budget-ms"));
    let model = env_model();
    let spec = match opts.get("job").map(|s| s.as_str()).unwrap_or("certify") {
        "certify" => JobSpec::Certify {
            network: load_json(req(opts, "network"), "network"),
            points: load_json(req(opts, "points"), "point set"),
            alpha: parse_num(req(opts, "alpha"), "--alpha"),
            exact: opts.contains_key("exact"),
            model,
            budget_ms,
        },
        "dynamics" => JobSpec::Dynamics {
            points: load_json(req(opts, "points"), "point set"),
            alpha: parse_num(req(opts, "alpha"), "--alpha"),
            rule: parse_rule(opts),
            steps: opt_num(opts, "steps", 500),
            spec: GameSpec::with_model(model),
            start: None,
            budget_ms,
        },
        "sweep" => JobSpec::Sweep {
            spec: Box::new(load_sweep_spec(req(opts, "spec"))),
            budget_ms,
        },
        other => {
            eprintln!("unknown job {other}");
            usage_and_exit()
        }
    };
    let mut client = ServeClient::new(addr, client_id);
    // an explicit --idem key makes re-invocation resume: a key the
    // server already resolved replays the cached result byte-identically
    let result = match opts.get("idem") {
        Some(key) => client.submit_with_key(&spec, key),
        None => client.submit(&spec),
    };
    match result {
        Ok(value) => println!("{}", gncg_json::to_string_pretty(&value)),
        Err(ClientError::Cancelled) => {
            eprintln!("remote job interrupted (budget exhausted or server cancel); re-run with the same --idem to resume");
            exit(gncg_config::INTERRUPTED_EXIT);
        }
        Err(e) => {
            eprintln!("remote job failed: {e}");
            exit(1);
        }
    }
}
