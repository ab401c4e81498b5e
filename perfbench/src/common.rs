//! Shared plumbing: arguments, seed forking, statistics, the hermetic
//! environment, and the result object every workload fills.

use gncg_json::{object, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["approx_large", "sweep_certify", "serve_mixed"];

/// Upper bound on worker threads: the serve workload runs two client
/// connections, and the runs must compare across machines, so the
/// solver pool never grows past this even on a wider box.
const MAX_THREADS: usize = 2;

/// End-to-end metrics, reported by every workload with tracing off.
/// `phase_a_ms` / `phase_b_ms` name each workload's two headline
/// timings (see `BENCHMARK.json`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("phase_a_ms", "ms"),
    ("phase_b_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload's traced run. Layers a
/// workload never calls read 0 for counts; times are always probed on
/// the workload's own inputs.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("graph.row_us", "us"),
    ("graph.drop_probe_us", "us"),
    ("graph.add_probe_us", "us"),
    ("graph.csr_refill_ms", "ms"),
    ("graph.apsp_ms", "ms"),
    ("graph.relaxations", "count"),
    ("graph.heap_pops", "count"),
    ("network.graph_ms", "ms"),
    ("spanner.build_s", "s"),
    ("spanner.index_ms", "ms"),
    ("spanner.nearest_k_us", "us"),
    ("approx.run_s", "s"),
    ("approx.certify_s", "s"),
    ("approx.agents_probed", "count"),
    ("approx.moves_accepted", "count"),
    ("approx.evals", "count"),
    ("approx.candidates", "count"),
    ("approx.unexplained_share", "ratio"),
    ("algo.build_ms", "ms"),
    ("certify.exact_ms", "ms"),
    ("certify.bounds_ms", "ms"),
    ("dynamics.run_ms", "ms"),
    ("game.best_response_evals", "count"),
    ("game.moves_evaluated", "count"),
    ("game.moves_pruned", "count"),
    ("game.prune_ratio", "ratio"),
    ("game.row_invalidations", "count"),
    ("service.dispatch_us", "us"),
    ("service.overhead_ms", "ms"),
    ("cache.get_us", "us"),
    ("cache.put_us", "us"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.bytes", "bytes"),
    ("wire.ping_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.bytes_per_job", "bytes"),
    ("serve.frames_rx", "count"),
    ("serve.frames_tx", "count"),
    ("serve.retries", "count"),
    ("serve.rejected", "count"),
    ("serve.replays", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// One benchmark invocation.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke-test sizes: every code path, seconds of work.
    pub tiny: bool,
    pub threads: usize,
    pub nproc: usize,
    /// Per-run scratch directory (cache, checkpoints, results); removed
    /// when the run ends.
    pub tmp: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <approx_large|sweep_certify|serve_mixed> \
                     --seed <u64> --seconds <1..=600> --trace <0|1> [--size full|tiny]";

/// Strictly parse the command line; every flag but `--size` is required.
pub fn parse_args(args: &[String]) -> Result<(String, u64, f64, bool, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| (1.0..=600.0).contains(s))
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--size" => {
                tiny = match value.as_str() {
                    "tiny" => true,
                    "full" => false,
                    _ => return Err(format!("bad --size {value:?}\n{USAGE}")),
                }
            }
            _ => return Err(format!("bad argument {flag} {value:?}\n{USAGE}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(w), Some(s), Some(secs), Some(t)) => Ok((w, s, secs, t, tiny)),
        _ => Err(format!("missing or invalid argument\n{USAGE}")),
    }
}

/// Make the run hermetic before any solver crate reads its environment:
/// drop every `GNCG_*` knob a caller may have set (fault injection,
/// budgets, cache and results dirs, prune/model/backend overrides),
/// then pin the thread count and point the results dir into `tmp`.
/// Returns `(threads, nproc)`.
pub fn pin_environment(tmp: &Path) -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(MAX_THREADS);
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("GNCG_"))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }
    std::env::set_var("GNCG_THREADS", threads.to_string());
    std::env::set_var("GNCG_RESULTS_DIR", tmp.join("results"));
    gncg_parallel::fault::set_injection_probability(0.0);
    gncg_serve::netfault::set_probability(0.0);
    (threads, nproc)
}

/// Turn both trace layers on or off: the solver crates' counters and
/// spans, and the benchmark's own span recorder.
pub fn set_tracing(on: bool) {
    gncg_trace::set_enabled(on);
    crate::spans::set_enabled(on);
}

/// A splitmix64 stream: the one `--seed` forks every instance seed.
pub struct SeedFork(u64);

impl SeedFork {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A seed in the f64-exact integer range sweep specs accept.
    pub fn next_spec_seed(&mut self) -> u64 {
        self.next() & ((1 << 53) - 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Nearest-rank percentile `q ∈ (0, 1]`; 0 for no samples.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The wall time of `perf_smoke`'s fixed pure-CPU calibration loop
/// (same constants), recorded so runs on different machines can be
/// related. Not gated.
pub fn calibration_secs() -> f64 {
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
    secs(t0)
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total size in bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Canonical compact print, the byte form results are compared in.
pub fn print(v: &Value) -> String {
    gncg_json::to_string(v)
}

/// What a run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    /// Run context and the per-workload named figures; printed on the
    /// line before the result, never gated.
    pub context: Vec<(&'static str, Value)>,
}

impl Outcome {
    /// Count one operation, failed unless `result` is `Ok`.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.failures.push(format!("{what}: {e}"));
        }
    }

    /// Record a metric; the name must be one of the declared tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.metrics.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    pub fn ctx(&mut self, key: &'static str, value: Value) {
        self.context.push((key, value));
    }

    /// The final result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, with every metric of the mode's table present.
    pub fn result_line(&self, trace: bool) -> String {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics = table
            .iter()
            .map(|&(name, unit)| {
                (
                    name,
                    object(vec![
                        ("value", Value::Number(self.get(name))),
                        ("unit", Value::String(unit.to_string())),
                    ]),
                )
            })
            .collect();
        print(&object(vec![
            (
                "correct",
                Value::Bool(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted", Value::Number(self.attempted.max(1) as f64)),
            ("failed", Value::Number(self.failed as f64)),
            ("metrics", object(metrics)),
        ]))
    }
}

/// Seconds to µs / ms.
pub fn us(s: f64) -> f64 {
    s * 1e6
}

pub fn ms(s: f64) -> f64 {
    s * 1e3
}

/// Time one call, in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, secs(t))
}
