//! Unified `GNCG_*` configuration.
//!
//! Every knob of the workspace is an environment variable with a strict,
//! frozen semantic (the oracle and trace tests depend on the exact parse
//! rules). This crate is the **only** place those variables are read —
//! `tools/ci.sh` greps for `env::var("GNCG_` outside `crates/config` and
//! fails the build on a hit — so the parse rules live in one place
//! instead of six:
//!
//! | variable                    | accessor                       | semantics |
//! |-----------------------------|--------------------------------|-----------|
//! | `GNCG_THREADS`              | [`env::threads`]               | parsed `usize`, unparsable ⇒ unset; cached at first read |
//! | `GNCG_BUDGET_MS`            | [`env::budget_ms`]             | parsed `u64`, unparsable ⇒ unset; cached at first read |
//! | `GNCG_FAULT_INJECT`         | [`env::fault_inject`]          | parsed `f64`, unparsable ⇒ unset; cached at first read |
//! | `GNCG_TRACE`                | [`env::trace`]                 | on iff `"1"` or case-insensitive `"true"`; cached at first read |
//! | `GNCG_ARENA_DEBUG`          | [`env::arena_debug`]           | on iff `"1"` or case-insensitive `"true"` (same rule as `GNCG_TRACE`); cached at first read |
//! | `GNCG_RESULTS_DIR`          | [`env::results_dir`]           | path override; **re-read on every call** (tests retarget it at runtime) |
//! | `GNCG_CACHE_DIR`            | [`env::cache_dir`]             | content-addressed result-cache directory; unset ⇒ cache off; **re-read on every call** (tests retarget it at runtime) |
//! | `GNCG_MODEL`                | [`env::model`]                 | `"sum"`/`""` ⇒ [`ModelKind::SumDistances`], `"maxdist"`/`"max"` ⇒ [`ModelKind::MaxDistance`] (any case), unset ⇒ no choice, anything else ⇒ error; cached at first read |
//! | `GNCG_NET_FAULT_INJECT`     | [`env::net_fault_inject`]      | parsed `f64`, unparsable ⇒ unset; cached at first read |
//! | `GNCG_SERVE_ADDR`           | [`env::serve_addr`]            | listen/connect address, default `127.0.0.1:7117`; cached at first read |
//! | `GNCG_SERVE_MAX_CONNS`      | ([`ServeConfig`])              | parsed `usize`, default 512; cached at first read |
//! | `GNCG_SERVE_QUOTA`          | ([`ServeConfig`])              | per-client outstanding-job quota, default 16; cached at first read |
//! | `GNCG_SERVE_MAX_FRAME`      | ([`ServeConfig`])              | frame-size cap in bytes, default 16 MiB; cached at first read |
//! | `GNCG_SERVE_WRITE_TIMEOUT_MS` | ([`ServeConfig`])            | per-connection write timeout, default 2000; cached at first read |
//! | `GNCG_SERVE_OUTBUF`         | ([`ServeConfig`])              | bounded outbound buffer in frames, default 1024; cached at first read |
//! | `GNCG_SERVE_TIMEOUT_MS`     | ([`ServeConfig`])              | client per-request deadline, default 30000; cached at first read |
//! | `GNCG_SERVE_RETRIES`        | ([`ServeConfig`])              | client resubmission cap, default 16; cached at first read |
//!
//! Caching is *lazy per variable*: nothing is read until the first
//! consumer asks, so a test that sets `GNCG_THREADS` before the first
//! parallel call still takes effect — exactly the semantics the
//! scattered `OnceLock`s had before this crate existed.
//!
//! Embedders that must not depend on the process environment configure
//! the job engine through `gncg_service::SessionBuilder` (worker count,
//! default budget) and each solve through `gncg_game::SolverConfig`;
//! the process-global toggles (`GNCG_TRACE`, `GNCG_FAULT_INJECT`) have
//! runtime setters in their owning crates.

use std::path::PathBuf;
use std::sync::OnceLock;

/// Exit code of a process whose work was interrupted by budget
/// exhaustion with a checkpoint kept for resume (`EX_TEMPFAIL` from
/// `sysexits.h`). One constant shared by the repro binaries, the `gncg`
/// CLI, and the remote-client paths, so "re-run to resume" is the same
/// contract everywhere.
pub const INTERRUPTED_EXIT: i32 = 75;

/// Which agent objective the solvers should optimize (`GNCG_MODEL`).
///
/// Defined here (rather than in `gncg-game`) because the config crate is
/// upstream of every consumer; `gncg-game` re-exports it alongside the
/// `CostModel` trait whose monomorphized implementations it selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ModelKind {
    /// The paper's objective: `α·buy + Σ_v d_G(u, v)`.
    #[default]
    SumDistances,
    /// The max-distance (egalitarian) objective of Bilò–Gualà–Leucci–
    /// Proietti (arXiv 1407.0643): `α·buy + max_v d_G(u, v)`.
    MaxDistance,
}

impl ModelKind {
    /// Canonical lowercase name, matching the `GNCG_MODEL` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ModelKind::SumDistances => "sum",
            ModelKind::MaxDistance => "maxdist",
        }
    }

    /// The kind whose [`ModelKind::as_str`] spelling is exactly `name`;
    /// `None` for anything else (no case folding, no aliases). Wire
    /// frames, sweep specs and stored reports all parse through this.
    pub fn from_name(name: &str) -> Option<Self> {
        [ModelKind::SumDistances, ModelKind::MaxDistance]
            .into_iter()
            .find(|kind| kind.as_str() == name)
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Pure parse rules for the `GNCG_*` variables, shared by the cached
/// accessors and unit-testable without touching the process environment.
pub mod parse {
    /// `GNCG_TRACE` semantics: on iff `"1"` or case-insensitive `"true"`.
    pub fn trace_on(value: Option<&str>) -> bool {
        value.is_some_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
    }

    /// Numeric semantics shared by `GNCG_THREADS`, `GNCG_BUDGET_MS`,
    /// `GNCG_FAULT_INJECT`: a set but unparsable value behaves like an
    /// unset one.
    pub fn number<T: std::str::FromStr>(value: Option<&str>) -> Option<T> {
        value.and_then(|v| v.parse().ok())
    }

    /// `GNCG_MODEL` semantics: unset ⇒ `Ok(None)`, no explicit choice
    /// (binaries run the paper's sum objective, model-parameterized
    /// test harnesses sweep every model); `""` or `"sum"` ⇒ sum,
    /// `"maxdist"` or `"max"` ⇒ max-distance, in any case; anything
    /// else is an error naming the accepted values, so a typo can never
    /// silently change which numbers a run reports.
    pub fn model(value: Option<&str>) -> Result<Option<super::ModelKind>, String> {
        let Some(v) = value else { return Ok(None) };
        match v.to_ascii_lowercase().as_str() {
            "" => Ok(Some(super::ModelKind::SumDistances)),
            "max" => Ok(Some(super::ModelKind::MaxDistance)),
            name => super::ModelKind::from_name(name).map(Some).ok_or_else(|| {
                format!(
                    "{}={v:?} is not a model; accepted: sum, maxdist, max \
                     (any case; empty or unset means sum)",
                    super::env::MODEL_VAR
                )
            }),
        }
    }
}

/// Cached-per-variable environment accessors. This module is the single
/// point in the workspace where `GNCG_*` variables are read.
pub mod env {
    use super::*;

    fn read(name: &str) -> Option<String> {
        std::env::var(name).ok()
    }

    /// `GNCG_THREADS`: requested worker-thread count. `None` when unset
    /// or unparsable (the consumer falls back to
    /// `available_parallelism`). Cached at first read.
    pub fn threads() -> Option<usize> {
        static CACHE: OnceLock<Option<usize>> = OnceLock::new();
        *CACHE.get_or_init(|| parse::number(read("GNCG_THREADS").as_deref()))
    }

    /// `GNCG_BUDGET_MS`: process-wide default solve budget in
    /// milliseconds. `None` ⇒ unlimited. Cached at first read.
    pub fn budget_ms() -> Option<u64> {
        static CACHE: OnceLock<Option<u64>> = OnceLock::new();
        *CACHE.get_or_init(|| parse::number(read("GNCG_BUDGET_MS").as_deref()))
    }

    /// `GNCG_FAULT_INJECT`: injected-fault probability in `[0, 1]`
    /// (clamping is the injector's job). Cached at first read.
    pub fn fault_inject() -> Option<f64> {
        static CACHE: OnceLock<Option<f64>> = OnceLock::new();
        *CACHE.get_or_init(|| parse::number(read("GNCG_FAULT_INJECT").as_deref()))
    }

    /// `GNCG_TRACE`: observability gate. Cached at first read.
    pub fn trace() -> bool {
        static CACHE: OnceLock<bool> = OnceLock::new();
        *CACHE.get_or_init(|| parse::trace_on(read("GNCG_TRACE").as_deref()))
    }

    /// `GNCG_ARENA_DEBUG`: arms the scratch-arena debug tripwires
    /// (double-return / foreign-thread-return assertions in
    /// `gncg_parallel::arena`). Same on-rule as `GNCG_TRACE`; default
    /// off so the assertions cost nothing in production runs. Cached at
    /// first read.
    pub fn arena_debug() -> bool {
        static CACHE: OnceLock<bool> = OnceLock::new();
        *CACHE.get_or_init(|| parse::trace_on(read("GNCG_ARENA_DEBUG").as_deref()))
    }

    /// `GNCG_RESULTS_DIR`: report output directory override.
    ///
    /// **Deliberately uncached**: the report tests retarget the results
    /// directory at runtime between saves, so this is re-read on every
    /// call — the one variable with dynamic semantics.
    pub fn results_dir() -> Option<PathBuf> {
        read("GNCG_RESULTS_DIR").map(PathBuf::from)
    }

    /// `GNCG_CACHE_DIR`: content-addressed result-cache directory.
    /// Unset ⇒ the cache is off entirely (the default, so existing
    /// flows and the perf gate are untouched).
    ///
    /// **Deliberately uncached**, like [`results_dir`]: the cache tests
    /// retarget the directory between runs (cold vs. warm vs. off), so
    /// this is re-read on every call.
    pub fn cache_dir() -> Option<PathBuf> {
        read("GNCG_CACHE_DIR").map(PathBuf::from)
    }

    /// Name of the variable [`model`] reads — for tests that set it on
    /// a child process.
    pub const MODEL_VAR: &str = "GNCG_MODEL";

    /// `GNCG_MODEL`: the agent objective the binaries and the
    /// model-parameterized test harnesses target, under the rules of
    /// [`parse::model`]. `Ok(None)` when unset. Cached at first read.
    pub fn model() -> Result<Option<ModelKind>, String> {
        static CACHE: OnceLock<Result<Option<ModelKind>, String>> = OnceLock::new();
        CACHE
            .get_or_init(|| parse::model(read(MODEL_VAR).as_deref()))
            .clone()
    }

    /// `GNCG_NET_FAULT_INJECT`: injected network-fault probability in
    /// `[0, 1]` for the `gncg-serve` frame-boundary injector (clamping
    /// is the injector's job). Cached at first read.
    pub fn net_fault_inject() -> Option<f64> {
        static CACHE: OnceLock<Option<f64>> = OnceLock::new();
        *CACHE.get_or_init(|| parse::number(read("GNCG_NET_FAULT_INJECT").as_deref()))
    }

    /// `GNCG_SERVE_ADDR`: the service-tier listen/connect address.
    /// Cached at first read.
    pub fn serve_addr() -> Option<String> {
        static CACHE: OnceLock<Option<String>> = OnceLock::new();
        CACHE.get_or_init(|| read("GNCG_SERVE_ADDR")).clone()
    }

    /// The full `GNCG_SERVE_*` knob set, snapshotted once. See
    /// [`ServeConfig`] for each variable's semantics.
    pub fn serve() -> &'static ServeConfig {
        static CACHE: OnceLock<ServeConfig> = OnceLock::new();
        CACHE.get_or_init(|| ServeConfig {
            addr: serve_addr().unwrap_or_else(|| ServeConfig::DEFAULT_ADDR.to_string()),
            max_conns: parse::number(read("GNCG_SERVE_MAX_CONNS").as_deref()).unwrap_or(512),
            quota: parse::number(read("GNCG_SERVE_QUOTA").as_deref()).unwrap_or(16),
            max_frame: parse::number(read("GNCG_SERVE_MAX_FRAME").as_deref()).unwrap_or(16 << 20),
            write_timeout_ms: parse::number(read("GNCG_SERVE_WRITE_TIMEOUT_MS").as_deref())
                .unwrap_or(2_000),
            outbuf_frames: parse::number(read("GNCG_SERVE_OUTBUF").as_deref()).unwrap_or(1_024),
            timeout_ms: parse::number(read("GNCG_SERVE_TIMEOUT_MS").as_deref()).unwrap_or(30_000),
            retries: parse::number(read("GNCG_SERVE_RETRIES").as_deref()).unwrap_or(16),
        })
    }
}

/// The `GNCG_SERVE_*` knob set of the `gncg-serve` network tier. Every
/// numeric knob follows the [`parse::number`] rule (set-but-unparsable
/// behaves like unset, falling back to the documented default); all are
/// cached at first read via [`env::serve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Listen (server) / connect (client) address
    /// (`GNCG_SERVE_ADDR`, default [`ServeConfig::DEFAULT_ADDR`]).
    pub addr: String,
    /// Maximum simultaneously-open client connections
    /// (`GNCG_SERVE_MAX_CONNS`, default 512). Excess connects are
    /// closed after a typed rejection frame.
    pub max_conns: usize,
    /// Per-client cap on outstanding (admitted, unresolved) jobs
    /// (`GNCG_SERVE_QUOTA`, default 16), layered *on top of* the
    /// session's two-lane queue capacities: one tenant exhausting its
    /// quota cannot occupy another tenant's lane slots.
    pub quota: usize,
    /// Frame-size cap in bytes (`GNCG_SERVE_MAX_FRAME`, default
    /// 16 MiB). An incoming length prefix above the cap is a typed
    /// protocol error and closes the connection (the stream cannot be
    /// resynchronized).
    pub max_frame: usize,
    /// Per-connection socket write timeout in milliseconds
    /// (`GNCG_SERVE_WRITE_TIMEOUT_MS`, default 2000). A write that
    /// stalls this long marks the client dead and reaps the connection.
    pub write_timeout_ms: u64,
    /// Bounded per-connection outbound buffer, in frames
    /// (`GNCG_SERVE_OUTBUF`, default 1024). A slow reader whose buffer
    /// stays full is disconnected instead of wedging dispatch.
    pub outbuf_frames: usize,
    /// Client-side per-request deadline in milliseconds
    /// (`GNCG_SERVE_TIMEOUT_MS`, default 30000): connect, retries, and
    /// result wait all share it.
    pub timeout_ms: u64,
    /// Client-side cap on resubmission attempts per request
    /// (`GNCG_SERVE_RETRIES`, default 16).
    pub retries: u32,
}

impl ServeConfig {
    /// Default service-tier address (loopback; serving publicly is an
    /// explicit `GNCG_SERVE_ADDR` decision).
    pub const DEFAULT_ADDR: &'static str = "127.0.0.1:7117";
}

impl Default for ServeConfig {
    /// All knobs at their documented defaults, ignoring the
    /// environment.
    fn default() -> Self {
        Self {
            addr: Self::DEFAULT_ADDR.to_string(),
            max_conns: 512,
            quota: 16,
            max_frame: 16 << 20,
            write_timeout_ms: 2_000,
            outbuf_frames: 1_024,
            timeout_ms: 30_000,
            retries: 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_parse_rules_are_frozen() {
        assert!(parse::trace_on(Some("1")));
        assert!(parse::trace_on(Some("true")));
        assert!(parse::trace_on(Some("TRUE")));
        assert!(parse::trace_on(Some("True")));
        assert!(!parse::trace_on(Some("0")));
        assert!(!parse::trace_on(Some("yes")));
        assert!(!parse::trace_on(Some("")));
        assert!(!parse::trace_on(None));
    }

    #[test]
    fn numeric_parse_treats_garbage_as_unset() {
        assert_eq!(parse::number::<usize>(Some("4")), Some(4));
        assert_eq!(parse::number::<usize>(Some("four")), None);
        assert_eq!(parse::number::<usize>(Some("")), None);
        assert_eq!(parse::number::<usize>(None), None);
        assert_eq!(parse::number::<u64>(Some("250")), Some(250));
        assert_eq!(parse::number::<f64>(Some("0.02")), Some(0.02));
    }

    #[test]
    fn model_parse_rules_are_frozen() {
        let sum = Ok(Some(ModelKind::SumDistances));
        let max = Ok(Some(ModelKind::MaxDistance));
        assert_eq!(parse::model(None), Ok(None));
        assert_eq!(parse::model(Some("")), sum);
        assert_eq!(parse::model(Some("sum")), sum);
        assert_eq!(parse::model(Some("SUM")), sum);
        assert_eq!(parse::model(Some("maxdist")), max);
        assert_eq!(parse::model(Some("MAXDIST")), max);
        assert_eq!(parse::model(Some("max")), max);
        assert_eq!(parse::model(Some("Max")), max);
        for typo in ["sumdist", "garbage", "maxdst", " sum"] {
            let err = parse::model(Some(typo)).unwrap_err();
            assert!(err.contains("sum, maxdist, max"), "{err}");
        }
        // the canonical spellings, and only they, name a kind exactly
        for kind in [ModelKind::SumDistances, ModelKind::MaxDistance] {
            assert_eq!(ModelKind::from_name(kind.as_str()), Some(kind));
            assert_eq!(parse::model(Some(kind.as_str())), Ok(Some(kind)));
        }
        assert_eq!(ModelKind::from_name("max"), None);
        assert_eq!(ModelKind::from_name("Sum"), None);
    }

    #[test]
    fn serve_defaults_are_frozen() {
        // the serve tier's soak tests and the client/server pair both
        // assume these defaults; a drift here desynchronizes them
        let s = ServeConfig::default();
        assert_eq!(s.addr, "127.0.0.1:7117");
        assert_eq!(s.max_conns, 512);
        assert_eq!(s.quota, 16);
        assert_eq!(s.max_frame, 16 << 20);
        assert_eq!(s.write_timeout_ms, 2_000);
        assert_eq!(s.outbuf_frames, 1_024);
        assert_eq!(s.timeout_ms, 30_000);
        assert_eq!(s.retries, 16);
    }

    #[test]
    fn results_dir_is_dynamic() {
        // the one accessor that must re-read the environment per call:
        // retarget, observe, restore
        let key = "GNCG_RESULTS_DIR";
        let before = std::env::var(key).ok();
        std::env::set_var(key, "/tmp/gncg_cfg_a");
        assert_eq!(env::results_dir(), Some(PathBuf::from("/tmp/gncg_cfg_a")));
        std::env::set_var(key, "/tmp/gncg_cfg_b");
        assert_eq!(env::results_dir(), Some(PathBuf::from("/tmp/gncg_cfg_b")));
        match before {
            Some(v) => std::env::set_var(key, v),
            None => std::env::remove_var(key),
        }
    }
}
