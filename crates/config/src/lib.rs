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
//! | `GNCG_THREADS`              | [`env::threads`]               | `usize`; cached at first read |
//! | `GNCG_BUDGET_MS`            | [`env::budget_ms`]             | `u64`; cached at first read |
//! | `GNCG_FAULT_INJECT`         | [`env::fault_inject`]          | probability in `[0, 1]`; cached at first read |
//! | `GNCG_TRACE`                | [`env::trace`]                 | flag: `1`/`true` on, `0`/`false` off (any case); cached at first read |
//! | `GNCG_ARENA_DEBUG`          | [`env::arena_debug`]           | flag, same rule as `GNCG_TRACE`; cached at first read |
//! | `GNCG_RESULTS_DIR`          | [`env::results_dir`]           | path override; **re-read on every call** (tests retarget it at runtime) |
//! | `GNCG_CACHE_DIR`            | [`env::cache_dir`]             | content-addressed result-cache directory; unset ⇒ cache off; **re-read on every call** (tests retarget it at runtime) |
//! | `GNCG_MODEL`                | [`env::model`]                 | `"sum"`/`""` ⇒ [`ModelKind::SumDistances`], `"maxdist"`/`"max"` ⇒ [`ModelKind::MaxDistance`] (any case), unset ⇒ no choice, anything else ⇒ error; cached at first read |
//! | `GNCG_NET_FAULT_INJECT`     | [`env::net_fault_inject`]      | probability in `[0, 1]`; cached at first read |
//! | `GNCG_SERVE_ADDR`           | [`env::serve_addr`]            | listen/connect address, default [`ServeConfig::DEFAULT_ADDR`]; cached at first read |
//!
//! Values are strict: unset or empty means "not set", and any other
//! value must parse under the variable's rule or it is an error naming
//! the variable and the value — never a silent fallback. Entry points
//! call [`env::check`] first and exit 2 with its message; a cached
//! accessor that an unchecked caller reaches with a bad value panics
//! with the same message. `GNCG_MODEL` keeps its own `Result`, checked
//! by the subcommands that run a model.
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
/// Each takes the variable's name for its error message.
pub mod parse {
    /// Flag semantics (`GNCG_TRACE`, `GNCG_ARENA_DEBUG`): `"1"` or
    /// `"true"` is on, `"0"` or `"false"` is off (any case), unset or
    /// empty is off, anything else is an error.
    pub fn flag(name: &str, value: Option<&str>) -> Result<bool, String> {
        match value.unwrap_or("") {
            "" | "0" => Ok(false),
            "1" => Ok(true),
            v if v.eq_ignore_ascii_case("true") => Ok(true),
            v if v.eq_ignore_ascii_case("false") => Ok(false),
            v => Err(format!(
                "{name}={v:?} is not a flag; accepted: 1, true, 0, false (any case; empty or unset means off)"
            )),
        }
    }

    /// Numeric semantics (`GNCG_THREADS`, `GNCG_BUDGET_MS`): unset or
    /// empty ⇒ `Ok(None)`; any other value must parse as a `T`.
    pub fn number<T: std::str::FromStr>(
        name: &str,
        value: Option<&str>,
    ) -> Result<Option<T>, String> {
        match value {
            None | Some("") => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}={v:?} is not a valid number")),
        }
    }

    /// Fault-probability semantics (`GNCG_FAULT_INJECT`,
    /// `GNCG_NET_FAULT_INJECT`): [`number`], and the value must lie in
    /// `[0, 1]`.
    pub fn probability(name: &str, value: Option<&str>) -> Result<Option<f64>, String> {
        let p = number::<f64>(name, value)?;
        if p.is_some_and(|p| !(0.0..=1.0).contains(&p)) {
            return Err(format!(
                "{name}={:?} is not a probability in [0, 1]",
                value.unwrap_or_default()
            ));
        }
        Ok(p)
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

    /// One strictly-parsed variable: `rule` runs on its value at first
    /// use, and the outcome is cached.
    struct Var<T: 'static> {
        name: &'static str,
        rule: fn(&str, Option<&str>) -> Result<T, String>,
        cell: OnceLock<Result<T, String>>,
    }

    impl<T: Clone> Var<T> {
        const fn new(
            name: &'static str,
            rule: fn(&str, Option<&str>) -> Result<T, String>,
        ) -> Self {
            let cell = OnceLock::new();
            Self { name, rule, cell }
        }

        fn parsed(&self) -> &Result<T, String> {
            let Self { name, rule, cell } = self;
            cell.get_or_init(|| rule(name, read(name).as_deref()))
        }

        /// The value; a bad one panics with the message [`check`] reports.
        fn get(&self) -> T {
            self.parsed().clone().unwrap_or_else(|e| panic!("{e}"))
        }
    }

    static THREADS: Var<Option<usize>> = Var::new("GNCG_THREADS", parse::number);
    static BUDGET_MS: Var<Option<u64>> = Var::new("GNCG_BUDGET_MS", parse::number);
    static FAULT_INJECT: Var<Option<f64>> = Var::new("GNCG_FAULT_INJECT", parse::probability);
    static TRACE: Var<bool> = Var::new("GNCG_TRACE", parse::flag);
    static ARENA_DEBUG: Var<bool> = Var::new("GNCG_ARENA_DEBUG", parse::flag);
    static NET_FAULT_INJECT: Var<Option<f64>> =
        Var::new("GNCG_NET_FAULT_INJECT", parse::probability);

    /// Read every strictly-parsed variable once; the first bad value is
    /// the error. Entry points call this before any work and exit 2
    /// with its message.
    pub fn check() -> Result<(), String> {
        THREADS.parsed().clone()?;
        BUDGET_MS.parsed().clone()?;
        FAULT_INJECT.parsed().clone()?;
        TRACE.parsed().clone()?;
        ARENA_DEBUG.parsed().clone()?;
        NET_FAULT_INJECT.parsed().clone()?;
        Ok(())
    }

    /// `GNCG_THREADS`: requested worker-thread count. `None` when unset
    /// (the consumer falls back to `available_parallelism`). Cached at
    /// first read.
    pub fn threads() -> Option<usize> {
        THREADS.get()
    }

    /// `GNCG_BUDGET_MS`: process-wide default solve budget in
    /// milliseconds. `None` ⇒ unlimited. Cached at first read.
    pub fn budget_ms() -> Option<u64> {
        BUDGET_MS.get()
    }

    /// `GNCG_FAULT_INJECT`: injected-fault probability in `[0, 1]`.
    /// Cached at first read.
    pub fn fault_inject() -> Option<f64> {
        FAULT_INJECT.get()
    }

    /// `GNCG_TRACE`: observability gate. Cached at first read.
    pub fn trace() -> bool {
        TRACE.get()
    }

    /// `GNCG_ARENA_DEBUG`: arms the scratch-arena debug tripwires
    /// (double-return / foreign-thread-return assertions in
    /// `gncg_parallel::arena`). Same flag rule as `GNCG_TRACE`; default
    /// off so the assertions cost nothing in production runs. Cached at
    /// first read.
    pub fn arena_debug() -> bool {
        ARENA_DEBUG.get()
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
    /// `[0, 1]` for the `gncg-serve` frame-boundary injector. Cached at
    /// first read.
    pub fn net_fault_inject() -> Option<f64> {
        NET_FAULT_INJECT.get()
    }

    /// `GNCG_SERVE_ADDR`: the service-tier listen/connect address.
    /// Cached at first read.
    pub fn serve_addr() -> Option<String> {
        static CACHE: OnceLock<Option<String>> = OnceLock::new();
        CACHE.get_or_init(|| read("GNCG_SERVE_ADDR")).clone()
    }
}

/// The `gncg-serve` network tier's one setting, its address. Its limits
/// (connections, per-client quota, frame cap, timeouts, buffers,
/// retries) are constants of `gncg-serve` itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Listen (server) / connect (client) address
    /// (`GNCG_SERVE_ADDR`, default [`ServeConfig::DEFAULT_ADDR`]).
    pub addr: String,
}

impl ServeConfig {
    /// Default service-tier address (loopback; serving publicly is an
    /// explicit `GNCG_SERVE_ADDR` decision).
    pub const DEFAULT_ADDR: &'static str = "127.0.0.1:7117";
}

impl Default for ServeConfig {
    /// [`ServeConfig::DEFAULT_ADDR`], ignoring the environment.
    fn default() -> Self {
        Self {
            addr: Self::DEFAULT_ADDR.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_parse_rules_are_frozen() {
        let flag = |v| parse::flag("GNCG_TRACE", v);
        for (v, on) in [("1", true), ("TRUE", true), ("True", true), ("0", false)] {
            assert_eq!(flag(Some(v)), Ok(on), "{v}");
        }
        for off in [Some("false"), Some("FALSE"), Some(""), None] {
            assert_eq!(flag(off), Ok(false), "{off:?}");
        }
        for bad in ["yes", "on", "2", " 1"] {
            let err = flag(Some(bad)).unwrap_err();
            assert!(err.contains(&format!("GNCG_TRACE={bad:?}")), "{err}");
        }
    }

    #[test]
    fn numeric_parse_rules_are_frozen() {
        assert_eq!(parse::number("GNCG_THREADS", Some("4")), Ok(Some(4usize)));
        assert_eq!(
            parse::number("GNCG_BUDGET_MS", Some("250")),
            Ok(Some(250u64))
        );
        for (v, p) in [("0", 0.0), ("0.02", 0.02), ("1", 1.0)] {
            assert_eq!(
                parse::probability("GNCG_FAULT_INJECT", Some(v)),
                Ok(Some(p))
            );
        }
        for unset in [None, Some("")] {
            assert_eq!(parse::number::<usize>("GNCG_THREADS", unset), Ok(None));
            assert_eq!(parse::probability("GNCG_FAULT_INJECT", unset), Ok(None));
        }
    }

    #[test]
    fn numeric_parse_rejects_garbage() {
        for bad in ["four", "-1", " 4", "1.5"] {
            let err = parse::number::<u64>("GNCG_BUDGET_MS", Some(bad)).unwrap_err();
            assert!(err.contains(&format!("GNCG_BUDGET_MS={bad:?}")), "{err}");
        }
        for bad in ["often", "1.5", "-0.1", "NaN", "inf"] {
            let err = parse::probability("GNCG_NET_FAULT_INJECT", Some(bad)).unwrap_err();
            assert!(
                err.contains(&format!("GNCG_NET_FAULT_INJECT={bad:?}")),
                "{err}"
            );
        }
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
    fn serve_default_address_is_frozen() {
        assert_eq!(ServeConfig::default().addr, "127.0.0.1:7117");
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
