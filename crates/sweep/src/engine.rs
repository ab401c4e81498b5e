//! The spec-to-jobs compiler: expand a [`SweepSpec`] into units, run
//! each through the content-addressed cache and (optionally) a
//! [`Session`], and assemble the deterministic [`Report`].
//!
//! # Execution model
//!
//! The engine runs on the **caller's thread**, iterating units in the
//! spec's deterministic order. Each unit is two cacheable steps:
//!
//! 1. **network** — generate the instance points (cheap, always done
//!    inline), then build the network and measure its diameter
//!    (cached under [`crate::spec::network_key`] as
//!    `{network, diameter}`);
//! 2. **certify** — the (β, γ) certification (cached under
//!    [`crate::spec::certify_key`]). On a miss it runs inline, or as a
//!    `Session::submit_certify` job when a session is given — the
//!    serve tier uses the inline path so a sweep executing *inside* a
//!    session job never submits nested jobs (deadlock at one worker).
//!
//! The engine is the only code that gets from or puts to the result
//! cache: the session runs every job it is given and holds no cache,
//! so a warm unit submits no job at all. Both paths produce
//! bit-identical reports: every kernel underneath is deterministic and
//! the cache only ever serves bytes a run of either path would have
//! produced.
//!
//! # Cache consistency
//!
//! A unit with a wall-clock budget (`job.budget_ms` set) can degrade
//! nondeterministically, so the cache is bypassed entirely for it — no
//! get, no put. Budget-free units always pass an explicitly unlimited
//! budget to the certifier so the ambient `GNCG_BUDGET_MS` cannot leak
//! nondeterminism into a cacheable result. An entry whose payload does
//! not decode (an older shape, such as a network entry that carried
//! the whole distance matrix) is a miss and is overwritten.
//!
//! # Checkpoint/resume
//!
//! Units are checkpointed under their row-params key via
//! [`SweepCheckpoint`], exactly like the repro binaries; the engine
//! polls its own run budget *between* units and reports
//! `interrupted = true` (checkpoint kept) when it trips.
//!
//! The *ambient* budget (the one a serve-tier sweep job runs under)
//! can also trip mid-unit, and then the parallel kernels underneath
//! return partial output. So a unit whose ambient budget is exhausted
//! once its steps have run is thrown away: its values are not cached,
//! not checkpointed and not pushed, and the run reports `interrupted`.

use std::sync::Arc;

use gncg_game::certify::{certify, CertifyReport};
use gncg_game::{OwnedNetwork, SolverConfig};
use gncg_geometry::{generators, PointSet};
use gncg_graph::{apsp, Graph};
use gncg_json::{canon, object, FromJson, ToJson, Value};
use gncg_parallel::Budget;
use gncg_service::cache::ResultCache;
use gncg_service::{JobOptions, Session};

use crate::checkpoint::SweepCheckpoint;
use crate::spec::{certify_key, fmt_num, network_key, SweepSpec, SweepUnit};
use crate::Report;

/// What a sweep run produced.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The assembled report (complete, or partial when interrupted).
    pub report: Report,
    /// The run budget tripped between units; the checkpoint was kept
    /// and a re-run resumes.
    pub interrupted: bool,
    /// Units in the spec.
    pub units_total: usize,
    /// Units completed (computed, cached, or replayed) this run.
    pub units_done: usize,
}

/// Generate a unit's point set — the same generator mapping the `gncg`
/// CLI uses, frozen here because the instance bytes are part of the
/// content address's meaning: same `(generator, n, seed)` must mean the
/// same points forever.
pub fn generate_points(generator: &str, n: usize, seed: u64) -> PointSet {
    match generator {
        "uniform" => generators::uniform_unit_square(n, seed),
        "grid" => {
            let side = (n as f64).sqrt().ceil() as usize;
            generators::integer_grid(&[side.saturating_sub(1), side.saturating_sub(1)])
        }
        "cluster" => generators::cluster_with_outliers(
            n.saturating_sub(n / 10).max(1),
            n / 10,
            2,
            0.05,
            5.0,
            8.0,
            seed,
        ),
        // Fixed chain growth factor: the instance must not depend on the
        // unit's α or the same (generator, n, seed) key would name
        // different point sets.
        "chain" => generators::geometric_chain(n.max(2) - 1, 2.0),
        other => panic!("unknown generator `{other}` survived spec validation"),
    }
}

/// Build a unit's network — the one method table, shared with
/// `gncg build`, frozen for the same reason as [`generate_points`].
pub fn build_network(method: &str, ps: &PointSet, alpha: f64) -> OwnedNetwork {
    match method {
        "combined" => gncg_algo::build_beta_beta_network(ps, alpha),
        "alg1" => {
            let params = gncg_algo::params::corollary_3_8_params(alpha, ps.len().max(2));
            gncg_algo::run_algorithm1(ps, alpha, params).network
        }
        "mst" => gncg_algo::mst_network::mst_network(ps),
        "complete" => gncg_algo::complete::complete_network(ps.len()),
        "star" => gncg_algo::star::center_star(ps.len(), gncg_algo::star::best_star_center(ps)),
        other => panic!("unknown method `{other}` survived spec validation"),
    }
}

/// Largest finite shortest-path distance of `g` (the network diameter;
/// 0 for a single vertex, skipping the `+inf` of disconnected pairs),
/// taken row by row without a distance matrix. Max is exact, so this is
/// bit-identical to the maximum over the full matrix.
fn diameter(g: &Graph) -> f64 {
    let finite_max = |row: &[f64]| {
        row.iter()
            .copied()
            .filter(|x| x.is_finite())
            .fold(0.0, f64::max)
    };
    apsp::distance_aggregates(g, finite_max)
        .into_iter()
        .fold(0.0, f64::max)
}

/// Whether the ambient budget (see module docs) is exhausted: output
/// computed under it may be partial and must not be kept.
fn ambient_exhausted() -> bool {
    gncg_parallel::current_budget().is_some_and(|b| b.exhausted())
}

/// The network step: cached `(network, diameter)` for one unit.
fn network_step(
    spec: &SweepSpec,
    unit: &SweepUnit,
    ps: &PointSet,
    cache: Option<&ResultCache>,
) -> (OwnedNetwork, f64) {
    let key = network_key(&spec.generator, unit.n, unit.seed, &unit.method, unit.alpha);
    let hit = cache.and_then(|c| c.get(&key)).and_then(|payload| {
        let net = OwnedNetwork::from_json(payload.get("network")?).ok()?;
        Some((net, payload.get("diameter")?.as_f64()?))
    });
    // A hash-valid but schema-incompatible entry (an older shape) is a
    // miss: it is recomputed and overwritten below.
    if let Some(hit) = hit {
        return hit;
    }
    let net = build_network(&unit.method, ps, unit.alpha);
    let diam = diameter(&net.graph(ps));
    if let Some(cache) = cache.filter(|_| !ambient_exhausted()) {
        let _ = cache.put(
            &key,
            &object(vec![
                ("network", net.to_json()),
                ("diameter", Value::Number(diam)),
            ]),
        );
    }
    (net, diam)
}

/// The certify step: the cached report under `key`, else one computed
/// inline (`session: None`) or by a session job, written back unless
/// the ambient budget ran out meanwhile. The one place the sweep tier
/// reads or writes certify entries.
fn certify_step(
    key: &str,
    ps: &PointSet,
    net: &OwnedNetwork,
    alpha: f64,
    cfg: SolverConfig,
    cache: Option<&ResultCache>,
    session: Option<&Session>,
) -> CertifyReport {
    let hit = cache
        .and_then(|c| c.get(key))
        .and_then(|payload| CertifyReport::from_json(&payload).ok());
    if let Some(report) = hit {
        return report;
    }
    let report = match session {
        Some(session) => {
            let job = JobOptions::with_budget(&cfg.budget);
            session
                .submit_certify(Arc::new(ps.clone()), net.clone(), alpha, cfg, job)
                .unwrap_or_else(|e| panic!("sweep unit rejected by the service: {e}"))
                .wait()
                .unwrap_or_else(|e| panic!("sweep unit failed: {e}"))
        }
        None => certify(ps, net, alpha, &cfg),
    };
    if let Some(cache) = cache.filter(|_| !ambient_exhausted()) {
        let _ = cache.put(key, &report.to_json());
    }
    report
}

/// Run `spec` to a [`Report`].
///
/// * `cache` — the content-addressed cache, or `None` (direct solver).
/// * `session` — submit each certify as a session job (`Some`), or run
///   it inline on this thread (`None`; required when already inside a
///   session job).
/// * `budget` — the *run* budget: polled between units; on exhaustion
///   the checkpoint is kept and `interrupted` is set.
/// * `checkpoint_path` — where completed units are recorded; `None`
///   uses `results_dir()/<id>.checkpoint.json` like the repro binaries.
pub fn run_spec(
    spec: &SweepSpec,
    cache: Option<Arc<ResultCache>>,
    session: Option<&Session>,
    budget: &Budget,
    checkpoint_path: Option<std::path::PathBuf>,
) -> SweepOutcome {
    // The cache-consistency rule: budgeted units are never cached.
    let cache = cache.filter(|_| spec.budget_ms.is_none());
    let unit_budget = match spec.budget_ms {
        Some(ms) => Budget::with_limit(std::time::Duration::from_millis(ms)),
        None => Budget::unlimited(),
    };
    let mut ckpt = match checkpoint_path {
        Some(p) => SweepCheckpoint::open_at(p),
        None => SweepCheckpoint::open(&spec.id),
    };
    let mut report = Report::new(&spec.id, &spec.claim);
    let units = spec.units();
    let units_total = units.len();
    let mut units_done = 0;
    let mut interrupted = false;

    for unit in &units {
        let params = unit.params(&spec.generator);
        let done = !budget.exhausted()
            && ckpt
                .try_rows(&mut report, &params, |report| {
                    let Some(row) = run_unit(spec, unit, cache.as_deref(), session, &unit_budget)
                    else {
                        return false;
                    };
                    report
                        .try_push(params.clone(), None, row.measured, row.ok, &row.note)
                        .unwrap_or_else(|e| panic!("{e}"));
                    true
                })
                .is_some();
        if !done {
            interrupted = true;
            break;
        }
        units_done += 1;
    }

    if !interrupted {
        ckpt.finish();
    }
    SweepOutcome {
        report,
        interrupted,
        units_total,
        units_done,
    }
}

struct UnitRow {
    measured: Option<f64>,
    ok: bool,
    note: String,
}

/// One unit's row, or `None` when the ambient budget ran out during it
/// (module docs).
fn run_unit(
    spec: &SweepSpec,
    unit: &SweepUnit,
    cache: Option<&ResultCache>,
    session: Option<&Session>,
    unit_budget: &Budget,
) -> Option<UnitRow> {
    let ps = generate_points(&spec.generator, unit.n, unit.seed);
    let (net, diam) = network_step(spec, unit, &ps, cache);
    if ambient_exhausted() {
        return None;
    }

    let cfg = if spec.exact {
        SolverConfig::exact()
    } else {
        SolverConfig::bounds_only()
    }
    .with_model(spec.model)
    .with_budget(unit_budget);
    // The evaluation backend axis is pinned: the sweep engine always
    // certifies exactly (the spanner backend returns bracket reports of
    // a different shape). It still participates in the key so a future
    // backend axis cannot collide with today's entries.
    let key = certify_key(
        &spec.generator,
        unit.n,
        unit.seed,
        &unit.method,
        unit.alpha,
        spec.exact,
        spec.model,
        "exact",
        spec.budget_ms,
    );

    let cr = certify_step(&key, &ps, &net, unit.alpha, cfg, cache, session);

    if ambient_exhausted() {
        return None;
    }
    let measured = cr.beta_exact.or(Some(cr.beta_upper));
    Some(UnitRow {
        measured,
        ok: cr.connected,
        note: format!(
            "gamma_upper={} diam={}",
            fmt_num(cr.gamma_upper),
            fmt_num(diam)
        ),
    })
}

/// `gncg sweep plan`: the dry-run view — canonical form, content key,
/// and the unit list with per-unit certify keys. Pure (no solver work).
pub fn plan_spec(spec: &SweepSpec) -> Value {
    let units: Vec<Value> = spec
        .units()
        .iter()
        .map(|u| {
            object(vec![
                ("params", Value::String(u.params(&spec.generator))),
                (
                    "certify_key",
                    Value::String(certify_key(
                        &spec.generator,
                        u.n,
                        u.seed,
                        &u.method,
                        u.alpha,
                        spec.exact,
                        spec.model,
                        "exact",
                        spec.budget_ms,
                    )),
                ),
                (
                    "network_key",
                    Value::String(network_key(
                        &spec.generator,
                        u.n,
                        u.seed,
                        &u.method,
                        u.alpha,
                    )),
                ),
            ])
        })
        .collect();
    object(vec![
        ("sweep", Value::String(spec.id.clone())),
        ("spec_key", Value::String(spec.content_key())),
        ("canonical", canon::canonicalize(&spec.canonical_value())),
        ("units", Value::Array(units)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        for g in ["uniform", "grid", "cluster", "chain"] {
            let a = generate_points(g, 9, 3);
            let b = generate_points(g, 9, 3);
            assert_eq!(
                gncg_json::to_string(&a.to_json()),
                gncg_json::to_string(&b.to_json()),
                "generator {g} not reproducible"
            );
            assert!(a.len() >= 2, "generator {g} made a degenerate instance");
        }
    }

    #[test]
    fn diameter_skips_disconnected_pairs() {
        assert_eq!(diameter(&Graph::new(2)), 0.0);
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 2.5);
        assert_eq!(diameter(&g), 2.5);
        g.add_edge(1, 2, 1.0);
        assert_eq!(diameter(&g), 3.5);
    }
}
