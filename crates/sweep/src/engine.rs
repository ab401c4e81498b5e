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
//!    inline), then build the network and its all-pairs distance matrix
//!    (cached under [`crate::spec::network_key`]);
//! 2. **certify** — the (β, γ) certification (cached under
//!    [`crate::spec::certify_key`]); with a session this goes through
//!    `Session::submit_certify` with a keyed `SolverConfig`, without
//!    one it runs inline —
//!    the serve tier uses the inline path so a sweep executing *inside*
//!    a session job never submits nested jobs (deadlock at one worker).
//!
//! Both paths produce bit-identical reports: every kernel underneath is
//! deterministic and the cache only ever serves bytes a run of either
//! path would have produced.
//!
//! # Cache consistency
//!
//! A unit with a wall-clock budget (`job.budget_ms` set) can degrade
//! nondeterministically, so the cache is bypassed entirely for it — no
//! get, no put (the session path enforces the same rule independently).
//! Budget-free units always pass an explicitly unlimited budget to the
//! certifier so the ambient `GNCG_BUDGET_MS` cannot leak
//! nondeterminism into a cacheable result.
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
use gncg_graph::DistMatrix;
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

/// Build a unit's network — the CLI's method mapping, frozen for the
/// same reason as [`generate_points`].
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

/// Encode a distance matrix as `{"n": N, "bits": "<16N² hex chars>"}`.
///
/// Bit-pattern hex rather than JSON numbers because distance matrices
/// legitimately contain `+inf` (disconnected pairs), which the JSON
/// number writer canonicalizes to `null`; a bit-exact encoding keeps
/// the cached matrix byte-faithful to the computed one.
fn matrix_to_json(m: &DistMatrix) -> Value {
    let mut bits = String::with_capacity(16 * m.as_flat().len());
    for &x in m.as_flat() {
        bits.push_str(&format!("{:016x}", x.to_bits()));
    }
    object(vec![
        ("n", Value::Number(m.len() as f64)),
        ("bits", Value::String(bits)),
    ])
}

fn matrix_from_json(v: &Value) -> Option<DistMatrix> {
    let n = v.get("n")?.as_u64()? as usize;
    let bits = v.get("bits")?.as_str()?;
    if bits.len() != 16 * n * n || !bits.is_ascii() {
        return None;
    }
    let mut data = Vec::with_capacity(n * n);
    for chunk in bits.as_bytes().chunks_exact(16) {
        let hex = std::str::from_utf8(chunk).ok()?;
        data.push(f64::from_bits(u64::from_str_radix(hex, 16).ok()?));
    }
    Some(DistMatrix::from_flat(n, data))
}

/// Largest finite pairwise distance (the network diameter; 0 for a
/// single vertex, skipping `+inf` rows of disconnected pairs).
fn diameter(m: &DistMatrix) -> f64 {
    m.as_flat()
        .iter()
        .copied()
        .filter(|x| x.is_finite())
        .fold(0.0, f64::max)
}

/// Whether the ambient budget (see module docs) is exhausted: output
/// computed under it may be partial and must not be kept.
fn ambient_exhausted() -> bool {
    gncg_parallel::current_budget().is_some_and(|b| b.exhausted())
}

/// The network step: cached `(network, distance matrix)` for one unit.
fn network_step(
    spec: &SweepSpec,
    unit: &SweepUnit,
    ps: &PointSet,
    cache: Option<&ResultCache>,
) -> (OwnedNetwork, DistMatrix) {
    let key = network_key(&spec.generator, unit.n, unit.seed, &unit.method, unit.alpha);
    if let Some(cache) = cache {
        if let Some(payload) = cache.get(&key) {
            let decoded = payload.get("network").and_then(|nv| {
                let net = OwnedNetwork::from_json(nv).ok()?;
                let matrix = matrix_from_json(payload.get("matrix")?)?;
                (matrix.len() == net.len()).then_some((net, matrix))
            });
            if let Some(hit) = decoded {
                return hit;
            }
            // Hash-valid but schema-incompatible: fall through and
            // overwrite with a freshly computed entry.
        }
    }
    let net = build_network(&unit.method, ps, unit.alpha);
    let matrix = gncg_graph::apsp::all_pairs(&net.graph(ps));
    if let Some(cache) = cache.filter(|_| !ambient_exhausted()) {
        let _ = cache.put(
            &key,
            &object(vec![
                ("network", net.to_json()),
                ("matrix", matrix_to_json(&matrix)),
            ]),
        );
    }
    (net, matrix)
}

/// The certify step, inline (no session): same cache discipline as
/// the session's keyed-cache certify path.
fn certify_step_direct(
    spec: &SweepSpec,
    key: &str,
    ps: &PointSet,
    net: &OwnedNetwork,
    alpha: f64,
    cfg: &SolverConfig,
    cache: Option<&ResultCache>,
) -> CertifyReport {
    debug_assert!(cache.is_none() || spec.budget_ms.is_none());
    if let Some(cache) = cache {
        if let Some(payload) = cache.get(key) {
            if let Ok(report) = CertifyReport::from_json(&payload) {
                return report;
            }
        }
    }
    let report = certify(ps, net, alpha, cfg);
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
    // Session path: the cache is consulted from inside the session's
    // keyed certify submits, so attach it up front.
    if let (Some(cache), Some(session)) = (&cache, session) {
        session.attach_result_cache(Arc::clone(cache));
    }
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
                    let Some(row) = run_unit(spec, unit, cache.as_ref(), session, &unit_budget)
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
    cache: Option<&Arc<ResultCache>>,
    session: Option<&Session>,
    unit_budget: &Budget,
) -> Option<UnitRow> {
    let ps = generate_points(&spec.generator, unit.n, unit.seed);
    let (net, matrix) = network_step(spec, unit, &ps, cache.map(Arc::as_ref));
    if ambient_exhausted() {
        return None;
    }
    let diam = diameter(&matrix);

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

    let cr = match session {
        Some(session) => {
            // The run's cache was attached to the session up front; a
            // keyed config routes this certify through it (the session
            // re-checks the budget-bypass rule independently).
            let job_cfg = match cache {
                Some(_) => cfg.with_cache_key(&key),
                None => cfg,
            };
            session
                .submit_certify(
                    Arc::new(ps.clone()),
                    net.clone(),
                    unit.alpha,
                    job_cfg,
                    JobOptions::with_budget(unit_budget),
                )
                .unwrap_or_else(|e| panic!("sweep unit rejected by the service: {e}"))
                .wait()
                .unwrap_or_else(|e| panic!("sweep unit failed: {e}"))
        }
        None => certify_step_direct(
            spec,
            &key,
            &ps,
            &net,
            unit.alpha,
            &cfg,
            cache.map(Arc::as_ref),
        ),
    };

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
    fn matrix_bits_roundtrip_including_inf() {
        let m = DistMatrix::from_flat(2, vec![0.0, f64::INFINITY, 1.0625e-3, f64::MAX]);
        let v = matrix_to_json(&m);
        let back = matrix_from_json(&v).expect("decodes");
        assert_eq!(back.as_flat(), m.as_flat());
        // truncated bits are rejected, not mis-decoded
        let mut bad = v.clone();
        if let Value::Object(entries) = &mut bad {
            for (k, val) in entries.iter_mut() {
                if k == "bits" {
                    if let Value::String(s) = val {
                        s.truncate(s.len() - 1);
                    }
                }
            }
        }
        assert!(matrix_from_json(&bad).is_none());
    }

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
        let m = DistMatrix::from_flat(2, vec![0.0, f64::INFINITY, f64::INFINITY, 0.0]);
        assert_eq!(diameter(&m), 0.0);
        let m = DistMatrix::from_flat(2, vec![0.0, 2.5, 2.5, 0.0]);
        assert_eq!(diameter(&m), 2.5);
    }
}
