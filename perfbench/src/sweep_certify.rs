//! `sweep_certify`: declarative sweeps replayed through `Session` and a
//! fresh `ResultCache`, first cold (compute + cache writes), then warm
//! (verified cache reads only). Two spec families are generated from the
//! seed — exact certification at n = 10–11 (best-response enumeration
//! and pruning) and bounds-only at n = 24–28 (`EvalContext` rows and the
//! per-agent bounds) — each over two generators, two methods and two
//! α values. The bounds sizes keep each cached distance-matrix entry, and
//! the string it is parsed into, well inside a 48 KB L1 data cache: a
//! warm read re-validates the rest of the entry for every string
//! character it parses, so with larger entries the warm replay measured
//! where the allocator placed those buffers and how busy the host's
//! caches were, not the program. Exercises `gncg-algo`, APSP, the certifier, `gncg-sweep`,
//! Session dispatch and the cache; bypasses `delta` and `approx`.

use crate::common::{
    dir_bytes, median, ms, print, secs, set_tracing, timed, Outcome, Run, SeedFork,
};
use crate::probes::{self, Inst};
use crate::spans;
use gncg_game::SolverConfig;
use gncg_json::{object, ToJson, Value};
use gncg_parallel::Budget;
use gncg_service::cache::ResultCache;
use gncg_service::Session;
use gncg_sweep::engine;
use gncg_sweep::spec::SweepSpec;
use gncg_trace::Counter;
use std::collections::BTreeMap;
use std::os::unix::fs::MetadataExt;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const GENERATORS: [&str; 2] = ["uniform", "cluster"];

/// `(name, exact, ns, point sets per n, methods)` of one spec family.
type Family = (
    &'static str,
    bool,
    [usize; 2],
    usize,
    &'static [&'static str],
);

/// The sweep specs of one run: each family crossed with the generators.
/// Only the point sets come from the seed: α and the methods are fixed,
/// because they set the network density, and the size of each cached
/// network entry decides what a warm read costs.
fn specs(seed: u64, tiny: bool) -> Vec<SweepSpec> {
    let mut seeds = SeedFork::new(seed);
    // (family, exact, ns, point sets per n, methods): several small
    // point sets rather than a few large ones, so one instance's pruning
    // luck moves the replay little, and replays stay short enough for a
    // run to take a median over many
    let families: [Family; 2] = [
        (
            "exact",
            true,
            if tiny { [5, 6] } else { [10, 11] },
            4,
            &["mst", "star"],
        ),
        (
            "bounds",
            false,
            if tiny { [10, 12] } else { [24, 28] },
            3,
            &["combined", "alg1"],
        ),
    ];
    let mut out = Vec::new();
    for (family, exact, [n0, n1], count, methods) in families {
        for generator in GENERATORS {
            let instance_seeds: Vec<String> = (0..count)
                .map(|_| seeds.next_spec_seed().to_string())
                .collect();
            let instance_seeds = instance_seeds.join(", ");
            let methods: Vec<String> = methods.iter().map(|m| format!("\"{m}\"")).collect();
            let methods = methods.join(",");
            let text = format!(
                r#"{{"sweep": "bench_{family}_{generator}", "version": 1,
                    "claim": "benchmark replay: {family} certification on {generator} instances",
                    "instances": {{"generator": "{generator}", "n": [{n0}, {n1}], "seeds": [{instance_seeds}]}},
                    "network": {{"method": [{methods}]}},
                    "alphas": [1, 2.5],
                    "job": {{"kind": "certify", "exact": {exact}}}}}"#
            );
            out.push(SweepSpec::parse(&text).expect("generated sweep spec parses"));
        }
    }
    out
}

/// Every unit of the specs as a probe input (points, network, α).
fn units(specs: &[SweepSpec], exact: bool) -> Vec<Inst> {
    specs
        .iter()
        .filter(|s| s.exact == exact)
        .flat_map(|s| {
            s.units().into_iter().map(move |u| {
                let ps = engine::generate_points(&s.generator, u.n, u.seed);
                let net = engine::build_network(&u.method, &ps, u.alpha);
                Inst {
                    ps,
                    net,
                    alpha: u.alpha,
                    method: u.method,
                }
            })
        })
        .collect()
}

/// One pass over every spec; returns each report's canonical print.
fn pass(
    span: &'static str,
    specs: &[SweepSpec],
    cache: Option<&Arc<ResultCache>>,
    session: Option<&Session>,
    dir: &Path,
) -> Result<Vec<String>, String> {
    let _s = spans::span(span);
    let mut reports = Vec::new();
    for spec in specs {
        let checkpoint = dir.join(format!("{}.{span}.checkpoint.json", spec.id));
        let o = engine::run_spec(
            spec,
            cache.cloned(),
            session,
            &Budget::unlimited(),
            Some(checkpoint),
        );
        if o.interrupted || o.units_done != o.units_total {
            return Err(format!("{}: sweep did not complete", spec.id));
        }
        reports.push(print(&o.report.to_json()));
    }
    if let Some(session) = session {
        session.wait_idle(); // pool workers flush their trace counters
    }
    Ok(reports)
}

/// `(inode, mtime ns, length)` of every file in the cache dir: a warm
/// pass that wrote anything (every miss writes back) changes it.
fn listing(dir: &Path) -> BTreeMap<String, (u64, i64, i64, u64)> {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| {
                    let m = e.metadata().ok()?;
                    Some((
                        e.file_name().to_string_lossy().into_owned(),
                        (m.ino(), m.mtime(), m.mtime_nsec(), m.len()),
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

struct Replay {
    cold_s: f64,
    warm_s: f64,
    cold: Vec<String>,
    cold_counters: [u64; gncg_trace::NUM_COUNTERS],
    warm_counters: [u64; gncg_trace::NUM_COUNTERS],
    cache_bytes: u64,
}

/// Cold then warm replay against a fresh cache in `dir`; checks the two
/// report sets are byte-identical and the warm pass wrote nothing.
fn replay(specs: &[SweepSpec], session: &Session, dir: &Path) -> Result<Replay, String> {
    let _s = spans::span("sweep.replay");
    let _ = std::fs::remove_dir_all(dir);
    let cache = Arc::new(ResultCache::at(dir.join("cache")).map_err(|e| e.to_string())?);
    let t = Instant::now();
    let (cold, cold_counters) =
        probes::counted(|| pass("sweep.cold", specs, Some(&cache), Some(session), dir));
    let cold_s = secs(t);
    let cold = cold?;
    let written = listing(cache.dir());
    let t = Instant::now();
    let (warm, warm_counters) =
        probes::counted(|| pass("sweep.warm", specs, Some(&cache), Some(session), dir));
    let warm_s = secs(t);
    let warm = warm?;
    let units: usize = specs.iter().map(|s| s.units().len()).sum();
    let entries = cache.entry_count().map_err(|e| e.to_string())?;
    if warm != cold {
        return Err("warm reports differ from cold reports".into());
    }
    if listing(cache.dir()) != written {
        return Err("warm pass wrote to the cache (a miss)".into());
    }
    if entries != 2 * units {
        return Err(format!("{entries} cache entries for {units} units"));
    }
    Ok(Replay {
        cold_s,
        warm_s,
        cold,
        cold_counters,
        warm_counters,
        cache_bytes: dir_bytes(cache.dir()),
    })
}

/// The engine's direct path (no session, no cache) must print the same
/// reports as the session + cache path.
fn check_direct(out: &mut Outcome, specs: &[SweepSpec], cold: &[String], dir: &Path) {
    let direct = pass("sweep.direct", specs, None, None, dir);
    out.check(
        "sweep session vs direct",
        direct.and_then(|d| {
            if d == cold {
                Ok(())
            } else {
                Err("session reports differ from direct engine reports".into())
            }
        }),
    );
}

/// Spec sets generated at set-up: more than the replays one run makes
/// (a run that needs more cycles through them, each on a fresh cache).
const SPEC_SETS: usize = 32;

/// Set-up: the run's spec sets, the Session, and one untimed-by-the-phases
/// warm-up replay on it (the pool's threads, arenas and the page cache are
/// lazy, so the first replay pays for them), repeated; the last is kept.
/// Every replay's inputs exist before the first timed replay.
fn set_up(
    run: &Run,
    times: usize,
    out: &mut Outcome,
    scratch: &Path,
) -> (Vec<Vec<SweepSpec>>, Session, Vec<f64>) {
    let mut samples = Vec::new();
    let mut kept = None;
    for _ in 0..times {
        let (built, t) = timed(|| {
            let mut seeds = SeedFork::new(run.seed);
            let sets: Vec<_> = (0..SPEC_SETS)
                .map(|_| specs(seeds.next(), run.tiny))
                .collect();
            let session = Session::builder().threads(run.threads).build();
            let warm_up = replay(&sets[SPEC_SETS - 1], &session, scratch);
            (sets, session, warm_up.map(|_| ()))
        });
        samples.push(t);
        let (sets, session, warm_up) = built;
        out.check("sweep replay", warm_up);
        kept = Some((sets, session));
    }
    let (sets, session) = kept.expect("at least one set-up");
    (sets, session, samples)
}

/// End-to-end run: replays until `--seconds` is spent, each on another
/// spec set, so the median replay averages over many instances rather
/// than resting on the pruning luck of a few.
pub fn measure(run: &Run, out: &mut Outcome) {
    let scratch = run.tmp.join("replay");
    let (sets, session, setup) = set_up(run, 3, out, &scratch);
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    let mut first = None;
    let t0 = Instant::now();
    while cold.is_empty() || secs(t0) < run.seconds {
        let r = replay(&sets[cold.len() % SPEC_SETS], &session, &scratch);
        let ok = r.as_ref().map(|_| ()).map_err(Clone::clone);
        out.check("sweep replay", ok);
        let Ok(r) = r else { break };
        cold.push(r.cold_s);
        warm.push(r.warm_s);
        first.get_or_insert(r.cold);
    }
    if let Some(reports) = &first {
        check_direct(out, &sets[0], reports, &scratch);
    }
    let _ = std::fs::remove_dir_all(&scratch);

    out.set("setup_s", median(&setup));
    out.set("phase_a_ms", ms(median(&cold)));
    out.set("phase_b_ms", ms(median(&warm)));
    let replay_s: Vec<f64> = cold.iter().zip(&warm).map(|(c, w)| c + w).collect();
    out.set("ops_per_s", 1.0 / median(&replay_s));
    out.ctx(
        "figures",
        object(vec![
            ("sweep_cold_s", Value::Number(median(&cold))),
            ("sweep_warm_s", Value::Number(median(&warm))),
        ]),
    );
    let units: usize = sets[0].iter().map(|s| s.units().len()).sum();
    out.ctx(
        "samples",
        object(vec![
            ("replays", cold.len().to_json()),
            ("cold_s", cold.to_json()),
            ("warm_s", warm.to_json()),
            ("units_per_replay", units.to_json()),
            ("setup_s", setup.to_json()),
        ]),
    );
}

/// Traced run: a replay untraced, then traced twice (the cold passes'
/// counters must repeat exactly), then the layer probes on the sweep's
/// own units and cache entries.
pub fn trace(run: &Run, out: &mut Outcome) {
    let scratch = run.tmp.join("replay");
    let (sets, session, _) = set_up(run, 1, out, &scratch);
    let specs = sets[0].as_slice();
    let off = replay(specs, &session, &scratch).map(|r| r.cold_s + r.warm_s);

    set_tracing(true);
    let traced = replay(specs, &session, &scratch);
    let payloads: Vec<Value> = std::fs::read_dir(scratch.join("cache"))
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| std::fs::read_to_string(e.path()).ok())
                .filter_map(|text| gncg_json::parse(&text).ok()?.get("payload").cloned())
                .collect()
        })
        .unwrap_or_default();
    let again = replay(specs, &session, &scratch);
    match (off, traced, again) {
        (Ok(off), Ok(t), Ok(a)) => {
            out.check(
                "sweep counters repeat",
                probes::same_counters(
                    &probes::deterministic(&t.cold_counters),
                    &probes::deterministic(&a.cold_counters),
                )
                .and_then(|()| {
                    match t.warm_counters[Counter::CacheMisses as usize] {
                        0 => Ok(()),
                        m => Err(format!("warm pass missed the cache {m} times")),
                    }
                }),
            );
            let mut delta = t.cold_counters;
            probes::add(&mut delta, &t.warm_counters);
            probes::counters(out, &delta);
            let cold = probes::deterministic(&t.cold_counters);
            out.ctx("deterministic_counters", cold.to_json());
            out.set("cache.bytes", t.cache_bytes as f64);
            out.set("trace.overhead_ratio", (t.cold_s + t.warm_s) / off);
            check_direct(out, specs, &t.cold, &scratch);
        }
        (off, t, a) => {
            for r in [off.map(|_| ()), t.map(|_| ()), a.map(|_| ())] {
                out.check("sweep replay", r);
            }
        }
    }

    gncg_trace::set_enabled(false);
    let small = units(specs, true);
    let bounds = units(specs, false);
    let graph_insts: Vec<_> = bounds.iter().map(|i| (&i.ps, &i.net)).collect();
    probes::graph_layer(out, &graph_insts, 1);
    let point_sets: Vec<_> = specs
        .iter()
        .filter(|s| !s.exact)
        .flat_map(|s| {
            s.ns.iter()
                .flat_map(|&n| s.seeds.iter().map(move |&seed| (n, seed)))
                .map(|(n, seed)| engine::generate_points(&s.generator, n, seed))
        })
        .collect();
    let point_sets: Vec<_> = point_sets.iter().collect();
    probes::spanner_layer(out, &point_sets, 3);
    probes::approx_layer(out, &point_sets);
    probes::game_layer(out, &small, &bounds, &SolverConfig::bounds_only());
    probes::service_layer(out, &session, &bounds);
    probes::cache_layer(out, &run.tmp.join("probe_cache"), &payloads);
    probes::wire_layer(
        out,
        None,
        &probes::certify_jobs(&bounds[..bounds.len().min(8)]),
    );
    let _ = std::fs::remove_dir_all(&scratch);
}
