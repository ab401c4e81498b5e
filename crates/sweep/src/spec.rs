//! The declarative sweep language: `SweepSpec` parsing, canonical form,
//! and the content-address key builders.
//!
//! # Grammar (version 1)
//!
//! ```text
//! spec      := {"sweep": ID, "claim": TEXT, "version": 1,
//!               "instances": {"generator": GEN, "n": USIZES, "seeds": SEEDS},
//!               "network": {"method": METHOD | [METHOD...]},
//!               "alphas": FLOATS,
//!               "job": {"kind": "certify", "exact"?: BOOL,
//!                       "model"?: "sum" | "maxdist",
//!                       "budget_ms"?: MS | null}}
//! GEN       := "uniform" | "grid" | "cluster" | "chain"
//! METHOD    := "combined" | "alg1" | "mst" | "complete" | "star"
//! USIZES    := [INT...] | {"start": INT, "stop": INT, "step"?: INT}
//! FLOATS    := [NUM...] | {"start": NUM, "stop": NUM, "step": NUM}
//! SEEDS     := [INT...] | {"base": INT, "count": INT}
//! ```
//!
//! The parser is **strict**: unknown fields anywhere, a wrong
//! `version`, an empty axis, an unknown generator/method, or a
//! non-positive range step are all errors — a typo'd knob must never
//! silently run a different sweep than the author wrote.
//!
//! # Canonical form and hash soundness
//!
//! [`SweepSpec::canonical_value`] re-emits the spec fully explicit:
//! every optional field present, every range and seed stream expanded
//! to its explicit list, `method` always an array, keys sorted (via
//! `gncg_json::canon`), floats printed by the one shared number writer.
//! Two specs that differ only in key order, float spelling, range
//! syntax, or elided defaults therefore canonicalize to identical bytes
//! — and any *semantic* difference changes the bytes, because every
//! semantic field is printed. [`SweepSpec::content_key`] hashes those
//! bytes; the per-unit cache keys ([`network_key`], [`certify_key`])
//! apply the same discipline to one unit's instance + options.
//!
//! Keys may over-discriminate (e.g. α is always in the network-step key
//! even for α-independent methods like `mst`) — that costs a recompute,
//! never a false hit.

use gncg_config::ModelKind;
use gncg_json::{canon, object, Value};

/// The expansion ceiling: seeds (and any explicit integer) must stay in
/// the f64-exact range so the canonical JSON round-trips them
/// losslessly through the `f64`-backed [`Value::Number`].
const SEED_MASK: u64 = (1 << 53) - 1;

/// A parse/validation error with a path-qualified message.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sweep spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn err<T>(msg: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError(msg.into()))
}

/// A parsed, validated sweep: every axis already expanded to explicit
/// values in deterministic order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Sweep/report id (`"sweep"` field) — also the results filename.
    pub id: String,
    /// The claim line of the generated report.
    pub claim: String,
    /// Point generator: `uniform` | `grid` | `cluster` | `chain`.
    pub generator: String,
    /// Instance sizes.
    pub ns: Vec<usize>,
    /// Explicit seed list (a `{base, count}` stream is expanded at
    /// parse time with [`seed_stream`]).
    pub seeds: Vec<u64>,
    /// Network-construction methods.
    pub methods: Vec<String>,
    /// Edge-price factors.
    pub alphas: Vec<f64>,
    /// Exact certification (exponential parts) vs. bounds-only.
    pub exact: bool,
    /// Cost model to certify under.
    pub model: ModelKind,
    /// Per-unit wall budget; `None` (the committed-spec norm) keeps the
    /// units deterministic and cache-eligible.
    pub budget_ms: Option<u64>,
}

/// The deterministic per-job seed stream: seed `i` is a splitmix64-style
/// mix of `base + i·γ` (γ the 64-bit golden ratio), masked into the
/// f64-exact integer range (see the module docs). Same base + count ⇒
/// same stream, on every machine, forever — the canonical form expands
/// `{base, count}` through this exact function, so the stream *is* part
/// of the content address.
pub fn seed_stream(base: u64, count: usize) -> Vec<u64> {
    (0..count as u64)
        .map(|i| {
            let mut z = base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) & SEED_MASK
        })
        .collect()
}

/// The point-set generators, by name; `engine::generate_points` maps
/// each to its generator, and `gncg generate --kind` accepts the same
/// names.
pub const GENERATORS: [&str; 4] = ["uniform", "grid", "cluster", "chain"];
/// The network construction methods, by name; `engine::build_network`
/// maps each to its builder, and `gncg build --method` accepts the same
/// names.
pub const METHODS: [&str; 5] = ["combined", "alg1", "mst", "complete", "star"];

/// Reject any key of `value` not in `allowed` (strict-parser rule).
fn check_keys(value: &Value, path: &str, allowed: &[&str]) -> Result<(), SpecError> {
    let Value::Object(entries) = value else {
        return err(format!("`{path}` must be an object"));
    };
    for (k, _) in entries {
        if !allowed.contains(&k.as_str()) {
            return err(format!(
                "unknown field `{k}` in `{path}` (allowed: {})",
                allowed.join(", ")
            ));
        }
    }
    Ok(())
}

fn get<'v>(value: &'v Value, path: &str, key: &str) -> Result<&'v Value, SpecError> {
    value
        .get(key)
        .ok_or_else(|| SpecError(format!("`{path}` missing required field `{key}`")))
}

fn as_str(value: &Value, path: &str) -> Result<String, SpecError> {
    match value.as_str() {
        Some(s) => Ok(s.to_string()),
        None => err(format!("`{path}` must be a string")),
    }
}

fn as_exact_int(value: &Value, path: &str) -> Result<u64, SpecError> {
    let Some(x) = value.as_f64() else {
        return err(format!("`{path}` must be a number"));
    };
    if x.fract() != 0.0 || !(0.0..=SEED_MASK as f64).contains(&x) {
        return err(format!(
            "`{path}` must be a non-negative integer ≤ 2^53-1, got {x}"
        ));
    }
    Ok(x as u64)
}

/// `USIZES`: explicit list or inclusive integer range.
fn parse_usizes(value: &Value, path: &str) -> Result<Vec<usize>, SpecError> {
    let values = match value {
        Value::Array(items) => items
            .iter()
            .enumerate()
            .map(|(i, v)| as_exact_int(v, &format!("{path}[{i}]")).map(|x| x as usize))
            .collect::<Result<Vec<_>, _>>()?,
        Value::Object(_) => {
            check_keys(value, path, &["start", "stop", "step"])?;
            let start = as_exact_int(get(value, path, "start")?, &format!("{path}.start"))?;
            let stop = as_exact_int(get(value, path, "stop")?, &format!("{path}.stop"))?;
            let step = match value.get("step") {
                Some(s) => as_exact_int(s, &format!("{path}.step"))?,
                None => 1,
            };
            if step == 0 {
                return err(format!("`{path}.step` must be ≥ 1"));
            }
            (start..=stop)
                .step_by(step as usize)
                .map(|x| x as usize)
                .collect()
        }
        _ => return err(format!("`{path}` must be a list or a range object")),
    };
    if values.is_empty() {
        return err(format!("`{path}` expands to no values"));
    }
    Ok(values)
}

/// `FLOATS`: explicit list or inclusive float range. Range values are
/// computed as `start + i·step` (no accumulation drift) and the stop is
/// inclusive up to a 1e-9 tolerance, so `{1, 2, 0.5}` is `[1, 1.5, 2]`
/// on every platform.
fn parse_floats(value: &Value, path: &str) -> Result<Vec<f64>, SpecError> {
    let finite = |v: &Value, p: &str| -> Result<f64, SpecError> {
        match v.as_f64() {
            Some(x) if x.is_finite() => Ok(x),
            _ => err(format!("`{p}` must be a finite number")),
        }
    };
    let values = match value {
        Value::Array(items) => items
            .iter()
            .enumerate()
            .map(|(i, v)| finite(v, &format!("{path}[{i}]")))
            .collect::<Result<Vec<_>, _>>()?,
        Value::Object(_) => {
            check_keys(value, path, &["start", "stop", "step"])?;
            let start = finite(get(value, path, "start")?, &format!("{path}.start"))?;
            let stop = finite(get(value, path, "stop")?, &format!("{path}.stop"))?;
            let step = finite(get(value, path, "step")?, &format!("{path}.step"))?;
            if step <= 0.0 {
                return err(format!("`{path}.step` must be > 0"));
            }
            let mut out = Vec::new();
            let mut i = 0u32;
            loop {
                let x = start + f64::from(i) * step;
                if x > stop + 1e-9 {
                    break;
                }
                out.push(x);
                i += 1;
            }
            out
        }
        _ => return err(format!("`{path}` must be a list or a range object")),
    };
    if values.is_empty() {
        return err(format!("`{path}` expands to no values"));
    }
    Ok(values)
}

/// `SEEDS`: explicit list or `{base, count}` stream.
fn parse_seeds(value: &Value, path: &str) -> Result<Vec<u64>, SpecError> {
    let values = match value {
        Value::Array(items) => items
            .iter()
            .enumerate()
            .map(|(i, v)| as_exact_int(v, &format!("{path}[{i}]")))
            .collect::<Result<Vec<_>, _>>()?,
        Value::Object(_) => {
            check_keys(value, path, &["base", "count"])?;
            let base = as_exact_int(get(value, path, "base")?, &format!("{path}.base"))?;
            let count = as_exact_int(get(value, path, "count")?, &format!("{path}.count"))?;
            seed_stream(base, count as usize)
        }
        _ => return err(format!("`{path}` must be a list or {{base, count}}")),
    };
    if values.is_empty() {
        return err(format!("`{path}` expands to no values"));
    }
    Ok(values)
}

impl SweepSpec {
    /// Strict-parse a spec from JSON text.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let value = gncg_json::parse(text).map_err(|e| SpecError(format!("invalid JSON: {e}")))?;
        Self::from_value(&value)
    }

    /// Strict-parse a spec from an already-parsed [`Value`].
    pub fn from_value(value: &Value) -> Result<Self, SpecError> {
        check_keys(
            value,
            "spec",
            &[
                "sweep",
                "claim",
                "version",
                "instances",
                "network",
                "alphas",
                "job",
            ],
        )?;
        let version = as_exact_int(get(value, "spec", "version")?, "version")?;
        if version != 1 {
            return err(format!(
                "unsupported `version` {version} (this build speaks 1)"
            ));
        }
        let id = as_str(get(value, "spec", "sweep")?, "sweep")?;
        if id.is_empty() || !id.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return err(format!(
                "`sweep` id `{id}` must be non-empty [A-Za-z0-9_] (it names the results file)"
            ));
        }
        let claim = as_str(get(value, "spec", "claim")?, "claim")?;

        let instances = get(value, "spec", "instances")?;
        check_keys(instances, "instances", &["generator", "n", "seeds"])?;
        let generator = as_str(
            get(instances, "instances", "generator")?,
            "instances.generator",
        )?;
        if !GENERATORS.contains(&generator.as_str()) {
            return err(format!(
                "unknown generator `{generator}` (allowed: {})",
                GENERATORS.join(", ")
            ));
        }
        let ns = parse_usizes(get(instances, "instances", "n")?, "instances.n")?;
        if let Some(&bad) = ns.iter().find(|&&n| n < 2) {
            return err(format!("instances.n contains {bad}; every n must be ≥ 2"));
        }
        let seeds = parse_seeds(get(instances, "instances", "seeds")?, "instances.seeds")?;

        let network = get(value, "spec", "network")?;
        check_keys(network, "network", &["method"])?;
        let method_field = get(network, "network", "method")?;
        let methods = match method_field {
            Value::String(s) => vec![s.clone()],
            Value::Array(items) => items
                .iter()
                .enumerate()
                .map(|(i, v)| as_str(v, &format!("network.method[{i}]")))
                .collect::<Result<Vec<_>, _>>()?,
            _ => return err("`network.method` must be a string or list of strings"),
        };
        if methods.is_empty() {
            return err("`network.method` expands to no values");
        }
        for m in &methods {
            if !METHODS.contains(&m.as_str()) {
                return err(format!(
                    "unknown method `{m}` (allowed: {})",
                    METHODS.join(", ")
                ));
            }
        }

        let alphas = parse_floats(get(value, "spec", "alphas")?, "alphas")?;
        if let Some(&bad) = alphas.iter().find(|&&a| a <= 0.0) {
            return err(format!("alphas contains {bad}; every α must be > 0"));
        }

        let job = get(value, "spec", "job")?;
        check_keys(job, "job", &["kind", "exact", "model", "budget_ms"])?;
        let kind = as_str(get(job, "job", "kind")?, "job.kind")?;
        if kind != "certify" {
            return err(format!(
                "unsupported `job.kind` `{kind}` (this build speaks `certify`)"
            ));
        }
        let exact = match job.get("exact") {
            Some(Value::Bool(b)) => *b,
            Some(_) => return err("`job.exact` must be a boolean"),
            None => false,
        };
        let model = match job.get("model") {
            Some(v) => {
                let name = as_str(v, "job.model")?;
                match ModelKind::from_name(&name) {
                    Some(model) => model,
                    None => {
                        return err(format!(
                            "unknown `job.model` `{name}` (allowed: sum, maxdist)"
                        ))
                    }
                }
            }
            None => ModelKind::SumDistances,
        };
        let budget_ms = match job.get("budget_ms") {
            Some(Value::Null) | None => None,
            Some(v) => Some(as_exact_int(v, "job.budget_ms")?),
        };

        Ok(Self {
            id,
            claim,
            generator,
            ns,
            seeds,
            methods,
            alphas,
            exact,
            model,
            budget_ms,
        })
    }

    /// The fully-explicit canonical form (see the module docs): keys
    /// sorted, axes expanded, defaults present, `method` an array.
    /// Parsing this value back yields an equal `SweepSpec` — the
    /// canonicalization fixpoint the property tests pin.
    pub fn canonical_value(&self) -> Value {
        let num = |x: f64| Value::Number(x);
        let ints = |xs: &[u64]| Value::Array(xs.iter().map(|&x| num(x as f64)).collect());
        let v = object(vec![
            ("sweep", Value::String(self.id.clone())),
            ("claim", Value::String(self.claim.clone())),
            ("version", num(1.0)),
            (
                "instances",
                object(vec![
                    ("generator", Value::String(self.generator.clone())),
                    (
                        "n",
                        Value::Array(self.ns.iter().map(|&n| num(n as f64)).collect()),
                    ),
                    ("seeds", ints(&self.seeds)),
                ]),
            ),
            (
                "network",
                object(vec![(
                    "method",
                    Value::Array(
                        self.methods
                            .iter()
                            .map(|m| Value::String(m.clone()))
                            .collect(),
                    ),
                )]),
            ),
            (
                "alphas",
                Value::Array(self.alphas.iter().map(|&a| num(a)).collect()),
            ),
            (
                "job",
                object(vec![
                    ("kind", Value::String("certify".into())),
                    ("exact", Value::Bool(self.exact)),
                    ("model", Value::String(self.model.as_str().into())),
                    (
                        "budget_ms",
                        match self.budget_ms {
                            Some(ms) => num(ms as f64),
                            None => Value::Null,
                        },
                    ),
                ]),
            ),
        ]);
        canon::canonicalize(&v)
    }

    /// Compact print of the canonical form.
    pub fn canonical_string(&self) -> String {
        gncg_json::to_string(&self.canonical_value())
    }

    /// Content address of the whole spec.
    pub fn content_key(&self) -> String {
        canon::content_key(&self.canonical_value())
    }

    /// Every `(n, seed, method, alpha)` unit in deterministic order —
    /// the order rows appear in the report and checkpoint.
    pub fn units(&self) -> Vec<SweepUnit> {
        let mut out = Vec::with_capacity(
            self.ns.len() * self.seeds.len() * self.methods.len() * self.alphas.len(),
        );
        for &n in &self.ns {
            for &seed in &self.seeds {
                for method in &self.methods {
                    for &alpha in &self.alphas {
                        out.push(SweepUnit {
                            n,
                            seed,
                            method: method.clone(),
                            alpha,
                        });
                    }
                }
            }
        }
        out
    }
}

/// One unit of a sweep: a single instance × method × α certification.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepUnit {
    /// Requested instance size (the generator may round, e.g. `grid`).
    pub n: usize,
    /// Generator seed.
    pub seed: u64,
    /// Network-construction method.
    pub method: String,
    /// Edge-price factor.
    pub alpha: f64,
}

/// Print a float exactly as the canonical JSON number writer does, so
/// row params and notes are byte-stable across platforms.
pub fn fmt_num(x: f64) -> String {
    gncg_json::to_string(&Value::Number(x))
}

impl SweepUnit {
    /// The unit's row-params / checkpoint key, e.g.
    /// `gen=uniform n=8 seed=7 method=combined alpha=1.5`.
    pub fn params(&self, generator: &str) -> String {
        format!(
            "gen={generator} n={} seed={} method={} alpha={}",
            self.n,
            self.seed,
            self.method,
            fmt_num(self.alpha)
        )
    }
}

/// Canonical description of one generated instance — the `instance`
/// half of every per-unit cache key. The seed is always included, even
/// for seed-independent generators (`grid`, `chain`): keys may
/// over-discriminate, never under-discriminate.
pub fn instance_desc(generator: &str, n: usize, seed: u64) -> Value {
    object(vec![
        ("generator", Value::String(generator.into())),
        ("n", Value::Number(n as f64)),
        ("seed", Value::Number(seed as f64)),
    ])
}

/// Content key of the network-construction step (network + distance
/// matrix). α is always included, even for α-independent methods.
pub fn network_key(generator: &str, n: usize, seed: u64, method: &str, alpha: f64) -> String {
    let spec = object(vec![
        ("op", Value::String("network".into())),
        ("instance", instance_desc(generator, n, seed)),
        (
            "options",
            object(vec![
                ("method", Value::String(method.into())),
                ("alpha", Value::Number(alpha)),
            ]),
        ),
    ]);
    canon::content_key(&spec)
}

/// Content key of the certification step. Every semantic option — α,
/// method, exactness, cost model, evaluation backend, budget — is in
/// the key, so changing any of them changes the address.
#[allow(clippy::too_many_arguments)]
pub fn certify_key(
    generator: &str,
    n: usize,
    seed: u64,
    method: &str,
    alpha: f64,
    exact: bool,
    model: ModelKind,
    backend: &str,
    budget_ms: Option<u64>,
) -> String {
    let spec = object(vec![
        ("op", Value::String("certify".into())),
        ("instance", instance_desc(generator, n, seed)),
        (
            "options",
            object(vec![
                ("method", Value::String(method.into())),
                ("alpha", Value::Number(alpha)),
                ("exact", Value::Bool(exact)),
                ("model", Value::String(model.as_str().into())),
                ("backend", Value::String(backend.into())),
                (
                    "budget_ms",
                    match budget_ms {
                        Some(ms) => Value::Number(ms as f64),
                        None => Value::Null,
                    },
                ),
            ]),
        ),
    ]);
    canon::content_key(&spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{
        "sweep": "t1", "claim": "c", "version": 1,
        "instances": {"generator": "uniform", "n": [4, 6], "seeds": [0, 1]},
        "network": {"method": "mst"},
        "alphas": [1.5],
        "job": {"kind": "certify"}
    }"#;

    #[test]
    fn minimal_spec_parses_with_defaults() {
        let s = SweepSpec::parse(MINIMAL).unwrap();
        assert_eq!(s.id, "t1");
        assert_eq!(s.ns, vec![4, 6]);
        assert_eq!(s.seeds, vec![0, 1]);
        assert_eq!(s.methods, vec!["mst"]);
        assert!(!s.exact);
        assert_eq!(s.model, ModelKind::SumDistances);
        assert_eq!(s.budget_ms, None);
        assert_eq!(s.units().len(), 4);
    }

    #[test]
    fn unknown_fields_are_rejected_everywhere() {
        for (broken, what) in [
            (
                MINIMAL.replace("\"claim\"", "\"extra\": 1, \"claim\""),
                "top level",
            ),
            (
                MINIMAL.replace("\"generator\"", "\"jitter\": 2, \"generator\""),
                "instances",
            ),
            (
                MINIMAL.replace("\"method\"", "\"width\": 3, \"method\""),
                "network",
            ),
            (
                MINIMAL.replace("\"kind\"", "\"retries\": 4, \"kind\""),
                "job",
            ),
        ] {
            assert!(
                SweepSpec::parse(&broken).is_err(),
                "unknown field in {what} accepted"
            );
        }
    }

    #[test]
    fn semantic_validation() {
        assert!(SweepSpec::parse(&MINIMAL.replace("\"version\": 1", "\"version\": 2")).is_err());
        assert!(SweepSpec::parse(&MINIMAL.replace("\"uniform\"", "\"gaussian\"")).is_err());
        assert!(SweepSpec::parse(&MINIMAL.replace("\"mst\"", "\"steiner\"")).is_err());
        assert!(SweepSpec::parse(&MINIMAL.replace("[1.5]", "[-1.0]")).is_err());
        assert!(SweepSpec::parse(&MINIMAL.replace("[4, 6]", "[1]")).is_err());
        assert!(SweepSpec::parse(&MINIMAL.replace("[4, 6]", "[]")).is_err());
    }

    #[test]
    fn ranges_expand_inclusively() {
        let s =
            SweepSpec::parse(&MINIMAL.replace("[4, 6]", r#"{"start": 4, "stop": 8, "step": 2}"#))
                .unwrap();
        assert_eq!(s.ns, vec![4, 6, 8]);
        let s =
            SweepSpec::parse(&MINIMAL.replace("[1.5]", r#"{"start": 1, "stop": 2, "step": 0.5}"#))
                .unwrap();
        assert_eq!(s.alphas, vec![1.0, 1.5, 2.0]);
    }

    #[test]
    fn seed_streams_are_deterministic_and_f64_exact() {
        let a = seed_stream(7, 4);
        let b = seed_stream(7, 4);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        assert!(a.iter().all(|&s| s <= SEED_MASK));
        // distinct bases give distinct streams
        assert_ne!(seed_stream(8, 4), a);
        let via_spec =
            SweepSpec::parse(&MINIMAL.replace("[0, 1]", r#"{"base": 7, "count": 4}"#)).unwrap();
        assert_eq!(via_spec.seeds, a);
    }

    #[test]
    fn canonical_form_is_a_parse_fixpoint() {
        let s = SweepSpec::parse(MINIMAL).unwrap();
        let printed = s.canonical_string();
        let reparsed = SweepSpec::parse(&printed).unwrap();
        assert_eq!(reparsed, s);
        assert_eq!(reparsed.canonical_string(), printed);
        for model in [ModelKind::SumDistances, ModelKind::MaxDistance] {
            let job = format!(r#""kind": "certify", "model": "{}""#, model.as_str());
            let s = SweepSpec::parse(&MINIMAL.replace(r#""kind": "certify""#, &job)).unwrap();
            assert_eq!(s.model, model);
            assert_eq!(SweepSpec::parse(&s.canonical_string()).unwrap(), s);
        }
        let typo = MINIMAL.replace(
            r#""kind": "certify""#,
            r#""kind": "certify", "model": "max""#,
        );
        assert!(SweepSpec::parse(&typo)
            .unwrap_err()
            .to_string()
            .contains("unknown `job.model` `max` (allowed: sum, maxdist)"));
    }

    #[test]
    fn unit_order_is_deterministic() {
        let s = SweepSpec::parse(MINIMAL).unwrap();
        let params: Vec<String> = s.units().iter().map(|u| u.params(&s.generator)).collect();
        assert_eq!(
            params,
            vec![
                "gen=uniform n=4 seed=0 method=mst alpha=1.5",
                "gen=uniform n=4 seed=1 method=mst alpha=1.5",
                "gen=uniform n=6 seed=0 method=mst alpha=1.5",
                "gen=uniform n=6 seed=1 method=mst alpha=1.5",
            ]
        );
    }
}
