//! Experiment reports: rows, atomic JSON saves, log-log fits.
//!
//! Each repro binary regenerates one table/figure of the paper and
//! prints a self-describing report: the paper's claim, the measured
//! quantity, and a PASS/FAIL verdict on the claim's *shape* (who wins,
//! growth exponent, crossover). Reports are also dumped as JSON under
//! `results/` so EXPERIMENTS.md tables can be regenerated.
//!
//! The writing side is crash-safe: [`Report::save`] writes a temp file
//! and renames it into place (a killed run never leaves a truncated
//! `results/*.json`), and numeric fields are validated at push time
//! (NaN/Inf is an error, absent values are an explicit `None` that
//! serializes as `null` and prints as `-`).

use gncg_json::{object, FromJson, JsonError, ToJson, Value};
use std::io::Write as _;
use std::path::PathBuf;

/// One row of an experiment report.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Independent variables, e.g. `alpha=4 n=100`.
    pub params: String,
    /// The paper's predicted value or bound for this row; `None` when
    /// the row has no paper-side reference (serialized as `null`,
    /// printed as `-`).
    pub paper: Option<f64>,
    /// What we measured; `None` for degenerate rows (e.g. "no cycle
    /// found in this seed range") that carry only a note.
    pub measured: Option<f64>,
    /// Whether the row satisfies the claim being tested.
    pub ok: bool,
    /// Extra context.
    pub note: String,
    /// Work counters of the row, `(name, count)` — a perf stage's own
    /// trace-counter delta. Empty (and absent from the JSON) for
    /// ordinary rows.
    pub counters: Vec<(String, u64)>,
}

/// An experiment report: one section of Table 1 or one figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Experiment id, e.g. `thm_4_3` or `fig4`.
    pub id: String,
    /// Human description of the claim under test.
    pub claim: String,
    /// Data rows.
    pub rows: Vec<Row>,
    /// Wall time of the in-process pure-CPU calibration loop, in
    /// seconds, for reports whose `measured` rows are raw wall times a
    /// consumer (the perf gate) must normalize by this constant before
    /// cross-machine comparison. `None` (omitted from the JSON) for
    /// ordinary experiment reports.
    pub calibration_secs: Option<f64>,
}

/// A NaN or ±Inf was pushed into a numeric report field.
#[derive(Debug, Clone, PartialEq)]
pub struct NonFiniteValue {
    /// Which field (`"paper"` or `"measured"`).
    pub field: &'static str,
    /// The offending value.
    pub value: f64,
    /// The row's params, for context.
    pub params: String,
}

impl std::fmt::Display for NonFiniteValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "non-finite {} value {} in row `{}` — use an Option-taking push \
             variant for rows without a number",
            self.field, self.value, self.params
        )
    }
}

impl std::error::Error for NonFiniteValue {}

impl ToJson for Row {
    fn to_json(&self) -> Value {
        let mut fields = vec![
            ("params", self.params.to_json()),
            ("paper", self.paper.to_json()),
            ("measured", self.measured.to_json()),
            ("ok", self.ok.to_json()),
            ("note", self.note.to_json()),
        ];
        if !self.counters.is_empty() {
            let counters = self.counters.iter();
            let counters = counters.map(|(name, n)| (name.clone(), n.to_json()));
            fields.push(("counters", Value::Object(counters.collect())));
        }
        object(fields)
    }
}

impl FromJson for Row {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let field = |key: &str| {
            value
                .get(key)
                .ok_or_else(|| JsonError::new(format!("row missing field `{key}`")))
        };
        Ok(Row {
            params: String::from_json(field("params")?)?,
            paper: Option::<f64>::from_json(field("paper")?)?,
            measured: Option::<f64>::from_json(field("measured")?)?,
            ok: bool::from_json(field("ok")?)?,
            note: String::from_json(field("note")?)?,
            counters: match value.get("counters") {
                Some(Value::Object(entries)) => entries
                    .iter()
                    .map(|(name, n)| Ok((name.clone(), u64::from_json(n)?)))
                    .collect::<Result<_, JsonError>>()?,
                Some(_) => return Err(JsonError::new("row `counters` is not an object")),
                None => Vec::new(),
            },
        })
    }
}

impl ToJson for Report {
    fn to_json(&self) -> Value {
        let mut fields = vec![
            ("id", self.id.to_json()),
            ("claim", self.claim.to_json()),
            ("rows", self.rows.to_json()),
        ];
        // only perf reports carry the constant; every other report's
        // JSON stays byte-identical to before the field existed
        if let Some(c) = self.calibration_secs {
            fields.push(("calibration_secs", c.to_json()));
        }
        object(fields)
    }
}

impl FromJson for Report {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let field = |key: &str| {
            value
                .get(key)
                .ok_or_else(|| JsonError::new(format!("report missing field `{key}`")))
        };
        Ok(Report {
            id: String::from_json(field("id")?)?,
            claim: String::from_json(field("claim")?)?,
            rows: Vec::<Row>::from_json(field("rows")?)?,
            calibration_secs: match value.get("calibration_secs") {
                Some(v) => Some(f64::from_json(v)?),
                None => None,
            },
        })
    }
}

impl Report {
    /// Start an empty report.
    pub fn new(id: &str, claim: &str) -> Self {
        Self {
            id: id.to_string(),
            claim: claim.to_string(),
            rows: Vec::new(),
            calibration_secs: None,
        }
    }

    /// Record the calibration-loop wall time (> 0, finite) this
    /// report's raw stage times must be normalized by. Perf-gate
    /// reports call this so the constant travels *inside* the baseline
    /// file instead of being baked invisibly into the row values.
    pub fn set_calibration(&mut self, secs: f64) {
        assert!(
            secs.is_finite() && secs > 0.0,
            "calibration time must be positive and finite, got {secs}"
        );
        self.calibration_secs = Some(secs);
    }

    /// Append a row, rejecting NaN/Inf in either numeric field. `None`
    /// means "this row legitimately has no such number" and is always
    /// accepted.
    pub fn try_push(
        &mut self,
        params: String,
        paper: Option<f64>,
        measured: Option<f64>,
        ok: bool,
        note: &str,
    ) -> Result<(), NonFiniteValue> {
        for (field, v) in [("paper", paper), ("measured", measured)] {
            if let Some(x) = v {
                if !x.is_finite() {
                    return Err(NonFiniteValue {
                        field,
                        value: x,
                        params,
                    });
                }
            }
        }
        self.rows.push(Row {
            params,
            paper,
            measured,
            ok,
            note: note.to_string(),
            counters: Vec::new(),
        });
        Ok(())
    }

    /// Append a row with both numbers present. Panics (with the offending
    /// field and row named) when either is NaN/Inf — a sweep that
    /// produces a non-finite headline number has a bug, and silently
    /// serializing `null` used to hide it.
    pub fn push(&mut self, params: String, paper: f64, measured: f64, ok: bool, note: &str) {
        self.try_push(params, Some(paper), Some(measured), ok, note)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Append a measured-only row (no paper-side reference value).
    pub fn push_unreferenced(&mut self, params: String, measured: f64, ok: bool, note: &str) {
        self.try_push(params, None, Some(measured), ok, note)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Append a degenerate row carrying only a verdict and a note (e.g.
    /// "no cycle found in this seed range").
    pub fn push_degenerate(&mut self, params: String, ok: bool, note: &str) {
        self.try_push(params, None, None, ok, note)
            .expect("degenerate rows have no numeric fields");
    }

    /// Did every row pass?
    pub fn all_ok(&self) -> bool {
        self.rows.iter().all(|r| r.ok)
    }

    /// Print the report as an aligned text table.
    pub fn print(&self) {
        let num = |v: Option<f64>| match v {
            Some(x) => format!("{x:>14.6}"),
            None => format!("{:>14}", "-"),
        };
        println!("== {} ==", self.id);
        println!("   {}", self.claim);
        println!(
            "   {:<38} {:>14} {:>14}  {:<4} note",
            "params", "paper", "measured", "ok"
        );
        for r in &self.rows {
            println!(
                "   {:<38} {} {}  {:<4} {}",
                r.params,
                num(r.paper),
                num(r.measured),
                if r.ok { "PASS" } else { "FAIL" },
                r.note
            );
        }
        println!(
            "   => {}",
            if self.all_ok() {
                "ALL PASS"
            } else {
                "FAILURES PRESENT"
            }
        );
        println!();
    }

    /// Write the report as JSON under `results/<id>.json` (repo root
    /// when run via `cargo run`, else the current directory).
    ///
    /// The write is atomic: content goes to `<id>.json.tmp` first and is
    /// renamed into place, so a run killed mid-write leaves either the
    /// previous complete file or the new complete file — never a
    /// truncated one.
    pub fn save(&self) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.json", self.id));
        let tmp = dir.join(format!("{}.json.tmp", self.id));
        // With GNCG_TRACE=1 the saved file carries a `trace` section (the
        // process-wide counter/span snapshot at save time). The section is
        // added here, not in `to_json`, so checkpoint lines and the
        // default GNCG_TRACE=0 output stay byte-identical to before.
        let mut value = self.to_json();
        if gncg_trace::enabled() {
            if let Value::Object(entries) = &mut value {
                entries.push(("trace".to_string(), gncg_trace::snapshot().to_json()));
            }
        }
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(gncg_json::to_string_pretty(&value).as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }
}

/// Resolve the `results/` output directory: `GNCG_RESULTS_DIR` override
/// (re-read on every call — tests redirect it at runtime), else
/// `<workspace>/results` when detectable, else `./results`.
pub fn results_dir() -> PathBuf {
    if let Some(d) = gncg_config::env::results_dir() {
        return d;
    }
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        // crates/sweep -> workspace root two levels up
        let p = PathBuf::from(manifest);
        if let Some(root) = p.parent().and_then(|p| p.parent()) {
            return root.join("results");
        }
    }
    PathBuf::from("results")
}

/// Why a log-log fit could not be performed.
#[derive(Debug, Clone, PartialEq)]
pub enum FitError {
    /// Fewer than two points.
    TooFewPoints {
        /// How many points were provided.
        got: usize,
    },
    /// A point with non-positive coordinates (logarithm undefined).
    NonPositivePoint {
        /// Index of the offending point.
        index: usize,
        /// Its coordinates.
        x: f64,
        /// Its coordinates.
        y: f64,
    },
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::TooFewPoints { got } => {
                write!(f, "log-log fit needs at least 2 points, got {got}")
            }
            FitError::NonPositivePoint { index, x, y } => write!(
                f,
                "log-log fit needs positive data, point {index} is ({x}, {y})"
            ),
        }
    }
}

impl std::error::Error for FitError {}

/// Fit the slope of `log(y) ~ slope·log(x) + intercept` — the measured
/// growth exponent for Figure 4 / Theorem 4.3 style claims.
///
/// A single degenerate sweep point (zero/negative, e.g. a run where the
/// measured quantity collapsed) yields an error the caller can report as
/// a failed row instead of aborting the whole figure regeneration.
pub fn log_log_slope(points: &[(f64, f64)]) -> Result<f64, FitError> {
    if points.len() < 2 {
        return Err(FitError::TooFewPoints { got: points.len() });
    }
    let mut logs = Vec::with_capacity(points.len());
    for (index, &(x, y)) in points.iter().enumerate() {
        if !(x > 0.0 && y > 0.0) {
            return Err(FitError::NonPositivePoint { index, x, y });
        }
        logs.push((x.ln(), y.ln()));
    }
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|p| p.0).sum();
    let sy: f64 = logs.iter().map(|p| p.1).sum();
    let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
    Ok((n * sxy - sx * sy) / (n * sxx - sx * sx))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_power_law() {
        let pts: Vec<(f64, f64)> = (1..20)
            .map(|i| {
                let x = i as f64;
                (x, 3.0 * x.powf(1.5))
            })
            .collect();
        assert!((log_log_slope(&pts).unwrap() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn slope_of_constant_is_zero() {
        let pts: Vec<(f64, f64)> = (1..10).map(|i| (i as f64, 7.0)).collect();
        assert!(log_log_slope(&pts).unwrap().abs() < 1e-9);
    }

    #[test]
    fn slope_errors_are_values_not_panics() {
        assert_eq!(
            log_log_slope(&[(1.0, 1.0)]),
            Err(FitError::TooFewPoints { got: 1 })
        );
        match log_log_slope(&[(1.0, 2.0), (3.0, 0.0)]) {
            Err(FitError::NonPositivePoint { index: 1, .. }) => {}
            other => panic!("expected NonPositivePoint, got {other:?}"),
        }
    }

    #[test]
    fn report_roundtrip() {
        let mut r = Report::new("test_report", "testing");
        r.push("a=1".into(), 1.0, 1.1, true, "");
        r.push("a=2".into(), 2.0, 1.9, true, "x");
        assert!(r.all_ok());
        r.push("a=3".into(), 3.0, 9.9, false, "bad");
        assert!(!r.all_ok());
    }

    #[test]
    fn non_finite_pushes_are_rejected() {
        let mut r = Report::new("nf", "testing");
        let err = r
            .try_push("a=1".into(), Some(f64::NAN), Some(1.0), true, "")
            .unwrap_err();
        assert_eq!(err.field, "paper");
        assert!(err.to_string().contains("a=1"));
        let err = r
            .try_push("a=2".into(), None, Some(f64::INFINITY), true, "")
            .unwrap_err();
        assert_eq!(err.field, "measured");
        assert!(r.rows.is_empty());
        // absent values are fine
        r.push_degenerate("a=3".into(), true, "no data in range");
        r.push_unreferenced("a=4".into(), 2.5, true, "");
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0].measured, None);
        assert_eq!(r.rows[1].paper, None);
    }

    #[test]
    fn report_json_roundtrips_including_absent_values() {
        let mut r = Report::new("rt", "roundtrip claim");
        r.push("a=1".into(), 1.5, 1.25, true, "note");
        r.push_degenerate("a=2".into(), false, "degenerate");
        r.push_unreferenced("a=3".into(), 0.5, true, "");
        r.rows[2].counters = vec![("heap_pops".into(), 7), ("evals".into(), 0)];
        let text = gncg_json::to_string_pretty(&r);
        let back = Report::from_json(&gncg_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        assert!(!gncg_json::to_string(&r.rows[0]).contains("counters"));
    }

    #[test]
    fn save_is_atomic_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("gncg_bench_save_{}", std::process::id()));
        std::env::set_var("GNCG_RESULTS_DIR", &dir);
        let mut r = Report::new("atomic_save_test", "claim");
        r.push("a=1".into(), 1.0, 1.0, true, "");
        let path = r.save().unwrap();
        std::env::remove_var("GNCG_RESULTS_DIR");
        assert!(path.exists());
        assert!(!path.with_extension("json.tmp").exists());
        let text = std::fs::read_to_string(&path).unwrap();
        let back = Report::from_json(&gncg_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
