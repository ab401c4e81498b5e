//! Layered end-to-end benchmark of the GNCG solver stack.
//!
//! ```text
//! perfbench --workload <approx_large|sweep_certify|serve_mixed>
//!           --seed <u64> --seconds <s> --trace <0|1> [--size full|tiny]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with every trace layer
//! off. `--trace 1` runs the workload's operations untraced and then
//! traced (the ratio is the tracing overhead), records the benchmark's
//! own spans around each layer call, times each layer's public calls
//! directly on the workload's inputs, and reports the per-layer
//! metrics. Every run checks its outputs against direct solver calls.
//!
//! The last stdout line is the result object (`correct`, `attempted`,
//! `failed`, `metrics`); the line before it is the run context (seed,
//! threads, calibration, sample counts, the workload's named figures).

mod approx_large;
mod common;
mod probes;
mod serve_mixed;
mod spans;
mod sweep_certify;

use common::{calibration_secs, peak_rss_mb, print, Outcome, Run};
use gncg_json::{object, ToJson, Value};
use std::path::PathBuf;

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // the shared parent goes too once no other run is using it
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, seed, seconds, trace, tiny) = match common::parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let tmp = std::env::current_dir()
        .expect("working directory")
        .join(".bench_tmp")
        .join(format!("{workload}-{}", std::process::id()));
    let _scratch = Scratch(tmp.clone());
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        std::process::exit(1);
    }
    let (threads, nproc) = common::pin_environment(&tmp);
    common::set_tracing(false);
    let run = Run {
        workload,
        seed,
        seconds,
        trace,
        tiny,
        threads,
        nproc,
        tmp,
    };

    let calibration = calibration_secs();
    let mut out = Outcome::default();
    match (run.workload.as_str(), run.trace) {
        ("approx_large", false) => approx_large::measure(&run, &mut out),
        ("approx_large", true) => approx_large::trace(&run, &mut out),
        ("sweep_certify", false) => sweep_certify::measure(&run, &mut out),
        ("sweep_certify", true) => sweep_certify::trace(&run, &mut out),
        ("serve_mixed", false) => serve_mixed::measure(&run, &mut out),
        ("serve_mixed", true) => serve_mixed::trace(&run, &mut out),
        _ => unreachable!("parse_args admits only known workloads"),
    }
    common::set_tracing(false);
    out.set("peak_rss_mb", peak_rss_mb());

    if run.trace {
        let recs = spans::records();
        for line in spans::table(&recs) {
            eprintln!("{line}");
        }
        let path =
            PathBuf::from(".bench_out").join(format!("spans-{}-{}.jsonl", run.workload, run.seed));
        if let Err(e) = spans::write_jsonl(&path, &recs) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    for f in &out.failures {
        eprintln!("perfbench: FAILED {f}");
    }

    let mut context = vec![
        ("workload", Value::String(run.workload.clone())),
        ("seed", Value::String(run.seed.to_string())),
        ("trace", run.trace.to_json()),
        ("nproc", run.nproc.to_json()),
        ("threads", run.threads.to_json()),
        ("calibration_s", Value::Number(calibration)),
        (
            "failed_ratio",
            Value::Number(out.failed as f64 / out.attempted.max(1) as f64),
        ),
        ("peak_rss_mb", Value::Number(out.get("peak_rss_mb"))),
        ("setup_s", Value::Number(out.get("setup_s"))),
    ];
    context.append(&mut out.context);
    println!("{}", print(&object(vec![("context", object(context))])));
    println!("{}", out.result_line(run.trace));
}
