//! Thin-client harness: repro sweeps as [`gncg_service::Session`] jobs.
//!
//! Every repro binary used to own the whole process: open a
//! [`SweepCheckpoint`], run units, save, finish. They are now thin
//! clients of the job service — the sweep body runs as a single `Sweep`
//! job whose [`JobCtx`] budget comes from the session (and hence from
//! `GNCG_BUDGET_MS`). That buys each binary, for free:
//!
//! * **time-sliced sweeps** — with `GNCG_BUDGET_MS` set, the sweep runs
//!   until the budget trips, checkpoints, and exits with
//!   [`INTERRUPTED_EXIT`]; re-running resumes from the checkpoint and
//!   assembles the byte-identical report of an uninterrupted run;
//! * **panic isolation** — a panicking sweep resolves its handle to
//!   [`gncg_service::JobError::Panicked`] instead of poisoning the
//!   process abort path.
//!
//! [`SweepRun`] bundles the job context with the checkpoint: units go
//! through [`SweepRun::unit`]/[`SweepRun::section`], which replay
//! completed work and *skip* (returning `None`) once the budget is
//! exhausted — completed units stay checkpointed, in-flight ones are
//! never half-written.
//!
//! Both whole-main harnesses parse the process arguments before any
//! work: `--help`/`-h` prints the claim and usage and exits 0, and any
//! argument the binary does not accept prints the usage and exits 2 —
//! neither writes a report or a checkpoint.

use crate::checkpoint::SweepCheckpoint;
use crate::Report;
use gncg_service::{JobCtx, JobOptions, Session};
use std::ops::Range;
use std::path::Path;

/// Exit code of a sweep interrupted by its budget (checkpoint kept;
/// re-run to resume). `EX_TEMPFAIL` from `sysexits.h`. Defined once in
/// `gncg-config` so every tier — local sweeps, the `gncg` CLI, and
/// remote `ServeClient` sessions — exits identically on interruption.
pub use gncg_config::INTERRUPTED_EXIT;

/// A sweep body's view of its job: the service context plus the
/// checkpoint for this report id.
pub struct SweepRun<'c> {
    ctx: &'c JobCtx,
    ckpt: SweepCheckpoint,
}

impl SweepRun<'_> {
    /// Has the job's budget been exhausted (deadline, handle cancel, or
    /// session shutdown)? Completed units are already checkpointed;
    /// the body should wind down.
    pub fn cancelled(&self) -> bool {
        self.ctx.cancelled()
    }

    /// Units replayed from a previous interrupted run's checkpoint.
    pub fn resumed_units(&self) -> usize {
        self.ckpt.resumed_units()
    }

    /// Run (or replay) one checkpointed unit appending rows to
    /// `report`; see [`SweepCheckpoint::rows`]. Returns `None` without
    /// running once the budget is exhausted.
    pub fn unit(
        &mut self,
        report: &mut Report,
        key: &str,
        f: impl FnOnce(&mut Report),
    ) -> Option<Range<usize>> {
        if self.ctx.cancelled() {
            return None;
        }
        Some(self.ckpt.rows(report, key, f))
    }

    /// Run (or replay) one checkpointed unit producing a whole
    /// [`Report`]; see [`SweepCheckpoint::report_with`]. Returns `None`
    /// without running once the budget is exhausted.
    pub fn section(&mut self, key: &str, f: impl FnOnce() -> Report) -> Option<Report> {
        if self.ctx.cancelled() {
            return None;
        }
        Some(self.ckpt.report_with(key, f))
    }
}

/// Run a sweep body as a service job against the checkpoint for `id`.
///
/// Returns the body's value and whether the sweep was interrupted. On a
/// completed run the checkpoint is deleted (*after* the body returned,
/// so the body must save its reports first); on an interrupted run it
/// is kept for resume. A panicking body exits the process with code 1.
pub fn run_sweep<T, F>(id: &str, body: F) -> (T, bool)
where
    T: Send + 'static,
    F: FnOnce(&mut SweepRun) -> T + Send + 'static,
{
    let session = Session::new();
    let id_owned = id.to_string();
    let handle = session
        .submit_sweep(JobOptions::default(), move |ctx| {
            let mut run = SweepRun {
                ctx,
                ckpt: SweepCheckpoint::open(&id_owned),
            };
            if run.resumed_units() > 0 {
                eprintln!(
                    "sweep '{id_owned}': resuming {} checkpointed unit(s)",
                    run.resumed_units()
                );
            }
            let out = body(&mut run);
            let interrupted = run.cancelled();
            if interrupted {
                eprintln!("sweep '{id_owned}' interrupted by its budget; checkpoint kept — re-run to resume");
            } else {
                run.ckpt.finish();
            }
            (out, interrupted)
        })
        .unwrap_or_else(|e| {
            eprintln!("sweep '{id}' rejected by the service: {e}");
            std::process::exit(2);
        });
    match handle.wait() {
        Ok(out) => out,
        Err(e) => {
            eprintln!("sweep '{id}' failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Check the environment, then parse a repro binary's arguments: a
/// `GNCG_*` value that does not parse ([`gncg_config::env::check`])
/// exits 2 with its message; `--help`/`-h` prints `claim` and the usage
/// and exits 0; any argument outside `sections` prints the usage and
/// exits 2. Returns the selected sections (empty: run all).
fn parse_args(id: &str, claim: &str, sections: &[&str]) -> Vec<String> {
    if let Err(e) = gncg_config::env::check() {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let mut args = std::env::args();
    let bin = args
        .next()
        .and_then(|a| Some(Path::new(&a).file_name()?.to_string_lossy().into_owned()))
        .unwrap_or_else(|| format!("repro_{id}"));
    let args: Vec<String> = args.collect();
    let mut usage = format!("usage: {bin} [--help]");
    if !sections.is_empty() {
        usage += &format!(" [SECTION ...]\nsections: {}", sections.join(" "));
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{bin}: {claim}\n\n{usage}");
        println!("writes its report(s) under results/ (or $GNCG_RESULTS_DIR)");
        std::process::exit(0);
    }
    if let Some(bad) = args.iter().find(|a| !sections.contains(&a.as_str())) {
        eprintln!("{bin}: unknown argument '{bad}'\n{usage}");
        std::process::exit(2);
    }
    args
}

/// Whole-main harness for single-report repro binaries: parses the
/// arguments (only `--help` is accepted), runs `body` as a service job,
/// then prints and saves the report and finishes the checkpoint. Exits
/// with [`INTERRUPTED_EXIT`] when the budget tripped mid-sweep. Returns
/// the completed report so `main` can turn `!all_ok()` into its exit
/// status.
pub fn run_repro<F>(id: &str, claim: &str, body: F) -> Report
where
    F: FnOnce(&mut SweepRun, &mut Report) + Send + 'static,
{
    parse_args(id, claim, &[]);
    let id_owned = id.to_string();
    let claim_owned = claim.to_string();
    let (report, interrupted) = run_sweep(id, move |run| {
        let mut report = Report::new(&id_owned, &claim_owned);
        body(run, &mut report);
        if !run.cancelled() {
            report.print();
            let _ = report.save();
        }
        report
    });
    if interrupted {
        std::process::exit(INTERRUPTED_EXIT);
    }
    report
}

/// Whole-main harness for multi-report (sectioned) repro binaries:
/// parses the arguments (`--help`, or any of `sections` to run only
/// those), then runs `body` with the selected section names (empty:
/// all). The body prints/saves each section itself and returns its
/// aggregate `all_ok`. Exits with [`INTERRUPTED_EXIT`] when
/// interrupted.
pub fn run_sections<F>(id: &str, claim: &str, sections: &[&str], body: F) -> bool
where
    F: FnOnce(&mut SweepRun, Vec<String>) -> bool + Send + 'static,
{
    let selected = parse_args(id, claim, sections);
    let (all_ok, interrupted) = run_sweep(id, move |run| body(run, selected));
    if interrupted {
        std::process::exit(INTERRUPTED_EXIT);
    }
    all_ok
}
