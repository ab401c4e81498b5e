//! Shutdown mid-`Sweep` checkpoints, and the resumed run assembles the
//! byte-identical report of an uninterrupted one.
//!
//! The sweep job polls its [`JobCtx`] between checkpointed units;
//! `Session::shutdown(Cancel)` trips the job's budget, the job returns
//! after the unit in flight, and completed units survive in the
//! checkpoint file. Re-running the same sweep against that file replays
//! them and computes only the remainder.

use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

use gncg_game::certify::certify;
use gncg_game::OwnedNetwork;
use gncg_game::SolverConfig;
use gncg_geometry::generators;
use gncg_service::{JobOptions, Session, Shutdown};
use gncg_sweep::checkpoint::SweepCheckpoint;
use gncg_sweep::Report;

const UNITS: u64 = 6;
const CLAIM: &str = "service sweep shutdown/resume fixture";

fn unit_work(i: u64, rep: &mut Report) {
    let ps = generators::uniform_unit_square(10, 500 + i);
    let net = OwnedNetwork::center_star(10, 0);
    let r = certify(&ps, &net, 2.0, &SolverConfig::bounds_only());
    rep.push(
        format!("unit {i}"),
        r.beta_upper,
        r.gamma_upper,
        r.connected,
        "fixture row",
    );
}

fn run_all_units(ckpt: &mut SweepCheckpoint) -> Report {
    let mut rep = Report::new("svc_sweep", CLAIM);
    for i in 0..UNITS {
        ckpt.rows(&mut rep, &format!("unit {i}"), |rep| unit_work(i, rep));
    }
    rep
}

fn tmp_path(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "svc_sweep_{tag}_{}.checkpoint.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn shutdown_mid_sweep_resumes_byte_identically() {
    // uninterrupted reference report
    let ref_path = tmp_path("ref");
    let mut ref_ckpt = SweepCheckpoint::open_at(ref_path.clone());
    let expected = gncg_json::to_string_pretty(&run_all_units(&mut ref_ckpt));
    ref_ckpt.finish();

    // interrupted service run: the job completes 3 units, parks until
    // shutdown(Cancel) trips its budget, then winds down
    let live_path = tmp_path("live");
    let job_path = live_path.clone();
    let (tx, rx) = mpsc::channel();
    let session = Session::builder().threads(1).build();
    let handle = session
        .submit_sweep(JobOptions::default(), move |ctx| {
            let mut ckpt = SweepCheckpoint::open_at(job_path);
            let mut rep = Report::new("svc_sweep", CLAIM);
            for i in 0..UNITS {
                if i == 3 {
                    tx.send(()).unwrap();
                    while !ctx.cancelled() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                if ctx.cancelled() {
                    return rep;
                }
                ckpt.rows(&mut rep, &format!("unit {i}"), |rep| unit_work(i, rep));
            }
            rep
        })
        .expect("sweep admitted");
    rx.recv().expect("sweep reached its parking point");
    session.shutdown(Shutdown::Cancel);
    let partial = handle.wait().expect("cancelled sweep still returns");
    assert_eq!(
        partial.rows.len(),
        3,
        "exactly the pre-shutdown units completed"
    );
    assert!(live_path.exists(), "checkpoint survives the shutdown");

    // resume: replays the 3 completed units, computes the rest, and the
    // assembled report is byte-identical to the uninterrupted one
    let mut resumed = SweepCheckpoint::open_at(live_path.clone());
    let rep = run_all_units(&mut resumed);
    assert_eq!(resumed.resumed_units(), 3);
    assert_eq!(gncg_json::to_string_pretty(&rep), expected);
    resumed.finish();
    assert!(!live_path.exists(), "finish removes the checkpoint");
}
