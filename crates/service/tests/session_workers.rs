//! The session's own workers: they survive a panic that escapes a job's
//! envelope (a panicking observer), stay reusable across batches, run
//! every job on one thread, and are joined by `Drop` after the session
//! drains.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use gncg_service::{JobKind, JobOptions, Session};

/// Submit `jobs` sweep closures that each add 1 to `counter`.
fn submit_increments(session: &Session, counter: &Arc<AtomicUsize>, jobs: usize) {
    for _ in 0..jobs {
        let c = Arc::clone(counter);
        session
            .submit_sweep(JobOptions::default(), move |_| {
                c.fetch_add(1, Ordering::SeqCst);
            })
            .expect("admitted");
    }
}

#[test]
fn panicking_observer_neither_hangs_nor_stops_later_jobs() {
    let session = Session::builder().threads(2).build();
    let handle = session
        .submit_observed(
            JobKind::Sweep,
            JobOptions::default(),
            |_| 7,
            |_| panic!("observer boom"),
        )
        .expect("admitted");
    // the observer's panic does not keep the handle from resolving
    assert_eq!(handle.wait(), Ok(7));
    let raised = catch_unwind(AssertUnwindSafe(|| session.wait_idle()));
    let payload = raised.expect_err("the escaped panic is re-raised by wait_idle");
    assert_eq!(
        payload.downcast_ref::<&str>().copied(),
        Some("observer boom")
    );

    // two more escapes: one re-raise per wait_idle, then a clean one
    for _ in 0..2 {
        session
            .submit_observed(
                JobKind::Sweep,
                JobOptions::default(),
                |_| (),
                |_| panic!("again"),
            )
            .expect("admitted");
    }
    assert!(catch_unwind(AssertUnwindSafe(|| session.wait_idle())).is_err());
    session.wait_idle();

    // both workers are still alive: later jobs complete
    let counter = Arc::new(AtomicUsize::new(0));
    submit_increments(&session, &counter, 20);
    session.wait_idle();
    assert_eq!(counter.load(Ordering::SeqCst), 20);

    // and shutdown returns after one more escape
    session
        .submit_observed(
            JobKind::Certify,
            JobOptions::default(),
            |_| (),
            |_| panic!("at shutdown"),
        )
        .expect("admitted");
    let raised = catch_unwind(AssertUnwindSafe(|| {
        session.shutdown(gncg_service::Shutdown::Drain)
    }));
    assert!(raised.is_err());
    session.shutdown(gncg_service::Shutdown::Drain);
}

#[test]
fn workers_are_reused_across_batches() {
    let session = Session::builder().threads(3).build();
    session.wait_idle(); // no jobs yet: returns at once
    let counter = Arc::new(AtomicUsize::new(0));
    for batch in 1..=5 {
        submit_increments(&session, &counter, 40);
        session.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), batch * 40);
    }
}

#[test]
fn one_thread_session_runs_every_job() {
    let session = Session::builder().threads(1).build();
    let counter = Arc::new(AtomicUsize::new(0));
    submit_increments(&session, &counter, 50);
    session.wait_idle();
    assert_eq!(counter.load(Ordering::SeqCst), 50);
}

#[test]
fn drop_drains_then_joins_workers() {
    let counter = Arc::new(AtomicUsize::new(0));
    let session = Session::builder().threads(4).build();
    submit_increments(&session, &counter, 30);
    session
        .submit_observed(
            JobKind::Sweep,
            JobOptions::default(),
            |_| (),
            |_| panic!("never claimed"),
        )
        .expect("admitted");
    // Drop runs every admitted job before it joins the workers, and
    // does not re-raise the escaped panic no wait_idle took
    drop(session);
    assert_eq!(counter.load(Ordering::SeqCst), 30);
}
