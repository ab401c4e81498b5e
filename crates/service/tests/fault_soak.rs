//! Fault soak: with injected faults firing at the `GNCG_FAULT_INJECT`
//! soak probability, every service job still completes with the
//! bit-identical result (the chunk runners absorb and retry injected
//! faults deterministically), the session's workers stay healthy for
//! jobs submitted afterwards, and a fault at every ticket pickup loses
//! no job.
//!
//! One test in its own binary: the injection probability is a process
//! global, and no other test should run concurrently with it raised.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use gncg_game::certify::certify;
use gncg_game::{OwnedNetwork, SolverConfig};
use gncg_geometry::generators;
use gncg_parallel::fault;
use gncg_service::{JobOptions, Session};

#[test]
fn fault_soak_all_jobs_succeed_and_pool_stays_healthy() {
    // reference results with injection off
    let mut want = Vec::new();
    for seed in 0..8u64 {
        let ps = generators::uniform_unit_square(12, seed);
        let net = OwnedNetwork::center_star(12, 0);
        want.push(certify(&ps, &net, 2.0, &SolverConfig::bounds_only()));
    }

    let before = fault::injection_probability();
    fault::set_injection_probability(0.02);
    let session = Session::builder().threads(4).build();
    let handles: Vec<_> = (0..8u64)
        .map(|seed| {
            let ps = Arc::new(generators::uniform_unit_square(12, seed));
            let net = OwnedNetwork::center_star(12, 0);
            session
                .submit_certify(
                    ps,
                    net,
                    2.0,
                    SolverConfig::bounds_only(),
                    JobOptions::default(),
                )
                .expect("admitted")
        })
        .collect();
    for (h, want) in handles.into_iter().zip(&want) {
        let got = h.wait().expect("job survives injected faults");
        assert_eq!(got.beta_upper.to_bits(), want.beta_upper.to_bits());
        assert_eq!(got.gamma_upper.to_bits(), want.gamma_upper.to_bits());
        assert_eq!(got.social_cost.to_bits(), want.social_cost.to_bits());
    }
    fault::set_injection_probability(before);

    // the workers are still healthy: a fresh job on the same session completes
    let ps = Arc::new(generators::uniform_unit_square(12, 99));
    let net = OwnedNetwork::center_star(12, 0);
    let h = session
        .submit_certify(
            ps,
            net,
            2.0,
            SolverConfig::bounds_only(),
            JobOptions::default(),
        )
        .expect("admitted after soak");
    assert!(h.wait().is_ok());
    session.wait_idle();

    // a fault at every ticket pickup is absorbed: no job is lost
    fault::set_injection_probability(1.0);
    let ran = Arc::new(AtomicUsize::new(0));
    for _ in 0..40 {
        let ran = Arc::clone(&ran);
        session
            .submit_sweep(JobOptions::default(), move |_| {
                ran.fetch_add(1, Ordering::SeqCst);
            })
            .expect("admitted");
    }
    session.wait_idle();
    fault::set_injection_probability(before);
    assert_eq!(ran.load(Ordering::SeqCst), 40);
}
