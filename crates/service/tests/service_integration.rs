//! End-to-end contract of the job service:
//!
//! * a concurrent mixed workload produces bit-identical results to the
//!   same calls made sequentially on the calling thread — the session
//!   adds scheduling, never arithmetic;
//! * a deliberately panicking job fails alone: its handle resolves to
//!   [`JobError::Panicked`] while jobs submitted before and after it
//!   complete normally on the same pool.

use std::sync::Arc;

use gncg_game::certify::certify;
use gncg_game::{dynamics, exact, OwnedNetwork, SolverConfig};
use gncg_geometry::generators;
use gncg_service::{JobError, JobOptions, Session};

const SEEDS: [u64; 3] = [11, 22, 33];

#[test]
fn concurrent_mixed_load_bit_identical_to_sequential() {
    // sequential reference: every job kind, run directly; the sweep
    // kind's body is the exact social optimum of each instance
    let optima = || -> Vec<f64> {
        SEEDS
            .iter()
            .map(|&seed| {
                let ps = generators::uniform_unit_square(6, seed);
                exact::exact_social_optimum(&ps, 1.5, &SolverConfig::default())
                    .expect_exact("social optimum")
                    .social_cost
            })
            .collect()
    };
    let seq_opt = optima();
    let mut seq_certify = Vec::new();
    let mut seq_dyn = Vec::new();
    for &seed in &SEEDS {
        let ps = generators::uniform_unit_square(6, seed);
        let net = OwnedNetwork::center_star(6, 0);
        seq_certify.push(certify(&ps, &net, 1.5, &SolverConfig::exact()));
        seq_dyn.push(dynamics::run_spec(
            &ps,
            &net,
            1.5,
            dynamics::ResponseRule::BestSingleMove,
            dynamics::AgentOrder::RoundRobin,
            200,
            &SolverConfig::default(),
        ));
    }

    // concurrent: all seven jobs in flight on one session, the sweep
    // in the batch lane among the interactive certify and dynamics jobs
    let session = Session::builder().threads(4).build();
    let h_sweep = session
        .submit_sweep(JobOptions::default(), move |_ctx| optima())
        .expect("admitted");
    let mut h_certify = Vec::new();
    let mut h_dyn = Vec::new();
    for &seed in &SEEDS {
        let ps = Arc::new(generators::uniform_unit_square(6, seed));
        let net = OwnedNetwork::center_star(6, 0);
        h_certify.push(
            session
                .submit_certify(
                    ps.clone(),
                    net.clone(),
                    1.5,
                    SolverConfig::exact(),
                    JobOptions::default(),
                )
                .expect("admitted"),
        );
        h_dyn.push(
            session
                .submit_dynamics(
                    ps,
                    net,
                    1.5,
                    dynamics::ResponseRule::BestSingleMove,
                    200,
                    SolverConfig::default(),
                    JobOptions::default(),
                )
                .expect("admitted"),
        );
    }

    for (h, want) in h_certify.into_iter().zip(&seq_certify) {
        let got = h.wait().expect("certify job");
        assert_eq!(got.social_cost.to_bits(), want.social_cost.to_bits());
        assert_eq!(got.beta_upper.to_bits(), want.beta_upper.to_bits());
        assert_eq!(
            got.beta_exact.map(f64::to_bits),
            want.beta_exact.map(f64::to_bits)
        );
        assert_eq!(
            got.gamma_exact.map(f64::to_bits),
            want.gamma_exact.map(f64::to_bits)
        );
    }
    let got_opt = h_sweep.wait().expect("sweep job");
    assert_eq!(
        got_opt.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
        seq_opt.iter().map(|c| c.to_bits()).collect::<Vec<_>>()
    );
    for (h, want) in h_dyn.into_iter().zip(&seq_dyn) {
        match (h.wait().expect("dynamics job"), want) {
            (
                dynamics::Outcome::Converged { state, steps },
                dynamics::Outcome::Converged {
                    state: ws,
                    steps: wn,
                },
            ) => {
                assert_eq!(&state, ws);
                assert_eq!(&steps, wn);
            }
            (got, want) => panic!("outcome shape diverged: {got:?} vs {want:?}"),
        }
    }
    session.wait_idle();
}

#[test]
fn panicking_job_fails_alone_and_pool_stays_healthy() {
    let session = Session::builder().threads(2).build();
    let ps = Arc::new(generators::uniform_unit_square(6, 5));
    let net = OwnedNetwork::center_star(6, 0);

    let before = session
        .submit_certify(
            ps.clone(),
            net.clone(),
            1.0,
            SolverConfig::bounds_only(),
            JobOptions::default(),
        )
        .expect("admitted");
    let bomb = session
        .submit_sweep(JobOptions::default(), |_ctx| {
            panic!("deliberate integration-test panic")
        })
        .expect("admitted");
    let after = session
        .submit_certify(
            ps,
            net,
            1.0,
            SolverConfig::bounds_only(),
            JobOptions::default(),
        )
        .expect("admitted");

    assert!(before.wait().is_ok(), "job before the panic must succeed");
    match bomb.wait() {
        Err(JobError::Panicked(msg)) => {
            assert!(msg.contains("deliberate integration-test panic"))
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    assert!(after.wait().is_ok(), "job after the panic must succeed");
    session.wait_idle();
}

#[test]
fn model_choice_threads_through_typed_submits() {
    use gncg_game::ModelKind;
    let session = Session::builder().threads(2).build();
    let ps = Arc::new(generators::uniform_unit_square(6, 9));
    let net = OwnedNetwork::center_star(6, 0);
    let max_cfg = SolverConfig::default().with_model(ModelKind::MaxDistance);
    let max_exact = SolverConfig::exact().with_model(ModelKind::MaxDistance);

    let h_cert = session
        .submit_certify(
            ps.clone(),
            net.clone(),
            1.5,
            max_exact.clone(),
            JobOptions::default(),
        )
        .expect("admitted");
    let h_dyn = session
        .submit_dynamics(
            ps.clone(),
            net.clone(),
            1.5,
            dynamics::ResponseRule::BestSingleMove,
            200,
            max_cfg.clone(),
            JobOptions::default(),
        )
        .expect("admitted");

    let want_cert = certify(&*ps, &net, 1.5, &max_exact);
    let got_cert = h_cert.wait().expect("certify job");
    assert_eq!(got_cert.model, ModelKind::MaxDistance);
    assert_eq!(
        got_cert.social_cost.to_bits(),
        want_cert.social_cost.to_bits()
    );
    assert_eq!(
        got_cert.beta_upper.to_bits(),
        want_cert.beta_upper.to_bits()
    );

    let want_dyn = dynamics::run_spec(
        &*ps,
        &net,
        1.5,
        dynamics::ResponseRule::BestSingleMove,
        dynamics::AgentOrder::RoundRobin,
        200,
        &max_cfg,
    );
    assert_eq!(h_dyn.wait().expect("dynamics job"), want_dyn);
    session.wait_idle();
}
