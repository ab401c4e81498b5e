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
use gncg_game::{best_response, dynamics, exact, OwnedNetwork, SolverConfig};
use gncg_geometry::generators;
use gncg_service::{JobError, JobOptions, Session};

const SEEDS: [u64; 3] = [11, 22, 33];

#[test]
fn concurrent_mixed_load_bit_identical_to_sequential() {
    // sequential reference: every job kind, run directly
    let mut seq_certify = Vec::new();
    let mut seq_br = Vec::new();
    let mut seq_opt = Vec::new();
    let mut seq_dyn = Vec::new();
    for &seed in &SEEDS {
        let ps = generators::uniform_unit_square(6, seed);
        let net = OwnedNetwork::center_star(6, 0);
        seq_certify.push(certify(&ps, &net, 1.5, &SolverConfig::exact()));
        seq_br.push(
            best_response::exact_best_response(&ps, &net, 1.5, 1, &SolverConfig::default())
                .expect_exact("best response"),
        );
        seq_opt.push(
            exact::exact_social_optimum(&ps, 1.5, &SolverConfig::default())
                .expect_exact("social optimum"),
        );
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

    // concurrent: all twelve jobs in flight on one session
    let session = Session::builder().threads(4).build();
    let mut h_certify = Vec::new();
    let mut h_br = Vec::new();
    let mut h_opt = Vec::new();
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
        h_br.push(
            session
                .submit_best_response(
                    ps.clone(),
                    net.clone(),
                    1.5,
                    1,
                    SolverConfig::default(),
                    JobOptions::default(),
                )
                .expect("admitted"),
        );
        h_opt.push(
            session
                .submit_exact_optimum(
                    ps.clone(),
                    1.5,
                    SolverConfig::default(),
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
    for (h, want) in h_br.into_iter().zip(&seq_br) {
        let got = h.wait().expect("best-response job").expect_exact("exact");
        assert_eq!(got.cost.to_bits(), want.cost.to_bits());
        assert_eq!(got.strategy, want.strategy);
    }
    for (h, want) in h_opt.into_iter().zip(&seq_opt) {
        let got = h.wait().expect("optimum job").expect_exact("exact");
        assert_eq!(got.social_cost.to_bits(), want.social_cost.to_bits());
    }
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
    let h_br = session
        .submit_best_response(
            ps.clone(),
            net.clone(),
            1.5,
            1,
            max_cfg.clone(),
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

    let want_br =
        best_response::exact_best_response(&*ps, &net, 1.5, 1, &max_cfg).expect_exact("br");
    let got_br = h_br.wait().expect("br job").expect_exact("br");
    assert_eq!(got_br.cost.to_bits(), want_br.cost.to_bits());
    assert_eq!(got_br.strategy, want_br.strategy);

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
