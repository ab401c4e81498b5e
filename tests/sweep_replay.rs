//! Tier-1 smoke over the whole certify stack: the committed
//! `specs/sweep_chain_exact.sweep.json` (exact β/γ on small geometric
//! chains) replayed through the sweep engine must reproduce the
//! committed `results/sweep_chain_exact.json` byte for byte. The full
//! three-regime replay of every spec lives in
//! `crates/sweep/tests/sweep_oracle.rs`.

use std::path::Path;

use euclidean_network_design::parallel::Budget;
use gncg_json::ToJson;
use gncg_sweep::engine::run_spec;
use gncg_sweep::spec::SweepSpec;

#[test]
fn chain_exact_spec_replays_committed_results() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("specs/sweep_chain_exact.sweep.json"))
        .expect("committed spec");
    let spec = SweepSpec::parse(&text).expect("spec parses");
    let committed = std::fs::read_to_string(root.join("results/sweep_chain_exact.json"))
        .expect("committed results");
    let scratch = std::env::temp_dir().join(format!("gncg_sweep_replay_{}", std::process::id()));
    let out = run_spec(
        &spec,
        None,
        None,
        &Budget::unlimited(),
        Some(scratch.join("ckpt.json")),
    );
    std::fs::remove_dir_all(&scratch).ok();
    assert!(!out.interrupted);
    // what `Report::save` writes with tracing off
    assert_eq!(
        gncg_json::to_string_pretty(&out.report.to_json()),
        committed,
        "replay diverged from results/sweep_chain_exact.json"
    );
}
