//! `gncg` and repro-binary command-line surfaces: input they do not
//! understand is a usage error (exit 2), never a silent fallback, and
//! neither `--help` nor a rejected argument runs a sweep.

use gncg_geometry::generators;
use std::path::PathBuf;
use std::process::{Command, Output};

fn points_file(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gncg_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("points.json");
    let ps = generators::uniform_unit_square(6, 3);
    std::fs::write(
        &path,
        gncg_json::to_string(&gncg_json::ToJson::to_json(&ps)),
    )
    .unwrap();
    path
}

fn dynamics(points: &PathBuf, rule: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_gncg"));
    cmd.arg("dynamics")
        .arg("--points")
        .arg(points)
        .args(["--alpha", "1", "--steps", "5"]);
    if let Some(rule) = rule {
        cmd.args(["--rule", rule]);
    }
    cmd.output().expect("gncg runs")
}

#[test]
fn dynamics_rejects_an_unknown_rule() {
    let points = points_file("rule_typo");
    let out = dynamics(&points, Some("bset"));
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown --rule bset"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing may run on a typo");
    std::fs::remove_dir_all(points.parent().unwrap()).ok();
}

#[test]
fn dynamics_accepts_best_single_and_absent() {
    let points = points_file("rule_ok");
    for rule in [Some("best"), Some("single"), None] {
        let out = dynamics(&points, rule);
        assert!(out.status.success(), "{rule:?}: {out:?}");
    }
    std::fs::remove_dir_all(points.parent().unwrap()).ok();
}

/// `gncg <sub>` on a 6-point star with `GNCG_MODEL=<model>`; `connect`
/// targets a port nothing should listen on.
fn with_model(sub: &str, model: &str, tag: &str) -> Output {
    let points = points_file(tag);
    let network = points.with_file_name("network.json");
    let star = gncg_game::OwnedNetwork::center_star(6, 0);
    std::fs::write(
        &network,
        gncg_json::to_string(&gncg_json::ToJson::to_json(&star)),
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_gncg"))
        .arg(sub)
        .arg("--points")
        .arg(&points)
        .arg("--network")
        .arg(&network)
        .args(["--alpha", "2", "--addr", "127.0.0.1:9"])
        .env(gncg_config::env::MODEL_VAR, model)
        .output()
        .expect("gncg runs");
    std::fs::remove_dir_all(points.parent().unwrap()).ok();
    out
}

#[test]
fn certify_and_connect_reject_an_unknown_model() {
    for sub in ["certify", "connect"] {
        let out = with_model(sub, "maxdst", &format!("model_typo_{sub}"));
        assert_eq!(out.status.code(), Some(2), "{sub}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("accepted: sum, maxdist, max"),
            "{sub}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{sub}: nothing may run on a typo");
    }
    let out = with_model("certify", "MAX", "model_max");
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains(r#""model": "maxdist""#));
}

/// Run a repro binary with `GNCG_RESULTS_DIR` pointed at a fresh empty
/// directory; returns the output and the directory.
fn repro(bin: &str, args: &[&str], tag: &str) -> (Output, PathBuf) {
    let dir = std::env::temp_dir().join(format!("gncg_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(bin)
        .args(args)
        .env("GNCG_RESULTS_DIR", &dir)
        .output()
        .expect("repro binary runs");
    (out, dir)
}

fn assert_nothing_written(dir: &PathBuf) {
    let left: Vec<_> = std::fs::read_dir(dir).unwrap().collect();
    assert!(left.is_empty(), "wrote {left:?}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn repro_help_prints_usage_without_running() {
    let (out, dir) = repro(env!("CARGO_BIN_EXE_repro_fig7"), &["--help"], "fig7_help");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: repro_fig7"), "{stdout}");
    assert_nothing_written(&dir);
}

#[test]
fn repro_rejects_unknown_arguments() {
    let (out, dir) = repro(env!("CARGO_BIN_EXE_repro_fig7"), &["--bogus"], "fig7_bogus");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument '--bogus'"), "{stderr}");
    assert_nothing_written(&dir);
}

#[test]
fn repro_table1_accepts_only_its_section_names() {
    let (out, dir) = repro(
        env!("CARGO_BIN_EXE_repro_table1"),
        &["thm_9_9"],
        "table1_bad_section",
    );
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("sections: thm_2_1"), "{stderr}");
    assert_nothing_written(&dir);
}
