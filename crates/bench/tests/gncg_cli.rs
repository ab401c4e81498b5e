//! `gncg` command-line surface: input it does not understand is a usage
//! error (exit 2), never a silent fallback.

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
