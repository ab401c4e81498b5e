//! `gncg` and repro-binary command-line surfaces: input they do not
//! understand is a usage error (exit 2), never a silent fallback, and
//! neither `--help` nor a rejected argument runs a sweep.

use gncg_config::env::MODEL_VAR;
use gncg_geometry::generators;
use std::path::{Path, PathBuf};
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

/// `gncg <sub>` on a 6-point star with `<var>=<value>`; `connect`
/// targets a port nothing should listen on.
fn with_env(sub: &str, var: &str, value: &str, tag: &str) -> Output {
    let points = points_file(tag);
    let network = points.with_file_name("network.json");
    let star = gncg_game::OwnedNetwork::center_star(6, 0);
    std::fs::write(
        &network,
        gncg_json::to_string(&gncg_json::ToJson::to_json(&star)),
    )
    .unwrap();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_gncg"));
    cmd.arg(sub)
        .arg("--points")
        .arg(&points)
        .arg("--network")
        .arg(&network)
        .args(["--alpha", "2"])
        .env(var, value);
    if sub == "connect" {
        cmd.args(["--addr", "127.0.0.1:9"]);
    }
    let out = cmd.output().expect("gncg runs");
    std::fs::remove_dir_all(points.parent().unwrap()).ok();
    out
}

#[test]
fn certify_and_connect_reject_an_unknown_model() {
    for sub in ["certify", "connect"] {
        let out = with_env(sub, MODEL_VAR, "maxdst", &format!("model_typo_{sub}"));
        assert_eq!(out.status.code(), Some(2), "{sub}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("accepted: sum, maxdist, max"),
            "{sub}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{sub}: nothing may run on a typo");
    }
    let out = with_env("certify", MODEL_VAR, "MAX", "model_max");
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains(r#""model": "maxdist""#));
}

#[test]
fn an_unparsable_env_value_exits_2_before_any_work() {
    let out = with_env("certify", "GNCG_THREADS", "four", "threads_typo");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(r#"GNCG_THREADS="four""#), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing may run on a bad value");

    let (out, dir) = repro(
        env!("CARGO_BIN_EXE_repro_fig7"),
        &[],
        &[("GNCG_TRACE", "yes")],
        "fig7_trace_typo",
    );
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(r#"GNCG_TRACE="yes""#), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing may run on a bad value");
    assert_nothing_written(&dir);
}

/// `gncg` with the whitespace-separated `line` as its arguments, run in
/// `dir` so file options can be bare names.
fn gncg_in(dir: &Path, line: &str) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_gncg"));
    cmd.args(line.split_whitespace()).current_dir(dir);
    cmd
}

/// A scratch directory holding `points.json` (6 points) and
/// `network.json` (their star).
fn instance_dir(tag: &str) -> PathBuf {
    let dir = points_file(tag).parent().unwrap().to_path_buf();
    let star = gncg_game::OwnedNetwork::center_star(6, 0);
    std::fs::write(
        dir.join("network.json"),
        gncg_json::to_string(&gncg_json::ToJson::to_json(&star)),
    )
    .unwrap();
    dir
}

fn assert_usage_error(out: &Output, message: &str) {
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(message), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "nothing may run on a rejected option"
    );
}

fn file_count(dir: &Path) -> usize {
    std::fs::read_dir(dir).unwrap().count()
}

#[test]
fn unknown_options_and_flag_values_are_usage_errors() {
    let dir = instance_dir("strict_opts");
    for (line, message) in [
        (
            "generate --kind uniform --n 6 --sed 7 --out p.json",
            "unknown option --sed",
        ),
        (
            "certify --points points.json --network network.json --alpha 2 --exact false",
            "option --exact takes no value",
        ),
        (
            "certify --points points.json --network network.json --alpha",
            "option --alpha needs a value",
        ),
        (
            "generate --kind uniform --n 6 --n 9 --out p.json",
            "option --n given twice",
        ),
        ("sweep gc --all", "unknown option --all"),
    ] {
        let out = gncg_in(&dir, line).output().expect("gncg runs");
        assert_usage_error(&out, message);
        assert_eq!(file_count(&dir), 2, "{line}: wrote a file");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every option the usage text documents gets past the option parser:
/// the cheap subcommands run to success, and the ones that would block
/// or reach a server stop at the first check after parsing.
#[test]
fn every_documented_option_is_accepted() {
    let dir = instance_dir("documented");
    let spec =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs/sweep_chain_exact.sweep.json");
    std::fs::copy(spec, dir.join("chain.sweep.json")).unwrap();
    for line in [
        "generate --kind chain --n 6 --seed 7 --alpha 2 --out gen.json",
        "build --points points.json --alpha 2 --method star --out built.json",
        "certify --points points.json --network network.json --alpha 2 --exact",
        "dynamics --points points.json --alpha 1 --steps 5 --rule single",
        "sweep plan --spec chain.sweep.json",
    ] {
        let out = gncg_in(&dir, line).output().expect("gncg runs");
        assert!(out.status.success(), "{line}: {out:?}");
    }
    // past the parser, each of these fails its first check: the spec
    // file is missing, the port is out of range (no name lookup), the
    // model is unknown (before any connection)
    for (line, code, message) in [
        ("sweep run --spec missing.sweep.json", 1, "cannot read"),
        ("serve --addr 127.0.0.1:99999", 1, "cannot bind"),
        (
            "connect --job certify --points points.json --network network.json --alpha 2 \
             --spec chain.sweep.json --exact --steps 5 --rule best --budget-ms 100 \
             --addr 127.0.0.1:9 --client cli-test --idem k",
            2,
            "accepted: sum, maxdist, max",
        ),
    ] {
        let out = gncg_in(&dir, line)
            .env(MODEL_VAR, "maxdst")
            .output()
            .expect("gncg runs");
        assert_eq!(out.status.code(), Some(code), "{line}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{line}: {stderr}");
        assert!(!stderr.contains("usage:"), "{line}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Run a repro binary with `GNCG_RESULTS_DIR` pointed at a fresh empty
/// directory and `env` set; returns the output and the directory.
fn repro(bin: &str, args: &[&str], env: &[(&str, &str)], tag: &str) -> (Output, PathBuf) {
    let dir = std::env::temp_dir().join(format!("gncg_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(bin)
        .args(args)
        .envs(env.iter().copied())
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
    let (out, dir) = repro(
        env!("CARGO_BIN_EXE_repro_fig7"),
        &["--help"],
        &[],
        "fig7_help",
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: repro_fig7"), "{stdout}");
    assert_nothing_written(&dir);
}

#[test]
fn repro_rejects_unknown_arguments() {
    let (out, dir) = repro(
        env!("CARGO_BIN_EXE_repro_fig7"),
        &["--bogus"],
        &[],
        "fig7_bogus",
    );
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
        &[],
        "table1_bad_section",
    );
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("sections: thm_2_1"), "{stderr}");
    assert_nothing_written(&dir);
}
