//! End-to-end test of the `nxgraph-cli` binary: generate → prep → analyse
//! on a real directory.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

/// The `nxgraph-cli` binary of this build, built once on first use. It
/// lands in the profile directory that holds this test executable's
/// `deps/`, so `CARGO_TARGET_DIR`, `--target-dir` and `--release` are all
/// followed.
fn cli() -> Command {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    let bin = BIN.get_or_init(|| {
        let exe = std::env::current_exe().expect("test executable path");
        let profile_dir = exe
            .parent()
            .and_then(Path::parent)
            .expect("test executable lives in <target>/<profile>/deps");
        let target_dir = profile_dir.parent().expect("<target>/<profile>");
        let mut build = Command::new(env!("CARGO"));
        build
            .args(["build", "-p", "nxgraph-cli", "--target-dir"])
            .arg(target_dir);
        if !cfg!(debug_assertions) {
            build.arg("--release");
        }
        assert!(build.status().expect("cargo build").success());
        let bin = profile_dir.join(format!("nxgraph-cli{}", std::env::consts::EXE_SUFFIX));
        assert!(bin.exists(), "no binary at {}", bin.display());
        bin
    });
    Command::new(bin)
}

#[test]
fn full_cli_pipeline() {
    let dir = nxgraph::storage::ScratchDir::new("cli-pipeline");
    let edges = dir.path().join("edges.txt");
    let graph = dir.path().join("graph");

    let out = cli()
        .args([
            "generate",
            "rmat",
            "--out",
            edges.to_str().unwrap(),
            "--scale",
            "9",
            "--edge-factor",
            "6",
        ])
        .output()
        .expect("generate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = cli()
        .args([
            "prep",
            edges.to_str().unwrap(),
            graph.to_str().unwrap(),
            "--intervals",
            "6",
        ])
        .output()
        .expect("prep");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    for sub in [
        vec!["info", graph.to_str().unwrap()],
        vec!["compact", graph.to_str().unwrap()],
        vec!["pagerank", graph.to_str().unwrap(), "--iters", "3", "--top", "2"],
        vec!["bfs", graph.to_str().unwrap(), "--root", "0"],
        vec!["wcc", graph.to_str().unwrap()],
        vec!["scc", graph.to_str().unwrap()],
    ] {
        let out = cli().args(&sub).output().expect("run subcommand");
        assert!(
            out.status.success(),
            "{:?} failed: {}",
            sub,
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(!out.stdout.is_empty(), "{sub:?} produced no output");
    }
}

#[test]
fn cli_reports_errors_cleanly() {
    let out = cli().arg("frobnicate").output().expect("run nxgraph-cli");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage"), "{err}");
}
