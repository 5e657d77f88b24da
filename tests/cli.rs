//! End-to-end test of the `nxgraph-cli` binary: generate → prep → analyse
//! on a real directory.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    // Integration tests share the target dir with the binaries.
    let mut path = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.push("target");
    path.push(if cfg!(debug_assertions) { "debug" } else { "release" });
    path.push("nxgraph-cli");
    Command::new(path)
}

#[test]
fn full_cli_pipeline() {
    // The binary must exist; build it if the test harness didn't.
    let status = Command::new(env!("CARGO"))
        .args(["build", "-p", "nxgraph-cli"])
        .status()
        .expect("cargo build");
    assert!(status.success());

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
    let out = cli().arg("frobnicate").output();
    // Binary may not be built in some test orders; build_cli test covers
    // the success path. If present, bad subcommands must fail with usage.
    if let Ok(out) = out {
        assert!(!out.status.success());
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage"), "{err}");
    }
}
