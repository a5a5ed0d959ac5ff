//! Smoke coverage for the repo-root examples.
//!
//! All four examples are registered targets of this crate, so `cargo test`
//! (and `cargo build --examples` in CI) already compiles them. This test
//! additionally runs `quickstart` to completion, proving the happy-path
//! decomposition walkthrough executes, not merely compiles, and checks that
//! every example's header names the command that runs it.

use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/nuop-tests; the workspace root is two up.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

#[test]
fn every_example_header_names_the_package_that_runs_it() {
    let dir = workspace_root().join("examples");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("examples directory") {
        let path = entry.expect("examples directory entry").path();
        if path.extension().is_none_or(|ext| ext != "rs") {
            continue;
        }
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let source = std::fs::read_to_string(&path).expect("example source");
        let run_with = source
            .lines()
            .find(|line| line.contains("Run with"))
            .unwrap_or_else(|| panic!("{name}.rs has no `Run with` line"));
        let expected = format!("-p nuop-tests --example {name}`");
        assert!(
            run_with.contains(&expected),
            "{name}.rs says {run_with:?}; the examples belong to nuop-tests, \
             so it should name `{expected}"
        );
        checked += 1;
    }
    assert!(checked > 0, "no examples found in {}", dir.display());
}

#[test]
fn quickstart_example_runs_to_completion() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let root = workspace_root();
    let output = Command::new(cargo)
        .args([
            "run",
            "--quiet",
            "-p",
            "nuop-tests",
            "--example",
            "quickstart",
        ])
        .current_dir(&root)
        .output()
        .expect("failed to spawn cargo run --example quickstart");
    assert!(
        output.status.success(),
        "quickstart exited with {:?}\nstdout:\n{}\nstderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        !output.stdout.is_empty(),
        "quickstart printed nothing on stdout"
    );
}
