//! Command-line contract of the `chaos_soak` binary: `--help` prints
//! the usage and exits 0, a bad argument prints the usage to stderr and
//! exits 2, and a `--break-*` self-test run writes its own record
//! instead of the seed matrix's `chaos_violations.json`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn chaos_soak(dir: &PathBuf, args: &[&str]) -> Output {
    std::fs::create_dir_all(dir).expect("create run dir");
    Command::new(env!("CARGO_BIN_EXE_chaos_soak"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run chaos_soak")
}

fn run_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("chaos_soak_cli").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let dir = run_dir("help");
    let out = chaos_soak(&dir, &["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("usage: chaos_soak"), "{stdout}");
    for flag in ["--seeds", "--start", "--model", "--break-scrub", "--trace-dir"] {
        assert!(stdout.contains(flag), "usage lists {flag}");
    }
    assert!(!dir.join("results").exists(), "--help runs nothing");
}

#[test]
fn bad_arguments_print_usage_and_exit_two() {
    for args in [&["--bogus"][..], &["--seeds", "many"], &["--model", "nonsense"], &["--start"]] {
        let dir = run_dir("bad");
        let out = chaos_soak(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: chaos_soak"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(!dir.join("results").exists(), "{args:?} runs nothing");
    }
}

#[test]
fn selftest_run_keeps_the_matrix_record() {
    // Zero seeds: the self-test and matrix loops are empty, so this
    // checks only which record the run writes.
    let dir = run_dir("selftest");
    let out = chaos_soak(&dir, &["--seeds", "0", "--model", "delegation", "--break-scrub"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));
    assert!(dir.join("results/chaos_selftest.json").exists());
    assert!(!dir.join("results/chaos_violations.json").exists(), "matrix record untouched");

    let dir = run_dir("matrix");
    let out = chaos_soak(&dir, &["--seeds", "0", "--model", "delegation"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(dir.join("results/chaos_violations.json").exists());
    assert!(!dir.join("results/chaos_selftest.json").exists());
}
