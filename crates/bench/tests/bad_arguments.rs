//! `experiments`, `failure_rate` and `serve` reject arguments they do
//! not know with usage and exit 2, `experiments --help` lists E1–E17,
//! and `serve --help` prints usage. No case here runs an experiment or
//! serves a batch.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("run binary")
}

#[test]
fn experiments_help_lists_every_experiment_and_exits_0() {
    for flag in ["--help", "-h"] {
        let out = run(env!("CARGO_BIN_EXE_experiments"), &[flag]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{flag}: {stdout}");
        assert!(stdout.contains("usage:"), "{stdout}");
        for k in 1..=17 {
            assert!(stdout.contains(&format!("E{k}")), "E{k} missing from: {stdout}");
        }
    }
}

#[test]
fn an_argument_naming_no_experiment_prints_usage_and_exits_2() {
    // `e4` is valid, but nothing may run while another argument is not.
    for args in [&["e99"][..], &["e4", "--bogus"], &["E"]] {
        let out = run(env!("CARGO_BIN_EXE_experiments"), args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} must run nothing");
    }
}

#[test]
fn failure_rate_takes_no_arguments() {
    for arg in ["--help", "50000"] {
        let out = run(env!("CARGO_BIN_EXE_failure_rate"), &[arg]);
        assert_eq!(out.status.code(), Some(2), "{arg}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"), "{arg}");
        assert!(out.stdout.is_empty(), "{arg} must run nothing");
    }
}

#[test]
fn serve_help_prints_usage_and_exits_0() {
    for flag in ["--help", "-h"] {
        let out = run(env!("CARGO_BIN_EXE_serve"), &[flag]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{flag}: {stdout}");
        assert!(stdout.starts_with("usage: serve"), "{stdout}");
    }
}

#[test]
fn serve_rejects_bad_arguments_before_serving() {
    for args in [
        &["--bogus"][..],
        &["--n"],
        &["--n", "many"],
        &["--seed", "-1"],
        &["--insert-frac", "half"],
        &["--family", "nope"],
        &["--algo", "nosuch"],
        &["--algo", "luby?bogus=1"],
        &["--n", "64", "--stats-every"],
    ] {
        let out = run(env!("CARGO_BIN_EXE_serve"), args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: serve"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must serve nothing");
    }
}
