//! `experiments` and `failure_rate` reject arguments they do not know
//! with usage and exit 2, and `experiments --help` lists E1–E17. No
//! case here runs an experiment.

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
