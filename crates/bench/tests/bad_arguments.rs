//! Every bench binary reads its command line through `bench::cli`:
//! `--help` and `-h` print usage and exit 0, and a bad command line
//! prints usage on stderr and exits 2 before anything is printed, run
//! or written. That includes a family and size whose expected edge
//! count is past `bench::cli::MAX_EDGES`, which would otherwise be
//! generated until memory runs out, a fraction flag (`--rates`,
//! `--insert-frac`, `--node-churn`) outside [0, 1], a seed count of 0
//! or above `bench::cli::MAX_SEEDS`, and an `adv_ids=worst` ID space
//! too large to rank. `experiments --help` lists E1–E17,
//! `failure_rate` takes no arguments, and `serve` ends a session on
//! stdin that is not UTF-8. No case here runs an experiment or serves a
//! batch.

use std::io::Write;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Runs `bin` on `args`, killing it after a deadline: a case that is not
/// rejected may run for good (`churn --rates inf` asks for `usize::MAX`
/// deltas per epoch), and a killed run has no exit code.
fn run(bin: &str, args: &[&str]) -> Output {
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run binary");
    let deadline = Instant::now() + Duration::from_secs(20);
    while child.try_wait().expect("poll binary").is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = child.kill();
    child.wait_with_output().expect("wait for binary")
}

/// Each value that is not a fraction in [0, 1], as the value of `flag`.
fn non_fractions(flag: &'static str) -> Vec<[&'static str; 2]> {
    ["nan", "-0.5", "2", "inf"].map(|v| [flag, v]).to_vec()
}

#[test]
fn help_prints_usage_and_exits_0() {
    for (name, bin) in [
        ("grid", env!("CARGO_BIN_EXE_grid")),
        ("churn", env!("CARGO_BIN_EXE_churn")),
        ("sweep", env!("CARGO_BIN_EXE_sweep")),
        ("faults", env!("CARGO_BIN_EXE_faults")),
        ("bench-report", env!("CARGO_BIN_EXE_bench-report")),
        ("bench-diff", env!("CARGO_BIN_EXE_bench-diff")),
    ] {
        for flag in ["--help", "-h"] {
            let out = run(bin, &[flag]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(out.status.code(), Some(0), "{name} {flag}: {stdout}");
            assert!(stdout.starts_with(&format!("usage: {name}")), "{name} {flag}: {stdout}");
        }
    }
}

/// Runs `name` on `quick` (small axes, so a case that slips through
/// fails fast), an `--out` temp path, then each case, and checks the
/// rejection: exit 2, usage and no panic on stderr, empty stdout, and
/// no output file.
fn rejects(name: &str, bin: &str, quick: &[&str], cases: &[&[&str]]) {
    let out_path =
        std::env::temp_dir().join(format!("{name}-rejected-{}.json", std::process::id()));
    let out_arg = out_path.to_str().expect("UTF-8 temp path");
    for case in cases {
        let args: Vec<&str> =
            quick.iter().chain(&["--out", out_arg]).chain(*case).copied().collect();
        let out = run(bin, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name} {case:?}: {stderr}");
        assert!(stderr.contains(&format!("usage: {name}")), "{name} {case:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name} {case:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{name} {case:?} must print nothing");
        assert!(!out_path.exists(), "{name} {case:?} must write nothing");
    }
}

/// Seed counts past `bench::cli::MAX_SEEDS`. Counts such as 10⁹, for
/// which an unchecked reader allocates gigabytes, stay out of the cases.
#[test]
fn seed_counts_past_the_bound_are_rejected() {
    let past = (bench::cli::MAX_SEEDS + 1).to_string();
    let cases: [&[&str]; 2] = [&["--seeds", "18446744073709551615"], &["--seeds", &past]];
    for (name, bin, quick) in [
        ("grid", env!("CARGO_BIN_EXE_grid"), &["--no-large", "--sizes", "16"][..]),
        ("sweep", env!("CARGO_BIN_EXE_sweep"), &["--sizes", "16"]),
        ("faults", env!("CARGO_BIN_EXE_faults"), &["--sizes", "16"]),
        ("churn", env!("CARGO_BIN_EXE_churn"), &["--sizes", "16"]),
    ] {
        rejects(name, bin, quick, &cases);
    }
}

#[test]
fn grid_rejects_bad_arguments_before_running() {
    rejects("grid", env!("CARGO_BIN_EXE_grid"), &["--no-large", "--sizes", "16", "--seeds", "1"], &[
        &["--bogus"],
        &["--algos", "vt?id_upper=1000000000000&adv_ids=worst"],
        &["--sizes"],
        &["--seeds", "many"],
        &["--seeds", "0"],
        &["--families", "er,nope"],
        &["--sizes", "16,x"],
        &["--algos", "nosuch"],
        &["--families", "ba", "--sizes", "3"],
        &["--families", "er,ba?attach=5", "--sizes", "16,5"],
        &["--families", "rgg?radius=0.05", "--sizes", "1000000"],
        &["--families", "dense", "--sizes", "16,1000000"],
    ]);
}

#[test]
fn churn_rejects_bad_arguments_before_running() {
    rejects("churn", env!("CARGO_BIN_EXE_churn"), &["--sizes", "16", "--seeds", "1"], &[
        &["--bogus"],
        &["--epochs"],
        &["--seeds", "many"],
        &["--seeds", "0"],
        &["--families", "er,nope"],
        &["--rates", "0,x"],
        &["--algos", "nosuch"],
        &["--serve", "100"],
        &["--families", "ba", "--sizes", "3"],
        &["--families", "ba?attach=5", "--sizes", "5"],
        &["--families", "rgg?radius=0.05", "--sizes", "1000000"],
        &["--families", "dense", "--sizes", "1000000"],
    ]);
}

#[test]
fn churn_rejects_fractions_outside_the_unit_interval() {
    let quick = ["--sizes", "16", "--seeds", "1", "--epochs", "1", "--algos", "luby"];
    for flag in ["--rates", "--insert-frac", "--node-churn"] {
        let cases = non_fractions(flag);
        let cases: Vec<&[&str]> = cases.iter().map(|c| &c[..]).collect();
        rejects("churn", env!("CARGO_BIN_EXE_churn"), &quick, &cases);
    }
    rejects("churn", env!("CARGO_BIN_EXE_churn"), &quick, &[&["--rates", "0,0.5,1.5"]]);
}

#[test]
fn sweep_rejects_bad_arguments_before_running() {
    rejects("sweep", env!("CARGO_BIN_EXE_sweep"), &["--sizes", "16", "--seeds", "1"], &[
        &["--bogus"],
        &["--sizes"],
        &["--seeds", "many"],
        &["--families", "er,nope"],
        &["--sizes", "16,x"],
        &["--spec", "luby?bogus=1..2"],
        &["--spec", "luby", "--spec", "luby"],
        &["--family", "er?avg_deg=x"],
        &["--family", "er", "--family", "er"],
        &["--seeds", "0"],
        &["--specs", "luby"],
        &["--family", "ba", "--sizes", "3"],
        &["--families", "ba?attach=2..6&step=2", "--sizes", "5"],
        &["--family", "rgg?radius=0.05", "--sizes", "1000000"],
        &["--family", "dense", "--sizes", "1000000"],
    ]);
}

#[test]
fn faults_rejects_bad_arguments_before_running() {
    rejects("faults", env!("CARGO_BIN_EXE_faults"), &["--sizes", "16", "--seeds", "1"], &[
        &["--bogus"],
        &["--sizes"],
        &["--seeds", "many"],
        &["--families", "er,nope"],
        &["--sizes", "16,x"],
        &["--spec", "luby?bogus=1..2"],
        &["--seeds", "0"],
        &["--specs", "luby"],
        &["--families", "ba", "--sizes", "3"],
        &["--families", "ba?attach=5", "--sizes", "16,5"],
        &["--families", "rgg?radius=0.05", "--sizes", "1000000"],
        &["--families", "dense", "--sizes", "1000000"],
    ]);
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
    let fractions = [non_fractions("--insert-frac"), non_fractions("--node-churn")].concat();
    for args in fractions.iter().map(|c| &c[..]).chain([
        &["--bogus"][..],
        &["--n"],
        &["--n", "many"],
        &["--seed", "-1"],
        &["--insert-frac", "half"],
        &["--family", "nope"],
        &["--algo", "nosuch"],
        &["--algo", "luby?bogus=1"],
        &["--n", "64", "--stats-every"],
        &["--family", "ba", "--n", "3"],
        &["--family", "ba?attach=5", "--n", "5"],
        &["--family", "rgg?radius=0.05", "--n", "1000000"],
        &["--family", "dense", "--n", "1000000"],
    ]) {
        let out = run(env!("CARGO_BIN_EXE_serve"), args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: serve"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must serve nothing");
    }
}

#[test]
fn serve_ends_the_session_on_stdin_that_is_not_utf8() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--stdin", "--n", "100", "--quiet"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin.write_all(b"+e 0 5\n\xff\xfe\n.\nquit\n").expect("write stdin");
    drop(stdin);
    let out = child.wait_with_output().expect("wait for serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("serve: stdin:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
