//! The repository's benchmark: four seeded workloads that drive the
//! workspace's public API from one process and print end-to-end or
//! per-layer metrics.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-er-1m|serve-er-1m-bulk|grid-er-100k|luby-er-1m|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `BENCHMARK.json` gates `serve-er-1m` and `grid-er-100k`. The bulk serve
//! and the two-shard Luby workloads measure the same layers under other
//! loads and stay runnable by name: gating all four would leave each run a
//! measuring window too short for the noise of a shared 2-vCPU host (see
//! `spread.md`).
//!
//! With `--trace 0` the run times the workload's operations untouched and
//! prints every [`END_TO_END`] metric. With `--trace 1` it walks the same
//! operations through each layer's public functions, timing the calls
//! from outside, and prints every [`PER_LAYER`] metric; a layer the
//! workload never calls reads 0. Lines starting with `#` are for people;
//! the last line is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Any failed output check makes the exit code 1; bad
//! arguments make it 2.

mod grid;
mod machine;
mod profile;
mod serve;
mod stats;

use std::process::{Command, ExitCode};

/// Every workload, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = [
    "serve-er-1m",
    "serve-er-1m-bulk",
    "grid-er-100k",
    "luby-er-1m",
];

/// Metrics of an untraced run, with their units. Every workload reports
/// all of them. An op is one `MisService::apply` epoch on serve, one
/// `run_grid` call over the four algorithms on grid, and one `run_point`
/// on luby; `ops_per_s` counts effective deltas on serve and verified
/// points elsewhere. `setup_s` is the median of three set-ups and
/// `pass_frac` is the share of output checks that passed.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("pass_frac", "ratio"),
    ("peak_rss_mib", "MiB"),
    ("awake_max_mean", "rounds"),
    ("awake_avg_mean", "rounds"),
];

/// Metrics of a traced run, named `<crate>.<module>.<what>`.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("graphs.generators.generate_ms", "ms"),
    ("graphs.graph.clone_ms", "ms"),
    ("graphs.graph.csr_mib", "MiB"),
    ("graphs.delta.apply_ms", "ms"),
    ("graphs.delta.effective_ops", "count"),
    ("sim.engine.send_ms", "ms"),
    ("sim.engine.merge_ms", "ms"),
    ("sim.engine.receive_ms", "ms"),
    ("sim.engine.bookkeeping_ms", "ms"),
    ("sim.engine.round_us_p50", "us"),
    ("sim.engine.active_rounds", "count"),
    ("sim.engine.messages", "count"),
    ("sim.engine.awake_node_rounds", "count"),
    ("sim.engine.wake_batch_p50", "count"),
    ("sim.engine.arena_mib", "MiB"),
    ("sim.engine.delivered_ratio", "ratio"),
    ("core.verify.verify_ms", "ms"),
    ("core.incremental.self_ms", "ms"),
    ("core.incremental.frontier", "count"),
    ("core.incremental.woken", "count"),
    ("core.incremental.evicted", "count"),
    ("core.incremental.uncovered", "count"),
    ("core.incremental.retries", "count"),
    ("core.incremental.woken_ratio", "ratio"),
    ("core.incremental.woken_per_delta", "ratio"),
    ("core.incremental.first_try_ratio", "ratio"),
    ("core.awake_max.awake", "rounds"),
    ("core.awake_max.luby", "rounds"),
    ("core.awake_max.na", "rounds"),
    ("core.awake_max.gp-avg", "rounds"),
    ("analysis.runners.run_ms", "ms"),
    ("analysis.runners.self_ms", "ms"),
    ("analysis.runners.solve_ms", "ms"),
    ("analysis.churn.self_ms", "ms"),
    ("analysis.churn.batchgen_ms", "ms"),
    ("analysis.churn.mis_changes", "count"),
    ("analysis.churn.op_yield", "ratio"),
    ("analysis.grid.self_ms", "ms"),
    ("analysis.grid.point_ms.awake", "ms"),
    ("analysis.grid.point_ms.luby", "ms"),
    ("analysis.grid.point_ms.na", "ms"),
    ("analysis.grid.point_ms.gp-avg", "ms"),
    ("trace.overhead", "ratio"),
];

const USAGE: &str = "usage: perfbench --workload <serve-er-1m|serve-er-1m-bulk|grid-er-100k|\
luby-er-1m|all> --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if value != "all" && !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one workload run produced: op accounting, human-readable notes,
/// and metric values by name.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub values: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Counts one checked operation; `Err` carries the reason it failed.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.notes.push(format!("FAILED {what}: {e}"));
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a metric; a value that is not finite (no op succeeded to
    /// measure it) is a failed check instead.
    pub fn set(&mut self, name: &'static str, value: f64) {
        if value.is_finite() {
            self.values.push((name, value));
        } else {
            self.check(name, Err(format!("measured {value}")));
        }
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The result line. A passing untraced run must have set every
    /// end-to-end metric; traced runs report 0 for layers the workload
    /// never calls.
    fn json(&self, trace: bool) -> String {
        let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = declared
            .iter()
            .map(|&(name, unit)| {
                let v = match self.value(name) {
                    Some(v) => v,
                    None if trace || self.failed > 0 => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn run_one(args: &Args) -> ExitCode {
    println!(
        "# perfbench {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("# machine {}", machine::fingerprint());
    let (steal0, total0) = machine::cpu_ticks();
    let mut out = match args.workload.as_str() {
        "serve-er-1m" => serve::run(&serve::SERVE, args),
        "serve-er-1m-bulk" => serve::run(&serve::BULK, args),
        "grid-er-100k" => grid::run(&grid::GRID, args),
        "luby-er-1m" => grid::run(&grid::LUBY, args),
        other => unreachable!("workload {other} passed validation"),
    };
    if !args.trace {
        let pass = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
        out.set("pass_frac", pass);
        out.set("peak_rss_mib", machine::peak_rss_mib());
    }
    let (steal1, total1) = machine::cpu_ticks();
    let steal = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
    out.note(format!("cpu steal during the run: {:.1}%", 100.0 * steal));
    for line in &out.notes {
        println!("# {line}");
    }
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for &(name, unit) in declared {
        match out.value(name) {
            Some(v) => println!("# {name:<34} {v:>14} {unit}"),
            None => println!("# {name:<34} {:>14} {unit} (layer not called)", 0),
        }
    }
    println!("{}", out.json(args.trace));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--workload all`: each workload in a child process of its own, so
/// that peak memory and first-touch effects stay per workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut lines = Vec::new();
    let mut all_ok = true;
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .output()
            .expect("spawning a workload child");
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        all_ok &= out.status.success();
        lines.push(format!(
            "\"{w}\": {}",
            stdout.lines().last().unwrap_or("null")
        ));
    }
    println!(
        "{{\"correct\": {all_ok}, \"workloads\": {{{}}}}}",
        lines.join(", ")
    );
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The program and `BENCHMARK.json` must declare the same metrics.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        let gated: Vec<&str> = json
            .split("{\"name\": \"")
            .filter_map(|entry| entry.split_once("\", \"why\"").map(|(name, _)| name))
            .collect();
        assert!(gated.len() >= 2, "BENCHMARK.json gates {gated:?}");
        for w in gated {
            assert!(
                WORKLOADS.contains(&w),
                "BENCHMARK.json names unknown workload {w}"
            );
        }
    }

    #[test]
    fn arguments_are_validated() {
        let ok = |s: &str| parse_args(&s.split(' ').map(String::from).collect::<Vec<_>>());
        assert!(ok("--workload luby-er-1m --seed 3 --seconds 10 --trace 0").is_ok());
        assert!(ok("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
        assert!(ok("--workload all --seed x --seconds 10 --trace 0").is_err());
        assert!(ok("--workload all --seed 1 --seconds 0 --trace 0").is_err());
        assert!(ok("--workload all --seed 1 --seconds 5 --trace 2").is_err());
        assert!(ok("--workload all --seed 1 --seconds 5").is_err());
    }
}
