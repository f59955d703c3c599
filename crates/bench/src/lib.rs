//! Shared helpers for the experiment binaries.
//!
//! The workload families live in [`graphgen::families`]; binaries use
//! [`graphgen::GraphFamily`] directly. [`json`] is the registry-free
//! JSON reader behind the bench tools, [`cli`] is the one command-line
//! reader of every binary, and [`with_profile`] is the spec helper the
//! grid and churn binaries share. The sweep and faults binaries check
//! their `--spec` lists with [`analysis::sweep::expand_specs`], the
//! expander their harnesses run.
//!
//! The bench-trajectory pipeline lives here too: [`artifact`] is the
//! one reader for all four committed `BENCH_*.json` schemas and holds
//! the kind table (read from the [`analysis::Document`] writers) and
//! the one gate table, [`history`] walks every committed revision of an
//! artifact out of git, [`trend`] builds per-cell
//! [`trend::TrendSeries`] with drift statistics and the gate, and
//! [`report`] renders the series as CSV, ASCII sparklines, and gnuplot
//! scripts. `bench-report` runs the pipeline over git history and
//! `bench-diff` over two files.

pub mod artifact;
pub mod cli;
pub mod history;
pub mod json;
pub mod report;
pub mod trend;

/// Appends the execution-only `trace=profile` param to every spec in a
/// comma-separated list (no-op when `--profile` is off).
pub fn with_profile(specs: &str, profile: bool) -> String {
    if !profile {
        return specs.to_string();
    }
    specs
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| format!("{s}{}trace=profile", if s.contains('?') { '&' } else { '?' }))
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_profile_appends_trace_to_every_spec() {
        assert_eq!(with_profile("luby,awake?loss=0.1", false), "luby,awake?loss=0.1");
        assert_eq!(
            with_profile("luby,,awake?loss=0.1", true),
            "luby?trace=profile,awake?loss=0.1&trace=profile"
        );
    }
}
