//! Shared helpers for the experiment binaries.
//!
//! The workload families live in [`graphgen::families`]; binaries use
//! [`graphgen::GraphFamily`] directly. [`json`] is the registry-free
//! JSON reader behind the bench tools, and [`parse_list`] /
//! [`with_profile`] are the command-line helpers the grid, sweep,
//! faults and churn binaries share.
//!
//! The bench-trajectory pipeline lives here too: [`artifact`] is the
//! one reader for all four committed `BENCH_*.json` schemas and holds
//! the one gate table, [`history`] walks every committed revision of an
//! artifact out of git, [`trend`] builds per-cell
//! [`trend::TrendSeries`] with drift statistics and the gate, and
//! [`report`] renders the series as CSV, ASCII sparklines, and gnuplot
//! scripts. `bench-report` runs the pipeline over git history and
//! `bench-diff` over two files.

pub mod artifact;
pub mod history;
pub mod json;
pub mod report;
pub mod trend;

/// Parses a comma-separated flag value with `parse`, skipping empty
/// elements.
///
/// # Panics
///
/// On an element `parse` rejects, naming it as an unknown `what`.
pub fn parse_list<T>(arg: &str, parse: impl Fn(&str) -> Option<T>, what: &str) -> Vec<T> {
    arg.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| parse(s).unwrap_or_else(|| panic!("unknown {what} {s:?}")))
        .collect()
}

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
    fn parse_list_skips_empty_elements() {
        let sizes: Vec<usize> = parse_list("10,,20,", |s| s.parse().ok(), "size");
        assert_eq!(sizes, [10, 20]);
        assert!(parse_list::<usize>("", |s| s.parse().ok(), "size").is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown size \"x\"")]
    fn parse_list_panics_on_a_rejected_element() {
        parse_list::<usize>("1,x", |s| s.parse().ok(), "size");
    }

    #[test]
    fn with_profile_appends_trace_to_every_spec() {
        assert_eq!(with_profile("luby,awake?loss=0.1", false), "luby,awake?loss=0.1");
        assert_eq!(
            with_profile("luby,,awake?loss=0.1", true),
            "luby?trace=profile,awake?loss=0.1&trace=profile"
        );
    }
}
