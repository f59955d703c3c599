//! The one command-line reader every bench binary uses.
//!
//! [`Args`] is a pull parser. Each binary keeps its own `USAGE`, which
//! starts `usage: NAME`, and its own `match` on flag names; `Args`
//! hands out the arguments one at a time and reads the current flag's
//! value. `--help` and `-h` print the usage on stdout and exit 0. A bad
//! command line never panics: [`fail`] prints `NAME: message` and the
//! usage on stderr and exits 2. Binaries make their checks after
//! parsing, such as a spec the registry rejects, before they print, run
//! or write anything.

use graphgen::GraphFamily;
use std::fmt::Display;
use std::str::FromStr;

/// Rejects the command line: `NAME: msg` and `usage` on stderr, exit 2.
/// `NAME` is the word that follows `usage: `. Binaries call it for the
/// checks they make after parsing.
pub fn fail(usage: &str, msg: impl Display) -> ! {
    let name = usage.trim_start_matches("usage: ").split_whitespace().next().unwrap_or_default();
    eprintln!("{name}: {msg}\n{usage}");
    std::process::exit(2)
}

/// The most edges a command line may ask a graph to have, by
/// [`GraphFamily::expected_edges`]. A graph costs about 16 bytes per
/// edge before any run, and more while it is generated, so 5·10⁷ edges
/// is under a gigabyte; the largest committed configurations (ER, RGG
/// and BA at n = 10⁶) have 3–5·10⁶.
pub const MAX_EDGES: f64 = 5e7;

/// The largest seed count `--seeds` takes. Each seed reruns every point
/// of the axes; the committed artifacts use 3–8 seeds, and a count is
/// checked before its seeds and jobs are allocated.
pub const MAX_SEEDS: u64 = 10_000;

/// Rejects (see [`fail`]) a size one of `families` cannot generate
/// ([`GraphFamily::min_nodes`]) or would generate with more than
/// [`MAX_EDGES`] edges; `flag` names the option the sizes came from.
pub fn check_sizes(usage: &str, flag: &str, families: &[GraphFamily], sizes: &[usize]) {
    for family in families {
        let min = family.min_nodes();
        if let Some(n) = sizes.iter().find(|&&n| n < min) {
            fail(usage, format!("{flag} {n}: family {} needs at least {min} nodes", family.key()));
        }
        if let Some(n) = sizes.iter().find(|&&n| family.expected_edges(n) > MAX_EDGES) {
            fail(
                usage,
                format!(
                    "{flag} {n}: family {} would have about {:.1e} edges, more than {MAX_EDGES:.0e}",
                    family.key(),
                    family.expected_edges(*n)
                ),
            );
        }
    }
}

/// Reads a fraction: a number in `[0, 1]`. NaN and the infinities are
/// not fractions.
pub fn fraction(s: &str) -> Option<f64> {
    s.parse().ok().filter(|v| (0.0..=1.0).contains(v))
}

/// The process arguments after the program name, pulled one at a time
/// through [`Iterator::next`].
pub struct Args {
    usage: &'static str,
    rest: std::vec::IntoIter<String>,
    /// The argument `next` returned last: the flag a value belongs to.
    flag: String,
}

impl Args {
    /// Reads the process arguments, rejecting one that is not UTF-8;
    /// `usage` is printed by `--help` and with every rejection.
    pub fn new(usage: &'static str) -> Args {
        let rest: Vec<String> = std::env::args_os()
            .skip(1)
            .map(|a| a.into_string().unwrap_or_else(|a| fail(usage, format!("{a:?} is not UTF-8"))))
            .collect();
        Args { usage, rest: rest.into_iter(), flag: String::new() }
    }

    /// Rejects the command line with `msg` (see [`fail`]).
    pub fn fail(&self, msg: impl Display) -> ! {
        fail(self.usage, msg)
    }

    /// The current flag's value: the argument after it.
    pub fn value(&mut self) -> String {
        self.rest.next().unwrap_or_else(|| self.fail(format!("{} needs a value", self.flag)))
    }

    /// The current flag's value, parsed as a `T`.
    pub fn parse<T: FromStr>(&mut self) -> T
    where
        T::Err: Display,
    {
        let v = self.value();
        v.parse().unwrap_or_else(|e| self.fail(format!("{} {v:?}: {e}", self.flag)))
    }

    /// The current flag's value as a [`fraction`].
    pub fn fraction(&mut self) -> f64 {
        let v = self.value();
        fraction(&v)
            .unwrap_or_else(|| self.fail(format!("{} {v:?}: not a number in [0, 1]", self.flag)))
    }

    /// The current flag's value as a seed count `k` in
    /// `1..=`[`MAX_SEEDS`]: the seeds `1..=k`.
    pub fn seeds(&mut self) -> Vec<u64> {
        match self.parse::<u64>() {
            0 => self.fail(format!("{} must be at least 1", self.flag)),
            k if k > MAX_SEEDS => self.fail(format!("{} {k}: at most {MAX_SEEDS}", self.flag)),
            k => (1..=k).collect(),
        }
    }

    /// The current flag's value as a comma-separated list, each element
    /// read by `parse`. Empty elements are skipped; an element `parse`
    /// rejects fails the line as an unknown `what`.
    pub fn list<T>(&mut self, parse: impl Fn(&str) -> Option<T>, what: &str) -> Vec<T> {
        let v = self.value();
        v.split(',')
            .filter(|s| !s.is_empty())
            .map(|s| parse(s).unwrap_or_else(|| self.fail(format!("unknown {what} {s:?}"))))
            .collect()
    }
}

impl Iterator for Args {
    type Item = String;

    /// The next argument, which becomes the current flag. `--help` and
    /// `-h` print the usage on stdout and exit 0.
    fn next(&mut self) -> Option<String> {
        let arg = self.rest.next()?;
        if arg == "--help" || arg == "-h" {
            println!("{}", self.usage);
            std::process::exit(0);
        }
        self.flag.clone_from(&arg);
        Some(arg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_and_lists_follow_their_flag() {
        let line = ["--seeds", "7", "--sizes", "10,,20,", "--families", ""];
        let rest: Vec<String> = line.iter().map(|a| a.to_string()).collect();
        let mut args = Args { usage: "usage: t", rest: rest.into_iter(), flag: String::new() };
        assert_eq!(args.next().as_deref(), Some("--seeds"));
        assert_eq!(args.parse::<u64>(), 7);
        assert_eq!(args.next().as_deref(), Some("--sizes"));
        assert_eq!(args.list(|s| s.parse::<usize>().ok(), "size"), [10, 20]);
        args.next();
        assert!(args.list(|s| s.parse::<usize>().ok(), "size").is_empty());
        assert_eq!(args.next(), None);
    }

    #[test]
    fn fractions_are_numbers_in_the_unit_interval() {
        assert_eq!(fraction("0"), Some(0.0));
        assert_eq!(fraction("0.25"), Some(0.25));
        assert_eq!(fraction("1"), Some(1.0));
        for bad in ["nan", "NaN", "inf", "-inf", "-0.5", "2", "1.0001", "half", ""] {
            assert_eq!(fraction(bad), None, "{bad}");
        }
    }

    #[test]
    fn a_seed_count_yields_the_seeds_from_one() {
        let rest: Vec<String> = ["--seeds", "3"].iter().map(|a| a.to_string()).collect();
        let mut args = Args { usage: "usage: t", rest: rest.into_iter(), flag: String::new() };
        args.next();
        assert_eq!(args.seeds(), [1, 2, 3]);
    }
}
