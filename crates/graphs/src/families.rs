//! Named graph families — the unit of iteration for experiment grids.
//!
//! A [`GraphFamily`] pairs a generator with the parameter conventions the
//! experiments use (ER at average degree 8, RGG at expected degree ~10,
//! …), so a grid of `{algorithm × family × n × seed}` can be described by
//! plain enumerable data and every instance regenerated from `(family,
//! n, seed)` alone.
//!
//! # Parameterized families
//!
//! The default conventions are just one point on each generator's dial.
//! A family key may carry explicit parameters in the same `?key=value`
//! grammar the algorithm registry uses:
//!
//! ```text
//! er?avg_deg=16      ER at average degree 16
//! rgg?radius=0.05    RGG at connection radius 0.05
//! ba?attach=5        BA with 5 edges per arriving node
//! ```
//!
//! Parameterized keys canonicalize: a parameter spelled at its default
//! (`er?avg_deg=8`, `ba?attach=3`) parses back to the bare family, so a
//! key round-trips through [`parse`](GraphFamily::parse) /
//! [`key`](GraphFamily::key) to exactly one spelling and committed
//! artifact keys never alias. RGG radii are quantized to 1e-4 so the
//! enum stays plain `Copy + Eq + Hash` data.

use crate::{generators, Graph};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Fixed-point denominator for RGG radii: `RggRadius(500)` is r = 0.05.
const RADIUS_UNIT: f64 = 10_000.0;

/// The workload families used across experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphFamily {
    /// Erdős–Rényi with average degree 8.
    Er,
    /// Random geometric graph with expected average degree ~10.
    Rgg,
    /// Barabási–Albert with attachment 3.
    Ba,
    /// 2D grid (√n × √n).
    Grid,
    /// Uniform random tree.
    Tree,
    /// Dense Erdős–Rényi with average degree √n (where Luby's Θ(log n)
    /// bites at laptop scale).
    Dense,
    /// Cycle C_n (the worst case for sequential-greedy round counts).
    Cycle,
    /// Erdős–Rényi at an explicit average degree (`er?avg_deg=16`).
    ErDeg(u32),
    /// Random geometric graph at an explicit radius in units of 1e-4
    /// (`rgg?radius=0.05` is `RggRadius(500)`).
    RggRadius(u32),
    /// Barabási–Albert at an explicit attachment count (`ba?attach=5`).
    BaAttach(u32),
}

impl GraphFamily {
    /// Display name.
    pub fn name(self) -> String {
        match self {
            GraphFamily::Er => "ER(d=8)".to_string(),
            GraphFamily::Rgg => "RGG".to_string(),
            GraphFamily::Ba => "BA(m=3)".to_string(),
            GraphFamily::Grid => "Grid".to_string(),
            GraphFamily::Tree => "Tree".to_string(),
            GraphFamily::Dense => "Dense(√n)".to_string(),
            GraphFamily::Cycle => "Cycle".to_string(),
            GraphFamily::ErDeg(d) => format!("ER(d={d})"),
            GraphFamily::RggRadius(r) => format!("RGG(r={})", f64::from(r) / RADIUS_UNIT),
            GraphFamily::BaAttach(m) => format!("BA(m={m})"),
        }
    }

    /// All *default-convention* families, in comparison-table order.
    /// Parameterized variants are spelled explicitly where needed.
    pub fn all() -> [GraphFamily; 7] {
        [
            GraphFamily::Er,
            GraphFamily::Rgg,
            GraphFamily::Ba,
            GraphFamily::Grid,
            GraphFamily::Tree,
            GraphFamily::Dense,
            GraphFamily::Cycle,
        ]
    }

    /// Parses a CLI-style family key: a bare name (`er`, `rgg`, `ba`,
    /// `grid`, `tree`, `dense`, `cycle`; case-insensitive) or a
    /// parameterized spec (`er?avg_deg=16`, `rgg?radius=0.05`,
    /// `ba?attach=5`). Parameters at their default value canonicalize to
    /// the bare family. Unknown names, unknown or repeated parameters,
    /// and out-of-range values parse to `None`.
    pub fn parse(s: &str) -> Option<GraphFamily> {
        let (base, params) = match s.split_once('?') {
            Some((b, p)) => (b, Some(p)),
            None => (s, None),
        };
        let family = match base.to_ascii_lowercase().as_str() {
            "er" => GraphFamily::Er,
            "rgg" => GraphFamily::Rgg,
            "ba" => GraphFamily::Ba,
            "grid" => GraphFamily::Grid,
            "tree" => GraphFamily::Tree,
            "dense" => GraphFamily::Dense,
            "cycle" => GraphFamily::Cycle,
            _ => return None,
        };
        let Some(params) = params else { return Some(family) };
        // Exactly one parameter dial per family today; reject the rest.
        let (name, value) = params.split_once('=')?;
        if name.is_empty() || value.is_empty() || value.contains('&') {
            return None;
        }
        match (family, name) {
            (GraphFamily::Er, "avg_deg") => {
                let d: u32 = value.parse().ok().filter(|&d| d >= 1)?;
                Some(if d == 8 { GraphFamily::Er } else { GraphFamily::ErDeg(d) })
            }
            (GraphFamily::Rgg, "radius") => {
                let r: f64 = value.parse().ok()?;
                if !(r > 0.0 && r <= 1.0) {
                    return None;
                }
                let q = (r * RADIUS_UNIT).round() as u32;
                (q >= 1).then_some(GraphFamily::RggRadius(q))
            }
            (GraphFamily::Ba, "attach") => {
                let m: u32 = value.parse().ok().filter(|&m| m >= 1)?;
                Some(if m == 3 { GraphFamily::Ba } else { GraphFamily::BaAttach(m) })
            }
            _ => None,
        }
    }

    /// Canonical key accepted by [`parse`](GraphFamily::parse) — the
    /// spelling used in artifact payloads and CLI echoes.
    pub fn key(self) -> String {
        match self {
            GraphFamily::Er => "er".to_string(),
            GraphFamily::Rgg => "rgg".to_string(),
            GraphFamily::Ba => "ba".to_string(),
            GraphFamily::Grid => "grid".to_string(),
            GraphFamily::Tree => "tree".to_string(),
            GraphFamily::Dense => "dense".to_string(),
            GraphFamily::Cycle => "cycle".to_string(),
            GraphFamily::ErDeg(d) => format!("er?avg_deg={d}"),
            GraphFamily::RggRadius(r) => format!("rgg?radius={}", f64::from(r) / RADIUS_UNIT),
            GraphFamily::BaAttach(m) => format!("ba?attach={m}"),
        }
    }

    /// The smallest `n` [`generate`](GraphFamily::generate) accepts.
    /// Barabási–Albert seeds its graph with a star on `m + 1` nodes;
    /// every other family takes any `n`, 0 included.
    pub fn min_nodes(self) -> usize {
        match self {
            GraphFamily::Ba => 4,
            GraphFamily::BaAttach(m) => m as usize + 1,
            _ => 0,
        }
    }

    /// The expected edge count of an `n`-node instance, from the
    /// family's degree formula alone: nothing is generated. It is exact
    /// for the deterministic and Barabási–Albert families; for ER it is
    /// the mean, and for RGG it ignores the border, so it overestimates.
    /// Meant for rejecting sizes too large to build, not for reporting.
    pub fn expected_edges(self, n: usize) -> f64 {
        let pairs = n as f64 * n.saturating_sub(1) as f64 / 2.0;
        // Each pair is an edge with probability `p` (capped at 1).
        let gnp = |avg_deg: f64| pairs * (avg_deg / n.saturating_sub(1).max(1) as f64).min(1.0);
        let rgg = |r: f64| pairs * (std::f64::consts::PI * r * r).min(1.0);
        let ba = |m: usize| (m * n.saturating_sub(m)) as f64;
        match self {
            GraphFamily::Er => gnp(8.0),
            GraphFamily::ErDeg(d) => gnp(f64::from(d)),
            GraphFamily::Dense => gnp((n as f64).sqrt()),
            GraphFamily::Rgg => rgg((10.0 / (std::f64::consts::PI * n as f64)).sqrt()),
            GraphFamily::RggRadius(r) => rgg(f64::from(r) / RADIUS_UNIT),
            GraphFamily::Ba => ba(3),
            GraphFamily::BaAttach(m) => ba(m as usize),
            GraphFamily::Grid => {
                let side = ((n as f64).sqrt().round() as usize).max(2);
                (2 * side * (side - 1)) as f64
            }
            GraphFamily::Tree => n.saturating_sub(1) as f64,
            GraphFamily::Cycle => n.max(3) as f64,
        }
    }

    /// Generates an `n`-node instance.
    ///
    /// # Panics
    ///
    /// Panics if `n` is below [`min_nodes`](GraphFamily::min_nodes).
    pub fn generate(self, n: usize, seed: u64) -> Graph {
        let mut rng = SmallRng::seed_from_u64(seed);
        match self {
            GraphFamily::Er => generators::gnp_avg_degree(n, 8.0, &mut rng),
            GraphFamily::Rgg => {
                // radius for expected degree ~10: pi r^2 n = 10.
                let r = (10.0 / (std::f64::consts::PI * n as f64)).sqrt();
                generators::random_geometric(n, r, &mut rng)
            }
            GraphFamily::Ba => generators::barabasi_albert(n, 3, &mut rng),
            GraphFamily::Grid => {
                let side = (n as f64).sqrt().round() as usize;
                generators::grid(side.max(2), side.max(2))
            }
            GraphFamily::Tree => generators::random_tree(n, &mut rng),
            GraphFamily::Dense => generators::gnp_avg_degree(n, (n as f64).sqrt(), &mut rng),
            GraphFamily::Cycle => generators::cycle(n.max(3)),
            GraphFamily::ErDeg(d) => generators::gnp_avg_degree(n, f64::from(d), &mut rng),
            GraphFamily::RggRadius(r) => {
                generators::random_geometric(n, f64::from(r) / RADIUS_UNIT, &mut rng)
            }
            GraphFamily::BaAttach(m) => generators::barabasi_albert(n, m as usize, &mut rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let all = GraphFamily::all();
        let parameterized = [
            GraphFamily::ErDeg(16),
            GraphFamily::RggRadius(900),
            GraphFamily::BaAttach(5),
        ];
        for family in all.iter().chain(&parameterized) {
            let a = family.generate(200, 7);
            let b = family.generate(200, 7);
            assert_eq!(a.n(), b.n(), "{}", family.name());
            assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
        }
    }

    #[test]
    fn min_nodes_is_the_smallest_size_generate_accepts() {
        let parameterized =
            [GraphFamily::ErDeg(16), GraphFamily::RggRadius(900), GraphFamily::BaAttach(5)];
        for family in GraphFamily::all().iter().chain(&parameterized) {
            let min = family.min_nodes();
            for n in min..min + 3 {
                family.generate(n, 1);
            }
        }
        assert_eq!(GraphFamily::Ba.min_nodes(), 4);
        assert_eq!(GraphFamily::BaAttach(5).min_nodes(), 6);
        assert_eq!(GraphFamily::ErDeg(16).min_nodes(), 0);
    }

    #[test]
    fn expected_edges_tracks_the_generated_count() {
        let parameterized = [
            GraphFamily::ErDeg(16),
            GraphFamily::RggRadius(900),
            GraphFamily::BaAttach(5),
        ];
        for family in GraphFamily::all().iter().chain(&parameterized) {
            for n in [64, 400] {
                let m = family.generate(n, 3).m() as f64;
                let expected = family.expected_edges(n);
                // RGG loses up to half its disc at the border, so it
                // reads below the border-free expectation.
                assert!(
                    m <= 1.25 * expected && m >= 0.5 * expected,
                    "{} n={n}: generated {m}, expected {expected}",
                    family.key()
                );
            }
        }
        assert_eq!(GraphFamily::Er.expected_edges(1), 0.0);
        assert_eq!(GraphFamily::Tree.expected_edges(0), 0.0);
        assert_eq!(GraphFamily::Cycle.expected_edges(0), 3.0);
        // The sizes the command lines must refuse: ~3.9e9 and ~5e8 edges.
        assert!(GraphFamily::RggRadius(500).expected_edges(1_000_000) > 3.9e9);
        assert!(GraphFamily::Dense.expected_edges(1_000_000) > 4.9e8);
    }

    #[test]
    fn parse_round_trips() {
        for family in GraphFamily::all() {
            assert_eq!(GraphFamily::parse(&family.key()), Some(family));
        }
        for family in [
            GraphFamily::ErDeg(16),
            GraphFamily::RggRadius(500),
            GraphFamily::BaAttach(5),
        ] {
            assert_eq!(GraphFamily::parse(&family.key()), Some(family), "{}", family.key());
        }
        assert_eq!(GraphFamily::parse("nope"), None);
    }

    #[test]
    fn parameter_defaults_canonicalize_to_the_bare_family() {
        assert_eq!(GraphFamily::parse("er?avg_deg=8"), Some(GraphFamily::Er));
        assert_eq!(GraphFamily::parse("ba?attach=3"), Some(GraphFamily::Ba));
        assert_eq!(GraphFamily::parse("er?avg_deg=16"), Some(GraphFamily::ErDeg(16)));
        assert_eq!(GraphFamily::parse("ER?avg_deg=16"), Some(GraphFamily::ErDeg(16)));
        assert_eq!(GraphFamily::parse("rgg?radius=0.05"), Some(GraphFamily::RggRadius(500)));
        assert_eq!(GraphFamily::parse("ba?attach=5"), Some(GraphFamily::BaAttach(5)));
    }

    #[test]
    fn parameter_parsing_is_strict() {
        // Unknown parameter names, params on families without dials.
        assert_eq!(GraphFamily::parse("er?degree=16"), None);
        assert_eq!(GraphFamily::parse("tree?avg_deg=16"), None);
        assert_eq!(GraphFamily::parse("cycle?radius=0.1"), None);
        // Out-of-range and malformed values.
        assert_eq!(GraphFamily::parse("er?avg_deg=0"), None);
        assert_eq!(GraphFamily::parse("er?avg_deg=-4"), None);
        assert_eq!(GraphFamily::parse("er?avg_deg="), None);
        assert_eq!(GraphFamily::parse("rgg?radius=0"), None);
        assert_eq!(GraphFamily::parse("rgg?radius=1.5"), None);
        assert_eq!(GraphFamily::parse("rgg?radius=0.00001"), None);
        assert_eq!(GraphFamily::parse("ba?attach=x"), None);
        // One dial per family: a second parameter is rejected.
        assert_eq!(GraphFamily::parse("er?avg_deg=4&avg_deg=6"), None);
    }

    #[test]
    fn parameterized_generation_moves_the_dial() {
        let sparse = GraphFamily::Er.generate(400, 3);
        let dense = GraphFamily::ErDeg(32).generate(400, 3);
        assert!(dense.m() > sparse.m(), "avg_deg=32 must add edges over d=8");
        let near = GraphFamily::RggRadius(200).generate(400, 3);
        let far = GraphFamily::RggRadius(2000).generate(400, 3);
        assert!(far.m() > near.m(), "a larger radius must add edges");
        let thin = GraphFamily::Ba.generate(400, 3);
        let thick = GraphFamily::BaAttach(6).generate(400, 3);
        assert!(thick.m() > thin.m(), "attach=6 must add edges over m=3");
    }
}
