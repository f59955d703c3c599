//! Fault-injection sweeps: robustness surfaces over loss/crash levels.
//!
//! The fault model ([`sleeping_congest::FaultModel`]) turns message
//! loss, node crashes, and wake jitter into spec parameters every
//! builtin accepts (`awake?loss=0.01&crash=0.001`). This module sweeps
//! those knobs the way [`crate::sweep`] sweeps algorithm parameters —
//! the same range grammar (`luby?loss=0,0.01,0.05`), the same
//! deterministic batch fan-out — and aggregates *robustness* cells:
//! per `{fault level × family × n}`, the failure rate over seeds, the
//! crash/loss exposure, and the awake inflation relative to the clean
//! baseline of the same base algorithm.
//!
//! Two identities anchor the analysis:
//!
//! * **Clean levels are the clean algorithm.** Fault parameters
//!   spelling their defaults are dropped from the runner key (see
//!   [`crate::runners`]), so the `loss=0` level of a sweep keys as the
//!   bare algorithm and its [`GridPoint`] payloads are byte-identical
//!   to a fault-free grid's — pinned by `BENCH_grid.json`.
//! * **Failure is observable, never silent.** Every point either
//!   reports `failures > 0` / `correct: false`, or verified as an MIS
//!   of the survivor subgraph. The committed `BENCH_faults.json`
//!   (schema `awake-mis/bench-faults/v1`) freezes the resulting
//!   failure-rate surface, and `bench-diff` gates on it: a failure-rate
//!   increase beyond threshold at any swept level exits nonzero.

use crate::document::{json_escape, summary_json, Document};
use crate::grid::{push_jobs, run_instances, GridCell, GridPoint};
use crate::spec::{default_registry, AlgorithmSpec, RunnerHandle, SpecError};
use crate::sweep::{expand_specs, spec_echo, SweepGroup};
use graphgen::GraphFamily;
use sleeping_congest::batch::resolve_threads;

/// A fault sweep: range-valued specs (typically over `loss`/`crash`)
/// crossed with graph families, sizes, and seeds.
#[derive(Debug, Clone)]
pub struct FaultSweepSpec {
    /// Sweep spec strings (range/list-valued fault knobs; see
    /// [`crate::sweep::expand`] for the grammar).
    pub specs: Vec<String>,
    /// Graph families.
    pub families: Vec<GraphFamily>,
    /// Node counts.
    pub sizes: Vec<usize>,
    /// Seeds (innermost axis), as in [`crate::grid::GridSpec`].
    pub seeds: Vec<u64>,
    /// Worker threads; `0` means all available. Does not affect results.
    pub threads: usize,
}

/// The fault knobs a concrete runner key carries, parsed back out of
/// the key, plus the *base* key with every fault parameter stripped —
/// the clean algorithm this level degrades.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultAxis {
    /// The clean counterpart's key (`"luby"` for `"luby?loss=0.05"`).
    pub base: String,
    /// Per-copy message-loss probability (0 when absent).
    pub loss: f64,
    /// Per-node per-round crash probability (0 when absent).
    pub crash: f64,
    /// Late-wake jitter bound in rounds (0 when absent).
    pub jitter: u64,
}

/// The fault parameters recognized by [`fault_axis`]; `adv_ids` is an
/// algorithm variant, not a fault level, so it stays in the base key.
const FAULT_PARAMS: [&str; 5] = ["loss", "crash", "crash_from", "crash_until", "jitter"];

/// Parses the fault knobs out of a concrete runner key.
///
/// # Errors
///
/// Propagates [`AlgorithmSpec::parse`] errors — runner keys round-trip
/// through the spec grammar, so this only fails on hand-built keys.
pub fn fault_axis(key: &str) -> Result<FaultAxis, SpecError> {
    let spec = AlgorithmSpec::parse(key)?;
    let mut axis = FaultAxis {
        base: String::new(),
        loss: 0.0,
        crash: 0.0,
        jitter: 0,
    };
    let mut kept: Vec<String> = Vec::new();
    for (name, value) in spec.params() {
        match name.as_str() {
            "loss" => axis.loss = value.parse().unwrap_or(0.0),
            "crash" => axis.crash = value.parse().unwrap_or(0.0),
            "jitter" => axis.jitter = value.parse().unwrap_or(0),
            _ if FAULT_PARAMS.contains(&name.as_str()) => {}
            _ => kept.push(format!("{name}={value}")),
        }
    }
    axis.base = if kept.is_empty() {
        spec.key().to_string()
    } else {
        format!("{}?{}", spec.key(), kept.join("&"))
    };
    Ok(axis)
}

/// Per-`{fault level × family × n}` robustness aggregates.
#[derive(Debug, Clone)]
pub struct FaultCell {
    /// The seed-axis statistics, reduced as a grid cell is: the
    /// concrete fault level (a runner handle whose key carries the
    /// fault knobs), family, n, runs, the failure rate over seeds (on
    /// the survivor subgraph; the robustness headline), crash and loss
    /// totals, awake and round summaries.
    pub stats: GridCell,
    /// Parsed fault knobs plus the clean base key.
    pub axis: FaultAxis,
    /// Mean worst-case awake of this cell divided by the clean
    /// baseline's (the cell whose key equals `axis.base`, same family
    /// and n) — awake inflation under faults. `None` when the sweep
    /// does not include the clean level or the baseline mean is 0.
    pub awake_inflation: Option<f64>,
}

/// The outcome of [`run_faults`].
#[derive(Debug, Clone)]
pub struct FaultResult {
    /// The sweep that ran.
    pub spec: FaultSweepSpec,
    /// Each input spec's expansion, in input order.
    pub groups: Vec<SweepGroup>,
    /// Per-run measurements, in sweep order (fault-level-major,
    /// seed-minor — grid order).
    pub points: Vec<GridPoint>,
    /// Per-`{fault level × family × n}` robustness aggregates.
    pub cells: Vec<FaultCell>,
}

/// Expands every spec and runs the fault sweep over
/// `{fault level × family × n × seed}`, generating each instance once
/// for all its fault levels (see [`crate::grid`]). Deterministic like
/// the grid: apart from wall-clock fields, the result is identical for
/// every thread count.
///
/// # Errors
///
/// Expansion errors (see [`crate::sweep::expand`]); also rejects an
/// empty sweep ([`SpecError::Syntax`]) and duplicate levels across
/// specs ([`SpecError::DuplicateKey`]).
pub fn run_faults(spec: &FaultSweepSpec) -> Result<FaultResult, SpecError> {
    let groups = expand_specs(default_registry(), &spec.specs)?;
    let flat: Vec<RunnerHandle> = groups.iter().flat_map(|g| g.runners.clone()).collect();
    if flat.is_empty() || spec.seeds.is_empty() {
        return Err(SpecError::Syntax {
            spec: spec.specs.join(","),
            detail: "a fault sweep needs at least one level and one seed".to_string(),
        });
    }

    let mut jobs = Vec::new();
    push_jobs(&mut jobs, &flat, &spec.families, &spec.sizes, &spec.seeds);
    let points = run_instances(&jobs, resolve_threads(spec.threads), |point, _| point);
    let cells = aggregate(&points, spec.seeds.len())?;
    Ok(FaultResult { spec: spec.clone(), groups, points, cells })
}

/// The robustness cells of `points`, which come in grid order with
/// `runs` seeds per cell.
fn aggregate(points: &[GridPoint], runs: usize) -> Result<Vec<FaultCell>, SpecError> {
    let mut cells = points
        .chunks(runs)
        .map(|chunk| {
            let stats = GridCell::of(chunk);
            let axis = fault_axis(stats.algorithm.key())?;
            Ok(FaultCell { stats, axis, awake_inflation: None })
        })
        .collect::<Result<Vec<_>, SpecError>>()?;
    // Second pass: awake inflation against the clean baseline cell of
    // the same base algorithm, family, and n — when the sweep has one.
    let clean: Vec<(String, GraphFamily, usize, f64)> = cells
        .iter()
        .filter(|c| c.stats.algorithm.key() == c.axis.base)
        .map(|c| (c.axis.base.clone(), c.stats.family, c.stats.n, c.stats.awake_max.mean))
        .collect();
    for cell in &mut cells {
        let s = &cell.stats;
        if s.algorithm.key() == cell.axis.base {
            continue;
        }
        cell.awake_inflation = clean
            .iter()
            .find(|(b, f, n, m)| *b == cell.axis.base && *f == s.family && *n == s.n && *m > 0.0)
            .map(|(_, _, _, m)| s.awake_max.mean / m);
    }
    Ok(cells)
}

impl FaultCell {
    fn json(&self) -> String {
        let s = &self.stats;
        let mut out = format!(
            "{{\"algorithm\":\"{}\",\"base\":\"{}\",\"loss\":{},\"crash\":{},\
             \"jitter\":{},\"family\":\"{}\",\"n\":{},\"runs\":{},\"failure_rate\":{},\
             \"crashed\":{},\"faulted\":{},\"awake_max\":{},\"awake_avg\":{},\"rounds\":{},\
             \"all_correct\":{}",
            json_escape(s.algorithm.key()),
            json_escape(&self.axis.base),
            self.axis.loss,
            self.axis.crash,
            self.axis.jitter,
            s.family.key(),
            s.n,
            s.runs,
            s.failure_rate,
            s.crashed,
            s.faulted,
            summary_json(&s.awake_max),
            summary_json(&s.awake_avg),
            summary_json(&s.rounds),
            s.all_correct,
        );
        if let Some(i) = self.awake_inflation {
            out.push_str(&format!(",\"awake_inflation\":{i}"));
        }
        out.push('}');
        out
    }
}

impl Document for FaultResult {
    const SCHEMA: &'static str = "awake-mis/bench-faults/v1";
    const FILE: &'static str = "BENCH_faults.json";
    /// The `algorithm` component is the full fault-level key.
    const KEY_FIELDS: &'static [&'static str] = &["algorithm", "family", "n"];

    fn spec_json(&self) -> String {
        let spec = &self.spec;
        spec_echo(&spec.specs, &self.groups, &spec.families, &spec.sizes, &spec.seeds)
    }

    fn cell_lines(&self) -> Vec<String> {
        self.cells.iter().map(FaultCell::json).collect()
    }

    /// Grid-format points: a clean level's are byte-identical to a
    /// fault-free grid's.
    fn point_lines(&self) -> Vec<String> {
        self.points.iter().map(GridPoint::json).collect()
    }

    fn timing(&self) -> Vec<(&'static str, Vec<u64>)> {
        vec![("elapsed_ns", self.points.iter().map(|p| p.elapsed_ns).collect())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{run_grid, GridMeta, GridSpec};

    #[test]
    fn fault_axis_parses_and_strips() {
        let a = fault_axis("luby?loss=0.05").unwrap();
        assert_eq!(a, FaultAxis { base: "luby".into(), loss: 0.05, crash: 0.0, jitter: 0 });
        let a = fault_axis("vt?id_upper=4096&loss=0.01&crash=0.002&jitter=3").unwrap();
        assert_eq!(a.base, "vt?id_upper=4096");
        assert_eq!((a.loss, a.crash, a.jitter), (0.01, 0.002, 3));
        // adv_ids is an algorithm variant, not a fault level.
        let a = fault_axis("vt?adv_ids=worst&loss=0.01").unwrap();
        assert_eq!(a.base, "vt?adv_ids=worst");
        // The clean key is its own base.
        assert_eq!(fault_axis("awake").unwrap().base, "awake");
    }

    #[test]
    fn fault_sweep_aggregates_a_robustness_surface() {
        let spec = FaultSweepSpec {
            specs: vec!["luby?loss=0,0.05".into()],
            families: vec![GraphFamily::Er],
            sizes: vec![64],
            seeds: vec![1, 2, 3, 4, 5, 6],
            threads: 1,
        };
        let result = run_faults(&spec).unwrap();
        assert_eq!(result.points.len(), 2 * 6);
        assert_eq!(result.cells.len(), 2);
        let (clean, lossy) = (&result.cells[0], &result.cells[1]);
        // The loss=0 level collapses to the clean runner identity.
        assert_eq!(clean.stats.algorithm.key(), "luby");
        assert_eq!(clean.stats.failure_rate, 0.0);
        assert_eq!(clean.stats.faulted, 0);
        assert!(clean.stats.all_correct);
        assert!(clean.awake_inflation.is_none(), "the baseline has no inflation");
        assert_eq!(lossy.stats.algorithm.key(), "luby?loss=0.05");
        assert_eq!(lossy.axis.base, "luby");
        assert!(lossy.stats.faulted > 0, "5% loss must drop messages");
        assert!(lossy.stats.failure_rate >= clean.stats.failure_rate, "loss cannot help");
        assert!(
            lossy.awake_inflation.is_some(),
            "clean level present, so inflation is computable"
        );
    }

    #[test]
    fn clean_level_points_are_byte_identical_to_a_grid_run() {
        // The acceptance criterion behind the key-canonicalization
        // design: the loss=0 slice of a fault sweep serializes exactly
        // like a fault-free grid over the same axes.
        let families = vec![GraphFamily::Er, GraphFamily::Cycle];
        let sizes = vec![48];
        let seeds = vec![1, 2, 3];
        let fr = run_faults(&FaultSweepSpec {
            specs: vec!["luby?loss=0,0.08".into()],
            families: families.clone(),
            sizes: sizes.clone(),
            seeds: seeds.clone(),
            threads: 1,
        })
        .unwrap();
        let gr = run_grid(&GridSpec {
            algorithms: vec![default_registry().resolve("luby").unwrap()],
            families,
            sizes,
            seeds,
            tiers: Vec::new(),
            threads: 1,
        });
        // Fault-sweep points are level-major, so the clean level is the
        // leading slice.
        for (fp, gp) in fr.points.iter().zip(&gr.points) {
            assert_eq!(fp.json(), gp.json(), "clean-level point diverged from the grid");
        }
    }

    #[test]
    fn fault_payload_shape() {
        let spec = FaultSweepSpec {
            specs: vec!["luby?loss=0,0.03".into(), "vt?crash=0.001".into()],
            families: vec![GraphFamily::Cycle],
            sizes: vec![32],
            seeds: vec![1, 2],
            threads: 1,
        };
        let result = run_faults(&spec).unwrap();
        let payload = result.payload_json();
        assert!(payload.contains("\"schema\": \"awake-mis/bench-faults/v1\""));
        assert!(payload.contains("\"specs\": [\"luby?loss=0,0.03\", \"vt?crash=0.001\"]"));
        assert!(payload.contains("\"expanded\": [[\"luby\", \"luby?loss=0.03\"], [\"vt?crash=0.001\"]]"));
        assert!(payload.contains("\"failure_rate\""));
        assert!(payload.contains("\"base\":\"luby\""));
        assert!(!payload.contains("wall_ms"));
        assert!(!payload.contains("elapsed_ns"));
        assert_eq!(payload.matches('{').count(), payload.matches('}').count());
        assert_eq!(payload.matches('[').count(), payload.matches(']').count());
        let full = result.to_json(&GridMeta { threads: 2, wall_ms: 5 });
        let stripped: String = full
            .lines()
            .filter(|l| !l.contains("\"meta\"") && !l.contains("\"timing\""))
            .collect::<Vec<_>>()
            .join("\n")
            + "\n";
        assert_eq!(stripped, payload);
    }

    #[test]
    fn duplicate_levels_are_rejected() {
        let spec = FaultSweepSpec {
            specs: vec!["luby?loss=0".into(), "luby".into()],
            families: vec![GraphFamily::Er],
            sizes: vec![16],
            seeds: vec![1],
            threads: 1,
        };
        // `luby?loss=0` IS `luby` after key canonicalization; listing
        // both is a duplicate level.
        assert!(matches!(run_faults(&spec), Err(SpecError::DuplicateKey { .. })));
    }
}
