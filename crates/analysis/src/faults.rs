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

use crate::grid::{json_escape, push_jobs, run_instances, summary_json, GridMeta, GridPoint};
use crate::spec::{default_registry, AlgorithmSpec, RunnerHandle, SpecError};
use crate::stats::Summary;
use crate::sweep::{expand, SweepGroup};
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
    /// The concrete fault level (a runner handle; its key carries the
    /// fault knobs).
    pub algorithm: RunnerHandle,
    /// Parsed fault knobs plus the clean base key.
    pub axis: FaultAxis,
    /// Graph family of this cell.
    pub family: GraphFamily,
    /// Node count of this cell.
    pub n: usize,
    /// Number of seeds aggregated.
    pub runs: usize,
    /// Fraction of seeds that did **not** verify correct (on the
    /// survivor subgraph). The robustness headline.
    pub failure_rate: f64,
    /// Total nodes crashed across seeds.
    pub crashed: u64,
    /// Total deliverable message copies dropped across seeds.
    pub faulted: u64,
    /// Summary of worst-case awake complexity over seeds.
    pub awake_max: Summary,
    /// Summary of node-averaged awake complexity over seeds.
    pub awake_avg: Summary,
    /// Summary of round complexity over seeds.
    pub rounds: Summary,
    /// Mean worst-case awake of this cell divided by the clean
    /// baseline's (the cell whose key equals `axis.base`, same family
    /// and n) — awake inflation under faults. `None` when the sweep
    /// does not include the clean level or the baseline mean is 0.
    pub awake_inflation: Option<f64>,
    /// Whether every seed verified correct.
    pub all_correct: bool,
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
    let registry = default_registry();
    let mut groups = Vec::with_capacity(spec.specs.len());
    let mut flat: Vec<RunnerHandle> = Vec::new();
    for raw in &spec.specs {
        let group = expand(registry, raw)?;
        for r in &group.runners {
            if flat.iter().any(|f| f.key() == r.key()) {
                return Err(SpecError::DuplicateKey { key: r.key().to_string() });
            }
            flat.push(r.clone());
        }
        groups.push(group);
    }
    if flat.is_empty() || spec.seeds.is_empty() {
        return Err(SpecError::Syntax {
            spec: spec.specs.join(","),
            detail: "a fault sweep needs at least one level and one seed".to_string(),
        });
    }

    let mut jobs = Vec::new();
    push_jobs(&mut jobs, &flat, &spec.families, &spec.sizes, &spec.seeds);
    let points = run_instances(&jobs, resolve_threads(spec.threads), |point, _| point);
    let cells = aggregate(spec, &flat, &points)?;
    Ok(FaultResult { spec: spec.clone(), groups, points, cells })
}

fn aggregate(
    spec: &FaultSweepSpec,
    flat: &[RunnerHandle],
    points: &[GridPoint],
) -> Result<Vec<FaultCell>, SpecError> {
    let (nf, ns, nk) = (spec.families.len(), spec.sizes.len(), spec.seeds.len());
    let mut cells = Vec::with_capacity(flat.len() * nf * ns);
    for (ai, algorithm) in flat.iter().enumerate() {
        let axis = fault_axis(algorithm.key())?;
        for (fi, &family) in spec.families.iter().enumerate() {
            for (si, &n) in spec.sizes.iter().enumerate() {
                let base = ((ai * nf + fi) * ns + si) * nk;
                let chunk = &points[base..base + nk];
                let awake_max: Vec<u64> = chunk.iter().map(|p| p.awake_max).collect();
                let awake_avg: Vec<f64> = chunk.iter().map(|p| p.awake_avg).collect();
                let rounds: Vec<u64> = chunk.iter().map(|p| p.rounds).collect();
                let incorrect = chunk.iter().filter(|p| !p.correct).count();
                cells.push(FaultCell {
                    algorithm: algorithm.clone(),
                    axis: axis.clone(),
                    family,
                    n,
                    runs: nk,
                    failure_rate: incorrect as f64 / nk as f64,
                    crashed: chunk.iter().map(|p| p.crashed as u64).sum(),
                    faulted: chunk.iter().map(|p| p.faulted).sum(),
                    awake_max: Summary::of_u64(&awake_max),
                    awake_avg: Summary::of(&awake_avg),
                    rounds: Summary::of_u64(&rounds),
                    awake_inflation: None,
                    all_correct: incorrect == 0,
                });
            }
        }
    }
    // Second pass: awake inflation against the clean baseline cell of
    // the same base algorithm, family, and n — when the sweep has one.
    let clean: Vec<(String, GraphFamily, usize, f64)> = cells
        .iter()
        .filter(|c| c.algorithm.key() == c.axis.base)
        .map(|c| (c.axis.base.clone(), c.family, c.n, c.awake_max.mean))
        .collect();
    for cell in &mut cells {
        if cell.algorithm.key() == cell.axis.base {
            continue;
        }
        cell.awake_inflation = clean
            .iter()
            .find(|(b, f, n, m)| {
                *b == cell.axis.base && *f == cell.family && *n == cell.n && *m > 0.0
            })
            .map(|(_, _, _, m)| cell.awake_max.mean / m);
    }
    Ok(cells)
}

impl FaultCell {
    /// The payload fields that identify one robustness cell (the
    /// `algorithm` component is the full fault-level key).
    pub const KEY_FIELDS: [&'static str; 3] = ["algorithm", "family", "n"];

    /// This cell's identity as textual key components matching
    /// [`Self::KEY_FIELDS`] and the artifact JSON spelling.
    pub fn cell_key(&self) -> Vec<String> {
        vec![self.algorithm.key().to_string(), self.family.key(), self.n.to_string()]
    }

    fn json(&self) -> String {
        let mut s = format!(
            "{{\"algorithm\":\"{}\",\"base\":\"{}\",\"loss\":{},\"crash\":{},\
             \"jitter\":{},\"family\":\"{}\",\"n\":{},\"runs\":{},\"failure_rate\":{},\
             \"crashed\":{},\"faulted\":{},\"awake_max\":{},\"awake_avg\":{},\"rounds\":{},\
             \"all_correct\":{}",
            json_escape(self.algorithm.key()),
            json_escape(&self.axis.base),
            self.axis.loss,
            self.axis.crash,
            self.axis.jitter,
            self.family.key(),
            self.n,
            self.runs,
            self.failure_rate,
            self.crashed,
            self.faulted,
            summary_json(&self.awake_max),
            summary_json(&self.awake_avg),
            summary_json(&self.rounds),
            self.all_correct,
        );
        if let Some(i) = self.awake_inflation {
            s.push_str(&format!(",\"awake_inflation\":{i}"));
        }
        s.push('}');
        s
    }
}

impl FaultResult {
    /// The deterministic JSON payload (schema
    /// `awake-mis/bench-faults/v1`): spec echo with expansions,
    /// robustness cells, grid-format points. Byte-identical across
    /// thread counts and repeat runs; clean-level points byte-identical
    /// to a fault-free grid's.
    pub fn payload_json(&self) -> String {
        self.json_with_meta(None)
    }

    /// The full document: the payload plus `meta` and per-point
    /// `timing` sections (excluded from determinism comparisons).
    pub fn to_json(&self, meta: &GridMeta) -> String {
        self.json_with_meta(Some(meta))
    }

    fn json_with_meta(&self, meta: Option<&GridMeta>) -> String {
        let mut out = String::from("{\n  \"schema\": \"awake-mis/bench-faults/v1\",\n");
        if let Some(m) = meta {
            out.push_str(&format!(
                "  \"meta\": {{\"threads\": {}, \"wall_ms\": {}}},\n",
                m.threads, m.wall_ms
            ));
            let ns: Vec<String> =
                self.points.iter().map(|p| p.elapsed_ns.to_string()).collect();
            out.push_str(&format!("  \"timing\": {{\"elapsed_ns\": [{}]}},\n", ns.join(", ")));
        }
        let specs: Vec<String> =
            self.spec.specs.iter().map(|s| format!("\"{}\"", json_escape(s))).collect();
        let expanded: Vec<String> = self
            .groups
            .iter()
            .map(|g| {
                let keys: Vec<String> =
                    g.runners.iter().map(|r| format!("\"{}\"", json_escape(r.key()))).collect();
                format!("[{}]", keys.join(", "))
            })
            .collect();
        let families: Vec<String> =
            self.spec.families.iter().map(|f| format!("\"{}\"", f.key())).collect();
        let sizes: Vec<String> = self.spec.sizes.iter().map(|n| n.to_string()).collect();
        let seeds: Vec<String> = self.spec.seeds.iter().map(|s| s.to_string()).collect();
        out.push_str(&format!(
            "  \"spec\": {{\"specs\": [{}], \"expanded\": [{}], \"families\": [{}], \
             \"sizes\": [{}], \"seeds\": [{}]}},\n",
            specs.join(", "),
            expanded.join(", "),
            families.join(", "),
            sizes.join(", "),
            seeds.join(", "),
        ));
        out.push_str("  \"cells\": [\n");
        let cells: Vec<String> = self.cells.iter().map(|c| format!("    {}", c.json())).collect();
        out.push_str(&cells.join(",\n"));
        out.push_str("\n  ],\n  \"points\": [\n");
        let points: Vec<String> =
            self.points.iter().map(|p| format!("    {}", p.json())).collect();
        out.push_str(&points.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{run_grid, GridSpec};

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
        assert_eq!(clean.algorithm.key(), "luby");
        assert_eq!(clean.failure_rate, 0.0);
        assert_eq!(clean.faulted, 0);
        assert!(clean.all_correct);
        assert!(clean.awake_inflation.is_none(), "the baseline has no inflation");
        assert_eq!(lossy.algorithm.key(), "luby?loss=0.05");
        assert_eq!(lossy.axis.base, "luby");
        assert!(lossy.faulted > 0, "5% loss must drop messages");
        assert!(lossy.failure_rate >= clean.failure_rate, "loss cannot help");
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
