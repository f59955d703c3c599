//! Parameter sweeps and the energy frontier.
//!
//! The sleeping-model literature is a trade-off *surface*: worst-case
//! awake (the source paper), node-averaged awake (Ghaffari–Portmann,
//! arXiv:2305.06120), and explicit energy/time trade-offs
//! (Ghaffari–Portmann, arXiv:2305.11639). Charting that surface means
//! sweeping the knob that moves along it, so this module makes parameter
//! sweeps first-class:
//!
//! 1. **Range-valued spec params** — [`expand`] extends the
//!    [`AlgorithmSpec`] grammar so a parameter value may be an integer
//!    range (`le?bits=6..14`, optionally stepped with `step=4`) or a
//!    comma list (`gp-avg?balance=0,2,4,8`), expanding one spec string
//!    into an ordered family of concrete [`RunnerHandle`]s. Parsing is
//!    strict: unknown keys/params, empty or inverted ranges, zero steps,
//!    duplicate expansion points, and oversized expansions are all
//!    errors. A single-valued spec expands to exactly itself.
//! 2. **The sweep engine** — [`run_sweep`] runs
//!    `{expanded spec × family × n × seed}` through the same
//!    deterministic batch fan-out as [`crate::grid`] (byte-identical
//!    payloads for every thread count), additionally pricing every run
//!    with the [`EnergyModel`]: worst-node and mean-node energy in
//!    millijoules, residual sleep draw included.
//! 3. **Pareto analysis** — per `{family × n}` cell, every swept
//!    `(algorithm, param)` point is scored on
//!    `(rounds, max awake, mean awake, worst-node energy)` and the
//!    non-dominated frontier is computed ([`dominators`]); dominated
//!    points are annotated with a dominating spec. The committed
//!    `BENCH_sweep.json` (schema `awake-mis/bench-sweep/v1`) is the
//!    serialized result, and `bench-diff` gates on frontier regressions.
//!
//! # Range grammar
//!
//! ```text
//! value  := scalar | range | list
//! range  := int '..' int            # inclusive on both ends, step 1
//! list   := scalar ( ',' scalar )+  # explicit points, any scalar type
//! step=K                            # applies to every range in the spec
//! ```
//!
//! `le?bits=6..14&step=4` → `le?bits=6`, `le?bits=10`, `le?bits=14`.
//! Multiple swept parameters combine as a cartesian product in spec
//! order (the last parameter varies fastest). `step=` without any range
//! is an error, as is a range whose low end exceeds its high end.
//!
//! ```
//! use analysis::spec::default_registry;
//! use analysis::sweep::expand;
//!
//! let group = expand(default_registry(), "gp-avg?balance=0..8&step=4").unwrap();
//! let keys: Vec<&str> = group.runners.iter().map(|r| r.key()).collect();
//! assert_eq!(keys, ["gp-avg?balance=0", "gp-avg?balance=4", "gp-avg?balance=8"]);
//! // A scalar spec is left exactly as it was.
//! assert_eq!(expand(default_registry(), "luby").unwrap().runners.len(), 1);
//! ```

use crate::document::{json_escape, list, quoted, summary_json, Document};
use crate::energy::EnergyModel;
use crate::grid::{axes_json, push_jobs, run_instances, GridCell, GridPoint};
use crate::spec::{default_registry, AlgorithmSpec, Registry, RunnerHandle, SpecError};
use crate::stats::Summary;
use graphgen::GraphFamily;
use sleeping_congest::batch::resolve_threads;

/// Cap on the number of concrete points one spec string may expand to —
/// a typo like `bits=0..1000000` must fail loudly, not spawn a month of
/// work.
pub const MAX_EXPANSION: usize = 256;

/// One spec string's expansion: the raw sweep spec as written plus the
/// ordered family of concrete runners it denotes.
#[derive(Debug, Clone)]
pub struct SweepGroup {
    /// The sweep spec as written (`"le?bits=6..14&step=4"`).
    pub raw: String,
    /// The expanded concrete runners, in expansion order.
    pub runners: Vec<RunnerHandle>,
}

/// The expanded values of one parameter, plus whether the expression was
/// a range (ranges are what `step=` applies to).
fn expand_value(param: &str, value: &str, step: u64) -> Result<(Vec<String>, bool), SpecError> {
    let bad = |expected: &str| SpecError::BadValue {
        param: param.to_string(),
        value: value.to_string(),
        expected: expected.to_string(),
    };
    if let Some((lo, hi)) = value.split_once("..") {
        let lo: u64 = lo.trim().parse().map_err(|_| bad("an integer range lo..hi"))?;
        let hi: u64 = hi.trim().parse().map_err(|_| bad("an integer range lo..hi"))?;
        if lo > hi {
            return Err(bad("a non-empty range (lo must not exceed hi)"));
        }
        let mut out = Vec::new();
        let mut v = lo;
        loop {
            out.push(v.to_string());
            match v.checked_add(step) {
                Some(next) if next <= hi => v = next,
                _ => break,
            }
            if out.len() > MAX_EXPANSION {
                return Err(bad("a range expanding to at most 256 points"));
            }
        }
        return Ok((out, true));
    }
    if value.contains(',') {
        let items: Vec<String> = value.split(',').map(|s| s.trim().to_string()).collect();
        if items.iter().any(String::is_empty) {
            return Err(bad("a comma list without empty elements"));
        }
        return Ok((items, false));
    }
    Ok((vec![value.to_string()], false))
}

/// The range grammar behind [`expand`] and [`expand_families`]: expands
/// the `name=value` `params` of `base` (the reserved `step=` among
/// them) into every concrete spelling `base?name=v&…`, last parameter
/// fastest, and returns what `resolve` makes of each. `too_many` builds
/// the error for an expansion past [`MAX_EXPANSION`] points from its
/// `expected` text; two points whose `key`s agree are a
/// [`SpecError::DuplicateKey`].
fn expand_grammar<T>(
    base: &str,
    params: &[(&str, &str)],
    too_many: impl FnOnce(String) -> SpecError,
    resolve: impl Fn(&str) -> Result<T, SpecError>,
    key: impl Fn(&T) -> String,
) -> Result<Vec<T>, SpecError> {
    // Pull out the reserved `step=` parameter.
    let mut step: Option<u64> = None;
    let mut swept: Vec<(&str, &str)> = Vec::new();
    for &(name, value) in params {
        if name == "step" {
            let v =
                value.parse().ok().filter(|&v: &u64| v > 0).ok_or_else(|| SpecError::BadValue {
                    param: "step".to_string(),
                    value: value.to_string(),
                    expected: "a positive integer".to_string(),
                })?;
            step = Some(v);
        } else {
            swept.push((name, value));
        }
    }

    // Expand every parameter value; cartesian product in spec order.
    let mut axes: Vec<(&str, Vec<String>)> = Vec::new();
    let mut saw_range = false;
    for (name, value) in swept {
        let (values, was_range) = expand_value(name, value, step.unwrap_or(1))?;
        saw_range |= was_range;
        axes.push((name, values));
    }
    if let Some(s) = step {
        if !saw_range {
            return Err(SpecError::BadValue {
                param: "step".to_string(),
                value: s.to_string(),
                expected: "a range-valued parameter for step= to apply to".to_string(),
            });
        }
    }
    let count: usize = axes.iter().map(|(_, v)| v.len()).product();
    if count > MAX_EXPANSION {
        return Err(too_many(format!("at most {MAX_EXPANSION} expansion points, got {count}")));
    }

    let mut out: Vec<T> = Vec::with_capacity(count);
    for idx in 0..count {
        // Mixed-radix decode, last axis fastest.
        let mut rest = idx;
        let mut picks = vec![0usize; axes.len()];
        for (a, (_, values)) in axes.iter().enumerate().rev() {
            picks[a] = rest % values.len();
            rest /= values.len();
        }
        let mut s = base.to_string();
        for (a, (name, values)) in axes.iter().enumerate() {
            s.push(if a == 0 { '?' } else { '&' });
            s.push_str(name);
            s.push('=');
            s.push_str(&values[picks[a]]);
        }
        let point = resolve(&s)?;
        let k = key(&point);
        if out.iter().any(|o| key(o) == k) {
            return Err(SpecError::DuplicateKey { key: k });
        }
        out.push(point);
    }
    Ok(out)
}

/// Expands one (possibly range-valued) spec string into its ordered
/// family of concrete runners, resolving each point through `registry`.
///
/// # Errors
///
/// Everything [`AlgorithmSpec::parse`] and the registry reject, plus the
/// sweep-grammar errors documented in the module docs
/// ([`SpecError::BadValue`] for malformed ranges/steps,
/// [`SpecError::DuplicateKey`] when two expansion points collapse to the
/// same canonical spec).
pub fn expand(registry: &Registry, raw: &str) -> Result<SweepGroup, SpecError> {
    let spec = AlgorithmSpec::parse(raw)?;
    let raw = raw.trim();
    let params: Vec<(&str, &str)> =
        spec.params().iter().map(|(name, value)| (name.as_str(), value.as_str())).collect();
    let runners = expand_grammar(
        spec.key(),
        &params,
        |expected| SpecError::BadValue {
            param: "spec".to_string(),
            value: raw.to_string(),
            expected,
        },
        |s| registry.resolve(s),
        |r| r.key().to_string(),
    )?;
    Ok(SweepGroup { raw: raw.to_string(), runners })
}

/// Expands every spec of a sweep in input order: the one spec-list
/// expander behind [`run_sweep`], [`crate::faults::run_faults`] and the
/// `sweep` and `faults` binaries' check of their command line.
///
/// # Errors
///
/// The first spec [`expand`] rejects, or [`SpecError::DuplicateKey`]
/// for a point two specs share.
pub fn expand_specs(registry: &Registry, specs: &[String]) -> Result<Vec<SweepGroup>, SpecError> {
    let mut groups: Vec<SweepGroup> = Vec::with_capacity(specs.len());
    for raw in specs {
        let group = expand(registry, raw)?;
        let taken = |key: &str| groups.iter().flat_map(|g| &g.runners).any(|e| e.key() == key);
        if let Some(r) = group.runners.iter().find(|r| taken(r.key())) {
            return Err(SpecError::DuplicateKey { key: r.key().to_string() });
        }
        groups.push(group);
    }
    Ok(groups)
}

/// Expands one (possibly range-valued) *family* spec into its ordered
/// list of concrete [`GraphFamily`] values, reusing the algorithm-sweep
/// range grammar: `er?avg_deg=8..16&step=4` → `er`, `er?avg_deg=12`,
/// `er?avg_deg=16` (a parameter at its default canonicalizes to the
/// bare family, exactly as [`GraphFamily::parse`] does). Ranges are
/// integer-valued; non-integer dials such as `rgg?radius=…` sweep via
/// comma lists (`rgg?radius=0.03,0.06`).
///
/// ```
/// use analysis::sweep::expand_families;
///
/// let fams = expand_families("er?avg_deg=8..16&step=4").unwrap();
/// let keys: Vec<String> = fams.iter().map(|f| f.key()).collect();
/// assert_eq!(keys, ["er", "er?avg_deg=12", "er?avg_deg=16"]);
/// ```
///
/// # Errors
///
/// [`SpecError::BadValue`] for unknown families, malformed ranges/steps,
/// parameter points [`GraphFamily::parse`] rejects, and oversized
/// expansions; [`SpecError::Syntax`] for non-`name=value` parameters;
/// [`SpecError::DuplicateKey`] when two expansion points collapse to the
/// same canonical family.
pub fn expand_families(raw: &str) -> Result<Vec<GraphFamily>, SpecError> {
    let trimmed = raw.trim();
    let bad_family = |value: &str, expected: String| SpecError::BadValue {
        param: "family".to_string(),
        value: value.to_string(),
        expected,
    };
    let (base, params) = match trimmed.split_once('?') {
        None => (trimmed, Vec::new()),
        Some((base, rest)) => {
            let params = rest.split('&').map(|part| {
                part.split_once('=').ok_or_else(|| SpecError::Syntax {
                    spec: trimmed.to_string(),
                    detail: format!("family parameter {part:?} is not `name=value`"),
                })
            });
            (base, params.collect::<Result<Vec<_>, _>>()?)
        }
    };
    expand_grammar(
        base,
        &params,
        |expected| bad_family(trimmed, expected),
        |s| {
            GraphFamily::parse(s)
                .ok_or_else(|| bad_family(s, "a known graph family and its parameters".to_string()))
        },
        |f| f.key(),
    )
}

/// A sweep: range-valued specs crossed with graph families, sizes, and
/// seeds, plus the energy model pricing every run.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Sweep spec strings (range/list-valued; see the module docs).
    pub specs: Vec<String>,
    /// Graph families.
    pub families: Vec<GraphFamily>,
    /// Node counts.
    pub sizes: Vec<usize>,
    /// Seeds (innermost axis), as in [`crate::grid::GridSpec`].
    pub seeds: Vec<u64>,
    /// Worker threads; `0` means all available. Does not affect results.
    pub threads: usize,
    /// Energy model pricing awake and sleeping rounds.
    pub energy: EnergyModel,
}

/// One sweep run: the normalized grid measurements plus its energy bill.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The underlying grid-point measurements.
    pub point: GridPoint,
    /// Worst-node energy over the run, in millijoules (awake draw plus
    /// residual sleep draw until the node's own termination).
    pub energy_max_mj: f64,
    /// Mean node energy over the run, in millijoules.
    pub energy_mean_mj: f64,
}

/// Per-`{family × n}` aggregates of one swept `(algorithm, param)` point.
#[derive(Debug, Clone)]
pub struct SweepEntry {
    /// The seed-axis statistics of this point, reduced as a grid cell
    /// is: the algorithm point, runs, awake and round summaries, max
    /// message bits and whether every seed verified.
    pub stats: GridCell,
    /// Index into [`SweepResult::groups`] of the spec this point was
    /// expanded from.
    pub group: usize,
    /// Summary of worst-node energy (mJ) over seeds.
    pub energy_max_mj: Summary,
    /// Summary of mean-node energy (mJ) over seeds.
    pub energy_mean_mj: Summary,
    /// True when this entry is on the cell's Pareto frontier over
    /// `(rounds, awake max, awake mean, worst-node energy)`, all
    /// minimized. Incorrect entries never make the frontier.
    pub pareto: bool,
    /// For dominated entries: the key of a frontier entry that weakly
    /// improves on every objective.
    pub dominated_by: Option<String>,
}

/// One `{family × n}` cell: every swept point, frontier-annotated.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Graph family of this cell.
    pub family: GraphFamily,
    /// Node count of this cell.
    pub n: usize,
    /// One entry per swept `(algorithm, param)` point, in sweep order.
    pub entries: Vec<SweepEntry>,
}

impl SweepCell {
    /// Keys of the non-dominated entries, in sweep order.
    pub fn frontier(&self) -> Vec<&str> {
        self.entries.iter().filter(|e| e.pareto).map(|e| e.stats.algorithm.key()).collect()
    }
}

/// The outcome of [`run_sweep`].
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The sweep that was run.
    pub spec: SweepSpec,
    /// Each input spec's expansion, in input order.
    pub groups: Vec<SweepGroup>,
    /// Per-run measurements, in sweep order (algorithm-major,
    /// seed-minor, exactly like the grid).
    pub points: Vec<SweepPoint>,
    /// Per-`{family × n}` cells with Pareto annotations.
    pub cells: Vec<SweepCell>,
}

/// For each point (a vector of objectives, all minimized), `None` when
/// the point is non-dominated, or `Some(i)` naming the first point that
/// dominates it.
///
/// `q` dominates `p` when `q` is no worse on every objective and
/// strictly better on at least one. Equal points do not dominate each
/// other — both stay on the frontier. The function is pure and
/// deterministic: ties and dominator choice go by index order.
///
/// # Panics
///
/// Panics if the points do not all have the same number of objectives.
pub fn dominators(objectives: &[Vec<f64>]) -> Vec<Option<usize>> {
    let dim = objectives.first().map_or(0, Vec::len);
    assert!(
        objectives.iter().all(|o| o.len() == dim),
        "all points must score the same objectives"
    );
    (0..objectives.len())
        .map(|pi| {
            let p = &objectives[pi];
            (0..objectives.len()).find(|&qi| {
                let q = &objectives[qi];
                qi != pi
                    && q.iter().zip(p).all(|(a, b)| a <= b)
                    && q.iter().zip(p).any(|(a, b)| a < b)
            })
        })
        .collect()
}

/// Expands every spec and runs the sweep over
/// `{algorithm point × family × n × seed}` on `spec.threads` workers,
/// generating each instance once for all its algorithm points (see
/// [`crate::grid`]) and pricing each run's energy as it finishes.
/// Deterministic like the grid: apart from wall-clock fields, the
/// result is identical for every thread count.
///
/// # Errors
///
/// Expansion errors (see [`expand`]); also rejects a sweep with zero
/// expanded points or zero seeds ([`SpecError::Syntax`]).
pub fn run_sweep(spec: &SweepSpec) -> Result<SweepResult, SpecError> {
    let groups = expand_specs(default_registry(), &spec.specs)?;
    let flat: Vec<(usize, RunnerHandle)> = groups
        .iter()
        .enumerate()
        .flat_map(|(gi, g)| g.runners.iter().map(move |r| (gi, r.clone())))
        .collect();
    if flat.is_empty() || spec.seeds.is_empty() {
        return Err(SpecError::Syntax {
            spec: spec.specs.join(","),
            detail: "a sweep needs at least one algorithm point and one seed".to_string(),
        });
    }

    // Jobs in sweep order: algorithm-major, seed-minor (grid order).
    let algorithms: Vec<RunnerHandle> = flat.iter().map(|(_, r)| r.clone()).collect();
    let mut jobs = Vec::new();
    push_jobs(&mut jobs, &algorithms, &spec.families, &spec.sizes, &spec.seeds);
    let energy = spec.energy;
    let points = run_instances(&jobs, resolve_threads(spec.threads), |point, metrics| {
        let (energy_max_mj, energy_mean_mj) = match &metrics {
            Some(m) => (
                energy.max_node_energy_mj(&m.awake_rounds, &m.terminated_at),
                energy.mean_node_energy_mj(&m.awake_rounds, &m.terminated_at),
            ),
            None => (0.0, 0.0),
        };
        SweepPoint { point, energy_max_mj, energy_mean_mj }
    });

    let cells = aggregate(spec, &flat, &points);
    Ok(SweepResult { spec: spec.clone(), groups, points, cells })
}

fn aggregate(
    spec: &SweepSpec,
    flat: &[(usize, RunnerHandle)],
    points: &[SweepPoint],
) -> Vec<SweepCell> {
    let (nf, ns, nk) = (spec.families.len(), spec.sizes.len(), spec.seeds.len());
    let mut cells = Vec::with_capacity(nf * ns);
    for (fi, &family) in spec.families.iter().enumerate() {
        for (si, &n) in spec.sizes.iter().enumerate() {
            let mut entries: Vec<SweepEntry> = flat
                .iter()
                .enumerate()
                .map(|(ai, &(group, _))| {
                    let base = ((ai * nf + fi) * ns + si) * nk;
                    let chunk = &points[base..base + nk];
                    let e_max: Vec<f64> = chunk.iter().map(|p| p.energy_max_mj).collect();
                    let e_mean: Vec<f64> = chunk.iter().map(|p| p.energy_mean_mj).collect();
                    SweepEntry {
                        stats: GridCell::of(chunk.iter().map(|p| &p.point)),
                        group,
                        energy_max_mj: Summary::of(&e_max),
                        energy_mean_mj: Summary::of(&e_mean),
                        pareto: false,
                        dominated_by: None,
                    }
                })
                .collect();

            // Pareto frontier over the seed-mean objectives, minimized.
            // Incorrect entries are excluded outright: an aborted or
            // failing run's zeroed measurements must never "dominate".
            let scored: Vec<usize> =
                (0..entries.len()).filter(|&i| entries[i].stats.all_correct).collect();
            let objectives: Vec<Vec<f64>> = scored
                .iter()
                .map(|&i| {
                    let (e, s) = (&entries[i], &entries[i].stats);
                    vec![s.rounds.mean, s.awake_max.mean, s.awake_avg.mean, e.energy_max_mj.mean]
                })
                .collect();
            for (rank, dom) in dominators(&objectives).into_iter().enumerate() {
                let i = scored[rank];
                match dom {
                    None => entries[i].pareto = true,
                    Some(d) => {
                        entries[i].dominated_by =
                            Some(entries[scored[d]].stats.algorithm.key().to_string());
                    }
                }
            }
            cells.push(SweepCell { family, n, entries });
        }
    }
    cells
}

impl SweepPoint {
    fn json(&self) -> String {
        let mut s = self.point.json();
        s.pop(); // strip the closing brace, append the energy fields
        s.push_str(&format!(
            ",\"energy_max_mj\":{},\"energy_mean_mj\":{}}}",
            self.energy_max_mj, self.energy_mean_mj
        ));
        s
    }
}

impl SweepEntry {
    fn json(&self) -> String {
        let stats = &self.stats;
        let mut s = format!(
            "{{\"algorithm\":\"{}\",\"group\":{},\"runs\":{},\"awake_max\":{},\
             \"awake_avg\":{},\"rounds\":{},\"energy_max_mj\":{},\"energy_mean_mj\":{},\
             \"max_message_bits\":{},\"all_correct\":{},\"pareto\":{}",
            json_escape(stats.algorithm.key()),
            self.group,
            stats.runs,
            summary_json(&stats.awake_max),
            summary_json(&stats.awake_avg),
            summary_json(&stats.rounds),
            summary_json(&self.energy_max_mj),
            summary_json(&self.energy_mean_mj),
            stats.max_message_bits,
            stats.all_correct,
            self.pareto,
        );
        if let Some(d) = &self.dominated_by {
            s.push_str(&format!(",\"dominated_by\":\"{}\"", json_escape(d)));
        }
        s.push('}');
        s
    }
}

/// The spec echo of an expanded sweep, shared by the sweep and fault
/// documents: the specs as written, their expansions, and the axes.
pub(crate) fn spec_echo(
    specs: &[String],
    groups: &[SweepGroup],
    families: &[GraphFamily],
    sizes: &[usize],
    seeds: &[u64],
) -> String {
    let expanded = list(
        groups.iter().map(|g| format!("[{}]", quoted(g.runners.iter().map(RunnerHandle::key)))),
    );
    format!(
        "\"specs\": [{}], \"expanded\": [{expanded}], {}",
        quoted(specs),
        axes_json(families, sizes, seeds)
    )
}

impl Document for SweepResult {
    const SCHEMA: &'static str = "awake-mis/bench-sweep/v1";
    const FILE: &'static str = "BENCH_sweep.json";
    /// Entries within a cell are further keyed by their `algorithm`
    /// spec point.
    const KEY_FIELDS: &'static [&'static str] = &["family", "n"];

    fn spec_json(&self) -> String {
        let (spec, e) = (&self.spec, &self.spec.energy);
        format!(
            "{}, \"energy\": {{\"awake_mw\": {}, \"sleep_mw\": {}, \"round_ms\": {}}}",
            spec_echo(&spec.specs, &self.groups, &spec.families, &spec.sizes, &spec.seeds),
            e.awake_mw,
            e.sleep_mw,
            e.round_ms,
        )
    }

    fn cell_lines(&self) -> Vec<String> {
        self.cells
            .iter()
            .map(|c| {
                let entries: Vec<String> =
                    c.entries.iter().map(|e| format!("      {}", e.json())).collect();
                format!(
                    "{{\"family\":\"{}\",\"n\":{},\"frontier\":[{}],\"entries\":[\n{}\n    ]}}",
                    c.family.key(),
                    c.n,
                    quoted(c.frontier()),
                    entries.join(",\n"),
                )
            })
            .collect()
    }

    fn point_lines(&self) -> Vec<String> {
        self.points.iter().map(SweepPoint::json).collect()
    }

    fn timing(&self) -> Vec<(&'static str, Vec<u64>)> {
        vec![("elapsed_ns", self.points.iter().map(|p| p.point.elapsed_ns).collect())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridMeta;

    #[test]
    fn ranges_lists_and_scalars_expand() {
        let reg = default_registry();
        let keys = |raw: &str| -> Vec<String> {
            expand(reg, raw)
                .unwrap()
                .runners
                .iter()
                .map(|r| r.key().to_string())
                .collect()
        };
        assert_eq!(keys("le?bits=6..8"), ["le?bits=6", "le?bits=7", "le?bits=8"]);
        assert_eq!(
            keys("gp-avg?balance=0..8&step=4"),
            ["gp-avg?balance=0", "gp-avg?balance=4", "gp-avg?balance=8"]
        );
        // A step overshooting the high end keeps the in-range points.
        assert_eq!(keys("le?bits=4..9&step=4"), ["le?bits=4", "le?bits=8"]);
        assert_eq!(keys("gp-avg?balance=0,2,4"), ["gp-avg?balance=0", "gp-avg?balance=2", "gp-avg?balance=4"]);
        // Lists are not restricted to integers.
        assert_eq!(keys("ldt?strategy=awake,round"), ["ldt?strategy=awake", "ldt?strategy=round"]);
        // Scalars pass through untouched.
        assert_eq!(keys("awake"), ["awake"]);
        assert_eq!(keys("vt?id_upper=4096"), ["vt?id_upper=4096"]);
    }

    #[test]
    fn cartesian_product_orders_last_axis_fastest() {
        let g = expand(default_registry(), "awake?delta_factor=1,2&comp_factor=3,4").unwrap();
        let keys: Vec<&str> = g.runners.iter().map(|r| r.key()).collect();
        assert_eq!(
            keys,
            [
                "awake?delta_factor=1&comp_factor=3",
                "awake?delta_factor=1&comp_factor=4",
                "awake?delta_factor=2&comp_factor=3",
                "awake?delta_factor=2&comp_factor=4",
            ]
        );
    }

    #[test]
    fn expansion_is_strict() {
        let reg = default_registry();
        // Inverted and malformed ranges.
        assert!(matches!(expand(reg, "le?bits=9..4"), Err(SpecError::BadValue { .. })));
        assert!(matches!(expand(reg, "le?bits=a..4"), Err(SpecError::BadValue { .. })));
        // step without a range, zero step.
        assert!(matches!(expand(reg, "le?bits=5&step=2"), Err(SpecError::BadValue { .. })));
        assert!(matches!(expand(reg, "le?bits=4..8&step=0"), Err(SpecError::BadValue { .. })));
        // Unknown algorithm / unknown parameter still error.
        assert!(matches!(expand(reg, "quantum?x=1..3"), Err(SpecError::UnknownAlgorithm { .. })));
        assert!(matches!(expand(reg, "luby?x=1..3"), Err(SpecError::UnknownParam { .. })));
        // Oversized expansions fail loudly.
        assert!(matches!(expand(reg, "vt?id_upper=1..100000"), Err(SpecError::BadValue { .. })));
        // Duplicate expansion points collapse to the same key.
        assert!(matches!(
            expand(reg, "gp-avg?balance=2,2"),
            Err(SpecError::DuplicateKey { .. })
        ));
    }

    #[test]
    fn family_ranges_expand_and_canonicalize() {
        let keys = |raw: &str| -> Vec<String> {
            expand_families(raw).unwrap().iter().map(|f| f.key()).collect()
        };
        // The default point canonicalizes to the bare family key, so the
        // grid/sweep cell keys stay stable across spellings.
        assert_eq!(keys("er?avg_deg=8..16&step=4"), ["er", "er?avg_deg=12", "er?avg_deg=16"]);
        assert_eq!(keys("ba?attach=3"), ["ba"]);
        // Non-integer dials sweep via comma lists.
        assert_eq!(keys("rgg?radius=0.03,0.06"), ["rgg?radius=0.03", "rgg?radius=0.06"]);
        // Bare keys pass through untouched.
        assert_eq!(keys("tree"), ["tree"]);
    }

    #[test]
    fn family_expansion_is_strict() {
        assert!(matches!(expand_families("nope"), Err(SpecError::BadValue { .. })));
        assert!(matches!(expand_families("er?avg_deg=9..4"), Err(SpecError::BadValue { .. })));
        // Families without that dial reject the parameter.
        assert!(matches!(expand_families("tree?x=1..3"), Err(SpecError::BadValue { .. })));
        // step without a range; malformed parameter syntax.
        assert!(matches!(expand_families("er?avg_deg=5&step=2"), Err(SpecError::BadValue { .. })));
        assert!(matches!(expand_families("er?avg_deg"), Err(SpecError::Syntax { .. })));
        // Two expansion points collapsing to one canonical family.
        assert!(matches!(expand_families("er?avg_deg=8,8"), Err(SpecError::DuplicateKey { .. })));
        // Oversized expansions fail loudly.
        assert!(matches!(expand_families("er?avg_deg=1..10000"), Err(SpecError::BadValue { .. })));
    }

    #[test]
    fn pareto_dominators_on_hand_built_points() {
        // p0 is the unique best on x, p1 on y; p2 is dominated by p0;
        // p3 ties p0 exactly (equal points never dominate each other);
        // p4 is dominated by p1 only.
        let pts = vec![
            vec![1.0, 5.0],
            vec![5.0, 1.0],
            vec![2.0, 6.0],
            vec![1.0, 5.0],
            vec![6.0, 1.0],
        ];
        assert_eq!(
            dominators(&pts),
            vec![None, None, Some(0), None, Some(1)]
        );
        // Single point and empty input are trivially non-dominated.
        assert_eq!(dominators(&[vec![3.0, 3.0]]), vec![None]);
        assert_eq!(dominators(&[]), Vec::<Option<usize>>::new());
        // One objective degenerates to the minimum; the annotation picks
        // the first dominator in index order (2.0 already beats 3.0).
        assert_eq!(
            dominators(&[vec![2.0], vec![1.0], vec![3.0]]),
            vec![Some(1), None, Some(0)]
        );
    }

    #[test]
    #[should_panic(expected = "same objectives")]
    fn pareto_rejects_ragged_input() {
        dominators(&[vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    fn sweep_runs_and_annotates_a_frontier() {
        let spec = SweepSpec {
            specs: vec!["luby".into(), "na".into(), "le?bits=5..7&step=2".into()],
            families: vec![GraphFamily::Er],
            sizes: vec![48],
            seeds: vec![1, 2],
            threads: 1,
            energy: EnergyModel::default(),
        };
        let result = run_sweep(&spec).unwrap();
        assert_eq!(result.groups.len(), 3);
        assert_eq!(result.groups[2].runners.len(), 2);
        assert_eq!(result.points.len(), 4 * 2);
        assert_eq!(result.cells.len(), 1);
        let cell = &result.cells[0];
        assert_eq!(cell.entries.len(), 4);
        assert!(cell.entries.iter().all(|e| e.stats.all_correct), "all entries must verify");
        // Every entry is either on the frontier or annotated with a
        // dominator that is itself on the frontier... or at least
        // present in the cell.
        let keys: Vec<&str> = cell.entries.iter().map(|e| e.stats.algorithm.key()).collect();
        for e in &cell.entries {
            match (&e.pareto, &e.dominated_by) {
                (true, None) => {}
                (false, Some(d)) => assert!(keys.contains(&d.as_str()), "dangling dominator {d}"),
                other => panic!("entry {} in impossible state {other:?}", e.stats.algorithm.key()),
            }
        }
        assert!(!cell.frontier().is_empty(), "a non-empty cell has a frontier");
        // Energy is priced on every point.
        for p in &result.points {
            assert!(p.energy_max_mj > 0.0);
            assert!(p.energy_mean_mj > 0.0);
            assert!(p.energy_mean_mj <= p.energy_max_mj + 1e-12);
        }
    }

    #[test]
    fn sweep_payload_shape() {
        let spec = SweepSpec {
            specs: vec!["luby".into(), "gp-avg?balance=0..2&step=2".into()],
            families: vec![GraphFamily::Cycle],
            sizes: vec![24],
            seeds: vec![1],
            threads: 1,
            energy: EnergyModel::default(),
        };
        let result = run_sweep(&spec).unwrap();
        let payload = result.payload_json();
        assert!(payload.contains("\"schema\": \"awake-mis/bench-sweep/v1\""));
        assert!(payload.contains("\"specs\": [\"luby\", \"gp-avg?balance=0..2&step=2\"]"));
        assert!(payload.contains("\"expanded\": [[\"luby\"], [\"gp-avg?balance=0\", \"gp-avg?balance=2\"]]"));
        assert!(payload.contains("\"frontier\":["));
        assert!(payload.contains("\"energy_max_mj\""));
        assert!(!payload.contains("wall_ms"));
        assert!(!payload.contains("elapsed_ns"));
        assert_eq!(payload.matches('{').count(), payload.matches('}').count());
        assert_eq!(payload.matches('[').count(), payload.matches(']').count());
        // The full document strips back to the payload.
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
    fn duplicate_points_across_specs_are_rejected() {
        let spec = SweepSpec {
            specs: vec!["luby".into(), "luby".into()],
            families: vec![GraphFamily::Er],
            sizes: vec![16],
            seeds: vec![1],
            threads: 1,
            energy: EnergyModel::default(),
        };
        assert!(matches!(run_sweep(&spec), Err(SpecError::DuplicateKey { .. })));
    }
}
