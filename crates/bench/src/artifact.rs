//! One reader for every committed benchmark artifact schema.
//!
//! The repo pins four regression-gated artifacts — `BENCH_grid.json`
//! (schema `awake-mis/bench-grid/v1`–`v3`), `BENCH_sweep.json`
//! (`bench-sweep/v1`), `BENCH_faults.json` (`bench-faults/v1`) and
//! `BENCH_churn.json` (`bench-churn/v1`). `bench-diff` gates two
//! revisions of one artifact; `bench-report` trends *every* committed
//! revision. Both read documents through this module, so there is
//! exactly one place that knows how to sniff a schema, group points
//! into cells, and aggregate a cell into its measures.
//!
//! [`Artifact::series_cells`] flattens any kind into
//! `(cell key, measure name, value, gate)` rows, the unit both tools
//! sample once per revision. Its per-kind arms are the one gate table:
//! which measures each kind has and how growth of each is judged.
//!
//! Every kind's schema id, file name and cell key fields come from the
//! `analysis` result type that writes it ([`analysis::Document`]), by
//! way of the one kind table, so the writer and both readers cannot
//! drift apart.

use crate::json::{self, Value};
use analysis::{ChurnResult, Document, FaultResult, GridResult, SweepResult};

/// The deterministic payload sections — everything except `meta` and
/// `timing`, which carry machine-dependent wall-clock data. This is
/// what `bench-diff --exact` compares.
pub const PAYLOAD_SECTIONS: [&str; 3] = ["spec", "cells", "points"];

/// The kind of benchmark document, by schema id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// The worst-case/node-averaged awake grid.
    Grid,
    /// The energy/awake Pareto frontier.
    Sweep,
    /// The robustness surface.
    Faults,
    /// The dynamic-graph locality surface.
    Churn,
}

/// One row of the kind table: what the readers know of a kind.
struct KindRow {
    kind: ArtifactKind,
    short: &'static str,
    schema: &'static str,
    path: &'static str,
    key_fields: &'static [&'static str],
}

/// `kind`'s row, read from `D`, the `analysis` type that writes it.
const fn row<D: Document>(kind: ArtifactKind, short: &'static str) -> KindRow {
    KindRow { kind, short, schema: D::SCHEMA, path: D::FILE, key_fields: D::KEY_FIELDS }
}

/// The kind table, one row per kind in declaration order (the order
/// the committed artifacts are reported in).
const KINDS: [KindRow; 4] = [
    row::<GridResult>(ArtifactKind::Grid, "grid"),
    row::<SweepResult>(ArtifactKind::Sweep, "sweep"),
    row::<FaultResult>(ArtifactKind::Faults, "faults"),
    row::<ChurnResult>(ArtifactKind::Churn, "churn"),
];

/// Older grid schema ids, still read as [`ArtifactKind::Grid`]: v1
/// predates `awake_dist`, v2 the fault counters.
const GRID_ALIASES: [&str; 2] = ["awake-mis/bench-grid/v2", "awake-mis/bench-grid/v1"];

impl ArtifactKind {
    /// Every kind, in the order the committed artifacts are reported.
    pub fn all() -> [ArtifactKind; 4] {
        KINDS.map(|r| r.kind)
    }

    fn row(self) -> &'static KindRow {
        &KINDS[self as usize]
    }

    /// Maps a schema id to its kind; `None` for foreign documents.
    pub fn from_schema(schema: &str) -> Option<ArtifactKind> {
        if GRID_ALIASES.contains(&schema) {
            return Some(ArtifactKind::Grid);
        }
        KINDS.iter().find(|r| r.schema == schema).map(|r| r.kind)
    }

    /// Short display name (`grid`, `sweep`, `faults`, `churn`).
    pub fn short(self) -> &'static str {
        self.row().short
    }

    /// The committed artifact path at the repository root.
    pub fn default_path(self) -> &'static str {
        self.row().path
    }

    /// The payload fields identifying one cell of this kind. For sweeps
    /// this is the cell identity; entries within a sweep cell are
    /// additionally keyed by their `algorithm` spec point.
    pub fn key_fields(self) -> &'static [&'static str] {
        self.row().key_fields
    }
}

/// A parsed benchmark document with its sniffed kind.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Which schema family the document belongs to.
    pub kind: ArtifactKind,
    /// The parsed JSON document.
    pub doc: Value,
}

impl Artifact {
    /// Parses a document from text, sniffing the schema. The `origin`
    /// string names the source in error messages (a path, a git rev).
    pub fn parse(text: &str, origin: &str) -> Result<Artifact, String> {
        let doc = json::parse(text).map_err(|e| format!("parsing {origin}: {e}"))?;
        let kind = doc
            .get("schema")
            .and_then(Value::as_str)
            .and_then(ArtifactKind::from_schema)
            .ok_or_else(|| {
                let known: Vec<&str> = KINDS.iter().map(|r| r.schema).chain(GRID_ALIASES).collect();
                format!("{origin}: not an {} document", known.join(", "))
            })?;
        Ok(Artifact { kind, doc })
    }

    /// Reads and parses a document from disk.
    pub fn load(path: &str) -> Result<Artifact, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        Artifact::parse(&text, path)
    }

    /// The document's `points` array (empty for documents without one).
    pub fn points(&self) -> &[Value] {
        arr(&self.doc, "points")
    }

    /// Groups `points` into cells by this kind's key fields, in
    /// first-seen (payload) order. Meaningful for the point-indexed
    /// kinds (grid, faults, churn); a sweep compares its per-cell
    /// entries instead.
    fn point_cells(&self) -> Vec<(Vec<String>, Vec<&Value>)> {
        json::index_by(self.points(), self.kind.key_fields())
    }

    /// Every cell flattened to its measures: means over points for the
    /// point-indexed kinds, entry summary means for sweeps. A correct
    /// cell must stay correct, so grid and churn failure rates and a
    /// sweep entry's `broken` flag are zero-anchored; fault cells
    /// legitimately fail, so only their rate's growth in percentage
    /// points gates. A sweep entry's 0/1 `dominated` flag pins the
    /// Pareto frontier.
    pub fn series_cells(&self) -> Vec<CellSeries> {
        match self.kind {
            ArtifactKind::Grid => self
                .point_cells()
                .into_iter()
                .map(|(key, pts)| {
                    let mut measures = vec![
                        Measure::new("awake_max", Gate::Relative, mean(&pts, "awake_max")),
                        Measure::new("awake_avg", Gate::Relative, mean(&pts, "awake_avg")),
                    ];
                    // Legacy v1 documents predate `awake_dist`.
                    if let Some(p95) = mean_dist(&pts, "p95") {
                        measures.push(Measure::new("awake_p95", Gate::Relative, p95));
                    }
                    measures.push(Measure::new(
                        "max_message_bits",
                        Gate::Bits,
                        max(&pts, "max_message_bits"),
                    ));
                    measures.push(Measure::new(
                        "failure_rate",
                        Gate::RelativeZero,
                        failure_rate(&pts),
                    ));
                    measures.push(Measure::new("rounds", Gate::Info, mean(&pts, "rounds")));
                    CellSeries { cell: key, measures }
                })
                .collect(),
            ArtifactKind::Faults => self
                .point_cells()
                .into_iter()
                .map(|(key, pts)| CellSeries {
                    cell: key,
                    measures: vec![
                        Measure::new("failure_rate", Gate::Pp, failure_rate(&pts)),
                        Measure::new("awake_max", Gate::Relative, mean(&pts, "awake_max")),
                        Measure::new("awake_avg", Gate::Info, mean(&pts, "awake_avg")),
                        Measure::new("crashed", Gate::Info, mean(&pts, "crashed")),
                        Measure::new("faulted", Gate::Info, mean(&pts, "faulted")),
                    ],
                })
                .collect(),
            ArtifactKind::Churn => self
                .point_cells()
                .into_iter()
                .map(|(key, pts)| CellSeries {
                    cell: key,
                    measures: vec![
                        Measure::new(
                            "woken_ratio",
                            Gate::RelativeZero,
                            mean(&pts, "woken_ratio"),
                        ),
                        Measure::new(
                            "awake_per_delta",
                            Gate::Relative,
                            mean(&pts, "awake_per_delta"),
                        ),
                        Measure::new("failure_rate", Gate::RelativeZero, failure_rate(&pts)),
                    ],
                })
                .collect(),
            ArtifactKind::Sweep => {
                let flag = |b: bool| if b { 1.0 } else { 0.0 };
                let mut out = Vec::new();
                for cell in arr(&self.doc, "cells") {
                    let family = cell.get("family").and_then(Value::as_str).unwrap_or("?");
                    let n = cell.get("n").and_then(Value::as_f64);
                    let n = n.map_or("?".to_string(), |n| n.to_string());
                    let frontier = arr(cell, "frontier");
                    for entry in arr(cell, "entries") {
                        let Some(algo) = entry.get("algorithm").and_then(Value::as_str) else {
                            continue;
                        };
                        let mut measures = Vec::new();
                        for name in ["awake_max", "awake_avg", "energy_max_mj"] {
                            if let Some(v) = entry_mean(entry, name) {
                                measures.push(Measure::new(name, Gate::Relative, v));
                            }
                        }
                        measures.push(Measure::new(
                            "max_message_bits",
                            Gate::Bits,
                            entry.get("max_message_bits").and_then(Value::as_f64).unwrap_or(0.0),
                        ));
                        measures.push(Measure::new(
                            "broken",
                            Gate::RelativeZero,
                            flag(entry.get("all_correct").and_then(Value::as_bool) != Some(true)),
                        ));
                        measures.push(Measure::new(
                            "dominated",
                            Gate::RelativeZero,
                            flag(!frontier.iter().any(|k| k.as_str() == Some(algo))),
                        ));
                        out.push(CellSeries {
                            cell: vec![family.to_string(), n.clone(), algo.to_string()],
                            measures,
                        });
                    }
                }
                out
            }
        }
    }
}

/// How a measure's growth from its baseline is judged — by `bench-diff`
/// across one PR and by the `bench-report` drift gate across the whole
/// committed history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Relative growth in percent beyond the threshold regresses (only
    /// from a strictly positive baseline).
    Relative,
    /// [`Gate::Relative`], plus "zero stays zero": any growth from a
    /// zero baseline regresses regardless of threshold (waking anyone on
    /// a delta-free stream, or one failing seed in a correct cell, is a
    /// bug, not drift).
    RelativeZero,
    /// Absolute growth in percentage points beyond the threshold
    /// regresses (failure rates; values are fractions in `[0, 1]`).
    Pp,
    /// Absolute growth beyond the bits slack regresses (CONGEST
    /// message width).
    Bits,
    /// Observational only — reported and plotted, never gated.
    Info,
}

/// One aggregated measure of one cell.
#[derive(Debug, Clone)]
pub struct Measure {
    /// Measure name, as spelled in reports (`awake_max`, …).
    pub name: &'static str,
    /// How growth of this measure is gated.
    pub gate: Gate,
    /// The aggregated value.
    pub value: f64,
}

impl Measure {
    fn new(name: &'static str, gate: Gate, value: f64) -> Measure {
        Measure { name, gate, value }
    }
}

/// One cell flattened for trending: its textual key plus every measure.
#[derive(Debug, Clone)]
pub struct CellSeries {
    /// The cell's identity components (key fields, in order; sweep
    /// rows append the entry's spec-point key).
    pub cell: Vec<String>,
    /// The cell's measures, gated and observational alike.
    pub measures: Vec<Measure>,
}

/// The array at `field` of `v`; empty when absent.
fn arr<'a>(v: &'a Value, field: &str) -> &'a [Value] {
    v.get(field).and_then(Value::as_arr).unwrap_or(&[])
}

/// Mean of a numeric field over a cell's points.
fn mean(points: &[&Value], field: &str) -> f64 {
    let sum: f64 = points.iter().filter_map(|p| p.get(field).and_then(Value::as_f64)).sum();
    sum / points.len().max(1) as f64
}

/// Mean of a field nested in each point's `awake_dist` object; `None`
/// when no point carries it (a legacy v1 grid document).
fn mean_dist(points: &[&Value], field: &str) -> Option<f64> {
    let values: Vec<f64> = points
        .iter()
        .filter_map(|p| p.get("awake_dist").and_then(|d| d.get(field)).and_then(Value::as_f64))
        .collect();
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Max of a numeric field over a cell's points.
fn max(points: &[&Value], field: &str) -> f64 {
    points
        .iter()
        .filter_map(|p| p.get(field).and_then(Value::as_f64))
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Fraction of a cell's points that did not verify correct.
fn failure_rate(points: &[&Value]) -> f64 {
    let bad = points
        .iter()
        .filter(|p| {
            p.get("correct").and_then(Value::as_bool) != Some(true)
                || p.get("sim_error").is_some()
        })
        .count();
    bad as f64 / points.len().max(1) as f64
}

/// Mean of a summary field (`{"mean": …}`) on a sweep-cell entry.
fn entry_mean(entry: &Value, field: &str) -> Option<f64> {
    entry.get(field).and_then(|s| s.get("mean")).and_then(Value::as_f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_doc(awake: f64) -> String {
        format!(
            "{{\"schema\":\"awake-mis/bench-grid/v3\",\"spec\":{{}},\"cells\":[],\
             \"points\":[{{\"algorithm\":\"luby\",\"family\":\"er\",\"n\":64,\"seed\":1,\
             \"rounds\":10,\"awake_max\":{awake},\"awake_avg\":3.5,\"max_message_bits\":21,\
             \"correct\":true,\"failures\":0,\
             \"awake_dist\":{{\"p95\":{awake},\"gini\":0.1}}}}]}}"
        )
    }

    const SWEEP_DOC: &str = r#"{"schema":"awake-mis/bench-sweep/v1","spec":{},
        "cells":[{"family":"er","n":64,"frontier":["luby"],"entries":[
            {"algorithm":"luby","group":0,"runs":2,
             "awake_max":{"mean":9.0},"awake_avg":{"mean":4.0},
             "energy_max_mj":{"mean":1.5},"max_message_bits":21,
             "all_correct":true,"pareto":true},
            {"algorithm":"le?bits=6","group":1,"runs":2,
             "awake_max":{"mean":12.0},"awake_avg":{"mean":6.0},
             "energy_max_mj":{"mean":2.5},"max_message_bits":21,
             "all_correct":true,"pareto":false,"dominated_by":"luby"}]}],
        "points":[]}"#;

    #[test]
    fn schema_sniffing_covers_all_kinds_and_rejects_foreigners() {
        for (schema, kind) in [
            ("awake-mis/bench-grid/v1", ArtifactKind::Grid),
            ("awake-mis/bench-grid/v2", ArtifactKind::Grid),
            ("awake-mis/bench-grid/v3", ArtifactKind::Grid),
            ("awake-mis/bench-sweep/v1", ArtifactKind::Sweep),
            ("awake-mis/bench-faults/v1", ArtifactKind::Faults),
            ("awake-mis/bench-churn/v1", ArtifactKind::Churn),
        ] {
            assert_eq!(ArtifactKind::from_schema(schema), Some(kind), "{schema}");
            let doc = format!("{{\"schema\":\"{schema}\",\"points\":[]}}");
            assert_eq!(Artifact::parse(&doc, "t").unwrap().kind, kind);
        }
        assert_eq!(ArtifactKind::from_schema("awake-mis/bench-grid/v99"), None);
        let err = Artifact::parse("{\"schema\":\"other/thing\"}", "t").unwrap_err();
        assert!(err.contains("not an awake-mis"), "{err}");
        assert!(Artifact::parse("not json", "t").is_err());
    }

    #[test]
    fn key_fields_come_from_the_analysis_writers() {
        assert_eq!(ArtifactKind::Grid.key_fields(), ["algorithm", "family", "n"]);
        assert_eq!(ArtifactKind::Faults.key_fields(), ["algorithm", "family", "n"]);
        assert_eq!(ArtifactKind::Churn.key_fields(), ["algorithm", "family", "n", "rate"]);
        assert_eq!(ArtifactKind::Sweep.key_fields(), ["family", "n"]);
    }

    #[test]
    fn grid_series_aggregates_points_per_cell() {
        let a = Artifact::parse(&grid_doc(8.0), "t").unwrap();
        let series = a.series_cells();
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].cell, ["luby", "er", "64"]);
        let get = |name: &str| {
            series[0].measures.iter().find(|m| m.name == name).map(|m| (m.gate, m.value))
        };
        assert_eq!(get("awake_max"), Some((Gate::Relative, 8.0)));
        assert_eq!(get("awake_avg"), Some((Gate::Relative, 3.5)));
        assert_eq!(get("awake_p95"), Some((Gate::Relative, 8.0)));
        assert_eq!(get("max_message_bits"), Some((Gate::Bits, 21.0)));
        assert_eq!(get("failure_rate"), Some((Gate::RelativeZero, 0.0)));
        assert_eq!(get("rounds"), Some((Gate::Info, 10.0)));
    }

    #[test]
    fn legacy_grid_documents_skip_the_p95_measure() {
        let doc = grid_doc(8.0)
            .replace("awake-mis/bench-grid/v3", "awake-mis/bench-grid/v1")
            .replace(",\"awake_dist\":{\"p95\":8,\"gini\":0.1}", "");
        let a = Artifact::parse(&doc, "t").unwrap();
        let series = a.series_cells();
        assert!(series[0].measures.iter().all(|m| m.name != "awake_p95"));
        assert!(series[0].measures.iter().any(|m| m.name == "awake_max"));
    }

    #[test]
    fn sweep_series_flattens_entries_with_frontier_membership() {
        let a = Artifact::parse(SWEEP_DOC, "t").unwrap();
        let series = a.series_cells();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].cell, ["er", "64", "luby"]);
        assert_eq!(series[1].cell, ["er", "64", "le?bits=6"]);
        let dominated = |s: &CellSeries| {
            let m = s.measures.iter().find(|m| m.name == "dominated").unwrap();
            (m.gate, m.value)
        };
        assert_eq!(dominated(&series[0]), (Gate::RelativeZero, 0.0));
        assert_eq!(dominated(&series[1]), (Gate::RelativeZero, 1.0));
        let energy = series[0].measures.iter().find(|m| m.name == "energy_max_mj").unwrap();
        assert_eq!((energy.gate, energy.value), (Gate::Relative, 1.5));
    }

    #[test]
    fn churn_series_uses_the_zero_anchored_gate() {
        let doc = r#"{"schema":"awake-mis/bench-churn/v1","spec":{},"cells":[],
            "points":[{"algorithm":"luby","family":"er","n":64,"rate":0,"seed":1,
                       "woken_ratio":0.0,"awake_per_delta":0.0,"correct":true}]}"#;
        let a = Artifact::parse(doc, "t").unwrap();
        let series = a.series_cells();
        assert_eq!(series[0].cell, ["luby", "er", "64", "0"]);
        let woken = series[0].measures.iter().find(|m| m.name == "woken_ratio").unwrap();
        assert_eq!(woken.gate, Gate::RelativeZero);
    }

    #[test]
    fn fault_series_leads_with_the_failure_rate_in_pp() {
        let doc = r#"{"schema":"awake-mis/bench-faults/v1","spec":{},"cells":[],
            "points":[
              {"algorithm":"luby?loss=0.05","family":"er","n":64,"seed":1,
               "awake_max":9,"awake_avg":4.5,"correct":true,"crashed":0,"faulted":3},
              {"algorithm":"luby?loss=0.05","family":"er","n":64,"seed":2,
               "awake_max":9,"awake_avg":4.5,"correct":false,"crashed":0,"faulted":3}]}"#;
        let a = Artifact::parse(doc, "t").unwrap();
        let series = a.series_cells();
        assert_eq!(series.len(), 1);
        let rate = series[0].measures.iter().find(|m| m.name == "failure_rate").unwrap();
        assert_eq!((rate.gate, rate.value), (Gate::Pp, 0.5));
    }
}
