//! Renderers for the trend model: CSV, ASCII sparklines, gnuplot.
//!
//! All three consume the same [`TrendSeries`] rows, so the shapes
//! agree by construction:
//!
//! * [`trend_csv`] — long-format CSV, one row per `(series, sample)`,
//!   header `artifact,cell,measure,seq,rev,date,value`. Cell
//!   components are joined with `/`; none of them can contain a comma
//!   (family keys use `?`/`&`/`=`, algorithm keys likewise).
//! * [`ascii_report`] — a terminal table per artifact with a unicode
//!   sparkline (`▁▂▃▄▅▆▇█`, scaled to the series' own min..max) plus
//!   baseline, latest, delta-vs-previous, cumulative drift, and
//!   per-revision slope.
//! * [`gnuplot_report`] — per artifact, a `trend_<short>.dat` with one
//!   `index` block per headline series and a `trend.gp` that plots
//!   them with `linespoints`, x-tics labelled by short commit hash.

use crate::trend::TrendSeries;
use analysis::Table;

/// Sparkline glyph ramp, lowest to highest.
const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders a series' values as a unicode sparkline scaled to its own
/// min..max. A flat series renders as a run of the mid glyph; a single
/// sample as `·` (no trend to draw).
pub fn sparkline(values: &[f64]) -> String {
    if values.len() < 2 {
        return "·".to_string();
    }
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = max - min;
    values
        .iter()
        .map(|&v| {
            if span <= 0.0 {
                SPARK[3]
            } else {
                let idx = ((v - min) / span * (SPARK.len() - 1) as f64).round() as usize;
                SPARK[idx.min(SPARK.len() - 1)]
            }
        })
        .collect()
}

/// Long-format CSV over every series:
/// `artifact,cell,measure,seq,rev,date,value`.
pub fn trend_csv(series: &[TrendSeries]) -> String {
    let mut out = String::from("artifact,cell,measure,seq,rev,date,value\n");
    for s in series {
        let cell = s.cell.join("/");
        for smp in &s.samples {
            out.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                s.artifact, cell, s.measure, smp.seq, smp.rev, smp.date, smp.value
            ));
        }
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e9 {
        format!("{v}")
    } else {
        format!("{v:.4}")
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or("-".to_string(), |d| format!("{d:+.3}"))
}

/// The terminal trend table for one artifact's series: identity,
/// sparkline, baseline → latest, last step, cumulative drift in the
/// gate's unit, and the least-squares slope per revision.
pub fn ascii_report(artifact: &str, series: &[TrendSeries]) -> String {
    let rows: Vec<&TrendSeries> = series.iter().filter(|s| s.artifact == artifact).collect();
    if rows.is_empty() {
        return String::new();
    }
    let revs = rows.iter().map(|s| s.samples.len()).max().unwrap_or(0);
    let mut table = Table::new(vec![
        "cell", "measure", "trend", "baseline", "latest", "Δprev", "drift", "slope/rev",
    ]);
    for s in &rows {
        let values: Vec<f64> = s.samples.iter().map(|p| p.value).collect();
        let drift = match s.drift() {
            Some((d, unit)) => format!("{d:+.2}{unit}"),
            None if values.len() < 2 => "no trend".to_string(),
            // Growth off a zero baseline has no percentage.
            None => "-".to_string(),
        };
        table.row(vec![
            s.cell.join("/"),
            s.measure.to_string(),
            sparkline(&values),
            fmt_value(s.baseline()),
            fmt_value(s.latest()),
            fmt_opt(s.delta_prev()),
            drift,
            fmt_opt(s.slope()),
        ]);
    }
    format!(
        "== {artifact}: {} series over {} revision{} ==\n{}",
        rows.len(),
        revs,
        if revs == 1 { "" } else { "s" },
        table.render()
    )
}

/// The headline measure plotted per artifact — the one axis each
/// surface exists to pin down.
pub fn headline_measure(artifact: &str) -> &'static str {
    match artifact {
        "grid" => "awake_max",
        "sweep" => "energy_max_mj",
        "faults" => "failure_rate",
        "churn" => "woken_ratio",
        _ => "awake_max",
    }
}

/// One artifact's gnuplot data file plus its plotting stanza. The
/// `.dat` carries one double-blank-separated `index` block per series
/// (headline measure only); the stanza plots every block with
/// `linespoints`, titled by cell key, x labelled by short commit hash.
pub struct GnuplotArtifact {
    /// Suggested filename, `trend_<short>.dat`.
    pub dat_name: String,
    /// The data file body.
    pub dat: String,
    /// The `plot …` stanza to include in the script.
    pub stanza: String,
}

/// Builds the per-artifact gnuplot data + stanza; `None` when the
/// artifact has no series for its headline measure.
pub fn gnuplot_artifact(artifact: &str, series: &[TrendSeries]) -> Option<GnuplotArtifact> {
    let measure = headline_measure(artifact);
    let picked: Vec<&TrendSeries> = series
        .iter()
        .filter(|s| s.artifact == artifact && s.measure == measure)
        .collect();
    if picked.is_empty() {
        return None;
    }
    let dat_name = format!("trend_{artifact}.dat");
    let mut dat = String::new();
    let mut plots = Vec::new();
    let mut xtics = Vec::new();
    for (i, s) in picked.iter().enumerate() {
        dat.push_str(&format!("# {} {}\n", s.cell.join("/"), s.measure));
        for smp in &s.samples {
            dat.push_str(&format!("{} {}\n", smp.seq, smp.value));
            let tic = format!("'{}' {}", smp.rev, smp.seq);
            if !xtics.contains(&tic) {
                xtics.push(tic);
            }
        }
        dat.push_str("\n\n");
        plots.push(format!(
            "  '{dat_name}' index {i} using 1:2 with linespoints title '{}'",
            s.cell.join("/").replace('\'', "")
        ));
    }
    let stanza = format!(
        "set title '{artifact}: {measure} by revision'\n\
         set xtics ({})\n\
         plot \\\n{}\n",
        xtics.join(", "),
        plots.join(", \\\n")
    );
    Some(GnuplotArtifact { dat_name, dat, stanza })
}

/// The full gnuplot report: `(script, [(dat filename, dat body)])`.
/// The script is self-contained next to its data files:
/// `gnuplot trend.gp` renders one PNG page per artifact.
pub fn gnuplot_report(series: &[TrendSeries]) -> (String, Vec<(String, String)>) {
    let mut script = String::from(
        "# Generated by bench-report. Run with: gnuplot trend.gp\n\
         set terminal pngcairo size 1100,640\n\
         set xlabel 'revision'\n\
         set key outside right\n\
         set grid\n\n",
    );
    let mut dats = Vec::new();
    let mut artifacts: Vec<&str> = Vec::new();
    for s in series {
        if !artifacts.contains(&s.artifact.as_str()) {
            artifacts.push(&s.artifact);
        }
    }
    for artifact in artifacts {
        if let Some(g) = gnuplot_artifact(artifact, series) {
            script.push_str(&format!("set output 'trend_{artifact}.png'\n"));
            script.push_str(&g.stanza);
            script.push('\n');
            dats.push((g.dat_name, g.dat));
        }
    }
    (script, dats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::Gate;
    use crate::trend::{TrendSample, TrendSeries};

    fn series(artifact: &str, measure: &'static str, values: &[f64]) -> TrendSeries {
        TrendSeries {
            artifact: artifact.to_string(),
            cell: vec!["luby".into(), "er".into(), "1024".into()],
            measure,
            gate: Gate::Relative,
            samples: values
                .iter()
                .enumerate()
                .map(|(i, &v)| TrendSample {
                    seq: i,
                    rev: format!("abc{i:04}"),
                    date: "2026-08-08".to_string(),
                    value: v,
                })
                .collect(),
        }
    }

    #[test]
    fn sparklines_scale_to_the_series_range() {
        assert_eq!(sparkline(&[1.0, 8.0]), "▁█");
        assert_eq!(sparkline(&[5.0, 5.0, 5.0]), "▄▄▄", "flat series uses the mid glyph");
        assert_eq!(sparkline(&[3.0]), "·", "single sample has no trend to draw");
        let ramp = sparkline(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(ramp, "▁▂▃▄▅▆▇█");
    }

    #[test]
    fn csv_is_long_format_with_one_row_per_sample() {
        let csv = trend_csv(&[series("grid", "awake_max", &[8.0, 9.0])]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "artifact,cell,measure,seq,rev,date,value");
        assert_eq!(lines[1], "grid,luby/er/1024,awake_max,0,abc0000,2026-08-08,8");
        assert_eq!(lines[2], "grid,luby/er/1024,awake_max,1,abc0001,2026-08-08,9");
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn ascii_report_renders_one_table_per_artifact() {
        let all = [
            series("grid", "awake_max", &[8.0, 9.0, 10.0]),
            series("churn", "woken_ratio", &[0.5]),
        ];
        let grid = ascii_report("grid", &all);
        assert!(grid.contains("== grid: 1 series over 3 revisions =="), "{grid}");
        assert!(grid.contains("luby/er/1024"));
        assert!(grid.contains("▁▅█"), "sparkline present: {grid}");
        assert!(grid.contains("+25.00%"), "cumulative drift 8→10: {grid}");
        let churn = ascii_report("churn", &all);
        assert!(churn.contains("over 1 revision ==") && churn.contains("no trend"), "{churn}");
        assert!(!churn.contains("awake_max"), "filtered by artifact");
        assert_eq!(ascii_report("faults", &all), "", "no series, no table");
    }

    #[test]
    fn gnuplot_report_emits_indexed_blocks_and_hash_xtics() {
        let all = [
            series("grid", "awake_max", &[8.0, 9.0]),
            series("grid", "rounds", &[10.0, 10.0]),
        ];
        let (script, dats) = gnuplot_report(&all);
        assert_eq!(dats.len(), 1);
        assert_eq!(dats[0].0, "trend_grid.dat");
        assert!(dats[0].1.contains("0 8\n1 9\n"), "{}", dats[0].1);
        assert!(script.contains("set output 'trend_grid.png'"));
        assert!(script.contains("index 0 using 1:2 with linespoints"));
        assert!(script.contains("'abc0000' 0"), "xtics by short hash: {script}");
        assert!(!script.contains("rounds"), "only the headline measure is plotted");
    }
}
