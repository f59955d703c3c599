//! The unified trend model and the gate both bench tools share.
//!
//! A [`TrendSeries`] is one `(artifact, cell key, measure)` line through
//! history: one sample per revision (short hash, author date, value),
//! built by replaying [`crate::artifact::Artifact::series_cells`] over
//! a [`crate::history::ArtifactHistory`]. On top of the raw samples,
//! each series reports
//!
//! * **delta vs previous** — the last inter-revision step;
//! * **cumulative drift vs baseline** — latest against the *first*
//!   sample, in the measure's gate unit (`%`, `pp`, or absolute);
//! * **least-squares slope per revision** — [`analysis::fit_linear`]
//!   over `(revision index, value)`, `None` below two samples.
//!
//! [`TrendSeries::gate_violation`] judges that drift under the
//! measure's [`Gate`]. `bench-report --gate` ([`gate_drift`]) applies
//! it across every committed revision, and `bench-diff` applies it to
//! a two-sample history of OLD and NEW, so the two tools agree about
//! what a regression means and differ only in span. The long span
//! closes the hole per-PR gating leaves open: a measure that creeps +2%
//! per PR passes every `bench-diff` at the default 5% threshold, yet
//! after five PRs sits +10% over the committed baseline.

use crate::artifact::Gate;
use crate::history::ArtifactHistory;
use analysis::fit_linear;

/// One revision's value of one series.
#[derive(Debug, Clone)]
pub struct TrendSample {
    /// Index of the revision in the artifact's history (0 = oldest).
    /// Series born later start at their first covering revision, so
    /// gaps stay visible.
    pub seq: usize,
    /// Abbreviated commit hash.
    pub rev: String,
    /// Author date, `YYYY-MM-DD`.
    pub date: String,
    /// The measure's aggregated value at that revision.
    pub value: f64,
}

/// One `(artifact, cell key, measure)` line through committed history.
#[derive(Debug, Clone)]
pub struct TrendSeries {
    /// Artifact short name (`grid`, `sweep`, `faults`, `churn`).
    pub artifact: String,
    /// Cell identity components (key fields in payload order).
    pub cell: Vec<String>,
    /// Measure name.
    pub measure: &'static str,
    /// The measure's gate semantics.
    pub gate: Gate,
    /// Samples, oldest revision first.
    pub samples: Vec<TrendSample>,
}

impl TrendSeries {
    /// Human-readable identity: `grid luby/er/1024 awake_max`.
    pub fn label(&self) -> String {
        format!("{} {} {}", self.artifact, self.cell.join("/"), self.measure)
    }

    /// The first committed value — the drift baseline.
    pub fn baseline(&self) -> f64 {
        self.samples.first().map_or(0.0, |s| s.value)
    }

    /// The newest committed value.
    pub fn latest(&self) -> f64 {
        self.samples.last().map_or(0.0, |s| s.value)
    }

    /// The last inter-revision step (`latest − previous`); `None` for a
    /// one-sample series.
    pub fn delta_prev(&self) -> Option<f64> {
        let n = self.samples.len();
        (n >= 2).then(|| self.samples[n - 1].value - self.samples[n - 2].value)
    }

    /// Cumulative drift of `latest` from `baseline` in the gate's
    /// native unit: `(value, unit)` with unit `"%"`, `"pp"`, or `""`
    /// (absolute). `None` for one-sample series ("no trend") and for
    /// relative gates that moved off a non-positive baseline, where a
    /// percentage is undefined — the zero-anchored rule still fires in
    /// [`TrendSeries::gate_violation`].
    pub fn drift(&self) -> Option<(f64, &'static str)> {
        if self.samples.len() < 2 {
            return None;
        }
        let (b, l) = (self.baseline(), self.latest());
        match self.gate {
            Gate::Relative | Gate::RelativeZero if b > 0.0 => Some((100.0 * (l - b) / b, "%")),
            Gate::Relative | Gate::RelativeZero => (l == b).then_some((0.0, "%")),
            Gate::Pp => Some((100.0 * (l - b), "pp")),
            Gate::Bits | Gate::Info => Some((l - b, "")),
        }
    }

    /// Least-squares slope in measure units per revision; `None` below
    /// two samples (a shallow clone's "no trend").
    pub fn slope(&self) -> Option<f64> {
        if self.samples.len() < 2 {
            return None;
        }
        let xs: Vec<f64> = self.samples.iter().map(|s| s.seq as f64).collect();
        let ys: Vec<f64> = self.samples.iter().map(|s| s.value).collect();
        Some(fit_linear(&xs, &ys).a)
    }

    /// Judges the drift of `latest` from `baseline` under the series'
    /// gate. `Some(detail)` when the series violates the gate at
    /// `threshold_pct` (percent for relative gates, percentage points
    /// for rate gates) and `bits_slack` (absolute, for CONGEST width).
    /// One-sample series and [`Gate::Info`] measures never violate.
    pub fn gate_violation(&self, threshold_pct: f64, bits_slack: f64) -> Option<String> {
        if self.samples.len() < 2 {
            return None;
        }
        let (b, l) = (self.baseline(), self.latest());
        match self.gate {
            Gate::Relative | Gate::RelativeZero => {
                if b > 0.0 && 100.0 * (l - b) / b > threshold_pct {
                    return Some(format!(
                        "drifted {:+.1}% from baseline {b:.4} to {l:.4} (threshold {threshold_pct}%)",
                        100.0 * (l - b) / b
                    ));
                }
                if self.gate == Gate::RelativeZero && b == 0.0 && l > 0.0 {
                    return Some(format!("grew from a zero baseline to {l:.4}"));
                }
                None
            }
            Gate::Pp => {
                let pp = 100.0 * (l - b);
                (pp > threshold_pct).then(|| {
                    format!(
                        "rate drifted {pp:+.1}pp from {b:.3} to {l:.3} (threshold {threshold_pct}pp)"
                    )
                })
            }
            Gate::Bits => (l > b + bits_slack).then(|| {
                format!("grew {:+.0} bits from {b:.0} to {l:.0} (slack {bits_slack})", l - b)
            }),
            Gate::Info => None,
        }
    }
}

/// Builds the trend series of one artifact's history, in first-seen
/// `(cell, measure)` order.
pub fn series_from_history(history: &ArtifactHistory) -> Vec<TrendSeries> {
    let mut out: Vec<TrendSeries> = Vec::new();
    for (seq, sample) in history.samples.iter().enumerate() {
        let artifact = sample.artifact.kind.short().to_string();
        for cell in sample.artifact.series_cells() {
            for m in &cell.measures {
                let found = out
                    .iter_mut()
                    .find(|s| s.cell == cell.cell && s.measure == m.name);
                let series = match found {
                    Some(s) => s,
                    None => {
                        out.push(TrendSeries {
                            artifact: artifact.clone(),
                            cell: cell.cell.clone(),
                            measure: m.name,
                            gate: m.gate,
                            samples: Vec::new(),
                        });
                        out.last_mut().unwrap()
                    }
                };
                series.samples.push(TrendSample {
                    seq,
                    rev: sample.rev.hash.clone(),
                    date: sample.rev.date.clone(),
                    value: m.value,
                });
            }
        }
    }
    out
}

/// One drift-gate violation.
#[derive(Debug, Clone)]
pub struct DriftViolation {
    /// The offending series' label.
    pub label: String,
    /// What drifted and by how much.
    pub detail: String,
}

/// Applies [`TrendSeries::gate_violation`] across every series and
/// collects the violations — the exit criterion of `bench-report
/// --gate` and of `bench-diff`.
pub fn gate_drift(
    series: &[TrendSeries],
    threshold_pct: f64,
    bits_slack: f64,
) -> Vec<DriftViolation> {
    series
        .iter()
        .filter_map(|s| {
            s.gate_violation(threshold_pct, bits_slack)
                .map(|detail| DriftViolation { label: s.label(), detail })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(gate: Gate, values: &[f64]) -> TrendSeries {
        TrendSeries {
            artifact: "grid".to_string(),
            cell: vec!["luby".into(), "er".into(), "1024".into()],
            measure: "awake_max",
            gate,
            samples: values
                .iter()
                .enumerate()
                .map(|(i, &v)| TrendSample {
                    seq: i,
                    rev: format!("rev{i}"),
                    date: "2026-08-08".to_string(),
                    value: v,
                })
                .collect(),
        }
    }

    #[test]
    fn a_flat_history_never_gates() {
        let s = series(Gate::Relative, &[20.0, 20.0, 20.0, 20.0]);
        assert_eq!(s.drift(), Some((0.0, "%")));
        assert_eq!(s.delta_prev(), Some(0.0));
        assert_eq!(s.slope(), Some(0.0));
        assert!(s.gate_violation(5.0, 0.0).is_none());
        assert!(gate_drift(&[s], 5.0, 0.0).is_empty());
    }

    #[test]
    fn a_single_step_regression_gates_when_it_exceeds_the_threshold() {
        let s = series(Gate::Relative, &[20.0, 23.0]);
        let (drift, unit) = s.drift().unwrap();
        assert!((drift - 15.0).abs() < 1e-9);
        assert_eq!(unit, "%");
        assert!(s.gate_violation(5.0, 0.0).is_some(), "+15% > 5%");
        assert!(s.gate_violation(20.0, 0.0).is_none(), "+15% under a 20% threshold");
    }

    #[test]
    fn slow_creep_under_the_pair_threshold_still_fires_the_gate() {
        // Five commits, each +2% over the last: every adjacent pair is
        // under bench-diff's default 5% threshold, but the cumulative
        // drift is (1.02^4 - 1) ≈ +8.2% — exactly the failure mode
        // per-PR gating cannot see.
        let mut vals = vec![20.0];
        for _ in 0..4 {
            vals.push(vals.last().unwrap() * 1.02);
        }
        let s = series(Gate::Relative, &vals);
        for w in vals.windows(2) {
            let step_pct = 100.0 * (w[1] - w[0]) / w[0];
            assert!(step_pct < 5.0, "each step stays under the pair threshold");
        }
        let (drift, _) = s.drift().unwrap();
        assert!(drift > 5.0, "cumulative drift {drift:.1}% exceeds the threshold");
        let violations = gate_drift(&[s], 5.0, 0.0);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].label.contains("luby/er/1024"));
    }

    #[test]
    fn one_sample_means_no_trend_and_never_panics() {
        let s = series(Gate::Relative, &[20.0]);
        assert_eq!(s.drift(), None);
        assert_eq!(s.delta_prev(), None);
        assert_eq!(s.slope(), None, "fit_linear must not be fed a single point");
        assert!(s.gate_violation(0.0, 0.0).is_none());
    }

    #[test]
    fn gate_unit_semantics_match_bench_diff() {
        // Pp: failure rate fractions gate in percentage points.
        let rate = series(Gate::Pp, &[0.0, 0.02, 0.08]);
        let (pp, unit) = rate.drift().unwrap();
        assert!((pp - 8.0).abs() < 1e-9);
        assert_eq!(unit, "pp");
        assert!(rate.gate_violation(5.0, 0.0).is_some(), "+8pp > 5pp");
        assert!(rate.gate_violation(10.0, 0.0).is_none());

        // Bits: absolute growth against the slack, not a percentage.
        let bits = series(Gate::Bits, &[21.0, 22.0]);
        assert!(bits.gate_violation(5.0, 0.0).is_some(), "any CONGEST growth at slack 0");
        assert!(bits.gate_violation(5.0, 1.0).is_none(), "one bit of slack forgives one bit");

        // RelativeZero: zero must stay zero regardless of threshold.
        let zero = series(Gate::RelativeZero, &[0.0, 0.001]);
        assert!(zero.gate_violation(1000.0, 0.0).is_some());
        assert_eq!(zero.drift(), None, "no percentage of a zero baseline");
        let flat_zero = series(Gate::RelativeZero, &[0.0, 0.0]);
        assert_eq!(flat_zero.drift(), Some((0.0, "%")));
        assert!(flat_zero.gate_violation(0.0, 0.0).is_none());
        // Info: never gated, still trended.
        let info = series(Gate::Info, &[10.0, 99.0]);
        assert!(info.gate_violation(0.0, 0.0).is_none());
        assert!(info.drift().is_some());
    }

    #[test]
    fn improvements_never_gate() {
        for gate in [Gate::Relative, Gate::RelativeZero, Gate::Pp, Gate::Bits] {
            let s = series(gate, &[20.0, 10.0]);
            assert!(s.gate_violation(0.0, 0.0).is_none(), "{gate:?}");
        }
    }
}
