//! Writer-to-reader round trip: every kind's `analysis` writer renders a
//! tiny run, and `bench::artifact` reads it back. The reader must sniff
//! the kind, find the kind's key fields where it groups by them, gate
//! at least one cell, and agree with the writer on the schema id and
//! file name. The other bench tests read hand-written or committed
//! documents; this one reads what the writers write today.

use analysis::churn::{run_churn, ChurnSpec};
use analysis::faults::{run_faults, FaultSweepSpec};
use analysis::grid::{run_grid, GridSpec};
use analysis::sweep::{run_sweep, SweepSpec};
use analysis::{default_registry, Document, EnergyModel, GridMeta};
use bench::artifact::{Artifact, ArtifactKind};
use bench::json::Value;
use graphgen::GraphFamily;

/// Renders `result`, reads it back and checks it as a `kind` document.
fn round_trip<D: Document>(result: &D, kind: ArtifactKind) {
    let name = kind.short();
    let sniffed = ArtifactKind::from_schema(D::SCHEMA);
    assert_eq!(sniffed, Some(kind), "{name}: the kind table's schema id");
    assert_eq!(kind.default_path(), D::FILE, "{name}: the kind table's path");
    assert_eq!(kind.key_fields(), D::KEY_FIELDS, "{name}: the kind table's key fields");

    let text = result.to_json(&GridMeta { threads: 1, wall_ms: 1 });
    let artifact = Artifact::parse(&text, name).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(artifact.kind, kind, "{name}: sniffed kind");

    // Sweep cells hold their points as entries, so cells carry the key.
    let keyed: &[Value] = if kind == ArtifactKind::Sweep {
        artifact.doc.get("cells").and_then(Value::as_arr).unwrap_or(&[])
    } else {
        artifact.points()
    };
    assert!(!keyed.is_empty(), "{name}: nothing to key");
    for (i, v) in keyed.iter().enumerate() {
        for field in kind.key_fields() {
            assert!(v.get(field).is_some(), "{name}: entry {i} lacks key field {field:?}");
        }
    }
    assert!(!artifact.series_cells().is_empty(), "{name}: no gated cells");
}

#[test]
fn every_writer_round_trips_through_the_reader() {
    let registry = default_registry();
    let (families, sizes, seeds) = (vec![GraphFamily::Er], vec![32], vec![1, 2]);
    let grid = run_grid(&GridSpec {
        algorithms: registry.resolve_list("luby").unwrap(),
        families: families.clone(),
        sizes: sizes.clone(),
        seeds: seeds.clone(),
        tiers: Vec::new(),
        threads: 1,
    });
    round_trip(&grid, ArtifactKind::Grid);

    let sweep = run_sweep(&SweepSpec {
        specs: vec!["luby".into(), "le?bits=5..7&step=2".into()],
        families: families.clone(),
        sizes: sizes.clone(),
        seeds: seeds.clone(),
        threads: 1,
        energy: EnergyModel::default(),
    })
    .unwrap();
    round_trip(&sweep, ArtifactKind::Sweep);

    let faults = run_faults(&FaultSweepSpec {
        specs: vec!["luby?loss=0,0.05".into()],
        families: families.clone(),
        sizes: sizes.clone(),
        seeds: seeds.clone(),
        threads: 1,
    })
    .unwrap();
    round_trip(&faults, ArtifactKind::Faults);

    let churn = run_churn(&ChurnSpec {
        algorithms: registry.resolve_list("luby").unwrap(),
        families,
        sizes,
        rates: vec![0.0, 0.05],
        epochs: 2,
        insert_frac: 0.5,
        node_churn: 0.1,
        seeds,
        threads: 1,
        recompute: false,
    });
    round_trip(&churn, ArtifactKind::Churn);
}
