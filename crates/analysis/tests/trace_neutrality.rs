//! Tracing is observational only: attaching any `TraceSink` must not
//! perturb a single byte of the deterministic grid payload — under any
//! shard count and with fault models active. The engine-level version
//! of this invariant lives in `sim/tests/trace_events.rs`; this test
//! pins it end-to-end through the registry (`trace=` spec param), the
//! batch harness, and the JSON writer.

use analysis::grid::{run_grid, GridSpec};
use analysis::spec::default_registry;
use analysis::Document;
use graphgen::GraphFamily;

/// Serial, sharded, and faulted runners in one grid: `awake` plain,
/// `luby` with intra-run sharding, `vt` under a lossy/crashy fault
/// model (fault params are payload-affecting and appear identically on
/// both sides of each comparison).
const BASE: [&str; 3] = ["awake", "luby?shards=8", "vt?loss=0.05&crash=0.002"];

fn spec_with_trace(sink: Option<&str>) -> GridSpec {
    let specs = BASE
        .iter()
        .map(|s| match sink {
            None => s.to_string(),
            Some(kind) if s.contains('?') => format!("{s}&trace={kind}"),
            Some(kind) => format!("{s}?trace={kind}"),
        })
        .collect::<Vec<_>>()
        .join(",");
    GridSpec {
        algorithms: default_registry().resolve_list(&specs).unwrap(),
        families: vec![GraphFamily::Er, GraphFamily::Tree],
        sizes: vec![48, 96],
        seeds: vec![1, 2, 3],
        tiers: Vec::new(),
        threads: 2,
    }
}

#[test]
fn profile_sink_does_not_perturb_grid_payloads() {
    let plain = run_grid(&spec_with_trace(None));
    let profiled_spec = spec_with_trace(Some("profile"));
    let profiled = run_grid(&profiled_spec);
    assert_eq!(
        plain.payload_json(),
        profiled.payload_json(),
        "attaching the phase profiler perturbed the deterministic payload"
    );
    // The sink really was attached and observed every run of every
    // runner — neutrality by absence would prove nothing.
    for runner in &profiled_spec.algorithms {
        let report = runner
            .trace()
            .and_then(|h| h.report())
            .expect("profiled runner must produce a report");
        assert!(
            report.contains("12 runs"),
            "expected 2 families × 2 sizes × 3 seeds = 12 runs in {report:?}"
        );
    }
}

#[test]
fn jsonl_sink_does_not_perturb_grid_payloads() {
    // The JSONL sink exercises the other sink code path (buffered
    // stderr writes from inside the engine loop).
    let plain = run_grid(&spec_with_trace(None));
    let traced = run_grid(&spec_with_trace(Some("jsonl")));
    assert_eq!(
        plain.payload_json(),
        traced.payload_json(),
        "attaching the JSONL sink perturbed the deterministic payload"
    );
}
