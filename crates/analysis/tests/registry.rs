//! Registry safety nets.
//!
//! 1. Golden payloads: an all-algorithms grid must reproduce, byte for
//!    byte, the committed payload (`tests/golden/grid_small.json`).
//!    This pin replaced the `Algorithm`-enum differential test when the
//!    deprecated enum was removed: the golden file is the behavioral
//!    contract now, so a dispatch-layer change that alters any
//!    measurement — or a serialization change that alters any byte —
//!    must regenerate it *deliberately* (see the `regenerate_golden`
//!    test below). A second grid (`tests/golden/grid_params.json`)
//!    pins the paths the first one misses: the `le` family, every
//!    builder's non-default parameters, the fault and ID-assignment
//!    knobs, and runs that report Monte Carlo failures.
//! 2. Registration hygiene: duplicate CLI keys are rejected; custom
//!    entries resolve and run end-to-end.

use analysis::grid::{run_grid, GridSpec};
use analysis::spec::{default_registry, Registry, RunnerHandle, SpecError};
use analysis::Document;
use graphgen::GraphFamily;

/// The golden grid: every built-in (worst-case *and* node-averaged
/// families) over two graph families, two sizes, three seeds.
fn golden_spec() -> GridSpec {
    GridSpec {
        algorithms: default_registry()
            .resolve_list("awake,awake-round,ldt,vt,naive,luby,na,gp-avg")
            .unwrap(),
        families: vec![GraphFamily::Er, GraphFamily::Cycle],
        sizes: vec![32, 64],
        seeds: vec![1, 2, 3],
        tiers: Vec::new(),
        threads: 0,
    }
}

/// The parameter grid: one spec per builder parameter path that the
/// all-defaults golden grid never takes. `le?bits=1&max_epochs=1` is a
/// one-epoch budget over two ranks, so it reports Monte Carlo failures;
/// `shards` and `jitter` exercise the shared execution parameters.
fn params_spec() -> GridSpec {
    GridSpec {
        algorithms: default_registry()
            .resolve_list(
                "le,le?bits=1&max_epochs=1,awake?loss=0.08,awake?always_awake_comm=true,\
                 awake?delta_factor=6&comp_factor=12&ell_density=4&uniform_batches=true,\
                 awake-round?strategy=awake,ldt?strategy=round&adv_ids=worst,\
                 vt?adv_ids=worst,vt?id_upper=4096,naive?adv_ids=worst,na?stride=4&jitter=2,\
                 gp-avg?balance=0,luby?crash=0.02&crash_until=3&shards=2",
            )
            .unwrap(),
        ..golden_spec()
    }
}

#[test]
fn small_grid_payload_matches_golden() {
    let golden = include_str!("golden/grid_small.json");
    let payload = run_grid(&golden_spec()).payload_json();
    assert_eq!(
        payload, golden,
        "grid payload diverged from tests/golden/grid_small.json; if the change is \
         intentional, regenerate with:\n  cargo test -p analysis --test registry \
         regenerate_golden -- --ignored"
    );
}

#[test]
fn param_grid_payload_matches_golden() {
    let golden = include_str!("golden/grid_params.json");
    let result = run_grid(&params_spec());
    // Non-vacuous: the failure-count mapping is only pinned if some
    // point actually reports failures.
    assert!(
        result.points.iter().any(|p| p.failures > 0),
        "the parameter grid must contain points with failures > 0"
    );
    assert_eq!(
        result.payload_json(),
        golden,
        "grid payload diverged from tests/golden/grid_params.json; if the change is \
         intentional, regenerate with:\n  cargo test -p analysis --test registry \
         regenerate_golden -- --ignored"
    );
}

/// Regenerates both golden payloads in place. Run explicitly
/// (`--ignored`) after an intentional measurement or serialization
/// change.
#[test]
#[ignore = "writes tests/golden/grid_*.json; run on intentional payload changes"]
fn regenerate_golden() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    for (file, spec) in [("grid_small.json", golden_spec()), ("grid_params.json", params_spec())] {
        let path = format!("{dir}/{file}");
        std::fs::write(path, run_grid(&spec).payload_json()).expect("write golden");
    }
}

#[test]
fn duplicate_cli_key_registration_errors() {
    let mut reg = Registry::builtin();
    // Primary key clash.
    let err = reg.register("vt", "clone", |_| unreachable!("builder must not run")).unwrap_err();
    assert_eq!(err, SpecError::DuplicateKey { key: "vt".to_string() });
    // Alias clash, case-insensitively.
    let err = reg.register("VT-MIS", "clone", |_| unreachable!()).unwrap_err();
    assert_eq!(err, SpecError::DuplicateKey { key: "vt-mis".to_string() });
    // The node-averaged entrants hold their keys the same way.
    let err = reg.register("NA-MIS", "clone", |_| unreachable!()).unwrap_err();
    assert_eq!(err, SpecError::DuplicateKey { key: "na-mis".to_string() });
    // Clash among the new entry's own keys counts too once registered.
    reg.register("fresh", "ok", |s| default_registry().resolve_spec(s)).unwrap();
    let err = reg.register("fresh", "again", |_| unreachable!()).unwrap_err();
    assert_eq!(err, SpecError::DuplicateKey { key: "fresh".to_string() });
}

#[test]
fn custom_registration_runs_end_to_end() {
    // A user algorithm: VT-MIS over a widened ID space, registered under
    // its own key and swept through the grid harness without touching
    // any dispatch code.
    let mut reg = Registry::builtin();
    reg.register("vt-wide", "VT-MIS with a 2^16 ID space", |spec| {
        spec.reader().finish()?;
        default_registry().resolve("vt?id_upper=65536")
    })
    .unwrap();
    let handle: RunnerHandle = reg.resolve("vt-wide").unwrap();
    let result = run_grid(&GridSpec {
        algorithms: vec![handle],
        families: vec![GraphFamily::Cycle],
        sizes: vec![24],
        seeds: vec![5],
        tiers: Vec::new(),
        threads: 1,
    });
    assert!(result.cells[0].all_correct);
    // The handle's key (what it was resolved to) names the grid row.
    assert!(result.payload_json().contains("\"vt?id_upper=65536\""));
}
