//! Built-in algorithm runners.
//!
//! The executable form of every algorithm in the comparison table lives
//! here, registered with the [`Registry`](crate::spec::Registry) under
//! its CLI key (see [`register_builtins`]). Every builtin is the same
//! generic runner: a strict parameter reader plus a protocol factory
//! `(graph, seed) → Vec<P>`, driven through the engine by one shared run
//! path. Parameterized variants are specs, not new code:
//! `awake?round_efficient=true`, `ldt?strategy=round`,
//! `vt?id_upper=1000000`, `na?stride=8`, `gp-avg?balance=0` all resolve
//! to configured instances of the builders below.
//!
//! Three families of measures are covered: the paper's worst-case awake
//! complexity (`awake`, `awake-round`, `ldt`, `vt`, `naive`, `luby`),
//! the *node-averaged* measure of the related sleeping-model work (`na`,
//! `gp-avg`) — see [`awake_mis_core::na_mis`] and
//! [`awake_mis_core::avg_mis`] — and the explicit time/energy trade-off
//! (`le`, [`awake_mis_core::low_energy_mis`]), whose `bits` parameter is
//! the flagship axis of the [`crate::sweep`] energy-frontier harness.
//!
//! Every builtin additionally accepts the shared **fault-model
//! parameters** `loss=P`, `crash=P`, `crash_from=R`, `crash_until=R`
//! and `jitter=J` (see [`read_fault`] and
//! [`sleeping_congest::FaultModel`]), the **execution parameter**
//! `shards=K` (intra-run engine parallelism, `0` = auto; see
//! [`sleeping_congest::SimConfig::shards`]), and the ID-based runners
//! (`vt`, `naive`, `ldt`) accept `adv_ids=random|worst` for adversarial
//! ID assignment. Fault parameters spelling their defaults are dropped
//! from the runner key, so `awake?loss=0` *is* `awake` — clean levels
//! of a fault sweep reuse the fault-free identity and payloads. The
//! `shards` parameter never enters the key at all: sharding cannot
//! change results, so `luby?shards=8` *is* `luby` and its payloads stay
//! byte-comparable across machines.
//!
//! The `Algorithm` enum and the `run_algorithm(_with_scratch)` shims
//! that used to live here were deprecated in favor of the registry and
//! have been removed; resolve a [`RunnerHandle`] instead.

use crate::spec::{AlgorithmSpec, DynRunner, ParamReader, Registry, RunnerHandle, SpecError};
use awake_mis_core::{
    AvgMis, AvgMisConfig, AvgMisOutput, AwakeMis, AwakeMisConfig, AwakeMisOutput, LdtMis,
    LdtMisOutput, LdtMisParams, LdtStrategy, LeMis, LeMisConfig, LeMisOutput, Luby, MisState,
    NaMis, NaMisConfig, NaiveGreedy, VtMis, LE_MAX_BITS,
};
use graphgen::Graph;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sleeping_congest::{
    FaultModel, JsonlSink, Metrics, Profile, Protocol, ScratchArena, SimConfig, SimError,
    Simulator, Standalone, TraceHandle,
};

/// Normalized result of one run.
#[derive(Debug, Clone)]
pub struct AlgoResult {
    /// Display name of the algorithm that ran (paper terminology).
    pub algorithm: String,
    /// Canonical spec key of the algorithm that ran (`"awake"`,
    /// `"ldt?strategy=round"`, …).
    pub key: String,
    /// Worst-case awake complexity (`max_v A_v`).
    pub awake_max: u64,
    /// Node-averaged awake complexity.
    pub awake_avg: f64,
    /// Round complexity (sleeping + awake).
    pub rounds: u64,
    /// Total messages sent.
    pub messages: u64,
    /// Largest message in bits.
    pub max_message_bits: usize,
    /// Size of the computed MIS.
    pub mis_size: usize,
    /// Whether the output verified as a correct MIS — on the survivor
    /// subgraph when the run crashed nodes, on the whole graph otherwise
    /// (see [`awake_mis_core::check_mis_survivors`]).
    pub correct: bool,
    /// Number of nodes that reported a Monte Carlo failure. Crashes are
    /// *not* failures; they are counted in [`AlgoResult::crashed`].
    pub failures: usize,
    /// Number of nodes crashed by the fault model (0 on clean runs).
    pub crashed: usize,
    /// Number of deliverable message copies dropped by the fault model's
    /// lossy links (0 on clean runs).
    pub faulted: u64,
    /// Full engine metrics (per-node awake counts live here; see
    /// [`Metrics::awake_distribution`]).
    pub metrics: Metrics,
    /// Per-node final states (for re-verification by callers).
    pub states: Vec<MisState>,
}

impl AlgoResult {
    /// Builds a normalized result from a finished run: verifies the
    /// states against `g`, counts the MIS, and copies the headline
    /// numbers out of `metrics`. This is the constructor custom
    /// [`DynRunner`]s should use.
    ///
    /// Verification is survivor-aware: nodes crashed by the engine's
    /// [`FaultModel`] (per `metrics.crashed_at`) are exempt, and the
    /// remaining states must form an MIS of the subgraph induced by the
    /// survivors. With no crashes this is exactly the classic
    /// [`awake_mis_core::check_mis`].
    pub fn from_states(
        name: impl Into<String>,
        key: impl Into<String>,
        g: &Graph,
        states: Vec<MisState>,
        failures: usize,
        metrics: Metrics,
    ) -> AlgoResult {
        let alive = metrics.alive();
        let correct =
            failures == 0 && awake_mis_core::check_mis_survivors(g, &states, &alive).is_ok();
        let mis_size = states
            .iter()
            .zip(&alive)
            .filter(|&(&s, &a)| a && s == MisState::InMis)
            .count();
        AlgoResult {
            algorithm: name.into(),
            key: key.into(),
            awake_max: metrics.awake_complexity(),
            awake_avg: metrics.awake_average(),
            rounds: metrics.round_complexity(),
            messages: metrics.messages_sent,
            max_message_bits: metrics.max_message_bits,
            mis_size,
            correct,
            failures,
            crashed: metrics.crashed_count(),
            faulted: metrics.messages_faulted,
            metrics,
            states,
        }
    }
}

/// The seeded RNG every ID-based runner draws its IDs from.
fn id_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ 0x77)
}

/// A seeded random permutation of the IDs `1..=n`.
fn shuffled_ids(n: usize, seed: u64) -> Vec<u64> {
    let mut ids: Vec<u64> = (1..=n as u64).collect();
    ids.shuffle(&mut id_rng(seed));
    ids
}

/// `n` distinct seeded-random IDs in `[1, upper]`.
fn draw_distinct_ids(n: usize, upper: u64, seed: u64) -> Vec<u64> {
    let mut rng = id_rng(seed);
    let mut seen = std::collections::HashSet::with_capacity(n * 2);
    let mut ids = Vec::with_capacity(n);
    while ids.len() < n {
        let id = rng.gen_range(1..=upper);
        if seen.insert(id) {
            ids.push(id);
        }
    }
    ids
}

/// Reads an optional parameter that must be one of `choices`, given as
/// `(spelling, value)` pairs and matched case-insensitively.
fn read_choice<T: Copy>(
    p: &mut ParamReader<'_>,
    name: &'static str,
    choices: &[(&str, T)],
) -> Result<Option<T>, SpecError> {
    let Some(raw) = p.str(name) else { return Ok(None) };
    let value = raw.to_ascii_lowercase();
    match choices.iter().find(|(spelling, _)| *spelling == value) {
        Some(&(_, v)) => Ok(Some(v)),
        None => Err(SpecError::BadValue {
            param: name.to_string(),
            expected: choices.iter().map(|&(s, _)| s).collect::<Vec<_>>().join(" or "),
            value,
        }),
    }
}

// ---------------------------------------------------------------------------
// Fault-model parameters (shared by every builtin)
// ---------------------------------------------------------------------------

/// Reads a probability-valued fault parameter, rejecting anything
/// outside `[0, 1]`.
fn read_prob(p: &mut ParamReader<'_>, name: &'static str) -> Result<Option<f64>, SpecError> {
    match p.f64(name)? {
        None => Ok(None),
        Some(v) if v.is_finite() && (0.0..=1.0).contains(&v) => Ok(Some(v)),
        Some(v) => Err(SpecError::BadValue {
            param: name.to_string(),
            value: v.to_string(),
            expected: "a probability in [0, 1]".to_string(),
        }),
    }
}

/// Reads the fault-model parameters every builtin accepts:
/// `loss=P` (per-copy i.i.d. message loss), `crash=P` (per-node
/// per-round crash probability), `crash_from=R`/`crash_until=R`
/// (inclusive round window for crashes), `jitter=J` (late-wake jitter:
/// node `v` starts up to `J` rounds late, deterministically per seed).
fn read_fault(p: &mut ParamReader<'_>) -> Result<FaultModel, SpecError> {
    let mut fault = FaultModel::none();
    if let Some(v) = read_prob(p, "loss")? {
        fault.loss = v;
    }
    if let Some(v) = read_prob(p, "crash")? {
        fault.crash = v;
    }
    if let Some(v) = p.u64("crash_from")? {
        fault.crash_from = v;
    }
    if let Some(v) = p.u64("crash_until")? {
        fault.crash_until = v;
    }
    if fault.crash_from > fault.crash_until {
        return Err(SpecError::BadValue {
            param: "crash_until".to_string(),
            value: fault.crash_until.to_string(),
            expected: format!("a round >= crash_from ({})", fault.crash_from),
        });
    }
    if let Some(v) = p.u64("jitter")? {
        fault.wake_jitter = v;
    }
    Ok(fault)
}

/// Reads the shared execution parameters into the [`SimConfig`]
/// template every run of the runner starts from (each run sets only
/// `seed`): the fault model ([`read_fault`]), `shards=K` — the engine's
/// intra-run shard count (`1` = serial, `0` = one shard per hardware
/// thread; results are byte-identical either way) — and
/// `trace=profile|jsonl`, which attaches an observational sink shared by
/// every run of the resolved runner (`profile` aggregates a phase report
/// retrievable through [`DynRunner::trace`]; `jsonl` streams one event
/// per line to stderr). Tracing never changes results. Parsed after the
/// algorithm-specific parameters.
fn read_exec(p: &mut ParamReader<'_>) -> Result<SimConfig, SpecError> {
    let fault = read_fault(p)?;
    let shards = p.u64("shards")?.unwrap_or(1) as usize;
    let profile: fn() -> TraceHandle = || TraceHandle::new(Profile::new());
    let jsonl: fn() -> TraceHandle = || TraceHandle::new(JsonlSink::stderr());
    let sink = read_choice(p, "trace", &[("profile", profile), ("jsonl", jsonl)])?;
    let trace = sink.map(|make| make());
    Ok(SimConfig { fault, shards, trace, ..SimConfig::default() })
}

/// Canonical runner key for `spec`: the spec as written, minus fault
/// parameters spelling their default values. `awake?loss=0` keys as
/// `awake`, so a fault sweep's clean level is *the same runner
/// identity* as the fault-free builtin and its grid payloads are
/// byte-identical to the clean grid's.
fn runner_key(spec: &AlgorithmSpec) -> String {
    let kept: Vec<String> = spec
        .params()
        .iter()
        .filter(|(name, value)| {
            let is_default = match name.as_str() {
                "loss" | "crash" => value.parse::<f64>().map(|v| v == 0.0).unwrap_or(false),
                "crash_from" | "jitter" => {
                    value.parse::<u64>().map(|v| v == 0).unwrap_or(false)
                }
                "crash_until" => value.parse::<u64>().map(|v| v == u64::MAX).unwrap_or(false),
                "adv_ids" => value.eq_ignore_ascii_case("random"),
                // Sharding and tracing are pure execution: they can
                // never change results, so they never enter the
                // identity.
                "shards" | "trace" => true,
                _ => false,
            };
            !is_default
        })
        .map(|(name, value)| format!("{name}={value}"))
        .collect();
    if kept.is_empty() {
        spec.key().to_string()
    } else {
        format!("{}?{}", spec.key(), kept.join("&"))
    }
}

/// How ID-based runners (`vt`, `naive`, `ldt`) assign their IDs:
/// seeded-random (the default) or the deterministic adversarial
/// worst case (`adv_ids=worst`).
#[derive(Debug, Clone, Copy)]
enum IdAssignment {
    Random,
    Worst,
}

/// Reads the optional `adv_ids=random|worst` parameter.
fn read_adv_ids(p: &mut ParamReader<'_>) -> Result<IdAssignment, SpecError> {
    let choices = [("random", IdAssignment::Random), ("worst", IdAssignment::Worst)];
    Ok(read_choice(p, "adv_ids", &choices)?.unwrap_or(IdAssignment::Random))
}

/// The adversarial ID multiset for `VT-MIS`: the `n` IDs in
/// `[1, upper]` with the *longest* virtual-tree wake schedules,
/// assigned to nodes in ascending order. VT-MIS nodes attend their full
/// schedule (no early exit), so per-node awake cost is exactly the
/// schedule length — an adversary controlling the ID assignment
/// maximizes the worst case by handing out the longest schedules,
/// which random draws from a wide ID space are unlikely to hit.
fn worst_vt_ids(n: usize, upper: u64) -> Vec<u64> {
    let mut ranked: Vec<u64> = (1..=upper).collect();
    ranked.sort_by_key(|&k| (std::cmp::Reverse(vtree::wake_count(k, upper)), k));
    ranked.truncate(n);
    ranked.sort_unstable();
    ranked
}

// ---------------------------------------------------------------------------
// The generic runner
// ---------------------------------------------------------------------------

/// A node's output as the registry scores it: its MIS decision and
/// whether it reported a Monte Carlo failure (an overflowed LDT-MIS
/// budget, an adjacent rank collision in `GP-Avg-MIS`, an exhausted
/// `LE-MIS` epoch budget — see each protocol's module docs).
trait MisOutput {
    fn decision(&self) -> (MisState, bool);
}

impl MisOutput for MisState {
    fn decision(&self) -> (MisState, bool) {
        (*self, false)
    }
}

/// Implements [`MisOutput`] for output structs that carry the decision
/// in `state` and the Monte Carlo failure flag in `failed`.
macro_rules! flagged_output {
    ($($output:ty),*) => {$(
        impl MisOutput for $output {
            fn decision(&self) -> (MisState, bool) {
                (self.state, self.failed)
            }
        }
    )*};
}

flagged_output!(AwakeMisOutput, AvgMisOutput, LeMisOutput, LdtMisOutput);

/// Builds one run's per-node protocols from the graph and the seed.
type Factory<P> = Box<dyn Fn(&Graph, u64) -> Vec<P> + Send + Sync>;

/// The one runner behind every builtin: a protocol factory run through
/// the engine under the spec's execution parameters.
struct SimRunner<P> {
    name: &'static str,
    key: String,
    /// The [`read_exec`] template; each run sets only `seed`.
    config: SimConfig,
    make: Factory<P>,
}

impl<P> DynRunner for SimRunner<P>
where
    P: Protocol + Send,
    P::Msg: Send + Sync + 'static,
    P::Output: MisOutput,
{
    fn name(&self) -> &str {
        self.name
    }

    fn key(&self) -> &str {
        &self.key
    }

    fn trace(&self) -> Option<&TraceHandle> {
        self.config.trace.as_ref()
    }

    fn run_on(
        &self,
        g: &Graph,
        seed: u64,
        scratch: &mut ScratchArena,
    ) -> Result<AlgoResult, SimError> {
        let config = SimConfig { seed, ..self.config.clone() };
        let report = Simulator::new(g.clone(), (self.make)(g, seed), config).run_in(scratch)?;
        let mut failures = 0;
        let states = report
            .outputs
            .iter()
            .map(|o| {
                let (state, failed) = o.decision();
                failures += usize::from(failed);
                state
            })
            .collect();
        Ok(AlgoResult::from_states(self.name, &self.key, g, states, failures, report.metrics))
    }
}

/// Finishes a builder: reads the shared execution parameters after the
/// algorithm's own, rejects any parameter left unread, and wraps `make`
/// in the generic runner keyed by [`runner_key`].
fn sim_runner<P>(
    spec: &AlgorithmSpec,
    mut p: ParamReader<'_>,
    name: &'static str,
    make: impl Fn(&Graph, u64) -> Vec<P> + Send + Sync + 'static,
) -> Result<RunnerHandle, SpecError>
where
    P: Protocol + Send + 'static,
    P::Msg: Send + Sync + 'static,
    P::Output: MisOutput,
{
    let config = read_exec(&mut p)?;
    p.finish()?;
    Ok(RunnerHandle::new(SimRunner { name, key: runner_key(spec), config, make: Box::new(make) }))
}

// ---------------------------------------------------------------------------
// Built-in builders
// ---------------------------------------------------------------------------

/// Reads an optional `strategy=awake|round` parameter.
fn read_strategy(p: &mut ParamReader<'_>) -> Result<Option<LdtStrategy>, SpecError> {
    read_choice(p, "strategy", &[("awake", LdtStrategy::Awake), ("round", LdtStrategy::Round)])
}

/// `Awake-MIS` family: Theorem 13 by default, Corollary 14 via
/// `strategy=round` / `round_efficient=true`, plus every
/// [`AwakeMisConfig`] knob as a spec parameter.
fn awake(spec: &AlgorithmSpec, round_default: bool) -> Result<RunnerHandle, SpecError> {
    let mut cfg = if round_default {
        AwakeMisConfig::round_efficient()
    } else {
        AwakeMisConfig::default()
    };
    let mut p = spec.reader();
    let strategy = read_strategy(&mut p)?;
    let round_efficient = p.bool("round_efficient")?;
    // `round_efficient` is sugar for `strategy`; asking for both is
    // ambiguous, so it is rejected rather than resolved by order.
    match (strategy, round_efficient) {
        (Some(_), Some(_)) => {
            return Err(SpecError::BadValue {
                param: "round_efficient".to_string(),
                value: spec.canonical(),
                expected: "either strategy= or round_efficient=, not both".to_string(),
            })
        }
        (Some(s), None) => cfg.strategy = s,
        (None, Some(b)) => {
            cfg.strategy = if b { LdtStrategy::Round } else { LdtStrategy::Awake }
        }
        (None, None) => {}
    }
    if let Some(v) = p.f64("delta_factor")? {
        cfg.delta_factor = v;
    }
    if let Some(v) = p.f64("comp_factor")? {
        cfg.comp_factor = v;
    }
    if let Some(v) = p.f64("ell_density")? {
        cfg.ell_density = v;
    }
    if let Some(b) = p.bool("always_awake_comm")? {
        cfg.always_awake_comm = b;
    }
    if let Some(b) = p.bool("uniform_batches")? {
        cfg.uniform_batches = b;
    }
    let name = match cfg.strategy {
        LdtStrategy::Awake => "Awake-MIS",
        LdtStrategy::Round => "Awake-MIS-Round",
    };
    sim_runner(spec, p, name, move |g, _| (0..g.n()).map(|_| AwakeMis::new(cfg)).collect())
}

/// Luby's classical algorithm (always awake); takes only the shared
/// fault parameters.
fn luby(spec: &AlgorithmSpec) -> Result<RunnerHandle, SpecError> {
    sim_runner(spec, spec.reader(), "Luby", |g, _| (0..g.n()).map(|_| Luby::new()).collect())
}

/// `NA-MIS` (Chatterjee–Gmyr–Pandurangan, arXiv:2006.07449): `O(1)`
/// *node-averaged* awake complexity via immediate dropout. Parameters:
/// `stride=R` spaces the compete/resolve phases `R` rounds apart
/// (default 2 = back to back) without changing any awake count.
fn na(spec: &AlgorithmSpec) -> Result<RunnerHandle, SpecError> {
    let mut cfg = NaMisConfig::default();
    let mut p = spec.reader();
    if let Some(v) = p.u64("stride")? {
        if v < 2 {
            return Err(SpecError::BadValue {
                param: "stride".to_string(),
                value: v.to_string(),
                expected: "an integer ≥ 2 (a phase spans two rounds)".to_string(),
            });
        }
        cfg.stride = v;
    }
    sim_runner(spec, p, "NA-MIS", move |g, _| (0..g.n()).map(|_| NaMis::new(cfg)).collect())
}

/// `GP-Avg-MIS` (Ghaffari–Portmann, arXiv:2305.06120): dropout phases
/// followed by a deterministically-capped ranked schedule. The
/// `balance=K` parameter (default 3) sets the number of dropout phases
/// — the dial between node-averaged and worst-case awake cost.
fn gp_avg(spec: &AlgorithmSpec) -> Result<RunnerHandle, SpecError> {
    let mut cfg = AvgMisConfig::default();
    let mut p = spec.reader();
    if let Some(v) = p.u64("balance")? {
        cfg.balance = v;
    }
    sim_runner(spec, p, "GP-Avg-MIS", move |g, _| (0..g.n()).map(|_| AvgMis::new(cfg)).collect())
}

/// `LE-MIS` (Ghaffari–Portmann, arXiv:2305.11639): the explicit
/// time/energy trade-off — epoch-ranked schedules over a `2^bits` rank
/// space. `bits=B` is the dial (tiny = time-optimal but energy-hungry,
/// moderate = energy-optimal, the large tail dominated on both — see
/// `awake_mis_core::low_energy_mis`); `max_epochs=E` bounds the Monte
/// Carlo retries.
fn le(spec: &AlgorithmSpec) -> Result<RunnerHandle, SpecError> {
    let mut cfg = LeMisConfig::default();
    let mut p = spec.reader();
    if let Some(v) = p.u64("bits")? {
        if v < 1 || v > u64::from(LE_MAX_BITS) {
            return Err(SpecError::BadValue {
                param: "bits".to_string(),
                value: v.to_string(),
                expected: format!("an integer in [1, {LE_MAX_BITS}]"),
            });
        }
        cfg.bits = v as u32;
    }
    if let Some(v) = p.u64("max_epochs")? {
        if v == 0 {
            return Err(SpecError::BadValue {
                param: "max_epochs".to_string(),
                value: v.to_string(),
                expected: "a positive epoch budget".to_string(),
            });
        }
        cfg.max_epochs = v;
    }
    sim_runner(spec, p, "LE-MIS", move |g, _| (0..g.n()).map(|_| LeMis::new(cfg)).collect())
}

/// `VT-MIS`: random ID permutation over `[1, n]` by default; the
/// `id_upper=U` parameter sweeps the ID space instead (distinct random
/// IDs in `[1, max(U, n)]`, so awake complexity scales with `log U`).
/// `adv_ids=worst` replaces the random draw with the adversarial
/// assignment: the `n` longest-schedule IDs (see [`worst_vt_ids`]).
fn vt(spec: &AlgorithmSpec) -> Result<RunnerHandle, SpecError> {
    let mut p = spec.reader();
    let id_upper = p.u64("id_upper")?;
    let adv_ids = read_adv_ids(&mut p)?;
    sim_runner(spec, p, "VT-MIS", move |g, seed| {
        let n = g.n();
        let upper = id_upper.map_or(n as u64, |u| u.max(n as u64));
        let ids = match (adv_ids, id_upper) {
            (IdAssignment::Worst, _) => worst_vt_ids(n, upper),
            (IdAssignment::Random, None) => shuffled_ids(n, seed),
            (IdAssignment::Random, Some(_)) => draw_distinct_ids(n, upper, seed),
        };
        ids.into_iter().map(|id| Standalone::new(VtMis::new(id, upper, None))).collect()
    })
}

/// Naive distributed greedy baseline. `adv_ids=worst` pins the
/// adversarial sequential assignment `id[v] = v + 1` (ID order
/// correlated with node numbering — on path/grid families this chains
/// the greedy dependencies) instead of a random permutation.
fn naive(spec: &AlgorithmSpec) -> Result<RunnerHandle, SpecError> {
    let mut p = spec.reader();
    let adv_ids = read_adv_ids(&mut p)?;
    sim_runner(spec, p, "Naive-Greedy", move |g, seed| {
        let n = g.n();
        let ids = match adv_ids {
            IdAssignment::Random => shuffled_ids(n, seed),
            IdAssignment::Worst => (1..=n as u64).collect(),
        };
        ids.into_iter().map(|id| NaiveGreedy::new(id, n as u64)).collect()
    })
}

/// `LDT-MIS` on the whole graph; `strategy=awake|round` picks the LDT
/// construction (Lemma 6/7 vs Lemma 15). `adv_ids=worst` packs the IDs
/// into the bottom of the huge ID space (`1..=n`, maximal shared
/// prefixes in the labeling tree) instead of random distinct draws.
fn ldt(spec: &AlgorithmSpec) -> Result<RunnerHandle, SpecError> {
    let mut p = spec.reader();
    let strategy = read_strategy(&mut p)?.unwrap_or(LdtStrategy::Awake);
    let adv_ids = read_adv_ids(&mut p)?;
    sim_runner(spec, p, "LDT-MIS", move |g, seed| {
        let n = g.n();
        let id_upper = (n.max(4) as u64).pow(3).max(1 << 24);
        let ids = match adv_ids {
            IdAssignment::Random => draw_distinct_ids(n, id_upper, seed),
            IdAssignment::Worst => (1..=n as u64).collect(),
        };
        let k = n.max(1) as u32;
        ids.into_iter()
            .map(|my_id| {
                Standalone::new(LdtMis::new(LdtMisParams { my_id, id_upper, k, strategy }))
            })
            .collect()
    })
}

/// Registers every built-in algorithm family. Called by
/// [`Registry::builtin`].
pub(crate) fn register_builtins(reg: &mut Registry) {
    reg.register_aliased(
        &["awake", "awake-mis"],
        "Awake-MIS (Theorem 13): O(log log n) awake. Params: strategy=awake|round, \
         round_efficient, delta_factor, comp_factor, ell_density, always_awake_comm, \
         uniform_batches",
        |spec| awake(spec, false),
    )
    .expect("builtin keys are distinct");
    reg.register_aliased(
        &["awake-round", "awake-mis-round"],
        "Awake-MIS with round-efficient LDTs (Corollary 14). Same params as awake",
        |spec| awake(spec, true),
    )
    .expect("builtin keys are distinct");
    reg.register_aliased(
        &["ldt", "ldt-mis"],
        "LDT-MIS on the whole graph (Lemma 11). Params: strategy=awake|round, \
         adv_ids=random|worst",
        ldt,
    )
    .expect("builtin keys are distinct");
    reg.register_aliased(
        &["vt", "vt-mis"],
        "VT-MIS (Lemma 10): O(log I) awake. Params: id_upper=U (ID-space sweep), \
         adv_ids=random|worst (adversarial longest-schedule IDs)",
        vt,
    )
    .expect("builtin keys are distinct");
    reg.register_aliased(
        &["naive", "naive-greedy"],
        "Naive distributed greedy baseline (always awake, Θ(I) rounds). Params: \
         adv_ids=random|worst",
        naive,
    )
    .expect("builtin keys are distinct");
    reg.register_aliased(&["luby"], "Luby's algorithm (always awake, Θ(log n)). No params", luby)
        .expect("builtin keys are distinct");
    reg.register_aliased(
        &["na", "na-mis"],
        "NA-MIS (CGP 2020): O(1) node-averaged awake via dropout phases. Params: stride=R \
         (rounds between phases, default 2)",
        na,
    )
    .expect("builtin keys are distinct");
    reg.register_aliased(
        &["gp-avg", "gp-avg-mis"],
        "GP-Avg-MIS (GP 2023): dropout + capped ranked finish. Params: balance=K \
         (dropout phases before the ranked stage, default 3)",
        gp_avg,
    )
    .expect("builtin keys are distinct");
    reg.register_aliased(
        &["le", "le-mis"],
        "LE-MIS (GP 2023 low-energy): epoch-ranked time/energy trade-off. Params: bits=B \
         (rank bits per epoch, default auto = ⌈log₂ n⌉), max_epochs=E (Monte Carlo \
         budget, default 64)",
        le,
    )
    .expect("builtin keys are distinct");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::default_registry;
    use graphgen::generators;

    #[test]
    fn every_builtin_runs_and_verifies() {
        let g = generators::gnp(60, 0.1, &mut SmallRng::seed_from_u64(1));
        let reg = default_registry();
        let keys: Vec<String> = reg.keys().map(str::to_string).collect();
        assert_eq!(
            keys,
            ["awake", "awake-round", "ldt", "vt", "naive", "luby", "na", "gp-avg", "le"],
            "comparison-table order"
        );
        for key in &keys {
            let runner = reg.resolve(key).expect("builtin resolves");
            let r = runner.run(&g, 5).expect("run");
            assert!(r.correct, "{} produced an invalid MIS", runner.name());
            assert!(r.mis_size > 0);
            assert!(r.awake_max > 0);
            assert!(r.awake_avg <= r.awake_max as f64);
            assert_eq!(r.algorithm, runner.name());
            assert_eq!(r.key, *key);
            // The distribution view agrees with the headline numbers.
            let d = r.metrics.awake_distribution();
            assert_eq!(d.max, r.awake_max, "{key}: distribution max");
            assert!((d.mean - r.awake_avg).abs() < 1e-12, "{key}: distribution mean");
            assert!(d.median <= d.p95 && d.p95 <= d.max as f64, "{key}: quantile order");
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        // One dirty scratch reused across all algorithms and two graphs
        // must reproduce the fresh-allocation results exactly.
        let mut scratch = ScratchArena::new();
        let reg = default_registry();
        for (n, p, seed) in [(40usize, 0.15, 3u64), (70, 0.08, 9)] {
            let g = generators::gnp(n, p, &mut SmallRng::seed_from_u64(seed));
            for key in reg.keys() {
                let runner = reg.resolve(key).expect("builtin resolves");
                let fresh = runner.run(&g, seed).expect("fresh");
                let reused =
                    runner.run_with_scratch(&g, seed, &mut scratch).expect("reused");
                assert_eq!(fresh.states, reused.states, "{key} diverged");
                assert_eq!(fresh.awake_max, reused.awake_max);
                assert_eq!(fresh.rounds, reused.rounds);
                assert_eq!(fresh.messages, reused.messages);
                assert_eq!(fresh.metrics.active_rounds, reused.metrics.active_rounds);
            }
        }
    }

    #[test]
    fn display_names_resolve_as_aliases() {
        let reg = default_registry();
        for (key, name) in [
            ("awake", "Awake-MIS"),
            ("awake-round", "Awake-MIS-Round"),
            ("ldt", "LDT-MIS"),
            ("vt", "VT-MIS"),
            ("naive", "Naive-Greedy"),
            ("luby", "Luby"),
            ("na", "NA-MIS"),
            ("gp-avg", "GP-Avg-MIS"),
            ("le", "LE-MIS"),
        ] {
            assert_eq!(reg.resolve(key).unwrap().name(), name);
            assert_eq!(reg.resolve(name).unwrap().name(), name, "display-name alias {name}");
        }
        assert!(reg.resolve("quantum").is_err());
    }

    #[test]
    fn awake_ordering_holds_on_midsize_graph() {
        // The headline ordering at moderate n: VT-MIS ≤ O(log n) <
        // Naive = n awake; Awake-MIS ≪ its own round complexity.
        let g = generators::gnp(128, 0.08, &mut SmallRng::seed_from_u64(2));
        let reg = default_registry();
        let vt = reg.resolve("vt").unwrap().run(&g, 3).unwrap();
        let naive = reg.resolve("naive").unwrap().run(&g, 3).unwrap();
        assert!(vt.awake_max * 4 < naive.awake_max);
        let am = reg.resolve("awake").unwrap().run(&g, 3).unwrap();
        assert!(am.awake_max * 100 < am.rounds);
        // The node-averaged entrant: its *average* beats its own worst
        // case by a wide margin (the whole point of the measure).
        let na = reg.resolve("na").unwrap().run(&g, 3).unwrap();
        assert!(na.awake_avg * 2.0 < na.awake_max as f64);
    }

    #[test]
    fn param_overrides_change_behavior() {
        let g = generators::gnp(64, 0.1, &mut SmallRng::seed_from_u64(4));
        let reg = default_registry();
        // round_efficient=true must reproduce the awake-round builtin.
        let round = reg.resolve("awake?round_efficient=true").unwrap();
        let legacy = reg.resolve("awake-round").unwrap();
        let a = round.run(&g, 9).unwrap();
        let b = legacy.run(&g, 9).unwrap();
        assert_eq!(a.states, b.states);
        assert_eq!(a.awake_max, b.awake_max);
        assert_eq!(a.algorithm, "Awake-MIS-Round");
        assert_eq!(a.key, "awake?round_efficient=true");
        // An ID-space sweep changes VT-MIS's awake complexity scale.
        let vt_small = reg.resolve("vt").unwrap().run(&g, 9).unwrap();
        let vt_wide = reg.resolve("vt?id_upper=1048576").unwrap().run(&g, 9).unwrap();
        assert!(vt_wide.correct && vt_small.correct);
        assert!(
            vt_wide.rounds > vt_small.rounds,
            "a 2^20 ID space must stretch VT-MIS's schedule ({} vs {})",
            vt_wide.rounds,
            vt_small.rounds
        );
    }

    #[test]
    fn na_stride_spaces_the_schedule_without_touching_awake() {
        let g = generators::gnp(72, 0.1, &mut SmallRng::seed_from_u64(6));
        let reg = default_registry();
        let dense = reg.resolve("na").unwrap().run(&g, 11).unwrap();
        let spaced = reg.resolve("na?stride=32").unwrap().run(&g, 11).unwrap();
        assert!(dense.correct && spaced.correct);
        assert_eq!(dense.states, spaced.states);
        assert_eq!(dense.awake_max, spaced.awake_max);
        assert_eq!(dense.awake_avg, spaced.awake_avg);
        assert!(spaced.rounds > 8 * dense.rounds, "{} vs {}", spaced.rounds, dense.rounds);
        assert_eq!(spaced.key, "na?stride=32");
        // A one-round stride cannot hold a two-round phase.
        assert!(matches!(
            reg.resolve("na?stride=1"),
            Err(SpecError::BadValue { ref param, .. }) if param == "stride"
        ));
    }

    #[test]
    fn gp_balance_dials_average_against_worst_case() {
        let g = generators::gnp_avg_degree(256, 8.0, &mut SmallRng::seed_from_u64(8));
        let reg = default_registry();
        let mean_over_seeds = |spec: &str| -> (f64, f64) {
            let runner = reg.resolve(spec).unwrap();
            let mut avg = 0.0;
            let mut max = 0.0;
            for seed in 0..6u64 {
                let r = runner.run(&g, seed).unwrap();
                assert!(r.correct, "{spec} seed {seed}");
                avg += r.awake_avg;
                max += r.awake_max as f64;
            }
            (avg / 6.0, max / 6.0)
        };
        let (avg0, _) = mean_over_seeds("gp-avg?balance=0");
        let (avg6, _) = mean_over_seeds("gp-avg?balance=6");
        assert!(
            avg6 < avg0 / 2.0,
            "balance=6 must at least halve the node average: {avg6} vs {avg0}"
        );
    }

    #[test]
    fn contradictory_strategy_params_are_rejected() {
        let reg = default_registry();
        let err = reg.resolve("awake?strategy=awake&round_efficient=true").unwrap_err();
        assert!(matches!(err, SpecError::BadValue { ref param, .. } if param == "round_efficient"));
        // Each spelling alone still works.
        assert!(reg.resolve("awake?strategy=round").is_ok());
        assert!(reg.resolve("awake?round_efficient=false").is_ok());
        assert!(reg.resolve("ldt?strategy=round").is_ok());
        assert!(matches!(
            reg.resolve("ldt?strategy=sideways"),
            Err(SpecError::BadValue { .. })
        ));
        // The new families are strict about their parameters too.
        assert!(matches!(reg.resolve("na?balance=3"), Err(SpecError::UnknownParam { .. })));
        assert!(matches!(reg.resolve("gp-avg?stride=4"), Err(SpecError::UnknownParam { .. })));
        assert!(matches!(reg.resolve("le?balance=3"), Err(SpecError::UnknownParam { .. })));
        assert!(matches!(
            reg.resolve("le?bits=0"),
            Err(SpecError::BadValue { ref param, .. }) if param == "bits"
        ));
        assert!(matches!(
            reg.resolve("le?bits=41"),
            Err(SpecError::BadValue { ref param, .. }) if param == "bits"
        ));
        assert!(matches!(
            reg.resolve("le?max_epochs=0"),
            Err(SpecError::BadValue { ref param, .. }) if param == "max_epochs"
        ));
        assert!(reg.resolve("le?bits=8&max_epochs=16").is_ok());
    }

    #[test]
    fn le_bits_trade_rounds_for_awake_through_the_registry() {
        // The time/energy dial end to end: fewer rank bits finish in
        // far fewer rounds but cost more awake rounds, seed-averaged.
        let g = generators::gnp_avg_degree(256, 8.0, &mut SmallRng::seed_from_u64(15));
        let reg = default_registry();
        let mean = |spec: &str| -> (f64, f64) {
            let runner = reg.resolve(spec).unwrap();
            let mut awake = 0.0;
            let mut rounds = 0.0;
            for seed in 0..6u64 {
                let r = runner.run(&g, seed).unwrap();
                assert!(r.correct, "{spec} seed {seed}");
                awake += r.awake_max as f64 / 6.0;
                rounds += r.rounds as f64 / 6.0;
            }
            (awake, rounds)
        };
        let (awake_fast, rounds_fast) = mean("le?bits=2");
        let (awake_cheap, rounds_cheap) = mean("le?bits=6");
        assert!(rounds_fast * 2.0 < rounds_cheap, "{rounds_fast} vs {rounds_cheap}");
        assert!(awake_cheap < awake_fast, "{awake_cheap} vs {awake_fast}");
    }

    #[test]
    fn default_fault_params_collapse_to_the_clean_key() {
        let reg = default_registry();
        // Spelled-out defaults are the same runner identity as the bare key.
        for (spec, clean) in [
            ("awake?loss=0", "awake"),
            ("awake?loss=0.0&crash=0&jitter=0", "awake"),
            ("luby?crash=0.0&crash_from=0", "luby"),
            ("vt?adv_ids=random", "vt"),
            ("vt?id_upper=4096&loss=0", "vt?id_upper=4096"),
        ] {
            assert_eq!(reg.resolve(spec).unwrap().key(), clean, "{spec}");
        }
        // Non-default fault params stay in the key, as written.
        assert_eq!(reg.resolve("awake?loss=0.05").unwrap().key(), "awake?loss=0.05");
        assert_eq!(
            reg.resolve("vt?id_upper=6144&adv_ids=worst").unwrap().key(),
            "vt?id_upper=6144&adv_ids=worst"
        );
    }

    #[test]
    fn fault_params_are_validated() {
        let reg = default_registry();
        for bad in ["awake?loss=1.5", "awake?loss=-0.1", "luby?crash=2", "vt?loss=nan"] {
            assert!(
                matches!(reg.resolve(bad), Err(SpecError::BadValue { .. })),
                "{bad} must be rejected"
            );
        }
        assert!(matches!(
            reg.resolve("awake?crash=0.1&crash_from=9&crash_until=3"),
            Err(SpecError::BadValue { ref param, .. }) if param == "crash_until"
        ));
        assert!(matches!(
            reg.resolve("vt?adv_ids=sideways"),
            Err(SpecError::BadValue { ref param, .. }) if param == "adv_ids"
        ));
        assert!(matches!(
            reg.resolve("luby?trace=flamegraph"),
            Err(SpecError::BadValue { ref param, .. }) if param == "trace"
        ));
        // Every builtin accepts the shared fault and execution params.
        for key in default_registry().keys() {
            assert!(
                reg.resolve(&format!(
                    "{key}?loss=0.01&crash=0.0001&jitter=2&shards=2&trace=profile"
                ))
                .is_ok(),
                "{key} must accept fault params"
            );
        }
    }

    #[test]
    fn shards_param_is_execution_only() {
        let reg = default_registry();
        // Any shard count collapses to the bare key — including auto (0).
        assert_eq!(reg.resolve("luby?shards=8").unwrap().key(), "luby");
        assert_eq!(reg.resolve("awake?shards=0").unwrap().key(), "awake");
        assert_eq!(reg.resolve("vt?id_upper=4096&shards=2").unwrap().key(), "vt?id_upper=4096");
        // …and runs are byte-identical to the serial engine, faults and all.
        let g = generators::gnp(80, 0.1, &mut SmallRng::seed_from_u64(33));
        for (serial, sharded) in [
            ("luby", "luby?shards=8"),
            ("awake?loss=0.02&jitter=2", "awake?loss=0.02&jitter=2&shards=4"),
        ] {
            let a = reg.resolve(serial).unwrap().run(&g, 7).unwrap();
            let b = reg.resolve(sharded).unwrap().run(&g, 7).unwrap();
            assert_eq!(a.key, b.key, "{sharded}: key must collapse");
            assert_eq!(a.states, b.states, "{sharded}: states diverged");
            assert_eq!(a.metrics, b.metrics, "{sharded}: metrics diverged");
        }
    }

    #[test]
    fn trace_param_is_execution_only() {
        let reg = default_registry();
        // Both sink kinds collapse to the bare key, composing with the
        // other execution-only params.
        assert_eq!(reg.resolve("luby?trace=profile").unwrap().key(), "luby");
        assert_eq!(reg.resolve("awake?trace=jsonl&shards=4").unwrap().key(), "awake");
        assert_eq!(
            reg.resolve("vt?id_upper=4096&trace=profile").unwrap().key(),
            "vt?id_upper=4096"
        );
        // A traced runner exposes its handle; an untraced one does not.
        let traced = reg.resolve("luby?trace=profile").unwrap();
        assert!(traced.trace().is_some());
        assert!(reg.resolve("luby").unwrap().trace().is_none());
        // Runs are byte-identical to the untraced runner — sharded and
        // faulted included — and the profile actually aggregated them.
        let g = generators::gnp(80, 0.1, &mut SmallRng::seed_from_u64(33));
        for (plain, with_trace) in [
            ("luby", "luby?trace=profile"),
            ("awake?loss=0.02&shards=4", "awake?loss=0.02&shards=4&trace=profile"),
        ] {
            let a = reg.resolve(plain).unwrap().run(&g, 7).unwrap();
            let runner = reg.resolve(with_trace).unwrap();
            let b = runner.run(&g, 7).unwrap();
            assert_eq!(a.key, b.key, "{with_trace}: key must collapse");
            assert_eq!(a.states, b.states, "{with_trace}: states diverged");
            assert_eq!(a.metrics, b.metrics, "{with_trace}: metrics diverged");
            let report = runner.trace().unwrap().report().expect("profile report");
            assert!(report.contains("1 run,"), "report should cover the run:\n{report}");
        }
    }

    #[test]
    fn zero_rate_fault_runs_are_byte_identical_to_clean_runs() {
        let g = generators::gnp(80, 0.1, &mut SmallRng::seed_from_u64(21));
        let reg = default_registry();
        for key in ["awake", "luby", "vt", "na"] {
            let clean = reg.resolve(key).unwrap().run(&g, 13).unwrap();
            let zeroed =
                reg.resolve(&format!("{key}?loss=0&crash=0&jitter=0")).unwrap().run(&g, 13).unwrap();
            assert_eq!(clean.key, zeroed.key, "{key}: keys must collapse");
            assert_eq!(clean.states, zeroed.states, "{key}: states diverged");
            assert_eq!(clean.awake_max, zeroed.awake_max);
            assert_eq!(clean.rounds, zeroed.rounds);
            assert_eq!(clean.messages, zeroed.messages);
            assert_eq!(zeroed.crashed, 0);
            assert_eq!(zeroed.faulted, 0);
        }
    }

    #[test]
    fn lossy_links_are_observable_and_runs_stay_reproducible() {
        let g = generators::gnp(96, 0.1, &mut SmallRng::seed_from_u64(30));
        let reg = default_registry();
        let lossy = reg.resolve("luby?loss=0.05").unwrap();
        let a = lossy.run(&g, 3).unwrap();
        let b = lossy.run(&g, 3).unwrap();
        assert!(a.faulted > 0, "5% loss on a dense run must drop something");
        assert_eq!(a.states, b.states, "lossy runs are deterministic per seed");
        assert_eq!(a.faulted, b.faulted);
        // Luby with message loss mis-coordinates: the detection machinery
        // (survivor-aware check with an all-alive mask = classic check)
        // must notice rather than report a clean MIS, at least for some
        // seeds. Loss never crashes nodes.
        assert_eq!(a.crashed, 0);
        let broken = (0..8u64).filter(|&s| !lossy.run(&g, s).unwrap().correct).count();
        assert!(broken > 0, "5% loss must break Luby on some of 8 seeds");
    }

    #[test]
    fn crashes_are_exempted_by_survivor_verification() {
        let g = generators::gnp(120, 0.08, &mut SmallRng::seed_from_u64(31));
        let reg = default_registry();
        // A crash window confined to the early rounds of Luby: crashed
        // nodes abort mid-protocol, survivors still finish an MIS of the
        // induced subgraph.
        let runner = reg.resolve("luby?crash=0.02&crash_until=3").unwrap();
        let mut crashed_total = 0;
        for seed in 0..6u64 {
            let r = runner.run(&g, seed).unwrap();
            crashed_total += r.crashed;
            assert!(
                r.correct,
                "seed {seed}: survivors must verify (crashed {})",
                r.crashed
            );
            let alive = r.metrics.alive();
            assert_eq!(alive.iter().filter(|&&a| !a).count(), r.crashed);
            awake_mis_core::check_mis_survivors(&g, &r.states, &alive).unwrap();
        }
        assert!(crashed_total > 0, "2% x 4 rounds x 120 nodes x 6 seeds must crash someone");
    }

    #[test]
    fn worst_vt_ids_have_the_longest_schedules() {
        let upper = 6144u64;
        let ids = worst_vt_ids(64, upper);
        assert_eq!(ids.len(), 64);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted distinct");
        let floor = ids.iter().map(|&k| vtree::wake_count(k, upper)).min().unwrap();
        // Every ID *not* selected has a schedule no longer than the
        // shortest selected one.
        for k in (1..=upper).step_by(37) {
            if !ids.contains(&k) {
                assert!(vtree::wake_count(k, upper) <= floor, "id {k} beats the selection");
            }
        }
    }
}
