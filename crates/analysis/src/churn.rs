//! Churn-epoch experiment harness and the long-running MIS service.
//!
//! A [`ChurnSpec`] describes a grid of
//! `{algorithm × family × n × churn rate × seed}`; each point boots a
//! [`MisService`] (one-shot MIS via the registry runner, normalized into
//! an embedded [`GridPoint`] through the exact code path the grid
//! harness uses, so a zero-delta churn point is byte-identical to the
//! corresponding one-shot grid point), then alternates epochs of random
//! topology deltas ([`random_batch`]) with incremental repair
//! ([`awake_mis_core::incremental::repair`]). The headline measurement
//! is **locality**: `woken_ratio` compares the nodes repair actually
//! woke against what a full recompute would have woken (every active
//! node, every epoch) — the churn-side version of the paper's awake
//! complexity argument.
//!
//! Determinism contract: identical to the grid's. Every point is a pure
//! function of its coordinates plus the spec's churn knobs;
//! [`ChurnResult::payload_json`] is byte-identical across thread
//! counts. Wall-clock (including the optional full-recompute timing
//! comparison) lives only in the `meta`/`timing` lines appended by
//! [`ChurnResult::to_json`].

use crate::document::{json_escape, list, quoted, summary_json, Document};
use crate::grid::{point_from_run, GridJob, GridPoint};
use crate::runners::AlgoResult;
use crate::spec::RunnerHandle;
use crate::stats::Summary;
use awake_mis_core::incremental::{repair, RepairConfig, SubSolution};
use awake_mis_core::{check_mis_survivors, MisState};
use graphgen::delta::{DeltaBatch, DeltaError, DynGraph};
use graphgen::{Adjacency, Graph, GraphFamily, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sleeping_congest::batch::{resolve_threads, run_batch};
use sleeping_congest::{ScratchArena, SimError};
use std::collections::HashSet;
use std::time::Instant;

/// Deterministic seed mixer (splitmix64 finalizer), used to derive
/// per-epoch batch and repair seeds from the point seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A churn experiment grid.
#[derive(Debug, Clone)]
pub struct ChurnSpec {
    /// Algorithms servicing the MIS (bootstrap and frontier repair).
    pub algorithms: Vec<RunnerHandle>,
    /// Graph families generating the initial instance.
    pub families: Vec<GraphFamily>,
    /// Initial node counts.
    pub sizes: Vec<usize>,
    /// Churn rates: effective deltas per epoch as a fraction of `n`
    /// (`rate * n` rounded; 0 is allowed and means delta-free epochs).
    pub rates: Vec<f64>,
    /// Epochs per point (delta batch + repair each).
    pub epochs: usize,
    /// Fraction of edge ops that are inserts (the rest delete).
    pub insert_frac: f64,
    /// Fraction of ops that are node churn (half removals, half
    /// additions) instead of edge ops.
    pub node_churn: f64,
    /// Seeds (innermost axis); drives instance, bootstrap, batches,
    /// and repair.
    pub seeds: Vec<u64>,
    /// Worker threads; `0` = all hardware threads. Never affects
    /// results.
    pub threads: usize,
    /// Also run a from-scratch recompute every epoch and record its
    /// wall clock in the `timing` section (doubles the work; the
    /// deterministic payload is unaffected).
    pub recompute: bool,
}

impl ChurnSpec {
    /// The grid flattened to jobs (algorithm-major, seed-minor).
    pub fn jobs(&self) -> Vec<ChurnJob> {
        let mut jobs = Vec::new();
        for algorithm in &self.algorithms {
            for &family in &self.families {
                for &n in &self.sizes {
                    for &rate in &self.rates {
                        for &seed in &self.seeds {
                            jobs.push(ChurnJob {
                                algorithm: algorithm.clone(),
                                family,
                                n,
                                rate,
                                seed,
                            });
                        }
                    }
                }
            }
        }
        jobs
    }
}

/// One churn-grid coordinate.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnJob {
    /// Algorithm servicing the MIS.
    pub algorithm: RunnerHandle,
    /// Graph family of the initial instance.
    pub family: GraphFamily,
    /// Initial node count.
    pub n: usize,
    /// Deltas per epoch as a fraction of `n`.
    pub rate: f64,
    /// Seed.
    pub seed: u64,
}

/// What one repair epoch did, as reported by [`MisService::apply`].
#[derive(Debug, Clone, Default)]
pub struct EpochReport {
    /// Epoch counter (1-based, monotonically increasing per service).
    pub epoch: u64,
    /// Effective deltas applied this epoch.
    pub deltas: u64,
    /// Nodes the repair woke.
    pub woken: u64,
    /// Frontier size (subset of `woken` that was re-solved).
    pub frontier: u64,
    /// MIS nodes evicted by inserted-edge conflicts.
    pub evicted: u64,
    /// Dominated nodes that lost their dominator.
    pub uncovered: u64,
    /// Rounds the frontier solver ran.
    pub repair_rounds: u64,
    /// Maximum per-node awake rounds in the repair.
    pub awake_max: u64,
    /// Total awake node-rounds in the repair.
    pub awake_total: u64,
    /// Messages the repair sent.
    pub messages: u64,
    /// Reseeded solver attempts beyond the first.
    pub retries: u64,
    /// Whether the repaired MIS verified on the mutated graph.
    pub correct: bool,
    /// Verification/solver error when `correct` is false.
    pub error: Option<String>,
    /// Whether every solver attempt failed and greedy completed the
    /// frontier, so the service still holds a valid MIS. Reported next
    /// to `correct = false`; never part of a payload.
    pub fallback: bool,
    /// Nodes that joined the MIS this epoch (sorted) — the service's
    /// outgoing "MIS delta" stream.
    pub joined: Vec<NodeId>,
    /// Nodes that left the MIS this epoch (sorted).
    pub left: Vec<NodeId>,
    /// Wall-clock nanoseconds the whole repair took (solver, splice,
    /// verification). Observational only: the churn payload never
    /// includes it, so payloads stay byte-identical across machines.
    pub repair_ns: u64,
    /// Wall-clock nanoseconds of the repair's local check of its
    /// candidate nodes. Observational only, like
    /// [`repair_ns`](Self::repair_ns).
    pub verify_ns: u64,
}

/// A long-running MIS service: holds a [`DynGraph`] and a valid MIS,
/// and turns incoming topology deltas into outgoing MIS deltas by
/// incremental frontier repair with a registry-selected algorithm.
#[derive(Debug, Clone)]
pub struct MisService {
    runner: RunnerHandle,
    graph: DynGraph,
    states: Vec<MisState>,
    /// `InMis` entries of `states`, kept by `apply` from the MIS delta.
    mis_size: usize,
    cfg: RepairConfig,
    seed: u64,
    epoch: u64,
}

impl MisService {
    /// Boots the service: runs `runner` one-shot on `g` and adopts its
    /// MIS. The returned [`AlgoResult`] carries the bootstrap cost;
    /// its `correct` flag should be checked before trusting the
    /// service.
    pub fn bootstrap(
        runner: RunnerHandle,
        g: Graph,
        seed: u64,
        scratch: &mut ScratchArena,
    ) -> Result<(MisService, AlgoResult), SimError> {
        let r = runner.run_with_scratch(&g, seed, scratch)?;
        let service = MisService::from_parts(runner, DynGraph::new(g), r.states.clone(), seed);
        Ok((service, r))
    }

    /// Assembles a service from an existing dynamic graph and a MIS
    /// known (by the caller) to be valid on its active subgraph.
    pub fn from_parts(
        runner: RunnerHandle,
        graph: DynGraph,
        states: Vec<MisState>,
        seed: u64,
    ) -> MisService {
        let mis_size = states.iter().filter(|&&s| s == MisState::InMis).count();
        MisService { runner, graph, states, mis_size, cfg: RepairConfig::default(), seed, epoch: 0 }
    }

    /// The current topology.
    pub fn graph(&self) -> &DynGraph {
        &self.graph
    }

    /// The current per-node MIS states.
    pub fn states(&self) -> &[MisState] {
        &self.states
    }

    /// Current MIS size (active nodes only), in O(1).
    pub fn mis_size(&self) -> usize {
        self.mis_size
    }

    /// Applies one delta batch and repairs the MIS in place, returning
    /// the epoch's metrics and MIS delta (joined/left). The cost tracks
    /// the batch, not `n`: the graph rewrites only the touched nodes'
    /// neighbor lists, and repair reads through them. Now and then a
    /// batch freezes those lists, and a background thread copies them
    /// and the old CSR into a new one while later epochs run
    /// ([`graphgen::delta`] describes the layers).
    ///
    /// # Errors
    ///
    /// Propagates [`DeltaError`] from batch validation; the service is
    /// unchanged in that case. Repair-level failures are reported via
    /// [`EpochReport::correct`]/[`EpochReport::error`] instead; the
    /// service then keeps the greedy fallback's states
    /// ([`EpochReport::fallback`]), still a valid MIS.
    pub fn apply(
        &mut self,
        batch: &DeltaBatch,
        scratch: &mut ScratchArena,
    ) -> Result<EpochReport, DeltaError> {
        let applied = self.graph.apply(batch)?;
        self.epoch += 1;
        let runner = self.runner.clone();
        let repair_t0 = std::time::Instant::now();
        let out = repair(
            &self.graph,
            self.graph.active(),
            std::mem::take(&mut self.states),
            &applied,
            mix(self.seed, self.epoch),
            &self.cfg,
            |sub, s| {
                runner
                    .run_with_scratch(sub, s, scratch)
                    .map(|r| SubSolution {
                        awake_total: r.metrics.awake_total(),
                        states: r.states,
                        rounds: r.rounds,
                        awake_max: r.awake_max,
                        messages: r.messages,
                    })
                    .map_err(|e| e.to_string())
            },
        );
        let repair_ns = repair_t0.elapsed().as_nanos() as u64;
        self.states = out.states;
        // `left` holds the evicted nodes and the removed `InMis` ones.
        self.mis_size = self.mis_size + out.joined.len() - out.left.len();
        Ok(EpochReport {
            epoch: self.epoch,
            deltas: applied.ops() as u64,
            woken: out.woken,
            frontier: out.frontier.len() as u64,
            evicted: out.evicted,
            uncovered: out.uncovered,
            repair_rounds: out.repair_rounds,
            awake_max: out.awake_max,
            awake_total: out.awake_total,
            messages: out.messages,
            retries: out.retries,
            correct: out.correct,
            error: out.error,
            fallback: out.fallback,
            joined: out.joined,
            left: out.left,
            repair_ns,
            verify_ns: out.verify_ns,
        })
    }

    /// Checks the whole state against the whole active graph. Epochs
    /// verify locally, so this is the end-to-end guard a run calls
    /// where it ends.
    ///
    /// # Errors
    ///
    /// The first violation [`check_mis_survivors`] finds.
    pub fn audit(&self) -> Result<(), String> {
        check_mis_survivors(&self.graph, &self.states, self.graph.active())
    }
}

/// Generates a random, conflict-free delta batch against the current
/// dynamic graph: `deltas` operations, `insert_frac` of the edge ops
/// inserting absent edges between active nodes, the rest deleting
/// existing edges (picked by random node + random port, so high-degree
/// nodes shed edges proportionally more often), and `node_churn` of all
/// ops churning nodes (alternating removals and additions; additions
/// are wired to two random active nodes so they are not trivially
/// isolated). Deterministic in `(graph, arguments)`. Costs `O(deltas)`
/// while every node is active; after a removal, one pass over the ids.
pub fn random_batch(
    d: &DynGraph,
    deltas: usize,
    insert_frac: f64,
    node_churn: f64,
    seed: u64,
) -> DeltaBatch {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut batch = DeltaBatch::new();
    // A uniform draw from the active ids in ascending order. While no
    // node is inactive the i-th active id is `i`, so the list is not
    // built and the draws are the same.
    let active_count = d.active_count();
    let listed: Option<Vec<NodeId>> =
        (active_count < d.n()).then(|| (0..d.n() as NodeId).filter(|&v| d.is_active(v)).collect());
    let pick = |rng: &mut SmallRng| -> NodeId {
        let i = rng.gen_range(0..active_count);
        listed.as_ref().map_or(i as NodeId, |ids| ids[i])
    };
    // Guards: edges touched this batch (insert/delete conflicts), node
    // ids an inserted edge uses (cannot be removed by the same batch),
    // and nodes already removed (no further ops may touch them).
    let mut touched: HashSet<(NodeId, NodeId)> = HashSet::new();
    let mut pinned: HashSet<NodeId> = HashSet::new();
    let mut removed: HashSet<NodeId> = HashSet::new();
    let mut remove_next = true;
    for _ in 0..deltas {
        // A few placement attempts per op; skip the op if the random
        // draws keep colliding (dense graph, tiny graph, …).
        for _attempt in 0..8 {
            let roll: f64 = rng.gen();
            if roll < node_churn {
                if remove_next {
                    if active_count == 0 {
                        continue;
                    }
                    let v = pick(&mut rng);
                    if removed.contains(&v) || pinned.contains(&v) {
                        continue;
                    }
                    batch.remove_node(v);
                    removed.insert(v);
                    remove_next = false;
                } else {
                    let id = (d.n() + batch.added_count()) as NodeId;
                    batch.add_nodes(1);
                    for _ in 0..2 {
                        let w = pick(&mut rng);
                        if !removed.contains(&w) && touched.insert((w.min(id), w.max(id))) {
                            batch.insert_edge(id, w);
                            pinned.insert(w);
                        }
                    }
                    remove_next = true;
                }
                break;
            } else if roll < node_churn + (1.0 - node_churn) * insert_frac {
                if active_count < 2 {
                    break;
                }
                let a = pick(&mut rng);
                let b = pick(&mut rng);
                if a == b
                    || d.has_edge(a, b)
                    || removed.contains(&a)
                    || removed.contains(&b)
                    || touched.contains(&(a.min(b), a.max(b)))
                {
                    continue;
                }
                batch.insert_edge(a, b);
                touched.insert((a.min(b), a.max(b)));
                pinned.insert(a);
                pinned.insert(b);
                break;
            } else {
                if active_count == 0 {
                    break;
                }
                let v = pick(&mut rng);
                if d.degree(v) == 0 || removed.contains(&v) {
                    continue;
                }
                let u = d.neighbors(v)[rng.gen_range(0..d.degree(v))];
                if removed.contains(&u) || !touched.insert((v.min(u), v.max(u))) {
                    continue;
                }
                batch.delete_edge(v, u);
                break;
            }
        }
    }
    batch
}

/// Normalized measurements of one churn point: a bootstrap plus
/// `epochs` delta/repair cycles.
#[derive(Debug, Clone)]
pub struct ChurnPoint {
    /// The coordinates this point was measured at.
    pub job: ChurnJob,
    /// Actual node count of the generated initial instance.
    pub nodes: usize,
    /// The one-shot bootstrap run, normalized exactly like a grid
    /// point (same code path — a zero-delta churn point embeds a
    /// byte-identical copy of the corresponding grid point).
    pub bootstrap: GridPoint,
    /// Epochs actually run.
    pub epochs: u64,
    /// Total effective deltas applied.
    pub deltas: u64,
    /// Total nodes woken by repairs.
    pub woken: u64,
    /// Nodes a full recompute would have woken: the active node count,
    /// summed over epochs.
    pub woken_full: u64,
    /// `woken / woken_full` — the locality headline (0 when no epochs
    /// ran).
    pub woken_ratio: f64,
    /// Total MIS evictions from inserted-edge conflicts.
    pub evicted: u64,
    /// Total dominated nodes that lost their dominator.
    pub uncovered: u64,
    /// Total frontier-solver rounds.
    pub repair_rounds: u64,
    /// Maximum per-node awake rounds over all repairs.
    pub awake_max: u64,
    /// Total awake node-rounds spent repairing, per effective delta
    /// (0 when no deltas were applied).
    pub awake_per_delta: f64,
    /// Total MIS-delta stream volume (nodes joined + left).
    pub mis_deltas: u64,
    /// Total messages sent by repairs.
    pub messages: u64,
    /// Total reseeded solver retries.
    pub retries: u64,
    /// Final MIS size.
    pub mis_size: usize,
    /// Final active node count.
    pub active_nodes: usize,
    /// Bootstrap and every epoch verified correct.
    pub correct: bool,
    /// Wall clock of the service path (bootstrap + batches + repairs),
    /// nanoseconds; `timing` section only.
    pub elapsed_ns: u64,
    /// Wall clock of per-epoch full recomputes when
    /// [`ChurnSpec::recompute`] is set (0 otherwise); `timing` only.
    pub recompute_ns: u64,
}

/// Aggregates over the seed axis for one `{algorithm × family × n ×
/// rate}`.
#[derive(Debug, Clone)]
pub struct ChurnCell {
    /// Algorithm of this cell.
    pub algorithm: RunnerHandle,
    /// Graph family of this cell.
    pub family: GraphFamily,
    /// Initial node count of this cell.
    pub n: usize,
    /// Churn rate of this cell.
    pub rate: f64,
    /// Seeds aggregated.
    pub runs: usize,
    /// Total effective deltas across seeds.
    pub deltas: u64,
    /// Summary of the per-seed woken ratio (repair vs full recompute).
    pub woken_ratio: Summary,
    /// Summary of awake node-rounds per delta.
    pub awake_per_delta: Summary,
    /// Summary of total repair rounds.
    pub repair_rounds: Summary,
    /// Total reseeded solver retries across seeds.
    pub retries: u64,
    /// Whether every seed's bootstrap and every epoch verified.
    pub all_correct: bool,
}

/// The outcome of [`run_churn`].
#[derive(Debug, Clone)]
pub struct ChurnResult {
    /// The spec that ran.
    pub spec: ChurnSpec,
    /// Per-run measurements, in grid order.
    pub points: Vec<ChurnPoint>,
    /// Per-cell aggregates, in grid order.
    pub cells: Vec<ChurnCell>,
}

/// Runs one churn point on a caller-provided scratch.
pub fn run_churn_point(
    job: &ChurnJob,
    spec: &ChurnSpec,
    scratch: &mut ScratchArena,
) -> ChurnPoint {
    let start = Instant::now();
    let g = job.family.generate(job.n, job.seed);
    let nodes = g.n();
    let grid_job = GridJob {
        algorithm: job.algorithm.clone(),
        family: job.family,
        n: job.n,
        seed: job.seed,
    };
    let res = job.algorithm.run_with_scratch(&g, job.seed, scratch);
    let (bootstrap, result) = point_from_run(&grid_job, nodes, res);

    let mut point = ChurnPoint {
        job: job.clone(),
        nodes,
        epochs: 0,
        deltas: 0,
        woken: 0,
        woken_full: 0,
        woken_ratio: 0.0,
        evicted: 0,
        uncovered: 0,
        repair_rounds: 0,
        awake_max: 0,
        awake_per_delta: 0.0,
        mis_deltas: 0,
        messages: 0,
        retries: 0,
        mis_size: bootstrap.mis_size,
        active_nodes: nodes,
        correct: bootstrap.correct,
        elapsed_ns: 0,
        recompute_ns: 0,
        bootstrap,
    };
    let Some(r) = result else {
        point.elapsed_ns = start.elapsed().as_nanos() as u64;
        return point;
    };
    if !point.correct {
        // Can't service from an invalid MIS; report the bootstrap and
        // stop.
        point.elapsed_ns = start.elapsed().as_nanos() as u64;
        return point;
    }

    let mut service =
        MisService::from_parts(job.algorithm.clone(), DynGraph::new(g), r.states, job.seed);
    let deltas_per_epoch = (job.rate * nodes as f64).round() as usize;
    let mut awake_total = 0u64;
    let mut recompute_ns = 0u64;
    for epoch in 0..spec.epochs {
        let batch = random_batch(
            service.graph(),
            deltas_per_epoch,
            spec.insert_frac,
            spec.node_churn,
            mix(job.seed, 0x10_0000 + epoch as u64),
        );
        let rep = match service.apply(&batch, scratch) {
            Ok(rep) => rep,
            Err(e) => {
                point.correct = false;
                point.bootstrap.sim_error = Some(format!("epoch {epoch}: {e}"));
                break;
            }
        };
        point.epochs += 1;
        point.deltas += rep.deltas;
        point.woken += rep.woken;
        point.woken_full += service.graph().active_count() as u64;
        point.evicted += rep.evicted;
        point.uncovered += rep.uncovered;
        point.repair_rounds += rep.repair_rounds;
        point.awake_max = point.awake_max.max(rep.awake_max);
        point.mis_deltas += (rep.joined.len() + rep.left.len()) as u64;
        point.messages += rep.messages;
        point.retries += rep.retries;
        awake_total += rep.awake_total;
        point.correct &= rep.correct;

        if spec.recompute {
            // Time what a from-scratch run on the current active graph
            // costs; the result is discarded and the payload unaffected.
            let t = Instant::now();
            let keep: Vec<NodeId> = (0..service.graph().n() as NodeId)
                .filter(|&v| service.graph().is_active(v))
                .collect();
            let (sub, _) = service.graph().induced(&keep);
            let _ = job.algorithm.run_with_scratch(
                &sub,
                mix(job.seed, 0x20_0000 + epoch as u64),
                scratch,
            );
            recompute_ns += t.elapsed().as_nanos() as u64;
        }
    }
    // Epochs verify locally; the global audit is the end-to-end guard.
    point.correct &= service.audit().is_ok();
    if point.woken_full > 0 {
        point.woken_ratio = point.woken as f64 / point.woken_full as f64;
    }
    if point.deltas > 0 {
        point.awake_per_delta = awake_total as f64 / point.deltas as f64;
    }
    point.mis_size = service.mis_size();
    point.active_nodes = service.graph().active_count();
    point.recompute_ns = recompute_ns;
    point.elapsed_ns = start.elapsed().as_nanos() as u64 - recompute_ns;
    point
}

/// Runs the whole churn grid, fanning jobs over `spec.threads` workers
/// with per-worker scratch reuse. Points and cells come back in grid
/// order and — wall-clock fields apart — bit-identical for every
/// thread count.
pub fn run_churn(spec: &ChurnSpec) -> ChurnResult {
    let jobs = spec.jobs();
    let threads = resolve_threads(spec.threads);
    let points = run_batch(&jobs, threads, |_| ScratchArena::new(), |scratch, _i, job| {
        run_churn_point(job, spec, scratch)
    });
    let cells = aggregate(spec, &points);
    ChurnResult { spec: spec.clone(), points, cells }
}

fn aggregate(spec: &ChurnSpec, points: &[ChurnPoint]) -> Vec<ChurnCell> {
    let runs = spec.seeds.len();
    if runs == 0 {
        return Vec::new();
    }
    points
        .chunks(runs)
        .map(|chunk| {
            let head = &chunk[0].job;
            let woken_ratio: Vec<f64> = chunk.iter().map(|p| p.woken_ratio).collect();
            let awake_per_delta: Vec<f64> = chunk.iter().map(|p| p.awake_per_delta).collect();
            let repair_rounds: Vec<u64> = chunk.iter().map(|p| p.repair_rounds).collect();
            ChurnCell {
                algorithm: head.algorithm.clone(),
                family: head.family,
                n: head.n,
                rate: head.rate,
                runs,
                deltas: chunk.iter().map(|p| p.deltas).sum(),
                woken_ratio: Summary::of(&woken_ratio),
                awake_per_delta: Summary::of(&awake_per_delta),
                repair_rounds: Summary::of_u64(&repair_rounds),
                retries: chunk.iter().map(|p| p.retries).sum(),
                all_correct: chunk.iter().all(|p| p.correct),
            }
        })
        .collect()
}

impl ChurnPoint {
    /// The point's deterministic JSON object — one line of the
    /// `points` section of `BENCH_churn.json`. The embedded
    /// `bootstrap` object reuses the grid point format verbatim.
    pub fn json(&self) -> String {
        format!(
            "{{\"algorithm\":\"{}\",\"family\":\"{}\",\"n\":{},\"rate\":{},\"seed\":{},\
             \"nodes\":{},\"bootstrap\":{},\"epochs\":{},\"deltas\":{},\"woken\":{},\
             \"woken_full\":{},\"woken_ratio\":{},\"evicted\":{},\"uncovered\":{},\
             \"repair_rounds\":{},\"awake_max\":{},\"awake_per_delta\":{},\"mis_deltas\":{},\
             \"messages\":{},\"retries\":{},\"mis_size\":{},\"active_nodes\":{},\"correct\":{}}}",
            json_escape(self.job.algorithm.key()),
            self.job.family.key(),
            self.job.n,
            self.job.rate,
            self.job.seed,
            self.nodes,
            self.bootstrap.json(),
            self.epochs,
            self.deltas,
            self.woken,
            self.woken_full,
            self.woken_ratio,
            self.evicted,
            self.uncovered,
            self.repair_rounds,
            self.awake_max,
            self.awake_per_delta,
            self.mis_deltas,
            self.messages,
            self.retries,
            self.mis_size,
            self.active_nodes,
            self.correct,
        )
    }
}

impl ChurnCell {
    fn json(&self) -> String {
        format!(
            "{{\"algorithm\":\"{}\",\"family\":\"{}\",\"n\":{},\"rate\":{},\"runs\":{},\
             \"deltas\":{},\"woken_ratio\":{},\"awake_per_delta\":{},\"repair_rounds\":{},\
             \"retries\":{},\"all_correct\":{}}}",
            json_escape(self.algorithm.key()),
            self.family.key(),
            self.n,
            self.rate,
            self.runs,
            self.deltas,
            summary_json(&self.woken_ratio),
            summary_json(&self.awake_per_delta),
            summary_json(&self.repair_rounds),
            self.retries,
            self.all_correct,
        )
    }
}

impl Document for ChurnResult {
    const SCHEMA: &'static str = "awake-mis/bench-churn/v1";
    const FILE: &'static str = "BENCH_churn.json";
    const KEY_FIELDS: &'static [&'static str] = &["algorithm", "family", "n", "rate"];

    fn spec_json(&self) -> String {
        let spec = &self.spec;
        format!(
            "\"algorithms\": [{}], \"families\": [{}], \"sizes\": [{}], \"rates\": [{}], \
             \"epochs\": {}, \"insert_frac\": {}, \"node_churn\": {}, \"seeds\": [{}]",
            quoted(spec.algorithms.iter().map(RunnerHandle::key)),
            quoted(spec.families.iter().map(|f| f.key())),
            list(&spec.sizes),
            list(&spec.rates),
            spec.epochs,
            spec.insert_frac,
            spec.node_churn,
            list(&spec.seeds),
        )
    }

    fn cell_lines(&self) -> Vec<String> {
        self.cells.iter().map(ChurnCell::json).collect()
    }

    fn point_lines(&self) -> Vec<String> {
        self.points.iter().map(ChurnPoint::json).collect()
    }

    /// `recompute_ns` is each point's wall clock of its per-epoch full
    /// recomputes (0 without [`ChurnSpec::recompute`]).
    fn timing(&self) -> Vec<(&'static str, Vec<u64>)> {
        vec![
            ("elapsed_ns", self.points.iter().map(|p| p.elapsed_ns).collect()),
            ("recompute_ns", self.points.iter().map(|p| p.recompute_ns).collect()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::default_registry;

    fn tiny_spec(threads: usize) -> ChurnSpec {
        ChurnSpec {
            algorithms: default_registry().resolve_list("luby,vt").unwrap(),
            families: vec![GraphFamily::Er, GraphFamily::Tree],
            sizes: vec![48],
            rates: vec![0.0, 0.05],
            epochs: 4,
            insert_frac: 0.5,
            node_churn: 0.1,
            seeds: vec![1, 2],
            threads,
            recompute: false,
        }
    }

    #[test]
    fn churn_grid_shape_and_correctness() {
        let spec = tiny_spec(1);
        let result = run_churn(&spec);
        // algorithms × families × sizes × rates (× seeds for points).
        let cells = spec.algorithms.len() * spec.families.len() * spec.sizes.len()
            * spec.rates.len();
        assert_eq!(result.points.len(), cells * spec.seeds.len());
        assert_eq!(result.cells.len(), cells);
        assert!(result.cells.iter().all(|c| c.all_correct), "every epoch must verify");
        for p in &result.points {
            assert_eq!(p.epochs, 4);
            if p.job.rate == 0.0 {
                assert_eq!(p.deltas, 0, "zero rate must apply zero deltas");
                assert_eq!(p.woken, 0, "zero deltas must wake nobody");
            } else {
                assert!(p.deltas > 0);
                assert!(
                    p.woken_ratio < 1.0,
                    "repair must beat full recompute at 5% churn: {}",
                    p.woken_ratio
                );
            }
        }
    }

    #[test]
    fn payload_is_deterministic_and_well_formed() {
        let spec = tiny_spec(1);
        let a = run_churn(&spec).payload_json();
        let b = run_churn(&spec).payload_json();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"awake-mis/bench-churn/v1\""));
        assert!(a.contains("\"woken_ratio\""));
        assert!(a.contains("\"bootstrap\":{\"algorithm\""));
        assert!(!a.contains("elapsed_ns"));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn service_emits_mis_deltas() {
        let g = GraphFamily::Er.generate(64, 3);
        let runner = default_registry().resolve("luby").unwrap();
        let mut scratch = ScratchArena::new();
        let (mut service, r) =
            MisService::bootstrap(runner, g, 3, &mut scratch).unwrap();
        assert!(r.correct);
        let before = service.mis_size();
        let batch = random_batch(service.graph(), 12, 0.5, 0.2, 99);
        assert!(!batch.is_empty());
        let rep = service.apply(&batch, &mut scratch).unwrap();
        assert!(rep.correct, "{:?}", rep.error);
        check_mis_survivors(service.graph().graph(), service.states(), service.graph().active())
            .unwrap();
        let after = service.mis_size();
        assert_eq!(
            after as i64 - before as i64,
            rep.joined.len() as i64 - rep.left.len() as i64,
            "joined/left must reconcile the MIS size"
        );
    }

    #[test]
    fn rejected_batch_leaves_the_service_unchanged() {
        let g = GraphFamily::Er.generate(64, 3);
        let runner = default_registry().resolve("luby").unwrap();
        let mut scratch = ScratchArena::new();
        let (mut service, _) = MisService::bootstrap(runner, g, 3, &mut scratch).unwrap();
        let (graph, states) = (service.graph().clone(), service.states().to_vec());
        let mut batch = DeltaBatch::new();
        batch.delete_edge(0, 1).insert_edge(5, 5);
        assert!(service.apply(&batch, &mut scratch).is_err());
        assert_eq!(service.graph(), &graph);
        assert_eq!(service.states(), states.as_slice());
        // The next valid batch is epoch 1 and repairs the intact state.
        let batch = random_batch(service.graph(), 8, 0.5, 0.2, 7);
        let rep = service.apply(&batch, &mut scratch).unwrap();
        assert_eq!(rep.epoch, 1);
        assert!(rep.correct, "{:?}", rep.error);
        service.audit().unwrap();
    }

    #[test]
    fn service_audits_across_compactions() {
        let g = GraphFamily::Er.generate(64, 5);
        let runner = default_registry().resolve("luby").unwrap();
        let mut scratch = ScratchArena::new();
        let (mut service, _) = MisService::bootstrap(runner, g, 5, &mut scratch).unwrap();
        let (mut freezes, mut standing, mut during_builds) = (0, 0, 0);
        let mut froze = false;
        // Freezes depend on the batch stream alone, so the run always
        // ends past the batch after its last freeze.
        let mut epoch = 0;
        while epoch < 60 || froze {
            let before = service.graph().overlay_len();
            during_builds += usize::from(service.graph().frozen_len() > 0);
            let batch = random_batch(service.graph(), 4, 0.5, 0.2, 100 + epoch);
            let rep = service.apply(&batch, &mut scratch).unwrap();
            assert!(rep.correct, "epoch {epoch}: {:?}", rep.error);
            // Through the overlay, then against the rebuilt CSR.
            service.audit().unwrap();
            let in_mis = service.states().iter().filter(|&&s| s == MisState::InMis).count();
            assert_eq!(service.mis_size(), in_mis, "epoch {epoch}: the kept MIS size drifted");
            let d = service.graph();
            check_mis_survivors(d.graph(), service.states(), d.active()).unwrap();
            // The live overlay only grows between freezes, and a freeze
            // leaves a frozen layer for the next batch to read through.
            froze = d.overlay_len() < before;
            freezes += usize::from(froze);
            standing += usize::from(d.overlay_len() > 0);
            epoch += 1;
        }
        assert!(freezes >= 3, "only {freezes} freezes");
        assert!(standing >= 10, "the overlay stood after only {standing} epochs");
        assert!(
            during_builds >= freezes,
            "{during_builds} epochs ran on a frozen layer across {freezes} freezes"
        );
    }

    #[test]
    fn random_batch_is_deterministic() {
        let d = DynGraph::new(GraphFamily::Er.generate(32, 5));
        let a = random_batch(&d, 10, 0.5, 0.1, 42);
        let b = random_batch(&d, 10, 0.5, 0.1, 42);
        assert_eq!(a, b);
        let c = random_batch(&d, 10, 0.5, 0.1, 43);
        assert_ne!(a, c, "different seeds should produce different batches");
    }
}
