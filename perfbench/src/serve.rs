//! The serve workloads: one client in a closed loop against a
//! `MisService` on ER(d=8), n = 10⁶, bootstrapped with Luby. Before each
//! epoch the client builds a random batch (untimed), then the epoch is
//! the timed `MisService::apply`.

use crate::grid::{csr_mib, record_outcome, same};
use crate::profile::{self, PhaseProfile};
use crate::stats::{median, mix, ms, tail};
use crate::{machine, Args, Outcome};
use analysis::churn::{random_batch, EpochReport, MisService};
use analysis::spec::{default_registry, DynRunner, RunnerHandle};
use analysis::AlgoResult;
use awake_mis_core::check_mis_survivors;
use graphgen::{DeltaBatch, DeltaError, DynGraph, Graph, GraphFamily};
use sleeping_congest::{ScratchArena, SimError, TraceHandle};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct ServeCfg {
    pub name: &'static str,
    /// Ops requested per batch.
    pub ops: usize,
    /// Share of ops that add or remove a node.
    pub node_churn: f64,
}

pub const SERVE: ServeCfg = ServeCfg {
    name: "serve-er-1m",
    ops: 2_000,
    node_churn: 0.0,
};
pub const BULK: ServeCfg = ServeCfg {
    name: "serve-er-1m-bulk",
    ops: 20_000,
    node_churn: 0.1,
};

const N: usize = 1_000_000;
const ALGO: &str = "luby";
const INSERT_FRAC: f64 = 0.5;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed epochs whose deterministic counts every run must repeat; a run
/// makes at least this many even when `--seconds` has run out.
const AUDIT_EPOCHS: usize = 40;

/// The batch of epoch `epoch` (0 is the set-up's warm-up epoch).
fn batch(cfg: &ServeCfg, graph: &DynGraph, seed: u64, epoch: u64) -> DeltaBatch {
    random_batch(
        graph,
        cfg.ops,
        INSERT_FRAC,
        cfg.node_churn,
        mix(seed, epoch),
    )
}

fn bootstrap(
    cfg: &ServeCfg,
    runner: RunnerHandle,
    g: Graph,
    seed: u64,
    scratch: &mut ScratchArena,
    out: &mut Outcome,
) -> Option<(MisService, AlgoResult)> {
    let booted = MisService::bootstrap(runner, g, seed, scratch);
    match booted {
        Ok((svc, r)) => {
            let verdict = if r.correct {
                Ok(())
            } else {
                Err(format!("{} bootstrap did not verify", cfg.name))
            };
            out.check("bootstrap", verdict);
            Some((svc, r))
        }
        Err(e) => {
            out.check("bootstrap", Err(e.to_string()));
            None
        }
    }
}

fn boot_signature(r: &AlgoResult) -> String {
    format!(
        "boot awake_max={} rounds={} messages={} mis={}",
        r.awake_max, r.rounds, r.messages, r.mis_size
    )
}

fn epoch_signature(r: &EpochReport) -> String {
    format!(
        "epoch {} deltas={} woken={} frontier={} evicted={} uncovered={} retries={} awake_max={} \
         awake_total={} messages={} joined={} left={} correct={}",
        r.epoch,
        r.deltas,
        r.woken,
        r.frontier,
        r.evicted,
        r.uncovered,
        r.retries,
        r.awake_max,
        r.awake_total,
        r.messages,
        r.joined.len(),
        r.left.len(),
        r.correct
    )
}

/// Counts one epoch's result; a rejected batch or an MIS that failed
/// verification is a failed op.
fn check_epoch(out: &mut Outcome, res: Result<EpochReport, DeltaError>) -> Option<EpochReport> {
    match res {
        Ok(r) => {
            let verdict = match (&r.error, r.correct) {
                (_, true) => Ok(()),
                (Some(e), false) => Err(format!("epoch {}: {e}", r.epoch)),
                (None, false) => Err(format!("epoch {}: MIS did not verify", r.epoch)),
            };
            out.check("epoch", verdict);
            Some(r)
        }
        Err(e) => {
            out.check("epoch", Err(e.to_string()));
            None
        }
    }
}

/// Deterministic counts over the first [`AUDIT_EPOCHS`] timed epochs.
#[derive(Default)]
struct Window {
    signatures: Vec<String>,
    epochs: u64,
    requested: u64,
    deltas: u64,
    woken: u64,
    frontier: u64,
    evicted: u64,
    uncovered: u64,
    retries: u64,
    first_try: u64,
    awake_max: u64,
    awake_avg: f64,
    mis_changes: u64,
    active: u64,
}

impl Window {
    fn add(&mut self, r: &EpochReport, requested: usize, active: usize) {
        if self.signatures.len() >= AUDIT_EPOCHS {
            return;
        }
        self.signatures.push(epoch_signature(r));
        self.epochs += 1;
        self.requested += requested as u64;
        self.deltas += r.deltas;
        self.woken += r.woken;
        self.frontier += r.frontier;
        self.evicted += r.evicted;
        self.uncovered += r.uncovered;
        self.retries += r.retries;
        self.first_try += u64::from(r.retries == 0);
        self.awake_max += r.awake_max;
        self.awake_avg += r.awake_total as f64 / active as f64;
        self.mis_changes += (r.joined.len() + r.left.len()) as u64;
        self.active += active as u64;
    }

    fn mean(&self, total: f64) -> f64 {
        total / self.epochs.max(1) as f64
    }

    fn woken_per_delta(&self) -> f64 {
        self.woken as f64 / self.deltas.max(1) as f64
    }
}

/// The end-of-run audit: the service's states must be an MIS of its
/// active graph, checked independently of the repair's own verification.
fn audit(out: &mut Outcome, svc: &MisService) {
    let g = svc.graph();
    out.check(
        "final audit",
        check_mis_survivors(g.graph(), svc.states(), g.active()),
    );
}

pub fn run(cfg: &ServeCfg, args: &Args) -> Outcome {
    if args.trace {
        traced(cfg, args)
    } else {
        untraced(cfg, args)
    }
}

fn untraced(cfg: &ServeCfg, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let runner = default_registry().resolve(ALGO).expect("luby is a builtin");
    let mut setups = Vec::new();
    let mut warm_ms = Vec::new();
    let mut first_setup: Option<String> = None;
    let mut ready = None;
    for _ in 0..SETUPS {
        // Free the previous set-up before building the next.
        drop(ready.take());
        let mut scratch = ScratchArena::new();
        let t = Instant::now();
        let g = GraphFamily::Er.generate(N, args.seed);
        let Some((mut svc, r)) =
            bootstrap(cfg, runner.clone(), g, args.seed, &mut scratch, &mut out)
        else {
            return out;
        };
        let boot = t.elapsed();
        let b = batch(cfg, svc.graph(), args.seed, 0);
        let t = Instant::now();
        let warm = svc.apply(&b, &mut scratch);
        let warm_time = t.elapsed();
        let Some(warm) = check_epoch(&mut out, warm) else {
            return out;
        };
        setups.push((boot + warm_time).as_secs_f64());
        warm_ms.push(ms(warm_time));
        let sig = format!("{}; warm-up {}", boot_signature(&r), epoch_signature(&warm));
        match &first_setup {
            None => first_setup = Some(sig),
            Some(first) => out.check("set-up repeat", same(first, &sig)),
        }
        ready = Some((svc, scratch));
    }
    let (mut svc, mut scratch) = ready.expect("SETUPS > 0");

    let mut walls = Vec::new();
    let mut deltas = 0u64;
    let mut window = Window::default();
    let start = Instant::now();
    let mut epoch = 1;
    while (epoch as usize) <= AUDIT_EPOCHS || start.elapsed().as_secs_f64() < args.seconds {
        let b = batch(cfg, svc.graph(), args.seed, epoch);
        let t = Instant::now();
        let res = svc.apply(&b, &mut scratch);
        let wall = t.elapsed();
        if let Some(r) = check_epoch(&mut out, res) {
            walls.push(ms(wall));
            deltas += r.deltas;
            window.add(&r, cfg.ops, svc.graph().active_count());
        }
        epoch += 1;
    }
    audit(&mut out, &svc);

    let apply_s: f64 = walls.iter().sum::<f64>() / 1e3;
    let p50 = median(&walls);
    let (tail_ms, tail_pct) = tail(&walls);
    out.set("setup_s", median(&setups));
    out.set("ops_per_s", deltas as f64 / apply_s);
    out.set("op_ms_p50", p50);
    out.set("op_ms_tail", tail_ms);
    out.set("awake_max_mean", window.mean(window.awake_max as f64));
    out.set("awake_avg_mean", window.mean(window.awake_avg));

    let setups_s: Vec<String> = setups.iter().map(|s| format!("{s:.3}")).collect();
    out.note(format!(
        "setup_s samples [{}] (generate + bootstrap + warm-up epoch)",
        setups_s.join(", ")
    ));
    out.note(format!(
        "deltas_per_s {:.1} ({deltas} effective deltas in {} epochs over {apply_s:.2} s of apply)",
        deltas as f64 / apply_s,
        walls.len()
    ));
    out.note(format!(
        "epoch_ms_p50 {p50:.2}; epoch_ms_tail {tail_ms:.2} = p{tail_pct:.1} of {} epochs",
        walls.len()
    ));
    out.note(format!(
        "first-op effect: warm-up epochs {warm_ms:.1?} ms vs timed p50 {p50:.1} ms"
    ));
    out.note(format!(
        "woken_per_delta {} over the first {} epochs; fail_frac {}",
        window.woken_per_delta(),
        window.epochs,
        out.failed as f64 / out.attempted.max(1) as f64
    ));
    let record = format!(
        "{}\n{}",
        first_setup.unwrap_or_default(),
        window.signatures.join("\n")
    );
    record_outcome(
        &mut out,
        machine::check_record(cfg.name, args.seed, &record),
    );
    out
}

/// Shared between a [`Timed`] runner and the benchmark.
#[derive(Default)]
struct Clock {
    ns: AtomicU64,
}

impl Clock {
    /// Time spent in the runner since the last call.
    fn take(&self) -> Duration {
        // A statistic read by the one thread that also records it.
        Duration::from_nanos(self.ns.swap(0, Ordering::Relaxed))
    }
}

/// A registry runner wrapped so the benchmark can time every call the
/// service makes into it.
struct Timed {
    inner: RunnerHandle,
    clock: Arc<Clock>,
}

impl DynRunner for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn key(&self) -> &str {
        self.inner.key()
    }

    fn run_on(
        &self,
        g: &Graph,
        seed: u64,
        scratch: &mut ScratchArena,
    ) -> Result<AlgoResult, SimError> {
        let t = Instant::now();
        let r = self.inner.run_with_scratch(g, seed, scratch);
        self.clock
            .ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }

    fn trace(&self) -> Option<&TraceHandle> {
        self.inner.trace()
    }
}

/// Per-epoch layer samples of a traced run, in milliseconds.
#[derive(Default)]
struct Samples {
    untraced: Vec<f64>,
    traced: Vec<f64>,
    apply: Vec<f64>,
    verify: Vec<f64>,
    solve: Vec<f64>,
    incremental_self: Vec<f64>,
    churn_self: Vec<f64>,
    batchgen: Vec<f64>,
}

/// Runs two services in lock step on the same batches: `a` on the plain
/// registry runner and `b` on a [`Timed`] wrapper around a profiled one,
/// whose bootstrap is traced. A replica `DynGraph` applies each batch on
/// its own.
fn traced(cfg: &ServeCfg, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let registry = default_registry();
    let plain = registry.resolve(ALGO).expect("luby is a builtin");
    let profiled = registry
        .resolve(&format!("{ALGO}?trace=profile"))
        .expect("trace=profile resolves");
    let clock = Arc::new(Clock::default());
    let wrapped = RunnerHandle::new(Timed {
        inner: profiled.clone(),
        clock: clock.clone(),
    });

    let t = Instant::now();
    let g = GraphFamily::Er.generate(N, args.seed);
    let generate_ms = ms(t.elapsed());
    let mut clone_ms = Vec::new();
    let mut copy = || {
        let t = Instant::now();
        let c = g.clone();
        clone_ms.push(ms(t.elapsed()));
        c
    };
    let (for_plain, for_replica) = (copy(), copy());
    let csr = csr_mib(&g);

    let mut scratch_a = ScratchArena::new();
    let mut scratch_b = ScratchArena::new();
    let Some((mut a, ra)) = bootstrap(cfg, plain, for_plain, args.seed, &mut scratch_a, &mut out)
    else {
        return out;
    };
    let Some((mut b, rb)) = bootstrap(cfg, wrapped, g, args.seed, &mut scratch_b, &mut out) else {
        return out;
    };
    let boot_run_ms = ms(clock.take());
    let report = profiled
        .trace()
        .and_then(|h| h.report())
        .unwrap_or_default();
    let boot_profile = match profile::parse(&report) {
        Ok(p) => p,
        Err(e) => {
            out.check("phase profile", Err(e));
            PhaseProfile::default()
        }
    };
    let t = Instant::now();
    let verdict = check_mis_survivors(b.graph().graph(), b.states(), b.graph().active());
    let boot_verify_ms = ms(t.elapsed());
    out.check("bootstrap verification", verdict);
    out.check(
        "traced bootstrap matches untraced",
        same(&boot_signature(&ra), &boot_signature(&rb)),
    );
    let mut replica = DynGraph::new(for_replica);

    let mut s = Samples::default();
    let mut window = Window::default();
    let mut first_setup = String::new();
    let start = Instant::now();
    let mut epoch = 0;
    while (epoch as usize) <= AUDIT_EPOCHS || start.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let batch = batch(cfg, b.graph(), args.seed, epoch);
        let batchgen_ms = ms(t.elapsed());
        // Alternate which service goes first, so neither always runs
        // on caches the other warmed.
        let apply = |svc: &mut MisService, scratch: &mut ScratchArena| {
            let t = Instant::now();
            let res = svc.apply(&batch, scratch);
            (res, ms(t.elapsed()))
        };
        let ((res_a, wall_a), (res_b, wall_b)) = if epoch % 2 == 0 {
            let ra = apply(&mut a, &mut scratch_a);
            clock.take();
            (ra, apply(&mut b, &mut scratch_b))
        } else {
            clock.take();
            let rb = apply(&mut b, &mut scratch_b);
            (apply(&mut a, &mut scratch_a), rb)
        };
        let solve_ms = ms(clock.take());
        let t = Instant::now();
        let replica_res = replica.apply(&batch);
        let apply_ms = ms(t.elapsed());
        out.check(
            "replica apply",
            replica_res.map(|_| ()).map_err(|e| e.to_string()),
        );
        let (Some(rep_a), Some(rep_b)) =
            (check_epoch(&mut out, res_a), check_epoch(&mut out, res_b))
        else {
            epoch += 1;
            continue;
        };
        out.check(
            "traced epoch matches untraced",
            same(&epoch_signature(&rep_a), &epoch_signature(&rep_b)),
        );
        if epoch == 0 {
            first_setup = format!(
                "{}; warm-up {}",
                boot_signature(&rb),
                epoch_signature(&rep_b)
            );
        } else {
            window.add(&rep_b, cfg.ops, b.graph().active_count());
            let (repair, verify) = (rep_b.repair_ns as f64 / 1e6, rep_b.verify_ns as f64 / 1e6);
            s.untraced.push(wall_a);
            s.traced.push(wall_b);
            s.apply.push(apply_ms);
            s.verify.push(verify);
            s.solve.push(solve_ms);
            s.incremental_self.push(repair - solve_ms - verify);
            s.churn_self.push(wall_b - repair - apply_ms);
            s.batchgen.push(batchgen_ms);
        }
        epoch += 1;
    }
    audit(&mut out, &b);

    out.set("graphs.generators.generate_ms", generate_ms);
    out.set("graphs.graph.clone_ms", median(&clone_ms));
    out.set("graphs.graph.csr_mib", csr);
    out.set("graphs.delta.apply_ms", median(&s.apply));
    out.set("graphs.delta.effective_ops", window.deltas as f64);
    let p = &boot_profile;
    out.set("sim.engine.send_ms", p.phase_ms[0]);
    out.set("sim.engine.merge_ms", p.phase_ms[1]);
    out.set("sim.engine.receive_ms", p.phase_ms[2]);
    out.set("sim.engine.bookkeeping_ms", p.phase_ms[3]);
    out.set("sim.engine.round_us_p50", p.round_us());
    out.set("sim.engine.active_rounds", p.active_rounds as f64);
    out.set("sim.engine.messages", rb.messages as f64);
    out.set("sim.engine.awake_node_rounds", p.awake_node_rounds as f64);
    out.set("sim.engine.wake_batch_p50", p.wake_batch_p50);
    out.set("sim.engine.arena_mib", p.arena_mib);
    out.set(
        "sim.engine.delivered_ratio",
        p.delivered as f64 / (p.delivered + p.lost).max(1) as f64,
    );
    out.set("core.verify.verify_ms", median(&s.verify));
    out.set("core.incremental.self_ms", median(&s.incremental_self));
    out.set("core.incremental.frontier", window.frontier as f64);
    out.set("core.incremental.woken", window.woken as f64);
    out.set("core.incremental.evicted", window.evicted as f64);
    out.set("core.incremental.uncovered", window.uncovered as f64);
    out.set("core.incremental.retries", window.retries as f64);
    out.set(
        "core.incremental.woken_ratio",
        window.woken as f64 / window.active.max(1) as f64,
    );
    out.set("core.incremental.woken_per_delta", window.woken_per_delta());
    out.set(
        "core.incremental.first_try_ratio",
        window.mean(window.first_try as f64),
    );
    out.set("core.awake_max.luby", rb.awake_max as f64);
    out.set("analysis.runners.run_ms", boot_run_ms);
    out.set(
        "analysis.runners.self_ms",
        boot_run_ms - p.phase_ms.iter().sum::<f64>() - boot_verify_ms,
    );
    out.set("analysis.runners.solve_ms", median(&s.solve));
    out.set("analysis.churn.self_ms", median(&s.churn_self));
    out.set("analysis.churn.batchgen_ms", median(&s.batchgen));
    out.set("analysis.churn.mis_changes", window.mis_changes as f64);
    out.set(
        "analysis.churn.op_yield",
        window.deltas as f64 / window.requested.max(1) as f64,
    );
    out.set(
        "trace.overhead",
        median(&s.traced) / median(&s.untraced) - 1.0,
    );
    out.note(format!(
        "{} traced epochs, p50 {:.1} ms (untraced twin {:.1} ms); engine phases are the \
         bootstrap's; counts cover epochs 1..={}",
        s.traced.len(),
        median(&s.traced),
        median(&s.untraced),
        window.epochs
    ));
    let record = format!("{first_setup}\n{}", window.signatures.join("\n"));
    record_outcome(
        &mut out,
        machine::check_record(cfg.name, args.seed, &record),
    );
    out
}
