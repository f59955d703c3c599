//! Structured run tracing: an observational event stream out of the
//! engine's round loop.
//!
//! The engine emits a [`TraceEvent`] stream describing *when* work
//! happens inside a run — round boundaries, per-phase wall-clock
//! (send/merge/receive/bookkeeping), wake-queue occupancy, per-shard
//! batch sizes, the bytes of the engine's node-indexed delivery tables
//! (see [`SimScratch`](crate::SimScratch)), and fault-drop counts. A
//! sink is attached through [`SimConfig::trace`](crate::SimConfig);
//! with no sink attached the engine takes no timestamps and allocates
//! nothing — every event site is a single `Option` check.
//!
//! Tracing is **observational only**: attaching any sink must not
//! change a run's outputs, metrics, or any benchmark payload byte.
//! Wall-clock readings never feed back into the simulation.
//!
//! Two sinks ship with the crate:
//!
//! * [`Profile`] — aggregates log₂-bucketed per-phase histograms and
//!   renders an ASCII report with p50/p95/max round times.
//! * [`JsonlSink`] — writes one strict-JSON object per line for
//!   external tooling.
//!
//! [`Recorder`] keeps the raw event stream for tests and ad-hoc
//! analysis.
//!
//! # Example
//!
//! ```
//! use sleeping_congest::trace::{Profile, TraceHandle};
//! use sleeping_congest::{SimConfig, Simulator, Action, NodeCtx, Outbox, Protocol};
//! use graphgen::{generators, Port};
//!
//! struct Ping;
//! impl Protocol for Ping {
//!     type Msg = ();
//!     type Output = ();
//!     fn send(&mut self, _ctx: &mut NodeCtx) -> Outbox<()> { Outbox::Broadcast(()) }
//!     fn receive(&mut self, _ctx: &mut NodeCtx, _inbox: &[(Port, ())]) -> Action {
//!         Action::Terminate
//!     }
//!     fn output(&self) {}
//! }
//!
//! let handle = TraceHandle::new(Profile::new());
//! let config = SimConfig { trace: Some(handle.clone()), ..SimConfig::default() };
//! let g = generators::cycle(8);
//! Simulator::new(g, (0..8).map(|_| Ping).collect(), config).run()?;
//! let report = handle.report().expect("Profile renders a report");
//! assert!(report.contains("send"));
//! # Ok::<(), sleeping_congest::SimError>(())
//! ```

use crate::Round;
use std::fmt;
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};

/// The engine phases a round's wall-clock is split into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TracePhase {
    /// Protocol `send` callbacks, bit accounting, and parking each
    /// outbox in the node-indexed table (possibly sharded).
    Send,
    /// Propagating the first send error and summing the shards' send
    /// counters. Delivery is by pull, so there is no message merge and
    /// this phase is near zero.
    Merge,
    /// Receivers pulling their inboxes from their awake neighbours'
    /// outboxes, then the protocol `receive` callbacks (possibly
    /// sharded).
    Receive,
    /// Everything else the round does serially: crash-fault filtering,
    /// batch sorting and advancing the send tick before send, and the
    /// wake-queue / termination apply loop after receive.
    Bookkeeping,
}

impl TracePhase {
    /// All phases, in the order they occur within a round (bookkeeping
    /// brackets the round and is reported last).
    pub const ALL: [TracePhase; 4] =
        [TracePhase::Send, TracePhase::Merge, TracePhase::Receive, TracePhase::Bookkeeping];

    /// Lower-case phase name, as used in reports and JSONL events.
    pub fn name(self) -> &'static str {
        match self {
            TracePhase::Send => "send",
            TracePhase::Merge => "merge",
            TracePhase::Receive => "receive",
            TracePhase::Bookkeeping => "bookkeeping",
        }
    }
}

/// One structured observation out of the engine.
///
/// Per active round the engine emits, in order: [`RoundBegin`], one
/// [`Phase`] event per entry of [`TracePhase::ALL`] interleaved with
/// the round's [`ShardBatch`] events (after `Send`), then [`RoundEnd`].
/// A run is bracketed by [`RunBegin`] and [`RunEnd`].
///
/// [`RunBegin`]: TraceEvent::RunBegin
/// [`RoundBegin`]: TraceEvent::RoundBegin
/// [`Phase`]: TraceEvent::Phase
/// [`ShardBatch`]: TraceEvent::ShardBatch
/// [`RoundEnd`]: TraceEvent::RoundEnd
/// [`RunEnd`]: TraceEvent::RunEnd
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A run started.
    RunBegin {
        /// Number of nodes in the graph.
        nodes: usize,
        /// Configured shard count (`SimConfig::shards`).
        shards: usize,
    },
    /// An active round is about to execute.
    RoundBegin {
        /// The round number.
        round: Round,
        /// Nodes scheduled to wake this round (before crash faults).
        batch: usize,
        /// Wake-ups still pending in the queue for future rounds.
        queued: usize,
    },
    /// One shard's slice of the send phase (emitted after `Send`).
    /// Receive shards use the same split.
    ShardBatch {
        /// The round number.
        round: Round,
        /// Shard index, `0..effective_shards`.
        shard: usize,
        /// Awake nodes this shard processed.
        nodes: usize,
        /// Message copies this shard's nodes sent (a broadcast counts
        /// one copy per port), whether or not a receiver was awake.
        messages: usize,
    },
    /// Wall-clock spent in one phase of a round.
    Phase {
        /// The round number.
        round: Round,
        /// Which phase.
        phase: TracePhase,
        /// Elapsed nanoseconds.
        nanos: u64,
    },
    /// An active round finished.
    RoundEnd {
        /// The round number.
        round: Round,
        /// Total wall-clock nanoseconds for the round.
        nanos: u64,
        /// Message copies delivered to awake receivers this round.
        delivered: u64,
        /// Copies addressed to sleeping neighbors (lost by the model).
        lost: u64,
        /// Copies dropped by the link-fault model this round.
        faulted: u64,
        /// Nodes crashed by the fault model this round.
        crashed: usize,
        /// Footprint of the node-indexed delivery tables (parked
        /// outboxes and send ticks), in bytes. Fixed for a run: it grows
        /// with `n`, not with the message count.
        arena_bytes: usize,
    },
    /// A run finished (successfully or not).
    RunEnd {
        /// Active rounds executed (all-asleep rounds are skipped).
        active_rounds: u64,
        /// Total awake node-rounds across the run.
        awake_total: u64,
    },
}

impl TraceEvent {
    /// Renders the event as one strict-JSON object (the format
    /// [`JsonlSink`] writes), keys in a fixed documented order.
    pub fn to_json(&self) -> String {
        match *self {
            TraceEvent::RunBegin { nodes, shards } => {
                format!("{{\"ev\":\"run_begin\",\"nodes\":{nodes},\"shards\":{shards}}}")
            }
            TraceEvent::RoundBegin { round, batch, queued } => format!(
                "{{\"ev\":\"round_begin\",\"round\":{round},\"batch\":{batch},\"queued\":{queued}}}"
            ),
            TraceEvent::ShardBatch { round, shard, nodes, messages } => format!(
                "{{\"ev\":\"shard_batch\",\"round\":{round},\"shard\":{shard},\
                 \"nodes\":{nodes},\"messages\":{messages}}}"
            ),
            TraceEvent::Phase { round, phase, nanos } => format!(
                "{{\"ev\":\"phase\",\"round\":{round},\"phase\":\"{}\",\"nanos\":{nanos}}}",
                phase.name()
            ),
            TraceEvent::RoundEnd {
                round,
                nanos,
                delivered,
                lost,
                faulted,
                crashed,
                arena_bytes,
            } => format!(
                "{{\"ev\":\"round_end\",\"round\":{round},\"nanos\":{nanos},\
                 \"delivered\":{delivered},\"lost\":{lost},\"faulted\":{faulted},\
                 \"crashed\":{crashed},\"arena_bytes\":{arena_bytes}}}"
            ),
            TraceEvent::RunEnd { active_rounds, awake_total } => format!(
                "{{\"ev\":\"run_end\",\"active_rounds\":{active_rounds},\
                 \"awake_total\":{awake_total}}}"
            ),
        }
    }
}

/// Receives the engine's event stream.
///
/// Sinks must be `Send`: sharded runs still emit events from the
/// coordinating thread only, but runners are shared across batch
/// workers, so the handle that owns a sink crosses threads.
pub trait TraceSink: Send {
    /// Called once per event, in emission order.
    fn event(&mut self, ev: &TraceEvent);

    /// A rendered human-readable summary, if this sink aggregates one
    /// (see [`Profile`]). The default has none.
    fn report(&self) -> Option<String> {
        None
    }
}

/// A cloneable, thread-safe handle to a [`TraceSink`], attachable to
/// [`SimConfig::trace`](crate::SimConfig).
///
/// The engine locks the sink once per run and holds the guard for the
/// run's duration, so per-event cost is a virtual call, not a lock.
/// Cloning the handle shares the underlying sink — attach one handle to
/// many runs to aggregate across them.
#[derive(Clone)]
pub struct TraceHandle(Arc<Mutex<dyn TraceSink>>);

impl TraceHandle {
    /// Wraps a sink in a shareable handle.
    pub fn new<S: TraceSink + 'static>(sink: S) -> TraceHandle {
        TraceHandle(Arc::new(Mutex::new(sink)))
    }

    /// Locks the sink for exclusive use (the engine does this once per
    /// run). A poisoned lock is recovered: tracing is observational, so
    /// a panicked run cannot leave the sink logically corrupt.
    pub fn lock(&self) -> MutexGuard<'_, dyn TraceSink + 'static> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The sink's rendered report, if it aggregates one.
    pub fn report(&self) -> Option<String> {
        self.lock().report()
    }
}

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("TraceHandle(..)")
    }
}

/// A log₂-bucketed histogram over `u64` samples: exact count, total,
/// and max; quantiles resolved to the midpoint of a power-of-two
/// bucket (within ~33% of the true value, ample for a phase profile).
#[derive(Debug, Clone)]
struct Hist {
    count: u64,
    total: u64,
    max: u64,
    /// `buckets[0]` holds zeros; `buckets[i]` holds `[2^(i-1), 2^i)`.
    buckets: [u64; 65],
}

impl Default for Hist {
    fn default() -> Hist {
        Hist { count: 0, total: 0, max: 0, buckets: [0; 65] }
    }
}

impl Hist {
    fn record(&mut self, v: u64) {
        self.count += 1;
        self.total += v;
        self.max = self.max.max(v);
        let idx = if v == 0 { 0 } else { 64 - v.leading_zeros() as usize };
        self.buckets[idx] += 1;
    }

    /// Nearest-rank quantile, `q` in `[0, 1]`, resolved to bucket
    /// midpoints and clamped to the exact max.
    fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The top occupied bucket resolves to the exact max.
                if seen == self.count {
                    return self.max;
                }
                let mid = if i == 0 { 0 } else { (1u64 << (i - 1)) + (1u64 << (i - 1)) / 2 };
                return mid.min(self.max);
            }
        }
        self.max
    }
}

/// Formats nanoseconds for humans (`ns`, `µs`, `ms`, `s`).
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Formats a byte count for humans.
fn fmt_bytes(b: usize) -> String {
    if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

/// An aggregating profiler sink: per-phase and per-round wall-clock
/// histograms, queue/arena high-water marks, shard-imbalance stats, and
/// fault-drop totals, rendered as an ASCII table by [`report`].
///
/// One `Profile` may observe many runs (e.g. every cell of a grid run
/// through one runner); the report aggregates across all of them.
///
/// [`report`]: TraceSink::report
#[derive(Debug, Clone, Default)]
pub struct Profile {
    phases: [Hist; 4],
    rounds: Hist,
    batch: Hist,
    shard_msgs: Hist,
    runs: u64,
    active_rounds: u64,
    awake_total: u64,
    queue_max: usize,
    arena_high_water: usize,
    shard_events: u64,
    /// Per-round max/min per-shard sent copies, summed — their ratio
    /// estimates send-phase imbalance.
    round_shard_max: u64,
    round_shard_min: u64,
    /// Scratch: shard extremes of the round being observed.
    cur_shard_max: u64,
    cur_shard_min: u64,
    cur_shards: u64,
    delivered: u64,
    lost: u64,
    faulted: u64,
    crashed: u64,
}

impl Profile {
    /// A fresh, empty profile.
    pub fn new() -> Profile {
        Profile::default()
    }

    /// Renders the aggregated profile as an ASCII table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "phase profile: {} run{}, {} active rounds, {} awake node-rounds\n",
            self.runs,
            if self.runs == 1 { "" } else { "s" },
            self.active_rounds,
            self.awake_total,
        ));
        s.push_str(&format!(
            "  {:<12} {:>9} {:>10} {:>7} {:>9} {:>9} {:>9}\n",
            "phase", "rounds", "total", "share", "p50", "p95", "max"
        ));
        let grand: u64 = self.phases.iter().map(|h| h.total).sum();
        for (i, phase) in TracePhase::ALL.iter().enumerate() {
            let h = &self.phases[i];
            let share = if grand == 0 { 0.0 } else { 100.0 * h.total as f64 / grand as f64 };
            s.push_str(&format!(
                "  {:<12} {:>9} {:>10} {:>6.1}% {:>9} {:>9} {:>9}\n",
                phase.name(),
                h.count,
                fmt_ns(h.total),
                share,
                fmt_ns(h.quantile(0.50)),
                fmt_ns(h.quantile(0.95)),
                fmt_ns(h.max),
            ));
        }
        s.push_str(&format!(
            "  {:<12} {:>9} {:>10} {:>6.1}% {:>9} {:>9} {:>9}\n",
            "round",
            self.rounds.count,
            fmt_ns(self.rounds.total),
            100.0,
            fmt_ns(self.rounds.quantile(0.50)),
            fmt_ns(self.rounds.quantile(0.95)),
            fmt_ns(self.rounds.max),
        ));
        s.push_str(&format!(
            "  wake batch p50 {} max {}; queue occupancy max {}; arena high-water {}\n",
            self.batch.quantile(0.50),
            self.batch.max,
            self.queue_max,
            fmt_bytes(self.arena_high_water),
        ));
        if self.shard_events > 0 {
            let imbalance = if self.round_shard_min == 0 {
                f64::INFINITY
            } else {
                self.round_shard_max as f64 / self.round_shard_min as f64
            };
            s.push_str(&format!(
                "  shard batches: {} observed, messages p50 {} max {}, max/min imbalance {:.2}\n",
                self.shard_events,
                self.shard_msgs.quantile(0.50),
                self.shard_msgs.max,
                imbalance,
            ));
        }
        s.push_str(&format!(
            "  messages: {} delivered, {} lost to sleepers, {} fault-dropped; {} nodes crashed\n",
            self.delivered, self.lost, self.faulted, self.crashed,
        ));
        s
    }

    fn flush_round_shards(&mut self) {
        if self.cur_shards > 0 {
            self.round_shard_max += self.cur_shard_max;
            self.round_shard_min += self.cur_shard_min;
            self.cur_shard_max = 0;
            self.cur_shard_min = 0;
            self.cur_shards = 0;
        }
    }
}

impl TraceSink for Profile {
    fn event(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::RunBegin { .. } => self.runs += 1,
            TraceEvent::RoundBegin { batch, queued, .. } => {
                self.batch.record(batch as u64);
                self.queue_max = self.queue_max.max(queued + batch);
            }
            TraceEvent::ShardBatch { messages, .. } => {
                self.shard_events += 1;
                let m = messages as u64;
                self.shard_msgs.record(m);
                if self.cur_shards == 0 {
                    self.cur_shard_min = m;
                    self.cur_shard_max = m;
                } else {
                    self.cur_shard_min = self.cur_shard_min.min(m);
                    self.cur_shard_max = self.cur_shard_max.max(m);
                }
                self.cur_shards += 1;
            }
            TraceEvent::Phase { phase, nanos, .. } => {
                let idx = TracePhase::ALL.iter().position(|&p| p == phase).unwrap_or(0);
                self.phases[idx].record(nanos);
            }
            TraceEvent::RoundEnd {
                nanos, delivered, lost, faulted, crashed, arena_bytes, ..
            } => {
                self.rounds.record(nanos);
                self.delivered += delivered;
                self.lost += lost;
                self.faulted += faulted;
                self.crashed += crashed as u64;
                self.arena_high_water = self.arena_high_water.max(arena_bytes);
                self.flush_round_shards();
            }
            TraceEvent::RunEnd { active_rounds, awake_total } => {
                self.active_rounds += active_rounds;
                self.awake_total += awake_total;
            }
        }
    }

    fn report(&self) -> Option<String> {
        Some(self.render())
    }
}

/// A sink writing one strict-JSON event object per line (the format
/// `bench::json`-style tooling parses). Buffer the writer yourself if
/// it is unbuffered; the sink flushes at every `run_end`.
#[derive(Debug)]
pub struct JsonlSink<W: Write + Send> {
    out: W,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink { out }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl JsonlSink<std::io::BufWriter<std::io::Stderr>> {
    /// A sink streaming to standard error — the `trace=jsonl` registry
    /// param uses this so benchmark payloads on stdout stay clean.
    pub fn stderr() -> Self {
        JsonlSink::new(std::io::BufWriter::new(std::io::stderr()))
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn event(&mut self, ev: &TraceEvent) {
        // Tracing must never perturb the run: I/O errors are dropped.
        let _ = writeln!(self.out, "{}", ev.to_json());
        if matches!(ev, TraceEvent::RunEnd { .. }) {
            let _ = self.out.flush();
        }
    }
}

/// A sink keeping the raw event stream, for tests and ad-hoc analysis.
/// Clones share the same store: clone the recorder *before* wrapping it
/// in a [`TraceHandle`] and read [`events`](Recorder::events) later.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl Recorder {
    /// A fresh, empty recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// A snapshot of all events recorded so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

impl TraceSink for Recorder {
    fn event(&mut self, ev: &TraceEvent) {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).push(ev.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_quantiles_bracket_the_samples() {
        let mut h = Hist::default();
        for v in [0u64, 1, 2, 3, 100, 1000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count, 7);
        assert_eq!(h.max, 1_000_000);
        assert_eq!(h.quantile(1.0), 1_000_000);
        let p50 = h.quantile(0.5);
        assert!((2..=4).contains(&p50), "p50 was {p50}");
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn events_render_strict_json() {
        let evs = [
            TraceEvent::RunBegin { nodes: 10, shards: 2 },
            TraceEvent::RoundBegin { round: 0, batch: 10, queued: 0 },
            TraceEvent::ShardBatch { round: 0, shard: 1, nodes: 5, messages: 12 },
            TraceEvent::Phase { round: 0, phase: TracePhase::Merge, nanos: 42 },
            TraceEvent::RoundEnd {
                round: 0,
                nanos: 99,
                delivered: 3,
                lost: 1,
                faulted: 0,
                crashed: 0,
                arena_bytes: 256,
            },
            TraceEvent::RunEnd { active_rounds: 1, awake_total: 10 },
        ];
        for ev in &evs {
            let j = ev.to_json();
            assert!(j.starts_with("{\"ev\":\""), "{j}");
            assert!(j.ends_with('}'), "{j}");
            // Balanced, single-object line: no interior newlines or
            // unescaped quotes beyond key/value delimiters.
            assert!(!j.contains('\n'));
        }
        assert!(evs[3].to_json().contains("\"phase\":\"merge\""));
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.event(&TraceEvent::RunBegin { nodes: 4, shards: 1 });
        sink.event(&TraceEvent::RunEnd { active_rounds: 0, awake_total: 0 });
        let out = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("run_begin"));
        assert!(lines[1].contains("run_end"));
    }

    #[test]
    fn profile_report_lists_all_phases() {
        let mut p = Profile::new();
        p.event(&TraceEvent::RunBegin { nodes: 4, shards: 1 });
        for (i, &phase) in TracePhase::ALL.iter().enumerate() {
            p.event(&TraceEvent::Phase { round: 0, phase, nanos: (i as u64 + 1) * 100 });
        }
        p.event(&TraceEvent::RoundEnd {
            round: 0,
            nanos: 1000,
            delivered: 5,
            lost: 2,
            faulted: 1,
            crashed: 0,
            arena_bytes: 64,
        });
        p.event(&TraceEvent::RunEnd { active_rounds: 1, awake_total: 4 });
        let r = p.render();
        for phase in TracePhase::ALL {
            assert!(r.contains(phase.name()), "missing {} in:\n{r}", phase.name());
        }
        assert!(r.contains("p50"));
        assert!(r.contains("p95"));
        assert!(r.contains("max"));
        assert!(r.contains("5 delivered"));
    }

    #[test]
    fn recorder_clones_share_the_store() {
        let rec = Recorder::new();
        let view = rec.clone();
        let handle = TraceHandle::new(rec);
        handle.lock().event(&TraceEvent::RunBegin { nodes: 1, shards: 1 });
        assert_eq!(view.events().len(), 1);
    }
}
