//! Reads the engine's phase profile — the report a runner resolved with
//! `trace=profile` renders — back into numbers.

/// One run's (or several runs') engine profile.
#[derive(Debug, Clone, Default)]
pub struct PhaseProfile {
    pub active_rounds: u64,
    pub awake_node_rounds: u64,
    /// Send, merge, receive and bookkeeping totals, in that order.
    pub phase_ms: [f64; 4],
    pub rounds: u64,
    pub round_ms: f64,
    pub wake_batch_p50: f64,
    pub arena_mib: f64,
    pub delivered: u64,
    pub lost: u64,
}

impl PhaseProfile {
    /// Mean wall-clock per active round, in microseconds.
    pub fn round_us(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            1e3 * self.round_ms / self.rounds as f64
        }
    }
}

/// `"1.93s"`, `"560.12ms"`, `"12.5µs"` or `"800ns"` in milliseconds.
fn duration_ms(s: &str) -> Result<f64, String> {
    let (num, scale) = if let Some(v) = s.strip_suffix("ns") {
        (v, 1e-6)
    } else if let Some(v) = s.strip_suffix("µs") {
        (v, 1e-3)
    } else if let Some(v) = s.strip_suffix("ms") {
        (v, 1.0)
    } else if let Some(v) = s.strip_suffix('s') {
        (v, 1e3)
    } else {
        return Err(format!("unreadable duration {s:?}"));
    };
    num.parse::<f64>()
        .map(|v| v * scale)
        .map_err(|_| format!("unreadable duration {s:?}"))
}

fn num<T: std::str::FromStr>(s: Option<&str>, what: &str) -> Result<T, String> {
    s.and_then(|t| t.trim_end_matches([',', ';']).parse().ok())
        .ok_or_else(|| format!("profile report: unreadable {what}"))
}

/// Parses a rendered `Profile` report.
///
/// # Errors
///
/// The report does not have the layout this parser knows.
pub fn parse(report: &str) -> Result<PhaseProfile, String> {
    let mut p = PhaseProfile::default();
    let mut seen = 0;
    for line in report.lines() {
        let t: Vec<&str> = line.split_whitespace().collect();
        match t.as_slice() {
            ["phase", "profile:", _, _, active, "active", "rounds,", awake, ..] => {
                p.active_rounds = num(Some(active), "active rounds")?;
                p.awake_node_rounds = num(Some(awake), "awake node-rounds")?;
                seen += 1;
            }
            [name @ ("send" | "merge" | "receive" | "bookkeeping" | "round"), count, total, ..] => {
                let ms = duration_ms(total)?;
                match *name {
                    "send" => p.phase_ms[0] = ms,
                    "merge" => p.phase_ms[1] = ms,
                    "receive" => p.phase_ms[2] = ms,
                    "bookkeeping" => p.phase_ms[3] = ms,
                    _ => {
                        p.rounds = num(Some(count), "round count")?;
                        p.round_ms = ms;
                    }
                }
                seen += 1;
            }
            ["wake", "batch", "p50", p50, ..] => {
                p.wake_batch_p50 = num(Some(p50), "wake batch p50")?;
                let at = t
                    .iter()
                    .position(|&w| w == "high-water")
                    .ok_or("profile report: no arena")?;
                let bytes: f64 = num(t.get(at + 1).copied(), "arena high-water")?;
                p.arena_mib = bytes
                    / match t.get(at + 2).copied() {
                        Some("MiB") => 1.0,
                        Some("KiB") => 1024.0,
                        _ => 1024.0 * 1024.0,
                    };
                seen += 1;
            }
            ["messages:", delivered, "delivered,", lost, ..] => {
                p.delivered = num(Some(delivered), "delivered")?;
                p.lost = num(Some(lost), "lost")?;
                seen += 1;
            }
            _ => {}
        }
    }
    if seen == 8 {
        Ok(p)
    } else {
        Err(format!(
            "profile report: {seen} of 8 expected lines in {report:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_a_rendered_profile() {
        let report = "phase profile: 1 run, 12 active rounds, 345 awake node-rounds
  phase           rounds      total   share       p50       p95       max
  send                12    1.50ms   50.0%   100.0µs   200.0µs   300.0µs
  merge               12     1.20s   25.0%   100.0µs   200.0µs   300.0µs
  receive             12    600ns   15.0%   100.0µs   200.0µs   300.0µs
  bookkeeping         12    12.5µs   10.0%   100.0µs   200.0µs   300.0µs
  round               12    3.00ms  100.0%   250.0µs   300.0µs   400.0µs
  wake batch p50 6 max 40; queue occupancy max 50; arena high-water 1.5 KiB
  messages: 90 delivered, 10 lost to sleepers, 0 fault-dropped; 0 nodes crashed
";
        let p = parse(report).expect("well-formed report");
        assert_eq!(
            (p.active_rounds, p.awake_node_rounds, p.rounds),
            (12, 345, 12)
        );
        assert_eq!(p.phase_ms, [1.5, 1200.0, 0.0006, 0.0125]);
        assert_eq!((p.round_ms, p.round_us()), (3.0, 250.0));
        assert_eq!((p.wake_batch_p50, p.arena_mib), (6.0, 1.5 / 1024.0));
        assert_eq!((p.delivered, p.lost), (90, 10));
        assert!(parse("phase profile: nothing").is_err());
    }
}
