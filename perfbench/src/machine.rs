//! What a result must be stamped with to be compared like for like: the
//! machine, the toolchain, the source revision and the process's peak
//! memory. Also keeps the per-seed records that catch a deterministic
//! count changing from one run to the next.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

fn read_trimmed(path: &str) -> Option<String> {
    fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Size of cpu0's unified cache of the given level (`"2048K"`).
fn cache_size(level: &str) -> String {
    (0..8)
        .map(|i| format!("/sys/devices/system/cpu/cpu0/cache/index{i}"))
        .find(|dir| {
            read_trimmed(&format!("{dir}/level")).as_deref() == Some(level)
                && read_trimmed(&format!("{dir}/type")).as_deref() == Some("Unified")
        })
        .and_then(|dir| read_trimmed(&format!("{dir}/size")))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The selected transparent-huge-page mode (`always`, `madvise`, `never`).
fn thp_mode() -> String {
    read_trimmed("/sys/kernel/mm/transparent_hugepage/enabled")
        .and_then(|s| {
            let start = s.find('[')?;
            let end = s.find(']')?;
            Some(s[start + 1..end].to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn collect_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        if let Ok(entries) = fs::read_dir(path) {
            for e in entries.flatten() {
                collect_files(&e.path(), out);
            }
        }
    } else if path.is_file() {
        out.push(path.to_path_buf());
    }
}

/// FNV-1a over the workspace sources the benchmark builds from, so a
/// result from a checkout without git history still names its code.
pub fn source_hash() -> &'static str {
    static HASH: OnceLock<String> = OnceLock::new();
    HASH.get_or_init(|| {
        let mut files = Vec::new();
        for root in [
            "Cargo.toml",
            "Cargo.lock",
            "crates",
            "vendor",
            "perfbench/Cargo.toml",
            "perfbench/src",
        ] {
            collect_files(Path::new(root), &mut files);
        }
        files.sort();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for f in &files {
            fnv1a(&mut h, f.to_string_lossy().as_bytes());
            fnv1a(&mut h, &fs::read(f).unwrap_or_default());
        }
        format!("{h:016x}")
    })
}

/// One JSON object describing where and from what a result was measured.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
    let rev = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        None
    };
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"l2\": \"{}\", \"l3\": \"{}\", \"thp\": \"{}\", \
         \"rustc\": \"{}\", \"git_rev\": \"{}\", \"source_fnv\": \"{}\"}}",
        cpu_model().replace('"', "'"),
        cache_size("2"),
        cache_size("3"),
        thp_mode(),
        rustc.replace('"', "'"),
        rev.unwrap_or_else(|| "none".to_string()),
        source_hash(),
    )
}

/// Cumulative (steal, total) CPU ticks of the machine, from the `cpu`
/// line of `/proc/stat`; their growth over a run says how much of it a
/// hypervisor took away.
pub fn cpu_ticks() -> (u64, u64) {
    let line = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map(|kib| kib / 1024.0)
        .expect("/proc/self/status reports VmHWM")
}

/// Compares a run's deterministic counts with the record an earlier
/// run of the same workload, seed and sources left behind, or leaves
/// one. Records live next to the build output, inside the checkout.
///
/// # Errors
///
/// The earlier record differs: a count that must repeat did not.
pub fn check_record(workload: &str, seed: u64, counts: &str) -> Result<String, String> {
    let dir = PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into()),
    )
    .join("perfbench-records");
    let path = dir.join(format!("{workload}-{seed}-{}.txt", source_hash()));
    match fs::read_to_string(&path) {
        Ok(earlier) if earlier == counts => Ok("matches the record of an earlier run".to_string()),
        Ok(earlier) => Err(format!(
            "counts {counts:?} differ from an earlier run's {earlier:?}"
        )),
        Err(_) => match fs::create_dir_all(&dir).and_then(|()| fs::write(&path, counts)) {
            Ok(()) => Ok("first run of this seed; record kept".to_string()),
            Err(e) => Ok(format!("record not kept ({e})")),
        },
    }
}
