//! Process-level probes read from outside the program: peak memory,
//! per-thread CPU time, and where a record came from.

use nti_obs::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

/// FNV-1a over `bytes`, continuing from `h` (start from [`FNV_OFFSET`]).
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time (ns) consumed so far by each live thread of this process,
/// keyed by thread name and summed over threads that share a name.
pub fn thread_cpu_ns() -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let dir = task.path();
        let name = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        // First field of schedstat: time spent on the CPU, in ns.
        let ns = std::fs::read_to_string(dir.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
            .unwrap_or(0);
        *out.entry(name.trim().to_string()).or_insert(0) += ns;
    }
    out
}

/// CPU time (ns) consumed so far by the calling thread.
pub fn this_thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// CPU ns spent by threads whose name starts with `prefix` between two
/// [`thread_cpu_ns`] snapshots.
pub fn cpu_delta(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
    prefix: &str,
) -> u64 {
    after
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(name, &ns)| ns.saturating_sub(before.get(name).copied().unwrap_or(0)))
        .sum()
}

/// Where a record came from: commit (when the checkout is a git work
/// tree), a hash of the sources under test (always), the cores, the build
/// profile, which of the program's observability was on, and the seed.
pub fn provenance(root: &Path, obs: &str, seed: u64) -> Json {
    let commit = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(root)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("commit", commit.map_or(Json::Null, Json::str)),
        (
            "source_hash",
            Json::str(format!("{:016x}", source_hash(root))),
        ),
        ("available_parallelism", Json::num(cores as f64)),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("obs", Json::str(obs)),
        ("seed", Json::num(seed as f64)),
    ])
}

/// FNV-1a over every `.rs` and `Cargo.toml` under `root/crates`, in path
/// order: identifies the code under test when there is no commit.
pub fn source_hash(root: &Path) -> u64 {
    let mut files = Vec::new();
    collect_sources(&root.join("crates"), &mut files);
    files.sort();
    files.iter().fold(FNV_OFFSET, |h, path| {
        let rel = path.strip_prefix(root).unwrap_or(path);
        let h = fnv1a(h, rel.to_string_lossy().as_bytes());
        fnv1a(h, &std::fs::read(path).unwrap_or_default())
    })
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs")
            || p.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_and_thread_cpu_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        let t = thread_cpu_ns();
        assert!(t.values().sum::<u64>() > 0);
    }
}
