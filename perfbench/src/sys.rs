//! The machine stamp every record carries, and the process's own resource
//! counters.

use gleipnir_core::jsonfmt::json_str;
use std::path::Path;
use std::process::Command;

/// Where and with what a record was measured.
pub struct Stamp {
    pub cpu_model: String,
    pub nproc: usize,
    pub pool_threads: usize,
    pub git_rev: String,
    pub source_digest: String,
    pub rustc: &'static str,
}

impl Stamp {
    /// Reads the stamp. `pool_threads` is the engine pool size the run used.
    pub fn read(pool_threads: usize) -> Stamp {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        // A checkout without git metadata has no revision; the source digest
        // still identifies the code that ran. The ceiling keeps git from
        // reading a repository above the working directory.
        let ceiling = std::env::current_dir()
            .ok()
            .and_then(|d| d.parent().map(Path::to_path_buf))
            .unwrap_or_default();
        let git_rev = Command::new("git")
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", ceiling)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unavailable".into());
        Stamp {
            cpu_model,
            nproc,
            pool_threads,
            git_rev,
            source_digest: source_digest(),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu_model\":{},\"nproc\":{},\"pool_threads\":{},\"git_rev\":{},\"source_digest\":{},\"rustc\":{}}}",
            json_str(&self.cpu_model),
            self.nproc,
            self.pool_threads,
            json_str(&self.git_rev),
            json_str(&self.source_digest),
            json_str(self.rustc)
        )
    }
}

/// FNV-1a over the paths and contents of every file under `crates/` and
/// `perfbench/src/`, in sorted order: the same digest means the same code.
fn source_digest() -> String {
    let mut files = Vec::new();
    for root in ["crates", "perfbench/src"] {
        collect(Path::new(root), &mut files);
    }
    if files.is_empty() {
        return "unavailable".into();
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        eat(f.to_string_lossy().as_bytes());
        eat(&std::fs::read(f).unwrap_or_default());
    }
    format!("fnv1a64:{h:016x}")
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => collect(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

/// CPU seconds the hypervisor gave to other guests while this machine's
/// CPUs wanted to run (the `steal` column of `/proc/stat`, all CPUs), so a
/// record shows when a run shared its host with a noisy neighbour.
pub fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().find(|l| l.starts_with("cpu "))?;
            cpu.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds this process has used so far. `/proc` reports
/// them in USER_HZ ticks, which Linux fixes at 100 per second.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and stime
            // are fields 14 and 15 of the whole line.
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = f.get(11)?.parse().ok()?;
            let stime: f64 = f.get(12)?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}
