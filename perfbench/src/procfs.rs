//! Process and per-thread resource readings from `/proc/self`.
//!
//! CPU times come from the `utime`/`stime` fields of `stat`, which the
//! kernel keeps in clock ticks (`USER_HZ`, 100 on Linux).

use std::collections::BTreeMap;

/// Clock ticks per second of the `utime`/`stime` fields.
pub const TICKS_PER_S: f64 = 100.0;

/// `utime + stime` in seconds, parsed from a `stat` line.
fn stat_cpu_s(stat: &str) -> Option<f64> {
    // The command name is parenthesised and may hold spaces; fields
    // resume after the last `)`, starting with field 3 (state).
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_S)
}

/// CPU seconds (user + sys) the whole process has used, exited threads
/// included.
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| stat_cpu_s(&s))
        .unwrap_or(0.0)
}

/// CPU seconds the calling thread has used so far.
pub fn this_thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|s| stat_cpu_s(&s))
        .unwrap_or(0.0)
}

/// CPU time the calling thread has used so far, in nanoseconds, from
/// the first field of `/proc/thread-self/schedstat`: finer than the
/// clock ticks of `stat`, for timing slices of a few milliseconds.
pub fn this_thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// CPU seconds of every live thread, keyed by thread id, with the
/// thread's name.
pub fn thread_cpu() -> BTreeMap<u64, (String, f64)> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Ok(tid) = entry.file_name().to_string_lossy().parse::<u64>() else {
            continue;
        };
        let path = entry.path();
        let name = std::fs::read_to_string(path.join("comm"))
            .map(|s| s.trim().to_owned())
            .unwrap_or_default();
        if let Some(cpu) = std::fs::read_to_string(path.join("stat"))
            .ok()
            .and_then(|s| stat_cpu_s(&s))
        {
            out.insert(tid, (name, cpu));
        }
    }
    out
}

/// Which part of the process a thread belongs to, by its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The broker's reactor threads (`broker-io-N`).
    Broker,
    /// The benchmark's open-loop generator threads (`gen-N`).
    Generator,
    /// Everything else: client workers, router pumps, sidecars,
    /// reporters, the balancer and the benchmark's receive threads.
    Client,
}

/// Classifies a thread by name.
pub fn role_of(name: &str) -> Role {
    if name.starts_with("broker-io-") {
        Role::Broker
    } else if name.starts_with("gen-") {
        Role::Generator
    } else {
        Role::Client
    }
}

/// CPU seconds per [`Role`] between two [`thread_cpu`] snapshots.
/// Threads born after `before` count from zero; threads that died
/// before `after` are missing (their time still shows in
/// [`process_cpu_s`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct RoleCpu {
    pub broker: f64,
    pub generator: f64,
    pub client: f64,
    /// Threads present in `after`.
    pub threads: usize,
}

impl RoleCpu {
    pub fn between(
        before: &BTreeMap<u64, (String, f64)>,
        after: &BTreeMap<u64, (String, f64)>,
    ) -> RoleCpu {
        let mut out = RoleCpu {
            threads: after.len(),
            ..RoleCpu::default()
        };
        for (tid, (name, cpu)) in after {
            let base = before.get(tid).map(|(_, c)| *c).unwrap_or(0.0);
            let d = (cpu - base).max(0.0);
            match role_of(name) {
                Role::Broker => out.broker += d,
                Role::Generator => out.generator += d,
                Role::Client => out.client += d,
            }
        }
        out
    }

    pub fn total(&self) -> f64 {
        self.broker + self.generator + self.client
    }
}

/// Resets the process's peak resident set size to its current size, so
/// that [`rss_peak_mb`] covers only what runs after this call.
pub fn reset_rss_peak() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set size (`VmHWM`) of the process, in MiB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
