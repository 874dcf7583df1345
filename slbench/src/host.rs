//! Facts about the host a run executed on: memory high-water mark, CPU
//! steal, core count and source revision. They explain a noisy run; the
//! benchmark never uses them to discard one.

use std::process::Command;

/// Peak resident set size of this process in MiB (`VmHWM`), or `NaN`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`:
/// `(steal, total)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

impl CpuTimes {
    /// Reads the current counters (zeros where `/proc/stat` is missing).
    pub fn now() -> Self {
        let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
            return Self::default();
        };
        let Some(line) = stat.lines().next() else {
            return Self::default();
        };
        // cpu user nice system idle iowait irq softirq steal guest guest_nice
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        // guest time is already counted inside user/nice.
        let total = fields.iter().take(8).sum();
        Self {
            steal: fields.get(7).copied().unwrap_or(0),
            total,
        }
    }

    /// Share of CPU time stolen by the hypervisor between `self` and
    /// `later` (0 when nothing elapsed).
    pub fn steal_share_until(&self, later: &Self) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            0.0
        } else {
            later.steal.saturating_sub(self.steal) as f64 / total as f64
        }
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The source revision, when the benchmark runs inside a git checkout
/// (`unknown` otherwise, e.g. in an exported tree).
pub fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}
