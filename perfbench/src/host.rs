//! The host record attached to every result: what the numbers ran on.
//!
//! Nothing here is hard-coded: core count, commit and build profile are read
//! from the running process, and the speed probe is timed on the spot.

use std::time::Instant;

/// The machine and build a result was measured on.
#[derive(Debug, Clone, PartialEq)]
pub struct HostRecord {
    /// `std::thread::available_parallelism`: the CPUs this process may run
    /// on (1 when `run.py` pinned it).
    pub nproc: usize,
    /// CPUs online on the machine ([`cpus`]).
    pub cpus: usize,
    /// `git rev-parse HEAD` of the working directory, or `"unknown"` outside
    /// a git checkout.
    pub commit: String,
    /// `"release"` or `"debug"`.
    pub profile: &'static str,
    /// Host-speed probe before the workload (ms, median of five).
    pub probe_before_ms: f64,
    /// Host-speed probe after the workload (ms, median of five).
    pub probe_after_ms: f64,
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPUs online on the machine, from `/sys/devices/system/cpu/online`
/// (falling back to [`nproc`]). Every thread count the workloads configure
/// is this number, so pinning the process to one CPU changes where the
/// threads run, not how many there are.
pub fn cpus() -> usize {
    std::fs::read_to_string("/sys/devices/system/cpu/online")
        .ok()
        .and_then(|list| parse_cpu_list(list.trim()))
        .unwrap_or_else(nproc)
}

/// Counts the CPUs of a kernel CPU list such as `0-3,6`.
fn parse_cpu_list(list: &str) -> Option<usize> {
    let mut count = 0;
    for part in list.split(',') {
        count += match part.split_once('-') {
            Some((a, b)) => b.parse::<usize>().ok()?.checked_sub(a.parse().ok()?)? + 1,
            None => {
                part.parse::<usize>().ok()?;
                1
            }
        };
    }
    (count > 0).then_some(count)
}

/// The commit of the working directory, if it is a git checkout.
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The build profile this binary was compiled with.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The host-speed probe: a fixed single-threaded integer loop that touches
/// no code of the program under test, timed five times; returns the median
/// in milliseconds. A run whose probe reads well above its neighbours' ran
/// in a slow phase of the host.
pub fn probe_ms() -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|round| {
            let started = Instant::now();
            let mut x: u64 = std::hint::black_box(round);
            for i in 0..20_000_000u64 {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(i ^ (x >> 29));
            }
            std::hint::black_box(x);
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[2]
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `NaN` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_record_is_measured_not_assumed() {
        assert!(nproc() >= 1);
        assert!(cpus() >= 1);
        assert_eq!(parse_cpu_list("0-1"), Some(2));
        assert_eq!(parse_cpu_list("0-3,6"), Some(5));
        assert_eq!(parse_cpu_list("x"), None);
        assert!(!commit().is_empty());
        assert!(probe_ms() > 0.0);
        let rss = peak_rss_mb();
        assert!(rss.is_nan() || rss > 0.0);
    }
}
