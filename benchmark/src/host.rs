//! What the benchmark reads from the operating system: CPU time, peak
//! memory, and the host fingerprint stamped on every report.

use std::fs;
use std::process::Command;
use std::time::Duration;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/*/stat`. Fixed at
/// 100 on every Linux ABI; `std` offers no `sysconf` to ask.
const TICKS_PER_SECOND: f64 = 100.0;

/// utime + stime of the task described by a `/proc/.../stat` file.
fn cpu_of(stat_path: &str) -> Duration {
    let stat = fs::read_to_string(stat_path).unwrap_or_default();
    // Fields are counted after the parenthesised command name, which
    // may itself contain spaces: utime and stime are fields 14 and 15,
    // i.e. the 12th and 13th after the closing parenthesis.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    Duration::from_secs_f64(ticks as f64 / TICKS_PER_SECOND)
}

/// CPU time of the whole process so far, exited threads included.
pub fn process_cpu() -> Duration {
    cpu_of("/proc/self/stat")
}

/// CPU time of the calling thread so far.
pub fn thread_cpu() -> Duration {
    cpu_of("/proc/thread-self/stat")
}

/// Peak resident set size of the process (VmHWM), in MiB.
pub fn rss_peak_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .map(str::to_owned)
    })?
}

/// Where and how a report was produced.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Cargo profile the benchmark (and the program) was built with.
    pub profile: &'static str,
    /// `git rev-parse --short HEAD`, or `unversioned` outside a git
    /// checkout (the driver's checkouts are not repositories).
    pub git_rev: String,
}

impl Fingerprint {
    /// Reads the fingerprint of this host and build.
    pub fn read() -> Self {
        let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpuinfo
                .lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map_or_else(|| "unknown".to_owned(), |(_, m)| m.trim().to_owned()),
            rustc: first_line_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_owned()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            git_rev: first_line_of("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(|| "unversioned".to_owned()),
        }
    }

    /// One line for the head of a report.
    pub fn line(&self, seed: u64) -> String {
        format!(
            "host: nproc={} cpu=\"{}\" {} profile={} rev={} seed={seed}",
            self.nproc, self.cpu_model, self.rustc, self.profile, self.git_rev
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_rss_is_positive() {
        let before = process_cpu();
        let mut x = 0u64;
        // ~100 ms of work: well above one 10 ms tick.
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_millis(100) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu() > before);
        assert!(thread_cpu() > Duration::ZERO);
        assert!(rss_peak_mb() > 0.0);
    }
}
