//! CPU pinning for the benchmark's cells.
//!
//! Engine and app threads take turns, so a cell loses no parallelism
//! on one CPU. Unpinned, every handoff wakes a thread on another CPU,
//! and on a virtual machine under host contention that wake-up latency
//! dominated the run-to-run spread. Pinned to a fixed CPU, a cell
//! shares it with anything else that runs there, so each cell goes to
//! the allowed CPU where the reference kernel ran fastest just before
//! (see `run_pass`).

use std::process::{Command, Stdio};
use std::time::Duration;

/// The CPUs the calling thread may run on, in ascending order.
///
/// # Errors
///
/// Says why `Cpus_allowed_list` could not be read or parsed.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let list = allowed_list()?;
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let bad = || format!("cannot parse Cpus_allowed_list {list:?}");
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let (lo, hi): (usize, usize) = (
            lo.parse().map_err(|_| bad())?,
            hi.parse().map_err(|_| bad())?,
        );
        cpus.extend(lo..=hi);
    }
    Ok(cpus)
}

fn allowed_list() -> Result<String, String> {
    let status = std::fs::read_to_string("/proc/thread-self/status")
        .map_err(|e| format!("cannot read /proc/thread-self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map(|l| l.trim().to_string())
        .ok_or_else(|| "no Cpus_allowed_list in /proc/thread-self/status".to_string())
}

/// Linux reports `/proc/stat` times in USER_HZ ticks, which the kernel
/// ABI fixes at 100 per second.
const USER_HZ: u64 = 100;

/// Time the hypervisor has run something else on `cpu` since boot
/// (its `steal` field in `/proc/stat`, in 10 ms ticks); `None` when
/// the field cannot be read.
pub fn steal(cpu: usize) -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let label = format!("cpu{cpu}");
    let mut fields = stat.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        (f.next() == Some(label.as_str())).then_some(f)
    })?;
    // user nice system idle iowait irq softirq steal
    let ticks: u64 = fields.nth(7)?.parse().ok()?;
    Some(Duration::from_millis(ticks * (1000 / USER_HZ)))
}

/// Pins the calling thread, and every thread it spawns afterwards, to
/// `cpu` (with `taskset`, so the crate needs no foreign calls).
///
/// # Errors
///
/// Says why the thread is not pinned to `cpu` afterwards.
pub fn pin_to(cpu: usize) -> Result<(), String> {
    let task = std::fs::read_link("/proc/thread-self")
        .map_err(|e| format!("cannot resolve /proc/thread-self: {e}"))?;
    let tid = task
        .file_name()
        .and_then(|t| t.to_str())
        .ok_or("cannot read the thread id")?
        .to_string();
    let out = Command::new("taskset")
        .args(["-p", "-c", &cpu.to_string(), &tid])
        .stdout(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run taskset: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "taskset failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    match allowed_list() {
        Ok(now) if now == cpu.to_string() => Ok(()),
        now => Err(format!("affinity is {now:?} after pinning to CPU {cpu}")),
    }
}
