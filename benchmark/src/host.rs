//! What the benchmark reads from the host: CPU time, peak memory, the
//! cores it may use, and the commit it measured.

use std::process::Command;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. Linux
/// fixes it at 100 for every architecture this runs on.
const TICKS_PER_S: f64 = 100.0;

/// Process CPU time (`utime + stime`, all threads) in seconds.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields resume after ")".
    let ticks: f64 = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect::<Vec<_>>())
        .and_then(|f| Some(f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?))
        .unwrap_or(0.0);
    ticks / TICKS_PER_S
}

fn status_field(key: &str) -> Option<String> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// `VmHWM`: this process's peak resident set, in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Parses a kernel CPU list such as `0-1,4`.
fn cpu_list(list: &str) -> Vec<usize> {
    let mut cores = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cores.extend(lo..=hi);
        }
    }
    cores
}

/// Cores this process may run on (`Cpus_allowed_list`).
pub fn allowed_cores() -> Vec<usize> {
    cpu_list(&status_field("Cpus_allowed_list").unwrap_or_default())
}

/// Confines the calling thread to `core`. With two drivers on two
/// cores the scheduler would otherwise stack both threads on one core
/// for stretches, where they stop contending and run faster in total,
/// which makes the contended workload's numbers depend on placement.
/// `taskset -cp` on the thread's id does it without foreign calls.
pub fn pin_current_thread(core: usize) -> bool {
    let Ok(task) = std::fs::read_link("/proc/thread-self") else {
        return false;
    };
    let Some(tid) = task.file_name().and_then(|t| t.to_str()) else {
        return false;
    };
    Command::new("taskset")
        .args(["-cp", &core.to_string(), tid])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// Cores the host has online, whatever this process is confined to.
pub fn nproc() -> usize {
    std::fs::read_to_string("/sys/devices/system/cpu/online")
        .map(|list| cpu_list(&list).len())
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// `git describe --always --dirty` of the checkout, or `unknown`
/// outside a git repository (the driver's checkouts are not one).
pub fn commit() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}
