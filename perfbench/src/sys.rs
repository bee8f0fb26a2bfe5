//! Operating-system counters, read from `/proc` so that nothing inside the
//! program under test needs instrumenting.

use std::path::Path;

/// Processors of the machine: those available to this process, or, in
/// the pinned child, those its parent had.
pub(crate) fn nproc() -> usize {
    std::env::var(NPROC_ENV)
        .ok()
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
}

/// The running kernel's release string.
pub(crate) fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// Process user + system CPU time in microseconds (`/proc/self/stat`,
/// clock ticks at the usual 100 Hz), dead threads included.
pub(crate) fn cpu_us() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) * 1e6 / 100.0
}

/// Voluntary plus involuntary context switches, summed over every live
/// thread of this process.
pub(crate) fn ctx_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .flat_map(|s| {
            s.lines()
                .filter(|l| l.contains("ctxt_switches:"))
                .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
                .collect::<Vec<_>>()
        })
        .sum()
}

/// Bytes this process caused to be written to the block layer
/// (`write_bytes` in `/proc/self/io`).
pub(crate) fn device_write_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("write_bytes:")
                    .and_then(|v| v.trim().parse().ok())
            })
        })
        .unwrap_or(0)
}

/// Filesystem type of the mount holding `dir` (longest mount-point prefix
/// in `/proc/self/mountinfo`).
pub(crate) fn fs_type(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let (pre, post) = line.split_once(" - ").unwrap_or((line, ""));
        let (Some(mnt), Some(fs)) = (
            pre.split_whitespace().nth(4),
            post.split_whitespace().next(),
        ) else {
            continue;
        };
        if dir.starts_with(mnt) && best.as_ref().is_none_or(|(len, _)| mnt.len() >= *len) {
            best = Some((mnt.len(), fs.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Let this thread's timed sleeps wake within a microsecond of their
/// deadline instead of the default 50 µs slack, so the open-loop
/// generator's own lag stays out of the latencies. Best effort.
pub(crate) fn tighten_timer_slack() {
    if let Ok(me) = std::fs::read_link("/proc/thread-self") {
        if let Some(tid) = me.file_name() {
            let path = Path::new("/proc").join(tid).join("timerslack_ns");
            let _ = std::fs::write(path, "1");
        }
    }
}

/// Host steal time so far, in clock ticks summed over every vCPU (the
/// `steal` column of `/proc/stat`): time this machine's vCPUs were ready
/// to run but the hypervisor ran something else.
pub(crate) fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Set in the pinned child to the machine's processor count.
const NPROC_ENV: &str = "RADD_PERFBENCH_NPROC";

/// The CPUs this process may run on (`Cpus_allowed_list` of
/// `/proc/self/status`), as the kernel prints them, e.g. `0-1`.
pub(crate) fn cpus_allowed() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("Cpus_allowed_list:")
                    .map(|v| v.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Run the rest of the benchmark pinned to one CPU: re-run this program
/// under `taskset` and wait for it. On a VM whose vCPUs the host
/// overcommits, every wake-up of an idle vCPU costs whatever the
/// hypervisor makes it cost, and that swung wall-clock figures two- to
/// fourfold from run to run; on one CPU the same wake-ups are plain
/// context switches. Returns the child's exit code, or `None` in the
/// child itself and when `taskset` cannot be started (the run then goes
/// on unpinned, as its header shows).
pub(crate) fn pin_to_one_cpu() -> Option<std::process::ExitCode> {
    if std::env::var_os(NPROC_ENV).is_some() {
        return None;
    }
    let allowed = cpus_allowed();
    let first = allowed
        .split([',', '-'])
        .next()
        .filter(|c| c.parse::<u32>().is_ok())?;
    let exe = std::env::current_exe().ok()?;
    let status = std::process::Command::new("taskset")
        .args(["-c", first])
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env(NPROC_ENV, nproc().to_string())
        .status()
        .ok()?;
    Some(std::process::ExitCode::from(
        status.code().map_or(1, |c| u8::try_from(c).unwrap_or(1)),
    ))
}
