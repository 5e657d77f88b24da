//! What the numbers were measured on, and process-level readings.
//!
//! Wall-clock results are this sandbox's; a result file without the host
//! next to it cannot be compared with anything.

use std::path::Path;

use crate::json::Json;

/// Engine worker threads: `min(nproc, 2)`. Two is what the sandbox has;
/// capping keeps a result from a larger host comparable in shape.
pub fn engine_threads() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `path`: the longest mount point in
/// `/proc/mounts` that prefixes it.
fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_owned());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// The commit the harness was built from, when the checkout is a git
/// repository (the driver's is not). Reads `.git` directly: no subprocess.
fn git_commit() -> String {
    let git = crate::scratch::home_dir().join("../.git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => read_trimmed(&git.join(r).to_string_lossy()).unwrap_or_else(|| "unknown".into()),
        None => head,
    }
}

/// Host fingerprint recorded in every result file.
pub fn fingerprint(scratch: &Path) -> Json {
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::str(cpu_model())),
        (
            "kernel",
            Json::str(
                read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("scratch_fs", Json::str(filesystem_of(scratch))),
        ("engine_threads", Json::Num(engine_threads() as f64)),
        ("git_commit", Json::str(git_commit())),
    ])
}

fn status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |k| k / 1024.0)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc: return free heap pages to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Hand the allocator's free heap pages back to the kernel. Called once,
/// after set-up and the oracle and before anything is timed: how much freed
/// set-up memory the allocator happens to keep differs from seed to seed by
/// tens of MiB and would otherwise sit in the stream's resident-set reading.
/// Never called between timed operations — re-faulting the pages would land
/// inside the timed window and hide what the program reuses across calls.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` takes no pointers, may be called at any time
    // from any thread, and only releases memory the allocator holds free.
    unsafe {
        malloc_trim(0);
    }
}

/// Restart the `VmHWM` high-water mark at the current resident set, so a
/// later [`peak_rss_mib`] covers only what ran in between. Where the kernel
/// refuses, the peak keeps covering the whole process, set-up and oracle
/// included, which is still an upper bound.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// User + system CPU seconds consumed by this process so far (all
/// threads), from `/proc/self/stat`. Linux reports these in clock ticks
/// of 1/100 s on every supported architecture.
pub fn cpu_seconds() -> f64 {
    const TICKS_PER_SECOND: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name (which may hold spaces):
    // state is field 3, utime 14, stime 15.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |k: usize| f.get(k).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / TICKS_PER_SECOND
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_plausible() {
        assert!(engine_threads() >= 1 && engine_threads() <= 2);
        assert!(peak_rss_mib() > 0.0);
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - before < 0.02 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds() > before);
    }

    #[test]
    fn fingerprint_has_every_field() {
        let fp = fingerprint(Path::new("/"));
        for key in [
            "nproc",
            "cpu_model",
            "kernel",
            "scratch_fs",
            "engine_threads",
            "git_commit",
        ] {
            assert!(fp.get(key).is_some(), "{key} missing");
        }
    }
}
