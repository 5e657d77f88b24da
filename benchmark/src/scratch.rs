//! RAII scratch directories for stores.
//!
//! Every store the harness creates lives in its own directory under one
//! root (`$NXMARK_SCRATCH`, else `benchmark/out/scratch`). A name is
//! unique per process *and* per call — pid plus a process-wide counter —
//! so concurrent harness processes and repeated set-ups in one process
//! never share a path (the `temp_dir()/name-{pid}` race of ROADMAP item 1
//! cannot occur). The directory is removed when the guard drops, which
//! includes unwinding from a panic.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// The benchmark's own directory: `$NXMARK_HOME` (set by `run.sh`), else
/// where the package was built.
pub fn home_dir() -> PathBuf {
    match std::env::var_os("NXMARK_HOME") {
        Some(p) if !p.is_empty() => PathBuf::from(p),
        _ => PathBuf::from(env!("CARGO_MANIFEST_DIR")),
    }
}

/// `benchmark/out`, where scratch stores, traces and result sets go.
pub fn out_dir() -> PathBuf {
    home_dir().join("out")
}

fn scratch_root() -> PathBuf {
    match std::env::var_os("NXMARK_SCRATCH") {
        Some(p) if !p.is_empty() => PathBuf::from(p),
        _ => out_dir().join("scratch"),
    }
}

/// A directory that exists for as long as the guard does.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Create `<root>/<label>-<pid>-<n>`; `label` is the workload name.
    pub fn new(label: &str) -> std::io::Result<Self> {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = scratch_root().join(format!("{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a failed removal must not turn into a double panic.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Total size and count of the regular files directly inside `dir` (a
/// store is flat: `OsDisk` never nests).
pub fn dir_usage(dir: &Path) -> std::io::Result<(u64, u64)> {
    let (mut bytes, mut files) = (0, 0);
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            bytes += meta.len();
            files += 1;
        }
    }
    Ok((bytes, files))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_per_call_and_removed_on_drop() {
        let a = ScratchDir::new("t").unwrap();
        let b = ScratchDir::new("t").unwrap();
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path().join("f"), b"abc").unwrap();
        assert_eq!(dir_usage(a.path()).unwrap(), (3, 1));
        let (pa, pb) = (a.path().to_owned(), b.path().to_owned());
        drop(a);
        assert!(!pa.exists());
        assert!(pb.exists());
    }

    #[test]
    fn removed_when_a_panic_unwinds() {
        let seen = std::sync::Mutex::new(PathBuf::new());
        let r = std::panic::catch_unwind(|| {
            let d = ScratchDir::new("panic").unwrap();
            *seen.lock().unwrap() = d.path().to_owned();
            panic!("boom");
        });
        assert!(r.is_err());
        let p = seen.lock().unwrap_or_else(|e| e.into_inner()).clone();
        assert!(!p.as_os_str().is_empty() && !p.exists());
    }
}
