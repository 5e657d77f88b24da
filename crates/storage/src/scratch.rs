//! Self-cleaning scratch directories for tests, benches and examples.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh directory under the system temp dir, removed (with everything
/// in it) on drop.
///
/// The name is unique per call — process id, a process-wide counter and
/// the caller's label — so concurrently running tests (or two calls with
/// the same label) can never share a store, which a pid-only name cannot
/// promise.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Create `"{temp_dir}/nxgraph-{label}-{pid}-{n}"`.
    ///
    /// # Panics
    /// When the directory cannot be created: a scratch root is a
    /// precondition of whatever the caller is about to measure or test.
    pub fn new(label: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "nxgraph-{label}-{}-{n}",
            std::process::id()
        ));
        std::fs::create_dir_all(&path)
            .unwrap_or_else(|e| panic!("cannot create scratch dir {}: {e}", path.display()));
        Self(path)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_label_never_collides_and_drop_removes() {
        let a = ScratchDir::new("scratch");
        let b = ScratchDir::new("scratch");
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path().join("f"), b"x").unwrap();
        let gone = a.path().to_path_buf();
        drop(a);
        assert!(!gone.exists());
        assert!(b.path().is_dir());
    }
}
