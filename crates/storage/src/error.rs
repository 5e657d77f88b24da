//! Error type shared by the storage layer.

use std::fmt;
use std::io;

/// Result alias used across the storage crate.
pub type StorageResult<T> = Result<T, StorageError>;

/// Errors raised by the storage substrate.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying operating-system I/O failure.
    Io(io::Error),
    /// A named file does not exist on the disk.
    NotFound(String),
    /// A file exists but its header or checksum is invalid.
    Corrupt { name: String, reason: String },
    /// A file ended before the expected number of bytes was read — the
    /// stream's reported length and the delivered bytes disagree. On real
    /// devices this is usually a truncated or still-settling file; a retry
    /// against a healthy disk either succeeds or converts into a
    /// [`StorageError::Corrupt`] at decode time, so it is classed
    /// transient.
    ShortRead {
        name: String,
        expected: u64,
        actual: u64,
    },
    /// A manifest line could not be parsed.
    Manifest { line: usize, reason: String },
    /// The requested operation would exceed the configured memory budget.
    BudgetExceeded { requested: u64, available: u64 },
    /// A read exceeded its watchdog deadline: the device (or a wrapper
    /// emulating one) stopped answering. Raised *instead of* blocking
    /// forever — the stalled syscall itself may still be pending on a
    /// detached thread.
    Stalled { name: String, waited_ms: u64 },
}

/// Coarse failure classes driving retry decisions.
///
/// Every [`StorageError`] variant maps to exactly one class (see
/// [`StorageError::class`]); the retry layer only ever re-issues
/// [`ErrorClass::Transient`] failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Plausibly goes away on retry: EIO/EINTR-class syscall failures and
    /// short reads.
    Transient,
    /// The bytes are there but wrong: checksum/structure/manifest damage.
    /// Retrying re-reads the same wrong bytes; scrub/quarantine territory.
    Corruption,
    /// Deterministic and permanent for this run: missing files, exhausted
    /// budgets, tripped watchdogs.
    Fatal,
}

impl StorageError {
    /// The failure class of this error. Exhaustive by construction: adding
    /// a variant forces a decision here (and the `taxonomy_is_exhaustive`
    /// test enumerates every variant).
    pub fn class(&self) -> ErrorClass {
        match self {
            // EINTR, EIO, EAGAIN and friends: the canonical transient
            // failures retries exist for. (A genuinely dead disk surfaces
            // as retry exhaustion with this same error attached.)
            StorageError::Io(_) => ErrorClass::Transient,
            StorageError::ShortRead { .. } => ErrorClass::Transient,
            StorageError::Corrupt { .. } => ErrorClass::Corruption,
            StorageError::Manifest { .. } => ErrorClass::Corruption,
            StorageError::NotFound(_) => ErrorClass::Fatal,
            StorageError::BudgetExceeded { .. } => ErrorClass::Fatal,
            // Already waited a full deadline; the retry layer must not
            // multiply deadlines by attempt counts.
            StorageError::Stalled { .. } => ErrorClass::Fatal,
        }
    }

    /// Whether a retry of the failed operation could plausibly succeed.
    pub fn is_transient(&self) -> bool {
        self.class() == ErrorClass::Transient
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::NotFound(name) => write!(f, "file not found: {name}"),
            StorageError::Corrupt { name, reason } => {
                write!(f, "corrupt file {name}: {reason}")
            }
            StorageError::ShortRead {
                name,
                expected,
                actual,
            } => write!(
                f,
                "short read on {name}: expected {expected} bytes, got {actual}"
            ),
            StorageError::Manifest { line, reason } => {
                write!(f, "manifest parse error at line {line}: {reason}")
            }
            StorageError::BudgetExceeded {
                requested,
                available,
            } => write!(
                f,
                "memory budget exceeded: requested {requested} bytes, {available} available"
            ),
            StorageError::Stalled { name, waited_ms } => write!(
                f,
                "i/o stalled on {name}: no completion within {waited_ms} ms watchdog deadline"
            ),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StorageError::NotFound("shard_0_1.bin".into());
        assert!(e.to_string().contains("shard_0_1.bin"));
        let e = StorageError::BudgetExceeded {
            requested: 100,
            available: 10,
        };
        assert!(e.to_string().contains("100"));
        assert!(e.to_string().contains("10"));
    }

    #[test]
    fn short_read_names_file_and_lengths() {
        let e = StorageError::ShortRead {
            name: "ss_0_1.bin".into(),
            expected: 4096,
            actual: 100,
        };
        let s = e.to_string();
        assert!(s.contains("ss_0_1.bin"));
        assert!(s.contains("4096"));
        assert!(s.contains("100"));
    }

    #[test]
    fn io_error_converts() {
        let io = io::Error::other("boom");
        let e: StorageError = io.into();
        assert!(matches!(e, StorageError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn stalled_names_file_and_deadline() {
        let e = StorageError::Stalled {
            name: "ss_3_4.bin".into(),
            waited_ms: 250,
        };
        let s = e.to_string();
        assert!(s.contains("ss_3_4.bin"));
        assert!(s.contains("250"));
    }

    /// One sample per variant; a new variant fails to compile here until
    /// it is added, and must pick a class in `StorageError::class`.
    fn every_variant() -> Vec<StorageError> {
        vec![
            StorageError::Io(io::Error::other("eio")),
            StorageError::NotFound("x".into()),
            StorageError::Corrupt {
                name: "x".into(),
                reason: "bad checksum".into(),
            },
            StorageError::ShortRead {
                name: "x".into(),
                expected: 2,
                actual: 1,
            },
            StorageError::Manifest {
                line: 1,
                reason: "bad".into(),
            },
            StorageError::BudgetExceeded {
                requested: 2,
                available: 1,
            },
            StorageError::Stalled {
                name: "x".into(),
                waited_ms: 100,
            },
        ]
    }

    #[test]
    fn taxonomy_is_exhaustive() {
        for e in every_variant() {
            // Forcing the compiler through `class()` for every variant;
            // `is_transient` must agree with the class.
            let class = e.class();
            assert_eq!(e.is_transient(), class == ErrorClass::Transient, "{e}");
        }
    }

    #[test]
    fn taxonomy_classes_are_as_documented() {
        use ErrorClass::*;
        let expect = [
            Transient,  // Io
            Fatal,      // NotFound
            Corruption, // Corrupt
            Transient,  // ShortRead
            Corruption, // Manifest
            Fatal,      // BudgetExceeded
            Fatal,      // Stalled
        ];
        for (e, want) in every_variant().iter().zip(expect) {
            assert_eq!(e.class(), want, "{e}");
        }
    }
}
