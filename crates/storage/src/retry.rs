//! Bounded retry with deterministic exponential backoff.
//!
//! Real disk-bound deployments see transient EIO/EINTR-class failures and
//! short reads that a single re-issue fixes; the paper's engines assume
//! fail-stop devices and die on the first one. [`RetryPolicy`] closes that
//! gap on every blob *read* path: a failed operation is re-issued up to
//! `max_attempts` times **iff** its error is
//! [transient](crate::error::StorageError::is_transient), sleeping a
//! deterministic exponentially-doubling backoff between attempts (no
//! jitter — replayed fault plans must see identical attempt sequences).
//!
//! Classification lives on the error ([`crate::error::ErrorClass`]), not
//! here: corruption is never retried (same wrong bytes), fatal errors
//! ([`StorageError::NotFound`](crate::StorageError::NotFound), budget, watchdog) surface immediately.
//! Every re-issue and every exhaustion is counted in the disk's
//! [`IoProfile`] (`retries` / `giveups`), surfaced by `nxgraph-cli info`.

use std::sync::Arc;
use std::time::Duration;

use crate::error::StorageResult;
use crate::profile::IoProfile;

/// A bounded-attempt, deterministic-backoff retry policy.
///
/// The default is the policy applied on the engine read path: 4 total
/// attempts, 1 ms base backoff doubling to a 16 ms cap — enough to ride
/// out episodic faults while adding at most ~7 ms to a genuinely failing
/// read. [`RetryPolicy::none`] disables retrying (1 attempt).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first issue. Clamped to ≥ 1.
    pub max_attempts: u32,
    /// Backoff before the first re-issue; doubles each further re-issue.
    pub base_backoff: Duration,
    /// Ceiling on a single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(16),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: one attempt, errors surface as-is.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// A policy with `attempts` total attempts and the default backoff.
    pub fn with_attempts(attempts: u32) -> Self {
        Self {
            max_attempts: attempts.max(1),
            ..Self::default()
        }
    }

    /// Same policy with a different base backoff (cap scales to 16×).
    pub fn with_base_backoff(mut self, base: Duration) -> Self {
        self.base_backoff = base;
        self.max_backoff = base.saturating_mul(16);
        self
    }

    /// Whether this policy ever re-issues a failed operation.
    pub fn enabled(&self) -> bool {
        self.max_attempts > 1
    }

    /// Deterministic backoff before re-issue number `retry` (0-based):
    /// `base << retry`, capped at `max_backoff`.
    pub fn backoff_for(&self, retry: u32) -> Duration {
        let doubled = self
            .base_backoff
            .saturating_mul(1u32.checked_shl(retry).unwrap_or(u32::MAX));
        doubled.min(self.max_backoff)
    }

    /// Run `op`, re-issuing transient failures per this policy. Counts
    /// each re-issue (`retries`) and each exhaustion (`giveups`) in
    /// `profile` when one is supplied.
    pub fn run<T>(
        &self,
        profile: Option<&Arc<IoProfile>>,
        mut op: impl FnMut() -> StorageResult<T>,
    ) -> StorageResult<T> {
        let attempts = self.max_attempts.max(1);
        let mut retry = 0u32;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() && retry + 1 < attempts => {
                    if let Some(p) = profile {
                        p.record_retry();
                    }
                    let pause = self.backoff_for(retry);
                    if pause > Duration::ZERO {
                        std::thread::sleep(pause);
                    }
                    retry += 1;
                }
                Err(e) => {
                    // Exhaustion only counts when retrying was on the
                    // table at all: transient error, retries enabled.
                    if e.is_transient() && attempts > 1 {
                        if let Some(p) = profile {
                            p.record_giveup();
                        }
                    }
                    return Err(e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StorageError;
    use std::io;

    fn eio() -> StorageError {
        StorageError::Io(io::Error::other("injected eio"))
    }

    #[test]
    fn succeeds_after_transient_failures_and_counts_retries() {
        let p = IoProfile::new();
        let mut left = 2u32;
        let out = RetryPolicy::default().run(Some(&p), || {
            if left > 0 {
                left -= 1;
                Err(eio())
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.unwrap(), 42);
        let s = p.snapshot();
        assert_eq!(s.retries, 2);
        assert_eq!(s.giveups, 0);
    }

    #[test]
    fn exhaustion_surfaces_the_error_and_counts_a_giveup() {
        let p = IoProfile::new();
        let mut calls = 0u32;
        let out: StorageResult<()> = RetryPolicy::with_attempts(3)
            .with_base_backoff(Duration::ZERO)
            .run(Some(&p), || {
                calls += 1;
                Err(eio())
            });
        assert!(matches!(out, Err(StorageError::Io(_))));
        assert_eq!(calls, 3, "3 attempts total");
        let s = p.snapshot();
        assert_eq!(s.retries, 2);
        assert_eq!(s.giveups, 1);
    }

    #[test]
    fn non_transient_errors_are_never_retried() {
        let p = IoProfile::new();
        let mut calls = 0u32;
        let out: StorageResult<()> = RetryPolicy::default().run(Some(&p), || {
            calls += 1;
            Err(StorageError::Corrupt {
                name: "x".into(),
                reason: "bad checksum".into(),
            })
        });
        assert!(matches!(out, Err(StorageError::Corrupt { .. })));
        assert_eq!(calls, 1);
        let s = p.snapshot();
        assert_eq!(s.retries, 0);
        assert_eq!(s.giveups, 0, "no giveup when retrying was never legal");
    }

    #[test]
    fn disabled_policy_is_one_attempt_no_counters() {
        let p = IoProfile::new();
        let mut calls = 0u32;
        let out: StorageResult<()> = RetryPolicy::none().run(Some(&p), || {
            calls += 1;
            Err(eio())
        });
        assert!(out.is_err());
        assert_eq!(calls, 1);
        let s = p.snapshot();
        assert_eq!(s.retries, 0);
        assert_eq!(s.giveups, 0);
    }

    #[test]
    fn backoff_doubles_deterministically_and_caps() {
        let r = RetryPolicy::default();
        assert_eq!(r.backoff_for(0), Duration::from_millis(1));
        assert_eq!(r.backoff_for(1), Duration::from_millis(2));
        assert_eq!(r.backoff_for(2), Duration::from_millis(4));
        assert_eq!(r.backoff_for(10), Duration::from_millis(16), "capped");
        assert_eq!(r.backoff_for(40), Duration::from_millis(16), "shift-safe");
    }
}
