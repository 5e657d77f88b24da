//! Runner configuration.

/// Mirrors the `cases` knob of the real `ProptestConfig`.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    /// `cases` cases, unless `PROPTEST_CASES` is set: the environment
    /// overrides every suite, so one run can widen them all.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases: env_cases().unwrap_or(cases),
        }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self::with_cases(32)
    }
}

fn env_cases() -> Option<u32> {
    std::env::var("PROPTEST_CASES").ok()?.parse().ok()
}
