//! Minimal flag parsing (positional arguments + `--flag value` pairs).

use std::collections::HashMap;

/// Usage text shown on any argument error.
pub const USAGE: &str = "\
usage:
  nxgraph-cli generate <rmat|mesh|er> --out <edges.txt> [--scale N] [--edge-factor N] [--seed N] [--vertices N] [--edges N]
  nxgraph-cli prep <edges.txt> <graph-dir> [--intervals P] [--no-reverse] [--name NAME]
                   [--encoding raw|auto|compressed]
  nxgraph-cli info <graph-dir>
  nxgraph-cli compact <graph-dir>
  nxgraph-cli scrub <graph-dir>
  nxgraph-cli pagerank <graph-dir> [--iters N] [--budget-mib N] [--threads N] [--top K]
  nxgraph-cli bfs <graph-dir> --root R [--threads N]
  nxgraph-cli sssp <graph-dir> --root R [--threads N]
  nxgraph-cli wcc <graph-dir> [--threads N]
  nxgraph-cli scc <graph-dir> [--threads N]
  nxgraph-cli hits <graph-dir> [--iters N] [--top K]
  nxgraph-cli serve <graph-dir> [--queries N] [--readers N] [--update-batches N] [--batch-size N]
                    [--max-concurrent N] [--query-budget-mib N] [--total-budget-mib N]
                    [--query-threads N] [--seed N]

engine flags (all algorithms): sub-shards and hubs stream through one
read pipeline (inline at --threads 1, otherwise read and decoded ahead by
up to 4 background workers; results are bitwise-identical either way);
[--io-deadline-ms N] hung-I/O watchdog: when the pipeline delivers nothing
for N ms the run fails with a typed stall error instead of hanging;
[--direct] opens the graph with O_DIRECT reads where the platform allows
(falls back to buffered reads otherwise)

reliability flags (all graph-reading commands): [--retries N] attempts
per transient-failing read (default 4; 1 disables retrying);
[--retry-backoff-ms M] base backoff between attempts, doubling per retry
(default 1 ms)";

/// Parsed command line: positionals plus flags.
pub struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

/// Flags that take no value.
const SWITCHES: &[&str] = &["--no-reverse", "--direct"];

impl Args {
    /// Parse raw argv (after the subcommand).
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut flags = HashMap::new();
        let mut switches = Vec::new();
        let mut k = 0;
        while k < argv.len() {
            let a = &argv[k];
            if SWITCHES.contains(&a.as_str()) {
                switches.push(a.clone());
            } else if let Some(name) = a.strip_prefix("--") {
                k += 1;
                let value = argv
                    .get(k)
                    .ok_or_else(|| format!("flag --{name} needs a value"))?;
                flags.insert(name.to_string(), value.clone());
            } else {
                positional.push(a.clone());
            }
            k += 1;
        }
        Ok(Self {
            positional,
            flags,
            switches,
        })
    }

    /// Positional argument `i`, required.
    pub fn pos(&self, i: usize, what: &str) -> Result<&str, String> {
        self.positional
            .get(i)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing {what}"))
    }

    /// Optional flag value parsed to `T`.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.flags.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse::<T>()
                .map(Some)
                .map_err(|e| format!("bad --{name} {v:?}: {e}")),
        }
    }

    /// Flag with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        Ok(self.get(name)?.unwrap_or(default))
    }

    /// Required flag.
    pub fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        self.get(name)?
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// Whether a value-less switch is present.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_mixed_args() {
        let a = Args::parse(&argv(&["edges.txt", "dir", "--intervals", "16", "--no-reverse"]))
            .unwrap();
        assert_eq!(a.pos(0, "input").unwrap(), "edges.txt");
        assert_eq!(a.pos(1, "dir").unwrap(), "dir");
        assert_eq!(a.get_or("intervals", 8u32).unwrap(), 16);
        assert!(a.switch("--no-reverse"));
        assert!(!a.switch("--other"));
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Args::parse(&argv(&["--iters"])).is_err());
    }

    #[test]
    fn bad_parse_is_an_error() {
        let a = Args::parse(&argv(&["--iters", "abc"])).unwrap();
        assert!(a.get::<u32>("iters").is_err());
    }

    #[test]
    fn require_reports_missing() {
        let a = Args::parse(&argv(&[])).unwrap();
        assert!(a.require::<u32>("root").is_err());
        assert!(a.pos(0, "graph-dir").is_err());
    }
}
