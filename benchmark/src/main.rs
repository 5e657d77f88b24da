//! nxmark — the repository's one performance reference.
//!
//! ```text
//! nxmark --workload W --seed N --seconds S --trace 0|1 [--quick]
//!     one workload in this process; the last stdout line is the result
//!     object (this is what the driver and `nxmark run` invoke)
//! nxmark run   [--seed N] [--seconds S] [--reps R] [--quick] [--out FILE]
//!     every workload, tracing off, each run in a child process
//! nxmark trace [same options]
//!     every workload, traced: per-layer metrics + out/trace-<workload>.jsonl
//! nxmark compare BASE.json NEW.json
//! nxmark spec [markdown]
//!     print BENCHMARK.json (or the README's metric table rows)
//! ```
//!
//! See README.md for the workloads, the metrics and how to read a trace.

mod analytics;
mod host;
mod inputs;
mod json;
mod result;
mod scratch;
mod serve;
mod span;
mod spec;
mod stats;
mod store;
mod suite;
mod updates;
mod walk;

use std::process::ExitCode;

use result::{RunArgs, RunResult};

/// The harness's own failures (set-up I/O, a child that printed nothing):
/// anything that is not a measurement.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

const DEFAULT_SEED: u64 = 42;

fn run_workload(name: &str, args: &RunArgs) -> Res<RunResult> {
    use analytics::{BfsFromZero, PageRank10};
    match name {
        "pr-spu-resident" => analytics::run(&analytics::PR_SPU_RESIDENT, &PageRank10, args),
        "pr-dpu-stream" => analytics::run(&analytics::PR_DPU_STREAM, &PageRank10, args),
        "pr-mpu-paced-hdd" => analytics::run(&analytics::PR_MPU_PACED_HDD, &PageRank10, args),
        "bfs-mesh-frontier" => analytics::run(&analytics::BFS_MESH_FRONTIER, &BfsFromZero, args),
        updates::NAME => updates::run(args),
        serve::NAME => serve::run(args),
        other => Err(format!("unknown workload {other:?}").into()),
    }
}

const VALUE_FLAGS: [&str; 6] = ["workload", "seed", "seconds", "trace", "reps", "out"];

/// Flags of the form `--name value` plus bare `--quick`, in any order.
struct Flags {
    pairs: Vec<(String, String)>,
    quick: bool,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Res<Self> {
        let mut f = Flags {
            pairs: Vec::new(),
            quick: false,
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some("quick") => f.quick = true,
                Some(name) => {
                    if !VALUE_FLAGS.contains(&name) {
                        return Err(format!("unknown flag --{name}").into());
                    }
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    f.pairs.push((name.to_string(), value.clone()));
                }
                None => f.positional.push(a.clone()),
            }
        }
        Ok(f)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn num(&self, name: &str, default: u64) -> Res<u64> {
        match self.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} {v:?} is not a whole number").into()),
            None => Ok(default),
        }
    }

    fn run_args(&self, trace: bool) -> Res<RunArgs> {
        let default_seconds = if self.quick { 1 } else { spec::RUN_SECONDS };
        Ok(RunArgs {
            seed: self.num("seed", DEFAULT_SEED)?,
            seconds: self.num("seconds", default_seconds)?.max(1),
            trace,
            quick: self.quick,
        })
    }
}

fn real_main() -> Res<bool> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "compare" | "spec")) => (c, &argv[1..]),
        _ => ("", &argv[..]),
    };
    let flags = Flags::parse(rest)?;
    match command {
        "spec" if flags.positional.first().is_some_and(|p| p == "markdown") => {
            println!("{}", spec::markdown_rows().join("\n"));
            Ok(true)
        }
        "spec" => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
        "compare" => {
            let [base, new] = flags.positional.as_slice() else {
                return Err("usage: nxmark compare BASE.json NEW.json".into());
            };
            suite::compare(base, new)
        }
        _ => match flags.get("workload") {
            Some(name) => {
                let trace = flags.num("trace", 0)? != 0;
                let args = flags.run_args(trace)?;
                let result = run_workload(name, &args)?.finish(trace);
                result.print_lines(name);
                println!("{}", result.driver_line());
                Ok(result.correct())
            }
            None => suite::run(&suite::SuiteArgs {
                run: flags.run_args(command == "trace")?,
                reps: flags.num("reps", 1)?.max(1),
                out: flags.get("out").map(str::to_string),
            }),
        },
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("nxmark: {e}");
            ExitCode::from(2)
        }
    }
}
