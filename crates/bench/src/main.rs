//! `nxbench` — regenerates every table and figure of the NXgraph paper.
//!
//! ```text
//! nxbench <experiment> [--scale-shift N] [--seed N] [--threads N] [--iters N]
//!
//! experiments:
//!   table2   Table II  — analytic I/O bounds per strategy
//!   fig6     Fig 6     — MPU vs TurboGraph-like I/O ratio curve
//!   exp1     Table IV  — sub-shard ordering & parallelism ablation
//!   exp2     Fig 7     — partitioning sweep (P) for PR/BFS/SCC
//!   exp3     Fig 8     — SPU vs DPU across threads and memory
//!   exp4     Fig 9     — memory-size sweep, all systems
//!   exp5     Fig 10    — thread-count sweep, all systems
//!   exp6     Fig 11    — scalability in MTEPS on mesh graphs
//!   exp7     Fig 12    — BFS/SCC/WCC across systems
//!   exp8     Table V   — limited-resource comparison (+HDD model)
//!   exp9     Table VI  — best-case comparison
//!   all                — run every experiment above, in order
//! ```
//!
//! Default scales keep each experiment in seconds; raise `--scale-shift`
//! toward 0 to approach the paper's dataset sizes.
//! This binary only reproduces the paper. The repo's performance is
//! measured by nxmark (`BENCHMARK.json`, `benchmark/`): its workloads
//! time PageRank per strategy, thread scaling, out-of-core reads behind
//! a paced HDD, streaming updates and concurrent serving.

mod exps;

use std::process::ExitCode;

/// Shared experiment options parsed from the command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Added to each dataset's default log2 scale (negative = smaller).
    pub scale_shift: i32,
    /// RNG seed for the generators.
    pub seed: u64,
    /// Worker threads for the "full resources" configurations.
    pub threads: usize,
    /// PageRank iterations (the paper uses 10).
    pub iters: usize,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            scale_shift: -6,
            seed: 42,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(12),
            iters: 10,
        }
    }
}

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: [&str; 11] = [
    "table2", "fig6", "exp1", "exp2", "exp3", "exp4", "exp5", "exp6", "exp7", "exp8", "exp9",
];

fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let mut opts = Opts::default();
    let mut exp = None;
    let mut k = 0;
    while k < args.len() {
        let a = args[k].clone();
        let take_val = |k: &mut usize| -> Result<String, String> {
            *k += 1;
            args.get(*k)
                .cloned()
                .ok_or_else(|| format!("flag {a} needs a value"))
        };
        match a.as_str() {
            "--scale-shift" => {
                opts.scale_shift = take_val(&mut k)?
                    .parse()
                    .map_err(|e| format!("bad --scale-shift: {e}"))?
            }
            "--seed" => {
                opts.seed = take_val(&mut k)?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--threads" => {
                opts.threads = take_val(&mut k)?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?
            }
            "--iters" => {
                opts.iters = take_val(&mut k)?
                    .parse()
                    .map_err(|e| format!("bad --iters: {e}"))?
            }
            name if !name.starts_with('-') && exp.is_none() => exp = Some(name.to_string()),
            other => return Err(format!("unknown argument {other:?}")),
        }
        k += 1;
    }
    Ok((exp.ok_or("missing experiment name")?, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (exp, opts) = match parse(&args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("nxbench: {e}\nusage: nxbench <table2|fig6|exp1..exp9|all> [--scale-shift N] [--seed N] [--threads N] [--iters N]");
            return ExitCode::FAILURE;
        }
    };
    let run_one = |name: &str| match name {
        "table2" => exps::table2::run(&opts),
        "fig6" => exps::fig6::run(&opts),
        "exp1" => exps::exp1_ordering::run(&opts),
        "exp2" => exps::exp2_partitioning::run(&opts),
        "exp3" => exps::exp3_spu_dpu::run(&opts),
        "exp4" => exps::exp4_memory::run(&opts),
        "exp5" => exps::exp5_threads::run(&opts),
        "exp6" => exps::exp6_scalability::run(&opts),
        "exp7" => exps::exp7_tasks::run(&opts),
        "exp8" => exps::exp8_limited::run(&opts),
        "exp9" => exps::exp9_best::run(&opts),
        other => {
            eprintln!("unknown experiment {other:?}");
            false
        }
    };
    let ok = if exp == "all" {
        EXPERIMENTS.iter().all(|e| run_one(e))
    } else {
        run_one(&exp)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
