//! `nxbench` — regenerates every table and figure of the NXgraph paper.
//!
//! ```text
//! nxbench <experiment> [--scale-shift N] [--seed N] [--threads N] [--iters N]
//!                      [--json] [--out PATH] [--encoding raw|auto|compressed]
//!                      [--cold-cache] [--ooc-scale N]
//!                      [--ooc-device ssd-raid0|ssd|hdd]
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
//!   perf     repo perf baseline — PageRank iters/sec, edges/sec and read
//!            bytes/iter per encoding × strategy on fixed-seed
//!            R-MAT at two scales, plus the thread-scaling section;
//!            `--json` writes BENCH_pagerank.json (`--out` overrides).
//!            Measures encodings raw *and* auto unless `--encoding` pins
//!            one. Includes a disk-backed out-of-core section (streamed
//!            R-MAT prep, O_DIRECT); `--cold-cache`
//!            drops the page cache between reps so reads hit the disk.
//!   scaling  repo thread-scaling baseline — PageRank iters/sec per
//!            strategy at 1/2/4/8 engine threads on the scale-15 fixture,
//!            plus the bitwise determinism matrix (8 algorithms ×
//!            {SPU,DPU,MPU} identical at every thread count —
//!            divergence fails the run). `--json` writes
//!            BENCH_scaling.json (`--out` overrides).
//!   all                — run everything
//! ```
//!
//! Default scales keep each experiment in seconds; raise `--scale-shift`
//! toward 0 to approach the paper's dataset sizes (see DESIGN.md §2).
//! Streaming updates and concurrent serving are measured by nxmark's
//! `updates-delta` and `serve-mixed` workloads (`benchmark/`), not here.

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
    /// Whether `perf`/`scaling` should write their JSON reports.
    pub json: bool,
    /// Output path override for the JSON report; each experiment has its
    /// own default (`BENCH_pagerank.json`, `BENCH_scaling.json`).
    pub out: Option<String>,
    /// On-disk blob encoding for `perf`: `None` measures raw *and* auto
    /// side by side; `Some` pins a single policy (the CI per-path runs).
    pub encoding: Option<nxgraph_storage::EncodingPolicy>,
    /// Cold-cache mode for `perf`: drop the workload's page cache (and
    /// read via `O_DIRECT` where the platform allows) between measured
    /// reps, so every run pays real disk reads instead of page-cache
    /// hits. Falls back to buffered reads with `posix_fadvise` drops on
    /// filesystems that reject `O_DIRECT`.
    pub cold_cache: bool,
    /// Log2 scale override for `perf`'s out-of-core workload, decoupled
    /// from `--scale-shift` so the disk-bound section can run at large
    /// scale without dragging the in-memory sections along.
    pub ooc_scale: Option<u32>,
    /// Device emulation for `perf`'s out-of-core workload: pace reads to
    /// a named `DeviceProfile` (`ssd-raid0` — the paper's testbed —
    /// `ssd`, or `hdd`). Default: the container's real device, unpaced.
    /// This container pairs a ~2 GB/s NVMe with a single CPU, a regime
    /// no out-of-core graph paper ever ran in; pacing restores the
    /// disk-bound balance the paper's Exp 4/8 measured.
    pub ooc_device: Option<nxgraph_storage::DeviceProfile>,
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
            json: false,
            out: None,
            encoding: None,
            cold_cache: false,
            ooc_scale: None,
            ooc_device: None,
        }
    }
}

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
            "--json" => opts.json = true,
            "--cold-cache" => opts.cold_cache = true,
            "--ooc-scale" => {
                opts.ooc_scale = Some(
                    take_val(&mut k)?
                        .parse()
                        .map_err(|e| format!("bad --ooc-scale: {e}"))?,
                )
            }
            "--ooc-device" => {
                let name = take_val(&mut k)?;
                opts.ooc_device =
                    Some(nxgraph_storage::DeviceProfile::by_name(&name).ok_or_else(|| {
                        format!("bad --ooc-device {name:?} (ssd-raid0|ssd|hdd|ram)")
                    })?)
            }
            "--out" => opts.out = Some(take_val(&mut k)?),
            "--encoding" => {
                opts.encoding = Some(
                    take_val(&mut k)?
                        .parse()
                        .map_err(|e| format!("bad --encoding: {e}"))?,
                )
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
            eprintln!("nxbench: {e}\nusage: nxbench <table2|fig6|exp1..exp9|perf|scaling|all> [--scale-shift N] [--seed N] [--threads N] [--iters N] [--json] [--out PATH] [--encoding raw|auto|compressed] [--cold-cache] [--ooc-scale N] [--ooc-device ssd-raid0|ssd|hdd]");
            return ExitCode::FAILURE;
        }
    };
    // JSON lands at `--out` when given, else the experiment's own
    // default. Under `all`, several experiments write JSON — honouring
    // one `--out` would silently clobber earlier reports, so ignore it.
    let mut opts = opts;
    if exp == "all" && opts.out.take().is_some() {
        eprintln!("nxbench: --out ignored for 'all' (each experiment writes its own default path)");
    }
    let json_out = |default: &'static str| -> Option<String> {
        opts.json
            .then(|| opts.out.clone().unwrap_or_else(|| default.to_string()))
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
        "perf" => exps::perf::run(&opts, json_out("BENCH_pagerank.json").as_deref()),
        "scaling" => exps::scaling::run(&opts, json_out("BENCH_scaling.json").as_deref()),
        other => {
            eprintln!("unknown experiment {other:?}");
            false
        }
    };
    let ok = if exp == "all" {
        [
            "table2", "fig6", "exp1", "exp2", "exp3", "exp4", "exp5", "exp6", "exp7", "exp8",
            "exp9", "perf", "scaling",
        ]
        .iter()
        .all(|e| run_one(e))
    } else {
        run_one(&exp)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
