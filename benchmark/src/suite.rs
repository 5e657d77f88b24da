//! `nxmark run` / `nxmark trace`: every workload, each run in its own
//! child process, gathered into one result file; and `nxmark compare`,
//! which judges two such files by the bounds of the spec (`BENCHMARK.json`
//! is the spec verbatim).
//!
//! A child is this binary invoked exactly as the driver invokes it
//! (`--workload W --seed N --seconds S --trace T`), so the suite and the
//! driver measure through the same door, and neither peak memory nor
//! process-global state (buffer pool, worker pool) leaks from one
//! workload into the next.

use std::process::{Command, Stdio};

use crate::host;
use crate::json::Json;
use crate::result::RunArgs;
use crate::scratch::out_dir;
use crate::spec::{self, Better};
use crate::stats;
use crate::Res;

pub struct SuiteArgs {
    pub run: RunArgs,
    /// Runs per workload, on seeds `seed, seed+1, …`.
    pub reps: u64,
    pub out: Option<String>,
}

/// What one child printed.
struct ChildRun {
    correct: bool,
    attempted: f64,
    failed: f64,
    /// (metric, value, unit, samples)
    metrics: Vec<(String, f64, String, f64)>,
}

fn run_child(workload: &str, args: &RunArgs) -> Res<ChildRun> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().next_back().unwrap_or_default();
    let line = Json::parse(last)
        .map_err(|e| format!("{workload}: no result line ({e}); exit {}", output.status))?;
    // `workload metric value unit n=samples` lines carry the sample counts.
    let samples_of = |metric: &str| {
        stdout
            .lines()
            .filter_map(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                (f.len() == 5 && f[0] == workload && f[1] == metric)
                    .then(|| f[4].strip_prefix("n=")?.parse::<f64>().ok())?
            })
            .next()
            .unwrap_or(0.0)
    };
    let field = |k: &str| {
        line.get(k)
            .ok_or_else(|| format!("{workload}: result line lacks {k}"))
    };
    let mut metrics = Vec::new();
    for (name, m) in field("metrics")?
        .as_obj()
        .ok_or("metrics is not an object")?
    {
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .ok_or("metric without value")?;
        let unit = m
            .get("unit")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        metrics.push((name.clone(), value, unit, samples_of(name)));
    }
    let correct = field("correct")?.as_bool().unwrap_or(false);
    if correct != output.status.success() {
        return Err(format!("{workload}: exit {} but correct = {correct}", output.status).into());
    }
    for l in stdout.lines().filter(|l| l.contains(" FAILED ")) {
        eprintln!("{l}");
    }
    Ok(ChildRun {
        correct,
        attempted: field("attempted")?.as_f64().unwrap_or(0.0),
        failed: field("failed")?.as_f64().unwrap_or(0.0),
        metrics,
    })
}

fn nums(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|x| Json::Num(*x)).collect())
}

/// Run the suite; returns whether every run of every workload was correct.
pub fn run(args: &SuiteArgs) -> Res<bool> {
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for name in spec::WORKLOADS.iter().map(|w| w.name) {
        let mut runs = Vec::new();
        for rep in 0..args.reps {
            let run_args = RunArgs {
                seed: args.run.seed + rep,
                ..args.run
            };
            eprintln!(
                "nxmark: {name} seed {} ({}/{})",
                run_args.seed,
                rep + 1,
                args.reps
            );
            runs.push(run_child(name, &run_args)?);
        }
        let first = &runs[0];
        let mut metrics = Vec::new();
        for (k, (metric, _, unit, _)) in first.metrics.iter().enumerate() {
            let values: Vec<f64> = runs.iter().map(|r| r.metrics[k].1).collect();
            let samples: Vec<f64> = runs.iter().map(|r| r.metrics[k].3).collect();
            let sorted = stats::sorted(&values);
            let median = stats::median(&values);
            println!(
                "{name} {metric} {} {unit} n={} runs={}",
                Json::Num(median).compact(),
                samples[0],
                values.len()
            );
            metrics.push((
                metric.clone(),
                Json::obj([
                    ("unit", Json::str(unit.clone())),
                    ("values", nums(&values)),
                    ("samples", nums(&samples)),
                    ("min", Json::Num(sorted[0])),
                    ("median", Json::Num(median)),
                    ("max", Json::Num(sorted[sorted.len() - 1])),
                    // Interquartile range over the median; needs four runs.
                    (
                        "spread",
                        if values.len() >= 4 {
                            stats::spread(&values).map_or(Json::Null, Json::Num)
                        } else {
                            Json::Null
                        },
                    ),
                ]),
            ));
        }
        let correct = runs.iter().all(|r| r.correct);
        all_correct &= correct;
        workloads.push((
            name.to_string(),
            Json::obj([
                ("correct", Json::Bool(correct)),
                (
                    "attempted",
                    Json::Num(runs.iter().map(|r| r.attempted).sum()),
                ),
                ("failed", Json::Num(runs.iter().map(|r| r.failed).sum())),
                ("metrics", Json::Obj(metrics)),
            ]),
        ));
    }
    let file = Json::obj([
        ("schema", Json::str("nxmark-1")),
        ("quick", Json::Bool(args.run.quick)),
        ("trace", Json::Bool(args.run.trace)),
        ("seed", Json::Num(args.run.seed as f64)),
        ("reps", Json::Num(args.reps as f64)),
        ("seconds", Json::Num(args.run.seconds as f64)),
        ("host", host::fingerprint(&out_dir())),
        ("workloads", Json::Obj(workloads)),
    ]);
    let default_name = format!(
        "{}-seed{}.json",
        if args.run.trace { "trace" } else { "run" },
        args.run.seed
    );
    let path = args
        .out
        .clone()
        .map_or_else(|| out_dir().join(default_name), Into::into);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&path, file.pretty())?;
    eprintln!("nxmark: wrote {}", path.display());
    Ok(all_correct)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread is wider than the bound: no call possible.
    Unresolved,
}

/// Judge medians `base → new` of a metric with regression bound `bound`;
/// `spread` is the wider of the two sides' IQR/median, when known.
pub fn judge(base: f64, new: f64, better: Better, bound: f64, spread: Option<f64>) -> Verdict {
    if spread.is_some_and(|s| s > bound) {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &str) -> Res<Json> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let file = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if file.get("schema").and_then(Json::as_str) != Some("nxmark-1") {
        return Err(format!("{path}: not an nxmark result file").into());
    }
    if file.get("quick").and_then(Json::as_bool) != Some(false) {
        return Err(format!(
            "{path}: a --quick run exercises code paths, it measures nothing; refusing to compare"
        )
        .into());
    }
    if file.get("trace").and_then(Json::as_bool) != Some(false) {
        return Err(format!(
            "{path}: a traced run has no end-to-end metrics; compare judges untraced files"
        )
        .into());
    }
    Ok(file)
}

/// Print one row per (workload, end-to-end metric) of the benchmark's
/// spec; returns whether the comparison passes: nothing worse, nothing
/// missing from either side, no rise in the share of failures.
///
/// Both files must have been taken the same way. Stream lengths follow
/// `--seconds` and inputs follow the seeds, so byte counts, store sizes and
/// tails of files that differ in `seconds`, `seed` or `reps` differ for
/// reasons that are not the program's.
pub fn compare(base_path: &str, new_path: &str) -> Res<bool> {
    let (base, new) = (load(base_path)?, load(new_path)?);
    for key in ["seconds", "seed", "reps"] {
        let of = |file: &Json| file.get(key).map_or("none".into(), Json::compact);
        let (b, n) = (of(&base), of(&new));
        if b != n {
            return Err(format!(
                "--{key} differs ({base_path}: {b}, {new_path}: {n}): not comparable"
            )
            .into());
        }
    }
    let mut pass = true;
    println!(
        "{:<20} {:<22} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "base", "new", "new/base", "spread", "bound"
    );
    for workload in spec::WORKLOADS.iter().map(|w| w.name) {
        let of = |file| Json::get(file, "workloads").and_then(|w| w.get(workload));
        let (Some(b), Some(n)) = (of(&base), of(&new)) else {
            println!("{workload:<20} missing from one of the files");
            pass = false;
            continue;
        };
        let share = |w: &Json| {
            let f = |k: &str| w.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            f("failed") / f("attempted").max(1.0)
        };
        if share(n) > share(b) {
            println!(
                "{workload:<20} failed share rose: {} of attempted (base {})",
                share(n),
                share(b)
            );
            pass = false;
        }
        for m in spec::END_TO_END {
            let of = |w: &Json, k: &str| {
                w.get("metrics")
                    .and_then(|all| all.get(m.name))
                    .and_then(|one| one.get(k))
                    .and_then(Json::as_f64)
            };
            let (Some(mb), Some(mn)) = (of(b, "median"), of(n, "median")) else {
                println!(
                    "{workload:<20} {:<22} missing from one of the files",
                    m.name
                );
                pass = false;
                continue;
            };
            let spread = match (of(b, "spread"), of(n, "spread")) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let verdict = judge(mb, mn, m.better, m.bound, spread);
            pass &= verdict != Verdict::Worse;
            println!(
                "{workload:<20} {:<22} {mb:>14.6} {mn:>14.6} {:>8.4} {:>7} {:>7.3}  {}",
                m.name,
                mn / mb,
                spread.map_or("n/a".to_string(), |s| format!("{s:.4}")),
                m.bound,
                format!("{verdict:?}").to_lowercase(),
            );
        }
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_bound_direction_and_spread() {
        use Better::{Higher, Lower};
        assert_eq!(judge(100.0, 105.0, Lower, 0.10, None), Verdict::Same);
        assert_eq!(judge(100.0, 111.0, Lower, 0.10, None), Verdict::Worse);
        assert_eq!(judge(100.0, 89.0, Lower, 0.10, None), Verdict::Better);
        assert_eq!(judge(100.0, 89.0, Higher, 0.10, None), Verdict::Worse);
        assert_eq!(
            judge(100.0, 111.0, Higher, 0.10, Some(0.05)),
            Verdict::Better
        );
        // A spread wider than the bound makes any difference unreadable.
        assert_eq!(
            judge(100.0, 150.0, Lower, 0.10, Some(0.12)),
            Verdict::Unresolved
        );
        assert_eq!(judge(100.0, 100.0, Lower, 0.10, Some(0.10)), Verdict::Same);
    }

    /// A result file of every workload and end-to-end metric, all medians
    /// 10 but `op_p50_ms`.
    struct File {
        quick: bool,
        trace: bool,
        seconds: f64,
        op_p50_ms: f64,
        failed: f64,
        without_metric: Option<&'static str>,
        without_workload: Option<&'static str>,
    }

    const FILE: File = File {
        quick: false,
        trace: false,
        seconds: 8.0,
        op_p50_ms: 10.0,
        failed: 0.0,
        without_metric: None,
        without_workload: None,
    };

    impl File {
        fn text(&self) -> String {
            let metrics = spec::END_TO_END
                .iter()
                .filter(|m| Some(m.name) != self.without_metric)
                .map(|m| {
                    let median = if m.name == "op_p50_ms" {
                        self.op_p50_ms
                    } else {
                        10.0
                    };
                    let one = [("median", Json::Num(median)), ("spread", Json::Num(0.01))];
                    (m.name.to_string(), Json::obj(one))
                })
                .collect::<Vec<_>>();
            let workloads = spec::WORKLOADS
                .iter()
                .filter(|w| Some(w.name) != self.without_workload)
                .map(|w| {
                    let one = Json::obj([
                        ("attempted", Json::Num(10.0)),
                        ("failed", Json::Num(self.failed)),
                        ("metrics", Json::Obj(metrics.clone())),
                    ]);
                    (w.name.to_string(), one)
                })
                .collect();
            Json::obj([
                ("schema", Json::str("nxmark-1")),
                ("quick", Json::Bool(self.quick)),
                ("trace", Json::Bool(self.trace)),
                ("seed", Json::Num(42.0)),
                ("reps", Json::Num(10.0)),
                ("seconds", Json::Num(self.seconds)),
                ("workloads", Json::Obj(workloads)),
            ])
            .pretty()
        }
    }

    #[test]
    fn compare_passes_flags_regressions_and_refuses_what_is_not_comparable() {
        let dir = crate::scratch::ScratchDir::new("compare-test").unwrap();
        let mut count = 0;
        let mut write = |file: File| {
            count += 1;
            let p = dir.path().join(format!("{count}.json"));
            std::fs::write(&p, file.text()).unwrap();
            p.to_string_lossy().into_owned()
        };
        let bound = spec::END_TO_END
            .iter()
            .find(|m| m.name == "op_p50_ms")
            .unwrap()
            .bound;
        let base = write(FILE);
        let same = write(File {
            op_p50_ms: 10.0 * (1.0 + bound / 2.0),
            ..FILE
        });
        let slow = write(File {
            op_p50_ms: 10.0 * (1.0 + 2.0 * bound),
            ..FILE
        });
        let broken = write(File {
            failed: 1.0,
            ..FILE
        });
        assert!(compare(&base, &same).unwrap());
        assert!(!compare(&base, &slow).unwrap());
        assert!(!compare(&base, &broken).unwrap());
        // A metric or a workload that one side lacks fails, whichever side.
        for lacking in [
            File {
                without_metric: Some("peak_rss_mb"),
                ..FILE
            },
            File {
                without_workload: Some("serve-mixed"),
                ..FILE
            },
        ] {
            let lacking = write(lacking);
            assert!(!compare(&base, &lacking).unwrap());
            assert!(!compare(&lacking, &base).unwrap());
        }
        // Files that were not taken the same way are refused outright.
        for other in [
            File {
                quick: true,
                ..FILE
            },
            File {
                trace: true,
                ..FILE
            },
            File {
                seconds: 4.0,
                ..FILE
            },
        ] {
            let other = write(other);
            assert!(compare(&base, &other).is_err());
            assert!(compare(&other, &base).is_err());
        }
    }
}
