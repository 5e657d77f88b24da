//! What one workload run reports, and how it is printed.

use crate::json::Json;
use crate::spec;
use crate::stats;

/// Arguments of one workload run — the driver's four plus `--quick`.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Tiny scales for smoke use; never comparable with a full run.
    pub quick: bool,
}

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: u64,
}

/// The raw readings of an untraced run, from which every end-to-end
/// metric is derived in one place ([`RunResult::set_end_to_end`]).
pub struct EndToEnd<'a> {
    /// Seconds of each set-up of the run.
    pub setups: &'a [f64],
    /// Latency of each successful operation, in ms.
    pub op_ms: &'a [f64],
    /// Wall and CPU seconds of the timed stream.
    pub stream_s: f64,
    pub cpu_s: f64,
    /// Counted bytes read + written over the timed stream.
    pub io_bytes: u64,
    /// Store size and edge count after the timed stream.
    pub store_bytes: u64,
    pub edges: u64,
    /// `VmHWM` at the end of set-up, and over the timed stream alone.
    pub setup_rss_mib: f64,
    pub stream_rss_mib: f64,
}

#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Why operations or checks failed; empty on a correct run.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        debug_assert!(
            self.metrics.iter().all(|m| m.name != name),
            "{name} set twice"
        );
        self.metrics.push(Metric {
            name,
            value,
            samples,
        });
    }

    pub fn set_end_to_end(&mut self, e: &EndToEnd<'_>) {
        let lat = stats::Latency::of(e.op_ms);
        let (n, ops) = (lat.n as u64, lat.n as f64);
        self.set("setup_s", stats::median(e.setups), e.setups.len() as u64);
        self.set("op_p50_ms", lat.p50, n);
        self.set("op_p95_ms", lat.p95, n);
        self.set("ops_per_s", ops / e.stream_s, n);
        self.set("cpu_ms_per_op", e.cpu_s * 1e3 / ops, n);
        self.set("io_bytes_per_op", e.io_bytes as f64 / ops, n);
        self.set(
            "store_bytes_per_edge",
            e.store_bytes as f64 / e.edges as f64,
            1,
        );
        // The process's peak without the harness's own oracle, which runs
        // between the two readings.
        self.set("peak_rss_mb", e.setup_rss_mib.max(e.stream_rss_mib), 1);
    }

    /// Record a failed correctness check (counts as one failed operation).
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.failures.push(why.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn unit_of(name: &str) -> &'static str {
        spec::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(spec::PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| u)
    }

    /// Keep exactly the metrics the contract asks for, in its order: every
    /// end-to-end metric with tracing off, every per-layer metric with it
    /// on. A per-layer metric the workload does not exercise reads 0; a
    /// missing end-to-end metric is a harness bug.
    pub fn finish(mut self, trace: bool) -> Self {
        let names: Vec<&'static str> = if trace {
            spec::PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            spec::END_TO_END.iter().map(|m| m.name).collect()
        };
        let mut ordered = Vec::with_capacity(names.len());
        for name in names {
            match self.metrics.iter().position(|m| m.name == name) {
                Some(k) => ordered.push(self.metrics.swap_remove(k)),
                None if trace => ordered.push(Metric {
                    name,
                    value: 0.0,
                    samples: 0,
                }),
                None => panic!("end-to-end metric {name} was not measured"),
            }
        }
        self.metrics = ordered;
        self
    }

    /// `workload metric value unit n=samples`, one line per metric.
    pub fn print_lines(&self, workload: &str) {
        for m in &self.metrics {
            println!(
                "{workload} {} {} {} n={}",
                m.name,
                Json::Num(m.value).compact(),
                Self::unit_of(m.name),
                m.samples
            );
            if m.name == "op_p95_ms" && !stats::supported(m.samples as usize, 0.95) {
                let beyond = stats::samples_beyond(m.samples as usize, 0.95);
                eprintln!("{workload}: op_p95_ms has {beyond} samples beyond it (< {}): read it as the slowest operations, not a tail", stats::MIN_BEYOND);
            }
        }
        for why in &self.failures {
            println!("{workload} FAILED {why}");
        }
    }

    /// The one-object last line the driver parses.
    pub fn driver_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            let v = Json::obj([
                                ("value", Json::Num(m.value)),
                                ("unit", Json::str(Self::unit_of(m.name))),
                            ]);
                            (m.name.to_string(), v)
                        })
                        .collect(),
                ),
            ),
        ])
        .compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut r = RunResult {
            attempted: 12,
            ..Default::default()
        };
        for m in spec::END_TO_END {
            r.set(m.name, 1.25, 3);
        }
        let r = r.finish(false);
        let line = Json::parse(&r.driver_line()).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        let metrics = line.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), spec::END_TO_END.len());
        let setup = line.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(1.25));
    }

    #[test]
    fn traced_result_reports_every_layer_metric_and_zero_for_unused() {
        let mut r = RunResult::default();
        r.set("kernel.absorb_s_per_iter", 0.5, 10);
        r.fail("bits differ");
        let r = r.finish(true);
        assert_eq!(r.metrics.len(), spec::PER_LAYER.len());
        assert!(!r.correct());
        let line = Json::parse(&r.driver_line()).unwrap();
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(1.0));
        assert_eq!(line.get("attempted").and_then(Json::as_f64), Some(1.0));
        let m = line.get("metrics").unwrap();
        assert_eq!(
            m.get("kernel.absorb_s_per_iter")
                .unwrap()
                .get("value")
                .and_then(Json::as_f64),
            Some(0.5)
        );
        assert_eq!(
            m.get("serve.errors")
                .unwrap()
                .get("value")
                .and_then(Json::as_f64),
            Some(0.0)
        );
    }
}
