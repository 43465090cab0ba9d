//! The metric vocabulary and the one-line JSON result.
//!
//! Every run reports every metric of its table: the end-to-end table
//! without tracing, the per-layer table with it. A per-layer metric
//! whose layer a workload never calls reads 0 (for example the serving
//! cache rates on the training workloads).

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("epoch_s", "s"),
    ("requests_per_s", "1/s"),
    ("memory_multiple", "x"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("partition.s", "s"),
    ("partition.edge_cut_frac", "fraction"),
    ("vip.s", "s"),
    ("setup.assemble_s", "s"),
    ("sampler.sample_ms", "ms"),
    ("sampler.mfg_nodes", "count"),
    ("store.plan_ms", "ms"),
    ("store.serve_ms", "ms"),
    ("store.gather_ms", "ms"),
    ("gnn.forward_ms", "ms"),
    ("gnn.backward_ms", "ms"),
    ("gnn.optimizer_ms", "ms"),
    ("step.unattributed_ms", "ms"),
    ("step.whole_ms", "ms"),
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("tensor.t_matmul_gflops", "GFLOP/s"),
    ("tensor.matmul_t_gflops", "GFLOP/s"),
    ("cache.static_hit_share", "fraction"),
    ("comm.remote_rows", "count"),
    ("vip.predicted_remote_rows", "count"),
    ("comm.request_mb", "MiB"),
    ("comm.feature_mb", "MiB"),
    ("comm.gradient_mb", "MiB"),
    ("comm.exchange_wait_ms", "ms"),
    ("engine.eval_s", "s"),
    ("comm_mb", "MiB"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.static_hit_rate", "fraction"),
    ("serve.overlay_hit_rate", "fraction"),
    ("serve.overlay_evictions", "count"),
    ("serve.des_p50_ms.sample", "ms"),
    ("serve.des_p50_ms.fetch", "ms"),
    ("serve.des_p50_ms.copy", "ms"),
    ("serve.des_p50_ms.infer", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Bytes per MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// One run's outcome.
pub struct RunResult {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Operations attempted in the measured part of the run.
    pub attempted: u64,
    /// Attempted operations that failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: Metrics,
}

/// Metric values keyed by table name.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Sets `name`, which must appear in one of the two tables.
    ///
    /// # Panics
    ///
    /// Panics on a name outside both tables (a benchmark bug).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "metric {name} is in neither table"
        );
        self.values.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

impl RunResult {
    /// The result line: every metric of the table selected by `trace`.
    /// An unset end-to-end metric or a non-finite value makes the run
    /// incorrect; an unset per-layer metric reads 0.
    pub fn to_json(&self, trace: bool) -> (String, bool) {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let mut ok = self.correct;
        let mut parts = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let v = match self.metrics.get(name) {
                Some(v) if v.is_finite() => v,
                Some(v) => {
                    eprintln!("metric {name} is not finite: {v}");
                    ok = false;
                    0.0
                }
                None if trace => 0.0,
                None => {
                    eprintln!("metric {name} was not measured");
                    ok = false;
                    0.0
                }
            };
            parts.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            ));
        }
        let line = format!(
            "{{\"correct\": {ok}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            parts.join(", ")
        );
        (line, ok)
    }
}

/// A finite `f64` as a JSON number with every digit Rust keeps
/// (shortest round-trip form).
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Peak resident set size of this process in MiB (`ru_maxrss`, the
/// kernel's high-water mark, also shown as `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    /// `struct rusage` on 64-bit Linux: two `timeval`s then fourteen
    /// `long`s, of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        longs: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = Rusage {
        times: [0; 4],
        longs: [0; 14],
    };
    // SAFETY: `Rusage` matches the C layout on the supported targets and
    // `getrusage(RUSAGE_SELF = 0, ..)` only writes into it.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    usage.longs[0] as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names listed under `section` in `BENCHMARK.json` (a flat scan:
    /// the file is an object of arrays of small objects).
    fn names_in(doc: &str, section: &str) -> Vec<String> {
        let key = format!("\"{section}\"");
        let start = doc.find(&key).expect("section present") + key.len();
        let open = start + doc[start..].find('[').expect("array opens");
        let close = open + doc[open..].find(']').expect("array closes");
        let body = &doc[open..close];
        let mut names = Vec::new();
        let mut rest = body;
        while let Some(i) = rest.find("\"name\"") {
            rest = &rest[i + 6..];
            let q1 = rest.find('"').expect("name value opens");
            let q2 = q1 + 1 + rest[q1 + 1..].find('"').expect("name value closes");
            names.push(rest[q1 + 1..q2].to_string());
            rest = &rest[q2 + 1..];
        }
        names
    }

    fn manifest() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark")
    }

    #[test]
    fn emitted_names_match_benchmark_json() {
        let doc = manifest();
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in(&doc, "end_to_end"), e2e);
        assert_eq!(names_in(&doc, "per_layer"), layer);
        assert_eq!(
            names_in(&doc, "workloads"),
            crate::WORKLOADS.to_vec(),
            "workload names"
        );
    }

    #[test]
    fn units_match_benchmark_json() {
        let doc = manifest();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(doc.contains(&entry), "{name} with unit {unit}");
        }
    }

    #[test]
    fn result_line_lists_every_table_metric() {
        let mut m = Metrics::default();
        for &(name, _) in END_TO_END {
            m.set(name, 1.5);
        }
        let r = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: m,
        };
        let (line, ok) = r.to_json(false);
        assert!(ok);
        for &(name, unit) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }
        // Per-layer metrics default to 0 when a layer is not exercised.
        let (line, ok) = r.to_json(true);
        assert!(ok);
        assert!(line.contains("\"trace.overhead_pct\": {\"value\": 0.0, \"unit\": \"%\"}"));
    }

    #[test]
    fn missing_end_to_end_metric_is_incorrect() {
        let r = RunResult {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: Metrics::default(),
        };
        assert!(!r.to_json(false).1);
    }

    #[test]
    fn json_numbers_keep_digits() {
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(1.2034567891), "1.2034567891");
        assert_eq!(json_number(1e-9), "0.000000001");
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
