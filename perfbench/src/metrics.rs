//! The metric catalogue and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a
//! test keeps the two in step.

use std::collections::BTreeMap;

use crate::stats::Summary;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("req_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("hit_p50_ms", "ms"),
    ("miss_p50_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("workloads.generate.busy_s", "s"),
    ("workloads.generate.mrecords_per_s", "M/s"),
    ("trace.resident_mb", "MiB"),
    ("mem.replay.busy_s", "s"),
    ("mem.replay.mrecords_per_s", "M/s"),
    ("mem.replay.4mb.busy_s", "s"),
    ("mem.replay.12mb.busy_s", "s"),
    ("mem.replay.32mb.busy_s", "s"),
    ("mem.replay.64mb.busy_s", "s"),
    ("thermal.solve.busy_s", "s"),
    ("thermal.solve.calls", "count"),
    ("thermal.cg_iterations", "count"),
    ("thermal.cell_updates_per_s", "1/s"),
    ("floorplan.power_grid.busy_s", "s"),
    ("ooo.suite.busy_s", "s"),
    ("ooo.run.busy_s", "s"),
    ("ooo.muops_per_s", "M/s"),
    ("harness.cache.load.busy_ms", "ms"),
    ("harness.cache.store.busy_ms", "ms"),
    ("harness.cache.store.bytes", "B"),
    ("harness.cache.hit_ratio", "ratio"),
    ("harness.session.queue_wait_ms", "ms"),
    ("harness.session.dedup_ratio", "ratio"),
    ("explore.engine.busy_s", "s"),
    ("explore.points", "count"),
    ("explore.hit_ratio", "ratio"),
    ("serve.overhead_ms", "ms"),
    ("serve.post_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.artifact_ms", "ms"),
    ("tracing.wall_s", "s"),
    ("tracing.overhead_ratio", "ratio"),
    ("tracing.uncovered_share", "ratio"),
];

/// What one run found: metric values plus the correctness tally.
#[derive(Debug, Default)]
pub struct Outcome {
    values: BTreeMap<String, f64>,
    /// Operations attempted (requests, plus each output check).
    pub attempted: u64,
    /// Operations that failed or produced a mismatched output.
    pub failed: u64,
    /// Human-readable lines printed ahead of the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Records a timing metric from its summary (the median) and notes
    /// its tail and sample count.
    pub fn set_summary(&mut self, name: &str, scale: f64, s: &Summary) {
        self.set(name, s.median * scale);
        let tail = match s.tail {
            Some((p, v)) => format!("p{p} {:.6}", v * scale),
            None => "no percentile has 10 samples beyond it".to_string(),
        };
        self.notes.push(format!(
            "{name}: median {:.6}, {tail}, n={}",
            s.median * scale,
            s.n
        ));
    }

    /// Counts one checked operation, failing it when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Operations that failed or mismatched, over operations attempted.
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed as f64 / self.attempted as f64
    }

    /// The result line: one JSON object with the metrics of `catalogue`.
    /// A catalogue metric the run did not record reads 0; a non-finite
    /// value is reported as 0 and counts as a failure.
    pub fn result_line(&mut self, catalogue: &[(&str, &str)]) -> String {
        let mut metrics = Vec::with_capacity(catalogue.len());
        for (name, unit) in catalogue {
            let mut v = self.get(name).unwrap_or(0.0);
            if !v.is_finite() {
                self.check(false, || format!("metric {name} is not finite"));
                v = 0.0;
            }
            metrics.push(format!(
                "\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stacksim_core::harness::json::Json;

    #[test]
    fn result_line_is_json_with_every_catalogue_metric() {
        let mut o = Outcome::default();
        o.set("setup_s", 0.8127);
        o.check(true, String::new);
        let line = o.result_line(&END_TO_END);
        let doc = Json::parse(&line).expect("result line is JSON");
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(1));
        let metrics = doc.get("metrics").expect("metrics");
        for (name, unit) in END_TO_END {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
        }
        let setup = metrics.get("setup_s").and_then(|m| m.get("value"));
        assert_eq!(setup.and_then(Json::as_f64), Some(0.8127));
    }

    #[test]
    fn a_failed_check_marks_the_run_incorrect() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.check(false, || "digest mismatch".to_string());
        assert_eq!(o.fail_ratio(), 0.5);
        let doc = Json::parse(&o.result_line(&PER_LAYER)).expect("JSON");
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(1));
    }

    /// `BENCHMARK.json` declares exactly the catalogue above.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
    }
}
