//! The metric table (mirrored by `BENCHMARK.json`) and the result line.

use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: name, unit, direction and, for end-to-end metrics, the
/// share of the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: every workload reports all of them, each from
/// the untraced run. "Request" means the workload's unit of user work:
/// one campaign (in-process or served) or one diagnosis query.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("latency_p50_ms", "ms", Lower, 0.15),
    e2e("faults_per_s", "1/s", Higher, 0.15),
    e2e("cpu_ms_per_fault", "ms", Lower, 0.10),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
];

/// Per-layer metrics from the traced run. Layers a workload does not
/// exercise report 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("layout.gen_ms", "ms", Lower),
    layer("extract.extract_ms", "ms", Lower),
    layer("lift.extract_faults_ms", "ms", Lower),
    layer("lift.faults", "count", Higher),
    layer("inject.p50_us", "us", Lower),
    layer("campaign.nominal_ms", "ms", Lower),
    layer("campaign.fault_busy_s", "s", Lower),
    layer("campaign.fault_p50_ms", "ms", Lower),
    layer("campaign.fault_p85_ms", "ms", Lower),
    layer("campaign.drop_saved_frac", "ratio", Higher),
    layer("campaign.parallel_eff", "ratio", Higher),
    layer("campaign.sched_overhead_ms", "ms", Lower),
    layer("spice.us_per_newton", "us", Lower),
    layer("spice.newton_iterations", "count", Lower),
    layer("spice.steps", "count", Lower),
    layer("spice.halvings", "count", Lower),
    layer("spice.convergence_failures", "count", Lower),
    layer("spice.newton_per_step", "ratio", Lower),
    layer("spice.refactorisations", "count", Lower),
    layer("spice.repivots", "count", Lower),
    layer("spice.dense_fallbacks", "count", Lower),
    layer("spice.pattern_builds", "count", Lower),
    layer("spice.pattern_hit_ratio", "ratio", Higher),
    layer("batch.lanes", "count", Higher),
    layer("batch.batched_faults", "count", Higher),
    layer("batch.lane_yield", "ratio", Higher),
    layer("batch.ejections", "count", Lower),
    layer("batch.ejected_wall_frac", "ratio", Lower),
    layer("batch.compactions", "count", Higher),
    layer("batch.refills", "count", Higher),
    layer("protocol.spec_parse_ms", "ms", Lower),
    layer("protocol.result_write_ms", "ms", Lower),
    layer("protocol.result_parse_ms", "ms", Lower),
    layer("serve.submit_p50_ms", "ms", Lower),
    layer("serve.queue_wait_p50_ms", "ms", Lower),
    layer("serve.first_event_p50_ms", "ms", Lower),
    layer("serve.first_event_p85_ms", "ms", Lower),
    layer("serve.latency_p85_ms", "ms", Lower),
    layer("serve.event_gap_p50_ms", "ms", Lower),
    layer("serve.event_gap_p99_ms", "ms", Lower),
    layer("serve.result_lag_ms", "ms", Lower),
    layer("serve.stream_kb_per_campaign", "kB", Lower),
    layer("serve.state_kb_per_campaign", "kB", Lower),
    layer("serve.batch_width_max", "count", Higher),
    layer("diagnose.signed_campaign_s", "s", Lower),
    layer("diagnose.build_ms", "ms", Lower),
    layer("diagnose.json_roundtrip_ms", "ms", Lower),
    layer("diagnose.entries", "count", Higher),
    layer("diagnose.classes", "count", Higher),
    layer("diagnose.rank_p50_us", "us", Lower),
    layer("diagnose.rank_p99_us", "us", Lower),
    layer("diagnose.top1_pct", "%", Higher),
    layer("diagnose.top3_pct", "%", Higher),
    layer("diagnose.onset_share", "ratio", Higher),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.unattributed_pct", "%", Lower),
];

/// Looks a metric up in either table.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// What one run of one workload produced: operation counts and metric
/// values by name.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// Every request latency (ms) behind `latency_p50_ms`, for the
    /// human-readable tail report.
    pub latencies_ms: Vec<f64>,
}

impl Outcome {
    /// Records one operation and whether it succeeded; a failure's
    /// reason goes to stderr.
    pub fn op(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = ok {
            self.failed += 1;
            eprintln!("perfbench: failed: {reason}");
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(def(name).is_some(), "metric `{name}` is not in the table");
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The result object over `table`: `correct`, `attempted`, `failed`
    /// and one `{value, unit}` entry per metric (0 when not measured).
    pub fn to_json(&self, table: &[MetricDef]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|d| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    num(self.get(d.name)),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit of the measurement (shortest
/// round-trip form); non-finite values, which no metric should produce,
/// are written as 0.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anafault::protocol::{parse_json, Json};

    /// `BENCHMARK.json` at the repository root must describe exactly
    /// the metrics this binary reports.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = parse_json(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.field(key).unwrap().as_array().unwrap();
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (entry, d) in listed.iter().zip(table) {
                assert_eq!(entry.field("name").unwrap().as_str().unwrap(), d.name);
                assert_eq!(entry.field("unit").unwrap().as_str().unwrap(), d.unit);
                let better = entry.field("better").unwrap().as_str().unwrap();
                assert_eq!(better, d.better.as_str(), "{}", d.name);
                match (entry.get("bound"), d.bound) {
                    (Some(Json::Number(b)), Some(bound)) => assert_eq!(*b, bound, "{}", d.name),
                    (None, None) => {}
                    other => panic!("{}: bound mismatch {other:?}", d.name),
                }
            }
        }
    }

    #[test]
    fn result_line_has_every_metric_of_the_table() {
        let mut out = Outcome::default();
        out.op(Ok(()));
        out.set("setup_s", 0.004);
        let line = out.to_json(END_TO_END);
        let doc = parse_json(&line).unwrap();
        assert!(doc.field("correct").unwrap().as_bool().unwrap());
        let metrics = doc.field("metrics").unwrap();
        for d in END_TO_END {
            assert_eq!(
                metrics
                    .field(d.name)
                    .unwrap()
                    .field("unit")
                    .unwrap()
                    .as_str()
                    .unwrap(),
                d.unit
            );
        }
        out.op(Err("golden mismatch".into()));
        assert!(out.to_json(END_TO_END).starts_with("{\"correct\": false"));
    }
}
