//! The metric table and the result line every run ends with.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit printed with every value.
    pub unit: &'static str,
    /// Which way the metric improves.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// What an untraced run reports: what a user of the system sees.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Lower),
    def("request_p50_ms", "ms", Lower),
    def("request_tail_ms", "ms", Lower),
    def("iters_per_s", "1/s", Higher),
    def("final_cost", "cost", Lower),
    def("peak_rss_mb", "MB", Lower),
    def("ops_ok_ratio", "ratio", Higher),
];

/// What a traced run reports: one layer each, timed from outside. A layer a workload does
/// not reach reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    def("serve.request_ms", "ms", Lower),
    def("serve.overhead_ms", "ms", Lower),
    def("serve.edit_ms", "ms", Lower),
    def("serve.close_ms", "ms", Lower),
    def("serve.mean_batch", "count", Higher),
    def("serve.group_hit_ratio", "ratio", Higher),
    def("serve.expired_units", "count", Lower),
    def("proto.codec_us", "us", Lower),
    def("proto.response_kb", "KB", Lower),
    def("proto.socket_ms", "ms", Lower),
    def("core.describe_ms", "ms", Lower),
    def("core.log_edit_us", "us", Lower),
    def("core.problem_build_ms", "ms", Lower),
    def("core.problem_drop_ms", "ms", Lower),
    def("core.final_enum_ms", "ms", Lower),
    def("mcts.select_us", "us", Lower),
    def("mcts.backprop_us", "us", Lower),
    def("mcts.rebase_ms", "ms", Lower),
    def("mcts.tree_nodes", "count", Lower),
    def("mcts.evals_per_iter", "count", Lower),
    def("difftree.walk_us", "us", Lower),
    def("difftree.steps_per_iter", "count", Lower),
    def("difftree.action_hit_ratio", "ratio", Higher),
    def("difftree.derive_ms", "ms", Lower),
    def("cost.context_us", "us", Lower),
    def("cost.compile_us", "us", Lower),
    def("cost.novel_per_iter", "count", Lower),
    def("cost.plan_hit_ratio", "ratio", Higher),
    def("cost.eval_us", "us", Lower),
    def("sqlast.parse_us", "us", Lower),
    def("render.ascii_ms", "ms", Lower),
    def("trace.search_unaccounted", "ratio", Lower),
    def("trace.overhead_ratio", "ratio", Lower),
    def("edit_cycle_p50_ms", "ms", Lower),
    def("edit_cycle_tail_ms", "ms", Lower),
];

/// The outcome of one run: correctness, request accounting and metric values.
#[derive(Debug, Default)]
pub struct Report {
    /// Failed fixed-work and output checks; empty when the run is correct.
    pub failures: Vec<String>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed or were refused.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Record a check; a false `ok` makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Set a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Set `peak_rss_mb` from the process's peak resident set so far.
    pub fn record_peak_rss(&mut self) {
        match crate::measure::peak_rss_mb() {
            Some(mb) => self.set("peak_rss_mb", mb),
            None => self.check(false, || "VmHWM unreadable".to_string()),
        }
    }

    /// Add a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The result line: every metric of `table`, with its unit, as one JSON object.
    pub fn result_line(&self, table: &[MetricDef]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(self.values.get(m.name).copied().unwrap_or(0.0)),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit of `value`. JSON has no infinities; a non-finite value
/// (a latency pushed out of range by a failed request) prints as the largest double, and
/// the run that produced it is already marked incorrect.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        format!("{:?}", f64::MAX)
    }
}

/// Read `(name, value)` pairs back from a result line (the spread mode parses its own
/// child runs' output, so only this module's format needs to be understood).
pub fn parse_result_line(line: &str) -> Option<(bool, BTreeMap<String, f64>)> {
    let correct = line.contains("\"correct\": true");
    let metrics = line.split_once("\"metrics\": {")?.1;
    let mut out = BTreeMap::new();
    for entry in metrics.split("}, ") {
        let (name, rest) = entry
            .trim_start_matches('{')
            .split_once("\": {\"value\": ")?;
        let value = rest.split_once(',')?.0.parse().ok()?;
        out.insert(name.trim_start_matches('"').to_string(), value);
    }
    Some((correct, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        report.set("setup_s", 0.25);
        report.set("request_p50_ms", 12.5);
        let line = report.result_line(END_TO_END);
        let (correct, values) = parse_result_line(&line).unwrap();
        assert!(correct);
        assert_eq!(values["setup_s"], 0.25);
        assert_eq!(values["request_p50_ms"], 12.5);
        assert_eq!(values.len(), END_TO_END.len());
    }

    #[test]
    fn benchmark_manifest_lists_exactly_these_metrics() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let better = match m.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
                m.name, m.unit
            );
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            manifest.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }
}
