//! The metric tables and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; the
//! untraced run prints every end-to-end metric and the traced run every
//! per-layer metric, as the last line of standard output.

use std::collections::BTreeMap;

/// End-to-end metrics: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("updates_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: name and unit. A workload whose
/// path does not reach a layer reports it as 0 (see the benchmark's doc).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.calib_medges_per_s", "Medge/s"),
    ("gen.lag_p99_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("ingest.submit_us_p50", "us"),
    ("ingest.queue_wait_us_p50", "us"),
    ("ingest.queue_wait_us_tail", "us"),
    ("ingest.coalesced_ops_mean", "count"),
    ("ingest.backpressure_events", "count"),
    ("durable.apply_us_p50", "us"),
    ("durable.apply_us_tail", "us"),
    ("durable.unattributed_us_p50", "us"),
    ("durable.open_s", "s"),
    ("durable.checkpoint_ms", "ms"),
    ("durable.poll_us_p50", "us"),
    ("durable.visible_lag_us_p50", "us"),
    ("wal.encode_us_p50", "us"),
    ("wal.append_us_p50", "us"),
    ("wal.bytes_per_update", "count"),
    ("update.validate_us_p50", "us"),
    ("update.reduce_us_p50", "us"),
    ("update.effective_ratio", "ratio"),
    ("graph.mutate_us_p50", "us"),
    ("label_index.build_ms", "ms"),
    ("service.apply_ms_p50", "ms"),
    ("service.read_us_p50", "us"),
    ("service.register_ms_p50", "ms"),
    ("service.interned_sets", "count"),
    ("service.unattributed_ms_p50", "ms"),
    ("sim.apply_shared_us_p50.cyclic", "us"),
    ("sim.apply_shared_us_p50.dag", "us"),
    ("sim.aff_per_batch", "count"),
    ("sim.delta_pairs_per_batch", "count"),
    ("sim.ns_per_aff", "ns"),
    ("bsim.apply_shared_ms_p50", "ms"),
    ("bsim.aff_per_batch", "count"),
    ("bsim.vs_matchbs", "ratio"),
    ("landmark.inc_ms_p50", "ms"),
    ("landmark.bytes", "count"),
    ("landmark.build_s", "s"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end values by name (untraced run).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer values by name (traced run); absent names print as 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line: sample counts,
    /// percentiles, scaling.
    pub notes: Vec<String>,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        debug_assert!(END_TO_END.iter().any(|&(n, _)| n == name), "{name}");
        self.end_to_end.insert(name, value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|&(n, _)| n == name), "{name}");
        self.layers.insert(name, value);
    }

    /// Sets a layer to a statistic of `samples`, when there are any.
    pub fn layer_opt(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(value) = value {
            self.layer(name, value);
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The result line for a run whose checks passed.
    pub fn result_line(&self, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let values = if traced { &self.layers } else { &self.end_to_end };
        let metrics: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let value = values.get(name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(value))
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The result line of a run whose output checks failed.
pub fn failure_line(attempted: u64, failed: u64) -> String {
    format!(
        "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
        attempted.max(1),
        failed
    )
}

/// A finite `f64` as a JSON number, with every digit of Rust's shortest
/// round-trip form (`1.25`, `3.0`, `1e-7`).
fn number(value: f64) -> String {
    format!("{value:?}")
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_of_its_table() {
        let mut report = Report { attempted: 3, ..Report::default() };
        report.e2e("setup_s", 0.5);
        report.layer("landmark.bytes", 1024.0);
        let untraced = report.result_line(false);
        assert!(untraced.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(untraced.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert_eq!(untraced.matches("\"unit\"").count(), END_TO_END.len());
        let traced = report.result_line(true);
        assert!(traced.contains("\"landmark.bytes\": {\"value\": 1024.0, \"unit\": \"count\"}"));
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
    }

    #[test]
    fn numbers_are_valid_json() {
        assert_eq!(number(1.25), "1.25");
        assert_eq!(number(3.0), "3.0");
        assert_eq!(number(1e-7), "1e-7");
        assert_eq!(number(2.5e21), "2.5e21");
    }
}
