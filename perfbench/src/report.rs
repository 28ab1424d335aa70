//! Metric names, units and the result line the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("studies_per_s", "studies/s"),
    ("events_per_s", "events/s"),
    ("latency_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The policies whose up-calls the traced run times, by report name.
pub const POLICIES: &[&str] = &["pop", "bandit", "earlyterm", "default"];

/// Per-layer metrics other than the per-policy ones, printed by every
/// traced run (zero where a workload does not reach the layer).
const LAYERS: &[(&str, &str)] = &[
    ("workload.gen_s", "s"),
    ("sim.events", "count"),
    ("sim.queue_s", "s"),
    ("engine.self_s", "s"),
    ("engine.ns_per_event", "ns"),
    ("engine.finish_s", "s"),
    ("journal.inputs", "count"),
    ("journal.records", "count"),
    ("journal.bytes", "bytes"),
    ("journal.run_s", "s"),
    ("journal.open_s", "s"),
    ("journal.resume_s", "s"),
    ("fault.interruptions", "count"),
    ("fault.lost_epochs", "count"),
    ("curve.fits", "count"),
    ("curve.warm_fits", "count"),
    ("curve.batched_fits", "count"),
    ("curve.local_hits", "count"),
    ("curve.stall_s", "s"),
    ("curve.busy_s", "s"),
    ("curve.fit_ms_mean", "ms"),
    ("curve.pool_idle_frac", "fraction"),
    ("curve.spec_wasted", "count"),
    ("cache.lookups", "count"),
    ("cache.hits", "count"),
    ("cache.inserts", "count"),
    ("cache.hit_rate", "fraction"),
    ("server.submit_us_p99", "us"),
    ("server.rejected", "count"),
    ("server.queue_wait_s_p50", "s"),
    ("server.queue_wait_s_p90", "s"),
    ("server.run_s_p50", "s"),
    ("server.gen_late_ms_max", "ms"),
    ("server.latency_p90_s", "s"),
    ("server.max_rate_in_slo", "studies/s"),
    ("pop.ttt_h_p50", "h"),
    ("pop.ttt_h_max", "h"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.unaccounted_s", "s"),
];

/// Per-policy metric suffixes and units.
const POLICY_METRICS: &[(&str, &str)] =
    &[("upcalls", "count"), ("self_s", "s"), ("boundary_ms_p50", "ms"), ("boundary_ms_p99", "ms")];

/// Every per-layer metric, `(name, unit)`, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for policy in POLICIES {
        for (suffix, unit) in POLICY_METRICS {
            all.push((format!("policy.{policy}.{suffix}"), unit));
        }
    }
    all
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Studies (experiment runs) attempted, over every repetition.
    pub attempted: u64,
    /// One line per failed study or failed correctness gate.
    pub failures: Vec<String>,
    /// Digest over the outputs of one repetition; every repetition and
    /// the traced pass must agree on it.
    pub digest: Option<u64>,
    /// The fit-cache layer this workload runs with.
    pub fit_cache: &'static str,
    pub end_to_end: BTreeMap<String, f64>,
    pub layers: BTreeMap<String, f64>,
    /// Workload-specific figures for the human-readable report, with units.
    pub extras: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn new(fit_cache: &'static str) -> Self {
        Report { fit_cache, ..Default::default() }
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    /// Records a repetition's digest, failing the run if it differs from
    /// an earlier one.
    pub fn check_digest(&mut self, what: &str, digest: u64) {
        match self.digest {
            None => self.digest = Some(digest),
            Some(first) if first != digest => {
                self.fail(format!("{what}: digest {digest:016x} != first repetition {first:016x}"));
            }
            Some(_) => {}
        }
    }

    pub fn e2e(&mut self, name: &str, value: f64) {
        self.end_to_end.insert(name.to_string(), value);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extras.push((name.to_string(), value, unit));
    }
}

/// Renders the result line: `correct`, `attempted`, `failed` and the
/// requested metrics as `{"value": v, "unit": u}`. A metric the report
/// lacks prints as 0.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &str)],
    values: &BTreeMap<String, f64>,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in metrics.iter().enumerate() {
        let value = values.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        if i > 0 {
            out.push_str(", ");
        }
        write!(out, "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            .expect("string write");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "metric names repeat");
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.'));
        }
    }
}
