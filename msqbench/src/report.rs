//! The metric tables and the result line.
//!
//! Every metric the benchmark can print is declared here with its unit;
//! `BENCHMARK.json` at the repository root lists the same names (a test
//! holds the two together). An untraced run prints exactly the
//! end-to-end table, a traced run exactly the per-layer table.

use crate::provenance::json_str;

/// Algorithm suffixes of the per-query metrics, in `Algorithm::PAPER_SET`
/// order.
pub const ALGOS: [&str; 3] = ["ce", "edc", "lbc"];

/// End-to-end metrics: what a user of the engine sees.
pub const END_TO_END: [(&str, &str); 13] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ce.p50_ms", "ms"),
    ("ce.p90_ms", "ms"),
    ("edc.p50_ms", "ms"),
    ("edc.p90_ms", "ms"),
    ("lbc.p50_ms", "ms"),
    ("lbc.p90_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("pages_per_query", "count"),
    ("response_p50_ms", "ms"),
    ("update.p50_ms", "ms"),
    ("update.p90_ms", "ms"),
];

/// Per-layer metrics reported once per algorithm, as `<name>.<algo>`.
pub const PER_ALGO: [(&str, &str); 17] = [
    ("storage.requests_per_query", "count"),
    ("storage.faults_per_query", "count"),
    ("storage.hit_ratio", "ratio"),
    ("storage.share", "ratio"),
    ("index.node_reads_per_query", "count"),
    ("index.share", "ratio"),
    ("sp.heap_pops_per_query", "count"),
    ("sp.retargets_per_query", "count"),
    ("sp.confirms_per_query", "count"),
    ("sp.pack_sweeps_per_query", "count"),
    ("sp.share", "ratio"),
    ("sp.retarget_share", "ratio"),
    ("skyline.candidates_per_query", "count"),
    ("skyline.size_per_query", "count"),
    ("skyline.useful_ratio", "ratio"),
    ("skyline.share", "ratio"),
    ("core.share", "ratio"),
];

/// Per-layer metrics reported once per run.
pub const PER_RUN: [(&str, &str); 20] = [
    ("storage.read_cold_ns", "ns"),
    ("storage.read_warm_ns", "ns"),
    ("index.nn_step_ns", "ns"),
    ("index.mid_lookup_ns", "ns"),
    ("sp.settle_ns", "ns"),
    ("sp.set_target_ns", "ns"),
    ("skyline.dominates_ns", "ns"),
    ("core.ce.distance_computations_per_query", "count"),
    ("core.edc.window_candidates_per_query", "count"),
    ("core.lbc.sessions_per_query", "count"),
    ("core.lbc.plb_discards_per_query", "count"),
    ("dyn.invalidated_per_batch", "count"),
    ("dyn.expansions_per_batch", "count"),
    ("dyn.full_ratio", "ratio"),
    ("dyn.oracle_rebuilds", "count"),
    ("setup.generate_s", "s"),
    ("setup.build_s", "s"),
    ("setup.oracle_s", "s"),
    ("setup.register_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Every per-layer metric name with its unit, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_ALGO
        .iter()
        .flat_map(|&(name, unit)| ALGOS.iter().map(move |a| (format!("{name}.{a}"), unit)))
        .collect();
    out.extend(PER_RUN.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// The metrics one run must print: end-to-end, or per-layer when traced.
pub fn declared(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }
}

/// Named values collected during a run.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Records `value` under `name`.
    ///
    /// # Panics
    /// Panics on a non-finite value: every metric is a ratio with a
    /// guarded denominator, so one would be a bug in this benchmark.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push((name, value));
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Human-readable lines, one per declared metric.
    pub fn table(&self, declared: &[(String, &'static str)]) -> String {
        declared
            .iter()
            .map(|(n, u)| format!("{n:<44} {:>16.6} {u}\n", self.get(n).unwrap_or(f64::NAN)))
            .collect()
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding every declared metric with its unit.
    ///
    /// # Panics
    /// Panics when a declared metric was never recorded or an undeclared
    /// one was: the printed set must match `BENCHMARK.json`.
    pub fn result_line(
        &self,
        declared: &[(String, &'static str)],
        attempted: u64,
        failed: u64,
    ) -> String {
        for (n, _) in &self.0 {
            assert!(
                declared.iter().any(|(d, _)| d == n),
                "metric {n} is not declared"
            );
        }
        let body: Vec<String> = declared
            .iter()
            .map(|(n, u)| {
                let v = self
                    .get(n)
                    .unwrap_or_else(|| panic!("declared metric {n} was not recorded"));
                format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    json_str(n),
                    json_str(u)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            failed == 0 && attempted > 0,
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(trace: bool) -> Metrics {
        let mut m = Metrics::default();
        for (i, (n, _)) in declared(trace).iter().enumerate() {
            m.set(n.clone(), i as f64 + 0.125);
        }
        m
    }

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        for trace in [false, true] {
            let d = declared(trace);
            let line = full(trace).result_line(&d, 30, 0);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": 30, \"failed\": 0, "));
            for (i, (n, u)) in d.iter().enumerate() {
                let entry = format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    i as f64 + 0.125
                );
                assert!(line.contains(&entry), "missing {entry}");
            }
            assert_eq!(line.matches("\"unit\"").count(), d.len());
        }
    }

    #[test]
    fn failures_make_the_result_incorrect() {
        let d = declared(false);
        assert!(full(false)
            .result_line(&d, 30, 1)
            .starts_with("{\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "was not recorded")]
    fn a_missing_metric_is_refused() {
        let mut m = full(false);
        m.0.pop();
        m.result_line(&declared(false), 1, 0);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<String> = declared(false)
            .into_iter()
            .chain(declared(true))
            .map(|(n, _)| n)
            .collect();
        assert!(names.len() <= 13 + 128);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.'));
        }
        names.sort();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + per_layer().len());
    }

    /// `BENCHMARK.json` at the repository root declares the same metrics
    /// with the same units.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let squeezed: String = json.split_whitespace().collect();
        for (n, u) in declared(false).iter().chain(declared(true).iter()) {
            let entry = format!("\"name\":\"{n}\",\"unit\":\"{u}\"");
            assert!(squeezed.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let metric_entries = squeezed.matches("\"unit\":").count();
        assert_eq!(metric_entries, END_TO_END.len() + per_layer().len());
    }
}
