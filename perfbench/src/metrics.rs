//! The metric catalogue and the result line.
//!
//! Every timed run (`--trace 0`) reports each end-to-end metric and every
//! traced run (`--trace 1`) each per-layer metric, on every workload. A
//! layer a workload does not exercise reads 0 there, and the traced
//! report says why.

/// End-to-end metrics: `(name, unit)`. Each workload maps them onto its
/// own operations (see `README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("verdict_p50_ms", "ms"),
    ("update_p50_ms", "ms"),
    ("iters_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sdl.lex_ms", "ms"),
    ("sdl.parse_ms", "ms"),
    ("sdl.lower_ms", "ms"),
    ("sdl.compile_ms", "ms"),
    ("sdl.tokens", "count"),
    ("sdl.lex_mb_per_s", "MB/s"),
    ("sdl.compile_alloc_mb", "MB"),
    ("model.classes", "count"),
    ("model.attr_decls", "count"),
    ("model.excuse_clauses", "count"),
    ("core.check_ms", "ms"),
    ("core.check_ns_per_clause", "ns"),
    ("core.check_alloc_mb", "MB"),
    ("core.diagnostics", "count"),
    ("core.errors", "count"),
    ("core.contradictions", "count"),
    ("core.joint_sat_calls", "count"),
    ("core.sat_distinct_ratio", "ratio"),
    ("types.subtype_queries", "count"),
    ("types.subtype_distinct_ratio", "ratio"),
    ("types.ctx_build_ms", "ms"),
    ("diff.diff_ms", "ms"),
    ("diff.cone_ms", "ms"),
    ("diff.incremental_ms", "ms"),
    ("diff.edits", "count"),
    ("diff.dirty_classes", "count"),
    ("lint.run_ms", "ms"),
    ("lint.findings", "count"),
    ("lint.render_ms", "ms"),
    ("lint.render_kb", "KB"),
    ("lint.run_diff_ms", "ms"),
    ("cli.read_ms", "ms"),
    ("cli.render_ms", "ms"),
    ("cli.write_ms", "ms"),
    ("cli.stdout_mb", "MB"),
    ("cli.unattributed_ms", "ms"),
    ("cli.check_ms", "ms"),
    ("cli.recheck_ms", "ms"),
    ("cli.lint_ms", "ms"),
    ("cli.diff_ms", "ms"),
    ("core.virtualize_ms", "ms"),
    ("workloads.populate_ms", "ms"),
    ("workloads.target_build_ms", "ms"),
    ("core.validate_object_us", "us"),
    ("query.execute_us", "us"),
    ("query.rows_scanned", "count"),
    ("query.checks_per_row", "ratio"),
    ("extent.objects", "count"),
    ("extent.insert_us", "us"),
    ("serve.op_p99_us", "us"),
    ("serve.alloc_kb_per_op", "KB"),
    ("trace.overhead_pct", "%"),
    ("fail_ratio", "ratio"),
];

/// One run's result line.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations and commands attempted.
    pub attempted: u64,
    /// Of those, failed: bad exit, signal, timeout, panic, or an oracle
    /// mismatch.
    pub failed: u64,
    /// `(name, value)` in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Renders the result as the run's last line of standard output.
    /// Values print with every digit Rust's shortest round-trip form has.
    pub fn to_json(&self, catalogue: &[(&str, &str)]) -> String {
        let body: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let value = self
                    .metrics
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|&(_, v)| v)
                    .expect("every catalogue metric is measured");
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chc_obs::json::{parse, JsonValue};

    fn benchmark_json() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/"))
            .expect("BENCHMARK.json parses")
    }

    fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has {key}"))
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let doc = benchmark_json();
        let e2e = listed(&doc, "end_to_end");
        let names: Vec<(&str, &str)> = e2e
            .iter()
            .map(|(n, u, _)| (n.as_str(), u.as_str()))
            .collect();
        assert_eq!(names, END_TO_END);
        let layers = listed(&doc, "per_layer");
        let names: Vec<(&str, &str)> = layers
            .iter()
            .map(|(n, u, _)| (n.as_str(), u.as_str()))
            .collect();
        assert_eq!(names, PER_LAYER);
        for (name, _, better) in layers.iter().chain(&e2e) {
            assert!(better == "lower" || better == "higher", "{name}");
        }
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, ["check", "analyze", "serve"]);
    }

    #[test]
    fn the_result_line_is_json_with_exactly_the_four_keys() {
        let out = Outcome {
            attempted: 3,
            failed: 1,
            metrics: vec![("setup_s", 0.125), ("peak_rss_mb", 61.0)],
        };
        let line = out.to_json(&[("setup_s", "s"), ("peak_rss_mb", "MB")]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"setup_s\": \
             {\"value\": 0.125, \"unit\": \"s\"}, \"peak_rss_mb\": {\"value\": 61.0, \"unit\": \"MB\"}}}"
        );
        // The metrics object on its own is plain JSON of numbers and strings.
        let metrics = parse(&line[line.find("{\"setup_s").unwrap()..line.len() - 1]).unwrap();
        let setup = metrics.get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(JsonValue::as_f64), Some(0.125));
    }
}
