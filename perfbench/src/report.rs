//! The metric catalogue and the one-line JSON result every run prints.
//!
//! Both lists mirror `BENCHMARK.json` (a unit test keeps them in step): a
//! run with `--trace 0` prints every end-to-end metric, a run with
//! `--trace 1` every per-layer metric, and a metric a run failed to measure
//! is a bug in the benchmark, reported as an error rather than a zero.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("hit_ms_p50", "ms"),
    ("miss_ms_p50", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.digest_ms", "ms"),
    ("core.digest_bytes", "bytes"),
    ("core.build_ms", "ms"),
    ("core.replay_ops_per_s", "1/s"),
    ("core.finish_ms", "ms"),
    ("core.mapir_parse_mb_per_s", "MB/s"),
    ("core.mapir_text_mb_per_s", "MB/s"),
    ("check.capture_ms", "ms"),
    ("check.plan_ms", "ms"),
    ("check.optimize_ms", "ms"),
    ("check.optimize_us_per_op", "us"),
    ("check.rewrites", "count"),
    ("batch.execute_ms", "ms"),
    ("batch.request_digest_us", "us"),
    ("batch.cache_lookup_us", "us"),
    ("batch.cache_store_us", "us"),
    ("batch.result_text_us", "us"),
    ("batch.render_report_us", "us"),
    ("batch.ping_us", "us"),
    ("batch.hit_ratio", "ratio"),
    ("analysis.qmc_sweep_s", "s"),
    ("analysis.table1_s", "s"),
    ("analysis.table2_s", "s"),
    ("analysis.measure_ms.copy", "ms"),
    ("analysis.measure_ms.usm", "ms"),
    ("analysis.measure_ms.izc", "ms"),
    ("analysis.measure_ms.eager", "ms"),
    ("hsa.calls_per_run", "count"),
    ("analysis.host_ns_per_hsa_call", "ns"),
    ("mem.pages_touched_per_run", "count"),
    ("trace.span_coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// What one run found: operation counts, correctness, measured values.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the run attempted (requests, or traced layer calls).
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Failed correctness checks, one message each.
    pub violations: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record a correctness check; a failure keeps its message for stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Record one measured value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Count one attempted operation and whether it failed; returns the
    /// operation's value when it succeeded.
    pub fn attempt<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {what} failed: {e}");
                None
            }
        }
    }

    /// The result line: exactly the metrics of `catalogue`, in its order.
    /// Errors name the first metric this run did not measure.
    pub fn to_json(&self, catalogue: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let v = self
                .values
                .get(name)
                .copied()
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite ({v})"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.violations.is_empty(),
            self.attempted,
            self.failed
        ))
    }
}

/// Escape a string for a JSON literal (control characters dropped).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {}
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue and `BENCHMARK.json` name the same metrics, units and
    /// order; a metric added to one and not the other fails here.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let body = &text[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split('{')
                .skip(1)
                .map(|obj| {
                    let field = |f: &str| {
                        let at = obj.find(&format!("\"{f}\"")).expect("field present");
                        let rest = &obj[at + f.len() + 2..];
                        let open = rest.find('"').expect("value opens") + 1;
                        let close = rest[open..].find('"').expect("value closes");
                        rest[open..open + close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), own(END_TO_END));
        assert_eq!(section("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_names_every_metric_or_refuses() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        assert!(o.to_json(END_TO_END).is_err());
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        let line = o.to_json(END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }
}
