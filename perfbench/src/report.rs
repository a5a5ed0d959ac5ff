//! Metric catalogs and the JSON lines the benchmark prints.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// An ordered set of metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Sets `name` to `value`, adding it with `unit` if absent.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(metric) => metric.value = value,
            None => self.0.push(Metric {
                name: name.to_string(),
                value,
                unit,
            }),
        }
    }

    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Renders `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let entries = self
            .0
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.unit)),
                    ]),
                )
            })
            .collect();
        Json::Obj(entries).render()
    }
}

/// `(name, unit, better)` of every end-to-end metric.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("jobs_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Job classes whose simulation is measured per class: the serve_warm
/// replay's simulate requests and sim_wide's six classes.
pub const SIM_CLASSES: [&str; 7] = ["serve", "q11s", "q11a", "q13s", "q13a", "q14a", "i20"];

/// The fig9_sweep suites.
pub const SUITES: [&str; 3] = ["qv3", "qaoa4", "qft3"];

/// `(name, unit, better)` of every per-layer metric, in `BENCHMARK.json`
/// order. A workload that does not exercise a layer reports it as 0.
pub fn per_layer_catalog() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = [
        ("server.overhead_ms.p50", "ms", "lower"),
        ("server.overhead_ms.tail", "ms", "lower"),
        ("server.queue_steals", "count", "higher"),
        ("server.rejected", "count", "lower"),
        ("apps.circuit_gen_us", "us", "lower"),
        ("compiler.region_select_us", "us", "lower"),
        ("compiler.initial_map_us", "us", "lower"),
        ("compiler.swap_route_us", "us", "lower"),
        ("compiler.nuop_decompose_us", "us", "lower"),
        ("compiler.swaps_per_compile", "count", "lower"),
        ("compiler.twoq_out_per_in", "ratio", "lower"),
        ("core.cold_decompose_ms", "ms", "lower"),
        ("core.cache_misses", "count", "lower"),
        ("core.min_misses_per_job", "count", "lower"),
        ("core.cache_hit_ratio", "ratio", "higher"),
        ("core.inflight_waits", "count", "lower"),
        ("qmath.objective_eval_ns", "ns", "lower"),
    ]
    .into_iter()
    .map(|(n, u, b)| (n.to_string(), u, b))
    .collect();
    for (metric, unit, better) in [
        ("precompile_ms", "ms", "lower"),
        ("simulate_ms", "ms", "lower"),
        ("shots_per_s", "1/s", "higher"),
        ("fused_frac", "ratio", "higher"),
        ("amp_parallel_jobs", "count", "higher"),
    ] {
        for class in SIM_CLASSES {
            out.push((format!("sim.{metric}.{class}"), unit, better));
        }
    }
    for op in ["1q", "2q"] {
        for width in ["14q", "20q"] {
            for mode in ["serial", "threaded"] {
                out.push((format!("sim.sweep_us.{op}.{width}.{mode}"), "us", "lower"));
            }
        }
    }
    out.push(("sim.sweep_gbps.20q".to_string(), "GB/s", "higher"));
    for metric in ["compile_batch_ms", "run_batch_ms", "score_ms"] {
        for suite in SUITES {
            out.push((format!("bench.{metric}.{suite}"), "ms", "lower"));
        }
    }
    out.push(("leftover_ms".to_string(), "ms", "lower"));
    out.push(("trace.overhead_frac".to_string(), "ratio", "lower"));
    out
}

/// Every per-layer metric at 0, ready for a workload to fill in.
pub fn zero_per_layer() -> Metrics {
    let mut metrics = Metrics::default();
    for (name, unit, _) in per_layer_catalog() {
        metrics.set(&name, 0.0, unit);
    }
    metrics
}

/// A minimal JSON value for the report lines.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A number; non-finite values render as `null`.
    Num(f64),
    /// An integer.
    Int(u64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An array.
    Arr(Vec<Json>),
    /// An object with ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(text: &str) -> Json {
        Json::Str(text.to_string())
    }

    /// An object from `(key, value)` pairs.
    pub fn obj(entries: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Renders compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => push_string(out, s),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(entries) => {
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    push_string(out, key);
                    out.push_str(": ");
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn push_string(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The result line: the last line the benchmark prints.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut metrics = Metrics::default();
        metrics.set("latency_ms", 1.2034, "ms");
        metrics.set("setup_s", 0.8127, "s");
        metrics.set("setup_s", 0.5, "s");
        assert_eq!(
            result_line(true, 1000, 0, &metrics),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn json_escapes_and_nulls_non_finite_numbers() {
        let value = Json::obj(vec![
            ("a", Json::Num(f64::INFINITY)),
            ("b", Json::str("q\"\\\n")),
            ("c", Json::Arr(vec![Json::Int(3), Json::Bool(false)])),
        ]);
        assert_eq!(
            value.render(),
            "{\"a\": null, \"b\": \"q\\\"\\\\\\u000a\", \"c\": [3, false]}"
        );
    }

    #[test]
    fn benchmark_json_lists_every_metric_the_code_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let catalog = per_layer_catalog();
        assert!(catalog.len() <= 128);
        for (name, unit, better) in catalog
            .iter()
            .map(|(n, u, b)| (n.as_str(), *u, *b))
            .chain(END_TO_END)
        {
            let entry =
                format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"better\":").count();
        assert_eq!(listed, catalog.len() + END_TO_END.len());
        for workload in crate::cli::Workload::ALL {
            assert!(text.contains(&format!("\"name\": \"{}\"", workload.name())));
        }
    }
}
