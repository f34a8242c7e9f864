//! The repository benchmark: three image workloads against the public APIs
//! of `sc_image` and `sc_graph`, with end-to-end metrics from an untraced
//! run and per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <oneshot-sync|serve-sync-open|serve-regen-short|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The lines before it list
//! every metric by name and unit, with sample counts. Any failed, refused
//! or wrong output makes the command exit with code 1.

pub mod inputs;
pub mod measure;
pub mod probes;
pub mod stats;
pub mod trace;
pub mod workloads;

/// End-to-end metrics `(name, unit)`, reported by the untraced run
/// (`--trace 0`). `failed_share` is printed in the table but not listed
/// here: it is 0 on a correct run, and the result line carries the same
/// fact as `attempted` and `failed`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("images_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("mae", "frac"),
];

/// Per-layer metrics `(name, unit)` other than the `sink.<stage>_ms`
/// per-image totals of every telemetry stage, reported by the traced run
/// (`--trace 1`). A metric whose
/// layer is not on a workload's path reads 0 on that workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("planner.plan_tile_us.p50", "us"),
    ("planner.plan_tile_miss_ms.p50", "ms"),
    ("planner.tile_graph_us.p50", "us"),
    ("planner.hit_ratio", "ratio"),
    ("planner.busy_share", "ratio"),
    ("compile.ms_per_class.p50", "ms"),
    ("compile.classes", "count"),
    ("compile.steps_per_plan", "count"),
    ("exec.run_stream_ms.p50", "ms"),
    ("exec.stream_self_ms.p50", "ms"),
    ("exec.pool_drop_ms.p50", "ms"),
    ("exec.tile_run_us.p50", "us"),
    ("exec.lane_batched_share", "ratio"),
    ("exec.peak_in_flight", "count"),
    ("exec.busy_share", "ratio"),
    ("serve.submit_us.p50", "us"),
    ("serve.submit_us.p95", "us"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p95", "ms"),
    ("serve.execute_ms.p50", "ms"),
    ("serve.execute_ms.p95", "ms"),
    ("serve.assemble_ms.p50", "ms"),
    ("serve.cross_request_share", "ratio"),
    ("assemble.scatter_us.p50", "us"),
    ("oneshot.residual_ms.p50", "ms"),
    ("serve.residual_ms.p50", "ms"),
    ("rng.ns_per_sample.lfsr16", "ns"),
    ("rng.ns_per_sample.sobol", "ns"),
    ("convert.generate_ns_per_bit", "ns"),
    ("convert.regenerate_ns_per_bit", "ns"),
    ("arith.mux_add_ns_per_bit", "ns"),
    ("arith.xor_subtract_ns_per_bit", "ns"),
    ("core.synchronizer_ns_per_bit", "ns"),
    ("trace.overhead_share", "ratio"),
    ("loadgen.lag_ms.p95", "ms"),
    ("loadgen.lag_ms.max", "ms"),
];

/// The metric name of a telemetry stage's per-image total.
#[must_use]
pub fn sink_metric_name(stage: sc_telemetry::Stage) -> String {
    format!("sink.{}_ms", stage.name())
}

/// Every per-layer metric `(name, unit)`, the sink stage totals included,
/// in reporting order.
#[must_use]
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(sc_telemetry::Stage::ALL.map(|s| (sink_metric_name(s), "ms")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_telemetry::json::{parse, Json};

    /// Whether `name` is a valid metric name: non-empty, starting with a letter
    /// or digit, at most 64 characters of `[A-Za-z0-9_.-]`.
    fn valid_metric_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .expect("unit")
                        .to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut all: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        all.extend(per_layer_metrics().into_iter().map(|m| m.0));
        for (i, name) in all.iter().enumerate() {
            assert!(valid_metric_name(name), "{name}");
            assert!(!all[i + 1..].contains(name), "{name} is listed twice");
        }
        assert!(!valid_metric_name("a b"));
        assert!(!valid_metric_name(".a"));
        assert!(!valid_metric_name(""));
    }

    #[test]
    fn benchmark_json_round_trips_and_matches_the_catalogue() {
        let doc = benchmark_json();
        let again = parse(&doc.to_string_pretty()).expect("re-serialised JSON parses");
        assert_eq!(doc, again);
        let keys: Vec<&str> = match &doc {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("BENCHMARK.json is an object"),
        };
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names(&doc, "end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer_metrics()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names(&doc, "per_layer"), layer);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let defined: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, defined);
    }

    #[test]
    fn ledger_records_the_offered_rate_in_use() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/ledger.json");
        let text =
            std::fs::read_to_string(path).expect("ledger.json is in the benchmark directory");
        let ledger = parse(&text).expect("ledger.json parses");
        let rate = ledger
            .get("offered_rate_images_per_s")
            .and_then(Json::as_f64)
            .expect("offered rate");
        assert_eq!(rate, workloads::OPEN_LOOP_RATE);
    }
}
