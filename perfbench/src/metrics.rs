//! The metric catalogue and the result line.
//!
//! Every workload prints every metric of the mode it runs in: the
//! end-to-end metrics untraced, the per-layer metrics traced. A per-layer
//! metric of a layer the workload does not exercise reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::host::Checks;
use crate::stats::{quantile, slo_attainment, supported_percentile};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(test), allow(dead_code))]
pub enum Clock {
    /// Host wall clock or host memory: what the code costs.
    Host,
    /// The simulator's clock: deterministic per seed.
    Sim,
    /// A count of work, identical for identical inputs.
    Count,
}

#[cfg(test)]
impl Clock {
    fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::Count => "count",
        }
    }
}

/// One catalogue entry. `better` and `clock` are documentation the
/// catalogue tests hold `BENCHMARK.json` and `METRICS.md` to.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(not(test), allow(dead_code))]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
}

const fn m(name: &'static str, unit: &'static str, better: Better, clock: Clock) -> Spec {
    Spec {
        name,
        unit,
        better,
        clock,
    }
}

use Better::{Higher, Lower};
use Clock::{Count, Host, Sim};

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[Spec] = &[
    m("setup_s", "s", Lower, Host),
    m("peak_rss_mb", "MB", Lower, Host),
    m("host_ops_per_s", "1/s", Higher, Host),
    m("ttft_p50_s", "s", Lower, Sim),
    m("ttft_p99_s", "s", Lower, Sim),
    m("slo_attainment", "ratio", Higher, Sim),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[Spec] = &[
    // Set-up.
    m("workload.generate_ms", "ms", Lower, Host),
    m("serving.profile_measure_ms", "ms", Lower, Host),
    m("core.artifact.catalog_build_ms", "ms", Lower, Host),
    // serving: the fleet simulator as a whole.
    m("serving.sim_host_s", "s", Lower, Host),
    m("serving.host_ns_per_event", "ns", Lower, Host),
    m("serving.scheduler.route_ns", "ns", Lower, Host),
    m("serving.registry.resolve_us", "us", Lower, Host),
    m("telemetry.overhead_ratio", "ratio", Lower, Host),
    m("serving.event.processed", "count", Lower, Count),
    m("serving.event.cancelled", "count", Lower, Count),
    m("serving.event.cancel_ratio", "ratio", Lower, Count),
    m("serving.cold_starts", "count", Lower, Count),
    m("serving.fetch_retries", "count", Lower, Count),
    m("serving.degraded_cold_starts", "count", Lower, Count),
    m("serving.cache.hits", "count", Higher, Count),
    m("serving.cache.misses", "count", Lower, Count),
    m("serving.cache.evictions", "count", Lower, Count),
    m("serving.cache.hit_ratio", "ratio", Higher, Count),
    m("serving.registry.bytes_fetched", "bytes", Lower, Count),
    m("serving.registry.bytes_resolved", "bytes", Higher, Count),
    m("serving.registry.chunk_hits", "count", Higher, Count),
    m("serving.registry.chunk_misses", "count", Lower, Count),
    m("serving.registry.chunk_hit_ratio", "ratio", Higher, Count),
    m("serving.prewarm.issued", "count", Lower, Count),
    m("serving.prewarm.unused", "count", Lower, Count),
    m("serving.prewarm.useful_ratio", "ratio", Higher, Count),
    m("serving.queue_wait_p50_s", "s", Lower, Sim),
    m("serving.queue_wait_p99_s", "s", Lower, Sim),
    m("serving.node.busy_share", "ratio", Higher, Sim),
    m("serving.node.cold_share", "ratio", Lower, Sim),
    m("serving.backlog_at_end", "count", Lower, Count),
    // core offline (write side).
    m("core.offline.capture_ms", "ms", Lower, Host),
    m("core.offline.analysis_ms", "ms", Lower, Host),
    m("core.artifact.maf2_encode_mb_per_s", "MB/s", Higher, Host),
    m("core.artifact.cdc_pack_mb_per_s", "MB/s", Higher, Host),
    m("core.builder.materialize_per_s", "1/s", Higher, Host),
    m("core.builder.materialize_ms_p50", "ms", Lower, Host),
    m("core.builder.materialize_ms_p90", "ms", Lower, Host),
    // core online (read side).
    m("core.artifact.assemble_mb_per_s", "MB/s", Higher, Host),
    m("core.artifact.maf2_open_us", "us", Lower, Host),
    m("core.artifact.maf2_bytes_read", "bytes", Lower, Count),
    m("core.validator.validate_us", "us", Lower, Host),
    m("core.artifact.shard_decode_ms", "ms", Lower, Host),
    m("gpu.process_init_us", "us", Lower, Host),
    m("model.structure_init_ms", "ms", Lower, Host),
    m("core.online.replay_us", "us", Lower, Host),
    m("model.load_weights_ms", "ms", Lower, Host),
    m("model.tokenizer_load_ms", "ms", Lower, Host),
    m("core.online.kernels_dlsym_us", "us", Lower, Host),
    m("model.trigger_first_layer_ms", "ms", Lower, Host),
    m("core.online.kernels_enum_us", "us", Lower, Host),
    m("core.online.restore_graphs_ms", "ms", Lower, Host),
    m("core.online.kernels_via_dlsym", "count", Higher, Count),
    m("core.online.kernels_via_enum", "count", Lower, Count),
    m("core.online.graphs_restored", "count", Higher, Count),
    m("core.artifact.dedup_ratio", "ratio", Higher, Count),
    m("core.builder.restore_per_s", "1/s", Higher, Host),
    m("core.builder.restore_ms_p50", "ms", Lower, Host),
    m("core.builder.restore_ms_p90", "ms", Lower, Host),
    m("core.builder.unattributed_share", "ratio", Lower, Host),
    m("vanilla.coldstart_ms", "ms", Lower, Host),
    // Simulated cold-start stages, weighted by the cold-request mix.
    m("sim.medusa_loading_s", "s", Lower, Sim),
    m("sim.structure_s", "s", Lower, Sim),
    m("sim.kv_init_s", "s", Lower, Sim),
    m("sim.weights_s", "s", Lower, Sim),
    m("sim.tokenizer_s", "s", Lower, Sim),
    m("sim.graph_s", "s", Lower, Sim),
    m("sim.first_token_s", "s", Lower, Sim),
    m("sim.vanilla_loading_s", "s", Lower, Sim),
];

/// Looks a metric up in both catalogues.
fn spec(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().chain(PER_LAYER).find(|s| s.name == name)
}

/// Measured values of one run, by metric name.
#[derive(Debug, Default)]
pub struct Values {
    values: BTreeMap<&'static str, f64>,
}

impl Values {
    /// Records `value` for catalogue metric `name`.
    ///
    /// # Panics
    ///
    /// On a name outside the catalogue: that is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let spec = spec(name).unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.values.insert(spec.name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// Sets the simulated latency metrics from TTFT samples of `offered`
/// requests. The run fails when the samples cannot support a p99.
pub fn set_latency(
    ttfts_s: &[f64],
    offered: usize,
    limit_s: f64,
    checks: &mut Checks,
    values: &mut Values,
) {
    let mut sorted = ttfts_s.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let supported = supported_percentile(n);
    println!(
        "perfbench: ttft samples {n}; highest supported percentile p{}",
        supported.map_or("-".to_string(), |q| format!("{}", q * 100.0))
    );
    checks.check(supported.is_some_and(|q| q >= 0.99), || {
        format!("{n} TTFT samples cannot support a p99")
    });
    if n == 0 {
        return;
    }
    values.set("ttft_p50_s", quantile(&sorted, 0.5));
    values.set("ttft_p99_s", quantile(&sorted, 0.99));
    let attainment = slo_attainment(&sorted, offered, limit_s);
    println!("perfbench: slo_attainment {attainment} = requests with TTFT <= {limit_s} s / {offered} offered");
    values.set("slo_attainment", attainment);
}

/// The run's verdict and counts, printed as the last line.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

impl Outcome {
    /// Renders the result line: every metric of the run's catalogue, in
    /// catalogue order. A per-layer metric the workload did not set reads
    /// 0; an end-to-end metric must always be set.
    pub fn render(&self, traced: bool) -> Result<String, String> {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, s) in catalogue.iter().enumerate() {
            let value = match self.values.get(s.name) {
                Some(v) => v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {} was not measured", s.name)),
            };
            if !value.is_finite() {
                return Err(format!("metric {} is not finite: {value}", s.name));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                s.name,
                json_number(value),
                s.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
        match v.get(key) {
            Some(Value::Str(s)) => s,
            other => panic!("{key}: expected a string, got {other:?}"),
        }
    }

    fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        match doc.get(key) {
            Some(Value::Seq(items)) => items,
            other => panic!("{key}: expected a list, got {other:?}"),
        }
    }

    /// BENCHMARK.json and this catalogue name the same metrics with the
    /// same units and directions, in the same order.
    #[test]
    fn benchmark_json_matches_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = entries(&doc, key);
            assert_eq!(listed.len(), catalogue.len(), "{key} length");
            for (entry, spec) in listed.iter().zip(catalogue) {
                assert_eq!(str_of(entry, "name"), spec.name);
                assert_eq!(str_of(entry, "unit"), spec.unit, "{}", spec.name);
                assert_eq!(str_of(entry, "better"), spec.better.name(), "{}", spec.name);
            }
        }
    }

    /// METRICS.md documents every metric with its unit, direction and
    /// clock.
    #[test]
    fn metrics_md_documents_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/METRICS.md");
        let text = std::fs::read_to_string(path).expect("METRICS.md beside the manifest");
        for s in END_TO_END.iter().chain(PER_LAYER) {
            let row = format!(
                "| `{}` | {} | {} | {} |",
                s.name,
                s.unit,
                s.better.name(),
                s.clock.name()
            );
            assert!(text.contains(&row), "METRICS.md lacks the row {row}");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|s| s.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn render_fills_unset_layers_with_zero_and_requires_end_to_end() {
        let mut values = Values::default();
        values.set("serving.cold_starts", 3.0);
        let outcome = Outcome {
            correct: true,
            attempted: 4,
            failed: 0,
            values,
        };
        let line = outcome.render(true).expect("per-layer renders");
        assert!(line.contains("\"serving.cold_starts\": {\"value\": 3.0, \"unit\": \"count\"}"));
        assert!(line.contains("\"sim.graph_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        let doc: Value = serde_json::from_str(&line).expect("result line is JSON");
        assert!(doc.get("metrics").is_some());
        assert!(outcome.render(false).is_err());
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(1.2034567891234), "1.2034567891234");
        assert_eq!(json_number(42.0), "42.0");
        assert_eq!(json_number(1e-9), "0.000000001");
    }
}
