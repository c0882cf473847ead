//! Serverless trace replay: run a bursty ShareGPT-like workload through a
//! 4-GPU fleet (warm container pool, start-cost locality routing) under all
//! four strategies and report TTFT tails (the paper's Figure 10 experiment
//! at example scale).
//!
//! Run with: `cargo run --release --example serverless_trace [rps]`

use medusa::{materialize_offline, Strategy};
use medusa_gpu::{CostModel, GpuSpec};
use medusa_model::ModelSpec;
use medusa_serving::{simulate_fleet, ClusterSpec, FleetProfile, PerfModel, Policy};
use medusa_workload::TraceConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rps: f64 = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(6.0);
    let spec = ModelSpec::by_name("Llama2-7B").expect("catalog model");
    let gpu = GpuSpec::a100_40gb();
    let cost = CostModel::default();

    println!(
        "measuring per-strategy serving parameters for {} ...",
        spec.name()
    );
    let (artifact, _) = materialize_offline(&spec, gpu.clone(), cost.clone(), 7)?;
    let mut perfs = Vec::new();
    for strategy in Strategy::ALL {
        let art = (strategy == Strategy::Medusa).then_some(&artifact);
        let perf = PerfModel::measure(strategy, &spec, gpu.clone(), cost.clone(), art, 8)?;
        println!(
            "  {:<16} loading {:.3}s, decode@1 {:.2}ms, prefill@161 {:.2}ms",
            strategy.to_string(),
            perf.loading.as_secs_f64(),
            perf.decode_duration(1).as_millis_f64(),
            perf.prefill_duration(161).as_millis_f64()
        );
        perfs.push((strategy, perf));
    }

    let trace = TraceConfig::sharegpt(rps, 180.0).with_seed(99).generate();
    println!(
        "\nreplaying {} requests over 180s at {} rps on a 4-GPU cluster:",
        trace.len(),
        rps
    );
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "strategy", "p50 TTFT", "p99 TTFT", "mean", "throughput", "cold starts"
    );
    for (strategy, perf) in perfs {
        let profile = FleetProfile::from_perf(strategy, perf);
        let r = simulate_fleet(&profile, &ClusterSpec::uniform(4), Policy::Locality, &trace).report;
        println!(
            "{:<16} {:>9.3}s {:>9.3}s {:>9.3}s {:>9.2}qps {:>12}",
            strategy.to_string(),
            r.ttft_p50_us as f64 / 1e6,
            r.ttft_p99_us as f64 / 1e6,
            r.ttft_mean_us as f64 / 1e6,
            r.completed as f64 / (r.makespan_ns as f64 / 1e9),
            r.cold_starts
        );
    }
    println!("\npaper Fig. 10: Medusa cuts p99 TTFT by ~50-53% vs vLLM and beats w/o CUDA graph");
    Ok(())
}
