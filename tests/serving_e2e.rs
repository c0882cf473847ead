//! End-to-end serving experiments at test scale: the Figure 10/11 shape on
//! a small model — Medusa must dominate the TTFT tail under bursty load.
//! Every run replays the paper's §7.5 testbed on the fleet simulator: 4
//! GPUs, a warm container pool (no registry fetch), start-cost locality
//! routing.

use medusa::{materialize_offline, Strategy};
use medusa_gpu::{CostModel, GpuSpec};
use medusa_model::ModelSpec;
use medusa_serving::{simulate_fleet, ClusterReport, ClusterSpec, FleetProfile, PerfModel, Policy};
use medusa_workload::TraceConfig;

fn perf_for(strategy: Strategy) -> PerfModel {
    let spec = ModelSpec::by_name("Qwen1.5-0.5B").expect("catalog model");
    let art = match strategy {
        Strategy::Medusa => Some(
            materialize_offline(&spec, GpuSpec::a100_40gb(), CostModel::default(), 71)
                .expect("offline")
                .0,
        ),
        _ => None,
    };
    PerfModel::measure(
        strategy,
        &spec,
        GpuSpec::a100_40gb(),
        CostModel::default(),
        art.as_ref(),
        72,
    )
    .expect("measure")
}

fn run(strategy: Strategy, rps: f64) -> ClusterReport {
    let trace = TraceConfig::sharegpt(rps, 90.0).with_seed(5).generate();
    let profile = FleetProfile::from_perf(strategy, perf_for(strategy));
    simulate_fleet(&profile, &ClusterSpec::uniform(4), Policy::Locality, &trace).report
}

/// Achieved throughput: completed requests per second of makespan.
fn throughput(r: &ClusterReport) -> f64 {
    r.completed as f64 / (r.makespan_ns as f64 / 1e9)
}

/// Figure 10 shape: Medusa's p99 TTFT beats every baseline at both load
/// levels, and all requests complete.
#[test]
fn medusa_dominates_p99_ttft() {
    for rps in [2.0, 8.0] {
        let vanilla = run(Strategy::Vanilla, rps);
        let asynch = run(Strategy::VanillaAsync, rps);
        let medusa = run(Strategy::Medusa, rps);
        let m = medusa.ttft_p99_us;
        assert!(
            m < asynch.ttft_p99_us && m < vanilla.ttft_p99_us,
            "medusa p99 {m}us must be lowest at {rps} rps"
        );
        assert!(
            asynch.ttft_p99_us < vanilla.ttft_p99_us,
            "async must beat vanilla"
        );
        assert_eq!(medusa.completed, medusa.offered, "no request may be lost");
    }
}

/// Figure 11 shape: the w/o-CUDA-graph strategy trades cold-start time for
/// permanently slower serving — at saturating load its achieved throughput
/// falls behind the graph-based strategies.
#[test]
fn no_graph_throughput_saturates_earlier() {
    let rps = 40.0;
    let with_graph = run(Strategy::Medusa, rps);
    let without = run(Strategy::NoCudaGraph, rps);
    assert!(
        throughput(&with_graph) > throughput(&without) * 1.1,
        "graphs must buy throughput: {} vs {}",
        throughput(&with_graph),
        throughput(&without)
    );
}

/// TTFT grows with offered load for every strategy (queueing). The mean is
/// the robust comparison: at trickle load the p99 is just the one request
/// that paid the initial cold start. Medusa's materialized cold start is
/// small enough that both operating points are effectively warm, so a
/// sub-percent tolerance absorbs queueing noise while still catching any
/// real inversion.
#[test]
fn ttft_grows_with_load() {
    for strategy in [Strategy::Vanilla, Strategy::Medusa] {
        let low = run(strategy, 1.0);
        let high = run(strategy, 30.0);
        assert!(
            high.ttft_mean_us as f64 >= low.ttft_mean_us as f64 * 0.99,
            "{strategy:?}: mean TTFT must not shrink under pressure ({}us vs {}us)",
            high.ttft_mean_us,
            low.ttft_mean_us
        );
    }
}

/// Cold starts only happen when scale demands them: a trickle is served by
/// one instance.
#[test]
fn low_load_needs_single_instance() {
    let r = run(Strategy::Vanilla, 0.5);
    assert_eq!(r.cold_starts, 1);
}
