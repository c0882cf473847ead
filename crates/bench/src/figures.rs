//! Harnesses regenerating every figure and table of the paper's evaluation.
//!
//! Each function prints the same rows/series the paper reports, with the
//! paper's headline values quoted for comparison. Absolute values are
//! simulated seconds; the reproduction targets are the *shapes* — who wins,
//! by roughly what factor, where crossovers fall.

use crate::common::{self, for_all_models, gpu, offline, pct, run_cold, s, s_us, serve_trace};
use medusa::{ColdStartReport, Stage, Strategy};
use medusa_model::ModelSpec;
use medusa_serving::PerfModel;
use medusa_workload::TraceConfig;

const LOADING_STAGES: [Stage; 5] = [
    Stage::StructureInit,
    Stage::WeightsLoad,
    Stage::TokenizerLoad,
    Stage::KvCacheInit,
    Stage::Capture,
];

/// Figure 1: cold-start timeline of Qwen1.5 4B under vanilla vLLM.
pub fn fig1() {
    println!("### Figure 1 — cold start timeline, Qwen1.5 4B (vanilla vLLM)");
    println!("paper: runtime init 22%, loading 76%, first token 2%;");
    println!("       KV init + capturing = 50% of the loading phase\n");
    let spec = ModelSpec::by_name("Qwen1.5-4B").expect("catalog");
    let (_e, r) = run_cold(Strategy::Vanilla, &spec, None, false);
    let total = r.total.as_secs_f64();
    let loading = r.loading.as_secs_f64();
    println!("{:<16} {:>9} {:>8}", "phase", "seconds", "share");
    for (name, d) in [
        ("runtime init", r.stage(Stage::RuntimeInit)),
        ("loading", r.loading),
        ("first token", r.stage(Stage::FirstToken)),
    ] {
        println!(
            "{:<16} {:>9} {:>8}",
            name,
            s(d),
            pct(d.as_secs_f64(), total)
        );
    }
    let kv = r.stage(Stage::KvCacheInit).as_secs_f64();
    let cap = r.stage(Stage::Capture).as_secs_f64();
    println!(
        "\nwithin loading: kv init {} + capturing {} = {} of the loading phase",
        pct(kv, loading),
        pct(cap, loading),
        pct(kv + cap, loading)
    );
}

/// Figure 2: loading-phase breakdown across all ten models.
pub fn fig2() {
    println!("### Figure 2 — loading phase breakdown, vanilla vLLM, 10 models");
    println!("paper: KV init ≈ 18% and capturing ≈ 32% of loading on average\n");
    let rows = for_all_models(|spec| run_cold(Strategy::Vanilla, spec, None, true).1);
    println!(
        "{:<14} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} | {:>6} {:>6}",
        "model", "struct", "weights", "token", "kvinit", "capture", "total", "kv%", "cap%"
    );
    let (mut kv_sum, mut cap_sum) = (0.0, 0.0);
    for (spec, r) in &rows {
        let total = r.loading.as_secs_f64();
        let by: Vec<f64> = LOADING_STAGES
            .iter()
            .map(|&st| r.stage(st).as_secs_f64())
            .collect();
        kv_sum += by[3] / total;
        cap_sum += by[4] / total;
        println!(
            "{:<14} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} | {:>6} {:>6}",
            spec.name(),
            by[0],
            by[1],
            by[2],
            by[3],
            by[4],
            total,
            pct(by[3], total),
            pct(by[4], total)
        );
    }
    let n = rows.len() as f64;
    println!(
        "\naverage: kv init {:.1}% of loading (paper 18%), capturing {:.1}% (paper 32%), combined {:.1}% (paper ~47-50%)",
        100.0 * kv_sum / n,
        100.0 * cap_sum / n,
        100.0 * (kv_sum + cap_sum) / n
    );
}

/// Figure 3: inference latency with vs. without CUDA graphs.
pub fn fig3() {
    println!("### Figure 3 — acceleration brought by the CUDA graph");
    println!("paper: prompt 161 / output 338 tokens; speedup up to 2.4x\n");
    let models = ["Llama2-7B", "Qwen1.5-4B", "Qwen1.5-7B", "Llama2-13B"];
    println!(
        "{:<14} {:>12} {:>12} {:>9}",
        "model", "w/o graph(s)", "w/ graph(s)", "speedup"
    );
    let mut best: f64 = 0.0;
    for name in models {
        let spec = ModelSpec::by_name(name).expect("catalog");
        let (mut with_graph, _) = run_cold(Strategy::Vanilla, &spec, None, true);
        let (mut without, _) = run_cold(Strategy::NoCudaGraph, &spec, None, true);
        let latency = |e: &mut medusa::ReadyEngine| -> f64 {
            // Warm the batch-1 path once (first eager decode pays one-time
            // module loads); the figure reports steady-state serving.
            e.decode_step(1).expect("warm decode");
            let prefill = e.prefill(1, 161).expect("prefill").as_secs_f64();
            let step = e.decode_step(1).expect("decode").as_secs_f64();
            prefill + 337.0 * step
        };
        let lw = latency(&mut with_graph);
        let lo = latency(&mut without);
        best = best.max(lo / lw);
        println!("{:<14} {:>12.3} {:>12.3} {:>8.2}x", name, lo, lw, lo / lw);
    }
    println!("\nmax speedup {best:.2}x (paper: up to 2.4x)");
}

/// Table 1: parameter sizes and CUDA graph node counts.
pub fn table1() {
    println!("### Table 1 — models, parameter sizes, CUDA graph node counts");
    println!("paper total: 139364 nodes across 10 models x 35 batch sizes\n");
    let rows = for_all_models(|spec| {
        let (artifact, _) = offline(spec);
        artifact.total_nodes()
    });
    println!(
        "{:<14} {:>12} {:>14} {:>14}",
        "model", "params", "nodes(meas.)", "nodes(paper)"
    );
    let mut total = 0u64;
    for (spec, nodes) in &rows {
        total += nodes;
        println!(
            "{:<14} {:>10.1}GB {:>14} {:>14}",
            spec.name(),
            spec.param_bytes() as f64 / (1u64 << 30) as f64,
            nodes,
            spec.table1_nodes()
        );
    }
    println!("\ntotal measured nodes: {total} (paper: 139364)");
}

fn fig7_rows() -> Vec<(ModelSpec, [ColdStartReport; 3])> {
    for_all_models(|spec| {
        let (artifact, _) = offline(spec);
        [
            run_cold(Strategy::Vanilla, spec, None, false).1,
            run_cold(Strategy::VanillaAsync, spec, None, false).1,
            run_cold(Strategy::Medusa, spec, Some(&artifact), false).1,
        ]
    })
}

/// Figure 7: overall loading-phase time (a) and cold-start time (b).
pub fn fig7() {
    println!("### Figure 7 — loading phase (a) and cold start (b) per strategy");
    println!("paper: Medusa reduces loading by 42.5% avg vs vLLM (34.4% vs +Async)");
    println!("       and cold start by 34.9% avg; best Llama2-13B, worst Qwen1.5-0.5B\n");
    let rows = fig7_rows();
    println!(
        "{:<14} | {:>8} {:>8} {:>8} {:>7} | {:>8} {:>8} {:>8} {:>7}",
        "model", "vLLM", "+Async", "Medusa", "redu.", "vLLM", "+Async", "Medusa", "redu."
    );
    println!(
        "{:<14} | {:^34} | {:^34}",
        "", "loading phase (s)", "cold start (s)"
    );
    let (mut load_red, mut cold_red) = (0.0, 0.0);
    let mut extremes: Vec<(String, f64)> = Vec::new();
    for (spec, [v, a, m]) in &rows {
        let lred = 1.0 - m.loading.as_secs_f64() / v.loading.as_secs_f64();
        let cred = 1.0 - m.total.as_secs_f64() / v.total.as_secs_f64();
        load_red += lred;
        cold_red += cred;
        extremes.push((spec.name().to_string(), lred));
        println!(
            "{:<14} | {:>8} {:>8} {:>8} {:>6.1}% | {:>8} {:>8} {:>8} {:>6.1}%",
            spec.name(),
            s(v.loading),
            s(a.loading),
            s(m.loading),
            100.0 * lred,
            s(v.total),
            s(a.total),
            s(m.total),
            100.0 * cred
        );
    }
    let n = rows.len() as f64;
    extremes.sort_by(|x, y| x.1.partial_cmp(&y.1).expect("finite"));
    println!(
        "\naverage loading reduction {:.1}% (paper 42.5%), cold-start reduction {:.1}% (paper 34.9%)",
        100.0 * load_red / n,
        100.0 * cold_red / n
    );
    println!(
        "least reduction: {} {:.1}% (paper: Qwen1.5-0.5B 21.1%); most: {} {:.1}% (paper: Llama2-13B 42.9%)",
        extremes[0].0,
        100.0 * extremes[0].1,
        extremes[extremes.len() - 1].0,
        100.0 * extremes[extremes.len() - 1].1
    );
}

/// Figure 8: stage-level breakdown of the three strategies for Qwen1.5 4B.
pub fn fig8() {
    println!("### Figure 8 — breakdown of strategies, Qwen1.5 4B");
    println!("paper: vLLM 2.85s -> +Async 2.48s -> Medusa 1.67s;");
    println!("       kv init 0.50->0.02s, capturing 0.90->0.57s, interference +0.08s\n");
    let spec = ModelSpec::by_name("Qwen1.5-4B").expect("catalog");
    let (artifact, _) = offline(&spec);
    for (strategy, art) in [
        (Strategy::Vanilla, None),
        (Strategy::VanillaAsync, None),
        (Strategy::Medusa, Some(&artifact)),
    ] {
        let (_e, r) = run_cold(strategy, &spec, art, true);
        println!("{} — loading {}s", strategy, s(r.loading));
        for span in &r.spans {
            if span.stage == Stage::RuntimeInit || span.stage == Stage::FirstToken {
                continue;
            }
            println!(
                "  {:<16} [{:>7} .. {:>7}]  {:>7}s",
                span.stage.to_string(),
                s(span.start - medusa_gpu::SimTime::ZERO),
                s(span.end - medusa_gpu::SimTime::ZERO),
                s(span.duration())
            );
        }
        println!();
    }
}

/// Figure 9: offline-phase overhead per model.
pub fn fig9() {
    println!("### Figure 9 — offline phase overhead");
    println!("paper: 39.2s average (capturing ~9.7s + analysis); < 1 minute\n");
    let rows = for_all_models(|spec| offline(spec).1);
    println!(
        "{:<14} {:>10} {:>10} {:>10}",
        "model", "capture(s)", "analysis(s)", "total(s)"
    );
    let mut total = 0.0;
    for (spec, rep) in &rows {
        total += rep.total().as_secs_f64();
        println!(
            "{:<14} {:>10.2} {:>10.2} {:>10.2}",
            spec.name(),
            rep.capture.as_secs_f64(),
            rep.analysis.as_secs_f64(),
            rep.total().as_secs_f64()
        );
    }
    println!(
        "\naverage offline phase: {:.1}s (paper 39.2s)",
        total / rows.len() as f64
    );
}

fn perf_models(spec: &ModelSpec) -> Vec<(Strategy, PerfModel)> {
    let (artifact, _) = offline(spec);
    Strategy::ALL
        .into_iter()
        .map(|strategy| {
            let art = (strategy == Strategy::Medusa).then_some(&artifact);
            let p = PerfModel::measure(
                strategy,
                spec,
                gpu(),
                common::cost(),
                art,
                common::online_seed(spec, strategy),
            )
            .expect("perf measurement");
            (strategy, p)
        })
        .collect()
}

/// Figure 10: p99 TTFT under the ShareGPT trace at RPS 2 and 10.
pub fn fig10() {
    println!("### Figure 10 — p99 TTFT under real-world traces (4x A100)");
    println!("paper: Medusa reduces p99 TTFT by 50.5% (Llama2-7B, rps2) and");
    println!("       53.0% (rps10) vs vLLM; also beats w/o CUDA GRAPH\n");
    for model in ["Llama2-7B", "Qwen1.5-4B"] {
        let spec = ModelSpec::by_name(model).expect("catalog");
        let perfs = perf_models(&spec);
        for rps in [2.0, 10.0] {
            let trace = TraceConfig::sharegpt(rps, 120.0).with_seed(42).generate();
            println!("{model} @ {rps} rps ({} requests):", trace.len());
            let mut p99 = Vec::new();
            for (strategy, perf) in &perfs {
                let r = serve_trace(*strategy, perf, 60.0, &trace);
                p99.push((*strategy, r.ttft_p99_us as f64));
                println!(
                    "  {:<16} p99 TTFT {:>8}s   mean {:>8}s   cold starts {}",
                    strategy.to_string(),
                    s_us(r.ttft_p99_us),
                    s_us(r.ttft_mean_us),
                    r.cold_starts
                );
            }
            let vllm = p99
                .iter()
                .find(|(st, _)| *st == Strategy::Vanilla)
                .expect("ran")
                .1;
            let med = p99
                .iter()
                .find(|(st, _)| *st == Strategy::Medusa)
                .expect("ran")
                .1;
            println!(
                "  => Medusa p99 reduction vs vLLM: {:.1}%\n",
                100.0 * (1.0 - med / vllm)
            );
        }
    }
}

/// Figure 11: p99 TTFT versus achieved system throughput (RPS sweep).
pub fn fig11() {
    println!("### Figure 11 — p99 TTFT vs overall throughput (RPS sweep, 4x A100)");
    println!("paper: at ~4.5 QPS (Llama2-7B) Medusa is 43.0/29.9/27.0% below");
    println!("       vLLM / vLLM+Async / w-o CUDA graph\n");
    for model in ["Llama2-7B", "Qwen1.5-4B"] {
        let spec = ModelSpec::by_name(model).expect("catalog");
        let perfs = perf_models(&spec);
        println!("{model}:");
        println!(
            "{:<6} | {:>22} {:>22} {:>22} {:>22}",
            "rps", "vLLM", "vLLM+Async", "Medusa", "w/o CUDA graph"
        );
        for rps in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0] {
            let trace = TraceConfig::sharegpt(rps, 120.0).with_seed(17).generate();
            print!("{rps:<6} |");
            for target in [
                Strategy::Vanilla,
                Strategy::VanillaAsync,
                Strategy::Medusa,
                Strategy::NoCudaGraph,
            ] {
                let perf = &perfs
                    .iter()
                    .find(|(st, _)| *st == target)
                    .expect("measured")
                    .1;
                let r = serve_trace(target, perf, 60.0, &trace);
                print!(
                    " {:>9.2}qps {:>8.3}s ",
                    r.completed as f64 / (r.makespan_ns as f64 / 1e9),
                    r.ttft_p99_us as f64 / 1e6
                );
            }
            println!();
        }
        println!();
    }
}
