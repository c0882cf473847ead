//! The host path of a Medusa restore (paper §5): kernel resolution from a
//! kernel list the resolver builds once per artifact, and the tokenizer
//! loaded beside it. Public calls only, on Qwen1.5-0.5B at tp=1 and tp=2.

use medusa::{
    replay_allocations, restore_graph, ColdStart, ColdStartOptions, KernelResolver,
    MaterializedState, Parallelism, ResolutionStats, Strategy, TpArtifacts,
};
use medusa_gpu::{CostModel, GpuSpec, ProcessRuntime, SimTime};
use medusa_graph::GraphExec;
use medusa_model::{
    apply_weights, build_catalog, capture_first_layer_graph, warmup_first_layer, ModelInstance,
    ModelSpec, Tokenizer,
};
use std::collections::HashMap;

fn spec() -> ModelSpec {
    ModelSpec::by_name("Qwen1.5-0.5B").expect("catalog model")
}

fn parallelism(tp: u32) -> Parallelism {
    if tp > 1 {
        Parallelism::PipelinedTp
    } else {
        Parallelism::Overlapped
    }
}

fn materialize(tp: u32) -> TpArtifacts {
    let s = spec();
    let mut builder = ColdStart::new(&s).parallelism(parallelism(tp));
    if tp > 1 {
        builder = builder.tp(tp);
    }
    builder.materialize(17).expect("materialize").0
}

fn cold_start_json(tp: u32, bytes: &[u8]) -> String {
    let s = spec();
    let opts = ColdStartOptions {
        seed: 23,
        warm_container: true,
        parallelism: parallelism(tp),
        ..Default::default()
    };
    let mut builder = ColdStart::new(&s)
        .strategy(Strategy::Medusa)
        .options(opts)
        .artifact_bytes(bytes);
    if tp > 1 {
        builder = builder.tp(tp);
    }
    let outcome = builder.run().expect("cold start");
    assert_eq!(outcome.strategy_used(), Strategy::Medusa, "tp={tp}");
    assert!(
        outcome.fallback().is_none(),
        "tp={tp}: {:?}",
        outcome.fallback()
    );
    assert_eq!(outcome.reports.len(), tp as usize);
    serde_json::to_string(&outcome.reports).expect("encode reports")
}

#[test]
fn medusa_restores_from_maf2_without_fallback_and_deterministically() {
    for tp in [1, 2] {
        let bytes = materialize(tp).to_maf2().expect("encode");
        let first = cold_start_json(tp, &bytes);
        assert_eq!(first, cold_start_json(tp, &bytes), "tp={tp}");
    }
}

/// What one run of the restore loop observed.
#[derive(Debug, PartialEq)]
struct LoopOutcome {
    enumerated_at: Vec<usize>,
    clock: SimTime,
    stats: ResolutionStats,
    addrs: HashMap<(String, String), u64>,
}

/// The pipeline's first-layer restore loop in a fresh process: `dlsym`
/// first, then per graph the triggering-kernels and, while any kernel is
/// missing, module enumeration.
fn restore_loop(resolver: &mut KernelResolver, art: &MaterializedState) -> LoopOutcome {
    let s = spec();
    let mut rt = ProcessRuntime::new(
        build_catalog(&s),
        GpuSpec::a100_40gb(),
        CostModel::default(),
        3,
    );
    let mut inst =
        ModelInstance::initialize_sharded(&mut rt, &s, art.rank, art.tp).expect("structure");
    let (layout, _) = replay_allocations(&mut rt, art).expect("replay");
    let kv = layout.kv_view(16).expect("kv view");
    inst.bind_workspace(layout.workspace().expect("workspace"));
    inst.bind_magic(layout.magic_pairs(s.layers()).expect("magic"));
    apply_weights(&mut rt, &inst).expect("weights");
    resolver.resolve_exported(&mut rt, art).expect("dlsym");
    let mut enumerated_at = Vec::new();
    for (gi, gspec) in art.graphs.iter().enumerate() {
        warmup_first_layer(&mut rt, &mut inst, gspec.batch, &kv).expect("trigger");
        capture_first_layer_graph(&mut rt, &mut inst, gspec.batch, &kv).expect("trigger");
        if resolver.ensure_complete(art).is_err() {
            resolver
                .resolve_by_enumeration(&mut rt, art)
                .expect("enumeration");
            enumerated_at.push(gi);
        }
        let graph = restore_graph(gspec, &layout, resolver.addrs()).expect("restore");
        GraphExec::instantiate(&mut rt, graph).expect("instantiate");
    }
    resolver.ensure_complete(art).expect("complete");
    LoopOutcome {
        enumerated_at,
        clock: rt.now(),
        stats: resolver.stats().clone(),
        addrs: resolver.addrs().clone(),
    }
}

#[test]
fn every_needed_kernel_resolves_exactly_once() {
    for tp in [1, 2] {
        for art in materialize(tp).iter() {
            let out = restore_loop(&mut KernelResolver::new(), art);
            assert_eq!(
                out.stats.via_dlsym + out.stats.via_enumeration,
                KernelResolver::needed(art).len(),
                "tp={tp} rank {}",
                art.rank
            );
            assert!(out.stats.via_dlsym > 0 && out.stats.via_enumeration > 0);
        }
    }
}

#[test]
fn a_resolver_reused_on_another_artifact_matches_a_fresh_one() {
    let single = materialize(1);
    let sharded = materialize(2);
    let other = &single.iter().next().expect("rank 0");
    for art in sharded.iter() {
        let mut reused = KernelResolver::new();
        assert!(reused.ensure_complete(other).is_err());
        assert_eq!(
            restore_loop(&mut reused, art),
            restore_loop(&mut KernelResolver::new(), art),
            "rank {}",
            art.rank
        );
    }
}

#[test]
fn the_full_vocabulary_round_trips() {
    let (tok, _) = Tokenizer::load(151_936, &CostModel::default());
    assert_eq!(tok.vocab_size(), 151_936);
    for text in [
        "the estate reestablishes the reinstatement",
        "\0\x7f ünïcödé 😀 ab\0",
        "",
    ] {
        assert_eq!(tok.decode(&tok.encode(text)), text.as_bytes(), "{text:?}");
    }
}
