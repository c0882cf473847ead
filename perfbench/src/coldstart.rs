//! The `coldstart-catalog` workload: the real offline (write) and online
//! (read) artifact paths, one model after another, with no fleet.
//!
//! Set-up publishes the catalog: every entry is materialized, MAF2-encoded
//! and packed into one content-addressed store. Each timed round then
//! does, per entry, one write (materialize with a fresh offline seed,
//! encode, pack into a scratch store) and one read (assemble the entry
//! from the catalog, then a Medusa `ColdStart::run` from those bytes with
//! a fresh online seed).
//!
//! Checks: every restore serves Medusa with no fallback; every read
//! assembles exactly the published bytes and every packed write assembles
//! back to its own bytes; in the first round each entry's bytes also
//! decode to the encoded content checksum and pass the artifact validator.
//!
//! The simulated metrics serve a seeded cold-request trace against the
//! catalog: every request lands on a cold instance of its model, so its
//! TTFT is the restore's loading phase plus the first-token prefill of the
//! request's own prompt.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use medusa::{
    analyze, replay_allocations, restore_graph, run_offline_capture, ArtifactValidator,
    ChunkManifest, ChunkStore, ColdStart, ColdStartOptions, ColdStartOutcome, KernelResolver,
    Maf2Reader, MaterializedState, Parallelism, Stage, Strategy, TpArtifacts,
};
use medusa_gpu::{CostModel, GpuSpec, ProcessRuntime};
use medusa_graph::GraphExec;
use medusa_model::{
    apply_weights, build_catalog, capture_first_layer_graph, warmup_first_layer, ModelInstance,
    ModelSpec, Tokenizer,
};
use medusa_workload::{ModelMix, Request, TraceConfig};

use crate::host::{check_fingerprint, mix, peak_rss_mb, set_up, Checks};
use crate::metrics::{set_latency, Outcome, Values};
use crate::stats::{median, quantile, ratio, supported_percentile};
use crate::{DEFAULT_SEED, HELD_OUT_SEED};

pub const NAME: &str = "coldstart-catalog";

/// The catalog: four models at tp=1 and one at tp=2 under `PipelinedTp`.
const ENTRIES: [(&str, u32); 5] = [
    ("Qwen1.5-0.5B", 1),
    ("Qwen1.5-4B", 1),
    ("Llama2-7B", 1),
    ("Yi-9B", 1),
    ("Llama2-7B", 2),
];

/// Cold requests: Zipf(1.0) over the catalog entries, ShareGPT prompts;
/// about 1200 per seed, enough to support a p99.
const COLD_RPS: f64 = 12.0;
const COLD_WINDOW_S: f64 = 100.0;

/// Fixed TTFT limit behind `slo_attainment`, seconds.
const TTFT_LIMIT_S: f64 = 1.5;

/// Set-up repetitions per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Per-operation latency samples the traced run takes of each kind, so
/// that its p90 has ten samples beyond it.
const MIN_SAMPLES: usize = 100;

/// Cold-request trace fingerprints recorded at the default and held-out
/// seeds.
const RECORDED: [(u64, u64); 2] = [
    (DEFAULT_SEED, 0x5cf4_47be_42ac_0504),
    (HELD_OUT_SEED, 0xa7ce_54c7_a190_4ac2),
];

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

struct Entry {
    spec: ModelSpec,
    tp: u32,
}

impl Entry {
    fn label(&self) -> String {
        format!("{}/tp{}", self.spec.name(), self.tp)
    }

    fn parallelism(&self) -> Parallelism {
        if self.tp > 1 {
            Parallelism::PipelinedTp
        } else {
            Parallelism::Overlapped
        }
    }

    fn materialize(&self, seed: u64) -> Result<TpArtifacts, String> {
        let builder = ColdStart::new(&self.spec).parallelism(self.parallelism());
        let builder = if self.tp > 1 {
            builder.tp(self.tp)
        } else {
            builder
        };
        Ok(builder.materialize(seed).map_err(err("materialize"))?.0)
    }

    fn cold_start(
        &self,
        strategy: Strategy,
        bytes: Option<&[u8]>,
        seed: u64,
    ) -> Result<ColdStartOutcome, String> {
        let opts = ColdStartOptions {
            seed,
            warm_container: true,
            parallelism: self.parallelism(),
            ..Default::default()
        };
        let mut builder = ColdStart::new(&self.spec).strategy(strategy).options(opts);
        if self.tp > 1 {
            builder = builder.tp(self.tp);
        }
        if let Some(bytes) = bytes {
            builder = builder.artifact_bytes(bytes);
        }
        builder.run().map_err(err("cold start"))
    }

    /// Checks that `bytes` validate for every rank of this entry.
    fn validate(&self, bytes: &[u8], checks: &mut Checks) {
        let base = ArtifactValidator::for_target(&self.spec, &GpuSpec::a100_40gb());
        for rank in 0..self.tp {
            let report = base.clone().shard(rank, self.tp).validate_bytes(bytes);
            checks.check(report.passed(), || {
                format!("{} rank {rank}: artifact validation failed", self.label())
            });
        }
    }
}

fn checksums(arts: &TpArtifacts) -> Vec<u64> {
    arts.iter()
        .map(MaterializedState::content_checksum)
        .collect()
}

/// Per-rank content checksums of MAF2 bytes, decoded eagerly.
fn decoded_checksums(bytes: &[u8]) -> Result<Vec<u64>, String> {
    Ok(checksums(
        &TpArtifacts::from_maf2(bytes).map_err(err("decode"))?,
    ))
}

/// One entry as the catalog published it.
struct Published {
    bytes: Vec<u8>,
    checksums: Vec<u64>,
}

/// The published catalog and the cold-request trace.
struct Inputs {
    entries: Vec<Entry>,
    requests: Vec<Request>,
    store: ChunkStore,
    manifests: Vec<ChunkManifest>,
    published: Vec<Published>,
    generate: Duration,
    catalog_build: Duration,
}

fn build(seed: u64) -> Result<Inputs, String> {
    let t = Instant::now();
    let requests = TraceConfig::sharegpt(COLD_RPS, COLD_WINDOW_S)
        .with_seed(seed)
        .with_models(ModelMix::zipf(ENTRIES.len() as u32, 1.0))
        .generate();
    let generate = t.elapsed();
    let t = Instant::now();
    let entries: Vec<Entry> = ENTRIES
        .iter()
        .map(|&(name, tp)| {
            ModelSpec::by_name(name)
                .map(|spec| Entry { spec, tp })
                .ok_or_else(|| format!("unknown model {name}"))
        })
        .collect::<Result<_, _>>()?;
    let mut store = ChunkStore::new();
    let mut manifests = Vec::new();
    let mut published = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        let arts = e.materialize(mix(seed ^ 0xca7a_0000 ^ i as u64))?;
        let bytes = arts.to_maf2().map_err(err("encode"))?;
        manifests.push(store.pack(&bytes).map_err(err("pack"))?);
        published.push(Published {
            bytes,
            checksums: checksums(&arts),
        });
    }
    let catalog_build = t.elapsed();
    Ok(Inputs {
        entries,
        requests,
        store,
        manifests,
        published,
        generate,
        catalog_build,
    })
}

/// Host timings of one round's operations.
#[derive(Default)]
struct Round {
    /// `ColdStart::materialize` per write.
    materialize: Vec<Duration>,
    /// Whole writes: materialize + encode + pack.
    writes: Vec<Duration>,
    /// `ColdStart::run` per read.
    restore: Vec<Duration>,
    /// Whole reads: assemble + run.
    reads: Vec<Duration>,
    encode: Duration,
    pack: Duration,
    assemble: Duration,
    written_bytes: u64,
    read_bytes: u64,
    attempted: u64,
    failed: u64,
}

/// One write and one read per entry; returns the timings and the reads'
/// outcomes.
fn run_round(
    inputs: &Inputs,
    seed: u64,
    round: u64,
    checks: &mut Checks,
) -> (Round, Vec<ColdStartOutcome>) {
    let mut r = Round::default();
    let mut kept = Vec::new();
    let mut scratch = ChunkStore::new();
    for (i, e) in inputs.entries.iter().enumerate() {
        let op_seed = mix(seed ^ mix(round) ^ ((i as u64) << 56));

        // Write.
        r.attempted += 1;
        let t = Instant::now();
        let written = e.materialize(op_seed).and_then(|arts| {
            let materialized = t.elapsed();
            let t1 = Instant::now();
            let bytes = arts.to_maf2().map_err(err("encode"))?;
            let encoded = t1.elapsed();
            let t2 = Instant::now();
            let manifest = scratch.pack(&bytes).map_err(err("pack"))?;
            let packed = t2.elapsed();
            Ok((arts, bytes, manifest, materialized, encoded, packed))
        });
        let write_time = t.elapsed();
        match written {
            Ok((arts, bytes, manifest, materialized, encoded, packed)) => {
                r.writes.push(write_time);
                r.materialize.push(materialized);
                r.encode += encoded;
                r.pack += packed;
                r.written_bytes += bytes.len() as u64;
                let back = scratch.assemble(&manifest).map_err(err("assemble"));
                checks.check(back.as_ref() == Ok(&bytes), || {
                    format!("{}: packed write does not assemble to its bytes", e.label())
                });
                if round == 0 {
                    checks.check(decoded_checksums(&bytes) == Ok(checksums(&arts)), || {
                        format!("{}: written bytes decode to other content", e.label())
                    });
                    e.validate(&bytes, checks);
                }
            }
            Err(what) => {
                r.failed += 1;
                checks.check(false, || format!("{} write: {what}", e.label()));
            }
        }

        // Read.
        r.attempted += 1;
        let t = Instant::now();
        let read = inputs
            .store
            .assemble(&inputs.manifests[i])
            .map_err(err("assemble"));
        let assembled = t.elapsed();
        let read = read.and_then(|bytes| {
            let t1 = Instant::now();
            let out = e.cold_start(Strategy::Medusa, Some(&bytes), mix(op_seed ^ 0x0511))?;
            Ok((bytes, out, t1.elapsed()))
        });
        let read_time = t.elapsed();
        match read {
            Ok((bytes, out, restored)) => {
                let medusa = out.strategy_used() == Strategy::Medusa && out.fallback().is_none();
                if !medusa {
                    r.failed += 1;
                }
                checks.check(medusa, || {
                    format!(
                        "{}: restore served {:?} (fallback {:?})",
                        e.label(),
                        out.strategy_used(),
                        out.fallback()
                    )
                });
                r.reads.push(read_time);
                r.restore.push(restored);
                r.assemble += assembled;
                r.read_bytes += bytes.len() as u64;
                checks.check(bytes == inputs.published[i].bytes, || {
                    format!(
                        "{}: assembled bytes differ from the published ones",
                        e.label()
                    )
                });
                if round == 0 {
                    checks.check(
                        decoded_checksums(&bytes).as_ref() == Ok(&inputs.published[i].checksums),
                        || format!("{}: assembled bytes decode to other content", e.label()),
                    );
                    e.validate(&bytes, checks);
                }
                kept.push(out);
            }
            Err(what) => {
                r.failed += 1;
                checks.check(false, || format!("{} read: {what}", e.label()));
            }
        }
    }
    (r, kept)
}

fn secs(ds: &[Duration]) -> f64 {
    ds.iter().map(Duration::as_secs_f64).sum()
}

fn ms_quantiles(ds: &[Duration]) -> (f64, f64) {
    let mut v: Vec<f64> = ds.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    v.sort_by(f64::total_cmp);
    (quantile(&v, 0.5), quantile(&v, 0.9))
}

/// Runs the workload: end-to-end metrics untraced, per-layer traced.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let reps = if traced { 1 } else { SETUP_REPS };
    let (inputs, mut setups) = set_up(reps, || build(seed), |i| i.generate + i.catalog_build)?;
    check_fingerprint(NAME, seed, &inputs.requests, &RECORDED, &mut checks);

    // Timed rounds: until `seconds` pass, and in the traced run until
    // every per-operation latency has its samples.
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut first = Vec::new();
    let mut peak_mb = 0.0;
    loop {
        let (round, outcomes) = run_round(&inputs, seed, rounds.len() as u64, &mut checks);
        if rounds.is_empty() {
            first = outcomes;
            peak_mb = peak_rss_mb()?;
        }
        rounds.push(round);
        let samples = rounds.iter().map(|r: &Round| r.reads.len()).sum::<usize>();
        let enough = !traced || samples >= MIN_SAMPLES;
        if start.elapsed() >= budget && enough {
            break;
        }
    }
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    println!(
        "perfbench: {} rounds; fail_ratio {} = {failed} failed operations / {attempted} attempted \
         (writes and reads)",
        rounds.len(),
        ratio(failed as f64, attempted as f64)
    );

    let mut values = Values::default();
    let sim = Sim::serve(&inputs, &mut first)?;
    if traced {
        sim.per_layer(&mut values);
        per_layer(&inputs, seed, &rounds, &mut checks, &mut values)?;
        values.set("workload.generate_ms", inputs.generate.as_secs_f64() * 1e3);
        values.set(
            "core.artifact.catalog_build_ms",
            inputs.catalog_build.as_secs_f64() * 1e3,
        );
    } else {
        values.set("setup_s", median(&mut setups));
        values.set("peak_rss_mb", peak_mb);
        let mut per_round: Vec<f64> = rounds
            .iter()
            .map(|r| ratio(r.reads.len() as f64, secs(&r.reads)))
            .collect();
        values.set("host_ops_per_s", median(&mut per_round));
        set_latency(
            &sim.ttfts,
            sim.offered,
            TTFT_LIMIT_S,
            &mut checks,
            &mut values,
        );
    }
    Ok(Outcome {
        correct: checks.passed(),
        attempted,
        failed,
        values,
    })
}

/// Simulated TTFTs of the cold-request trace, served by the first
/// round's restores.
struct Sim {
    ttfts: Vec<f64>,
    offered: usize,
    /// Per-request simulated stage seconds, summed: loading, structure,
    /// kv, weights, tokenizer, graph, first token.
    stage_sums: [f64; 7],
}

impl Sim {
    fn serve(inputs: &Inputs, outcomes: &mut [ColdStartOutcome]) -> Result<Sim, String> {
        if outcomes.len() != inputs.entries.len() {
            return Err("the first round restored fewer entries than the catalog holds".into());
        }
        let mut prefill: BTreeMap<(usize, u32), f64> = BTreeMap::new();
        let mut ttfts = Vec::with_capacity(inputs.requests.len());
        let mut stage_sums = [0.0; 7];
        for req in &inputs.requests {
            let e = req.model as usize;
            let out = &mut outcomes[e];
            let first_token = match prefill.get(&(e, req.prompt_tokens)) {
                Some(&s) => s,
                None => {
                    let s = out
                        .engine_mut()
                        .prefill(1, req.prompt_tokens)
                        .map_err(err("first-token prefill"))?
                        .as_secs_f64();
                    prefill.insert((e, req.prompt_tokens), s);
                    s
                }
            };
            let loading = out.loading().as_secs_f64();
            ttfts.push(loading + first_token);
            let report = out.report();
            let stages = [
                loading,
                report.stage(Stage::StructureInit).as_secs_f64(),
                report.stage(Stage::KvCacheInit).as_secs_f64(),
                report.stage(Stage::WeightsLoad).as_secs_f64(),
                report.stage(Stage::TokenizerLoad).as_secs_f64(),
                report.stage(Stage::Capture).as_secs_f64(),
                first_token,
            ];
            for (sum, s) in stage_sums.iter_mut().zip(stages) {
                *sum += s;
            }
        }
        Ok(Sim {
            ttfts,
            offered: inputs.requests.len(),
            stage_sums,
        })
    }

    fn per_layer(&self, values: &mut Values) {
        let names = [
            "sim.medusa_loading_s",
            "sim.structure_s",
            "sim.kv_init_s",
            "sim.weights_s",
            "sim.tokenizer_s",
            "sim.graph_s",
            "sim.first_token_s",
        ];
        for (name, sum) in names.into_iter().zip(self.stage_sums) {
            values.set(name, ratio(sum, self.offered as f64));
        }
    }
}

/// Host spans of one restore decomposed through public calls, mirroring
/// the Medusa path of `ColdStart::run` on a tp=1 entry.
#[derive(Default)]
struct Spans {
    open: Duration,
    bytes_read: u64,
    validate: Duration,
    decode: Duration,
    process_init: Duration,
    structure: Duration,
    replay: Duration,
    weights: Duration,
    tokenizer: Duration,
    dlsym: Duration,
    trigger: Duration,
    enumerate: Duration,
    graphs: Duration,
    via_dlsym: usize,
    via_enum: usize,
    graphs_restored: usize,
    capture: Duration,
    analysis: Duration,
    /// The undecomposed `ColdStart::run` of the same bytes.
    run: Duration,
}

impl Spans {
    /// Spans on the restore's blocking path. The tokenizer loads on a
    /// helper thread beside the graph restore, so it is not among them.
    fn blocking(&self) -> Duration {
        self.open
            + self.validate
            + self.decode
            + self.process_init
            + self.structure
            + self.replay
            + self.weights
            + self.dlsym
            + self.trigger
            + self.enumerate
            + self.graphs
    }
}

fn decompose(entry: &Entry, bytes: &[u8], seed: u64) -> Result<Spans, String> {
    let spec = &entry.spec;
    let gpu = GpuSpec::a100_40gb();
    let cost = CostModel::default();
    let mut s = Spans::default();

    let t = Instant::now();
    let cap = run_offline_capture(spec, gpu.clone(), cost.clone(), seed).map_err(err("capture"))?;
    s.capture = t.elapsed();
    let t = Instant::now();
    analyze(&cap, &cost).map_err(err("analysis"))?;
    s.analysis = t.elapsed();

    let t = Instant::now();
    let reader = Maf2Reader::open(bytes).map_err(err("open"))?;
    s.open = t.elapsed();
    let t = Instant::now();
    ArtifactValidator::for_target(spec, &gpu)
        .shard(0, 1)
        .validate_maf2(&reader)
        .ok()
        .map_err(err("validate"))?;
    s.validate = t.elapsed();
    let t = Instant::now();
    let artifact = reader.shard(0).map_err(err("shard decode"))?.clone();
    s.decode = t.elapsed();
    s.bytes_read = reader.bytes_read();

    let t = Instant::now();
    let mut rt = ProcessRuntime::new(build_catalog(spec), gpu.clone(), cost.clone(), seed);
    s.process_init = t.elapsed();
    let t = Instant::now();
    let mut inst =
        ModelInstance::initialize_sharded(&mut rt, spec, 0, 1).map_err(err("structure"))?;
    s.structure = t.elapsed();
    let t = Instant::now();
    artifact
        .check_target(spec.name(), gpu.name(), 0, 1)
        .map_err(err("target"))?;
    let (layout, _) = replay_allocations(&mut rt, &artifact).map_err(err("replay"))?;
    let kv_view = layout.kv_view(16).map_err(err("kv view"))?;
    inst.bind_workspace(layout.workspace().map_err(err("workspace"))?);
    inst.bind_magic(layout.magic_pairs(spec.layers()).map_err(err("magic"))?);
    s.replay = t.elapsed();
    let t = Instant::now();
    apply_weights(&mut rt, &inst).map_err(err("weights"))?;
    s.weights = t.elapsed();
    let t = Instant::now();
    std::hint::black_box(Tokenizer::load(spec.vocab(), &cost));
    s.tokenizer = t.elapsed();

    let mut resolver = KernelResolver::new();
    let t = Instant::now();
    resolver
        .resolve_exported(&mut rt, &artifact)
        .map_err(err("dlsym"))?;
    s.dlsym = t.elapsed();
    for gspec in &artifact.graphs {
        let t = Instant::now();
        warmup_first_layer(&mut rt, &mut inst, gspec.batch, &kv_view).map_err(err("trigger"))?;
        capture_first_layer_graph(&mut rt, &mut inst, gspec.batch, &kv_view)
            .map_err(err("trigger"))?;
        s.trigger += t.elapsed();
        let t = Instant::now();
        if resolver.ensure_complete(&artifact).is_err() {
            resolver
                .resolve_by_enumeration(&mut rt, &artifact)
                .map_err(err("enumeration"))?;
        }
        s.enumerate += t.elapsed();
        let t = Instant::now();
        let graph = restore_graph(gspec, &layout, resolver.addrs()).map_err(err("restore"))?;
        GraphExec::instantiate(&mut rt, graph).map_err(err("instantiate"))?;
        s.graphs += t.elapsed();
        s.graphs_restored += 1;
    }
    resolver
        .ensure_complete(&artifact)
        .map_err(err("kernel resolution"))?;
    s.via_dlsym = resolver.stats().via_dlsym;
    s.via_enum = resolver.stats().via_enumeration;

    let t = Instant::now();
    entry.cold_start(Strategy::Medusa, Some(bytes), seed)?;
    s.run = t.elapsed();
    Ok(s)
}

/// Per-layer metrics of the traced run: the rounds' per-operation
/// latencies and throughputs, one decomposed restore per tp=1 entry, and
/// one vanilla cold start per entry as a reference.
fn per_layer(
    inputs: &Inputs,
    seed: u64,
    rounds: &[Round],
    checks: &mut Checks,
    values: &mut Values,
) -> Result<(), String> {
    let all = |f: fn(&Round) -> &Vec<Duration>| -> Vec<Duration> {
        rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let sum =
        |f: fn(&Round) -> Duration| -> f64 { rounds.iter().map(|r| f(r).as_secs_f64()).sum() };
    let bytes = |f: fn(&Round) -> u64| -> f64 { rounds.iter().map(f).sum::<u64>() as f64 / 1e6 };

    let (materialize, writes) = (all(|r| &r.materialize), all(|r| &r.writes));
    let (restore, reads) = (all(|r| &r.restore), all(|r| &r.reads));
    for (what, n) in [
        ("materialize", materialize.len()),
        ("restore", restore.len()),
    ] {
        checks.check(supported_percentile(n).is_some_and(|q| q >= 0.9), || {
            format!("{n} {what} samples cannot support a p90")
        });
    }
    println!(
        "perfbench: per-operation samples: {} materialize, {} restore",
        materialize.len(),
        restore.len()
    );
    if materialize.is_empty() || restore.is_empty() {
        return Err("no operation completed".to_string());
    }
    let (p50, p90) = ms_quantiles(&materialize);
    values.set("core.builder.materialize_ms_p50", p50);
    values.set("core.builder.materialize_ms_p90", p90);
    let (p50, p90) = ms_quantiles(&restore);
    values.set("core.builder.restore_ms_p50", p50);
    values.set("core.builder.restore_ms_p90", p90);
    values.set(
        "core.builder.materialize_per_s",
        ratio(writes.len() as f64, secs(&writes)),
    );
    values.set(
        "core.builder.restore_per_s",
        ratio(reads.len() as f64, secs(&reads)),
    );
    values.set(
        "core.artifact.maf2_encode_mb_per_s",
        ratio(bytes(|r| r.written_bytes), sum(|r| r.encode)),
    );
    values.set(
        "core.artifact.cdc_pack_mb_per_s",
        ratio(bytes(|r| r.written_bytes), sum(|r| r.pack)),
    );
    values.set(
        "core.artifact.assemble_mb_per_s",
        ratio(bytes(|r| r.read_bytes), sum(|r| r.assemble)),
    );
    values.set(
        "core.artifact.dedup_ratio",
        inputs.store.dedup_stats().ratio(),
    );

    // One decomposed restore per tp=1 entry.
    let mut spans = Vec::new();
    for (i, e) in inputs.entries.iter().enumerate().filter(|(_, e)| e.tp == 1) {
        let bytes = inputs
            .store
            .assemble(&inputs.manifests[i])
            .map_err(err("assemble"))?;
        spans.push(decompose(e, &bytes, mix(seed ^ 0xdec0 ^ i as u64))?);
    }
    let n = spans.len() as f64;
    let mean = |f: fn(&Spans) -> Duration, scale: f64| -> f64 {
        spans.iter().map(|s| f(s).as_secs_f64()).sum::<f64>() * scale / n
    };
    const MS: f64 = 1e3;
    const US: f64 = 1e6;
    values.set("core.offline.capture_ms", mean(|s| s.capture, MS));
    values.set("core.offline.analysis_ms", mean(|s| s.analysis, MS));
    values.set("core.artifact.maf2_open_us", mean(|s| s.open, US));
    values.set("core.validator.validate_us", mean(|s| s.validate, US));
    values.set("core.artifact.shard_decode_ms", mean(|s| s.decode, MS));
    values.set("gpu.process_init_us", mean(|s| s.process_init, US));
    values.set("model.structure_init_ms", mean(|s| s.structure, MS));
    values.set("core.online.replay_us", mean(|s| s.replay, US));
    values.set("model.load_weights_ms", mean(|s| s.weights, MS));
    values.set("model.tokenizer_load_ms", mean(|s| s.tokenizer, MS));
    values.set("core.online.kernels_dlsym_us", mean(|s| s.dlsym, US));
    values.set("model.trigger_first_layer_ms", mean(|s| s.trigger, MS));
    values.set("core.online.kernels_enum_us", mean(|s| s.enumerate, US));
    values.set("core.online.restore_graphs_ms", mean(|s| s.graphs, MS));
    let count = |f: fn(&Spans) -> u64| spans.iter().map(f).sum::<u64>() as f64 / n;
    values.set("core.artifact.maf2_bytes_read", count(|s| s.bytes_read));
    values.set(
        "core.online.kernels_via_dlsym",
        count(|s| s.via_dlsym as u64),
    );
    values.set("core.online.kernels_via_enum", count(|s| s.via_enum as u64));
    values.set(
        "core.online.graphs_restored",
        count(|s| s.graphs_restored as u64),
    );
    let blocking: f64 = spans.iter().map(|s| s.blocking().as_secs_f64()).sum();
    let run: f64 = spans.iter().map(|s| s.run.as_secs_f64()).sum();
    values.set(
        "core.builder.unattributed_share",
        1.0 - ratio(blocking, run),
    );

    // Vanilla reference: host cost and simulated loading per entry.
    let mut host = 0.0;
    let mut loading = Vec::with_capacity(inputs.entries.len());
    for (i, e) in inputs.entries.iter().enumerate() {
        let t = Instant::now();
        let out = e.cold_start(Strategy::Vanilla, None, mix(seed ^ 0x7a11 ^ i as u64))?;
        host += t.elapsed().as_secs_f64();
        loading.push(out.loading().as_secs_f64());
    }
    values.set(
        "vanilla.coldstart_ms",
        host * MS / inputs.entries.len() as f64,
    );
    let weighted: f64 = inputs
        .requests
        .iter()
        .map(|r| loading[r.model as usize])
        .sum();
    values.set(
        "sim.vanilla_loading_s",
        ratio(weighted, inputs.requests.len() as f64),
    );
    Ok(())
}
