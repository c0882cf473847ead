//! Deterministic bench records backing the CI perf gates.
//!
//! Every gated bench produces one [`BenchRecord`]: the bench's name, the
//! configuration it ran under, and a list of named metrics, each carrying
//! the [`Rule`] it is gated by. The rules are set here, in code, and
//! written into the record, so the committed baselines in
//! `results/BENCH_<bench>.json` show every bound next to its value and a
//! changed bound shows up as a diff of the baseline. One comparator,
//! [`check`], gates a fresh record against its baseline.
//!
//! The committed metrics derive from the virtual clock and from canonical
//! encodings, so they are byte-identical across machines and runs. The two
//! host wall-clock checks (the MAF2 open speedup floor and the scale-smoke
//! budget) are named constants checked on the fresh run only; they never
//! enter a committed file.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use medusa::{
    encode_maf2_bundle, materialize_offline, materialize_offline_tp, materialize_offline_tp_with,
    ArtifactTemplate, ArtifactValidator, ChunkStore, ColdStart, ColdStartOptions, Maf2Reader,
    MaterializedState, Parallelism, Strategy,
};
use medusa_gpu::{CostModel, GpuSpec, SimDuration};
use medusa_model::ModelSpec;
use medusa_serving::{
    simulate_fleet, simulate_fleet_traced, CacheCapacity, CacheConfig, ClusterReport, ClusterSpec,
    EvictionPolicy, FleetProfile, ModelCost, Policy, PrewarmConfig, PrewarmPolicy, RegistryCatalog,
    RegistryMode,
};
use medusa_telemetry::Registry;
use medusa_workload::{fingerprint, ArrivalPattern, ModelMix, Request, TraceConfig};
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------
// The record and its comparator.

/// How a fresh metric value is judged against its baseline value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Rule {
    /// The fresh value must equal the baseline value.
    Exact,
    /// The fresh value may exceed the baseline by at most `pct` percent
    /// (`fresh * 100 <= baseline * (100 + pct)`); improvements always pass.
    Tolerance {
        /// Allowed growth over the baseline, percent.
        pct: u64,
    },
    /// The fresh value must be at least `min`, whatever the baseline.
    Floor {
        /// Smallest passing value.
        min: u64,
    },
    /// The fresh value must be at most `max`, whatever the baseline.
    Ceiling {
        /// Largest passing value.
        max: u64,
    },
}

impl Rule {
    /// Whether `fresh` passes this rule against `baseline`.
    pub fn admits(self, fresh: u64, baseline: u64) -> bool {
        match self {
            Rule::Exact => fresh == baseline,
            Rule::Tolerance { pct } => {
                u128::from(fresh) * 100 <= u128::from(baseline) * (100 + u128::from(pct))
            }
            Rule::Floor { min } => fresh >= min,
            Rule::Ceiling { max } => fresh <= max,
        }
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rule::Exact => write!(f, "exact"),
            Rule::Tolerance { pct } => write!(f, "tolerance {pct}%"),
            Rule::Floor { min } => write!(f, "floor {min}"),
            Rule::Ceiling { max } => write!(f, "ceiling {max}"),
        }
    }
}

/// One named measurement of a bench and the rule that gates it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Metric {
    /// Metric name, unique within its record.
    pub name: String,
    /// Measured value.
    pub value: u64,
    /// Unit of `value`.
    pub unit: String,
    /// Gate applied by [`check`].
    pub rule: Rule,
}

/// One bench run: what ran, under which configuration, and what it
/// measured. Committed as `results/BENCH_<bench>.json`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Bench name; `ci-check-bench check` runs the bench a baseline names.
    pub bench: String,
    /// Configuration the bench ran under, compared for equality.
    pub config: HashMap<String, String>,
    /// Measurements, in the order the bench produces them.
    pub metrics: Vec<Metric>,
}

impl BenchRecord {
    /// Starts an empty record of `bench` run under `config`.
    pub fn new(bench: &str, config: &[(&str, &dyn ToString)]) -> Self {
        BenchRecord {
            bench: bench.to_string(),
            config: config
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            metrics: Vec::new(),
        }
    }

    /// Appends one metric.
    pub fn push(&mut self, name: impl Into<String>, value: u64, unit: &str, rule: Rule) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
            rule,
        });
    }

    /// The value of metric `name`, if the record has it.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Encodes as JSON, one metric per line, so a changed value or rule
    /// is a one-line diff of the committed baseline.
    pub fn to_json(&self) -> String {
        let enc = |json: Result<String, serde_json::Error>| json.expect("plain data encodes");
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| enc(serde_json::to_string(m)))
            .collect();
        format!(
            "{{\"bench\":{},\"config\":{},\"metrics\":[\n{}\n]}}\n",
            enc(serde_json::to_string(&self.bench)),
            enc(serde_json::to_string(&self.config)),
            metrics.join(",\n")
        )
    }

    /// Decodes from JSON.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
}

/// Gates a fresh record against its baseline. Rejects a pair whose bench,
/// configuration, metric names, units or rules differ (naming the first
/// differing field), then applies every metric's rule. Returns one line
/// per metric, or every metric that broke its rule.
pub fn check(fresh: &BenchRecord, baseline: &BenchRecord) -> Result<String, String> {
    if fresh.bench != baseline.bench {
        return Err(format!(
            "bench mismatch: fresh ran `{}`, baseline is `{}`",
            fresh.bench, baseline.bench
        ));
    }
    let regenerate = format!("regenerate results/BENCH_{}.json", baseline.bench);
    let mut keys: Vec<&String> = fresh.config.keys().chain(baseline.config.keys()).collect();
    keys.sort();
    keys.dedup();
    for key in keys {
        let (f, b) = (fresh.config.get(key), baseline.config.get(key));
        if f != b {
            let show = |v: Option<&String>| v.map_or("(absent)".to_string(), |v| format!("`{v}`"));
            return Err(format!(
                "config field `{key}` differs: fresh {}, baseline {} — {regenerate}",
                show(f),
                show(b)
            ));
        }
    }
    for i in 0..fresh.metrics.len().max(baseline.metrics.len()) {
        let mismatch = match (fresh.metrics.get(i), baseline.metrics.get(i)) {
            (Some(f), Some(b)) if f.name != b.name => format!(
                "metric #{i} differs: fresh has `{}`, baseline has `{}`",
                f.name, b.name
            ),
            (Some(f), Some(b)) if f.unit != b.unit => format!(
                "metric `{}` unit differs: fresh {}, baseline {}",
                f.name, f.unit, b.unit
            ),
            (Some(f), Some(b)) if f.rule != b.rule => format!(
                "metric `{}` rule differs: fresh {}, baseline {}",
                f.name, f.rule, b.rule
            ),
            (Some(f), None) => format!("metric `{}` is missing from the baseline", f.name),
            (None, Some(b)) => format!("metric `{}` is missing from the fresh run", b.name),
            _ => continue,
        };
        return Err(format!("{mismatch} — {regenerate}"));
    }
    let (mut held, mut broke) = (Vec::new(), Vec::new());
    for (f, b) in fresh.metrics.iter().zip(&baseline.metrics) {
        let line = format!(
            "{:<44} {:>14} {:<8} baseline {:>14}  ({})",
            f.name, f.value, f.unit, b.value, f.rule
        );
        if f.rule.admits(f.value, b.value) {
            held.push(line);
        } else {
            broke.push(line);
        }
    }
    if broke.is_empty() {
        Ok(format!(
            "{}: all {} metrics hold\n  {}",
            fresh.bench,
            held.len(),
            held.join("\n  ")
        ))
    } else {
        Err(format!(
            "{}: {} of {} metrics broke their rule\n  {}",
            fresh.bench,
            broke.len(),
            fresh.metrics.len(),
            broke.join("\n  ")
        ))
    }
}

/// How far `faster` is ahead of `slower`, 0 when it is not ahead, so
/// `Floor { min: 1 }` on it holds exactly when `faster < slower`.
pub fn lead(slower: u64, faster: u64) -> u64 {
    slower.saturating_sub(faster)
}

/// `num / den` in per-mille, rounded down, so `Floor { min }` on it holds
/// exactly when `num * 1000 >= min * den`. `0 / 0` is 0; `x / 0` is
/// `u64::MAX`.
pub fn per_mille(num: u64, den: u64) -> u64 {
    per_mille_rounded(num, den, false)
}

/// `num / den` in per-mille, rounded up, so `Ceiling { max }` on it holds
/// exactly when `num * 1000 <= max * den`. `0 / 0` is 0; `x / 0` is
/// `u64::MAX`.
pub fn per_mille_ceil(num: u64, den: u64) -> u64 {
    per_mille_rounded(num, den, true)
}

fn per_mille_rounded(num: u64, den: u64, up: bool) -> u64 {
    let (num, den) = (u128::from(num) * 1000, u128::from(den));
    let ratio = match (num, den) {
        (0, 0) => 0,
        (_, 0) => u128::MAX,
        _ if up => num.div_ceil(den),
        _ => num / den,
    };
    u64::try_from(ratio).unwrap_or(u64::MAX)
}

/// Allowed growth of a simulated latency over its baseline, percent.
pub const TOLERANCE_PCT: u64 = 5;
const TOLERANCE: Rule = Rule::Tolerance { pct: TOLERANCE_PCT };
/// The strict "ahead of" invariant on a [`lead`] metric.
const AHEAD: Rule = Rule::Floor { min: 1 };

// ---------------------------------------------------------------------
// Cold-start makespans per parallelism mode.

/// Catalog model the smoke benchmark runs (smallest — CI time matters).
pub const MODEL: &str = "Qwen1.5-0.5B";
/// Tensor-parallel degree of the smoke run.
pub const TP: u32 = 2;
/// Seed of the offline (materialization) phase.
pub const SEED_OFFLINE: u64 = 31;
/// Seed of the online (cold start) phase.
pub const SEED_ONLINE: u64 = 32;

/// Runs one mode of the smoke pipeline, returning the simulated loading
/// makespan in µs and optionally filling `tele` with spans/metrics.
pub fn run_mode(mode: Parallelism, tele: Option<&Registry>) -> u64 {
    let spec = ModelSpec::by_name(MODEL).expect("catalog model");
    let gpu = GpuSpec::a100_40gb();
    let cost = CostModel::default();
    let (arts, _) =
        materialize_offline_tp_with(&spec, TP, gpu.clone(), cost.clone(), SEED_OFFLINE, mode)
            .expect("tp offline");
    let opts = ColdStartOptions {
        seed: SEED_ONLINE,
        warm_container: true,
        parallelism: mode,
        ..Default::default()
    };
    let mut builder = ColdStart::new(&spec)
        .strategy(Strategy::Medusa)
        .gpu(gpu)
        .cost(cost)
        .options(opts)
        .artifacts(&arts);
    if let Some(t) = tele {
        builder = builder.telemetry(t);
    }
    let cold = builder.run().expect("tp cold start");
    cold.loading().as_nanos() / 1_000
}

/// Runs the `coldstart` bench: the same tp=2 Medusa offline+online
/// pipeline under each [`Parallelism`] mode, recording each simulated
/// loading makespan.
pub fn run() -> BenchRecord {
    let mut r = BenchRecord::new(
        "coldstart",
        &[
            ("model", &MODEL),
            ("tp", &TP),
            ("seed_offline", &SEED_OFFLINE),
            ("seed_online", &SEED_ONLINE),
        ],
    );
    for (name, mode) in [
        ("serial_us", Parallelism::Serial),
        ("overlapped_us", Parallelism::Overlapped),
        ("pipelined_us", Parallelism::PipelinedTp),
    ] {
        r.push(name, run_mode(mode, None), "us", TOLERANCE);
    }
    r
}

// ---------------------------------------------------------------------
// Cluster makespan smoke scenario.

/// Fleet size of the cluster smoke scenario.
pub const CLUSTER_NODES: usize = 4;
/// Trace seed of the cluster smoke scenario.
pub const CLUSTER_SEED: u64 = 42;
/// Offered request rate, requests/second.
pub const CLUSTER_RPS: u64 = 8;
/// Trace duration, seconds.
pub const CLUSTER_DURATION_S: u64 = 45;

/// Runs one side of the cluster smoke scenario, optionally filling `tele`.
pub fn run_cluster_side(strategy: Strategy, tele: Option<&Registry>) -> ClusterReport {
    let spec = ModelSpec::by_name(MODEL).expect("catalog model");
    let profile = FleetProfile::measure(
        strategy,
        &spec,
        GpuSpec::a100_40gb(),
        CostModel::default(),
        1,
        Parallelism::Overlapped,
        CLUSTER_SEED,
    )
    .expect("fleet profile");
    // §6 registry model: node-local caches are pre-seeded, so Medusa cold
    // starts are local restores (vanilla has nothing to cache either way).
    let cluster = ClusterSpec::uniform(CLUSTER_NODES).with_cached_prefix(CLUSTER_NODES);
    simulate_fleet_traced(
        &profile,
        &cluster,
        Policy::ColdStartAware,
        &cluster_trace(),
        tele,
    )
    .report
}

fn cluster_trace() -> Vec<Request> {
    TraceConfig::sharegpt(CLUSTER_RPS as f64, CLUSTER_DURATION_S as f64)
        .with_seed(CLUSTER_SEED)
        .with_pattern(ArrivalPattern::sharegpt_bursty())
        .generate()
}

/// Runs the `cluster` bench: the same bursty trace replayed on a Medusa
/// fleet and a vanilla fleet (both [`Policy::ColdStartAware`], node-local
/// caches pre-seeded per the §6 registry model).
pub fn run_cluster() -> BenchRecord {
    let medusa = run_cluster_side(Strategy::Medusa, None);
    let vanilla = run_cluster_side(Strategy::Vanilla, None);
    let mut r = BenchRecord::new(
        "cluster",
        &[
            ("model", &MODEL),
            ("nodes", &CLUSTER_NODES),
            ("seed", &CLUSTER_SEED),
            ("rps", &CLUSTER_RPS),
            ("duration_s", &CLUSTER_DURATION_S),
            ("trace_fingerprint", &fingerprint(&cluster_trace())),
        ],
    );
    for (side, report, rule) in [
        ("medusa", &medusa, TOLERANCE),
        ("vanilla", &vanilla, Rule::Exact),
    ] {
        r.push(
            format!("{side}_cold_starts"),
            report.cold_starts.into(),
            "count",
            Rule::Exact,
        );
        r.push(
            format!("{side}_makespan_us"),
            report.makespan_ns / 1_000,
            "us",
            rule,
        );
        r.push(
            format!("{side}_ttft_p99_us"),
            report.ttft_p99_us,
            "us",
            rule,
        );
    }
    r.push(
        "medusa_p99_lead_us",
        lead(vanilla.ttft_p99_us, medusa.ttft_p99_us),
        "us",
        AHEAD,
    );
    r
}

// ---------------------------------------------------------------------
// Multi-tenant cluster smoke scenario (contended artifact cache).

/// Distinct models of the multi-tenant smoke scenario.
pub const MT_MODELS: u32 = 8;
/// Zipf popularity skew, in milli-units (1000 = s of 1.0).
pub const MT_ZIPF_S_MILLI: u32 = 1000;
/// Trace seed of the multi-tenant scenario.
pub const MT_SEED: u64 = 42;
/// Offered rate, requests/second.
pub const MT_RPS: u64 = 1;
/// Trace duration, seconds.
pub const MT_DURATION_S: u64 = 120;
/// Per-node artifact-cache capacity, artifacts.
pub const MT_CACHE_ARTIFACTS: u32 = 4;
/// Fleet size of the multi-tenant scenario (one node per model, so tail
/// waits are cold-start-cost-bound rather than keep-alive-bound).
pub const MT_NODES: usize = 8;
/// Idle keep-alive of the multi-tenant fleet, seconds (short, so nodes
/// churn and the bounded cache actually evicts).
pub const MT_KEEP_ALIVE_S: u64 = 2;
/// Cache-hit-rate floor of the multi-tenant gate, per-mille.
pub const MT_HIT_RATE_FLOOR_PM: u64 = 200;

fn mt_trace() -> Vec<Request> {
    TraceConfig::sharegpt(MT_RPS as f64, MT_DURATION_S as f64)
        .with_seed(MT_SEED)
        .with_models(ModelMix::Zipf {
            models: MT_MODELS,
            s: MT_ZIPF_S_MILLI as f64 / 1000.0,
        })
        .generate()
}

fn run_cluster_mt_side(strategy: Strategy) -> ClusterReport {
    let spec = ModelSpec::by_name(MODEL).expect("catalog model");
    let profile = FleetProfile::measure(
        strategy,
        &spec,
        GpuSpec::a100_40gb(),
        CostModel::default(),
        1,
        Parallelism::Overlapped,
        MT_SEED,
    )
    .expect("fleet profile")
    .with_scaled_models(MT_MODELS);
    let cluster = ClusterSpec::uniform(MT_NODES)
        .with_cache(CacheConfig {
            capacity: CacheCapacity::Artifacts(MT_CACHE_ARTIFACTS),
            eviction: EvictionPolicy::CostAware,
        })
        .with_keep_alive(MT_KEEP_ALIVE_S as f64);
    simulate_fleet(&profile, &cluster, Policy::ColdStartAware, &mt_trace()).report
}

/// Runs the `cluster_multitenant` bench: a Zipf-skewed eight-model trace
/// replayed on a Medusa fleet and a vanilla fleet whose nodes hold a
/// bounded cost-aware artifact cache, with a per-tenant breakdown.
pub fn run_cluster_mt() -> BenchRecord {
    let medusa = run_cluster_mt_side(Strategy::Medusa);
    let vanilla = run_cluster_mt_side(Strategy::Vanilla);
    let cache = medusa.cache.expect("multi-tenant run reports cache");
    let mut r = BenchRecord::new(
        "cluster_multitenant",
        &[
            ("model", &MODEL),
            ("nodes", &MT_NODES),
            ("seed", &MT_SEED),
            ("models", &MT_MODELS),
            ("zipf_s_milli", &MT_ZIPF_S_MILLI),
            ("rps", &MT_RPS),
            ("duration_s", &MT_DURATION_S),
            ("cache_artifacts", &MT_CACHE_ARTIFACTS),
            ("eviction", &EvictionPolicy::CostAware.name()),
            ("trace_fingerprint", &fingerprint(&mt_trace())),
        ],
    );
    r.push(
        "medusa_cold_starts",
        medusa.cold_starts.into(),
        "count",
        Rule::Exact,
    );
    r.push("medusa_ttft_p99_us", medusa.ttft_p99_us, "us", TOLERANCE);
    r.push(
        "vanilla_cold_starts",
        vanilla.cold_starts.into(),
        "count",
        Rule::Exact,
    );
    r.push(
        "vanilla_ttft_p99_us",
        vanilla.ttft_p99_us,
        "us",
        Rule::Exact,
    );
    r.push("cache_hits", cache.hits, "count", Rule::Exact);
    r.push("cache_misses", cache.misses, "count", Rule::Exact);
    r.push("cache_evictions", cache.evictions, "count", Rule::Exact);
    r.push(
        "cache_hit_rate_pm",
        per_mille(cache.hits, cache.hits + cache.misses),
        "permille",
        Rule::Floor {
            min: MT_HIT_RATE_FLOOR_PM,
        },
    );
    for m in &medusa.tenants {
        let v = vanilla
            .tenants
            .iter()
            .find(|v| v.model == m.model)
            .expect("same trace, same tenants");
        let t = format!("tenant{}", m.model);
        r.push(
            format!("{t}.offered"),
            m.offered as u64,
            "count",
            Rule::Exact,
        );
        r.push(
            format!("{t}.medusa_ttft_p99_us"),
            m.ttft_p99_us,
            "us",
            Rule::Exact,
        );
        r.push(
            format!("{t}.vanilla_ttft_p99_us"),
            v.ttft_p99_us,
            "us",
            Rule::Exact,
        );
        r.push(
            format!("{t}.medusa_p99_lead_us"),
            lead(v.ttft_p99_us, m.ttft_p99_us),
            "us",
            AHEAD,
        );
        r.push(
            format!("{t}.medusa_slo_attained_pm"),
            m.slo_attained_pm.into(),
            "permille",
            Rule::Exact,
        );
    }
    r
}

// ---------------------------------------------------------------------
// MAF2 artifact size sweep (encode / open / validate / lazy restore).

/// Tensor-parallel degree of the artifact sweep's bundle.
pub const ARTIFACT_TP: u32 = 2;
/// Offline seed of the artifact sweep's base materialization.
pub const ARTIFACT_SEED: u64 = 33;
/// Graphs kept per shard in the 1× base artifact (the sweep multiplies
/// the graph section, so a small base keeps the 100× point CI-sized).
pub const ARTIFACT_BASE_GRAPHS: u32 = 2;
/// Size multipliers of the sweep.
pub const ARTIFACT_SCALES: [u32; 3] = [1, 10, 100];
/// Floor on (JSON parse+validate) / (MAF2 open+validate) wall time at the
/// largest scale, checked on the fresh run only. The observed gap is
/// orders of magnitude larger — O(file) vs O(header) — but wall-clock
/// ratios vary by host, so the gate keeps a wide margin.
pub const ARTIFACT_SPEEDUP_FLOOR: u64 = 10;

/// The trimmed tp-bundle the sweep scales: a seed-fixed materialization
/// with each shard's graph list cut to [`ARTIFACT_BASE_GRAPHS`], re-sealed.
fn artifact_base() -> Vec<MaterializedState> {
    let spec = ModelSpec::by_name(MODEL).expect("catalog model");
    let (arts, _) = materialize_offline_tp(
        &spec,
        ARTIFACT_TP,
        GpuSpec::a100_40gb(),
        CostModel::default(),
        ARTIFACT_SEED,
    )
    .expect("offline tp phase");
    arts.iter()
        .map(|shard| {
            let mut s = shard.clone();
            s.graphs.truncate(ARTIFACT_BASE_GRAPHS as usize);
            s.seal();
            s
        })
        .collect()
}

/// Multiplies each shard's graph section `scale`× (fresh batch ids keep
/// the captured-batch key unique) and re-seals. Replay, labels, and
/// pointer tables are untouched, so the scaled shard still validates.
fn scaled_shards(base: &[MaterializedState], scale: u32) -> Vec<MaterializedState> {
    base.iter()
        .map(|shard| {
            let mut s = shard.clone();
            let stride = shard.graphs.iter().map(|g| g.batch).max().unwrap_or(0) + 1;
            for round in 1..scale {
                for g in &shard.graphs {
                    let mut g = g.clone();
                    g.batch += round * stride;
                    s.graphs.push(g);
                }
            }
            s.seal();
            s
        })
        .collect()
}

fn time_op<T>(iters: u32, mut f: impl FnMut() -> T) -> Duration {
    std::hint::black_box(f()); // warm-up
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    t0.elapsed() / iters
}

/// The host-clock record of the artifact sweep: how many times faster
/// MAF2 open+validate is than JSON parse+validate, floored at
/// [`ARTIFACT_SPEEDUP_FLOOR`]. Checked against itself, never committed.
pub fn speedup_record(json_parse_validate: Duration, maf2_open_validate: Duration) -> BenchRecord {
    let mut r = BenchRecord::new("artifact-host", &[]);
    let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    r.push(
        "json_vs_maf2_open_speedup_milli",
        per_mille(ns(json_parse_validate), ns(maf2_open_validate)),
        "permille",
        Rule::Floor {
            min: ARTIFACT_SPEEDUP_FLOOR * 1000,
        },
    );
    r
}

/// Runs the `artifact` bench: for each scale, encode the bundle, open and
/// header-validate it, parse and fully validate the JSON twin, and lazily
/// restore one shard. Returns the deterministic byte counts (compared with
/// the committed baseline) and the [`speedup_record`] of the largest
/// scale.
pub fn run_artifact() -> (BenchRecord, BenchRecord) {
    let spec = ModelSpec::by_name(MODEL).expect("catalog model");
    let gpu = GpuSpec::a100_40gb();
    let validator = ArtifactValidator::for_target(&spec, &gpu);
    let base = artifact_base();
    let scales = ARTIFACT_SCALES.map(|s| s.to_string()).join(",");
    let mut r = BenchRecord::new(
        "artifact",
        &[
            ("model", &MODEL),
            ("tp", &ARTIFACT_TP),
            ("seed", &ARTIFACT_SEED),
            ("base_graphs", &ARTIFACT_BASE_GRAPHS),
            ("scales", &scales),
        ],
    );
    let mut open_reads = Vec::new();
    let mut speedup = None;
    for scale in ARTIFACT_SCALES {
        let shards = scaled_shards(&base, scale);
        let refs: Vec<&MaterializedState> = shards.iter().collect();
        let maf2 = encode_maf2_bundle(&refs).expect("encode bundle");
        let jsons: Vec<String> = shards
            .iter()
            .map(|s| s.to_json().expect("to_json"))
            .collect();
        let json_bytes: u64 = jsons.iter().map(|j| j.len() as u64).sum();

        // O(file): parse every shard and run the full deep validation.
        let json_parse_validate = time_op(3, || {
            for json in &jsons {
                let s = MaterializedState::from_json(json).expect("from_json");
                let report = validator.clone().shard(s.rank, s.tp).validate(&s);
                assert!(report.ok().is_ok(), "scaled JSON shard must validate");
            }
        });

        // O(header): open once, header-validate every shard off the shared
        // section index.
        let maf2_open_validate = time_op(10, || {
            let reader = Maf2Reader::open(&maf2).expect("open");
            for rank in reader.shard_ranks() {
                let v = validator.clone().shard(rank, reader.tp());
                let report = v.validate_maf2_header(&reader);
                assert!(report.ok().is_ok(), "scaled MAF2 shard must validate");
            }
            reader.bytes_read()
        });
        speedup = Some(speedup_record(json_parse_validate, maf2_open_validate));
        let reader = Maf2Reader::open(&maf2).expect("open");
        for rank in reader.shard_ranks() {
            let v = validator.clone().shard(rank, reader.tp());
            assert!(v.validate_maf2_header(&reader).ok().is_ok());
        }
        let open_read_bytes = reader.bytes_read();

        // Lazy single-shard restore: only rank 0's sections leave the file.
        let restored = reader.shard(0).expect("lazy shard");
        assert_eq!(restored, &shards[0], "lazy restore must equal eager state");
        let restore_read_bytes = reader.bytes_read() - open_read_bytes;

        let maf2_bytes = maf2.len() as u64;
        r.push(
            format!("{scale}x.maf2_bytes"),
            maf2_bytes,
            "bytes",
            Rule::Exact,
        );
        r.push(
            format!("{scale}x.json_bytes"),
            json_bytes,
            "bytes",
            Rule::Exact,
        );
        r.push(
            format!("{scale}x.open_read_bytes"),
            open_read_bytes,
            "bytes",
            Rule::Exact,
        );
        r.push(
            format!("{scale}x.shard_restore_read_bytes"),
            restore_read_bytes,
            "bytes",
            Rule::Exact,
        );
        // Rank 0's reads as a share of one rank's 1/tp of the file.
        r.push(
            format!("{scale}x.restore_read_per_rank_share_pm"),
            per_mille_ceil(restore_read_bytes * u64::from(ARTIFACT_TP), maf2_bytes),
            "permille",
            Rule::Ceiling { max: 1000 },
        );
        open_reads.push(open_read_bytes);
    }
    // The O(header) contract: the same open cost at every scale.
    let spread = open_reads.iter().max().unwrap_or(&0) - open_reads.iter().min().unwrap_or(&0);
    r.push(
        "open_read_bytes_spread",
        spread,
        "bytes",
        Rule::Ceiling { max: 0 },
    );
    (r, speedup.expect("the sweep has scales"))
}

// ---------------------------------------------------------------------
// Large-fleet scale smoke (event-core throughput gate).

/// Fleet size of the scale scenario.
pub const SCALE_NODES: usize = 1000;
/// Offered rate of the scale scenario, requests/second.
pub const SCALE_RPS: u64 = 10_000;
/// Trace duration of the scale scenario, seconds.
pub const SCALE_DURATION_S: u64 = 100;
/// Trace seed of the scale scenario.
pub const SCALE_SEED: u64 = 77;
/// Wall-clock budget of the scale smoke, seconds, for both fleets
/// together on the host that runs it.
pub const SCALE_BUDGET_S: u64 = 120;

/// Runs the large-fleet scale scenario: `nodes` workers under an
/// interactive trace at `rps` requests/s for [`SCALE_DURATION_S`]
/// simulated seconds, Medusa (caches pre-seeded per §6) vs vanilla. The
/// record holds the host wall time of the whole run under the
/// [`SCALE_BUDGET_S`] ceiling, so it is checked against itself and never
/// committed.
pub fn run_scale(nodes: usize, rps: u64) -> BenchRecord {
    let start = Instant::now();
    let spec = ModelSpec::by_name(MODEL).expect("catalog model");
    let profile = |strategy| {
        FleetProfile::measure(
            strategy,
            &spec,
            GpuSpec::a100_40gb(),
            CostModel::default(),
            1,
            Parallelism::Overlapped,
            SCALE_SEED,
        )
        .expect("fleet profile")
    };
    let trace = TraceConfig::interactive(rps as f64, SCALE_DURATION_S as f64)
        .with_seed(SCALE_SEED)
        .generate();
    let cluster = ClusterSpec::uniform(nodes).with_cached_prefix(nodes);
    let medusa = simulate_fleet(
        &profile(Strategy::Medusa),
        &cluster,
        Policy::ColdStartAware,
        &trace,
    );
    let vanilla = simulate_fleet(
        &profile(Strategy::Vanilla),
        &cluster,
        Policy::ColdStartAware,
        &trace,
    );
    let wall_ms = start.elapsed().as_nanos().div_ceil(1_000_000);
    let mut r = BenchRecord::new(
        "scale",
        &[
            ("model", &MODEL),
            ("nodes", &nodes),
            ("rps", &rps),
            ("duration_s", &SCALE_DURATION_S),
            ("seed", &SCALE_SEED),
        ],
    );
    let offered = trace.len() as u64;
    r.push("offered", offered, "count", Rule::Exact);
    r.push(
        "medusa_events",
        medusa.stats.events_processed,
        "count",
        Rule::Exact,
    );
    r.push(
        "medusa_cold_starts",
        medusa.report.cold_starts.into(),
        "count",
        Rule::Exact,
    );
    r.push(
        "medusa_unserved",
        offered.abs_diff(medusa.report.completed as u64),
        "count",
        Rule::Ceiling { max: 0 },
    );
    r.push(
        "medusa_ttft_p99_us",
        medusa.report.ttft_p99_us,
        "us",
        Rule::Exact,
    );
    r.push(
        "vanilla_ttft_p99_us",
        vanilla.report.ttft_p99_us,
        "us",
        Rule::Exact,
    );
    r.push(
        "medusa_p99_lead_us",
        lead(vanilla.report.ttft_p99_us, medusa.report.ttft_p99_us),
        "us",
        AHEAD,
    );
    r.push(
        "wall_ms",
        u64::try_from(wall_ms).unwrap_or(u64::MAX),
        "ms",
        Rule::Ceiling {
            max: SCALE_BUDGET_S * 1000,
        },
    );
    r
}

// ---------------------------------------------------------------------
// Predictive-policy race (policy-matrix CI gate).

/// Distinct models of the policy-race scenario.
pub const POLICY_MODELS: u32 = 4;
/// Trace seed of the policy-race scenario.
pub const POLICY_SEED: u64 = 42;
/// Offered rate of the policy-race trace, requests/second.
pub const POLICY_RPS: u64 = 4;
/// Trace duration of the policy-race scenario, seconds.
pub const POLICY_DURATION_S: u64 = 120;
/// Fleet size of the policy-race scenario.
pub const POLICY_NODES: usize = 6;
/// Idle keep-alive, seconds — short, so bursts separated by longer gaps
/// pay a cold start unless a prewarm beat them to it.
pub const POLICY_KEEP_ALIVE_S: u64 = 4;
/// Per-node artifact-cache capacity, artifacts — bounded, so the locality
/// scheduler's cache-hit scoring has a real signal.
pub const POLICY_CACHE_ARTIFACTS: u32 = 2;
/// Histogram-estimator prediction percentile, per-mille. High, so the
/// estimator targets the *inter-burst* gap of the bursty trace rather
/// than the dense intra-burst gaps (a prewarm predicted from those fires
/// while the model is still live and is a no-op).
pub const POLICY_PREWARM_PERCENTILE_PM: u32 = 950;
/// Prewarm lead, seconds — roughly the measured cold-start makespan.
pub const POLICY_PREWARM_LEAD_S: f64 = 1.0;
/// Pipeline-parallel degree of the cold-start sub-race.
pub const POLICY_PIPELINE_K: u32 = 2;
/// Artifact-size multiplier of the cold-start sub-race: a 100× artifact
/// is where sharding one start across nodes pays (small artifacts are
/// dominated by the per-start constant costs).
pub const POLICY_ARTIFACT_SCALE: u64 = 100;
/// Most prewarms the `+prewarm` row may waste (scale back to zero
/// unused). The committed race wastes 7 of 11; 8 is `(7 + 1) × 1.05`
/// rounded down — one prewarm of absolute slack plus 5% — so a small
/// count does not fail on a single extra prewarm.
pub const POLICY_PREWARM_WASTE_MAX: u64 = 8;

/// The bursty Zipf-skewed trace every raced policy replays.
fn policy_trace() -> Vec<Request> {
    TraceConfig::sharegpt(POLICY_RPS as f64, POLICY_DURATION_S as f64)
        .with_seed(POLICY_SEED)
        .with_pattern(ArrivalPattern::sharegpt_bursty())
        .with_models(ModelMix::Zipf {
            models: POLICY_MODELS,
            s: 1.0,
        })
        .generate()
}

/// The measured multi-tenant Medusa profile of the race.
fn policy_profile() -> FleetProfile {
    let spec = ModelSpec::by_name(MODEL).expect("catalog model");
    FleetProfile::measure(
        Strategy::Medusa,
        &spec,
        GpuSpec::a100_40gb(),
        CostModel::default(),
        1,
        Parallelism::Overlapped,
        POLICY_SEED,
    )
    .expect("fleet profile")
    .with_scaled_models(POLICY_MODELS)
}

/// Runs the `policies` bench: four (policy, prewarm) rows on one bursty
/// Zipf trace — every predictive scheduling feature against the reactive
/// baseline — then the pipeline-vs-single cold-start duel on a
/// [`POLICY_ARTIFACT_SCALE`]× artifact.
pub fn run_policies() -> BenchRecord {
    let profile = policy_profile();
    let trace = policy_trace();
    let base = ClusterSpec::uniform(POLICY_NODES)
        .with_cache(CacheConfig {
            capacity: CacheCapacity::Artifacts(POLICY_CACHE_ARTIFACTS),
            eviction: EvictionPolicy::CostAware,
        })
        .with_keep_alive(POLICY_KEEP_ALIVE_S as f64);
    let prewarm = PrewarmConfig {
        policy: PrewarmPolicy::Histogram {
            percentile_pm: POLICY_PREWARM_PERCENTILE_PM,
        },
        lead_s: POLICY_PREWARM_LEAD_S,
    };
    let rows = [
        ("coldstart-aware", Policy::ColdStartAware, base.clone()),
        ("locality", Policy::Locality, base.clone()),
        (
            "locality+prewarm",
            Policy::Locality,
            base.clone().with_prewarm(prewarm),
        ),
        (
            "pipeline",
            Policy::Pipeline,
            base.with_pipeline(POLICY_PIPELINE_K),
        ),
    ];
    let names: Vec<&str> = rows.iter().map(|(name, ..)| *name).collect();
    let mut r = BenchRecord::new(
        "policies",
        &[
            ("model", &MODEL),
            ("nodes", &POLICY_NODES),
            ("seed", &POLICY_SEED),
            ("models", &POLICY_MODELS),
            ("rps", &POLICY_RPS),
            ("duration_s", &POLICY_DURATION_S),
            ("keep_alive_s", &POLICY_KEEP_ALIVE_S),
            ("prewarm_percentile_pm", &POLICY_PREWARM_PERCENTILE_PM),
            ("pipeline_k", &POLICY_PIPELINE_K),
            ("artifact_scale", &POLICY_ARTIFACT_SCALE),
            ("trace_fingerprint", &fingerprint(&trace)),
            ("policies", &names.join(",")),
        ],
    );
    let mut p99 = HashMap::new();
    for (name, policy, cluster) in rows {
        let rep = simulate_fleet(&profile, &cluster, policy, &trace).report;
        let waste_max = if rep.prewarm.is_some() {
            POLICY_PREWARM_WASTE_MAX
        } else {
            0
        };
        r.push(
            format!("{name}.completed"),
            rep.completed as u64,
            "count",
            Rule::Exact,
        );
        r.push(
            format!("{name}.cold_starts"),
            rep.cold_starts.into(),
            "count",
            Rule::Exact,
        );
        r.push(
            format!("{name}.ttft_p50_us"),
            rep.ttft_p50_us,
            "us",
            TOLERANCE,
        );
        r.push(
            format!("{name}.ttft_p99_us"),
            rep.ttft_p99_us,
            "us",
            TOLERANCE,
        );
        r.push(
            format!("{name}.prewarms_issued"),
            rep.prewarm.map_or(0, |p| p.issued),
            "count",
            Rule::Exact,
        );
        r.push(
            format!("{name}.prewarms_unused"),
            rep.prewarm.map_or(0, |p| p.unused),
            "count",
            Rule::Ceiling { max: waste_max },
        );
        r.push(
            format!("{name}.pipeline_starts"),
            rep.pipeline_starts.unwrap_or(0),
            "count",
            Rule::Exact,
        );
        p99.insert(name, rep.ttft_p99_us);
    }
    // Sub-race: one request against an empty fleet paying a 100× artifact
    // cold start, single-node vs pipeline-parallel. TTFT p50 of a
    // one-request trace *is* that request's TTFT.
    let scale = |d: SimDuration| SimDuration::from_nanos(d.as_nanos() * POLICY_ARTIFACT_SCALE);
    let big = {
        let mut p = profile;
        p.model_costs = vec![ModelCost {
            fetch: scale(p.fetch),
            loading: scale(p.perf.loading),
            artifact_bytes: p.artifact_bytes_for(0) * POLICY_ARTIFACT_SCALE,
        }];
        p
    };
    let solo_trace = [Request {
        id: 0,
        arrival_ns: 0,
        prompt_tokens: 128,
        output_tokens: 32,
        model: 0,
    }];
    let duel_cluster = ClusterSpec::uniform(POLICY_PIPELINE_K as usize);
    let single = simulate_fleet(&big, &duel_cluster, Policy::ColdStartAware, &solo_trace)
        .report
        .ttft_p50_us;
    let piped = simulate_fleet(
        &big,
        &duel_cluster.with_pipeline(POLICY_PIPELINE_K),
        Policy::Pipeline,
        &solo_trace,
    )
    .report
    .ttft_p50_us;
    r.push("single_coldstart_ttft_us", single, "us", Rule::Exact);
    r.push("pipeline_coldstart_ttft_us", piped, "us", Rule::Exact);
    r.push(
        "prewarm_p99_lead_us",
        lead(p99["coldstart-aware"], p99["locality+prewarm"]),
        "us",
        AHEAD,
    );
    r.push("pipeline_duel_lead_us", lead(single, piped), "us", AHEAD);
    r
}

// ---------------------------------------------------------------------
// Content-addressed registry bench (chunk dedup vs whole-artifact fetch).

/// Family members of the registry scenario (the base capture plus
/// `REG_MODELS - 1` derived fine-tune variants).
pub const REG_MODELS: u32 = 4;
/// Fleet size of the registry scenario. Deliberately smaller than the
/// family, so models must share nodes and evictions force re-fetches —
/// the case where chunk-level residency pays.
pub const REG_NODES: usize = 2;
/// Trace seed.
pub const REG_SEED: u64 = 42;
/// Offered rate, requests/second.
pub const REG_RPS: u64 = 1;
/// Trace duration, seconds.
pub const REG_DURATION_S: u64 = 120;
/// Zipf popularity skew over the family, milli-units.
pub const REG_ZIPF_S_MILLI: u32 = 1000;
/// Idle keep-alive, seconds (short, so nodes churn through scale-to-zero
/// and chunk residency — not warm pools — carries the savings).
pub const REG_KEEP_ALIVE_S: u64 = 2;
/// Per-node artifact-cache capacity, artifacts (one, so every model
/// switch evicts and re-fetches — which the chunk store answers
/// incrementally from the evicted sibling's still-resident template
/// chunks, while the whole-artifact control pays full price each time).
pub const REG_CACHE_ARTIFACTS: u32 = 1;
/// Family name stamped into the factored template.
pub const REG_FAMILY: &str = "qwen-0.5b-family";
/// Offline seed of the base capture.
pub const REG_SEED_OFFLINE: u64 = 35;
/// The gate's fetch-byte reduction floor, milli-ratio: the
/// content-addressed fleet must move at most 1/2 the bytes of the
/// whole-artifact fleet (whole / cas ≥ 2.0).
pub const REG_BYTE_REDUCTION_FLOOR_MILLI: u64 = 2000;

/// Builds the registry scenario's chunk store: materialize the base model
/// once, factor it into a family template, instantiate `REG_MODELS`
/// members (the base plus seed-derived fine-tune variants), pack each
/// member's MAF2 bytes, and factor the shared chunks into a template
/// manifest. Deterministic per seed.
pub fn registry_store() -> ChunkStore {
    let spec = ModelSpec::by_name(MODEL).expect("catalog model");
    let (base, _) = materialize_offline(
        &spec,
        GpuSpec::a100_40gb(),
        CostModel::default(),
        REG_SEED_OFFLINE,
    )
    .expect("offline materialization");
    let (template, base_delta) = ArtifactTemplate::extract(std::slice::from_ref(&base), REG_FAMILY)
        .expect("family extraction");
    let mut store = ChunkStore::new();
    for m in 0..REG_MODELS {
        let delta = if m == 0 {
            base_delta.clone()
        } else {
            base_delta.derive_variant(&format!("{MODEL}-v{m}"), REG_SEED_OFFLINE ^ u64::from(m))
        };
        for shard in template.instantiate(&delta).expect("member instantiation") {
            let bytes = shard.to_maf2().expect("member encoding");
            store.pack(&bytes).expect("member packing");
        }
    }
    store.factor_family(REG_FAMILY).expect("family factoring");
    store
}

/// Catalog drift detector: a rotate-xor fold of the manifests' canonical
/// digests, order-sensitive (manifest index is the fleet's model id).
pub fn registry_catalog_fingerprint(store: &ChunkStore) -> u64 {
    store
        .manifests()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |acc, m| {
            acc.rotate_left(5) ^ m.digest()
        })
}

fn reg_trace() -> Vec<Request> {
    TraceConfig::sharegpt(REG_RPS as f64, REG_DURATION_S as f64)
        .with_seed(REG_SEED)
        .with_models(ModelMix::Zipf {
            models: REG_MODELS,
            s: REG_ZIPF_S_MILLI as f64 / 1000.0,
        })
        .generate()
}

fn run_registry_side(catalog: RegistryCatalog) -> ClusterReport {
    let spec = ModelSpec::by_name(MODEL).expect("catalog model");
    let profile = FleetProfile::measure(
        Strategy::Medusa,
        &spec,
        GpuSpec::a100_40gb(),
        CostModel::default(),
        1,
        Parallelism::Overlapped,
        REG_SEED,
    )
    .expect("fleet profile")
    .with_scaled_models(REG_MODELS);
    let cluster = ClusterSpec::uniform(REG_NODES)
        .with_cache(CacheConfig {
            capacity: CacheCapacity::Artifacts(REG_CACHE_ARTIFACTS),
            eviction: EvictionPolicy::CostAware,
        })
        .with_keep_alive(REG_KEEP_ALIVE_S as f64)
        .with_registry_mode(RegistryMode::ContentAddressed(catalog));
    simulate_fleet(&profile, &cluster, Policy::ColdStartAware, &reg_trace()).report
}

/// Runs the `registry` bench: build the family store, then replay the
/// same Zipf trace through the content-addressed catalog (chunk-level
/// residency, delta-only transfers) and through a monolithic control
/// catalog (one unit per model over the same byte totals, so both rows
/// carry comparable registry counters).
pub fn run_registry() -> BenchRecord {
    let store = registry_store();
    let stats = store.dedup_stats();
    let catalog = RegistryCatalog::from_store(&store);
    let totals: Vec<u64> = catalog.models.iter().map(|m| m.total_bytes()).collect();
    let cas = run_registry_side(catalog);
    let whole = run_registry_side(RegistryCatalog::monolithic(&totals));
    let cas_reg = cas.registry.expect("cas row reports registry counters");
    let whole_reg = whole
        .registry
        .expect("control row reports registry counters");
    let mut r = BenchRecord::new(
        "registry",
        &[
            ("model", &MODEL),
            ("family", &REG_FAMILY),
            ("nodes", &REG_NODES),
            ("seed", &REG_SEED),
            ("models", &REG_MODELS),
            ("zipf_s_milli", &REG_ZIPF_S_MILLI),
            ("rps", &REG_RPS),
            ("duration_s", &REG_DURATION_S),
            ("cache_artifacts", &REG_CACHE_ARTIFACTS),
            ("trace_fingerprint", &fingerprint(&reg_trace())),
            ("catalog_fingerprint", &registry_catalog_fingerprint(&store)),
        ],
    );
    r.push(
        "store_logical_bytes",
        stats.logical_bytes,
        "bytes",
        Rule::Exact,
    );
    r.push(
        "store_stored_bytes",
        stats.stored_bytes,
        "bytes",
        Rule::Exact,
    );
    r.push(
        "store_unique_chunks",
        stats.unique_chunks as u64,
        "count",
        Rule::Exact,
    );
    r.push(
        "store_dedup_ratio_milli",
        per_mille(stats.logical_bytes, stats.stored_bytes),
        "permille",
        Rule::Floor { min: 2000 },
    );
    r.push(
        "whole_bytes_fetched",
        whole_reg.bytes_fetched,
        "bytes",
        Rule::Exact,
    );
    r.push("whole_ttft_p99_us", whole.ttft_p99_us, "us", Rule::Exact);
    r.push(
        "whole_cold_starts",
        whole.cold_starts.into(),
        "count",
        Rule::Exact,
    );
    r.push(
        "cas_bytes_fetched",
        cas_reg.bytes_fetched,
        "bytes",
        Rule::Exact,
    );
    r.push(
        "cas_bytes_resolved",
        cas_reg.bytes_resolved,
        "bytes",
        Rule::Exact,
    );
    r.push("cas_chunk_hits", cas_reg.chunk_hits, "count", Rule::Exact);
    r.push(
        "cas_chunk_misses",
        cas_reg.chunk_misses,
        "count",
        Rule::Exact,
    );
    r.push("cas_ttft_p99_us", cas.ttft_p99_us, "us", TOLERANCE);
    r.push(
        "cas_cold_starts",
        cas.cold_starts.into(),
        "count",
        Rule::Exact,
    );
    r.push(
        "byte_reduction_milli",
        per_mille(whole_reg.bytes_fetched, cas_reg.bytes_fetched),
        "permille",
        Rule::Floor {
            min: REG_BYTE_REDUCTION_FLOOR_MILLI,
        },
    );
    // TTFT parity: the content-addressed p99 within 5% of the whole row.
    r.push(
        "cas_vs_whole_ttft_p99_pm",
        per_mille_ceil(cas.ttft_p99_us, whole.ttft_p99_us),
        "permille",
        Rule::Ceiling { max: 1050 },
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every committed-metric rule is honoured by a real run.
    fn self_check(r: &BenchRecord) -> String {
        check(r, r).unwrap_or_else(|e| panic!("{} fails its own rules: {e}", r.bench))
    }

    #[test]
    fn cluster_smoke_is_deterministic_and_medusa_wins() {
        let a = run_cluster();
        assert_eq!(
            a,
            run_cluster(),
            "simulated fleet results must be run-invariant"
        );
        self_check(&a);
        let v = |n| a.value(n).expect(n);
        assert!(v("medusa_makespan_us") <= v("vanilla_makespan_us"), "{a:?}");
    }

    #[test]
    fn cluster_mt_smoke_is_deterministic_and_every_tenant_wins() {
        let a = run_cluster_mt();
        assert_eq!(
            a,
            run_cluster_mt(),
            "simulated multi-tenant results must be run-invariant"
        );
        self_check(&a);
        let leads = a
            .metrics
            .iter()
            .filter(|m| m.name.ends_with(".medusa_p99_lead_us"));
        assert_eq!(leads.count(), MT_MODELS as usize, "{a:?}");
        assert!(
            a.value("cache_evictions") > Some(0),
            "cache must be contended: {a:?}"
        );
    }

    #[test]
    fn artifact_sweep_meets_its_own_contracts() {
        let (fresh, speedup) = run_artifact();
        // Self-comparison exercises every live clause: O(header) open,
        // lazy-restore fraction, and the wall-clock speedup floor.
        self_check(&fresh);
        self_check(&speedup);
        let v = |scale: u32, n: &str| fresh.value(&format!("{scale}x.{n}")).expect(n);
        for scale in ARTIFACT_SCALES {
            assert!(
                v(scale, "maf2_bytes") < v(scale, "json_bytes"),
                "binary encoding must be smaller at {scale}x"
            );
        }
        // The graph section dominates, so size grows near-linearly.
        let (first, last) = (
            ARTIFACT_SCALES[0],
            ARTIFACT_SCALES[ARTIFACT_SCALES.len() - 1],
        );
        assert!(
            v(last, "maf2_bytes") > v(first, "maf2_bytes") * (u64::from(last) / 2),
            "sweep did not scale the artifact: {fresh:?}"
        );
    }

    #[test]
    fn smoke_run_is_deterministic_and_ordered() {
        let a = run();
        assert_eq!(a, run(), "simulated makespans must be run-invariant");
        let v = |n| a.value(n).expect(n);
        assert!(
            v("pipelined_us") <= v("overlapped_us") && v("overlapped_us") < v("serial_us"),
            "parallel modes must beat serial: {a:?}"
        );
    }

    #[test]
    fn policy_race_meets_its_own_contracts() {
        // One live run through every raced policy: self-comparison
        // exercises both strict ordering invariants (prewarm beats
        // reactive, pipeline halves the 100× cold start) and the prewarm
        // waste ceiling against real simulator output.
        let fresh = run_policies();
        self_check(&fresh);
        let v = |n| fresh.value(n).expect(n);
        assert!(
            v("locality+prewarm.prewarms_issued") > v("locality+prewarm.prewarms_unused"),
            "estimator must land more prewarms than it wastes: {fresh:?}"
        );
        assert!(
            v("pipeline.pipeline_starts") > 0,
            "pipeline row never sharded a start: {fresh:?}"
        );
    }

    #[test]
    fn registry_bench_meets_its_own_contracts() {
        // One live run through both registry backends: self-comparison
        // exercises the byte-reduction, dedup, and TTFT-parity clauses
        // against real simulator output, and the chunk counters must show
        // actual cross-model sharing (hits from sibling templates).
        let fresh = run_registry();
        self_check(&fresh);
        let v = |n| fresh.value(n).expect(n);
        assert!(
            v("cas_chunk_hits") > 0 && v("cas_bytes_resolved") > 0,
            "content-addressed run never resolved a resident chunk: {fresh:?}"
        );
        assert!(
            v("whole_bytes_fetched") > v("store_logical_bytes"),
            "scenario produced no re-fetch churn (whole row fetched each \
             artifact at most once): {fresh:?}"
        );
    }
}
