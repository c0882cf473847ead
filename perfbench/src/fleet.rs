//! The fleet workloads: open-loop traces through `simulate_fleet`.
//!
//! Arrivals are scheduled at their trace instants in simulated time
//! whatever state the fleet is in, so the generator is never late by
//! construction. Set-up builds the fleet profile, the registry catalog and
//! the first `sim_traces` traces; the simulated metrics pool those traces.
//! Timed passes then replay trace 0, 1, 2, … (each generated from the run
//! seed) until the run's seconds are spent, and the host throughput is the
//! median over passes, so one trace's queueing episodes do not set it.
//! Every pass checks request conservation; the traced run also checks that
//! telemetry leaves the report byte-identical.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use medusa::{materialize_offline, ArtifactTemplate, ChunkStore, Parallelism, Strategy};
use medusa_gpu::{CostModel, GpuSpec};
use medusa_model::ModelSpec;
use medusa_serving::{
    simulate_fleet, simulate_fleet_traced, CacheCapacity, CacheConfig, ClusterFaults, ClusterSpec,
    EvictionPolicy, FetchPolicy, FleetOutcome, FleetProfile, NodeState, NodeView, Policy,
    PrewarmConfig, RegistryCatalog, RegistryMode,
};
use medusa_telemetry::Registry as TelemetryRegistry;
use medusa_workload::{ArrivalPattern, ModelMix, Request, TraceConfig};

use crate::host::{check_fingerprint, mix, peak_rss_mb, set_up, Checks};
use crate::metrics::{set_latency, Outcome, Values};
use crate::stats::{self, median, ratio};
use crate::{DEFAULT_SEED, HELD_OUT_SEED};

/// The model every fleet node serves (and the base of the backlog family).
const MODEL: &str = "Qwen1.5-0.5B";

/// Set-up repetitions per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// How a fleet workload is shaped.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// 1000 nodes, one model, caches pre-seeded, whole-artifact registry.
    Wide,
    /// 8 nodes, 10 Zipf tenants over a content-addressed family catalog,
    /// small caches, short keep-alive, a flaky registry, prewarming.
    Backlog,
}

/// A fleet workload.
#[derive(Debug)]
pub struct FleetWorkload {
    pub name: &'static str,
    shape: Shape,
    /// Fixed TTFT limit behind `slo_attainment`, seconds.
    ttft_limit_s: f64,
    /// Traces built in set-up and pooled into the simulated metrics.
    sim_traces: usize,
    /// Fingerprints of trace 0 recorded at the default and held-out seeds.
    recorded: [(u64, u64); 2],
}

pub const FLEET_WIDE: FleetWorkload = FleetWorkload {
    name: "fleet-wide",
    shape: Shape::Wide,
    ttft_limit_s: 0.0131,
    sim_traces: 1,
    recorded: [
        (DEFAULT_SEED, 0xc6c3_daec_d5f7_e208),
        (HELD_OUT_SEED, 0x3dde_0cd0_4bc2_a29f),
    ],
};

pub const FLEET_BACKLOG: FleetWorkload = FleetWorkload {
    name: "fleet-backlog",
    shape: Shape::Backlog,
    ttft_limit_s: 1.0,
    sim_traces: 4,
    recorded: [
        (DEFAULT_SEED, 0xb805_fd4f_a240_505d),
        (HELD_OUT_SEED, 0x6130_9015_0870_1f95),
    ],
};

const WIDE_NODES: usize = 1000;
const WIDE_RPS: f64 = 2000.0;
const WIDE_DURATION_S: f64 = 50.0;

const BACKLOG_NODES: usize = 8;
const BACKLOG_TENANTS: u32 = 10;
const BACKLOG_RPS: f64 = 10.0;
const BACKLOG_DURATION_S: f64 = 360.0;
const BACKLOG_FAMILY: &str = "qwen-family";

/// Inputs of one fleet run and what building them cost.
struct Inputs {
    profile: FleetProfile,
    cluster: ClusterSpec,
    policy: Policy,
    traces: Vec<Vec<Request>>,
    generate: Duration,
    profile_measure: Duration,
    catalog_build: Duration,
}

impl Inputs {
    fn setup_time(&self) -> Duration {
        self.generate + self.profile_measure + self.catalog_build
    }
}

/// The backlog family: the base model materialized once, factored into a
/// template, and instantiated as `BACKLOG_TENANTS` fine-tune siblings
/// packed into one content-addressed store.
fn family_store(seed: u64) -> Result<ChunkStore, String> {
    let spec = ModelSpec::by_name(MODEL).ok_or("unknown model")?;
    let offline_seed = mix(seed ^ 0x0ff1_13e5);
    let (base, _) = materialize_offline(
        &spec,
        GpuSpec::a100_40gb(),
        CostModel::default(),
        offline_seed,
    )
    .map_err(|e| format!("family base: {e}"))?;
    let (template, base_delta) =
        ArtifactTemplate::extract(std::slice::from_ref(&base), BACKLOG_FAMILY)
            .map_err(|e| format!("family template: {e}"))?;
    let mut store = ChunkStore::new();
    for m in 0..BACKLOG_TENANTS {
        let delta = if m == 0 {
            base_delta.clone()
        } else {
            base_delta.derive_variant(&format!("{MODEL}-ft{m}"), offline_seed ^ u64::from(m))
        };
        for shard in template
            .instantiate(&delta)
            .map_err(|e| format!("member {m}: {e}"))?
        {
            let bytes = shard.to_maf2().map_err(|e| format!("member {m}: {e}"))?;
            store.pack(&bytes).map_err(|e| format!("member {m}: {e}"))?;
        }
    }
    store
        .factor_family(BACKLOG_FAMILY)
        .map_err(|e| format!("family factoring: {e}"))?;
    Ok(store)
}

impl FleetWorkload {
    /// Trace `k` of a run: trace 0 is generated from the run seed itself,
    /// later ones from seeds derived from it.
    fn trace(&self, seed: u64, k: usize) -> Vec<Request> {
        let seed = if k == 0 {
            seed
        } else {
            mix(seed ^ ((k as u64) << 40))
        };
        match self.shape {
            Shape::Wide => TraceConfig::interactive(WIDE_RPS, WIDE_DURATION_S),
            Shape::Backlog => TraceConfig::sharegpt(BACKLOG_RPS, BACKLOG_DURATION_S)
                .with_pattern(ArrivalPattern::Mmpp {
                    factor: 4.0,
                    mean_burst_s: 1.0,
                    mean_idle_s: 3.0,
                })
                .with_models(ModelMix::zipf(BACKLOG_TENANTS, 1.0)),
        }
        .with_seed(seed)
        .generate()
    }

    fn build(&self, seed: u64) -> Result<Inputs, String> {
        let spec = ModelSpec::by_name(MODEL).ok_or("unknown model")?;
        let t = Instant::now();
        let profile = FleetProfile::measure(
            Strategy::Medusa,
            &spec,
            GpuSpec::a100_40gb(),
            CostModel::default(),
            1,
            Parallelism::Overlapped,
            seed,
        )
        .map_err(|e| format!("fleet profile: {e}"))?;
        let profile_measure = t.elapsed();
        match self.shape {
            Shape::Wide => {
                let t = Instant::now();
                let traces = (0..self.sim_traces).map(|k| self.trace(seed, k)).collect();
                let generate = t.elapsed();
                Ok(Inputs {
                    profile,
                    cluster: ClusterSpec::uniform(WIDE_NODES).with_cached_prefix(WIDE_NODES),
                    policy: Policy::ColdStartAware,
                    traces,
                    generate,
                    profile_measure,
                    catalog_build: Duration::ZERO,
                })
            }
            Shape::Backlog => {
                let t = Instant::now();
                let store = family_store(seed)?;
                let catalog = RegistryCatalog::from_store(&store);
                let catalog_build = t.elapsed();
                let t = Instant::now();
                let traces = (0..self.sim_traces).map(|k| self.trace(seed, k)).collect();
                let generate = t.elapsed();
                let cluster = ClusterSpec::uniform(BACKLOG_NODES)
                    .with_cache(CacheConfig {
                        capacity: CacheCapacity::Artifacts(2),
                        eviction: EvictionPolicy::CostAware,
                    })
                    .with_keep_alive(2.0)
                    .with_faults(ClusterFaults {
                        seed,
                        registry_fail_per_mille: 50,
                        node_crash_per_mille: 0,
                    })
                    .with_fetch_policy(FetchPolicy {
                        timeout_s: 0.5,
                        retry_budget: 3,
                        backoff_base_s: 0.1,
                        backoff_max_s: 4.0,
                    })
                    .with_registry_mode(RegistryMode::ContentAddressed(catalog))
                    .with_prewarm(PrewarmConfig::default());
                Ok(Inputs {
                    profile: profile.with_scaled_models(BACKLOG_TENANTS),
                    cluster,
                    policy: Policy::Locality,
                    traces,
                    generate,
                    profile_measure,
                    catalog_build,
                })
            }
        }
    }

    /// Runs the workload: end-to-end metrics untraced, per-layer traced.
    pub fn run(&self, seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
        let mut checks = Checks::default();
        let reps = if traced { 1 } else { SETUP_REPS };
        let (inputs, mut setups) = set_up(reps, || self.build(seed), Inputs::setup_time)?;
        check_fingerprint(
            self.name,
            seed,
            &inputs.traces[0],
            &self.recorded,
            &mut checks,
        );

        let mut values = Values::default();
        let (pool, attempted, failed) = if traced {
            let out = self.traced(&inputs, &mut checks, &mut values);
            let pool = Pool::of(std::slice::from_ref(&out));
            (pool, out.report.offered as u64, unfinished(&out))
        } else {
            let (pool, attempted, failed) =
                self.untraced(&inputs, seed, seconds, &mut checks, &mut values)?;
            values.set("setup_s", median(&mut setups));
            set_latency(
                &pool.ttfts,
                pool.offered,
                self.ttft_limit_s,
                &mut checks,
                &mut values,
            );
            (pool, attempted, failed)
        };
        pool.report();
        println!(
            "perfbench: fail_ratio {} = {failed} requests unfinished at the horizon / {attempted} offered",
            ratio(failed as f64, attempted as f64)
        );
        Ok(Outcome {
            correct: checks.passed(),
            attempted,
            failed,
            values,
        })
    }

    /// Times untraced `simulate_fleet` over trace 0, 1, 2, … until
    /// `seconds` have passed and every set-up trace ran. Returns the pool
    /// of the set-up traces' outcomes and the requests offered and left
    /// unfinished over all passes. Peak memory is read once the set-up
    /// traces ran, so it covers a fixed amount of work.
    fn untraced(
        &self,
        inputs: &Inputs,
        seed: u64,
        seconds: u64,
        checks: &mut Checks,
        values: &mut Values,
    ) -> Result<(Pool, u64, u64), String> {
        let budget = Duration::from_secs(seconds);
        let start = Instant::now();
        let mut per_host_s = Vec::new();
        let mut pooled = Vec::new();
        let (mut attempted, mut failed) = (0, 0);
        for k in 0.. {
            let generated;
            let trace = match inputs.traces.get(k) {
                Some(t) => t,
                None => {
                    generated = self.trace(seed, k);
                    &generated
                }
            };
            let t = Instant::now();
            let out = simulate_fleet(&inputs.profile, &inputs.cluster, inputs.policy, trace);
            let host = t.elapsed().as_secs_f64();
            check_conservation(&out, checks);
            per_host_s.push(out.report.completed as f64 / host);
            attempted += out.report.offered as u64;
            failed += unfinished(&out);
            if k < inputs.traces.len() {
                pooled.push(out);
                if pooled.len() == inputs.traces.len() {
                    values.set("peak_rss_mb", peak_rss_mb()?);
                }
            }
            if k + 1 >= inputs.traces.len() && start.elapsed() >= budget {
                break;
            }
        }
        let listed: Vec<String> = per_host_s.iter().map(|v| format!("{v:.0}")).collect();
        println!(
            "perfbench: {} timed simulate_fleet passes at [{}] requests per host second; \
             host_ops_per_s is their median",
            per_host_s.len(),
            listed.join(", ")
        );
        values.set("host_ops_per_s", median(&mut per_host_s));
        Ok((Pool::of(&pooled), attempted, failed))
    }

    /// One untraced and one traced pass over trace 0, plus the routing
    /// and registry probes.
    fn traced(&self, inputs: &Inputs, checks: &mut Checks, values: &mut Values) -> FleetOutcome {
        let t = Instant::now();
        let trace = &inputs.traces[0];
        let plain = simulate_fleet(&inputs.profile, &inputs.cluster, inputs.policy, trace);
        let host_plain = t.elapsed();
        let tele = TelemetryRegistry::new();
        let t = Instant::now();
        let traced = simulate_fleet_traced(
            &inputs.profile,
            &inputs.cluster,
            inputs.policy,
            trace,
            Some(&tele),
        );
        let host_traced = t.elapsed();
        check_conservation(&plain, checks);
        check_conservation(&traced, checks);
        checks.check(plain.report.to_json() == traced.report.to_json(), || {
            "the traced report differs from the untraced one".to_string()
        });

        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        values.set("workload.generate_ms", ms(inputs.generate));
        values.set("serving.profile_measure_ms", ms(inputs.profile_measure));
        values.set("core.artifact.catalog_build_ms", ms(inputs.catalog_build));

        let stats = plain.stats;
        let r = &plain.report;
        values.set("serving.sim_host_s", host_plain.as_secs_f64());
        values.set(
            "serving.host_ns_per_event",
            ratio(host_plain.as_nanos() as f64, stats.events_processed as f64),
        );
        values.set(
            "telemetry.overhead_ratio",
            ratio(host_traced.as_secs_f64(), host_plain.as_secs_f64()),
        );
        values.set("serving.scheduler.route_ns", route_ns(inputs));
        values.set("serving.registry.resolve_us", resolve_us(inputs));
        values.set("serving.event.processed", stats.events_processed as f64);
        values.set("serving.event.cancelled", stats.events_cancelled as f64);
        values.set(
            "serving.event.cancel_ratio",
            ratio(
                stats.events_cancelled as f64,
                (stats.events_processed + stats.events_cancelled) as f64,
            ),
        );
        values.set("serving.cold_starts", f64::from(r.cold_starts));
        values.set("serving.fetch_retries", f64::from(r.fetch_retries));
        values.set(
            "serving.degraded_cold_starts",
            f64::from(r.degraded_cold_starts),
        );
        if let Some(c) = r.cache {
            values.set("serving.cache.hits", c.hits as f64);
            values.set("serving.cache.misses", c.misses as f64);
            values.set("serving.cache.evictions", c.evictions as f64);
            values.set(
                "serving.cache.hit_ratio",
                ratio(c.hits as f64, (c.hits + c.misses) as f64),
            );
        }
        if let Some(g) = r.registry {
            values.set("serving.registry.bytes_fetched", g.bytes_fetched as f64);
            values.set("serving.registry.bytes_resolved", g.bytes_resolved as f64);
            values.set("serving.registry.chunk_hits", g.chunk_hits as f64);
            values.set("serving.registry.chunk_misses", g.chunk_misses as f64);
            values.set(
                "serving.registry.chunk_hit_ratio",
                ratio(g.chunk_hits as f64, (g.chunk_hits + g.chunk_misses) as f64),
            );
        }
        if let Some(p) = r.prewarm {
            values.set("serving.prewarm.issued", p.issued as f64);
            values.set("serving.prewarm.unused", p.unused as f64);
            values.set(
                "serving.prewarm.useful_ratio",
                ratio((p.issued - p.unused) as f64, p.issued as f64),
            );
        }
        let snap = tele.snapshot();
        let queue = stats::merge_histograms(
            (0..inputs.cluster.nodes.len())
                .filter_map(|i| snap.histogram(&format!("cluster_node{i}_queue_delay_us"))),
        );
        for (name, q) in [
            ("serving.queue_wait_p50_s", 0.5),
            ("serving.queue_wait_p99_s", 0.99),
        ] {
            if let Some(us) = queue.quantile_us(q) {
                values.set(name, us as f64 / 1e6);
            }
        }
        let node_time = (r.nodes.len() as u64 * r.makespan_ns) as f64;
        let busy: u64 = r.nodes.iter().map(|n| n.busy_ns).sum();
        let cold: u64 = r.nodes.iter().map(|n| n.cold_ns).sum();
        values.set("serving.node.busy_share", ratio(busy as f64, node_time));
        values.set("serving.node.cold_share", ratio(cold as f64, node_time));
        values.set(
            "serving.backlog_at_end",
            (stats.queued_at_end + stats.in_flight_at_end) as f64,
        );
        plain
    }
}

fn check_conservation(out: &FleetOutcome, checks: &mut Checks) {
    let residual = out.conservation_residual();
    checks.check(residual == 0, || {
        format!("request conservation residual is {residual}, not 0")
    });
}

fn unfinished(out: &FleetOutcome) -> u64 {
    out.report.offered.saturating_sub(out.report.completed) as u64
}

/// The simulated results of the traces the end-to-end metrics pool.
struct Pool {
    traces: usize,
    ttfts: Vec<f64>,
    offered: usize,
    completed: usize,
    queued_at_end: usize,
    in_flight_at_end: usize,
    horizon_truncated: bool,
}

impl Pool {
    fn of(outcomes: &[FleetOutcome]) -> Pool {
        Pool {
            traces: outcomes.len(),
            ttfts: outcomes
                .iter()
                .flat_map(|o| o.ttfts.iter().map(|d| d.as_secs_f64()))
                .collect(),
            offered: outcomes.iter().map(|o| o.report.offered).sum(),
            completed: outcomes.iter().map(|o| o.report.completed).sum(),
            queued_at_end: outcomes.iter().map(|o| o.stats.queued_at_end).sum(),
            in_flight_at_end: outcomes.iter().map(|o| o.stats.in_flight_at_end).sum(),
            horizon_truncated: outcomes.iter().any(|o| o.stats.horizon_truncated),
        }
    }

    /// Prints the backlog accounting.
    fn report(&self) {
        println!(
            "perfbench: backlog over {} trace(s): offered {} completed {} queued_at_end {} \
             in_flight_at_end {} horizon_truncated {} generator_lateness_s 0 (open loop in \
             simulated time: every arrival is scheduled at its trace instant)",
            self.traces,
            self.offered,
            self.completed,
            self.queued_at_end,
            self.in_flight_at_end,
            self.horizon_truncated
        );
    }
}

/// Repeats `f` in batches of `batch` calls until about 200 ms have passed
/// and returns the median time per call, in nanoseconds.
fn time_per_call(batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    let mut per_call = Vec::new();
    let mut i = 0;
    while per_call.len() < 5 || start.elapsed() < Duration::from_millis(200) {
        let t = Instant::now();
        for _ in 0..batch {
            f(i);
            i += 1;
        }
        per_call.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&mut per_call)
}

/// `Scheduler::route` on a view slice of the workload's fleet size: one
/// warm node in twelve (loads spread over the batch limit), one starting,
/// the rest cold with the model cached on every other node.
fn route_ns(inputs: &Inputs) -> f64 {
    let n = inputs.cluster.nodes.len();
    let views: Vec<NodeView> = (0..n)
        .map(|i| {
            let h = mix(i as u64);
            let state = match i % 12 {
                0 => NodeState::Warm,
                1 => NodeState::Starting,
                _ => NodeState::Cold,
            };
            NodeView {
                state,
                load: (h % 33) as usize,
                cached: i % 2 == 0,
                accepts: state != NodeState::Warm || h % 33 < 32,
                start_cost_ns: h % 2_000_000_000,
            }
        })
        .collect();
    let mut sched = inputs.policy.build();
    let batch = (200_000 / n).max(1);
    time_per_call(batch, |_| {
        std::hint::black_box(sched.route(std::hint::black_box(&views)));
    })
}

/// The workload's own registry backend resolving one cold start: the
/// whole-artifact backend for the wide fleet; for the backlog fleet the
/// content-addressed catalog against a node holding the chunks of two
/// other family members (a full two-artifact cache).
fn resolve_us(inputs: &Inputs) -> f64 {
    let mode = &inputs.cluster.registry_mode;
    let (resident, models): (BTreeSet<u64>, Vec<u32>) = match mode {
        RegistryMode::Whole => (BTreeSet::new(), vec![0]),
        RegistryMode::ContentAddressed(catalog) => (
            catalog
                .models
                .iter()
                .take(2)
                .flat_map(|m| m.units.iter().map(|u| u.digest))
                .collect(),
            (2..catalog.models.len() as u32).collect(),
        ),
    };
    let backend = mode.build();
    let ns = time_per_call(1000, |i| {
        let model = models[i % models.len()];
        std::hint::black_box(backend.resolve(model, &resident, &inputs.profile));
    });
    ns / 1e3
}
