//! Differential test of indexed routing: on seeded random fleet states,
//! every policy's index lookups ([`Scheduler::route_indexed`],
//! [`Scheduler::pick_cold_indexed`]) must decide exactly as its slice
//! methods do on the full per-node views — the written specification.
//!
//! The states cover every [`Policy`], whole-artifact and content-addressed
//! registries (with chunks shared across models, empty manifests and
//! out-of-catalog models), pipeline shard helpers, nodes short on batch
//! slots or KV capacity, many ties on load and on estimated start cost,
//! and decode tables whose step time falls as the batch grows. A second
//! sweep runs small locality and pipeline fleets end to end, so debug
//! builds also audit index maintenance through helper recruitment,
//! crashes and cache churn.

use medusa::Strategy;
use medusa_gpu::SimDuration;
use medusa_serving::{
    simulate_fleet, CacheCapacity, CacheConfig, ClusterFaults, ClusterSpec, EvictionPolicy,
    FetchUnit, FleetProfile, ModelManifest, NodeSetup, NodeState, PerfModel, Policy, PrewarmConfig,
    RegistryCatalog, RegistryMode, RoutingState,
};
use medusa_workload::{ArrivalPattern, ModelMix, TraceConfig};

/// splitmix64 stream: the test's only randomness, fully seed-determined.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, per_mille: u64) -> bool {
        self.below(1000) < per_mille
    }
}

const POLICIES: [Policy; 5] = [
    Policy::RoundRobin,
    Policy::LeastLoaded,
    Policy::ColdStartAware,
    Policy::Locality,
    Policy::Pipeline,
];

/// A profile with coarse, tie-prone costs: few distinct loading, fetch
/// and decode values, so start-cost ties across nodes and states are
/// common. One draw in four makes the decode step time fall with batch
/// size, so a more loaded Warm node can drain sooner than a less loaded
/// one.
fn random_profile(rng: &mut Rng, models: u32) -> FleetProfile {
    let ms = |v: u64| SimDuration::from_millis(v);
    let decode: Vec<SimDuration> = if rng.chance(250) {
        vec![ms(3), ms(1), ms(2)]
    } else {
        let a = 1 + rng.below(2);
        vec![ms(a), ms(a + rng.below(2)), ms(a + 1 + rng.below(2))]
    };
    let strategy = if rng.chance(800) {
        Strategy::Medusa
    } else {
        Strategy::Vanilla
    };
    let perf = PerfModel::from_tables(
        strategy,
        "routing-toy",
        ms(2 * (1 + rng.below(3))),
        vec![1, 2, 4],
        decode,
        vec![(100, ms(10)), (400, ms(20))],
    )
    .with_kv_capacity(64 + rng.below(64));
    let profile = FleetProfile::from_perf(strategy, perf).with_fetch(ms(2 * rng.below(3)));
    if rng.chance(500) {
        profile.with_scaled_models(models)
    } else {
        profile
    }
}

/// A content-addressed catalog over a small shared chunk pool, so models
/// share chunks; some manifests are empty and the catalog may stop short
/// of the model count (both fall back to a synthetic whole unit).
fn random_catalog(rng: &mut Rng, models: u32) -> RegistryCatalog {
    let pool: Vec<FetchUnit> = (0..6)
        .map(|d| FetchUnit {
            digest: 0xc0de_0000 + d,
            bytes: 1 + rng.below(4) * 1000,
        })
        .collect();
    let listed = rng.below(u64::from(models) + 1) as usize;
    RegistryCatalog {
        models: (0..listed)
            .map(|_| ModelManifest {
                units: if rng.chance(150) {
                    Vec::new()
                } else {
                    (0..1 + rng.below(4))
                        .map(|_| pool[rng.below(pool.len() as u64) as usize])
                        .collect()
                },
            })
            .collect(),
    }
}

fn random_node(rng: &mut Rng, models: u32, max_running: u32, kv_capacity: u64) -> NodeSetup {
    let state = match rng.below(3) {
        0 => NodeState::Cold,
        1 => NodeState::Starting,
        _ => NodeState::Warm,
    };
    NodeSetup {
        state,
        model: rng.below(u64::from(models)) as u32,
        // Loads crowd a few values (ties) and reach the batch limit.
        load: rng.below(u64::from(max_running) + 1) as usize,
        kv_tokens: kv_capacity.saturating_sub(rng.below(kv_capacity / 2 + 1)),
        cache: (0..models).filter(|_| rng.chance(300)).collect(),
        helper: state == NodeState::Starting && rng.chance(250),
    }
}

#[test]
fn indexed_routing_matches_the_slice_specification() {
    let mut compared = 0usize;
    for seed in 0..2000u64 {
        let mut rng = Rng(seed ^ 0x0007_0a11_e7ed);
        let models = 1 + rng.below(4) as u32;
        let profile = random_profile(&mut rng, models);
        let mut cluster = ClusterSpec::uniform(0);
        cluster.max_running = 1 + rng.below(4) as u32;
        if rng.chance(500) {
            cluster.registry_mode =
                RegistryMode::ContentAddressed(random_catalog(&mut rng, models));
        }
        let kv_capacity = profile.perf.kv_capacity_tokens;
        let setups: Vec<NodeSetup> = (0..1 + rng.below(24))
            .map(|_| random_node(&mut rng, models, cluster.max_running, kv_capacity))
            .collect();
        let state = RoutingState::new(&profile, &cluster, &setups);
        for policy in POLICIES {
            // Two instances decide side by side, so a stateful policy
            // (round-robin's cursor) stays in step as long as they agree.
            let (mut indexed, mut oracle) = (policy.build(), policy.build());
            for _ in 0..6 {
                // One model past the fleet's: no node hosts or caches it.
                let model = rng.below(u64::from(models) + 1) as u32;
                let need = rng.below(kv_capacity / 2 + 2);
                let q = state.query(need, model);
                let label = format!("seed {seed} policy {policy:?} model {model} need {need}");
                assert_eq!(
                    indexed.route_indexed(&q),
                    q.with_views(|v| oracle.route(v)),
                    "route: {label}"
                );
                assert_eq!(
                    indexed.pick_cold_indexed(&q),
                    q.with_views(|v| oracle.pick_cold(v, model)),
                    "pick_cold: {label}"
                );
                compared += 1;
            }
        }
    }
    assert_eq!(compared, 2000 * POLICIES.len() * 6);
}

/// Small multi-tenant fleets under the locality and pipeline policies, with
/// content-addressed fetches, bounded caches, prewarming and crashes: in
/// debug builds every event is followed by the routing-index audit, so
/// these runs check index maintenance through helper recruitment and
/// release, crash teardown, keep-alive expiry and cache eviction.
#[test]
fn locality_and_pipeline_fleets_keep_their_indices_in_sync() {
    let (mut pipeline_starts, mut crashes, mut evictions) = (0, 0, 0);
    for seed in 0..8u64 {
        let mut rng = Rng(seed ^ 0x00f1_ee75);
        let models = 2 + rng.below(3) as u32;
        let profile = random_profile(&mut rng, models).with_scaled_models(models);
        let policy = if seed % 2 == 0 {
            Policy::Locality
        } else {
            Policy::Pipeline
        };
        let mut cluster = ClusterSpec::uniform(2 + rng.below(5) as usize)
            .with_cached_prefix(1)
            .with_keep_alive(0.2)
            .with_cache(CacheConfig {
                capacity: CacheCapacity::Artifacts(1 + rng.below(2) as u32),
                eviction: EvictionPolicy::Lru,
            })
            .with_faults(ClusterFaults {
                seed,
                registry_fail_per_mille: 100,
                node_crash_per_mille: 150,
            });
        cluster.max_running = 2;
        if seed % 3 != 0 {
            cluster = cluster.with_registry_mode(RegistryMode::ContentAddressed(random_catalog(
                &mut rng, models,
            )));
        }
        if seed % 4 == 1 {
            cluster = cluster.with_prewarm(PrewarmConfig::default());
        }
        let trace = TraceConfig::sharegpt(4.0, 10.0)
            .with_seed(seed)
            .with_pattern(ArrivalPattern::sharegpt_bursty())
            .with_models(ModelMix::zipf(models, 1.0))
            .generate();
        let out = simulate_fleet(&profile, &cluster, policy, &trace);
        assert_eq!(out.conservation_residual(), 0, "seed {seed}");
        pipeline_starts += out.report.pipeline_starts.unwrap_or(0);
        crashes += out.report.node_failures;
        evictions += out.report.cache.map_or(0, |c| c.evictions);
    }
    // The sweep must reach the paths whose index updates it audits.
    assert!(pipeline_starts > 0, "no pipeline-parallel start");
    assert!(crashes > 0, "no crash");
    assert!(evictions > 0, "no cache eviction");
}
