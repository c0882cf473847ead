//! Routing indices: fleet routing decisions as index lookups instead of a
//! scan over every node.
//!
//! The slice methods [`Scheduler::route`] and [`Scheduler::pick_cold`]
//! read one [`NodeView`] per node. Building those views costs O(nodes) per
//! decision, and pricing a cold node's start can take a full
//! [`Registry::resolve`]. The fleet simulator instead keeps routing
//! indices current as nodes change and hands schedulers a [`RouteQuery`]:
//!
//! * per model, the Warm nodes serving it, ordered by `(load, id)`, and
//!   the same for Starting nodes (pipeline shard helpers excluded — they
//!   never accept work);
//! * the Cold nodes, the Cold nodes holding any artifact, and per model
//!   the Cold nodes whose cache holds it;
//! * the live (non-Cold) node count, overall and per model;
//! * a cold-start estimate and fetch plan per (node, model), computed on
//!   first use and dropped only when that node's cache or chunk residency
//!   changes.
//!
//! The slice methods remain the written specification:
//! [`RouteQuery::with_views`] builds exactly the views they read, which is
//! both the default [`Scheduler::route_indexed`] and the differential
//! oracle the indexed overrides are tested against.
//!
//! [`Scheduler::route`]: crate::Scheduler::route
//! [`Scheduler::pick_cold`]: crate::Scheduler::pick_cold
//! [`Scheduler::route_indexed`]: crate::Scheduler::route_indexed

use std::cell::RefCell;
use std::collections::BTreeSet;

use medusa::Strategy;

use crate::cluster::{
    CacheEntry, ClusterSpec, FetchPlan, FleetProfile, Node, NodeSpec, NodeState, NodeView,
    Registry, RegistryMode,
};

/// What the index last recorded about one node's routing-relevant state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    state: NodeState,
    model: Option<u32>,
    load: usize,
    helper: bool,
}

impl Slot {
    fn of(n: &Node) -> Slot {
        Slot {
            state: n.state,
            model: n.model,
            load: n.load(),
            helper: n.pipeline_head.is_some(),
        }
    }
}

/// `v[m]`, growing `v` with empty entries as needed.
fn at<T: Default>(v: &mut Vec<T>, m: u32) -> &mut T {
    let m = m as usize;
    if v.len() <= m {
        v.resize_with(m + 1, T::default);
    }
    &mut v[m]
}

/// `v` without its trailing empty entries, so two indices that grew their
/// per-model tables to different lengths still compare equal.
#[cfg(debug_assertions)]
fn trimmed<T: Default + PartialEq>(v: &[T]) -> &[T] {
    let empty = T::default();
    let len = v.iter().rposition(|x| *x != empty).map_or(0, |k| k + 1);
    &v[..len]
}

/// The routing indices over one fleet's nodes. Every entry is derived
/// from the nodes alone, so [`RoutingIndex::build`] from scratch must
/// always equal the incrementally maintained index — the per-event audit
/// checks exactly that.
#[derive(Debug, Default)]
pub(crate) struct RoutingIndex {
    slots: Vec<Slot>,
    /// Recorded cache membership per node.
    cached: Vec<Vec<u32>>,
    /// Per model: `(load, id)` of Warm nodes hosting it (helpers excluded).
    warm: Vec<BTreeSet<(usize, usize)>>,
    /// Per model: `(load, id)` of Starting nodes hosting it (helpers
    /// excluded).
    starting: Vec<BTreeSet<(usize, usize)>>,
    cold: BTreeSet<usize>,
    /// Cold nodes whose cache holds at least one artifact.
    cold_stocked: BTreeSet<usize>,
    /// Per model: Cold nodes whose cache holds it.
    cold_cached: Vec<BTreeSet<usize>>,
    /// Nodes not Cold.
    live: usize,
    /// Per model: Warm or Starting nodes hosting it, helpers included.
    live_by_model: Vec<usize>,
}

impl RoutingIndex {
    fn build(nodes: &[Node]) -> RoutingIndex {
        let mut ix = RoutingIndex::default();
        for (i, n) in nodes.iter().enumerate() {
            let slot = Slot::of(n);
            ix.slots.push(slot);
            ix.cached.push(n.cache.iter().map(|e| e.model).collect());
            ix.insert(i, slot);
        }
        ix
    }

    fn insert(&mut self, i: usize, s: Slot) {
        if s.state == NodeState::Cold {
            self.cold.insert(i);
            if !self.cached[i].is_empty() {
                self.cold_stocked.insert(i);
            }
            for &m in &self.cached[i] {
                at(&mut self.cold_cached, m).insert(i);
            }
            return;
        }
        self.live += 1;
        let Some(m) = s.model else { return };
        *at(&mut self.live_by_model, m) += 1;
        if !s.helper {
            let set = match s.state {
                NodeState::Warm => &mut self.warm,
                _ => &mut self.starting,
            };
            at(set, m).insert((s.load, i));
        }
    }

    fn remove(&mut self, i: usize, s: Slot) {
        if s.state == NodeState::Cold {
            self.cold.remove(&i);
            self.cold_stocked.remove(&i);
            for &m in &self.cached[i] {
                at(&mut self.cold_cached, m).remove(&i);
            }
            return;
        }
        self.live -= 1;
        let Some(m) = s.model else { return };
        *at(&mut self.live_by_model, m) -= 1;
        if !s.helper {
            let set = match s.state {
                NodeState::Warm => &mut self.warm,
                _ => &mut self.starting,
            };
            at(set, m).remove(&(s.load, i));
        }
    }

    /// Re-indexes node `i` after its state, model, load or helper role
    /// changed (a no-op when none did); returns whether any did.
    fn sync(&mut self, i: usize, n: &Node) -> bool {
        let slot = Slot::of(n);
        if slot == self.slots[i] {
            return false;
        }
        self.remove(i, self.slots[i]);
        self.slots[i] = slot;
        self.insert(i, slot);
        true
    }

    /// Re-indexes node `i`'s cache membership; returns whether it changed.
    fn sync_cache(&mut self, i: usize, n: &Node) -> bool {
        if n.cache
            .iter()
            .map(|e| e.model)
            .eq(self.cached[i].iter().copied())
        {
            return false;
        }
        let slot = self.slots[i];
        self.remove(i, slot);
        self.cached[i] = n.cache.iter().map(|e| e.model).collect();
        self.insert(i, slot);
        true
    }

    /// Describes the first difference from `other`, if any.
    #[cfg(debug_assertions)]
    fn diff(&self, other: &RoutingIndex) -> Option<String> {
        let parts: [(&str, bool); 9] = [
            ("node slots", self.slots == other.slots),
            ("cache membership", self.cached == other.cached),
            ("warm", trimmed(&self.warm) == trimmed(&other.warm)),
            (
                "starting",
                trimmed(&self.starting) == trimmed(&other.starting),
            ),
            ("cold", self.cold == other.cold),
            ("cold stocked", self.cold_stocked == other.cold_stocked),
            (
                "cold cached",
                trimmed(&self.cold_cached) == trimmed(&other.cold_cached),
            ),
            ("live", self.live == other.live),
            (
                "live by model",
                trimmed(&self.live_by_model) == trimmed(&other.live_by_model),
            ),
        ];
        parts
            .iter()
            .find(|(_, same)| !same)
            .map(|(name, _)| format!("{name}: live {self:?} vs rebuilt {other:?}"))
    }
}

/// Cached cold-start pricing of one model on one node.
#[derive(Debug, Clone, PartialEq)]
struct ColdCost {
    model: u32,
    est_ns: Option<u64>,
    plan: Option<FetchPlan>,
}

/// Everything a routing decision reads besides the nodes: the indices,
/// the cost inputs and the per-(node, model) cold-start cache.
pub(crate) struct Router<'a> {
    profile: &'a FleetProfile,
    /// The registry backend fetches resolve through.
    registry: Box<dyn Registry>,
    /// Whether the backend is content-addressed.
    pub(crate) cas: bool,
    max_running: u32,
    kv_capacity: u64,
    index: RoutingIndex,
    costs: RefCell<Vec<Vec<ColdCost>>>,
    /// Scratch views, reused across decisions that build them.
    views: RefCell<Vec<NodeView>>,
    /// Each node's KV reservation at its last sync.
    #[cfg(debug_assertions)]
    kv: Vec<u64>,
}

impl<'a> Router<'a> {
    pub(crate) fn new(profile: &'a FleetProfile, cluster: &ClusterSpec, nodes: &[Node]) -> Self {
        Router {
            profile,
            registry: cluster.registry_mode.build(),
            cas: matches!(cluster.registry_mode, RegistryMode::ContentAddressed(_)),
            max_running: cluster.max_running,
            kv_capacity: profile.perf.kv_capacity_tokens,
            index: RoutingIndex::build(nodes),
            costs: RefCell::new(vec![Vec::new(); nodes.len()]),
            views: RefCell::new(Vec::new()),
            #[cfg(debug_assertions)]
            kv: nodes.iter().map(|n| n.kv_tokens).collect(),
        }
    }

    /// The query for one routing decision on a request of `model`
    /// reserving `need` KV tokens.
    pub(crate) fn query<'q>(&'q self, nodes: &'q [Node], need: u64, model: u32) -> RouteQuery<'q> {
        RouteQuery {
            router: self,
            nodes,
            need,
            model,
        }
    }

    /// Re-indexes node `i` after its state, model, load or helper role
    /// changed; returns whether any did. A node's KV reservation is read
    /// by routing too, and changes only together with its load or state.
    pub(crate) fn sync(&mut self, i: usize, n: &Node) -> bool {
        let changed = self.index.sync(i, n);
        #[cfg(debug_assertions)]
        {
            assert!(
                changed || self.kv[i] == n.kv_tokens,
                "node {i}: KV reservation changed without its load or state"
            );
            self.kv[i] = n.kv_tokens;
        }
        changed
    }

    /// Re-indexes node `i` after its cache (and so its chunk residency)
    /// changed, dropping its cached cold-start prices; returns whether
    /// its cache membership changed.
    pub(crate) fn sync_cache(&mut self, i: usize, n: &Node) -> bool {
        let changed = self.index.sync_cache(i, n);
        if changed {
            self.costs.get_mut()[i].clear();
        }
        changed
    }

    /// Nodes not Cold.
    pub(crate) fn live(&self) -> usize {
        self.index.live
    }

    /// Whether any Warm or Starting node hosts `model`.
    pub(crate) fn affine_live(&self, model: u32) -> bool {
        self.index
            .live_by_model
            .get(model as usize)
            .is_some_and(|&c| c > 0)
    }

    /// Cold nodes, ascending id.
    pub(crate) fn cold_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.index.cold.iter().copied()
    }

    /// Runs `f` on node `i`'s cached pricing of `model`.
    fn with_cost<R>(&self, i: usize, model: u32, f: impl FnOnce(&mut ColdCost) -> R) -> R {
        let mut costs = self.costs.borrow_mut();
        let list = &mut costs[i];
        let k = match list.iter().position(|c| c.model == model) {
            Some(k) => k,
            None => {
                list.push(ColdCost {
                    model,
                    est_ns: None,
                    plan: None,
                });
                list.len() - 1
            }
        };
        f(&mut list[k])
    }

    /// What a cold start of `model` on node `i` must fetch, resolved at
    /// most once between changes to the node's residency.
    pub(crate) fn fetch_plan(&self, i: usize, n: &Node, model: u32) -> FetchPlan {
        self.with_cost(i, model, |c| {
            c.plan
                .get_or_insert_with(|| self.registry.resolve(model, &n.chunks, self.profile))
                .clone()
        })
    }

    /// Simulated transfer time of `plan`'s missing units of `model`, ns.
    pub(crate) fn fetch_ns(&self, model: u32, plan: &FetchPlan) -> u64 {
        self.registry.fetch(model, plan, self.profile).as_nanos()
    }

    /// Estimated cold-start makespan of `model` on node `i`, cached.
    fn est_cold_ns(&self, i: usize, n: &Node, model: u32) -> u64 {
        self.with_cost(i, model, |c| {
            if let Some(est) = c.est_ns {
                return est;
            }
            let est = self.price(n, model, &mut c.plan);
            c.est_ns = Some(est);
            est
        })
    }

    /// Estimated cold-start makespan of `model` on node `n`: the legacy
    /// profile tables in whole-artifact mode, the chunk-residency-resolved
    /// fetch plus restore in content-addressed mode — which is what lets
    /// locality routing prefer a node already holding most of a family's
    /// template chunks. Fills `plan` when it has to resolve one.
    fn price(&self, n: &Node, model: u32, plan: &mut Option<FetchPlan>) -> u64 {
        let cached = n.cache_holds(model);
        if !self.cas {
            return self.profile.coldstart_makespan(cached, model).as_nanos();
        }
        let loading = self.profile.loading_for(model).as_nanos();
        if cached || self.profile.strategy != Strategy::Medusa {
            return loading;
        }
        let plan =
            plan.get_or_insert_with(|| self.registry.resolve(model, &n.chunks, self.profile));
        loading + self.fetch_ns(model, plan)
    }

    /// Asserts the incrementally maintained index equals one rebuilt from
    /// `nodes`, that Cold nodes hold no work, and that every cached
    /// cold-start price equals a fresh one.
    #[cfg(debug_assertions)]
    pub(crate) fn audit(&self, nodes: &[Node]) {
        if let Some(diff) = self.index.diff(&RoutingIndex::build(nodes)) {
            panic!("routing index out of sync with the nodes: {diff}");
        }
        for (i, n) in nodes.iter().enumerate() {
            assert!(
                n.state != NodeState::Cold || n.load() == 0,
                "cold node {i} holds {} requests",
                n.load()
            );
            for c in &self.costs.borrow()[i] {
                let mut plan = None;
                let fresh = ColdCost {
                    model: c.model,
                    est_ns: c.est_ns.map(|_| self.price(n, c.model, &mut plan)),
                    plan: c
                        .plan
                        .as_ref()
                        .map(|_| self.registry.resolve(c.model, &n.chunks, self.profile)),
                };
                assert_eq!(*c, fresh, "stale cold-start price on node {i}");
            }
        }
    }
}

/// Queue-drain estimate of a node holding `load` sequences: `load`
/// batched decode steps at that batch size.
fn drain_of(profile: &FleetProfile, load: usize) -> u64 {
    load as u64
        * profile
            .perf
            .decode_duration((load as u32).max(1))
            .as_nanos()
}

/// One routing decision's read-only window onto the fleet: the request
/// (its model and KV need) plus index lookups over the nodes.
///
/// Lookups answer in the tie-breaking order the slice policies use:
/// [`RouteQuery::accepting`] walks nodes by `(load, id)`, and the cost
/// lookups break ties by id. [`RouteQuery::with_views`] builds the full
/// per-node views the slice methods read.
pub struct RouteQuery<'a> {
    router: &'a Router<'a>,
    nodes: &'a [Node],
    need: u64,
    model: u32,
}

impl<'a> RouteQuery<'a> {
    /// Model of the request being routed.
    pub fn model(&self) -> u32 {
        self.model
    }

    /// Runs `f` on one [`NodeView`] per node, exactly the views the slice
    /// methods are specified over. O(nodes); not re-entrant.
    pub fn with_views<R>(&self, f: impl FnOnce(&[NodeView]) -> R) -> R {
        let mut views = self.router.views.borrow_mut();
        views.clear();
        views.extend((0..self.nodes.len()).map(|i| self.view(i)));
        f(&views)
    }

    fn view(&self, i: usize) -> NodeView {
        let n = &self.nodes[i];
        NodeView {
            state: n.state,
            load: n.load(),
            cached: n.cache_holds(self.model),
            accepts: match n.state {
                NodeState::Cold => true,
                // A pipeline shard helper releases back to cold when its
                // shard lands, so work must never queue on it.
                NodeState::Starting | NodeState::Warm => {
                    n.model == Some(self.model) && n.pipeline_head.is_none() && self.fits(n)
                }
            },
            start_cost_ns: self.start_cost(i),
        }
    }

    /// Whether the request fits node `n`'s batch slots and KV capacity.
    fn fits(&self, n: &Node) -> bool {
        n.load() < self.router.max_running as usize
            && n.kv_tokens + self.need <= self.router.kv_capacity
    }

    /// Nodes in `state` that accept the request, as `(id, load)` in
    /// `(load, id)` order. Warm and Starting nodes must host the request's
    /// model, not be pipeline shard helpers, and have a free batch slot
    /// and room for its KV need; every Cold node accepts (at load 0).
    pub fn accepting(&self, state: NodeState) -> impl Iterator<Item = (usize, usize)> + 'a {
        let ix: &'a RoutingIndex = &self.router.index;
        let (live, cold) = match state {
            NodeState::Warm => (ix.warm.get(self.model as usize), None),
            NodeState::Starting => (ix.starting.get(self.model as usize), None),
            NodeState::Cold => (None, Some(&ix.cold)),
        };
        let (nodes, need) = (self.nodes, self.need);
        let (max_running, kv_capacity) =
            (self.router.max_running as usize, self.router.kv_capacity);
        let cold = cold.into_iter().flatten().map(|&i| (i, 0));
        let live = live
            .into_iter()
            .flatten()
            // Every later entry is at least as loaded.
            .take_while(move |&&(load, _)| load < max_running)
            .filter(move |&&(_, i)| nodes[i].kv_tokens + need <= kv_capacity)
            .map(|&(load, i)| (i, load));
        cold.chain(live)
    }

    /// The lowest-id Cold node whose cache holds the request's model.
    pub fn first_cold_cached(&self) -> Option<usize> {
        self.router
            .index
            .cold_cached
            .get(self.model as usize)?
            .first()
            .copied()
    }

    /// Estimated time until `node` could produce the request's first
    /// token, ns — [`NodeView::start_cost_ns`] of that node.
    pub fn start_cost(&self, node: usize) -> u64 {
        let n = &self.nodes[node];
        let drain = drain_of(self.router.profile, n.load());
        match n.state {
            NodeState::Warm => drain,
            NodeState::Cold => self.router.est_cold_ns(node, n, self.model),
            NodeState::Starting => self.router.est_cold_ns(node, n, self.model) / 2 + drain,
        }
    }

    /// The Cold node with the least `(start_cost, id)`, with its cost.
    ///
    /// Every Cold node holding artifacts is priced; the empty ones all
    /// price alike (nothing cached, nothing resident), so only the first
    /// of them is a candidate.
    pub fn cheapest_cold(&self) -> Option<(u64, usize)> {
        let ix = &self.router.index;
        let priced = |i: usize| (self.start_cost(i), i);
        let bare = ix
            .cold
            .iter()
            .copied()
            .find(|i| !ix.cold_stocked.contains(i));
        ix.cold_stocked
            .iter()
            .copied()
            .chain(bare)
            .map(priced)
            .min()
    }
}

/// One node of a [`RoutingState`]. Test support, not part of the stable
/// API.
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSetup {
    /// Lifecycle state.
    pub state: NodeState,
    /// Model the live instance hosts (ignored for Cold nodes).
    pub model: u32,
    /// Pending sequences (ignored for Cold nodes: they hold no work).
    pub load: usize,
    /// Reserved KV tokens.
    pub kv_tokens: u64,
    /// Models whose artifacts the node-local cache holds.
    pub cache: Vec<u32>,
    /// Whether the node is a pipeline shard helper (Starting nodes only).
    pub helper: bool,
}

/// A fleet routing state built directly from node descriptions, for
/// probing schedulers outside a simulation: [`RoutingState::query`] gives
/// the same [`RouteQuery`] the simulator hands to
/// [`crate::Scheduler::route_indexed`].
///
/// Test support, not part of the stable API: it exists so the
/// differential test of indexed routing can build arbitrary fleet states,
/// including ones the simulator never produces.
#[doc(hidden)]
pub struct RoutingState<'a> {
    router: Router<'a>,
    nodes: Vec<Node>,
}

impl<'a> RoutingState<'a> {
    /// Builds the state of a fleet shaped by `cluster` (its batch limit
    /// and registry mode; node specs are ignored) whose nodes are `setups`.
    pub fn new(profile: &'a FleetProfile, cluster: &ClusterSpec, setups: &[NodeSetup]) -> Self {
        let nodes: Vec<Node> = setups
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut n = Node::new(
                    NodeSpec {
                        gpu: "A100-40GB".to_string(),
                        tp: 1,
                        cached: false,
                    },
                    0,
                );
                n.state = s.state;
                n.kv_tokens = s.kv_tokens;
                n.cache = s
                    .cache
                    .iter()
                    .map(|&model| CacheEntry {
                        model,
                        bytes: profile.artifact_bytes_for(model),
                        last_used: 0,
                        uses: 1,
                    })
                    .collect();
                n.refresh_chunks(&cluster.registry_mode, profile);
                if s.state != NodeState::Cold {
                    n.model = Some(s.model);
                    n.pending = (0..s.load).collect();
                    n.pipeline_head = (s.helper && s.state == NodeState::Starting).then_some(i);
                }
                n
            })
            .collect();
        RoutingState {
            router: Router::new(profile, cluster, &nodes),
            nodes,
        }
    }

    /// The query for routing a request of `model` reserving `need` KV
    /// tokens.
    pub fn query(&self, need: u64, model: u32) -> RouteQuery<'_> {
        self.router.query(&self.nodes, need, model)
    }
}
