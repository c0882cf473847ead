//! Online kernel address restoration (paper §5): the `dlsym` path for
//! exported kernels and module enumeration for hidden ones, with
//! first-layer forwarding as the triggering-kernels that force the driver
//! to load the needed modules (§5.2).

use crate::artifact::MaterializedState;
use crate::error::{MedusaError, MedusaResult};
use medusa_gpu::{GpuError, ProcessRuntime};
use std::collections::{HashMap, HashSet};

/// How each kernel's address was restored, for reporting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResolutionStats {
    /// Kernels restored via `dlopen` + `dlsym` + `cudaGetFuncBySymbol`.
    pub via_dlsym: usize,
    /// Kernels restored via module enumeration after triggering.
    pub via_enumeration: usize,
}

/// Incrementally resolves materialized kernel names to device addresses.
///
/// A resolver serves one artifact at a time. Its first call on an artifact
/// walks every graph node once to build the artifact's unique kernel list
/// and the still-unresolved remainder; later calls on the same artifact
/// cost O(unique kernels), not O(nodes). A call with a different artifact
/// (told apart by its `graphs` buffer, graph count and per-graph node
/// counts) rebuilds the list. [`crate::restore_graph`] still rejects any
/// kernel missing from [`Self::addrs`].
#[derive(Debug, Default)]
pub struct KernelResolver {
    addrs: HashMap<(String, String), u64>,
    stats: ResolutionStats,
    kernels: Option<KernelList>,
}

/// The unique kernels of the artifact a resolver last served.
#[derive(Debug)]
struct KernelList {
    /// Address of the artifact's `graphs` buffer, compared, never followed.
    graphs: usize,
    node_counts: Vec<usize>,
    needed: Vec<(String, String, bool)>,
    /// Indices into `needed` not yet in the resolver's map, in order.
    unresolved: Vec<usize>,
}

impl KernelList {
    fn serves(&self, artifact: &MaterializedState) -> bool {
        self.graphs == artifact.graphs.as_ptr() as usize
            && self.node_counts.len() == artifact.graphs.len()
            && self
                .node_counts
                .iter()
                .zip(&artifact.graphs)
                .all(|(&n, g)| n == g.nodes.len())
    }
}

impl KernelResolver {
    /// Creates an empty resolver.
    pub fn new() -> Self {
        Self::default()
    }

    /// The resolved `(library, kernel) → address` map.
    pub fn addrs(&self) -> &HashMap<(String, String), u64> {
        &self.addrs
    }

    /// Resolution statistics.
    pub fn stats(&self) -> &ResolutionStats {
        &self.stats
    }

    /// The unique `(library, kernel, exported)` triples an artifact needs,
    /// in first-use order.
    pub fn needed(artifact: &MaterializedState) -> Vec<(String, String, bool)> {
        let mut seen: HashSet<(&str, &str)> = HashSet::new();
        let mut out = Vec::new();
        for g in &artifact.graphs {
            for n in &g.nodes {
                if seen.insert((&n.library, &n.kernel)) {
                    out.push((n.library.clone(), n.kernel.clone(), n.exported));
                }
            }
        }
        out
    }

    /// Builds the kernel list for `artifact` unless the resolver already
    /// holds it, and returns its unresolved remainder.
    fn refresh(&mut self, artifact: &MaterializedState) -> &[usize] {
        if !self.kernels.as_ref().is_some_and(|k| k.serves(artifact)) {
            let needed = Self::needed(artifact);
            let unresolved = (0..needed.len())
                .filter(|&i| {
                    let (l, k, _) = &needed[i];
                    !self.addrs.contains_key(&(l.clone(), k.clone()))
                })
                .collect();
            self.kernels = Some(KernelList {
                graphs: artifact.graphs.as_ptr() as usize,
                node_counts: artifact.graphs.iter().map(|g| g.nodes.len()).collect(),
                needed,
                unresolved,
            });
        }
        &self.kernels.as_ref().expect("just built").unresolved
    }

    /// Resolves every *exported* kernel through the `dlsym` path: `dlopen`
    /// the library, `dlsym` the mangled name, `cudaGetFuncBySymbol` to load
    /// its module and obtain the device address (paper §5, first path).
    ///
    /// Hidden kernels are skipped (they need triggering first); genuinely
    /// missing symbols are errors.
    ///
    /// # Errors
    ///
    /// Returns driver errors other than [`GpuError::SymbolHidden`].
    pub fn resolve_exported(
        &mut self,
        rt: &mut ProcessRuntime,
        artifact: &MaterializedState,
    ) -> MedusaResult<()> {
        self.refresh(artifact);
        let list = self.kernels.as_mut().expect("refreshed");
        let needed = &list.needed;
        let mut result = Ok(());
        list.unresolved.retain(|&i| {
            if result.is_err() {
                return true;
            }
            let (library, kernel, _) = &needed[i];
            match dlsym_address(rt, library, kernel) {
                Ok(Some(addr)) => {
                    self.addrs.insert((library.clone(), kernel.clone()), addr);
                    self.stats.via_dlsym += 1;
                    false
                }
                Ok(None) => true,
                Err(e) => {
                    result = Err(e);
                    true
                }
            }
        });
        result
    }

    /// Resolves remaining (hidden) kernels by enumerating every module the
    /// driver has loaded so far: `cuModuleEnumerateFunctions` +
    /// `cuFuncGetName` (paper §5, second path). Call after the
    /// triggering-kernels (first-layer warm-up/capture) have run.
    ///
    /// # Errors
    ///
    /// Returns driver errors from the enumeration APIs.
    pub fn resolve_by_enumeration(
        &mut self,
        rt: &mut ProcessRuntime,
        artifact: &MaterializedState,
    ) -> MedusaResult<()> {
        if self.refresh(artifact).is_empty() {
            return Ok(());
        }
        let mut by_name: HashMap<String, u64> = HashMap::new();
        for module in rt.loaded_modules() {
            for addr in rt.cu_module_enumerate_functions(module)? {
                let name = rt.cu_func_get_name(addr)?.to_string();
                by_name.insert(name, addr);
            }
        }
        let list = self.kernels.as_mut().expect("refreshed");
        let needed = &list.needed;
        list.unresolved.retain(|&i| {
            let (library, kernel, _) = &needed[i];
            let Some(&addr) = by_name.get(kernel) else {
                return true;
            };
            self.addrs.insert((library.clone(), kernel.clone()), addr);
            self.stats.via_enumeration += 1;
            false
        });
        Ok(())
    }

    /// Verifies every kernel the artifact references is resolved.
    ///
    /// # Errors
    ///
    /// Returns [`MedusaError::KernelUnresolved`] naming the first gap.
    pub fn ensure_complete(&mut self, artifact: &MaterializedState) -> MedusaResult<()> {
        let Some(&first) = self.refresh(artifact).first() else {
            return Ok(());
        };
        let list = self.kernels.as_ref().expect("refreshed");
        let (library, kernel, _) = list.needed[first].clone();
        Err(MedusaError::KernelUnresolved { library, kernel })
    }
}

/// One exported kernel's address through `dlopen` + `dlsym` +
/// `cudaGetFuncBySymbol`, or `None` if the symbol is hidden.
fn dlsym_address(
    rt: &mut ProcessRuntime,
    library: &str,
    kernel: &str,
) -> MedusaResult<Option<u64>> {
    let handle = rt.dlopen(library)?;
    match rt.dlsym(handle, kernel) {
        Ok(sym) => Ok(Some(rt.cuda_get_func_by_symbol(sym)?)),
        Err(GpuError::SymbolHidden { .. }) => Ok(None), // needs triggering
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::analysis::analyze;
    use crate::offline::capture::run_offline_capture;
    use crate::online::replay::{replay_allocations, restore_graph};
    use medusa_gpu::{CostModel, GpuSpec, SimTime};
    use medusa_graph::GraphExec;
    use medusa_model::{
        apply_weights, build_catalog, capture_first_layer_graph, load_weights, warmup_first_layer,
        KvView, ModelInstance, ModelSpec,
    };

    fn artifact() -> MaterializedState {
        artifact_of("Qwen1.5-0.5B")
    }

    fn artifact_of(model: &str) -> MaterializedState {
        let spec = ModelSpec::by_name(model).unwrap();
        let cap =
            run_offline_capture(&spec, GpuSpec::a100_40gb(), CostModel::default(), 31).unwrap();
        analyze(&cap, &CostModel::default()).unwrap().state
    }

    /// The original resolver, kept as the differential oracle: every call
    /// walks every node of every graph through [`Oracle::needed`].
    #[derive(Default)]
    struct Oracle {
        addrs: HashMap<(String, String), u64>,
        stats: ResolutionStats,
    }

    impl Oracle {
        fn needed(artifact: &MaterializedState) -> Vec<(String, String, bool)> {
            let mut seen = HashSet::new();
            let mut out = Vec::new();
            for g in &artifact.graphs {
                for n in &g.nodes {
                    if seen.insert((n.library.clone(), n.kernel.clone())) {
                        out.push((n.library.clone(), n.kernel.clone(), n.exported));
                    }
                }
            }
            out
        }
    }

    /// The resolver calls the restore loop makes, for both implementations.
    trait Resolve {
        fn exported(&mut self, rt: &mut ProcessRuntime, art: &MaterializedState);
        fn enumerate(&mut self, rt: &mut ProcessRuntime, art: &MaterializedState);
        fn complete(&mut self, art: &MaterializedState) -> bool;
        fn addrs(&self) -> &HashMap<(String, String), u64>;
        fn stats(&self) -> &ResolutionStats;
    }

    impl Resolve for KernelResolver {
        fn exported(&mut self, rt: &mut ProcessRuntime, art: &MaterializedState) {
            self.resolve_exported(rt, art).unwrap();
        }
        fn enumerate(&mut self, rt: &mut ProcessRuntime, art: &MaterializedState) {
            self.resolve_by_enumeration(rt, art).unwrap();
        }
        fn complete(&mut self, art: &MaterializedState) -> bool {
            self.ensure_complete(art).is_ok()
        }
        fn addrs(&self) -> &HashMap<(String, String), u64> {
            &self.addrs
        }
        fn stats(&self) -> &ResolutionStats {
            &self.stats
        }
    }

    impl Resolve for Oracle {
        fn exported(&mut self, rt: &mut ProcessRuntime, art: &MaterializedState) {
            for (library, kernel, _) in Self::needed(art) {
                if self.addrs.contains_key(&(library.clone(), kernel.clone())) {
                    continue;
                }
                let handle = rt.dlopen(&library).unwrap();
                match rt.dlsym(handle, &kernel) {
                    Ok(sym) => {
                        let addr = rt.cuda_get_func_by_symbol(sym).unwrap();
                        self.addrs.insert((library, kernel), addr);
                        self.stats.via_dlsym += 1;
                    }
                    Err(GpuError::SymbolHidden { .. }) => {}
                    Err(e) => panic!("{e}"),
                }
            }
        }
        fn enumerate(&mut self, rt: &mut ProcessRuntime, art: &MaterializedState) {
            let unresolved: Vec<(String, String)> = Self::needed(art)
                .into_iter()
                .filter(|(l, k, _)| !self.addrs.contains_key(&(l.clone(), k.clone())))
                .map(|(l, k, _)| (l, k))
                .collect();
            if unresolved.is_empty() {
                return;
            }
            let mut by_name: HashMap<String, u64> = HashMap::new();
            for module in rt.loaded_modules() {
                for addr in rt.cu_module_enumerate_functions(module).unwrap() {
                    let name = rt.cu_func_get_name(addr).unwrap().to_string();
                    by_name.insert(name, addr);
                }
            }
            for (library, kernel) in unresolved {
                if let Some(&addr) = by_name.get(&kernel) {
                    self.addrs.insert((library, kernel), addr);
                    self.stats.via_enumeration += 1;
                }
            }
        }
        fn complete(&mut self, art: &MaterializedState) -> bool {
            Self::needed(art)
                .into_iter()
                .all(|(l, k, _)| self.addrs.contains_key(&(l, k)))
        }
        fn addrs(&self) -> &HashMap<(String, String), u64> {
            &self.addrs
        }
        fn stats(&self) -> &ResolutionStats {
            &self.stats
        }
    }

    /// What one run of the restore loop observed.
    #[derive(Debug, PartialEq)]
    struct LoopOutcome {
        enumerated_at: Vec<usize>,
        failed_at: Vec<usize>,
        clock: SimTime,
        stats: ResolutionStats,
        addrs: HashMap<(String, String), u64>,
    }

    /// The pipeline's first-layer restore loop (`restore_all_graphs`) in a
    /// fresh process: `dlsym` first, then per graph the triggering-kernels
    /// and, while any kernel is missing, module enumeration.
    fn restore_loop(res: &mut impl Resolve, art: &MaterializedState, seed: u64) -> LoopOutcome {
        let spec = ModelSpec::by_name(&art.model).unwrap();
        let mut rt = ProcessRuntime::new(
            build_catalog(&spec),
            GpuSpec::a100_40gb(),
            CostModel::default(),
            seed,
        );
        let mut inst = ModelInstance::initialize_sharded(&mut rt, &spec, art.rank, art.tp).unwrap();
        let (layout, _) = replay_allocations(&mut rt, art).unwrap();
        let kv = layout.kv_view(16).unwrap();
        inst.bind_workspace(layout.workspace().unwrap());
        inst.bind_magic(layout.magic_pairs(spec.layers()).unwrap());
        apply_weights(&mut rt, &inst).unwrap();
        res.exported(&mut rt, art);
        let (mut enumerated_at, mut failed_at) = (Vec::new(), Vec::new());
        for (gi, gspec) in art.graphs.iter().enumerate() {
            warmup_first_layer(&mut rt, &mut inst, gspec.batch, &kv).unwrap();
            capture_first_layer_graph(&mut rt, &mut inst, gspec.batch, &kv).unwrap();
            if !res.complete(art) {
                res.enumerate(&mut rt, art);
                enumerated_at.push(gi);
            }
            let graph = restore_graph(gspec, &layout, res.addrs()).unwrap();
            // Addresses a reused resolver kept from another process are
            // stale here; both implementations must fail on the same graphs.
            if GraphExec::instantiate(&mut rt, graph).is_err() {
                failed_at.push(gi);
            }
        }
        assert!(res.complete(art));
        LoopOutcome {
            enumerated_at,
            failed_at,
            clock: rt.now(),
            stats: res.stats().clone(),
            addrs: res.addrs().clone(),
        }
    }

    #[test]
    fn kernel_list_resolver_matches_the_per_call_walk() {
        for model in ["Qwen1.5-0.5B", "Yi-9B"] {
            let art = artifact_of(model);
            let new = restore_loop(&mut KernelResolver::new(), &art, 5);
            let old = restore_loop(&mut Oracle::default(), &art, 5);
            assert!(!new.enumerated_at.is_empty(), "{model}: hidden kernels");
            assert!(new.failed_at.is_empty(), "{model}");
            assert_eq!(new, old, "{model}");
            assert_eq!(
                KernelResolver::needed(&art),
                Oracle::needed(&art),
                "{model}"
            );
            assert_eq!(
                new.stats.via_dlsym + new.stats.via_enumeration,
                Oracle::needed(&art).len(),
                "{model}"
            );
        }
    }

    #[test]
    fn a_reused_resolver_rebuilds_its_kernel_list() {
        let (qwen, yi) = (artifact_of("Qwen1.5-0.5B"), artifact_of("Yi-9B"));
        // A resolver that last served another artifact answers like a
        // fresh one.
        let mut touched = KernelResolver::new();
        assert!(touched.ensure_complete(&qwen).is_err());
        assert_eq!(
            restore_loop(&mut touched, &yi, 9),
            restore_loop(&mut KernelResolver::new(), &yi, 9)
        );
        // One that fully resolved another artifact (in another process)
        // keeps giving the old resolver's answers on the next.
        let (mut new, mut old) = (KernelResolver::new(), Oracle::default());
        for art in [&qwen, &yi, &qwen] {
            assert_eq!(
                restore_loop(&mut new, art, 9),
                restore_loop(&mut old, art, 9)
            );
        }
        // Same shape, one kernel renamed: only the `graphs` buffer differs.
        let mut renamed = qwen.clone();
        renamed.graphs[3].nodes[0].kernel = "not_in_any_library".into();
        assert!(matches!(
            new.ensure_complete(&renamed),
            Err(MedusaError::KernelUnresolved { kernel, .. }) if kernel == "not_in_any_library"
        ));
    }

    #[test]
    fn dlsym_path_resolves_exported_only() {
        let art = artifact();
        let spec = ModelSpec::by_name("Qwen1.5-0.5B").unwrap();
        let mut rt = ProcessRuntime::new(
            build_catalog(&spec),
            GpuSpec::a100_40gb(),
            CostModel::default(),
            99,
        );
        let mut res = KernelResolver::new();
        res.resolve_exported(&mut rt, &art).unwrap();
        assert!(res.stats().via_dlsym > 0);
        assert!(
            res.ensure_complete(&art).is_err(),
            "hidden GEMMs still missing"
        );
        // Enumeration without triggering finds nothing extra: the exported
        // path loaded framework modules, but cuBLAS modules are untouched.
        res.resolve_by_enumeration(&mut rt, &art).unwrap();
        assert!(matches!(
            res.ensure_complete(&art),
            Err(MedusaError::KernelUnresolved { .. })
        ));
    }

    #[test]
    fn needed_deduplicates_kernels_across_graphs() {
        let art = artifact();
        let needed = KernelResolver::needed(&art);
        let mut names: Vec<&String> = needed.iter().map(|(_, k, _)| k).collect();
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "needed() must deduplicate");
        // The model uses far fewer distinct kernels than nodes.
        assert!(total < art.stats.nodes as usize / 10);
    }

    #[test]
    fn resolution_is_idempotent() {
        let art = artifact();
        let spec = ModelSpec::by_name("Qwen1.5-0.5B").unwrap();
        let mut rt = ProcessRuntime::new(
            build_catalog(&spec),
            GpuSpec::a100_40gb(),
            CostModel::default(),
            111,
        );
        let mut res = KernelResolver::new();
        res.resolve_exported(&mut rt, &art).unwrap();
        let first = res.stats().via_dlsym;
        res.resolve_exported(&mut rt, &art).unwrap();
        assert_eq!(res.stats().via_dlsym, first, "second pass must be a no-op");
    }

    #[test]
    fn triggering_first_layer_completes_resolution() {
        let art = artifact();
        let spec = ModelSpec::by_name("Qwen1.5-0.5B").unwrap();
        let mut rt = ProcessRuntime::new(
            build_catalog(&spec),
            GpuSpec::a100_40gb(),
            CostModel::default(),
            100,
        );
        // Online process: structure init + weights, then first-layer warmup
        // as the triggering-kernels (using a dummy KV allocation here).
        let mut inst = ModelInstance::initialize(&mut rt, &spec).unwrap();
        load_weights(&mut rt, &inst, 1.0).unwrap();
        let k = rt.cuda_malloc(4096, medusa_gpu::AllocTag::KvCache).unwrap();
        let v = rt.cuda_malloc(4096, medusa_gpu::AllocTag::KvCache).unwrap();
        let bt = rt.cuda_malloc(256, medusa_gpu::AllocTag::KvCache).unwrap();
        for p in [k, v, bt] {
            rt.memory_mut().write_digest(p.addr(), [1; 16]).unwrap();
        }
        let kv = KvView {
            kcache: k,
            vcache: v,
            block_table: bt,
            block_size: 16,
        };

        let mut res = KernelResolver::new();
        res.resolve_exported(&mut rt, &art).unwrap();
        // Trigger each GEMM bucket: batch sizes hitting all four buckets.
        for b in [1, 8, 64, 256] {
            warmup_first_layer(&mut rt, &mut inst, b, &kv).unwrap();
        }
        res.resolve_by_enumeration(&mut rt, &art).unwrap();
        res.ensure_complete(&art).unwrap();
        assert!(
            res.stats().via_enumeration > 0,
            "hidden kernels resolved by enumeration"
        );
        // Paper §5: most kernels resolvable via dlsym (69.2% of nodes for
        // Llama2 13B); at the unique-kernel level both paths must be used.
        assert!(res.stats().via_dlsym >= 10);
    }
}
