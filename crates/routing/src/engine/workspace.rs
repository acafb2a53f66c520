//! Reusable per-thread pass state: the [`RouteWorkspace`] that owns the
//! delta pass's dirty and stale marks and the clean-pass cache.

use std::sync::Arc;

use aspp_obs::counters::{self, Counter};
use aspp_topology::AsGraph;
use aspp_types::Asn;

use super::propagate::AttackSeed;
use super::route::Pass;
use super::spec::DestinationSpec;
use super::sweep::{delta_pass, full_pass, Marks};
use crate::prepend::PrependConfig;

/// One memoized clean (no-attack) pass, keyed by everything that influences
/// it: the victim and the prepending configuration.
///
/// The pass itself is behind an [`Arc`] so a cache hit hands out a shared
/// reference instead of cloning the whole route table.
#[derive(Clone, Debug)]
struct CleanEntry {
    victim: Asn,
    prepend: Arc<PrependConfig>,
    pass: Arc<Pass>,
}

impl CleanEntry {
    /// Whether this entry is `spec`'s clean equilibrium.
    fn holds(&self, spec: &DestinationSpec) -> bool {
        (self.victim, &self.prepend) == spec.clean_key()
    }
}

/// Reusable per-thread scratch state for route computation.
///
/// [`RoutingEngine::compute`] starts from cold scratch state and, when an
/// attacker is present, recomputes the clean (no-attack) equilibrium for
/// every call. Sweeps — λ sweeps, attacker-placement sweeps, detection
/// evaluations — issue thousands of such calls against the same victim, so a
/// `RouteWorkspace` keeps two things alive across calls:
///
/// * the delta pass's dirty and stale marks, one bit per node, so they are
///   cleared instead of reallocated; and
/// * a small LRU cache of clean passes keyed by `(victim, prepending
///   config)`, whatever the attacker and the defense — each entry
///   `Arc`-shares its route table (hits never clone it), so repeated
///   computations over the same victim skip the redundant clean pass
///   entirely and give the **delta attacked pass** its starting
///   equilibrium for free.
///
/// Results are **bit-identical** to [`RoutingEngine::compute`]: the clean
/// pass is deterministic, so replaying a cached copy and recomputing it
/// produce the same routes, and the delta pass is exact. The cache
/// watches the graph's [`id`](AsGraph::id) and is dropped automatically if
/// the workspace is reused against a different graph.
///
/// A workspace is cheap to construct and intended to live one-per-thread;
/// it is `Send` but not shared (`&mut` access only).
///
/// [`RoutingEngine::compute`]: crate::RoutingEngine::compute
///
/// # Example
///
/// ```
/// use aspp_routing::{DestinationSpec, RouteWorkspace, RoutingEngine};
/// use aspp_topology::AsGraphBuilder;
/// use aspp_types::Asn;
///
/// let mut graph = AsGraphBuilder::new();
/// graph.add_provider_customer(Asn(1), Asn(2)).unwrap();
/// let graph = graph.finish();
/// let engine = RoutingEngine::new(&graph);
/// let mut ws = RouteWorkspace::new();
/// for pad in 1..4 {
///     let spec = DestinationSpec::new(Asn(2)).origin_padding(pad);
///     let outcome = engine.compute_with(&spec, &mut ws);
///     assert!(outcome.route(Asn(1)).is_some());
/// }
/// ```
#[derive(Debug)]
pub struct RouteWorkspace {
    marks: Marks,
    /// The largest graph, in nodes, the marks were sized for.
    sized: usize,
    clean_cache: Vec<CleanEntry>,
    cache_capacity: usize,
    /// [`AsGraph::id`] of the graph the cached passes were computed
    /// against: a workspace reused across graphs drops its stale cache
    /// instead of serving wrong routes.
    stamp: Option<u64>,
    hits: u64,
    misses: u64,
    delta_passes: u64,
    scratch_reuses: u64,
}

impl Default for RouteWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl RouteWorkspace {
    /// Clean-pass cache capacity used by [`new`](Self::new): large enough to
    /// hold every λ of a Figure-9-style sweep with room to spare, small
    /// enough that the linear key scan stays trivial.
    pub const DEFAULT_CACHE_CAPACITY: usize = 32;

    /// A workspace with the default clean-pass cache capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_cache_capacity(Self::DEFAULT_CACHE_CAPACITY)
    }

    /// A workspace whose clean-pass cache holds at most `capacity` passes
    /// (`0` disables caching; the marks are still reused).
    #[must_use]
    pub fn with_cache_capacity(capacity: usize) -> Self {
        RouteWorkspace {
            marks: Marks::default(),
            sized: 0,
            clean_cache: Vec::new(),
            cache_capacity: capacity,
            stamp: None,
            hits: 0,
            misses: 0,
            delta_passes: 0,
            scratch_reuses: 0,
        }
    }

    /// Drops all cached passes, keeping the configured capacity, the
    /// counters, and — deliberately — every scratch allocation (marks,
    /// cache slots), so a cleared workspace computes
    /// again without growing the heap.
    pub fn clear(&mut self) {
        self.clean_cache.clear();
        self.stamp = None;
    }

    /// Number of clean passes served from cache so far.
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.hits
    }

    /// Number of clean passes that had to be computed (cache misses, plus
    /// every pass when caching is disabled).
    #[must_use]
    pub fn cache_misses(&self) -> u64 {
        self.misses
    }

    /// Number of clean passes currently held in the cache.
    #[must_use]
    pub fn cached_passes(&self) -> usize {
        self.clean_cache.len()
    }

    /// Number of attacked passes computed, each by a delta pass.
    #[must_use]
    pub fn delta_passes(&self) -> u64 {
        self.delta_passes
    }

    /// Number of delta passes that started by clearing already-sized marks
    /// instead of growing them — the amortization the batch engine
    /// ([`crate::batch`]) buys by keeping one workspace alive across many
    /// victims. Full passes keep no marks here and are not counted.
    #[must_use]
    pub fn scratch_reuses(&self) -> u64 {
        self.scratch_reuses
    }

    /// The attacked pass `seed` seeds for `spec` (victim at node `v_idx`),
    /// by the delta pass from the clean table `clean`.
    pub(super) fn delta_pass(
        &mut self,
        graph: &AsGraph,
        spec: &DestinationSpec,
        v_idx: usize,
        seed: &AttackSeed,
        clean: &Pass,
    ) -> Pass {
        let n = graph.len();
        if self.sized < n {
            self.sized = n;
        } else if n > 0 {
            self.scratch_reuses += 1;
        }
        self.marks.reset(n);
        self.delta_passes += 1;
        let (pass, work) = delta_pass(graph, spec, v_idx, seed, clean, &mut self.marks);
        counters::incr(Counter::DeltaPass);
        counters::add(Counter::DeltaFrontierNode, work.visited);
        counters::add(Counter::PolicyReject, work.policy_rejects);
        pass
    }

    /// Looks up (or computes and caches) the clean equilibrium for `spec`.
    /// Hits cost one `Arc` bump — the route table itself is shared, never
    /// cloned. A capacity-0 workspace holds nothing, so every call misses.
    pub(super) fn clean_pass(
        &mut self,
        graph: &AsGraph,
        spec: &DestinationSpec,
        v_idx: usize,
    ) -> Arc<Pass> {
        if self.stamp != Some(graph.id()) {
            self.clean_cache.clear();
            self.stamp = Some(graph.id());
        }
        if let Some(pos) = self.clean_cache.iter().position(|e| e.holds(spec)) {
            self.hits += 1;
            counters::incr(Counter::CleanCacheHit);
            // Move-to-front LRU; the cache is small, so the rotate is cheap.
            self.clean_cache[..=pos].rotate_right(1);
            return Arc::clone(&self.clean_cache[0].pass);
        }
        self.misses += 1;
        counters::incr(Counter::CleanCacheMiss);
        let pass = Arc::new(full_pass(graph, spec, v_idx, None));
        if self.cache_capacity > 0 {
            self.clean_cache.truncate(self.cache_capacity - 1);
            let (victim, prepend) = spec.clean_key();
            self.clean_cache.insert(
                0,
                CleanEntry {
                    victim,
                    prepend: Arc::clone(prepend),
                    pass: Arc::clone(&pass),
                },
            );
        }
        pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests_support::facebook_graph;
    use crate::engine::{AttackerModel, RoutingEngine};
    use aspp_topology::gen::InternetConfig;
    use aspp_topology::AsGraphBuilder;
    use aspp_types::{well_known, Relationship, RouteClass};

    #[test]
    fn workspace_results_bit_identical_with_cache_hits() {
        let graph = InternetConfig::small().seed(5).build();
        let engine = RoutingEngine::new(&graph);
        let asns: Vec<Asn> = graph.asns().collect();
        let (victim, attacker) = (asns[3], asns[asns.len() - 2]);
        assert_ne!(victim, attacker);
        let mut ws = RouteWorkspace::new();
        for _round in 0..3 {
            for pad in 1..5 {
                let spec = DestinationSpec::new(victim)
                    .origin_padding(pad)
                    .attacker(AttackerModel::new(attacker));
                let fresh = engine.compute(&spec);
                let reused = engine.compute_with(&spec, &mut ws);
                for asn in graph.asns() {
                    assert_eq!(fresh.route(asn), reused.route(asn));
                    assert_eq!(fresh.observed_path(asn), reused.observed_path(asn));
                }
            }
        }
        // Four distinct (victim, padding) keys; rounds two and three hit.
        assert_eq!(ws.cache_misses(), 4);
        assert_eq!(ws.cache_hits(), 8);
    }

    #[test]
    fn workspace_cache_dropped_on_graph_mutation() {
        use well_known::*;
        let graph = facebook_graph();
        let mut ws = RouteWorkspace::new();
        {
            let engine = RoutingEngine::new(&graph);
            let spec = DestinationSpec::new(FACEBOOK).origin_padding(2);
            let _ = engine.compute_with(&spec, &mut ws);
            let _ = engine.compute_with(&spec, &mut ws);
            assert_eq!(ws.cache_hits(), 1);
        }
        // A derived graph: the same ASes at the same indices, one link more.
        let mut builder = graph.to_builder();
        builder.add_provider_customer(ATT, Asn(65_000)).unwrap();
        let graph = builder.finish();
        {
            let engine = RoutingEngine::new(&graph);
            let spec = DestinationSpec::new(FACEBOOK).origin_padding(2);
            let out = engine.compute_with(&spec, &mut ws);
            assert!(out.route(Asn(65_000)).is_some());
            assert_eq!(ws.cache_hits(), 1, "stale pass must not be served");
            assert_eq!(ws.cached_passes(), 1);
        }
    }

    /// Two graphs with the same ASNs and as many links, built into one
    /// binding (so at one address), differ only in how AS1 and AS2 relate:
    /// a workspace reused across them must not serve the first graph's
    /// clean pass for the second.
    #[test]
    fn reassigned_graph_at_the_same_address_is_not_served_from_cache() {
        let build = |rel_of_2| {
            let mut builder = AsGraphBuilder::new();
            builder.add_link(Asn(1), Asn(2), rel_of_2).unwrap();
            builder.add_provider_customer(Asn(2), Asn(3)).unwrap();
            builder.finish()
        };
        let spec = DestinationSpec::new(Asn(3));
        let mut ws = RouteWorkspace::new();
        let mut graph = build(Relationship::Customer);
        let first = RoutingEngine::new(&graph)
            .compute_with(&spec, &mut ws)
            .route(Asn(1));
        assert_eq!(first.unwrap().class, RouteClass::FromCustomer);

        graph = build(Relationship::Provider);
        let hits = ws.cache_hits();
        let engine = RoutingEngine::new(&graph);
        let warm = engine.compute_with(&spec, &mut ws);
        let cold = engine.compute(&spec);
        assert_eq!(cold.route(Asn(1)).unwrap().class, RouteClass::FromProvider);
        for asn in graph.asns() {
            assert_eq!(warm.route(asn), cold.route(asn), "route of AS{asn}");
        }
        assert_eq!(
            ws.cache_hits(),
            hits,
            "no pass of the first graph is served"
        );
    }

    #[test]
    fn workspace_cache_respects_capacity() {
        let g = facebook_graph();
        let engine = RoutingEngine::new(&g);
        let mut ws = RouteWorkspace::with_cache_capacity(2);
        for pad in [1usize, 2, 3, 1] {
            let spec = DestinationSpec::new(well_known::FACEBOOK).origin_padding(pad);
            let _ = engine.compute_with(&spec, &mut ws);
        }
        // LRU of capacity 2: pad=1 was evicted by pad=3, so the final pad=1
        // call misses again.
        assert_eq!(ws.cached_passes(), 2);
        assert_eq!(ws.cache_hits(), 0);
        assert_eq!(ws.cache_misses(), 4);
        ws.clear();
        assert_eq!(ws.cached_passes(), 0);
    }
}
