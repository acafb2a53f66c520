//! Synthetic hierarchical Internet generator.
//!
//! The paper simulates attacks "on the real Internet topology" inferred from
//! RouteViews/RIPE tables. Those archives are not available offline, so this
//! module generates a structurally equivalent stand-in: a provider-free
//! tier-1 clique, multi-homed tier-2/tier-3 transit layers, a large stub
//! fringe, and a handful of *richly-peered content ASes* that reproduce the
//! paper's Figure 11 observation that "a small but well-connected enterprise
//! ISP can even intercept a Tier-1 ISP's traffic".
//!
//! Generation is fully deterministic given a seed, so experiments and benches
//! are reproducible.

use std::ops::Range;

use aspp_types::Asn;
use aspp_types::Relationship::{Peer, Provider};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::{AsGraph, AsGraphBuilder};

/// Pool size at which [`InternetConfig::build`] switches the peering sweep
/// from the all-pairs Bernoulli loop to target-count pair sampling. Every
/// legacy preset's pools sit below this, so their output is untouched.
const SPRINKLE_SAMPLE_THRESHOLD: usize = 2_048;

/// ASN block in which generated tier-1 ASes live (`100`, `101`, …).
pub const TIER1_BASE: u32 = 100;
/// ASN block for tier-2 transit ASes.
pub const TIER2_BASE: u32 = 1_000;
/// ASN block for tier-3 regional ASes.
pub const TIER3_BASE: u32 = 10_000;
/// ASN block for stub (edge) ASes.
pub const STUB_BASE: u32 = 20_000;
/// ASN block for richly-peered content ASes.
pub const CONTENT_BASE: u32 = 90_000;

/// Configuration for the synthetic Internet generator.
///
/// Use one of the presets ([`small`](InternetConfig::small),
/// [`medium`](InternetConfig::medium),
/// [`internet`](InternetConfig::internet)) and refine with the builder
/// methods.
///
/// # Example
///
/// ```
/// use aspp_topology::gen::InternetConfig;
/// use aspp_topology::tier::TierMap;
///
/// let graph = InternetConfig::small().seed(42).build();
/// let tiers = TierMap::classify(&graph);
/// // The core is a genuine clique, per the paper's tier-1 definition.
/// assert!(tiers.verify_tier1_clique(&graph).is_ok());
/// ```
#[derive(Clone, Debug)]
pub struct InternetConfig {
    num_tier1: usize,
    num_tier2: usize,
    num_tier3: usize,
    num_stubs: usize,
    num_content: usize,
    tier2_provider_range: (usize, usize),
    tier3_provider_range: (usize, usize),
    stub_provider_range: (usize, usize),
    tier2_peer_prob: f64,
    tier2_tier1_peer_prob: f64,
    tier3_peer_prob: f64,
    content_peer_fraction: f64,
    seed: u64,
}

impl InternetConfig {
    /// ~150-AS Internet: quick tests and doc examples.
    #[must_use]
    pub fn small() -> Self {
        InternetConfig {
            num_tier1: 6,
            num_tier2: 20,
            num_tier3: 40,
            num_stubs: 80,
            num_content: 3,
            tier2_provider_range: (2, 3),
            tier3_provider_range: (1, 3),
            stub_provider_range: (1, 2),
            tier2_peer_prob: 0.20,
            tier2_tier1_peer_prob: 0.25,
            tier3_peer_prob: 0.05,
            content_peer_fraction: 0.5,
            seed: 0,
        }
    }

    /// ~1500-AS Internet: the scale used for the paper-figure experiments.
    #[must_use]
    pub fn medium() -> Self {
        InternetConfig {
            num_tier1: 12,
            num_tier2: 120,
            num_tier3: 400,
            num_stubs: 950,
            num_content: 8,
            tier2_provider_range: (2, 4),
            tier3_provider_range: (1, 3),
            stub_provider_range: (1, 2),
            tier2_peer_prob: 0.08,
            tier2_tier1_peer_prob: 0.15,
            tier3_peer_prob: 0.01,
            content_peer_fraction: 0.4,
            seed: 0,
        }
    }

    /// ~80,000-AS Internet, CAIDA-shaped: a routing-system-scale topology
    /// (~80k ASes, ~500k links) for the `--scale internet` tier. Same
    /// power-law construction as the smaller presets; the provider draws go
    /// through the Fenwick fast path and the dense peering layers through
    /// target-count sampling, so it builds in ≈0.15 s (the
    /// `topology.generate` span of `aspp gen --scale internet --seed 2024`,
    /// median of 8 runs on a 2-core x86-64 with AVX2).
    ///
    /// Tier-3 is capped at 9,500 by the [`TIER3_BASE`]/[`STUB_BASE`] ASN
    /// block split; the stub fringe absorbs the difference, matching the
    /// real Internet's ~85% stub share.
    #[must_use]
    pub fn internet() -> Self {
        InternetConfig {
            num_tier1: 20,
            num_tier2: 4_000,
            num_tier3: 9_500,
            num_stubs: 66_000,
            num_content: 480,
            tier2_provider_range: (2, 4),
            tier3_provider_range: (1, 3),
            stub_provider_range: (1, 2),
            tier2_peer_prob: 0.015,
            tier2_tier1_peer_prob: 0.2,
            tier3_peer_prob: 0.003,
            content_peer_fraction: 0.015,
            seed: 0,
        }
    }

    /// Sets the RNG seed (default 0). Identical configs and seeds produce
    /// identical graphs.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of tier-1 core ASes (minimum 2).
    #[must_use]
    pub fn tier1_count(mut self, n: usize) -> Self {
        self.num_tier1 = n.max(2);
        self
    }

    /// Sets the number of tier-2 transit ASes.
    #[must_use]
    pub fn tier2_count(mut self, n: usize) -> Self {
        self.num_tier2 = n;
        self
    }

    /// Sets the number of tier-3 regional ASes.
    #[must_use]
    pub fn tier3_count(mut self, n: usize) -> Self {
        self.num_tier3 = n;
        self
    }

    /// Sets the number of stub ASes.
    #[must_use]
    pub fn stub_count(mut self, n: usize) -> Self {
        self.num_stubs = n;
        self
    }

    /// Sets the number of richly-peered content ASes.
    #[must_use]
    pub fn content_count(mut self, n: usize) -> Self {
        self.num_content = n;
        self
    }

    /// Total number of ASes this configuration will generate.
    #[must_use]
    pub fn total_ases(&self) -> usize {
        self.num_tier1 + self.num_tier2 + self.num_tier3 + self.num_stubs + self.num_content
    }

    /// Generates the topology.
    ///
    /// The result always satisfies: (1) tier-1 ASes form a full peering
    /// clique and have no providers; (2) every non-tier-1 AS has at least one
    /// provider, so the graph is connected through the core — a layer whose
    /// provider tier is empty buys transit from tier-1; (3) adjacency lists
    /// are sorted by ASN for deterministic iteration. A tier count that
    /// overruns its ASN block into the next one panics.
    #[must_use]
    pub fn build(&self) -> AsGraph {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut graph = AsGraphBuilder::with_capacity(self.total_ases());

        // Every AS up front, block by block, so each tier is a range of
        // dense indices and the phases below link by index.
        let mut next = 0;
        let mut block = |base: u32, n: usize| {
            for i in 0..n {
                let asn = Asn(base + i as u32);
                assert_eq!(graph.add_as(asn), next + i, "AS{asn} is in two ASN blocks");
            }
            next += n;
            next - n..next
        };
        let tier1 = block(TIER1_BASE, self.num_tier1);
        let tier2 = block(TIER2_BASE, self.num_tier2);
        let tier3 = block(TIER3_BASE, self.num_tier3);
        let stubs = block(STUB_BASE, self.num_stubs);
        let content = block(CONTENT_BASE, self.num_content);
        // Adjacent blocks: transit is tier-2 ∪ tier-3.
        let transit = tier2.start..tier3.end;
        let or_tier1 = |pool: &Range<usize>| if pool.is_empty() { &tier1 } else { pool }.clone();

        // 1. Tier-1 full peering clique.
        for a in tier1.clone() {
            for b in a + 1..tier1.end {
                graph.link(a, b, Peer).expect("fresh clique edge");
            }
        }

        // 2. Tier-2: multi-homed to tier-1, sparse mutual peering, and some
        //    settlement-free peering up into the tier-1 layer.
        let mut providers = ProviderPool::new(&graph, tier1.clone());
        for asn in tier2.clone() {
            providers.attach(&mut graph, &mut rng, asn, self.tier2_provider_range);
        }
        sprinkle_peering(&mut graph, &mut rng, tier2.clone(), self.tier2_peer_prob);
        for t2 in tier2.clone() {
            for t1 in tier1.clone() {
                if rng.gen_bool(self.tier2_tier1_peer_prob) {
                    // Skip pairs already linked as provider/customer.
                    let _ = graph.link(t2, t1, Peer);
                }
            }
        }

        // 3. Tier-3: multi-homed to tier-2, very sparse peering.
        let mut providers = ProviderPool::new(&graph, or_tier1(&tier2));
        for asn in tier3.clone() {
            providers.attach(&mut graph, &mut rng, asn, self.tier3_provider_range);
        }
        sprinkle_peering(&mut graph, &mut rng, tier3, self.tier3_peer_prob);

        // 4. Stubs: providers drawn from tier-2 ∪ tier-3.
        let mut providers = ProviderPool::new(&graph, or_tier1(&transit));
        for asn in stubs {
            providers.attach(&mut graph, &mut rng, asn, self.stub_provider_range);
        }

        // 5. Content ASes: one or two tier-2 providers plus rich peering
        //    across every layer, tier-1 included — the "well-connected
        //    enterprise" of the paper's Figure 11. A peering that lands on a
        //    tier-2 raises its weight for the next content AS's provider draw.
        let mut providers = ProviderPool::new(&graph, or_tier1(&tier2));
        let peer_pool = tier1.start..transit.end;
        let peer_count = ((peer_pool.len() as f64) * self.content_peer_fraction) as usize;
        let mut candidates: Vec<usize> = Vec::with_capacity(peer_pool.len());
        for asn in content {
            providers.attach(&mut graph, &mut rng, asn, (1, 2));
            // Each content AS shuffles the pool from its canonical order.
            candidates.clear();
            candidates.extend(peer_pool.clone());
            candidates.shuffle(&mut rng);
            for &peer in candidates.iter().take(peer_count) {
                // Skip pairs already linked as provider/customer.
                if graph.link(asn, peer, Peer).is_ok() {
                    providers.bump(peer);
                }
            }
        }

        graph.finish()
    }
}

/// Fenwick (binary-indexed) tree over the provider pool's attachment
/// weights: prefix-sum queries and point updates in O(log n), plus the
/// classic bit-descent [`find`](Self::find) that resolves a lottery ticket
/// to the element containing it — what lets [`ProviderPool`] draw without
/// rescanning its members.
struct WeightTree {
    tree: Vec<u64>,
}

impl WeightTree {
    fn from_weights(weights: &[u64]) -> Self {
        let mut t = WeightTree {
            tree: vec![0; weights.len() + 1],
        };
        for (i, &w) in weights.iter().enumerate() {
            t.increase(i, w);
        }
        t
    }

    fn len(&self) -> usize {
        self.tree.len() - 1
    }

    fn increase(&mut self, i: usize, delta: u64) {
        let mut j = i + 1;
        while j < self.tree.len() {
            self.tree[j] += delta;
            j += j & j.wrapping_neg();
        }
    }

    /// Removes `delta` from element `i`; `delta` must not exceed the
    /// element's current value.
    fn decrease(&mut self, i: usize, delta: u64) {
        let mut j = i + 1;
        while j < self.tree.len() {
            self.tree[j] -= delta;
            j += j & j.wrapping_neg();
        }
    }

    fn total(&self) -> u64 {
        let mut i = self.len();
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        sum
    }

    /// The 0-based index of the element whose cumulative weight range
    /// contains `ticket` — the smallest `i` with `prefix(i + 1) > ticket`.
    /// Zero-weight (already-chosen) elements are never returned.
    fn find(&self, mut ticket: u64) -> usize {
        let n = self.len();
        let mut pos = 0;
        let mut step = n.next_power_of_two();
        while step > 0 {
            let next = pos + step;
            if next <= n && self.tree[next] <= ticket {
                pos = next;
                ticket -= self.tree[next];
            }
            step >>= 1;
        }
        pos
    }
}

/// Preferential-attachment provider pool: a customer's providers are drawn
/// from the `members` index range with probability proportional to
/// degree + 1, which produces the heavy-tailed customer-cone distribution
/// of the real Internet (a few transit ASes become huge, most stay small).
///
/// `weights[i]` is member `members.start + i`'s degree + 1, kept current by
/// [`attach`](Self::attach) (a new customer link) and [`bump`](Self::bump)
/// (any other link that lands on a member), so each ticket resolves through
/// the [`WeightTree`] in O(log n) instead of a rescan of the pool. The RNG
/// calls are those of the per-customer linear scan — one
/// `gen_range(lo..=hi)` per customer, one `gen_range(0..total)` per draw
/// with the same running totals — so the graph is bit-for-bit the one that
/// scan builds.
struct ProviderPool {
    members: Range<usize>,
    weights: Vec<u64>,
    tree: WeightTree,
    chosen: Vec<usize>,
}

impl ProviderPool {
    fn new(graph: &AsGraphBuilder, members: Range<usize>) -> Self {
        let weights: Vec<u64> = members
            .clone()
            .map(|p| graph.degree_at(p) as u64 + 1)
            .collect();
        let tree = WeightTree::from_weights(&weights);
        ProviderPool {
            members,
            weights,
            tree,
            chosen: Vec::new(),
        }
    }

    /// Links the fresh node at `customer` to `lo..=hi` distinct members
    /// (fewer if the pool is smaller).
    fn attach(
        &mut self,
        graph: &mut AsGraphBuilder,
        rng: &mut StdRng,
        customer: usize,
        (lo, hi): (usize, usize),
    ) {
        let want = rng.gen_range(lo..=hi).min(self.members.len());
        self.chosen.clear();
        while self.chosen.len() < want {
            let total = self.tree.total() as usize;
            if total == 0 {
                break;
            }
            let ticket = rng.gen_range(0..total);
            let pick = self.tree.find(ticket as u64);
            // Zero the pick's weight so later draws for this customer
            // exclude it, exactly as the linear scan's `chosen` filter does.
            self.tree.decrease(pick, self.weights[pick]);
            self.chosen.push(pick);
        }
        for &pick in &self.chosen {
            let provider = self.members.start + pick;
            graph
                .link(customer, provider, Provider)
                .expect("a fresh customer links each distinct pick once");
            // Restore the weight, +1 for the degree the new link added.
            self.weights[pick] += 1;
            self.tree.increase(pick, self.weights[pick]);
        }
    }

    /// Records one new link on the node at `node` made outside
    /// [`attach`](Self::attach); a non-member is ignored.
    fn bump(&mut self, node: usize) {
        if self.members.contains(&node) {
            let i = node - self.members.start;
            self.weights[i] += 1;
            self.tree.increase(i, 1);
        }
    }
}

/// Peers each pair of `pool` with probability `prob`: one Bernoulli draw per
/// pair below [`SPRINKLE_SAMPLE_THRESHOLD`]. At or above it, where that would
/// burn O(n²) RNG draws, the sweep hits its expected edge count instead by
/// sampling random pairs until `round(pairs × prob)` distinct peerings
/// exist. Same density, different (still seeded, deterministic) RNG stream —
/// which is why only the internet-scale pools take that path.
fn sprinkle_peering(graph: &mut AsGraphBuilder, rng: &mut StdRng, pool: Range<usize>, prob: f64) {
    let n = pool.len();
    if n < SPRINKLE_SAMPLE_THRESHOLD {
        for a in pool.clone() {
            for b in a + 1..pool.end {
                if rng.gen_bool(prob) {
                    let _ = graph.link(a, b, Peer);
                }
            }
        }
        return;
    }
    let pairs = n * (n - 1) / 2;
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let target = ((pairs as f64) * prob).round() as usize;
    // Collisions (self-pairs, duplicates, existing links) are resampled; the
    // cap only guards against a target near the pool's saturation point,
    // which no preset approaches.
    let max_attempts = target.saturating_mul(8) + 1_024;
    let mut added = 0;
    for _ in 0..max_attempts {
        if added >= target {
            break;
        }
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        if i != j && graph.link(pool.start + i, pool.start + j, Peer).is_ok() {
            added += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier::TierMap;
    use aspp_types::Relationship;

    #[test]
    fn small_preset_shape() {
        let cfg = InternetConfig::small().seed(1);
        let g = cfg.build();
        assert_eq!(g.len(), cfg.total_ases());
        let tiers = TierMap::classify(&g);
        assert_eq!(tiers.tier1().count(), 6);
        assert!(tiers.verify_tier1_clique(&g).is_ok());
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = InternetConfig::small().seed(99).build();
        let b = InternetConfig::small().seed(99).build();
        let la: Vec<_> = a.links().collect();
        let lb: Vec<_> = b.links().collect();
        assert_eq!(la, lb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = InternetConfig::small().seed(1).build();
        let b = InternetConfig::small().seed(2).build();
        let la: Vec<_> = a.links().collect();
        let lb: Vec<_> = b.links().collect();
        assert_ne!(la, lb);
    }

    #[test]
    fn every_non_tier1_as_has_a_provider() {
        let g = InternetConfig::small().seed(3).build();
        for asn in g.asns() {
            let is_tier1 = (TIER1_BASE..TIER1_BASE + 100).contains(&asn.value());
            if !is_tier1 {
                assert!(
                    g.providers(asn).next().is_some(),
                    "AS{asn} should have a provider"
                );
            }
        }
    }

    #[test]
    fn all_ases_reachable_from_core() {
        let g = InternetConfig::small().seed(4).build();
        let tiers = TierMap::classify(&g);
        for asn in g.asns() {
            assert_ne!(
                tiers.tier_of(asn),
                Some(TierMap::UNREACHABLE),
                "AS{asn} unreachable from tier-1 core"
            );
        }
    }

    #[test]
    fn content_ases_are_richly_peered() {
        let g = InternetConfig::small().seed(5).build();
        let content = Asn(CONTENT_BASE);
        let peer_count = g.peers(content).count();
        let stub_peer_avg = (0..20)
            .map(|i| g.peers(Asn(STUB_BASE + i)).count())
            .sum::<usize>() as f64
            / 20.0;
        assert!(
            peer_count as f64 > stub_peer_avg + 5.0,
            "content AS should peer far more than stubs ({peer_count} vs avg {stub_peer_avg})"
        );
    }

    #[test]
    fn stubs_have_no_customers() {
        let g = InternetConfig::small().seed(6).build();
        for i in 0..80 {
            let stub = Asn(STUB_BASE + i);
            assert_eq!(g.customers(stub).count(), 0, "stub AS{stub} has customers");
        }
    }

    #[test]
    fn medium_preset_scales() {
        let cfg = InternetConfig::medium().seed(7);
        let g = cfg.build();
        assert_eq!(g.len(), cfg.total_ases());
        assert!(g.len() >= 1400);
        let tiers = TierMap::classify(&g);
        assert!(tiers.verify_tier1_clique(&g).is_ok());
        assert!(tiers.max_tier() >= 3);
    }

    #[test]
    fn builder_overrides_apply() {
        let g = InternetConfig::small()
            .tier1_count(4)
            .tier2_count(5)
            .tier3_count(5)
            .stub_count(10)
            .content_count(0)
            .seed(8)
            .build();
        assert_eq!(g.len(), 24);
        let tiers = TierMap::classify(&g);
        assert_eq!(tiers.tier1().count(), 4);
    }

    #[test]
    fn tier1_count_clamped_to_two() {
        let g = InternetConfig::small()
            .tier1_count(0)
            .tier2_count(2)
            .tier3_count(0)
            .stub_count(0)
            .content_count(0)
            .build();
        let tiers = TierMap::classify(&g);
        assert_eq!(tiers.tier1().count(), 2);
    }

    #[test]
    fn no_duplicate_links() {
        let g = InternetConfig::small().seed(10).build();
        let mut pairs: Vec<(Asn, Asn)> = g
            .links()
            .map(|(a, b, _)| if a < b { (a, b) } else { (b, a) })
            .collect();
        let before = pairs.len();
        pairs.sort();
        pairs.dedup();
        assert_eq!(pairs.len(), before);
    }

    /// The oracle for [`ProviderPool::attach`]: preferential attachment by
    /// a linear ticket scan over `pool`, reading each member's live degree.
    fn attach_providers_linear(
        graph: &mut AsGraphBuilder,
        rng: &mut StdRng,
        customer: Asn,
        pool: &[Asn],
        (lo, hi): (usize, usize),
    ) {
        graph.add_as(customer);
        let want = rng.gen_range(lo..=hi).min(pool.len());
        let mut chosen: Vec<Asn> = Vec::with_capacity(want);
        while chosen.len() < want {
            let total: usize = pool
                .iter()
                .filter(|p| !chosen.contains(p))
                .map(|&p| graph.degree(p) + 1)
                .sum();
            if total == 0 {
                break;
            }
            let mut ticket = rng.gen_range(0..total);
            let pick = pool
                .iter()
                .filter(|p| !chosen.contains(p))
                .find(|&&p| {
                    let w = graph.degree(p) + 1;
                    if ticket < w {
                        true
                    } else {
                        ticket -= w;
                        false
                    }
                })
                .copied()
                .expect("ticket is within total weight");
            chosen.push(pick);
        }
        for provider in chosen {
            graph
                .add_provider_customer(provider, customer)
                .expect("provider pool is disjoint from customer block");
        }
    }

    #[test]
    fn fenwick_batch_is_bit_identical_to_linear_scan() {
        // Same seed, same pool, same customers, in the content loop's shape:
        // each customer attaches, then peers with a few ASes drawn from the
        // pool and from outside it. The linear scan reads live degrees by
        // ASN; the Fenwick pool holds an index range and sees the peerings
        // only through `bump`. Both must consume the RNG identically and
        // build the identical graph — including the preferential-attachment
        // feedback as degrees grow.
        let pool: Vec<Asn> = (0..50).map(|i| Asn(TIER2_BASE + i)).collect();
        let others: Vec<Asn> = (0..20).map(|i| Asn(TIER3_BASE + i)).collect();
        let peers: Vec<Asn> = pool.iter().chain(&others).copied().collect();
        let customers: Vec<Asn> = (0..300).map(|i| Asn(CONTENT_BASE + i)).collect();
        // `peers[i]` sits at dense index `i`, so the pool is `0..50`.
        let pool_range = 0..pool.len();
        let fresh = || {
            let mut graph = AsGraphBuilder::with_capacity(370);
            for &asn in &peers {
                graph.add_as(asn);
            }
            // Uneven starting weights, so the pool's initial degrees count.
            for (i, &p) in pool.iter().enumerate().step_by(7) {
                graph.add_peering(p, others[i % others.len()]).unwrap();
            }
            graph
        };
        let peer_draws = |rng: &mut StdRng| -> Vec<usize> {
            let n = rng.gen_range(0..=4);
            (0..n).map(|_| rng.gen_range(0..peers.len())).collect()
        };

        let mut legacy = fresh();
        let mut rng = StdRng::seed_from_u64(77);
        for &c in &customers {
            attach_providers_linear(&mut legacy, &mut rng, c, &pool, (1, 3));
            for peer in peer_draws(&mut rng) {
                let _ = legacy.add_peering(c, peers[peer]);
            }
        }

        let mut fast = fresh();
        let mut providers = ProviderPool::new(&fast, pool_range.clone());
        let mut rng = StdRng::seed_from_u64(77);
        let mut bumps = 0;
        for &c in &customers {
            let customer = fast.add_as(c);
            providers.attach(&mut fast, &mut rng, customer, (1, 3));
            for peer in peer_draws(&mut rng) {
                if fast.link(customer, peer, Relationship::Peer).is_ok() {
                    providers.bump(peer);
                    bumps += usize::from(pool_range.contains(&peer));
                }
            }
        }
        assert!(bumps > 100, "the peerings must move pool weights ({bumps})");
        for (&p, &w) in pool.iter().zip(&providers.weights) {
            assert_eq!(w, fast.degree(p) as u64 + 1, "weight of AS{p}");
        }

        let legacy_links: Vec<_> = legacy.finish().links().collect();
        let fast_links: Vec<_> = fast.finish().links().collect();
        assert_eq!(legacy_links, fast_links);
    }

    #[test]
    fn an_empty_provider_tier_buys_transit_from_the_tier_above() {
        for tier3 in [40, 0] {
            let cfg = InternetConfig::small()
                .tier2_count(0)
                .tier3_count(tier3)
                .seed(1);
            let g = cfg.build();
            assert_eq!(g.len(), cfg.total_ases());
            let tiers = TierMap::classify(&g);
            assert!(tiers.verify_tier1_clique(&g).is_ok());
            for asn in g.asns() {
                if !(TIER1_BASE..TIER2_BASE).contains(&asn.value()) {
                    assert!(
                        g.providers(asn).next().is_some(),
                        "AS{asn} should have a provider (tier-3 count {tier3})"
                    );
                }
                assert_ne!(
                    tiers.tier_of(asn),
                    Some(TierMap::UNREACHABLE),
                    "AS{asn} unreachable from the core (tier-3 count {tier3})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "is in two ASN blocks")]
    fn overlapping_asn_blocks_are_rejected() {
        let _ = InternetConfig::small()
            .tier2_count((TIER3_BASE - TIER2_BASE) as usize + 1)
            .build();
    }

    #[test]
    fn preset_fingerprints_are_pinned_and_the_internet_is_well_formed() {
        // The topologies of `aspp gen --scale smoke|paper|internet --seed
        // 2024`, which the checked-in results were computed on.
        let [.., g] = [
            (InternetConfig::small(), 0x8225_a0ce_9ce3_02c1),
            (InternetConfig::medium(), 0xedfe_acae_17eb_a5c6),
            (InternetConfig::internet(), 0xb0f3_3d03_c69e_07e4),
        ]
        .map(|(cfg, want)| {
            let g = cfg.seed(2024).build();
            assert_eq!(g.fingerprint(), want);
            g
        });
        assert_eq!(g.len(), 80_000);
        let tiers = TierMap::classify(&g);
        assert_eq!(tiers.tier1().count(), 20);
        assert!(tiers.verify_tier1_clique(&g).is_ok());
        // No self-links or duplicate links anywhere, including the sampled
        // peering and unchecked provider-attachment fast paths.
        let mut pairs: Vec<(Asn, Asn)> = g
            .links()
            .map(|(a, b, _)| if a < b { (a, b) } else { (b, a) })
            .collect();
        for &(a, b) in &pairs {
            assert_ne!(a, b, "self-loop at AS{a}");
        }
        let before = pairs.len();
        pairs.sort();
        pairs.dedup();
        assert_eq!(pairs.len(), before, "duplicate links");
        // Every non-tier-1 AS bought transit, so the graph hangs together
        // through the core.
        for asn in g.asns() {
            if !(TIER1_BASE..TIER2_BASE).contains(&asn.value()) {
                assert!(
                    g.providers(asn).next().is_some(),
                    "AS{asn} should have a provider"
                );
            }
        }
    }

    #[test]
    fn sampled_peering_path_is_deterministic() {
        // tier3_count ≥ SPRINKLE_SAMPLE_THRESHOLD forces the sampled
        // peering sweep, which must stay seed-reproducible like the rest.
        let cfg = InternetConfig::small().tier3_count(2_500).stub_count(100);
        let a = cfg.clone().seed(21).build();
        let b = cfg.clone().seed(21).build();
        let la: Vec<_> = a.links().collect();
        let lb: Vec<_> = b.links().collect();
        assert_eq!(la, lb);
        let c = cfg.seed(22).build();
        let lc: Vec<_> = c.links().collect();
        assert_ne!(la, lc);
    }

    #[test]
    fn relationships_well_formed() {
        let g = InternetConfig::small().seed(11).build();
        for (a, b, rel) in g.links() {
            assert_eq!(g.relationship(a, b), Some(rel));
            assert_eq!(g.relationship(b, a), Some(rel.reverse()));
            assert_ne!(rel, Relationship::Sibling, "generator emits no siblings");
        }
    }
}
