//! Synthetic public-monitor corpus generation.

use aspp_routing::events::{random_tree_link, updates_after_failure};
use aspp_routing::{DestinationSpec, PrependConfig, PrependingPolicy, RoutingEngine};
use aspp_topology::tier::TierMap;
use aspp_topology::AsGraph;
use aspp_types::{Asn, Ipv4Prefix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::format::{Corpus, UpdateAction, UpdateRecord};

/// Distribution of padding depth (extra copies beyond the mandatory one):
/// a geometric body with a small heavy tail.
#[derive(Clone, Copy, Debug, PartialEq)]
struct DepthDistribution {
    /// Success probability of the geometric body; higher = shallower pads.
    geometric_p: f64,
    /// Probability of drawing from the heavy tail instead.
    heavy_tail_rate: f64,
    /// Upper bound (inclusive) for heavy-tail draws.
    heavy_tail_max: usize,
}

/// Origin padding depth, calibrated against the paper's Figure 6 ("most of
/// them are very small: 34% repeat twice and 22% repeat three times … 1% of
/// them repeat larger than 10 times"): with p = 0.35 the geometric body
/// gives ≈35% of padded routes two copies and ≈23% three, decaying so that
/// ≈1–2% exceed ten; the explicit heavy tail adds the >30-copy outliers the
/// paper observed.
const ORIGIN_DEPTH: DepthDistribution = DepthDistribution {
    geometric_p: 0.35,
    heavy_tail_rate: 0.005,
    heavy_tail_max: 30,
};

/// Fraction of origins that pad at all.
const ORIGIN_PAD_RATE: f64 = 0.20;

/// Among padding origins, the share padding uniformly toward every
/// neighbor; the rest pad only their backup providers.
const ORIGIN_UNIFORM_SHARE: f64 = 0.3;

/// Fraction of peered transit ASes padding their peer exports.
const INTERMEDIARY_PAD_RATE: f64 = 0.06;

/// Intermediary peer-export padding depth: shallow, no heavy tail.
const INTERMEDIARY_DEPTH: DepthDistribution = DepthDistribution {
    geometric_p: 0.7,
    heavy_tail_rate: 0.0,
    heavy_tail_max: 10,
};

impl DepthDistribution {
    /// Samples the number of *extra* copies (≥ 1).
    fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        if rng.gen_bool(self.heavy_tail_rate.clamp(0.0, 1.0)) {
            return rng.gen_range(10..=self.heavy_tail_max.max(10));
        }
        // Geometric: number of failures before first success, shifted to ≥1.
        let mut depth = 1;
        while depth < 30 && !rng.gen_bool(self.geometric_p.clamp(0.01, 1.0)) {
            depth += 1;
        }
        depth
    }
}

/// Configuration of the corpus generator.
///
/// # Example
///
/// ```
/// use aspp_data::CorpusConfig;
/// use aspp_topology::gen::InternetConfig;
///
/// let graph = InternetConfig::small().seed(1).build();
/// let corpus = CorpusConfig::new(25).monitors_top_degree(20).seed(4).generate(&graph);
/// assert_eq!(corpus.monitors().count(), 20);
/// assert!(corpus.table_entry_count() > 0);
/// ```
#[derive(Clone, Debug)]
pub struct CorpusConfig {
    prefixes: usize,
    monitor_count: usize,
    seed: u64,
}

impl CorpusConfig {
    /// A corpus over `prefixes` prefixes with paper-calibrated padding:
    /// ~20% of origins pad (70% of them differentially), ~6% of peered
    /// transit ASes pad their peer exports, and one churn event is simulated
    /// per four prefixes.
    #[must_use]
    pub fn new(prefixes: usize) -> Self {
        CorpusConfig {
            prefixes,
            monitor_count: 30,
            seed: 0,
        }
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of monitors contributing tables (default 30): half the
    /// highest-degree ASes, half drawn at random from the rest (see
    /// [`sample_monitors`]).
    #[must_use]
    pub fn monitors_top_degree(mut self, count: usize) -> Self {
        self.monitor_count = count;
        self
    }

    /// Runs the generator: picks origins, assigns prepending policies,
    /// computes per-prefix equilibria, snapshots monitor tables, and
    /// simulates churn for the update stream.
    #[must_use]
    pub fn generate(&self, graph: &AsGraph) -> Corpus {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut corpus = Corpus::new();
        let monitors = sample_monitors(graph, self.monitor_count, &mut rng);

        // Intermediary peer-export padding, shared across prefixes.
        let tiers = TierMap::classify(graph);
        let mut base_config = PrependConfig::new();
        let transit: Vec<Asn> = graph
            .asns()
            .filter(|&a| {
                !tiers.is_stub(graph, a)
                    && tiers.tier_of(a).unwrap_or(1) > 1
                    && graph.peers(a).next().is_some()
            })
            .collect();
        for &asn in &transit {
            if rng.gen_bool(INTERMEDIARY_PAD_RATE) {
                let depth = INTERMEDIARY_DEPTH.sample(&mut rng);
                let overrides: Vec<(Asn, usize)> = graph.peers(asn).map(|p| (p, depth)).collect();
                base_config.set(asn, PrependingPolicy::per_neighbor(0, overrides));
            }
        }

        // Origins: one /24 each.
        let origins = sample_origins(graph, self.prefixes, &mut rng);

        let engine = RoutingEngine::new(graph);
        let churn_events = self.prefixes / 4;
        let mut seq = 0u64;
        for (i, &origin) in origins.iter().enumerate() {
            let prefix = Ipv4Prefix::synthetic_24(i);
            let mut config = base_config.clone();
            // For differential padders, remember the clean primary provider:
            // failing that link is what exposes the padded backup routes in
            // the update stream (the paper's "backup route provisioning").
            let mut clean_primary: Option<Asn> = None;
            if rng.gen_bool(ORIGIN_PAD_RATE) {
                let depth = ORIGIN_DEPTH.sample(&mut rng);
                if rng.gen_bool(ORIGIN_UNIFORM_SHARE) {
                    config.set(origin, PrependingPolicy::Uniform(depth));
                } else {
                    // Differential: keep the lowest-ASN provider clean, pad
                    // the rest.
                    let providers: Vec<Asn> = graph.providers(origin).collect();
                    let overrides: Vec<(Asn, usize)> =
                        providers.iter().skip(1).map(|&p| (p, depth)).collect();
                    if overrides.is_empty() {
                        config.set(origin, PrependingPolicy::Uniform(depth));
                    } else {
                        config.set(origin, PrependingPolicy::per_neighbor(0, overrides));
                        clean_primary = providers.first().copied();
                    }
                }
            }
            let spec = DestinationSpec::new(origin).prepend_config(config);
            let outcome = engine.compute(&spec);
            for &monitor in &monitors {
                if monitor == origin {
                    continue;
                }
                if let Some(path) = outcome.observed_path(monitor) {
                    corpus.add_table_entry(monitor, prefix, path);
                }
            }

            // Churn: every differentially-padded origin loses its clean
            // primary provider link (the failure mode that makes padded
            // backup routes visible in updates — Section VI-A), and a subset
            // of other prefixes lose a random provider link.
            let periodic = churn_events > 0 && i % (self.prefixes / churn_events).max(1) == 0;
            if clean_primary.is_some() || periodic {
                let providers: Vec<Asn> = graph.providers(origin).collect();
                let failed = clean_primary
                    .map(|p| (p, origin))
                    .or_else(|| providers.choose(&mut rng).map(|&p| (p, origin)))
                    .or_else(|| random_tree_link(&outcome, &mut rng));
                if let Some((a, b)) = failed {
                    for update in updates_after_failure(&outcome, a, b) {
                        if !monitors.contains(&update.asn) {
                            continue;
                        }
                        seq += 1;
                        corpus.add_update(UpdateRecord {
                            seq,
                            monitor: update.asn,
                            prefix,
                            action: match update.new_path {
                                Some(p) => UpdateAction::Announce(p),
                                None => UpdateAction::Withdraw,
                            },
                        });
                    }
                }
            }
        }
        corpus
    }
}

/// Draws `count` route monitors mixing the core and the edge, like the real
/// RouteViews/RIPE peer set: half are the best-connected ASes, half are
/// sampled from the rest of the population. Shared by every generator that
/// places monitors, so equal seeds give them equal monitor sets.
#[must_use]
pub fn sample_monitors<R: Rng>(graph: &AsGraph, count: usize, rng: &mut R) -> Vec<Asn> {
    let ranked = graph.asns_by_degree();
    let top = count / 2;
    let mut monitors: Vec<Asn> = ranked.iter().take(top).copied().collect();
    let mut rest: Vec<Asn> = ranked.iter().skip(top).copied().collect();
    rest.shuffle(rng);
    monitors.extend(rest.into_iter().take(count - top));
    monitors
}

/// Draws `count` distinct prefix origins: a shuffle of every AS in ASN
/// order, so the sample depends on the seed alone, not on graph layout.
#[must_use]
pub fn sample_origins<R: Rng>(graph: &AsGraph, count: usize, rng: &mut R) -> Vec<Asn> {
    let mut all: Vec<Asn> = graph.asns().collect();
    all.shuffle(rng);
    all.truncate(count);
    all
}

/// Returns the subset of `corpus` monitors that are tier-1 in `graph` —
/// Figure 5 plots their fraction CDF separately.
#[must_use]
pub fn tier1_monitors(graph: &AsGraph, corpus: &Corpus) -> Vec<Asn> {
    let tiers = TierMap::classify(graph);
    corpus
        .monitors()
        .filter(|&m| tiers.tier_of(m) == Some(1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspp_topology::gen::InternetConfig;

    #[test]
    fn depth_distribution_in_range() {
        let d = ORIGIN_DEPTH;
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..500 {
            let depth = d.sample(&mut rng);
            assert!((1..=30).contains(&depth));
        }
    }

    #[test]
    fn depth_distribution_mostly_small() {
        let d = ORIGIN_DEPTH;
        let mut rng = StdRng::seed_from_u64(2);
        let samples: Vec<usize> = (0..2000).map(|_| d.sample(&mut rng)).collect();
        let small = samples.iter().filter(|&&s| s <= 3).count();
        assert!(small as f64 / 2000.0 > 0.6, "most pads are shallow");
        let huge = samples.iter().filter(|&&s| s >= 10).count();
        assert!(huge > 0, "heavy tail exists");
    }

    #[test]
    fn depth_distribution_respects_parameter_extremes() {
        let shallow = DepthDistribution {
            geometric_p: 1.0,
            heavy_tail_rate: 0.0,
            heavy_tail_max: 30,
        };
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..100 {
            assert_eq!(shallow.sample(&mut rng), 1);
        }
        let deep = DepthDistribution {
            geometric_p: 0.01,
            heavy_tail_rate: 1.0,
            heavy_tail_max: 12,
        };
        for _ in 0..100 {
            let d = deep.sample(&mut rng);
            assert!((10..=12).contains(&d), "forced heavy tail: {d}");
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let g = InternetConfig::small().seed(5).build();
        let a = CorpusConfig::new(15).seed(3).generate(&g);
        let b = CorpusConfig::new(15).seed(3).generate(&g);
        assert_eq!(a, b);
    }

    #[test]
    fn tables_cover_monitors_and_prefixes() {
        let g = InternetConfig::small().seed(6).build();
        let corpus = CorpusConfig::new(20)
            .monitors_top_degree(12)
            .seed(4)
            .generate(&g);
        assert_eq!(corpus.monitors().count(), 12);
        for (_, table) in corpus.tables() {
            assert!(table.len() >= 19, "every monitor sees nearly all prefixes");
        }
    }

    #[test]
    fn calibrated_padding_is_visible_but_rare() {
        let g = InternetConfig::small().seed(7).build();
        let corpus = CorpusConfig::new(30).seed(5).generate(&g);
        let entries: Vec<bool> = corpus
            .tables()
            .flat_map(|(_, t)| t.iter().map(|(_, p)| p.has_prepending()))
            .collect();
        let padded = entries.iter().filter(|&&b| b).count();
        assert!(padded > 0, "origin and peer-export padding is visible");
        assert!(padded * 2 < entries.len(), "most routes carry no padding");
    }

    #[test]
    fn churn_produces_updates() {
        let g = InternetConfig::small().seed(8).build();
        let corpus = CorpusConfig::new(40).seed(6).generate(&g);
        assert!(!corpus.updates().is_empty(), "churn must generate updates");
        // Sequence numbers are strictly increasing.
        let seqs: Vec<u64> = corpus.updates().iter().map(|u| u.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn tier1_monitor_extraction() {
        let g = InternetConfig::small().seed(9).build();
        let corpus = CorpusConfig::new(10)
            .monitors_top_degree(20)
            .seed(7)
            .generate(&g);
        let t1 = tier1_monitors(&g, &corpus);
        assert!(!t1.is_empty());
        for m in t1 {
            assert!(g.providers(m).next().is_none());
        }
    }
}
