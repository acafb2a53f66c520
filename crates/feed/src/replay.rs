//! Synthetic paper-scale update-stream generation for the feed pipeline.
//!
//! Where `aspp-data`'s corpus generator models the *archival* view (RIB
//! snapshots plus organic churn), this driver
//! models the *live* view the detection service would drink from: many
//! prefixes flapping, withdrawing and re-announcing concurrently, with ASPP
//! interception episodes (Section III of the paper) injected against a
//! configurable fraction of prefixes and the per-prefix episodes interleaved
//! into one bursty, seq-ordered stream — the shape a multiplexed collector
//! session actually has.

use aspp_data::{sample_monitors, sample_origins, Corpus, UpdateAction, UpdateRecord};
use aspp_routing::{
    AttackerModel, DestinationSpec, PrependConfig, PrependingPolicy, RouteWorkspace, RoutingEngine,
    RoutingOutcome,
};
use aspp_topology::AsGraph;
use aspp_types::{Asn, Ipv4Prefix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Benign duplicate-announcement flap rounds per prefix.
const FLAP_REPEATS: usize = 2;

/// Extra origin copies forced onto attacked prefixes so there is something
/// to strip; the other prefixes pad with 40% probability, `1..=PADDING`
/// copies.
const PADDING: usize = 3;

/// `ratio` clamped to [0, 1], with NaN (which `clamp` passes through, and
/// the generator's Bernoulli draws reject) read as 0.
fn unit(ratio: f64) -> f64 {
    if ratio.is_nan() {
        0.0
    } else {
        ratio.clamp(0.0, 1.0)
    }
}

/// One injected interception in a [`SyntheticFeed`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InjectedAttack {
    /// The victim prefix.
    pub prefix: Ipv4Prefix,
    /// The prefix's origin AS.
    pub victim: Asn,
    /// The on-path AS stripping the origin's padding.
    pub attacker: Asn,
}

/// A generated stream: RIB seeds + interleaved updates + attack ground
/// truth.
#[derive(Clone, Debug)]
pub struct SyntheticFeed {
    /// RIB snapshots (the pipeline's seed state) and the update stream.
    pub corpus: Corpus,
    /// Ground truth: prefixes carrying an injected interception that
    /// actually changed at least one monitor's route.
    pub attacks: Vec<InjectedAttack>,
}

impl SyntheticFeed {
    /// The interleaved update stream, in ascending `seq` order.
    #[must_use]
    pub fn updates(&self) -> &[UpdateRecord] {
        self.corpus.updates()
    }
}

/// Configuration of the synthetic stream generator.
///
/// # Example
///
/// ```
/// use aspp_feed::replay::ReplayConfig;
/// use aspp_topology::gen::InternetConfig;
///
/// let graph = InternetConfig::small().seed(1).build();
/// let feed = ReplayConfig::new(10).seed(7).generate(&graph);
/// assert!(!feed.updates().is_empty());
/// let again = ReplayConfig::new(10).seed(7).generate(&graph);
/// assert_eq!(feed.corpus, again.corpus);
/// ```
#[derive(Clone, Debug)]
pub struct ReplayConfig {
    prefixes: usize,
    monitor_count: usize,
    attack_ratio: f64,
    withdraw_ratio: f64,
    burst_max: usize,
    seed: u64,
}

impl ReplayConfig {
    /// A stream over `prefixes` prefixes with defaults calibrated to the
    /// corpus generator: 30 monitors, 15% of prefixes attacked, 30% seeing
    /// a withdraw/re-announce episode, two benign flap rounds, λ = 4
    /// origin padding on attacked prefixes.
    #[must_use]
    pub fn new(prefixes: usize) -> Self {
        ReplayConfig {
            prefixes,
            monitor_count: 30,
            attack_ratio: 0.15,
            withdraw_ratio: 0.3,
            burst_max: 4,
            seed: 0,
        }
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of monitors observing the stream (default 30): half the
    /// highest-degree ASes, half drawn at random from the rest, the corpus
    /// generator's [`sample_monitors`].
    #[must_use]
    pub fn monitors_top_degree(mut self, count: usize) -> Self {
        self.monitor_count = count;
        self
    }

    /// Fraction of prefixes receiving an injected interception episode
    /// (default 0.15), clamped to [0, 1]; NaN reads as 0.
    #[must_use]
    pub fn attack_ratio(mut self, ratio: f64) -> Self {
        self.attack_ratio = unit(ratio);
        self
    }

    /// Fraction of prefixes receiving a withdraw/re-announce episode
    /// (default 0.3), clamped to [0, 1]; NaN reads as 0.
    #[must_use]
    pub fn withdraw_ratio(mut self, ratio: f64) -> Self {
        self.withdraw_ratio = unit(ratio);
        self
    }

    /// Builds one prefix's episode queue (in emission order): benign flaps,
    /// an optional withdraw/re-announce episode, an optional interception
    /// episode with 50% recovery. Returns the ground-truth attacker when
    /// the interception changed at least one monitor's route.
    #[allow(clippy::too_many_arguments)]
    fn episodes(
        &self,
        engine: &RoutingEngine<'_>,
        ws: &mut RouteWorkspace,
        rng: &mut StdRng,
        spec: &DestinationSpec,
        clean: &RoutingOutcome<'_>,
        seen_by: &[Asn],
        attacked: bool,
        origin: Asn,
    ) -> (Vec<(Asn, UpdateAction)>, Option<Asn>) {
        let mut queue: Vec<(Asn, UpdateAction)> = Vec::new();
        let mut ground_truth = None;

        // Benign churn: duplicate re-announcements from a monitor subset —
        // the detector must stay silent and idempotent through these.
        for _ in 0..FLAP_REPEATS {
            for &monitor in seen_by {
                if rng.gen_bool(0.2) {
                    let path = clean.observed_path(monitor).expect("seeded monitor");
                    queue.push((monitor, UpdateAction::Announce(path)));
                }
            }
        }

        // Withdraw/re-announce episode: state teardown and rebuild.
        if rng.gen_bool(self.withdraw_ratio) {
            let mut chosen: Vec<Asn> = seen_by
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.3))
                .collect();
            if chosen.is_empty() {
                chosen.push(seen_by[0]);
            }
            for &monitor in &chosen {
                queue.push((monitor, UpdateAction::Withdraw));
            }
            for &monitor in &chosen {
                let path = clean.observed_path(monitor).expect("seeded monitor");
                queue.push((monitor, UpdateAction::Announce(path)));
            }
        }

        // Interception episode: an on-path AS strips the padding; the route
        // changes reach the collectors in pollution-distance order.
        if attacked {
            let mut candidates: Vec<Asn> = seen_by
                .iter()
                .filter_map(|&m| clean.observed_path(m))
                .flat_map(|p| p.hops().iter().skip(1).copied().collect::<Vec<_>>())
                .filter(|&a| a != origin)
                .collect();
            candidates.sort();
            candidates.dedup();
            if let Some(&attacker) = candidates.choose(rng) {
                let hostile = spec.clone().attacker(AttackerModel::new(attacker));
                let outcome = engine.compute_with(&hostile, ws);
                let mut changed: Vec<(u32, Asn)> = seen_by
                    .iter()
                    .filter(|&&m| outcome.route_changed(m))
                    .filter_map(|&m| outcome.pollution_distance(m).map(|d| (d, m)))
                    .collect();
                changed.sort_unstable();
                if !changed.is_empty() {
                    ground_truth = Some(attacker);
                }
                for &(_, monitor) in &changed {
                    if let Some(path) = outcome.observed_path(monitor) {
                        queue.push((monitor, UpdateAction::Announce(path)));
                    }
                }
                // Half the episodes recover: the attacker backs off and the
                // clean routes return via withdraw + re-announce.
                if !changed.is_empty() && rng.gen_bool(0.5) {
                    for &(_, monitor) in &changed {
                        queue.push((monitor, UpdateAction::Withdraw));
                    }
                    for &(_, monitor) in &changed {
                        let path = clean.observed_path(monitor).expect("seeded monitor");
                        queue.push((monitor, UpdateAction::Announce(path)));
                    }
                }
            }
        }

        (queue, ground_truth)
    }

    /// Runs the generator. Deterministic in the seed: equal configurations
    /// over the same graph produce identical corpora.
    #[must_use]
    pub fn generate(&self, graph: &AsGraph) -> SyntheticFeed {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut corpus = Corpus::new();
        let mut attacks = Vec::new();

        // Monitors and origins: the corpus generator's draws.
        let monitors = sample_monitors(graph, self.monitor_count, &mut rng);
        let origins = sample_origins(graph, self.prefixes, &mut rng);

        let engine = RoutingEngine::new(graph);
        let mut ws = RouteWorkspace::new();
        // One episode queue per prefix; reversed so draining pops in order.
        let mut queues: Vec<(Ipv4Prefix, Vec<(Asn, UpdateAction)>)> = Vec::new();

        for (i, &origin) in origins.iter().enumerate() {
            let prefix = Ipv4Prefix::synthetic_24(i);
            let attacked = rng.gen_bool(self.attack_ratio);

            let mut config = PrependConfig::new();
            if attacked {
                // Strippable padding is the attack's precondition.
                config.set(origin, PrependingPolicy::Uniform(PADDING));
            } else if rng.gen_bool(0.4) {
                let depth = rng.gen_range(1..=PADDING);
                config.set(origin, PrependingPolicy::Uniform(depth));
            }
            let spec = DestinationSpec::new(origin).prepend_config(config);
            let clean = engine.compute_with(&spec, &mut ws);

            let mut seen_by: Vec<Asn> = Vec::new();
            for &monitor in &monitors {
                if monitor == origin {
                    continue;
                }
                if let Some(path) = clean.observed_path(monitor) {
                    corpus.add_table_entry(monitor, prefix, path);
                    seen_by.push(monitor);
                }
            }
            if seen_by.is_empty() {
                continue;
            }

            let (mut queue, ground_truth) = self.episodes(
                &engine, &mut ws, &mut rng, &spec, &clean, &seen_by, attacked, origin,
            );
            if let Some(attacker) = ground_truth {
                attacks.push(InjectedAttack {
                    prefix,
                    victim: origin,
                    attacker,
                });
            }
            if !queue.is_empty() {
                queue.reverse();
                queues.push((prefix, queue));
            }
        }

        // Interleave: bursty round-robin over randomly chosen prefixes with
        // a single global sequence counter. Per-prefix order is preserved
        // (each queue drains front-to-back); cross-prefix order is the
        // interleaving a multiplexed collector session would produce.
        let mut seq = 0u64;
        while !queues.is_empty() {
            let slot = rng.gen_range(0..queues.len());
            let burst = rng.gen_range(1..=self.burst_max.max(1));
            for _ in 0..burst {
                let (prefix, queue) = &mut queues[slot];
                match queue.pop() {
                    Some((monitor, action)) => {
                        seq += 1;
                        corpus.add_update(UpdateRecord {
                            seq,
                            monitor,
                            prefix: *prefix,
                            action,
                        });
                    }
                    None => break,
                }
            }
            if queues[slot].1.is_empty() {
                queues.swap_remove(slot);
            }
        }

        SyntheticFeed { corpus, attacks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspp_topology::gen::InternetConfig;

    #[test]
    fn generator_is_deterministic() {
        let g = InternetConfig::small().seed(5).build();
        let a = ReplayConfig::new(20).seed(9).generate(&g);
        let b = ReplayConfig::new(20).seed(9).generate(&g);
        assert_eq!(a.corpus, b.corpus);
        assert_eq!(a.attacks, b.attacks);
    }

    #[test]
    fn stream_is_seq_ordered_and_per_prefix_coherent() {
        let g = InternetConfig::small().seed(6).build();
        let feed = ReplayConfig::new(25).seed(3).generate(&g);
        let seqs: Vec<u64> = feed.updates().iter().map(|u| u.seq).collect();
        assert!(!seqs.is_empty());
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "global seq order");
    }

    #[test]
    fn attack_ratio_controls_ground_truth() {
        let g = InternetConfig::small().seed(7).build();
        let none = ReplayConfig::new(25).attack_ratio(0.0).seed(4).generate(&g);
        assert!(none.attacks.is_empty());
        let heavy = ReplayConfig::new(25).attack_ratio(1.0).seed(4).generate(&g);
        assert!(!heavy.attacks.is_empty());
        for a in &heavy.attacks {
            assert_ne!(a.victim, a.attacker);
        }
    }

    #[test]
    fn nan_ratios_read_as_zero() {
        let g = InternetConfig::small().seed(7).build();
        let feed = ReplayConfig::new(25)
            .attack_ratio(f64::NAN)
            .withdraw_ratio(f64::NAN)
            .seed(4)
            .generate(&g);
        let zero = ReplayConfig::new(25)
            .attack_ratio(0.0)
            .withdraw_ratio(0.0)
            .seed(4)
            .generate(&g);
        assert!(feed.attacks.is_empty());
        assert_eq!(feed.corpus, zero.corpus);
    }

    #[test]
    fn attacked_streams_raise_alarms() {
        use aspp_detect::realtime::StreamingDetector;
        let g = InternetConfig::small().seed(8).build();
        let feed = ReplayConfig::new(30).attack_ratio(0.8).seed(5).generate(&g);
        assert!(!feed.attacks.is_empty());
        let mut detector = StreamingDetector::shared(std::sync::Arc::new(g));
        detector.seed_from_corpus(&feed.corpus);
        let alarms = detector.process_all(feed.updates());
        assert!(
            !alarms.is_empty(),
            "interception episodes must be detectable"
        );
    }
}
