//! Seeded Monte-Carlo hijack-impact estimation with bootstrap confidence
//! intervals.
//!
//! Exact impact figures require one equilibrium per (victim, attacker)
//! pair — quadratic in the pool sizes and hopeless at Internet scale.
//! Sermpezis et al. (arXiv 2105.02346) showed that uniform sampling of
//! pairs, combined with per-sample vantage subsets, estimates mean hijack
//! impact tightly with quantified error. This module reproduces that
//! methodology over the ASPP engine:
//!
//! 1. draw `samples` (victim, attacker) pairs — uniformly, with
//!    replacement — from deterministic seeded pools, plus an optional
//!    vantage subset per sample;
//! 2. resolve every sampled cell through
//!    [`BatchRunner`] (results come back in
//!    input order, so the estimate is bit-identical at any worker count);
//! 3. bootstrap-resample the per-sample impact values to a percentile 95%
//!    confidence interval.
//!
//! [`exact_enumeration`] computes the ground truth over the same pools
//! where that is still affordable; the cross-validation test pins the exact
//! mean inside the Monte-Carlo CI at n ≥ 1000 on the paper topology.

use aspp_obs::counters::{self, Counter};
use aspp_routing::{
    AttackStrategy, AttackerModel, BatchRunner, DestinationSpec, ExportMode, RoutingOutcome,
};
use aspp_topology::AsGraph;
use aspp_types::Asn;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Pool-derivation constant: victims and attackers shuffle independently.
const VICTIM_SALT: u64 = 0x76_69_63;
const ATTACKER_SALT: u64 = 0x61_74_6b;
const BOOTSTRAP_SALT: u64 = 0x62_6f_6f_74;

/// Everything the estimator needs besides the topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EstimatorConfig {
    /// Victim-pool size (deterministic seeded sample of the AS set).
    pub victims: usize,
    /// Attacker-pool size.
    pub attackers: usize,
    /// Monte-Carlo draws (pairs sampled uniformly with replacement).
    pub samples: usize,
    /// Bootstrap resamples for the confidence intervals.
    pub resamples: usize,
    /// Per-sample vantage-subset size; `None` measures the full population.
    pub vantages: Option<usize>,
    /// The victim's origin padding λ (total copies).
    pub lambda: usize,
    /// The attack announced in every sampled cell.
    pub strategy: AttackStrategy,
    /// The attacker's export mode.
    pub mode: ExportMode,
    /// Master seed: pools, pair draws, vantage subsets, and bootstrap all
    /// derive from it.
    pub seed: u64,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig {
            victims: 25,
            attackers: 25,
            samples: 1000,
            resamples: 1000,
            vantages: None,
            lambda: 5,
            strategy: AttackStrategy::StripPadding { keep: 1 },
            mode: ExportMode::Compliant,
            seed: 2024,
        }
    }
}

/// One evaluated Monte-Carlo draw.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SamplePoint {
    /// The sampled victim.
    pub victim: Asn,
    /// The sampled attacker.
    pub attacker: Asn,
    /// Polluted fraction over the sample's vantage set (or the full
    /// population when no subset was drawn).
    pub pollution: f64,
    /// Intercepted-and-delivered fraction over the same vantage set: the
    /// polluted share for delivery-preserving strategies, zero for the
    /// blackholing origin hijack (validated against data-plane walks in
    /// `aspp-dataplane`).
    pub interception: f64,
}

/// The estimator's output: per-sample points plus the bootstrap summary.
#[derive(Clone, Debug, PartialEq)]
pub struct Estimate {
    /// The configuration the estimate was computed under.
    pub config: EstimatorConfig,
    /// Every evaluated draw, in draw order.
    pub points: Vec<SamplePoint>,
    /// Mean polluted fraction across draws.
    pub mean_pollution: f64,
    /// Percentile 95% bootstrap CI for the mean pollution.
    pub pollution_ci: (f64, f64),
    /// Mean intercepted fraction across draws.
    pub mean_interception: f64,
    /// Percentile 95% bootstrap CI for the mean interception.
    pub interception_ci: (f64, f64),
}

/// Exact enumeration over the same pair universe: the ground truth the
/// Monte-Carlo estimate is validated against.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExactEnumeration {
    /// Evaluated (victim, attacker) cells (victim == attacker skipped).
    pub cells: usize,
    /// Mean full-population polluted fraction over all cells.
    pub mean_pollution: f64,
    /// Mean full-population intercepted fraction over all cells.
    pub mean_interception: f64,
}

/// The deterministic victim pool: a seeded shuffle of the AS set.
#[must_use]
pub fn victim_pool(graph: &AsGraph, n: usize, seed: u64) -> Vec<Asn> {
    pool(graph, n, seed ^ VICTIM_SALT)
}

/// The deterministic attacker pool (independently shuffled).
#[must_use]
pub fn attacker_pool(graph: &AsGraph, n: usize, seed: u64) -> Vec<Asn> {
    pool(graph, n, seed ^ ATTACKER_SALT)
}

fn pool(graph: &AsGraph, n: usize, salted: u64) -> Vec<Asn> {
    let mut asns: Vec<Asn> = graph.asns().collect();
    let mut rng = StdRng::seed_from_u64(salted);
    asns.shuffle(&mut rng);
    asns.truncate(n.max(1));
    asns
}

fn spec_for(config: &EstimatorConfig, victim: Asn, attacker: Asn) -> DestinationSpec {
    DestinationSpec::new(victim)
        .origin_padding(config.lambda)
        .attacker(
            AttackerModel::new(attacker)
                .strategy(config.strategy)
                .mode(config.mode),
        )
}

/// Measures one resolved cell over `vantages` (or the full population).
fn measure(
    outcome: &RoutingOutcome<'_>,
    config: &EstimatorConfig,
    vantages: Option<&[Asn]>,
) -> (f64, f64) {
    let delivers = !matches!(config.strategy, AttackStrategy::OriginHijack);
    let pollution = match vantages {
        None => outcome.polluted_fraction(),
        Some(subset) => {
            let polluted = subset.iter().filter(|&&v| outcome.is_polluted(v)).count();
            if subset.is_empty() {
                0.0
            } else {
                polluted as f64 / subset.len() as f64
            }
        }
    };
    let interception = if delivers { pollution } else { 0.0 };
    (pollution, interception)
}

/// One Monte-Carlo draw: victim, attacker, and the vantage subset when
/// the config asks for one.
type Draw = (Asn, Asn, Option<Vec<Asn>>);

/// Derives the pools and makes every draw of `config` from its seeded RNG,
/// in draw order: a (victim ≠ attacker) pair, then — with `vantages: Some(k)`
/// — `k` distinct non-victim ASes, rejection-sampled from the population.
/// Distinctness is a membership flag per population index, set while a
/// subset is drawn and cleared as it is handed out, so a draw costs O(1)
/// however large `k` is.
fn draw_cells(graph: &AsGraph, config: &EstimatorConfig) -> Vec<Draw> {
    let _span = aspp_obs::trace::span("scenario.draws");
    let victims = victim_pool(graph, config.victims, config.seed);
    let attackers = attacker_pool(graph, config.attackers, config.seed);
    let population: Vec<Asn> = graph.asns().collect();
    let mut taken = vec![false; population.len()];

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut draws: Vec<Draw> = Vec::with_capacity(config.samples);
    for _ in 0..config.samples {
        let (victim, attacker) = loop {
            let v = victims[rng.gen_range(0..victims.len())];
            let m = attackers[rng.gen_range(0..attackers.len())];
            if v != m {
                break (v, m);
            }
        };
        let vantage = config.vantages.map(|k| {
            let want = k.min(population.len().saturating_sub(1));
            let mut picked: Vec<usize> = Vec::with_capacity(want);
            // The victim itself is never polluted, so it is never a vantage.
            while picked.len() < want {
                let i = rng.gen_range(0..population.len());
                if population[i] != victim && !taken[i] {
                    taken[i] = true;
                    picked.push(i);
                }
            }
            picked
                .iter()
                .map(|&i| {
                    taken[i] = false;
                    population[i]
                })
                .collect()
        });
        draws.push((victim, attacker, vantage));
    }
    draws
}

/// Runs the estimator through `runner`.
///
/// Draws are made up-front from the seeded RNG, resolved through the
/// runner (input order preserved), and bootstrapped from an independently
/// derived RNG — so the same seed yields identical samples, means, and CI
/// bounds at any worker count.
///
/// # Panics
///
/// Panics if `config.samples` is zero.
#[must_use]
pub fn estimate_with(graph: &AsGraph, config: &EstimatorConfig, runner: &BatchRunner) -> Estimate {
    assert!(config.samples > 0, "estimator needs at least one sample");
    let _span = aspp_obs::trace::span("scenario.estimate");
    let draws = draw_cells(graph, config);

    let specs: Vec<DestinationSpec> = draws
        .iter()
        .map(|(v, m, _)| spec_for(config, *v, *m))
        .collect();
    let measured: Vec<(f64, f64)> = runner.run(graph, &specs, |i, outcome| {
        measure(outcome, config, draws[i].2.as_deref())
    });
    counters::add(Counter::McSample, specs.len() as u64);

    let points: Vec<SamplePoint> = draws
        .iter()
        .zip(&measured)
        .map(|((v, m, _), &(pollution, interception))| SamplePoint {
            victim: *v,
            attacker: *m,
            pollution,
            interception,
        })
        .collect();

    let pollution_values: Vec<f64> = points.iter().map(|p| p.pollution).collect();
    let interception_values: Vec<f64> = points.iter().map(|p| p.interception).collect();
    let mut boot_rng = StdRng::seed_from_u64(config.seed ^ BOOTSTRAP_SALT);
    let pollution_ci = bootstrap_ci(&pollution_values, config.resamples, &mut boot_rng);
    let interception_ci = bootstrap_ci(&interception_values, config.resamples, &mut boot_rng);

    Estimate {
        config: *config,
        mean_pollution: mean(&pollution_values),
        pollution_ci,
        mean_interception: mean(&interception_values),
        interception_ci,
        points,
    }
}

/// Enumerates every (victim, attacker) pair of the configured pools through
/// `runner` and measures the full population — the ground truth for
/// cross-validation. Quadratic in the pool sizes; only affordable below
/// Internet scale.
#[must_use]
pub fn exact_enumeration(
    graph: &AsGraph,
    config: &EstimatorConfig,
    runner: &BatchRunner,
) -> ExactEnumeration {
    let _span = aspp_obs::trace::span("scenario.exact");
    let victims = victim_pool(graph, config.victims, config.seed);
    let attackers = attacker_pool(graph, config.attackers, config.seed);
    let cells: Vec<(Asn, Asn)> = victims
        .iter()
        .flat_map(|&v| {
            attackers
                .iter()
                .filter(move |&&m| m != v)
                .map(move |&m| (v, m))
        })
        .collect();
    let specs: Vec<DestinationSpec> = cells.iter().map(|&(v, m)| spec_for(config, v, m)).collect();
    let measured: Vec<(f64, f64)> =
        runner.run(graph, &specs, |_, outcome| measure(outcome, config, None));
    counters::add(Counter::McSample, specs.len() as u64);
    let pollution: Vec<f64> = measured.iter().map(|&(p, _)| p).collect();
    let interception: Vec<f64> = measured.iter().map(|&(_, i)| i).collect();
    ExactEnumeration {
        cells: cells.len(),
        mean_pollution: mean(&pollution),
        mean_interception: mean(&interception),
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Percentile bootstrap: `resamples` means of with-replacement resamples,
/// nearest-rank 2.5th/97.5th percentiles.
fn bootstrap_ci(values: &[f64], resamples: usize, rng: &mut StdRng) -> (f64, f64) {
    if values.is_empty() || resamples == 0 {
        let m = mean(values);
        return (m, m);
    }
    counters::add(Counter::McResample, resamples as u64);
    let mut means = Vec::with_capacity(resamples);
    for _ in 0..resamples {
        let sum: f64 = (0..values.len())
            .map(|_| values[rng.gen_range(0..values.len())])
            .sum();
        means.push(sum / values.len() as f64);
    }
    means.sort_by(|a, b| a.partial_cmp(b).expect("bootstrap means are finite"));
    let rank = |q: f64| {
        // Nearest-rank on the sorted resample means, matching Cdf's
        // convention elsewhere in the workspace.
        let idx = (q * resamples as f64).ceil() as usize;
        means[idx.clamp(1, resamples) - 1]
    };
    (rank(0.025), rank(0.975))
}

impl Estimate {
    /// Renders the estimate as a small plain-text report.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "# Monte-Carlo impact estimate\n\
             samples              {}\n\
             resamples            {}\n\
             seed                 {}\n\
             vantage subset       {}\n\
             mean pollution       {:.4}\n\
             pollution 95% CI     [{:.4}, {:.4}]\n\
             mean interception    {:.4}\n\
             interception 95% CI  [{:.4}, {:.4}]\n",
            self.config.samples,
            self.config.resamples,
            self.config.seed,
            self.config
                .vantages
                .map_or_else(|| "full population".to_owned(), |k| k.to_string()),
            self.mean_pollution,
            self.pollution_ci.0,
            self.pollution_ci.1,
            self.mean_interception,
            self.interception_ci.0,
            self.interception_ci.1,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspp_topology::gen::InternetConfig;

    fn graph() -> AsGraph {
        InternetConfig::small().seed(5).build()
    }

    fn config() -> EstimatorConfig {
        EstimatorConfig {
            victims: 10,
            attackers: 10,
            samples: 60,
            resamples: 200,
            vantages: None,
            lambda: 5,
            seed: 7,
            ..EstimatorConfig::default()
        }
    }

    #[test]
    fn pools_are_deterministic_and_disjoint_from_nothing() {
        let g = graph();
        let a = victim_pool(&g, 10, 7);
        let b = victim_pool(&g, 10, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        // Different salt ⇒ (almost surely) different ordering.
        let m = attacker_pool(&g, 10, 7);
        assert_ne!(a, m);
    }

    #[test]
    fn ci_brackets_the_mean_and_is_ordered() {
        let g = graph();
        let est = estimate_with(&g, &config(), &BatchRunner::new());
        assert_eq!(est.points.len(), 60);
        assert!(est.pollution_ci.0 <= est.mean_pollution + 1e-12);
        assert!(est.mean_pollution <= est.pollution_ci.1 + 1e-12);
        assert!(est.pollution_ci.0 <= est.pollution_ci.1);
        for p in &est.points {
            assert!(p.victim != p.attacker);
            assert!((0.0..=1.0).contains(&p.pollution));
            // Strip delivers: interception equals pollution per sample.
            assert_eq!(p.pollution, p.interception);
        }
    }

    #[test]
    fn origin_hijack_intercepts_nothing() {
        let g = graph();
        let cfg = EstimatorConfig {
            strategy: AttackStrategy::OriginHijack,
            ..config()
        };
        let est = estimate_with(&g, &cfg, &BatchRunner::new());
        assert_eq!(est.mean_interception, 0.0);
        assert!(est.mean_pollution > 0.0, "hijack pollutes someone");
    }

    #[test]
    fn vantage_subsets_stay_in_range() {
        let g = graph();
        let cfg = EstimatorConfig {
            vantages: Some(20),
            ..config()
        };
        let est = estimate_with(&g, &cfg, &BatchRunner::new());
        for p in &est.points {
            assert!((0.0..=1.0).contains(&p.pollution));
            // 20 vantages ⇒ pollution quantized to i/20.
            let scaled = p.pollution * 20.0;
            assert!((scaled - scaled.round()).abs() < 1e-9, "{}", p.pollution);
        }
    }

    /// The draw loop as first written, distinctness by `subset.contains`:
    /// the oracle [`draw_cells`] must match draw for draw.
    fn draw_cells_reference(graph: &AsGraph, config: &EstimatorConfig) -> Vec<Draw> {
        let victims = victim_pool(graph, config.victims, config.seed);
        let attackers = attacker_pool(graph, config.attackers, config.seed);
        let population: Vec<Asn> = graph.asns().collect();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut draws: Vec<Draw> = Vec::with_capacity(config.samples);
        for _ in 0..config.samples {
            let (victim, attacker) = loop {
                let v = victims[rng.gen_range(0..victims.len())];
                let m = attackers[rng.gen_range(0..attackers.len())];
                if v != m {
                    break (v, m);
                }
            };
            let vantage = config.vantages.map(|k| {
                let mut subset: Vec<Asn> = Vec::with_capacity(k);
                while subset.len() < k.min(population.len().saturating_sub(1)) {
                    let candidate = population[rng.gen_range(0..population.len())];
                    if candidate != victim && !subset.contains(&candidate) {
                        subset.push(candidate);
                    }
                }
                subset
            });
            draws.push((victim, attacker, vantage));
        }
        draws
    }

    #[test]
    fn vantage_draws_match_the_reference_loop() {
        let g = graph();
        // Dense rejections (all but one non-victim AS), the shipped
        // 20-vantage config, and a `k` beyond the population (clamped).
        for vantages in [g.len() - 2, 20, g.len() + 5] {
            let cfg = EstimatorConfig {
                vantages: Some(vantages),
                ..config()
            };
            let draws = draw_cells(&g, &cfg);
            assert_eq!(draws, draw_cells_reference(&g, &cfg), "vantages {vantages}");
            let want = vantages.min(g.len() - 1);
            assert!(draws.iter().all(|d| d.2.as_ref().unwrap().len() == want));
        }
    }

    #[test]
    fn exact_enumeration_covers_the_pool_product() {
        let g = graph();
        let cfg = EstimatorConfig {
            victims: 6,
            attackers: 6,
            ..config()
        };
        let exact = exact_enumeration(&g, &cfg, &BatchRunner::new());
        // 6×6 minus the diagonal collisions actually present in the pools.
        assert!(exact.cells >= 30 && exact.cells <= 36, "{}", exact.cells);
        assert!((0.0..=1.0).contains(&exact.mean_pollution));
    }

    #[test]
    fn bootstrap_is_seed_stable() {
        let g = graph();
        let a = estimate_with(&g, &config(), &BatchRunner::new());
        let b = estimate_with(&g, &config(), &BatchRunner::new());
        assert_eq!(a, b);
        let reseeded = EstimatorConfig {
            seed: 8,
            ..config()
        };
        let c = estimate_with(&g, &reseeded, &BatchRunner::new());
        assert_ne!(a.points, c.points, "different seed, different draws");
    }
}
