//! Vantage-point selection for self-defense — the paper's announced future
//! work ("we will study the selection of vantage point to perform
//! self-defense for different victims", Section V-B; "we plan to
//! investigate the best vantage point selection to guarantee the detection
//! of the interception attacks", Section VIII).
//!
//! [`prepare`] computes a set of simulated attacks once — one batch through
//! [`effective_attacks`] — into [`PreparedAttacks`], which every function
//! below takes by reference. [`greedy_selection`] builds a monitor set by
//! greedy marginal coverage over a prepared training set: at each step it
//! adds the candidate AS whose addition newly detects the most
//! still-undetected attacks. [`SelectionComparison`] pits the greedy set
//! against same-budget top-degree and random sets on held-out attacks.

use aspp_routing::{BatchRunner, DestinationSpec, RoutingOutcome};
use aspp_topology::AsGraph;
use aspp_types::{AsPath, Asn};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::detector::Detector;
use crate::eval::effective_attacks;
use crate::monitors::{random_monitors, top_degree};
use crate::view::RouteView;

/// Precomputed per-attack state so candidate evaluation is cheap.
#[derive(Debug)]
struct PreparedAttack {
    clean_paths: Vec<(Asn, AsPath)>,
    attacked_paths: Vec<(Asn, AsPath)>,
    /// ASes whose announced route visibly changed under this attack — the
    /// necessary condition for a monitor to contribute the trigger.
    changed: Vec<Asn>,
}

/// The effective attacks of one experiment set, each reduced to every AS's
/// announced path before and after it: what [`prepare`] returns and the
/// selection functions evaluate monitor sets against, any number of times,
/// without touching the routing engine again.
#[derive(Debug)]
pub struct PreparedAttacks(Vec<PreparedAttack>);

/// Computes each spec's equilibrium once through `runner` and keeps
/// the effective attacks ([`crate::eval::is_effective`]), in input order.
#[must_use]
pub fn prepare(
    graph: &AsGraph,
    specs: &[DestinationSpec],
    runner: &BatchRunner,
) -> PreparedAttacks {
    PreparedAttacks(effective_attacks(graph, specs, runner, collect_paths))
}

fn collect_paths(outcome: &RoutingOutcome<'_>) -> PreparedAttack {
    let mut clean_paths = Vec::new();
    let mut attacked_paths = Vec::new();
    let mut changed = Vec::new();
    for asn in outcome.asns() {
        let clean = outcome.clean_observed_path(asn);
        let attacked = outcome.observed_path(asn);
        if clean != attacked {
            changed.push(asn);
        }
        if let Some(p) = clean {
            clean_paths.push((asn, p));
        }
        if let Some(p) = attacked {
            attacked_paths.push((asn, p));
        }
    }
    PreparedAttack {
        clean_paths,
        attacked_paths,
        changed,
    }
}

fn detects(detector: &Detector<'_>, attack: &PreparedAttack, monitors: &[Asn]) -> bool {
    let pick = |paths: &[(Asn, AsPath)]| {
        RouteView::from_paths(
            paths
                .iter()
                .filter(|(m, _)| monitors.contains(m))
                .map(|(_, p)| p.clone()),
        )
    };
    let before = pick(&attack.clean_paths);
    let after = pick(&attack.attacked_paths);
    !detector.scan(&before, &after).is_empty()
}

/// Greedily selects up to `budget` monitors from `candidates`, maximizing
/// the number of training attacks detected. Stops early once every training
/// attack is covered. Deterministic.
///
/// # Example
///
/// ```no_run
/// use aspp_attack::sweep::random_pair_experiments;
/// use aspp_detect::selection::{greedy_selection, prepare};
/// use aspp_routing::BatchRunner;
/// use aspp_topology::gen::InternetConfig;
///
/// let graph = InternetConfig::small().seed(5).build();
/// let train = random_pair_experiments(&graph, 10, 3, 1);
/// let train = prepare(&graph, &train, &BatchRunner::new());
/// let candidates: Vec<_> = graph.asns().collect();
/// let monitors = greedy_selection(&graph, &train, &candidates, 8);
/// assert!(monitors.len() <= 8);
/// ```
#[must_use]
pub fn greedy_selection(
    graph: &AsGraph,
    training: &PreparedAttacks,
    candidates: &[Asn],
    budget: usize,
) -> Vec<Asn> {
    let detector = Detector::new(graph);
    let attacks = &training.0;
    let mut selected: Vec<Asn> = Vec::new();
    let mut covered: Vec<bool> = vec![false; attacks.len()];

    while selected.len() < budget {
        if covered.iter().all(|&c| c) {
            break;
        }
        // Primary score: new attacks detected when the candidate joins the
        // set. Secondary (bootstrap) score: a single monitor almost never
        // detects alone — detection needs a trigger *and* a witness — so
        // when no candidate has detection gain, pick the one whose route
        // changes under the most still-uncovered attacks.
        let mut best: Option<(Asn, usize, usize)> = None;
        for &candidate in candidates {
            if selected.contains(&candidate) {
                continue;
            }
            let mut trial = selected.clone();
            trial.push(candidate);
            let gain = attacks
                .iter()
                .zip(&covered)
                .filter(|&(attack, &is_covered)| !is_covered && detects(&detector, attack, &trial))
                .count();
            let bootstrap = attacks
                .iter()
                .zip(&covered)
                .filter(|&(attack, &is_covered)| !is_covered && attack.changed.contains(&candidate))
                .count();
            let key = (gain, bootstrap);
            let better = match best {
                None => key > (0, 0),
                Some((best_asn, bg, bb)) => {
                    key > (bg, bb) || (key == (bg, bb) && candidate < best_asn)
                }
            };
            if better {
                best = Some((candidate, gain, bootstrap));
            }
        }
        let Some((winner, _, _)) = best else { break };
        selected.push(winner);
        for (i, attack) in attacks.iter().enumerate() {
            if !covered[i] && detects(&detector, attack, &selected) {
                covered[i] = true;
            }
        }
    }
    // Spend any remaining budget on the best-connected unselected ASes —
    // coverage against attacks the training set did not anticipate.
    for asn in graph.asns_by_degree() {
        if selected.len() >= budget {
            break;
        }
        if !selected.contains(&asn) {
            selected.push(asn);
        }
    }
    selected
}

/// Detection accuracy of a fixed monitor set over held-out attacks.
#[must_use]
pub fn evaluate_selection(graph: &AsGraph, attacks: &PreparedAttacks, monitors: &[Asn]) -> f64 {
    let detector = Detector::new(graph);
    let prepared = &attacks.0;
    if prepared.is_empty() {
        return 0.0;
    }
    let detected = prepared
        .iter()
        .filter(|a| detects(&detector, a, monitors))
        .count();
    detected as f64 / prepared.len() as f64
}

/// Same-budget comparison of the three selection strategies.
#[derive(Clone, Debug, PartialEq)]
pub struct SelectionComparison {
    /// Monitor budget used by every strategy.
    pub budget: usize,
    /// Accuracy of the greedily selected set on held-out attacks.
    pub greedy: f64,
    /// Accuracy of the top-degree set (the paper's Figure 13 policy).
    pub top_degree: f64,
    /// Accuracy of a random set.
    pub random: f64,
    /// The greedy set itself.
    pub greedy_monitors: Vec<Asn>,
}

/// Trains a greedy monitor set on `training` attacks and evaluates all three
/// strategies on `held_out` attacks with the same budget.
#[must_use]
pub fn compare_selections(
    graph: &AsGraph,
    training: &PreparedAttacks,
    held_out: &PreparedAttacks,
    budget: usize,
    seed: u64,
) -> SelectionComparison {
    // Candidate pool: the degree ranking plus a random sample of the rest,
    // so greedy can reach edge positions top-degree never considers.
    let ranked = graph.asns_by_degree();
    let mut pool: Vec<Asn> = ranked.iter().take(budget * 4).copied().collect();
    let mut rest: Vec<Asn> = ranked.iter().skip(budget * 4).copied().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    rest.shuffle(&mut rng);
    pool.extend(rest.into_iter().take(budget * 4));

    let greedy_monitors = greedy_selection(graph, training, &pool, budget);
    let top = top_degree(graph, budget);
    let random = random_monitors(graph, budget, &mut rng);

    SelectionComparison {
        budget,
        greedy: evaluate_selection(graph, held_out, &greedy_monitors),
        top_degree: evaluate_selection(graph, held_out, &top),
        random: evaluate_selection(graph, held_out, &random),
        greedy_monitors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspp_attack::sweep::random_pair_experiments;
    use aspp_topology::gen::InternetConfig;

    fn setup() -> (AsGraph, PreparedAttacks, PreparedAttacks) {
        let graph = InternetConfig::small().seed(321).build();
        let runner = BatchRunner::new();
        let train = prepare(&graph, &random_pair_experiments(&graph, 14, 4, 1), &runner);
        let test = prepare(&graph, &random_pair_experiments(&graph, 14, 4, 2), &runner);
        (graph, train, test)
    }

    #[test]
    fn greedy_selection_respects_budget_and_helps() {
        let (graph, train, _) = setup();
        let candidates: Vec<Asn> = graph.asns().collect();
        let monitors = greedy_selection(&graph, &train, &candidates, 6);
        assert!(monitors.len() <= 6);
        // Training accuracy of the greedy set is maximal among what any
        // same-size top-degree set achieves.
        let greedy_acc = evaluate_selection(&graph, &train, &monitors);
        let top_acc = evaluate_selection(&graph, &train, &top_degree(&graph, 6));
        assert!(
            greedy_acc >= top_acc - 1e-9,
            "greedy {greedy_acc} < top-degree {top_acc} on its own training set"
        );
    }

    #[test]
    fn greedy_fills_budget_even_after_coverage() {
        let (graph, train, _) = setup();
        let candidates: Vec<Asn> = graph.asns().collect();
        let selected = greedy_selection(&graph, &train, &candidates, 20);
        assert_eq!(selected.len(), 20, "remaining budget spent on degree");
        // No duplicates.
        let mut dedup = selected.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), selected.len());
    }

    #[test]
    fn comparison_runs_and_orders_sanely() {
        let (graph, train, test) = setup();
        let cmp = compare_selections(&graph, &train, &test, 8, 7);
        assert_eq!(cmp.budget, 8);
        for acc in [cmp.greedy, cmp.top_degree, cmp.random] {
            assert!((0.0..=1.0).contains(&acc));
        }
        assert!(cmp.greedy_monitors.len() <= 8);
        // Greedy generalizes at least as well as a random pick here.
        assert!(cmp.greedy >= cmp.random - 1e-9);
    }

    #[test]
    fn empty_training_falls_back_to_degree() {
        let (graph, _, _) = setup();
        let candidates: Vec<Asn> = graph.asns().collect();
        let none = prepare(&graph, &[], &BatchRunner::new());
        let monitors = greedy_selection(&graph, &none, &candidates, 5);
        assert_eq!(monitors, top_degree(&graph, 5));
        assert_eq!(evaluate_selection(&graph, &none, &monitors), 0.0);
    }
}
