//! Detection-quality evaluation: the paper's Figure 13 (accuracy vs number
//! of monitors) and Figure 14 (fraction of ASes polluted before detection).
//!
//! Every sweep here is the loop behind the impact figures — one attacked
//! equilibrium per (victim, attacker) pair, reduced on the spot — so it
//! rides the same [`BatchRunner`]: [`effective_attacks`] is this crate's one
//! batch entry. It maps the experiments through the caller's runner, drops
//! the attacks that changed nothing ([`is_effective`]) and hands each
//! survivor to a reducer on the worker that computed it. [`detect_attack`]
//! and [`polluted_fraction_before_detection`] are the cold per-cell
//! references, built from the same per-outcome functions the batch reducers
//! use.

use aspp_routing::{
    AttackStrategy, AttackerModel, BatchRunner, DestinationSpec, PrependConfig, PrependingPolicy,
    RoutingEngine, RoutingOutcome,
};
use aspp_topology::AsGraph;
use aspp_types::{AsPath, Asn};

use crate::baseline::{detect_link_anomalies, detect_moas, VisibilityReport};
use crate::detector::{Confidence, Detector};
use crate::monitors::top_degree;
use crate::view::RouteView;

/// Whether the attack in `outcome` is worth detecting: the attacker had a
/// route to strip, polluted at least one AS, and changed at least one
/// announced path. The single effectiveness filter of the detection
/// evaluation — Figures 13 and 14 and the vantage-selection study all
/// count exactly the attacks this accepts.
#[must_use]
pub fn is_effective(outcome: &RoutingOutcome<'_>) -> bool {
    outcome.has_attack() && outcome.polluted_count() > 0 && outcome.changed_count() > 0
}

/// Computes every experiment's attacked equilibrium through `runner` and
/// reduces each **effective** attack ([`is_effective`]) with `reduce`,
/// returning the reduced values of the survivors in input order.
///
/// `reduce` runs on the worker that computed the equilibrium, so the outcome
/// never crosses a thread; experiments sharing a victim and λ share one
/// clean pass ([`aspp_routing::batch`]). Results are identical at
/// every worker count.
///
/// # Example
///
/// ```
/// use aspp_attack::sweep::random_pair_experiments;
/// use aspp_detect::eval::effective_attacks;
/// use aspp_routing::BatchRunner;
/// use aspp_topology::gen::InternetConfig;
///
/// let g = InternetConfig::small().seed(2).build();
/// let specs = random_pair_experiments(&g, 10, 3, 7);
/// let polluted = effective_attacks(&g, &specs, &BatchRunner::new(), |outcome| {
///     outcome.polluted_count()
/// });
/// assert!(polluted.len() <= specs.len());
/// assert!(polluted.iter().all(|&n| n > 0));
/// ```
#[must_use]
pub fn effective_attacks<'g, T, F>(
    graph: &'g AsGraph,
    specs: &[DestinationSpec],
    runner: &BatchRunner,
    reduce: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(&RoutingOutcome<'g>) -> T + Sync,
{
    let _span = aspp_obs::trace::span("detect.effective_attacks");
    runner
        .run(graph, specs, |_, outcome| {
            is_effective(outcome).then(|| reduce(outcome))
        })
        .into_iter()
        .flatten()
        .collect()
}

/// The before/after views of `outcome` as seen from `monitors`.
fn monitor_views(outcome: &RoutingOutcome<'_>, monitors: &[Asn]) -> (RouteView, RouteView) {
    let before = monitors
        .iter()
        .filter_map(|&m| outcome.clean_observed_path(m));
    let after = monitors.iter().filter_map(|&m| outcome.observed_path(m));
    (RouteView::from_paths(before), RouteView::from_paths(after))
}

/// Result of running the detector against one simulated attack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DetectionResult {
    /// The attack was feasible (the attacker had a route to strip).
    pub feasible: bool,
    /// The attack changed at least one AS's route (otherwise there is
    /// nothing to detect and nothing to protect against).
    pub effective: bool,
    /// An alarm naming the true attacker was raised.
    pub detected: bool,
    /// A high-confidence alarm naming the true attacker was raised.
    pub detected_high: bool,
    /// Any alarm was raised at all (useful for false-positive accounting).
    pub any_alarm: bool,
}

/// The detector's verdict on one effective attack by `attacker`, given the
/// monitors' views before and after it.
fn verdict(
    detector: &Detector<'_>,
    attacker: Option<Asn>,
    before: &RouteView,
    after: &RouteView,
) -> DetectionResult {
    let alarms = detector.scan(before, after);
    let named = || alarms.iter().filter(|a| Some(a.suspect) == attacker);
    DetectionResult {
        feasible: true,
        effective: true,
        detected: named().next().is_some(),
        detected_high: named().any(|a| a.confidence == Confidence::High),
        any_alarm: !alarms.is_empty(),
    }
}

/// Runs the hijack in `spec` on `graph` from cold state, lets the given
/// monitors watch, and reports whether the detector catches it — the
/// per-cell reference [`accuracy_vs_monitors`] is pinned to.
#[must_use]
pub fn detect_attack(graph: &AsGraph, spec: &DestinationSpec, monitors: &[Asn]) -> DetectionResult {
    let _span = aspp_obs::trace::span("detect.attack");
    let outcome = RoutingEngine::new(graph).compute(spec);
    if !is_effective(&outcome) {
        return DetectionResult {
            feasible: outcome.has_attack(),
            effective: false,
            detected: false,
            detected_high: false,
            any_alarm: false,
        };
    }
    let (before, after) = monitor_views(&outcome, monitors);
    verdict(&Detector::new(graph), outcome.attacker(), &before, &after)
}

/// One point of the Figure 13 curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AccuracyPoint {
    /// Number of monitors used.
    pub monitor_count: usize,
    /// Fraction of effective attacks for which *any* alarm was raised for
    /// the victim prefix — the paper's "percentage of attacks detected"
    /// (alarms notify the prefix owner; they need not name the culprit).
    pub accuracy: f64,
    /// Fraction where some alarm named the true attacker.
    pub accuracy_attributed: f64,
    /// Fraction where a high-confidence alarm named the true attacker.
    pub accuracy_high: f64,
    /// Number of effective attacks evaluated.
    pub attacks: usize,
}

/// Sweeps the number of top-degree monitors and measures detection accuracy
/// over the given attack experiments (paper: 200 random attacker/victim
/// pairs, top-`d` monitors by degree). Each point equals the fold of
/// [`detect_attack`] over `specs` with the top-`d` monitors, at every worker
/// count of `runner`.
///
/// # Example
///
/// ```
/// use aspp_attack::sweep::random_pair_experiments;
/// use aspp_detect::eval::accuracy_vs_monitors;
/// use aspp_routing::BatchRunner;
/// use aspp_topology::gen::InternetConfig;
///
/// let g = InternetConfig::small().seed(2).build();
/// let specs = random_pair_experiments(&g, 10, 3, 7);
/// let curve = accuracy_vs_monitors(&g, &specs, &[5, 40], &BatchRunner::new());
/// assert_eq!(curve.len(), 2);
/// // More monitors never hurt.
/// assert!(curve[1].accuracy >= curve[0].accuracy);
/// ```
#[must_use]
pub fn accuracy_vs_monitors(
    graph: &AsGraph,
    specs: &[DestinationSpec],
    monitor_counts: &[usize],
    runner: &BatchRunner,
) -> Vec<AccuracyPoint> {
    let _span = aspp_obs::trace::span("detect.accuracy_vs_monitors");
    // The top-d monitor sets are prefixes of one ranked list: each attack's
    // equilibrium is computed once and its ranked observed paths are reused
    // for every monitor count.
    let max_count = monitor_counts.iter().copied().max().unwrap_or(0);
    let ranked = top_degree(graph, max_count);
    let detector = Detector::new(graph);
    let per_attack = effective_attacks(graph, specs, runner, |outcome| {
        let clean: Vec<Option<AsPath>> = ranked
            .iter()
            .map(|&m| outcome.clean_observed_path(m))
            .collect();
        let attacked: Vec<Option<AsPath>> =
            ranked.iter().map(|&m| outcome.observed_path(m)).collect();
        let view = |paths: &[Option<AsPath>], d: usize| {
            RouteView::from_paths(paths.iter().take(d).flatten().cloned())
        };
        monitor_counts
            .iter()
            .map(|&d| {
                verdict(
                    &detector,
                    outcome.attacker(),
                    &view(&clean, d),
                    &view(&attacked, d),
                )
            })
            .collect::<Vec<DetectionResult>>()
    });
    monitor_counts
        .iter()
        .enumerate()
        .map(|(ci, &d)| {
            let tally = |hit: fn(&DetectionResult) -> bool| {
                ratio(
                    per_attack.iter().filter(|r| hit(&r[ci])).count(),
                    per_attack.len(),
                )
            };
            AccuracyPoint {
                monitor_count: d,
                accuracy: tally(|r| r.any_alarm),
                accuracy_attributed: tally(|r| r.detected),
                accuracy_high: tally(|r| r.detected_high),
                attacks: per_attack.len(),
            }
        })
        .collect()
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The Figure 14 metric for one attacked equilibrium: the fraction of
/// **all** ASes already polluted when the detector first raises an alarm for
/// the victim prefix.
///
/// Pollution spreads outward from the attacker in rounds of AS-hop distance;
/// at round `r` the monitors whose own routes have switched (distance ≤ r)
/// report attacked paths while the rest still report clean ones. The
/// detection round is the first `r` at which the combined view raises any
/// alarm. Returns `None` when the attack is never detected.
#[must_use]
pub fn polluted_before_detection(outcome: &RoutingOutcome<'_>, monitors: &[Asn]) -> Option<f64> {
    let detector = Detector::new(outcome.graph());
    let before = RouteView::from_paths(
        monitors
            .iter()
            .filter_map(|&m| outcome.clean_observed_path(m)),
    );
    let max_round = monitors
        .iter()
        .filter_map(|&m| outcome.pollution_distance(m))
        .max()?; // no polluted monitor -> undetectable by route change

    for round in 0..=max_round {
        let after = hybrid_view(outcome, monitors, round);
        let alarms = detector.scan(&before, &after);
        if !alarms.is_empty() {
            let polluted_so_far = outcome
                .asns()
                .filter(|&a| outcome.pollution_distance(a).is_some_and(|d| d <= round))
                .count();
            return Some(polluted_so_far as f64 / outcome.graph().len() as f64);
        }
    }
    None
}

/// [`polluted_before_detection`] for the hijack in `spec`, computed on
/// `graph` from cold state — the per-cell reference of the Figure 14
/// reduction. `None` also when the attack is not effective.
#[must_use]
pub fn polluted_fraction_before_detection(
    graph: &AsGraph,
    spec: &DestinationSpec,
    monitors: &[Asn],
) -> Option<f64> {
    let _span = aspp_obs::trace::span("detect.polluted_before_detection");
    let outcome = RoutingEngine::new(graph).compute(spec);
    if !is_effective(&outcome) {
        return None;
    }
    polluted_before_detection(&outcome, monitors)
}

/// Result of the false-positive evaluation: how often *legitimate* traffic
/// engineering trips the detector — the paper's central design worry ("the
/// main challenge in detection is that the origin AS can apply flexible
/// prepending policies", Section V-A).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FalsePositiveReport {
    /// Legitimate re-engineering scenarios evaluated.
    pub scenarios: usize,
    /// Scenarios that produced any alarm (low confidence included).
    pub any_alarm: usize,
    /// Scenarios that produced a high-confidence alarm — these are the
    /// damaging false positives; low-confidence hints are advisory.
    pub high_alarm: usize,
}

impl FalsePositiveReport {
    /// High-confidence false-positive rate.
    #[must_use]
    pub fn high_rate(&self) -> f64 {
        ratio(self.high_alarm, self.scenarios)
    }
}

/// For each victim, simulates a *legitimate* traffic-engineering change —
/// switching from uniform λ=3 padding to per-neighbor padding that leaves
/// one provider clean — and runs the detector on the monitors' before/after
/// views. No attacker exists; every alarm is a false positive.
#[must_use]
pub fn false_positive_rate(
    graph: &AsGraph,
    victims: &[Asn],
    monitors: &[Asn],
    runner: &BatchRunner,
) -> FalsePositiveReport {
    // Two clean equilibria per victim, before then after the change;
    // provider-free victims have no differential TE story.
    let specs: Vec<DestinationSpec> = victims
        .iter()
        .filter_map(|&victim| {
            let primary = graph.providers(victim).min()?;
            let mut config = PrependConfig::new();
            config.set(victim, PrependingPolicy::per_neighbor(2, [(primary, 0)]));
            Some([
                DestinationSpec::new(victim).origin_padding(3),
                DestinationSpec::new(victim).prepend_config(config),
            ])
        })
        .flatten()
        .collect();
    let views = runner.run(graph, &specs, |_, outcome| {
        RouteView::from_paths(monitors.iter().filter_map(|&m| outcome.observed_path(m)))
    });
    let detector = Detector::new(graph);
    let mut report = FalsePositiveReport::default();
    for pair in views.chunks_exact(2) {
        let alarms = detector.scan(&pair[0], &pair[1]);
        report.scenarios += 1;
        report.any_alarm += usize::from(!alarms.is_empty());
        report.high_alarm += usize::from(alarms.iter().any(|a| a.confidence == Confidence::High));
    }
    report
}

/// Runs the same attack three ways (ASPP strip, forged adjacency, origin
/// hijack) and reports which detectors see each — the paper's stealth
/// comparison. Only the monitors' views feed each detector. The three
/// strategies share one victim and padding, so they are one steal unit of
/// `runner`: one clean pass, three attacked passes.
#[must_use]
pub fn visibility_matrix(
    graph: &AsGraph,
    victim: Asn,
    attacker: Asn,
    padding: usize,
    monitors: &[Asn],
    runner: &BatchRunner,
) -> Vec<(AttackStrategy, VisibilityReport)> {
    let strategies = [
        AttackStrategy::StripPadding { keep: 1 },
        AttackStrategy::ForgeDirect,
        AttackStrategy::OriginHijack,
    ];
    let specs = strategies.map(|strategy| {
        DestinationSpec::new(victim)
            .origin_padding(padding)
            .attacker(AttackerModel::new(attacker).strategy(strategy))
    });
    let detector = Detector::new(graph);
    runner.run(graph, &specs, |i, outcome| {
        let (before, after) = monitor_views(outcome, monitors);
        let report = VisibilityReport {
            moas: detect_moas(&before, &after).is_some(),
            link_anomaly: !detect_link_anomalies(graph, &after).is_empty(),
            aspp: !detector.scan(&before, &after).is_empty(),
        };
        (strategies[i], report)
    })
}

/// Builds the monitors' combined view at pollution round `round`: monitors
/// whose route has already switched show the attacked path, the others the
/// clean path.
fn hybrid_view(outcome: &RoutingOutcome<'_>, monitors: &[Asn], round: u32) -> RouteView {
    RouteView::from_paths(
        monitors
            .iter()
            .filter_map(|&m| match outcome.pollution_distance(m) {
                Some(d) if d <= round => outcome.observed_path(m),
                _ => outcome.clean_observed_path(m),
            }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspp_attack::fixtures::{figure3, figure3_topology};
    use aspp_attack::sweep::random_pair_experiments;
    use aspp_topology::gen::InternetConfig;

    /// Figure 3's attacker M stripping V's λ-copy padding.
    fn figure3_cell(padding: usize) -> DestinationSpec {
        use figure3::*;
        DestinationSpec::new(V)
            .origin_padding(padding)
            .attacker(AttackerModel::new(M))
    }

    #[test]
    fn figure3_attack_detected_with_good_monitors() {
        use figure3::*;
        let g = figure3_topology();
        let spec = figure3_cell(3);
        let result = detect_attack(&g, &spec, &[B, D, E]);
        assert!(result.feasible && result.effective);
        assert!(result.detected, "monitor at B sees the stripped route");
        assert!(result.detected_high);
    }

    #[test]
    fn blind_monitors_miss_the_attack() {
        use figure3::*;
        let g = figure3_topology();
        let spec = figure3_cell(3);
        // D and E never see the malicious route (valley-free confines it to
        // M's customer cone), so detection must fail.
        let result = detect_attack(&g, &spec, &[D, E]);
        assert!(result.effective);
        assert!(!result.detected);
    }

    #[test]
    fn ineffective_attack_counts_as_nothing_to_detect() {
        use figure3::*;
        let g = figure3_topology();
        // λ=1: nothing to strip, nobody switches.
        let spec = figure3_cell(1);
        let result = detect_attack(&g, &spec, &[B, D, E]);
        assert!(!result.effective);
        assert!(!result.detected);
    }

    #[test]
    fn accuracy_grows_with_monitor_count() {
        let g = InternetConfig::small().seed(14).build();
        let specs = random_pair_experiments(&g, 20, 4, 5);
        let curve = accuracy_vs_monitors(&g, &specs, &[3, 30, 120], &BatchRunner::new());
        assert_eq!(curve.len(), 3);
        assert!(curve[0].accuracy <= curve[1].accuracy + 1e-9);
        assert!(curve[1].accuracy <= curve[2].accuracy + 1e-9);
        // With most of the small Internet as monitors, detection is strong.
        assert!(
            curve[2].accuracy > 0.8,
            "accuracy with 120 monitors: {}",
            curve[2].accuracy
        );
    }

    #[test]
    fn pollution_before_detection_in_unit_range() {
        use figure3::*;
        let g = figure3_topology();
        let spec = figure3_cell(3);
        let frac = polluted_fraction_before_detection(&g, &spec, &[B, D, E]).unwrap();
        assert!((0.0..=1.0).contains(&frac));
        // Detection happens as soon as B reports, with only M's cone dirty.
        assert!(frac <= 0.5, "early detection expected, got {frac}");
    }

    #[test]
    fn legitimate_te_rarely_triggers_high_confidence_alarms() {
        let g = InternetConfig::small().seed(15).build();
        let victims: Vec<Asn> = (0..25).map(|i| Asn(20_000 + i)).collect();
        let monitors = top_degree(&g, 40);
        let report = false_positive_rate(&g, &victims, &monitors, &BatchRunner::new());
        assert!(report.scenarios >= 20);
        // The same-segment rule is specific: legitimate per-neighbor padding
        // changes the first hop with the padding, so segments differ and
        // high-confidence alarms stay rare.
        assert!(
            report.high_rate() < 0.25,
            "high-confidence FP rate too high: {report:?}"
        );
        // Low-confidence hints may fire — that is the paper's documented
        // trade-off — but must not be universal either.
        assert!(report.any_alarm <= report.scenarios);
    }

    #[test]
    fn visibility_matrix_matches_paper_claims() {
        use aspp_attack::fixtures::{figure3, figure3_topology};
        use aspp_routing::AttackStrategy;
        use figure3::*;
        let g = figure3_topology();
        let matrix = visibility_matrix(&g, V, M, 3, &[B, D, E], &BatchRunner::new());
        for (strategy, report) in matrix {
            match strategy {
                AttackStrategy::StripPadding { .. } | AttackStrategy::StripAllPadding => {
                    assert!(!report.moas, "ASPP must not trip MOAS");
                    assert!(!report.link_anomaly, "ASPP introduces no bogus link");
                    assert!(report.aspp, "the Figure 4 detector catches ASPP");
                }
                AttackStrategy::ForgeDirect => {
                    assert!(report.link_anomaly, "forged adjacency is visible");
                    assert!(!report.moas, "origin stays genuine");
                }
                AttackStrategy::OriginHijack => {
                    assert!(report.moas, "stolen origin is a MOAS conflict");
                }
                AttackStrategy::PoisonPath { .. } => {
                    assert!(!report.moas, "origin stays genuine");
                }
            }
        }
    }

    #[test]
    fn undetectable_attack_returns_none() {
        use figure3::*;
        let g = figure3_topology();
        let spec = figure3_cell(3);
        assert_eq!(polluted_fraction_before_detection(&g, &spec, &[D, E]), None);
    }
}
