//! Scripted multi-actor attack timelines resolved step by step.
//!
//! A [`Scenario`] is a victim prefix plus a list of timed [`Action`]s.
//! Resolving time `t` folds every action at or before `t` into a
//! [`StepState`]: the victim's current padding λ, at most one exact-prefix
//! attacker (later announcements replace earlier ones, as in BGP), and any
//! subprefix hijackers, each holding one more-specific half of the victim's
//! prefix. Each step then becomes one control-plane equilibrium *per
//! announced prefix* — computed together through
//! [`BatchRunner`] — and the step report reads
//! the competition off those tables: the exact-prefix attacker's pollution
//! and data-plane interception, the subprefix hijackers' longest-prefix-
//! match capture, and the monitor-view detector's alarms.
//!
//! The competition between two attackers is a prefix-table game, not a
//! single-destination game: the engine admits one attacker per destination,
//! so a second actor competes by announcing a *different* (more specific)
//! destination that wins at forwarding time. That is exactly how real
//! subprefix hijacks out-rank any path-level manipulation.

use aspp_dataplane::forwarding::{delivery_stats, DeliveryStats};
use aspp_dataplane::lpm::{lpm_walk, PrefixTable};
use aspp_detect::{monitors, Detector, RouteView};
use aspp_obs::counters::{self, Counter};
use aspp_routing::{
    AttackStrategy, AttackerModel, BatchRunner, DestinationSpec, ExportMode, RoutingOutcome,
};
use aspp_topology::AsGraph;
use aspp_types::{Asn, Ipv4Prefix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One scripted move in a scenario timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// An attacker announces (or re-announces) on the victim's exact
    /// prefix; a later `Attack` replaces the current exact-prefix attacker.
    Attack {
        /// The attacking AS.
        attacker: Asn,
        /// What it announces.
        strategy: AttackStrategy,
        /// How it exports.
        mode: ExportMode,
    },
    /// An attacker originates a more-specific half of the victim's prefix
    /// as its own destination (at most two hijackers: the lower and upper
    /// halves).
    SubprefixHijack {
        /// The hijacking AS.
        attacker: Asn,
    },
    /// The victim escalates (or relaxes) its origin padding.
    Escalate {
        /// New total origin copies λ (clamped to ≥ 1).
        lambda: usize,
    },
    /// The exact-prefix attacker withdraws its announcement.
    WithdrawAttack,
    /// A subprefix hijacker withdraws its more-specific announcement.
    WithdrawHijack {
        /// The hijacking AS that withdraws.
        attacker: Asn,
    },
}

impl Action {
    /// The paper's default move: an ASPP strip keeping one origin copy,
    /// exported compliantly.
    #[must_use]
    pub fn attack(attacker: Asn) -> Self {
        Action::Attack {
            attacker,
            strategy: AttackStrategy::StripPadding { keep: 1 },
            mode: ExportMode::Compliant,
        }
    }
}

/// One timed action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Step time (arbitrary integer ticks; steps run in ascending order).
    pub t: u32,
    /// The move made at `t`.
    pub action: Action,
}

/// A scripted episode: a victim prefix and its timeline of actions.
#[derive(Clone, Debug)]
pub struct Scenario {
    victim: Asn,
    prefix: Ipv4Prefix,
    base_lambda: usize,
    monitors: usize,
    capture_sources: Option<usize>,
    seed: u64,
    events: Vec<Event>,
}

/// The resolved actor state at one step time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepState {
    /// The step time.
    pub t: u32,
    /// The victim's origin padding at this step.
    pub lambda: usize,
    /// The exact-prefix attacker, if one is announced.
    pub attacker: Option<(Asn, AttackStrategy, ExportMode)>,
    /// Active subprefix hijackers, in announcement order (≤ 2).
    pub hijackers: Vec<Asn>,
}

/// The measured outcome of one step.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// The resolved actor state the step was computed from.
    pub state: StepState,
    /// Fraction of ASes polluted on the exact prefix (control plane).
    pub polluted_fraction: f64,
    /// Data-plane fates on the exact prefix alone (no subprefix entries).
    pub exact_delivery: DeliveryStats,
    /// Fraction of probed sources whose subprefix-addressed traffic lands
    /// on a hijacker under longest-prefix-match forwarding (0 when no
    /// hijacker is active).
    pub captured: f64,
    /// ASPP-detector alarms raised by the monitor view at this step.
    pub alarms: usize,
    /// ASes whose exact-prefix route differs from the previous step's
    /// (`0` at the first step).
    pub churn: usize,
}

/// A fully computed scenario: one report per step, in time order.
#[derive(Clone, Debug)]
pub struct ScenarioRun {
    /// The victim AS.
    pub victim: Asn,
    /// The victim's covering prefix.
    pub prefix: Ipv4Prefix,
    /// Per-step reports.
    pub steps: Vec<StepReport>,
}

impl Scenario {
    /// A scenario for `victim` announcing `prefix`, with no events yet,
    /// λ = 1, 20 top-degree monitors, and all sources probed.
    ///
    /// # Panics
    ///
    /// Panics if `prefix` is a /32 (it must be splittable for subprefix
    /// hijacks).
    #[must_use]
    pub fn new(victim: Asn, prefix: Ipv4Prefix) -> Self {
        assert!(
            prefix.len() < 32,
            "victim prefix must admit a more-specific half"
        );
        Scenario {
            victim,
            prefix,
            base_lambda: 1,
            monitors: 20,
            capture_sources: None,
            seed: 0,
            events: Vec::new(),
        }
    }

    /// Sets the victim's padding before any `Escalate` event (total origin
    /// copies, clamped to ≥ 1).
    #[must_use]
    pub fn base_lambda(mut self, lambda: usize) -> Self {
        self.base_lambda = lambda.max(1);
        self
    }

    /// Sets the number of top-degree monitor vantage points feeding the
    /// per-step detector scan.
    #[must_use]
    pub fn monitors(mut self, monitors: usize) -> Self {
        self.monitors = monitors;
        self
    }

    /// Caps the number of sources probed for the capture fraction (a
    /// deterministic seeded sample); `None` probes every AS. Use a cap at
    /// Internet scale, where 80k per-step walks would dominate wall time.
    #[must_use]
    pub fn capture_sources(mut self, cap: Option<usize>) -> Self {
        self.capture_sources = cap;
        self
    }

    /// Seed for the capture-source sample.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Appends an action at step time `t`.
    #[must_use]
    pub fn at(mut self, t: u32, action: Action) -> Self {
        self.events.push(Event { t, action });
        self
    }

    /// The victim AS.
    #[must_use]
    pub fn victim(&self) -> Asn {
        self.victim
    }

    /// The victim's covering prefix.
    #[must_use]
    pub fn prefix(&self) -> Ipv4Prefix {
        self.prefix
    }

    /// The distinct step times, ascending. Empty scenarios still have a
    /// single step at t = 0 (the quiescent state).
    #[must_use]
    pub fn times(&self) -> Vec<u32> {
        let mut ts: Vec<u32> = self.events.iter().map(|e| e.t).collect();
        ts.sort_unstable();
        ts.dedup();
        if ts.is_empty() {
            ts.push(0);
        }
        ts
    }

    /// Folds every event at or before `t` (in `t` order, insertion order
    /// within a tick) into the resolved actor state.
    ///
    /// # Panics
    ///
    /// Panics if more than two subprefix hijackers are active at once, or
    /// if an actor collides with the victim.
    #[must_use]
    pub fn state_at(&self, t: u32) -> StepState {
        let mut ordered: Vec<&Event> = self.events.iter().filter(|e| e.t <= t).collect();
        ordered.sort_by_key(|e| e.t); // stable: insertion order within a tick
        let mut state = StepState {
            t,
            lambda: self.base_lambda,
            attacker: None,
            hijackers: Vec::new(),
        };
        for event in ordered {
            match event.action {
                Action::Attack {
                    attacker,
                    strategy,
                    mode,
                } => {
                    assert_ne!(attacker, self.victim, "attacker collides with victim");
                    state.attacker = Some((attacker, strategy, mode));
                }
                Action::SubprefixHijack { attacker } => {
                    assert_ne!(attacker, self.victim, "hijacker collides with victim");
                    if !state.hijackers.contains(&attacker) {
                        state.hijackers.push(attacker);
                    }
                    assert!(
                        state.hijackers.len() <= 2,
                        "at most two subprefix hijackers (one per half)"
                    );
                }
                Action::Escalate { lambda } => state.lambda = lambda.max(1),
                Action::WithdrawAttack => state.attacker = None,
                Action::WithdrawHijack { attacker } => {
                    state.hijackers.retain(|&h| h != attacker);
                }
            }
        }
        state
    }

    /// The destination specs a step resolves to: the victim's exact-prefix
    /// spec first, then one origin spec per subprefix hijacker.
    #[must_use]
    pub fn step_specs(&self, state: &StepState) -> Vec<DestinationSpec> {
        let mut exact = DestinationSpec::new(self.victim).origin_padding(state.lambda);
        if let Some((attacker, strategy, mode)) = state.attacker {
            exact = exact.attacker(AttackerModel::new(attacker).strategy(strategy).mode(mode));
        }
        let mut specs = vec![exact];
        specs.extend(state.hijackers.iter().map(|&h| DestinationSpec::new(h)));
        specs
    }

    /// The more-specific halves assigned to the active hijackers, in
    /// announcement order: first hijacker takes the lower half, second the
    /// upper.
    #[must_use]
    pub fn hijack_prefixes(&self, state: &StepState) -> Vec<Ipv4Prefix> {
        let (lo, hi) = self.prefix.split().expect("checked splittable in new()");
        [lo, hi].into_iter().take(state.hijackers.len()).collect()
    }

    /// Runs every step, computing each step's per-prefix equilibria through
    /// `runner` (input order preserved, so the run is deterministic at any
    /// worker count).
    ///
    /// # Panics
    ///
    /// Panics if an actor AS is missing from `graph` (as the engine does).
    #[must_use]
    pub fn run_with(&self, graph: &AsGraph, runner: &BatchRunner) -> ScenarioRun {
        let _span = aspp_obs::trace::span("scenario.run");
        let monitor_set = monitors::top_degree(graph, self.monitors);
        let detector = Detector::new(graph);
        let probe_sources = self.probe_sources(graph);

        let mut steps = Vec::new();
        let mut prev_routes: Option<Vec<Option<aspp_routing::RouteInfo>>> = None;
        for t in self.times() {
            let state = self.state_at(t);
            let specs = self.step_specs(&state);
            let outcomes: Vec<RoutingOutcome<'_>> =
                runner.run(graph, &specs, |_, outcome| outcome.clone());
            counters::incr(Counter::ScenarioStep);

            let exact = &outcomes[0];
            let polluted_fraction = exact.polluted_fraction();
            let exact_delivery = delivery_stats(exact);

            // Longest-prefix-match capture: each hijacker's half probed
            // from every (sampled) source against the combined table.
            let captured = if state.hijackers.is_empty() {
                0.0
            } else {
                let halves = self.hijack_prefixes(&state);
                let mut table = PrefixTable::new();
                table.announce(self.prefix, exact);
                for (half, outcome) in halves.iter().zip(&outcomes[1..]) {
                    table.announce(*half, outcome);
                }
                let mut captured = 0usize;
                let mut probes = 0usize;
                for (half, &hijacker) in halves.iter().zip(&state.hijackers) {
                    for &src in &probe_sources {
                        if src == self.victim || src == hijacker {
                            continue;
                        }
                        probes += 1;
                        if lpm_walk(&table, src, half.first_addr()).is_captured_by(hijacker) {
                            captured += 1;
                        }
                    }
                }
                if probes == 0 {
                    0.0
                } else {
                    captured as f64 / probes as f64
                }
            };

            // The paper's monitor-view detector, scanned per step: before =
            // the clean equilibrium's observed paths, after = this step's.
            let before = RouteView::from_paths(
                monitor_set
                    .iter()
                    .filter_map(|&m| exact.clean_observed_path(m)),
            );
            let after =
                RouteView::from_paths(monitor_set.iter().filter_map(|&m| exact.observed_path(m)));
            let alarms = detector.scan(&before, &after).len();

            // Between-step churn on the exact prefix: how many ASes moved.
            let routes: Vec<Option<aspp_routing::RouteInfo>> =
                graph.asns().map(|a| exact.route(a)).collect();
            let churn = prev_routes
                .as_ref()
                .map(|prev| prev.iter().zip(&routes).filter(|(a, b)| a != b).count())
                .unwrap_or(0);
            prev_routes = Some(routes);

            steps.push(StepReport {
                state,
                polluted_fraction,
                exact_delivery,
                captured,
                alarms,
                churn,
            });
        }
        ScenarioRun {
            victim: self.victim,
            prefix: self.prefix,
            steps,
        }
    }

    fn probe_sources(&self, graph: &AsGraph) -> Vec<Asn> {
        let mut sources: Vec<Asn> = graph.asns().collect();
        if let Some(cap) = self.capture_sources {
            let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5ce0_a11e);
            sources.shuffle(&mut rng);
            sources.truncate(cap);
            sources.sort_unstable();
        }
        sources
    }
}

impl ScenarioRun {
    /// Renders the run as an aligned plain-text table, one row per step.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "# Scenario — victim AS{} on {}\n\
             {:>4} {:>3} {:>10} {:>10} {:>9} {:>9} {:>9} {:>6} {:>6}  actors\n",
            self.victim,
            self.prefix,
            "t",
            "λ",
            "polluted",
            "intercept",
            "delivered",
            "blackhole",
            "captured",
            "alarms",
            "churn",
        );
        for step in &self.steps {
            let actors = match (&step.state.attacker, step.state.hijackers.as_slice()) {
                (None, []) => "quiescent".to_owned(),
                (att, hijs) => {
                    let mut parts = Vec::new();
                    if let Some((asn, strategy, _)) = att {
                        parts.push(format!("AS{asn} {}", strategy_label(*strategy)));
                    }
                    for h in hijs {
                        parts.push(format!("AS{h} subprefix"));
                    }
                    parts.join(" + ")
                }
            };
            let _ = writeln!(
                out,
                "{:>4} {:>3} {:>10.4} {:>10.4} {:>9.4} {:>9.4} {:>9.4} {:>6} {:>6}  {}",
                step.state.t,
                step.state.lambda,
                step.polluted_fraction,
                step.exact_delivery.intercepted,
                step.exact_delivery.delivered,
                step.exact_delivery.blackholed,
                step.captured,
                step.alarms,
                step.churn,
                actors,
            );
        }
        out
    }
}

fn strategy_label(strategy: AttackStrategy) -> &'static str {
    match strategy {
        AttackStrategy::StripPadding { .. } => "strip",
        AttackStrategy::StripAllPadding => "strip-all",
        AttackStrategy::ForgeDirect => "forge",
        AttackStrategy::OriginHijack => "origin-hijack",
        AttackStrategy::PoisonPath { .. } => "poison",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspp_topology::gen::InternetConfig;

    fn graph() -> AsGraph {
        InternetConfig::small().seed(11).build()
    }

    fn prefix() -> Ipv4Prefix {
        "203.0.0.0/16".parse().unwrap()
    }

    #[test]
    fn state_folds_events_in_time_order() {
        let s = Scenario::new(Asn(20_000), prefix())
            .base_lambda(4)
            .at(2, Action::SubprefixHijack { attacker: Asn(101) })
            .at(0, Action::attack(Asn(100)))
            .at(1, Action::Escalate { lambda: 8 })
            .at(3, Action::WithdrawAttack);
        assert_eq!(s.times(), vec![0, 1, 2, 3]);
        let s0 = s.state_at(0);
        assert_eq!(s0.lambda, 4);
        assert_eq!(s0.attacker.map(|a| a.0), Some(Asn(100)));
        assert!(s0.hijackers.is_empty());
        let s2 = s.state_at(2);
        assert_eq!(s2.lambda, 8);
        assert_eq!(s2.hijackers, vec![Asn(101)]);
        let s3 = s.state_at(3);
        assert_eq!(s3.attacker, None);
        assert_eq!(s3.hijackers, vec![Asn(101)]);
    }

    #[test]
    fn later_attack_replaces_the_exact_prefix_attacker() {
        let s = Scenario::new(Asn(20_000), prefix())
            .at(0, Action::attack(Asn(100)))
            .at(1, Action::attack(Asn(101)));
        assert_eq!(s.state_at(0).attacker.map(|a| a.0), Some(Asn(100)));
        assert_eq!(s.state_at(1).attacker.map(|a| a.0), Some(Asn(101)));
    }

    #[test]
    fn escalation_reduces_pollution_and_hijack_ignores_it() {
        // The paper's λ dynamic: more padding, more strippable distance,
        // more pollution for the strip attacker — while the subprefix
        // hijacker's capture is λ-independent (LPM outranks path length).
        let g = graph();
        let s = Scenario::new(Asn(20_000), prefix())
            .base_lambda(8)
            .capture_sources(Some(40))
            .at(0, Action::attack(Asn(100)))
            .at(1, Action::Escalate { lambda: 1 })
            .at(2, Action::SubprefixHijack { attacker: Asn(101) });
        let run = s.run_with(&g, &BatchRunner::new());
        assert_eq!(run.steps.len(), 3);
        let polluted_high = run.steps[0].polluted_fraction;
        let polluted_low = run.steps[1].polluted_fraction;
        assert!(
            polluted_low <= polluted_high,
            "de-escalating λ cannot increase strip pollution: {polluted_low} vs {polluted_high}"
        );
        assert!(run.steps[1].churn > 0 || polluted_high == polluted_low);
        // The hijacker captures (nearly) everyone regardless of λ.
        assert!(run.steps[2].captured > 0.9, "{}", run.steps[2].captured);
        let rendered = run.render();
        assert!(rendered.contains("subprefix"), "{rendered}");
    }

    #[test]
    fn quiescent_scenario_has_one_clean_step() {
        let g = graph();
        let run = Scenario::new(Asn(20_000), prefix()).run_with(&g, &BatchRunner::new());
        assert_eq!(run.steps.len(), 1);
        let step = &run.steps[0];
        assert_eq!(step.polluted_fraction, 0.0);
        assert_eq!(step.alarms, 0);
        assert_eq!(step.captured, 0.0);
        assert!((step.exact_delivery.delivered - 1.0).abs() < 1e-9);
    }

    #[test]
    fn strip_step_raises_detector_alarms() {
        let g = graph();
        let run = Scenario::new(Asn(20_000), prefix())
            .base_lambda(6)
            .monitors(30)
            .at(0, Action::attack(Asn(100)))
            .run_with(&g, &BatchRunner::new());
        let step = &run.steps[0];
        if step.polluted_fraction > 0.0 {
            assert!(step.alarms > 0, "polluted strip step must alarm");
        }
    }

    #[test]
    fn run_is_deterministic_across_worker_counts() {
        let g = graph();
        let s = Scenario::new(Asn(20_000), prefix())
            .base_lambda(6)
            .capture_sources(Some(30))
            .at(0, Action::attack(Asn(100)))
            .at(1, Action::SubprefixHijack { attacker: Asn(101) });
        let runs: Vec<ScenarioRun> = [
            BatchRunner::new().workers(1),
            BatchRunner::new().workers(2),
            BatchRunner::new().workers(8),
        ]
        .iter()
        .map(|r| s.run_with(&g, r))
        .collect();
        for run in &runs[1..] {
            assert_eq!(run.render(), runs[0].render());
            for (a, b) in run.steps.iter().zip(&runs[0].steps) {
                assert_eq!(a.polluted_fraction, b.polluted_fraction);
                assert_eq!(a.captured, b.captured);
                assert_eq!(a.alarms, b.alarms);
                assert_eq!(a.churn, b.churn);
            }
        }
    }
}
