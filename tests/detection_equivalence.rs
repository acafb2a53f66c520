//! Detection-evaluation equivalence: everything `aspp-detect` computes
//! through `BatchRunner` must be **identical** at every worker count, the
//! Figure 13 points must equal the fold of the cold per-cell
//! `detect_attack` reference, the Figure 14 reduction must equal per-cell
//! `polluted_fraction_before_detection`, and the vantage-selection study
//! must compute each drawn experiment's equilibrium at most once.
//!
//! The last check reads the process-global `aspp-obs` counters, so every
//! test here serializes on [`LOCK`] (the `obs_counters.rs` convention).

use std::sync::Mutex;

use aspp_core::attack::sweep::random_pair_experiments;
use aspp_core::detect::eval::{
    accuracy_vs_monitors, detect_attack, effective_attacks, false_positive_rate,
    polluted_before_detection, polluted_fraction_before_detection, visibility_matrix,
};
use aspp_core::detect::monitors::top_degree;
use aspp_core::detect::selection::{compare_selections, prepare};
use aspp_core::experiments::{detection, Scale};
use aspp_core::obs::counters::Counter;
use aspp_core::prelude::*;

static LOCK: Mutex<()> = Mutex::new(());

/// `f` evaluated at every worker count; panics unless all values agree.
fn same_at_every_worker_count<T: PartialEq + std::fmt::Debug>(f: impl Fn(&BatchRunner) -> T) -> T {
    let [serial, two, eight] = [1, 2, 8].map(|n| f(&BatchRunner::new().workers(n)));
    assert_eq!(serial, two, "workers(2) diverges from workers(1)");
    assert_eq!(serial, eight, "workers(8) diverges from workers(1)");
    serial
}

#[test]
fn fig13_points_are_worker_independent_and_fold_per_cell_detect_attack() {
    let _guard = LOCK.lock().unwrap();
    let graph = Scale::Smoke.internet(131);
    let specs = random_pair_experiments(&graph, 16, 3, 131);
    let counts = [3, 12, 40];
    let curve = same_at_every_worker_count(|r| accuracy_vs_monitors(&graph, &specs, &counts, r));

    assert_eq!(curve.len(), counts.len());
    for (point, &d) in curve.iter().zip(&counts) {
        let monitors = top_degree(&graph, d);
        let cells: Vec<_> = specs
            .iter()
            .map(|s| detect_attack(&graph, s, &monitors))
            .filter(|r| r.effective)
            .collect();
        assert!(!cells.is_empty(), "seed draws effective attacks");
        let share = |hits: usize| hits as f64 / cells.len() as f64;
        assert_eq!(point.monitor_count, d);
        assert_eq!(point.attacks, cells.len());
        assert_eq!(
            point.accuracy,
            share(cells.iter().filter(|r| r.any_alarm).count())
        );
        assert_eq!(
            point.accuracy_attributed,
            share(cells.iter().filter(|r| r.detected).count())
        );
        assert_eq!(
            point.accuracy_high,
            share(cells.iter().filter(|r| r.detected_high).count())
        );
    }
}

#[test]
fn fig14_reduction_is_worker_independent_and_matches_the_cold_reference() {
    let _guard = LOCK.lock().unwrap();
    let graph = Scale::Smoke.internet(141);
    let specs = random_pair_experiments(&graph, 16, 3, 141);
    let monitors = top_degree(&graph, 30);
    let batched = same_at_every_worker_count(|r| {
        effective_attacks(&graph, &specs, r, |outcome| {
            (
                outcome.spec().clone(),
                polluted_before_detection(outcome, &monitors),
            )
        })
    });
    assert!(!batched.is_empty(), "seed draws effective attacks");
    // Survivors come back in input order, each equal to its cold cell …
    let survivors: Vec<DestinationSpec> = batched.iter().map(|(s, _)| s.clone()).collect();
    let expected: Vec<DestinationSpec> = specs
        .iter()
        .filter(|s| detect_attack(&graph, s, &monitors).effective)
        .cloned()
        .collect();
    assert_eq!(survivors, expected);
    for (spec, fraction) in &batched {
        assert_eq!(
            *fraction,
            polluted_fraction_before_detection(&graph, spec, &monitors),
            "{spec:?}"
        );
    }
    // … and the cold reference reports nothing for the filtered-out rest.
    for spec in specs.iter().filter(|s| !survivors.contains(s)) {
        assert_eq!(
            polluted_fraction_before_detection(&graph, spec, &monitors),
            None
        );
    }
}

#[test]
fn selection_false_positive_and_visibility_are_worker_independent() {
    let _guard = LOCK.lock().unwrap();
    let graph = Scale::Smoke.internet(151);
    let mut pool = random_pair_experiments(&graph, 20, 3, 151);
    let held_out = pool.split_off(pool.len() / 2);
    let comparison = same_at_every_worker_count(|r| {
        let training = prepare(&graph, &pool, r);
        let held_out = prepare(&graph, &held_out, r);
        compare_selections(&graph, &training, &held_out, 6, 151)
    });
    assert_eq!(comparison.greedy_monitors.len(), 6);

    let monitors = top_degree(&graph, 25);
    let victims: Vec<Asn> = graph.asns().take(20).collect();
    let report =
        same_at_every_worker_count(|r| false_positive_rate(&graph, &victims, &monitors, r));
    assert!(report.scenarios > 0);

    let (victim, attacker) = (pool[0].victim(), pool[0].attacker_model().unwrap().asn());
    let matrix = same_at_every_worker_count(|r| {
        visibility_matrix(&graph, victim, attacker, 4, &monitors, r)
    });
    assert_eq!(matrix.len(), 3);
}

#[test]
fn vantage_selection_computes_each_drawn_experiment_at_most_once() {
    let _guard = LOCK.lock().unwrap();
    let graph = Scale::Smoke.internet(161);
    let before = MetricsSnapshot::capture();
    let study = detection::vantage_selection(&graph, Scale::Smoke, 161);
    let delta = MetricsSnapshot::capture().since(&before);
    assert_eq!(study.comparisons.len(), 2);

    // Smoke scale draws 12 training + 12 held-out experiments. Each half
    // is one batch, prepared once for both budgets and all three
    // strategies: at most one steal unit, one clean pass and one attacked
    // pass per experiment drawn.
    let drawn = 24;
    let units = delta.get(Counter::BatchVictim);
    assert!((1..=drawn).contains(&units), "batch_victims = {units}");
    let clean = delta.get(Counter::CleanCacheHit) + delta.get(Counter::CleanCacheMiss);
    assert_eq!(clean, drawn, "one equilibrium per experiment");
}
