//! Batched multi-victim equilibrium computation.
//!
//! The paper's impact figures (Figs. 7–12) sweep thousands of
//! (victim, attacker, λ, strategy, export-mode) cells. Computed one
//! [`RoutingEngine::compute`] call at a time, every cell pays a full
//! pass-structure lifetime: a fresh `NodeScratch` table, fresh scheduler
//! buckets, and a clean pass recomputed from nothing even though the
//! neighboring cell shares the same victim. This module amortizes that cost
//! across an entire sweep:
//!
//! * **One pass-structure lifetime for many victims.** Each worker owns a
//!   single [`RouteWorkspace`] for the whole batch. Starting the next
//!   victim's pass is an epoch bump over the already-sized scratch table
//!   (O(1), no re-zeroing, no reallocation — see
//!   [`RouteWorkspace::scratch_reuses`]) and the bucket queue's `Vec`
//!   spines are reused as-is. The packed-`u128` branchless decision compare
//!   (`pack_pref` in the engine) is shared with the single-shot path,
//!   so batched cells decide routes exactly the way serial cells do.
//! * **Work stealing *across* victims, not inside a pass.** A propagation
//!   pass is inherently sequential (the bucket scan is a priority order),
//!   so the parallel grain is one victim: all cells sharing a victim form
//!   one steal unit, claimed from a shared atomic cursor. A worker that
//!   steals a victim computes that victim's clean pass once into its warm
//!   workspace cache and then serves every λ/strategy/export-mode cell
//!   from it (attacked passes ride the delta path). Units are claimed
//!   dynamically, so a worker stuck on a hub victim does not stall the
//!   rest of the sweep.
//!
//! # Bit-identity to the serial path
//!
//! Batch results are **bit-identical** to mapping
//! [`RoutingEngine::compute_with`] over the specs serially (and therefore
//! to [`RoutingEngine::compute`], per the [`RouteWorkspace`] equivalence
//! guarantee). This holds by construction: each cell is still computed by
//! `compute_with` against an isolated per-worker workspace, workspace
//! state only ever changes *which* of two bit-identical paths (cached vs
//! recomputed clean pass, delta vs full attacked pass) produces the
//! result, and cells never exchange data across workers. Scheduling order
//! affects wall-clock only; results are written back by input index.
//! `tests/batch_equivalence.rs` pins this across the full
//! 4-strategy × 2-export-mode × λ=1..8 matrix.
//!
//! # Per-cell defense policies
//!
//! [`BatchRunner::run_with_policy`] generalizes the sweep cell from a bare
//! [`DestinationSpec`] to a `(spec, policy)` pair, which is how deployment
//! sweeps (policy × strategy × adoption-fraction grids) ride the same
//! machinery: the clean pass is policy-*independent* — defenses only filter
//! attacker-derived imports — so every cell sharing a victim still serves
//! from the one cached clean pass regardless of which [`DefensePolicy`]
//! each cell carries. [`BatchRunner::run`] is the [`NoDefense`]
//! specialization; because `NoDefense` sets
//! [`DefensePolicy::NOOP`], that instantiation monomorphizes
//! back to the exact pre-policy hot loop and keeps the bit-identity
//! guarantee above.
//!
//! # Example
//!
//! ```
//! use aspp_routing::batch::BatchRunner;
//! use aspp_routing::DestinationSpec;
//! use aspp_topology::gen::InternetConfig;
//! use aspp_types::Asn;
//!
//! let graph = InternetConfig::small().seed(7).build();
//! let specs: Vec<DestinationSpec> = (1..=4)
//!     .map(|pad| DestinationSpec::new(Asn(20_000)).origin_padding(pad))
//!     .collect();
//! let reached = BatchRunner::new().run(&graph, &specs, |_, outcome| {
//!     outcome.asns().filter(|&a| outcome.route(a).is_some()).count()
//! });
//! assert_eq!(reached.len(), specs.len());
//! assert!(reached.iter().all(|&n| n == graph.len()));
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use aspp_obs::counters::{self, Counter};
use aspp_topology::AsGraph;
use aspp_types::Asn;

use crate::engine::{DestinationSpec, RouteWorkspace, RoutingEngine, RoutingOutcome};
use crate::policy::{DefensePolicy, NoDefense};

/// A batch equilibrium runner: computes many victims' clean and attacked
/// equilibria inside one pass-structure lifetime per worker.
///
/// See the [module docs](self) for the execution model. Construction is
/// free; the runner holds configuration only, so one handle can be reused
/// across sweeps.
#[derive(Clone, Copy, Debug)]
pub struct BatchRunner {
    /// Worker-thread count; `0` means "one per available core, capped at
    /// the number of steal units".
    workers: usize,
}

impl Default for BatchRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchRunner {
    /// A runner with automatic worker count.
    #[must_use]
    pub fn new() -> Self {
        BatchRunner { workers: 0 }
    }

    /// Pins the worker count (`0` restores the automatic choice). The
    /// count is always capped at the number of steal units. `workers(1)`
    /// is serial execution: one workspace, victims processed in
    /// first-appearance order, no threads spawned — identical results.
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Computes every spec's equilibrium and reduces each outcome to a
    /// result, returned in input order.
    ///
    /// `reduce` receives the input index and the outcome; it runs on the
    /// worker that computed the cell, so the (potentially large) outcome
    /// never crosses a thread boundary — only the reduced value does.
    /// Specs sharing a victim form one steal unit and are computed by one
    /// worker against its warm workspace, in input order within the unit.
    ///
    /// # Panics
    ///
    /// Panics if any spec's victim (or attacker) is missing from `graph`
    /// or attacker == victim, exactly as [`RoutingEngine::compute`] does.
    #[must_use]
    pub fn run<'g, T, F>(&self, graph: &'g AsGraph, specs: &[DestinationSpec], reduce: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &RoutingOutcome<'g>) -> T + Sync,
    {
        let cells: Vec<(DestinationSpec, NoDefense)> =
            specs.iter().map(|s| (s.clone(), NoDefense)).collect();
        self.run_with_policy(graph, &cells, reduce)
    }

    /// Like [`BatchRunner::run`], but every cell carries its own defense
    /// policy: cell `i` is computed via
    /// [`RoutingEngine::compute_with_policy`] with `cells[i].1`.
    ///
    /// Cells sharing a victim still form one steal unit and serve from one
    /// cached clean pass even when their policies differ — defenses filter
    /// attacker-derived imports only, so the clean equilibrium is the same
    /// under every policy. This is what makes deployment sweeps (one spec
    /// × many deployment maps) cheap: only the attacked delta pass is
    /// recomputed per cell.
    ///
    /// `P` is typically [`std::sync::Arc`]`<`[`DeployedPolicy`]`>` so a
    /// whole fraction-grid of cells can share a handful of deployment
    /// maps; passing [`NoDefense`] makes this exactly [`BatchRunner::run`].
    ///
    /// [`DeployedPolicy`]: crate::policy::DeployedPolicy
    ///
    /// # Panics
    ///
    /// Same as [`BatchRunner::run`].
    #[must_use]
    pub fn run_with_policy<'g, P, T, F>(
        &self,
        graph: &'g AsGraph,
        cells: &[(DestinationSpec, P)],
        reduce: F,
    ) -> Vec<T>
    where
        P: DefensePolicy + Sync,
        T: Send,
        F: Fn(usize, &RoutingOutcome<'g>) -> T + Sync,
    {
        let _span = aspp_obs::trace::span("batch");
        if cells.is_empty() {
            return Vec::new();
        }
        let groups = steal_units(cells.iter().map(|(spec, _)| spec.victim()));
        counters::add(Counter::BatchVictim, groups.len() as u64);
        let workers = self.worker_count(groups.len());
        let engine = RoutingEngine::new(graph);

        if workers <= 1 {
            // Single-worker fast path: one shared scratch table and bucket
            // queue for the entire batch, no threads, no locks.
            let mut ws = RouteWorkspace::new();
            let mut out: Vec<Option<T>> = (0..cells.len()).map(|_| None).collect();
            for (_, idxs) in &groups {
                for &i in idxs {
                    let (spec, policy) = &cells[i];
                    let outcome = engine.compute_with_policy(spec, &mut ws, policy);
                    out[i] = Some(reduce(i, &outcome));
                }
            }
            counters::add(Counter::BatchScratchReuse, ws.scratch_reuses());
            return out
                .into_iter()
                .map(|r| r.expect("every cell computed"))
                .collect();
        }

        let cursor = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<T>>> = Mutex::new((0..cells.len()).map(|_| None).collect());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut ws = RouteWorkspace::new();
                    let mut claimed = 0usize;
                    loop {
                        let g = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some((_, idxs)) = groups.get(g) else {
                            break;
                        };
                        claimed += 1;
                        if claimed > 1 {
                            // Every unit after a worker's first is a steal:
                            // the worker outran its fair share and grabbed
                            // more from the shared cursor.
                            counters::incr(Counter::BatchSteal);
                        }
                        let mut unit: Vec<(usize, T)> = Vec::with_capacity(idxs.len());
                        for &i in idxs {
                            let (spec, policy) = &cells[i];
                            let outcome = engine.compute_with_policy(spec, &mut ws, policy);
                            unit.push((i, reduce(i, &outcome)));
                        }
                        // One lock per steal unit, not per cell.
                        let mut out = results.lock().expect("no poisoned writer");
                        for (i, t) in unit {
                            out[i] = Some(t);
                        }
                    }
                    counters::add(Counter::BatchScratchReuse, ws.scratch_reuses());
                });
            }
        });
        results
            .into_inner()
            .expect("workers joined")
            .into_iter()
            .map(|r| r.expect("every cell computed"))
            .collect()
    }

    fn worker_count(&self, units: usize) -> usize {
        let auto = || {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        };
        let n = if self.workers == 0 {
            auto()
        } else {
            self.workers
        };
        n.min(units).max(1)
    }
}

/// Groups cell indices into steal units: one unit per victim, victims in
/// first-appearance order, indices in input order within a unit.
fn steal_units(victims: impl IntoIterator<Item = Asn>) -> Vec<(Asn, Vec<usize>)> {
    let mut groups: Vec<(Asn, Vec<usize>)> = Vec::new();
    let mut by_victim: HashMap<Asn, usize> = HashMap::new();
    for (i, victim) in victims.into_iter().enumerate() {
        let slot = *by_victim.entry(victim).or_insert_with(|| {
            groups.push((victim, Vec::new()));
            groups.len() - 1
        });
        groups[slot].1.push(i);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AttackerModel;
    use crate::ExportMode;
    use aspp_topology::gen::InternetConfig;

    fn graph() -> AsGraph {
        InternetConfig::small().seed(41).build()
    }

    fn matrix_specs() -> Vec<DestinationSpec> {
        let mut specs = Vec::new();
        for victim in [Asn(100), Asn(20_001), Asn(20_002)] {
            for pad in 1..=4 {
                specs.push(
                    DestinationSpec::new(victim)
                        .origin_padding(pad)
                        .attacker(AttackerModel::new(Asn(101)).mode(ExportMode::ViolateValleyFree)),
                );
            }
        }
        specs
    }

    fn polluted(outcome: &RoutingOutcome<'_>) -> (usize, usize) {
        (outcome.polluted_count(), outcome.changed_count())
    }

    #[test]
    fn batch_matches_serial_compute_with() {
        let g = graph();
        let specs = matrix_specs();
        let engine = RoutingEngine::new(&g);
        let mut ws = RouteWorkspace::new();
        let expected: Vec<(usize, usize)> = specs
            .iter()
            .map(|s| polluted(&engine.compute_with(s, &mut ws)))
            .collect();
        for runner in [
            BatchRunner::new(),
            BatchRunner::new().workers(1),
            BatchRunner::new().workers(2),
            BatchRunner::new().workers(7),
        ] {
            let got = runner.run(&g, &specs, |_, o| polluted(o));
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn policied_batch_matches_serial_compute_with_policy() {
        use crate::policy::{DeployedPolicy, DeploymentMap, PolicyKind};
        use std::sync::Arc;
        let g = graph();
        // Same spec grid, alternating deployment maps: cells sharing a
        // victim but carrying different policies must still serve from one
        // cached clean pass without contaminating each other.
        let maps = [
            Arc::new(DeployedPolicy::new(
                PolicyKind::Aspa,
                DeploymentMap::from_indices(g.len(), 0..g.len() / 2),
            )),
            Arc::new(DeployedPolicy::new(
                PolicyKind::PeerlockLite,
                DeploymentMap::from_indices(g.len(), 0..g.len()),
            )),
        ];
        let cells: Vec<(DestinationSpec, Arc<DeployedPolicy>)> = matrix_specs()
            .into_iter()
            .enumerate()
            .map(|(i, s)| (s, Arc::clone(&maps[i % 2])))
            .collect();
        let engine = RoutingEngine::new(&g);
        let mut ws = RouteWorkspace::new();
        let expected: Vec<(usize, usize)> = cells
            .iter()
            .map(|(s, p)| polluted(&engine.compute_with_policy(s, &mut ws, p)))
            .collect();
        for runner in [
            BatchRunner::new(),
            BatchRunner::new().workers(1),
            BatchRunner::new().workers(3),
        ] {
            let got = runner.run_with_policy(&g, &cells, |_, o| polluted(o));
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn nodefense_cells_match_plain_run() {
        let g = graph();
        let specs = matrix_specs();
        let cells: Vec<(DestinationSpec, NoDefense)> =
            specs.iter().map(|s| (s.clone(), NoDefense)).collect();
        let runner = BatchRunner::new().workers(1);
        let via_run = runner.run(&g, &specs, |_, o| polluted(o));
        let via_cells = runner.run_with_policy(&g, &cells, |_, o| polluted(o));
        assert_eq!(via_run, via_cells);
    }

    #[test]
    fn reduce_sees_input_indices_in_order() {
        let g = graph();
        let specs = matrix_specs();
        let idxs = BatchRunner::new().run(&g, &specs, |i, _| i);
        assert_eq!(idxs, (0..specs.len()).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batch_is_empty() {
        let g = graph();
        let out: Vec<usize> = BatchRunner::new().run(&g, &[], |i, _| i);
        assert!(out.is_empty());
    }

    #[test]
    fn steal_units_group_by_victim_in_first_appearance_order() {
        let specs = [
            DestinationSpec::new(Asn(2)),
            DestinationSpec::new(Asn(1)),
            DestinationSpec::new(Asn(2)).origin_padding(3),
        ];
        let units = steal_units(specs.iter().map(DestinationSpec::victim));
        assert_eq!(
            units,
            vec![(Asn(2), vec![0, 2]), (Asn(1), vec![1])],
            "victims keep first-appearance order; cells keep input order"
        );
    }

    #[test]
    fn worker_count_caps_at_units() {
        let r = BatchRunner::new().workers(64);
        assert_eq!(r.worker_count(3), 3);
        assert_eq!(BatchRunner::new().workers(1).worker_count(8), 1);
        assert!(BatchRunner::new().worker_count(8) >= 1);
        assert_eq!(BatchRunner::new().worker_count(0), 1);
    }
}
