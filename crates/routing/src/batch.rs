//! Batched multi-victim equilibrium computation.
//!
//! The paper's impact figures (Figs. 7–12) sweep thousands of
//! (victim, attacker, λ, strategy, export-mode) cells. Computed one
//! [`RoutingEngine::compute`] call at a time, every cell pays a full
//! pass-structure lifetime: fresh dirty and stale marks, and a clean pass
//! recomputed from nothing even though the
//! neighboring cell shares the same clean equilibrium. This module
//! amortizes that cost across an entire sweep:
//!
//! * **One pass-structure lifetime for many victims.** Each worker owns a
//!   single [`RouteWorkspace`] for the whole batch. Starting the next
//!   delta pass clears its already-sized marks, one bit per node (no
//!   reallocation — see [`RouteWorkspace::scratch_reuses`]). The decision
//!   compare — one integer compare
//!   of packed route words — is the single-shot path's own, so batched
//!   cells decide routes exactly the way serial cells do.
//! * **Work stealing *across* clean equilibria, not inside a pass.** A
//!   propagation pass is inherently sequential (a sweep in propagation
//!   order), so the parallel grain is the thing cells actually
//!   share: all cells with one clean equilibrium — the same
//!   (victim, prepending config), which is exactly the
//!   workspace's clean-cache key — form one steal unit, claimed from a
//!   shared atomic cursor. A Figure-9-style λ sweep over one victim is
//!   therefore eight units, not one. A worker that claims a unit computes
//!   its clean pass once and then serves every strategy/export-mode/defense
//!   cell from it (every attacked pass is a delta pass, defended ones
//!   included). Because a unit
//!   *is* a cache key, a worker never revisits an earlier unit's clean
//!   pass and its workspace holds exactly one.
//! * **A finish phase for the last units.** Cells inside a unit are claimed
//!   one at a time from the unit's own cursor. A worker that finds the
//!   unit cursor exhausted joins any unit that still has unclaimed cells,
//!   recomputes that unit's clean pass once in its *own* workspace and
//!   computes the cells it claims there — so a one-pair grid (one unit,
//!   many cells) still uses every worker, and no worker idles while
//!   another drains a long unit alone.
//!
//! # Bit-identity to the serial path
//!
//! Batch results are **bit-identical** to mapping
//! [`RoutingEngine::compute_with`] over the specs serially (and therefore
//! to [`RoutingEngine::compute`], per the [`RouteWorkspace`] equivalence
//! guarantee). This holds by construction: each cell is still computed by
//! `compute_with` against an isolated per-worker workspace, and workspace
//! state only ever decides whether the clean pass is served from the cache
//! or recomputed, the same table either way. Cells never exchange data
//! across workers: a worker that joins another's unit recomputes the clean
//! pass rather than borrowing it.
//! Scheduling order affects wall-clock (and the scheduling counters
//! `batch_steals` and, with several workers, `clean_cache_misses`) only;
//! results are written back by input index. `tests/batch_equivalence.rs`
//! pins this across the full 4-strategy × 2-export-mode × λ=1..8 matrix and
//! on one-unit batches at every worker count.
//!
//! # Defended cells
//!
//! A cell may carry its own [`defense`](DestinationSpec::defense), which is
//! how deployment sweeps (policy × strategy × adoption-fraction grids) ride
//! the same machinery: the clean pass is policy-*independent* — defenses
//! only filter attacker-derived imports — and the steal-unit key ignores
//! the defense, so every cell of a unit serves from the one cached clean
//! pass whichever deployment it carries, and computes its attacked pass
//! from it by the delta pass.
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

use aspp_obs::counters::{self, Counter};
use aspp_topology::AsGraph;
use aspp_types::Asn;

use crate::engine::{DestinationSpec, RouteWorkspace, RoutingEngine, RoutingOutcome};

/// A batch equilibrium runner: computes many victims' clean and attacked
/// equilibria inside one pass-structure lifetime per worker.
///
/// See the [module docs](self) for the execution model. Construction is
/// free; the runner holds configuration only, so one handle can be reused
/// across sweeps.
#[derive(Clone, Copy, Debug)]
pub struct BatchRunner {
    /// Worker-thread count; `0` means "one per available core, capped at
    /// the number of cells".
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
    /// count is always capped at the number of cells. `workers(1)` is
    /// serial execution: one workspace, units processed in
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
    /// Specs sharing a clean equilibrium (victim, prepending config) form
    /// one steal unit, whatever their attackers and defenses, and are
    /// claimed in input order within the unit.
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
        let _span = aspp_obs::trace::span("batch");
        let units = steal_units(specs);
        counters::add(Counter::BatchVictim, units.len() as u64);
        let workers = self.worker_count(specs.len());
        let engine = RoutingEngine::new(graph);
        let next_unit = AtomicUsize::new(0);

        let work = || {
            // A unit is a clean-cache key, so one slot is all a worker
            // ever hits; more would keep finished units' passes alive.
            let mut ws = RouteWorkspace::with_cache_capacity(1);
            let mut done: Vec<(usize, T)> = Vec::new();
            let mut served = 0u64;
            // Claim whole units off the shared cursor; once it runs dry,
            // finish whatever the other workers are still draining. Cell
            // claims only ever advance, so one forward scan finds it all.
            let claimed =
                std::iter::from_fn(|| units.get(next_unit.fetch_add(1, Ordering::Relaxed)));
            let unfinished = units.iter().filter(|unit| unit.has_unclaimed());
            for unit in claimed.chain(unfinished) {
                let before = done.len();
                while let Some(i) = unit.claim() {
                    let outcome = engine.compute_with(&specs[i], &mut ws);
                    debug_assert!(ws.cached_passes() <= 1, "a worker hoards clean passes");
                    done.push((i, reduce(i, &outcome)));
                }
                served += u64::from(done.len() > before);
            }
            // A lone worker has nobody to steal from.
            if workers > 1 {
                counters::add(Counter::BatchSteal, served.saturating_sub(1));
            }
            counters::add(Counter::BatchScratchReuse, ws.scratch_reuses());
            done
        };

        // The calling thread is worker 0, so `workers(1)` spawns nothing.
        let done = std::thread::scope(|scope| {
            let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
            let mut done = work();
            for handle in spawned {
                done.extend(
                    handle
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                );
            }
            done
        });
        let mut out: Vec<Option<T>> = (0..specs.len()).map(|_| None).collect();
        for (i, t) in done {
            out[i] = Some(t);
        }
        out.into_iter()
            .map(|r| r.expect("every cell computed"))
            .collect()
    }

    fn worker_count(&self, cells: usize) -> usize {
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
        n.min(cells).max(1)
    }
}

/// One steal unit: the input indices of every cell sharing one clean
/// equilibrium, in input order, plus the cursor cells are claimed from.
#[derive(Debug, Default)]
struct Unit {
    cells: Vec<usize>,
    cursor: AtomicUsize,
}

impl Unit {
    /// Claims the next unclaimed cell's input index. `Relaxed` suffices:
    /// the cursor only hands out tickets — everything a ticket leads to
    /// was written before the workers were spawned.
    fn claim(&self) -> Option<usize> {
        self.cells
            .get(self.cursor.fetch_add(1, Ordering::Relaxed))
            .copied()
    }

    fn has_unclaimed(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) < self.cells.len()
    }
}

/// Groups cell indices into steal units: one unit per clean equilibrium
/// ([`DestinationSpec::clean_key`]), units in first-appearance order,
/// indices in input order within a unit.
fn steal_units<'a>(specs: impl IntoIterator<Item = &'a DestinationSpec>) -> Vec<Unit> {
    let mut units: Vec<Unit> = Vec::new();
    // A victim swept over λ owns one unit per λ: (unit, its first spec).
    let mut by_victim: HashMap<Asn, Vec<(usize, &DestinationSpec)>> = HashMap::new();
    for (i, spec) in specs.into_iter().enumerate() {
        let of_victim = by_victim.entry(spec.victim()).or_default();
        let known = of_victim
            .iter()
            .find(|(_, first)| first.clean_key() == spec.clean_key());
        let unit = match known {
            Some(&(unit, _)) => unit,
            None => {
                units.push(Unit::default());
                of_victim.push((units.len() - 1, spec));
                units.len() - 1
            }
        };
        units[unit].cells.push(i);
    }
    units
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
    fn defended_batch_matches_serial_compute_with() {
        use crate::policy::{DeployedPolicy, DeploymentMap, PolicyKind};
        use std::sync::Arc;
        let g = graph();
        // Same spec grid, alternating deployment maps: cells sharing a
        // victim but carrying different defenses must still serve from one
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
        let cells: Vec<DestinationSpec> = matrix_specs()
            .into_iter()
            .enumerate()
            .map(|(i, s)| s.defense(Arc::clone(&maps[i % 2])))
            .collect();
        let engine = RoutingEngine::new(&g);
        let mut ws = RouteWorkspace::new();
        let expected: Vec<(usize, usize)> = cells
            .iter()
            .map(|s| polluted(&engine.compute_with(s, &mut ws)))
            .collect();
        for runner in [
            BatchRunner::new(),
            BatchRunner::new().workers(1),
            BatchRunner::new().workers(3),
        ] {
            let got = runner.run(&g, &cells, |_, o| polluted(o));
            assert_eq!(got, expected);
        }
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
    fn steal_units_group_by_clean_key_in_first_appearance_order() {
        let attacked = |s: DestinationSpec| s.attacker(AttackerModel::new(Asn(9)));
        let specs = [
            DestinationSpec::new(Asn(2)).origin_padding(3),
            DestinationSpec::new(Asn(1)),
            // Same victim, different λ: its own clean equilibrium.
            DestinationSpec::new(Asn(2)).origin_padding(4),
            // Equal key, not adjacent, attacker irrelevant: joins unit 0.
            attacked(DestinationSpec::new(Asn(2)).origin_padding(3)),
            attacked(DestinationSpec::new(Asn(2)).origin_padding(4)),
        ];
        let units: Vec<Vec<usize>> = steal_units(&specs).into_iter().map(|u| u.cells).collect();
        assert_eq!(
            units,
            vec![vec![0, 3], vec![1], vec![2, 4]],
            "units keep first-appearance order; cells keep input order"
        );
    }

    #[test]
    fn unit_cells_are_claimed_once_in_input_order() {
        let unit = Unit {
            cells: vec![4, 7, 9],
            cursor: AtomicUsize::new(0),
        };
        assert!(unit.has_unclaimed());
        assert_eq!(
            std::iter::from_fn(|| unit.claim()).collect::<Vec<_>>(),
            [4, 7, 9]
        );
        assert!(!unit.has_unclaimed());
        assert_eq!(unit.claim(), None);
    }

    #[test]
    fn worker_count_caps_at_cells() {
        let r = BatchRunner::new().workers(64);
        assert_eq!(r.worker_count(3), 3);
        assert_eq!(BatchRunner::new().workers(1).worker_count(8), 1);
        assert!(BatchRunner::new().worker_count(8) >= 1);
        assert_eq!(BatchRunner::new().worker_count(0), 1);
    }
}
