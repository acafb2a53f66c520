//! Feature-gated global atomic counters for the engine's performance
//! mechanisms.
//!
//! With the `enabled` feature the counters are relaxed `AtomicU64`s; without
//! it every mutation is an empty `#[inline(always)]` function, so the
//! instrumentation in `aspp-routing`'s per-edge hot loops compiles to
//! nothing (verified by the disabled-configuration bench comparison in
//! `EXPERIMENTS.md`).
//!
//! Counters are process-global and monotone. Code that needs a per-phase
//! reading captures a [`MetricsSnapshot`] before and after and diffs with
//! [`MetricsSnapshot::since`].

use crate::json::JsonWriter;
use std::fmt;

/// Declares [`Counter`] from one table of `(Variant, "wire_name")` rows
/// (each row's doc comment becomes the variant's): the enum, `COUNT`, `ALL`
/// and `name()` all expand from the same list, in table order.
macro_rules! counters {
    ($($(#[$doc:meta])* ($variant:ident, $name:literal),)+) => {
        /// Every counter the workspace maintains. The discriminant doubles
        /// as the index into the counter array and into
        /// [`MetricsSnapshot::values`].
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Counter {
            $($(#[$doc])* $variant,)+
        }

        impl Counter {
            /// All counters, in snapshot order.
            pub const ALL: [Counter; Counter::COUNT] = [$(Counter::$variant,)+];

            /// Number of distinct counters.
            pub const COUNT: usize = [$($name,)+].len();

            /// The counter's stable snake_case name, used as the JSON key
            /// and the table row label.
            #[must_use]
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)+
                }
            }
        }
    };
}

counters! {
    /// Clean (no-attack) passes served from a [`RouteWorkspace`] cache.
    ///
    /// [`RouteWorkspace`]: https://docs.rs/aspp-routing
    (CleanCacheHit, "clean_cache_hits"),
    /// Clean passes that had to be computed from scratch.
    (CleanCacheMiss, "clean_cache_misses"),
    /// Attacked passes, each a delta pass: the propagation loop over the
    /// nodes the attack can reach, from the clean equilibrium.
    (DeltaPass, "delta_passes"),
    /// Nodes the delta passes visited, cumulatively — the total size of
    /// their dirty sets.
    (DeltaFrontierNode, "delta_frontier_nodes"),
    /// Equilibria checked by the invariant auditor.
    (AuditCheck, "audit_checks"),
    /// Invariant violations found by the auditor.
    (AuditViolation, "audit_violations"),
    /// Update records accepted into the feed pipeline.
    (FeedRecordIn, "feed_records_in"),
    /// Wire-format frames rejected by the feed codec (lenient decode).
    (FeedFrameBad, "feed_frames_bad"),
    /// Alarms emitted by the feed pipeline's merged output.
    (FeedAlarm, "feed_alarms"),
    /// Steal units processed by the batch sweep engine: one unit per
    /// distinct clean equilibrium — (victim, prepending config) — in the
    /// batch, so a λ sweep over one victim counts once per λ. The
    /// wire name `batch_victims` predates that grain and is kept for the
    /// CI greps and checked-in artifacts that read it.
    (BatchVictim, "batch_victims"),
    /// Propagation passes that began by epoch-bumping an already-sized
    /// scratch table instead of allocating one — the batch engine's
    /// cross-victim pass-structure reuse.
    (BatchScratchReuse, "batch_scratch_reuses"),
    /// Steal units a batch worker served beyond its first, with other
    /// workers present: extra units pulled off the shared cursor plus units
    /// joined in the finish phase. Scheduling-dependent; a lone worker
    /// records none.
    (BatchSteal, "batch_steals"),
    /// Checkpoints written by the feed engine or detection service.
    (FeedCheckpointWrite, "feed_checkpoint_writes"),
    /// Checkpoints successfully restored into a feed engine.
    (FeedCheckpointRestore, "feed_checkpoint_restores"),
    /// JSONL commands answered by the resident detection service.
    (ServeQuery, "serve_queries"),
    /// Attacker-derived route offers evaluated by a deploying AS's defense
    /// policy (offers at non-deploying ASes are not checks).
    (PolicyCheck, "policy_checks"),
    /// Attacker-derived route offers rejected by a deploying AS's defense
    /// policy.
    (PolicyReject, "policy_rejects"),
    /// Timeline steps executed by the scenario engine (one equilibrium
    /// table per step).
    (ScenarioStep, "scenario_steps"),
    /// (victim, attacker) cells evaluated by the Monte-Carlo impact
    /// estimator — exact-enumeration cells included.
    (McSample, "mc_samples"),
    /// Bootstrap resamples drawn when forming the estimator's confidence
    /// intervals.
    (McResample, "mc_resamples"),
}

#[cfg(feature = "enabled")]
mod backing {
    use super::Counter;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    static COUNTERS: [AtomicU64; Counter::COUNT] = [ZERO; Counter::COUNT];

    #[inline]
    pub(super) fn add(counter: Counter, n: u64) {
        COUNTERS[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    pub(super) fn load(counter: Counter) -> u64 {
        COUNTERS[counter as usize].load(Ordering::Relaxed)
    }
}

/// Adds `n` to `counter`. A no-op (empty inline function) without the
/// `enabled` feature.
#[inline(always)]
pub fn add(counter: Counter, n: u64) {
    #[cfg(feature = "enabled")]
    backing::add(counter, n);
    #[cfg(not(feature = "enabled"))]
    let _ = (counter, n);
}

/// Increments `counter` by one. A no-op without the `enabled` feature.
#[inline(always)]
pub fn incr(counter: Counter) {
    add(counter, 1);
}

/// A point-in-time reading of every [`Counter`].
///
/// Capturing is cheap (one relaxed load per counter); without the `enabled` feature
/// the snapshot is always all-zero ([`is_empty`](Self::is_empty)).
///
/// # Example
///
/// ```
/// use aspp_obs::MetricsSnapshot;
///
/// let snap = MetricsSnapshot::capture();
/// let json = snap.to_json();
/// assert!(json.contains("counters_compiled_in"));
/// // Per-counter keys appear only when the counters are compiled in.
/// assert_eq!(
///     json.contains("\"clean_cache_hits\""),
///     MetricsSnapshot::compiled_in()
/// );
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values, indexed by `Counter as usize`.
    pub values: [u64; Counter::COUNT],
}

impl MetricsSnapshot {
    /// Reads every counter. All-zero when the `enabled` feature is off.
    #[must_use]
    pub fn capture() -> Self {
        #[allow(unused_mut)]
        let mut values = [0u64; Counter::COUNT];
        #[cfg(feature = "enabled")]
        for c in Counter::ALL {
            values[c as usize] = backing::load(c);
        }
        MetricsSnapshot { values }
    }

    /// `true` when this build carries real counters (the `enabled` feature
    /// of `aspp-obs` is active).
    #[must_use]
    pub fn compiled_in() -> bool {
        cfg!(feature = "enabled")
    }

    /// The value of one counter.
    #[must_use]
    pub fn get(&self, counter: Counter) -> u64 {
        self.values[counter as usize]
    }

    /// Clean-pass cache hits.
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.get(Counter::CleanCacheHit)
    }

    /// The counter-wise difference `self - earlier` (saturating, so a
    /// snapshot from another process epoch cannot underflow).
    #[must_use]
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut values = [0u64; Counter::COUNT];
        for (i, v) in values.iter_mut().enumerate() {
            *v = self.values[i].saturating_sub(earlier.values[i]);
        }
        MetricsSnapshot { values }
    }

    /// `true` when every counter is zero — the guaranteed state of a build
    /// without the `enabled` feature.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.iter().all(|&v| v == 0)
    }

    /// Renders the snapshot as a JSON object: a `"counters_compiled_in"`
    /// flag plus, **only when the counters are compiled in**, one key per
    /// counter. Builds without the `enabled` feature emit just the flag —
    /// an all-zero block would read as "nothing happened" when the truth
    /// is "nothing was measured".
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::object();
        w.field_bool("counters_compiled_in", Self::compiled_in());
        if Self::compiled_in() {
            for c in Counter::ALL {
                w.field_u64(c.name(), self.get(c));
            }
        }
        w.finish()
    }
}

/// Two-column ASCII table, one row per counter (the CLI's `--metrics table`
/// rendering).
impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = Counter::ALL
            .iter()
            .map(|c| c.name().len())
            .max()
            .unwrap_or(0);
        writeln!(
            f,
            "metrics ({})",
            if Self::compiled_in() {
                "counters compiled in"
            } else {
                "counters compiled out — all zero; rebuild with --features obs"
            }
        )?;
        for c in Counter::ALL {
            writeln!(f, "  {:width$}  {}", c.name(), self.get(c))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_diff_and_render() {
        let before = MetricsSnapshot::capture();
        add(Counter::DeltaFrontierNode, 5);
        incr(Counter::DeltaPass);
        let delta = MetricsSnapshot::capture().since(&before);
        if MetricsSnapshot::compiled_in() {
            assert!(delta.get(Counter::DeltaFrontierNode) >= 5);
        } else {
            assert!(delta.is_empty());
        }
        let table = delta.to_string();
        assert!(table.contains("delta_frontier_nodes"));
        let json = delta.to_json();
        assert!(json.contains("counters_compiled_in"));
        // Per-counter keys only when the counters actually exist.
        assert_eq!(
            json.contains("\"delta_passes\""),
            MetricsSnapshot::compiled_in()
        );
    }

    #[test]
    fn since_saturates() {
        let mut high = MetricsSnapshot::default();
        high.values[0] = 3;
        let diff = MetricsSnapshot::default().since(&high);
        assert!(diff.is_empty());
    }
}
