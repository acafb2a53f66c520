//! Global atomic counters for the engine's performance mechanisms.
//!
//! The counters are relaxed `AtomicU64`s, always present. Each call site
//! bumps at most once per pass, batch, ingest call, command, checkpoint or
//! bad frame — never inside a per-offer or per-edge loop — so they cost
//! nothing measurable (`EXPERIMENTS.md` § Counter overhead).
//!
//! Counters are process-global and monotone. Code that needs a per-phase
//! reading captures a [`MetricsSnapshot`] before and after and diffs with
//! [`MetricsSnapshot::since`].

use crate::json::JsonWriter;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

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
    /// Delta passes that began by clearing already-sized dirty marks
    /// instead of growing them — the batch engine's cross-victim reuse of
    /// one workspace.
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
    /// Attacker-derived route offers a deploying AS's defense policy
    /// refused in the engine's own passes (the auditor's and the full-pass
    /// replay's consultations are not counted).
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

static COUNTERS: [AtomicU64; Counter::COUNT] = [const { AtomicU64::new(0) }; Counter::COUNT];

/// Adds `n` to `counter`.
#[inline]
pub fn add(counter: Counter, n: u64) {
    COUNTERS[counter as usize].fetch_add(n, Ordering::Relaxed);
}

/// Increments `counter` by one.
#[inline]
pub fn incr(counter: Counter) {
    add(counter, 1);
}

/// A point-in-time reading of every [`Counter`].
///
/// Capturing is cheap (one relaxed load per counter).
///
/// # Example
///
/// ```
/// use aspp_obs::MetricsSnapshot;
///
/// let json = MetricsSnapshot::capture().to_json();
/// assert!(json.contains("\"clean_cache_hits\":"));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values, indexed by `Counter as usize`.
    pub values: [u64; Counter::COUNT],
}

impl MetricsSnapshot {
    /// Reads every counter.
    #[must_use]
    pub fn capture() -> Self {
        MetricsSnapshot {
            values: Counter::ALL.map(|c| COUNTERS[c as usize].load(Ordering::Relaxed)),
        }
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

    /// Renders the snapshot as a JSON object, one key per counter.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::object();
        for c in Counter::ALL {
            w.field_u64(c.name(), self.get(c));
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
        writeln!(f, "metrics")?;
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
        assert_eq!(delta.get(Counter::DeltaFrontierNode), 5);
        assert_eq!(delta.get(Counter::DeltaPass), 1);
        let table = delta.to_string();
        assert!(table.contains("delta_frontier_nodes"));
        let json = delta.to_json();
        assert!(json.starts_with("{\"clean_cache_hits\":"), "{json}");
        assert!(json.contains("\"delta_passes\":"), "{json}");
    }

    #[test]
    fn since_saturates() {
        let mut high = MetricsSnapshot::default();
        high.values[0] = 3;
        let diff = MetricsSnapshot::default().since(&high);
        assert_eq!(diff, MetricsSnapshot::default());
    }
}
