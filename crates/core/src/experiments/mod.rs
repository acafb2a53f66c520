//! One typed entry point per table and figure of the paper's evaluation.
//!
//! | Paper artifact | Module / function |
//! |----------------|-------------------|
//! | Figure 1 + Table I (Facebook anomaly) | [`case_study::run`] |
//! | Figure 5 (fraction of routes with prepending) | [`usage::run`] |
//! | Figure 6 (number of duplicate ASNs) | [`usage::run`] |
//! | Figure 7 (tier-1 vs tier-1 instances) | [`impact::fig7`] |
//! | Figure 8 (random pairs) | [`impact::fig8`] |
//! | Figure 9 (T1 hijacks T1, λ sweep) | [`impact::fig9`] |
//! | Figure 10 (T1 hijacks T3, λ sweep) | [`impact::fig10`] |
//! | Figure 11 (small hijacks T1, export modes) | [`impact::fig11`] |
//! | Figure 12 (small hijacks small, export modes) | [`impact::fig12`] |
//! | Figure 13 (detection accuracy vs monitors) | [`detection::fig13`] |
//! | Figure 14 (pollution before detection CDF) | [`detection::fig14`] |
//!
//! Beyond the paper's evaluation: [`detection::vantage_selection`] (its
//! future-work monitor-placement study), [`extensions::stealth`] (the
//! visibility comparison against origin-hijack and forged-adjacency
//! baselines), [`extensions::mitigations`] (reactive defenses), and
//! [`defense::run_with_runner`] (proactive per-AS defense policies — ROV,
//! ASPA, peerlock-lite, first-AS enforcement — swept over deployment
//! strategies and adoption fractions).

pub mod case_study;
pub mod defense;
pub mod detection;
pub mod extensions;
pub mod impact;
pub mod scenario;
pub mod usage;

use aspp_topology::gen::InternetConfig;
use aspp_topology::AsGraph;

/// Experiment scale: `Smoke` for fast CI runs, `Paper` for the sizes the
/// figures in `EXPERIMENTS.md` were produced at, `Internet` for
/// routing-system scale (~80k ASes), and `InternetSmoke` for its CI-sized
/// ~20k cut.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scale {
    /// ~150-AS Internet, reduced instance counts; seconds end-to-end.
    Smoke,
    /// ~1500-AS Internet, paper-matching instance counts.
    Paper,
    /// ~80,000-AS Internet; instance counts cut to keep runs in minutes.
    Internet,
    /// ~20,000-AS Internet; the `Internet` tier shrunk for CI.
    InternetSmoke,
}

impl Scale {
    /// Builds the synthetic Internet used at this scale.
    #[must_use]
    pub fn internet(self, seed: u64) -> AsGraph {
        match self {
            Scale::Smoke => InternetConfig::small().seed(seed).build(),
            Scale::Paper => InternetConfig::medium().seed(seed).build(),
            Scale::Internet => InternetConfig::internet().seed(seed).build(),
            Scale::InternetSmoke => InternetConfig::internet_smoke().seed(seed).build(),
        }
    }

    /// Number of sampled tier-1 hijack instances (paper Figure 7: 80).
    #[must_use]
    pub fn tier1_instances(self) -> usize {
        match self {
            Scale::Smoke => 10,
            Scale::Paper => 80,
            Scale::Internet => 6,
            Scale::InternetSmoke => 6,
        }
    }

    /// Number of random hijack instances (paper Figure 8: 27).
    #[must_use]
    pub fn random_instances(self) -> usize {
        match self {
            Scale::Smoke => 8,
            Scale::Paper => 27,
            Scale::Internet => 6,
            Scale::InternetSmoke => 6,
        }
    }

    /// Number of attacker/victim pairs for the detection evaluation
    /// (paper Section VI-C: 200).
    #[must_use]
    pub fn detection_pairs(self) -> usize {
        match self {
            Scale::Smoke => 15,
            Scale::Paper => 200,
            Scale::Internet => 12,
            Scale::InternetSmoke => 10,
        }
    }

    /// Monitor-count sweep for Figure 13.
    #[must_use]
    pub fn monitor_counts(self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![5, 20, 60],
            Scale::Paper => vec![10, 30, 50, 70, 100, 150, 200, 300],
            Scale::Internet => vec![10, 50, 100, 200],
            Scale::InternetSmoke => vec![5, 20, 60],
        }
    }

    /// Monitors used for the Figure 14 latency experiment (paper: top 150).
    #[must_use]
    pub fn latency_monitors(self) -> usize {
        match self {
            Scale::Smoke => 30,
            Scale::Paper => 150,
            Scale::Internet => 100,
            Scale::InternetSmoke => 30,
        }
    }

    /// Number of prefixes in the Figure 5/6 corpus.
    #[must_use]
    pub fn corpus_prefixes(self) -> usize {
        match self {
            Scale::Smoke => 60,
            Scale::Paper => 400,
            Scale::Internet => 80,
            Scale::InternetSmoke => 40,
        }
    }

    /// Sampled attacker/victim pairs per cell of the defense-deployment
    /// grid (see [`defense`]). Smaller than the impact-figure instance
    /// counts because every pair is re-evaluated at every
    /// policy × strategy × fraction cell.
    #[must_use]
    pub fn defense_pairs(self) -> usize {
        match self {
            Scale::Smoke => 4,
            Scale::Paper => 8,
            Scale::Internet => 3,
            Scale::InternetSmoke => 3,
        }
    }

    /// Victim/attacker pairs `aspp sweep` runs its strategy matrix over.
    #[must_use]
    pub fn sweep_pairs(self) -> usize {
        match self {
            Scale::Smoke => 4,
            Scale::Paper => 8,
            Scale::Internet => 3,
            Scale::InternetSmoke => 2,
        }
    }

    /// Prefixes `aspp feed` replays by default.
    #[must_use]
    pub fn feed_prefixes(self) -> usize {
        match self {
            Scale::Smoke => 40,
            Scale::Paper => 120,
            Scale::Internet => 160,
            Scale::InternetSmoke => 60,
        }
    }

    /// [`detection::vantage_selection`]'s training pairs (as many are held
    /// out) and the monitor budgets it compares.
    #[must_use]
    pub fn selection_sizes(self) -> (usize, Vec<usize>) {
        match self {
            Scale::Smoke | Scale::InternetSmoke => (12, vec![4, 10]),
            Scale::Paper => (40, vec![10, 30, 70]),
            Scale::Internet => (16, vec![10, 30]),
        }
    }

    /// Monitors contributing tables to the Figure 5/6 corpus.
    #[must_use]
    pub fn corpus_monitors(self) -> usize {
        match self {
            Scale::Smoke => 20,
            Scale::Paper => 45,
            Scale::Internet => 30,
            Scale::InternetSmoke => 20,
        }
    }

    /// Cap on the sources probed per scenario step for the longest-prefix-
    /// match capture fraction (`None` probes every AS). Capped at the
    /// Internet tiers, where 80k per-step walks would dominate wall time.
    #[must_use]
    pub fn scenario_capture_sources(self) -> Option<usize> {
        match self {
            Scale::Smoke | Scale::Paper => None,
            Scale::Internet => Some(2000),
            Scale::InternetSmoke => Some(500),
        }
    }

    /// Victim- and attacker-pool sizes for the Monte-Carlo impact
    /// estimator. The pools bound the exact-enumeration cross-validation
    /// (pool product cells) as well as the MC draw universe.
    #[must_use]
    pub fn estimator_pools(self) -> (usize, usize) {
        match self {
            Scale::Smoke => (10, 10),
            Scale::Paper => (25, 25),
            Scale::Internet => (40, 40),
            Scale::InternetSmoke => (20, 20),
        }
    }

    /// Monte-Carlo draws for the impact estimator (the cross-validation
    /// pins the exact mean inside the 95% CI at the Paper count).
    #[must_use]
    pub fn estimator_samples(self) -> usize {
        match self {
            Scale::Smoke => 120,
            Scale::Paper => 1000,
            Scale::Internet => 600,
            Scale::InternetSmoke => 200,
        }
    }

    /// Bootstrap resamples behind the estimator's confidence intervals.
    #[must_use]
    pub fn estimator_resamples(self) -> usize {
        match self {
            Scale::Smoke => 300,
            _ => 1000,
        }
    }

    /// Per-sample vantage-subset size for the estimator (`None` measures
    /// the full population; the Internet tiers subsample as Sermpezis et
    /// al. do with real vantage points).
    #[must_use]
    pub fn estimator_vantages(self) -> Option<usize> {
        match self {
            Scale::Smoke | Scale::Paper => None,
            Scale::Internet => Some(1000),
            Scale::InternetSmoke => Some(500),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_build_internets() {
        let small = Scale::Smoke.internet(1);
        assert!(small.len() < 400);
        assert_eq!(Scale::Paper.tier1_instances(), 80);
        assert_eq!(Scale::Paper.random_instances(), 27);
        assert_eq!(Scale::Paper.detection_pairs(), 200);
        assert!(Scale::Paper.monitor_counts().contains(&150));
        assert_eq!(Scale::Paper.latency_monitors(), 150);
    }
}
