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
/// figures in `EXPERIMENTS.md` were produced at, and `Internet` for
/// routing-system scale (~80k ASes). Each names one [`Preset`] row.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scale {
    /// ~150-AS Internet, reduced instance counts; seconds end-to-end.
    Smoke,
    /// ~1500-AS Internet, paper-matching instance counts.
    Paper,
    /// ~80,000-AS Internet; instance counts cut so that a run takes well
    /// under a second (`impact`, `sweep`, `defense --deploy top-degree`,
    /// `estimate`, `scenario`: 0.25–0.41 s in release on 2 cores at seed
    /// 2024).
    Internet,
}

/// Every size the scales differ in: one row per [`Scale`].
#[derive(Debug)]
pub struct Preset {
    /// The `--scale` spelling and the manifest's label.
    pub name: &'static str,
    /// The synthetic Internet's generator preset.
    pub graph: fn() -> InternetConfig,
    /// Sampled tier-1 hijack instances (paper Figure 7: 80).
    pub tier1_instances: usize,
    /// Random hijack instances (paper Figure 8: 27).
    pub random_instances: usize,
    /// Attacker/victim pairs for the detection evaluation (paper
    /// Section VI-C: 200).
    pub detection_pairs: usize,
    /// Monitor-count sweep for Figure 13.
    pub monitor_counts: &'static [usize],
    /// Monitors used for the Figure 14 latency experiment (paper: top 150).
    pub latency_monitors: usize,
    /// Prefixes in the Figure 5/6 corpus.
    pub corpus_prefixes: usize,
    /// Monitors contributing tables to the Figure 5/6 corpus.
    pub corpus_monitors: usize,
    /// Sampled attacker/victim pairs per cell of the defense-deployment
    /// grid (see [`defense`]). Smaller than the impact-figure instance
    /// counts because every pair is re-evaluated at every
    /// policy × strategy × fraction cell.
    pub defense_pairs: usize,
    /// Victim/attacker pairs `aspp sweep` runs its strategy matrix over.
    pub sweep_pairs: usize,
    /// Prefixes `aspp feed` replays by default.
    pub feed_prefixes: usize,
    /// [`detection::vantage_selection`]'s training pairs (as many are held
    /// out).
    pub selection_pairs: usize,
    /// The monitor budgets [`detection::vantage_selection`] compares.
    pub selection_budgets: &'static [usize],
    /// Cap on the sources probed per scenario step for the longest-prefix-
    /// match capture fraction (`None` probes every AS). Capped at the
    /// Internet tier, where 80k per-step walks would dominate wall time.
    pub scenario_capture_sources: Option<usize>,
    /// Victim- and attacker-pool sizes for the Monte-Carlo impact
    /// estimator. The pools bound the exact-enumeration cross-validation
    /// (pool product cells) as well as the MC draw universe.
    pub estimator_pools: (usize, usize),
    /// Monte-Carlo draws for the impact estimator (the cross-validation
    /// pins the exact mean inside the 95% CI at the Paper count).
    pub estimator_samples: usize,
    /// Bootstrap resamples behind the estimator's confidence intervals.
    pub estimator_resamples: usize,
    /// Per-sample vantage-subset size for the estimator (`None` measures
    /// the full population; the Internet tier subsamples as Sermpezis et
    /// al. do with real vantage points).
    pub estimator_vantages: Option<usize>,
}

const SMOKE: Preset = Preset {
    name: "smoke",
    graph: InternetConfig::small,
    tier1_instances: 10,
    random_instances: 8,
    detection_pairs: 15,
    monitor_counts: &[5, 20, 60],
    latency_monitors: 30,
    corpus_prefixes: 60,
    corpus_monitors: 20,
    defense_pairs: 4,
    sweep_pairs: 4,
    feed_prefixes: 40,
    selection_pairs: 12,
    selection_budgets: &[4, 10],
    scenario_capture_sources: None,
    estimator_pools: (10, 10),
    estimator_samples: 120,
    estimator_resamples: 300,
    estimator_vantages: None,
};

const PAPER: Preset = Preset {
    name: "paper",
    graph: InternetConfig::medium,
    tier1_instances: 80,
    random_instances: 27,
    detection_pairs: 200,
    monitor_counts: &[10, 30, 50, 70, 100, 150, 200, 300],
    latency_monitors: 150,
    corpus_prefixes: 400,
    corpus_monitors: 45,
    defense_pairs: 8,
    sweep_pairs: 8,
    feed_prefixes: 120,
    selection_pairs: 40,
    selection_budgets: &[10, 30, 70],
    scenario_capture_sources: None,
    estimator_pools: (25, 25),
    estimator_samples: 1000,
    estimator_resamples: 1000,
    estimator_vantages: None,
};

const INTERNET: Preset = Preset {
    name: "internet",
    graph: InternetConfig::internet,
    tier1_instances: 6,
    random_instances: 6,
    detection_pairs: 12,
    monitor_counts: &[10, 50, 100, 200],
    latency_monitors: 100,
    corpus_prefixes: 80,
    corpus_monitors: 30,
    defense_pairs: 3,
    sweep_pairs: 3,
    feed_prefixes: 160,
    selection_pairs: 16,
    selection_budgets: &[10, 30],
    scenario_capture_sources: Some(2000),
    estimator_pools: (40, 40),
    estimator_samples: 600,
    estimator_resamples: 1000,
    estimator_vantages: Some(1000),
};

impl Scale {
    /// Every scale, smallest first.
    pub const ALL: [Scale; 3] = [Scale::Smoke, Scale::Paper, Scale::Internet];

    /// The sizes this scale runs at.
    #[must_use]
    pub fn preset(self) -> &'static Preset {
        match self {
            Scale::Smoke => &SMOKE,
            Scale::Paper => &PAPER,
            Scale::Internet => &INTERNET,
        }
    }

    /// Builds the synthetic Internet used at this scale.
    #[must_use]
    pub fn internet(self, seed: u64) -> AsGraph {
        (self.preset().graph)().seed(seed).build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_preset_table_names_every_scale_once() {
        let expected = [("smoke", 149), ("paper", 1_490), ("internet", 80_000)];
        assert_eq!(Scale::ALL.len(), expected.len());
        for (scale, (name, ases)) in Scale::ALL.into_iter().zip(expected) {
            let preset = scale.preset();
            assert_eq!(preset.name, name);
            assert_eq!((preset.graph)().total_ases(), ases, "{name}");
        }
        let paper = Scale::Paper.preset();
        assert_eq!(paper.tier1_instances, 80);
        assert_eq!(paper.random_instances, 27);
        assert_eq!(paper.detection_pairs, 200);
        assert_eq!(paper.latency_monitors, 150);
        assert!(paper.monitor_counts.contains(&150));
    }
}
