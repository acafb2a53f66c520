//! Facade and experiment harness for the ICDCS 2012 ASPP-interception
//! reproduction.
//!
//! This crate re-exports the whole workspace API and adds:
//!
//! * [`experiments`] — one typed entry point per table/figure in the paper's
//!   evaluation (Table I, Figures 1 and 5–14), each returning a structured
//!   result that renders the same rows/series the paper reports;
//! * [`report`] — the plain-text table/series rendering those entry points
//!   (and the benches) use.
//!
//! # Quickstart
//!
//! ```
//! use aspp_core::experiments::{case_study, Scale};
//!
//! // Reproduce the Facebook anomaly (paper Section III, Figure 1, Table I).
//! let study = case_study::run(1);
//! assert_eq!(
//!     study.anomalous_path_att.to_string(),
//!     "7018 4134 9318 32934 32934 32934"
//! );
//! assert!(study.anomalous_trace.final_rtt_ms() > study.normal_trace.final_rtt_ms());
//! // And a smoke-scale figure run:
//! let _ = Scale::Smoke.internet(7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;

pub use aspp_attack as attack;
pub use aspp_data as data;
pub use aspp_dataplane as dataplane;
pub use aspp_detect as detect;
pub use aspp_feed as feed;
pub use aspp_obs as obs;
pub use aspp_routing as routing;
pub use aspp_scenario as scenario;
pub use aspp_topology as topology;
pub use aspp_types as types;

/// Convenience re-exports of the most used items.
pub mod prelude {
    pub use aspp_attack::{
        defense, fixtures, run_experiment, run_experiments, sweep, DefensePoint, DeployStrategy,
        HijackImpact,
    };
    pub use aspp_data::{measure, stats::Cdf, Corpus, CorpusConfig};
    pub use aspp_dataplane::{forwarding, simulate_traceroute, Region, RegionMap, Traceroute};
    pub use aspp_detect::{
        baseline, eval as detect_eval, monitors, realtime, selection, Alarm, Confidence, Detector,
        RouteView,
    };
    pub use aspp_feed::{FeedConfig, FeedReport, ReplayConfig, SyntheticFeed};
    pub use aspp_obs::{MetricsSnapshot, RunManifest, TopologyInfo};
    pub use aspp_routing::{
        bgp, AttackStrategy, AttackerModel, AuditReport, AuditViolation, BatchRunner,
        DeployedPolicy, DeploymentMap, DestinationSpec, ExportMode, OutcomeAudit, PolicyKind,
        PrependConfig, PrependingPolicy, RouteTable, RouteWorkspace, RoutingEngine, RoutingOutcome,
    };
    pub use aspp_scenario::{
        estimate as mc_estimate, timeline, Action, Estimate, EstimatorConfig, Scenario,
        ScenarioRun, StepReport,
    };
    pub use aspp_topology::{gen::InternetConfig, infer, tier::TierMap, AsGraph};
    pub use aspp_types::{well_known, AsPath, Asn, Ipv4Prefix, Relationship};
}
