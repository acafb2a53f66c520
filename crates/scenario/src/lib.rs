//! Multi-actor attack scenarios and probabilistic impact estimation over
//! the ASPP interception engine.
//!
//! The paper studies one ASPP-stripping interceptor against a passive
//! victim. This crate generalizes that single snapshot along the two axes
//! the roadmap's "scenario diversity" item names:
//!
//! * [`timeline`] — scripted multi-actor episodes: an attacker announces at
//!   t₀, the victim escalates its padding λ at t₁, a second attacker joins
//!   with a subprefix hijack at t₂ — every step resolved to a full
//!   control-plane equilibrium through [`BatchRunner`], probed on the data
//!   plane (longest-prefix-match walks, so the subprefix wins where it
//!   propagates), and scanned by the paper's monitor-view detector. The new
//!   [`AttackStrategy::PoisonPath`] forgery, the subprefix hijack, and the
//!   MOAS origin conflict slot in beside the paper's strip.
//! * [`mod@estimate`] — a seeded Monte-Carlo impact estimator à la Sermpezis et
//!   al. (arXiv 2105.02346): sample (victim, attacker) pairs and vantage
//!   subsets, report mean pollution/interception with bootstrap confidence
//!   intervals, and cross-validate against exact enumeration where the pair
//!   universe is still enumerable.
//!
//! [`BatchRunner`]: aspp_routing::batch::BatchRunner
//! [`AttackStrategy::PoisonPath`]: aspp_routing::AttackStrategy::PoisonPath
//!
//! # Example
//!
//! ```
//! use aspp_routing::BatchRunner;
//! use aspp_scenario::timeline::{Action, Scenario};
//! use aspp_topology::gen::InternetConfig;
//! use aspp_types::{Asn, Ipv4Prefix};
//!
//! let graph = InternetConfig::small().seed(9).build();
//! let prefix: Ipv4Prefix = "203.0.0.0/16".parse().unwrap();
//! let scenario = Scenario::new(Asn(20_000), prefix)
//!     .base_lambda(4)
//!     .at(0, Action::attack(Asn(100)))
//!     .at(1, Action::Escalate { lambda: 8 })
//!     .at(2, Action::SubprefixHijack { attacker: Asn(101) });
//! let run = scenario.run_with(&graph, &BatchRunner::new());
//! assert_eq!(run.steps.len(), 3);
//! // The subprefix hijacker captures traffic the strip never could.
//! assert!(run.steps[2].captured > run.steps[2].polluted_fraction);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod estimate;
pub mod timeline;

pub use estimate::{estimate_with, exact_enumeration, Estimate, EstimatorConfig};
pub use timeline::{Action, Scenario, ScenarioRun, StepReport, StepState};
