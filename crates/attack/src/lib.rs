//! The ASPP-based prefix interception attack: models, metrics, and the
//! experiment sweeps behind the paper's Figures 7–12.
//!
//! The attack (paper Section II-B): a victim AS `V` announces its prefix
//! with λ copies of its ASN for traffic engineering; the attacker `M`, upon
//! receiving `r1 = [ASn … AS1 V^λ]`, removes λ−1 copies and re-announces
//! `r2 = [M ASn … AS1 V]`. Because `r2` is λ−1 hops shorter, much of the
//! Internet switches its route to traverse `M` — which still delivers the
//! traffic to `V`, making the interception invisible to MOAS and
//! bogus-link detectors.
//!
//! # Example
//!
//! ```
//! use aspp_attack::{HijackExperiment, run_experiment};
//! use aspp_topology::gen::InternetConfig;
//! use aspp_types::Asn;
//!
//! let graph = InternetConfig::small().seed(11).build();
//! let exp = HijackExperiment::new(Asn(1000), Asn(1001)).padding(4);
//! let impact = run_experiment(&graph, &exp);
//! assert!(impact.after_fraction >= impact.before_fraction);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod defense;
mod experiment;
pub mod fixtures;
pub mod mitigation;
pub mod sweep;

pub use aspp_routing::{BatchRunner, ExportMode, RouteWorkspace};
pub use defense::{deployment_order, run_defense_sweep, DefensePoint, DeployStrategy};
pub use experiment::{run_experiment, run_experiments, HijackExperiment, HijackImpact};
