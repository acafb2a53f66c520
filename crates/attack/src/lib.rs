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
//! An experiment is an [`aspp_routing::DestinationSpec`] with an attacker:
//! the samplers in [`sweep`] return specs, and [`run_experiment`] /
//! [`run_experiments`] reduce their outcomes to [`HijackImpact`]s.
//!
//! # Example
//!
//! ```
//! use aspp_attack::run_experiment;
//! use aspp_routing::{AttackerModel, DestinationSpec};
//! use aspp_topology::gen::InternetConfig;
//! use aspp_types::Asn;
//!
//! let graph = InternetConfig::small().seed(11).build();
//! // One experiment cell: victim AS1000 pads ×4, AS1001 strips it.
//! let spec = DestinationSpec::new(Asn(1000))
//!     .origin_padding(4)
//!     .attacker(AttackerModel::new(Asn(1001)));
//! let impact = run_experiment(&graph, &spec);
//! assert!(impact.after_fraction >= impact.before_fraction);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod defense;
mod experiment;
pub mod fixtures;
pub mod mitigation;
pub mod sweep;

pub use defense::{deployment_order, run_defense_sweep, DefensePoint, DeployStrategy};
pub use experiment::{run_experiment, run_experiments, HijackImpact};
