//! Gao–Rexford policy routing engine with first-class AS-path prepending.
//!
//! This crate implements the paper's BGP simulator (Section IV-B, Figure 2):
//! per-destination route computation on an annotated AS graph under the
//! standard "valley-free, profit-driven" policy — customer routes beat peer
//! routes beat provider routes, then shorter *effective* AS-path (prepends
//! included) wins, then the route learned from the lowest neighbor ASN.
//!
//! The engine natively supports:
//!
//! * **origin and intermediary prepending** via [`PrependingPolicy`] /
//!   [`PrependConfig`] (uniform or per-neighbor padding, the traffic
//!   engineering practice the attack exploits);
//! * **the ASPP interception attacker** via [`AttackerModel`]: a two-source
//!   propagation in which the victim announces its padded route while the
//!   attacker re-announces the same route with the padding stripped,
//!   optionally violating the valley-free export rule (paper Figures 11-12);
//! * **full path reconstruction** ([`RoutingOutcome::observed_path`]) so the
//!   detection algorithm can consume exactly what public route monitors
//!   would see;
//! * **per-AS defense policies** ([`policy`]): ROV, ASPA, peerlock-lite and
//!   first-AS enforcement as import filters over attacker-derived
//!   announcements, deployable at any subset of ASes — a
//!   [`DeployedPolicy`] the experiment cell carries
//!   ([`DestinationSpec::defense`]);
//! * **churn events** ([`events`]) for generating realistic update streams.
//!
//! # Example
//!
//! ```
//! use aspp_routing::{DestinationSpec, RoutingEngine};
//! use aspp_topology::gen::InternetConfig;
//! use aspp_types::Asn;
//!
//! let graph = InternetConfig::small().seed(7).build();
//! let engine = RoutingEngine::new(&graph);
//! let victim = Asn(20_000); // a stub AS
//! let outcome = engine.compute(&DestinationSpec::new(victim).origin_padding(3));
//! // Everyone reaches the victim, over valley-free paths.
//! let reached = graph.asns().filter(|&a| outcome.route(a).is_some()).count();
//! assert_eq!(reached, graph.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod batch;
pub mod bgp;
mod engine;
pub mod events;
pub mod policy;
pub mod prepend;
mod table;

pub use audit::{AuditReport, AuditViolation, OutcomeAudit, PassKind};
pub use batch::BatchRunner;
pub use engine::{
    AttackStrategy, AttackerModel, DestinationSpec, ExportMode, RouteInfo, RouteWorkspace,
    RoutingEngine, RoutingOutcome,
};
pub use policy::{AttackFacts, DeployedPolicy, DeploymentMap, PolicyKind};
pub use prepend::{PrependConfig, PrependingPolicy};
pub use table::RouteTable;
