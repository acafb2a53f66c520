//! AS-level topology substrate for the ASPP interception study.
//!
//! The paper runs its simulations on an AS topology inferred from public BGP
//! data (RouteViews/RIPE) whose business relationships are derived with Gao's
//! algorithm cross-checked against CAIDA's (Section IV-A). This crate builds
//! that substrate from scratch:
//!
//! * [`AsGraph`] — an AS-level graph whose edges carry
//!   [`Relationship`](aspp_types::Relationship) annotations, assembled in
//!   an [`AsGraphBuilder`] and frozen by its `finish()`;
//! * [`gen`] — a synthetic hierarchical Internet generator (tier-1 clique,
//!   multi-homed transit tiers, stubs, richly-peered content ASes) that plays
//!   the role of the real measured topology, with ground-truth relationships;
//! * [`tier`] — tier classification and customer-cone analytics;
//! * [`infer`] — Gao's relationship-inference algorithm, a degree-based
//!   (CAIDA-style) inference, and the paper's consensus pipeline combining
//!   the two.
//!
//! # Example
//!
//! ```
//! use aspp_topology::{gen::InternetConfig, tier::TierMap};
//!
//! let graph = InternetConfig::small().seed(7).build();
//! let tiers = TierMap::classify(&graph);
//! assert!(tiers.tier1().count() >= 4);
//! assert!(graph.len() > 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
mod graph;
pub mod infer;
pub mod io;
mod order;
pub mod tier;

pub use graph::{AsGraph, AsGraphBuilder, CsrEntry, GraphError};
pub use order::PropagationOrder;
