//! BGP data substrate: the MRT-like corpus format, the synthetic
//! public-monitor corpus generator, and the ASPP usage measurements of the
//! paper's Section VI-A (Figures 5 and 6).
//!
//! The paper draws on RouteViews and RIPE RIS archives from 2010–2011. Those
//! archives are not available offline, so this crate *generates* a corpus
//! with the same shape by running the policy-routing engine over a synthetic
//! Internet in which origins and transit ASes apply realistic prepending
//! policies (uniform padding, padded backup providers, peer-export padding),
//! then serializes per-monitor tables and churn-driven update streams in a
//! simple MRT-like text format. The measurement code path — parse dumps,
//! compute per-monitor prepending fractions and padding-depth histograms —
//! is identical to what would run on the real archives.
//!
//! # Example
//!
//! ```
//! use aspp_data::{CorpusConfig, measure};
//! use aspp_topology::gen::InternetConfig;
//!
//! let graph = InternetConfig::small().seed(3).build();
//! let corpus = CorpusConfig::new(40).seed(9).generate(&graph);
//! let fractions = measure::table_prepending_fractions(&corpus);
//! assert!(!fractions.is_empty());
//! // Round-trip through the on-disk format.
//! let text = corpus.to_text();
//! let parsed = aspp_data::Corpus::parse_strict(&text).unwrap();
//! assert_eq!(parsed.table_entry_count(), corpus.table_entry_count());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod corpus;
mod format;
pub mod measure;
pub mod stats;

pub use corpus::{sample_monitors, sample_origins, tier1_monitors, CorpusConfig};
pub use format::{Corpus, UpdateAction, UpdateRecord};
