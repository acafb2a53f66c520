//! Observability layer for the ASPP workspace.
//!
//! Three independent mechanisms, all cheap enough to stay in every build:
//!
//! * [`counters`] — global atomic counters for the routing engine's
//!   performance mechanisms (clean-pass cache hits, delta passes and the
//!   nodes they visit, audit violations). Relaxed atomics, bumped at most
//!   once per pass, batch or command, never per offer.
//!   [`MetricsSnapshot`] captures the counters for printing (ASCII table or
//!   JSON) and for before/after diffing.
//! * [`trace`] — lightweight span tracing. Spans are always compiled in but
//!   runtime-gated behind one relaxed atomic load; when a sink is installed
//!   (the CLI's `--trace-json`) each closed span emits one JSON line
//!   `{"span":…,"start_us":…,"dur_us":…,"thread":…}`.
//! * [`manifest`] — per-run provenance records ([`RunManifest`]): git
//!   revision, topology fingerprint, seed, strategy matrix, wall times and
//!   a counter snapshot, rendered as JSON and written next to every
//!   `results/` artifact so experiment outputs are machine-reproducible.
//!
//! The crate depends on nothing else in the workspace (it sits below
//! `aspp-types`), so every other crate can use it without dependency
//! cycles.
//!
//! # Example
//!
//! ```
//! use aspp_obs::{counters, MetricsSnapshot};
//!
//! let before = MetricsSnapshot::capture();
//! counters::incr(counters::Counter::CleanCacheHit);
//! let delta = MetricsSnapshot::capture().since(&before);
//! assert_eq!(delta.cache_hits(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod manifest;
pub mod trace;

pub mod json;

pub use counters::MetricsSnapshot;
pub use manifest::{RunManifest, TopologyInfo};
pub use trace::Span;
