//! Detection of ASPP-based prefix interception attacks (paper Section V).
//!
//! The detector consumes the routes that public BGP monitors observe and
//! searches for an impossibility: following the same AS path segment, at any
//! given time, an AS cannot receive two routes with two different numbers of
//! padded origin ASNs — the origin applies one prepending policy per
//! neighbor. A padding decrease at one vantage point that conflicts with a
//! same-segment route elsewhere therefore convicts the first AS on the
//! shortened route of stripping prepends.
//!
//! * [`RouteView`] — the combined multi-monitor view ("the total ASes n are
//!   larger than the number of monitors, as destination based routing":
//!   every suffix of an observed path is itself a route);
//! * [`Detector`] — the Figure 4 algorithm: high-confidence common-segment
//!   inconsistencies plus three lower-confidence relationship-based hints;
//! * [`monitors`] — vantage-point selection (top-degree, as in Section VI-C);
//! * [`eval`] — the Figure 13 (accuracy vs #monitors) and Figure 14
//!   (pollution before detection) experiment harnesses.
//!
//! # Example
//!
//! ```
//! use aspp_attack::fixtures::{figure3, figure3_topology};
//! use aspp_detect::{Detector, RouteView};
//! use aspp_routing::{AttackerModel, DestinationSpec, PrependingPolicy,
//!                    PrependConfig, RoutingEngine};
//!
//! let graph = figure3_topology();
//! let engine = RoutingEngine::new(&graph);
//! let spec = DestinationSpec::new(figure3::V)
//!     .origin_padding(3)
//!     .attacker(AttackerModel::new(figure3::M));
//! let outcome = engine.compute(&spec);
//!
//! let monitors = [figure3::B, figure3::D, figure3::E];
//! let before = RouteView::from_paths(monitors.iter().filter_map(|&m| outcome.clean_observed_path(m)));
//! let after = RouteView::from_paths(monitors.iter().filter_map(|&m| outcome.observed_path(m)));
//!
//! let detector = Detector::new(&graph);
//! let alarms = detector.scan(&before, &after);
//! assert!(alarms.iter().any(|a| a.suspect == figure3::M));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
mod detector;
pub mod eval;
pub mod monitors;
pub mod realtime;
pub mod selection;
mod view;

pub use detector::{Alarm, Confidence, Detector};
pub use view::RouteView;
