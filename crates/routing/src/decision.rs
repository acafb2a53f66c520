//! The BGP decision process used by the simulator.
//!
//! "BGP first selects the route based on local routing policy, which has a
//! higher priority in the decision process than the AS path length"
//! (Section II-A). The concrete order the engine ranks routes by (its packed
//! preference key), matching the paper's simulation methodology:
//!
//! 1. route class (origin > customer > peer > provider) — the local
//!    preference induced by business relationships;
//! 2. effective AS-path length, **prepends included**;
//! 3. a deterministic tie-break ([`TieBreak`]).

/// Deterministic final tie-break between equally-preferred routes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TieBreak {
    /// Prefer the route learned from the numerically lowest neighbor ASN —
    /// the analogue of BGP's lowest-router-id rule, and the default.
    #[default]
    LowestNeighborAsn,
    /// Prefer the route that does **not** traverse the attacker; models a
    /// best case in which suspicious routes lose ties.
    PreferClean,
    /// Prefer the route that traverses the attacker; models the worst case.
    PreferAttacker,
}
