//! One equilibrium's route table: [`NodeRoute`]s packed one word per node.

use aspp_types::{Asn, RouteClass};

/// One AS's best route in a computed outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RouteInfo {
    /// How the route was learned.
    pub class: RouteClass,
    /// Effective AS-path length, prepends included.
    pub effective_len: u32,
    /// The neighbor the route was learned from (`None` at the origin).
    pub next_hop: Option<Asn>,
    /// Whether the route descends from the attacker's modified announcement.
    pub via_attacker: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct NodeRoute {
    pub(crate) class: RouteClass,
    pub(crate) len: u32,
    pub(crate) parent: Option<usize>,
    pub(crate) via_attacker: bool,
}

/// One node's route state packed into a single 64-bit word:
///
/// ```text
/// bit 63      present (0 ⇒ no route, whole word is 0)
/// bit 62      via_attacker
/// bits 60-61  RouteClass discriminant
/// bits 32-59  effective length (28 bits)
/// bits 0-31   parent node index (u32::MAX ⇒ origin / pinned root)
/// ```
///
/// The pack/unpack round-trip is lossless while lengths stay below 2^28
/// (callers bound λ; see `DestinationSpec::origin_padding`) and node indices
/// fit 30 bits per the CSR. At 8 bytes per node the whole Internet-scale
/// route table is one 640 kB allocation that clones via `memcpy`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(transparent)]
pub(crate) struct PackedRoute(u64);

impl PackedRoute {
    const ABSENT: PackedRoute = PackedRoute(0);
    const PRESENT: u64 = 1 << 63;
    const VIA: u64 = 1 << 62;
    const NO_PARENT: u64 = u32::MAX as u64;
    /// Discriminant-indexed decode table for a class field.
    pub(super) const CLASS: [RouteClass; 4] = [
        RouteClass::Origin,
        RouteClass::FromCustomer,
        RouteClass::FromPeer,
        RouteClass::FromProvider,
    ];

    #[inline]
    fn pack(r: NodeRoute) -> Self {
        debug_assert!(r.len < (1 << 28), "effective length fits 28 bits");
        let parent = r.parent.map_or(Self::NO_PARENT, |p| {
            debug_assert!(p < u32::MAX as usize);
            p as u64
        });
        PackedRoute(
            Self::PRESENT
                | if r.via_attacker { Self::VIA } else { 0 }
                | ((r.class as u64) << 60)
                | (u64::from(r.len) << 32)
                | parent,
        )
    }

    #[inline]
    fn unpack(self) -> Option<NodeRoute> {
        if self.0 & Self::PRESENT == 0 {
            return None;
        }
        let parent = self.0 & Self::NO_PARENT;
        Some(NodeRoute {
            class: Self::CLASS[((self.0 >> 60) & 3) as usize],
            len: ((self.0 >> 32) & 0x0FFF_FFFF) as u32,
            parent: (parent != Self::NO_PARENT).then_some(parent as usize),
            via_attacker: self.0 & Self::VIA != 0,
        })
    }
}

/// One equilibrium's full route table: a dense, flat array of
/// [`PackedRoute`] words indexed by node id. The accessors speak
/// `Option<NodeRoute>`, so only this file knows the packing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Pass {
    words: Vec<PackedRoute>,
}

impl Pass {
    /// An all-absent pass over `n` nodes — one zeroed allocation.
    #[inline]
    pub(crate) fn absent(n: usize) -> Self {
        Pass {
            words: vec![PackedRoute::ABSENT; n],
        }
    }

    /// Number of nodes covered.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.words.len()
    }

    /// The route at node `i`, unpacked.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<NodeRoute> {
        self.words[i].unpack()
    }

    /// Stores (or clears) the route at node `i`.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, route: Option<NodeRoute>) {
        self.words[i] = route.map_or(PackedRoute::ABSENT, PackedRoute::pack);
    }

    /// Iterates every node's route in id order.
    #[inline]
    pub(crate) fn iter(&self) -> impl Iterator<Item = Option<NodeRoute>> + '_ {
        self.words.iter().map(|w| w.unpack())
    }
}
