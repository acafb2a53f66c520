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
/// The same word is an offer's [`rank`](Self::rank): with the present and
/// via bits masked, it orders as `(class, effective length, parent index)`,
/// and parent index order is neighbor ASN order because
/// [`AsGraphBuilder::finish`](aspp_topology::AsGraphBuilder::finish)
/// numbers nodes by ASN — the engine's decision order, one integer compare.
///
/// Packing is lossless while lengths stay within [`MAX_LEN`](Self::MAX_LEN)
/// (the propagation loop checks every length it forms) and node indices fit
/// 30 bits per the CSR. At 8 bytes per node the whole Internet-scale route
/// table is one 640 kB allocation that clones via `memcpy`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(transparent)]
pub(crate) struct PackedRoute(u64);

impl PackedRoute {
    /// No route; it ranks after every route.
    pub(super) const ABSENT: PackedRoute = PackedRoute(0);
    const PRESENT: u64 = 1 << 63;
    const VIA: u64 = 1 << 62;
    const NO_PARENT: u64 = u32::MAX as u64;
    /// The longest effective length the 28-bit field holds.
    pub(super) const MAX_LEN: u32 = (1 << 28) - 1;
    /// Discriminant-indexed decode table for a class field.
    const CLASS: [RouteClass; 4] = [
        RouteClass::Origin,
        RouteClass::FromCustomer,
        RouteClass::FromPeer,
        RouteClass::FromProvider,
    ];

    /// The route `(class, len)` learned from node `parent` (`u32::MAX` at
    /// the origin or a pinned root), attacker-derived when `via_attacker`.
    #[inline]
    pub(super) fn new(class: RouteClass, len: u32, parent: u32, via_attacker: bool) -> Self {
        debug_assert!(len <= Self::MAX_LEN, "effective length fits 28 bits");
        let via = if via_attacker { Self::VIA } else { 0 };
        let fields = ((class as u64) << 60) | (u64::from(len) << 32) | u64::from(parent);
        PackedRoute(Self::PRESENT | via | fields)
    }

    #[inline]
    pub(super) fn unpack(self) -> Option<NodeRoute> {
        if self.0 & Self::PRESENT == 0 {
            return None;
        }
        let parent = self.0 & Self::NO_PARENT;
        Some(NodeRoute {
            class: self.class(),
            len: self.length(),
            parent: (parent != Self::NO_PARENT).then_some(parent as usize),
            via_attacker: self.0 & Self::VIA != 0,
        })
    }

    /// The route's place in the decision order, lower is better: the word
    /// without its present and via bits. An absent route ranks after every
    /// route, and the parent field of its rank (`u32::MAX`) names no node.
    #[inline]
    pub(super) fn rank(self) -> u64 {
        if self.0 & Self::PRESENT == 0 {
            u64::MAX
        } else {
            self.0 & !(Self::PRESENT | Self::VIA)
        }
    }

    /// Whether the route descends from the attacker's announcement.
    #[inline]
    pub(super) fn via_attacker(self) -> bool {
        self.0 & Self::VIA != 0
    }

    /// Whether the word holds a route.
    #[inline]
    pub(super) fn is_present(self) -> bool {
        self.0 & Self::PRESENT != 0
    }

    /// Whether the word holds a route learned from node `node`.
    #[inline]
    pub(super) fn learned_from(self, node: u32) -> bool {
        self.is_present() && self.0 & Self::NO_PARENT == u64::from(node)
    }

    /// Whether the word holds an origin or customer route — the routes
    /// exported to providers and peers.
    #[inline]
    pub(super) fn climbs(self) -> bool {
        self.is_present() && (self.0 >> 60) & 3 <= RouteClass::FromCustomer as u64
    }

    /// The word if it [`climbs`](Self::climbs), else [`ABSENT`](Self::ABSENT):
    /// what its holder offers its providers and peers.
    #[inline]
    pub(super) fn climbing(self) -> Self {
        if self.climbs() {
            self
        } else {
            Self::ABSENT
        }
    }

    /// The class of a present word.
    #[inline]
    pub(super) fn class(self) -> RouteClass {
        Self::CLASS[((self.0 >> 60) & 3) as usize]
    }

    /// The effective length of a present word.
    #[inline]
    pub(super) fn length(self) -> u32 {
        ((self.0 >> 32) & u64::from(Self::MAX_LEN)) as u32
    }
}

/// One equilibrium's full route table: a dense, flat array of
/// [`PackedRoute`] words indexed by node id. The accessors speak
/// `Option<NodeRoute>` or whole words, so only this file knows the packing.
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

    /// The [`rank`](PackedRoute::rank) of the route at node `i`.
    #[inline]
    pub(super) fn rank(&self, i: usize) -> u64 {
        self.words[i].rank()
    }

    /// Stores (or clears) the route at node `i`.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, route: Option<NodeRoute>) {
        self.words[i] = route.map_or(PackedRoute::ABSENT, |r| {
            let parent = r.parent.map_or(u32::MAX, |p| p as u32);
            PackedRoute::new(r.class, r.len, parent, r.via_attacker)
        });
    }

    /// The packed route word at node `i`.
    #[inline]
    pub(super) fn word(&self, i: usize) -> PackedRoute {
        self.words[i]
    }

    /// Stores the packed route `word` at node `i`.
    #[inline]
    pub(super) fn set_word(&mut self, i: usize, word: PackedRoute) {
        self.words[i] = word;
    }

    /// Iterates every node's route in id order.
    #[inline]
    pub(crate) fn iter(&self) -> impl Iterator<Item = Option<NodeRoute>> + '_ {
        self.words.iter().map(|w| w.unpack())
    }
}
