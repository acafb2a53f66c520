//! Per-destination route computation under Gao–Rexford policy, with an
//! optional ASPP interception attacker (the paper's Figure 2 simulator).
//!
//! # Algorithm
//!
//! A single generalized Dijkstra over *route labels* `(class, effective
//! length, tie-break)` computes the policy-routing equilibrium exactly:
//!
//! * the victim `V` is finalized first with an `Origin` label and exports to
//!   every neighbor with its configured padding;
//! * labels are popped in global preference order (class, then length with
//!   prepends counted, then tie-break); the first label to reach a node is
//!   its best route, because every export step weakly worsens class and
//!   strictly grows length — the monotonicity that makes Dijkstra sound here;
//! * on finalization a node re-exports subject to the valley-free rule
//!   ([`RouteClass::may_export_to`]).
//!
//! Because `(class, length)` strictly increases along every export step,
//! labels are scheduled by a Dial-style **bucket queue** ([`BucketQueue`]):
//! one `Vec` bucket per `(class, effective length)`, drained class-major.
//! A bucket can only receive pushes before the scan reaches it, so it is
//! sorted exactly once and then drained in label order — the pop sequence is
//! identical to a binary heap's (all labels are distinct), without the
//! `log V` comparison chain or per-push sift.
//!
//! # The attacked pass
//!
//! With an attacker `M`, the engine first runs a clean pass to learn `M`'s
//! received route `r1 = [ASn … AS1 V^λ]`, then computes a second equilibrium
//! in which `M`'s best route is pinned to `r1` (it must keep a working route
//! to forward intercepted traffic) while `M` exports the *stripped* route
//! `r2 = [M ASn … AS1 V]`. ASes on `M`'s clean chain reject attacker-derived
//! labels — their own ASN is on the claimed path, so real BGP loop
//! prevention would discard the announcement.
//!
//! # Delta re-convergence
//!
//! Whenever `delta_applicable` holds (no import filter, a parent-closed
//! rejection chain, a seed that does not lengthen `M`'s own exports) the
//! attacked equilibrium is computed **incrementally** from the clean one;
//! the full second Dijkstra is the fallback, the path every policied or
//! poisoned pass takes, and — reached through any accept-all non-`NOOP`
//! [`DefensePolicy`] — the reference the equivalence tests compare against.
//! The delta pass starts from a copy of the clean pass, seeds the frontier
//! with `M`'s stripped exports, and relaxes outward; a popped label either
//!
//! * loses to the node's clean label — the frontier stops, the node (and
//!   everything behind it) keeps its clean route verbatim; or
//! * wins (or ties) — the node is re-converged onto the attacker label and
//!   re-exports it.
//!
//! **Monotonicity argument.** The attacked pass differs from the clean pass
//! only in `M`'s exports, and those can only *improve* receiver labels: the
//! stripped length satisfies `base_len ≤ len(r1)` while class and export
//! targets stay the same or widen (an origin hijack claims `Origin`, a
//! compliant ASPP attacker additionally reaches peers). Inductively, every
//! node a better label reaches re-exports a label no worse than its clean
//! export, so re-convergence only propagates improvements; any node the
//! frontier never reaches has exactly its clean route in the attacked
//! equilibrium, and the popped-in-preference-order schedule makes each
//! adopted label the same one the full pass would have selected.
//!
//! A tie between an attacker label and the stored clean label means the
//! clean parent itself was re-converged (under the lowest-ASN tie-break, a
//! tie implies the same parent), i.e. the clean option no longer exists, so
//! ties adopt the attacker label.
//!
//! **The rare non-monotone corner.** Policy beats length, so a node can be
//! re-converged onto a *longer* route of better class (e.g. a stripped route
//! arriving customer-learned where the clean route was peer-learned). Its
//! re-export to non-sibling neighbors then *worsens* in key, which can strip
//! downstream nodes of their clean floor — the one case where the attacked
//! equilibrium is not pointwise ≤ the clean one. The delta pass detects this
//! at adoption time (`len` grew while class improved; under
//! [`TieBreak::PreferClean`] any non-shrinking adoption, because the flipped
//! tie flag alone worsens replaced exports) and falls back to the full
//! second pass, so results are **bit-identical** to the two-full-pass engine
//! in every case — property-tested across all [`AttackStrategy`] variants
//! and both [`ExportMode`]s in `tests/delta_equivalence.rs`.
//!
//! # Scratch layout and caching
//!
//! All mutable per-node pass state — the lazy decrease-key rank and the
//! epoch stamps for adoption, chain membership and queued offers — lives in
//! one 32-byte `NodeScratch` entry, so the per-edge push filter costs a
//! single random memory access and the whole table stays L1-resident at
//! paper scale. Epoch stamping makes starting a pass O(1): nothing is
//! re-zeroed. A [`RouteWorkspace`] additionally memoizes, per cached clean
//! pass, the `Arc`-shared route table (hits never clone it) and the packed
//! clean-key ranking table the delta pass prunes against.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use aspp_obs::counters::{self, Counter};
use aspp_topology::{AsGraph, CsrIndex};
use aspp_types::{AsPath, Asn, PathArena, PathRange, Relationship, RouteClass};

use crate::decision::TieBreak;
use crate::policy::{AttackFacts, DefensePolicy, NoDefense};
use crate::prepend::{PrependConfig, PrependingPolicy};

/// How the attacker exports its stripped route (paper Figures 11–12).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ExportMode {
    /// The paper's "follow valley-free rule" attacker: the stripped route
    /// goes to customers and peers unconditionally ("the attacker can only
    /// pollute its customers, peers, and peers' customers"), and to
    /// providers only when the attacker's own route was customer-learned —
    /// sending a down-hill-learned route back up-hill is what the paper
    /// counts as a violation.
    #[default]
    Compliant,
    /// Export to every neighbor, providers included ("if the attacker does
    /// not obey the valley-free rules … the impact can be equally large").
    ViolateValleyFree,
}

/// What the attacker announces — the paper's ASPP attack plus the two
/// baseline prefix hijacks it is contrasted against (Sections I–II).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AttackStrategy {
    /// The ASPP interception: remove the victim's origin padding down to
    /// `keep` copies and re-announce the otherwise-genuine route. No bogus
    /// link, no origin change — invisible to MOAS and topology monitors.
    StripPadding {
        /// Origin copies kept (≥ 1).
        keep: usize,
    },
    /// The generalized ASPP interception: collapse *every* prepend run on
    /// the received route, intermediary padding included ("the prepending is
    /// not limited to the origin AS", Section II-B). Still no bogus link and
    /// no origin change.
    StripAllPadding,
    /// The Ballani-style interception baseline: announce `[M V]`, claiming
    /// a direct (usually non-existent) adjacency to the victim while still
    /// forwarding over the real route. Detectable as a new AS-level link.
    ForgeDirect,
    /// The origin-hijack baseline: announce the prefix as `[M]`, stealing
    /// ownership and blackholing the traffic. Detectable as a MOAS
    /// conflict.
    OriginHijack,
    /// The poisoning-style forgery (Smith et al., "Withdrawing the BGP
    /// Re-Routing Curtain"): strip every prepend run from the received
    /// route and splice `poisoned` in right after the attacker, claiming
    /// `[M P ASn … V]`. BGP loop prevention makes AS `P` reject the
    /// announcement, so the attacker steers its pollution *around* a chosen
    /// AS at the cost of one extra hop of claimed length. A `poisoned` ASN
    /// absent from the topology degrades to pure +1 path inflation.
    PoisonPath {
        /// The AS the forged path claims to traverse (and thereby excludes).
        poisoned: Asn,
    },
}

impl Default for AttackStrategy {
    fn default() -> Self {
        AttackStrategy::StripPadding { keep: 1 }
    }
}

/// The prefix-hijack attacker: by default the paper's ASPP interception
/// (strip the victim's origin padding and re-announce the shortened route);
/// the baseline strategies of [`AttackStrategy`] are available for
/// comparison experiments.
///
/// # Example
///
/// ```
/// use aspp_routing::{AttackerModel, ExportMode};
/// use aspp_types::Asn;
///
/// let m = AttackerModel::new(Asn(9318)).mode(ExportMode::ViolateValleyFree);
/// assert_eq!(m.asn(), Asn(9318));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AttackerModel {
    asn: Asn,
    mode: ExportMode,
    strategy: AttackStrategy,
}

impl AttackerModel {
    /// An attacker at `asn` that keeps a single origin copy (the paper's
    /// `[M ∗ V]` form) and obeys the valley-free rule.
    #[must_use]
    pub fn new(asn: Asn) -> Self {
        AttackerModel {
            asn,
            mode: ExportMode::Compliant,
            strategy: AttackStrategy::default(),
        }
    }

    /// Sets the export mode.
    #[must_use]
    pub fn mode(mut self, mode: ExportMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets how many origin copies the attacker keeps (min 1); implies the
    /// ASPP [`AttackStrategy::StripPadding`] strategy.
    #[must_use]
    pub fn keep(mut self, keep: usize) -> Self {
        self.strategy = AttackStrategy::StripPadding { keep: keep.max(1) };
        self
    }

    /// Sets the attack strategy.
    #[must_use]
    pub fn strategy(mut self, strategy: AttackStrategy) -> Self {
        self.strategy = match strategy {
            AttackStrategy::StripPadding { keep } => {
                AttackStrategy::StripPadding { keep: keep.max(1) }
            }
            other => other,
        };
        self
    }

    /// The attacker's ASN.
    #[must_use]
    pub fn asn(&self) -> Asn {
        self.asn
    }

    /// The export mode.
    #[must_use]
    pub fn export_mode(&self) -> ExportMode {
        self.mode
    }

    /// The attack strategy.
    #[must_use]
    pub fn attack_strategy(&self) -> AttackStrategy {
        self.strategy
    }

    /// Origin copies kept when stripping (1 for the baseline strategies,
    /// which never carry the victim's padding).
    #[must_use]
    pub fn kept_copies(&self) -> usize {
        match self.strategy {
            AttackStrategy::StripPadding { keep } => keep,
            _ => 1,
        }
    }
}

/// Everything needed to compute routes toward one destination.
///
/// # Example
///
/// ```
/// use aspp_routing::{AttackerModel, DestinationSpec};
/// use aspp_types::Asn;
///
/// let spec = DestinationSpec::new(Asn(32934))
///     .origin_padding(5)
///     .attacker(AttackerModel::new(Asn(9318)));
/// assert_eq!(spec.victim(), Asn(32934));
/// ```
#[derive(Clone, Debug)]
pub struct DestinationSpec {
    victim: Asn,
    // Arc-shared so cloning a spec (batch cells, cached clean entries,
    // outcome embedding) bumps a refcount instead of copying the policy map.
    prepend: Arc<PrependConfig>,
    attacker: Option<AttackerModel>,
    tie: TieBreak,
}

impl DestinationSpec {
    /// Routes toward `victim`, with no padding, no attacker, default
    /// tie-break.
    #[must_use]
    pub fn new(victim: Asn) -> Self {
        DestinationSpec {
            victim,
            prepend: Arc::new(PrependConfig::new()),
            attacker: None,
            tie: TieBreak::default(),
        }
    }

    /// The victim announces λ = `copies` total copies of its ASN to every
    /// neighbor (the paper's `r0 = [V…V]` with λ copies). `copies` is
    /// clamped to at least 1.
    #[must_use]
    pub fn origin_padding(mut self, copies: usize) -> Self {
        Arc::make_mut(&mut self.prepend).set(
            self.victim,
            PrependingPolicy::Uniform(copies.saturating_sub(1)),
        );
        self
    }

    /// Installs a full prepending configuration (origin and intermediary
    /// policies). Replaces any padding set earlier.
    #[must_use]
    pub fn prepend_config(mut self, config: PrependConfig) -> Self {
        self.prepend = Arc::new(config);
        self
    }

    /// Adds the interception attacker.
    #[must_use]
    pub fn attacker(mut self, attacker: AttackerModel) -> Self {
        self.attacker = Some(attacker);
        self
    }

    /// Sets the tie-break rule.
    #[must_use]
    pub fn tie_break(mut self, tie: TieBreak) -> Self {
        self.tie = tie;
        self
    }

    /// The destination (victim) AS.
    #[must_use]
    pub fn victim(&self) -> Asn {
        self.victim
    }

    /// The attacker model, if any.
    #[must_use]
    pub fn attacker_model(&self) -> Option<&AttackerModel> {
        self.attacker.as_ref()
    }

    /// The prepending configuration.
    #[must_use]
    pub fn prepending(&self) -> &PrependConfig {
        &self.prepend
    }

    /// The configured tie-break rule.
    #[must_use]
    pub fn tie_break_rule(&self) -> TieBreak {
        self.tie
    }

    /// What the clean equilibrium depends on: specs with equal keys share
    /// one clean pass whatever their attackers do. Both the workspace cache
    /// and the batch scheduler's steal units ([`crate::batch`]) are keyed
    /// by it.
    pub(crate) fn clean_key(&self) -> (Asn, TieBreak, &Arc<PrependConfig>) {
        (self.victim, self.tie, &self.prepend)
    }
}

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
/// The pack/unpack round-trip is lossless (lengths are bounded far below
/// 2^28 and node indices fit 30 bits per the CSR), so the packed pass is
/// bit-identical in behaviour to the former `Vec<Option<NodeRoute>>` while
/// taking 8 bytes per node instead of 24 — at Internet scale the whole
/// route table is one 640 kB allocation that clones via `memcpy`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(transparent)]
pub(crate) struct PackedRoute(u64);

impl PackedRoute {
    const ABSENT: PackedRoute = PackedRoute(0);
    const PRESENT: u64 = 1 << 63;
    const VIA: u64 = 1 << 62;
    const NO_PARENT: u64 = u32::MAX as u64;
    /// Discriminant-indexed decode table for the 2-bit class field.
    const CLASS: [RouteClass; 4] = [
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
/// `Option<NodeRoute>` so the rest of the engine (and the auditor) reads
/// and writes routes exactly as before the packing.
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

/// Identity stamp for the graph a workspace's cached passes were computed
/// against. Combines the graph's address, mutation counter and node count so
/// a workspace reused across graphs (or across mutations of one graph) drops
/// its stale cache instead of serving wrong routes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct GraphStamp {
    ptr: usize,
    version: u64,
    nodes: usize,
}

impl GraphStamp {
    fn of(graph: &AsGraph) -> Self {
        GraphStamp {
            ptr: std::ptr::from_ref(graph) as usize,
            version: graph.version(),
            nodes: graph.len(),
        }
    }
}

/// One memoized clean (no-attack) pass, keyed by everything that influences
/// it: the victim, the prepending configuration and the tie-break rule.
///
/// The pass itself is behind an [`Arc`] so a cache hit hands out a shared
/// reference instead of cloning the whole route table, and `keys` memoizes
/// the delta pass's packed clean-route ranking table (built lazily on the
/// first delta attempt against this equilibrium, then reused by every later
/// one).
#[derive(Clone, Debug)]
struct CleanEntry {
    victim: Asn,
    tie: TieBreak,
    prepend: Arc<PrependConfig>,
    pass: Arc<Pass>,
    keys: Option<Arc<[u128]>>,
}

impl CleanEntry {
    /// Whether this entry is `spec`'s clean equilibrium.
    fn holds(&self, spec: &DestinationSpec) -> bool {
        (self.victim, self.tie, &self.prepend) == spec.clean_key()
    }
}

/// Labels with effective length at or beyond this spill from the per-length
/// `Vec` buckets into a per-class binary heap. Only extreme prepending
/// configurations produce such labels; everything paper-shaped stays in the
/// O(1) buckets.
const BUCKET_SPILL_LEN: usize = 256;

/// Dial-style bucket priority queue over route [`Label`]s.
///
/// Route preference is `(class, effective length, tie-break)` with only
/// three receiver classes and small lengths, and every export step strictly
/// increases `(class, length)` lexicographically. So instead of a binary
/// heap the scheduler keeps one bucket per `(class, length)` and scans them
/// class-major, length-minor. Strict progress means a bucket can no longer
/// receive pushes once the scan reaches it, so it is sorted exactly once
/// (full `Label` order, all labels distinct) and drained back-to-front —
/// the pop sequence is identical to `BinaryHeap<Reverse<Label>>`, without
/// the per-operation `log n` sift.
///
/// A stored label's `(class, len)` are the bucket coordinates themselves,
/// and the rest of its `Ord` key — tie-break, node, parent, via flag — packs
/// into one [`pack_bucket_rank`] integer, so buckets hold bare `u128`s:
/// the sort compares native integers with no key recomputation, and
/// [`pop`](Self::pop) reconstructs the [`Label`]. Buckets are reused across
/// computations ([`clear`](Self::clear) retains every allocation).
#[derive(Debug, Default)]
struct BucketQueue {
    /// `buckets[class][len]` for `len < BUCKET_SPILL_LEN`, holding
    /// [`pack_bucket_rank`]-packed labels.
    buckets: [Vec<Vec<u128>>; 3],
    /// Per-class overflow for `len >= BUCKET_SPILL_LEN`; `(len, rank)`
    /// tuple order equals `Label` order within one class.
    spill: [BinaryHeap<Reverse<(u32, u128)>>; 3],
    cur_class: usize,
    cur_len: usize,
    cur_sorted: bool,
    in_spill: bool,
    len: usize,
}

impl BucketQueue {
    /// Class scan rank. `Origin` labels never enter the queue (the victim is
    /// finalized before propagation starts), so the rank is invertible — see
    /// [`class_of_rank`](Self::class_of_rank).
    fn class_rank(class: RouteClass) -> usize {
        match class {
            RouteClass::Origin | RouteClass::FromCustomer => 0,
            RouteClass::FromPeer => 1,
            RouteClass::FromProvider => 2,
        }
    }

    /// Inverse of [`class_rank`](Self::class_rank) over queued labels.
    fn class_of_rank(rank: usize) -> RouteClass {
        match rank {
            0 => RouteClass::FromCustomer,
            1 => RouteClass::FromPeer,
            _ => RouteClass::FromProvider,
        }
    }

    /// Empties the queue, retaining every bucket/heap allocation.
    fn clear(&mut self) {
        for class in &mut self.buckets {
            for bucket in class.iter_mut() {
                bucket.clear();
            }
        }
        for heap in &mut self.spill {
            heap.clear();
        }
        self.cur_class = 0;
        self.cur_len = 0;
        self.cur_sorted = false;
        self.in_spill = false;
        self.len = 0;
    }

    /// Enqueues the label with class `class`, effective length `len` and
    /// [`pack_bucket_rank`] key `bucket_rank`.
    fn push(&mut self, class: RouteClass, len: u32, bucket_rank: u128) {
        debug_assert_ne!(class, RouteClass::Origin, "Origin is never exported");
        counters::incr(Counter::QueuePush);
        let rank = Self::class_rank(class);
        let idx = len as usize;
        if idx >= BUCKET_SPILL_LEN {
            counters::incr(Counter::QueueSpill);
            self.spill[rank].push(Reverse((len, bucket_rank)));
        } else {
            // Strict (class, len) progress: a push can never land behind the
            // scan cursor, so sorted-then-drained buckets stay exact.
            debug_assert!(
                rank > self.cur_class
                    || (rank == self.cur_class && (self.in_spill || idx >= self.cur_len)),
                "bucket push behind scan cursor breaks pop order"
            );
            let class_buckets = &mut self.buckets[rank];
            if class_buckets.len() <= idx {
                class_buckets.resize_with(idx + 1, Vec::new);
            }
            class_buckets[idx].push(bucket_rank);
        }
        self.len += 1;
    }

    /// Rebuilds the [`Label`] whose [`pack_bucket_rank`] key is
    /// `rank` in the bucket at (`class_rank`, `len`).
    fn unpack(class_rank: usize, len: u32, rank: u128) -> Label {
        let tie_asn = (rank >> 65) as u32;
        Label {
            class: Self::class_of_rank(class_rank),
            len,
            tie_key: ((rank >> 97) as u8, tie_asn),
            parent_asn_order: tie_asn,
            node: (rank >> 33) as u32,
            parent: (rank >> 1) as u32,
            via_attacker: (rank & 1) != 0,
        }
    }

    fn pop(&mut self) -> Option<Label> {
        if self.len == 0 {
            return None;
        }
        loop {
            if self.cur_class == 3 {
                debug_assert_eq!(self.len, 0, "labels stranded behind the cursor");
                return None;
            }
            if self.in_spill {
                if let Some(Reverse((len, rank))) = self.spill[self.cur_class].pop() {
                    self.len -= 1;
                    return Some(Self::unpack(self.cur_class, len, rank));
                }
                self.cur_class += 1;
                self.cur_len = 0;
                self.cur_sorted = false;
                self.in_spill = false;
                continue;
            }
            if self.cur_len >= self.buckets[self.cur_class].len() {
                self.in_spill = true;
                continue;
            }
            let bucket = &mut self.buckets[self.cur_class][self.cur_len];
            if bucket.is_empty() {
                self.cur_len += 1;
                self.cur_sorted = false;
                continue;
            }
            if !self.cur_sorted {
                // Descending sort + back-to-front drain = ascending pops.
                bucket.sort_unstable_by(|a, b| b.cmp(a));
                self.cur_sorted = true;
            }
            self.len -= 1;
            let rank = bucket.pop().expect("bucket checked non-empty");
            return Some(Self::unpack(self.cur_class, self.cur_len as u32, rank));
        }
    }
}

/// All per-node scratch state of one propagation pass, packed into 32
/// aligned bytes so the per-edge push filter costs one random memory access
/// instead of four and the whole table stays L1-resident on paper-scale
/// topologies.
///
/// The epochs implement O(1) whole-array invalidation: a field is live only
/// while its epoch equals the workspace's current pass epoch, so starting a
/// new pass is one counter bump and nothing is re-zeroed. (A `u32` epoch
/// wraps after 2³² passes; [`RouteWorkspace::begin_pass`] re-zeroes the
/// table at the wrap so stale stamps can never collide.)
///
/// * `offer_rank` (with `offer_epoch`) is a lazy decrease-key: the best
///   [`offer`]-rank queued for this node so far. An offer that does not
///   beat it is provably redundant — the recorded offer pops first (same
///   node, and the rank order is `Ord` order) and settles the node the same
///   way — so it is dropped at push. Strict `(class, len)` scan progress
///   guarantees nothing better can arrive after adoption.
/// * `chain_epoch` marks membership in the attacker's claimed AS chain
///   (loop prevention); `adopted_epoch` marks a settled node — finalized in
///   the full pass, adopted-malicious in the delta pass.
///
/// The delta pass's clean-route ranking table deliberately lives *outside*
/// this struct (see [`CleanEntry::keys`]): the clean and full passes never
/// read it, and keeping it out halves their scratch footprint.
#[derive(Clone, Copy, Debug, Default)]
#[repr(align(32))]
struct NodeScratch {
    offer_rank: u128,
    offer_epoch: u32,
    chain_epoch: u32,
    adopted_epoch: u32,
}

/// A label's preference key `(class, effective length, tie-break)` packed
/// into one integer, ordered exactly like the tuple compare.
pub(crate) fn pack_pref(class: RouteClass, len: u32, tie_key: (u8, u32)) -> u128 {
    ((class as u128) << 72)
        | ((len as u128) << 40)
        | ((tie_key.0 as u128) << 32)
        | (tie_key.1 as u128)
}

/// Packed clean key of a node with no clean route: orders after every real
/// preference key, so the delta pass never rejects an offer against it, and
/// its embedded length field is `u32::MAX`, so no adoption over it can
/// register as worsened.
const PACKED_NO_CLEAN: u128 = u128::MAX;

/// The effective length embedded in a [`pack_pref`]-packed key.
fn packed_len(key: u128) -> u32 {
    (key >> 40) as u32
}

/// Reusable per-thread scratch state for route computation.
///
/// [`RoutingEngine::compute`] starts from cold scratch state and, when an
/// attacker is present, recomputes the clean (no-attack) equilibrium for
/// every call. Sweeps — λ sweeps, attacker-placement sweeps, detection
/// evaluations — issue thousands of such calls against the same victim, so a
/// `RouteWorkspace` keeps three things alive across calls:
///
/// * the bucket-queue label scheduler, so its buckets are reused instead of
///   regrown;
/// * the per-node `NodeScratch` table (offer ranks, adoption/chain epoch
///   stamps — epoch-stamped, never re-zeroed); and
/// * a small LRU cache of clean passes keyed by `(victim, prepending
///   config, tie-break)` — each entry `Arc`-shares its route table (hits
///   never clone it) and lazily memoizes the packed clean-key ranking table,
///   so repeated computations over the same victim skip the redundant clean
///   pass entirely and give the **delta attacked pass** its starting
///   equilibrium and pruning keys for free.
///
/// Results are **bit-identical** to [`RoutingEngine::compute`]: the clean
/// pass is deterministic, so replaying a cached copy and recomputing it
/// produce the same routes, and the delta pass falls back to the full
/// second pass whenever incremental re-convergence could diverge. The cache
/// watches the graph's [`version`](AsGraph::version) and is dropped
/// automatically if the workspace is reused against a mutated (or
/// different) graph.
///
/// A workspace is cheap to construct and intended to live one-per-thread;
/// it is `Send` but not shared (`&mut` access only).
///
/// # Example
///
/// ```
/// use aspp_routing::{DestinationSpec, RouteWorkspace, RoutingEngine};
/// use aspp_topology::AsGraph;
/// use aspp_types::Asn;
///
/// let mut graph = AsGraph::new();
/// graph.add_provider_customer(Asn(1), Asn(2)).unwrap();
/// let engine = RoutingEngine::new(&graph);
/// let mut ws = RouteWorkspace::new();
/// for pad in 1..4 {
///     let spec = DestinationSpec::new(Asn(2)).origin_padding(pad);
///     let outcome = engine.compute_with(&spec, &mut ws);
///     assert!(outcome.route(Asn(1)).is_some());
/// }
/// ```
#[derive(Debug)]
pub struct RouteWorkspace {
    queue: BucketQueue,
    /// One [`NodeScratch`] per node; all epoch fields key off `epoch`.
    scratch: Vec<NodeScratch>,
    epoch: u32,
    clean_cache: Vec<CleanEntry>,
    cache_capacity: usize,
    stamp: Option<GraphStamp>,
    hits: u64,
    misses: u64,
    delta_passes: u64,
    delta_fallbacks: u64,
    scratch_reuses: u64,
}

impl Default for RouteWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl RouteWorkspace {
    /// Clean-pass cache capacity used by [`new`](Self::new): large enough to
    /// hold every λ of a Figure-9-style sweep with room to spare, small
    /// enough that the linear key scan stays trivial.
    pub const DEFAULT_CACHE_CAPACITY: usize = 32;

    /// A workspace with the default clean-pass cache capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_cache_capacity(Self::DEFAULT_CACHE_CAPACITY)
    }

    /// A workspace whose clean-pass cache holds at most `capacity` passes
    /// (`0` disables caching; the scheduler buckets are still reused).
    #[must_use]
    pub fn with_cache_capacity(capacity: usize) -> Self {
        RouteWorkspace {
            queue: BucketQueue::default(),
            scratch: Vec::new(),
            epoch: 0,
            clean_cache: Vec::new(),
            cache_capacity: capacity,
            stamp: None,
            hits: 0,
            misses: 0,
            delta_passes: 0,
            delta_fallbacks: 0,
            scratch_reuses: 0,
        }
    }

    /// Drops all cached passes, keeping the configured capacity, the
    /// counters, and — deliberately — every scratch allocation (scheduler
    /// buckets, chain mask, cache slots), so a cleared workspace computes
    /// again without growing the heap.
    pub fn clear(&mut self) {
        self.queue.clear();
        self.clean_cache.clear();
        self.stamp = None;
    }

    /// Number of clean passes served from cache so far.
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.hits
    }

    /// Number of clean passes that had to be computed (cache misses, plus
    /// every pass when caching is disabled).
    #[must_use]
    pub fn cache_misses(&self) -> u64 {
        self.misses
    }

    /// Number of clean passes currently held in the cache.
    #[must_use]
    pub fn cached_passes(&self) -> usize {
        self.clean_cache.len()
    }

    /// Number of attacked passes served by delta re-convergence.
    #[must_use]
    pub fn delta_passes(&self) -> u64 {
        self.delta_passes
    }

    /// Number of attacked passes where the delta pass detected the
    /// non-monotone corner (see the module docs) and fell back to a full
    /// propagation.
    #[must_use]
    pub fn delta_fallbacks(&self) -> u64 {
        self.delta_fallbacks
    }

    /// Number of passes that started by epoch-bumping an already-sized
    /// scratch table instead of growing it — the amortization the batch
    /// engine ([`crate::batch`]) buys by keeping one workspace alive across
    /// many victims.
    #[must_use]
    pub fn scratch_reuses(&self) -> u64 {
        self.scratch_reuses
    }

    /// Starts a fresh propagation pass over a graph of `n` nodes: bumps the
    /// pass epoch (retiring every offer, adoption and chain mark in O(1),
    /// without re-zeroing the scratch array) and marks `chain` as the
    /// attacker's claimed AS chain.
    fn begin_pass(&mut self, n: usize, chain: &[usize]) {
        if self.scratch.len() < n {
            self.scratch.resize(n, NodeScratch::default());
        } else if n > 0 {
            self.scratch_reuses += 1;
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // u32 wrap: re-zero once so stale stamps can't alias epoch 1.
            self.scratch.fill(NodeScratch::default());
            self.epoch = 1;
        }
        for &i in chain {
            self.scratch[i].chain_epoch = self.epoch;
        }
    }
}

/// The policy-routing engine bound to one topology.
#[derive(Clone, Copy, Debug)]
pub struct RoutingEngine<'g> {
    graph: &'g AsGraph,
}

impl<'g> RoutingEngine<'g> {
    /// Creates an engine over `graph`.
    #[must_use]
    pub fn new(graph: &'g AsGraph) -> Self {
        RoutingEngine { graph }
    }

    /// The underlying graph.
    #[must_use]
    pub fn graph(&self) -> &'g AsGraph {
        self.graph
    }

    /// Computes the routing equilibrium for `spec`.
    ///
    /// Always computes the clean (no-attack) equilibrium; if `spec` carries
    /// an attacker that has a route to the victim, additionally computes the
    /// attacked equilibrium.
    ///
    /// # Panics
    ///
    /// Panics if the victim (or configured attacker) is not in the graph, or
    /// if attacker == victim.
    #[must_use]
    pub fn compute(&self, spec: &DestinationSpec) -> RoutingOutcome<'g> {
        // A throwaway workspace with caching disabled: identical behaviour
        // (and identical results) to the historical allocate-per-call path.
        self.compute_with(spec, &mut RouteWorkspace::with_cache_capacity(0))
    }

    /// Computes the routing equilibrium for `spec`, reusing `ws` for scratch
    /// allocations and the clean-pass cache.
    ///
    /// Returns exactly what [`compute`](Self::compute) returns — see
    /// [`RouteWorkspace`] for the equivalence guarantee.
    ///
    /// # Example
    ///
    /// Sweeping the victim's padding against a fixed attacker reuses the
    /// cached clean pass and the delta attacked pass across iterations:
    ///
    /// ```
    /// use aspp_routing::{AttackerModel, DestinationSpec, ExportMode, RouteWorkspace, RoutingEngine};
    /// use aspp_topology::AsGraph;
    /// use aspp_types::Asn;
    ///
    /// let mut graph = AsGraph::new();
    /// graph.add_provider_customer(Asn(1), Asn(2)).unwrap(); // victim's provider
    /// graph.add_provider_customer(Asn(1), Asn(3)).unwrap(); // attacker's 1st provider
    /// graph.add_provider_customer(Asn(5), Asn(3)).unwrap(); // attacker's 2nd provider
    /// graph.add_peering(Asn(1), Asn(5)).unwrap();
    /// let engine = RoutingEngine::new(&graph);
    /// let mut ws = RouteWorkspace::new();
    ///
    /// let spec = DestinationSpec::new(Asn(2))
    ///     .origin_padding(4)
    ///     .attacker(AttackerModel::new(Asn(3)).mode(ExportMode::ViolateValleyFree));
    /// let outcome = engine.compute_with(&spec, &mut ws);
    /// // AS1 sits on the attacker's clean chain, so it rejects the stripped
    /// // announcement (loop prevention) — but off-chain AS5 prefers the
    /// // shorter customer route and is intercepted.
    /// assert!(!outcome.route(Asn(1)).unwrap().via_attacker);
    /// assert!(outcome.route(Asn(5)).unwrap().via_attacker);
    /// assert!(!outcome.clean_route(Asn(5)).unwrap().via_attacker);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the victim (or configured attacker) is not in the graph, or
    /// if attacker == victim.
    #[must_use]
    pub fn compute_with(
        &self,
        spec: &DestinationSpec,
        ws: &mut RouteWorkspace,
    ) -> RoutingOutcome<'g> {
        self.compute_with_policy(spec, ws, &NoDefense)
    }

    /// Like [`compute_with`](Self::compute_with) with a per-AS
    /// [`DefensePolicy`] filtering attacker-derived announcements at import
    /// time (see [`crate::policy`]).
    ///
    /// With [`NoDefense`] this is *exactly* `compute_with` — the policy hook
    /// is monomorphized away — and with any policy the clean equilibrium is
    /// untouched: policies only filter attacker-derived offers, so the
    /// workspace's clean-pass cache stays valid (and shared) across policy
    /// configurations of the same destination.
    ///
    /// Active (non-[`NOOP`](DefensePolicy::NOOP)) policies compute the
    /// attacked pass with the full from-scratch propagation rather than
    /// delta re-convergence: an import filter can orphan a node's clean
    /// route (its clean parent adopts a malicious route the node refuses),
    /// which violates the delta pass's replacement invariant. A policy that
    /// accepts everything therefore yields the whole-graph reference for
    /// [`compute_with`](Self::compute_with) — the oracle of
    /// `tests/delta_equivalence.rs` and `tests/flat_equivalence.rs`.
    ///
    /// # Example
    ///
    /// ```
    /// use aspp_routing::policy::{DeployedPolicy, DeploymentMap, PolicyKind};
    /// use aspp_routing::{AttackerModel, DestinationSpec, RouteWorkspace, RoutingEngine};
    /// use aspp_topology::gen::InternetConfig;
    /// use aspp_types::Asn;
    ///
    /// let graph = InternetConfig::small().seed(7).build();
    /// let engine = RoutingEngine::new(&graph);
    /// let mut ws = RouteWorkspace::new();
    /// let spec = DestinationSpec::new(Asn(20_000))
    ///     .origin_padding(4)
    ///     .attacker(AttackerModel::new(Asn(20_001)));
    /// // ROV everywhere: blind to prepend-stripping, so nothing changes.
    /// let rov = DeployedPolicy::new(
    ///     PolicyKind::Rov,
    ///     DeploymentMap::from_indices(graph.len(), 0..graph.len()),
    /// );
    /// let defended = engine.compute_with_policy(&spec, &mut ws, &rov);
    /// let undefended = engine.compute_with(&spec, &mut ws);
    /// assert_eq!(defended.polluted_count(), undefended.polluted_count());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the victim (or configured attacker) is not in the graph, or
    /// if attacker == victim.
    #[must_use]
    pub fn compute_with_policy<P: DefensePolicy>(
        &self,
        spec: &DestinationSpec,
        ws: &mut RouteWorkspace,
        policy: &P,
    ) -> RoutingOutcome<'g> {
        let _span = aspp_obs::trace::span("engine.compute");
        let v_idx = self
            .graph
            .index_of(spec.victim)
            .unwrap_or_else(|| panic!("victim AS{} not in graph", spec.victim));
        if let Some(att) = &spec.attacker {
            assert_ne!(att.asn, spec.victim, "attacker and victim must differ");
            assert!(
                self.graph.contains(att.asn),
                "attacker AS{} not in graph",
                att.asn
            );
        }

        let clean = self.clean_pass(spec, v_idx, ws);

        let attacked = spec.attacker.as_ref().and_then(|att| {
            let m_idx = self.graph.index_of(att.asn).expect("checked above");
            let m_route = clean.get(m_idx)?;
            // M's own clean chain is closed under clean parents by
            // construction; a poisoned splice generally is not.
            let mut chain_parent_closed = true;
            // The one place that knows what each strategy claims: the base
            // path M announces (without M itself) and who rejects it.
            let (base_path, chain) = match att.strategy {
                AttackStrategy::StripPadding { keep } => {
                    // Claimed path = M's real received route, with the
                    // origin padding stripped down to `keep` copies.
                    let mut m_path = reconstruct_received(self.graph, spec, &clean, None, m_idx)?;
                    m_path.strip_origin_padding(keep);
                    (m_path, chain_of(&clean, m_idx))
                }
                AttackStrategy::StripAllPadding => {
                    let mut m_path = reconstruct_received(self.graph, spec, &clean, None, m_idx)?;
                    m_path.strip_all_padding();
                    (m_path, chain_of(&clean, m_idx))
                }
                // Claimed path [M V]: length 1 before M's own prepend. The
                // interceptor must not displace its own forwarding route, so
                // its clean chain still rejects the announcement ("M should
                // carefully select whom to announce to", Section II-B).
                AttackStrategy::ForgeDirect => (
                    AsPath::origin_with_padding(spec.victim, 1),
                    chain_of(&clean, m_idx),
                ),
                // Claimed path [M]: the attacker owns the prefix outright
                // and does not care about a forwarding route.
                AttackStrategy::OriginHijack => (AsPath::new(), vec![m_idx]),
                // Claimed path [M P ASn … V]: the stripped route plus the
                // poisoned splice. Loop prevention at P joins the rejection
                // chain alongside M's own forwarding chain.
                AttackStrategy::PoisonPath { poisoned } => {
                    let mut m_path = reconstruct_received(self.graph, spec, &clean, None, m_idx)?;
                    m_path.strip_all_padding();
                    m_path.prepend(poisoned);
                    let mut chain = chain_of(&clean, m_idx);
                    if let Some(p_idx) = self.graph.index_of(poisoned) {
                        if !chain.contains(&p_idx) {
                            chain.push(p_idx);
                            // The spliced node's clean parent sits off the
                            // chain and may adopt the malicious route; the
                            // node must then re-select, which only the full
                            // propagation models.
                            chain_parent_closed = false;
                        }
                    }
                    (m_path, chain)
                }
            };
            let seed = AttackSeed {
                m_idx,
                base_len: base_path.len() as u32,
                clean_class: match att.strategy {
                    // An origin hijacker poses as the prefix owner.
                    AttackStrategy::OriginHijack => RouteClass::Origin,
                    _ => m_route.class,
                },
                mode: att.mode,
                pinned: m_route,
                chain,
                chain_parent_closed,
            };
            // Per-attack policy inputs, computed once per attacked pass —
            // the per-offer hook is then branch-and-mask only. Elided (with
            // the hook itself) for the NOOP default.
            let facts = if P::NOOP {
                AttackFacts::default()
            } else {
                crate::policy::facts_for(
                    self.graph,
                    att.strategy,
                    &clean,
                    m_idx,
                    v_idx,
                    m_route.class,
                )
            };
            if seed.delta_applicable::<P>(spec.tie) {
                let keys = self.clean_keys(spec, ws, &clean);
                if let Some(pass) = self.propagate_delta(spec, v_idx, ws, &seed, &clean, &keys) {
                    ws.delta_passes += 1;
                    counters::incr(Counter::DeltaPass);
                    if crate::audit::enabled() {
                        // debug-audit oracle: the delta pass must be
                        // bit-identical to a from-scratch propagation.
                        let full = self.propagate(spec, v_idx, ws, Some(&seed), policy, &facts);
                        crate::audit::assert_delta_matches_full(self.graph, spec, &pass, &full);
                    }
                    return Some((pass, base_path));
                }
                ws.delta_fallbacks += 1;
                counters::incr(Counter::DeltaFallback);
            }
            let pass = self.propagate(spec, v_idx, ws, Some(&seed), policy, &facts);
            Some((pass, base_path))
        });
        let (attacked, base_path) = attacked.unzip();

        RoutingOutcome {
            spec: spec.clone(),
            v_idx,
            m_idx: spec
                .attacker
                .as_ref()
                .and_then(|a| self.graph.index_of(a.asn)),
            clean,
            attacked,
            base_path,
            graph: self.graph,
        }
    }

    /// Looks up (or computes and caches) the clean equilibrium for `spec`.
    /// Hits cost one `Arc` bump — the route table itself is shared, never
    /// cloned.
    fn clean_pass(
        &self,
        spec: &DestinationSpec,
        v_idx: usize,
        ws: &mut RouteWorkspace,
    ) -> Arc<Pass> {
        if ws.cache_capacity == 0 {
            ws.misses += 1;
            counters::incr(Counter::CleanCacheMiss);
            return Arc::new(self.propagate(
                spec,
                v_idx,
                ws,
                None,
                &NoDefense,
                &AttackFacts::default(),
            ));
        }
        let stamp = GraphStamp::of(self.graph);
        if ws.stamp != Some(stamp) {
            ws.clean_cache.clear();
            ws.stamp = Some(stamp);
        }
        if let Some(pos) = ws.clean_cache.iter().position(|e| e.holds(spec)) {
            ws.hits += 1;
            counters::incr(Counter::CleanCacheHit);
            // Move-to-front LRU; the cache is small, so the rotate is cheap.
            ws.clean_cache[..=pos].rotate_right(1);
            return Arc::clone(&ws.clean_cache[0].pass);
        }
        ws.misses += 1;
        counters::incr(Counter::CleanCacheMiss);
        let pass =
            Arc::new(self.propagate(spec, v_idx, ws, None, &NoDefense, &AttackFacts::default()));
        if ws.clean_cache.len() >= ws.cache_capacity {
            ws.clean_cache.pop();
        }
        ws.clean_cache.insert(
            0,
            CleanEntry {
                victim: spec.victim,
                tie: spec.tie,
                prepend: spec.prepend.clone(),
                pass: Arc::clone(&pass),
                keys: None,
            },
        );
        pass
    }

    /// The delta pass's clean-route ranking table for `clean`: every node's
    /// [`pack_pref`]-packed clean preference key (`PACKED_NO_CLEAN` where it
    /// has no clean route). Memoized on the pass's [`CleanEntry`] so a λ
    /// sweep's repeated delta passes over one cached equilibrium build it
    /// exactly once; with caching disabled it is rebuilt per call.
    fn clean_keys(
        &self,
        spec: &DestinationSpec,
        ws: &mut RouteWorkspace,
        clean: &Pass,
    ) -> Arc<[u128]> {
        let build = || {
            clean
                .iter()
                .map(|r| match r {
                    Some(c) => {
                        let p_asn = c.parent.map_or(Asn(0), |p| self.graph.asn_at(p));
                        pack_pref(c.class, c.len, tie_key_for(spec.tie, false, p_asn))
                    }
                    None => PACKED_NO_CLEAN,
                })
                .collect()
        };
        // `clean_pass` just ran, so on a cache-enabled workspace the front
        // entry is exactly this equilibrium.
        match ws.clean_cache.first_mut() {
            Some(e) if e.holds(spec) => Arc::clone(e.keys.get_or_insert_with(build)),
            _ => build(),
        }
    }

    /// Dense per-node prepending policies for `spec`: one hash lookup per
    /// *configured* AS per pass instead of one per exporting node. Empty
    /// when nobody pads — callers index with `pad.get(i).copied().flatten()`.
    fn pad_table<'s>(&self, spec: &'s DestinationSpec) -> Vec<Option<&'s PrependingPolicy>> {
        if spec.prepend.is_empty() {
            return Vec::new();
        }
        let mut pad = vec![None; self.graph.len()];
        for (asn, policy) in spec.prepend.iter() {
            if let Some(idx) = self.graph.index_of(asn) {
                pad[idx] = Some(policy);
            }
        }
        pad
    }

    /// The label-correcting Dijkstra described in the module docs, over the
    /// whole graph. `policy` filters attacker-derived offers at their
    /// receivers (a no-op, compiled out, for [`NoDefense`]); the clean pass
    /// runs with `attack == None` and never consults it.
    #[allow(clippy::too_many_arguments)]
    fn propagate<P: DefensePolicy>(
        &self,
        spec: &DestinationSpec,
        v_idx: usize,
        ws: &mut RouteWorkspace,
        attack: Option<&AttackSeed>,
        policy: &P,
        facts: &AttackFacts,
    ) -> Pass {
        let n = self.graph.len();
        let csr = self.graph.csr();
        let pad = self.pad_table(spec);
        let mut best = Pass::absent(n);
        ws.begin_pass(n, attack.map_or(&[][..], |a| a.chain.as_slice()));
        let RouteWorkspace {
            queue,
            scratch,
            epoch,
            ..
        } = ws;
        let (scratch, epoch) = (&mut scratch[..], *epoch);
        queue.clear();

        best.set(
            v_idx,
            Some(NodeRoute {
                class: RouteClass::Origin,
                len: 0,
                parent: None,
                via_attacker: false,
            }),
        );
        scratch[v_idx].adopted_epoch = epoch;

        // Victim's exports.
        self.export_from::<false, P>(
            spec,
            csr,
            &pad,
            v_idx,
            RouteClass::Origin,
            0,
            false,
            queue,
            scratch,
            &[],
            epoch,
            policy,
            facts,
        );

        // Attacker: pin its clean route and seed its modified exports.
        if let Some(att) = attack {
            best.set(att.m_idx, Some(att.pinned));
            scratch[att.m_idx].adopted_epoch = epoch;
            self.seed_attacker_exports::<false, P>(
                spec,
                csr,
                &pad,
                att,
                v_idx,
                queue,
                scratch,
                &[],
                epoch,
                policy,
                facts,
            );
        }

        while let Some(label) = queue.pop() {
            let node = label.node as usize;
            if scratch[node].adopted_epoch == epoch {
                continue;
            }
            // Chain-masked targets were filtered at push (loop prevention).
            debug_assert!(!label.via_attacker || scratch[node].chain_epoch != epoch);
            scratch[node].adopted_epoch = epoch;
            best.set(
                node,
                Some(NodeRoute {
                    class: label.class,
                    len: label.len,
                    parent: Some(label.parent as usize),
                    via_attacker: label.via_attacker,
                }),
            );
            // The attacker itself never reaches this point: its entry is
            // pre-set (full pass) or chain-masked (delta), so its pinned
            // route is never re-exported — only the pre-seeded exports are.
            debug_assert!(attack.is_none_or(|a| a.m_idx != node));
            self.export_from::<false, P>(
                spec,
                csr,
                &pad,
                node,
                label.class,
                label.len,
                label.via_attacker,
                queue,
                scratch,
                &[],
                epoch,
                policy,
                facts,
            );
        }

        best
    }

    /// The delta attacked pass described in the module docs: starts from the
    /// clean equilibrium, seeds only the attacker's modified exports, and
    /// relaxes the malicious frontier outward — the frontier dies wherever
    /// the clean label wins, and untouched nodes keep their clean route
    /// verbatim.
    ///
    /// Requires [`AttackSeed::delta_applicable`]. Returns `None` when the
    /// non-monotone corner is detected (an adoption that [`worsened`] the
    /// route it replaced); the caller must then run the full pass. Otherwise the
    /// returned pass is bit-identical to [`propagate`](Self::propagate) with
    /// the same seed.
    fn propagate_delta(
        &self,
        spec: &DestinationSpec,
        v_idx: usize,
        ws: &mut RouteWorkspace,
        att: &AttackSeed,
        clean: &Pass,
        keys: &[u128],
    ) -> Option<Pass> {
        // Only a NOOP policy is delta-applicable, so the hook is compiled out.
        let (policy, facts) = (&NoDefense, &AttackFacts::default());
        let n = self.graph.len();
        let csr = self.graph.csr();
        let pad = self.pad_table(spec);
        ws.begin_pass(n, &att.chain);

        let RouteWorkspace {
            queue,
            scratch,
            epoch,
            ..
        } = ws;
        let (scratch, epoch) = (&mut scratch[..], *epoch);
        queue.clear();

        let mut attacked: Pass = clean.clone();
        attacked.set(att.m_idx, Some(att.pinned));
        scratch[att.m_idx].adopted_epoch = epoch;
        let mut frontier = 0u64;

        self.seed_attacker_exports::<true, NoDefense>(
            spec, csr, &pad, att, v_idx, queue, scratch, keys, epoch, policy, facts,
        );

        while let Some(label) = queue.pop() {
            debug_assert!(label.via_attacker, "the delta frontier is all-malicious");
            let node = label.node as usize;
            let s = &mut scratch[node];
            if s.adopted_epoch == epoch {
                // Already adopted a more preferred malicious label.
                continue;
            }
            debug_assert!(s.chain_epoch != epoch, "filtered at push");
            // The push-time filter dropped strictly-losing offers, but
            // re-ranking here is what makes adoption (and the fallback
            // check) robust: on a tie the malicious offer wins — equal keys
            // share the parent, whose clean export this label replaced —
            // and every adoption must pass the `worsened` probe or the
            // whole delta attempt is void. (`PACKED_NO_CLEAN` keys pass
            // both checks: they rank last and their length is `u32::MAX`.)
            let clean_key = keys[node];
            if clean_key < pack_pref(label.class, label.len, label.tie_key) {
                continue;
            }
            if clean_key != PACKED_NO_CLEAN && worsened(spec.tie, label.len, packed_len(clean_key))
            {
                return None;
            }
            s.adopted_epoch = epoch;
            frontier += 1;
            attacked.set(
                node,
                Some(NodeRoute {
                    class: label.class,
                    len: label.len,
                    parent: Some(label.parent as usize),
                    via_attacker: true,
                }),
            );
            self.export_from::<true, NoDefense>(
                spec,
                csr,
                &pad,
                node,
                label.class,
                label.len,
                true,
                queue,
                scratch,
                keys,
                epoch,
                policy,
                facts,
            );
        }

        counters::add(Counter::DeltaFrontierNode, frontier);
        Some(attacked)
    }

    /// Seeds the attacker's modified exports into `queue` — shared verbatim
    /// by the full and delta attacked passes (modulo their `skip` filters,
    /// which only ever drop labels the pop loop would discard).
    #[allow(clippy::too_many_arguments)]
    fn seed_attacker_exports<const DELTA: bool, P: DefensePolicy>(
        &self,
        spec: &DestinationSpec,
        csr: &CsrIndex,
        pad: &[Option<&PrependingPolicy>],
        att: &AttackSeed,
        v_idx: usize,
        queue: &mut BucketQueue,
        scratch: &mut [NodeScratch],
        keys: &[u128],
        epoch: u32,
        policy: &P,
        facts: &AttackFacts,
    ) {
        let m_asn = csr.asn_at(att.m_idx);
        let pad_policy = pad.get(att.m_idx).copied().flatten();
        let tie_key = tie_key_for(spec.tie, true, m_asn);
        for &entry in csr.neighbors(att.m_idx) {
            let x_idx = entry.node() as usize;
            let rel_of_x = entry.rel();
            if x_idx == v_idx {
                continue;
            }
            let allowed = match att.mode {
                ExportMode::ViolateValleyFree => true,
                ExportMode::Compliant => match rel_of_x {
                    Relationship::Customer | Relationship::Sibling | Relationship::Peer => true,
                    Relationship::Provider => att.clean_class.may_export_to(rel_of_x),
                },
            };
            if !allowed {
                continue;
            }
            let class = class_at_receiver(att.clean_class, rel_of_x);
            let len =
                att.base_len + 1 + pad_policy.map_or(0, |p| p.extra_for(csr.asn_at(x_idx))) as u32;
            offer::<DELTA, true, P>(
                queue,
                &mut scratch[x_idx],
                keys,
                epoch,
                class,
                len,
                tie_key,
                att.m_idx as u32,
                x_idx as u32,
                policy,
                facts,
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn export_from<const DELTA: bool, P: DefensePolicy>(
        &self,
        spec: &DestinationSpec,
        csr: &CsrIndex,
        pad: &[Option<&PrependingPolicy>],
        node: usize,
        class: RouteClass,
        len: u32,
        via_attacker: bool,
        queue: &mut BucketQueue,
        scratch: &mut [NodeScratch],
        keys: &[u128],
        epoch: u32,
        policy: &P,
        facts: &AttackFacts,
    ) {
        let node_asn = csr.asn_at(node);
        let pad_policy = pad.get(node).copied().flatten();
        let tie_key = tie_key_for(spec.tie, via_attacker, node_asn);
        let row = export_row(class);
        for &entry in csr.neighbors(node) {
            let x_idx = entry.node() as usize;
            let Some(receiver_class) = row[entry.rel() as usize] else {
                continue;
            };
            let weight = 1 + pad_policy.map_or(0, |p| p.extra_for(csr.asn_at(x_idx))) as u32;
            if via_attacker {
                offer::<DELTA, true, P>(
                    queue,
                    &mut scratch[x_idx],
                    keys,
                    epoch,
                    receiver_class,
                    len + weight,
                    tie_key,
                    node as u32,
                    x_idx as u32,
                    policy,
                    facts,
                );
            } else {
                offer::<DELTA, false, P>(
                    queue,
                    &mut scratch[x_idx],
                    keys,
                    epoch,
                    receiver_class,
                    len + weight,
                    tie_key,
                    node as u32,
                    x_idx as u32,
                    policy,
                    facts,
                );
            }
        }
    }
}

/// One valley-free export table row: the class a route of class `class`
/// acquires at a receiver related by `rel` (indexed by `rel as usize`), or
/// `None` where export is forbidden. Hoists the per-edge permission and
/// class matches out of the edge loop.
pub(crate) fn export_row(class: RouteClass) -> [Option<RouteClass>; 4] {
    let mut row = [None; 4];
    for rel in [
        Relationship::Customer,
        Relationship::Provider,
        Relationship::Peer,
        Relationship::Sibling,
    ] {
        if class.may_export_to(rel) {
            row[rel as usize] = Some(class_at_receiver(class, rel));
        }
    }
    row
}

/// The shared push-time filter of both propagation passes: drops offers to
/// settled, on-chain (when `VIA`) or — in the delta pass — clean-dominated
/// targets (ranked against `keys`, the packed clean-key table; unused and
/// empty when `DELTA` is false), then applies the lazy decrease-key (an
/// offer that does not beat the best one already queued for its node is
/// redundant: the better offer pops first and settles the node the same
/// way). The mutable state it reads lives in the target's single
/// [`NodeScratch`] entry.
///
/// When `VIA` (an attacker-derived offer) and the policy is not the
/// compile-time [`NoDefense`] no-op, the receiver's [`DefensePolicy`] is
/// consulted before anything else is recorded: a rejected offer vanishes as
/// if the export never happened — it neither queues nor clobbers the lazy
/// decrease-key rank. The `!P::NOOP` guard is a constant, so the default
/// monomorphization compiles to the exact pre-policy hot path.
#[allow(clippy::too_many_arguments)]
fn offer<const DELTA: bool, const VIA: bool, P: DefensePolicy>(
    queue: &mut BucketQueue,
    s: &mut NodeScratch,
    keys: &[u128],
    epoch: u32,
    class: RouteClass,
    len: u32,
    tie_key: (u8, u32),
    parent: u32,
    node: u32,
    policy: &P,
    facts: &AttackFacts,
) {
    if s.adopted_epoch == epoch || (VIA && s.chain_epoch == epoch) {
        return;
    }
    if VIA && !P::NOOP && !policy.accepts_attacker_route(node as usize, class, facts) {
        return;
    }
    let pref = pack_pref(class, len, tie_key);
    if DELTA && keys[node as usize] < pref {
        return;
    }
    // `offer_rank` is the packed preference key extended by the remaining
    // `Ord` fields, so it can be derived instead of re-packed.
    let rank = (pref << 33) | ((parent as u128) << 1) | u128::from(VIA);
    if s.offer_epoch == epoch && s.offer_rank <= rank {
        counters::incr(Counter::FilterDrop);
        return;
    }
    s.offer_epoch = epoch;
    s.offer_rank = rank;
    queue.push(class, len, pack_bucket_rank(tie_key, node, parent, VIA));
}

/// The class a route acquires at the receiver when exported over a link
/// where the receiver sees the exporter as `rel_of_receiver_from_exporter`
/// reversed. Sibling links inherit the exporter's class (same
/// administration), with `Origin` degrading to `FromCustomer`.
pub(crate) fn class_at_receiver(
    exporter_class: RouteClass,
    rel_of_receiver: Relationship,
) -> RouteClass {
    match rel_of_receiver {
        Relationship::Sibling => match exporter_class {
            RouteClass::Origin => RouteClass::FromCustomer,
            other => other,
        },
        other => RouteClass::from_neighbor(other.reverse()),
    }
}

struct AttackSeed {
    m_idx: usize,
    base_len: u32,
    clean_class: RouteClass,
    mode: ExportMode,
    pinned: NodeRoute,
    chain: Vec<usize>,
    /// Whether every chain node but the (pinned) attacker has its clean
    /// parent on the chain too.
    chain_parent_closed: bool,
}

impl AttackSeed {
    /// The single gate of delta re-convergence (proof sketch in DESIGN.md).
    /// Its frontier pruning is sound iff every clean export the attack
    /// invalidates is *replaced* by a malicious label that ranks no worse:
    ///
    /// * **replacement guarantee** — no import filter (`P::NOOP`): a deployer
    ///   rejecting its clean parent's now-malicious offer would be left
    ///   holding a route the parent no longer exports;
    /// * **parent-closed chain** — every node that rejects malicious labels
    ///   (loop prevention) has a clean parent that rejects them too, so no
    ///   chain node's clean route is withdrawn under it;
    /// * **monotone lengths** — the attacker's own seed does not lengthen
    ///   the exports it replaces (each later adoption is probed with the same
    ///   [`worsened`] test inside the pass, which aborts to the full pass).
    fn delta_applicable<P: DefensePolicy>(&self, tie: TieBreak) -> bool {
        P::NOOP && self.chain_parent_closed && !worsened(tie, self.base_len, self.pinned.len)
    }
}

/// Whether replacing a clean export of length `clean_len` by a malicious one
/// of length `new_len` worsens it for the receivers: iff it grew — or, under
/// [`TieBreak::PreferClean`], failed to shrink, because the flipped
/// via-attacker tie bit alone ranks it lower.
fn worsened(tie: TieBreak, new_len: u32, clean_len: u32) -> bool {
    match tie {
        TieBreak::PreferClean => new_len >= clean_len,
        TieBreak::LowestNeighborAsn | TieBreak::PreferAttacker => new_len > clean_len,
    }
}

/// Heap label; ordered so that `BinaryHeap<Reverse<Label>>` pops the most
/// preferred label first, with the tie-break encoded in `tie_key`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Label {
    class: RouteClass,
    len: u32,
    tie_key: (u8, u32),
    // Fields below do not participate in preference but keep Ord total.
    // Node indices are u32 (the CSR index is u32-wide) to keep the label at
    // 24 bytes — bucket sorting moves these around a lot.
    parent_asn_order: u32,
    node: u32,
    parent: u32,
    via_attacker: bool,
}

/// The tie-break component of a label's preference key. Factored out so the
/// delta pass ranks a clean [`NodeRoute`] with exactly the key the export
/// path ([`offer`]) would have built for it.
pub(crate) fn tie_key_for(tie: TieBreak, via_attacker: bool, parent_asn: Asn) -> (u8, u32) {
    match tie {
        TieBreak::LowestNeighborAsn => (0, parent_asn.value()),
        TieBreak::PreferClean => (u8::from(via_attacker), parent_asn.value()),
        TieBreak::PreferAttacker => (u8::from(!via_attacker), parent_asn.value()),
    }
}

/// The full `Ord` key of a label packed into one integer, minus `class` and
/// `len` — the two bucket coordinates, constant within a bucket.
/// (`parent_asn_order` always equals `tie_key.1`, so it packs once.)
/// Sorting by this integer reproduces the derived [`Label`] order exactly;
/// [`BucketQueue::unpack`] is its inverse given the bucket coordinates.
fn pack_bucket_rank(tie_key: (u8, u32), node: u32, parent: u32, via_attacker: bool) -> u128 {
    ((tie_key.0 as u128) << 97)
        | ((tie_key.1 as u128) << 65)
        | ((node as u128) << 33)
        | ((parent as u128) << 1)
        | u128::from(via_attacker)
}

/// Walks the parent chain of `idx` (inclusive) back to the source.
pub(crate) fn chain_of(pass: &Pass, idx: usize) -> Vec<usize> {
    let mut chain = vec![idx];
    let mut current = idx;
    while let Some(route) = pass.get(current) {
        match route.parent {
            Some(p) => {
                chain.push(p);
                current = p;
            }
            None => break,
        }
    }
    chain
}

/// Reconstructs the path stored in `idx`'s RIB (not including `idx` itself)
/// for the given pass, appending its hops to `arena` in wire order
/// (most-recent-first). `attack_base` supplies the attacker's stripped base
/// path when reconstructing attacked routes.
///
/// Walking the parent chain from `idx` toward the source visits export
/// steps `u -> w` from the receiver outward — exactly wire order when each
/// step's `1 + extra(u, w)` copies of `u` are pushed at the back, with the
/// attacker's base path (the hops "behind" the attacker) appended last. One
/// O(len) pass, no chain buffer, no front insertion.
fn reconstruct_into(
    graph: &AsGraph,
    spec: &DestinationSpec,
    pass: &Pass,
    attack_base: Option<(usize, &AsPath)>,
    idx: usize,
    arena: &mut PathArena,
) -> Option<PathRange> {
    pass.get(idx)?;
    let start = arena.begin();
    // Follow parents, stopping at the attacker: its pinned parent chain
    // belongs to the *clean* route, while everything it exported in the
    // attacked pass carries the stripped base path instead.
    let mut w = idx;
    loop {
        if attack_base.is_some_and(|(m, _)| w == m) {
            break;
        }
        let Some(u) = pass.get(w).and_then(|r| r.parent) else {
            break;
        };
        let u_asn = graph.asn_at(u);
        let copies = if attack_base.is_some_and(|(m, _)| u == m) {
            // The attacker prepends itself exactly once.
            1
        } else {
            1 + spec.prepend.extra_for(u_asn, graph.asn_at(w))
        };
        arena.push_n(u_asn, copies);
        w = u;
    }
    if let Some((m_idx, m_base)) = attack_base {
        if w == m_idx {
            arena.extend(m_base.hops());
        }
    }
    Some(arena.finish(start))
}

/// [`reconstruct_into`] materialized as an owned [`AsPath`] — the one-shot
/// boundary form used by per-AS accessors.
fn reconstruct_received(
    graph: &AsGraph,
    spec: &DestinationSpec,
    pass: &Pass,
    attack_base: Option<(usize, &AsPath)>,
    idx: usize,
) -> Option<AsPath> {
    let mut arena = PathArena::new();
    let range = reconstruct_into(graph, spec, pass, attack_base, idx, &mut arena)?;
    Some(arena.to_path(range))
}

/// The result of [`RoutingEngine::compute`]: the clean equilibrium and, when
/// an attacker was configured and connected, the attacked equilibrium.
#[derive(Clone, Debug)]
pub struct RoutingOutcome<'g> {
    spec: DestinationSpec,
    v_idx: usize,
    m_idx: Option<usize>,
    /// Shared with the workspace's clean-pass cache: a cache hit bumps the
    /// refcount instead of cloning the route table.
    clean: Arc<Pass>,
    attacked: Option<Pass>,
    /// The base path the attacker claimed (without the attacker itself), as
    /// built beside the attacked pass; `Some` exactly when `attacked` is.
    base_path: Option<AsPath>,
    graph: &'g AsGraph,
}

impl RoutingOutcome<'_> {
    /// The destination spec this outcome was computed for.
    #[must_use]
    pub fn spec(&self) -> &DestinationSpec {
        &self.spec
    }

    /// The victim AS.
    #[must_use]
    pub fn victim(&self) -> Asn {
        self.spec.victim()
    }

    /// The attacker AS, when an attack was simulated.
    #[must_use]
    pub fn attacker(&self) -> Option<Asn> {
        self.attacked.as_ref()?;
        self.m_idx.map(|i| self.graph.asn_at(i))
    }

    /// Returns `true` if the attacked equilibrium was computed.
    #[must_use]
    pub fn has_attack(&self) -> bool {
        self.attacked.is_some()
    }

    fn pass(&self) -> &Pass {
        self.attacked.as_ref().map_or(&self.clean, |p| p)
    }

    /// The topology this outcome was computed over.
    #[must_use]
    pub fn graph(&self) -> &AsGraph {
        self.graph
    }

    pub(crate) fn clean_pass_ref(&self) -> &Pass {
        &self.clean
    }

    pub(crate) fn attacked_pass_ref(&self) -> Option<&Pass> {
        self.attacked.as_ref()
    }

    pub(crate) fn victim_index(&self) -> usize {
        self.v_idx
    }

    pub(crate) fn attacker_index(&self) -> Option<usize> {
        self.m_idx
    }

    /// Overwrites `asn`'s route in the *final* pass (attacked if an attack
    /// ran, clean otherwise) without any consistency checking.
    ///
    /// This deliberately breaks the outcome: it exists so tests — the
    /// auditor's own negative tests and the dataplane's loop-guard test —
    /// can build corrupted equilibria that a correct engine never produces.
    /// Hidden from docs; never call it outside a test.
    ///
    /// # Panics
    ///
    /// Panics if `asn` (or the route's next hop) is not in the graph.
    #[doc(hidden)]
    pub fn override_route_unchecked(&mut self, asn: Asn, route: Option<RouteInfo>) {
        let idx = self
            .graph
            .index_of(asn)
            .unwrap_or_else(|| panic!("AS{asn} not in graph"));
        let node = route.map(|r| NodeRoute {
            class: r.class,
            len: r.effective_len,
            parent: r.next_hop.map(|hop| {
                self.graph
                    .index_of(hop)
                    .unwrap_or_else(|| panic!("next hop AS{hop} not in graph"))
            }),
            via_attacker: r.via_attacker,
        });
        match &mut self.attacked {
            Some(pass) => pass.set(idx, node),
            None => Arc::make_mut(&mut self.clean).set(idx, node),
        }
    }

    fn info_from(&self, pass: &Pass, asn: Asn) -> Option<RouteInfo> {
        let idx = self.graph.index_of(asn)?;
        let r = pass.get(idx)?;
        Some(RouteInfo {
            class: r.class,
            effective_len: r.len,
            next_hop: r.parent.map(|p| self.graph.asn_at(p)),
            via_attacker: r.via_attacker,
        })
    }

    /// `asn`'s best route in the final equilibrium (attacked if an attack
    /// ran, clean otherwise).
    #[must_use]
    pub fn route(&self, asn: Asn) -> Option<RouteInfo> {
        self.info_from(self.pass(), asn)
    }

    /// `asn`'s best route in the clean (pre-attack) equilibrium.
    #[must_use]
    pub fn clean_route(&self, asn: Asn) -> Option<RouteInfo> {
        self.info_from(&self.clean, asn)
    }

    /// Returns `true` if `asn` adopted the attacker's modified route.
    #[must_use]
    pub fn is_polluted(&self, asn: Asn) -> bool {
        self.route(asn).is_some_and(|r| r.via_attacker)
    }

    /// Number of ASes (excluding victim and attacker) in the evaluation.
    #[must_use]
    pub fn population(&self) -> usize {
        let mut n = self.graph.len() - 1; // minus victim
        if self.m_idx.is_some() {
            n -= 1;
        }
        n
    }

    /// Fraction of ASes (victim and attacker excluded) whose best route
    /// traverses the attacker in the attacked equilibrium — the paper's
    /// "% of paths traversing attacker, after hijack". Zero if no attack.
    #[must_use]
    pub fn polluted_fraction(&self) -> f64 {
        self.polluted_count() as f64 / self.population().max(1) as f64
    }

    /// Fraction of ASes (victim and attacker excluded) whose **clean** best
    /// path already traverses the attacker — the paper's "before hijack"
    /// baseline.
    #[must_use]
    pub fn baseline_fraction(&self) -> f64 {
        let Some(m_idx) = self.m_idx else {
            return 0.0;
        };
        // Whether i's chain passes through the attacker is its parent's
        // answer, so memoizing turns per-node chain walks into one amortized
        // O(n) sweep: walk up only until a resolved node, then unwind.
        // 0 = unresolved, 1 = misses the attacker, 2 = passes through it.
        const MISS: u8 = 1;
        const THROUGH: u8 = 2;
        let mut state = vec![0u8; self.graph.len()];
        state[m_idx] = THROUGH;
        let mut through = 0usize;
        let mut trail = Vec::new();
        for i in 0..self.graph.len() {
            if self.clean.get(i).is_none() {
                continue;
            }
            let mut cur = i;
            while state[cur] == 0 {
                trail.push(cur);
                match self.clean.get(cur).and_then(|r| r.parent) {
                    Some(p) => cur = p,
                    None => break, // hit the source without meeting the attacker
                }
            }
            let verdict = if state[cur] == 0 { MISS } else { state[cur] };
            for &n in &trail {
                state[n] = verdict;
            }
            trail.clear();
            if verdict == THROUGH && i != self.v_idx && i != m_idx {
                through += 1;
            }
        }
        through as f64 / self.population().max(1) as f64
    }

    /// The number of ASes polluted in the attacked equilibrium.
    #[must_use]
    pub fn polluted_count(&self) -> usize {
        self.attacked.as_ref().map_or(0, |attacked| {
            attacked
                .iter()
                .enumerate()
                .filter(|&(i, r)| self.pollutes(i, r))
                .count()
        })
    }

    /// Whether node `i`, holding `route` in the attacked pass, counts as
    /// polluted: it adopted the attacker's route and is neither endpoint.
    #[inline]
    fn pollutes(&self, i: usize, route: Option<NodeRoute>) -> bool {
        Some(i) != self.m_idx && i != self.v_idx && route.is_some_and(|r| r.via_attacker)
    }

    /// Hop distance from the attacker along the polluted route's propagation
    /// tree; `Some(0)` for the attacker itself, `None` for unpolluted ASes.
    /// Models update-propagation timing for the detection-latency metric.
    #[must_use]
    pub fn pollution_distance(&self, asn: Asn) -> Option<u32> {
        let attacked = self.attacked.as_ref()?;
        let m_idx = self.m_idx?;
        let idx = self.graph.index_of(asn)?;
        if idx == m_idx {
            return Some(0);
        }
        if !attacked.get(idx).is_some_and(|r| r.via_attacker) {
            return None;
        }
        let chain = chain_of(attacked, idx);
        chain.iter().position(|&c| c == m_idx).map(|p| p as u32)
    }

    /// The attacker's claimed base path (without the attacker itself), when
    /// an attack ran: `[ASn … AS1 V^keep]` for the ASPP strip, `[V]` for the
    /// forged-adjacency baseline, and the empty path for the origin hijack
    /// (the attacker claims to *be* the origin).
    #[must_use]
    pub fn attacker_base_path(&self) -> Option<AsPath> {
        self.base_path.clone()
    }

    /// The attacker's node index with its claimed base path — the
    /// `attack_base` of [`reconstruct_into`] for the attacked pass.
    fn attack_base(&self) -> Option<(usize, &AsPath)> {
        self.m_idx.zip(self.base_path.as_ref())
    }

    /// The AS path `asn` would announce to a route collector in the final
    /// equilibrium: its own ASN prepended once to its RIB path. This is what
    /// the paper's monitors (RouteViews/RIPE peers) observe.
    #[must_use]
    pub fn observed_path(&self, asn: Asn) -> Option<AsPath> {
        self.observed_in(self.attacked.is_some(), asn)
    }

    /// Like [`observed_path`](Self::observed_path) but for the clean
    /// equilibrium — the monitors' view *before* the attack.
    #[must_use]
    pub fn clean_observed_path(&self, asn: Asn) -> Option<AsPath> {
        self.observed_in(false, asn)
    }

    fn observed_in(&self, attacked: bool, asn: Asn) -> Option<AsPath> {
        let idx = self.graph.index_of(asn)?;
        let (pass, base) = if attacked {
            (self.attacked.as_ref()?, self.attack_base())
        } else {
            (&*self.clean, None)
        };
        let received = reconstruct_received(self.graph, &self.spec, pass, base, idx)?;
        Some(received.prepended(asn))
    }

    /// Returns `true` if `asn`'s announced path differs between the clean
    /// and attacked equilibria — the observable event a route monitor can
    /// react to. Always `false` without an attack.
    #[must_use]
    pub fn route_changed(&self, asn: Asn) -> bool {
        self.attacked.is_some() && self.observed_path(asn) != self.clean_observed_path(asn)
    }

    /// Number of ASes whose announced path visibly changed under the attack.
    ///
    /// Every observed path is its received path with the AS's own ASN
    /// prepended, so comparing received paths suffices; both are built into
    /// one reusable [`PathArena`] and compared as slices — the whole sweep
    /// allocates two buffers total instead of two `AsPath`s per AS.
    #[must_use]
    pub fn changed_count(&self) -> usize {
        let Some(attacked) = &self.attacked else {
            return 0;
        };
        let base_ref = self.attack_base();
        let mut arena = PathArena::new();
        let mut changed = 0usize;
        for i in 0..self.graph.len() {
            arena.clear();
            let att = reconstruct_into(self.graph, &self.spec, attacked, base_ref, i, &mut arena);
            let cln = reconstruct_into(self.graph, &self.spec, &self.clean, None, i, &mut arena);
            let differs = match (att, cln) {
                (Some(a), Some(c)) => arena.slice(a) != arena.slice(c),
                (None, None) => false,
                _ => true,
            };
            if differs {
                changed += 1;
            }
        }
        changed
    }

    /// Iterates over every AS in the underlying topology.
    pub fn asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.graph.asns()
    }

    /// Iterates over all polluted ASNs.
    pub fn polluted_asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.attacked.iter().flat_map(move |attacked| {
            attacked
                .iter()
                .enumerate()
                .filter(move |&(i, r)| self.pollutes(i, r))
                .map(move |(i, _)| self.graph.asn_at(i))
        })
    }
}

/// Shared fixtures for this crate's tests (the Figure 1 topology).
#[cfg(test)]
pub(crate) mod tests_support {
    use aspp_topology::AsGraph;
    use aspp_types::well_known;

    /// The paper's Figure 1 topology, simplified:
    ///
    /// ```text
    ///   7018(AT&T) -peer- 3356(Level3) -provider-> 32934(Facebook)
    ///   7018 -peer- 4134(ChinaTel) -provider-> 9318(KoreaTel) -provider-> 32934
    ///   2914(NTT) -peer- 7018, 2914 -peer- 4134, 2914 -peer- 3356
    /// ```
    pub(crate) fn facebook_graph() -> AsGraph {
        use well_known::*;
        let mut g = AsGraph::new();
        g.add_peering(ATT, LEVEL3).unwrap();
        g.add_peering(ATT, CHINA_TELECOM).unwrap();
        g.add_peering(NTT, ATT).unwrap();
        g.add_peering(NTT, CHINA_TELECOM).unwrap();
        g.add_peering(NTT, LEVEL3).unwrap();
        g.add_provider_customer(CHINA_TELECOM, KOREA_TELECOM)
            .unwrap();
        g.add_provider_customer(LEVEL3, FACEBOOK).unwrap();
        g.add_provider_customer(KOREA_TELECOM, FACEBOOK).unwrap();
        g.sort_neighbors();
        g
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::facebook_graph;
    use super::*;
    use aspp_topology::gen::InternetConfig;
    use aspp_types::well_known;

    #[test]
    fn clean_routes_reach_everyone() {
        use well_known::*;
        let g = facebook_graph();
        let engine = RoutingEngine::new(&g);
        let outcome = engine.compute(&DestinationSpec::new(FACEBOOK).origin_padding(5));
        for asn in g.asns() {
            assert!(outcome.route(asn).is_some(), "AS{asn} has no route");
        }
        // AT&T reaches Facebook via Level3 (peer), with 5 origin copies:
        // observed path "7018 3356 32934 x5" = 7 hops.
        let att_path = outcome.observed_path(ATT).unwrap();
        assert_eq!(
            att_path.to_string(),
            "7018 3356 32934 32934 32934 32934 32934"
        );
        assert_eq!(att_path.origin_padding(), 5);
    }

    #[test]
    fn facebook_anomaly_reproduced() {
        use well_known::*;
        let g = facebook_graph();
        let engine = RoutingEngine::new(&g);
        // Korea Telecom strips Facebook's padding down to 3 copies.
        let spec = DestinationSpec::new(FACEBOOK)
            .origin_padding(5)
            .attacker(AttackerModel::new(KOREA_TELECOM).keep(3));
        let outcome = engine.compute(&spec);
        assert!(outcome.has_attack());

        // China Telecom is polluted: [4134 9318 32934 32934 32934].
        let ct = outcome.observed_path(CHINA_TELECOM).unwrap();
        assert_eq!(ct.to_string(), "4134 9318 32934 32934 32934");

        // AT&T switches to the anomalous route via China:
        // [7018 4134 9318 32934 32934 32934] — exactly the paper's Table.
        let att = outcome.observed_path(ATT).unwrap();
        assert_eq!(att.to_string(), "7018 4134 9318 32934 32934 32934");
        assert!(outcome.is_polluted(ATT));

        // NTT too: [2914 4134 9318 32934 32934 32934].
        let ntt = outcome.observed_path(NTT).unwrap();
        assert_eq!(ntt.to_string(), "2914 4134 9318 32934 32934 32934");
    }

    #[test]
    fn valley_free_blocks_peer_reexport() {
        // V - p1(provider), p1 -peer- p2, p2 -peer- p3. p3 must NOT learn a
        // route (peer routes don't propagate to peers) unless via providers.
        let mut g = AsGraph::new();
        g.add_provider_customer(Asn(10), Asn(1)).unwrap();
        g.add_peering(Asn(10), Asn(20)).unwrap();
        g.add_peering(Asn(20), Asn(30)).unwrap();
        g.sort_neighbors();
        let engine = RoutingEngine::new(&g);
        let outcome = engine.compute(&DestinationSpec::new(Asn(1)));
        assert!(outcome.route(Asn(10)).is_some());
        assert!(outcome.route(Asn(20)).is_some());
        assert_eq!(
            outcome.route(Asn(30)),
            None,
            "peer-learned route must not flow to another peer"
        );
    }

    #[test]
    fn customer_route_preferred_over_shorter_peer_route() {
        // X has a long customer path and a short peer path to V; policy wins.
        let mut g = AsGraph::new();
        let (v, x) = (Asn(1), Asn(100));
        // Customer chain: x -> c1 -> c2 -> v (x provides c1, etc.)
        g.add_provider_customer(x, Asn(11)).unwrap();
        g.add_provider_customer(Asn(11), Asn(12)).unwrap();
        g.add_provider_customer(Asn(12), v).unwrap();
        // Short peer path: x -peer- p, p provides v.
        g.add_peering(x, Asn(50)).unwrap();
        g.add_provider_customer(Asn(50), v).unwrap();
        g.sort_neighbors();
        let outcome = RoutingEngine::new(&g).compute(&DestinationSpec::new(v));
        let route = outcome.route(x).unwrap();
        assert_eq!(route.class, RouteClass::FromCustomer);
        assert_eq!(route.next_hop, Some(Asn(11)));
        assert_eq!(route.effective_len, 3);
    }

    #[test]
    fn prepending_diverts_route_selection() {
        // V multi-homed to providers 10 and 20; X above both. Padding toward
        // 10 pushes X's route through 20.
        let mut g = AsGraph::new();
        let (v, x) = (Asn(1), Asn(99));
        g.add_provider_customer(Asn(10), v).unwrap();
        g.add_provider_customer(Asn(20), v).unwrap();
        g.add_provider_customer(x, Asn(10)).unwrap();
        g.add_provider_customer(x, Asn(20)).unwrap();
        g.sort_neighbors();
        let engine = RoutingEngine::new(&g);

        // No padding: tie broken by lowest neighbor ASN -> via 10.
        let outcome = engine.compute(&DestinationSpec::new(v));
        assert_eq!(outcome.route(x).unwrap().next_hop, Some(Asn(10)));

        // Pad the announcement toward 10 only.
        let mut config = PrependConfig::new();
        config.set(v, PrependingPolicy::per_neighbor(0, [(Asn(10), 3)]));
        let outcome = engine.compute(&DestinationSpec::new(v).prepend_config(config));
        assert_eq!(outcome.route(x).unwrap().next_hop, Some(Asn(20)));
        // And the observed path shows the padding on the loser side only.
        assert_eq!(outcome.observed_path(x).unwrap().to_string(), "99 20 1");
    }

    #[test]
    fn observed_len_matches_effective_len() {
        let g = InternetConfig::small().seed(21).build();
        let engine = RoutingEngine::new(&g);
        let spec = DestinationSpec::new(Asn(20_005)).origin_padding(4);
        let outcome = engine.compute(&spec);
        for asn in g.asns() {
            if asn == Asn(20_005) {
                continue;
            }
            let info = outcome.route(asn).unwrap();
            let path = outcome.observed_path(asn).unwrap();
            assert_eq!(
                path.len() as u32,
                info.effective_len + 1,
                "AS{asn}: observed {path} vs len {}",
                info.effective_len
            );
            assert_eq!(path.origin(), Some(Asn(20_005)));
            assert!(!path.has_loop(), "AS{asn} path {path} has a loop");
        }
    }

    #[test]
    fn paths_are_valley_free() {
        let g = InternetConfig::small().seed(22).build();
        let engine = RoutingEngine::new(&g);
        let outcome = engine.compute(&DestinationSpec::new(Asn(20_000)).origin_padding(2));
        for asn in g.asns() {
            let Some(path) = outcome.observed_path(asn) else {
                continue;
            };
            assert_valley_free(&g, &path);
        }
    }

    /// Checks the Customer-Provider* Peer-Peer? Provider-Customer* shape in
    /// travel order (origin first).
    fn assert_valley_free(g: &AsGraph, path: &AsPath) {
        let mut travel = path.collapsed();
        travel.reverse();
        // Phases: 0 = climbing (c2p), 1 = after peer, 2 = descending.
        let mut phase = 0;
        for w in travel.windows(2) {
            let rel = g
                .relationship(w[0], w[1])
                .unwrap_or_else(|| panic!("no link {} {} in path {path}", w[0], w[1]));
            match rel {
                Relationship::Provider | Relationship::Sibling => {
                    assert_eq!(phase, 0, "uphill after peak in {path}");
                }
                Relationship::Peer => {
                    assert!(phase == 0, "second peer edge in {path}");
                    phase = 1;
                }
                Relationship::Customer => {
                    phase = 2;
                }
            }
        }
    }

    #[test]
    fn attack_strips_padding_and_pollutes() {
        use well_known::*;
        let g = facebook_graph();
        let engine = RoutingEngine::new(&g);
        let spec = DestinationSpec::new(FACEBOOK)
            .origin_padding(5)
            .attacker(AttackerModel::new(KOREA_TELECOM));
        let outcome = engine.compute(&spec);
        let base = outcome.attacker_base_path().unwrap();
        assert_eq!(
            base.to_string(),
            "32934",
            "stripped to a single origin copy"
        );
        assert!(outcome.polluted_fraction() > 0.0);
        assert!(outcome.baseline_fraction() < outcome.polluted_fraction());
        // The victim itself is never polluted.
        assert!(!outcome.is_polluted(FACEBOOK));
        // The attacker keeps its clean route.
        assert!(!outcome.route(KOREA_TELECOM).unwrap().via_attacker);
    }

    #[test]
    fn no_padding_means_nothing_to_strip() {
        use well_known::*;
        let g = facebook_graph();
        let engine = RoutingEngine::new(&g);
        let spec = DestinationSpec::new(FACEBOOK)
            .origin_padding(1)
            .attacker(AttackerModel::new(KOREA_TELECOM));
        let outcome = engine.compute(&spec);
        // The "modified" route is no shorter than the real one; pollution can
        // only come from ties, and AT&T's real route via Level3 (peer, len 2)
        // beats the attacker route (peer, len 3).
        assert!(!outcome.is_polluted(ATT));
    }

    #[test]
    fn compliant_attacker_cannot_export_provider_route_uphill() {
        // V(1) and M(30) both customers of shared provider chains; M learns
        // the route from its provider and must not re-export to its other
        // provider when compliant — but may when violating.
        let mut g = AsGraph::new();
        let (v, m) = (Asn(1), Asn(30));
        g.add_provider_customer(Asn(10), v).unwrap();
        g.add_provider_customer(Asn(10), m).unwrap();
        g.add_provider_customer(Asn(20), m).unwrap();
        g.add_provider_customer(Asn(11), Asn(20)).unwrap(); // 20's provider 11
        g.add_peering(Asn(11), Asn(10)).unwrap();
        g.sort_neighbors();
        let engine = RoutingEngine::new(&g);

        let spec = DestinationSpec::new(v)
            .origin_padding(4)
            .attacker(AttackerModel::new(m));
        let outcome = engine.compute(&spec);
        assert!(
            !outcome.is_polluted(Asn(20)),
            "compliant attacker must not announce provider-learned route to provider 20"
        );

        let spec = DestinationSpec::new(v)
            .origin_padding(4)
            .attacker(AttackerModel::new(m).mode(ExportMode::ViolateValleyFree));
        let outcome = engine.compute(&spec);
        assert!(
            outcome.is_polluted(Asn(20)),
            "violating attacker reaches its provider"
        );
        // And it spreads: 20's provider 11 prefers the customer route via 20.
        assert!(outcome.is_polluted(Asn(11)));
    }

    #[test]
    fn chain_nodes_reject_looped_attack_routes() {
        // Line: V(1) <- A(2) <- B(3) <- M(4), victim pads heavily. The
        // stripped route through M claims [M B A V]; A and B must ignore it.
        let mut g = AsGraph::new();
        g.add_provider_customer(Asn(2), Asn(1)).unwrap();
        g.add_provider_customer(Asn(3), Asn(2)).unwrap();
        g.add_provider_customer(Asn(4), Asn(3)).unwrap();
        g.sort_neighbors();
        let spec = DestinationSpec::new(Asn(1))
            .origin_padding(8)
            .attacker(AttackerModel::new(Asn(4)));
        let outcome = RoutingEngine::new(&g).compute(&spec);
        assert!(!outcome.is_polluted(Asn(2)));
        assert!(!outcome.is_polluted(Asn(3)));
        assert_eq!(outcome.polluted_count(), 0);
    }

    #[test]
    fn pollution_distance_counts_hops_from_attacker() {
        use well_known::*;
        let g = facebook_graph();
        let spec = DestinationSpec::new(FACEBOOK)
            .origin_padding(5)
            .attacker(AttackerModel::new(KOREA_TELECOM));
        let outcome = RoutingEngine::new(&g).compute(&spec);
        assert_eq!(outcome.pollution_distance(KOREA_TELECOM), Some(0));
        assert_eq!(outcome.pollution_distance(CHINA_TELECOM), Some(1));
        assert_eq!(outcome.pollution_distance(ATT), Some(2));
        assert_eq!(outcome.pollution_distance(FACEBOOK), None);
    }

    #[test]
    fn more_padding_more_pollution() {
        let g = InternetConfig::small().seed(23).build();
        let engine = RoutingEngine::new(&g);
        let victim = Asn(1_000);
        let attacker = Asn(1_001);
        let mut last = 0.0;
        for padding in 1..=6 {
            let spec = DestinationSpec::new(victim)
                .origin_padding(padding)
                .attacker(AttackerModel::new(attacker));
            let outcome = engine.compute(&spec);
            let f = outcome.polluted_fraction();
            assert!(
                f >= last - 1e-9,
                "pollution should not decrease with padding: {f} < {last} at λ={padding}"
            );
            last = f;
        }
        assert!(last > 0.0, "some pollution with heavy padding");
    }

    #[test]
    #[should_panic(expected = "victim AS999999 not in graph")]
    fn unknown_victim_panics() {
        let g = facebook_graph();
        let _ = RoutingEngine::new(&g).compute(&DestinationSpec::new(Asn(999_999)));
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn attacker_equals_victim_panics() {
        let g = facebook_graph();
        let spec = DestinationSpec::new(well_known::FACEBOOK)
            .attacker(AttackerModel::new(well_known::FACEBOOK));
        let _ = RoutingEngine::new(&g).compute(&spec);
    }

    #[test]
    fn disconnected_attacker_yields_clean_outcome() {
        let mut g = facebook_graph();
        g.add_as(Asn(77_777)); // isolated AS
        let spec = DestinationSpec::new(well_known::FACEBOOK)
            .origin_padding(4)
            .attacker(AttackerModel::new(Asn(77_777)));
        let outcome = RoutingEngine::new(&g).compute(&spec);
        assert!(!outcome.has_attack());
        assert_eq!(outcome.polluted_fraction(), 0.0);
        assert_eq!(outcome.attacker(), None);
    }

    #[test]
    fn forge_direct_baseline_claims_adjacency() {
        use well_known::*;
        let g = facebook_graph();
        let spec = DestinationSpec::new(FACEBOOK)
            .origin_padding(5)
            .attacker(AttackerModel::new(ATT).strategy(AttackStrategy::ForgeDirect));
        let outcome = RoutingEngine::new(&g).compute(&spec);
        assert_eq!(outcome.attacker_base_path().unwrap().to_string(), "32934");
        // NTT adopts the forged 2-hop route over its legit 7-hop one.
        assert!(outcome.is_polluted(NTT));
        let ntt = outcome.observed_path(NTT).unwrap();
        assert_eq!(ntt.to_string(), "2914 7018 32934");
        // The claimed adjacency 7018-32934 does not exist in the topology.
        assert_eq!(g.relationship(ATT, FACEBOOK), None);
    }

    #[test]
    fn origin_hijack_baseline_steals_the_prefix() {
        use well_known::*;
        let g = facebook_graph();
        let spec = DestinationSpec::new(FACEBOOK)
            .origin_padding(5)
            .attacker(AttackerModel::new(CHINA_TELECOM).strategy(AttackStrategy::OriginHijack));
        let outcome = RoutingEngine::new(&g).compute(&spec);
        assert!(outcome.attacker_base_path().unwrap().is_empty());
        // Polluted ASes now see CHINA_TELECOM as the origin: a MOAS conflict.
        let mut saw_moas = false;
        for asn in g.asns() {
            let path = outcome.observed_path(asn).unwrap();
            if outcome.is_polluted(asn) {
                assert_eq!(path.origin(), Some(CHINA_TELECOM), "blackholed: {path}");
                saw_moas = true;
            } else if asn != CHINA_TELECOM {
                assert_eq!(path.origin(), Some(FACEBOOK));
            }
        }
        assert!(saw_moas, "a 1-hop bogus origin must displace 7-hop routes");
    }

    #[test]
    fn strip_all_padding_collapses_intermediary_runs() {
        // Intermediary padder P between V and M: the generalized strip
        // shortens more than the origin-only strip.
        let mut g = AsGraph::new();
        let (v, p, m, x) = (Asn(1), Asn(10), Asn(20), Asn(30));
        g.add_provider_customer(p, v).unwrap();
        g.add_provider_customer(m, p).unwrap();
        g.add_provider_customer(x, m).unwrap();
        // An alternative clean route for x so there is competition.
        g.add_provider_customer(Asn(40), v).unwrap();
        g.add_provider_customer(x, Asn(40)).unwrap();
        g.sort_neighbors();

        let mut config = PrependConfig::new();
        config.set(v, PrependingPolicy::Uniform(2)); // λ = 3
        config.set(p, PrependingPolicy::Uniform(3)); // intermediary ×4

        let engine = RoutingEngine::new(&g);
        let origin_only = engine.compute(
            &DestinationSpec::new(v)
                .prepend_config(config.clone())
                .attacker(AttackerModel::new(m)),
        );
        let all = engine.compute(
            &DestinationSpec::new(v)
                .prepend_config(config)
                .attacker(AttackerModel::new(m).strategy(AttackStrategy::StripAllPadding)),
        );
        let base_origin = origin_only.attacker_base_path().unwrap();
        let base_all = all.attacker_base_path().unwrap();
        assert_eq!(base_origin.to_string(), "10 10 10 10 1");
        assert_eq!(base_all.to_string(), "10 1");
        assert!(base_all.len() < base_origin.len());
        assert!(all.polluted_fraction() >= origin_only.polluted_fraction());
    }

    #[test]
    fn aspp_strategy_keeps_real_links_and_origin() {
        use well_known::*;
        let g = facebook_graph();
        let spec = DestinationSpec::new(FACEBOOK)
            .origin_padding(5)
            .attacker(AttackerModel::new(KOREA_TELECOM));
        let outcome = RoutingEngine::new(&g).compute(&spec);
        for asn in g.asns() {
            let path = outcome.observed_path(asn).unwrap();
            // Origin unchanged everywhere…
            assert_eq!(path.origin(), Some(FACEBOOK));
            // …and every collapsed adjacency is a real link.
            for w in path.collapsed().windows(2) {
                assert!(
                    g.relationship(w[0], w[1]).is_some(),
                    "bogus link {} {} in {path}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn workspace_results_bit_identical_with_cache_hits() {
        let graph = InternetConfig::small().seed(5).build();
        let engine = RoutingEngine::new(&graph);
        let asns: Vec<Asn> = graph.asns().collect();
        let (victim, attacker) = (asns[3], asns[asns.len() - 2]);
        assert_ne!(victim, attacker);
        let mut ws = RouteWorkspace::new();
        for _round in 0..3 {
            for pad in 1..5 {
                let spec = DestinationSpec::new(victim)
                    .origin_padding(pad)
                    .attacker(AttackerModel::new(attacker));
                let fresh = engine.compute(&spec);
                let reused = engine.compute_with(&spec, &mut ws);
                for asn in graph.asns() {
                    assert_eq!(fresh.route(asn), reused.route(asn));
                    assert_eq!(fresh.observed_path(asn), reused.observed_path(asn));
                }
            }
        }
        // Four distinct (victim, padding) keys; rounds two and three hit.
        assert_eq!(ws.cache_misses(), 4);
        assert_eq!(ws.cache_hits(), 8);
    }

    #[test]
    fn workspace_cache_dropped_on_graph_mutation() {
        use well_known::*;
        let mut graph = facebook_graph();
        let mut ws = RouteWorkspace::new();
        {
            let engine = RoutingEngine::new(&graph);
            let spec = DestinationSpec::new(FACEBOOK).origin_padding(2);
            let _ = engine.compute_with(&spec, &mut ws);
            let _ = engine.compute_with(&spec, &mut ws);
            assert_eq!(ws.cache_hits(), 1);
        }
        graph.add_provider_customer(ATT, Asn(65_000)).unwrap();
        {
            let engine = RoutingEngine::new(&graph);
            let spec = DestinationSpec::new(FACEBOOK).origin_padding(2);
            let out = engine.compute_with(&spec, &mut ws);
            assert!(out.route(Asn(65_000)).is_some());
            assert_eq!(ws.cache_hits(), 1, "stale pass must not be served");
            assert_eq!(ws.cached_passes(), 1);
        }
    }

    #[test]
    fn workspace_cache_respects_capacity() {
        let g = facebook_graph();
        let engine = RoutingEngine::new(&g);
        let mut ws = RouteWorkspace::with_cache_capacity(2);
        for pad in [1usize, 2, 3, 1] {
            let spec = DestinationSpec::new(well_known::FACEBOOK).origin_padding(pad);
            let _ = engine.compute_with(&spec, &mut ws);
        }
        // LRU of capacity 2: pad=1 was evicted by pad=3, so the final pad=1
        // call misses again.
        assert_eq!(ws.cached_passes(), 2);
        assert_eq!(ws.cache_hits(), 0);
        assert_eq!(ws.cache_misses(), 4);
        ws.clear();
        assert_eq!(ws.cached_passes(), 0);
    }

    #[test]
    fn bucket_queue_pops_in_heap_order_across_the_spill_boundary() {
        let mut queue = BucketQueue::default();
        let mut heap = BinaryHeap::new();
        let mut node = 0u32;
        let mut push = |queue: &mut BucketQueue, heap: &mut BinaryHeap<_>, class, len| {
            for tie_asn in [9u32, 4] {
                node += 1;
                let tie_key = (u8::from(node.is_multiple_of(3)), tie_asn);
                let (parent, via_attacker) = (node + 100, node.is_multiple_of(2));
                queue.push(
                    class,
                    len,
                    pack_bucket_rank(tie_key, node, parent, via_attacker),
                );
                heap.push(Reverse(Label {
                    class,
                    len,
                    tie_key,
                    parent_asn_order: tie_asn,
                    node,
                    parent,
                    via_attacker,
                }));
            }
        };
        for class in [
            RouteClass::FromProvider,
            RouteClass::FromCustomer,
            RouteClass::FromPeer,
        ] {
            for len in [1_000_000, BUCKET_SPILL_LEN as u32, 255, 3, 256, 255] {
                push(&mut queue, &mut heap, class, len);
            }
        }
        // A re-export of the first pop lands in the spill heap mid-scan.
        let Reverse(first) = heap.pop().unwrap();
        assert_eq!(queue.pop(), Some(first));
        push(&mut queue, &mut heap, first.class, first.len + 297);
        while let Some(Reverse(expected)) = heap.pop() {
            assert_eq!(queue.pop(), Some(expected));
        }
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn sibling_links_propagate_routes() {
        // V's provider P has a sibling S; S must reach V through the sibling
        // link with customer-class preference.
        let mut g = AsGraph::new();
        g.add_provider_customer(Asn(10), Asn(1)).unwrap();
        g.add_sibling(Asn(10), Asn(11)).unwrap();
        g.add_provider_customer(Asn(11), Asn(2)).unwrap(); // S has a customer 2
        g.sort_neighbors();
        let outcome = RoutingEngine::new(&g).compute(&DestinationSpec::new(Asn(1)));
        let s = outcome.route(Asn(11)).unwrap();
        assert_eq!(s.class, RouteClass::FromCustomer);
        // And S re-exports to its own customer.
        assert!(outcome.route(Asn(2)).is_some());
    }
}
