//! What to compute: the destination, its prepending, the attacker, and the
//! defense deployed against it.

use std::sync::Arc;

use aspp_types::Asn;

use crate::policy::DeployedPolicy;
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
/// A spec with an attacker is one cell of the paper's experiments (victim,
/// attacker, λ); a defended spec is one cell of a deployment sweep. Equality
/// compares the prepending configuration and the defense by value.
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
/// assert_eq!(spec.padding_level(), 5);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DestinationSpec {
    victim: Asn,
    // Arc-shared so cloning a spec (batch cells, cached clean entries,
    // outcome embedding) bumps a refcount instead of copying the policy map.
    prepend: Arc<PrependConfig>,
    attacker: Option<AttackerModel>,
    // Arc-shared for the same reason: a deployment grid's cells share a
    // handful of deployment maps.
    defense: Option<Arc<DeployedPolicy>>,
}

impl DestinationSpec {
    /// Routes toward `victim`, with no padding and no attacker.
    #[must_use]
    pub fn new(victim: Asn) -> Self {
        DestinationSpec {
            victim,
            prepend: Arc::new(PrependConfig::new()),
            attacker: None,
            defense: None,
        }
    }

    /// The victim announces λ = `copies` total copies of its ASN to every
    /// neighbor (the paper's `r0 = [V…V]` with λ copies). `copies` is
    /// clamped to at least 1. Route tables store effective lengths in 28
    /// bits, so every path must stay below 2²⁸ hops; the `aspp` CLI caps λ
    /// at 65 535, more ASNs than one BGP UPDATE can carry.
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

    /// Deploys `policy`: its deployers filter attacker-derived
    /// announcements at import (see [`crate::policy`]). The clean
    /// equilibrium does not depend on it, so a defended spec shares its
    /// clean pass with the undefended one.
    #[must_use]
    pub fn defense(mut self, policy: Arc<DeployedPolicy>) -> Self {
        self.defense = Some(policy);
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

    /// The deployed defense, if any.
    #[must_use]
    pub fn defense_policy(&self) -> Option<&DeployedPolicy> {
        self.defense.as_deref()
    }

    /// λ: the copies of its ASN the victim announces, as set by
    /// [`origin_padding`](Self::origin_padding) — 1 when it does not pad,
    /// the largest count it sends any neighbor under a per-neighbor policy.
    #[must_use]
    pub fn padding_level(&self) -> usize {
        self.prepend
            .policy(self.victim)
            .map_or(0, PrependingPolicy::max_extra)
            .saturating_add(1)
    }

    /// The prepending configuration.
    #[must_use]
    pub fn prepending(&self) -> &PrependConfig {
        &self.prepend
    }

    /// What the clean equilibrium depends on: specs with equal keys share
    /// one clean pass whatever their attackers and defenses do. Both the
    /// workspace cache and the batch scheduler's steal units
    /// ([`crate::batch`]) are keyed by it.
    pub(crate) fn clean_key(&self) -> (Asn, &Arc<PrependConfig>) {
        (self.victim, &self.prepend)
    }
}
