//! The Figure 4 detection algorithm.

use core::fmt;
use std::collections::{BTreeMap, HashMap};

use aspp_topology::AsGraph;
use aspp_types::{AsPath, Asn, Relationship};

use crate::view::RouteView;

/// Alarm confidence, mirroring the paper's two-step conclusion strength.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Confidence {
    /// Relationship-based hint only ("possible attack").
    Low,
    /// Same-segment padding inconsistency ("detect attack!").
    High,
}

/// A raised detection alarm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Alarm {
    /// The AS convicted (or suspected) of removing prepends — `AS_I`, the
    /// first AS on the shortened route.
    pub suspect: Asn,
    /// The AS whose route change triggered the check.
    pub observed_at: Asn,
    /// Origin padding on the shortened route (λ_t).
    pub new_padding: usize,
    /// The conflicting padding the rest of the network still sees (λ_l),
    /// when a same-segment witness existed.
    pub witness_padding: Option<usize>,
    /// Alarm strength.
    pub confidence: Confidence,
}

impl Alarm {
    /// Number of prepends the suspect is accused of removing, when a
    /// same-segment witness quantified it.
    #[must_use]
    pub fn removed_count(&self) -> Option<usize> {
        self.witness_padding
            .map(|w| w.saturating_sub(self.new_padding))
    }
}

impl fmt::Display for Alarm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.confidence, self.witness_padding) {
            (Confidence::High, Some(w)) => write!(
                f,
                "attack detected: AS{} removed {} padded ASNs (route at AS{} shows {} pads, witnesses show {})",
                self.suspect,
                w.saturating_sub(self.new_padding),
                self.observed_at,
                self.new_padding,
                w
            ),
            _ => write!(
                f,
                "possible attack: AS{} shortened padding to {} (seen at AS{})",
                self.suspect, self.new_padding, self.observed_at
            ),
        }
    }
}

/// The ASPP-interception detector (paper Figure 4).
///
/// Holds the (possibly inferred) relationship graph used by the
/// lower-confidence hint rules; the high-confidence rule needs no topology
/// knowledge at all.
#[derive(Clone, Copy, Debug)]
pub struct Detector<'g> {
    graph: &'g AsGraph,
}

impl<'g> Detector<'g> {
    /// Creates a detector over the given relationship graph.
    #[must_use]
    pub fn new(graph: &'g AsGraph) -> Self {
        Detector { graph }
    }

    /// Checks one route change at AS `d`: previous route `r_prev`, current
    /// route `r_now` (both *received* paths, i.e. starting at `d`'s next
    /// hop `AS_I`), against the current combined view.
    ///
    /// Returns `None` unless the origin padding decreased; otherwise applies
    /// the same-segment rule and, failing that, the three relationship
    /// hints.
    #[must_use]
    pub fn check_change(
        &self,
        d: Asn,
        r_prev: &AsPath,
        r_now: &AsPath,
        view_now: &RouteView,
    ) -> Option<Alarm> {
        if !padding_decreased(r_prev.hops(), r_now.hops()) {
            return None;
        }
        let index = ViewIndex::build(view_now);
        self.judge_one(d, r_now.hops(), &index, &mut Vec::new())
    }

    /// The index-only half of the check: the same-segment rule, then the
    /// three relationship hints, for a shortened route `now` at `d` that
    /// already passed [`padding_decreased`]. On raw hop slices, so only an
    /// alarm allocates; `scratch` holds the collapsed path between calls.
    fn judge_one(
        &self,
        d: Asn,
        now: &[Asn],
        index: &ViewIndex,
        scratch: &mut Vec<Asn>,
    ) -> Option<Alarm> {
        let (&suspect, &origin) = (now.first()?, now.last()?);
        let lambda_now = origin_padding(now);
        collapse_into(now, scratch);
        let segment: &[Asn] = if scratch.len() >= 3 {
            &scratch[1..scratch.len() - 1]
        } else {
            &[]
        };

        // Rule 1 (high confidence): some other observed route carries the
        // same transit segment with more origin padding.
        if !segment.is_empty() {
            if let Some(max_pad) = index.max_pad(origin, segment) {
                if lambda_now < max_pad {
                    return Some(Alarm {
                        suspect,
                        observed_at: d,
                        new_padding: lambda_now,
                        witness_padding: Some(max_pad),
                        confidence: Confidence::High,
                    });
                }
            }
        }

        // Rules 2-4 (low confidence): a neighbor of AS_{I-1} holds a longer,
        // more-padded route although policy says it should have received the
        // shorter one.
        let as_i_minus_1 = segment.first().copied().unwrap_or(origin);
        for r in index.padded_routes.keys() {
            if r.origin != origin || lambda_now >= r.padding || r.len <= now.len() {
                continue;
            }
            let rel_of_i_minus_1 = self.graph.relationship(r.first, as_i_minus_1);
            let hint = match rel_of_i_minus_1 {
                // AS_{I-1} is a customer of AS'_L: customers export their
                // best route to providers, so AS'_L should have seen the
                // shorter padding.
                Some(Relationship::Customer) => true,
                // AS_{I-1} peers with AS'_L: the shorter route would have
                // been exported if it was customer-learned, which it must be
                // if the shortened route itself shows no peer link.
                Some(Relationship::Peer) => !collapsed_has_peer_link(self.graph, scratch),
                // AS_{I-1} is a provider of AS'_L while AS'_L is also using
                // a provider route: providers export everything downhill, so
                // the longer choice is inconsistent.
                Some(Relationship::Provider) => r.second.is_some_and(|l1| {
                    self.graph.relationship(r.first, l1) == Some(Relationship::Provider)
                }),
                _ => false,
            };
            if hint {
                return Some(Alarm {
                    suspect,
                    observed_at: d,
                    new_padding: lambda_now,
                    witness_padding: None,
                    confidence: Confidence::Low,
                });
            }
        }
        None
    }

    /// Judges `candidates` against the index of the current view and
    /// returns the distinct alarms, strongest first. The order depends only
    /// on the order *within* each AS's group (the sort is stable and its key
    /// ends in `observed_at`), never on the order of the groups. Equal
    /// alarms and ties of the sort share a [`Candidate::key`], so judging
    /// every candidate of some keys and none of the others yields exactly
    /// the full set's alarms of those keys, in the same order.
    pub(crate) fn judge<'c>(
        &self,
        candidates: impl IntoIterator<Item = &'c Candidate>,
        index: &ViewIndex,
    ) -> Vec<Alarm> {
        let mut alarms = Vec::new();
        let mut scratch = Vec::new();
        for c in candidates {
            if let Some(alarm) = self.judge_one(c.d, &c.now, index, &mut scratch) {
                if !alarms.contains(&alarm) {
                    alarms.push(alarm);
                }
            }
        }
        alarms.sort_by_key(|a| (std::cmp::Reverse(a.confidence), a.suspect, a.observed_at));
        alarms
    }

    /// Scans every AS present in both views and returns all alarms for
    /// routes whose origin padding decreased (paper: "for each routing
    /// change to a shorter AS-path due to fewer padded ASNs from AS d").
    ///
    /// The `before` view plays the role of `r_{t-1}`; `after` of `r_t`.
    /// The index over `after` is only built when some route did shorten.
    #[must_use]
    pub fn scan(&self, before: &RouteView, after: &RouteView) -> Vec<Alarm> {
        let mut candidates = Vec::new();
        for d in after.observed_asns() {
            candidate_pairs(d, before, after, &mut candidates);
        }
        if candidates.is_empty() {
            return Vec::new();
        }
        self.judge(&candidates, &ViewIndex::build(after))
    }
}

/// A route change at one AS that passed the path-only half of Figure 4
/// ([`padding_decreased`]) and still has to be judged against the rest of
/// the view. Everything the rules read from the pair is on the shortened
/// route, so that is all a candidate keeps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Candidate {
    /// The AS whose route changed.
    pub(crate) d: Asn,
    /// The shortened route `r_t`: `d`'s received path, or its whole
    /// announcement.
    now: Vec<Asn>,
}

impl Candidate {
    /// The `(suspect, observed_at)` key of the alarm judging this candidate
    /// can raise: the shortened route's first hop, seen at `d`.
    pub(crate) fn key(&self) -> (Asn, Asn) {
        (self.now[0], self.d)
    }
}

/// Appends the candidates of AS `d` — one group — to `out`: every distinct
/// shortened route among `d`'s routes in `after` × its routes in `before` ×
/// {received path, whole announcement}, in that loop order. A pure function
/// of `d`'s two route lists, which is what lets a streaming caller re-derive
/// a group only when one of the lists changed.
pub(crate) fn candidate_pairs(
    d: Asn,
    before: &RouteView,
    after: &RouteView,
    out: &mut Vec<Candidate>,
) {
    let (before, after) = (before.routes_of(d), after.routes_of(d));
    let group = out.len();
    let mut push = |now: &[Asn]| {
        // Equal shortened routes at one AS are judged alike.
        if !out[group..].iter().any(|c| c.now == now) {
            out.push(Candidate {
                d,
                now: now.to_vec(),
            });
        }
    };
    for full_now in after {
        let now_hops = full_now.hops();
        let now_stripped = strip_head(now_hops);
        for full_prev in before {
            let prev_hops = full_prev.hops();
            // The received path r^d_t starts at d's next hop.
            if let (Some(r_now), Some(r_prev)) = (now_stripped, strip_head(prev_hops)) {
                if padding_decreased(r_prev, r_now) {
                    push(r_now);
                }
            }
            // Also check the announcement as a whole: if the padding
            // decrease happened at `d` itself, `d` is the suspect — this is
            // what a vantage point on the attacker (or a suffix route
            // through it) observes.
            if padding_decreased(prev_hops, now_hops) {
                push(now_hops);
            }
        }
    }
}

/// The path-only half of the check: same origin, fewer origin pads on `now`
/// than on `prev`, and the shortened route does not begin at the origin.
fn padding_decreased(prev: &[Asn], now: &[Asn]) -> bool {
    let (Some(&suspect), Some(&origin)) = (now.first(), now.last()) else {
        return false;
    };
    // A different prefix owner is MOAS territory, not ASPP; a shortened
    // route that begins at the origin itself is the owner reducing its own
    // padding, which is legitimate engineering.
    prev.last() == Some(&origin) && suspect != origin && origin_padding(now) < origin_padding(prev)
}

/// Pre-indexed view: origin padding per (transit segment, origin), and a
/// compact summary of every padded route for the hint rules.
///
/// Both sides are *multisets* keyed on what the rules actually read, so the
/// index supports exact incremental maintenance: [`add_route`](Self::add_route)
/// when a distinct suffix enters a view and [`remove_route`](Self::remove_route)
/// when it leaves keep the index identical (up to iteration order, which no
/// rule depends on) to one rebuilt from scratch. Rule 1 reads the *max* pad
/// per segment — the last key of the count map; rules 2-4 read the summary
/// key set.
#[derive(Clone, Debug, Default)]
pub(crate) struct ViewIndex {
    /// origin → distinct transit segments, each with a padding multiset.
    max_pad_by_segment: HashMap<Asn, Vec<SegmentPads>>,
    /// Padded-route summaries with contributor counts.
    padded_routes: HashMap<RouteSummary, u32>,
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct SegmentPads {
    segment: Vec<Asn>,
    pads: BTreeMap<usize, u32>,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct RouteSummary {
    origin: Asn,
    first: Asn,
    second: Option<Asn>,
    padding: usize,
    len: usize,
}

impl ViewIndex {
    pub(crate) fn build(view: &RouteView) -> Self {
        let mut index = ViewIndex::default();
        for (_, r) in view.iter() {
            index.add_route(r.hops());
        }
        index
    }

    /// Indexes one distinct suffix route that entered a view.
    pub(crate) fn add_route(&mut self, hops: &[Asn]) {
        let Some(&origin) = hops.last() else { return };
        let padding = origin_padding(hops);
        let mut collapsed = Vec::with_capacity(hops.len());
        collapse_into(hops, &mut collapsed);
        if collapsed.len() >= 3 {
            let segment = &collapsed[1..collapsed.len() - 1];
            let entries = self.max_pad_by_segment.entry(origin).or_default();
            if let Some(sp) = entries.iter_mut().find(|sp| sp.segment == segment) {
                *sp.pads.entry(padding).or_insert(0) += 1;
            } else {
                entries.push(SegmentPads {
                    segment: segment.to_vec(),
                    pads: BTreeMap::from([(padding, 1)]),
                });
            }
        }
        if padding >= 2 {
            let summary = RouteSummary {
                origin,
                first: collapsed[0],
                second: collapsed.get(1).copied(),
                padding,
                len: hops.len(),
            };
            *self.padded_routes.entry(summary).or_insert(0) += 1;
        }
    }

    /// Un-indexes one distinct suffix route that left a view. Must pair with
    /// an earlier [`add_route`](Self::add_route) of the same hops.
    pub(crate) fn remove_route(&mut self, hops: &[Asn]) {
        let Some(&origin) = hops.last() else { return };
        let padding = origin_padding(hops);
        let mut collapsed = Vec::with_capacity(hops.len());
        collapse_into(hops, &mut collapsed);
        if collapsed.len() >= 3 {
            let segment = &collapsed[1..collapsed.len() - 1];
            if let Some(entries) = self.max_pad_by_segment.get_mut(&origin) {
                if let Some(i) = entries.iter().position(|sp| sp.segment == segment) {
                    if let Some(count) = entries[i].pads.get_mut(&padding) {
                        *count -= 1;
                        if *count == 0 {
                            entries[i].pads.remove(&padding);
                        }
                    } else {
                        debug_assert!(false, "remove_route of a never-added padding");
                    }
                    if entries[i].pads.is_empty() {
                        entries.swap_remove(i);
                    }
                    if entries.is_empty() {
                        self.max_pad_by_segment.remove(&origin);
                    }
                } else {
                    debug_assert!(false, "remove_route of a never-added segment");
                }
            }
        }
        if padding >= 2 {
            let summary = RouteSummary {
                origin,
                first: collapsed[0],
                second: collapsed.get(1).copied(),
                padding,
                len: hops.len(),
            };
            if let Some(count) = self.padded_routes.get_mut(&summary) {
                *count -= 1;
                if *count == 0 {
                    self.padded_routes.remove(&summary);
                }
            } else {
                debug_assert!(false, "remove_route of a never-added summary");
            }
        }
    }

    /// Max origin padding among routes sharing `segment` toward `origin`.
    fn max_pad(&self, origin: Asn, segment: &[Asn]) -> Option<usize> {
        self.max_pad_by_segment
            .get(&origin)?
            .iter()
            .find(|sp| sp.segment == segment)
            .and_then(|sp| sp.pads.keys().next_back().copied())
    }
}

/// Trailing run length of the origin AS — the paper's λ, on a raw hop slice.
fn origin_padding(hops: &[Asn]) -> usize {
    match hops.last() {
        Some(&origin) => hops.iter().rev().take_while(|&&h| h == origin).count(),
        None => 0,
    }
}

/// Collapses consecutive duplicates of `hops` into `out` (cleared first).
fn collapse_into(hops: &[Asn], out: &mut Vec<Asn>) {
    out.clear();
    for &h in hops {
        if out.last() != Some(&h) {
            out.push(h);
        }
    }
}

/// Drops the leading AS (and its prepend copies) from an observed path,
/// yielding the received path; `None` if nothing remains.
fn strip_head(hops: &[Asn]) -> Option<&[Asn]> {
    let &head = hops.first()?;
    let run = hops.iter().take_while(|&&h| h == head).count();
    let rest = &hops[run..];
    if rest.is_empty() {
        None
    } else {
        Some(rest)
    }
}

fn collapsed_has_peer_link(graph: &AsGraph, collapsed: &[Asn]) -> bool {
    collapsed
        .windows(2)
        .any(|w| graph.relationship(w[0], w[1]) == Some(Relationship::Peer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspp_attack::fixtures::{figure3, figure3_topology};
    use aspp_routing::{
        AttackerModel, DestinationSpec, PrependConfig, PrependingPolicy, RoutingEngine,
    };

    fn p(s: &str) -> AsPath {
        s.parse().unwrap()
    }

    /// Hand-built Figure 3 situation: monitor sees honest [E A V V V] and
    /// malicious [B M A V].
    #[test]
    fn figure3_inconsistency_detected() {
        let g = figure3_topology();
        let detector = Detector::new(&g);
        use figure3::*;
        let view_now = RouteView::from_paths([
            p(&format!("{E} {A} {V} {V} {V}")),
            p(&format!("{B} {M} {A} {V}")),
        ]);
        // B's route changed from the (hypothetical) old padded one.
        let r_prev = p(&format!("{M} {A} {V} {V} {V}"));
        let r_now = p(&format!("{M} {A} {V}"));
        let alarm = detector
            .check_change(B, &r_prev, &r_now, &view_now)
            .expect("attack must be detected");
        assert_eq!(alarm.suspect, M);
        assert_eq!(alarm.confidence, Confidence::High);
        assert_eq!(alarm.removed_count(), Some(2));
        assert!(alarm.to_string().contains("removed 2"));
    }

    #[test]
    fn no_alarm_when_padding_increases_or_stays() {
        let g = figure3_topology();
        let detector = Detector::new(&g);
        let view = RouteView::from_paths([p("55 10 1 1 1")]);
        assert!(detector
            .check_change(Asn(77), &p("66 10 1"), &p("66 10 1 1 1"), &view)
            .is_none());
        assert!(detector
            .check_change(Asn(77), &p("66 10 1 1"), &p("66 10 1 1"), &view)
            .is_none());
    }

    #[test]
    fn origin_change_is_not_our_attack() {
        let g = figure3_topology();
        let detector = Detector::new(&g);
        let view = RouteView::from_paths([p("55 10 1 1 1")]);
        // Origin flipped from 1 to 2: MOAS, out of scope.
        assert!(detector
            .check_change(Asn(77), &p("66 10 1 1 1"), &p("66 10 2"), &view)
            .is_none());
    }

    #[test]
    fn legitimate_per_neighbor_prepending_no_high_alarm() {
        // V legitimately sends [V V] to C and [V V V] to A. Segments differ
        // ([A] vs [C]), so the same-segment rule must stay quiet.
        let g = figure3_topology();
        let detector = Detector::new(&g);
        use figure3::*;
        let view_now = RouteView::from_paths([
            p(&format!("{E} {A} {V} {V} {V}")),
            p(&format!("{D} {C} {V} {V}")),
        ]);
        // D's route "changed" from 3 pads to 2 (e.g. V re-engineered).
        let alarm = detector.check_change(
            D,
            &p(&format!("{C} {V} {V} {V}")),
            &p(&format!("{C} {V} {V}")),
            &view_now,
        );
        assert!(
            alarm.is_none() || alarm.unwrap().confidence == Confidence::Low,
            "different segments must not produce a high-confidence alarm"
        );
    }

    /// End-to-end: simulate the attack on Figure 3's topology and scan.
    #[test]
    fn scan_detects_simulated_attack() {
        use figure3::*;
        let g = figure3_topology();
        let engine = RoutingEngine::new(&g);
        let spec = DestinationSpec::new(V)
            .origin_padding(3)
            .attacker(AttackerModel::new(M));
        let outcome = engine.compute(&spec);
        assert!(outcome.is_polluted(B), "B sits below the attacker");

        let monitors = [B, D, E];
        let before = RouteView::from_paths(
            monitors
                .iter()
                .filter_map(|&m| outcome.clean_observed_path(m)),
        );
        let after =
            RouteView::from_paths(monitors.iter().filter_map(|&m| outcome.observed_path(m)));
        let detector = Detector::new(&g);
        let alarms = detector.scan(&before, &after);
        assert!(
            alarms
                .iter()
                .any(|a| a.suspect == M && a.confidence == Confidence::High),
            "alarms: {alarms:?}"
        );
    }

    #[test]
    fn scan_is_quiet_without_attack() {
        use figure3::*;
        let g = figure3_topology();
        let engine = RoutingEngine::new(&g);
        let spec = DestinationSpec::new(V).origin_padding(3);
        let outcome = engine.compute(&spec);
        let monitors = [B, D, E];
        let view = RouteView::from_paths(monitors.iter().filter_map(|&m| outcome.observed_path(m)));
        let detector = Detector::new(&g);
        assert!(detector.scan(&view, &view).is_empty());
    }

    #[test]
    fn scan_quiet_under_legitimate_reengineering() {
        use figure3::*;
        // V switches from uniform 3 pads to per-neighbor (3 toward A,
        // 2 toward C): D sees fewer pads but nobody cheated.
        let g = figure3_topology();
        let engine = RoutingEngine::new(&g);
        let before_spec = DestinationSpec::new(V).origin_padding(3);
        let mut config = PrependConfig::new();
        config.set(V, PrependingPolicy::per_neighbor(2, [(C, 1)]));
        let after_spec = DestinationSpec::new(V).prepend_config(config);
        let before_out = engine.compute(&before_spec);
        let after_out = engine.compute(&after_spec);
        let monitors = [B, D, E];
        let before =
            RouteView::from_paths(monitors.iter().filter_map(|&m| before_out.observed_path(m)));
        let after =
            RouteView::from_paths(monitors.iter().filter_map(|&m| after_out.observed_path(m)));
        let detector = Detector::new(&g);
        let alarms = detector.scan(&before, &after);
        assert!(
            alarms.iter().all(|a| a.confidence == Confidence::Low),
            "legitimate TE must not trigger high-confidence alarms: {alarms:?}"
        );
    }

    #[test]
    fn strip_head_handles_prepended_heads() {
        let h = |s: &str| p(s).hops().to_vec();
        assert_eq!(strip_head(&h("5 5 5 1 2")), Some(&h("1 2")[..]));
        assert_eq!(strip_head(&h("5 1")), Some(&h("1")[..]));
        assert!(strip_head(&h("5 5")).is_none());
        assert!(strip_head(&[]).is_none());
    }

    #[test]
    fn slice_origin_padding_matches_aspath() {
        for s in ["1", "2 1", "2 1 1 1", "5 5 5", "7 4 4 9 1 1", ""] {
            let path = p(s);
            assert_eq!(origin_padding(path.hops()), path.origin_padding(), "{s}");
        }
    }

    /// An incrementally maintained index must agree with one rebuilt from
    /// scratch after any add/remove interleaving.
    #[test]
    fn incremental_index_matches_rebuild() {
        let paths = [
            p("9 8 7 1 1 1"),
            p("6 7 1 1 1"),
            p("5 4 1"),
            p("9 8 7 1 1 1"),
            p("3 8 7 1 1"),
        ];
        let mut view = RouteView::new();
        let mut index = ViewIndex::default();
        for path in &paths {
            view.add_path_with(path, |new| index.add_route(new.hops()));
        }
        view.remove_path_with(&paths[1], |gone| index.remove_route(gone.hops()));
        view.remove_path_with(&paths[0], |gone| index.remove_route(gone.hops()));
        let rebuilt = ViewIndex::build(&view);
        assert_eq!(normalize(&index), normalize(&rebuilt));
    }

    type NormalizedIndex = (Vec<(Asn, Vec<SegmentPads>)>, Vec<(RouteSummary, u32)>);

    fn normalize(index: &ViewIndex) -> NormalizedIndex {
        let mut segs: Vec<(Asn, Vec<SegmentPads>)> = index
            .max_pad_by_segment
            .iter()
            .map(|(&o, v)| {
                let mut v = v.clone();
                v.sort_by(|a, b| a.segment.cmp(&b.segment));
                (o, v)
            })
            .collect();
        segs.sort_by_key(|(o, _)| *o);
        let mut padded: Vec<(RouteSummary, u32)> = index
            .padded_routes
            .iter()
            .map(|(k, &c)| (k.clone(), c))
            .collect();
        padded.sort_by_key(|(k, _)| (k.origin, k.first, k.second, k.padding, k.len));
        (segs, padded)
    }
}
