//! The combined multi-monitor route view.

use std::collections::HashMap;

use aspp_types::{AsPath, Asn};

/// All routes toward one prefix visible at one instant, combined across
/// monitors.
///
/// Because BGP forwarding is destination-based, an observed path
/// `[d AS_I … AS_1 V^λ]` implies the route of every AS on it: each suffix is
/// itself a route. `RouteView` stores that expansion, keyed by the first AS
/// of each suffix, keeping *all distinct* paths seen for an AS — a
/// legitimate network announces one route, so two distinct entries for the
/// same AS are already a symptom.
///
/// Each distinct suffix carries a reference count of how many added paths
/// contribute it, so a long-lived view can be maintained *incrementally*:
/// [`remove_path`](Self::remove_path) exactly undoes one earlier
/// [`add_path`](Self::add_path), and a suffix only leaves the view when its
/// last contributor goes. The resulting route sets are identical to a view
/// rebuilt from scratch over the same multiset of paths (entry order within
/// an AS may differ, which the detector's alarm set does not depend on).
///
/// # Example
///
/// ```
/// use aspp_detect::RouteView;
/// use aspp_types::{AsPath, Asn};
///
/// let view = RouteView::from_paths(["55 10 1 1 1".parse::<AsPath>().unwrap()]);
/// // The suffix routes of 55, 10 (and the origin itself) are all visible.
/// assert_eq!(view.routes_of(Asn(10)).len(), 1);
/// assert_eq!(view.routes_of(Asn(10))[0].to_string(), "10 1 1 1");
/// ```
#[derive(Clone, Debug, Default)]
pub struct RouteView {
    routes: HashMap<Asn, ViewEntry>,
}

/// Distinct suffix routes of one AS, with per-suffix contributor counts.
#[derive(Clone, Debug, Default)]
struct ViewEntry {
    paths: Vec<AsPath>,
    counts: Vec<u32>,
}

impl RouteView {
    /// Creates an empty view.
    #[must_use]
    pub fn new() -> Self {
        RouteView::default()
    }

    /// Builds a view from monitor-observed paths, expanding every suffix.
    #[must_use]
    pub fn from_paths<I: IntoIterator<Item = AsPath>>(paths: I) -> Self {
        let mut view = RouteView::new();
        for path in paths {
            view.add_path(&path);
        }
        view
    }

    /// Adds one observed path and all its suffix routes.
    pub fn add_path(&mut self, path: &AsPath) {
        self.add_path_with(path, |_| {});
    }

    /// Removes one previously-added path, dropping each suffix whose last
    /// contributor it was. Exactly inverts one [`add_path`](Self::add_path)
    /// of the same path.
    pub fn remove_path(&mut self, path: &AsPath) {
        self.remove_path_with(path, |_| {});
    }

    /// Like [`add_path`](Self::add_path), invoking `on_new` for every suffix
    /// route that *enters* the view (count 0 → 1). Lets a caller keep a
    /// derived index in lockstep without re-walking the view.
    pub(crate) fn add_path_with(&mut self, path: &AsPath, mut on_new: impl FnMut(&AsPath)) {
        let hops = path.hops();
        let mut start = 0;
        while start < hops.len() {
            let head = hops[start];
            let suffix = &hops[start..];
            let entry = self.routes.entry(head).or_default();
            if let Some(i) = entry.paths.iter().position(|p| p.hops() == suffix) {
                entry.counts[i] += 1;
            } else {
                entry.paths.push(AsPath::from_hops(suffix.iter().copied()));
                entry.counts.push(1);
                on_new(entry.paths.last().expect("just pushed"));
            }
            // Skip over prepend copies so each AS contributes one suffix per
            // distinct position.
            let mut next = start + 1;
            while next < hops.len() && hops[next] == head {
                next += 1;
            }
            start = next;
        }
    }

    /// Like [`remove_path`](Self::remove_path), invoking `on_gone` for every
    /// suffix route that *leaves* the view (count 1 → 0).
    pub(crate) fn remove_path_with(&mut self, path: &AsPath, mut on_gone: impl FnMut(&AsPath)) {
        let hops = path.hops();
        let mut start = 0;
        while start < hops.len() {
            let head = hops[start];
            let suffix = &hops[start..];
            if let Some(entry) = self.routes.get_mut(&head) {
                if let Some(i) = entry.paths.iter().position(|p| p.hops() == suffix) {
                    entry.counts[i] -= 1;
                    if entry.counts[i] == 0 {
                        let gone = entry.paths.swap_remove(i);
                        entry.counts.swap_remove(i);
                        on_gone(&gone);
                        if entry.paths.is_empty() {
                            self.routes.remove(&head);
                        }
                    }
                } else {
                    debug_assert!(false, "remove_path of a never-added suffix");
                }
            } else {
                debug_assert!(false, "remove_path of a never-added head");
            }
            let mut next = start + 1;
            while next < hops.len() && hops[next] == head {
                next += 1;
            }
            start = next;
        }
    }

    /// All distinct routes observed for `asn` (empty slice if unseen).
    #[must_use]
    pub fn routes_of(&self, asn: Asn) -> &[AsPath] {
        self.routes.get(&asn).map_or(&[], |e| e.paths.as_slice())
    }

    /// Iterates over every `(asn, route)` pair in the view.
    pub fn iter(&self) -> impl Iterator<Item = (Asn, &AsPath)> {
        self.routes
            .iter()
            .flat_map(|(&asn, entry)| entry.paths.iter().map(move |p| (asn, p)))
    }

    /// ASes with at least one observed route.
    pub fn observed_asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.routes.keys().copied()
    }

    /// Number of ASes with at least one observed route.
    #[must_use]
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Returns `true` if nothing was observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

/// Views compare as route *sets*: same ASes, same distinct suffixes per AS.
/// Contributor counts and entry order are maintenance detail, not content.
impl PartialEq for RouteView {
    fn eq(&self, other: &Self) -> bool {
        self.routes.len() == other.routes.len()
            && self.routes.iter().all(|(asn, entry)| {
                other.routes.get(asn).is_some_and(|o| {
                    entry.paths.len() == o.paths.len()
                        && entry.paths.iter().all(|p| o.paths.contains(p))
                })
            })
    }
}

impl Eq for RouteView {}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> AsPath {
        s.parse().unwrap()
    }

    #[test]
    fn suffix_expansion() {
        let view = RouteView::from_paths([p("77 66 10 1")]);
        assert_eq!(view.routes_of(Asn(77))[0].to_string(), "77 66 10 1");
        assert_eq!(view.routes_of(Asn(66))[0].to_string(), "66 10 1");
        assert_eq!(view.routes_of(Asn(10))[0].to_string(), "10 1");
        assert_eq!(view.routes_of(Asn(1))[0].to_string(), "1");
        assert_eq!(view.len(), 4);
    }

    #[test]
    fn prepends_do_not_create_extra_suffixes() {
        let view = RouteView::from_paths([p("55 10 1 1 1")]);
        // Origin 1 contributes a single suffix "1 1 1".
        assert_eq!(view.routes_of(Asn(1)).len(), 1);
        assert_eq!(view.routes_of(Asn(1))[0].to_string(), "1 1 1");
        assert_eq!(view.len(), 3);
    }

    #[test]
    fn conflicting_routes_both_kept() {
        // Figure 3: honest [E A V3] vs malicious [B M A V1] give A two routes.
        let view = RouteView::from_paths([p("55 10 1 1 1"), p("77 66 10 1")]);
        let a_routes = view.routes_of(Asn(10));
        assert_eq!(a_routes.len(), 2, "A has conflicting padding views");
        assert_eq!(view.routes_of(Asn(55)).len(), 1);
    }

    #[test]
    fn duplicate_observations_dedup() {
        let view = RouteView::from_paths([p("55 10 1"), p("55 10 1")]);
        assert_eq!(view.routes_of(Asn(55)).len(), 1);
    }

    #[test]
    fn iter_covers_all_routes() {
        let view = RouteView::from_paths([p("2 1"), p("3 1")]);
        let total = view.iter().count();
        assert_eq!(total, 3); // routes of 2, 3, and 1.
        let empty = RouteView::new();
        assert!(empty.is_empty());
        assert_eq!(empty.iter().count(), 0);
    }

    #[test]
    fn remove_path_inverts_add_path() {
        let mut view = RouteView::from_paths([p("55 10 1 1 1"), p("77 66 10 1")]);
        view.remove_path(&p("77 66 10 1"));
        assert_eq!(view, RouteView::from_paths([p("55 10 1 1 1")]));
        view.remove_path(&p("55 10 1 1 1"));
        assert!(view.is_empty());
    }

    #[test]
    fn shared_suffixes_survive_until_last_contributor_leaves() {
        // Both paths contribute the suffix routes of 10 and of 1.
        let mut view = RouteView::from_paths([p("55 10 1"), p("77 10 1")]);
        view.remove_path(&p("55 10 1"));
        assert_eq!(view.routes_of(Asn(10)).len(), 1, "10 still routed via 77");
        assert_eq!(view.routes_of(Asn(1)).len(), 1);
        assert!(view.routes_of(Asn(55)).is_empty());
        view.remove_path(&p("77 10 1"));
        assert!(view.is_empty());
    }

    #[test]
    fn duplicate_adds_need_matching_removes() {
        let mut view = RouteView::new();
        view.add_path(&p("55 10 1"));
        view.add_path(&p("55 10 1"));
        view.remove_path(&p("55 10 1"));
        assert_eq!(view.routes_of(Asn(55)).len(), 1, "one contributor remains");
        view.remove_path(&p("55 10 1"));
        assert!(view.is_empty());
    }

    #[test]
    fn incremental_view_equals_rebuilt_view() {
        let adds = [p("9 8 7 1 1"), p("6 7 1 1"), p("5 4 1"), p("9 8 7 1 1")];
        let mut incremental = RouteView::new();
        for a in &adds {
            incremental.add_path(a);
        }
        incremental.remove_path(&adds[1]);
        incremental.add_path(&p("6 4 1"));
        let rebuilt = RouteView::from_paths([
            adds[0].clone(),
            adds[2].clone(),
            adds[3].clone(),
            p("6 4 1"),
        ]);
        assert_eq!(incremental, rebuilt);
    }

    #[test]
    fn views_compare_as_sets_regardless_of_insertion_order() {
        let a = RouteView::from_paths([p("55 10 1 1 1"), p("77 66 10 1")]);
        let b = RouteView::from_paths([p("77 66 10 1"), p("55 10 1 1 1")]);
        assert_eq!(a, b);
        assert_ne!(a, RouteView::from_paths([p("55 10 1 1 1")]));
    }
}
