//! AS paths with first-class prepending support.

use core::fmt;
use core::str::FromStr;

use crate::error::ParseAsPathError;
use crate::Asn;

/// A BGP `AS_PATH` attribute: the sequence of ASNs an announcement has
/// traversed, stored most-recent-first (the paper's `[ASn … AS1 V … V]`
/// notation).
///
/// Prepending is represented explicitly as repeated entries, exactly as it
/// appears on the wire, so the *effective length* used by the BGP decision
/// process is simply [`AsPath::len`], while [`AsPath::unique_len`] gives the
/// number of distinct consecutive hops (the "real" AS-level hop count).
///
/// # Example
///
/// ```
/// use aspp_types::{Asn, AsPath};
///
/// // The anomalous Facebook route: 4134 9318 32934 32934 32934
/// let path: AsPath = "4134 9318 32934 32934 32934".parse().unwrap();
/// assert_eq!(path.len(), 5);
/// assert_eq!(path.unique_len(), 3);
/// assert_eq!(path.origin(), Some(Asn(32934)));
/// assert_eq!(path.origin_padding(), 3);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AsPath {
    /// Hops ordered most-recent-first; the origin AS is last.
    hops: Vec<Asn>,
}

impl AsPath {
    /// Creates an empty path (as seen by the origin before announcing).
    ///
    /// ```
    /// # use aspp_types::AsPath;
    /// assert!(AsPath::new().is_empty());
    /// ```
    #[must_use]
    pub fn new() -> Self {
        AsPath::default()
    }

    /// Creates the path announced by `origin` with `padding` total copies of
    /// its ASN (`padding = 1` means no artificial prepending).
    ///
    /// # Panics
    ///
    /// Panics if `padding == 0`; an announced route always carries the origin
    /// at least once.
    ///
    /// ```
    /// # use aspp_types::{Asn, AsPath};
    /// let p = AsPath::origin_with_padding(Asn(32934), 3);
    /// assert_eq!(p.to_string(), "32934 32934 32934");
    /// ```
    #[must_use]
    pub fn origin_with_padding(origin: Asn, padding: usize) -> Self {
        assert!(
            padding > 0,
            "an announced path carries the origin at least once"
        );
        AsPath {
            hops: vec![origin; padding],
        }
    }

    /// Builds a path directly from hops ordered most-recent-first.
    ///
    /// ```
    /// # use aspp_types::{Asn, AsPath};
    /// let p = AsPath::from_hops([Asn(3356), Asn(32934)]);
    /// assert_eq!(p.to_string(), "3356 32934");
    /// ```
    #[must_use]
    pub fn from_hops<I: IntoIterator<Item = Asn>>(hops: I) -> Self {
        AsPath {
            hops: hops.into_iter().collect(),
        }
    }

    /// The effective path length — the value the BGP decision process
    /// compares, *including* prepended copies.
    #[must_use]
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// Returns `true` if the path has no hops.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// The number of distinct consecutive ASes — the real AS-level hop count
    /// with all prepending collapsed.
    ///
    /// ```
    /// # use aspp_types::AsPath;
    /// let p: AsPath = "7018 4134 4134 9318 32934 32934".parse().unwrap();
    /// assert_eq!(p.unique_len(), 4);
    /// ```
    #[must_use]
    pub fn unique_len(&self) -> usize {
        let mut n = 0;
        let mut prev = None;
        for &h in &self.hops {
            if Some(h) != prev {
                n += 1;
                prev = Some(h);
            }
        }
        n
    }

    /// The origin AS (last element), or `None` for an empty path.
    #[must_use]
    pub fn origin(&self) -> Option<Asn> {
        self.hops.last().copied()
    }

    /// The most recent AS on the path (first element), or `None` if empty.
    #[must_use]
    pub fn first(&self) -> Option<Asn> {
        self.hops.first().copied()
    }

    /// Iterates over the hops most-recent-first, prepends included.
    pub fn iter(&self) -> impl Iterator<Item = Asn> + '_ {
        self.hops.iter().copied()
    }

    /// The raw hop slice, most-recent-first.
    #[must_use]
    pub fn hops(&self) -> &[Asn] {
        &self.hops
    }

    /// Returns the path with consecutive duplicates collapsed.
    ///
    /// ```
    /// # use aspp_types::{Asn, AsPath};
    /// let p: AsPath = "9318 32934 32934 32934".parse().unwrap();
    /// assert_eq!(p.collapsed(), vec![Asn(9318), Asn(32934)]);
    /// ```
    #[must_use]
    pub fn collapsed(&self) -> Vec<Asn> {
        let mut out = Vec::with_capacity(self.unique_len());
        for &h in &self.hops {
            if out.last() != Some(&h) {
                out.push(h);
            }
        }
        out
    }

    /// The number of consecutive copies of the origin ASN at the tail of the
    /// path — the paper's λ. Zero for an empty path.
    ///
    /// ```
    /// # use aspp_types::AsPath;
    /// let p: AsPath = "3356 32934 32934 32934 32934 32934".parse().unwrap();
    /// assert_eq!(p.origin_padding(), 5);
    /// ```
    #[must_use]
    pub fn origin_padding(&self) -> usize {
        match self.origin() {
            Some(origin) => self.hops.iter().rev().take_while(|&&h| h == origin).count(),
            None => 0,
        }
    }

    /// Returns `true` if any AS appears more than once consecutively,
    /// i.e. the path shows some form of prepending. This is the predicate
    /// behind the paper's Figure 5 measurement.
    ///
    /// ```
    /// # use aspp_types::AsPath;
    /// assert!("3356 32934 32934".parse::<AsPath>().unwrap().has_prepending());
    /// assert!(!"3356 32934".parse::<AsPath>().unwrap().has_prepending());
    /// ```
    #[must_use]
    pub fn has_prepending(&self) -> bool {
        self.hops.windows(2).any(|w| w[0] == w[1])
    }

    /// The maximum number of consecutive copies of any single ASN — the
    /// quantity histogrammed in the paper's Figure 6.
    ///
    /// ```
    /// # use aspp_types::AsPath;
    /// let p: AsPath = "1 2 2 2 3 3".parse().unwrap();
    /// assert_eq!(p.max_padding(), 3);
    /// ```
    #[must_use]
    pub fn max_padding(&self) -> usize {
        let mut best = 0;
        let mut run = 0;
        let mut prev = None;
        for &h in &self.hops {
            if Some(h) == prev {
                run += 1;
            } else {
                run = 1;
                prev = Some(h);
            }
            best = best.max(run);
        }
        best
    }

    /// Returns `true` if the collapsed path visits any AS twice — a routing
    /// loop, which a correct BGP speaker must reject.
    ///
    /// ```
    /// # use aspp_types::AsPath;
    /// assert!("1 2 1".parse::<AsPath>().unwrap().has_loop());
    /// assert!(!"1 2 2 3".parse::<AsPath>().unwrap().has_loop());
    /// ```
    #[must_use]
    pub fn has_loop(&self) -> bool {
        let collapsed = self.collapsed();
        for (i, a) in collapsed.iter().enumerate() {
            if collapsed[i + 1..].contains(a) {
                return true;
            }
        }
        false
    }

    /// Returns `true` if `asn` appears anywhere on the path.
    #[must_use]
    pub fn contains(&self, asn: Asn) -> bool {
        self.hops.contains(&asn)
    }

    /// Prepends `asn` once to the front of the path (normal propagation).
    pub fn prepend(&mut self, asn: Asn) {
        self.hops.insert(0, asn);
    }

    /// Prepends `asn` `count` times (traffic-engineering padding).
    ///
    /// ```
    /// # use aspp_types::{Asn, AsPath};
    /// let mut p = AsPath::origin_with_padding(Asn(1), 1);
    /// p.prepend_n(Asn(2), 3);
    /// assert_eq!(p.to_string(), "2 2 2 1");
    /// ```
    pub fn prepend_n(&mut self, asn: Asn, count: usize) {
        for _ in 0..count {
            self.hops.insert(0, asn);
        }
    }

    /// Returns a copy of the path with `asn` prepended once.
    #[must_use]
    pub fn prepended(&self, asn: Asn) -> AsPath {
        let mut hops = Vec::with_capacity(self.hops.len() + 1);
        hops.push(asn);
        hops.extend_from_slice(&self.hops);
        AsPath { hops }
    }

    /// The ASPP-interception primitive: removes origin padding down to `keep`
    /// copies and returns how many were removed. Keeping at least one copy
    /// preserves the legitimate origin — the property that makes the attack
    /// invisible to MOAS detectors.
    ///
    /// ```
    /// # use aspp_types::AsPath;
    /// let mut p: AsPath = "9318 32934 32934 32934 32934 32934".parse().unwrap();
    /// assert_eq!(p.strip_origin_padding(1), 4);
    /// assert_eq!(p.to_string(), "9318 32934");
    /// // Idempotent once stripped.
    /// assert_eq!(p.strip_origin_padding(1), 0);
    /// ```
    pub fn strip_origin_padding(&mut self, keep: usize) -> usize {
        let keep = keep.max(1);
        let padding = self.origin_padding();
        if padding <= keep {
            return 0;
        }
        let remove = padding - keep;
        self.hops.truncate(self.hops.len() - remove);
        remove
    }

    /// Removes **every** run of consecutive duplicates, collapsing origin
    /// *and* intermediary prepending alike, and returns how many copies were
    /// removed. The paper notes the attack generalizes this way: "the
    /// prepending is not limited to the origin AS. It can be any ASes who
    /// perform AS path prepending before the attacker."
    ///
    /// ```
    /// # use aspp_types::AsPath;
    /// let mut p: AsPath = "7 4 4 4 9 1 1".parse().unwrap();
    /// assert_eq!(p.strip_all_padding(), 3);
    /// assert_eq!(p.to_string(), "7 4 9 1");
    /// ```
    pub fn strip_all_padding(&mut self) -> usize {
        let before = self.hops.len();
        let collapsed = self.collapsed();
        self.hops = collapsed;
        before - self.hops.len()
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for h in &self.hops {
            if !first {
                f.write_str(" ")?;
            }
            write!(f, "{h}")?;
            first = false;
        }
        Ok(())
    }
}

impl FromStr for AsPath {
    type Err = ParseAsPathError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut hops = Vec::new();
        for token in s.split_whitespace() {
            let asn = token
                .parse::<Asn>()
                .map_err(|_| ParseAsPathError::new(token))?;
            hops.push(asn);
        }
        Ok(AsPath { hops })
    }
}

impl FromIterator<Asn> for AsPath {
    fn from_iter<I: IntoIterator<Item = Asn>>(iter: I) -> Self {
        AsPath::from_hops(iter)
    }
}

impl Extend<Asn> for AsPath {
    fn extend<I: IntoIterator<Item = Asn>>(&mut self, iter: I) {
        self.hops.extend(iter);
    }
}

impl<'a> IntoIterator for &'a AsPath {
    type Item = &'a Asn;
    type IntoIter = core::slice::Iter<'a, Asn>;

    fn into_iter(self) -> Self::IntoIter {
        self.hops.iter()
    }
}

impl IntoIterator for AsPath {
    type Item = Asn;
    type IntoIter = std::vec::IntoIter<Asn>;

    fn into_iter(self) -> Self::IntoIter {
        self.hops.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(s: &str) -> AsPath {
        s.parse().unwrap()
    }

    #[test]
    fn empty_path_properties() {
        let e = AsPath::new();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert_eq!(e.unique_len(), 0);
        assert_eq!(e.origin(), None);
        assert_eq!(e.first(), None);
        assert_eq!(e.origin_padding(), 0);
        assert!(!e.has_prepending());
        assert!(!e.has_loop());
        assert_eq!(e.to_string(), "");
    }

    #[test]
    #[should_panic(expected = "at least once")]
    fn zero_padding_origin_panics() {
        let _ = AsPath::origin_with_padding(Asn(1), 0);
    }

    #[test]
    fn facebook_anomaly_paths() {
        // Normal 7-hop route with 5 origin copies.
        let normal = p("7018 3356 32934 32934 32934 32934 32934");
        assert_eq!(normal.len(), 7);
        assert_eq!(normal.unique_len(), 3);
        assert_eq!(normal.origin_padding(), 5);

        // Anomalous route: 2 prepends stripped, detour via 9318/4134.
        let anomalous = p("7018 4134 9318 32934 32934 32934");
        assert_eq!(anomalous.len(), 6);
        assert_eq!(anomalous.origin_padding(), 3);
        assert!(
            anomalous.len() < normal.len(),
            "the bogus route wins on length"
        );
        assert!(
            anomalous.unique_len() > normal.unique_len(),
            "but is physically longer"
        );
    }

    #[test]
    fn strip_keeps_at_least_one_copy() {
        let mut path = p("1 2 2 2 2");
        assert_eq!(path.strip_origin_padding(0), 3); // keep=0 clamps to 1
        assert_eq!(path.to_string(), "1 2");
    }

    #[test]
    fn strip_respects_keep_count() {
        let mut path = p("9 5 5 5 5 5");
        assert_eq!(path.strip_origin_padding(3), 2);
        assert_eq!(path.to_string(), "9 5 5 5");
        assert_eq!(path.strip_origin_padding(3), 0);
    }

    #[test]
    fn strip_noop_when_not_padded() {
        let mut path = p("1 2 3");
        assert_eq!(path.strip_origin_padding(1), 0);
        assert_eq!(path.to_string(), "1 2 3");
    }

    #[test]
    fn strip_only_touches_tail_padding() {
        // Intermediary prepending of 4134 must survive an origin strip.
        let mut path = p("4134 4134 9318 32934 32934");
        assert_eq!(path.strip_origin_padding(1), 1);
        assert_eq!(path.to_string(), "4134 4134 9318 32934");
    }

    #[test]
    fn padding_measurements() {
        let path = p("1 2 2 3 3 3 3");
        assert_eq!(path.max_padding(), 4);
        assert_eq!(path.origin_padding(), 4);
        assert!(path.has_prepending());
    }

    #[test]
    fn prepend_operations() {
        let mut path = AsPath::origin_with_padding(Asn(32934), 1);
        path.prepend_n(Asn(32934), 4); // origin pads itself 4 more times
        path.prepend(Asn(3356));
        path.prepend(Asn(7018));
        assert_eq!(path.to_string(), "7018 3356 32934 32934 32934 32934 32934");
        let copy = path.prepended(Asn(2914));
        assert_eq!(copy.first(), Some(Asn(2914)));
        assert_eq!(path.first(), Some(Asn(7018)), "prepended must not mutate");
    }

    #[test]
    fn loops_detected_across_prepends() {
        assert!(p("1 2 2 3 1").has_loop());
        assert!(!p("1 1 2 2 3 3").has_loop());
    }

    #[test]
    fn from_iterator_and_extend() {
        let path: AsPath = [Asn(1), Asn(2)].into_iter().collect();
        assert_eq!(path.to_string(), "1 2");
        let mut path = path;
        path.extend([Asn(3)]);
        assert_eq!(path.to_string(), "1 2 3");
        let hops: Vec<Asn> = (&path).into_iter().copied().collect();
        assert_eq!(hops, vec![Asn(1), Asn(2), Asn(3)]);
    }

    #[test]
    fn parse_rejects_bad_tokens() {
        assert!("1 x 3".parse::<AsPath>().is_err());
        let err = "1 {2,3}".parse::<AsPath>().unwrap_err();
        assert_eq!(err.token(), "{2,3}");
    }

    proptest! {
        #[test]
        fn prop_display_parse_round_trip(hops in proptest::collection::vec(0u32..100_000, 0..16)) {
            let path = AsPath::from_hops(hops.iter().copied().map(Asn));
            let parsed: AsPath = path.to_string().parse().unwrap();
            prop_assert_eq!(parsed, path);
        }

        #[test]
        fn prop_strip_never_removes_origin(
            origin in 1u32..1000, pad in 1usize..12, keep in 0usize..12,
            transit in proptest::collection::vec(1001u32..2000, 0..6)
        ) {
            let mut path = AsPath::origin_with_padding(Asn(origin), pad);
            for t in transit {
                path.prepend(Asn(t));
            }
            let before_unique = path.unique_len();
            path.strip_origin_padding(keep);
            prop_assert_eq!(path.origin(), Some(Asn(origin)));
            prop_assert_eq!(path.unique_len(), before_unique);
            prop_assert!(path.origin_padding() >= keep.max(1).min(pad));
        }

        #[test]
        fn prop_unique_len_invariant_under_padding(
            hops in proptest::collection::vec(1u32..50, 1..8), extra in 1usize..5
        ) {
            let base = AsPath::from_hops(hops.iter().copied().map(Asn));
            let mut padded = base.clone();
            let first = base.first().unwrap();
            padded.prepend_n(first, extra);
            prop_assert_eq!(padded.unique_len(), base.unique_len());
            prop_assert_eq!(padded.len(), base.len() + extra);
        }

        #[test]
        fn prop_collapsed_has_no_adjacent_duplicates(
            hops in proptest::collection::vec(1u32..10, 0..20)
        ) {
            let path = AsPath::from_hops(hops.iter().copied().map(Asn));
            let collapsed = path.collapsed();
            prop_assert!(collapsed.windows(2).all(|w| w[0] != w[1]));
            prop_assert_eq!(collapsed.len(), path.unique_len());
        }
    }
}
