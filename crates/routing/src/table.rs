//! Per-AS routing tables: the best path a monitor holds per prefix.

use std::collections::BTreeMap;

use aspp_types::{AsPath, Ipv4Prefix};

/// A BGP routing table: best path per prefix, keyed by exact prefix. This
/// is the structure behind the MRT-like monitor dumps in the corpus crate
/// and the per-monitor views consumed by the detector; the data plane's
/// longest-prefix match is `aspp_dataplane::lpm`.
///
/// # Example
///
/// ```
/// use aspp_routing::RouteTable;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut table = RouteTable::new();
/// table.insert("10.0.0.0/8".parse()?, "1 2 2".parse()?);
/// table.insert("10.1.0.0/16".parse()?, "1 3".parse()?);
/// assert_eq!(table.get(&"10.1.0.0/16".parse()?).unwrap().to_string(), "1 3");
/// assert_eq!(table.prepending_fraction(), 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouteTable {
    entries: BTreeMap<Ipv4Prefix, AsPath>,
}

impl RouteTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        RouteTable::default()
    }

    /// Number of prefixes in the table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the table has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Installs (or replaces) the best path for `prefix`, returning the
    /// previous path if one existed.
    pub fn insert(&mut self, prefix: Ipv4Prefix, path: AsPath) -> Option<AsPath> {
        self.entries.insert(prefix, path)
    }

    /// The exact-match path for `prefix`, if present.
    #[must_use]
    pub fn get(&self, prefix: &Ipv4Prefix) -> Option<&AsPath> {
        self.entries.get(prefix)
    }

    /// Iterates over `(prefix, path)` entries in prefix order.
    pub fn iter(&self) -> impl Iterator<Item = (Ipv4Prefix, &AsPath)> {
        self.entries.iter().map(|(&p, path)| (p, path))
    }

    /// Fraction of entries whose path shows prepending — the per-monitor
    /// quantity behind the paper's Figure 5.
    #[must_use]
    pub fn prepending_fraction(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        let padded = self.entries.values().filter(|p| p.has_prepending()).count();
        padded as f64 / self.entries.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(entries: &[(&str, &str)]) -> RouteTable {
        let mut t = RouteTable::new();
        for (p, path) in entries {
            t.insert(p.parse().unwrap(), path.parse().unwrap());
        }
        t
    }

    #[test]
    fn empty_table_is_unpadded() {
        let t = RouteTable::new();
        assert!(t.is_empty());
        assert_eq!(t.prepending_fraction(), 0.0);
    }

    #[test]
    fn insert_replaces() {
        let mut t = RouteTable::new();
        let p: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        assert_eq!(t.insert(p, "1".parse().unwrap()), None);
        let old = t.insert(p, "2 1".parse().unwrap()).unwrap();
        assert_eq!(old.to_string(), "1");
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&p).unwrap().to_string(), "2 1");
    }

    #[test]
    fn prepending_fraction_counts_padded_paths() {
        let t = table(&[
            ("10.0.0.0/8", "1 2 2 2"),
            ("11.0.0.0/8", "1 2"),
            ("12.0.0.0/8", "3 3 4"),
            ("13.0.0.0/8", "5"),
        ]);
        assert!((t.prepending_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn iteration_in_prefix_order() {
        let t = table(&[("11.0.0.0/8", "1"), ("10.0.0.0/8", "2")]);
        let prefixes: Vec<String> = t.iter().map(|(p, _)| p.to_string()).collect();
        assert_eq!(prefixes, vec!["10.0.0.0/8", "11.0.0.0/8"]);
    }
}
