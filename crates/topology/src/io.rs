//! Reading and writing AS topologies in the CAIDA serial-2 relationship
//! format.
//!
//! The paper's topology comes from relationship inference over RouteViews
//! data, cross-checked against CAIDA's published graphs. CAIDA distributes
//! those as line-oriented text:
//!
//! ```text
//! # comments start with '#'
//! <provider-as>|<customer-as>|-1
//! <peer-as>|<peer-as>|0
//! <sibling-as>|<sibling-as>|2      (extension used by some datasets)
//! ```
//!
//! With this module a user can run every experiment in this workspace on a
//! real CAIDA `as-rel` snapshot instead of the synthetic generator.

use aspp_types::{Asn, AsppError, IngestReport, Relationship};

use crate::{AsGraph, AsGraphBuilder, GraphError};

/// Parses a CAIDA serial-2 style relationship file, strictly: malformed
/// records, unknown relationship codes, self-loops and conflicting duplicate
/// links are rejected (duplicates that agree are tolerated).
///
/// # Errors
///
/// Returns a line-numbered [`AsppError`] for the first invalid record.
///
/// # Example
///
/// ```
/// use aspp_topology::io::from_caida_strict;
/// use aspp_types::{Asn, Relationship};
///
/// let graph = from_caida_strict("# as-rel\n3356|32934|-1\n7018|3356|0\n").unwrap();
/// assert_eq!(graph.relationship(Asn(3356), Asn(32934)), Some(Relationship::Customer));
/// assert_eq!(graph.relationship(Asn(7018), Asn(3356)), Some(Relationship::Peer));
///
/// let err = from_caida_strict("1|2|-1\n1|2|0\n").unwrap_err();
/// assert_eq!(err.line(), Some(2));
/// assert!(err.to_string().contains("conflicting"));
/// ```
pub fn from_caida_strict(text: &str) -> Result<AsGraph, AsppError> {
    parse_caida(text, true).map(|(graph, _)| graph)
}

/// Lenient twin of [`from_caida_strict`]: never fails, instead *accounting*
/// for every record in the returned [`IngestReport`] — malformed lines are
/// skipped with a line-numbered note, and conflicting duplicate edges are
/// resolved with deterministic first-wins precedence (the relationship seen
/// first stays) and counted as conflicts. `report.total()` always equals the
/// number of non-comment record lines: nothing is silently dropped.
///
/// # Example
///
/// ```
/// use aspp_topology::io::from_caida_lenient;
/// use aspp_types::{Asn, Relationship};
///
/// let (graph, report) = from_caida_lenient("1|2|-1\n1|2|0\ngarbage\n");
/// // First-wins: the provider-customer record seen first is kept.
/// assert_eq!(graph.relationship(Asn(1), Asn(2)), Some(Relationship::Customer));
/// assert_eq!((report.accepted, report.conflicts, report.skipped), (1, 1, 1));
/// ```
#[must_use]
pub fn from_caida_lenient(text: &str) -> (AsGraph, IngestReport) {
    parse_caida(text, false).expect("lenient parse never fails")
}

fn parse_caida(text: &str, strict: bool) -> Result<(AsGraph, IngestReport), AsppError> {
    let mut graph = AsGraphBuilder::new();
    let mut report = IngestReport::default();
    // In lenient mode a malformed record is skipped (with a note) where
    // strict mode would return; both go through this macro.
    macro_rules! reject {
        ($line_no:expr, $msg:expr) => {{
            if strict {
                return Err(AsppError::at_line("topology", $line_no, $msg));
            }
            report.skip($line_no, $msg);
            continue;
        }};
    }
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('|').collect();
        if fields.len() < 3 {
            reject!(line_no, "need as1|as2|rel");
        }
        let a: Asn = match fields[0].parse() {
            Ok(asn) => asn,
            Err(e) => reject!(line_no, format!("{e}")),
        };
        let b: Asn = match fields[1].parse() {
            Ok(asn) => asn,
            Err(e) => reject!(line_no, format!("{e}")),
        };
        let rel = match fields[2] {
            "-1" => Relationship::Customer, // a is provider of b
            "0" => Relationship::Peer,
            "2" => Relationship::Sibling,
            other => {
                reject!(line_no, format!("unknown relationship code {other:?}"));
            }
        };
        match graph.add_link(a, b, rel) {
            Ok(()) => report.accept(),
            Err(GraphError::DuplicateLink(..)) => {
                // Tolerate exact duplicates; conflicts are rejected in
                // strict mode and resolved first-wins in lenient mode.
                if graph.relationship(a, b) == Some(rel) {
                    report.accept();
                } else if strict {
                    return Err(AsppError::at_line(
                        "topology",
                        line_no,
                        format!("conflicting duplicate link {a}|{b}"),
                    ));
                } else {
                    report.conflict(
                        line_no,
                        format!("conflicting duplicate link {a}|{b}: kept first relationship"),
                    );
                }
            }
            Err(GraphError::SelfLoop(asn)) => {
                reject!(line_no, format!("self-loop on AS{asn}"));
            }
        }
    }
    Ok((graph.finish(), report))
}

/// Serializes a graph to the CAIDA serial-2 format (provider first on `-1`
/// lines), with links in deterministic order.
///
/// # Example
///
/// ```
/// use aspp_topology::io::{from_caida_strict, to_caida};
/// use aspp_topology::gen::InternetConfig;
///
/// let graph = InternetConfig::small().seed(1).build();
/// let text = to_caida(&graph);
/// let reparsed = from_caida_strict(&text).unwrap();
/// assert_eq!(reparsed.len(), graph.len());
/// assert_eq!(reparsed.link_count(), graph.link_count());
/// ```
#[must_use]
pub fn to_caida(graph: &AsGraph) -> String {
    let mut lines: Vec<String> = Vec::with_capacity(graph.link_count());
    for (a, b, rel) in graph.links() {
        let line = match rel {
            Relationship::Customer => format!("{a}|{b}|-1"),
            Relationship::Provider => format!("{b}|{a}|-1"),
            Relationship::Peer => {
                let (x, y) = if a <= b { (a, b) } else { (b, a) };
                format!("{x}|{y}|0")
            }
            Relationship::Sibling => {
                let (x, y) = if a <= b { (a, b) } else { (b, a) };
                format!("{x}|{y}|2")
            }
        };
        lines.push(line);
    }
    lines.sort();
    let mut out = String::from("# aspp topology, CAIDA serial-2 format\n");
    for line in lines {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::InternetConfig;
    use proptest::prelude::*;

    #[test]
    fn round_trip_preserves_every_link() {
        let graph = InternetConfig::small().seed(5).build();
        let reparsed = from_caida_strict(&to_caida(&graph)).unwrap();
        assert_eq!(reparsed.len(), graph.len());
        for (a, b, rel) in graph.links() {
            assert_eq!(reparsed.relationship(a, b), Some(rel), "{a}|{b}");
        }
    }

    #[test]
    fn parses_all_relationship_codes() {
        let g = from_caida_strict("1|2|-1\n2|3|0\n3|4|2\n").unwrap();
        assert_eq!(g.relationship(Asn(1), Asn(2)), Some(Relationship::Customer));
        assert_eq!(g.relationship(Asn(2), Asn(1)), Some(Relationship::Provider));
        assert_eq!(g.relationship(Asn(2), Asn(3)), Some(Relationship::Peer));
        assert_eq!(g.relationship(Asn(3), Asn(4)), Some(Relationship::Sibling));
    }

    #[test]
    fn tolerates_agreeing_duplicates() {
        let g = from_caida_strict("1|2|-1\n1|2|-1\n").unwrap();
        assert_eq!(g.link_count(), 1);
    }

    #[test]
    fn rejects_malformed_lines() {
        for (text, line) in [
            ("1|2", 1),
            ("x|2|-1", 1),
            ("1|y|-1", 1),
            ("1|2|7", 1),
            ("1|1|0", 1),
            ("# ok\n\n1|2|-1\nbroken", 4),
        ] {
            let err = from_caida_strict(text).unwrap_err();
            assert_eq!(err.line(), Some(line), "for {text:?}");
        }
    }

    #[test]
    fn empty_and_comment_only_files_parse() {
        assert!(from_caida_strict("").unwrap().is_empty());
        assert!(from_caida_strict("# nothing here\n\n").unwrap().is_empty());
    }

    #[test]
    fn strict_variant_reports_uniform_line_numbered_errors() {
        let err = from_caida_strict("1|2|-1\n1|2|2\n").unwrap_err();
        assert_eq!(err.component(), "topology");
        assert_eq!(err.line(), Some(2));
        assert!(err.to_string().contains("conflicting duplicate link 1|2"));
        assert!(from_caida_strict("1|2|-1\n").is_ok());
    }

    #[test]
    fn lenient_resolves_conflicts_first_wins_and_counts_them() {
        // Three records for the same link: the first wins, the two
        // conflicting rewrites are counted, and nothing is dropped silently.
        let (g, report) = from_caida_lenient("1|2|0\n1|2|-1\n1|2|2\n2|3|-1\n");
        assert_eq!(g.relationship(Asn(1), Asn(2)), Some(Relationship::Peer));
        assert_eq!(g.link_count(), 2);
        assert_eq!(report.accepted, 2);
        assert_eq!(report.conflicts, 2);
        assert_eq!(report.skipped, 0);
        assert_eq!(report.total(), 4);
        assert!(report.notes.iter().any(|n| n.starts_with("line 2:")));
    }

    #[test]
    fn lenient_skips_malformed_records_with_notes() {
        let text = "# header\n1|2|-1\nnot-a-record\n3|3|0\n4|5|9\nx|6|0\n7|8|0\n";
        let (g, report) = from_caida_lenient(text);
        assert_eq!(g.link_count(), 2);
        assert_eq!(report.accepted, 2);
        assert_eq!(report.skipped, 4);
        assert!(!report.is_clean());
        // Every non-comment record line is accounted for.
        assert_eq!(report.total(), 6);
        assert!(report.notes.iter().any(|n| n.contains("self-loop")));
        assert!(report
            .notes
            .iter()
            .any(|n| n.contains("unknown relationship code")));
    }

    #[test]
    fn lenient_agrees_with_strict_on_clean_input() {
        let graph = InternetConfig::small().seed(9).build();
        let text = to_caida(&graph);
        let strict = from_caida_strict(&text).unwrap();
        let (lenient, report) = from_caida_lenient(&text);
        assert!(report.is_clean());
        assert_eq!(report.accepted, graph.link_count());
        assert_eq!(strict.link_count(), lenient.link_count());
        for (a, b, rel) in strict.links() {
            assert_eq!(lenient.relationship(a, b), Some(rel));
        }
    }

    proptest! {
        #[test]
        fn prop_round_trip(seed in any::<u64>()) {
            let graph = InternetConfig::small()
                .tier2_count(6).tier3_count(6).stub_count(10).seed(seed).build();
            let reparsed = from_caida_strict(&to_caida(&graph)).unwrap();
            prop_assert_eq!(reparsed.link_count(), graph.link_count());
            for (a, b, rel) in graph.links() {
                prop_assert_eq!(reparsed.relationship(a, b), Some(rel));
            }
        }
    }
}
