//! The MRT-like on-disk corpus format.
//!
//! A corpus is a line-oriented text document:
//!
//! ```text
//! # comments and blank lines are ignored
//! TABLE|<monitor_asn>|<prefix>|<as path>
//! UPDATE|<seq>|<monitor_asn>|A|<prefix>|<as path>
//! UPDATE|<seq>|<monitor_asn>|W|<prefix>
//! ```
//!
//! `TABLE` lines are RIB snapshots (one best route per monitor and prefix);
//! `UPDATE` lines are announcements (`A`) or withdrawals (`W`) in sequence
//! order — the same two views RouteViews/RIPE publish.

use std::collections::BTreeMap;

use aspp_routing::RouteTable;
use aspp_types::{AsPath, Asn, AsppError, IngestReport, Ipv4Prefix};

/// An update stream record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdateRecord {
    /// Monotonic sequence number within the corpus.
    pub seq: u64,
    /// The monitor that logged the update.
    pub monitor: Asn,
    /// The affected prefix.
    pub prefix: Ipv4Prefix,
    /// Announcement or withdrawal.
    pub action: UpdateAction,
}

/// The body of an update.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UpdateAction {
    /// A new best path was announced.
    Announce(AsPath),
    /// The route was withdrawn.
    Withdraw,
}

impl UpdateRecord {
    /// The announced path, if this is an announcement.
    #[must_use]
    pub fn path(&self) -> Option<&AsPath> {
        match &self.action {
            UpdateAction::Announce(p) => Some(p),
            UpdateAction::Withdraw => None,
        }
    }
}

/// A full corpus: per-monitor RIB snapshots plus an update stream.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Corpus {
    tables: BTreeMap<Asn, RouteTable>,
    updates: Vec<UpdateRecord>,
}

/// How [`Corpus::parse_with`] treats records that parse but are suspect:
/// conflicting duplicate `TABLE` rows and non-increasing `UPDATE` sequence
/// numbers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ParseMode {
    /// Reject suspect records with a line-numbered error.
    Strict,
    /// Keep going: skip malformed lines, resolve conflicting duplicates
    /// first-wins, and account for everything in an [`IngestReport`].
    Lenient,
}

impl Corpus {
    /// Creates an empty corpus.
    #[must_use]
    pub fn new() -> Self {
        Corpus::default()
    }

    /// Inserts one table entry.
    pub fn add_table_entry(&mut self, monitor: Asn, prefix: Ipv4Prefix, path: AsPath) {
        self.tables.entry(monitor).or_default().insert(prefix, path);
    }

    /// Appends an update record.
    pub fn add_update(&mut self, update: UpdateRecord) {
        self.updates.push(update);
    }

    /// The RIB snapshot of `monitor`, if it contributed one.
    #[must_use]
    pub fn table_of(&self, monitor: Asn) -> Option<&RouteTable> {
        self.tables.get(&monitor)
    }

    /// Iterates over `(monitor, table)` pairs in ascending monitor order.
    pub fn tables(&self) -> impl Iterator<Item = (Asn, &RouteTable)> {
        self.tables.iter().map(|(&m, t)| (m, t))
    }

    /// All monitors contributing tables.
    pub fn monitors(&self) -> impl Iterator<Item = Asn> + '_ {
        self.tables.keys().copied()
    }

    /// The update stream in sequence order.
    #[must_use]
    pub fn updates(&self) -> &[UpdateRecord] {
        &self.updates
    }

    /// Total number of table entries across monitors.
    #[must_use]
    pub fn table_entry_count(&self) -> usize {
        self.tables.values().map(RouteTable::len).sum()
    }

    /// Serializes to the line-oriented text format.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# aspp corpus v1\n");
        for (monitor, table) in &self.tables {
            for (prefix, path) in table.iter() {
                out.push_str(&format!("TABLE|{monitor}|{prefix}|{path}\n"));
            }
        }
        for u in &self.updates {
            match &u.action {
                UpdateAction::Announce(path) => out.push_str(&format!(
                    "UPDATE|{}|{}|A|{}|{}\n",
                    u.seq, u.monitor, u.prefix, path
                )),
                UpdateAction::Withdraw => {
                    out.push_str(&format!("UPDATE|{}|{}|W|{}\n", u.seq, u.monitor, u.prefix));
                }
            }
        }
        out
    }

    /// Parses the text format produced by [`to_text`](Self::to_text),
    /// strictly: malformed lines, conflicting duplicate `TABLE` rows (same
    /// monitor and prefix, different path) and non-increasing `UPDATE`
    /// sequence numbers are all rejected.
    ///
    /// # Errors
    ///
    /// Returns a line-numbered [`AsppError`] for the first invalid record.
    ///
    /// # Example
    ///
    /// ```
    /// use aspp_data::Corpus;
    ///
    /// let text = "TABLE|7018|10.0.0.0/8|7018 1\nTABLE|7018|10.0.0.0/8|7018 2\n";
    /// let err = Corpus::parse_strict(text).unwrap_err();
    /// assert_eq!(err.line(), Some(2));
    /// assert!(err.to_string().contains("conflicting"));
    /// ```
    pub fn parse_strict(text: &str) -> Result<Self, AsppError> {
        Self::parse_with(text, ParseMode::Strict).map(|(corpus, _)| corpus)
    }

    /// Lenient twin of [`parse_strict`](Self::parse_strict): never fails,
    /// instead *accounting* for every record in the returned
    /// [`IngestReport`] — malformed lines are skipped with a line-numbered
    /// note, conflicting duplicate `TABLE` rows are resolved with
    /// deterministic first-wins precedence, and out-of-order updates are
    /// kept but counted as conflicts. `report.total()` always equals the
    /// number of non-comment record lines: nothing is silently dropped.
    ///
    /// # Example
    ///
    /// ```
    /// use aspp_data::Corpus;
    ///
    /// let text = "TABLE|7018|10.0.0.0/8|7018 1\nTABLE|7018|10.0.0.0/8|7018 2\nnot a record\n";
    /// let (corpus, report) = Corpus::parse_lenient(text);
    /// // First-wins: the first TABLE row for the (monitor, prefix) stays.
    /// assert_eq!(corpus.table_entry_count(), 1);
    /// assert_eq!((report.accepted, report.conflicts, report.skipped), (1, 1, 1));
    /// ```
    #[must_use]
    pub fn parse_lenient(text: &str) -> (Self, IngestReport) {
        Self::parse_with(text, ParseMode::Lenient).expect("lenient parse never fails")
    }

    fn parse_with(text: &str, mode: ParseMode) -> Result<(Self, IngestReport), AsppError> {
        let mut corpus = Corpus::new();
        let mut report = IngestReport::default();
        let mut last_seq: Option<u64> = None;
        macro_rules! reject {
            ($line_no:expr, $msg:expr) => {{
                if mode == ParseMode::Lenient {
                    report.skip($line_no, $msg);
                    continue;
                }
                return Err(AsppError::at_line("corpus", $line_no, $msg));
            }};
        }
        for (i, line) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('|').collect();
            match fields.first().copied() {
                Some("TABLE") => {
                    if fields.len() != 4 {
                        reject!(line_no, "TABLE needs 4 fields");
                    }
                    let monitor: Asn = match fields[1].parse() {
                        Ok(v) => v,
                        Err(e) => reject!(line_no, format!("{e}")),
                    };
                    let prefix: Ipv4Prefix = match fields[2].parse() {
                        Ok(v) => v,
                        Err(e) => reject!(line_no, format!("{e}")),
                    };
                    let path: AsPath = match fields[3].parse() {
                        Ok(v) => v,
                        Err(e) => reject!(line_no, format!("{e}")),
                    };
                    match corpus.tables.get(&monitor).and_then(|t| t.get(&prefix)) {
                        Some(existing) if *existing != path => match mode {
                            ParseMode::Strict => {
                                return Err(AsppError::at_line(
                                    "corpus",
                                    line_no,
                                    format!("conflicting duplicate TABLE row {monitor}|{prefix}"),
                                ));
                            }
                            ParseMode::Lenient => report.conflict(
                                line_no,
                                format!(
                                    "conflicting duplicate TABLE row {monitor}|{prefix}: kept first path"
                                ),
                            ),
                        },
                        _ => {
                            corpus.add_table_entry(monitor, prefix, path);
                            report.accept();
                        }
                    }
                }
                Some("UPDATE") => {
                    if fields.len() < 5 {
                        reject!(line_no, "UPDATE needs 5+ fields");
                    }
                    let seq: u64 = match fields[1].parse() {
                        Ok(v) => v,
                        Err(_) => reject!(line_no, "bad sequence number"),
                    };
                    let monitor: Asn = match fields[2].parse() {
                        Ok(v) => v,
                        Err(e) => reject!(line_no, format!("{e}")),
                    };
                    let action = match fields[3] {
                        "A" => {
                            if fields.len() != 6 {
                                reject!(line_no, "announce needs 6 fields");
                            }
                            match fields[5].parse::<AsPath>() {
                                Ok(path) => UpdateAction::Announce(path),
                                Err(e) => reject!(line_no, format!("{e}")),
                            }
                        }
                        "W" => {
                            if fields.len() != 5 {
                                reject!(line_no, "withdraw needs 5 fields");
                            }
                            UpdateAction::Withdraw
                        }
                        other => {
                            reject!(line_no, format!("unknown action {other:?}"));
                        }
                    };
                    let prefix: Ipv4Prefix = match fields[4].parse() {
                        Ok(v) => v,
                        Err(e) => reject!(line_no, format!("{e}")),
                    };
                    let out_of_order = last_seq.is_some_and(|last| seq <= last);
                    if out_of_order && mode == ParseMode::Strict {
                        return Err(AsppError::at_line(
                            "corpus",
                            line_no,
                            format!(
                                "non-increasing sequence number {seq} (previous {})",
                                last_seq.expect("out_of_order implies previous")
                            ),
                        ));
                    }
                    last_seq = Some(last_seq.map_or(seq, |last| last.max(seq)));
                    corpus.add_update(UpdateRecord {
                        seq,
                        monitor,
                        prefix,
                        action,
                    });
                    if out_of_order && mode == ParseMode::Lenient {
                        report.conflict(
                            line_no,
                            format!("non-increasing sequence number {seq}: kept in stream order"),
                        );
                    } else {
                        report.accept();
                    }
                }
                Some(other) => {
                    reject!(line_no, format!("unknown record type {other:?}"));
                }
                None => {}
            }
        }
        Ok((corpus, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Corpus {
        let mut c = Corpus::new();
        c.add_table_entry(
            Asn(7018),
            "69.171.224.0/20".parse().unwrap(),
            "7018 3356 32934 32934".parse().unwrap(),
        );
        c.add_table_entry(
            Asn(2914),
            "69.171.224.0/20".parse().unwrap(),
            "2914 3356 32934 32934".parse().unwrap(),
        );
        c.add_update(UpdateRecord {
            seq: 1,
            monitor: Asn(7018),
            prefix: "69.171.224.0/20".parse().unwrap(),
            action: UpdateAction::Announce("7018 4134 9318 32934".parse().unwrap()),
        });
        c.add_update(UpdateRecord {
            seq: 2,
            monitor: Asn(7018),
            prefix: "69.171.255.0/24".parse().unwrap(),
            action: UpdateAction::Withdraw,
        });
        c
    }

    #[test]
    fn round_trip() {
        let c = sample();
        let text = c.to_text();
        let parsed = Corpus::parse_strict(&text).unwrap();
        assert_eq!(parsed, c);
    }

    #[test]
    fn accessors() {
        let c = sample();
        assert_eq!(c.table_entry_count(), 2);
        assert_eq!(c.monitors().count(), 2);
        assert_eq!(c.updates().len(), 2);
        assert!(c.table_of(Asn(7018)).is_some());
        assert!(c.table_of(Asn(9999)).is_none());
        assert!(c.updates()[0].path().is_some());
        assert!(c.updates()[1].path().is_none());
    }

    #[test]
    fn parse_skips_comments_and_blanks() {
        let text = "# header\n\n  \nTABLE|1|10.0.0.0/8|1 2\n";
        let c = Corpus::parse_strict(text).unwrap();
        assert_eq!(c.table_entry_count(), 1);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let cases = [
            ("BOGUS|1", 1),
            ("# ok\nTABLE|x|10.0.0.0/8|1", 2),
            ("TABLE|1|10.0.0.0/8", 1),
            ("UPDATE|1|2|A|10.0.0.0/8", 1),
            ("UPDATE|a|2|W|10.0.0.0/8", 1),
            ("UPDATE|1|2|X|10.0.0.0/8", 1),
            ("TABLE|1|10.0.0.1/8|1", 1),
        ];
        for (text, line) in cases {
            let err = Corpus::parse_strict(text).unwrap_err();
            assert_eq!(err.line(), Some(line), "for {text:?}: {err}");
        }
    }

    #[test]
    fn strict_rejects_conflicting_table_rows_and_seq_regressions() {
        let dup = "TABLE|7018|10.0.0.0/8|7018 1\nTABLE|7018|10.0.0.0/8|7018 2\n";
        let err = Corpus::parse_strict(dup).unwrap_err();
        assert_eq!(err.component(), "corpus");
        assert_eq!(err.line(), Some(2));

        let seqs = "UPDATE|5|1|W|10.0.0.0/8\nUPDATE|5|1|W|10.0.0.0/8\n";
        let err = Corpus::parse_strict(seqs).unwrap_err();
        assert_eq!(err.line(), Some(2));
        assert!(err.to_string().contains("non-increasing"));

        // Identical duplicates and increasing sequences stay accepted.
        let ok = "TABLE|7018|10.0.0.0/8|7018 1\nTABLE|7018|10.0.0.0/8|7018 1\n\
                  UPDATE|1|1|W|10.0.0.0/8\nUPDATE|2|1|W|10.0.0.0/8\n";
        assert!(Corpus::parse_strict(ok).is_ok());
    }

    #[test]
    fn strict_round_trips_generated_output() {
        let text = sample().to_text();
        let parsed = Corpus::parse_strict(&text).unwrap();
        assert_eq!(parsed, sample());
    }

    #[test]
    fn lenient_resolves_conflicts_first_wins_and_accounts_for_all_records() {
        let text = "TABLE|7018|10.0.0.0/8|7018 1\n\
                    TABLE|7018|10.0.0.0/8|7018 2\n\
                    garbage line\n\
                    UPDATE|9|1|A|10.0.0.0/8|1 2\n\
                    UPDATE|3|1|W|10.0.0.0/8\n";
        let (c, report) = Corpus::parse_lenient(text);
        // First path wins the TABLE conflict.
        let path = c
            .table_of(Asn(7018))
            .and_then(|t| t.get(&"10.0.0.0/8".parse().unwrap()))
            .unwrap();
        assert_eq!(path.to_string(), "7018 1");
        // The out-of-order withdraw is kept, but flagged.
        assert_eq!(c.updates().len(), 2);
        assert_eq!(report.accepted, 2);
        assert_eq!(report.conflicts, 2);
        assert_eq!(report.skipped, 1);
        assert_eq!(report.total(), 5);
        assert!(report.notes.iter().any(|n| n.contains("TABLE row")));
        assert!(report.notes.iter().any(|n| n.contains("non-increasing")));
    }

    #[test]
    fn lenient_is_clean_on_generated_output() {
        let (parsed, report) = Corpus::parse_lenient(&sample().to_text());
        assert_eq!(parsed, sample());
        assert!(report.is_clean());
        assert_eq!(report.accepted, 4);
    }

    proptest! {
        #[test]
        fn prop_round_trip(
            entries in proptest::collection::vec(
                (1u32..1000, any::<u32>(), 8u8..=32,
                 proptest::collection::vec(1u32..100_000, 1..8)),
                0..20
            )
        ) {
            let mut c = Corpus::new();
            for (monitor, addr, len, path) in entries {
                c.add_table_entry(
                    Asn(monitor),
                    Ipv4Prefix::containing(addr, len),
                    path.into_iter().map(Asn).collect(),
                );
            }
            let parsed = Corpus::parse_strict(&c.to_text()).unwrap();
            prop_assert_eq!(parsed, c);
        }
    }
}
