//! Robustness guarantees for the strict/lenient ingest paths: arbitrarily
//! corrupted CAIDA relationship files and update corpora must either parse
//! or fail with a line-numbered [`AsppError`] — never panic — and the
//! lenient parsers must account for every record line (accepted + conflicts
//! + skipped), never silently dropping input.

use aspp_core::prelude::*;
use aspp_core::topology::io;
use aspp_core::types::AsppError;
use proptest::prelude::*;

/// Non-comment, non-blank lines — the denominators the lenient ingest
/// reports must account for exactly.
fn record_line_count(text: &str) -> usize {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .count()
}

fn base_topology_text(seed: u64) -> String {
    let graph = InternetConfig::small()
        .tier2_count(5)
        .tier3_count(8)
        .stub_count(10)
        .seed(seed)
        .build();
    io::to_caida(&graph)
}

fn base_corpus_text(seed: u64) -> String {
    let graph = InternetConfig::small().seed(seed).build();
    CorpusConfig::new(8)
        .monitors_top_degree(5)
        .seed(seed)
        .generate(&graph)
        .to_text()
}

/// Applies a deterministic sequence of corruption operators to `text`:
/// byte substitution, line duplication/deletion/insertion/swap, and
/// truncation. Everything stays ASCII so indices never split a char.
fn mutate(text: &str, ops: &[(u8, usize, usize)]) -> String {
    const JUNK: &[u8] = b"|x-#0 9A\t";
    let mut out = text.to_string();
    for &(op, a, b) in ops {
        let mut lines: Vec<String> = out.lines().map(str::to_string).collect();
        if lines.is_empty() {
            lines.push(String::new());
        }
        let n = lines.len();
        match op % 6 {
            0 => {
                // Substitute one byte somewhere in a line.
                let line = &mut lines[a % n];
                if !line.is_empty() {
                    let pos = b % line.len();
                    let mut bytes = line.clone().into_bytes();
                    bytes[pos] = JUNK[a.wrapping_add(b) % JUNK.len()];
                    *line = String::from_utf8_lossy(&bytes).into_owned();
                }
            }
            1 => {
                let dup = lines[a % n].clone();
                lines.insert(b % (n + 1), dup);
            }
            2 => {
                lines.remove(a % n);
            }
            3 => {
                let garbage = ["1|2", "1|2|7", "UPDATE|zero", "TABLE|1", "!!"];
                lines.insert(a % (n + 1), garbage[b % garbage.len()].to_string());
            }
            4 => lines.swap(a % n, b % n),
            _ => {
                // Truncate mid-line: everything after is lost.
                let cut = a % n;
                let line = &mut lines[cut];
                if !line.is_empty() {
                    line.truncate(b % line.len());
                }
                lines.truncate(cut + 1);
            }
        }
        out = lines.join("\n");
    }
    out
}

fn assert_line_numbered(e: &AsppError, component: &str, text: &str) {
    assert_eq!(e.component(), component);
    let line = e.line().unwrap_or_else(|| {
        panic!("ingest errors must carry a line number, got: {e}");
    });
    assert!(
        line >= 1 && line <= text.lines().count().max(1),
        "line {line} out of range for input with {} lines",
        text.lines().count()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn corrupted_caida_parses_or_fails_with_line_number(
        seed in 0u64..6,
        ops in proptest::collection::vec(
            (0u8..6, any::<usize>(), any::<usize>()), 0..8),
    ) {
        let text = mutate(&base_topology_text(seed), &ops);
        // Strict: never panics; failures name the offending line.
        match io::from_caida_strict(&text) {
            Ok(graph) => {
                // Clean input must agree with the lenient pass exactly.
                let (lenient, report) = io::from_caida_lenient(&text);
                prop_assert!(report.is_clean());
                prop_assert_eq!(lenient.len(), graph.len());
                prop_assert_eq!(lenient.link_count(), graph.link_count());
            }
            Err(e) => assert_line_numbered(&e, "topology", &text),
        }
        // Lenient: never panics, never silently drops a record line.
        let (_, report) = io::from_caida_lenient(&text);
        prop_assert_eq!(report.total(), record_line_count(&text));
        prop_assert_eq!(report.notes.len(), report.conflicts + report.skipped);
    }

    #[test]
    fn corrupted_corpus_parses_or_fails_with_line_number(
        seed in 0u64..6,
        ops in proptest::collection::vec(
            (0u8..6, any::<usize>(), any::<usize>()), 0..8),
    ) {
        let text = mutate(&base_corpus_text(seed), &ops);
        match Corpus::parse_strict(&text) {
            Ok(corpus) => {
                let (lenient, report) = Corpus::parse_lenient(&text);
                prop_assert!(report.is_clean());
                prop_assert_eq!(
                    lenient.table_entry_count(),
                    corpus.table_entry_count()
                );
                prop_assert_eq!(lenient.updates().len(), corpus.updates().len());
            }
            Err(e) => assert_line_numbered(&e, "corpus", &text),
        }
        let (_, report) = Corpus::parse_lenient(&text);
        prop_assert_eq!(report.total(), record_line_count(&text));
        prop_assert_eq!(report.notes.len(), report.conflicts + report.skipped);
    }
}

/// Pristine generator output is accepted by every mode and judged clean.
#[test]
fn generated_artifacts_pass_strict_ingest() {
    let topo = base_topology_text(2024);
    let graph = io::from_caida_strict(&topo).expect("clean topology");
    assert!(!graph.is_empty());
    let (_, report) = io::from_caida_lenient(&topo);
    assert!(report.is_clean());
    assert_eq!(report.total(), record_line_count(&topo));

    let corpus_text = base_corpus_text(2024);
    Corpus::parse_strict(&corpus_text).expect("clean corpus");
    let (_, report) = Corpus::parse_lenient(&corpus_text);
    assert!(report.is_clean());
    assert_eq!(report.total(), record_line_count(&corpus_text));
}

/// A deliberately corrupted fixture is rejected with the exact offending
/// line (the ISSUE's acceptance fixture: conflicting relationship codes).
#[test]
fn corrupted_fixture_is_rejected_with_line_attribution() {
    let text = "# serial-2\n1|2|-1\n1|2|0\n";
    let err = io::from_caida_strict(text).expect_err("conflict must reject");
    assert_eq!(err.line(), Some(3));
    assert!(err.to_string().contains("conflicting duplicate link 1|2"));

    let corpus = "TABLE|7018|10.0.0.0/8|7018 1\nTABLE|7018|10.0.0.0/8|7018 2 1\n";
    let err = Corpus::parse_strict(corpus).expect_err("conflict must reject");
    assert_eq!(err.line(), Some(2));
    assert!(err.to_string().contains("conflicting duplicate TABLE row"));
}
