//! Wire-codec robustness: arbitrary update-record sequences survive
//! encode→frame→decode bit-identically, any single-bit corruption of
//! the encoded stream yields a frame-indexed `AsppError` (component
//! `"feed"`) — never a panic, never a silently wrong record — and
//! lenient decoding of a stream truncated at any byte offset keeps the
//! `IngestReport` accounting identity `accepted + skipped == declared`.

use aspp_core::data::{UpdateAction, UpdateRecord};
use aspp_core::feed::{decode_records, decode_records_lenient, encode_records, FrameReader};
use aspp_core::prelude::*;
use proptest::prelude::*;

/// Raw draws for one record: `(seq, monitor, addr, plen, tag, hops)`;
/// tag 0 is a withdrawal, anything else announces `hops`.
type RawRecord = (u64, u32, u32, u8, u8, Vec<u32>);

fn record_strategy() -> impl Strategy<Value = Vec<RawRecord>> {
    proptest::collection::vec(
        (
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            0u8..=32,
            0u8..2,
            proptest::collection::vec(any::<u32>(), 1..12),
        ),
        0..20,
    )
}

fn build_records(raw: &[RawRecord]) -> Vec<UpdateRecord> {
    raw.iter()
        .map(|(seq, monitor, addr, plen, tag, hops)| UpdateRecord {
            seq: *seq,
            monitor: Asn(*monitor),
            prefix: Ipv4Prefix::containing(*addr, *plen),
            action: if *tag == 0 {
                UpdateAction::Withdraw
            } else {
                UpdateAction::Announce(AsPath::from_hops(hops.iter().copied().map(Asn)))
            },
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roundtrip_is_bit_identical(raw in record_strategy()) {
        let records = build_records(&raw);
        let bytes = encode_records(&records);
        prop_assert_eq!(decode_records(&bytes).unwrap(), records.clone());

        // The incremental reader agrees with the one-shot decoder.
        let reader = FrameReader::new(&bytes).unwrap();
        prop_assert_eq!(reader.declared_records() as usize, records.len());
        let incremental: Result<Vec<_>, _> = reader.collect();
        prop_assert_eq!(incremental.unwrap(), records.clone());

        // Lenient decoding of a clean stream accepts everything.
        let (lenient, report) = decode_records_lenient(&bytes);
        prop_assert_eq!(lenient, records);
        prop_assert!(report.is_clean());
    }

    #[test]
    fn single_bit_corruption_errors_never_panics(
        raw in record_strategy(),
        pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        let records = build_records(&raw);
        let mut bytes = encode_records(&records);
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;

        let err = decode_records(&bytes).expect_err("corruption must not decode");
        prop_assert_eq!(err.component(), "feed");
        // Corruption past the 16-byte header is always frame-indexed;
        // header corruption is a stream-level error without a frame number.
        if pos >= 16 {
            let frame = err.line().expect("frame-indexed error");
            prop_assert!(frame >= 1 && frame <= records.len());
        }

        // The lenient path never panics either, and never claims a clean
        // stream: whatever decodes before the corrupt frame is accounted
        // alongside the skips.
        let (partial, report) = decode_records_lenient(&bytes);
        prop_assert!(!report.is_clean());
        prop_assert!(partial.len() <= records.len());
        prop_assert_eq!(partial.as_slice(), &records[..partial.len()]);
    }

    #[test]
    fn truncation_preserves_the_accounting_identity(
        raw in record_strategy(),
        cut in any::<usize>(),
    ) {
        let records = build_records(&raw);
        let bytes = encode_records(&records);
        let cut = cut % bytes.len();
        let truncated = &bytes[..cut];

        let (decoded, report) = decode_records_lenient(truncated);
        prop_assert_eq!(decoded.len(), report.accepted);
        prop_assert_eq!(decoded.as_slice(), &records[..decoded.len()]);

        if cut < 16 {
            // Mid-header cut: the declared count itself is unreadable, so
            // the only defensible accounting is zero accepts and one skip
            // marking the unreadable stream.
            prop_assert_eq!(report.accepted, 0);
            prop_assert_eq!(report.skipped, 1);
            prop_assert!(decoded.is_empty());
        } else {
            // Mid-frame cut: the header survives, so every declared record
            // must be accounted for — decoded prefix plus skips covering
            // the truncated frame and everything it made unreachable.
            let declared = FrameReader::new(&bytes)
                .unwrap()
                .declared_records() as usize;
            prop_assert_eq!(records.len(), declared);
            prop_assert_eq!(
                report.accepted + report.skipped,
                declared,
                "accepted={} skipped={} declared={} cut={}",
                report.accepted, report.skipped, declared, cut
            );
            // A proper prefix always loses at least the final record.
            prop_assert!(report.skipped >= 1);
            prop_assert!(!report.is_clean());
        }
    }
}
