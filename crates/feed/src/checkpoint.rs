//! Checkpoint/restore for the resident feed engine.
//!
//! A checkpoint is the engine's whole mutable state — the merged
//! [`DetectorState`] (current/previous path maps plus raised-alarm keys)
//! and the lifetime dispatch [`cursor`](crate::pipeline::FeedEngine::cursor)
//! — in one self-validating binary blob. Crash recovery is then *load the
//! last checkpoint, replay the stream tail from the cursor*: because
//! detector state is a pure function of the records consumed, the resumed
//! run's merged alarms are bit-identical to an uninterrupted run (pinned by
//! the kill-and-resume test in `tests/feed_checkpoint.rs`).
//!
//! The layout follows the feed wire codec's conventions — little-endian,
//! magic + version header, FNV-1a-32 integrity check:
//!
//! ```text
//! checkpoint := magic "ASPPCKPT" (8) | version u16 | flags u16
//!               | checksum u32 | body
//! body       := cursor u64
//!               | count u32 | path_row ...      (current map)
//!               | count u32 | path_row ...      (previous map)
//!               | count u32 | raised_row ...
//! path_row   := addr u32 | prefix_len u8 | monitor u32
//!               | hop_count u16 | hop u32 ...
//! raised_row := addr u32 | prefix_len u8 | suspect u32 | observed_at u32
//! ```
//!
//! The checksum covers the entire body, so any flipped bit is rejected at
//! [`Checkpoint::decode`] before a single row is interpreted. The state is
//! stored *merged* (not per-shard): rows are keyed purely by prefix, so one
//! checkpoint restores into an engine of any shard count.
//!
//! One function writes the format. [`Checkpoint::encode`] hands it the
//! snapshot's owned rows; `Checkpoint::encode_engine`, which the detection
//! service writes with, hands it the rows of a live engine borrowed through
//! [`StateRows`] — the same bytes, with no path cloned.

use std::borrow::Borrow;

use aspp_detect::realtime::{DetectorState, StateRows};
use aspp_obs::counters::{self, Counter};
use aspp_types::{AsPath, Asn, AsppError, Ipv4Prefix};

use crate::codec::{fnv1a32, read_u16, read_u32, read_u64};
use crate::pipeline::FeedEngine;

/// The checkpoint magic, first 8 bytes of every encoded checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"ASPPCKPT";

/// The checkpoint-format version this module reads and writes.
pub const CHECKPOINT_VERSION: u16 = 1;

/// Header length: magic + version + flags + checksum.
const HEADER_LEN: usize = 16;

/// A point-in-time snapshot of a [`FeedEngine`]'s mutable state.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use aspp_feed::checkpoint::Checkpoint;
/// use aspp_feed::pipeline::{FeedConfig, FeedEngine};
/// use aspp_topology::AsGraph;
///
/// let engine = FeedEngine::new(Arc::new(AsGraph::default()), &FeedConfig::new(2));
/// let ckpt = Checkpoint::capture(&engine);
/// let bytes = ckpt.encode();
/// assert_eq!(Checkpoint::decode(&bytes).unwrap(), ckpt);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Checkpoint {
    /// Records the engine had dispatched when the snapshot was taken — the
    /// offset the stream tail replays from.
    pub cursor: u64,
    /// The merged, canonically sorted detector state.
    pub state: DetectorState,
}

impl Checkpoint {
    /// Snapshots a running engine.
    #[must_use]
    pub fn capture(engine: &FeedEngine) -> Self {
        Checkpoint {
            cursor: engine.cursor(),
            state: engine.export_state(),
        }
    }

    /// Replaces `engine`'s state with this snapshot (repartitioning by
    /// prefix hash for the engine's shard count) and rewinds its cursor.
    /// Bumps the `feed_checkpoint_restores` counter.
    pub fn restore_into(&self, engine: &mut FeedEngine) {
        engine.import_state(&self.state, self.cursor);
        counters::incr(Counter::FeedCheckpointRestore);
    }

    /// Serializes the checkpoint. Bumps the `feed_checkpoint_writes`
    /// counter.
    ///
    /// # Panics
    ///
    /// Panics if a state section exceeds `u32::MAX` rows or a path exceeds
    /// `u16::MAX` hops — both far beyond anything the detector produces.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let DetectorState {
            current,
            previous,
            raised,
        } = &self.state;
        encode_rows(self.cursor, current, previous, raised)
    }

    /// Encodes a running engine's state: the bytes of
    /// `Checkpoint::capture(engine).encode()`, written from rows borrowed
    /// from the engine's detectors, so no path is cloned and no snapshot
    /// is built. Bumps the `feed_checkpoint_writes` counter.
    ///
    /// # Panics
    ///
    /// As [`encode`](Self::encode).
    #[must_use]
    pub(crate) fn encode_engine(engine: &FeedEngine) -> Vec<u8> {
        let StateRows {
            current,
            previous,
            raised,
        } = engine.state_rows();
        encode_rows(engine.cursor(), &current, &previous, &raised)
    }

    /// Deserializes and integrity-checks a checkpoint.
    ///
    /// # Errors
    ///
    /// Rejects truncated input, bad magic, unknown versions, nonzero
    /// reserved flags, checksum mismatches (any flipped body bit), and
    /// structurally inconsistent bodies — all as `"feed"`-component
    /// [`AsppError`]s, before any state is handed to an engine.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, AsppError> {
        let fail = |message: String| AsppError::new("feed", message);
        if bytes.len() < HEADER_LEN {
            return Err(fail(format!(
                "truncated checkpoint header: {} bytes, need {HEADER_LEN}",
                bytes.len()
            )));
        }
        if bytes[..8] != CHECKPOINT_MAGIC {
            return Err(fail("bad magic: not an ASPPCKPT checkpoint".into()));
        }
        let version = read_u16(bytes, 8);
        if version != CHECKPOINT_VERSION {
            return Err(fail(format!(
                "unsupported checkpoint version {version} (this reader takes {CHECKPOINT_VERSION})"
            )));
        }
        let flags = read_u16(bytes, 10);
        if flags != 0 {
            return Err(fail(format!(
                "unsupported flags 0x{flags:04x} (reserved, must be zero)"
            )));
        }
        let stored = read_u32(bytes, 12);
        let body = &bytes[HEADER_LEN..];
        let computed = fnv1a32(body.iter().copied());
        if computed != stored {
            return Err(fail(format!(
                "checkpoint checksum mismatch: stored 0x{stored:08x}, computed 0x{computed:08x}"
            )));
        }

        let mut cur = Cursor { body, pos: 0 };
        let cursor = cur.u64()?;
        let mut state = DetectorState::default();
        for _ in 0..cur.u32()? {
            state.current.push(cur.path_row()?);
        }
        for _ in 0..cur.u32()? {
            state.previous.push(cur.path_row()?);
        }
        for _ in 0..cur.u32()? {
            let prefix = cur.prefix()?;
            let suspect = Asn(cur.u32()?);
            let observed_at = Asn(cur.u32()?);
            state.raised.push((prefix, suspect, observed_at));
        }
        if cur.pos != body.len() {
            return Err(fail(format!(
                "{} trailing bytes after the checkpoint body",
                body.len() - cur.pos
            )));
        }
        Ok(Checkpoint { cursor, state })
    }
}

/// Bytes of a path row before its hops: addr, prefix length, monitor, hop
/// count.
const PATH_ROW_LEN: usize = 4 + 1 + 4 + 2;

/// Bytes of a raised row: addr, prefix length, suspect, observed_at.
const RAISED_ROW_LEN: usize = 4 + 1 + 4 + 4;

/// The one writer of the format: header and body from rows in canonical
/// order, each path owned (`P = AsPath`) or borrowed (`P = &AsPath`). The
/// output is sized exactly up front and the header goes in first with a
/// zero checksum, filled in last, so the body is written once, in place.
fn encode_rows<P: Borrow<AsPath>>(
    cursor: u64,
    current: &[(Ipv4Prefix, Asn, P)],
    previous: &[(Ipv4Prefix, Asn, P)],
    raised: &[(Ipv4Prefix, Asn, Asn)],
) -> Vec<u8> {
    let path_rows = |rows: &[(Ipv4Prefix, Asn, P)]| -> usize {
        rows.iter()
            .map(|(_, _, path)| PATH_ROW_LEN + 4 * path.borrow().hops().len())
            .sum()
    };
    // Header, cursor, the three row counts, the rows.
    let len = HEADER_LEN
        + 8
        + 3 * 4
        + path_rows(current)
        + path_rows(previous)
        + RAISED_ROW_LEN * raised.len();
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // flags, reserved
    out.extend_from_slice(&0u32.to_le_bytes()); // checksum, filled in last
    out.extend_from_slice(&cursor.to_le_bytes());
    for rows in [current, previous] {
        let count = u32::try_from(rows.len()).expect("row count fits u32");
        out.extend_from_slice(&count.to_le_bytes());
        for (prefix, monitor, path) in rows {
            out.extend_from_slice(&prefix.addr().to_le_bytes());
            out.push(prefix.len());
            out.extend_from_slice(&monitor.0.to_le_bytes());
            let hops = path.borrow().hops();
            let count = u16::try_from(hops.len()).expect("hop count fits u16");
            out.extend_from_slice(&count.to_le_bytes());
            for hop in hops {
                out.extend_from_slice(&hop.0.to_le_bytes());
            }
        }
    }
    let count = u32::try_from(raised.len()).expect("row count fits u32");
    out.extend_from_slice(&count.to_le_bytes());
    for (prefix, suspect, observed_at) in raised {
        out.extend_from_slice(&prefix.addr().to_le_bytes());
        out.push(prefix.len());
        out.extend_from_slice(&suspect.0.to_le_bytes());
        out.extend_from_slice(&observed_at.0.to_le_bytes());
    }
    debug_assert_eq!(out.len(), len, "the checkpoint was sized exactly");
    let checksum = fnv1a32(out[HEADER_LEN..].iter().copied());
    out[12..HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
    counters::incr(Counter::FeedCheckpointWrite);
    out
}

/// A bounds-checked reader over the checkpoint body. Every read that would
/// run off the end is an error, not a panic: the checksum catches flipped
/// bits, this catches a checksum-valid body whose counts lie (a version-1
/// encoder never writes one, but the decoder must not trust that).
struct Cursor<'a> {
    body: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<usize, AsppError> {
        if self.body.len() - self.pos < n {
            return Err(AsppError::new(
                "feed",
                format!(
                    "checkpoint body truncated at offset {} (need {n} more bytes)",
                    self.pos
                ),
            ));
        }
        let at = self.pos;
        self.pos += n;
        Ok(at)
    }

    fn u8(&mut self) -> Result<u8, AsppError> {
        let at = self.take(1)?;
        Ok(self.body[at])
    }

    fn u16(&mut self) -> Result<u16, AsppError> {
        let at = self.take(2)?;
        Ok(read_u16(self.body, at))
    }

    fn u32(&mut self) -> Result<u32, AsppError> {
        let at = self.take(4)?;
        Ok(read_u32(self.body, at))
    }

    fn u64(&mut self) -> Result<u64, AsppError> {
        let at = self.take(8)?;
        Ok(read_u64(self.body, at))
    }

    fn prefix(&mut self) -> Result<Ipv4Prefix, AsppError> {
        let addr = self.u32()?;
        let len = self.u8()?;
        Ipv4Prefix::new(addr, len)
            .map_err(|e| AsppError::new("feed", format!("checkpoint carries a bad prefix: {e}")))
    }

    fn path_row(&mut self) -> Result<(Ipv4Prefix, Asn, AsPath), AsppError> {
        let prefix = self.prefix()?;
        let monitor = Asn(self.u32()?);
        let hop_count = usize::from(self.u16()?);
        let at = self.take(4 * hop_count)?;
        let path = AsPath::from_hops((0..hop_count).map(|i| Asn(read_u32(self.body, at + 4 * i))));
        Ok((prefix, monitor, path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let p1: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let p2: Ipv4Prefix = "10.0.1.0/24".parse().unwrap();
        Checkpoint {
            cursor: 42,
            state: DetectorState {
                current: vec![
                    (p1, Asn(55), "55 10 1 1 1".parse().unwrap()),
                    (p1, Asn(77), "77 66 10 1".parse().unwrap()),
                    (p2, Asn(55), "55 10 1".parse().unwrap()),
                ],
                previous: vec![(p1, Asn(77), "77 66 10 1 1 1".parse().unwrap())],
                raised: vec![(p1, Asn(66), Asn(77))],
            },
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let ckpt = sample();
        let bytes = ckpt.encode();
        assert_eq!(Checkpoint::decode(&bytes).unwrap(), ckpt);
        let empty = Checkpoint::default();
        assert_eq!(Checkpoint::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn every_flipped_bit_is_rejected() {
        let clean = sample().encode();
        // Flip one bit in each byte position of the body; the checksum must
        // catch every single one.
        for at in HEADER_LEN..clean.len() {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x10;
            let err = Checkpoint::decode(&bytes).unwrap_err();
            assert_eq!(err.component(), "feed");
            assert!(err.message().contains("checksum"), "offset {at}: {err}");
        }
    }

    #[test]
    fn header_problems_are_specific() {
        assert!(Checkpoint::decode(&[]).is_err());
        let clean = sample().encode();
        let mut bytes = clean.clone();
        bytes[0] ^= 0xff;
        assert!(Checkpoint::decode(&bytes)
            .unwrap_err()
            .message()
            .contains("magic"));
        let mut bytes = clean.clone();
        bytes[8] = 99;
        assert!(Checkpoint::decode(&bytes)
            .unwrap_err()
            .message()
            .contains("version"));
        let mut bytes = clean.clone();
        bytes[10] = 1;
        assert!(Checkpoint::decode(&bytes)
            .unwrap_err()
            .message()
            .contains("flags"));
        let mut truncated = clean.clone();
        truncated.truncate(clean.len() - 3);
        assert!(Checkpoint::decode(&truncated).is_err());
    }

    #[test]
    fn lying_counts_fail_cleanly_not_by_panic() {
        // Forge a checksum-valid body whose row count overruns the data:
        // the bounds-checked cursor must reject it.
        let mut body = Vec::new();
        body.extend_from_slice(&0u64.to_le_bytes()); // cursor
        body.extend_from_slice(&5u32.to_le_bytes()); // claims 5 rows, has none
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&CHECKPOINT_MAGIC);
        bytes.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        bytes.extend_from_slice(&fnv1a32(body.iter().copied()).to_le_bytes());
        bytes.extend_from_slice(&body);
        let err = Checkpoint::decode(&bytes).unwrap_err();
        assert!(err.message().contains("truncated"), "{err}");
    }
}
