//! Compact length-prefixed binary wire format for update streams.
//!
//! The text corpus format (`aspp-data`) is the archival representation; this
//! codec is the *transport* representation — what a collector would ship to
//! the detection service over a socket or spool to disk between runs. The
//! layout is little-endian throughout:
//!
//! ```text
//! header   := magic "ASPPFEED" (8) | version u16 | flags u16 | count u32
//! frame    := payload_len u32 | checksum u32 | payload
//! payload  := seq u64 | monitor u32 | addr u32 | prefix_len u8 | tag u8
//!             [ hop_count u16 | hop u32 ... ]        (tag = 1, announce)
//! ```
//!
//! The checksum is FNV-1a-32 over the length field's bytes followed by the
//! payload, so a flipped bit in either is caught before any field is
//! interpreted; the header's record count catches truncation at a frame
//! boundary, which a per-frame checksum cannot see. Every decode failure is
//! a frame-indexed [`AsppError`] (component `"feed"`, 1-based frame number),
//! mirroring the line-numbered strict-ingest conventions of the text format.

use aspp_data::{UpdateAction, UpdateRecord};
use aspp_obs::counters::{self, Counter};
use aspp_types::{AsPath, Asn, AsppError, IngestReport, Ipv4Prefix};

/// The stream magic, first 8 bytes of every encoded stream.
pub const WIRE_MAGIC: [u8; 8] = *b"ASPPFEED";

/// The wire-format version this codec reads and writes.
pub const WIRE_VERSION: u16 = 1;

/// Stream header length in bytes.
const HEADER_LEN: usize = 16;

/// Frame prelude (length + checksum) in bytes.
const FRAME_PRELUDE_LEN: usize = 8;

/// Smallest legal payload: a withdraw (seq + monitor + addr + len + tag).
const MIN_PAYLOAD: usize = 18;

/// Largest legal payload: an announce carrying `u16::MAX` hops.
const MAX_PAYLOAD: usize = MIN_PAYLOAD + 2 + 4 * (u16::MAX as usize);

/// FNV-1a 32-bit over an arbitrary byte iterator. Each step xors the byte in
/// and multiplies by an odd prime, so any single flipped byte changes the
/// digest — the corruption class the roundtrip property test exercises.
pub(crate) fn fnv1a32(bytes: impl IntoIterator<Item = u8>) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

fn encode_payload(record: &UpdateRecord, out: &mut Vec<u8>) {
    out.extend_from_slice(&record.seq.to_le_bytes());
    out.extend_from_slice(&record.monitor.0.to_le_bytes());
    out.extend_from_slice(&record.prefix.addr().to_le_bytes());
    out.push(record.prefix.len());
    match &record.action {
        UpdateAction::Withdraw => out.push(0),
        UpdateAction::Announce(path) => {
            let hops = path.hops();
            assert!(
                hops.len() <= usize::from(u16::MAX),
                "AS path of {} hops exceeds the wire format's u16 hop count",
                hops.len()
            );
            out.push(1);
            out.extend_from_slice(&(hops.len() as u16).to_le_bytes());
            for hop in hops {
                out.extend_from_slice(&hop.0.to_le_bytes());
            }
        }
    }
}

/// Encodes `records` into a self-contained wire stream (header + one
/// checksummed frame per record).
///
/// # Panics
///
/// Panics if `records` holds more than `u32::MAX` entries or any path
/// exceeds `u16::MAX` hops — both orders of magnitude beyond anything the
/// generators produce.
#[must_use]
pub fn encode_records(records: &[UpdateRecord]) -> Vec<u8> {
    let count = u32::try_from(records.len()).expect("record count fits the header's u32");
    let mut out = Vec::with_capacity(HEADER_LEN + records.len() * 40);
    out.extend_from_slice(&WIRE_MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // flags, reserved
    out.extend_from_slice(&count.to_le_bytes());

    let mut payload = Vec::with_capacity(64);
    for record in records {
        payload.clear();
        encode_payload(record, &mut payload);
        let len = payload.len() as u32;
        let len_bytes = len.to_le_bytes();
        let checksum = fnv1a32(len_bytes.iter().copied().chain(payload.iter().copied()));
        out.extend_from_slice(&len_bytes);
        out.extend_from_slice(&checksum.to_le_bytes());
        out.extend_from_slice(&payload);
    }
    out
}

pub(crate) fn read_u16(bytes: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([bytes[at], bytes[at + 1]])
}

pub(crate) fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

pub(crate) fn read_u64(bytes: &[u8], at: usize) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(buf)
}

/// A checksum-validated frame whose fields have *not* been decoded yet — a
/// zero-copy view borrowing the wire buffer. It splits the boundary and
/// checksum walk ([`scan_frames`]) from the allocating field decode
/// ([`decode`](Self::decode)), which `aspp-perf` times as separate layers.
#[derive(Clone, Copy, Debug)]
pub struct RecordView<'a> {
    payload: &'a [u8],
}

impl<'a> RecordView<'a> {
    /// Fully decodes the payload into an owned record. `frame_no` is the
    /// 1-based frame index used in error context.
    ///
    /// # Errors
    ///
    /// Returns a frame-indexed [`AsppError`] on any malformed field.
    pub fn decode(&self, frame_no: usize) -> Result<UpdateRecord, AsppError> {
        decode_payload(self.payload, frame_no)
    }
}

/// Decodes a checksum-validated payload's fields.
fn decode_payload(payload: &[u8], frame_no: usize) -> Result<UpdateRecord, AsppError> {
    let err = |message: String| AsppError::at_line("feed", frame_no, message);
    let payload_len = payload.len();
    let seq = read_u64(payload, 0);
    let monitor = Asn(read_u32(payload, 8));
    let addr = read_u32(payload, 12);
    let plen = payload[16];
    let prefix = Ipv4Prefix::new(addr, plen).map_err(|e| err(format!("bad prefix: {e}")))?;
    let action = match payload[17] {
        0 => {
            if payload_len != MIN_PAYLOAD {
                return Err(err(format!(
                    "withdraw frame carries {} extra bytes",
                    payload_len - MIN_PAYLOAD
                )));
            }
            UpdateAction::Withdraw
        }
        1 => {
            if payload_len < MIN_PAYLOAD + 2 {
                return Err(err("announce frame too short for a hop count".into()));
            }
            let hop_count = usize::from(read_u16(payload, 18));
            if hop_count == 0 {
                return Err(err("announce frame with empty path".into()));
            }
            if payload_len != MIN_PAYLOAD + 2 + 4 * hop_count {
                return Err(err(format!(
                    "announce frame length {payload_len} disagrees with hop count {hop_count}"
                )));
            }
            let hops = (0..hop_count).map(|i| Asn(read_u32(payload, MIN_PAYLOAD + 2 + 4 * i)));
            UpdateAction::Announce(AsPath::from_hops(hops))
        }
        tag => return Err(err(format!("unknown action tag {tag}"))),
    };
    Ok(UpdateRecord {
        seq,
        monitor,
        prefix,
        action,
    })
}

/// Incremental frame decoder over an in-memory wire stream.
///
/// Iterating yields one `Result<UpdateRecord, AsppError>` per frame; the
/// first error fuses the reader (subsequent `next()` returns `None`),
/// because a corrupt length field makes every later frame boundary
/// unknowable.
///
/// # Example
///
/// ```
/// use aspp_feed::codec::{encode_records, FrameReader};
///
/// let bytes = encode_records(&[]);
/// let mut reader = FrameReader::new(&bytes).unwrap();
/// assert_eq!(reader.declared_records(), 0);
/// assert!(reader.next().is_none());
/// ```
#[derive(Debug)]
pub struct FrameReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    frames_read: u32,
    declared: u32,
    fused: bool,
}

impl<'a> FrameReader<'a> {
    /// Validates the stream header and positions the reader at the first
    /// frame. Header problems (truncation, bad magic, unknown version,
    /// nonzero reserved flags) are stream-level errors without a frame
    /// index.
    pub fn new(bytes: &'a [u8]) -> Result<Self, AsppError> {
        if bytes.len() < HEADER_LEN {
            return Err(AsppError::new(
                "feed",
                format!("truncated header: {} bytes, need {HEADER_LEN}", bytes.len()),
            ));
        }
        if bytes[..8] != WIRE_MAGIC {
            return Err(AsppError::new("feed", "bad magic: not an ASPPFEED stream"));
        }
        let version = read_u16(bytes, 8);
        if version != WIRE_VERSION {
            return Err(AsppError::new(
                "feed",
                format!("unsupported wire version {version} (this codec reads {WIRE_VERSION})"),
            ));
        }
        let flags = read_u16(bytes, 10);
        if flags != 0 {
            return Err(AsppError::new(
                "feed",
                format!("unsupported flags 0x{flags:04x} (reserved, must be zero)"),
            ));
        }
        let declared = read_u32(bytes, 12);
        Ok(FrameReader {
            bytes,
            pos: HEADER_LEN,
            frames_read: 0,
            declared,
            fused: false,
        })
    }

    /// The record count the header declares.
    #[must_use]
    pub fn declared_records(&self) -> u32 {
        self.declared
    }

    /// Frames successfully decoded so far.
    #[must_use]
    pub fn frames_read(&self) -> u32 {
        self.frames_read
    }

    /// The 1-based index of the frame about to be read (for error context).
    fn frame_no(&self) -> usize {
        self.frames_read as usize + 1
    }

    fn frame_err(&mut self, message: String) -> AsppError {
        self.fused = true;
        AsppError::at_line("feed", self.frame_no(), message)
    }

    /// Validates the next frame's boundary and checksum *without* decoding
    /// its fields, yielding a zero-copy [`RecordView`]. The strict iterator
    /// is `next_view` + [`RecordView::decode`].
    pub fn next_view(&mut self) -> Option<Result<RecordView<'a>, AsppError>> {
        if self.fused {
            return None;
        }
        let remaining = self.bytes.len() - self.pos;
        if self.frames_read == self.declared {
            if remaining != 0 {
                return Some(Err(self.frame_err(format!(
                    "{remaining} trailing bytes after the {} declared frames",
                    self.declared
                ))));
            }
            return None;
        }
        if remaining == 0 {
            return Some(Err(self.frame_err(format!(
                "stream ends after {} of {} declared frames",
                self.frames_read, self.declared
            ))));
        }
        if remaining < FRAME_PRELUDE_LEN {
            return Some(Err(
                self.frame_err(format!("truncated frame prelude: {remaining} bytes"))
            ));
        }
        let payload_len = read_u32(self.bytes, self.pos) as usize;
        let checksum = read_u32(self.bytes, self.pos + 4);
        if !(MIN_PAYLOAD..=MAX_PAYLOAD).contains(&payload_len) {
            return Some(Err(self.frame_err(format!(
                "payload length {payload_len} outside [{MIN_PAYLOAD}, {MAX_PAYLOAD}]"
            ))));
        }
        if remaining - FRAME_PRELUDE_LEN < payload_len {
            return Some(Err(self.frame_err(format!(
                "truncated payload: {} bytes of {payload_len}",
                remaining - FRAME_PRELUDE_LEN
            ))));
        }
        let start = self.pos + FRAME_PRELUDE_LEN;
        let payload = &self.bytes[start..start + payload_len];
        let computed = fnv1a32(
            (payload_len as u32)
                .to_le_bytes()
                .iter()
                .copied()
                .chain(payload.iter().copied()),
        );
        if computed != checksum {
            return Some(Err(self.frame_err(format!(
                "checksum mismatch: stored 0x{checksum:08x}, computed 0x{computed:08x}"
            ))));
        }

        self.pos = start + payload_len;
        self.frames_read += 1;
        Some(Ok(RecordView { payload }))
    }

    fn next_frame(&mut self) -> Option<Result<UpdateRecord, AsppError>> {
        let (pos, frames) = (self.pos, self.frames_read);
        match self.next_view()? {
            Ok(view) => {
                // `next_view` already advanced, so the view's 1-based frame
                // index is exactly `frames_read`.
                match view.decode(self.frames_read as usize) {
                    Ok(record) => Some(Ok(record)),
                    Err(e) => {
                        // A frame that fails the field decode counts as
                        // unread (the lenient path's tail accounting and
                        // `frames_read`'s contract both depend on it).
                        self.pos = pos;
                        self.frames_read = frames;
                        self.fused = true;
                        Some(Err(e))
                    }
                }
            }
            Err(e) => Some(Err(e)),
        }
    }
}

/// Walks a full wire stream strictly, validating every frame boundary and
/// checksum, and returns one zero-copy [`RecordView`] per frame with the
/// field decode deferred: one pass over the buffer, no per-record
/// allocation.
///
/// # Errors
///
/// The first structural problem (bad header, bad prelude, checksum
/// mismatch, truncation) aborts with its frame-indexed error, exactly as
/// [`decode_records`] would; a malformed *field* passes the scan and fails
/// [`RecordView::decode`].
pub fn scan_frames(bytes: &[u8]) -> Result<Vec<RecordView<'_>>, AsppError> {
    let mut reader = FrameReader::new(bytes)?;
    let mut views = Vec::with_capacity(reader.declared_records() as usize);
    while let Some(item) = reader.next_view() {
        views.push(item?);
    }
    Ok(views)
}

impl Iterator for FrameReader<'_> {
    type Item = Result<UpdateRecord, AsppError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_frame()
    }
}

/// Decodes a full wire stream strictly: the first corrupt frame aborts with
/// its frame-indexed error.
///
/// # Example
///
/// ```
/// use aspp_data::{UpdateAction, UpdateRecord};
/// use aspp_feed::codec::{decode_records, encode_records};
/// use aspp_types::Asn;
///
/// let records = vec![UpdateRecord {
///     seq: 7,
///     monitor: Asn(64500),
///     prefix: "10.1.0.0/24".parse().unwrap(),
///     action: UpdateAction::Announce("64500 3356 13335".parse().unwrap()),
/// }];
/// let bytes = encode_records(&records);
/// assert_eq!(decode_records(&bytes).unwrap(), records);
/// ```
pub fn decode_records(bytes: &[u8]) -> Result<Vec<UpdateRecord>, AsppError> {
    FrameReader::new(bytes)?.collect()
}

/// Decodes leniently: stops at the first corrupt frame (later frame
/// boundaries are unknowable once a prelude is untrusted) but returns every
/// record decoded before it, with an [`IngestReport`] accounting for the
/// stream — accepted frames, the bad frame, and the declared-but-unreached
/// remainder as skips. Bumps the `feed_frames_bad` counter once per bad
/// frame when `aspp-obs` is enabled.
#[must_use]
pub fn decode_records_lenient(bytes: &[u8]) -> (Vec<UpdateRecord>, IngestReport) {
    let mut report = IngestReport::default();
    let mut records = Vec::new();
    let mut reader = match FrameReader::new(bytes) {
        Ok(r) => r,
        Err(e) => {
            counters::incr(Counter::FeedFrameBad);
            report.skip(0, format!("unreadable stream: {e}"));
            return (records, report);
        }
    };
    for item in &mut reader {
        match item {
            Ok(record) => {
                records.push(record);
                report.accept();
            }
            Err(e) => {
                counters::incr(Counter::FeedFrameBad);
                report.skip(e.line().unwrap_or(0), e.message());
                let unreached = reader
                    .declared_records()
                    .saturating_sub(reader.frames_read() + 1);
                if unreached > 0 {
                    report.skip(
                        e.line().unwrap_or(0),
                        format!("{unreached} later frames unreachable past the corrupt frame"),
                    );
                    report.skipped += unreached as usize - 1;
                }
                break;
            }
        }
    }
    (records, report)
}

#[cfg(test)]
/// Test support: rewrites the payload of frame `frame_no` (1-based) in place
/// and recomputes its checksum — a frame that scans clean and decodes badly.
pub(crate) fn tamper_frame(bytes: &mut [u8], frame_no: usize, edit: fn(&mut [u8])) {
    let mut at = HEADER_LEN;
    for _ in 1..frame_no {
        at += FRAME_PRELUDE_LEN + read_u32(bytes, at) as usize;
    }
    let payload = at + FRAME_PRELUDE_LEN;
    let end = payload + read_u32(bytes, at) as usize;
    edit(&mut bytes[payload..end]);
    let sum = fnv1a32(
        bytes[at..at + 4]
            .iter()
            .chain(&bytes[payload..end])
            .copied(),
    );
    bytes[at + 4..payload].copy_from_slice(&sum.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<UpdateRecord> {
        vec![
            UpdateRecord {
                seq: 1,
                monitor: Asn(10),
                prefix: "10.0.0.0/24".parse().unwrap(),
                action: UpdateAction::Announce("10 20 30".parse().unwrap()),
            },
            UpdateRecord {
                seq: 2,
                monitor: Asn(11),
                prefix: "10.0.1.0/24".parse().unwrap(),
                action: UpdateAction::Withdraw,
            },
            UpdateRecord {
                seq: u64::MAX,
                monitor: Asn(u32::MAX),
                prefix: "0.0.0.0/0".parse().unwrap(),
                action: UpdateAction::Announce(AsPath::from_hops([Asn(0); 40])),
            },
        ]
    }

    #[test]
    fn roundtrip_preserves_records() {
        let records = sample_records();
        let bytes = encode_records(&records);
        assert_eq!(decode_records(&bytes).unwrap(), records);
    }

    #[test]
    fn empty_stream_roundtrips() {
        let bytes = encode_records(&[]);
        assert_eq!(bytes.len(), HEADER_LEN);
        assert!(decode_records(&bytes).unwrap().is_empty());
    }

    #[test]
    fn header_errors_are_stream_level() {
        assert!(FrameReader::new(&[]).is_err());
        let mut bytes = encode_records(&[]);
        bytes[0] ^= 0xff;
        let err = FrameReader::new(&bytes).unwrap_err();
        assert_eq!(err.component(), "feed");
        assert!(err.line().is_none());
        let mut bytes = encode_records(&[]);
        bytes[8] = 99; // version
        assert!(FrameReader::new(&bytes).is_err());
        let mut bytes = encode_records(&[]);
        bytes[10] = 1; // flags
        assert!(FrameReader::new(&bytes).is_err());
    }

    #[test]
    fn truncation_at_frame_boundary_is_caught() {
        let records = sample_records();
        let mut bytes = encode_records(&records);
        // Drop the final frame entirely: checksums all pass, only the
        // header count exposes the loss.
        let last_payload = {
            let mut lens = Vec::new();
            let mut pos = HEADER_LEN;
            while pos < bytes.len() {
                let len = read_u32(&bytes, pos) as usize;
                lens.push(FRAME_PRELUDE_LEN + len);
                pos += FRAME_PRELUDE_LEN + len;
            }
            *lens.last().unwrap()
        };
        bytes.truncate(bytes.len() - last_payload);
        let err = decode_records(&bytes).unwrap_err();
        assert_eq!(err.line(), Some(3));
        assert!(err.message().contains("2 of 3"), "{err}");
    }

    #[test]
    fn corrupt_frame_is_frame_indexed() {
        let records = sample_records();
        let clean = encode_records(&records);
        // Flip a byte inside the second frame's payload.
        let first_len = read_u32(&clean, HEADER_LEN) as usize;
        let second_frame = HEADER_LEN + FRAME_PRELUDE_LEN + first_len;
        let mut bytes = clean.clone();
        bytes[second_frame + FRAME_PRELUDE_LEN + 3] ^= 0x40;
        let err = decode_records(&bytes).unwrap_err();
        assert_eq!(err.component(), "feed");
        assert_eq!(err.line(), Some(2));
        assert!(err.message().contains("checksum"), "{err}");
    }

    #[test]
    fn lenient_decode_accounts_for_the_tail() {
        let records = sample_records();
        let mut bytes = encode_records(&records);
        let first_len = read_u32(&bytes, HEADER_LEN) as usize;
        let second_frame = HEADER_LEN + FRAME_PRELUDE_LEN + first_len;
        bytes[second_frame + FRAME_PRELUDE_LEN] ^= 0x01;
        let (decoded, report) = decode_records_lenient(&bytes);
        assert_eq!(decoded, records[..1]);
        assert_eq!(report.accepted, 1);
        assert_eq!(report.skipped, 2, "bad frame + unreachable remainder");
        assert_eq!(report.total(), 3);
        assert!(!report.is_clean());
    }

    #[test]
    fn scan_then_decode_matches_strict_decode() {
        let records = sample_records();
        let bytes = encode_records(&records);
        let views = scan_frames(&bytes).unwrap();
        assert_eq!(views.len(), records.len());
        for (i, (view, expected)) in views.iter().zip(&records).enumerate() {
            assert_eq!(&view.decode(i + 1).unwrap(), expected);
        }
    }

    #[test]
    fn scan_catches_checksum_corruption() {
        let records = sample_records();
        let mut bytes = encode_records(&records);
        let first_len = read_u32(&bytes, HEADER_LEN) as usize;
        let second_frame = HEADER_LEN + FRAME_PRELUDE_LEN + first_len;
        bytes[second_frame + FRAME_PRELUDE_LEN + 3] ^= 0x40;
        let err = scan_frames(&bytes).unwrap_err();
        assert_eq!(err.line(), Some(2));
        assert!(err.message().contains("checksum"), "{err}");
    }

    #[test]
    fn scan_defers_field_errors_to_decode() {
        // A frame whose checksum is valid but whose action tag is unknown
        // passes the scan (structure is sound) and fails only at decode,
        // with the right frame index.
        let records = sample_records();
        let mut bytes = encode_records(&records[..2]);
        let first_len = read_u32(&bytes, HEADER_LEN) as usize;
        let second_frame = HEADER_LEN + FRAME_PRELUDE_LEN + first_len;
        let tag_at = second_frame + FRAME_PRELUDE_LEN + 17;
        bytes[tag_at] = 9;
        // Recompute the second frame's checksum over the tampered payload.
        let plen = read_u32(&bytes, second_frame) as usize;
        let payload_start = second_frame + FRAME_PRELUDE_LEN;
        let checksum = fnv1a32(
            (plen as u32)
                .to_le_bytes()
                .iter()
                .copied()
                .chain(bytes[payload_start..payload_start + plen].iter().copied()),
        );
        bytes[second_frame + 4..second_frame + 8].copy_from_slice(&checksum.to_le_bytes());

        let views = scan_frames(&bytes).unwrap();
        assert_eq!(views.len(), 2);
        let err = views[1].decode(2).unwrap_err();
        assert_eq!(err.line(), Some(2));
        assert!(err.message().contains("unknown action tag"), "{err}");
        // The strict iterator reports the identical error.
        let strict = decode_records(&bytes).unwrap_err();
        assert_eq!(strict.line(), Some(2));
        assert!(strict.message().contains("unknown action tag"));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode_records(&sample_records());
        bytes.extend_from_slice(&[0xde, 0xad]);
        let err = decode_records(&bytes).unwrap_err();
        assert!(err.message().contains("trailing"), "{err}");
    }
}
