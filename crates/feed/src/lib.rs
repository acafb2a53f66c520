//! `aspp-feed` — a production-style BGP update-feed pipeline for the
//! paper's Section V detection service.
//!
//! Five layers:
//!
//! - [`codec`]: a compact length-prefixed binary wire format for
//!   [`UpdateRecord`](aspp_data::UpdateRecord) streams — versioned header,
//!   per-frame FNV-1a checksums, frame-indexed errors on corruption, and a
//!   zero-copy [`RecordView`] scan apart from the field decode.
//! - [`pipeline`]: a sharded worker pool around the resident [`FeedEngine`].
//!   A wire stream is decoded whole before any of it is dispatched, so a
//!   rejected stream changes nothing; updates are then partitioned by prefix
//!   hash and each part runs on its shard's
//!   [`StreamingDetector`](aspp_detect::realtime::StreamingDetector),
//!   seeded from the clean equilibrium; the merged alarm output is
//!   deterministic regardless of shard count or thread interleaving.
//! - [`checkpoint`]: checksummed serialization of the engine's live state
//!   (path maps, raised alarms, stream cursor) so a killed service can
//!   restore and replay the stream tail bit-identically.
//! - [`service`]: the resident JSONL query loop behind `aspp serve`;
//!   checkpoint files are renamed into place, never written in place.
//! - [`replay`]: a driver synthesizing paper-scale streams — clean churn,
//!   withdraw/re-announce episodes, and injected ASPP interceptions at
//!   configurable rates — for throughput measurement and file replay.
//!
//! The crate feeds the workspace-wide counters
//! (`feed_records_in`, `feed_frames_bad`, `feed_alarms`,
//! `feed_checkpoint_writes`, `feed_checkpoint_restores`, `serve_queries`)
//! and opens a `feed` trace span per ingest.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod codec;
pub mod pipeline;
pub mod replay;
pub mod service;

pub use checkpoint::Checkpoint;
pub use codec::{
    decode_records, decode_records_lenient, encode_records, scan_frames, FrameReader, RecordView,
    WIRE_MAGIC, WIRE_VERSION,
};
pub use pipeline::{run_feed, shard_of, FeedConfig, FeedEngine, FeedReport, ShardStats};
pub use replay::{InjectedAttack, ReplayConfig, SyntheticFeed};
pub use service::DetectionService;
