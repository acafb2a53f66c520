//! The resident detection service: a JSONL query loop over a [`FeedEngine`].
//!
//! `aspp serve` wraps this module around stdin/stdout. One request per
//! line, one JSON response per line — the shape of the PHAS-style
//! notification service the paper's Section V sketches, reduced to a
//! transport a shell script (or the CI smoke job) can drive:
//!
//! ```text
//! {"cmd":"status"}
//! {"cmd":"ingest","file":"stream.bin"}
//! {"cmd":"prefix","prefix":"10.0.0.0/24"}
//! {"cmd":"checkpoint","file":"state.ckpt"}
//! {"cmd":"drain"}
//! ```
//!
//! Every response carries `"ok"`; failures answer `"ok":false` with an
//! `"error"` string and the service keeps running. End-of-input (or an
//! explicit `drain`) is the graceful shutdown path: the service writes a
//! final checkpoint when one is configured, emits a summary line, and
//! returns. An *ungraceful* death (SIGKILL, power loss) is what the
//! checkpoint layer exists for — restart, restore the last checkpoint,
//! replay the stream tail from its cursor, and the alarm sequence is
//! bit-identical to the uninterrupted run.
//!
//! Requests are parsed with a deliberately flat hand-rolled reader (the
//! workspace carries no serde): top-level string fields of one JSON object
//! per line. Responses are rendered through `aspp-obs`'s [`JsonWriter`],
//! the same escaping used by every other machine-readable surface.

use std::collections::hash_map::{Entry, HashMap};
use std::fs::{self, File};
use std::io::{self, BufRead, Write};
use std::path::{Path, PathBuf};
use std::str::Chars;

use aspp_detect::realtime::StreamAlarm;
use aspp_obs::counters::{self, Counter};
use aspp_obs::json::JsonWriter;
use aspp_obs::trace;
use aspp_types::{AsppError, Ipv4Prefix};

use crate::checkpoint::Checkpoint;
use crate::pipeline::FeedEngine;

/// Extracts the string value of a top-level `key` from one flat JSON
/// object line. Decodes JSON's escapes — every one [`JsonWriter`] emits,
/// `\uXXXX` and surrogate pairs included; a value that is unterminated or
/// carries a malformed `\u` escape (a lone surrogate, say) reads as absent.
/// Nested objects and non-string values are out of scope by design (the
/// protocol is flat).
fn string_field(line: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\"");
    let mut from = 0;
    while let Some(at) = line[from..].find(&needle) {
        from += at + needle.len();
        // A key is followed by a colon; the same text in value position
        // (e.g. {"cmd":"prefix"} while looking up "prefix") is not.
        let rest = line[from..].trim_start();
        let Some(rest) = rest.strip_prefix(':') else {
            continue;
        };
        let rest = rest.trim_start().strip_prefix('"')?;
        let mut out = String::new();
        let mut chars = rest.chars();
        while let Some(c) = chars.next() {
            match c {
                '\\' => match chars.next()? {
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'u' => out.push(unicode_escape(&mut chars)?),
                    other => out.push(other),
                },
                '"' => return Some(out),
                c => out.push(c),
            }
        }
        return None;
    }
    None
}

/// Decodes the `XXXX` of a `\uXXXX` escape — and, for a high surrogate, the
/// `\uXXXX` low surrogate that must follow it. `None` for bad hex or a lone
/// surrogate.
fn unicode_escape(chars: &mut Chars<'_>) -> Option<char> {
    let high = hex4(chars)?;
    if !(0xd800..0xdc00).contains(&high) {
        // `from_u32` refuses a lone low surrogate.
        return char::from_u32(high);
    }
    *chars = chars.as_str().strip_prefix("\\u")?.chars();
    let low = hex4(chars).filter(|low| (0xdc00..0xe000).contains(low))?;
    char::from_u32(0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00))
}

/// Reads four hex digits off `chars`.
fn hex4(chars: &mut Chars<'_>) -> Option<u32> {
    let rest = chars.as_str();
    let digits = rest
        .get(..4)
        .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))?;
    *chars = rest[4..].chars();
    u32::from_str_radix(digits, 16).ok()
}

/// A resident [`FeedEngine`] plus the alarm summary its queries answer from
/// and the JSONL command loop.
///
/// The service keeps no alarm log: the protocol reports the lifetime total,
/// and per prefix the count and the last alarm, so that is what is held —
/// memory and `prefix` latency follow the prefixes that ever alarmed, not
/// the age of the session.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use aspp_feed::pipeline::{FeedConfig, FeedEngine};
/// use aspp_feed::service::DetectionService;
/// use aspp_topology::AsGraph;
///
/// let engine = FeedEngine::new(Arc::new(AsGraph::default()), &FeedConfig::new(2));
/// let mut service = DetectionService::new(engine);
/// let input = b"{\"cmd\":\"status\"}\n" as &[u8];
/// let mut output = Vec::new();
/// service.run(input, &mut output).unwrap();
/// let text = String::from_utf8(output).unwrap();
/// assert!(text.lines().next().unwrap().contains("\"ok\":true"));
/// ```
#[derive(Debug)]
pub struct DetectionService {
    engine: FeedEngine,
    alarms: u64,
    /// Per prefix that ever alarmed: how often, and the latest alarm.
    alarms_of: HashMap<Ipv4Prefix, (u64, StreamAlarm)>,
    records_in: u64,
    restores: u64,
    checkpoint_file: Option<PathBuf>,
    checkpoint_every: Option<u64>,
    records_since_checkpoint: u64,
    auto_checkpoints: u64,
}

impl DetectionService {
    /// Wraps an engine (seeded or restored by the caller).
    #[must_use]
    pub fn new(engine: FeedEngine) -> Self {
        DetectionService {
            engine,
            alarms: 0,
            alarms_of: HashMap::new(),
            records_in: 0,
            restores: 0,
            checkpoint_file: None,
            checkpoint_every: None,
            records_since_checkpoint: 0,
            auto_checkpoints: 0,
        }
    }

    /// Sets the default checkpoint target: `{"cmd":"checkpoint"}` without a
    /// `file` writes here, and a graceful drain writes a final checkpoint.
    #[must_use]
    pub fn checkpoint_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_file = Some(path.into());
        self
    }

    /// Arms the periodic auto-checkpoint: after every ingest that brings
    /// the records-since-last-checkpoint tally to `every` or beyond, the
    /// service writes the configured [`checkpoint_file`](Self::checkpoint_file)
    /// unprompted. The cadence is counted in *records*, not wall time, so
    /// an idle service never touches the disk and a kill between cadences
    /// loses at most the records ingested since the last one — the restore
    /// path replays the stream tail from the checkpoint cursor and the
    /// alarm sequence is bit-identical to the uninterrupted run.
    /// `every == 0` disables the cadence again.
    #[must_use]
    pub fn checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every = (every > 0).then_some(every);
        self
    }

    /// Auto-checkpoints written so far by the cadence configured through
    /// [`checkpoint_every`](Self::checkpoint_every).
    #[must_use]
    pub fn auto_checkpoints(&self) -> u64 {
        self.auto_checkpoints
    }

    /// Restores engine state from a checkpoint file written earlier.
    ///
    /// # Errors
    ///
    /// Fails if the file is unreadable or the checkpoint is corrupt (the
    /// decoder's checksum path); the engine is untouched on failure.
    pub fn restore_from_file(&mut self, path: &Path) -> Result<(), AsppError> {
        let bytes = fs::read(path).map_err(|e| {
            AsppError::new(
                "feed",
                format!("cannot read checkpoint {}: {e}", path.display()),
            )
        })?;
        let checkpoint = Checkpoint::decode(&bytes)?;
        checkpoint.restore_into(&mut self.engine);
        self.restores += 1;
        Ok(())
    }

    /// The wrapped engine.
    #[must_use]
    pub fn engine(&self) -> &FeedEngine {
        &self.engine
    }

    /// Runs the query loop until `drain` or end of input, writing one JSON
    /// line per request. This is the blocking heart of `aspp serve`.
    ///
    /// # Errors
    ///
    /// Only I/O errors on `input`/`output` abort the loop; request-level
    /// failures are `"ok":false` responses.
    pub fn run(&mut self, input: impl BufRead, mut output: impl Write) -> io::Result<()> {
        let _span = trace::span("serve");
        for line in input.lines() {
            let line = line?;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            counters::incr(Counter::ServeQuery);
            let (response, stop) = self.handle(line);
            writeln!(output, "{response}")?;
            output.flush()?;
            if stop {
                return Ok(());
            }
        }
        // End of input: graceful drain, same as an explicit request.
        let (response, _) = self.drain();
        writeln!(output, "{response}")?;
        output.flush()
    }

    /// Dispatches one request line; returns the response and whether the
    /// loop should stop.
    fn handle(&mut self, line: &str) -> (String, bool) {
        let Some(cmd) = string_field(line, "cmd") else {
            return (fail("request carries no \"cmd\" field"), false);
        };
        match cmd.as_str() {
            "status" => (self.status(), false),
            "prefix" => (self.prefix_status(line), false),
            "ingest" => (self.ingest(line), false),
            "checkpoint" => (self.checkpoint(line), false),
            "drain" => self.drain(),
            other => (fail(&format!("unknown cmd {other:?}")), false),
        }
    }

    fn status(&self) -> String {
        let mut w = ok("status");
        w.field_u64("cursor", self.engine.cursor());
        w.field_u64("records_in", self.records_in);
        w.field_u64("alarms", self.alarms);
        w.field_u64("tracked_prefixes", self.engine.tracked_prefixes() as u64);
        w.field_u64("shards", self.engine.shards() as u64);
        w.field_u64("restores", self.restores);
        w.field_u64("auto_checkpoints", self.auto_checkpoints);
        w.finish()
    }

    fn prefix_status(&self, line: &str) -> String {
        let Some(text) = string_field(line, "prefix") else {
            return fail("prefix request carries no \"prefix\" field");
        };
        let prefix: Ipv4Prefix = match text.parse() {
            Ok(p) => p,
            Err(e) => return fail(&format!("bad prefix {text:?}: {e}")),
        };
        let hits = self.alarms_of.get(&prefix);
        let mut w = ok("prefix");
        w.field_str("prefix", &text);
        w.field_u64("monitors", self.engine.monitors_of(prefix) as u64);
        w.field_u64("alarms", hits.map_or(0, |(count, _)| *count));
        if let Some((_, last)) = hits {
            let mut a = JsonWriter::object();
            a.field_u64("suspect", u64::from(last.alarm.suspect.0));
            a.field_u64("observed_at", u64::from(last.alarm.observed_at.0));
            a.field_str("confidence", &format!("{:?}", last.alarm.confidence));
            a.field_u64("triggered_by_seq", last.triggered_by_seq);
            w.field_raw("last_alarm", &a.finish());
        }
        w.finish()
    }

    fn ingest(&mut self, line: &str) -> String {
        let Some(file) = string_field(line, "file") else {
            return fail("ingest request carries no \"file\" field");
        };
        let bytes = match fs::read(&file) {
            Ok(b) => b,
            Err(e) => return fail(&format!("cannot read {file}: {e}")),
        };
        match self.engine.ingest_wire(&bytes) {
            Ok(report) => {
                self.records_in += report.records_in;
                self.records_since_checkpoint += report.records_in;
                let new = report.alarms.len();
                let rate = report.records_per_sec();
                self.alarms += new as u64;
                for alarm in report.alarms {
                    match self.alarms_of.entry(alarm.prefix) {
                        Entry::Occupied(mut seen) => {
                            let (count, last) = seen.get_mut();
                            *count += 1;
                            *last = alarm;
                        }
                        Entry::Vacant(first) => {
                            first.insert((1, alarm));
                        }
                    }
                }
                let mut w = ok("ingest");
                w.field_str("file", &file);
                w.field_u64("records", report.records_in);
                w.field_u64("alarms", new as u64);
                w.field_u64("cursor", self.engine.cursor());
                if let Some(rate) = rate {
                    w.field_f64("records_per_sec", rate);
                }
                if let Some(note) = self.maybe_auto_checkpoint() {
                    match note {
                        Ok(path) => w.field_str("auto_checkpoint", &path),
                        Err(e) => w.field_str("auto_checkpoint_error", &e),
                    }
                }
                w.finish()
            }
            Err(e) => fail(&format!("ingest failed: {e}")),
        }
    }

    /// Fires the record-count checkpoint cadence when armed and due.
    /// Returns `None` when no checkpoint was attempted; the tally resets
    /// even on a failed write so one bad disk does not retry every ingest.
    fn maybe_auto_checkpoint(&mut self) -> Option<Result<String, String>> {
        let every = self.checkpoint_every?;
        if self.records_since_checkpoint < every {
            return None;
        }
        let path = self.checkpoint_file.clone()?;
        self.records_since_checkpoint = 0;
        Some(match self.write_checkpoint(&path) {
            Ok(_) => {
                self.auto_checkpoints += 1;
                Ok(path.display().to_string())
            }
            Err(e) => Err(e),
        })
    }

    fn checkpoint(&mut self, line: &str) -> String {
        let target = string_field(line, "file")
            .map(PathBuf::from)
            .or_else(|| self.checkpoint_file.clone());
        let Some(path) = target else {
            return fail("no checkpoint file: pass \"file\" or configure a default");
        };
        match self.write_checkpoint(&path) {
            Ok(bytes) => {
                let mut w = ok("checkpoint");
                w.field_str("file", &path.display().to_string());
                w.field_u64("bytes", bytes as u64);
                w.field_u64("cursor", self.engine.cursor());
                w.finish()
            }
            Err(e) => fail(&e),
        }
    }

    fn write_checkpoint(&self, path: &Path) -> Result<usize, String> {
        let bytes = Checkpoint::encode_engine(&self.engine);
        replace_file(path, &bytes)
            .map_err(|e| format!("cannot write checkpoint {}: {e}", path.display()))?;
        Ok(bytes.len())
    }

    /// Graceful shutdown: final checkpoint (when configured) + summary.
    fn drain(&mut self) -> (String, bool) {
        let mut w = ok("drain");
        w.field_u64("records_in", self.records_in);
        w.field_u64("alarms", self.alarms);
        w.field_u64("cursor", self.engine.cursor());
        if let Some(path) = self.checkpoint_file.clone() {
            match self.write_checkpoint(&path) {
                Ok(bytes) => {
                    w.field_str("checkpoint", &path.display().to_string());
                    w.field_u64("checkpoint_bytes", bytes as u64);
                }
                Err(e) => {
                    let response = fail(&format!("drain checkpoint failed: {e}"));
                    return (response, true);
                }
            }
        }
        (w.finish(), true)
    }
}

/// Where a file bound for `path` is staged: `<path>.tmp`, in the same
/// directory so the final rename never crosses a filesystem.
fn temporary_beside(path: &Path) -> PathBuf {
    path.with_added_extension("tmp")
}

/// Replaces `path` with `bytes` without ever exposing a partial file: the
/// bytes are staged [`temporary_beside`] it, synced, and renamed over the
/// target, so a kill at any point leaves either the previous contents or
/// the new, never a torn file.
fn replace_file(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = temporary_beside(path);
    let mut file = File::create(&tmp)?;
    let renamed = file
        .write_all(bytes)
        .and_then(|()| file.sync_all())
        .and_then(|()| fs::rename(&tmp, path));
    if renamed.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    renamed?;
    // The rename is durable once its directory is.
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}

/// Starts a success response for `cmd`.
fn ok(cmd: &str) -> JsonWriter {
    let mut w = JsonWriter::object();
    w.field_bool("ok", true);
    w.field_str("cmd", cmd);
    w
}

/// Renders a failure response.
fn fail(message: &str) -> String {
    let mut w = JsonWriter::object();
    w.field_bool("ok", false);
    w.field_str("error", message);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode_records, tamper_frame};
    use crate::pipeline::FeedConfig;
    use aspp_data::{Corpus, UpdateAction, UpdateRecord};
    use aspp_topology::{AsGraph, AsGraphBuilder};
    use aspp_types::Asn;
    use std::sync::Arc;

    fn attack_world() -> (Arc<AsGraph>, Corpus, Vec<UpdateRecord>) {
        let mut g = AsGraphBuilder::new();
        g.add_provider_customer(Asn(10), Asn(1)).unwrap();
        g.add_provider_customer(Asn(10), Asn(66)).unwrap();
        g.add_provider_customer(Asn(10), Asn(55)).unwrap();
        g.add_provider_customer(Asn(66), Asn(77)).unwrap();
        let g = g.finish();
        let p: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let mut seeds = Corpus::new();
        seeds.add_table_entry(Asn(77), p, "77 66 10 1 1 1".parse().unwrap());
        seeds.add_table_entry(Asn(55), p, "55 10 1 1 1".parse().unwrap());
        let updates = vec![UpdateRecord {
            seq: 1,
            monitor: Asn(77),
            prefix: p,
            action: UpdateAction::Announce("77 66 10 1".parse().unwrap()),
        }];
        (Arc::new(g), seeds, updates)
    }

    fn service() -> (DetectionService, Vec<UpdateRecord>) {
        let (graph, seeds, updates) = attack_world();
        let mut engine = FeedEngine::new(graph, &FeedConfig::new(2));
        engine.seed_from_corpus(&seeds);
        (DetectionService::new(engine), updates)
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("aspp_service_{}_{name}", std::process::id()))
    }

    /// The unsigned value of the first `"key":N` in a reply.
    fn u64_field(reply: &str, key: &str) -> u64 {
        let from = reply.find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
        let digits = reply[from..].bytes().take_while(u8::is_ascii_digit).count();
        reply[from..from + digits].parse().expect(key)
    }

    /// The `last_alarm` object of a `prefix` reply, when it carries one.
    fn last_alarm(reply: &str) -> Option<&str> {
        let from = reply.find("\"last_alarm\":")?;
        let to = from + reply[from..].find('}')?;
        Some(&reply[from..=to])
    }

    fn ingest(service: &mut DetectionService, file: &Path) -> String {
        let request = format!("{{\"cmd\":\"ingest\",\"file\":\"{}\"}}", file.display());
        service.handle(&request).0
    }

    fn prefix_reply(service: &mut DetectionService, prefix: &str) -> String {
        let request = format!("{{\"cmd\":\"prefix\",\"prefix\":\"{prefix}\"}}");
        service.handle(&request).0
    }

    #[test]
    fn string_field_handles_the_flat_protocol() {
        assert_eq!(
            string_field(r#"{"cmd":"status"}"#, "cmd").as_deref(),
            Some("status")
        );
        assert_eq!(
            string_field(r#"{ "cmd" : "prefix" , "prefix": "10.0.0.0/24"}"#, "prefix").as_deref(),
            Some("10.0.0.0/24")
        );
        assert_eq!(
            string_field(r#"{"file":"a \"b\\c\" d"}"#, "file").as_deref(),
            Some(r#"a "b\c" d"#)
        );
        assert_eq!(string_field(r#"{"cmd":"x"}"#, "file"), None);
        assert_eq!(string_field(r#"{"cmd": 7}"#, "cmd"), None);
        assert_eq!(string_field(r#"{"cmd":"unterminated"#, "cmd"), None);
    }

    #[test]
    fn string_field_round_trips_what_json_writer_escapes() {
        for value in [
            "\u{1}",
            "a\u{1f}b",
            "back\u{8}space",
            "form\u{c}feed",
            "10.0.0.0/24",
            "caf\u{e9} \u{2192} \u{1d11e}",
            "tab\t nl\n cr\r quote\" backslash\\",
        ] {
            let mut w = JsonWriter::object();
            w.field_str("cmd", "ingest");
            w.field_str("file", value);
            let line = w.finish();
            assert_eq!(
                string_field(&line, "file").as_deref(),
                Some(value),
                "{line}"
            );
        }
        // JSON escapes JsonWriter never writes, a surrogate pair among them.
        assert_eq!(
            string_field(r#"{"file":"\b\f\/\u00e9\ud834\udd1e"}"#, "file").as_deref(),
            Some("\u{8}\u{c}/\u{e9}\u{1d11e}")
        );
        for malformed in [
            r#"{"file":"\ud834"}"#,
            r#"{"file":"\ud834x"}"#,
            r#"{"file":"\ud834\u0041"}"#,
            r#"{"file":"\udd1e"}"#,
            r#"{"file":"\u12"}"#,
            r#"{"file":"\u+123"}"#,
        ] {
            assert_eq!(string_field(malformed, "file"), None, "{malformed}");
        }
    }

    #[test]
    fn escaped_prefix_requests_resolve_to_the_prefix() {
        let (mut service, _) = service();
        let plain = prefix_reply(&mut service, "10.0.0.0/24");
        assert!(plain.contains("\"monitors\":2"), "{plain}");
        for escaped in [r"10.0.0.0\/24", r"\u0031\u0030.0.0.0/24"] {
            assert_eq!(prefix_reply(&mut service, escaped), plain, "{escaped}");
        }
        let lone = prefix_reply(&mut service, r"\ud834.0.0.0/24");
        assert!(lone.contains("\"ok\":false"), "{lone}");
    }

    #[test]
    fn status_prefix_and_errors_over_the_loop() {
        let (mut service, _) = service();
        let input = concat!(
            "{\"cmd\":\"status\"}\n",
            "\n",
            "{\"cmd\":\"prefix\",\"prefix\":\"10.0.0.0/24\"}\n",
            "{\"cmd\":\"prefix\",\"prefix\":\"not-a-prefix\"}\n",
            "{\"nope\":1}\n",
            "{\"cmd\":\"bogus\"}\n",
        );
        let mut out = Vec::new();
        service.run(input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6, "5 responses + drain: {text}");
        assert!(lines[0].contains("\"cmd\":\"status\"") && lines[0].contains("\"ok\":true"));
        assert!(lines[1].contains("\"monitors\":2"), "{}", lines[1]);
        assert!(lines[2].contains("\"ok\":false"));
        assert!(lines[3].contains("no \\\"cmd\\\"") || lines[3].contains("\"ok\":false"));
        assert!(lines[4].contains("unknown cmd"));
        assert!(
            lines[5].contains("\"cmd\":\"drain\""),
            "EOF drains: {}",
            lines[5]
        );
    }

    #[test]
    fn ingest_accumulates_records_and_alarms() {
        let (mut service, updates) = service();
        let stream = tmp("ingest.bin");
        fs::write(&stream, encode_records(&updates)).unwrap();
        let input = format!(
            "{{\"cmd\":\"ingest\",\"file\":\"{}\"}}\n{{\"cmd\":\"prefix\",\"prefix\":\"10.0.0.0/24\"}}\n{{\"cmd\":\"status\"}}\n",
            stream.display()
        );
        let mut out = Vec::new();
        service.run(input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let raised = u64_field(lines[0], "alarms");
        assert!(raised >= 1, "the interception must alarm: {}", lines[0]);
        assert!(lines[0].contains("\"records\":1"), "{}", lines[0]);
        // The one stream prefix carries every alarm; status and the drain
        // summary report the same lifetime total.
        assert_eq!(u64_field(lines[1], "alarms"), raised, "{}", lines[1]);
        let last = last_alarm(lines[1]).expect("prefix reply names the last alarm");
        assert!(last.contains("\"triggered_by_seq\":1"), "{last}");
        assert_eq!(u64_field(lines[2], "alarms"), raised, "{}", lines[2]);
        assert_eq!(u64_field(lines[3], "alarms"), raised, "{}", lines[3]);
        assert_eq!(service.engine().cursor(), 1);
        let _ = fs::remove_file(&stream);
    }

    /// The `prefix` query reads a per-prefix summary, not an alarm log: its
    /// reply does not move (and stays cheap) however many alarms other
    /// prefixes raise afterwards, and a prefix nobody announced reads zero.
    #[test]
    fn prefix_reply_is_unmoved_by_alarms_on_other_prefixes() {
        let (mut service, updates) = service();
        let stream = tmp("summary_own.bin");
        fs::write(&stream, encode_records(&updates)).unwrap();
        ingest(&mut service, &stream);
        let before = prefix_reply(&mut service, "10.0.0.0/24");
        assert!(last_alarm(&before).is_some(), "{before}");
        let own = u64_field(&service.status(), "alarms");

        // The same interception against 5 000 other prefixes.
        let mut others = Vec::new();
        for i in 0..5_000u32 {
            let prefix = Ipv4Prefix::containing(0x0b00_0000 | (i << 8), 24);
            for (monitor, path) in [
                (55, "55 10 1 1 1"),
                (77, "77 66 10 1 1 1"),
                (77, "77 66 10 1"),
            ] {
                others.push(UpdateRecord {
                    seq: others.len() as u64 + 2,
                    monitor: Asn(monitor),
                    prefix,
                    action: UpdateAction::Announce(path.parse().unwrap()),
                });
            }
        }
        fs::write(&stream, encode_records(&others)).unwrap();
        let reply = ingest(&mut service, &stream);
        assert!(u64_field(&reply, "alarms") >= 10_000, "{reply}");
        assert_eq!(
            u64_field(&service.status(), "alarms"),
            own + u64_field(&reply, "alarms")
        );

        assert_eq!(prefix_reply(&mut service, "10.0.0.0/24"), before);
        let untracked = prefix_reply(&mut service, "192.0.2.0/24");
        assert!(
            untracked.contains("\"monitors\":0,\"alarms\":0") && last_alarm(&untracked).is_none(),
            "{untracked}"
        );
        let _ = fs::remove_file(&stream);
    }

    #[test]
    fn checkpoint_command_roundtrips_through_restore() {
        let (mut service, updates) = service();
        let stream = tmp("ckpt_stream.bin");
        let ckpt = tmp("state.ckpt");
        fs::write(&stream, encode_records(&updates)).unwrap();
        let input = format!(
            "{{\"cmd\":\"ingest\",\"file\":\"{}\"}}\n{{\"cmd\":\"checkpoint\",\"file\":\"{}\"}}\n",
            stream.display(),
            ckpt.display()
        );
        let mut out = Vec::new();
        service.run(input.as_bytes(), &mut out).unwrap();
        assert!(String::from_utf8(out)
            .unwrap()
            .contains("\"cmd\":\"checkpoint\""));

        // A fresh, *unseeded* service restored from the file sees the same
        // cursor and live state.
        let (graph, _, _) = attack_world();
        let engine = FeedEngine::new(graph, &FeedConfig::new(1));
        let mut restored = DetectionService::new(engine);
        restored.restore_from_file(&ckpt).unwrap();
        assert_eq!(restored.engine().cursor(), 1);
        assert_eq!(restored.engine().tracked_prefixes(), 1);
        let status = restored.status();
        assert!(status.contains("\"restores\":1"), "{status}");
        let _ = fs::remove_file(&stream);
        let _ = fs::remove_file(&ckpt);
    }

    #[test]
    fn auto_checkpoint_cadence_survives_a_kill_between_cadences() {
        let (graph, seeds, updates) = attack_world();
        let p: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        // A 3-record stream: the cadence (every 2 records) fires after the
        // second, leaving the third uncheckpointed when the service dies.
        let mut stream = updates;
        stream.push(UpdateRecord {
            seq: 2,
            monitor: Asn(55),
            prefix: p,
            action: UpdateAction::Announce("55 10 1".parse().unwrap()),
        });
        // A late padded witness through AS10: it convicts the shortening
        // monitor 55 reported in record 2, so the lost tail carries an alarm.
        stream.push(UpdateRecord {
            seq: 3,
            monitor: Asn(88),
            prefix: p,
            action: UpdateAction::Announce("88 10 1 1 1".parse().unwrap()),
        });
        let head = tmp("cadence_head.bin");
        let tail = tmp("cadence_tail.bin");
        let ckpt = tmp("cadence.ckpt");
        fs::write(&head, encode_records(&stream[..2])).unwrap();
        fs::write(&tail, encode_records(&stream[2..])).unwrap();

        let mut engine = FeedEngine::new(Arc::clone(&graph), &FeedConfig::new(2));
        engine.seed_from_corpus(&seeds);
        let mut service = DetectionService::new(engine)
            .checkpoint_file(&ckpt)
            .checkpoint_every(2);

        // First life: the head ingest crosses the cadence and checkpoints
        // unprompted; the tail ingest stays below it and does not.
        let head_resp = ingest(&mut service, &head);
        assert!(head_resp.contains("\"auto_checkpoint\""), "{head_resp}");
        assert_eq!(service.auto_checkpoints(), 1);
        let tail_resp = ingest(&mut service, &tail);
        assert!(!tail_resp.contains("\"auto_checkpoint\""), "{tail_resp}");
        assert_eq!(service.engine().cursor(), 3);
        let status = service.status();
        assert!(status.contains("\"auto_checkpoints\":1"), "{status}");
        let tail_alarms = u64_field(&tail_resp, "alarms");
        assert!(tail_alarms >= 1, "the tail must alarm: {tail_resp}");
        let full_prefix = prefix_reply(&mut service, "10.0.0.0/24");
        assert_eq!(
            u64_field(&full_prefix, "alarms"),
            u64_field(&head_resp, "alarms") + tail_alarms
        );
        // Kill between cadences: drop without drain — no final checkpoint.
        drop(service);

        // Second life: restore lands on the cadence point (cursor 2, not
        // 3), and replaying the lost tail reconverges to the same alarms:
        // as many as the uninterrupted tail raised, ending on the same one.
        let engine = FeedEngine::new(graph, &FeedConfig::new(2));
        let mut revived = DetectionService::new(engine);
        revived.restore_from_file(&ckpt).unwrap();
        assert_eq!(
            revived.engine().cursor(),
            2,
            "the post-cadence record is the only loss"
        );
        let replay = ingest(&mut revived, &tail);
        assert!(replay.contains("\"ok\":true"), "{replay}");
        assert_eq!(revived.engine().cursor(), 3);
        assert_eq!(u64_field(&replay, "alarms"), tail_alarms, "{replay}");
        let revived_prefix = prefix_reply(&mut revived, "10.0.0.0/24");
        assert_eq!(u64_field(&revived_prefix, "alarms"), tail_alarms);
        assert_eq!(
            last_alarm(&revived_prefix),
            last_alarm(&full_prefix),
            "replayed tail must end on the uninterrupted run's last alarm"
        );
        for f in [&head, &tail, &ckpt] {
            let _ = fs::remove_file(f);
        }
    }

    #[test]
    fn drain_writes_the_configured_checkpoint() {
        let (service, _) = service();
        let ckpt = tmp("drain.ckpt");
        let mut service = service.checkpoint_file(&ckpt);
        let mut out = Vec::new();
        service
            .run(b"{\"cmd\":\"drain\"}\n" as &[u8], &mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"checkpoint\""), "{text}");
        assert!(Checkpoint::decode(&fs::read(&ckpt).unwrap()).is_ok());
        let _ = fs::remove_file(&ckpt);
    }

    /// Every checkpoint write — explicit, cadence, drain — stages beside the
    /// target and renames over it: nothing but the target is left behind,
    /// and a write that cannot be staged leaves the last good checkpoint
    /// byte for byte.
    #[test]
    fn checkpoint_writes_replace_the_target_atomically() {
        let dir = tmp("atomic");
        fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("state.ckpt");
        let stream = dir.join("stream.bin");
        let files_in_dir = || -> Vec<PathBuf> {
            let mut files: Vec<PathBuf> = fs::read_dir(&dir)
                .unwrap()
                .map(|entry| entry.unwrap().path())
                .filter(|path| *path != stream)
                .collect();
            files.sort();
            files
        };
        let (service, updates) = service();
        fs::write(&stream, encode_records(&updates)).unwrap();
        let mut service = service.checkpoint_file(&ckpt).checkpoint_every(1);

        let reply = service.handle("{\"cmd\":\"checkpoint\"}").0;
        assert!(reply.contains("\"ok\":true"), "{reply}");
        assert_eq!(files_in_dir(), std::slice::from_ref(&ckpt));
        let first = fs::read(&ckpt).unwrap();

        let reply = ingest(&mut service, &stream);
        assert!(reply.contains("\"auto_checkpoint\""), "{reply}");
        assert_eq!(files_in_dir(), std::slice::from_ref(&ckpt));
        let previous = fs::read(&ckpt).unwrap();
        assert_ne!(previous, first, "the cadence checkpoint replaced the first");

        // The staging path is taken: the write fails, the target is intact.
        fs::create_dir(temporary_beside(&ckpt)).unwrap();
        let reply = service.handle("{\"cmd\":\"checkpoint\"}").0;
        assert!(reply.contains("\"ok\":false"), "{reply}");
        assert!(reply.contains("cannot write checkpoint"), "{reply}");
        assert_eq!(fs::read(&ckpt).unwrap(), previous);
        let (graph, _, _) = attack_world();
        let restored_cursor = || {
            let engine = FeedEngine::new(Arc::clone(&graph), &FeedConfig::new(1));
            let mut revived = DetectionService::new(engine);
            revived.restore_from_file(&ckpt).unwrap();
            revived.engine().cursor()
        };
        assert_eq!(restored_cursor(), 1);
        fs::remove_dir(temporary_beside(&ckpt)).unwrap();

        // A write killed mid-stage leaves a partial `<file>.tmp` behind: the
        // target still restores, and the next checkpoint writes over the
        // stale stage and leaves only the target.
        fs::write(temporary_beside(&ckpt), &previous[..previous.len() / 2]).unwrap();
        assert_eq!(restored_cursor(), 1);
        let reply = service.handle("{\"cmd\":\"checkpoint\"}").0;
        assert!(reply.contains("\"ok\":true"), "{reply}");
        assert_eq!(files_in_dir(), std::slice::from_ref(&ckpt));
        assert_eq!(fs::read(&ckpt).unwrap(), previous);

        let (reply, stop) = service.handle("{\"cmd\":\"drain\"}");
        assert!(stop && reply.contains("\"checkpoint_bytes\""), "{reply}");
        assert_eq!(files_in_dir(), std::slice::from_ref(&ckpt));
        assert_eq!(fs::read(&ckpt).unwrap(), previous, "nothing moved since");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A stream with a bad frame changes nothing, over the protocol too: the
    /// service answers `"ok":false`, `status` does not move, and the
    /// corrected file gets the reply a fresh service gives.
    #[test]
    fn rejected_ingest_leaves_the_service_as_it_was() {
        let (mut fresh, _) = service();
        let (mut service, mut updates) = service();
        updates.push(UpdateRecord {
            seq: 2,
            monitor: Asn(55),
            prefix: updates[0].prefix,
            action: UpdateAction::Announce("55 10 1".parse().unwrap()),
        });
        let good = tmp("reject_good.bin");
        let bad = tmp("reject_bad.bin");
        let mut bytes = encode_records(&updates);
        fs::write(&good, &bytes).unwrap();
        tamper_frame(&mut bytes, 2, |payload| payload[17] = 2);
        fs::write(&bad, &bytes).unwrap();

        let input = format!(
            "{{\"cmd\":\"status\"}}\n{{\"cmd\":\"ingest\",\"file\":\"{}\"}}\n{{\"cmd\":\"status\"}}\n{{\"cmd\":\"ingest\",\"file\":\"{}\"}}\n",
            bad.display(),
            good.display()
        );
        let mut out = Vec::new();
        service.run(input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[1].contains("\"ok\":false"), "{}", lines[1]);
        assert!(
            lines[1].contains("line 2: unknown action tag 2"),
            "{}",
            lines[1]
        );
        assert_eq!(lines[2], lines[0], "status must not move");

        // Everything but the timing field, which closes the reply.
        fn timeless(reply: &str) -> &str {
            reply.split(",\"records_per_sec\"").next().unwrap_or(reply)
        }
        let expected = ingest(&mut fresh, &good);
        assert!(u64_field(&expected, "alarms") >= 1, "{expected}");
        assert_eq!(timeless(lines[3]), timeless(&expected));
        for f in [&good, &bad] {
            let _ = fs::remove_file(f);
        }
    }

    /// A bare stream header that declares `u32::MAX` frames is refused
    /// without reserving room for them, and the service keeps serving.
    #[test]
    fn a_hostile_frame_count_is_refused_and_the_service_goes_on() {
        let (mut fresh, updates) = service();
        let (mut service, _) = service();
        let hostile = tmp("hostile_count.bin");
        let good = tmp("hostile_good.bin");
        let mut header = encode_records(&[]);
        header[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        fs::write(&hostile, &header).unwrap();
        fs::write(&good, encode_records(&updates)).unwrap();

        let before = service.status();
        let reply = ingest(&mut service, &hostile);
        assert!(reply.contains("\"ok\":false"), "{reply}");
        assert!(
            reply.contains("stream ends after 0 of 4294967295 declared frames"),
            "{reply}"
        );
        assert_eq!(service.status(), before);
        let expected = ingest(&mut fresh, &good);
        let reply = ingest(&mut service, &good);
        assert!(u64_field(&reply, "alarms") >= 1, "{reply}");
        assert_eq!(u64_field(&reply, "alarms"), u64_field(&expected, "alarms"));
        assert_eq!(service.engine().cursor(), 1);
        for f in [&hostile, &good] {
            let _ = fs::remove_file(f);
        }
    }

    #[test]
    fn restore_rejects_a_corrupt_file_untouched() {
        let (mut service, _) = service();
        let path = tmp("corrupt.ckpt");
        let mut bytes = Checkpoint::capture(service.engine()).encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let before = service.engine().tracked_prefixes();
        assert!(service.restore_from_file(&path).is_err());
        assert_eq!(service.engine().tracked_prefixes(), before);
        assert!(service
            .restore_from_file(Path::new("/nonexistent/ckpt"))
            .is_err());
        let _ = fs::remove_file(&path);
    }
}
