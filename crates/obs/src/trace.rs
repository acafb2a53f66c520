//! Lightweight span tracing, runtime-gated.
//!
//! Spans are always compiled in; until a sink is installed the cost of
//! [`span`] is one relaxed atomic load and the guard drop is a no-op.
//! Install a sink with [`init_json_file`] (the CLI's `--trace-json PATH`);
//! each closed span then emits one JSON line:
//!
//! ```json
//! {"span":"compute_with","start_us":1234,"dur_us":56,"thread":"main"}
//! ```
//!
//! `start_us` is microseconds since the sink was installed, so spans from
//! different threads order on one clock.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::JsonWriter;

/// Fast gate checked by every [`span`] call.
static ACTIVE: AtomicBool = AtomicBool::new(false);

struct Sink {
    writer: Mutex<Box<dyn std::io::Write + Send>>,
    epoch: Instant,
}

static SINK: OnceLock<Sink> = OnceLock::new();

fn install(writer: Box<dyn std::io::Write + Send>) -> bool {
    let installed = SINK
        .set(Sink {
            writer: Mutex::new(writer),
            epoch: Instant::now(),
        })
        .is_ok();
    if installed {
        ACTIVE.store(true, Ordering::Release);
    }
    installed
}

/// Returns `true` if a trace sink is installed and spans are being
/// recorded.
#[must_use]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Installs a JSON-lines sink writing to `path` (truncating it). Returns
/// an error if the file cannot be created, `Ok(false)` if another sink was
/// installed first.
///
/// # Errors
///
/// Propagates the I/O error from creating `path`.
pub fn init_json_file(path: &str) -> std::io::Result<bool> {
    let file = std::fs::File::create(path)?;
    Ok(install(Box::new(std::io::BufWriter::new(file))))
}

/// Flushes the installed sink, if any. The CLI calls this before exiting
/// so `--trace-json` files are complete even though the sink is global.
pub fn flush() {
    if let Some(sink) = SINK.get() {
        if let Ok(mut w) = sink.writer.lock() {
            let _ = w.flush();
        }
    }
}

/// An open span. Created by [`span`]; records itself to the sink when
/// dropped. When tracing is inactive the guard holds nothing and drop does
/// nothing.
#[must_use = "a span measures the scope it is bound to — bind it with `let`"]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

/// Opens a span named `name` (a `'static` label such as `"compute_with"`).
/// The returned guard writes one JSON line when dropped, if tracing is
/// active.
///
/// # Example
///
/// ```
/// {
///     let _span = aspp_obs::trace::span("expensive_phase");
///     // ... work ...
/// } // span closes (and is recorded, when a sink is installed) here
/// ```
pub fn span(name: &'static str) -> Span {
    Span {
        name,
        start: active().then(Instant::now),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let Some(sink) = SINK.get() else { return };
        let start_us = start.duration_since(sink.epoch).as_micros() as u64;
        let dur_us = start.elapsed().as_micros() as u64;
        let mut line = JsonWriter::object();
        line.field_str("span", self.name);
        line.field_u64("start_us", start_us);
        line.field_u64("dur_us", dur_us);
        let current = std::thread::current();
        line.field_str("thread", current.name().unwrap_or("?"));
        if let Ok(mut w) = sink.writer.lock() {
            let _ = writeln!(w, "{}", line.finish());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_span_is_free_and_silent() {
        // No sink installed in this process: guards must be inert.
        assert!(!active());
        let g = span("test_span");
        assert!(g.start.is_none());
        drop(g);
    }
}
