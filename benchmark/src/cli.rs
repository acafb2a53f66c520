//! Drives the `aspp` binary the way a user does: one child process at a
//! time, flags and generated files in, stdout out. The harness side is one
//! thread plus a sleeping poller that reads the child's memory high-water
//! mark from `/proc`.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::json::{self, Value};

/// The built CLI and the directory it runs in.
#[derive(Clone, Debug)]
pub struct Aspp {
    pub bin: PathBuf,
    pub root: PathBuf,
}

/// One finished one-shot command.
#[derive(Debug)]
pub struct BatchRun {
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    pub success: bool,
    pub stdout: String,
}

/// `VmHWM` of `pid` in MB (`None` once the process is gone).
fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

impl Aspp {
    fn command(&self, args: &[&str]) -> Command {
        let mut cmd = Command::new(&self.bin);
        cmd.args(args).current_dir(&self.root);
        cmd
    }

    /// Runs `aspp <args>` to completion: wall from spawn to exit, stdout,
    /// and the highest `VmHWM` a 10 ms poll saw.
    pub fn run(&self, args: &[&str]) -> Result<BatchRun, String> {
        let started = Instant::now();
        let mut child = self
            .command(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", self.bin.display()))?;
        let pid = child.id();
        let mut pipe = child.stdout.take().expect("stdout is piped");
        let done = AtomicBool::new(false);
        let (peak_rss_mb, read, status, wall_s) = std::thread::scope(|scope| {
            let poller = scope.spawn(|| {
                let mut peak: f64 = 0.0;
                while !done.load(Ordering::SeqCst) {
                    if let Some(mb) = vm_hwm_mb(pid) {
                        peak = peak.max(mb);
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                peak
            });
            let mut stdout = String::new();
            // Returns at end of file, which is when the child exits.
            let read = pipe.read_to_string(&mut stdout).map(|_| stdout);
            let status = child.wait();
            // Before the poller is joined: its last sleep is not the child's time.
            let wall_s = started.elapsed().as_secs_f64();
            done.store(true, Ordering::SeqCst);
            let peak = poller.join().expect("the RSS poller does not panic");
            (peak, read, status, wall_s)
        });
        let stdout = read.map_err(|e| format!("reading aspp stdout: {e}"))?;
        let status = status.map_err(|e| format!("waiting for aspp: {e}"))?;
        Ok(BatchRun {
            wall_s,
            peak_rss_mb,
            success: status.success(),
            stdout,
        })
    }

    /// Starts a resident `aspp serve` session.
    pub fn serve(&self, args: &[&str]) -> Result<Session, String> {
        let started = Instant::now();
        let mut child = self
            .command(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", self.bin.display()))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Session {
            child,
            stdin: Some(stdin),
            stdout,
            started,
            attempted: 0,
            failed: 0,
        })
    }
}

/// A running `aspp serve` child spoken to in JSONL, one request at a time.
/// Every request counts as attempted; an I/O error, an unparsable reply or
/// `"ok":false` counts as failed.
pub struct Session {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub started: Instant,
    pub attempted: u64,
    pub failed: u64,
}

impl Session {
    fn exchange(&mut self, line: &str) -> Result<Value, String> {
        let stdin = self.stdin.as_mut().ok_or("session already closed")?;
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("writing request: {e}"))?;
        let mut reply = String::new();
        let n = self
            .stdout
            .read_line(&mut reply)
            .map_err(|e| format!("reading reply: {e}"))?;
        if n == 0 {
            return Err("aspp serve closed its stdout".into());
        }
        let value = json::parse(&reply)?;
        match value.get("ok").and_then(Value::as_bool) {
            Some(true) => Ok(value),
            _ => Err(format!("request {line} answered {}", reply.trim())),
        }
    }

    /// Sends one request; returns the reply (or why it failed) and the
    /// round-trip time in seconds.
    pub fn request(&mut self, line: &str) -> (Result<Value, String>, f64) {
        let sent = Instant::now();
        let reply = self.exchange(line);
        let rtt = sent.elapsed().as_secs_f64();
        self.attempted += 1;
        if reply.is_err() {
            self.failed += 1;
        }
        (reply, rtt)
    }

    pub fn peak_rss_mb(&self) -> f64 {
        vm_hwm_mb(self.child.id()).unwrap_or(0.0)
    }

    /// Closes stdin and waits for the child; true when it exited with 0.
    pub fn finish(mut self) -> bool {
        drop(self.stdin.take());
        self.child.wait().map(|s| s.success()).unwrap_or(false)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // Reached with a live child only when a run is abandoned on error:
        // never leave a process behind. Errors mean it is already gone.
        drop(self.stdin.take());
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Builds `target/release/aspp` from the sources in `root` and returns it.
/// Honours `CARGO_TARGET_DIR` (relative values are relative to `root`, where
/// both this harness and the nested cargo run).
pub fn build_aspp(root: &Path) -> Result<Aspp, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "--bin", "aspp"])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "cargo build --release failed in {}",
            root.display()
        ));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bin = root.join(target).join("release").join("aspp");
    if !bin.is_file() {
        return Err(format!("{} was not built", bin.display()));
    }
    Ok(Aspp {
        bin,
        root: root.to_path_buf(),
    })
}

/// Replaces the figures of the two timing phrases the CLI prints
/// (`in 2302.7 ms`, `wall: 748.1 ms`) with `#`, so that two runs of one
/// command can be compared byte for byte.
pub fn mask_timing(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    'scan: while !rest.is_empty() {
        for lead in ["in ", "wall: "] {
            let Some(tail) = rest.strip_prefix(lead) else {
                continue;
            };
            let digits = tail
                .find(|c: char| !c.is_ascii_digit() && c != '.')
                .unwrap_or(tail.len());
            // "in " must start a word: "within 5 ms" is not a timing phrase.
            let starts_word = !out.ends_with(|c: char| c.is_alphanumeric());
            if digits > 0 && starts_word && tail[digits..].starts_with(" ms") {
                out.push_str(lead);
                out.push('#');
                rest = &tail[digits..];
                continue 'scan;
            }
        }
        let c = rest.chars().next().expect("rest is not empty");
        out.push(c);
        rest = &rest[c.len_utf8()..];
    }
    out
}

/// The lines of `text` that carry results: blank lines and lines holding a
/// timing phrase dropped. What an in-process replay must reproduce.
pub fn result_lines(text: &str) -> Vec<&str> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && mask_timing(l) == *l)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_only_the_timing_figures() {
        assert_eq!(
            mask_timing("defense: 32 grid cells x 3 pairs on 80000 ASes in 2302.7 ms [batch]\n"),
            "defense: 32 grid cells x 3 pairs on 80000 ASes in # ms [batch]\n"
        );
        assert_eq!(
            mask_timing("wall: 748.1 ms on 80000 ASes [batch]"),
            "wall: # ms on 80000 ASes [batch]"
        );
        // Result figures, and words that merely end in "in", stay.
        let table = "mean pollution       0.0368\nwithin 5 ms of origin 12 ms\nλ in 3 steps\n";
        assert_eq!(mask_timing(table), table);
        assert_eq!(mask_timing("done in 7 ms"), "done in # ms");
    }

    #[test]
    fn masked_runs_of_one_command_compare_equal() {
        let a = "rows 3\nwall: 10.5 ms on 9 ASes\n";
        let b = "rows 3\nwall: 912.25 ms on 9 ASes\n";
        assert_ne!(a, b);
        assert_eq!(mask_timing(a), mask_timing(b));
        assert_ne!(
            mask_timing(a),
            mask_timing("rows 4\nwall: 10.5 ms on 9 ASes\n")
        );
    }

    #[test]
    fn result_lines_drop_timing_and_blank_lines() {
        let text = "# title\n\nrow 1\nwall: 3.0 ms on 5 ASes\n";
        assert_eq!(result_lines(text), vec!["# title", "row 1"]);
    }
}
