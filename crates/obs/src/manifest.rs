//! Per-run provenance manifests.
//!
//! A [`RunManifest`] records everything needed to attribute and reproduce
//! one experiment run: the exact invocation, the git revision, the
//! topology's size and fingerprint, the seed, the strategy matrix the run
//! swept, per-phase wall times, and a [`MetricsSnapshot`] of the engine
//! counters accumulated during the run. The CLI writes one next to every
//! `results/` artifact (`--manifest PATH`), so every recorded number carries
//! its provenance.
//!
//! The JSON schema (`"schema": 1`) is documented in `EXPERIMENTS.md`.

use crate::counters::MetricsSnapshot;
use crate::json::JsonWriter;

/// Identity of the topology a run was computed over.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TopologyInfo {
    /// Number of ASes.
    pub nodes: u64,
    /// Number of AS-level links.
    pub links: u64,
    /// Order-independent structural fingerprint (e.g.
    /// `AsGraph::fingerprint`), identifying the graph across runs.
    pub fingerprint: u64,
}

/// One run's provenance record. Build with [`new`](Self::new), fill in
/// what the run knows, render with [`to_json`](Self::to_json) or persist
/// with [`write`](Self::write).
///
/// # Example
///
/// ```
/// use aspp_obs::{MetricsSnapshot, RunManifest, TopologyInfo};
///
/// let mut m = RunManifest::new("aspp impact");
/// m.seed = Some(2024);
/// m.scale = Some("paper".to_string());
/// m.topology = Some(TopologyInfo { nodes: 1490, links: 3338, fingerprint: 0xabcd });
/// m.push_strategy("StripPadding λ=1..8 Compliant");
/// m.push_phase("fig9", 12.5);
/// m.total_wall_ms = 14.0;
/// m.metrics = MetricsSnapshot::capture();
/// let json = m.to_json();
/// assert!(json.contains("\"tool\":\"aspp impact\""));
/// assert!(json.contains("\"fingerprint\":\"000000000000abcd\""));
/// ```
#[derive(Clone, Debug)]
pub struct RunManifest {
    /// The command that produced the run (e.g. `"aspp impact"`).
    pub tool: String,
    /// Raw command-line arguments after the subcommand.
    pub args: Vec<String>,
    /// `git rev-parse HEAD` of the working tree, when resolvable.
    pub git_rev: Option<String>,
    /// Unix timestamp (seconds) when the manifest was created.
    pub created_unix: u64,
    /// The run's RNG seed, when it has one.
    pub seed: Option<u64>,
    /// The experiment scale label (`"smoke"` / `"paper"`), when scaled.
    pub scale: Option<String>,
    /// The topology the run computed over, when it built one.
    pub topology: Option<TopologyInfo>,
    /// Human-readable strategy matrix: one entry per attack configuration
    /// family the run swept.
    pub strategy_matrix: Vec<String>,
    /// Per-phase wall times, in the order the phases ran.
    pub phases: Vec<(String, f64)>,
    /// The whole run's measured wall time, in milliseconds: at least the
    /// sum of `phases`, since not every step of a run is a recorded phase.
    pub total_wall_ms: f64,
    /// Engine counters accumulated during the run.
    pub metrics: MetricsSnapshot,
}

impl RunManifest {
    /// Schema version of [`to_json`](Self::to_json)'s output.
    pub const SCHEMA: u64 = 1;

    /// A manifest for `tool`, stamped with the current time and the git
    /// revision of the working directory (when resolvable).
    #[must_use]
    pub fn new(tool: &str) -> Self {
        RunManifest {
            tool: tool.to_string(),
            args: Vec::new(),
            git_rev: resolve_git_rev(),
            created_unix: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
            seed: None,
            scale: None,
            topology: None,
            strategy_matrix: Vec::new(),
            phases: Vec::new(),
            total_wall_ms: 0.0,
            metrics: MetricsSnapshot::default(),
        }
    }

    /// Appends one strategy-matrix entry.
    pub fn push_strategy(&mut self, entry: &str) {
        self.strategy_matrix.push(entry.to_string());
    }

    /// Appends one `(phase, wall-milliseconds)` timing row.
    pub fn push_phase(&mut self, name: &str, wall_ms: f64) {
        self.phases.push((name.to_string(), wall_ms));
    }

    /// Renders the manifest as a single JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::object();
        w.field_u64("schema", Self::SCHEMA);
        w.field_str("tool", &self.tool);
        let mut args = JsonWriter::array();
        for a in &self.args {
            args.element_str(a);
        }
        w.field_raw("args", &args.finish());
        w.field_str("git_rev", self.git_rev.as_deref().unwrap_or("unknown"));
        w.field_u64("created_unix", self.created_unix);
        if let Some(seed) = self.seed {
            w.field_u64("seed", seed);
        }
        if let Some(scale) = &self.scale {
            w.field_str("scale", scale);
        }
        if let Some(t) = &self.topology {
            let mut tw = JsonWriter::object();
            tw.field_u64("nodes", t.nodes);
            tw.field_u64("links", t.links);
            tw.field_str("fingerprint", &format!("{:016x}", t.fingerprint));
            w.field_raw("topology", &tw.finish());
        }
        let mut sm = JsonWriter::array();
        for s in &self.strategy_matrix {
            sm.element_str(s);
        }
        w.field_raw("strategy_matrix", &sm.finish());
        let mut ph = JsonWriter::object();
        for (name, ms) in &self.phases {
            ph.field_f64(name, *ms);
        }
        w.field_raw("wall_ms", &ph.finish());
        w.field_f64("total_wall_ms", self.total_wall_ms);
        w.field_raw("metrics", &self.metrics.to_json());
        w.finish()
    }

    /// Writes the manifest (plus a trailing newline) to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json() + "\n")
    }
}

/// The working tree's `git rev-parse HEAD`, or the `ASPP_GIT_REV`
/// environment variable, or `None`.
fn resolve_git_rev() -> Option<String> {
    if let Ok(rev) = std::env::var("ASPP_GIT_REV") {
        if !rev.is_empty() {
            return Some(rev);
        }
    }
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let rev = String::from_utf8(out.stdout).ok()?;
    let rev = rev.trim();
    (!rev.is_empty()).then(|| rev.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_renders_all_fields() {
        let mut m = RunManifest::new("aspp test");
        m.args = vec!["--paper".into(), "--seed".into(), "7".into()];
        m.seed = Some(7);
        m.scale = Some("paper".into());
        m.topology = Some(TopologyInfo {
            nodes: 10,
            links: 9,
            fingerprint: 0xdead_beef,
        });
        m.push_strategy("StripPadding keep=1");
        m.push_phase("fig9", 3.25);
        m.push_phase("fig10", 1.75);
        m.total_wall_ms = 5.5;
        let json = m.to_json();
        for needle in [
            "\"schema\":1",
            "\"tool\":\"aspp test\"",
            "\"args\":[\"--paper\",\"--seed\",\"7\"]",
            "\"seed\":7",
            "\"scale\":\"paper\"",
            "\"nodes\":10",
            "\"fingerprint\":\"00000000deadbeef\"",
            "\"strategy_matrix\":[\"StripPadding keep=1\"]",
            "\"fig9\":3.250",
            "\"total_wall_ms\":5.500",
            "\"metrics\":{\"clean_cache_hits\":0,",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn manifest_without_optionals_is_valid() {
        let m = RunManifest::new("bare");
        let json = m.to_json();
        assert!(json.contains("\"strategy_matrix\":[]"));
        assert!(json.contains("\"wall_ms\":{}"));
        assert!(!json.contains("\"seed\""));
    }
}
