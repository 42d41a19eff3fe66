//! The `--metrics <path>` run-report layer shared by every bench
//! binary.
//!
//! When a binary is invoked with `--metrics out.json`, telemetry
//! collection is switched on for the process and, at exit, a single
//! JSON document is written containing the run's wall-clock, its named
//! phases, every counter and histogram from the [`cat_telemetry`]
//! global registry, and (for campaign binaries) the aggregated
//! [`CampaignReport`]. The document follows the same hand-rolled JSON
//! conventions as `anafault::protocol` and parses back through
//! [`anafault::protocol::parse_json`].

use anafault::CampaignReport;
use cat_telemetry::json::{num, quote};
use std::time::Instant;

/// Counter keys every run report must contain. Keys the registry has
/// not seen (a dense-only campaign never touches the sparse cache) are
/// written with value 0 rather than omitted, so report consumers —
/// including the CI smoke job — can rely on their presence.
pub const REQUIRED_COUNTERS: &[&str] = &[
    "spice.sparse.pattern_builds",
    "spice.sparse.pattern_cache.hits",
    "spice.sparse.pattern_cache.misses",
    "spice.sparse.refactorisations",
    "spice.sparse.repivots",
    "spice.sparse.dense_fallbacks",
    "spice.sparse.demotions",
    "spice.tran.runs",
    "spice.tran.steps",
    "spice.newton.iterations",
    "spice.newton.cycle_exits",
    "spice.batch.batches",
    "spice.batch.lanes",
    "spice.batch.compactions",
    "spice.batch.refills",
    "spice.batch.ejections",
    "anafault.serve.requests",
    "anafault.serve.campaigns_started",
    "anafault.serve.campaigns_resumed",
    "anafault.serve.faults_replayed",
    "anafault.serve.stream_bytes",
    "anafault.diagnose.dictionaries_built",
    "anafault.diagnose.entries",
    "anafault.diagnose.classes",
    "anafault.diagnose.rankings",
];

/// Schema tag stamped into every run report.
pub const REPORT_SCHEMA: &str = "bench-report/1";

/// Per-binary metrics session. Construct with [`Metrics::from_args`]
/// at the top of `main`, mark coarse stages with [`Metrics::phase`],
/// and call [`Metrics::finish`] last.
#[derive(Debug)]
pub struct Metrics {
    bench: &'static str,
    path: Option<String>,
    start: Instant,
    phases: Vec<(String, f64)>,
    current: Option<(String, Instant)>,
    campaign: Option<CampaignReport>,
    batch: Option<BatchSummary>,
    diagnosis: Option<DiagnosisSummary>,
}

/// The batching trajectory entry written into the run report: which
/// lane width ran and what it bought over the scalar baseline.
#[derive(Debug, Clone, Copy)]
pub struct BatchSummary {
    /// Configured lane width.
    pub width: usize,
    /// Scalar/batched wall-clock ratio (> 1 means batching wins), or
    /// `None` when no scalar baseline ran alongside.
    pub speedup: Option<f64>,
    /// Whether scalar and batched verdicts agreed on every fault
    /// (`None` without a baseline).
    pub verdicts_agree: Option<bool>,
}

/// The diagnosis entry written into the run report: dictionary size,
/// ambiguity structure, and self-diagnosis accuracy. Produced by
/// [`crate::self_diagnose`].
#[derive(Debug, Clone, Copy)]
pub struct DiagnosisSummary {
    /// Faults with recorded signatures (dictionary entries).
    pub entries: usize,
    /// Ambiguity classes after clustering indistinguishable faults.
    pub classes: usize,
    /// Detected faults probed back through the dictionary.
    pub queries: usize,
    /// Probes whose true ambiguity class ranked first.
    pub top1: usize,
    /// Probes whose true ambiguity class ranked in the first three.
    pub top3: usize,
}

impl Metrics {
    /// Reads `--metrics <path>` from the process arguments. When the
    /// flag is present, telemetry collection is enabled process-wide;
    /// otherwise every later call is a cheap no-op.
    pub fn from_args(bench: &'static str) -> Metrics {
        let mut path = None;
        let mut args = std::env::args();
        while let Some(a) = args.next() {
            if a == "--metrics" {
                path = args.next();
                if path.is_none() {
                    eprintln!("--metrics requires a file path");
                    std::process::exit(2);
                }
            }
        }
        Metrics::with_path(bench, path)
    }

    /// Builds a session from an already-parsed `--metrics` value — the
    /// entry point for binaries on the shared [`crate::ArgSpec`]
    /// parser, which owns the argument scan.
    pub fn with_path(bench: &'static str, path: Option<String>) -> Metrics {
        if path.is_some() {
            cat_telemetry::set_enabled(true);
        }
        Metrics {
            bench,
            path,
            start: Instant::now(),
            phases: Vec::new(),
            current: None,
            campaign: None,
            batch: None,
            diagnosis: None,
        }
    }

    /// True when `--metrics` was given (telemetry is being collected).
    pub fn active(&self) -> bool {
        self.path.is_some()
    }

    /// Closes the running phase (if any) and opens a new one.
    pub fn phase(&mut self, name: &str) {
        self.end_phase();
        self.current = Some((name.to_string(), Instant::now()));
    }

    /// Attaches the aggregated campaign report to the run report.
    pub fn attach_campaign(&mut self, report: CampaignReport) {
        self.campaign = Some(report);
    }

    /// Attaches the batching summary (chosen lane width plus measured
    /// speedup and verdict agreement when a scalar baseline ran).
    pub fn attach_batch(&mut self, batch: BatchSummary) {
        self.batch = Some(batch);
    }

    /// Attaches the fault-dictionary self-diagnosis summary.
    pub fn attach_diagnosis(&mut self, diagnosis: DiagnosisSummary) {
        self.diagnosis = Some(diagnosis);
    }

    /// Closes the session: when `--metrics` was given, renders the run
    /// report and writes it to the requested path.
    pub fn finish(mut self) {
        self.end_phase();
        let Some(path) = self.path.take() else {
            return;
        };
        let report = render_report(
            self.bench,
            self.start.elapsed().as_secs_f64(),
            &self.phases,
            self.campaign.as_ref(),
            self.batch,
            self.diagnosis,
        );
        match std::fs::write(&path, report) {
            Ok(()) => eprintln!("metrics report written to {path}"),
            Err(e) => {
                eprintln!("failed to write metrics report to {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    fn end_phase(&mut self) {
        if let Some((name, t0)) = self.current.take() {
            self.phases.push((name, t0.elapsed().as_secs_f64()));
        }
    }
}

/// Renders the run-report JSON document: schema tag, bench name,
/// wall-clock, phases, the global registry's counters (with
/// [`REQUIRED_COUNTERS`] zero-filled) and histograms, plus the
/// campaign report when one was attached. Public so tests can validate
/// the schema without spawning a binary.
pub fn render_report(
    bench: &str,
    wall_seconds: f64,
    phases: &[(String, f64)],
    campaign: Option<&CampaignReport>,
    batch: Option<BatchSummary>,
    diagnosis: Option<DiagnosisSummary>,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": {},\n", quote(REPORT_SCHEMA)));
    s.push_str(&format!("  \"bench\": {},\n", quote(bench)));
    s.push_str(&format!("  \"wall_seconds\": {},\n", num(wall_seconds)));

    s.push_str("  \"phases\": [");
    for (i, (name, seconds)) in phases.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!(
            "{{\"name\": {}, \"seconds\": {}}}",
            quote(name),
            num(*seconds)
        ));
    }
    s.push_str("],\n");

    let mut counters = cat_telemetry::global().counter_values();
    for key in REQUIRED_COUNTERS {
        counters.entry(key.to_string()).or_insert(0);
    }
    s.push_str("  \"counters\": {");
    for (i, (name, value)) in counters.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("{}: {}", quote(name), value));
    }
    s.push_str("},\n");

    let histograms = cat_telemetry::global().histogram_snapshots();
    s.push_str("  \"histograms\": {");
    for (i, (name, snapshot)) in histograms.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("{}: {}", quote(name), snapshot.to_json()));
    }
    s.push_str("},\n");

    match batch {
        Some(b) => {
            let speedup = match b.speedup {
                Some(v) => num(v),
                None => "null".to_string(),
            };
            let agree = match b.verdicts_agree {
                Some(v) => v.to_string(),
                None => "null".to_string(),
            };
            s.push_str(&format!(
                "  \"batch\": {{\"width\": {}, \"speedup\": {}, \"verdicts_agree\": {}}},\n",
                b.width, speedup, agree
            ));
        }
        None => s.push_str("  \"batch\": null,\n"),
    }

    match diagnosis {
        Some(d) => s.push_str(&format!(
            "  \"diagnosis\": {{\"entries\": {}, \"classes\": {}, \"queries\": {}, \
             \"top1\": {}, \"top3\": {}}},\n",
            d.entries, d.classes, d.queries, d.top1, d.top3
        )),
        None => s.push_str("  \"diagnosis\": null,\n"),
    }

    match campaign {
        Some(report) => s.push_str(&format!("  \"campaign\": {}\n", report.to_json())),
        None => s.push_str("  \"campaign\": null\n"),
    }
    s.push_str("}\n");
    s
}
