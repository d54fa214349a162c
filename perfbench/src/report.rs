//! What one benchmark run found: correctness gates, operation counts and
//! metrics, printed as a human-readable table followed by the one-line
//! JSON result.

use crate::span::Recorder;
use crate::stats::{summarize, windowed_p99, Summary};
use std::collections::BTreeMap;
use std::path::Path;

struct Metric {
    value: f64,
    unit: &'static str,
    /// Human-readable detail: sample count, tail, meaning.
    detail: String,
    /// Whether the metric goes into the JSON result. Metrics this shared
    /// machine cannot measure steadily are printed but not gated.
    gated: bool,
}

/// The accumulating result of one run.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<String, Metric>,
    /// Set-up medians by section, seconds; `setup_s` is their sum.
    setups: Vec<(&'static str, f64, usize)>,
    failed_gates: Vec<String>,
    gates_passed: BTreeMap<&'static str, u64>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Report {
    /// Records a correctness gate; a failed gate fails the run.
    pub fn gate(&mut self, name: &'static str, ok: bool, detail: String) {
        if ok {
            *self.gates_passed.entry(name).or_default() += 1;
        } else {
            self.failed_gates.push(format!("{name}: {detail}"));
        }
    }

    /// Counts operations attempted and failed.
    pub fn attempt(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records one section's set-up times (seconds); its median joins
    /// `setup_s`.
    pub fn setup(&mut self, section: &'static str, samples: &[f64]) {
        let s = summarize(samples).expect("set-up ran");
        self.setups.push((section, s.p50, s.n));
    }

    /// Records an end-to-end timing as its median; `gated` says whether it
    /// goes into the JSON result.
    pub fn timing(
        &mut self,
        name: &str,
        unit: &'static str,
        samples: &[f64],
        what: &str,
        gated: bool,
    ) {
        let s = summarize(samples).expect("timing has samples");
        self.metrics.insert(
            name.to_string(),
            Metric {
                value: s.p50,
                unit,
                detail: format!("{}; {what}", s.render(unit)),
                gated,
            },
        );
    }

    /// Records an end-to-end value measured over `n` samples; `gated`
    /// says whether it goes into the JSON result.
    pub fn value(
        &mut self,
        name: &str,
        unit: &'static str,
        value: f64,
        n: usize,
        what: &str,
        gated: bool,
    ) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                detail: format!("n={n}; {what}"),
                gated,
            },
        );
    }

    /// Records a latency series cut into windows as
    /// `<prefix>_p50_us<suffix>` (median of all samples) and
    /// `<prefix>_p99_us<suffix>` (median of the windows' p99s). Neither is
    /// gated: latencies on this shared machine swing with its neighbours'
    /// load by more than any bound a metric may have. Fails the run when a
    /// window is too short to have ten samples beyond its p99.
    pub fn latency(&mut self, prefix: &str, suffix: &str, windows: &[Vec<f64>], what: &str) {
        let all: Vec<f64> = windows.iter().flatten().copied().collect();
        let (Some(s), Some(p99)) = (summarize(&all), windowed_p99(windows)) else {
            self.failed_gates.push(format!(
                "{prefix}{suffix}: {} samples in {} windows are too few for a p99",
                all.len(),
                windows.len()
            ));
            return;
        };
        let detail = format!(
            "p50 {:.3} us, median of {} window p99s {p99:.3} us (n={}); {what}",
            s.p50,
            windows.len(),
            s.n
        );
        for (name, value) in [("p50", s.p50), ("p99", p99)] {
            self.metrics.insert(
                format!("{prefix}_{name}_us{suffix}"),
                Metric {
                    value,
                    unit: "us",
                    detail: detail.clone(),
                    gated: false,
                },
            );
        }
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                detail: String::new(),
                gated: true,
            },
        );
    }

    /// Records a per-layer timing series as `<name>.p50` and `<name>.p99`.
    pub fn layer_summary(&mut self, name: &str, unit: &'static str, s: &Summary) {
        self.layer(&format!("{name}.p50"), unit, s.p50);
        match s.p99() {
            Some(p99) => self.layer(&format!("{name}.p99"), unit, p99),
            None => self
                .failed_gates
                .push(format!("{name}: {} samples are too few for a p99", s.n)),
        }
    }

    /// Adds a line to the human-readable output.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Writes the recorder's spans to `path` and notes where they went.
    pub fn write_spans(&mut self, rec: &Recorder, path: &Path) {
        match rec.write_tsv(path) {
            Ok(()) => self.note(format!("{} spans written to {}", rec.len(), path.display())),
            Err(e) => self
                .failed_gates
                .push(format!("spans: cannot write {}: {e}", path.display())),
        }
    }

    /// Prints the table and the JSON result line; returns whether every
    /// gate passed.
    pub fn finish(mut self, header: &str, with_setup: bool) -> bool {
        if with_setup && !self.setups.is_empty() {
            let total: f64 = self.setups.iter().map(|(_, v, _)| v).sum();
            let parts: Vec<String> = self
                .setups
                .iter()
                .map(|(section, v, n)| format!("{section} {v:.4} s (median of {n})"))
                .collect();
            self.metrics.insert(
                "setup_s".to_string(),
                Metric {
                    value: total,
                    unit: "s",
                    detail: parts.join(" + "),
                    gated: true,
                },
            );
        }
        println!("{header}");
        for (name, m) in &self.metrics {
            let gate = if m.gated { "" } else { "(not gated) " };
            println!(
                "  {name:<34} {:>14.4} {:<6} {gate}{}",
                m.value, m.unit, m.detail
            );
        }
        for line in &self.notes {
            println!("  {line}");
        }
        let gates: Vec<String> = self
            .gates_passed
            .iter()
            .map(|(g, n)| format!("{g} x{n}"))
            .collect();
        println!("  gates passed: {}", gates.join(", "));
        if self.attempted == 0 {
            self.failed_gates
                .push(String::from("no operation was attempted"));
        }
        for (name, m) in &self.metrics {
            if m.gated && !m.value.is_finite() {
                self.failed_gates
                    .push(format!("{name}: not a finite number"));
            }
        }
        for failure in &self.failed_gates {
            println!("  GATE FAILED: {failure}");
        }
        let correct = self.failed_gates.is_empty();
        let metrics: Vec<(String, serde_json::Value)> = self
            .metrics
            .iter()
            .filter(|(_, m)| m.gated && m.value.is_finite())
            .map(|(name, m)| {
                (
                    name.clone(),
                    serde_json::json!({ "value": m.value, "unit": m.unit }),
                )
            })
            .collect();
        let result = serde_json::json!({
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": serde_json::Value::Object(metrics),
        });
        println!(
            "{}",
            serde_json::to_string(&result).expect("a tree of finite numbers and strings")
        );
        correct
    }
}
