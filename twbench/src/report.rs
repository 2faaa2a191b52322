//! The run report: a human-readable block with every metric by name, unit
//! and sample count, then the one-line JSON result.

use crate::layers::Layers;
use crate::util::Samples;

/// What a workload measured with tracing off.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Range-query latency as the caller saw it, ms.
    pub range: Samples,
    /// kNN latency, ms (served-sharded only).
    pub knn: Option<Samples>,
    /// Acknowledged WAL append latency, ms, and the writer's wall time, s
    /// (ingest-mixed only).
    pub appends: Option<(Samples, f64)>,
    /// Wall time of the measured loop, s.
    pub elapsed_s: f64,
    /// Queries completed in the measured loop (range + kNN).
    pub queries: u64,
    /// Set-up times of the repeated corpus builds, s.
    pub setup: Samples,
    pub peak_rss_mb: f64,
    pub disk_bytes_per_user_byte: f64,
}

/// Operations attempted and failed, and the correctness findings.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Records a failed correctness check: the operation it covers counts
    /// as failed and the run is not correct.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    /// Records a failed run-level invariant (no single operation to blame).
    pub fn invariant(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failures.push(what.to_string());
        }
    }
}

pub struct Report {
    pub workload: String,
    pub e2e: EndToEnd,
    pub checks: Checks,
    /// Per-layer metrics; present on traced runs.
    pub layers: Option<Layers>,
    /// Extra lines (reconciliation, fingerprints, overhead).
    pub notes: Vec<String>,
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: Option<usize>,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: Option<usize>) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// The end-to-end metrics every workload reports; these are the JSON
/// metrics of an untraced run.
const JSON_E2E: [&str; 6] = [
    "range_p50_ms",
    "range_p90_ms",
    "queries_per_s",
    "setup_s",
    "peak_rss_mb",
    "disk_bytes_per_user_byte",
];

impl EndToEnd {
    /// Every end-to-end metric this workload exercises. Workload-specific
    /// ones (kNN, appends, p99 with ≥ 1 000 samples) are omitted where not
    /// exercised rather than reported as 0.
    fn metrics(&self, checks: &Checks) -> Vec<Metric> {
        let mut m = vec![
            metric(
                "range_p50_ms",
                self.range.median(),
                "ms",
                Some(self.range.len()),
            ),
            metric(
                "range_p90_ms",
                self.range.pct(0.9),
                "ms",
                Some(self.range.len()),
            ),
        ];
        if self.range.len() >= 1000 {
            m.push(metric(
                "range_p99_ms",
                self.range.pct(0.99),
                "ms",
                Some(self.range.len()),
            ));
        }
        if let Some(knn) = &self.knn {
            m.push(metric("knn_p50_ms", knn.median(), "ms", Some(knn.len())));
            m.push(metric("knn_p90_ms", knn.pct(0.9), "ms", Some(knn.len())));
        }
        m.push(metric(
            "queries_per_s",
            self.queries as f64 / self.elapsed_s,
            "1/s",
            Some(self.queries as usize),
        ));
        if let Some((appends, writer_s)) = &self.appends {
            m.push(metric(
                "appends_per_s",
                appends.len() as f64 / writer_s,
                "1/s",
                Some(appends.len()),
            ));
            m.push(metric(
                "append_p50_ms",
                appends.median(),
                "ms",
                Some(appends.len()),
            ));
            m.push(metric(
                "append_p99_ms",
                appends.pct(0.99),
                "ms",
                Some(appends.len()),
            ));
        }
        m.push(metric(
            "setup_s",
            self.setup.median(),
            "s",
            Some(self.setup.len()),
        ));
        let ratio = if checks.attempted == 0 {
            0.0
        } else {
            checks.failed as f64 / checks.attempted as f64
        };
        m.push(metric(
            "failed_ratio",
            ratio,
            "ratio",
            Some(checks.attempted as usize),
        ));
        m.push(metric("peak_rss_mb", self.peak_rss_mb, "MiB", None));
        m.push(metric(
            "disk_bytes_per_user_byte",
            self.disk_bytes_per_user_byte,
            "ratio",
            None,
        ));
        m
    }
}

/// A JSON number with all its digits; non-finite values become 0 (they
/// cannot occur for the metrics below, whose denominators are checked).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

impl Report {
    pub fn print(&self, traced: bool) {
        println!("== twbench {} ==", self.workload);
        println!("-- end to end (tracing off)");
        let e2e = self.e2e.metrics(&self.checks);
        for m in &e2e {
            match m.samples {
                Some(n) => println!("{:<26} {:>14.4} {:<6} (n={n})", m.name, m.value, m.unit),
                None => println!("{:<26} {:>14.4} {}", m.name, m.value, m.unit),
            }
        }
        if let Some(layers) = &self.layers {
            println!("-- per layer (traced run)");
            for (name, value, unit) in layers.rows() {
                println!("{name:<34} {value:>14.4} {unit}");
            }
        }
        for note in &self.notes {
            println!("{note}");
        }
        for f in &self.checks.failures {
            println!("CHECK FAILED: {f}");
        }
        println!(
            "correct: {}; {} operation(s) attempted, {} failed",
            self.checks.failures.is_empty(),
            self.checks.attempted,
            self.checks.failed
        );

        let metrics: Vec<String> = if traced {
            self.layers
                .as_ref()
                .map(|l| {
                    l.rows()
                        .map(|(name, value, unit)| {
                            format!(
                                r#""{name}":{{"value":{},"unit":"{unit}"}}"#,
                                json_num(value)
                            )
                        })
                        .collect()
                })
                .unwrap_or_default()
        } else {
            JSON_E2E
                .iter()
                .filter_map(|name| e2e.iter().find(|m| m.name == *name))
                .map(|m| {
                    format!(
                        r#""{}":{{"value":{},"unit":"{}"}}"#,
                        m.name,
                        json_num(m.value),
                        m.unit
                    )
                })
                .collect()
        };
        println!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.checks.failures.is_empty(),
            self.checks.attempted,
            self.checks.failed,
            metrics.join(",")
        );
    }
}
