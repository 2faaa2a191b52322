//! `twbench`: the repository's seeded benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path twbench/Cargo.toml -- \
//!     --workload <flat-scan|served-sharded|ingest-mixed> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Each run builds its corpus on disk from `--seed`, measures a closed loop
//! for `--seconds`, checks the answers outside the timed section, prints a
//! human-readable report, and ends with one JSON line:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. With
//! `--trace 0` the metrics are the end-to-end set; with `--trace 1` the run
//! measures untraced and then traced, and the metrics are the per-layer set
//! (see `README.md` for every name, the workloads and the predictions).

mod flat_scan;
mod ingest_mixed;
mod layers;
mod report;
mod served_sharded;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;

/// Parsed command line.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `.twbench/` under the working directory: scratch corpora (removed
    /// at exit), span files and work-counter fingerprints.
    pub out_dir: PathBuf,
}

const WORKLOADS: [&str; 3] = ["flat-scan", "served-sharded", "ingest-mixed"];

fn parse_args() -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed {value}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let cwd = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    Ok(Config {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        out_dir: cwd.join(".twbench"),
    })
}

fn run(config: &Config) -> Result<Report, String> {
    let scratch = util::ScratchDir::create(&config.out_dir)?;
    match config.workload.as_str() {
        "flat-scan" => flat_scan::run(config, scratch.path()),
        "served-sharded" => served_sharded::run(config, scratch.path()),
        "ingest-mixed" => ingest_mixed::run(config, scratch.path()),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("twbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&config) {
        Ok(report) => {
            report.print(config.trace);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("twbench: {}: {e}", config.workload);
            ExitCode::FAILURE
        }
    }
}
