//! In-memory spans recorded by the benchmark around its own calls into
//! each layer, written out as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::util::Ctx;

/// One timed call at a layer boundary. Spans of one request share `req`;
/// `parent` names the span that caused this one ("" for a root).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span sink shared by the load threads (and, on the served path, by the
/// server's connection threads). Recording is a no-op while disabled.
pub struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn offset_ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn record(
        &self,
        req: u64,
        name: &'static str,
        parent: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled() {
            return;
        }
        let span = Span {
            req,
            name,
            parent,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
        };
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking load thread")
            .push(span);
    }

    /// Records a query's filter, fetch and verify phases as child spans of
    /// `parent`, laid back to back from `start`: the engines report each
    /// phase's total time, not its interval.
    pub fn record_phases(
        &self,
        req: u64,
        parent: &'static str,
        start: Instant,
        phases: &tw_core::PhaseTimes,
    ) {
        let mut at = start;
        for (name, d) in [
            ("search.filter", phases.filter),
            ("search.fetch", phases.fetch),
            ("search.verify", phases.verify),
        ] {
            self.record(req, name, parent, at, at + d);
            at += d;
        }
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span buffer poisoned by a panicking load thread"),
        )
    }
}

/// Writes `spans` to `path`, one JSON object per line.
pub fn write_jsonl(spans: &[Span], path: &Path) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).ctx(&format!("creating {}", dir.display()))?;
    }
    let file = std::fs::File::create(path).ctx(&format!("creating {}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    for s in spans {
        writeln!(
            out,
            r#"{{"req":"{:016x}","name":"{}","parent":"{}","start_ns":{},"end_ns":{}}}"#,
            s.req, s.name, s.parent, s.start_ns, s.end_ns
        )
        .ctx("writing spans")?;
    }
    out.flush().ctx("flushing spans")
}
