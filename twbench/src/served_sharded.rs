//! `served-sharded`: two TWNP connections on loopback to an in-process
//! `Server` with the default `ServerConfig`, in front of a sharded corpus
//! built and opened the way `serve` opens one (`ShardedSearch::open_dir`,
//! no sidecars, no cascade) but with 4-page pools, so the corpus is larger
//! than the program's own cache. Three range queries to one kNN.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tw_core::search::{CorpusSharder, EngineOpts, ShardedSearch};
use tw_core::{DtwKind, QueryBudget, QueryStats, Termination, TwError};
use tw_net::{
    Client, ClientConfig, QueryKind, QueryRequest, QueryResponse, QueryService, Reply, Server,
    ServerConfig, ServiceOutcome, WireBudget,
};
use tw_storage::SegmentPager;
use tw_workload::{generate_queries, generate_random_walks, RandomWalkConfig};

use crate::layers::{finish_trace, kernel_split, median_us, work_counters, Layers};
use crate::report::{Checks, EndToEnd, Report};
use crate::trace::{Span, Tracer};
use crate::util::{
    disk_bytes, mix, ms, peak_rss_mb, repeated_setup, sample_indices, user_bytes, values_key, Ctx,
    Samples,
};
use crate::Config;

const COUNT: usize = 100_000;
const LEN: usize = 64;
const SHARD_CAPACITY: usize = 16_384;
const POOL_PAGES: usize = 4;
const EPSILON: f64 = 0.1;
const K: u32 = 5;
const CONNECTIONS: u64 = 2;
const DEADLINE_MS: u64 = 60_000;
const SETUP_REPS: usize = 3;
const PROBE_QUERIES: u64 = 16;
/// One reply in this many is checked against an in-process call.
const CHECK_EVERY: u64 = 16;

const STREAM_CORPUS: u64 = 1;
const STREAM_UNTRACED: u64 = 16;
const STREAM_TRACED: u64 = 32;
const STREAM_PROBE: u64 = 48;
const STREAM_SAMPLE: u64 = 64;

/// The service behind the wire, built as `serve` builds it: every request
/// fans out over the shards with the budget the frame carried. On traced
/// runs it records the service, fan-out and per-shard spans.
struct BenchService {
    sharded: ShardedSearch<SegmentPager>,
    tracer: Tracer,
}

impl BenchService {
    fn answer(&self, request: &QueryRequest, opts: &EngineOpts) -> Result<ServiceOutcome, TwError> {
        let traced = self.tracer.enabled();
        let start = Instant::now();
        let (outcome, shard_times): (ServiceOutcome, Vec<Duration>) = match request.kind {
            QueryKind::Range { epsilon } => {
                let o = self
                    .sharded
                    .range_search_sharded(&request.values, epsilon, opts)?;
                let times = if traced {
                    o.per_shard
                        .iter()
                        .map(|s| s.query_stats.phases.total())
                        .collect()
                } else {
                    Vec::new()
                };
                (o.merged.into(), times)
            }
            QueryKind::Knn { k } => {
                let o = self.sharded.knn_sharded(
                    &request.values,
                    usize::try_from(k).unwrap_or(usize::MAX),
                    opts,
                )?;
                let times = if traced {
                    o.per_shard
                        .iter()
                        .map(|s| s.query_stats.phases.total())
                        .collect()
                } else {
                    Vec::new()
                };
                (o.merged.into(), times)
            }
        };
        if traced {
            let end = Instant::now();
            let key = values_key(&request.values);
            self.tracer
                .record(key, "sharded.fanout", "net.service", start, end);
            // Shards run in order on one thread (EngineOpts threads = 1).
            let mut at = start;
            for d in shard_times {
                self.tracer
                    .record(key, "sharded.shard", "sharded.fanout", at, at + d);
                at += d;
            }
        }
        Ok(outcome)
    }
}

impl QueryService for BenchService {
    fn execute(
        &self,
        request: &QueryRequest,
        budget: QueryBudget,
    ) -> Result<ServiceOutcome, TwError> {
        let start = Instant::now();
        let opts = EngineOpts::new().kind(DtwKind::MaxAbs).budget(budget);
        let outcome = self.answer(request, &opts);
        if self.tracer.enabled() {
            let key = values_key(&request.values);
            self.tracer
                .record(key, "net.service", "net.request", start, Instant::now());
        }
        outcome
    }
}

/// What one connection (or a whole phase, merged) saw.
#[derive(Default)]
struct Phase {
    range: Vec<f64>,
    knn: Vec<f64>,
    range_stats: QueryStats,
    range_matches: u64,
    attempted: u64,
    elapsed: Duration,
    sampled: Vec<(QueryRequest, QueryResponse)>,
    bad: Vec<String>,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.range.extend(other.range);
        self.knn.extend(other.knn);
        self.range_stats.merge(&other.range_stats);
        self.range_matches += other.range_matches;
        self.attempted += other.attempted;
        self.elapsed = self.elapsed.max(other.elapsed);
        self.sampled.extend(other.sampled);
        self.bad.extend(other.bad);
    }

    fn completed(&self) -> u64 {
        (self.range.len() + self.knn.len()) as u64
    }
}

fn request(corpus: &[Vec<f64>], seed: u64, stream: u64, i: u64) -> QueryRequest {
    let kind = if i % 4 == 3 {
        QueryKind::Knn { k: K }
    } else {
        QueryKind::Range { epsilon: EPSILON }
    };
    QueryRequest {
        tenant: 0,
        budget: WireBudget {
            deadline_ms: DEADLINE_MS,
            ..WireBudget::default()
        },
        kind,
        values: generate_queries(corpus, 1, mix(seed, stream, i)).remove(0),
    }
}

fn drive_connection(
    addr: &str,
    corpus: &[Vec<f64>],
    config: &Config,
    stream: u64,
    tracer: &Tracer,
) -> Phase {
    let mut phase = Phase::default();
    let clock: Arc<dyn tw_core::Clock> = Arc::new(tw_core::SystemClock::new());
    let mut client = match Client::connect(addr, clock, ClientConfig::default()) {
        Ok(c) => c,
        Err(e) => {
            phase.attempted = 1;
            phase.bad.push(format!("connect: {e}"));
            return phase;
        }
    };
    phase.elapsed = crate::util::closed_loop(config.seconds, |i| {
        let req = request(corpus, config.seed, stream, i);
        phase.attempted += 1;
        let start = Instant::now();
        let reply = client.call(&req);
        let end = Instant::now();
        if tracer.enabled() {
            tracer.record(values_key(&req.values), "net.request", "", start, end);
        }
        match reply {
            Ok(Reply::Outcome(resp)) => {
                if resp.termination != Termination::Complete {
                    phase
                        .bad
                        .push(format!("request {i}: partial reply {:?}", resp.termination));
                    return true;
                }
                if !resp.stats.accounting_balanced() {
                    phase
                        .bad
                        .push(format!("request {i}: QueryStats ledger does not balance"));
                    return true;
                }
                match req.kind {
                    QueryKind::Range { .. } => {
                        phase.range.push(ms(end - start));
                        phase.range_stats.merge(&resp.stats);
                        phase.range_matches += resp.matches.len() as u64;
                    }
                    QueryKind::Knn { .. } => phase.knn.push(ms(end - start)),
                }
                if mix(config.seed ^ stream, STREAM_SAMPLE, i).is_multiple_of(CHECK_EVERY) {
                    phase.sampled.push((req, *resp));
                }
                true
            }
            Ok(Reply::Shed(shed)) => {
                phase.bad.push(format!(
                    "request {i}: shed (queue depth {})",
                    shed.queue_depth
                ));
                true
            }
            Ok(Reply::Error(err)) => {
                phase.bad.push(format!(
                    "request {i}: error reply {:?}: {}",
                    err.code, err.message
                ));
                true
            }
            Err(e) => {
                phase.bad.push(format!("request {i}: transport error: {e}"));
                false
            }
        }
    });
    phase
}

fn measure(
    addr: &str,
    corpus: &[Vec<f64>],
    config: &Config,
    stream: u64,
    tracer: &Tracer,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || drive_connection(addr, corpus, config, stream + c, tracer))
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(p) => phase.absorb(p),
                Err(_) => phase.bad.push("a load thread panicked".into()),
            }
        }
    });
    if phase.completed() == 0 {
        return Err(format!("no request completed: {:?}", phase.bad.first()));
    }
    Ok(phase)
}

/// The reply fields that must match an in-process call byte for byte:
/// everything but the timings, the admission gauges the server stamps, and
/// `pager_reads`, which [`check`] compares on its own (two connections
/// querying one shard share that shard's I/O accumulator).
fn comparable(mut resp: QueryResponse) -> Vec<u8> {
    resp.stats.phases = Default::default();
    resp.stats.admission_shed = 0;
    resp.stats.admission_queue_depth = 0;
    resp.stats.pager_reads = 0;
    resp.encode()
}

/// Checks the phase's replies; returns how many sampled replies carried a
/// `pager_reads` count different from the in-process call's.
fn check(phase: &Phase, service: &BenchService, checks: &mut Checks) -> Result<u64, String> {
    checks.attempted += phase.attempted;
    for bad in &phase.bad {
        checks.fail(bad.clone());
    }
    let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
    let mut pager_read_drift = 0;
    for (req, resp) in &phase.sampled {
        let expected: ServiceOutcome = service.answer(req, &opts).ctx("in-process reference")?;
        if resp.stats.pager_reads != expected.stats.pager_reads {
            pager_read_drift += 1;
        }
        let expected = QueryResponse {
            termination: expected.termination,
            health: expected.health,
            stats: expected.stats,
            matches: expected.matches,
        };
        if comparable(resp.clone()) != comparable(expected) {
            checks.fail(format!(
                "{:?} reply over TWNP differs from the in-process fan-out",
                req.kind
            ));
        }
    }
    Ok(pager_read_drift)
}

/// Joins client, service and fan-out spans per request and reconciles the
/// stages against client latency (means over linked requests, so the
/// lines add up exactly).
fn reconcile(spans: &[Span], layers: &mut Layers) -> Vec<String> {
    #[derive(Default)]
    struct Req {
        request: Option<Span>,
        service: Option<Span>,
        fanout: Option<Span>,
        shards: Vec<u64>,
        dup: bool,
    }
    let mut by_key: HashMap<u64, Req> = HashMap::new();
    for s in spans {
        let r = by_key.entry(s.req).or_default();
        let slot = match s.name {
            "net.request" => &mut r.request,
            "net.service" => &mut r.service,
            "sharded.fanout" => &mut r.fanout,
            "sharded.shard" => {
                r.shards.push(s.dur_ns());
                continue;
            }
            _ => continue,
        };
        if slot.is_some() {
            r.dup = true;
        }
        *slot = Some(*s);
    }
    let (mut request, mut service, mut fanout) = (Vec::new(), Vec::new(), Vec::new());
    let mut stragglers = Vec::new();
    let mut unlinked = 0u64;
    for r in by_key.values() {
        let (Some(rq), Some(sv), Some(fo), false) = (r.request, r.service, r.fanout, r.dup) else {
            unlinked += 1;
            continue;
        };
        let nested = rq.start_ns <= sv.start_ns
            && sv.end_ns <= rq.end_ns
            && sv.start_ns <= fo.start_ns
            && fo.end_ns <= sv.end_ns;
        if !nested {
            unlinked += 1;
            continue;
        }
        request.push(rq.dur_ns() as f64 / 1e6);
        service.push(sv.dur_ns() as f64 / 1e6);
        fanout.push(fo.dur_ns() as f64 / 1e6);
        if !r.shards.is_empty() {
            let mean = r.shards.iter().sum::<u64>() as f64 / r.shards.len() as f64;
            let max = r.shards.iter().copied().max().unwrap_or(0) as f64;
            if mean > 0.0 {
                stragglers.push(max / mean);
            }
        }
    }
    let mean = |v: &[f64]| Samples::new(v.to_vec()).mean();
    let (rq, sv, fo) = (mean(&request), mean(&service), mean(&fanout));
    layers.set("net.request_ms", rq);
    layers.set("net.service_ms", sv);
    layers.set("net.overhead_ms", rq - sv);
    layers.set("net.service_share", if rq > 0.0 { sv / rq } else { 0.0 });
    layers.set("sharded.fanout_ms", fo);
    layers.set("sharded.straggler_ratio", Samples::new(stragglers).median());
    layers.set("trace.unattributed_ms", sv - fo);
    vec![
        format!(
            "reconciliation over {} linked request(s) ({unlinked} unlinked), mean ms per request:",
            request.len()
        ),
        format!(
            "  client {rq:.4} = net.overhead {:.4} + sharded.fanout {fo:.4} + unattributed {:.4}",
            rq - sv,
            sv - fo
        ),
    ]
}

pub fn run(config: &Config, dir: &Path) -> Result<Report, String> {
    let corpus = generate_random_walks(
        &RandomWalkConfig::paper(COUNT, LEN),
        mix(config.seed, STREAM_CORPUS, 0),
    );
    // Set-up: ingest through the sharder (each fold writes a segment and
    // its R-tree), then reopen the corpus with small pools.
    let ((sharded, corpus_dir), setup) = repeated_setup(SETUP_REPS, |rep| {
        let corpus_dir = dir.join(format!("corpus-{rep}"));
        std::fs::remove_dir_all(&corpus_dir).ok();
        let mut sharder = CorpusSharder::create(&corpus_dir, SHARD_CAPACITY)
            .ctx("creating sharder")?
            .sidecars(false);
        for s in &corpus {
            sharder.append(s).ctx("sharded append")?;
        }
        sharder.finish().ctx("committing manifest")?;
        let (sharded, reports) =
            ShardedSearch::open_dir(&corpus_dir, POOL_PAGES).ctx("opening corpus")?;
        if reports.iter().any(|r| !r.is_clean()) {
            return Err("freshly committed corpus needed recovery".into());
        }
        Ok((sharded, corpus_dir))
    })?;
    for rep in 0..SETUP_REPS - 1 {
        std::fs::remove_dir_all(dir.join(format!("corpus-{rep}"))).ok();
    }

    let service = Arc::new(BenchService {
        sharded,
        tracer: Tracer::new(),
    });
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&service) as Arc<dyn QueryService>,
        ServerConfig::default(),
    )
    .ctx("binding server")?;
    let addr = server.local_addr().to_string();
    let tracer = &service.tracer;

    service.sharded.reset_pool_stats();
    let untraced = measure(&addr, &corpus, config, STREAM_UNTRACED, tracer);
    let peak_rss_mb = peak_rss_mb()?;
    let traced = match (&untraced, config.trace) {
        (Ok(_), true) => {
            service.sharded.reset_pool_stats();
            tracer.set_enabled(true);
            let t = measure(&addr, &corpus, config, STREAM_TRACED, tracer);
            tracer.set_enabled(false);
            Some(t)
        }
        _ => None,
    };
    let pool = service
        .sharded
        .shards()
        .iter()
        .fold((0u64, 0u64), |(h, m), s| {
            let b = s.store().buffer_stats();
            (h + b.hits, m + b.misses)
        });
    let drain = server.drain();
    let untraced = untraced?;
    let traced = traced.transpose()?;

    let mut checks = Checks::default();
    let mut drift = check(&untraced, &service, &mut checks)?;
    let mut sampled = untraced.sampled.len();
    if let Some(t) = &traced {
        drift += check(t, &service, &mut checks)?;
        sampled += t.sampled.len();
    }
    checks.invariant(
        drain.server.ledger_balanced(),
        "server frame ledger does not balance at drain",
    );
    checks.invariant(
        drain.aggregate.accounting_balanced(),
        "aggregate QueryStats ledger does not balance at drain",
    );

    // Deterministic work counters of a fixed one-client in-process probe.
    let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
    let mut probe = QueryStats::default();
    let mut probe_matches = 0;
    for i in 0..PROBE_QUERIES {
        let req = request(&corpus, config.seed, STREAM_PROBE, i);
        let o = service.answer(&req, &opts).ctx("probe query")?;
        probe.merge(&o.stats);
        probe_matches += o.matches.len() as u64;
    }
    let (changed, mut notes) = work_counters(
        config,
        &format!("{PROBE_QUERIES} probe requests, 3 range : 1 kNN"),
        &probe,
        probe_matches,
        "",
    )?;
    notes.push(format!(
        "pager_reads: {drift} of {sampled} sampled replies differ from the in-process call \
         (concurrent queries on one shard share its I/O accumulator)"
    ));

    let layers = match &traced {
        Some(t) => {
            let mut layers = Layers::default();
            let range_n = t.range.len() as u64;
            layers.set_query_stats(&t.range_stats, range_n, COUNT as u64, t.range_matches);
            layers.set_pool(pool.0, pool.1, t.completed());
            layers.set(
                "storage.pager_reads_mismatch_ratio",
                drift as f64 / sampled.max(1) as f64,
            );
            layers.set("net.frames_shed", drain.server.frames_shed as f64);
            layers.set("net.error_replies", drain.server.error_replies as f64);
            layers.set("net.bad_frames", drain.server.bad_frames as f64);
            let spans = tracer.take();
            notes.extend(reconcile(&spans, &mut layers));
            // Direct calls into the storage layer through the 4-page pools.
            let scan_us = median_us(0..3, |_| {
                for shard in service.sharded.shards() {
                    shard
                        .store()
                        .scan_visit(|_, v| drop(std::hint::black_box(v)))
                        .ctx("scan pass")?;
                }
                Ok(())
            })?;
            layers.set("storage.scan_ms", scan_us / 1e3);
            let get_us = median_us(sample_indices(config.seed, COUNT, 2000), |id| {
                std::hint::black_box(service.sharded.get(id as u64).ctx("sampled get")?);
                Ok(())
            })?;
            layers.set("storage.get_us", get_us);
            // Distance-kernel split on this corpus's range queries.
            let sampled = t
                .sampled
                .iter()
                .filter(|(r, _)| matches!(r.kind, QueryKind::Range { .. }))
                .map(|(r, resp)| {
                    (
                        r.values.as_slice(),
                        resp.matches.iter().map(|m| m.id).collect(),
                    )
                });
            notes.push(kernel_split(
                &mut layers,
                &corpus,
                sampled,
                config.seed,
                EPSILON,
            ));
            finish_trace(
                &mut layers,
                &mut notes,
                config,
                &spans,
                &t.range,
                &untraced.range,
                changed,
            )?;
            Some(layers)
        }
        None => None,
    };

    let e2e = EndToEnd {
        queries: untraced.completed(),
        elapsed_s: untraced.elapsed.as_secs_f64(),
        range: Samples::new(untraced.range),
        knn: Some(Samples::new(untraced.knn)),
        appends: None,
        setup: Samples::new(setup),
        peak_rss_mb,
        disk_bytes_per_user_byte: disk_bytes(&corpus_dir)? as f64 / user_bytes(COUNT, LEN),
    };
    Ok(Report {
        workload: config.workload.clone(),
        e2e,
        checks,
        layers,
        notes,
    })
}
