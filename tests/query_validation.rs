//! Non-finite query values are refused at the API boundary.
//!
//! The DTW kernel's compare-select min/max agree with `f64::min`/`f64::max`
//! only on NaN-free operands, and a NaN query used to match silently: under
//! `MaxAbs` a NaN gap falls through to the best predecessor, so `[NaN]` at
//! ε = 0 matched every stored sequence at distance 0. Every range engine,
//! every kNN entry and the TWNP service must instead answer
//! `TwError::InvalidElement` naming the first bad element.

use std::net::TcpStream;
use std::sync::Arc;

use tw_core::distance::DtwKind;
use tw_core::search::{
    EngineOpts, FastMapSearch, HybridSearch, LbScan, NaiveScan, ResilientSearch, SearchEngine,
    ShardedSearch, StFilterSearch, SubsequenceIndex, TwSimSearch, WindowSpec,
};
use tw_core::{QueryBudget, SystemClock, TwError};
use tw_net::{
    Client, ClientConfig, ErrorCode, QueryKind, QueryRequest, QueryService, Reply, Server,
    ServerConfig, ServiceOutcome, WireBudget,
};
use tw_storage::{MemPager, SequenceStore};

fn data() -> Vec<Vec<f64>> {
    vec![
        vec![1.0, 2.0, 3.0],
        vec![50.0, -7.0],
        vec![2.0, 2.5, 3.5, 3.0],
    ]
}

fn store_with(data: &[Vec<f64>]) -> SequenceStore<MemPager> {
    let mut store = SequenceStore::in_memory();
    for s in data {
        store.append(s).expect("append");
    }
    store
}

/// The queries every entry must refuse, with the index of the bad element.
fn bad_queries() -> Vec<(Vec<f64>, usize)> {
    vec![
        (vec![f64::NAN], 0),
        (vec![1.0, f64::INFINITY, 3.0], 1),
        (vec![1.0, 2.0, f64::NEG_INFINITY], 2),
    ]
}

fn assert_invalid_element(result: Result<impl std::fmt::Debug, TwError>, index: usize, who: &str) {
    match result {
        Err(TwError::InvalidElement { index: got, value }) => {
            assert_eq!(got, index, "{who}");
            assert!(!value.is_finite(), "{who}: {value}");
        }
        other => panic!("{who}: expected InvalidElement at {index}, got {other:?}"),
    }
}

#[test]
fn every_engine_rejects_non_finite_query_elements() {
    let data = data();
    let store = store_with(&data);
    let engines: Vec<Box<dyn SearchEngine<MemPager>>> = vec![
        Box::new(NaiveScan),
        Box::new(LbScan),
        Box::new(StFilterSearch::build(&store).expect("st-filter")),
        Box::new(TwSimSearch::build(&store).expect("tw-sim")),
        Box::new(FastMapSearch::build(&store, 2, DtwKind::MaxAbs, 7).expect("fastmap")),
        Box::new(HybridSearch::build(&store).expect("hybrid")),
        Box::new(ResilientSearch::new(
            TwSimSearch::build(&store).expect("tw-sim"),
        )),
    ];
    let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
    for (query, index) in bad_queries() {
        for engine in &engines {
            let who = format!("{} {query:?}", engine.name());
            // ε = 0 is where a NaN query used to match everything.
            assert_invalid_element(engine.range_search(&store, &query, 0.0, &opts), index, &who);
            // A finite version of the same query is still answered.
            let finite: Vec<f64> = query
                .iter()
                .map(|v| if v.is_finite() { *v } else { 2.0 })
                .collect();
            assert!(
                engine.range_search(&store, &finite, 0.0, &opts).is_ok(),
                "{who}"
            );
        }
    }
}

#[test]
fn knn_and_sharded_entries_reject_non_finite_query_elements() {
    let data = data();
    let store = store_with(&data);
    let tw = TwSimSearch::build(&store).expect("tw-sim");
    let sharded = ShardedSearch::build_in_memory(&data, 2, None).expect("sharded");
    let windows = SubsequenceIndex::build(&store, WindowSpec::new(1, 2, 1, 1).expect("spec"))
        .expect("windows");
    let opts = EngineOpts::new().kind(DtwKind::MaxAbs);
    for (query, index) in bad_queries() {
        assert_invalid_element(tw.knn(&store, &query, 2, DtwKind::MaxAbs), index, "knn");
        assert_invalid_element(
            tw.knn_governed(&store, &query, 2, &opts),
            index,
            "knn_governed",
        );
        assert_invalid_element(sharded.knn_sharded(&query, 2, &opts), index, "knn_sharded");
        assert_invalid_element(
            sharded.range_search_sharded(&query, 0.5, &opts),
            index,
            "range_search_sharded",
        );
        assert_invalid_element(
            windows.search_governed(&store, &query, 0.5, &opts),
            index,
            "subsequence",
        );
    }
}

/// Serves a sharded corpus the way `serve` does.
struct ShardedService(ShardedSearch<MemPager>);

impl QueryService for ShardedService {
    fn execute(
        &self,
        request: &QueryRequest,
        budget: QueryBudget,
    ) -> Result<ServiceOutcome, TwError> {
        let opts = EngineOpts::new().kind(DtwKind::MaxAbs).budget(budget);
        match request.kind {
            QueryKind::Range { epsilon } => self
                .0
                .range_search_sharded(&request.values, epsilon, &opts)
                .map(|o| o.merged.into()),
            QueryKind::Knn { k } => self
                .0
                .knn_sharded(
                    &request.values,
                    usize::try_from(k).unwrap_or(usize::MAX),
                    &opts,
                )
                .map(|o| o.merged.into()),
        }
    }
}

#[test]
fn twnp_nan_query_gets_an_error_reply() {
    let sharded = ShardedSearch::build_in_memory(&data(), 2, None).expect("sharded");
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::new(ShardedService(sharded)),
        ServerConfig::default(),
    )
    .expect("bind");
    let mut client: Client<TcpStream> = Client::connect(
        &server.local_addr().to_string(),
        Arc::new(SystemClock::new()),
        ClientConfig::default(),
    )
    .expect("connect");
    let request = |kind, values| QueryRequest {
        tenant: 1,
        budget: WireBudget::default(),
        kind,
        values,
    };
    for kind in [QueryKind::Range { epsilon: 0.0 }, QueryKind::Knn { k: 2 }] {
        match client.call(&request(kind, vec![f64::NAN])).expect("call") {
            Reply::Error(e) => {
                assert_eq!(e.code, ErrorCode::QueryFailed, "{kind:?}");
                assert!(e.message.contains("not finite"), "{kind:?}: {}", e.message);
            }
            other => panic!("{kind:?}: expected an error reply, got {other:?}"),
        }
    }
    // The connection still serves a finite query.
    match client
        .call(&request(
            QueryKind::Range { epsilon: 0.0 },
            vec![1.0, 2.0, 3.0],
        ))
        .expect("call")
    {
        Reply::Outcome(resp) => assert_eq!(resp.matches.len(), 1, "{resp:?}"),
        other => panic!("expected an outcome, got {other:?}"),
    }
    drop(client);
    let report = server.drain();
    assert_eq!(report.server.error_replies, 2);
    assert!(report.server.ledger_balanced(), "{:?}", report.server);
}
