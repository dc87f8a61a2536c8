//! Observability integration tests (`mvq::obs` threaded through
//! serve/store/net): a warm cache hit over real TCP must come back as a
//! queryable job-lifecycle trace (answered at submit, so it never
//! queues), in-flight dedup must account each rider exactly once even
//! when submissions race, a job cancelled while queued must leave a
//! monotonic trace whose never-ran stages are absent — not zero, and a
//! cache built by the caller must be the one the whole stack reports
//! through.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{blocker_request, quick_spec, wait_until, weight};
use mvq::core::store::ArtifactCache;
use mvq::net::{NetClient, NetError, NetRequest, NetServer, WireErrorKind, WireMetricValue};
use mvq::obs::{names as metric, Stage, TraceOutcome};
use mvq::serve::{CompressionRequest, CompressionService};

#[test]
fn warm_hit_over_tcp_yields_a_queryable_trace_with_three_stages() {
    let service =
        CompressionService::builder().workers(1).queue_capacity(8).build().expect("build service");
    let server = NetServer::bind("127.0.0.1:0", service).expect("bind server");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    let mut request = NetRequest::new("warm-probe", weight(60), "mvq");
    request.spec = quick_spec();
    request.seed = Some(3);
    let primed = client.submit(&request).expect("priming submit");
    assert!(!primed.from_cache);
    let warm = client.submit(&request).expect("warm submit");
    assert!(warm.from_cache, "the resubmission must hit the cache");

    // the same connection now asks for the observability snapshot
    let reply = client.stats(4).expect("stats probe");

    // traces are newest-first; the warm hit is the latest completed job
    let trace = reply.traces.first().expect("the warm hit must be in the trace ring");
    assert_eq!(trace.name, "warm-probe");
    assert_eq!(trace.outcome, TraceOutcome::Ok);
    assert!(!trace.deduped);
    assert!(trace.is_monotonic(), "stage timestamps must be monotonic: {:?}", trace.stages);
    // a memory-resident hit is answered at submit: it never queues, runs
    // the kernel or re-encodes, and those stages are absent from the
    // trace, not present as zeros
    let stages: Vec<Stage> = trace.stages.iter().map(|&(stage, _)| stage).collect();
    assert_eq!(stages, [Stage::Submitted, Stage::CacheProbe, Stage::Replied]);

    // the histograms the CLI renders must have real counts behind them
    let histogram_count = |name: &str| {
        let m = reply.metrics.iter().find(|m| m.name == name).unwrap_or_else(|| {
            panic!("metric {name} missing from the wire snapshot");
        });
        match m.value {
            WireMetricValue::Histogram(h) => h.count,
            _ => panic!("{name} is not a histogram on the wire"),
        }
    };
    assert!(histogram_count("serve.hit.latency_us") >= 1, "the warm hit must record hit latency");
    assert_eq!(histogram_count("serve.queue.wait_us"), 1, "only the priming miss queues");
}

#[test]
fn a_caller_built_cache_shares_one_registry_with_its_server() {
    let cache = ArtifactCache::in_memory();
    let registry = Arc::clone(cache.registry());
    let service =
        CompressionService::builder().workers(1).cache(cache).build().expect("build service");
    let server = NetServer::bind("127.0.0.1:0", service).expect("bind server");
    assert!(
        Arc::ptr_eq(&registry, server.registry()),
        "the server reports through another registry"
    );

    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let mut request = NetRequest::new("shared-probe", weight(61), "mvq");
    request.spec = quick_spec();
    request.seed = Some(4);
    assert!(!client.submit(&request).expect("priming submit").from_cache);
    assert!(client.submit(&request).expect("warm submit").from_cache);
    assert_eq!(server.service().cache().stats().hits, 1, "the wire hit missed the caller's cache");
}

#[test]
fn raced_dedup_riders_account_exactly_once() {
    const SUBMITTERS: usize = 8;
    let service =
        CompressionService::builder().workers(1).queue_capacity(16).build().expect("build service");
    let registry = std::sync::Arc::clone(service.registry());
    let misses = registry.counter(metric::STORE_CACHE_MISSES);

    // occupy the single worker so every racing submission lands while
    // the shared key is still in flight
    let blocker = service.submit_one(blocker_request(70));
    wait_until("worker takes the blocker and probes the cache", || {
        service.queued() == 0 && misses.get() >= 1
    });
    let misses_before = misses.get();

    // identical identity from every thread: exactly one may queue, the
    // rest must ride it
    let shared_weight = weight(71);
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SUBMITTERS)
            .map(|i| {
                let service = &service;
                let w = shared_weight.clone();
                scope.spawn(move || {
                    let request = CompressionRequest::builder(format!("racer-{i}"), w, "mvq")
                        .spec(quick_spec())
                        .seed(9)
                        .build()
                        .expect("build racer");
                    service.submit_one(request).wait().expect("racer outcome")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("racer thread")).collect()
    });
    assert!(blocker.wait().is_ok(), "the blocker is unaffected by the race behind it");

    let fresh = outcomes.iter().filter(|o| !o.from_cache && !o.deduped).count();
    let deduped = outcomes.iter().filter(|o| o.deduped).count();
    assert_eq!(fresh, 1, "exactly one racer may compress fresh");
    assert_eq!(deduped, SUBMITTERS - 1, "every other racer must ride the in-flight job");

    // exactly-once accounting in the registry: one cache miss for the
    // shared key, one dedup count per rider, no phantom submissions
    assert_eq!(misses.get(), misses_before + 1, "the shared key may probe the cache exactly once");
    assert_eq!(registry.counter(metric::STORE_CACHE_HITS).get(), 0);
    assert_eq!(registry.counter(metric::SERVE_JOBS_DEDUPED).get(), (SUBMITTERS - 1) as u64);
    assert_eq!(
        registry.counter(metric::SERVE_JOBS_SUBMITTED).get(),
        (SUBMITTERS + 1) as u64,
        "every racer plus the blocker counts as submitted"
    );
    assert_eq!(
        registry.counter(metric::SERVE_JOBS_COMPLETED).get(),
        2,
        "two jobs ran: the blocker and the one shared compression"
    );

    // the ring agrees: one primary trace with the full stage set,
    // SUBMITTERS-1 rider traces marked deduped
    let recent = registry.traces().recent(SUBMITTERS + 1);
    let riders = recent.iter().filter(|t| t.deduped).count();
    assert_eq!(riders, SUBMITTERS - 1, "each rider finishes its own deduped trace");
    let primary = recent
        .iter()
        .find(|t| !t.deduped && t.name.starts_with("racer-"))
        .expect("the primary racer's trace must be in the ring");
    assert!(primary.stage_us(Stage::Kernel).is_some(), "the primary ran the kernel");
    assert!(primary.is_monotonic(), "primary stages must be monotonic: {:?}", primary.stages);
}

#[test]
fn deadline_cancelled_trace_is_monotonic_with_never_ran_stages_absent() {
    let service =
        CompressionService::builder().workers(1).queue_capacity(8).build().expect("build service");
    let server = NetServer::bind("127.0.0.1:0", service).expect("bind server");
    let registry = std::sync::Arc::clone(server.registry());

    let blocker = server.service().submit_one(blocker_request(80));
    wait_until("worker takes the blocker", || server.service().queued() == 0);

    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let mut request = NetRequest::new("expired", weight(81), "mvq");
    request.spec = quick_spec();
    request.seed = Some(4);
    // a 1 ms queue budget behind a multi-second blocker: certain expiry
    request.deadline = Some(Duration::from_millis(1));
    match client.submit(&request) {
        Err(NetError::Remote { kind: WireErrorKind::CancelledDeadline, .. }) => {}
        other => panic!("expected a CancelledDeadline response, got {other:?}"),
    }

    // the response only flushes after the worker peeled the dead waiter
    // and finished its trace, so the ring already holds it
    let recent = registry.traces().recent(4);
    let trace = recent
        .iter()
        .find(|t| t.name == "expired")
        .expect("the expired job's trace must be in the ring");
    assert_eq!(trace.outcome, TraceOutcome::CancelledDeadline);
    assert!(trace.is_monotonic(), "stages must be monotonic: {:?}", trace.stages);
    for stage in [Stage::Submitted, Stage::Queued, Stage::Replied] {
        assert!(trace.stage_us(stage).is_some(), "cancelled job must still stamp {}", stage.name());
    }
    // the job never reached a worker: execution stages are absent from
    // the snapshot entirely, not recorded as zero offsets
    for stage in [Stage::Dequeued, Stage::CacheProbe, Stage::Kernel, Stage::Encode, Stage::Cached] {
        assert!(
            trace.stage_us(stage).is_none(),
            "a queue-expired job must never reach {}",
            stage.name()
        );
    }
    assert_eq!(registry.counter(metric::SERVE_JOBS_CANCELLED).get(), 1);
    assert!(blocker.wait().is_ok(), "the blocker is unaffected by the expiry behind it");
}
