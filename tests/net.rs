//! Wire failure-injection tests for the TCP serving front (`mvq::net`):
//! protocol garbage must close one connection and never the server,
//! dead clients' queued work must be discarded before it occupies a
//! worker, queue deadlines must be honored, and a graceful drain must
//! flush every accepted in-flight response. Served bytes are checked
//! end to end: concurrent warm-hit connections must agree with the
//! server's own counters, and a restarted or budget-pruned disk cache
//! must serve exactly the cold-compressed bits.
//!
//! The tests spin on [`NetServer::stats`] counters instead of sleeping,
//! with a generous wall-clock ceiling as the failure signal.

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use common::{blocker_request, quick_spec, wait_until, weight};
use mvq::core::pipeline::PipelineSpec;
use mvq::core::store::{CacheKey, FORMAT_VERSION};
use mvq::net::{NetClient, NetError, NetRequest, NetServer, WireErrorKind, WireRequest};
use mvq::serve::{CacheMode, CachePolicy, CompressionService, Priority};

fn one_worker_server() -> NetServer {
    let service =
        CompressionService::builder().workers(1).queue_capacity(8).build().expect("build service");
    NetServer::bind("127.0.0.1:0", service).expect("bind server")
}

/// Writes one length-prefixed message the way the protocol does.
fn write_raw(stream: &mut TcpStream, frame: &[u8]) {
    let len = u32::try_from(frame.len()).expect("test frame fits u32");
    stream.write_all(&len.to_le_bytes()).expect("write length prefix");
    stream.write_all(frame).expect("write frame");
}

/// A well-formed `WireRequest` frame to corrupt.
fn valid_request_frame(id: u64) -> Vec<u8> {
    WireRequest {
        id,
        name: format!("garbage-donor-{id}"),
        algo: "mvq".into(),
        spec: quick_spec(),
        seed: Some(1),
        priority: Priority::default(),
        cache_mode: CacheMode::default(),
        deadline_ms: None,
        weight: weight(id),
    }
    .encode()
    .expect("encode request")
}

/// Asserts the server still serves fresh connections end to end.
fn assert_server_alive(server: &NetServer, seed: u64) {
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let probe = seeded_request("liveness-probe".into(), seed, "mvq");
    let (outcome, _) = submit_bits(&mut client, &probe);
    assert_eq!(outcome.name, "liveness-probe");
}

#[test]
fn round_trip_serves_the_cache_blob_bytes_on_a_hit() {
    let server = one_worker_server();
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let mut request = NetRequest::new("conv0", weight(10), "mvq");
    request.spec = quick_spec();
    request.seed = Some(5);

    let first = client.submit(&request).expect("first submit");
    assert!(!first.from_cache);
    assert_eq!(
        first.artifact().expect("decode").reconstruct().expect("reconstruct").dims(),
        &[32, 16]
    );

    // A repeat of the same (algo, weight, spec, seed) identity must hit
    // the cache, and the body must be the cache's own blob: the framed
    // bytes of hit and miss are identical because the wire and the
    // cache share one codec.
    let second = client.submit(&request).expect("second submit");
    assert!(second.from_cache, "identical resubmission must be a cache hit");
    assert_eq!(first.bytes, second.bytes, "a hit must serve the stored blob byte for byte");

    let stats = server.stats();
    assert_eq!(stats.responses_ok, 2);
    assert_eq!(stats.responses_err, 0);
    assert_eq!(stats.protocol_errors, 0);
}

#[test]
fn truncated_frame_closes_the_connection_but_not_the_server() {
    let server = one_worker_server();
    {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        // promise 100 bytes, deliver 10, hang up mid-frame
        stream.write_all(&100u32.to_le_bytes()).expect("write prefix");
        stream.write_all(&[0u8; 10]).expect("write partial frame");
    }
    wait_until("truncated frame counted as protocol garbage", || {
        server.stats().protocol_errors == 1
    });
    assert_server_alive(&server, 11);
}

#[test]
fn bad_magic_closes_the_connection_but_not_the_server() {
    let server = one_worker_server();
    let mut frame = valid_request_frame(12);
    frame[..4].copy_from_slice(b"XXXX");
    {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        write_raw(&mut stream, &frame);
    }
    wait_until("bad magic counted as protocol garbage", || server.stats().protocol_errors == 1);
    assert_eq!(server.stats().requests, 0, "a bad-magic frame must never reach the service");
    assert_server_alive(&server, 13);
}

#[test]
fn future_format_version_is_refused_not_guessed_at() {
    let server = one_worker_server();
    let mut frame = valid_request_frame(14);
    // bytes 4..6 are the u16 le format version; claim one from the future
    frame[4..6].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        write_raw(&mut stream, &frame);
    }
    wait_until("future version counted as protocol garbage", || {
        server.stats().protocol_errors == 1
    });
    assert_eq!(server.stats().requests, 0, "a future-version frame must never reach the service");
    assert_server_alive(&server, 15);
}

#[test]
fn oversize_length_prefix_is_refused_before_allocating() {
    let server = one_worker_server();
    {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        // a hostile prefix claiming ~4 GiB; the server must refuse it
        // from the prefix alone rather than attempt the allocation
        stream.write_all(&u32::MAX.to_le_bytes()).expect("write prefix");
    }
    wait_until("oversize prefix counted as protocol garbage", || {
        server.stats().protocol_errors == 1
    });
    assert_server_alive(&server, 16);
}

#[test]
fn client_disconnect_cancels_its_queued_job_and_frees_the_worker() {
    let server = one_worker_server();

    // Occupy the single worker with a slow direct submission.
    let blocker = server.service().submit_one(blocker_request(20));
    wait_until("worker takes the blocker", || server.service().queued() == 0);

    // A doomed client queues one job behind the blocker, then vanishes.
    let doomed_weight = weight(21);
    let doomed_spec = quick_spec();
    let doomed_key = CacheKey::new("mvq", &doomed_weight, &doomed_spec, 7).expect("cache key");
    {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        let frame = WireRequest {
            id: 0,
            name: "doomed".into(),
            algo: "mvq".into(),
            spec: doomed_spec,
            seed: Some(7),
            priority: Priority::default(),
            cache_mode: CacheMode::default(),
            deadline_ms: None,
            weight: doomed_weight,
        }
        .encode()
        .expect("encode doomed request");
        write_raw(&mut stream, &frame);
        wait_until("doomed request reaches the service", || server.stats().requests == 1);
        // dropping the stream here is the disconnect
    }

    // The reader observes EOF and cancels the queued job's token; when
    // the worker finishes the blocker and dequeues, the dead job is
    // discarded — it never runs.
    wait_until("queued job cancelled on disconnect", || server.stats().cancelled_disconnect == 1);
    assert!(blocker.wait().is_ok(), "the blocker is unaffected by its neighbor's disconnect");
    assert!(
        server.service().cache().get_raw(&doomed_key).expect("cache read").is_none(),
        "the disconnected client's job ran anyway: its artifact reached the cache"
    );

    // The worker is free for the living.
    assert_server_alive(&server, 22);
}

#[test]
fn deadline_expiry_while_queued_comes_back_as_cancelled_deadline() {
    let server = one_worker_server();
    let blocker = server.service().submit_one(blocker_request(30));
    wait_until("worker takes the blocker", || server.service().queued() == 0);

    let expired_weight = weight(31);
    let expired_spec = quick_spec();
    let expired_key = CacheKey::new("mvq", &expired_weight, &expired_spec, 9).expect("cache key");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let mut request = NetRequest::new("expired", expired_weight, "mvq");
    request.spec = expired_spec;
    request.seed = Some(9);
    // a 1 ms queue budget behind a multi-second blocker: certain expiry
    request.deadline = Some(Duration::from_millis(1));

    match client.submit(&request) {
        Err(NetError::Remote { kind: WireErrorKind::CancelledDeadline, message }) => {
            assert!(message.contains("expired"), "message should name the job: {message}");
        }
        other => panic!("expected a CancelledDeadline response, got {other:?}"),
    }
    assert_eq!(server.stats().cancelled_deadline, 1);
    assert!(blocker.wait().is_ok(), "the blocker is unaffected by the expiry behind it");
    assert!(
        server.service().cache().get_raw(&expired_key).expect("cache read").is_none(),
        "the expired job ran anyway: its artifact reached the cache"
    );
    assert_server_alive(&server, 32);
}

#[test]
fn drain_under_load_flushes_every_accepted_response() {
    let mut server = one_worker_server();
    let addr = server.local_addr();

    // Three clients, three distinct jobs, one worker: at shutdown some
    // are mid-compression or still queued.
    let clients: Vec<_> = (0..3u64)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                let mut request = NetRequest::new(format!("drain-{i}"), weight(40 + i), "mvq");
                request.spec = PipelineSpec { k: 8, swap_trials: 2_000, ..PipelineSpec::default() };
                request.seed = Some(i);
                client.submit(&request)
            })
        })
        .collect();

    wait_until("all three requests accepted", || server.stats().requests == 3);
    // Drain with the jobs in flight: stop accepting, flush accepted
    // work, close. Every client must still get its response.
    server.shutdown();

    for (i, handle) in clients.into_iter().enumerate() {
        let outcome = handle
            .join()
            .expect("client thread")
            .unwrap_or_else(|e| panic!("drain dropped client {i}'s accepted response: {e}"));
        assert_eq!(outcome.name, format!("drain-{i}"));
    }
    let stats = server.stats();
    assert_eq!(stats.responses_ok, 3, "every accepted job's response must flush before close");
    assert_eq!(stats.cancelled_disconnect, 0, "a drain must not masquerade as client disconnects");
}

/// Submits `request` and returns the outcome with its reconstruction's
/// bits, asserting the served artifact has the submitted shape.
fn submit_bits(client: &mut NetClient, request: &NetRequest) -> (mvq::net::NetOutcome, Vec<u32>) {
    let outcome = client.submit(request).unwrap_or_else(|e| panic!("{}: {e}", request.name));
    let dense = outcome.artifact().expect("decode").reconstruct().expect("reconstruct");
    assert_eq!(dense.dims(), request.weight.dims(), "{}: served shape", request.name);
    (outcome, dense.data().iter().map(|v| v.to_bits()).collect())
}

fn seeded_request(name: String, seed: u64, algo: &str) -> NetRequest {
    let mut request = NetRequest::new(name, weight(seed), algo);
    request.spec = quick_spec();
    request.seed = Some(seed);
    request
}

#[test]
fn eight_connections_of_warm_hits_agree_with_the_server_counters() {
    const CONNECTIONS: usize = 8;
    const ROUNDS: usize = 20;
    const COLD_JOBS: u64 = 3;
    let service = CompressionService::builder().build().expect("build service");
    let mut server = NetServer::bind("127.0.0.1:0", service).expect("bind server");
    let addr = server.local_addr();
    let mut client = NetClient::connect(addr).expect("connect");
    let (primed, primed_bits) = submit_bits(&mut client, &seeded_request("warm".into(), 50, "mvq"));
    assert!(!primed.from_cache, "the priming submission must compress fresh");

    std::thread::scope(|scope| {
        for c in 0..CONNECTIONS {
            let primed_bits = &primed_bits;
            scope.spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                let warm = seeded_request(format!("hit-{c}"), 50, "mvq");
                for round in 0..ROUNDS {
                    let (outcome, bits) = submit_bits(&mut client, &warm);
                    assert!(outcome.from_cache, "connection {c} round {round} recompressed");
                    assert!(bits == *primed_bits, "connection {c} round {round} changed bits");
                }
            });
        }
    });
    for j in 0..COLD_JOBS {
        let (outcome, _) =
            submit_bits(&mut client, &seeded_request(format!("cold-{j}"), 60 + j, "mvq"));
        assert!(!outcome.from_cache && !outcome.deduped, "cold job {j} must compress fresh");
    }
    drop(client);

    server.shutdown();
    let stats = server.stats();
    let expected_ok = 1 + (CONNECTIONS * ROUNDS) as u64 + COLD_JOBS;
    assert_eq!(stats.responses_ok, expected_ok, "server accounting disagrees with the clients");
    assert_eq!((stats.responses_err, stats.protocol_errors), (0, 0));
}

#[test]
fn disk_restart_and_half_budget_eviction_serve_cold_bits_over_the_wire() {
    let dir = std::env::temp_dir().join(format!("mvq-net-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let requests: Vec<NetRequest> = ["mvq", "vq-a", "bgd"]
        .iter()
        .flat_map(|algo| (0..2).map(move |i| seeded_request(format!("{algo}-{i}"), 70 + i, algo)))
        .collect();
    // serves `order` from a server over `service`: (recompressions, bits
    // per request name, disk bytes afterwards)
    let pass = |service: CompressionService, order: Vec<&NetRequest>| {
        let mut server = NetServer::bind("127.0.0.1:0", service).expect("bind server");
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        let (mut fresh, mut bits) = (0, std::collections::HashMap::new());
        for request in order {
            let (outcome, served) = submit_bits(&mut client, request);
            fresh += usize::from(!outcome.from_cache && !outcome.deduped);
            bits.insert(request.name.clone(), served);
        }
        drop(client);
        server.shutdown();
        (fresh, bits, server.service().cache().disk_bytes())
    };
    let on_disk = || CompressionService::with_cache_dir(&dir).expect("cache dir");

    let (fresh, cold, disk_bytes) = pass(on_disk(), requests.iter().collect());
    assert_eq!(fresh, requests.len(), "cold must compress each distinct key once");
    let (fresh, disk, _) = pass(on_disk(), requests.iter().collect());
    assert_eq!(fresh, 0, "a restart over the same directory must serve every key from disk");
    assert_eq!(disk, cold, "disk serves diverge from cold compression");

    // restart under half the blob bytes: the scan prunes, evicted keys
    // recompress to the cold bits, and the budget holds throughout
    let budget = disk_bytes / 2;
    let service = CompressionService::builder()
        .cache_dir(&dir)
        .cache_policy(CachePolicy::UNBOUNDED.with_disk_budget(budget))
        .build()
        .expect("cache dir");
    assert!(service.cache_stats().disk_evictions > 0, "the restart prune evicted nothing");
    assert!(service.cache().disk_bytes() <= budget);
    // newest blobs (the survivors) first, so recompressions cannot evict
    // them before their turn
    let (fresh, evicted, disk_after) = pass(service, requests.iter().rev().collect());
    assert!(fresh > 0, "evicted keys must recompress");
    assert!(disk_after <= budget, "disk budget exceeded: {disk_after} > {budget}");
    assert_eq!(evicted, cold, "evicted serves diverge from cold compression");
    let _ = std::fs::remove_dir_all(&dir);
}
