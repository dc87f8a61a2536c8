//! The serving stack over loopback TCP and the closed-loop clients that
//! drive it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use mvq_core::store::Fnv1a;
use mvq_net::{NetClient, NetRequest, NetServer};
use mvq_serve::CompressionService;
use mvq_tensor::Tensor;

use crate::inputs::{domain, mix, permutation, WarmSet};
use crate::stats::median;
use crate::trace::Tracer;

/// Client connections (and client threads) of every wire phase.
pub const CONNECTIONS: usize = 2;

/// Requests per block when a traced client alternates untraced and
/// traced blocks.
const TRACE_BLOCK: usize = 64;

/// A running server whose cache holds every warm artifact, plus what
/// the clients need to drive it.
pub struct Stack {
    /// The loopback server (default worker count, in-memory cache).
    pub server: NetServer,
    /// The warm working set.
    pub warm: WarmSet,
    /// The warm request of each pair.
    pub requests: Vec<NetRequest>,
    /// The bytes the server returned for each pair when priming; every
    /// later hit must serve exactly these.
    pub reference: Vec<Vec<u8>>,
}

fn request(warm: &WarmSet, pair: usize, weight: Tensor, seed: u64) -> NetRequest {
    let p = warm.pairs[pair];
    let mut request = NetRequest::new(format!("{}-l{}", p.algo, p.layer), weight, p.algo);
    request.spec = warm.spec.clone();
    request.seed = Some(seed);
    request
}

/// Builds the warm set from the first `max_layers` compressible convs,
/// binds a server on an OS-assigned loopback port
/// and primes its cache with every warm pair over [`CONNECTIONS`]
/// connections.
///
/// # Errors
///
/// Any bind, transport or job failure, or a priming job answered from
/// the cache.
pub fn setup(seed: u64, max_layers: usize) -> Result<Stack, String> {
    let warm = WarmSet::generate(seed, max_layers);
    let requests: Vec<NetRequest> = (0..warm.pairs.len())
        .map(|i| request(&warm, i, warm.weights[warm.pairs[i].layer].clone(), warm.seeds[i]))
        .collect();
    let service = CompressionService::builder().build().map_err(|e| e.to_string())?;
    let server = NetServer::bind("127.0.0.1:0", service).map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    let mut reference = vec![Vec::new(); requests.len()];
    let requests_ref = &requests;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                s.spawn(move || {
                    let mut client = NetClient::connect(addr).map_err(|e| e.to_string())?;
                    let mut got = Vec::new();
                    for i in (c..requests_ref.len()).step_by(CONNECTIONS) {
                        let out = client.submit(&requests_ref[i]).map_err(|e| e.to_string())?;
                        if out.from_cache || out.deduped {
                            return Err(format!("priming job {i} did not compress fresh"));
                        }
                        got.push((i, out.bytes));
                    }
                    Ok(got)
                })
            })
            .collect();
        for handle in handles {
            for (i, bytes) in handle.join().expect("priming client panicked")? {
                reference[i] = bytes;
            }
        }
        Ok::<(), String>(())
    })?;
    Ok(Stack { server, warm, requests, reference })
}

/// When a hit client stops.
#[derive(Clone, Copy)]
pub enum Stop<'a> {
    /// At the first request boundary after this instant.
    At(Instant),
    /// Once this flag is raised.
    Flag(&'a AtomicBool),
}

/// What one or more hit clients observed.
#[derive(Debug, Default)]
pub struct HitLog {
    /// Round trips of untraced requests, µs.
    pub untraced_us: Vec<f64>,
    /// Round trips of traced requests, µs (trace runs only).
    pub traced_us: Vec<f64>,
    /// Untraced hits completed per second, one figure per phase.
    pub rates: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed or were refused.
    pub failed: u64,
    /// Responses that were not a cache hit or whose bytes differ from the
    /// primed reference.
    pub wrong: u64,
}

impl HitLog {
    /// Folds another log into this one.
    pub fn merge(&mut self, other: HitLog) {
        self.untraced_us.extend(other.untraced_us);
        self.traced_us.extend(other.traced_us);
        self.rates.extend(other.rates);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }
}

/// A closed loop of warm hits on one connection: walks a seeded
/// permutation of the warm set until `stop`. With a tracer it alternates
/// untraced and traced blocks of requests, a traced request being
/// wrapped in a `net.round_trip` span.
pub fn hit_client(
    stack: &Stack,
    seed: u64,
    conn: usize,
    stop: Stop<'_>,
    mut tracer: Option<&mut Tracer>,
) -> Result<HitLog, String> {
    let mut client = NetClient::connect(stack.server.local_addr()).map_err(|e| e.to_string())?;
    let order = permutation(stack.requests.len(), mix(seed, domain::ORDER, conn as u64));
    let mut log = HitLog::default();
    for k in 0.. {
        let done = match stop {
            Stop::At(deadline) => Instant::now() >= deadline,
            Stop::Flag(flag) => flag.load(Ordering::Acquire),
        };
        if done {
            break;
        }
        let i = order[k % order.len()];
        let traced = tracer.is_some() && (k / TRACE_BLOCK) % 2 == 1;
        let start = Instant::now();
        let result = match tracer.as_deref_mut().filter(|_| traced) {
            Some(t) => {
                let root = t.root("net.round_trip");
                let result = client.submit(&stack.requests[i]);
                t.end(root);
                result
            }
            None => client.submit(&stack.requests[i]),
        };
        let us = start.elapsed().as_nanos() as f64 / 1e3;
        log.attempted += 1;
        match result {
            Ok(out) => {
                if traced {
                    log.traced_us.push(us);
                } else {
                    log.untraced_us.push(us);
                }
                if !out.from_cache || out.bytes != stack.reference[i] {
                    log.wrong += 1;
                }
            }
            Err(_) => log.failed += 1,
        }
    }
    Ok(log)
}

/// Runs [`CONNECTIONS`] hit clients concurrently and merges their logs.
pub fn hit_phase(
    stack: &Stack,
    seed: u64,
    stop: Stop<'_>,
    tracer: Option<&mut Tracer>,
) -> Result<HitLog, String> {
    let epoch_tracers: Vec<Option<Tracer>> = (0..CONNECTIONS)
        .map(|c| tracer.as_ref().map(|t| Tracer::new(t.epoch(), (c as u64 + 1) << 40)))
        .collect();
    let start = Instant::now();
    let results: Vec<(Result<HitLog, String>, Option<Tracer>)> = std::thread::scope(|s| {
        let handles: Vec<_> = epoch_tracers
            .into_iter()
            .enumerate()
            .map(|(c, mut t)| {
                s.spawn(move || {
                    let log = hit_client(stack, seed, c, stop, t.as_mut());
                    (log, t)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("hit client panicked")).collect()
    });
    let seconds = start.elapsed().as_secs_f64();
    let mut merged = HitLog::default();
    let mut tracer = tracer;
    for (log, t) in results {
        merged.merge(log?);
        if let (Some(dst), Some(src)) = (tracer.as_deref_mut(), t) {
            dst.absorb(src);
        }
    }
    merged.rates = vec![merged.untraced_us.len() as f64 / seconds];
    Ok(merged)
}

/// One never-seen job the server answered, kept for the oracle check.
#[derive(Debug)]
pub struct Served {
    /// Warm-set pair whose conv shape and algorithm the job used.
    pub pair: usize,
    /// The job's index, from which its weight and RNG seed are drawn.
    pub job: u64,
    /// Digest of the artifact bytes served (held instead of the bytes,
    /// so memory does not grow with the number of jobs completed).
    pub digest: Digest,
}

/// Length and FNV-1a hash of a byte string.
pub type Digest = (usize, u64);

/// The [`Digest`] of `bytes`.
pub fn digest(bytes: &[u8]) -> Digest {
    let mut h = Fnv1a::new();
    h.update(bytes);
    (bytes.len(), h.finish())
}

/// What a miss client observed.
#[derive(Debug, Default)]
pub struct MissLog {
    /// Round trips, µs.
    pub lat_us: Vec<f64>,
    /// Every answered job, for the oracle check.
    pub served: Vec<Served>,
    /// Requests sent; also the index of the next job.
    pub attempted: u64,
    /// Requests that failed or were refused.
    pub failed: u64,
    /// Responses answered from the cache or by another job.
    pub wrong: u64,
    /// Completed jobs per second of each cycle.
    pub cycle_rate: Vec<f64>,
    /// Median round trip of each cycle, ms.
    pub cycle_p50_ms: Vec<f64>,
}

/// A closed loop of never-seen jobs on one connection, appending to
/// `log`. Each cycle covers every warm (conv shape × algorithm) pair once,
/// in a fresh seeded order, each job with a freshly drawn weight and RNG
/// seed; a cycle's inputs are drawn before it is timed. Runs `cycles`
/// cycles, or with `deadline` cycles until the first that ends past it,
/// so every cycle compresses the same mix.
pub fn miss_client(
    stack: &Stack,
    seed: u64,
    cycles: usize,
    deadline: Option<Instant>,
    log: &mut MissLog,
) -> Result<(), String> {
    let mut client = NetClient::connect(stack.server.local_addr()).map_err(|e| e.to_string())?;
    let n = stack.requests.len();
    for k in 0.. {
        let done = match deadline {
            Some(d) => k > 0 && Instant::now() >= d,
            None => k >= cycles,
        };
        if done {
            break;
        }
        let cycle = log.cycle_rate.len() as u64;
        let jobs: Vec<(usize, u64, NetRequest)> =
            permutation(n, mix(seed, domain::ORDER, 1000 + cycle))
                .into_iter()
                .enumerate()
                .map(|(j, pair)| {
                    let job = log.attempted + j as u64;
                    let (weight, job_seed) = stack.warm.miss_job(seed, pair, job);
                    (pair, job, request(&stack.warm, pair, weight, job_seed))
                })
                .collect();
        let mut lat_us = Vec::with_capacity(n);
        let cycle_start = Instant::now();
        for (pair, job, request) in jobs {
            let start = Instant::now();
            let result = client.submit(&request);
            let us = start.elapsed().as_nanos() as f64 / 1e3;
            log.attempted += 1;
            match result {
                Ok(out) => {
                    lat_us.push(us);
                    if out.from_cache || out.deduped {
                        log.wrong += 1;
                    }
                    log.served.push(Served { pair, job, digest: digest(&out.bytes) });
                }
                Err(_) => log.failed += 1,
            }
        }
        log.cycle_rate.push(lat_us.len() as f64 / cycle_start.elapsed().as_secs_f64());
        log.cycle_p50_ms.push(median(&lat_us).map_or(f64::NAN, |us| us / 1e3));
        log.lat_us.extend(lat_us);
    }
    Ok(())
}

/// Connection A sends never-seen jobs (appended to `miss`) until
/// `deadline`, in whole cycles; connection B sends warm hits until A is
/// done.
pub fn mixed_phase(
    stack: &Stack,
    seed: u64,
    deadline: Instant,
    miss: &mut MissLog,
    tracer: Option<&mut Tracer>,
) -> Result<HitLog, String> {
    let a_done = AtomicBool::new(false);
    let mut b_tracer = tracer.as_ref().map(|t| Tracer::new(t.epoch(), 1 << 40));
    let start = Instant::now();
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| {
            let done = miss_client(stack, seed, 0, Some(deadline), miss);
            a_done.store(true, Ordering::Release);
            done
        });
        let b = s.spawn(|| hit_client(stack, seed, 1, Stop::Flag(&a_done), b_tracer.as_mut()));
        (a.join().expect("miss client panicked"), b.join().expect("hit client panicked"))
    });
    if let (Some(dst), Some(src)) = (tracer, b_tracer) {
        dst.absorb(src);
    }
    let seconds = start.elapsed().as_secs_f64();
    a?;
    let b = b?;
    Ok(HitLog { rates: vec![b.untraced_us.len() as f64 / seconds], ..b })
}
