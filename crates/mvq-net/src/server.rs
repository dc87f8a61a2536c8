//! The TCP server: an accept loop plus a reader/writer thread pair per
//! connection, riding [`CompressionService`] tickets to completion.
//!
//! Concurrency is std-only, mirroring the serve layer: plain
//! `std::thread`s, a **bounded** `sync_channel` handing submitted
//! tickets from each connection's reader to its writer (the bound is
//! the per-connection in-flight pipeline depth — a client that
//! pipelines faster than the service completes blocks in its reader,
//! which is the backpressure), and atomics for stats and the drain
//! flag.
//!
//! ## Deadlines and cancellation
//!
//! Each wire request may carry a relative deadline; the reader converts
//! it to an absolute [`Instant`] at receipt and attaches it — plus a
//! fresh [`CancelToken`] — to the service request. A job still queued
//! when its deadline passes, or whose client disconnected (the reader
//! cancels every outstanding token on EOF), is dropped at dequeue and
//! never occupies a worker; its waiter resolves to
//! [`JobError::Cancelled`] and the writer reports the corresponding
//! wire error (or discards it, if the connection is already gone).
//!
//! ## Graceful drain
//!
//! [`NetServer::shutdown`] (also run on [`Drop`]) stops accepting, then
//! half-closes every connection's read side. Readers exit **without**
//! cancelling outstanding work — the drain flag distinguishes a server
//! drain from a client disconnect — so writers flush every accepted
//! in-flight ticket before the sockets close.

use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mvq_core::store::{peek_kind, BlobKind};
use mvq_core::MvqError;
use mvq_obs::{names as metric, Registry};
use mvq_serve::{CancelToken, CompressionRequest, CompressionService, JobError, Ticket};

use crate::wire::{
    read_message, write_message, write_messages, WireErrorKind, WireRequest, WireResponse,
    WireStatsReply, WireStatsRequest, DEFAULT_MAX_MESSAGE_LEN,
};

/// Per-connection in-flight pipeline depth: how many submitted tickets
/// may sit between a connection's reader and writer before the reader
/// blocks (bounded by construction — the workspace's no-unbounded-queue
/// rule).
const PIPELINE_DEPTH: usize = 64;

/// Monotonic counters for the server's observable behavior. Snapshot
/// via [`NetServer::stats`]; tests spin on these to await events (a
/// cancelled job, a drained connection) without sleeping.
///
/// This is a **view over the serving stack's `mvq_obs::Registry`**
/// (the server adopts its service's registry, which the service adopted
/// from its cache): the fields read the registry's `net.conn.*`
/// counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted.
    pub connections: u64,
    /// Well-formed requests decoded and handed to the service.
    pub requests: u64,
    /// Ok responses written (artifact delivered).
    pub responses_ok: u64,
    /// Error responses (compression/cache/panic/reject) resolved.
    pub responses_err: u64,
    /// Jobs cancelled because their client disconnected while they were
    /// queued.
    pub cancelled_disconnect: u64,
    /// Jobs cancelled because their queue deadline expired.
    pub cancelled_deadline: u64,
    /// Connections dropped for protocol garbage (bad magic, truncated
    /// frame, oversize length, future format version, …).
    pub protocol_errors: u64,
}

/// One live connection's handles, kept for the drain.
struct Conn {
    /// A clone of the connection's stream, used only to half-close the
    /// read side at drain.
    stream: TcpStream,
    reader: JoinHandle<()>,
    writer: JoinHandle<()>,
}

struct NetShared {
    service: CompressionService,
    draining: AtomicBool,
    /// The serving stack's metrics registry, adopted from the service
    /// (which adopted it from its cache): one registry, one snapshot,
    /// covering store, serve, and net.
    metrics: Arc<Registry>,
    conns: Mutex<Vec<Conn>>,
}

/// A TCP front for one [`CompressionService`]: accepts connections on a
/// listener and serves the length-prefixed MVQA wire protocol (see the
/// crate docs for the layout).
///
/// Dropping the server drains gracefully: accepted in-flight jobs
/// complete and their responses flush before the sockets close.
pub struct NetServer {
    shared: Arc<NetShared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer").field("local_addr", &self.local_addr).finish_non_exhaustive()
    }
}

impl NetServer {
    /// Binds `addr` (use port 0 for an OS-assigned port) and starts
    /// serving `service`. Every message is capped at
    /// [`DEFAULT_MAX_MESSAGE_LEN`] bytes in both directions.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::InvalidConfig`] when the bind or the
    /// acceptor spawn fails.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: CompressionService,
    ) -> Result<NetServer, MvqError> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| MvqError::InvalidConfig(format!("cannot bind listener: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| MvqError::InvalidConfig(format!("cannot resolve bound address: {e}")))?;
        let metrics = Arc::clone(service.registry());
        let shared = Arc::new(NetShared {
            service,
            draining: AtomicBool::new(false),
            metrics,
            conns: Mutex::new(Vec::new()),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mvq-net-accept".into())
                .spawn(move || accept_loop(&listener, &shared))
                .map_err(|e| MvqError::InvalidConfig(format!("cannot spawn acceptor: {e}")))?
        };
        Ok(NetServer { shared, local_addr, acceptor: Some(acceptor) })
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The served compression service (for cache stats and direct
    /// submissions).
    pub fn service(&self) -> &CompressionService {
        &self.shared.service
    }

    /// A snapshot of the server's counters (a view over the shared
    /// registry's `net.conn.*` metrics).
    pub fn stats(&self) -> NetStats {
        let m = &self.shared.metrics;
        NetStats {
            connections: m.counter(metric::NET_CONN_ACCEPTED).get(),
            requests: m.counter(metric::NET_CONN_FRAMES_RX).get(),
            responses_ok: m.counter(metric::NET_CONN_RESPONSES_OK).get(),
            responses_err: m.counter(metric::NET_CONN_RESPONSES_ERR).get(),
            cancelled_disconnect: m.counter(metric::NET_CONN_CANCELLED_DISCONNECT).get(),
            cancelled_deadline: m.counter(metric::NET_CONN_CANCELLED_DEADLINE).get(),
            protocol_errors: m.counter(metric::NET_CONN_PROTOCOL_ERRORS).get(),
        }
    }

    /// The metrics registry (and completed-trace ring) shared by the
    /// whole serving stack: cache, service, and this network front.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.shared.metrics
    }

    /// Graceful drain: stop accepting, half-close every connection's
    /// read side, flush every accepted in-flight job's response, join
    /// all threads. Idempotent; [`Drop`] calls it.
    pub fn shutdown(&mut self) {
        self.shared.draining.store(true, Ordering::Release);
        // poke the blocking accept() so the acceptor observes the flag
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // the acceptor is gone, so the registry is final now
        let conns = match self.shared.conns.lock() {
            Ok(mut guard) => guard.drain(..).collect::<Vec<_>>(),
            Err(_) => Vec::new(),
        };
        for conn in &conns {
            // readers parked in read_message wake with EOF; the drain
            // flag tells them not to cancel outstanding work
            let _ = conn.stream.shutdown(Shutdown::Read);
        }
        for conn in conns {
            let _ = conn.reader.join();
            // the writer exits once the reader's channel closes and
            // every remaining ticket is flushed
            let _ = conn.writer.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<NetShared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.draining.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        if shared.draining.load(Ordering::Acquire) {
            // the shutdown poke (or a late client); refuse and exit
            return;
        }
        spawn_connection(shared, stream);
    }
}

/// What the reader hands the writer, in submission order.
enum Pending {
    /// A submitted job's ticket (plus the cancel token shared with the
    /// service-side waiter). Boxed: a `Ticket` dwarfs the other variant,
    /// and one allocation per request is noise next to the compression.
    Job { id: u64, ticket: Box<Ticket> },
    /// A request refused at validation; respond without a ticket.
    Reject { id: u64, message: String },
    /// A live-stats reply, already encoded; rides the same channel so
    /// replies stay in per-connection submission order.
    Stats { frame: Vec<u8> },
}

fn spawn_connection(shared: &Arc<NetShared>, stream: TcpStream) {
    // a message goes out as one vectored write, but a short write can
    // still leave a small tail; with Nagle on, that second write stalls
    // behind the peer's delayed ACK (~40 ms per message on loopback)
    let _ = stream.set_nodelay(true);
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    shared.metrics.counter(metric::NET_CONN_ACCEPTED).inc();
    // bounded by design: the pipeline depth is the connection's
    // in-flight budget, and a reader blocked on a full channel is the
    // protocol's backpressure
    let (tx, rx) = mpsc::sync_channel::<Pending>(PIPELINE_DEPTH);
    let outstanding: Arc<Mutex<HashMap<u64, CancelToken>>> = Arc::new(Mutex::new(HashMap::new()));
    let reader = {
        let shared = Arc::clone(shared);
        let outstanding = Arc::clone(&outstanding);
        std::thread::Builder::new()
            .name("mvq-net-reader".into())
            .spawn(move || conn_reader(&shared, reader_stream, &tx, &outstanding))
    };
    let writer = {
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name("mvq-net-writer".into())
            .spawn(move || conn_writer(&shared, writer_stream, &rx, &outstanding))
    };
    match (reader, writer) {
        (Ok(reader), Ok(writer)) => {
            if let Ok(mut conns) = shared.conns.lock() {
                conns.push(Conn { stream, reader, writer });
            }
        }
        (reader, writer) => {
            // a failed spawn closes the connection; shutting the socket
            // (shared by every clone) unblocks whichever half did start
            let _ = stream.shutdown(Shutdown::Both);
            drop(stream);
            if let Ok(handle) = reader {
                let _ = handle.join();
            }
            if let Ok(handle) = writer {
                let _ = handle.join();
            }
        }
    }
}

fn conn_reader(
    shared: &NetShared,
    mut stream: TcpStream,
    tx: &mpsc::SyncSender<Pending>,
    outstanding: &Mutex<HashMap<u64, CancelToken>>,
) {
    loop {
        let msg = match read_message(&mut stream, DEFAULT_MAX_MESSAGE_LEN) {
            Ok(msg) => msg,
            Err(e) => {
                // a clean disconnect surfaces as EOF at the length
                // prefix; anything else is protocol garbage
                if e.kind() != std::io::ErrorKind::UnexpectedEof {
                    shared.metrics.counter(metric::NET_CONN_PROTOCOL_ERRORS).inc();
                }
                break;
            }
        };
        // a stats probe is answered from the registry without touching
        // the service queue; it rides the same pending channel so the
        // reply lands in per-connection order (peeking the header's kind
        // tag never commits us to a decode: both decoders verify it)
        if peek_kind(&msg) == Some(BlobKind::StatsRequest) {
            let reply = match WireStatsRequest::decode(&msg) {
                Ok(req) => {
                    shared.metrics.counter(metric::NET_CONN_STATS_REQUESTS).inc();
                    let traces = shared.metrics.traces().recent(req.max_traces as usize);
                    WireStatsReply::from_registry(req.id, &shared.metrics.snapshot(), traces)
                        .encode()
                }
                Err(e) => Err(e),
            };
            match reply {
                Ok(frame) => {
                    if tx.send(Pending::Stats { frame }).is_err() {
                        break; // writer is gone; the connection is dead
                    }
                    continue;
                }
                Err(_) => {
                    shared.metrics.counter(metric::NET_CONN_PROTOCOL_ERRORS).inc();
                    break;
                }
            }
        }
        let wire = match WireRequest::decode(&msg) {
            Ok(wire) => wire,
            Err(_) => {
                // an undecodable frame poisons the stream's framing;
                // drop the connection rather than guess at recovery
                shared.metrics.counter(metric::NET_CONN_PROTOCOL_ERRORS).inc();
                break;
            }
        };
        shared.metrics.counter(metric::NET_CONN_FRAMES_RX).inc();
        let id = wire.id;
        let token = CancelToken::new();
        let mut builder = CompressionRequest::builder(wire.name, wire.weight, wire.algo)
            .spec(wire.spec)
            .priority(wire.priority)
            .cache_mode(wire.cache_mode)
            .cancel_token(token.clone());
        if let Some(seed) = wire.seed {
            builder = builder.seed(seed);
        }
        if let Some(ms) = wire.deadline_ms {
            // relative on the wire, absolute from receipt here — the
            // client's clock never matters
            builder = builder.deadline(Instant::now() + Duration::from_millis(ms));
        }
        let pending = match builder.build() {
            Ok(request) => {
                // submit_one blocks while the service queue is full
                // (a memory-resident hit is answered at once instead) —
                // that, plus the bounded channel below, is the server's
                // backpressure; nothing is buffered without bound
                let ticket = shared.service.submit_one(request);
                if let Ok(mut map) = outstanding.lock() {
                    map.insert(id, token);
                }
                Pending::Job { id, ticket: Box::new(ticket) }
            }
            Err(e) => Pending::Reject { id, message: e.to_string() },
        };
        if tx.send(pending).is_err() {
            break; // writer is gone; the connection is dead
        }
    }
    // Client disconnect cancels everything still outstanding so queued
    // jobs never occupy a worker — unless the server itself is draining,
    // in which case accepted work must complete and flush.
    if !shared.draining.load(Ordering::Acquire) {
        if let Ok(mut map) = outstanding.lock() {
            for (_, token) in map.drain() {
                token.cancel();
            }
        }
    }
}

fn conn_writer(
    shared: &NetShared,
    mut stream: TcpStream,
    rx: &mpsc::Receiver<Pending>,
    outstanding: &Mutex<HashMap<u64, CancelToken>>,
) {
    // once a write fails the socket is dead, but tickets must still be
    // drained so their results (and cancellation stats) are accounted
    let mut alive = true;
    while let Ok(pending) = rx.recv() {
        match pending {
            Pending::Stats { frame } => {
                if alive {
                    alive = write_message(&mut stream, &frame).is_ok();
                }
            }
            Pending::Reject { id, message } => {
                shared.metrics.counter(metric::NET_CONN_RESPONSES_ERR).inc();
                if alive {
                    let resp = WireResponse::Err { id, kind: WireErrorKind::Rejected, message };
                    alive = write_response(&mut stream, &resp);
                }
            }
            Pending::Job { id, ticket } => {
                let result = ticket.wait();
                if let Ok(mut map) = outstanding.lock() {
                    map.remove(&id);
                }
                match result {
                    Ok(outcome) => {
                        shared.metrics.counter(metric::NET_CONN_RESPONSES_OK).inc();
                        if alive {
                            alive = write_ok(&mut stream, id, &outcome);
                        }
                    }
                    Err(e) => {
                        match &e {
                            JobError::Cancelled { kind, .. } => {
                                use mvq_serve::CancelKind;
                                let id = match kind {
                                    CancelKind::Explicit => metric::NET_CONN_CANCELLED_DISCONNECT,
                                    CancelKind::DeadlineExpired => {
                                        metric::NET_CONN_CANCELLED_DEADLINE
                                    }
                                };
                                shared.metrics.counter(id).inc();
                            }
                            _ => {
                                shared.metrics.counter(metric::NET_CONN_RESPONSES_ERR).inc();
                            }
                        }
                        if alive {
                            let resp = WireResponse::Err {
                                id,
                                kind: WireErrorKind::from_job_error(&e),
                                message: e.to_string(),
                            };
                            alive = write_response(&mut stream, &resp);
                        }
                    }
                }
            }
        }
    }
    let _ = stream.flush();
}

/// Encodes and writes one response header; false when the socket died.
fn write_response(stream: &mut TcpStream, resp: &WireResponse) -> bool {
    match resp.encode() {
        Ok(frame) => write_message(stream, &frame).is_ok(),
        Err(_) => false,
    }
}

/// Writes an Ok header and its artifact message in one vectored write;
/// false when the socket died. The hot path writes the outcome's shared
/// `Arc` bytes directly — the same allocation the cache validated at
/// admission, never copied or re-encoded for the wire. Only
/// cache-bypassing jobs (which never encoded) pay an encode here.
fn write_ok(stream: &mut TcpStream, id: u64, outcome: &mvq_serve::JobOutcome) -> bool {
    let header = WireResponse::Ok {
        id,
        name: outcome.name.clone(),
        from_cache: outcome.from_cache,
        deduped: outcome.deduped,
    };
    let Ok(header) = header.encode() else {
        return false;
    };
    let encoded;
    let artifact: &[u8] = match outcome.raw_bytes() {
        Some(bytes) => bytes,
        None => match outcome.artifact().and_then(|a| {
            use mvq_core::store::Persist;
            a.to_bytes()
        }) {
            Ok(bytes) => {
                encoded = bytes;
                &encoded
            }
            Err(_) => return false,
        },
    };
    write_messages(stream, &[&header, artifact]).is_ok()
}
