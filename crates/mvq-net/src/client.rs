//! The blocking TCP client: one connection, one in-order
//! request/response exchange per [`NetClient::submit`] call.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use mvq_core::pipeline::PipelineSpec;
use mvq_core::store::{validate_frame, BlobKind, Persist};
use mvq_core::{CompressedArtifact, MvqError};
use mvq_serve::{CacheMode, Priority};
use mvq_tensor::Tensor;

use crate::wire::{
    read_message, write_message, WireErrorKind, WireRequest, WireResponse, WireStatsReply,
    WireStatsRequest, DEFAULT_MAX_MESSAGE_LEN,
};

/// One compression request to send over a [`NetClient`]. Construct with
/// [`NetRequest::new`] and adjust the public fields; validation happens
/// server-side (an invalid request comes back as a
/// [`NetError::Remote`] with [`WireErrorKind::Rejected`]).
#[derive(Debug, Clone)]
pub struct NetRequest {
    /// Job label (not part of the cache identity).
    pub name: String,
    /// The weight tensor to compress.
    pub weight: Tensor,
    /// Registry algorithm name (aliases allowed).
    pub algo: String,
    /// Pipeline hyperparameters.
    pub spec: PipelineSpec,
    /// Pinned RNG seed; `None` derives a content seed server-side.
    pub seed: Option<u64>,
    /// Scheduling priority.
    pub priority: Priority,
    /// Cache interaction policy.
    pub cache_mode: CacheMode,
    /// Queue deadline, relative to server receipt; `None` = no deadline.
    pub deadline: Option<Duration>,
}

impl NetRequest {
    /// A request with default spec, priority, cache mode, no seed and no
    /// deadline.
    pub fn new(name: impl Into<String>, weight: Tensor, algo: impl Into<String>) -> NetRequest {
        NetRequest {
            name: name.into(),
            weight,
            algo: algo.into(),
            spec: PipelineSpec::default(),
            seed: None,
            priority: Priority::default(),
            cache_mode: CacheMode::default(),
            deadline: None,
        }
    }
}

/// A successful remote compression.
#[derive(Debug, Clone)]
pub struct NetOutcome {
    /// The job's label, echoed by the server.
    pub name: String,
    /// True when the artifact came from the server's cache.
    pub from_cache: bool,
    /// True when the job shared an identical in-flight compression.
    pub deduped: bool,
    /// The artifact's framed bytes, exactly as the server's cache holds
    /// them (frame-validated on receipt; decode on demand).
    pub bytes: Vec<u8>,
}

impl NetOutcome {
    /// Decodes the carried artifact.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::Codec`] when the bytes fail to decode (they
    /// were frame-validated on receipt, so this indicates corruption
    /// after the fact).
    pub fn artifact(&self) -> Result<CompressedArtifact, MvqError> {
        CompressedArtifact::from_bytes(&self.bytes)
    }
}

/// Why a [`NetClient::submit`] failed.
#[derive(Debug)]
pub enum NetError {
    /// The transport failed (connect, read, or write).
    Io(std::io::Error),
    /// The server sent bytes this client cannot parse.
    Protocol(MvqError),
    /// The server answered, reporting a job failure.
    Remote {
        /// The failure class.
        kind: WireErrorKind,
        /// Human-readable detail from the server.
        message: String,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport failed: {e}"),
            NetError::Protocol(e) => write!(f, "protocol violation: {e}"),
            NetError::Remote { kind, message } => write!(f, "remote {kind:?}: {message}"),
        }
    }
}

impl std::error::Error for NetError {}

/// A blocking client for one [`crate::NetServer`] connection.
///
/// `submit` is strictly in-order request/response; open several clients
/// for concurrency (the server pairs a reader/writer per connection).
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    next_id: u64,
}

impl NetClient {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the connection fails.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<NetClient, NetError> {
        let stream = TcpStream::connect(addr).map_err(NetError::Io)?;
        // without this, a message split across two write()s (a short
        // vectored write) interacts with Nagle + delayed ACK into ~40 ms
        // stalls per message
        let _ = stream.set_nodelay(true);
        Ok(NetClient { stream, next_id: 0 })
    }

    /// Sends one request and blocks for its response.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] for transport failures (including the server
    /// dropping a connection it judged protocol-poisoned),
    /// [`NetError::Protocol`] for unparseable server bytes, and
    /// [`NetError::Remote`] for a job the server reports as failed —
    /// including [`WireErrorKind::CancelledDeadline`] when the request's
    /// deadline expired while queued.
    pub fn submit(&mut self, request: &NetRequest) -> Result<NetOutcome, NetError> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let deadline_ms = request.deadline.map(|d| d.as_millis().min(u64::MAX as u128) as u64);
        let wire = WireRequest {
            id,
            name: request.name.clone(),
            algo: request.algo.clone(),
            spec: request.spec.clone(),
            seed: request.seed,
            priority: request.priority,
            cache_mode: request.cache_mode,
            deadline_ms,
            weight: request.weight.clone(),
        };
        let frame = wire.encode().map_err(NetError::Protocol)?;
        write_message(&mut self.stream, &frame).map_err(NetError::Io)?;
        let header =
            read_message(&mut self.stream, DEFAULT_MAX_MESSAGE_LEN).map_err(NetError::Io)?;
        match WireResponse::decode(&header).map_err(NetError::Protocol)? {
            WireResponse::Ok { id: rid, name, from_cache, deduped } => {
                if rid != id {
                    return Err(NetError::Protocol(MvqError::Codec(format!(
                        "response id {rid} does not match request id {id}"
                    ))));
                }
                let bytes = read_message(&mut self.stream, DEFAULT_MAX_MESSAGE_LEN)
                    .map_err(NetError::Io)?;
                validate_frame(BlobKind::Artifact, &bytes).map_err(NetError::Protocol)?;
                Ok(NetOutcome { name, from_cache, deduped, bytes })
            }
            WireResponse::Err { id: rid, kind, message } => {
                if rid != id {
                    return Err(NetError::Protocol(MvqError::Codec(format!(
                        "response id {rid} does not match request id {id}"
                    ))));
                }
                Err(NetError::Remote { kind, message })
            }
        }
    }

    /// Asks the server for a live snapshot of its metrics registry and
    /// up to `max_traces` recently completed job traces (newest first).
    /// In-order like [`NetClient::submit`]: the reply reflects the
    /// server's state after every request this connection already sent.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] for transport failures, [`NetError::Protocol`]
    /// for unparseable server bytes or a mismatched reply id.
    pub fn stats(&mut self, max_traces: usize) -> Result<WireStatsReply, NetError> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let max_traces = u32::try_from(max_traces).unwrap_or(u32::MAX);
        let frame = WireStatsRequest { id, max_traces }.encode();
        write_message(&mut self.stream, &frame).map_err(NetError::Io)?;
        let msg = read_message(&mut self.stream, DEFAULT_MAX_MESSAGE_LEN).map_err(NetError::Io)?;
        let reply = WireStatsReply::decode(&msg).map_err(NetError::Protocol)?;
        if reply.id != id {
            return Err(NetError::Protocol(MvqError::Codec(format!(
                "stats reply id {} does not match request id {id}",
                reply.id
            ))));
        }
        Ok(reply)
    }

    /// Raw access to the connection, for failure-injection tests that
    /// need to write garbage or half-close.
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}
