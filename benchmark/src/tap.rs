//! Transport decorators: the benchmark's measuring points at the wire
//! boundary of both ends.
//!
//! [`ClientTap`] wraps any `ClientTransport` and is always present — it
//! is where pose→frame latency is measured, at the client, and where the
//! received frames are fingerprinted. [`ServerTap`] is boxed around the
//! server end (`LoopbackServerEnd` / `NbServerTransport`) in traced
//! passes only. With `traced` set, both time every call, record a leaf
//! span for it, and keep the first decoded messages as probe inputs.
//!
//! The replay client and the session own their transports and never hand
//! them back, so each tap sends its log through a channel when dropped.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;

use cvr_serve::protocol::{ClientMessage, ServerMessage, WireError};
use cvr_serve::transport::{ClientTransport, SendStatus, ServerTransport};

use crate::spans::{self, now_ns};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a, folding one 64-bit word per step instead of one byte: the
/// fingerprint runs inside the timed loop, so it must cost a handful of
/// multiplies per frame, not one per byte.
pub fn fnv_fold(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV_PRIME)
}

/// Latency slot of a pose whose frame never arrived.
pub const NO_FRAME: u32 = u32::MAX;

/// How one [`ClientTap`] measures.
#[derive(Clone)]
pub struct ClientTapConfig {
    /// Client index in join order (seeds the fingerprint).
    pub client: usize,
    /// Time every call, record leaf spans, keep probe inputs.
    pub traced: bool,
    /// Open loop only: the due time of the current client tick, ns since
    /// the epoch. Poses are timed from when they were due, not from when
    /// a late generator got round to sending them.
    pub due_ns: Option<Arc<AtomicU64>>,
    /// Poses this client will send (pre-sizes the latency table).
    pub expected_poses: usize,
    /// Snapshot the fingerprint after this many assignment frames.
    pub checkpoint_frames: u64,
    /// Traced only: keep this many decoded downstream messages.
    pub record_messages: usize,
}

/// What a [`ClientTap`] saw, delivered when it is dropped.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Client index in join order.
    pub client: usize,
    /// `latency_ns[seq]`: pose `seq` sent (or due) → its assignment frame
    /// decoded at this client; [`NO_FRAME`] if none arrived.
    pub latency_ns: Vec<u32>,
    /// Fingerprint over every received assignment frame.
    pub fingerprint: u64,
    /// The fingerprint after `checkpoint_frames` frames, once reached.
    pub checkpoint: Option<u64>,
    /// `Assignment` frames received.
    pub unicast_frames: u64,
    /// `GroupAssign` frames received.
    pub group_frames: u64,
    /// Frames sent upstream.
    pub frames_up: u64,
    /// Traced: `try_recv` calls and their total time.
    pub recv_calls: u64,
    /// Traced: nanoseconds inside the inner `try_recv`.
    pub recv_ns: u64,
    /// Traced: nanoseconds inside the inner `send`.
    pub send_ns: u64,
    /// Traced: the first decoded downstream messages, in arrival order.
    pub messages: Vec<ServerMessage>,
}

/// A measuring decorator around a client transport.
pub struct ClientTap<T: ClientTransport> {
    inner: T,
    config: ClientTapConfig,
    /// Outstanding `(pose seq, sent-or-due ns)` pairs, oldest first.
    pending: VecDeque<(u64, u64)>,
    log: ClientLog,
    out: Sender<ClientLog>,
}

impl<T: ClientTransport> ClientTap<T> {
    /// Wraps `inner`; the log goes to `out` when the tap is dropped.
    pub fn new(inner: T, config: ClientTapConfig, out: Sender<ClientLog>) -> Self {
        let log = ClientLog {
            client: config.client,
            latency_ns: vec![NO_FRAME; config.expected_poses],
            fingerprint: fnv_fold(FNV_OFFSET, config.client as u64),
            messages: Vec::with_capacity(config.record_messages),
            ..ClientLog::default()
        };
        ClientTap {
            inner,
            config,
            pending: VecDeque::with_capacity(8),
            log,
            out,
        }
    }

    fn note_latency(&mut self, seq: u64, sent_ns: u64, now: u64) {
        let ns = now.saturating_sub(sent_ns).min(u64::from(NO_FRAME - 1)) as u32;
        if let Some(entry) = self.log.latency_ns.get_mut(seq as usize) {
            if *entry == NO_FRAME {
                *entry = ns;
            }
        }
    }

    fn note_frame(
        &mut self,
        slot: u64,
        kind: u64,
        quality: u8,
        rate_mbps: f64,
        manifest: &[cvr_content::id::VideoId],
    ) {
        let mut h = self.log.fingerprint;
        h = fnv_fold(h, slot);
        h = fnv_fold(h, kind);
        h = fnv_fold(h, u64::from(quality));
        h = fnv_fold(h, rate_mbps.to_bits());
        h = fnv_fold(h, manifest.len() as u64);
        for id in manifest {
            h = fnv_fold(h, id.as_u64());
        }
        self.log.fingerprint = h;
        if self.log.unicast_frames + self.log.group_frames == self.config.checkpoint_frames {
            self.log.checkpoint = Some(h);
        }
    }

    fn observe(&mut self, received: &Result<ServerMessage, WireError>) {
        match received {
            Ok(ServerMessage::Assignment {
                slot,
                pose_seq,
                quality,
                rate_mbps,
                manifest,
            }) => {
                let now = now_ns();
                while self
                    .pending
                    .front()
                    .is_some_and(|&(seq, _)| seq < *pose_seq)
                {
                    self.pending.pop_front();
                }
                if let Some(&(seq, sent)) = self.pending.front() {
                    if seq == *pose_seq {
                        self.pending.pop_front();
                        self.note_latency(seq, sent, now);
                    }
                }
                self.log.unicast_frames += 1;
                self.note_frame(*slot, 1, *quality, *rate_mbps, manifest);
            }
            Ok(ServerMessage::GroupAssign {
                slot,
                quality,
                rate_mbps,
                manifest,
                ..
            }) => {
                // A shared frame echoes no pose: it answers the freshest
                // pose this client has uploaded.
                let now = now_ns();
                if let Some(&(seq, sent)) = self.pending.back() {
                    self.note_latency(seq, sent, now);
                }
                self.pending.clear();
                self.log.group_frames += 1;
                self.note_frame(*slot, 2, *quality, *rate_mbps, manifest);
            }
            // Handshake and shutdown frames carry no allocation; the
            // replay client counts undecodable ones itself.
            _ => {}
        }
    }
}

impl<T: ClientTransport> ClientTransport for ClientTap<T> {
    fn try_recv(&mut self) -> Option<Result<ServerMessage, WireError>> {
        if !self.config.traced {
            let received = self.inner.try_recv()?;
            self.observe(&received);
            return Some(received);
        }
        let start = now_ns();
        let received = self.inner.try_recv();
        let end = now_ns();
        self.log.recv_calls += 1;
        self.log.recv_ns += end - start;
        spans::with(|r| r.leaf("serve.client.recv", start, end));
        let received = received?;
        self.observe(&received);
        if self.log.messages.len() < self.config.record_messages {
            if let Ok(message) = &received {
                self.log.messages.push(message.clone());
            }
        }
        Some(received)
    }

    fn send(&mut self, message: &ClientMessage) -> SendStatus {
        self.log.frames_up += 1;
        let pose = matches!(message, ClientMessage::Pose { .. });
        if !(pose || self.config.traced) {
            return self.inner.send(message);
        }
        let start = now_ns();
        if let ClientMessage::Pose { seq, .. } = message {
            let sent = match &self.config.due_ns {
                Some(due) => due.load(Ordering::Relaxed),
                None => start,
            };
            if self.pending.len() == 256 {
                self.pending.pop_front();
            }
            self.pending.push_back((*seq, sent));
        }
        let status = self.inner.send(message);
        if self.config.traced {
            let end = now_ns();
            self.log.send_ns += end - start;
            spans::with(|r| r.leaf("serve.client.send", start, end));
        }
        status
    }

    fn is_closed(&self) -> bool {
        self.inner.is_closed()
    }

    fn close(&mut self) {
        self.inner.close();
    }
}

impl<T: ClientTransport> Drop for ClientTap<T> {
    fn drop(&mut self) {
        // The receiver outlives every tap; if it is gone the run is
        // already being torn down and the log has no reader.
        let _ = self.out.send(std::mem::take(&mut self.log));
    }
}

/// What a [`ServerTap`] saw, delivered when it is dropped.
#[derive(Debug, Default)]
pub struct ServerLog {
    /// Connection index in join order.
    pub connection: usize,
    /// `try_recv` calls (including the empty poll that ends each drain).
    pub recv_calls: u64,
    /// Frames received upstream.
    pub frames_up: u64,
    /// Nanoseconds inside the inner `try_recv`.
    pub recv_ns: u64,
    /// Frames queued downstream (`send` + `send_payload`).
    pub frames_down: u64,
    /// Nanoseconds inside the inner `send` / `send_payload`.
    pub send_ns: u64,
    /// Frames the backpressure policy discarded (`DroppedOldest` sums).
    pub dropped: u64,
    /// Sends refused because the peer was gone.
    pub closed_sends: u64,
    /// Undecodable upstream frames.
    pub wire_errors: u64,
    /// Deepest outbound queue the session observed.
    pub queue_depth_max: usize,
    /// The first decoded upstream messages, in arrival order.
    pub upstream: Vec<ClientMessage>,
    /// The first downstream messages handed to `send`.
    pub downstream: Vec<ServerMessage>,
    /// The first pre-encoded payloads handed to `send_payload`.
    pub payloads: Vec<Vec<u8>>,
}

/// A measuring decorator around a server-side transport.
pub struct ServerTap {
    inner: Box<dyn ServerTransport>,
    record_messages: usize,
    depth_max: Cell<usize>,
    log: ServerLog,
    out: Sender<ServerLog>,
}

impl ServerTap {
    /// Wraps `inner`, keeping the first `record_messages` messages per
    /// direction; the log goes to `out` when the tap is dropped.
    pub fn new(
        inner: Box<dyn ServerTransport>,
        connection: usize,
        record_messages: usize,
        out: Sender<ServerLog>,
    ) -> Self {
        ServerTap {
            inner,
            record_messages,
            depth_max: Cell::new(0),
            log: ServerLog {
                connection,
                upstream: Vec::with_capacity(record_messages),
                downstream: Vec::with_capacity(record_messages),
                ..ServerLog::default()
            },
            out,
        }
    }

    fn account(&mut self, status: SendStatus, start: u64, end: u64) {
        self.log.frames_down += 1;
        self.log.send_ns += end - start;
        spans::with(|r| r.leaf("serve.transport.send", start, end));
        match status {
            SendStatus::Sent => {}
            SendStatus::DroppedOldest(n) => self.log.dropped += n as u64,
            SendStatus::Closed => self.log.closed_sends += 1,
        }
    }
}

impl ServerTransport for ServerTap {
    fn try_recv(&mut self) -> Option<Result<ClientMessage, WireError>> {
        let start = now_ns();
        let received = self.inner.try_recv();
        let end = now_ns();
        self.log.recv_calls += 1;
        self.log.recv_ns += end - start;
        spans::with(|r| r.leaf("serve.transport.recv", start, end));
        match &received {
            Some(Ok(message)) => {
                self.log.frames_up += 1;
                if self.log.upstream.len() < self.record_messages {
                    self.log.upstream.push(message.clone());
                }
            }
            Some(Err(_)) => self.log.wire_errors += 1,
            None => {}
        }
        received
    }

    fn send(&mut self, message: &ServerMessage) -> SendStatus {
        let start = now_ns();
        let status = self.inner.send(message);
        let end = now_ns();
        self.account(status, start, end);
        if self.log.downstream.len() < self.record_messages {
            self.log.downstream.push(message.clone());
        }
        status
    }

    fn send_payload(&mut self, payload: &[u8]) -> SendStatus {
        let start = now_ns();
        let status = self.inner.send_payload(payload);
        let end = now_ns();
        self.account(status, start, end);
        if self.log.payloads.len() < self.record_messages {
            self.log.payloads.push(payload.to_vec());
        }
        status
    }

    fn queue_depth(&self) -> usize {
        let depth = self.inner.queue_depth();
        self.depth_max.set(self.depth_max.get().max(depth));
        depth
    }

    fn queue_capacity(&self) -> usize {
        self.inner.queue_capacity()
    }

    fn is_closed(&self) -> bool {
        self.inner.is_closed()
    }

    fn is_stalled(&self) -> bool {
        self.inner.is_stalled()
    }

    fn frames_dropped(&self) -> u64 {
        self.inner.frames_dropped()
    }

    fn close(&mut self) {
        self.inner.close();
    }
}

impl Drop for ServerTap {
    fn drop(&mut self) {
        self.log.queue_depth_max = self.depth_max.get();
        let _ = self.out.send(std::mem::take(&mut self.log));
    }
}

/// Folds per-client fingerprints, in client order, into one.
pub fn combine_fingerprints(per_client: impl IntoIterator<Item = u64>) -> u64 {
    per_client.into_iter().fold(FNV_OFFSET, fnv_fold)
}
