//! Pluggable message transports between the session runtime and its
//! clients.
//!
//! Each side has two implementations: [`loopback`] here, an in-process
//! pair of bounded byte queues, and the TCP transport in
//! [`crate::readiness`] ([`crate::readiness::NbServerTransport`] and
//! [`crate::readiness::NbClientTransport`]). Loopback messages still
//! pass through the full wire codec, so the loopback exercises the exact
//! bytes TCP would carry, but with no sockets or timing — the substrate
//! for deterministic lockstep tests.
//!
//! Both directions apply backpressure with a bounded outbound queue and
//! a *drop-oldest-superseded* policy: when the queue is full, the oldest
//! per-slot frame (an `Assignment` or `GroupAssign` downstream, a `Pose`
//! upstream; [`tag::superseded_next_slot`]) is discarded first, because
//! the next slot supersedes it anyway. Control frames
//! (`Hello`/`Welcome`/`Ack`/…) are only dropped when no per-slot frame
//! remains. A transport whose queue is pinned at capacity reports itself
//! *stalled*; the session reacts by degrading that user to the lowest
//! quality rather than letting one slow client stall the slot deadline
//! for everyone.
//!
//! Every frame queue — both loopback directions and both sides of a
//! [`crate::readiness`] connection — is one `FrameRing`: length-prefixed
//! frames back to back in one buffer, exactly the bytes TCP carries. A
//! message is encoded straight into the ring and decoded from where it
//! lies, so moving a frame allocates nothing, and a loopback frame takes
//! the queue's lock once and makes no system call.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::protocol::{tag, ClientMessage, ServerMessage, WireError, MAX_FRAME_BYTES};

/// Outcome of handing a message to a transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendStatus {
    /// The message was queued (or delivered) in order.
    Sent,
    /// The message was queued, but the queue was full and this many older
    /// frames were discarded to make room.
    DroppedOldest(usize),
    /// The peer is gone; the message was discarded.
    Closed,
}

impl SendStatus {
    /// The status of a push that discarded `dropped` older frames.
    pub(crate) fn queued(dropped: usize) -> SendStatus {
        if dropped == 0 {
            SendStatus::Sent
        } else {
            SendStatus::DroppedOldest(dropped)
        }
    }
}

/// Server-side view of one client connection.
///
/// `try_recv` never blocks — the slot tick polls it. `send` never blocks
/// either: it queues, drops, or reports the connection closed.
pub trait ServerTransport: Send {
    /// Pops the next decoded upstream message, if any. A `Some(Err(_))`
    /// is a protocol violation by the peer (corrupt frame).
    fn try_recv(&mut self) -> Option<Result<ClientMessage, WireError>>;

    /// Queues a downstream message.
    fn send(&mut self, message: &ServerMessage) -> SendStatus;

    /// Queues an already-encoded downstream payload. The multicast
    /// fan-out path encodes a `GroupAssign` once and hands every group
    /// member the same bytes — per-member re-encoding would defeat the
    /// point of the shared frame.
    fn send_payload(&mut self, payload: &[u8]) -> SendStatus;

    /// Frames currently waiting in the outbound queue.
    fn queue_depth(&self) -> usize;

    /// Outbound queue capacity.
    fn queue_capacity(&self) -> usize;

    /// Whether the connection is gone (peer closed or I/O error).
    fn is_closed(&self) -> bool;

    /// Whether the outbound path is saturated — the signal to degrade
    /// this user instead of waiting on them.
    fn is_stalled(&self) -> bool;

    /// Total frames ever discarded by the backpressure policy.
    fn frames_dropped(&self) -> u64;

    /// Closes the connection; subsequent sends report [`SendStatus::Closed`].
    fn close(&mut self);
}

/// Client-side view of its server connection (mirror of
/// [`ServerTransport`] with the message directions swapped).
pub trait ClientTransport: Send {
    /// Pops the next decoded downstream message, if any.
    fn try_recv(&mut self) -> Option<Result<ServerMessage, WireError>>;

    /// Queues an upstream message.
    fn send(&mut self, message: &ClientMessage) -> SendStatus;

    /// Whether the connection is gone.
    fn is_closed(&self) -> bool;

    /// Closes the connection.
    fn close(&mut self);
}

/// Bytes of a frame's length prefix.
const PREFIX: usize = 4;

/// A bounded FIFO of frames kept in wire format: each frame is its
/// little-endian `u32` payload length followed by the payload, back to
/// back in one buffer.
///
/// ```text
/// buf:  consumed | oldest frame .. newest complete frame | partial tail
///       0        head         cursor                     complete      len
/// ```
///
/// `head` is always a frame boundary. `cursor` is the first byte not yet
/// handed to a socket; it is past `head` only while the oldest frame is
/// part-written, and that frame is then *pinned*: the policy never
/// discards it, because dropping the rest of a frame whose first bytes
/// are on the wire would corrupt the peer's framing. Bytes past
/// `complete` are the start of a frame a socket has not finished
/// delivering. Whenever the ring drains, the buffer is reset to length 0,
/// so a queue that keeps up lives in the same few cache lines.
///
/// A ring has one producer — [`Self::push_with`] (encode in place) or
/// [`Self::extend_wire`] (bytes from a socket) — and one consumer —
/// [`Self::pop_with`] (decode in place) or [`Self::wire`]/[`Self::wrote`]
/// (bytes to a socket). When `capacity` frames are waiting, the producer
/// makes room under the drop-oldest-superseded policy.
pub(crate) struct FrameRing {
    buf: Vec<u8>,
    head: usize,
    cursor: usize,
    complete: usize,
    /// Complete frames from `head` on, a pinned one included.
    frames: usize,
    capacity: usize,
    dropped: u64,
}

impl FrameRing {
    pub(crate) fn new(capacity: usize) -> FrameRing {
        assert!(capacity > 0, "queue capacity must be positive");
        FrameRing {
            buf: Vec::new(),
            head: 0,
            cursor: 0,
            complete: 0,
            frames: 0,
            capacity,
            dropped: 0,
        }
    }

    /// Complete frames waiting, a part-written one included.
    pub(crate) fn frames(&self) -> usize {
        self.frames
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Frames the policy has discarded so far.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Whether the next frame in will push one out: `capacity` frames are
    /// waiting, not counting a pinned one (the policy cannot take it).
    pub(crate) fn is_full(&self) -> bool {
        self.frames - usize::from(self.cursor > self.head) >= self.capacity
    }

    /// Payload length of the frame whose prefix starts at `at`.
    fn payload_len(&self, at: usize) -> usize {
        let prefix = self.buf[at..at + PREFIX].try_into().expect("4-byte slice");
        u32::from_le_bytes(prefix) as usize
    }

    /// Drops consumed bytes once they outweigh the live ones, so a ring
    /// that never quite drains copies each byte at most once more.
    fn reclaim(&mut self) {
        let live = self.buf.len() - self.head;
        if self.head >= live && self.head > 0 {
            self.buf.copy_within(self.head.., 0);
            self.buf.truncate(live);
            self.cursor -= self.head;
            self.complete -= self.head;
            self.head = 0;
        }
    }

    /// Moves `head` past the oldest frame, which has been consumed.
    fn retire_oldest(&mut self) {
        self.head += PREFIX + self.payload_len(self.head);
        self.cursor = self.cursor.max(self.head);
        self.frames -= 1;
        if self.head == self.buf.len() {
            self.buf.clear();
            (self.head, self.cursor, self.complete) = (0, 0, 0);
        }
    }

    /// The drop-oldest-superseded policy, written once: while `capacity`
    /// frames are waiting, discards the oldest frame the next slot
    /// supersedes, or the oldest frame of any kind when none is. Returns
    /// how many went.
    fn make_room(&mut self) -> usize {
        let mut dropped = 0;
        while self.is_full() {
            let first = if self.cursor > self.head {
                self.head + PREFIX + self.payload_len(self.head)
            } else {
                self.head
            };
            let (mut at, mut victim) = (first, first);
            while at < self.complete {
                let len = self.payload_len(at);
                if len > 0 && tag::superseded_next_slot(self.buf[at + PREFIX]) {
                    victim = at;
                    break;
                }
                at += PREFIX + len;
            }
            if victim == self.head {
                self.retire_oldest();
            } else {
                let end = victim + PREFIX + self.payload_len(victim);
                self.buf.drain(victim..end);
                self.complete -= end - victim;
                self.frames -= 1;
            }
            self.dropped += 1;
            dropped += 1;
        }
        dropped
    }

    /// Queues one frame: `encode` appends its payload to the buffer it is
    /// given and the length prefix is patched in afterwards. Returns how
    /// many older frames were discarded to make room.
    pub(crate) fn push_with(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> usize {
        debug_assert_eq!(
            self.complete,
            self.buf.len(),
            "a socket is feeding this ring"
        );
        let dropped = self.make_room();
        self.reclaim();
        let at = self.buf.len();
        self.buf.extend_from_slice(&[0; PREFIX]);
        encode(&mut self.buf);
        let len = (self.buf.len() - at - PREFIX) as u32;
        self.buf[at..at + PREFIX].copy_from_slice(&len.to_le_bytes());
        self.complete = self.buf.len();
        self.frames += 1;
        dropped
    }

    /// Appends bytes as a socket returned them and admits every frame
    /// they complete, making room for each as it completes. Returns
    /// `false` on a length prefix above [`MAX_FRAME_BYTES`]: the stream
    /// has lost its framing, so the bytes from that prefix on are replaced
    /// by one empty — undecodable — frame behind the complete ones, and
    /// the caller must stop feeding the ring.
    pub(crate) fn extend_wire(&mut self, bytes: &[u8]) -> bool {
        self.reclaim();
        self.buf.extend_from_slice(bytes);
        while self.buf.len() - self.complete >= PREFIX {
            let len = self.payload_len(self.complete);
            if len > MAX_FRAME_BYTES {
                self.buf.truncate(self.complete);
                self.buf.extend_from_slice(&[0; PREFIX]);
                self.complete += PREFIX;
                self.frames += 1;
                return false;
            }
            if self.buf.len() - self.complete < PREFIX + len {
                break;
            }
            self.make_room();
            self.complete += PREFIX + len;
            self.frames += 1;
        }
        true
    }

    /// Hands the oldest frame's payload to `decode` where it lies, then
    /// retires the frame. `None` when no complete frame is waiting.
    pub(crate) fn pop_with<R>(&mut self, decode: impl FnOnce(&[u8]) -> R) -> Option<R> {
        debug_assert_eq!(self.cursor, self.head, "a socket is draining this ring");
        if self.frames == 0 {
            return None;
        }
        let start = self.head + PREFIX;
        let decoded = decode(&self.buf[start..start + self.payload_len(self.head)]);
        self.retire_oldest();
        Some(decoded)
    }

    /// Every complete byte not yet written to the socket: the rest of a
    /// part-written frame, then all the frames behind it.
    pub(crate) fn wire(&self) -> &[u8] {
        &self.buf[self.cursor..self.complete]
    }

    /// Records that the socket took the first `n` bytes of [`Self::wire`],
    /// retiring every frame that is now wholly written.
    pub(crate) fn wrote(&mut self, n: usize) {
        debug_assert!(n <= self.wire().len());
        let cursor = self.cursor + n;
        self.cursor = cursor;
        // `retire_oldest` resets the offsets when it empties the buffer,
        // which can only be on the frame that ends at `cursor`.
        while self.frames > 0 && self.head + PREFIX + self.payload_len(self.head) <= cursor {
            self.retire_oldest();
        }
    }
}

/// One loopback direction's bounded frame queue, shared between its
/// producing and consuming ends, which may run on different threads.
///
/// `depth` mirrors the ring's frame count and is stored (`Release`)
/// while the lock is held; `closed` lives outside the lock altogether.
/// Both are loaded (`Acquire`) without the lock by the looks the slot
/// loop makes between frames — [`Self::len`], [`Self::is_closed`] and
/// the empty [`Self::pop_with`]. The frames themselves are only ever read
/// under the lock, so a stale look publishes nothing: at worst a frame
/// pushed by another thread this instant is found on the next poll.
struct Queue {
    ring: Mutex<FrameRing>,
    depth: AtomicUsize,
    closed: AtomicBool,
    capacity: usize,
}

impl Queue {
    fn new(capacity: usize) -> Arc<Queue> {
        Arc::new(Queue {
            ring: Mutex::new(FrameRing::new(capacity)),
            depth: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            capacity,
        })
    }

    /// Queues the frame `encode` writes, discarding older frames under the
    /// drop-oldest policy if the queue is full.
    fn push_with(&self, encode: impl FnOnce(&mut Vec<u8>)) -> SendStatus {
        let mut ring = self.ring.lock().expect("queue poisoned");
        if self.is_closed() {
            return SendStatus::Closed;
        }
        let dropped = ring.push_with(encode);
        self.depth.store(ring.frames(), Ordering::Release);
        SendStatus::queued(dropped)
    }

    /// Decodes and retires the next frame without blocking; an empty
    /// queue is seen without the lock.
    fn pop_with<R>(&self, decode: impl FnOnce(&[u8]) -> R) -> Option<R> {
        if self.len() == 0 {
            return None;
        }
        let mut ring = self.ring.lock().expect("queue poisoned");
        let decoded = ring.pop_with(decode);
        self.depth.store(ring.frames(), Ordering::Release);
        decoded
    }

    fn len(&self) -> usize {
        self.depth.load(Ordering::Acquire)
    }

    fn dropped(&self) -> u64 {
        self.ring.lock().expect("queue poisoned").dropped()
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }
}

/// Creates a connected in-process transport pair with bounded queues of
/// `capacity` frames in each direction.
pub fn loopback(capacity: usize) -> (LoopbackServerEnd, LoopbackClientEnd) {
    let upstream = Queue::new(capacity);
    let downstream = Queue::new(capacity);
    (
        LoopbackServerEnd {
            inbound: Arc::clone(&upstream),
            outbound: Arc::clone(&downstream),
        },
        LoopbackClientEnd {
            inbound: downstream,
            outbound: upstream,
        },
    )
}

/// Server half of an in-process transport pair (see [`loopback`]).
pub struct LoopbackServerEnd {
    inbound: Arc<Queue>,
    outbound: Arc<Queue>,
}

impl ServerTransport for LoopbackServerEnd {
    fn try_recv(&mut self) -> Option<Result<ClientMessage, WireError>> {
        self.inbound.pop_with(ClientMessage::decode)
    }

    fn send(&mut self, message: &ServerMessage) -> SendStatus {
        self.outbound.push_with(|buf| message.encode(buf))
    }

    fn send_payload(&mut self, payload: &[u8]) -> SendStatus {
        self.outbound
            .push_with(|buf| buf.extend_from_slice(payload))
    }

    fn queue_depth(&self) -> usize {
        self.outbound.len()
    }

    fn queue_capacity(&self) -> usize {
        self.outbound.capacity
    }

    fn is_closed(&self) -> bool {
        self.outbound.is_closed()
    }

    fn is_stalled(&self) -> bool {
        self.outbound.len() >= self.outbound.capacity
    }

    fn frames_dropped(&self) -> u64 {
        self.outbound.dropped()
    }

    fn close(&mut self) {
        self.inbound.close();
        self.outbound.close();
    }
}

/// Client half of an in-process transport pair (see [`loopback`]).
pub struct LoopbackClientEnd {
    inbound: Arc<Queue>,
    outbound: Arc<Queue>,
}

impl ClientTransport for LoopbackClientEnd {
    fn try_recv(&mut self) -> Option<Result<ServerMessage, WireError>> {
        self.inbound.pop_with(ServerMessage::decode)
    }

    fn send(&mut self, message: &ClientMessage) -> SendStatus {
        self.outbound.push_with(|buf| message.encode(buf))
    }

    fn is_closed(&self) -> bool {
        self.outbound.is_closed()
    }

    fn close(&mut self) {
        self.inbound.close();
        self.outbound.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_frame, write_frame, FrameError};
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[test]
    fn loopback_delivers_in_order() {
        let (mut server, mut client) = loopback(8);
        client.send(&ClientMessage::Hello {
            version: 1,
            seed: 42,
        });
        client.send(&ClientMessage::Bye);
        assert!(matches!(
            server.try_recv(),
            Some(Ok(ClientMessage::Hello { seed: 42, .. }))
        ));
        assert!(matches!(server.try_recv(), Some(Ok(ClientMessage::Bye))));
        assert!(server.try_recv().is_none());
    }

    #[test]
    fn full_queue_drops_oldest_assignment_first() {
        let (mut server, mut client) = loopback(2);
        let assignment = |slot| ServerMessage::Assignment {
            slot,
            pose_seq: 0,
            quality: 1,
            rate_mbps: 1.0,
            manifest: vec![],
        };
        assert_eq!(server.send(&ServerMessage::Shutdown), SendStatus::Sent);
        assert_eq!(server.send(&assignment(1)), SendStatus::Sent);
        assert_eq!(server.queue_depth(), 2);
        // Queue full: the assignment is sacrificed, never the control frame.
        assert_eq!(server.send(&assignment(2)), SendStatus::DroppedOldest(1));
        assert!(matches!(
            client.try_recv(),
            Some(Ok(ServerMessage::Shutdown))
        ));
        assert!(matches!(
            client.try_recv(),
            Some(Ok(ServerMessage::Assignment { slot: 2, .. }))
        ));
        assert_eq!(server.frames_dropped(), 1);
    }

    #[test]
    fn stall_is_reported_at_capacity() {
        let (mut server, _client) = loopback(2);
        assert!(!server.is_stalled());
        server.send(&ServerMessage::Shutdown);
        server.send(&ServerMessage::Shutdown);
        assert!(server.is_stalled());
    }

    #[test]
    fn closed_transport_rejects_sends() {
        let (mut server, mut client) = loopback(4);
        server.close();
        assert!(client.is_closed());
        assert_eq!(client.send(&ClientMessage::Bye), SendStatus::Closed);
        assert_eq!(server.send(&ServerMessage::Shutdown), SendStatus::Closed);
    }

    #[test]
    fn producer_consumer_stress_loses_no_frame() {
        const FRAMES: u64 = 100_000;
        let queue = Queue::new(64);
        // A cheap deterministic coin for "yield here": both sides drift in
        // and out of phase, so pushes land before, during and after the
        // consumer finds the queue empty.
        let coin = |state: &mut u64| {
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *state >> 61 == 0
        };
        std::thread::scope(|scope| {
            let consumer = scope.spawn(|| {
                let (mut next, mut rng) = (0u64, 1u64);
                loop {
                    // Looked at before the pop: every push before `close`
                    // is then visible to it.
                    let closed = queue.is_closed();
                    match queue.pop_with(|frame| u64::from_le_bytes(frame.try_into().unwrap())) {
                        Some(seq) => {
                            assert_eq!(seq, next);
                            next += 1;
                        }
                        None if closed => return next,
                        None => std::thread::yield_now(),
                    }
                    if coin(&mut rng) {
                        std::thread::yield_now();
                    }
                }
            });
            let mut rng = 2u64;
            for seq in 0..FRAMES {
                // Never fill the queue: the drop-oldest policy is not
                // under test here.
                while queue.len() >= queue.capacity {
                    std::thread::yield_now();
                }
                assert_eq!(
                    queue.push_with(|buf| buf.extend_from_slice(&seq.to_le_bytes())),
                    SendStatus::Sent
                );
                if coin(&mut rng) {
                    std::thread::yield_now();
                }
            }
            queue.close();
            // A lost frame breaks the consumer's sequence check or its
            // count.
            assert_eq!(consumer.join().unwrap(), FRAMES);
        });
        assert_eq!(queue.dropped(), 0);
    }

    /// The frame queues this crate had before [`FrameRing`] — one
    /// `Vec<u8>` per frame in a `VecDeque`, bounded by `push_bounded`,
    /// with the readiness transport's unframed `in_buf` and staged
    /// `out_buf` + cursor beside it — kept as the oracle the ring is
    /// checked against.
    struct OracleQueue {
        frames: VecDeque<Vec<u8>>,
        in_buf: Vec<u8>,
        out_buf: Vec<u8>,
        out_cursor: usize,
        capacity: usize,
        dropped: u64,
    }

    fn push_bounded(queue: &mut VecDeque<Vec<u8>>, capacity: usize, frame: Vec<u8>) -> usize {
        let mut dropped = 0usize;
        while queue.len() >= capacity {
            let victim = queue
                .iter()
                .position(|f| f.first().is_some_and(|&t| tag::superseded_next_slot(t)))
                .unwrap_or(0);
            queue.remove(victim);
            dropped += 1;
        }
        queue.push_back(frame);
        dropped
    }

    impl OracleQueue {
        fn new(capacity: usize) -> Self {
            OracleQueue {
                frames: VecDeque::new(),
                in_buf: Vec::new(),
                out_buf: Vec::new(),
                out_cursor: 0,
                capacity,
                dropped: 0,
            }
        }

        fn push(&mut self, frame: Vec<u8>) -> usize {
            let dropped = push_bounded(&mut self.frames, self.capacity, frame);
            self.dropped += dropped as u64;
            dropped
        }

        /// The old `NbConn::extract_frames`, run on `in_buf` + `bytes`.
        fn extend_wire(&mut self, bytes: &[u8]) -> bool {
            self.in_buf.extend_from_slice(bytes);
            let mut consumed = 0usize;
            while self.in_buf.len() - consumed >= 4 {
                let header: [u8; 4] = self.in_buf[consumed..consumed + 4].try_into().unwrap();
                let len = u32::from_le_bytes(header) as usize;
                if len > MAX_FRAME_BYTES {
                    self.frames.push_back(Vec::new());
                    self.in_buf.clear();
                    return false;
                }
                if self.in_buf.len() - consumed < 4 + len {
                    break;
                }
                let frame = self.in_buf[consumed + 4..consumed + 4 + len].to_vec();
                consumed += 4 + len;
                self.push(frame);
            }
            self.in_buf.drain(..consumed);
            true
        }

        /// The old `NbConn::poll_write` against a socket that takes `n`
        /// more bytes and then would block, with one difference: the
        /// socket is asked before the next frame is staged. Staging first
        /// took a frame no byte of which had been written out of the
        /// policy's reach whenever a write blocked exactly on a frame
        /// boundary; the ring pins a frame only for bytes on the wire.
        fn write(&mut self, mut n: usize, wire: &mut Vec<u8>) {
            while n > 0 {
                if self.out_cursor >= self.out_buf.len() {
                    let Some(frame) = self.frames.pop_front() else {
                        break;
                    };
                    self.out_buf.clear();
                    self.out_buf
                        .extend_from_slice(&(frame.len() as u32).to_le_bytes());
                    self.out_buf.extend_from_slice(&frame);
                    self.out_cursor = 0;
                }
                let k = n.min(self.out_buf.len() - self.out_cursor);
                wire.extend_from_slice(&self.out_buf[self.out_cursor..self.out_cursor + k]);
                self.out_cursor += k;
                n -= k;
            }
        }

        fn depth(&self) -> usize {
            self.frames.len() + usize::from(self.out_cursor < self.out_buf.len())
        }

        fn is_stalled(&self) -> bool {
            self.frames.len() >= self.capacity
        }
    }

    /// Which producer and consumer a differential case drives.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Shape {
        /// `push_with` in, `pop_with` out: a loopback direction.
        PushPop,
        /// `extend_wire` in, `pop_with` out: a connection's inbound side.
        WirePop,
        /// `push_with` in, `wire`/`wrote` out: its outbound side.
        PushWire,
    }

    proptest! {
        #[test]
        fn the_ring_is_the_old_queue_kept_as_bytes(
            capacity in 1usize..=8,
            shape in 0u8..3,
            corrupt_after in 0usize..48,
            ops in prop::collection::vec((0u8..4, 0u8..=255, 0usize..48), 1..80),
        ) {
            let shape = [Shape::PushPop, Shape::WirePop, Shape::PushWire][shape as usize];
            let mut ring = FrameRing::new(capacity);
            let mut oracle = OracleQueue::new(capacity);
            // WirePop: bytes produced but not yet fed, so a frame's start
            // can wait in the ring across pops. PushWire: what each side
            // has put on the wire.
            let mut unfed: Vec<u8> = Vec::new();
            let (mut ring_wire, mut oracle_wire) = (Vec::new(), Vec::new());
            let (mut produced, mut framing_lost) = (0usize, false);
            for &(what, kind, n) in &ops {
                if what < 2 {
                    // Two in four frames superseded next slot, one a
                    // control frame, one empty; one in 32 as large as a
                    // frame may be.
                    let len = if kind >= 248 { MAX_FRAME_BYTES } else { n };
                    let mut payload = vec![produced as u8; len];
                    match (kind % 4, payload.first_mut()) {
                        (0, Some(first)) => *first = tag::POSE,
                        (1, Some(first)) => *first = tag::GROUP_ASSIGN,
                        (2, Some(first)) => *first = tag::ACK,
                        _ => payload.clear(),
                    }
                    produced += 1;
                    if shape != Shape::WirePop {
                        let dropped = ring.push_with(|buf| buf.extend_from_slice(&payload));
                        prop_assert_eq!(dropped, oracle.push(payload));
                    } else if !framing_lost {
                        if produced > corrupt_after {
                            let bad = (MAX_FRAME_BYTES + 1 + n) as u32;
                            unfed.extend_from_slice(&bad.to_le_bytes());
                            unfed.extend_from_slice(&payload[..payload.len().min(9)]);
                        } else {
                            write_frame(&mut unfed, &payload).unwrap();
                        }
                        // Feed all but the last few bytes, in chunks of a
                        // size that lands inside prefixes and payloads.
                        let feed = unfed.len() - (n % 6).min(unfed.len());
                        let chunk = if kind >= 128 { feed.max(1) } else { 1 + kind as usize % 7 };
                        for bytes in unfed[..feed].chunks(chunk) {
                            let ok = ring.extend_wire(bytes);
                            prop_assert_eq!(ok, oracle.extend_wire(bytes));
                            if !ok {
                                framing_lost = true;
                                break;
                            }
                        }
                        unfed.drain(..feed);
                    }
                } else if shape == Shape::PushWire {
                    let want = if kind >= 192 { n * 30_000 } else { n % 13 };
                    let take = want.min(ring.wire().len());
                    ring_wire.extend_from_slice(&ring.wire()[..take]);
                    ring.wrote(take);
                    let before = oracle_wire.len();
                    oracle.write(want, &mut oracle_wire);
                    prop_assert_eq!(&ring_wire[before..], &oracle_wire[before..]);
                } else {
                    for _ in 0..1 + n % 3 {
                        prop_assert_eq!(ring.pop_with(<[u8]>::to_vec), oracle.frames.pop_front());
                    }
                }
                prop_assert_eq!(ring.frames(), oracle.depth());
                prop_assert_eq!(ring.dropped(), oracle.dropped);
                prop_assert_eq!(ring.is_full(), oracle.is_stalled());
                if ring.frames() == 0 && oracle.in_buf.is_empty() {
                    prop_assert!(ring.buf.is_empty(), "drained, yet {} bytes kept", ring.buf.len());
                }
            }
            // Everything still queued comes out whole and in order.
            if shape == Shape::PushWire {
                ring_wire.extend_from_slice(ring.wire());
                ring.wrote(ring.wire().len());
                oracle.write(usize::MAX, &mut oracle_wire);
                prop_assert!(ring_wire == oracle_wire);
                let mut stream = std::io::Cursor::new(ring_wire);
                loop {
                    match read_frame(&mut stream) {
                        Ok(_) => {}
                        Err(FrameError::Closed) => break,
                        Err(e) => prop_assert!(false, "a torn frame reached the wire: {e}"),
                    }
                }
            } else {
                while let Some(frame) = oracle.frames.pop_front() {
                    prop_assert_eq!(ring.pop_with(<[u8]>::to_vec), Some(frame));
                }
                prop_assert_eq!(ring.pop_with(<[u8]>::to_vec), None);
            }
            prop_assert_eq!(ring.frames(), 0);
            // What is left is the start of a frame still arriving.
            prop_assert_eq!(&ring.buf[ring.head..], &oracle.in_buf[..]);
        }
    }

    #[test]
    fn a_ring_that_never_quite_drains_does_not_grow() {
        let mut ring = FrameRing::new(8);
        let frame = [tag::ACK; 60];
        ring.push_with(|buf| buf.extend_from_slice(&frame));
        for _ in 0..10_000 {
            ring.push_with(|buf| buf.extend_from_slice(&frame));
            assert_eq!(ring.pop_with(<[u8]>::len), Some(frame.len()));
            // One or two frames are live; consumed bytes never outweigh
            // them for longer than until the next push.
            assert!(ring.buf.len() <= 4 * (PREFIX + frame.len()));
        }
        assert_eq!(ring.frames(), 1);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn a_wire_split_at_any_byte_yields_the_same_frames() {
        let payloads: [&[u8]; 4] = [b"pose-ish", b"", b"x", &[tag::ACK; 300]];
        let mut wire = Vec::new();
        for payload in payloads {
            write_frame(&mut wire, payload).unwrap();
        }
        for split in 0..=wire.len() {
            let mut ring = FrameRing::new(8);
            assert!(ring.extend_wire(&wire[..split]));
            assert!(ring.extend_wire(&wire[split..]));
            for payload in payloads {
                assert_eq!(ring.pop_with(<[u8]>::to_vec).as_deref(), Some(payload));
            }
            assert_eq!(ring.pop_with(<[u8]>::to_vec), None, "split at {split}");
            assert!(ring.buf.is_empty());
        }
    }
}
