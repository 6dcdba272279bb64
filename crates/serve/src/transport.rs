//! Pluggable message transports between the session runtime and its
//! clients.
//!
//! The server side has two implementations of [`ServerTransport`]:
//! [`loopback`] here and the readiness-polled TCP transport in
//! [`crate::readiness`]. The client side has two of [`ClientTransport`]:
//!
//! * [`loopback`] — an in-process pair of bounded byte queues. Messages
//!   still pass through the full wire codec, so the loopback exercises
//!   the exact bytes TCP would carry, but with no threads, sockets, or
//!   timing — the substrate for deterministic lockstep tests.
//! * [`TcpClientTransport`] — a real `std::net::TcpStream` with a reader
//!   thread and a writer thread, so a slow or dead server can never
//!   block the replay client's slot loop.
//!
//! Both directions apply backpressure with a bounded outbound queue and
//! a *drop-oldest-droppable* policy: when the queue is full, the oldest
//! per-slot frame (an `Assignment` downstream, a `Pose` upstream) is
//! discarded first, because the next slot supersedes it anyway. Control
//! frames (`Hello`/`Welcome`/`Ack`/…) are only dropped when nothing
//! droppable remains. A transport whose queue is pinned at capacity
//! reports itself *stalled*; the session reacts by degrading that user
//! to the lowest quality rather than letting one slow client stall the
//! slot deadline for everyone.
//!
//! Both transports share one queue type. A push signals the condition
//! variable only when a consumer is parked in `pop_wait` — in practice the
//! TCP client's writer thread — so a loopback frame makes no system call.

use std::collections::VecDeque;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::protocol::{read_frame, tag, ClientMessage, FrameError, ServerMessage, WireError};

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

/// One direction's bounded frame queue, shared between the producing and
/// consuming ends (and, for TCP, their I/O threads).
struct Queue {
    state: Mutex<QueueState>,
    ready: Condvar,
    capacity: usize,
    /// Frames starting with this tag byte are sacrificed first when the
    /// queue is full (the next slot's frame supersedes them).
    droppable_tag: u8,
}

struct QueueState {
    frames: VecDeque<Vec<u8>>,
    closed: bool,
    dropped: u64,
    /// Threads parked in [`Queue::pop_wait`] right now.
    parked: usize,
    /// `notify_one` calls [`Queue::push`] has issued (read by tests only).
    wakes: u64,
}

impl Queue {
    fn new(capacity: usize, droppable_tag: u8) -> Arc<Queue> {
        assert!(capacity > 0, "queue capacity must be positive");
        Arc::new(Queue {
            state: Mutex::new(QueueState {
                frames: VecDeque::with_capacity(capacity),
                closed: false,
                dropped: 0,
                parked: 0,
                wakes: 0,
            }),
            ready: Condvar::new(),
            capacity,
            droppable_tag,
        })
    }

    /// Queues a frame, discarding older frames under the drop-oldest
    /// policy if the queue is full.
    fn push(&self, frame: Vec<u8>) -> SendStatus {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.closed {
            return SendStatus::Closed;
        }
        let mut dropped = 0usize;
        while state.frames.len() >= self.capacity {
            let victim = state
                .frames
                .iter()
                .position(|f| f.first() == Some(&self.droppable_tag))
                .unwrap_or(0);
            state.frames.remove(victim);
            state.dropped += 1;
            dropped += 1;
        }
        state.frames.push_back(frame);
        // Only a parked consumer needs the wake-up (a system call); it
        // registered under this lock, so it is counted here or has yet to
        // look at `frames` and will find this one.
        let wake = state.parked > 0;
        state.wakes += u64::from(wake);
        drop(state);
        if wake {
            self.ready.notify_one();
        }
        if dropped == 0 {
            SendStatus::Sent
        } else {
            SendStatus::DroppedOldest(dropped)
        }
    }

    /// Pops the next frame without blocking.
    fn pop(&self) -> Option<Vec<u8>> {
        self.state
            .lock()
            .expect("queue poisoned")
            .frames
            .pop_front()
    }

    /// Blocks until a frame arrives or the queue closes. Pending frames
    /// are drained even after closure; `None` means closed and empty —
    /// an idle queue waits indefinitely rather than giving up.
    fn pop_wait(&self) -> Option<Vec<u8>> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(frame) = state.frames.pop_front() {
                return Some(frame);
            }
            if state.closed {
                return None;
            }
            state.parked += 1;
            state = self.ready.wait(state).expect("queue poisoned");
            state.parked -= 1;
        }
    }

    fn len(&self) -> usize {
        self.state.lock().expect("queue poisoned").frames.len()
    }

    fn dropped(&self) -> u64 {
        self.state.lock().expect("queue poisoned").dropped
    }

    fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.ready.notify_all();
    }

    fn is_closed(&self) -> bool {
        self.state.lock().expect("queue poisoned").closed
    }
}

/// Creates a connected in-process transport pair with bounded queues of
/// `capacity` frames in each direction.
pub fn loopback(capacity: usize) -> (LoopbackServerEnd, LoopbackClientEnd) {
    let upstream = Queue::new(capacity, tag::POSE);
    let downstream = Queue::new(capacity, tag::ASSIGNMENT);
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
        self.inbound.pop().map(|f| ClientMessage::decode(&f))
    }

    fn send(&mut self, message: &ServerMessage) -> SendStatus {
        self.outbound.push(message.to_payload())
    }

    fn send_payload(&mut self, payload: &[u8]) -> SendStatus {
        self.outbound.push(payload.to_vec())
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
        self.inbound.pop().map(|f| ServerMessage::decode(&f))
    }

    fn send(&mut self, message: &ClientMessage) -> SendStatus {
        self.outbound.push(message.to_payload())
    }

    fn is_closed(&self) -> bool {
        self.outbound.is_closed()
    }

    fn close(&mut self) {
        self.inbound.close();
        self.outbound.close();
    }
}

/// How long the TCP writer thread lets one `write` call stall before
/// retrying it.
pub const WRITE_STALL_TIMEOUT: Duration = Duration::from_millis(250);

/// Client-side TCP transport: a framed `TcpStream` with dedicated reader
/// and writer threads and bounded queues in both directions.
pub struct TcpClientTransport {
    inbound: Arc<Queue>,
    outbound: Arc<Queue>,
    stream: TcpStream,
    reader: Option<std::thread::JoinHandle<()>>,
    writer: Option<std::thread::JoinHandle<()>>,
}

impl TcpClientTransport {
    /// Wraps a connected stream, spawning its reader and writer threads.
    ///
    /// # Errors
    ///
    /// Propagates socket configuration failures.
    pub fn new(stream: TcpStream, capacity: usize) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(WRITE_STALL_TIMEOUT))?;
        let inbound = Queue::new(capacity, tag::ASSIGNMENT);
        let outbound = Queue::new(capacity, tag::POSE);

        let reader = {
            let mut stream = stream.try_clone()?;
            let inbound = Arc::clone(&inbound);
            let outbound = Arc::clone(&outbound);
            std::thread::spawn(move || {
                loop {
                    match read_frame(&mut stream) {
                        Ok(frame) => {
                            if inbound.push(frame) == SendStatus::Closed {
                                break;
                            }
                        }
                        Err(FrameError::Closed) => break,
                        Err(_) => {
                            // A corrupt length prefix or mid-frame I/O error:
                            // signal it to the consumer as an undecodable
                            // frame, then stop reading.
                            let _ = inbound.push(Vec::new());
                            break;
                        }
                    }
                }
                // No more input will arrive; wake the consumer side so a
                // blocked writer or poller notices promptly.
                inbound.close();
                outbound.close();
            })
        };

        let writer = {
            let mut stream = stream.try_clone()?;
            let outbound = Arc::clone(&outbound);
            std::thread::spawn(move || {
                // Prefix and payload live in one buffer with a cursor so a
                // timed-out write resumes at the exact byte it stalled on —
                // a frame must never be resent from byte 0 once part of it
                // is on the wire, or the peer's framing is corrupted.
                let mut buf: Vec<u8> = Vec::new();
                'drain: while let Some(frame) = outbound.pop_wait() {
                    buf.clear();
                    buf.extend_from_slice(&(frame.len() as u32).to_le_bytes());
                    buf.extend_from_slice(&frame);
                    let mut written = 0usize;
                    while written < buf.len() {
                        match stream.write(&buf[written..]) {
                            Ok(0) => break 'drain,
                            Ok(n) => written += n,
                            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                            Err(e)
                                if e.kind() == std::io::ErrorKind::WouldBlock
                                    || e.kind() == std::io::ErrorKind::TimedOut =>
                            {
                                // Mid-frame we must keep pushing even while
                                // closing; the socket shutdown will surface a
                                // hard error if the peer is truly gone.
                                if outbound.is_closed() && written == 0 {
                                    break 'drain;
                                }
                            }
                            Err(_) => break 'drain,
                        }
                    }
                    let _ = stream.flush();
                }
                outbound.close();
            })
        };

        Ok(TcpClientTransport {
            inbound,
            outbound,
            stream,
            reader: Some(reader),
            writer: Some(writer),
        })
    }
}

impl Drop for TcpClientTransport {
    fn drop(&mut self) {
        self.close();
        if let Some(handle) = self.reader.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.writer.take() {
            let _ = handle.join();
        }
    }
}

impl ClientTransport for TcpClientTransport {
    fn try_recv(&mut self) -> Option<Result<ServerMessage, WireError>> {
        self.inbound.pop().map(|f| ServerMessage::decode(&f))
    }

    fn send(&mut self, message: &ClientMessage) -> SendStatus {
        self.outbound.push(message.to_payload())
    }

    fn is_closed(&self) -> bool {
        self.outbound.is_closed()
    }

    fn close(&mut self) {
        self.inbound.close();
        self.outbound.close();
        // Unblocks the reader thread's blocking read.
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::write_frame;
    use cvr_motion::pose::Pose;

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

    fn wakes(queue: &Queue) -> u64 {
        queue.state.lock().unwrap().wakes
    }

    /// Spins (yielding) until a consumer is parked in `pop_wait`.
    fn until_parked(queue: &Queue) {
        while queue.state.lock().unwrap().parked == 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn pushes_with_nobody_parked_issue_no_wake() {
        let (mut server, mut client) = loopback(2_000);
        for seq in 0..1_000 {
            let pose = Pose::default();
            assert_eq!(
                client.send(&ClientMessage::Pose { seq, pose }),
                SendStatus::Sent
            );
            assert_eq!(server.send(&ServerMessage::Shutdown), SendStatus::Sent);
        }
        assert_eq!(wakes(&client.outbound), 0);
        assert_eq!(wakes(&server.outbound), 0);
        assert!(matches!(
            server.try_recv(),
            Some(Ok(ClientMessage::Pose { seq: 0, .. }))
        ));
    }

    #[test]
    fn a_parked_consumer_is_woken_by_the_next_push_and_by_close() {
        let queue = Queue::new(4, tag::POSE);
        std::thread::scope(|scope| {
            let consumer = scope.spawn(|| {
                let first = queue.pop_wait();
                let second = queue.pop_wait();
                (first, second)
            });
            until_parked(&queue);
            assert_eq!(queue.push(vec![7]), SendStatus::Sent);
            assert_eq!(wakes(&queue), 1);
            // Parked again, this time with nothing coming: only `close`
            // can end the wait.
            until_parked(&queue);
            queue.close();
            assert_eq!(consumer.join().unwrap(), (Some(vec![7]), None));
        });
        assert_eq!(wakes(&queue), 1, "close wakes everyone, push counted one");
        assert_eq!(queue.state.lock().unwrap().parked, 0);
    }

    #[test]
    fn producer_consumer_stress_loses_no_frame_and_no_wakeup() {
        const FRAMES: u64 = 100_000;
        let queue = Queue::new(64, tag::POSE);
        // A cheap deterministic coin for "yield here": both sides drift in
        // and out of phase, so pushes land before, during and after the
        // consumer parks.
        let coin = |state: &mut u64| {
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *state >> 61 == 0
        };
        std::thread::scope(|scope| {
            let consumer = scope.spawn(|| {
                let (mut next, mut rng) = (0u64, 1u64);
                while let Some(frame) = queue.pop_wait() {
                    assert_eq!(frame, next.to_le_bytes());
                    next += 1;
                    if coin(&mut rng) {
                        std::thread::yield_now();
                    }
                }
                next
            });
            let mut rng = 2u64;
            for seq in 0..FRAMES {
                // Never fill the queue: the drop-oldest policy is not
                // under test here.
                while queue.len() >= queue.capacity {
                    std::thread::yield_now();
                }
                assert_eq!(queue.push(seq.to_le_bytes().to_vec()), SendStatus::Sent);
                if coin(&mut rng) {
                    std::thread::yield_now();
                }
            }
            queue.close();
            // A lost wakeup would leave the consumer parked and this join
            // hanging; a lost frame breaks its sequence check.
            assert_eq!(consumer.join().unwrap(), FRAMES);
        });
        assert_eq!(queue.dropped(), 0);
    }

    /// A connected [`TcpClientTransport`] plus the raw accepted stream
    /// standing in for the server.
    fn tcp_pair() -> (TcpClientTransport, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let client = TcpClientTransport::new(stream, 16).unwrap();
        let (peer, _) = listener.accept().unwrap();
        (client, peer)
    }

    fn recv_within_5s(client: &mut TcpClientTransport) -> Result<ServerMessage, WireError> {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if let Some(msg) = client.try_recv() {
                return msg;
            }
            assert!(std::time::Instant::now() < deadline, "timed out");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn idle_writer_does_not_close_the_connection() {
        let (mut client, mut peer) = tcp_pair();
        // Both directions stay silent well past the write-stall timeout;
        // the writer thread must keep waiting, not tear the link down.
        std::thread::sleep(WRITE_STALL_TIMEOUT + Duration::from_millis(150));
        assert!(!client.is_closed());
        write_frame(&mut peer, &ServerMessage::Shutdown.to_payload()).unwrap();
        assert!(matches!(
            recv_within_5s(&mut client),
            Ok(ServerMessage::Shutdown)
        ));
        client.close();
    }

    #[test]
    fn tcp_round_trip_and_clean_close() {
        let (mut client, mut peer) = tcp_pair();
        client.send(&ClientMessage::Pose {
            seq: 9,
            pose: Pose::default(),
        });
        let got = ClientMessage::decode(&read_frame(&mut peer).unwrap());
        assert!(matches!(got, Ok(ClientMessage::Pose { seq: 9, .. })));
        let welcome = ServerMessage::Welcome {
            version: 1,
            user_id: 0,
            slot_us: 15_000,
            levels: 6,
        };
        write_frame(&mut peer, &welcome.to_payload()).unwrap();
        assert!(matches!(
            recv_within_5s(&mut client),
            Ok(ServerMessage::Welcome { user_id: 0, .. })
        ));
        client.close();
        assert!(client.is_closed());
        assert!(matches!(read_frame(&mut peer), Err(FrameError::Closed)));
    }
}
