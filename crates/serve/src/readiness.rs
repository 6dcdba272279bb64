//! Readiness-driven, std-only connection servicing: non-blocking sockets
//! multiplexed by one poll loop per shard. This is the server's only TCP
//! transport.
//!
//! A reader and a writer thread per connection (what the replay client's
//! [`crate::transport::TcpClientTransport`] still does for its single
//! socket) would cost the server two OS threads per client — fatal for
//! hundreds of clients per shard. Here a [`Poller`] owns every connection
//! a shard services and pumps them all from the shard's own tick loop:
//! each [`Poller::poll`] reads every socket until `WouldBlock` (framing
//! bytes into decoded-message queues) and flushes pending writes until
//! `WouldBlock`, so one wakeup per slot services the whole shard. std has
//! no portable readiness API, but the slot loop *is* a readiness schedule:
//! the server only cares about socket state once per 15 ms tick, so
//! polling at tick cadence is equivalent to epoll with a 15 ms timer —
//! without leaving std.
//!
//! Backpressure matches the loopback transport: bounded frame
//! queues in both directions with the drop-oldest-droppable policy
//! (`Assignment` downstream, `Pose` upstream sacrificed first), stall
//! reporting when the outbound path saturates, and partial-frame writes
//! that resume at the exact stalled byte so peer framing is never
//! corrupted.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};

use crate::protocol::{tag, ClientMessage, ServerMessage, WireError, MAX_FRAME_BYTES};
use crate::transport::{SendStatus, ServerTransport};

/// Read chunk size per `read` call; connections carry small frames at
/// slot cadence, so one page is plenty.
const READ_CHUNK: usize = 4096;

/// Pushes a frame into a bounded queue under the drop-oldest-droppable
/// policy: frames whose first byte is `droppable` are sacrificed first
/// (the next slot's frame supersedes them); control frames only go when
/// nothing droppable remains. Returns how many frames were discarded.
fn push_bounded(
    queue: &mut VecDeque<Vec<u8>>,
    capacity: usize,
    droppable: u8,
    frame: Vec<u8>,
) -> usize {
    let mut dropped = 0usize;
    while queue.len() >= capacity {
        let victim = queue
            .iter()
            .position(|f| f.first() == Some(&droppable))
            .unwrap_or(0);
        queue.remove(victim);
        dropped += 1;
    }
    queue.push_back(frame);
    dropped
}

/// I/O state of one non-blocking framed connection, shared between the
/// session's transport handle and the shard's poller. The mutex is
/// uncontended in steady state: the poller and the session run on the
/// same shard thread.
struct NbConn {
    stream: TcpStream,
    /// Raw received bytes not yet framed.
    in_buf: Vec<u8>,
    /// Decoded-but-unread inbound frame payloads.
    inbound: VecDeque<Vec<u8>>,
    /// Outbound frame payloads not yet staged onto the wire.
    out_frames: VecDeque<Vec<u8>>,
    /// The frame currently on the wire (length prefix + payload) and the
    /// write cursor into it — a partially written frame resumes at the
    /// exact stalled byte.
    out_buf: Vec<u8>,
    out_cursor: usize,
    capacity: usize,
    /// Tag byte of inbound frames sacrificed first when `inbound` fills.
    drop_in: u8,
    /// Tag byte of outbound frames sacrificed first when `out_frames` fills.
    drop_out: u8,
    dropped: u64,
    closed: bool,
    /// The last write hit `WouldBlock`: the peer's receive window is full.
    write_blocked: bool,
}

impl NbConn {
    fn new(stream: TcpStream, capacity: usize, drop_in: u8, drop_out: u8) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(NbConn {
            stream,
            in_buf: Vec::new(),
            inbound: VecDeque::with_capacity(capacity),
            out_frames: VecDeque::with_capacity(capacity),
            out_buf: Vec::new(),
            out_cursor: 0,
            capacity,
            drop_in,
            drop_out,
            dropped: 0,
            closed: false,
            write_blocked: false,
        })
    }

    /// Services the connection once: drains the socket's readable bytes
    /// into decoded frames, then flushes pending writes until the socket
    /// would block.
    fn poll(&mut self) {
        if self.closed {
            return;
        }
        self.poll_read();
        self.poll_write();
    }

    fn poll_read(&mut self) {
        let mut buf = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.closed = true;
                    break;
                }
                Ok(n) => self.in_buf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => {
                    self.closed = true;
                    break;
                }
            }
        }
        self.extract_frames();
    }

    /// Splits `in_buf` into complete length-prefixed frames. A corrupt
    /// length prefix surfaces as an undecodable (empty) frame to the
    /// consumer — the same signal the threaded reader emits — and kills
    /// the connection.
    fn extract_frames(&mut self) {
        let mut consumed = 0usize;
        while self.in_buf.len() - consumed >= 4 {
            let header: [u8; 4] = self.in_buf[consumed..consumed + 4]
                .try_into()
                .expect("4-byte slice");
            let len = u32::from_le_bytes(header) as usize;
            if len > MAX_FRAME_BYTES {
                self.inbound.push_back(Vec::new());
                self.closed = true;
                self.in_buf.clear();
                return;
            }
            if self.in_buf.len() - consumed < 4 + len {
                break;
            }
            let frame = self.in_buf[consumed + 4..consumed + 4 + len].to_vec();
            consumed += 4 + len;
            // Inbound overflow drops oldest droppable (stale poses), like
            // the threaded transport's bounded inbound queue.
            push_bounded(&mut self.inbound, self.capacity, self.drop_in, frame);
        }
        if consumed > 0 {
            self.in_buf.drain(..consumed);
        }
    }

    fn poll_write(&mut self) {
        loop {
            if self.out_cursor >= self.out_buf.len() {
                let Some(frame) = self.out_frames.pop_front() else {
                    break;
                };
                self.out_buf.clear();
                self.out_buf
                    .extend_from_slice(&(frame.len() as u32).to_le_bytes());
                self.out_buf.extend_from_slice(&frame);
                self.out_cursor = 0;
            }
            match self.stream.write(&self.out_buf[self.out_cursor..]) {
                Ok(0) => {
                    self.closed = true;
                    break;
                }
                Ok(n) => {
                    self.out_cursor += n;
                    self.write_blocked = false;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.write_blocked = true;
                    break;
                }
                Err(_) => {
                    self.closed = true;
                    break;
                }
            }
        }
    }

    fn send(&mut self, payload: Vec<u8>) -> SendStatus {
        if self.closed {
            return SendStatus::Closed;
        }
        let dropped = push_bounded(&mut self.out_frames, self.capacity, self.drop_out, payload);
        self.dropped += dropped as u64;
        if dropped == 0 {
            SendStatus::Sent
        } else {
            SendStatus::DroppedOldest(dropped)
        }
    }

    fn close(&mut self) {
        if !self.closed {
            // Push out whatever fits before tearing the socket down.
            self.poll_write();
        }
        self.closed = true;
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// Server-side transport handle over a [`Poller`]-serviced non-blocking
/// connection. Created by [`Poller::register`]; hand it to
/// [`crate::server::Session::add_connection`].
pub struct NbServerTransport {
    conn: Arc<Mutex<NbConn>>,
}

impl ServerTransport for NbServerTransport {
    fn try_recv(&mut self) -> Option<Result<ClientMessage, WireError>> {
        let mut conn = self.conn.lock().expect("nb conn poisoned");
        conn.inbound.pop_front().map(|f| ClientMessage::decode(&f))
    }

    fn send(&mut self, message: &ServerMessage) -> SendStatus {
        let mut conn = self.conn.lock().expect("nb conn poisoned");
        conn.send(message.to_payload())
    }

    fn send_payload(&mut self, payload: &[u8]) -> SendStatus {
        let mut conn = self.conn.lock().expect("nb conn poisoned");
        conn.send(payload.to_vec())
    }

    fn queue_depth(&self) -> usize {
        let conn = self.conn.lock().expect("nb conn poisoned");
        conn.out_frames.len() + usize::from(conn.out_cursor < conn.out_buf.len())
    }

    fn queue_capacity(&self) -> usize {
        self.conn.lock().expect("nb conn poisoned").capacity
    }

    fn is_closed(&self) -> bool {
        self.conn.lock().expect("nb conn poisoned").closed
    }

    fn is_stalled(&self) -> bool {
        let conn = self.conn.lock().expect("nb conn poisoned");
        conn.write_blocked || conn.out_frames.len() >= conn.capacity
    }

    fn frames_dropped(&self) -> u64 {
        self.conn.lock().expect("nb conn poisoned").dropped
    }

    fn close(&mut self) {
        self.conn.lock().expect("nb conn poisoned").close();
    }
}

/// One shard's connection multiplexer: owns every non-blocking connection
/// the shard services and pumps them all in one pass per slot.
#[derive(Default)]
pub struct Poller {
    conns: Vec<Arc<Mutex<NbConn>>>,
}

impl Poller {
    /// Creates an empty poller.
    pub fn new() -> Self {
        Poller::default()
    }

    /// Takes ownership of an accepted stream: switches it to non-blocking
    /// mode, wraps it with `capacity`-frame queues in each direction, and
    /// returns the transport handle to give the session. The poller keeps
    /// servicing the connection until it closes.
    ///
    /// # Errors
    ///
    /// Propagates socket configuration failures.
    pub fn register(
        &mut self,
        stream: TcpStream,
        capacity: usize,
    ) -> std::io::Result<NbServerTransport> {
        let conn = Arc::new(Mutex::new(NbConn::new(
            stream,
            capacity,
            tag::POSE,
            tag::ASSIGNMENT,
        )?));
        self.conns.push(Arc::clone(&conn));
        Ok(NbServerTransport { conn })
    }

    /// Services every registered connection once (read until would-block,
    /// then flush writes until would-block) and forgets connections that
    /// are closed with nothing left to read.
    pub fn poll(&mut self) {
        self.conns.retain(|conn| {
            let mut conn = conn.lock().expect("nb conn poisoned");
            conn.poll();
            !(conn.closed && conn.inbound.is_empty())
        });
    }

    /// Connections currently serviced.
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// Whether no connections are registered.
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::PROTOCOL_VERSION;
    use crate::transport::{ClientTransport, TcpClientTransport};
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    fn pair(capacity: usize) -> (Poller, NbServerTransport, TcpClientTransport) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client_stream = TcpStream::connect(addr).expect("connect");
        let (server_stream, _) = listener.accept().expect("accept");
        let mut poller = Poller::new();
        let server = poller.register(server_stream, capacity).expect("register");
        let client = TcpClientTransport::new(client_stream, capacity).expect("client");
        (poller, server, client)
    }

    fn poll_until<F: FnMut() -> bool>(poller: &mut Poller, mut done: F) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done() {
            assert!(Instant::now() < deadline, "timed out polling");
            poller.poll();
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn round_trip_through_the_poll_loop() {
        let (mut poller, mut server, mut client) = pair(16);
        client.send(&ClientMessage::Hello {
            version: PROTOCOL_VERSION,
            seed: 5,
        });
        let mut got = None;
        poll_until(&mut poller, || {
            got = server.try_recv();
            got.is_some()
        });
        assert!(matches!(
            got,
            Some(Ok(ClientMessage::Hello { seed: 5, .. }))
        ));

        server.send(&ServerMessage::Shutdown);
        let deadline = Instant::now() + Duration::from_secs(5);
        let reply = loop {
            poller.poll();
            if let Some(msg) = client.try_recv() {
                break msg;
            }
            assert!(Instant::now() < deadline, "timed out");
            std::thread::sleep(Duration::from_millis(1));
        };
        assert!(matches!(reply, Ok(ServerMessage::Shutdown)));
    }

    #[test]
    fn frames_split_across_reads_are_reassembled() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.set_nodelay(true).expect("nodelay");
        let (server_stream, _) = listener.accept().expect("accept");
        let mut poller = Poller::new();
        let mut server = poller.register(server_stream, 16).expect("register");

        // Hand-frame a Bye and trickle it one byte at a time, polling
        // between bytes: the poller must buffer partial frames.
        let payload = ClientMessage::Bye.to_payload();
        let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&payload);
        for byte in &wire {
            raw.write_all(&[*byte]).expect("trickle");
            raw.flush().expect("flush");
            poller.poll();
        }
        let mut got = None;
        poll_until(&mut poller, || {
            got = server.try_recv();
            got.is_some()
        });
        assert!(matches!(got, Some(Ok(ClientMessage::Bye))));
    }

    #[test]
    fn oversized_length_prefix_is_a_protocol_error() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut raw = TcpStream::connect(addr).expect("connect");
        let (server_stream, _) = listener.accept().expect("accept");
        let mut poller = Poller::new();
        let mut server = poller.register(server_stream, 16).expect("register");

        raw.write_all(&((MAX_FRAME_BYTES as u32) + 1).to_le_bytes())
            .expect("corrupt prefix");
        raw.flush().expect("flush");
        let mut got = None;
        poll_until(&mut poller, || {
            got = server.try_recv();
            got.is_some()
        });
        assert!(matches!(got, Some(Err(_))), "corruption must surface");
        assert!(server.is_closed());
    }

    #[test]
    fn outbound_overflow_drops_oldest_assignment_first() {
        // Never poll: nothing reaches the wire, so the queue fills.
        let (_poller, mut server, _client) = pair(2);
        let assignment = |slot| ServerMessage::Assignment {
            slot,
            pose_seq: 0,
            quality: 1,
            rate_mbps: 1.0,
            manifest: vec![],
        };
        assert_eq!(server.send(&ServerMessage::Shutdown), SendStatus::Sent);
        assert_eq!(server.send(&assignment(1)), SendStatus::Sent);
        assert_eq!(server.send(&assignment(2)), SendStatus::DroppedOldest(1));
        assert_eq!(server.frames_dropped(), 1);
        assert!(server.is_stalled());
    }

    #[test]
    fn peer_close_is_noticed_and_connection_is_forgotten() {
        let (mut poller, server, client) = pair(8);
        assert_eq!(poller.len(), 1);
        drop(client);
        poll_until(&mut poller, || server.is_closed());
        poller.poll();
        assert!(poller.is_empty(), "closed drained connection lingers");
    }
}
