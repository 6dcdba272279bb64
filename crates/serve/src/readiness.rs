//! Readiness-driven, std-only connection servicing: non-blocking sockets
//! pumped from the slot loop that owns them. This is the only TCP
//! transport, both ends: an `NbConn` is one socket and its two frame
//! rings, whichever side of the connection it sits on.
//!
//! A reader and a writer thread per connection would cost two OS threads
//! per client — fatal for hundreds of clients per shard. Here a
//! [`Poller`] owns every connection a shard services and pumps them all
//! from the shard's own tick loop: each [`Poller::poll`] reads what every
//! socket holds (up to a per-poll budget) and flushes pending writes
//! until `WouldBlock`, so one wakeup per slot services the whole shard.
//! std has no portable readiness API, but the slot loop *is* a readiness
//! schedule: the server only cares about socket state once per 15 ms
//! tick, so polling at tick cadence is equivalent to epoll with a 15 ms
//! timer — without leaving std. The replay client's
//! [`NbClientTransport`] owns its one connection outright and services it
//! from its own slot loop: a send flushes at once, and a receive that
//! finds nothing queued polls the socket first.
//!
//! Each direction of a connection is one `FrameRing`: socket bytes are
//! appended to the inbound ring as they arrive and decoded where they
//! lie; an outgoing message is encoded straight into the outbound ring
//! and one `write` flushes every pending frame. Backpressure is the
//! ring's, so it matches the loopback transport: bounded in both
//! directions with the drop-oldest-superseded policy (per-slot frames
//! sacrificed first), stall reporting when the outbound path saturates,
//! and a part-written frame pinned so peer framing is never corrupted.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};

use crate::protocol::{ClientMessage, ServerMessage, WireError};
use crate::transport::{ClientTransport, FrameRing, SendStatus, ServerTransport};

/// Read chunk size per `read` call; connections carry small frames at
/// slot cadence, so one page is plenty.
const READ_CHUNK: usize = 4096;

/// Most bytes one connection may hand its owner in one poll. A peer that
/// writes as fast as the loop reads would otherwise hold the shard
/// thread — every session's slot deadline — for as long as it liked.
/// What is left waits in the kernel's receive buffer, where TCP flow
/// control pushes back on the sender.
const READ_BUDGET: usize = 16 * READ_CHUNK;

/// I/O state of one non-blocking framed connection, either end.
struct NbConn {
    stream: TcpStream,
    /// Socket bytes in, complete frames out to the owner.
    inbound: FrameRing,
    /// Encoded frames in, wire bytes out to the socket.
    outbound: FrameRing,
    closed: bool,
    /// The last write hit `WouldBlock`: the peer's receive window is full.
    write_blocked: bool,
}

impl NbConn {
    fn new(stream: TcpStream, capacity: usize) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(NbConn {
            stream,
            inbound: FrameRing::new(capacity),
            outbound: FrameRing::new(capacity),
            closed: false,
            write_blocked: false,
        })
    }

    /// Services the connection once: moves the socket's readable bytes
    /// into the inbound ring, then flushes the outbound ring until the
    /// socket would block.
    fn poll(&mut self) {
        if self.closed {
            return;
        }
        self.poll_read();
        self.poll_write();
    }

    /// Reads until the socket is drained or [`READ_BUDGET`] is spent. A
    /// read that returns less than it asked for has drained a stream
    /// socket (epoll(7)), so the `WouldBlock` call that would confirm it
    /// is skipped; a peer's close behind its last bytes is then seen by
    /// the next poll. A corrupt length prefix surfaces as an undecodable
    /// (empty) frame to the consumer and kills the connection.
    fn poll_read(&mut self) {
        let mut chunk = [0u8; READ_CHUNK];
        for _ in 0..READ_BUDGET / READ_CHUNK {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.closed = true;
                    break;
                }
                Ok(n) => {
                    if !self.inbound.extend_wire(&chunk[..n]) {
                        self.closed = true;
                        break;
                    }
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => {
                    self.closed = true;
                    break;
                }
            }
        }
    }

    fn poll_write(&mut self) {
        while !self.outbound.wire().is_empty() {
            match self.stream.write(self.outbound.wire()) {
                Ok(0) => {
                    self.closed = true;
                    break;
                }
                Ok(n) => {
                    self.outbound.wrote(n);
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

    fn send(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> SendStatus {
        if self.closed {
            return SendStatus::Closed;
        }
        SendStatus::queued(self.outbound.push_with(encode))
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
/// [`crate::server::Session::add_connection`]. The connection's mutex is
/// uncontended in steady state: the poller and the session run on the
/// same shard thread.
pub struct NbServerTransport {
    conn: Arc<Mutex<NbConn>>,
}

impl ServerTransport for NbServerTransport {
    fn try_recv(&mut self) -> Option<Result<ClientMessage, WireError>> {
        let mut conn = self.conn.lock().expect("nb conn poisoned");
        conn.inbound.pop_with(ClientMessage::decode)
    }

    fn send(&mut self, message: &ServerMessage) -> SendStatus {
        let mut conn = self.conn.lock().expect("nb conn poisoned");
        conn.send(|buf| message.encode(buf))
    }

    fn send_payload(&mut self, payload: &[u8]) -> SendStatus {
        let mut conn = self.conn.lock().expect("nb conn poisoned");
        conn.send(|buf| buf.extend_from_slice(payload))
    }

    fn queue_depth(&self) -> usize {
        self.conn
            .lock()
            .expect("nb conn poisoned")
            .outbound
            .frames()
    }

    fn queue_capacity(&self) -> usize {
        let conn = self.conn.lock().expect("nb conn poisoned");
        conn.outbound.capacity()
    }

    fn is_closed(&self) -> bool {
        self.conn.lock().expect("nb conn poisoned").closed
    }

    fn is_stalled(&self) -> bool {
        let conn = self.conn.lock().expect("nb conn poisoned");
        conn.write_blocked || conn.outbound.is_full()
    }

    fn frames_dropped(&self) -> u64 {
        let conn = self.conn.lock().expect("nb conn poisoned");
        conn.inbound.dropped() + conn.outbound.dropped()
    }

    fn close(&mut self) {
        self.conn.lock().expect("nb conn poisoned").close();
    }
}

/// Client-side TCP transport: one non-blocking connection, serviced by
/// whoever drives the client — no threads of its own, so one thread can
/// drive any number of clients.
pub struct NbClientTransport {
    conn: NbConn,
}

impl NbClientTransport {
    /// Wraps a connected stream with `capacity`-frame queues in each
    /// direction.
    ///
    /// # Errors
    ///
    /// Propagates socket configuration failures.
    pub fn new(stream: TcpStream, capacity: usize) -> std::io::Result<Self> {
        Ok(NbClientTransport {
            conn: NbConn::new(stream, capacity)?,
        })
    }
}

impl ClientTransport for NbClientTransport {
    fn try_recv(&mut self) -> Option<Result<ServerMessage, WireError>> {
        if self.conn.inbound.frames() == 0 {
            self.conn.poll();
        }
        self.conn.inbound.pop_with(ServerMessage::decode)
    }

    fn send(&mut self, message: &ClientMessage) -> SendStatus {
        let status = self.conn.send(|buf| message.encode(buf));
        // Flushed now: a pose left in the ring would wait a slot.
        self.conn.poll_write();
        status
    }

    fn is_closed(&self) -> bool {
        self.conn.closed
    }

    fn close(&mut self) {
        self.conn.close();
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
        let conn = Arc::new(Mutex::new(NbConn::new(stream, capacity)?));
        self.conns.push(Arc::clone(&conn));
        Ok(NbServerTransport { conn })
    }

    /// Services every registered connection once (read what the socket
    /// holds, up to the per-poll budget, then flush writes until
    /// would-block) and forgets connections that are closed with nothing
    /// left to read.
    pub fn poll(&mut self) {
        self.conns.retain(|conn| {
            let mut conn = conn.lock().expect("nb conn poisoned");
            conn.poll();
            !(conn.closed && conn.inbound.frames() == 0)
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
    use crate::protocol::{read_frame, write_frame, FrameError, MAX_FRAME_BYTES, PROTOCOL_VERSION};
    use cvr_motion::pose::Pose;
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    fn pair(capacity: usize) -> (Poller, NbServerTransport, NbClientTransport) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client_stream = TcpStream::connect(addr).expect("connect");
        let (server_stream, _) = listener.accept().expect("accept");
        let mut poller = Poller::new();
        let server = poller.register(server_stream, capacity).expect("register");
        let client = NbClientTransport::new(client_stream, capacity).expect("client");
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
    fn tcp_round_trip_and_clean_close() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let stream = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let mut client = NbClientTransport::new(stream, 16).expect("client");
        let (mut peer, _) = listener.accept().expect("accept");

        // A send is on the wire without any poll.
        client.send(&ClientMessage::Pose {
            seq: 9,
            pose: Pose::default(),
        });
        let got = ClientMessage::decode(&read_frame(&mut peer).expect("frame"));
        assert!(matches!(got, Ok(ClientMessage::Pose { seq: 9, .. })));

        let welcome = ServerMessage::Welcome {
            version: PROTOCOL_VERSION,
            user_id: 0,
            slot_us: 15_000,
            levels: 6,
        };
        write_frame(&mut peer, &welcome.to_payload()).expect("welcome");
        let deadline = Instant::now() + Duration::from_secs(5);
        let reply = loop {
            if let Some(msg) = client.try_recv() {
                break msg;
            }
            assert!(Instant::now() < deadline, "timed out");
            std::thread::sleep(Duration::from_millis(1));
        };
        assert!(matches!(
            reply,
            Ok(ServerMessage::Welcome { user_id: 0, .. })
        ));

        client.close();
        assert!(client.is_closed());
        assert!(matches!(read_frame(&mut peer), Err(FrameError::Closed)));
    }

    #[test]
    fn a_client_outrunning_a_stopped_server_drops_whole_poses_only() {
        let (mut poller, mut server, mut client) = pair(64);
        let pose = |seq| ClientMessage::Pose {
            seq,
            pose: Pose::default(),
        };
        // The server stops polling: once the kernel's buffers are full,
        // the client's own 64-frame ring fills and drops its oldest pose.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut seq = 0u64;
        while !matches!(client.send(&pose(seq)), SendStatus::DroppedOldest(_)) {
            assert!(
                Instant::now() < deadline,
                "the client ring never overflowed"
            );
            seq += 1;
        }
        let newest = seq + 1;
        assert_eq!(client.send(&pose(newest)), SendStatus::DroppedOldest(1));

        // Polling resumes. Whatever arrives decodes (a frame whose first
        // bytes were on the wire was never dropped), in order, and the
        // newest pose gets through.
        let (mut last, mut arrived) = (None, 0u64);
        poll_until(&mut poller, || {
            let _ = client.try_recv();
            while let Some(message) = server.try_recv() {
                let Ok(ClientMessage::Pose { seq, .. }) = message else {
                    panic!("a torn or foreign frame arrived: {message:?}");
                };
                assert!(last.is_none_or(|last| seq > last), "{seq} after {last:?}");
                last = Some(seq);
                arrived += 1;
            }
            last == Some(newest)
        });
        assert!(arrived > 64, "only {arrived} poses arrived");
        assert!(!server.is_closed());
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

    /// Spins until `stream` — a clone of a registered socket, so already
    /// non-blocking — has at least `want` bytes queued in the kernel.
    fn until_queued(stream: &TcpStream, want: usize) {
        let mut scratch = vec![0u8; want];
        let deadline = Instant::now() + Duration::from_secs(5);
        while stream.peek(&mut scratch).unwrap_or(0) < want {
            assert!(Instant::now() < deadline, "timed out waiting for bytes");
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_flooding_peer_spends_its_own_budget_not_the_shard() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut poller = Poller::new();

        let flooder = TcpStream::connect(addr).expect("connect");
        let (flooded, _) = listener.accept().expect("accept");
        let flooded_socket = flooded.try_clone().expect("clone");
        let mut flooded = poller.register(flooded, 64).expect("register");

        let honest_stream = TcpStream::connect(addr).expect("connect");
        let (honest, _) = listener.accept().expect("accept");
        let honest_socket = honest.try_clone().expect("clone");
        let mut honest = poller.register(honest, 64).expect("register");
        let mut client = NbClientTransport::new(honest_stream, 64).expect("client");

        // Valid frames, as fast as the socket takes them, for the whole test.
        let sample = ClientMessage::BandwidthSample { mbps: 50.0 }.to_payload();
        let frame_bytes = 4 + sample.len();
        let mut block = Vec::new();
        for _ in 0..512 {
            crate::protocol::write_frame(&mut block, &sample).expect("frame");
        }
        let mut flood = flooder.try_clone().expect("clone");
        let writer = std::thread::spawn(move || while flood.write_all(&block).is_ok() {});

        let budget_frames = READ_BUDGET / frame_bytes;
        let mut flood_frames = 0;
        for seq in 0..20u64 {
            client.send(&ClientMessage::Pose {
                seq,
                pose: Pose::default(),
            });
            // The pose is in the kernel before the poll, and so is some of
            // the flood; the writer keeps refilling the socket while the
            // poll reads it. (How much a socket holds at once is the
            // kernel's business: on loopback the receive window reopens
            // only once the reader has made a segment's worth of room.)
            until_queued(&honest_socket, 4 + 57);
            until_queued(&flooded_socket, 1);
            let dropped_before = flooded.frames_dropped();
            poller.poll();

            // The flooder was read to its budget at most; all but the 64
            // frames its queue holds were dropped, and counted.
            let mut taken = (flooded.frames_dropped() - dropped_before) as usize;
            while let Some(message) = flooded.try_recv() {
                assert!(matches!(message, Ok(ClientMessage::BandwidthSample { .. })));
                taken += 1;
            }
            assert!(
                taken <= budget_frames + 1,
                "one poll took {taken} frames, the budget is {budget_frames}"
            );
            flood_frames += taken;
            // The same poll served the neighbour.
            assert!(matches!(
                honest.try_recv(),
                Some(Ok(ClientMessage::Pose { seq: got, .. })) if got == seq
            ));
        }
        // More arrived than one poll may take, so the budget did bound it.
        assert!(
            flood_frames > 2 * budget_frames,
            "only {flood_frames} frames"
        );
        assert!(flooded.frames_dropped() as usize >= flood_frames - 20 * 64);
        assert_eq!(honest.frames_dropped(), 0);

        flooder
            .shutdown(std::net::Shutdown::Both)
            .expect("shutdown");
        writer.join().expect("flood writer");
    }
}
