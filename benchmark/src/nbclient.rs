//! The benchmark's own client end of a real TCP connection: one
//! non-blocking socket per client, no reader or writer threads, so a
//! whole closed-loop TCP workload runs on a single thread against the
//! server's production `readiness::Poller` path.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use cvr_serve::protocol::{ClientMessage, ServerMessage, WireError, MAX_FRAME_BYTES};
use cvr_serve::transport::{ClientTransport, SendStatus};

/// Splits a byte stream into length-prefixed frames (little-endian `u32`
/// payload length, then the payload), however the bytes were chunked.
#[derive(Debug, Default)]
pub struct FrameReassembler {
    buf: Vec<u8>,
    /// Bytes of `buf` already handed out as frames.
    consumed: usize,
}

/// The peer announced a frame larger than the protocol allows.
#[derive(Debug, PartialEq, Eq)]
pub struct OversizedFrame(pub usize);

impl FrameReassembler {
    /// Appends freshly read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.consumed > 0 && self.consumed == self.buf.len() {
            self.buf.clear();
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete frame payload, or `Ok(None)` while the length
    /// prefix or the payload is still partial.
    ///
    /// # Errors
    ///
    /// A length prefix above [`MAX_FRAME_BYTES`] is corruption; the
    /// stream cannot be resynchronised after it.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, OversizedFrame> {
        let pending = &self.buf[self.consumed..];
        let Some(header) = pending.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*header) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(OversizedFrame(len));
        }
        if pending.len() < 4 + len {
            return Ok(None);
        }
        let start = self.consumed + 4;
        self.consumed = start + len;
        Ok(Some(&self.buf[start..start + len]))
    }
}

/// How long a closed-loop client waits for the frame answering its last
/// pose before giving that operation up as failed. Both ends run on one
/// thread, so a frame that is not in the socket after this long will
/// never arrive.
const REPLY_WAIT: Duration = Duration::from_millis(50);

/// A non-blocking, thread-free [`ClientTransport`] over a `TcpStream`.
///
/// It is a *closed-loop* client: after uploading a pose it does not
/// report "nothing to read" until the assignment planned against that
/// pose has arrived (or [`REPLY_WAIT`] has passed), so a round never
/// races the loopback interface.
pub struct NbClient {
    stream: TcpStream,
    frames: FrameReassembler,
    out: Vec<u8>,
    closed: bool,
    /// Pose sequence whose assignment has not arrived yet.
    awaiting: Option<u64>,
}

impl NbClient {
    /// Wraps a connected stream (`TCP_NODELAY`, non-blocking).
    ///
    /// # Errors
    ///
    /// Propagates socket configuration failures.
    pub fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(NbClient {
            stream,
            frames: FrameReassembler::default(),
            out: Vec::with_capacity(256),
            closed: false,
            awaiting: None,
        })
    }

    /// Reads whatever the socket holds. Returns `false` when it would
    /// block (or the connection died) without yielding new bytes.
    fn fill(&mut self) -> bool {
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.closed = true;
                    return false;
                }
                Ok(n) => {
                    self.frames.push(&chunk[..n]);
                    return true;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => return false,
                Err(_) => {
                    self.closed = true;
                    return false;
                }
            }
        }
    }
}

impl ClientTransport for NbClient {
    fn try_recv(&mut self) -> Option<Result<ServerMessage, WireError>> {
        let mut wait_until: Option<Instant> = None;
        loop {
            match self.frames.next_frame() {
                Ok(Some(payload)) => {
                    let decoded = ServerMessage::decode(payload);
                    match &decoded {
                        Ok(ServerMessage::Assignment { pose_seq, .. })
                            if self.awaiting.is_some_and(|seq| seq <= *pose_seq) =>
                        {
                            self.awaiting = None;
                        }
                        Ok(ServerMessage::GroupAssign { .. } | ServerMessage::Shutdown) => {
                            self.awaiting = None;
                        }
                        _ => {}
                    }
                    return Some(decoded);
                }
                Ok(None) => {}
                Err(OversizedFrame(_)) => {
                    self.closed = true;
                    return Some(Err(WireError::InvalidField("frame length")));
                }
            }
            if self.fill() {
                continue;
            }
            if self.closed || self.awaiting.is_none() {
                return None;
            }
            let deadline = *wait_until.get_or_insert_with(|| Instant::now() + REPLY_WAIT);
            if Instant::now() >= deadline {
                // The pose stays unanswered in the tap's latency table,
                // which is what counts it as a failed operation.
                self.awaiting = None;
                return None;
            }
            std::hint::spin_loop();
        }
    }

    fn send(&mut self, message: &ClientMessage) -> SendStatus {
        if self.closed {
            return SendStatus::Closed;
        }
        self.out.clear();
        self.out.extend_from_slice(&[0; 4]);
        message.encode(&mut self.out);
        let len = (self.out.len() - 4) as u32;
        self.out[..4].copy_from_slice(&len.to_le_bytes());
        let mut written = 0;
        while written < self.out.len() {
            match self.stream.write(&self.out[written..]) {
                Ok(0) => {
                    self.closed = true;
                    return SendStatus::Closed;
                }
                Ok(n) => written += n,
                // A frame is a few dozen bytes against a socket buffer of
                // hundreds of kilobytes that the server drains every
                // round: a full buffer is transient, and a frame must not
                // be abandoned half-written.
                Err(e) if matches!(e.kind(), ErrorKind::Interrupted | ErrorKind::WouldBlock) => {
                    std::hint::spin_loop();
                }
                Err(_) => {
                    self.closed = true;
                    return SendStatus::Closed;
                }
            }
        }
        if let ClientMessage::Pose { seq, .. } = message {
            self.awaiting = Some(*seq);
        }
        SendStatus::Sent
    }

    fn is_closed(&self) -> bool {
        self.closed
    }

    fn close(&mut self) {
        self.closed = true;
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(payload);
        wire
    }

    #[test]
    fn one_byte_reads_reassemble_every_frame() {
        let first = ServerMessage::Shutdown.to_payload();
        let second = ServerMessage::Welcome {
            version: 3,
            user_id: 7,
            slot_us: 15_000,
            levels: 6,
        }
        .to_payload();
        let mut wire = framed(&first);
        wire.extend(framed(&second));

        let mut r = FrameReassembler::default();
        let mut got: Vec<Vec<u8>> = Vec::new();
        for byte in &wire {
            r.push(&[*byte]);
            while let Some(frame) = r.next_frame().unwrap() {
                got.push(frame.to_vec());
            }
        }
        assert_eq!(got, vec![first, second]);
        assert_eq!(r.next_frame(), Ok(None));
    }

    #[test]
    fn split_length_prefix_waits_for_the_rest() {
        let payload = ServerMessage::Shutdown.to_payload();
        let wire = framed(&payload);
        let mut r = FrameReassembler::default();
        // Two of the four prefix bytes: not even a length yet.
        r.push(&wire[..2]);
        assert_eq!(r.next_frame(), Ok(None));
        // Prefix complete, payload missing.
        r.push(&wire[2..4]);
        assert_eq!(r.next_frame(), Ok(None));
        r.push(&wire[4..]);
        assert_eq!(r.next_frame().unwrap(), Some(&payload[..]));
        assert_eq!(r.next_frame(), Ok(None));
    }

    #[test]
    fn several_frames_in_one_read_come_out_in_order() {
        let a = ServerMessage::Shutdown.to_payload();
        let b = ServerMessage::Assignment {
            slot: 4,
            pose_seq: 3,
            quality: 2,
            rate_mbps: 9.5,
            manifest: vec![],
        }
        .to_payload();
        let mut wire = framed(&a);
        wire.extend(framed(&b));
        // The second frame's tail arrives later.
        let cut = wire.len() - 3;
        let mut r = FrameReassembler::default();
        r.push(&wire[..cut]);
        assert_eq!(r.next_frame().unwrap(), Some(&a[..]));
        assert_eq!(r.next_frame(), Ok(None));
        r.push(&wire[cut..]);
        assert_eq!(r.next_frame().unwrap(), Some(&b[..]));
    }

    #[test]
    fn oversized_prefix_is_corruption() {
        let mut r = FrameReassembler::default();
        r.push(&((MAX_FRAME_BYTES as u32) + 1).to_le_bytes());
        assert_eq!(r.next_frame(), Err(OversizedFrame(MAX_FRAME_BYTES + 1)));
    }

    #[test]
    fn nb_client_round_trips_over_a_real_socket() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        let mut client = NbClient::new(stream).unwrap();

        assert!(client.try_recv().is_none(), "idle socket yields nothing");
        assert_eq!(client.send(&ClientMessage::Bye), SendStatus::Sent);
        let got = cvr_serve::protocol::read_frame(&mut peer).unwrap();
        assert_eq!(ClientMessage::decode(&got), Ok(ClientMessage::Bye));

        // Trickle a frame to the client one byte at a time.
        let wire = framed(&ServerMessage::Shutdown.to_payload());
        for byte in &wire[..wire.len() - 1] {
            peer.write_all(&[*byte]).unwrap();
            // `Some` would mean a half-received frame was surfaced; the
            // bytes may simply not have crossed loopback yet, so `None`
            // is the only acceptable answer until the last byte.
            assert!(client.try_recv().is_none());
        }
        peer.write_all(&wire[wire.len() - 1..]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let reply = loop {
            if let Some(reply) = client.try_recv() {
                break reply;
            }
            assert!(Instant::now() < deadline, "timed out");
        };
        assert_eq!(reply, Ok(ServerMessage::Shutdown));
    }
}
