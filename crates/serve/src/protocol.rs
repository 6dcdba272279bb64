//! The versioned, length-prefixed binary wire protocol between the edge
//! server and its clients.
//!
//! Everything on the wire is a *frame*: a little-endian `u32` payload
//! length followed by the payload. The first payload byte is the message
//! type tag; the rest is the fixed-layout body. All integers are
//! little-endian; floats are IEEE-754 `f64` bit patterns; video IDs travel
//! as their packed `u64` form ([`VideoId::as_u64`]) and are validated with
//! [`VideoId::try_from_raw`] on receipt.
//!
//! Upstream (client → server): session hello, per-slot poses, delivery
//! ACKs, buffer releases, bandwidth samples, and a goodbye. Downstream
//! (server → client): the session welcome, per-slot quality assignments
//! with their tile manifests, and a shutdown notice.
//!
//! The codec is std-only and allocation-light: encoding appends to a
//! caller-owned `Vec<u8>` (the transports hand it the frame queue itself,
//! see `transport::FrameRing`), `encoded_len` says how many bytes
//! that will be so `to_payload` allocates exactly once, and decoding
//! borrows the payload slice where it lies — the only allocation a decode
//! makes is the `Vec<VideoId>` of a non-empty id list, which the message
//! owns. Every decoder rejects truncated bodies, unknown tags, invalid
//! IDs, and trailing bytes — a corrupt frame can never be half-accepted.

use cvr_content::id::VideoId;
use cvr_motion::pose::Pose;
use cvr_net::multilink::LinkId;

/// Current protocol version, carried in `Hello` and `Welcome`. A server
/// refuses clients speaking a version it cannot serve; v2 clients are
/// still admitted (served over the unicast path, see
/// [`MIN_PROTOCOL_VERSION`]).
///
/// Version 2 added `LinkSample` (per-radio bandwidth reports from bonded
/// multi-link clients). Version 3 added `GroupAssign` (one multicast
/// frame fanned out to every member of a shared-FoV group).
pub const PROTOCOL_VERSION: u16 = 3;

/// Oldest protocol version the server still admits. A v2 client in a
/// multicast session is served per-user `Assignment`s (unicast fallback)
/// and is never placed in a multicast group.
pub const MIN_PROTOCOL_VERSION: u16 = 2;

/// Upper bound on a frame payload; larger length prefixes are treated as
/// corruption (a manifest of every tile in a session is far smaller).
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Decode failure for a single frame payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the message body was complete.
    Truncated,
    /// Bytes remained after the message body — the frame length and the
    /// body disagree, so the frame is corrupt.
    TrailingBytes,
    /// The leading tag byte names no known message.
    UnknownTag(u8),
    /// A `Hello`/`Welcome` carried a protocol version we do not speak.
    VersionMismatch {
        /// The version this build speaks.
        expected: u16,
        /// The version found on the wire.
        got: u16,
    },
    /// A packed video ID failed validation.
    InvalidVideoId(u64),
    /// A field held a value outside its documented range.
    InvalidField(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame payload truncated"),
            WireError::TrailingBytes => write!(f, "frame payload has trailing bytes"),
            WireError::UnknownTag(tag) => write!(f, "unknown message tag 0x{tag:02x}"),
            WireError::VersionMismatch { expected, got } => {
                write!(
                    f,
                    "protocol version mismatch: expected {expected}, got {got}"
                )
            }
            WireError::InvalidVideoId(raw) => write!(f, "invalid packed video id 0x{raw:016x}"),
            WireError::InvalidField(name) => write!(f, "invalid field: {name}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Message tags (first payload byte). Upstream tags have the high bit
/// clear, downstream tags have it set.
pub mod tag {
    /// Client `Hello`.
    pub const HELLO: u8 = 0x01;
    /// Client `Pose`.
    pub const POSE: u8 = 0x02;
    /// Client `Ack`.
    pub const ACK: u8 = 0x03;
    /// Client `Release`.
    pub const RELEASE: u8 = 0x04;
    /// Client `BandwidthSample`.
    pub const BANDWIDTH: u8 = 0x05;
    /// Client `Bye`.
    pub const BYE: u8 = 0x06;
    /// Client `LinkSample` (bonded multi-link bandwidth report).
    pub const LINK_BANDWIDTH: u8 = 0x07;
    /// Server `Welcome`.
    pub const WELCOME: u8 = 0x81;
    /// Server `Assignment`.
    pub const ASSIGNMENT: u8 = 0x82;
    /// Server `Shutdown`.
    pub const SHUTDOWN: u8 = 0x83;
    /// Server `GroupAssign` (multicast fan-out, protocol v3).
    pub const GROUP_ASSIGN: u8 = 0x84;

    /// Whether the next slot's frame supersedes a frame with this tag —
    /// a pose upstream, a unicast or group assignment downstream — so a
    /// full queue sacrifices it before any control frame.
    pub const fn superseded_next_slot(tag: u8) -> bool {
        matches!(tag, POSE | ASSIGNMENT | GROUP_ASSIGN)
    }
}

/// A message travelling client → server.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMessage {
    /// First message on a connection: announce the protocol version and
    /// the client's replay seed (diagnostic only).
    Hello {
        /// Protocol version the client speaks.
        version: u16,
        /// The client's trace seed, echoed in logs for reproducibility.
        seed: u64,
    },
    /// One slot's 6-DoF pose, tagged with the client's slot sequence
    /// number.
    Pose {
        /// Client slot counter at capture time.
        seq: u64,
        /// The captured pose.
        pose: Pose,
    },
    /// The client confirms it decoded and buffered these tiles.
    Ack {
        /// Packed video IDs now held by the client.
        ids: Vec<VideoId>,
    },
    /// The client evicted these tiles from its buffer; the server must
    /// resend them if they are requested again.
    Release {
        /// Packed video IDs released by the client.
        ids: Vec<VideoId>,
    },
    /// A downlink throughput observation, feeding the server's per-user
    /// bandwidth estimator.
    BandwidthSample {
        /// Observed throughput in Mbps.
        mbps: f64,
    },
    /// A per-radio throughput observation from a bonded multi-link
    /// client. The server keeps one estimator per link and runs the
    /// failover policy over their estimates (protocol v2).
    LinkSample {
        /// Which radio the observation belongs to.
        link: LinkId,
        /// Observed throughput on that radio in Mbps.
        mbps: f64,
    },
    /// Clean disconnect.
    Bye,
}

/// A message travelling server → client.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMessage {
    /// Accepts a `Hello`: assigns the user ID and announces the slot
    /// cadence and quality ladder.
    Welcome {
        /// Protocol version the server speaks.
        version: u16,
        /// The user's ID within the session.
        user_id: u32,
        /// Slot duration in microseconds.
        slot_us: u32,
        /// Number of quality levels in the ladder.
        levels: u8,
    },
    /// One slot's allocation for this user: the chosen quality and the
    /// tile manifest the server is transmitting.
    Assignment {
        /// Server slot counter when the allocation was made.
        slot: u64,
        /// The freshest client pose sequence the prediction used — the
        /// client turns this into a round-trip measurement.
        pose_seq: u64,
        /// Allocated quality level (1-based).
        quality: u8,
        /// The transmission rate backing the allocation, Mbps.
        rate_mbps: f64,
        /// Tiles being sent this slot (ledger-suppressed manifest).
        manifest: Vec<VideoId>,
    },
    /// One slot's allocation for a shared-FoV multicast group (protocol
    /// v3). Encoded once per delivered quality and fanned out verbatim to
    /// every member receiving that quality: the payload carries no
    /// per-member field, which is what makes the fan-out byte-identical.
    /// Clients treat it like an `Assignment` without a round-trip echo.
    GroupAssign {
        /// Server slot counter when the allocation was made.
        slot: u64,
        /// Hysteresis-stable id of the group this frame serves.
        group_id: u64,
        /// Delivered quality level (1-based; the group allocation clamped
        /// to the member's link cap).
        quality: u8,
        /// The shared transmission rate backing the group row, Mbps.
        rate_mbps: f64,
        /// Tiles being sent this slot (ledger-suppressed manifest,
        /// identical for every member by group-key construction).
        manifest: Vec<VideoId>,
    },
    /// The session is ending.
    Shutdown,
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Encoded size of an id list: the `u32` count, then 8 bytes an id.
fn ids_len(ids: &[VideoId]) -> usize {
    4 + 8 * ids.len()
}

fn put_ids(buf: &mut Vec<u8>, ids: &[VideoId]) {
    put_u32(buf, ids.len() as u32);
    for id in ids {
        put_u64(buf, id.as_u64());
    }
}

fn put_pose(buf: &mut Vec<u8>, pose: &Pose) {
    for c in pose.components() {
        put_f64(buf, c);
    }
}

/// Cursor over a frame payload with checked reads.
struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes }
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        if self.bytes.len() < N {
            return Err(WireError::Truncated);
        }
        let (head, rest) = self.bytes.split_at(N);
        self.bytes = rest;
        Ok(head.try_into().expect("split at N"))
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take::<1>()?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take()?))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn ids(&mut self) -> Result<Vec<VideoId>, WireError> {
        let count = self.u32()? as usize;
        // Each ID is 8 bytes; an impossible count is corruption, not an
        // invitation to pre-allocate.
        if count > self.bytes.len() / 8 {
            return Err(WireError::Truncated);
        }
        let mut ids = Vec::with_capacity(count);
        for _ in 0..count {
            let raw = self.u64()?;
            ids.push(VideoId::try_from_raw(raw).ok_or(WireError::InvalidVideoId(raw))?);
        }
        Ok(ids)
    }

    fn pose(&mut self) -> Result<Pose, WireError> {
        let mut c = [0.0f64; 6];
        for slot in &mut c {
            let v = self.f64()?;
            if !v.is_finite() {
                return Err(WireError::InvalidField("pose component not finite"));
            }
            *slot = v;
        }
        Ok(Pose::from_components(c))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

impl ClientMessage {
    /// Appends the tagged payload (no length prefix) to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ClientMessage::Hello { version, seed } => {
                buf.push(tag::HELLO);
                put_u16(buf, *version);
                put_u64(buf, *seed);
            }
            ClientMessage::Pose { seq, pose } => {
                buf.push(tag::POSE);
                put_u64(buf, *seq);
                put_pose(buf, pose);
            }
            ClientMessage::Ack { ids } => {
                buf.push(tag::ACK);
                put_ids(buf, ids);
            }
            ClientMessage::Release { ids } => {
                buf.push(tag::RELEASE);
                put_ids(buf, ids);
            }
            ClientMessage::BandwidthSample { mbps } => {
                buf.push(tag::BANDWIDTH);
                put_f64(buf, *mbps);
            }
            ClientMessage::LinkSample { link, mbps } => {
                buf.push(tag::LINK_BANDWIDTH);
                buf.push(link.as_u8());
                put_f64(buf, *mbps);
            }
            ClientMessage::Bye => buf.push(tag::BYE),
        }
    }

    /// Exactly how many bytes [`Self::encode`] appends.
    pub fn encoded_len(&self) -> usize {
        1 + match self {
            ClientMessage::Hello { .. } => 2 + 8,
            ClientMessage::Pose { .. } => 8 + 6 * 8,
            ClientMessage::Ack { ids } | ClientMessage::Release { ids } => ids_len(ids),
            ClientMessage::BandwidthSample { .. } => 8,
            ClientMessage::LinkSample { .. } => 1 + 8,
            ClientMessage::Bye => 0,
        }
    }

    /// Encodes into a fresh buffer of exactly the encoded size.
    pub fn to_payload(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        buf
    }

    /// Decodes a tagged payload.
    ///
    /// # Errors
    ///
    /// Any [`WireError`]: truncation, trailing bytes, unknown tags,
    /// invalid IDs or fields.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let message = match r.u8()? {
            tag::HELLO => ClientMessage::Hello {
                version: r.u16()?,
                seed: r.u64()?,
            },
            tag::POSE => ClientMessage::Pose {
                seq: r.u64()?,
                pose: r.pose()?,
            },
            tag::ACK => ClientMessage::Ack { ids: r.ids()? },
            tag::RELEASE => ClientMessage::Release { ids: r.ids()? },
            tag::BANDWIDTH => {
                let mbps = r.f64()?;
                if !mbps.is_finite() || mbps < 0.0 {
                    return Err(WireError::InvalidField("bandwidth sample"));
                }
                ClientMessage::BandwidthSample { mbps }
            }
            tag::LINK_BANDWIDTH => {
                let link =
                    LinkId::from_u8(r.u8()?).ok_or(WireError::InvalidField("unknown link id"))?;
                let mbps = r.f64()?;
                if !mbps.is_finite() || mbps < 0.0 {
                    return Err(WireError::InvalidField("link bandwidth sample"));
                }
                ClientMessage::LinkSample { link, mbps }
            }
            tag::BYE => ClientMessage::Bye,
            other => return Err(WireError::UnknownTag(other)),
        };
        r.finish()?;
        Ok(message)
    }
}

impl ServerMessage {
    /// Appends the tagged payload (no length prefix) to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ServerMessage::Welcome {
                version,
                user_id,
                slot_us,
                levels,
            } => {
                buf.push(tag::WELCOME);
                put_u16(buf, *version);
                put_u32(buf, *user_id);
                put_u32(buf, *slot_us);
                buf.push(*levels);
            }
            ServerMessage::Assignment {
                slot,
                pose_seq,
                quality,
                rate_mbps,
                manifest,
            } => {
                buf.push(tag::ASSIGNMENT);
                put_u64(buf, *slot);
                put_u64(buf, *pose_seq);
                buf.push(*quality);
                put_f64(buf, *rate_mbps);
                put_ids(buf, manifest);
            }
            ServerMessage::GroupAssign {
                slot,
                group_id,
                quality,
                rate_mbps,
                manifest,
            } => {
                buf.push(tag::GROUP_ASSIGN);
                put_u64(buf, *slot);
                put_u64(buf, *group_id);
                buf.push(*quality);
                put_f64(buf, *rate_mbps);
                put_ids(buf, manifest);
            }
            ServerMessage::Shutdown => buf.push(tag::SHUTDOWN),
        }
    }

    /// Exactly how many bytes [`Self::encode`] appends.
    pub fn encoded_len(&self) -> usize {
        1 + match self {
            ServerMessage::Welcome { .. } => 2 + 4 + 4 + 1,
            ServerMessage::Assignment { manifest, .. }
            | ServerMessage::GroupAssign { manifest, .. } => 8 + 8 + 1 + 8 + ids_len(manifest),
            ServerMessage::Shutdown => 0,
        }
    }

    /// Encodes into a fresh buffer of exactly the encoded size.
    pub fn to_payload(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        buf
    }

    /// Decodes a tagged payload.
    ///
    /// # Errors
    ///
    /// Any [`WireError`]: truncation, trailing bytes, unknown tags,
    /// invalid IDs or fields.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let message = match r.u8()? {
            tag::WELCOME => ServerMessage::Welcome {
                version: r.u16()?,
                user_id: r.u32()?,
                slot_us: r.u32()?,
                levels: r.u8()?,
            },
            tag::ASSIGNMENT => {
                let slot = r.u64()?;
                let pose_seq = r.u64()?;
                let quality = r.u8()?;
                if quality == 0 {
                    return Err(WireError::InvalidField("quality level zero"));
                }
                let rate_mbps = r.f64()?;
                if !rate_mbps.is_finite() || rate_mbps < 0.0 {
                    return Err(WireError::InvalidField("assignment rate"));
                }
                ServerMessage::Assignment {
                    slot,
                    pose_seq,
                    quality,
                    rate_mbps,
                    manifest: r.ids()?,
                }
            }
            tag::GROUP_ASSIGN => {
                let slot = r.u64()?;
                let group_id = r.u64()?;
                let quality = r.u8()?;
                if quality == 0 {
                    return Err(WireError::InvalidField("quality level zero"));
                }
                let rate_mbps = r.f64()?;
                if !rate_mbps.is_finite() || rate_mbps < 0.0 {
                    return Err(WireError::InvalidField("group assignment rate"));
                }
                ServerMessage::GroupAssign {
                    slot,
                    group_id,
                    quality,
                    rate_mbps,
                    manifest: r.ids()?,
                }
            }
            tag::SHUTDOWN => ServerMessage::Shutdown,
            other => return Err(WireError::UnknownTag(other)),
        };
        r.finish()?;
        Ok(message)
    }
}

/// Failure while reading a frame off a byte stream.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the stream at a frame boundary (clean EOF).
    Closed,
    /// The length prefix exceeded [`MAX_FRAME_BYTES`].
    TooLarge(usize),
    /// Underlying I/O failure (including EOF mid-frame).
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "stream closed"),
            FrameError::TooLarge(len) => {
                write!(f, "frame length {len} exceeds {MAX_FRAME_BYTES}")
            }
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates writer I/O errors.
pub fn write_frame<W: std::io::Write>(writer: &mut W, payload: &[u8]) -> std::io::Result<()> {
    writer.write_all(&(payload.len() as u32).to_le_bytes())?;
    writer.write_all(payload)
}

/// Reads one length-prefixed frame, distinguishing a clean close (EOF
/// exactly at a frame boundary) from mid-frame truncation.
///
/// # Errors
///
/// [`FrameError::Closed`] on clean EOF, [`FrameError::TooLarge`] on an
/// oversized length prefix, [`FrameError::Io`] otherwise.
pub fn read_frame<R: std::io::Read>(reader: &mut R) -> Result<Vec<u8>, FrameError> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < len_bytes.len() {
        match reader.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameError::Closed),
            Ok(0) => {
                return Err(FrameError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside frame length",
                )))
            }
            Ok(n) => filled += n,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0; len];
    reader.read_exact(&mut payload).map_err(FrameError::Io)?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_content::grid::CellId;
    use cvr_content::tile::TileId;
    use cvr_core::quality::QualityLevel;
    use cvr_motion::pose::{Orientation, Vec3};

    fn vid(x: i32, t: u8, q: u8) -> VideoId {
        VideoId::new(CellId { x, z: -x }, TileId::new(t), QualityLevel::new(q))
    }

    #[test]
    fn client_messages_round_trip() {
        let pose = Pose::new(
            Vec3::new(1.5, 1.7, -2.25),
            Orientation::new(-45.0, 10.0, 0.5),
        );
        let messages = [
            ClientMessage::Hello {
                version: PROTOCOL_VERSION,
                seed: 0xDEAD_BEEF,
            },
            ClientMessage::Pose { seq: 77, pose },
            ClientMessage::Ack {
                ids: vec![vid(1, 0, 3), vid(-2, 3, 6)],
            },
            ClientMessage::Release { ids: vec![] },
            ClientMessage::BandwidthSample { mbps: 48.25 },
            ClientMessage::LinkSample {
                link: LinkId::Wifi,
                mbps: 52.5,
            },
            ClientMessage::LinkSample {
                link: LinkId::Lte,
                mbps: 0.0,
            },
            ClientMessage::Bye,
        ];
        for m in &messages {
            let payload = m.to_payload();
            assert_eq!(&ClientMessage::decode(&payload).unwrap(), m);
        }
    }

    #[test]
    fn server_messages_round_trip() {
        let messages = [
            ServerMessage::Welcome {
                version: PROTOCOL_VERSION,
                user_id: 3,
                slot_us: 15_000,
                levels: 6,
            },
            ServerMessage::Assignment {
                slot: 900,
                pose_seq: 899,
                quality: 4,
                rate_mbps: 36.5,
                manifest: vec![vid(0, 1, 4), vid(5, 2, 4)],
            },
            ServerMessage::GroupAssign {
                slot: 901,
                group_id: 12,
                quality: 5,
                rate_mbps: 74.25,
                manifest: vec![vid(1, 0, 5), vid(1, 3, 5)],
            },
            ServerMessage::Shutdown,
        ];
        for m in &messages {
            let payload = m.to_payload();
            assert_eq!(&ServerMessage::decode(&payload).unwrap(), m);
        }
    }

    #[test]
    fn group_assign_rejects_bad_fields_and_truncation() {
        let good = ServerMessage::GroupAssign {
            slot: 3,
            group_id: 9,
            quality: 2,
            rate_mbps: 12.0,
            manifest: vec![vid(0, 1, 2)],
        }
        .to_payload();
        for cut in 1..good.len() {
            assert!(
                ServerMessage::decode(&good[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
        // Quality zero.
        let mut payload = vec![tag::GROUP_ASSIGN];
        put_u64(&mut payload, 3);
        put_u64(&mut payload, 9);
        payload.push(0);
        put_f64(&mut payload, 12.0);
        put_u32(&mut payload, 0);
        assert_eq!(
            ServerMessage::decode(&payload),
            Err(WireError::InvalidField("quality level zero"))
        );
        // Non-finite rate.
        let mut payload = vec![tag::GROUP_ASSIGN];
        put_u64(&mut payload, 3);
        put_u64(&mut payload, 9);
        payload.push(2);
        put_f64(&mut payload, f64::NAN);
        put_u32(&mut payload, 0);
        assert_eq!(
            ServerMessage::decode(&payload),
            Err(WireError::InvalidField("group assignment rate"))
        );
    }

    #[test]
    fn truncated_and_trailing_payloads_rejected() {
        let payload = ClientMessage::Pose {
            seq: 1,
            pose: Pose::default(),
        }
        .to_payload();
        for cut in 1..payload.len() {
            assert_eq!(
                ClientMessage::decode(&payload[..cut]),
                Err(WireError::Truncated),
                "cut at {cut}"
            );
        }
        let mut extended = payload.clone();
        extended.push(0);
        assert_eq!(
            ClientMessage::decode(&extended),
            Err(WireError::TrailingBytes)
        );
        assert_eq!(ClientMessage::decode(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn unknown_tags_and_bad_ids_rejected() {
        assert_eq!(
            ClientMessage::decode(&[0x7F]),
            Err(WireError::UnknownTag(0x7F))
        );
        assert_eq!(
            ServerMessage::decode(&[0x01]),
            Err(WireError::UnknownTag(0x01))
        );
        // Ack with one id whose quality bits are zero.
        let mut payload = vec![tag::ACK];
        put_u32(&mut payload, 1);
        put_u64(&mut payload, 0b11000); // tile 3, quality 0
        assert!(matches!(
            ClientMessage::decode(&payload),
            Err(WireError::InvalidVideoId(_))
        ));
    }

    #[test]
    fn impossible_id_count_is_truncation_not_allocation() {
        let mut payload = vec![tag::ACK];
        put_u32(&mut payload, u32::MAX);
        assert_eq!(ClientMessage::decode(&payload), Err(WireError::Truncated));
    }

    #[test]
    fn non_finite_fields_rejected() {
        let mut payload = vec![tag::BANDWIDTH];
        put_f64(&mut payload, f64::NAN);
        assert!(matches!(
            ClientMessage::decode(&payload),
            Err(WireError::InvalidField(_))
        ));
    }

    #[test]
    fn link_samples_reject_bad_link_and_bad_bandwidth() {
        let mut payload = vec![tag::LINK_BANDWIDTH, 7];
        put_f64(&mut payload, 10.0);
        assert_eq!(
            ClientMessage::decode(&payload),
            Err(WireError::InvalidField("unknown link id"))
        );
        let mut payload = vec![tag::LINK_BANDWIDTH, 0];
        put_f64(&mut payload, -1.0);
        assert_eq!(
            ClientMessage::decode(&payload),
            Err(WireError::InvalidField("link bandwidth sample"))
        );
        let mut payload = vec![tag::LINK_BANDWIDTH, 1];
        put_f64(&mut payload, f64::INFINITY);
        assert!(ClientMessage::decode(&payload).is_err());
    }

    #[test]
    fn frame_layer_round_trips_and_detects_clean_close() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abc").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"abc");
        assert_eq!(read_frame(&mut cursor).unwrap(), b"");
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Closed)));
    }

    #[test]
    fn oversized_frame_rejected() {
        let wire = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes().to_vec();
        let mut cursor = std::io::Cursor::new(wire);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::TooLarge(_))
        ));
    }
}
