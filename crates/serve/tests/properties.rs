//! Property-based tests of the wire protocol: every message type must
//! round-trip bit-exactly through the codec, and no truncated or
//! corrupted frame may ever decode.

use cvr_content::grid::CellId;
use cvr_content::id::VideoId;
use cvr_content::tile::TileId;
use cvr_core::quality::QualityLevel;
use cvr_motion::pose::Pose;
use cvr_net::multilink::LinkId;
use cvr_serve::protocol::{
    read_frame, write_frame, ClientMessage, FrameError, ServerMessage, WireError, MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
};
use proptest::prelude::*;

fn video_id() -> impl Strategy<Value = VideoId> {
    (-500_000i32..500_000, -500_000i32..500_000, 0u8..4, 1u8..=6).prop_map(|(x, z, t, q)| {
        VideoId::new(CellId { x, z }, TileId::new(t), QualityLevel::new(q))
    })
}

fn pose() -> impl Strategy<Value = Pose> {
    (
        -1000.0f64..1000.0,
        -1000.0f64..1000.0,
        -1000.0f64..1000.0,
        -180.0f64..180.0,
        -90.0f64..90.0,
        -45.0f64..45.0,
    )
        .prop_map(|(x, y, z, yaw, pitch, roll)| Pose::from_components([x, y, z, yaw, pitch, roll]))
}

fn client_roundtrip(message: &ClientMessage) {
    let payload = message.to_payload();
    assert_eq!(&ClientMessage::decode(&payload).unwrap(), message);
    // Through the frame layer too.
    let mut wire = Vec::new();
    write_frame(&mut wire, &payload).unwrap();
    let mut cursor = std::io::Cursor::new(wire);
    let framed = read_frame(&mut cursor).unwrap();
    assert_eq!(&ClientMessage::decode(&framed).unwrap(), message);
}

fn server_roundtrip(message: &ServerMessage) {
    let payload = message.to_payload();
    assert_eq!(&ServerMessage::decode(&payload).unwrap(), message);
    let mut wire = Vec::new();
    write_frame(&mut wire, &payload).unwrap();
    let mut cursor = std::io::Cursor::new(wire);
    let framed = read_frame(&mut cursor).unwrap();
    assert_eq!(&ServerMessage::decode(&framed).unwrap(), message);
}

/// `encoded_len` is the payload's size, and `to_payload` asked the
/// allocator for exactly that, once.
fn exact_size(encoded_len: usize, payload: Vec<u8>) {
    assert_eq!(encoded_len, payload.len());
    assert_eq!(encoded_len, payload.capacity());
}

proptest! {
    #[test]
    fn every_message_is_encoded_into_a_buffer_of_exactly_its_size(
        ids in prop::collection::vec(video_id(), 0..=300),
        p in pose(),
        word in 0u64..=u64::MAX,
        mbps in 0.0f64..10_000.0,
    ) {
        let client = [
            ClientMessage::Hello { version: word as u16, seed: word },
            ClientMessage::Pose { seq: word, pose: p },
            ClientMessage::Ack { ids: ids.clone() },
            ClientMessage::Release { ids: ids.clone() },
            ClientMessage::BandwidthSample { mbps },
            ClientMessage::LinkSample { link: LinkId::Lte, mbps },
            ClientMessage::Bye,
        ];
        for message in &client {
            exact_size(message.encoded_len(), message.to_payload());
        }
        let server = [
            ServerMessage::Welcome {
                version: PROTOCOL_VERSION,
                user_id: word as u32,
                slot_us: 15_000,
                levels: 6,
            },
            ServerMessage::Assignment {
                slot: word,
                pose_seq: word,
                quality: 2,
                rate_mbps: mbps,
                manifest: ids.clone(),
            },
            ServerMessage::GroupAssign {
                slot: word,
                group_id: word,
                quality: 2,
                rate_mbps: mbps,
                manifest: ids,
            },
            ServerMessage::Shutdown,
        ];
        for message in &server {
            exact_size(message.encoded_len(), message.to_payload());
        }
    }

    #[test]
    fn hello_round_trips(version in 0u16..=u16::MAX, seed in 0u64..=u64::MAX) {
        client_roundtrip(&ClientMessage::Hello { version, seed });
    }

    #[test]
    fn pose_round_trips(seq in 0u64..=u64::MAX, p in pose()) {
        client_roundtrip(&ClientMessage::Pose { seq, pose: p });
    }

    #[test]
    fn ack_round_trips(ids in prop::collection::vec(video_id(), 0..40)) {
        client_roundtrip(&ClientMessage::Ack { ids });
    }

    #[test]
    fn release_round_trips(ids in prop::collection::vec(video_id(), 0..40)) {
        client_roundtrip(&ClientMessage::Release { ids });
    }

    #[test]
    fn bandwidth_sample_round_trips(mbps in 0.0f64..10_000.0) {
        client_roundtrip(&ClientMessage::BandwidthSample { mbps });
    }

    #[test]
    fn bye_round_trips(_nothing in 0u8..1) {
        client_roundtrip(&ClientMessage::Bye);
    }

    #[test]
    fn link_sample_round_trips(wifi in 0u8..2, mbps in 0.0f64..10_000.0) {
        let link = LinkId::from_u8(wifi).unwrap();
        client_roundtrip(&ClientMessage::LinkSample { link, mbps });
    }

    // A corrupted link tag or a non-finite/negative bandwidth must be
    // rejected at decode time — the server never sees a garbage sample.
    #[test]
    fn corrupt_link_samples_never_decode(tag in 2u8..=u8::MAX, mbps in 0.0f64..10_000.0) {
        let mut payload = ClientMessage::LinkSample { link: LinkId::Wifi, mbps }.to_payload();
        // Byte 0 is the message tag; byte 1 is the link id.
        payload[1] = tag;
        prop_assert!(matches!(
            ClientMessage::decode(&payload),
            Err(WireError::InvalidField(_))
        ));
    }

    #[test]
    fn non_finite_link_bandwidth_never_decodes(wifi in 0u8..2, pick in 0usize..5) {
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, -1e9][pick];
        let link = LinkId::from_u8(wifi).unwrap();
        let payload = ClientMessage::LinkSample { link, mbps: bad }.to_payload();
        prop_assert!(ClientMessage::decode(&payload).is_err());
    }

    #[test]
    fn welcome_round_trips(
        user_id in 0u32..=u32::MAX,
        slot_us in 1u32..1_000_000,
        levels in 1u8..=8,
    ) {
        server_roundtrip(&ServerMessage::Welcome {
            version: PROTOCOL_VERSION,
            user_id,
            slot_us,
            levels,
        });
    }

    #[test]
    fn assignment_round_trips(
        slot in 0u64..=u64::MAX,
        pose_seq in 0u64..=u64::MAX,
        quality in 1u8..=6,
        rate_mbps in 0.0f64..1_000.0,
        manifest in prop::collection::vec(video_id(), 0..40),
    ) {
        server_roundtrip(&ServerMessage::Assignment {
            slot,
            pose_seq,
            quality,
            rate_mbps,
            manifest,
        });
    }

    #[test]
    fn shutdown_round_trips(_nothing in 0u8..1) {
        server_roundtrip(&ServerMessage::Shutdown);
    }

    // Every strict prefix of a valid payload must be rejected as
    // truncation — no partial message can ever half-decode.
    #[test]
    fn truncated_client_payloads_never_decode(
        seq in 0u64..=u64::MAX,
        p in pose(),
        cut_fraction in 0.0f64..1.0,
    ) {
        let payload = ClientMessage::Pose { seq, pose: p }.to_payload();
        let cut = ((payload.len() as f64 * cut_fraction) as usize).min(payload.len() - 1);
        prop_assert_eq!(
            ClientMessage::decode(&payload[..cut]),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn truncated_server_payloads_never_decode(
        manifest in prop::collection::vec(video_id(), 1..20),
        cut_fraction in 0.0f64..1.0,
    ) {
        let payload = ServerMessage::Assignment {
            slot: 1,
            pose_seq: 0,
            quality: 3,
            rate_mbps: 10.0,
            manifest,
        }
        .to_payload();
        let cut = ((payload.len() as f64 * cut_fraction) as usize).min(payload.len() - 1);
        prop_assert_eq!(
            ServerMessage::decode(&payload[..cut]),
            Err(WireError::Truncated)
        );
    }

    // Appending garbage to a valid payload must be rejected as trailing
    // bytes.
    #[test]
    fn trailing_bytes_never_decode(
        ids in prop::collection::vec(video_id(), 0..10),
        junk in prop::collection::vec(0u8..=255, 1..8),
    ) {
        let mut payload = ClientMessage::Ack { ids }.to_payload();
        payload.extend_from_slice(&junk);
        // Depending on the junk, the length-prefixed ID count may now read
        // past the end (Truncated) or leave bytes over (TrailingBytes);
        // either way it must NOT decode successfully.
        prop_assert!(ClientMessage::decode(&payload).is_err());
    }

    // Flipping any single byte of a frame must never produce a decode
    // that silently differs in kind from the original: it either still
    // decodes to *some* valid message (a flipped numeric field) or is
    // rejected — never a panic, never an out-of-layout VideoId.
    #[test]
    fn corrupt_frames_never_panic_or_leak_invalid_ids(
        manifest in prop::collection::vec(video_id(), 1..10),
        byte_index in 0usize..4096,
        flip in 1u8..=255,
    ) {
        let payload = ServerMessage::Assignment {
            slot: 7,
            pose_seq: 6,
            quality: 2,
            rate_mbps: 25.0,
            manifest,
        }
        .to_payload();
        let mut corrupt = payload.clone();
        let index = byte_index % corrupt.len();
        corrupt[index] ^= flip;
        if let Ok(ServerMessage::Assignment { quality, manifest, .. }) =
            ServerMessage::decode(&corrupt)
        {
            // Whatever decoded must satisfy the layout invariants.
            prop_assert!(quality > 0);
            for id in manifest {
                prop_assert!(VideoId::try_from_raw(id.as_u64()).is_some());
            }
        }
    }

    // Corrupting the frame length prefix must be caught by the frame
    // reader (oversized) or surface as a short read — never a giant
    // allocation or a silent success with the wrong bytes.
    #[test]
    fn corrupt_length_prefixes_are_contained(extra in 1u32..=u32::MAX) {
        let payload = ClientMessage::Bye.to_payload();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let fake_len = (payload.len() as u32).wrapping_add(extra);
        wire[..4].copy_from_slice(&fake_len.to_le_bytes());
        let mut cursor = std::io::Cursor::new(wire);
        match read_frame(&mut cursor) {
            Err(FrameError::TooLarge(len)) => prop_assert!(len > MAX_FRAME_BYTES),
            Err(FrameError::Io(_)) => {} // short read
            Ok(frame) => {
                // Only possible if the corrupted length matched a prefix
                // of the original payload; that prefix must not decode.
                prop_assert!(frame.len() < payload.len());
                prop_assert!(ClientMessage::decode(&frame).is_err());
            }
            Err(FrameError::Closed) => prop_assert!(fake_len == 0),
        }
    }
}
