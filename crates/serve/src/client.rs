//! The headless replay client: the stand-in for one Android phone.
//!
//! A [`ReplayClient`] drives a synthetic `cvr-motion` trace through a
//! [`ClientTransport`]: each slot it uploads its pose and a bandwidth
//! sample, stores the tiles of any arriving `Assignment` in its buffer
//! (ACKing them and releasing evictions, which is what arms the server's
//! retransmission suppression), and records its own displayed-quality
//! QoE plus per-assignment round-trip times.

use std::collections::VecDeque;
use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use cvr_content::cache::ClientTileBuffer;
use cvr_content::id::VideoId;
use cvr_content::library::ContentLibrary;
use cvr_content::tile::tile_mask;
use cvr_core::objective::QoeParams;
use cvr_core::qoe::{UserQoeAccumulator, UserQoeSummary};
use cvr_core::quality::QualityLevel;
use cvr_motion::synthetic::{MotionConfig, MotionGenerator};
use cvr_net::multilink::{BondedLink, LinkId};
use cvr_obs::{Histogram, HistogramSummary};
use cvr_sim::pipeline::PIPELINE_SLOTS;

use crate::protocol::{ClientMessage, ServerMessage, PROTOCOL_VERSION};
use crate::transport::ClientTransport;

/// How many in-flight pose timestamps are kept for RTT matching.
const MAX_PENDING_RTT: usize = 256;

/// Configuration of one replay client.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Trace seed; also announced in the Hello for log correlation.
    pub seed: u64,
    /// Slot duration in seconds (must match the server's cadence for the
    /// motion statistics to be faithful).
    pub slot_duration_s: f64,
    /// QoE weights for the client-side accumulator.
    pub params: QoeParams,
    /// Tile-buffer threshold (tiles held before releasing old ones).
    pub buffer_tiles: usize,
    /// Mean of the synthetic bandwidth samples the client reports, Mbps.
    /// Ignored when `bonded` is set.
    pub bandwidth_mbps: f64,
    /// Two bonded radios (Wi-Fi-like + LTE-like). When set, each slot
    /// uploads one jittered [`ClientMessage::LinkSample`] per link —
    /// sampled at `seq * slot_duration_s` — instead of the legacy
    /// single-link `BandwidthSample`, so the server's per-link EMAs and
    /// failover policy see the same deterministic radio timeline as the
    /// simulator.
    pub bonded: Option<BondedLink>,
    /// Protocol version announced in the Hello. Defaults to
    /// [`PROTOCOL_VERSION`]; the v2↔v3 compatibility tests pin it to an
    /// older version to exercise the server's unicast fallback.
    pub protocol_version: u16,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            seed: 0,
            slot_duration_s: 0.015,
            params: QoeParams::system_default(),
            buffer_tiles: 600,
            bandwidth_mbps: 50.0,
            bonded: None,
            protocol_version: PROTOCOL_VERSION,
        }
    }
}

/// End-of-run client report.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientReport {
    /// The user ID the server assigned (`u32::MAX` if no Welcome ever
    /// arrived).
    pub user_id: u32,
    /// The trace seed.
    pub seed: u64,
    /// Client-side QoE over the displayed slots.
    pub summary: UserQoeSummary,
    /// Round-trip time from pose upload to the matching assignment —
    /// histogram summary in nanoseconds, with p50/p95/p99 estimates.
    pub rtt: HistogramSummary,
    /// Distribution of displayed quality levels across displayed slots
    /// (native unit: the quality level, 1 = lowest).
    pub displayed_quality: HistogramSummary,
    /// Assignments received.
    pub assignments: u64,
    /// Undecodable frames received from the server.
    pub protocol_errors: u64,
    /// Whether the handshake completed.
    pub welcomed: bool,
    /// Client-side bonded-link failovers (0 for single-link clients).
    pub link_switches: u64,
}

/// One trace-replay client over any [`ClientTransport`].
pub struct ReplayClient<T: ClientTransport> {
    transport: T,
    config: ClientConfig,
    library: ContentLibrary,
    motion: MotionGenerator,
    buffer: ClientTileBuffer,
    rng: ChaCha8Rng,
    qoe: UserQoeAccumulator,
    /// Pose sequence numbers paired with their send instants, for RTT.
    sent_at: VecDeque<(u64, Instant)>,
    rtt: Histogram,
    displayed: Histogram,
    seq: u64,
    user_id: u32,
    /// Quality-ladder depth announced in the Welcome; assignments above
    /// it are protocol violations. Zero until the handshake completes.
    levels: u8,
    welcomed: bool,
    shutdown: bool,
    assignments: u64,
    protocol_errors: u64,
    /// Quality of the most recent assignment — what the headset displays.
    displayed_quality: Option<QualityLevel>,
    /// Slot the displayed assignment was planned for, to measure delay.
    displayed_lag_slots: f64,
    /// The ids one frame's stores evicted; empty between frames, its
    /// capacity reused.
    released: Vec<VideoId>,
}

impl<T: ClientTransport> ReplayClient<T> {
    /// Creates the client and immediately sends its `Hello`.
    pub fn new(mut transport: T, config: ClientConfig) -> Self {
        transport.send(&ClientMessage::Hello {
            version: config.protocol_version,
            seed: config.seed,
        });
        let motion = MotionGenerator::new(
            MotionConfig {
                slot_duration_s: config.slot_duration_s,
                ..MotionConfig::paper_default()
            },
            config.seed,
        );
        ReplayClient {
            transport,
            motion,
            buffer: ClientTileBuffer::new(config.buffer_tiles),
            rng: ChaCha8Rng::seed_from_u64(config.seed ^ 0xC11E_17BA),
            qoe: UserQoeAccumulator::new(config.params),
            library: ContentLibrary::paper_default(),
            sent_at: VecDeque::new(),
            rtt: Histogram::latency_ns(),
            // One bucket per plausible ladder level, so the displayed
            // distribution is exact.
            displayed: Histogram::new(&[1, 2, 3, 4, 5, 6, 7, 8]),
            seq: 0,
            user_id: u32::MAX,
            levels: 0,
            welcomed: false,
            shutdown: false,
            assignments: 0,
            protocol_errors: 0,
            displayed_quality: None,
            displayed_lag_slots: 0.0,
            released: Vec::new(),
            config,
        }
    }

    /// Whether the server welcomed this client.
    pub fn welcomed(&self) -> bool {
        self.welcomed
    }

    /// Whether the server announced shutdown or the connection died.
    pub fn finished(&self) -> bool {
        self.shutdown || self.transport.is_closed()
    }

    /// Undecodable downstream frames seen so far.
    pub fn protocol_errors(&self) -> u64 {
        self.protocol_errors
    }

    /// Runs one client slot: drain downstream messages, display and score
    /// the current content, then upload the next pose and a bandwidth
    /// sample.
    pub fn step_slot(&mut self) {
        self.drain();
        if self.shutdown {
            return;
        }

        let pose = self.motion.step();

        // Display: the most recent assignment's quality counts as viewed
        // only if every tile the *actual* pose needs is in the buffer at
        // that quality — the client-side analogue of the FoV hit test.
        if let Some(quality) = self.displayed_quality {
            let cell = self.library.grid().cell_of(&pose.position);
            let tiles = tile_mask(self.library.fov(), &pose);
            let hit = self.buffer.holds_all(cell, tiles, quality);
            self.qoe.record(quality, hit, self.displayed_lag_slots);
            self.displayed.observe(quality.get() as u64);
        }

        // Upload this slot's pose and a jittered bandwidth observation.
        self.sent_at.push_back((self.seq, Instant::now()));
        if self.sent_at.len() > MAX_PENDING_RTT {
            self.sent_at.pop_front();
        }
        self.transport.send(&ClientMessage::Pose {
            seq: self.seq,
            pose,
        });
        if let Some(link) = self.config.bonded.as_mut() {
            let t = self.seq as f64 * self.config.slot_duration_s;
            let sample = link.sample(t);
            for (id, mbps) in [
                (LinkId::Wifi, sample.wifi_mbps),
                (LinkId::Lte, sample.lte_mbps),
            ] {
                let jitter: f64 = 1.0 + self.rng.gen_range(-0.1..0.1);
                self.transport.send(&ClientMessage::LinkSample {
                    link: id,
                    mbps: mbps * jitter,
                });
            }
        } else {
            let jitter: f64 = 1.0 + self.rng.gen_range(-0.1..0.1);
            self.transport.send(&ClientMessage::BandwidthSample {
                mbps: self.config.bandwidth_mbps * jitter,
            });
        }
        self.seq += 1;
    }

    /// Drains every queued downstream message.
    fn drain(&mut self) {
        while let Some(received) = self.transport.try_recv() {
            match received {
                Ok(ServerMessage::Welcome {
                    user_id, levels, ..
                }) => {
                    self.welcomed = true;
                    self.user_id = user_id;
                    self.levels = levels;
                }
                Ok(ServerMessage::Assignment {
                    pose_seq,
                    quality,
                    manifest,
                    ..
                }) => {
                    // RTT: from uploading pose `pose_seq` to seeing the
                    // assignment planned against it.
                    while self.sent_at.front().is_some_and(|&(seq, _)| seq < pose_seq) {
                        self.sent_at.pop_front();
                    }
                    if let Some(&(seq, at)) = self.sent_at.front() {
                        if seq == pose_seq {
                            self.rtt
                                .observe(at.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                        }
                    }
                    let lag_slots = self.seq.saturating_sub(pose_seq) as f64;
                    self.accept_frame(manifest, quality, lag_slots);
                }
                Ok(ServerMessage::GroupAssign {
                    quality, manifest, ..
                }) => {
                    // v3 multicast frame: identical bytes for every group
                    // member, so there is no pose echo to measure RTT
                    // against — the display lag is the pipeline depth.
                    if self.config.protocol_version < crate::protocol::PROTOCOL_VERSION {
                        // The server must never fan a v3 frame out to a
                        // client that negotiated v2.
                        self.protocol_errors += 1;
                        continue;
                    }
                    self.accept_frame(manifest, quality, PIPELINE_SLOTS as f64);
                }
                Ok(ServerMessage::Shutdown) => {
                    self.shutdown = true;
                }
                Err(_) => {
                    self.protocol_errors += 1;
                }
            }
        }
    }

    /// One assignment frame: stores its tiles, ACKs them, releases what
    /// the buffer evicted to make room, and displays its quality
    /// `lag_slots` behind the pose it was planned for.
    fn accept_frame(&mut self, manifest: Vec<VideoId>, quality: u8, lag_slots: f64) {
        self.assignments += 1;
        if !manifest.is_empty() {
            for &vid in &manifest {
                self.released.extend(self.buffer.store(vid));
            }
            self.transport.send(&ClientMessage::Ack { ids: manifest });
            if !self.released.is_empty() {
                // The message owns its ids; lend it the buffer for the send.
                let release = ClientMessage::Release {
                    ids: std::mem::take(&mut self.released),
                };
                self.transport.send(&release);
                if let ClientMessage::Release { ids } = release {
                    self.released = ids;
                    self.released.clear();
                }
            }
        }
        if quality == 0 || quality > self.levels {
            self.protocol_errors += 1;
        } else {
            self.displayed_quality = Some(QualityLevel::new(quality));
            self.displayed_lag_slots = lag_slots;
        }
    }

    /// Sends `Bye`, closes the transport, and produces the report.
    pub fn finish(mut self) -> ClientReport {
        self.drain();
        self.transport.send(&ClientMessage::Bye);
        self.transport.close();
        ClientReport {
            user_id: self.user_id,
            seed: self.config.seed,
            summary: self.qoe.summary(),
            rtt: self.rtt.summary(),
            displayed_quality: self.displayed.summary(),
            assignments: self.assignments,
            protocol_errors: self.protocol_errors,
            welcomed: self.welcomed,
            link_switches: self
                .config
                .bonded
                .as_ref()
                .map(|link| link.switches())
                .unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServeConfig, Session};
    use crate::transport::loopback;
    use cvr_net::multilink::FailoverPolicy;
    use cvr_net::trace::ThroughputTrace;

    fn bonded_config(seed: u64, lte_mbps: f64) -> ClientConfig {
        // Wi-Fi: healthy, a hard 0.45 s outage, then healthy again.
        let wifi = ThroughputTrace::from_segments(vec![(0.3, 50.0), (0.45, 0.0), (9.0, 50.0)]);
        let lte = ThroughputTrace::from_segments(vec![(10.0, lte_mbps)]);
        ClientConfig {
            seed,
            bonded: Some(BondedLink::new(wifi, lte, FailoverPolicy::default())),
            ..ClientConfig::default()
        }
    }

    #[test]
    fn client_handshakes_and_accumulates_qoe_over_loopback() {
        let mut session = Session::new(ServeConfig::default());
        let (server_end, client_end) = loopback(64);
        session.add_connection(Box::new(server_end));
        let mut client = ReplayClient::new(
            client_end,
            ClientConfig {
                seed: 11,
                ..ClientConfig::default()
            },
        );
        for _ in 0..40 {
            session.step_slot();
            client.step_slot();
        }
        session.shutdown();
        let report = client.finish();
        assert!(report.welcomed);
        assert_eq!(report.user_id, 0);
        assert!(report.assignments > 30);
        assert_eq!(report.protocol_errors, 0);
        assert!(report.summary.slots > 0);
        assert!(report.summary.avg_chosen_quality >= 1.0);
        assert_eq!(report.link_switches, 0, "single-link client never switches");
    }

    #[test]
    fn bonded_client_drives_server_failover_and_recovery() {
        let mut session = Session::new(ServeConfig::default());
        let (server_end, client_end) = loopback(64);
        session.add_connection(Box::new(server_end));
        let mut client = ReplayClient::new(client_end, bonded_config(21, 20.0));
        for _ in 0..100 {
            session.step_slot();
            client.step_slot();
        }
        session.shutdown();
        let counters = session.counters();
        let report = client.finish();
        assert!(report.welcomed);
        assert_eq!(report.protocol_errors, 0);
        // The client's own bond fails over during the outage and recovers
        // once Wi-Fi holds above the recovery threshold.
        assert!(
            report.link_switches >= 2,
            "client switched {} times",
            report.link_switches
        );
        // The server's per-link EMAs replay the same story: its failover
        // policy must have moved this user to LTE and back.
        assert!(
            counters.link_switches >= 2,
            "server saw {} switches",
            counters.link_switches
        );
    }

    #[test]
    fn failover_to_starved_lte_pins_quality_degraded() {
        // The LTE fallback is below the degrade floor (2 Mbps): failing
        // over must trip the bandwidth-degraded pin, not just re-anchor.
        let mut session = Session::new(ServeConfig::default());
        let (server_end, client_end) = loopback(64);
        session.add_connection(Box::new(server_end));
        let mut client = ReplayClient::new(client_end, bonded_config(22, 1.5));
        for _ in 0..100 {
            session.step_slot();
            client.step_slot();
        }
        session.shutdown();
        let counters = session.counters();
        let report = client.finish();
        assert_eq!(report.protocol_errors, 0);
        assert!(counters.link_switches >= 1);
        assert!(
            counters.degraded_transitions >= 1,
            "starved fallback must enter the degraded state"
        );
    }
}
