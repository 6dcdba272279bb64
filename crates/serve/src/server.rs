//! The live session runtime: the part of the paper's Java edge server
//! this repo reproduces in Rust.
//!
//! A [`Session`] is the live driver of the shared [`SlotPlanner`] — the
//! same planner the simulators drive — plus a registry of connected
//! users. Every 15 ms slot it runs the paper's control loop against real
//! transports:
//!
//! 1. **ingest** — drain every connection's upstream queue: handshakes
//!    join users, poses feed the per-user predictor (and score earlier
//!    predictions), ACKs update the delivery ledger, bandwidth samples
//!    feed the EMA estimator. A frame that does not decode, or an ACK or
//!    release naming a tile the library does not hold, costs its sender
//!    the connection and nobody else anything.
//! 2. **plan** — predict each user's display pose and link budget, hand
//!    them to the planner (ledger-suppressed rates, estimated-delay and
//!    variance-penalised values, one staged row per multicast group),
//!    solve with the density/value greedy, and run the prefetch step.
//! 3. **transmit** — walk the planner's rows: a one-member row gets its
//!    `Assignment` with the manifest of tiles this slot actually
//!    transmits, a shared row one fanned-out `GroupAssign` per delivered
//!    quality. Slow clients (saturated or stalled outbound queues) are
//!    *degraded* to the lowest quality instead of being allowed to stall
//!    the tick.
//!
//! The ledger only marks tiles delivered when the client ACKs them —
//! exactly the retransmission-suppression protocol of Section V.

use std::collections::VecDeque;
use std::mem;
use std::ops::Range;
use std::time::{Duration, Instant};

use cvr_content::id::VideoId;
use cvr_content::library::ContentLibrary;
use cvr_content::tile::{tile_mask, TileId};
use cvr_core::delay::{DelayModel, Mm1Delay};
use cvr_core::objective::{h_at_delay, QoeParams};
use cvr_core::qoe::{UserQoeAccumulator, UserQoeSummary};
use cvr_core::quality::QualityLevel;
use cvr_core::stage::CONTROL_OVERHEAD_MBPS;
use cvr_motion::accuracy::DeltaEstimator;
use cvr_motion::pose::Pose;
use cvr_motion::predict::LinearPredictor;
use cvr_net::estimate::EmaEstimator;
use cvr_net::multilink::{FailoverPolicy, LinkId};
use cvr_obs::registry::{CounterId, GaugeId, GaugeMerge, HistogramId};
use cvr_obs::{latency_bounds_ns, Registry, StageStats, TraceEvent, Tracer};
use cvr_sim::pipeline::{SlotPlanner, DELAY_CAP_SLOTS, PIPELINE_SLOTS, PROPAGATION_S};

use crate::protocol::{ClientMessage, ServerMessage, PROTOCOL_VERSION};
use crate::transport::{SendStatus, ServerTransport};

/// Most prediction records kept per user awaiting their scoring pose.
const MAX_PENDING_PREDICTIONS: usize = 64;

/// Slots a connection may stay silent before its `Hello` (400 slots ≈ 6 s
/// at 15 ms); past it the connection is closed and counted as a protocol
/// error.
const HANDSHAKE_DEADLINE_SLOTS: u64 = 400;

/// EMA weight of the per-link estimators fed by bonded clients'
/// `LinkSample`s. Deliberately faster than [`ServeConfig::ema_weight`]:
/// the failover decision must see an outage within a handful of samples,
/// while the planning estimate stays smooth.
const LINK_EMA_WEIGHT: f64 = 0.3;

/// Failover/recovery policy run over the per-link estimates — the same
/// policy the simulator's bonded links use.
const FAILOVER: FailoverPolicy = FailoverPolicy::DEFAULT;

/// When a bonded user's planning estimate falls below this floor (Mbps),
/// the user is pinned to the lowest quality until the estimate recovers
/// past twice the floor — the bandwidth analogue of the slow-client
/// backpressure degrade.
const DEGRADE_FLOOR_MBPS: f64 = 2.0;

/// Configuration of a live session.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Slot period (the paper's Δt; 15 ms ≈ a 60 FPS budget with decode
    /// margin).
    pub slot_duration: Duration,
    /// Server uplink limit, Mbps.
    pub server_total_mbps: f64,
    /// Per-user bandwidth assumed before the first sample arrives, Mbps.
    pub default_bandwidth_mbps: f64,
    /// EMA weight of the per-user bandwidth estimator.
    pub ema_weight: f64,
    /// Per-connection outbound queue capacity, frames.
    pub outbound_queue_frames: usize,
    /// Most users the session admits; later Hellos are refused.
    pub max_users: usize,
    /// Enables shared-FoV multicast: co-located users whose
    /// undelivered tile state is byte-identical share one staged engine
    /// row and receive one fanned-out `GroupAssign` frame. Off by
    /// default. The flag selects no code: it only decides whether a user
    /// is *eligible* for grouping. An ineligible user (flag off or
    /// degraded) is staged as a one-member row, which is the per-user row
    /// bit for bit, and is sent a plain `Assignment`.
    pub multicast: bool,
    /// Slots a multicast group key keeps its id after it was last seen
    /// (FoV-jitter hysteresis; membership itself is re-derived every
    /// slot).
    pub mcast_hysteresis_slots: u64,
    /// Lookahead horizon H in slots. `1` is the paper's myopic per-slot
    /// planner: the same planning path runs, but its `1..H` prefetch loop
    /// is empty and the budget clamp returns its input, so the session is
    /// bit-identical to the pre-lookahead runtime (pinned by
    /// `tests/golden_fingerprints.rs`). At `H > 1` per-user anticipatory
    /// degrade clamps the planning bandwidth estimate ahead of
    /// fitted-trend dips, budget slack prefetches predicted future-cell
    /// tiles (they ride the outgoing assignment manifests, so the ledger
    /// charges them only when the client ACKs — unlike the simulator,
    /// which models the push as delivered), and
    /// `cvr_lookahead_fov_overlap{h="…"}` histograms score prediction
    /// accuracy per horizon step.
    pub horizon: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            slot_duration: Duration::from_millis(15),
            server_total_mbps: 400.0,
            default_bandwidth_mbps: 50.0,
            ema_weight: 0.05,
            outbound_queue_frames: 64,
            max_users: 16,
            multicast: false,
            mcast_hysteresis_slots: 8,
            horizon: 1,
        }
    }
}

/// The session's metric series and tracer: one registry owned by the
/// session (no locks — live exposition reads rendered snapshots, see
/// [`crate::expose::MetricsExporter`]), with handles resolved once at
/// construction so every hot-path update is a single indexed add.
struct SessionObs {
    registry: Registry,
    tracer: Tracer,
    h_ingest: HistogramId,
    h_build: HistogramId,
    h_density_pass: HistogramId,
    h_value_pass: HistogramId,
    h_prefetch: HistogramId,
    h_transmit: HistogramId,
    h_tick: HistogramId,
    c_ticks: CounterId,
    c_on_time: CounterId,
    c_overruns: CounterId,
    c_joins: CounterId,
    c_leaves: CounterId,
    c_proto: CounterId,
    c_dropped: CounterId,
    c_degraded: CounterId,
    c_link_switches: CounterId,
    c_sent_bits: CounterId,
    c_budget_contended: CounterId,
    g_clients: GaugeId,
    g_queue_depth: GaugeId,
    g_slot: GaugeId,
    g_mcast_groups: GaugeId,
    /// Entry `h − 1` is the `cvr_lookahead_fov_overlap{h="h"}` histogram
    /// for lookahead step `h ∈ 1..horizon`; empty at `horizon = 1`.
    h_overlap: Vec<HistogramId>,
}

impl SessionObs {
    fn new(horizon: usize) -> Self {
        let mut r = Registry::new();
        let bounds = latency_bounds_ns();
        let stage = |r: &mut Registry, name: &str| {
            r.histogram(
                "cvr_slot_stage_ns",
                &format!("stage=\"{name}\""),
                "Per-slot latency of each pipeline stage, nanoseconds",
                &bounds,
            )
        };
        let h_ingest = stage(&mut r, "ingest");
        let h_build = stage(&mut r, "build");
        let h_density_pass = stage(&mut r, "density");
        let h_value_pass = stage(&mut r, "value");
        let h_prefetch = stage(&mut r, "prefetch");
        let h_transmit = stage(&mut r, "transmit");
        let h_tick = stage(&mut r, "tick");
        let c_ticks = r.counter("cvr_ticks_total", "", "Slots executed");
        let c_on_time = r.counter("cvr_on_time_ticks_total", "", "Slots that met the deadline");
        let c_overruns = r.counter(
            "cvr_tick_overruns_total",
            "",
            "Slots whose work ran past the period",
        );
        let c_joins = r.counter("cvr_session_joins_total", "", "Users admitted");
        let c_leaves = r.counter("cvr_session_leaves_total", "", "Users departed");
        let c_proto = r.counter(
            "cvr_protocol_errors_total",
            "",
            "Corrupt frames, version mismatches, out-of-order handshakes",
        );
        let c_dropped = r.counter(
            "cvr_frames_dropped_total",
            "",
            "Frames discarded by outbound backpressure",
        );
        let c_degraded = r.counter(
            "cvr_degraded_transitions_total",
            "",
            "Times a user entered the degraded state",
        );
        let c_link_switches = r.counter(
            "cvr_link_switches_total",
            "",
            "Bonded-link failovers across all users",
        );
        let c_sent_bits = r.counter(
            "cvr_sent_bits_total",
            "",
            "Bits of the frames transmit encoded (rate x slot); a shared payload counts once",
        );
        let c_budget_contended = r.counter(
            "cvr_slot_budget_contended_total",
            "",
            "Slots whose greedy passes could reach the server budget (6)",
        );
        let g_clients = r.gauge(
            "cvr_session_clients",
            "",
            "Users currently joined",
            GaugeMerge::Sum,
        );
        let g_queue_depth = r.gauge(
            "cvr_outbound_queue_depth_max",
            "",
            "Deepest outbound queue observed on any connection",
            GaugeMerge::Max,
        );
        let g_slot = r.gauge(
            "cvr_session_slot",
            "",
            "Current slot index",
            GaugeMerge::Max,
        );
        let g_mcast_groups = r.gauge(
            "cvr_mcast_groups",
            "",
            "Multicast groups (two or more members) formed in the last planned slot",
            GaugeMerge::Sum,
        );
        let overlap_bounds: Vec<u64> = (0..=TileId::COUNT as u64).collect();
        let h_overlap: Vec<HistogramId> = (1..horizon.max(1))
            .map(|h| {
                r.histogram(
                    "cvr_lookahead_fov_overlap",
                    &format!("h=\"{h}\""),
                    "Predicted-vs-actual FoV tile overlap (tiles shared, 0..=4) \
                     per lookahead horizon step",
                    &overlap_bounds,
                )
            })
            .collect();
        SessionObs {
            registry: r,
            tracer: Tracer::disabled(),
            h_ingest,
            h_build,
            h_density_pass,
            h_value_pass,
            h_prefetch,
            h_transmit,
            h_tick,
            c_ticks,
            c_on_time,
            c_overruns,
            c_joins,
            c_leaves,
            c_proto,
            c_dropped,
            c_degraded,
            c_link_switches,
            c_sent_bits,
            c_budget_contended,
            g_clients,
            g_queue_depth,
            g_slot,
            g_mcast_groups,
            h_overlap,
        }
    }

    /// Counts one encoded frame's `rate_mbps × slot_s` on the wire.
    fn sent(&mut self, rate_mbps: f64, slot_s: f64) {
        self.registry
            .inc(self.c_sent_bits, (rate_mbps * slot_s * 1e6).round() as u64);
    }

    /// Counts one protocol error and traces where it was met.
    fn protocol_error(&mut self, context: &'static str) {
        self.registry.inc(self.c_proto, 1);
        self.tracer.record(TraceEvent::ProtocolError { context });
    }

    fn stage(&mut self, id: HistogramId, slot: u64, name: &'static str, ns: u64) {
        self.registry.observe(id, ns);
        self.tracer.record(TraceEvent::Stage {
            slot,
            stage: name,
            ns,
        });
    }
}

/// A prediction awaiting the actual pose that scores it.
#[derive(Debug, Clone, Copy)]
struct PredictionRecord {
    /// The client pose sequence this prediction targeted.
    target_seq: u64,
    predicted: Pose,
    quality: QualityLevel,
    delay_slots: f64,
}

/// A lookahead FoV prediction awaiting the pose that scores its tile
/// overlap (the `cvr_lookahead_fov_overlap{h="…"}` series).
#[derive(Debug, Clone, Copy)]
struct FovPredictionRecord {
    /// The client pose sequence this prediction targeted.
    target_seq: u64,
    /// Lookahead step, `1..horizon` slots past the display slot.
    h: usize,
    /// Predicted visible tile set, as its [`tile_mask`].
    tiles: u8,
}

/// Takes the manifest buffer back out of a sent `Assignment` or
/// `GroupAssign`, for [`Session::transmit`] to fill again.
fn reclaim_manifest(message: ServerMessage) -> Vec<VideoId> {
    match message {
        ServerMessage::Assignment { manifest, .. }
        | ServerMessage::GroupAssign { manifest, .. } => manifest,
        ServerMessage::Welcome { .. } | ServerMessage::Shutdown => Vec::new(),
    }
}

/// Per-user server-side state.
struct UserState {
    /// Session-unique user ID, assigned monotonically at join — never
    /// reused after a departure, unlike the registry slot holding this
    /// state.
    user_id: u32,
    transport: Box<dyn ServerTransport>,
    predictor: LinearPredictor,
    delta: DeltaEstimator,
    bandwidth: EmaEstimator,
    qoe: UserQoeAccumulator,
    last_pose: Pose,
    last_pose_seq: u64,
    has_pose: bool,
    /// Slots since the freshest pose arrived.
    staleness_slots: usize,
    predictions: VecDeque<PredictionRecord>,
    /// Degraded users are pinned to the lowest quality until their
    /// outbound queue drains — the slow-client policy.
    degraded: bool,
    /// Times this user *entered* the degraded state (recoveries reset the
    /// flag but not this count).
    degrade_transitions: u64,
    /// Per-radio estimators fed by `LinkSample`s (bonded clients only);
    /// faster weight than the planning EMA so outages surface quickly.
    wifi_bw: EmaEstimator,
    lte_bw: EmaEstimator,
    /// Link the failover policy currently routes this user over.
    active_link: LinkId,
    /// Recovery streak carried between failover decisions.
    link_streak: u32,
    /// Failovers this user has performed.
    link_switches: u64,
    /// Set once the first `LinkSample` arrives: this user is bonded.
    multilink: bool,
    /// Bandwidth-floor degrade, held separately from the backpressure
    /// `degraded` flag so queue recovery cannot clear a starvation pin.
    bw_degraded: bool,
    /// Lookahead FoV predictions awaiting their scoring pose.
    fov_predictions: VecDeque<FovPredictionRecord>,
    seed: u64,
}

impl UserState {
    fn new(
        user_id: u32,
        transport: Box<dyn ServerTransport>,
        config: &ServeConfig,
        seed: u64,
    ) -> Self {
        UserState {
            user_id,
            transport,
            predictor: LinearPredictor::paper_default(),
            delta: DeltaEstimator::ewma(1.0, 0.02),
            bandwidth: EmaEstimator::new(config.ema_weight),
            qoe: UserQoeAccumulator::new(QoeParams::system_default()),
            last_pose: Pose::default(),
            last_pose_seq: 0,
            has_pose: false,
            staleness_slots: 0,
            predictions: VecDeque::new(),
            degraded: false,
            degrade_transitions: 0,
            wifi_bw: EmaEstimator::new(LINK_EMA_WEIGHT),
            lte_bw: EmaEstimator::new(LINK_EMA_WEIGHT),
            active_link: LinkId::Wifi,
            link_streak: 0,
            link_switches: 0,
            multilink: false,
            bw_degraded: false,
            fov_predictions: VecDeque::new(),
            seed,
        }
    }
}

/// The two reasons a user is pinned to the lowest quality.
#[derive(Debug, Clone, Copy)]
enum Pin {
    /// The outbound queue is dropping frames or its writer has stalled.
    Backpressure,
    /// A bonded user's bandwidth estimate fell below the floor.
    Bandwidth,
}

impl UserState {
    /// Sets or clears one degrade pin. Setting it counts a transition
    /// (per user and in `cvr_degraded_transitions_total`); every flip
    /// traces a `Degrade` event.
    fn set_pin(&mut self, pin: Pin, on: bool, obs: &mut SessionObs) {
        let flag = match pin {
            Pin::Backpressure => &mut self.degraded,
            Pin::Bandwidth => &mut self.bw_degraded,
        };
        if *flag == on {
            return;
        }
        *flag = on;
        if on {
            self.degrade_transitions += 1;
            obs.registry.inc(obs.c_degraded, 1);
        }
        obs.tracer.record(TraceEvent::Degrade {
            user_id: self.user_id as u64,
            degraded: on,
        });
    }
}

/// A snapshot of one session's lifecycle counters, read out of its
/// metrics registry (the only place they are kept) by
/// [`Session::counters`] and [`Session::report`].
#[derive(Debug, Default, Clone)]
pub struct ServerCounters {
    /// Slots executed.
    pub ticks: u64,
    /// Slots whose work met the deadline.
    pub on_time_ticks: u64,
    /// Slots whose work ran past the period (deadline misses).
    pub tick_overruns: u64,
    /// Users admitted over the session lifetime.
    pub joins: u64,
    /// Users departed (Bye, close, or protocol error).
    pub leaves: u64,
    /// Corrupt frames, version mismatches, and out-of-order handshakes.
    pub protocol_errors: u64,
    /// Frames discarded by outbound backpressure across all users.
    pub frames_dropped: u64,
    /// Times a user entered the degraded (lowest-quality) state.
    pub degraded_transitions: u64,
    /// Bonded-link failovers across all users.
    pub link_switches: u64,
    /// Σ `rate_mbps × slot` over the frames transmit encoded, in bits;
    /// a `GroupAssign` payload counts once per delivered quality, not
    /// once per member.
    pub sent_bits: u64,
    /// Slots whose greedy passes could reach the server budget (6), i.e.
    /// ran the engine's heap pass ([`cvr_core::engine::SlotEngine::budget_contended`]).
    pub budget_contended: u64,
    /// Deepest outbound queue observed on any connection.
    pub max_outbound_queue_depth: usize,
}

/// What one departed (or still-connected, at report time) user looked
/// like from the server side.
#[derive(Debug, Clone, PartialEq)]
pub struct UserServerSummary {
    /// The user's session ID.
    pub user_id: u32,
    /// The seed the client announced in its Hello.
    pub seed: u64,
    /// Server-side QoE bookkeeping (scored against ACKed poses).
    pub qoe: UserQoeSummary,
    /// Final prediction-accuracy estimate δ.
    pub delta: f64,
    /// Final bandwidth estimate, Mbps.
    pub bandwidth_mbps: f64,
    /// Frames this user's outbound queue discarded under backpressure.
    pub frames_dropped: u64,
    /// Times this user entered the degraded (lowest-quality) state.
    pub degrade_transitions: u64,
    /// Bonded-link failovers this user performed (0 for single-link
    /// clients).
    pub link_switches: u64,
}

/// End-of-run session report: counters plus per-stage timing summaries.
/// Every summary is read from the stage's `cvr_slot_stage_ns` histogram:
/// count, total and mean are exact, the quantiles are bucket-interpolated.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Final counter values.
    pub counters: ServerCounters,
    /// Ingest-stage timing per slot.
    pub ingest: StageStats,
    /// Transmit-stage timing per slot.
    pub transmit: StageStats,
    /// Engine problem-build timing per slot.
    pub build: StageStats,
    /// Engine density-pass timing per slot.
    pub density: StageStats,
    /// Engine value-pass timing per slot.
    pub value: StageStats,
    /// Planner prefetch-step timing per slot (near zero at `horizon = 1`,
    /// where the step has no future slots to walk).
    pub prefetch: StageStats,
    /// Whole-slot work timing (from the ticker).
    pub tick: StageStats,
    /// Per-user server-side summaries, in join order.
    pub users: Vec<UserServerSummary>,
}

impl ServeReport {
    /// Fraction of slots that met the deadline (1.0 before any tick).
    pub fn on_time_fraction(&self) -> f64 {
        if self.counters.ticks == 0 {
            1.0
        } else {
            self.counters.on_time_ticks as f64 / self.counters.ticks as f64
        }
    }
}

/// One live session: a registry of users driven through
/// ingest → plan → transmit each slot by one shared [`SlotPlanner`].
pub struct Session {
    config: ServeConfig,
    /// The planning half of the slot loop (engine, data plane, group
    /// discovery, lookahead, per-user ledgers), shared with the
    /// simulators. Its user slab is indexed like `users`.
    planner: SlotPlanner,
    users: Vec<Option<UserState>>,
    /// Connections awaiting their `Hello`, each with the slot it arrived
    /// in, in arrival order.
    pending: Vec<(u64, Box<dyn ServerTransport>)>,
    departed: Vec<UserServerSummary>,
    /// Next user ID to hand out; IDs are never reused even when registry
    /// slots are, so report summaries stay unambiguous across churn.
    next_user_id: u32,
    slot: u64,
    obs: SessionObs,
    // Reused per-slot scratch, plan order.
    plan_ids: Vec<usize>,
    plan_predicted: Vec<Pose>,
    /// Whether the user may prefetch this slot (has a pose, not degraded).
    plan_prefetchable: Vec<bool>,
    manifest: Vec<VideoId>,
    /// One shared row's encoded `GroupAssign` payloads, concatenated, with
    /// `(quality index, byte span)` per payload.
    payload: Vec<u8>,
    payload_spans: Vec<(usize, Range<usize>)>,
}

impl Session {
    /// Creates an empty session over the paper-default content library.
    pub fn new(config: ServeConfig) -> Self {
        let planner = SlotPlanner::new(
            ContentLibrary::paper_default(),
            config.horizon,
            config.mcast_hysteresis_slots,
        );
        let obs = SessionObs::new(planner.horizon());
        Session {
            config,
            planner,
            users: Vec::new(),
            pending: Vec::new(),
            departed: Vec::new(),
            next_user_id: 0,
            slot: 0,
            obs,
            plan_ids: Vec::new(),
            plan_predicted: Vec::new(),
            plan_prefetchable: Vec::new(),
            manifest: Vec::new(),
            payload: Vec::new(),
            payload_spans: Vec::new(),
        }
    }

    /// The session configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Registers a freshly accepted connection; the user joins once its
    /// `Hello` arrives.
    pub fn add_connection(&mut self, transport: Box<dyn ServerTransport>) {
        self.pending.push((self.slot, transport));
    }

    /// Users currently joined.
    pub fn active_users(&self) -> usize {
        self.users.iter().filter(|u| u.is_some()).count()
    }

    /// Slots executed so far.
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// Live counter values, as the registry holds them.
    pub fn counters(&self) -> ServerCounters {
        let obs = &self.obs;
        let count = |id| obs.registry.counter_value(id);
        ServerCounters {
            ticks: count(obs.c_ticks),
            on_time_ticks: count(obs.c_on_time),
            tick_overruns: count(obs.c_overruns),
            joins: count(obs.c_joins),
            leaves: count(obs.c_leaves),
            protocol_errors: count(obs.c_proto),
            frames_dropped: count(obs.c_dropped),
            degraded_transitions: count(obs.c_degraded),
            link_switches: count(obs.c_link_switches),
            sent_bits: count(obs.c_sent_bits),
            budget_contended: count(obs.c_budget_contended),
            max_outbound_queue_depth: obs.registry.gauge_value(obs.g_queue_depth) as usize,
        }
    }

    /// The session's metrics registry (stage histograms, lifecycle
    /// counters, client gauges).
    pub fn metrics(&self) -> &Registry {
        &self.obs.registry
    }

    /// Refreshes the instantaneous gauges (joined clients, current slot,
    /// multicast groups) so a read of [`Session::metrics`] — or a merge
    /// into a multi-session snapshot (see [`crate::shard::ShardHost`]) —
    /// sees current values, not the values at the last render. The
    /// deepest-queue gauge is a running maximum kept current by every
    /// send.
    pub fn sync_gauges(&mut self) {
        let clients = self.active_users() as i64;
        self.obs.registry.set_gauge(self.obs.g_clients, clients);
        self.obs
            .registry
            .set_gauge(self.obs.g_slot, self.slot as i64);
        self.obs
            .registry
            .set_gauge(self.obs.g_mcast_groups, self.multicast_groups() as i64);
    }

    /// Multicast groups (two or more members) formed in the last planned
    /// slot — the value behind the `cvr_mcast_groups` gauge. Always 0
    /// when multicast is off (nobody is eligible for grouping).
    pub fn multicast_groups(&self) -> usize {
        self.planner.multicast_groups()
    }

    /// Refreshes the instantaneous gauges and renders the registry in the
    /// Prometheus text exposition format — the payload the
    /// [`crate::expose::MetricsExporter`] publishes.
    pub fn render_metrics(&mut self) -> String {
        self.sync_gauges();
        self.obs.registry.render()
    }

    /// Enables event tracing with a ring of at most `capacity` records
    /// (stage timings sampled 1-in-16 to bound the volume; lifecycle
    /// events are kept unsampled). `capacity = 0` disables tracing.
    pub fn enable_tracing(&mut self, capacity: usize) {
        let mut tracer = if capacity == 0 {
            Tracer::disabled()
        } else {
            Tracer::with_capacity(capacity)
        };
        tracer.set_sample_every(cvr_obs::trace::EventKind::Stage, 16);
        self.obs.tracer = tracer;
    }

    /// The event tracer (see [`Session::enable_tracing`]); export with
    /// [`Tracer::to_jsonl`].
    pub fn tracer(&self) -> &Tracer {
        &self.obs.tracer
    }

    /// Executes one slot: ingest → plan → transmit. Does not pace or
    /// account for deadlines — callers own the clock (see
    /// [`crate::shard::ShardHost::run_realtime`] and
    /// [`Session::note_tick`]).
    pub fn step_slot(&mut self) {
        self.obs
            .tracer
            .record(TraceEvent::SlotStart { slot: self.slot });

        let ingest_start = Instant::now();
        self.admit_pending();
        self.ingest();
        let build_start = Instant::now();
        let ingest_ns = (build_start - ingest_start).as_nanos() as u64;
        self.obs
            .stage(self.obs.h_ingest, self.slot, "ingest", ingest_ns);

        let transmit_start = self.plan(build_start);

        self.transmit();
        let transmit_ns = transmit_start.elapsed().as_nanos() as u64;
        self.obs
            .stage(self.obs.h_transmit, self.slot, "transmit", transmit_ns);

        self.slot += 1;
    }

    /// Records one completed slot's deadline outcome and work duration.
    /// [`crate::shard::ShardHost::run_realtime`] calls this with its
    /// shard ticker's verdict; lockstep harnesses call it directly with
    /// `on_time = true`.
    pub fn note_tick(&mut self, on_time: bool, work_ns: u64) {
        self.obs.registry.inc(self.obs.c_ticks, 1);
        // The slot counter has already advanced past the completed slot.
        let slot = self.slot.saturating_sub(1);
        if on_time {
            self.obs.registry.inc(self.obs.c_on_time, 1);
        } else {
            self.obs.registry.inc(self.obs.c_overruns, 1);
            self.obs
                .tracer
                .record(TraceEvent::TickOverrun { slot, work_ns });
        }
        self.obs.registry.observe(self.obs.h_tick, work_ns);
        self.obs.tracer.record(TraceEvent::SlotEnd {
            slot,
            work_ns,
            on_time,
        });
    }

    /// Sends every connected user a `Shutdown` and closes the transports.
    pub fn shutdown(&mut self) {
        for id in 0..self.users.len() {
            if let Some(mut user) = self.users[id].take() {
                user.transport.send(&ServerMessage::Shutdown);
                self.depart(id, user);
            }
        }
        for (_, mut t) in self.pending.drain(..) {
            t.close();
        }
    }

    /// Retires a user taken out of its registry slot: the planner forgets
    /// it, the transport closes, and its summary joins the report.
    fn depart(&mut self, id: usize, mut user: UserState) {
        self.planner.leave(id);
        user.transport.close();
        self.obs.tracer.record(TraceEvent::ClientLeave {
            user_id: user.user_id as u64,
        });
        self.departed.push(Self::summarise(&user));
        self.obs.registry.inc(self.obs.c_leaves, 1);
    }

    /// Builds the end-of-run report. Still-connected users are summarised
    /// in place; call [`Session::shutdown`] first for a final report.
    pub fn report(&mut self) -> ServeReport {
        let mut users = self.departed.clone();
        for user in self.users.iter().flatten() {
            users.push(Self::summarise(user));
        }
        users.sort_by_key(|u| u.user_id);
        let stage = |id| StageStats::from_histogram(self.obs.registry.histogram_value(id));
        ServeReport {
            counters: self.counters(),
            ingest: stage(self.obs.h_ingest),
            transmit: stage(self.obs.h_transmit),
            build: stage(self.obs.h_build),
            density: stage(self.obs.h_density_pass),
            value: stage(self.obs.h_value_pass),
            prefetch: stage(self.obs.h_prefetch),
            tick: stage(self.obs.h_tick),
            users,
        }
    }

    fn summarise(user: &UserState) -> UserServerSummary {
        UserServerSummary {
            user_id: user.user_id,
            seed: user.seed,
            qoe: user.qoe.summary(),
            delta: user.delta.estimate(),
            bandwidth_mbps: user.bandwidth.estimate().unwrap_or(f64::NAN),
            frames_dropped: user.transport.frames_dropped(),
            degrade_transitions: user.degrade_transitions,
            link_switches: user.link_switches,
        }
    }

    /// Drains pending connections: a valid `Hello` joins the user, a
    /// protocol violation refuses the connection, and a connection that
    /// has not spoken yet stays pending (in arrival order) until the
    /// handshake deadline closes it.
    fn admit_pending(&mut self) {
        for (arrived, mut transport) in std::mem::take(&mut self.pending) {
            if transport.is_closed() {
                continue;
            }
            match transport.try_recv() {
                None if self.slot - arrived >= HANDSHAKE_DEADLINE_SLOTS => {
                    self.obs.protocol_error("handshake-timeout");
                    transport.close();
                }
                None => self.pending.push((arrived, transport)),
                Some(Ok(ClientMessage::Hello { version, seed })) => {
                    let speaks_v3 = version == PROTOCOL_VERSION;
                    if speaks_v3 && self.active_users() < self.config.max_users {
                        self.join(transport, seed);
                        continue;
                    }
                    if !speaks_v3 {
                        self.obs.protocol_error("handshake");
                    }
                    transport.send(&ServerMessage::Shutdown);
                    transport.close();
                }
                Some(_) => {
                    // Anything else before the handshake is a violation.
                    self.obs.protocol_error("pre-handshake");
                    transport.close();
                }
            }
        }
    }

    fn join(&mut self, mut transport: Box<dyn ServerTransport>, seed: u64) {
        let slot = match self.users.iter().position(|u| u.is_none()) {
            Some(free) => free,
            None => {
                self.users.push(None);
                self.users.len() - 1
            }
        };
        let user_id = self.next_user_id;
        self.next_user_id += 1;
        transport.send(&ServerMessage::Welcome {
            version: PROTOCOL_VERSION,
            user_id,
            slot_us: self
                .config
                .slot_duration
                .as_micros()
                .min(u64::from(u32::MAX) as u128) as u32,
            levels: self.planner.library().quality_set().len() as u8,
        });
        self.planner.join(slot);
        self.users[slot] = Some(UserState::new(user_id, transport, &self.config, seed));
        self.obs.registry.inc(self.obs.c_joins, 1);
        self.obs.tracer.record(TraceEvent::ClientJoin {
            user_id: user_id as u64,
        });
    }

    /// Drains every joined user's upstream queue. The user's state is
    /// borrowed in place; it leaves its slot only to depart.
    fn ingest(&mut self) {
        for id in 0..self.users.len() {
            let Some(user) = self.users[id].as_mut() else {
                continue;
            };
            let mut leave = false;
            let mut violation = false;
            while let Some(received) = user.transport.try_recv() {
                match received {
                    Ok(ClientMessage::Pose { seq, pose }) => {
                        user.predictor.observe(&pose);
                        user.last_pose = pose;
                        user.last_pose_seq = seq;
                        user.has_pose = true;
                        user.staleness_slots = 0;
                        // Score every prediction this pose (or an earlier,
                        // missed one) was targeting.
                        while let Some(record) =
                            user.predictions.pop_front_if(|p| p.target_seq <= seq)
                        {
                            let fov = self.planner.library().fov();
                            let hit = fov.covers(&record.predicted, &pose);
                            user.delta.record(hit);
                            user.qoe.record(record.quality, hit, record.delay_slots);
                        }
                        // Score lookahead FoV predictions the same way,
                        // against this pose's tile mask — computed once,
                        // however many records mature on it.
                        let mut actual_mask = None;
                        while let Some(record) =
                            user.fov_predictions.pop_front_if(|p| p.target_seq <= seq)
                        {
                            let actual = *actual_mask.get_or_insert_with(|| {
                                tile_mask(self.planner.library().fov(), &pose)
                            });
                            let overlap = (record.tiles & actual).count_ones();
                            self.obs
                                .registry
                                .observe(self.obs.h_overlap[record.h - 1], overlap as u64);
                        }
                    }
                    // An id that decodes can still name content the
                    // library does not hold; recording those would let a
                    // peer grow its ledger without bound.
                    Ok(ClientMessage::Ack { ids }) if self.planner.library().contains_all(&ids) => {
                        self.planner.acknowledge(id, ids)
                    }
                    Ok(ClientMessage::Release { ids })
                        if self.planner.library().contains_all(&ids) =>
                    {
                        self.planner.release(id, ids)
                    }
                    Ok(ClientMessage::BandwidthSample { mbps }) => {
                        user.bandwidth.update(mbps);
                    }
                    Ok(ClientMessage::LinkSample { link, mbps }) => {
                        user.multilink = true;
                        match link {
                            LinkId::Wifi => user.wifi_bw.update(mbps),
                            LinkId::Lte => user.lte_bw.update(mbps),
                        };
                        let wifi = user.wifi_bw.estimate_or(0.0);
                        let lte = user.lte_bw.estimate_or(0.0);
                        let before = user.active_link;
                        let (active, streak) = FAILOVER.next(before, wifi, lte, user.link_streak);
                        user.active_link = active;
                        user.link_streak = streak;
                        if active != before {
                            // Failover: re-anchor the planning estimator
                            // on the radio now carrying traffic so the
                            // next slot budgets against it immediately
                            // instead of bleeding the old link's history
                            // through the slow EMA.
                            user.link_switches += 1;
                            self.obs.registry.inc(self.obs.c_link_switches, 1);
                            user.bandwidth.reset();
                            user.bandwidth.update(match active {
                                LinkId::Wifi => wifi,
                                LinkId::Lte => lte,
                            });
                        } else if link == active {
                            user.bandwidth.update(mbps);
                        }
                    }
                    Ok(ClientMessage::Bye) => {
                        leave = true;
                    }
                    // A duplicate handshake mid-session, ids outside the
                    // library, an undecodable frame.
                    Ok(
                        ClientMessage::Hello { .. }
                        | ClientMessage::Ack { .. }
                        | ClientMessage::Release { .. },
                    )
                    | Err(_) => {
                        violation = true;
                    }
                }
                if leave || violation {
                    break;
                }
            }
            if violation {
                self.obs.protocol_error("ingest");
                leave = true;
            }
            if leave || user.transport.is_closed() {
                let user = self.users[id].take().expect("ingested above");
                self.depart(id, user);
            }
        }
    }

    /// Plans this slot through the shared planner: per user, the display
    /// pose prediction, the link budget and the grouping eligibility; then
    /// the planner's staged problem (this session's M/M/1 value formula),
    /// the solve, and the prefetch step. Returns when prefetch ended.
    fn plan(&mut self, build_start: Instant) -> Instant {
        self.plan_ids.clear();
        self.plan_predicted.clear();
        self.plan_prefetchable.clear();

        let dt = self.config.slot_duration.as_secs_f64();
        let floor_slots = PROPAGATION_S / dt;

        self.planner
            .begin_slot(self.slot, self.config.server_total_mbps);
        for id in 0..self.users.len() {
            let Some(user) = &mut self.users[id] else {
                continue;
            };
            // Predict the pose this slot's content will be displayed
            // against: pipeline depth plus however stale the freshest
            // upload already is.
            let horizon = (PIPELINE_SLOTS + user.staleness_slots) as f64;
            let predicted = user
                .predictor
                .predict_fractional(horizon)
                .unwrap_or(user.last_pose);

            let bn = user
                .bandwidth
                .estimate_or(self.config.default_bandwidth_mbps)
                .max(1.0);
            // Bandwidth-floor degrade for bonded users: starving links pin
            // the user to the lowest quality; recovery needs 2× the floor
            // (hysteresis) so a flapping radio cannot oscillate quality.
            if user.multilink {
                if bn < DEGRADE_FLOOR_MBPS {
                    user.set_pin(Pin::Bandwidth, true, &mut self.obs);
                } else if bn > 2.0 * DEGRADE_FLOOR_MBPS {
                    user.set_pin(Pin::Bandwidth, false, &mut self.obs);
                }
            }
            // Anticipatory degrade: the planner clamps the planning
            // estimate toward the fitted-trend forecast so quality ramps
            // down ahead of a dip instead of cliff-dropping when the EMA
            // catches up (the identity at `horizon = 1`). The floor
            // hysteresis above keeps reading the raw estimate — a clamp
            // must not pin a user.
            let bn = self.planner.clamp_budget(id, bn).max(1.0);
            // Multicast group eligibility: a non-degraded user of a
            // multicast session. Everyone else is staged alone.
            let pinned = user.degraded || user.bw_degraded;
            let groupable = self.config.multicast && !pinned;
            self.planner.push_user(id, &predicted, bn, groupable);
            self.plan_ids.push(id);
            self.plan_predicted.push(predicted);
            self.plan_prefetchable.push(user.has_pose && !pinned);
        }

        let params = QoeParams::system_default();
        let (users, plan_ids) = (&self.users, &self.plan_ids);
        self.planner.stage(CONTROL_OVERHEAD_MBPS, |i, bn| {
            let user = users[plan_ids[i]].as_ref().expect("planned this slot");
            let delta = user.delta.estimate();
            let tracker = *user.qoe.tracker();
            let fallback = Mm1Delay::new(bn).expect("positive estimate");
            move |l, raw| {
                let q = QualityLevel::new((l + 1) as u8);
                let delay = fallback.delay(raw) + floor_slots;
                h_at_delay(params, delta, &tracker, q, delay)
            }
        });
        let build_ns = build_start.elapsed().as_nanos() as u64;
        self.obs
            .stage(self.obs.h_build, self.slot, "build", build_ns);

        if !self.plan_ids.is_empty() {
            let engine = self.planner.engine_mut();
            engine.solve();
            let (density_ns, value_ns) = (engine.density_ns(), engine.value_ns());
            if engine.budget_contended() {
                self.obs.registry.inc(self.obs.c_budget_contended, 1);
            }
            self.obs
                .stage(self.obs.h_density_pass, self.slot, "density", density_ns);
            self.obs
                .stage(self.obs.h_value_pass, self.slot, "value", value_ns);
        }

        // Prefetch step. The planner reconciles and spends the credit;
        // what stays a serve concern is the predictor and the
        // `cvr_lookahead_fov_overlap` prediction records queued per
        // horizon step. The chosen ids ride the assignment manifests (see
        // [`Session::transmit`]) and are charged when the client ACKs.
        let prefetch_start = Instant::now();
        let fov = *self.planner.library().fov();
        self.planner.prefetch(
            |i| self.plan_prefetchable[i],
            |i, h| {
                let user = self.users[self.plan_ids[i]].as_mut()?;
                let ahead = user.staleness_slots + PIPELINE_SLOTS + h;
                let pose = user.predictor.predict_fractional(ahead as f64)?;
                user.fov_predictions.push_back(FovPredictionRecord {
                    target_seq: user.last_pose_seq + ahead as u64,
                    h,
                    tiles: tile_mask(&fov, &pose),
                });
                if user.fov_predictions.len() > MAX_PENDING_PREDICTIONS {
                    user.fov_predictions.pop_front();
                }
                Some(pose)
            },
        );
        let prefetch_end = Instant::now();
        let prefetch_ns = (prefetch_end - prefetch_start).as_nanos() as u64;
        self.obs
            .stage(self.obs.h_prefetch, self.slot, "prefetch", prefetch_ns);
        prefetch_end
    }

    /// Shared post-send bookkeeping for one user: queue-depth tracking,
    /// drop accounting, and the backpressure degrade/recover transitions.
    /// Returns `false` when the transport reported the peer closed.
    fn account_send(user: &mut UserState, obs: &mut SessionObs, status: SendStatus) -> bool {
        let depth = user.transport.queue_depth();
        let deepest = obs.registry.gauge_value(obs.g_queue_depth);
        obs.registry
            .set_gauge(obs.g_queue_depth, deepest.max(depth as i64));
        match status {
            SendStatus::Sent => {
                // Recover once the queue has drained well below capacity
                // and the writer is moving again.
                if user.degraded
                    && !user.transport.is_stalled()
                    && depth <= user.transport.queue_capacity() / 2
                {
                    user.set_pin(Pin::Backpressure, false, obs);
                }
            }
            SendStatus::DroppedOldest(n) => {
                obs.registry.inc(obs.c_dropped, n as u64);
                obs.tracer.record(TraceEvent::QueueDrop {
                    user_id: user.user_id as u64,
                    dropped: n as u64,
                });
                user.set_pin(Pin::Backpressure, true, obs);
            }
            SendStatus::Closed => return false,
        }
        if user.transport.is_stalled() {
            user.set_pin(Pin::Backpressure, true, obs);
        }
        true
    }

    /// Queues the prediction record that will be scored when the client's
    /// matching pose arrives, and advances the staleness clock.
    fn record_prediction(user: &mut UserState, predicted: Pose, quality: QualityLevel) {
        if user.has_pose {
            user.predictions.push_back(PredictionRecord {
                target_seq: user.last_pose_seq + (user.staleness_slots + PIPELINE_SLOTS) as u64,
                predicted,
                quality,
                delay_slots: ((user.staleness_slots + PIPELINE_SLOTS) as f64).min(DELAY_CAP_SLOTS),
            });
            if user.predictions.len() > MAX_PENDING_PREDICTIONS {
                user.predictions.pop_front();
            }
        }
        user.staleness_slots += 1;
    }

    /// Sends every planned user its frame, applying the slow-client
    /// policy. A one-member row (every user of a unicast session, and
    /// every degraded or lone-gazing user of a multicast one) gets the
    /// plain per-user `Assignment`, its manifest extended by the tiles
    /// the prefetch step chose. A row shared by two or more members
    /// encodes one `GroupAssign` per distinct delivered quality and fans
    /// the identical bytes out to every member at that quality via
    /// [`ServerTransport::send_payload`]; shared rows carry no prefetch
    /// tiles — a group's payload is shared bytes, prefetch sets are per
    /// user.
    fn transmit(&mut self) {
        let slot_s = self.config.slot_duration.as_secs_f64();
        for r in 0..self.planner.rows() {
            let row = self.planner.row(r);
            if let [i] = *row.members {
                let id = self.plan_ids[i];
                let Some(user) = &mut self.users[id] else {
                    continue;
                };
                let quality = if user.degraded || user.bw_degraded {
                    QualityLevel::MIN
                } else {
                    row.assigned
                };
                let rate_mbps = row.rates[quality.index()];
                self.obs.sent(rate_mbps, slot_s);
                self.planner.manifest_into(id, quality, &mut self.manifest);
                self.manifest.extend_from_slice(self.planner.prefetched(i));
                // The message holds the scratch manifest for the send and
                // hands it back, so one buffer serves every slot.
                let message = ServerMessage::Assignment {
                    slot: self.slot,
                    pose_seq: user.last_pose_seq,
                    quality: quality.get(),
                    rate_mbps,
                    manifest: mem::take(&mut self.manifest),
                };
                let status = user.transport.send(&message);
                self.manifest = reclaim_manifest(message);
                if Self::account_send(user, &mut self.obs, status) {
                    Self::record_prediction(user, self.plan_predicted[i], quality);
                }
                continue;
            }
            let group_id = row.group_id.expect("only tracker groups share a row");
            self.payload.clear();
            self.payload_spans.clear();
            for (&i, &cap) in row.members.iter().zip(row.caps) {
                let id = self.plan_ids[i];
                let Some(user) = &mut self.users[id] else {
                    continue;
                };
                let q_idx = row.assigned.index().min(cap);
                let quality = QualityLevel::new((q_idx + 1) as u8);
                let known = self.payload_spans.iter().find(|(q, _)| *q == q_idx);
                let span = known.map(|(_, span)| span.clone()).unwrap_or_else(|| {
                    // Members share ledger state by group-key construction,
                    // so any member's manifest is the group's manifest at
                    // this quality.
                    self.planner.manifest_into(id, quality, &mut self.manifest);
                    self.obs.sent(row.rates[q_idx], slot_s);
                    let start = self.payload.len();
                    let message = ServerMessage::GroupAssign {
                        slot: self.slot,
                        group_id,
                        quality: quality.get(),
                        rate_mbps: row.rates[q_idx],
                        manifest: mem::take(&mut self.manifest),
                    };
                    message.encode(&mut self.payload);
                    self.manifest = reclaim_manifest(message);
                    let span = start..self.payload.len();
                    self.payload_spans.push((q_idx, span.clone()));
                    span
                });
                let status = user.transport.send_payload(&self.payload[span]);
                if Self::account_send(user, &mut self.obs, status) {
                    Self::record_prediction(user, self.plan_predicted[i], quality);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{loopback, ClientTransport};

    fn join_one(session: &mut Session) -> crate::transport::LoopbackClientEnd {
        let (server_end, mut client_end) = loopback(64);
        session.add_connection(Box::new(server_end));
        client_end.send(&ClientMessage::Hello {
            version: PROTOCOL_VERSION,
            seed: 7,
        });
        client_end
    }

    #[test]
    fn hello_joins_and_welcome_arrives() {
        let mut session = Session::new(ServeConfig::default());
        let mut client = join_one(&mut session);
        session.step_slot();
        assert_eq!(session.active_users(), 1);
        assert_eq!(session.counters().joins, 1);
        let welcome = client.try_recv().unwrap().unwrap();
        assert!(matches!(
            welcome,
            ServerMessage::Welcome {
                user_id: 0,
                levels: 6,
                ..
            }
        ));
        // An assignment follows in the same slot.
        let next = client.try_recv().unwrap().unwrap();
        assert!(matches!(next, ServerMessage::Assignment { slot: 0, .. }));
    }

    #[test]
    fn version_mismatch_is_refused_as_protocol_error() {
        for version in [PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1] {
            let mut session = Session::new(ServeConfig::default());
            let (server_end, mut client_end) = loopback(8);
            session.add_connection(Box::new(server_end));
            client_end.send(&ClientMessage::Hello { version, seed: 0 });
            session.step_slot();
            assert_eq!(session.active_users(), 0, "v{version}");
            assert_eq!(session.counters().protocol_errors, 1, "v{version}");
            assert!(
                matches!(client_end.try_recv(), Some(Ok(ServerMessage::Shutdown))),
                "v{version}"
            );
        }
    }

    #[test]
    fn a_silent_connection_is_closed_at_the_handshake_deadline_and_counted_once() {
        let mut session = Session::new(ServeConfig::default());
        session.enable_tracing(64);
        let mut honest = join_one(&mut session);
        let (silent_end, silent) = loopback(8);
        session.add_connection(Box::new(silent_end));
        for seq in 0..HANDSHAKE_DEADLINE_SLOTS + 20 {
            honest.send(&ClientMessage::Pose {
                seq,
                pose: Pose::default(),
            });
            session.step_slot();
            let mut served = false;
            while let Some(Ok(message)) = honest.try_recv() {
                served |= matches!(message, ServerMessage::Assignment { .. });
            }
            assert!(served, "the honest client went unserved in slot {seq}");
            // Both connections arrived in slot 0: the silent one waits out
            // slots 0..deadline and is closed in the slot that reaches it.
            let waiting = usize::from(seq < HANDSHAKE_DEADLINE_SLOTS);
            assert_eq!(session.pending.len(), waiting, "slot {seq}");
            assert_eq!(silent.is_closed(), waiting == 0, "slot {seq}");
        }
        assert_eq!(session.active_users(), 1);
        assert_eq!(session.counters().protocol_errors, 1);
        let trace = session.tracer().to_jsonl();
        assert_eq!(trace.matches("handshake-timeout").count(), 1, "{trace}");
    }

    #[test]
    fn poses_feed_prediction_and_acks_shrink_manifests() {
        let mut session = Session::new(ServeConfig::default());
        let mut client = join_one(&mut session);
        session.step_slot();
        let _welcome = client.try_recv();

        // Upload a steady pose stream and ACK everything we are assigned.
        let mut first_manifest_len = None;
        let mut acked_manifest_len = None;
        for seq in 0..12u64 {
            client.send(&ClientMessage::Pose {
                seq,
                pose: Pose::default(),
            });
            client.send(&ClientMessage::BandwidthSample { mbps: 50.0 });
            session.step_slot();
            while let Some(Ok(message)) = client.try_recv() {
                if let ServerMessage::Assignment { manifest, .. } = message {
                    if first_manifest_len.is_none() {
                        first_manifest_len = Some(manifest.len());
                    } else {
                        acked_manifest_len = Some(manifest.len());
                    }
                    if !manifest.is_empty() {
                        client.send(&ClientMessage::Ack { ids: manifest });
                    }
                }
            }
        }
        // With a static pose and every tile ACKed, later manifests must be
        // empty: retransmission suppression over the wire.
        assert!(first_manifest_len.unwrap() > 0);
        assert_eq!(acked_manifest_len.unwrap(), 0);
    }

    #[test]
    fn departed_user_ids_are_never_reused() {
        let mut session = Session::new(ServeConfig::default());
        let mut first = join_one(&mut session);
        session.step_slot();
        first.send(&ClientMessage::Bye);
        session.step_slot();
        assert_eq!(session.active_users(), 0);
        // The replacement reuses the registry slot but gets a fresh ID.
        let mut second = join_one(&mut session);
        session.step_slot();
        let welcome = second.try_recv().unwrap().unwrap();
        assert!(matches!(welcome, ServerMessage::Welcome { user_id: 1, .. }));
        session.shutdown();
        let ids: Vec<_> = session.report().users.iter().map(|u| u.user_id).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn bye_departs_cleanly() {
        let mut session = Session::new(ServeConfig::default());
        let mut client = join_one(&mut session);
        session.step_slot();
        client.send(&ClientMessage::Bye);
        session.step_slot();
        assert_eq!(session.active_users(), 0);
        assert_eq!(session.counters().leaves, 1);
        assert_eq!(session.counters().protocol_errors, 0);
        let report = session.report();
        assert_eq!(report.users.len(), 1);
        assert_eq!(report.users[0].seed, 7);
    }

    #[test]
    fn slow_client_degrades_to_lowest_quality_instead_of_stalling() {
        let mut session = Session::new(ServeConfig::default());
        let (server_end, mut client) = loopback(3);
        session.add_connection(Box::new(server_end));
        client.send(&ClientMessage::Hello {
            version: PROTOCOL_VERSION,
            seed: 7,
        });
        session.step_slot();
        client.send(&ClientMessage::Pose {
            seq: 0,
            pose: Pose::default(),
        });
        // Never drain the client queue: the outbound side must fill, drop
        // old assignments, and degrade the user.
        for _ in 0..10 {
            session.step_slot();
        }
        assert!(session.counters().frames_dropped > 0);
        assert!(session.counters().degraded_transitions >= 1);
        // Draining shows the surviving assignments are pinned to quality 1
        // once degradation kicked in.
        let mut saw_degraded = false;
        while let Some(Ok(message)) = client.try_recv() {
            if let ServerMessage::Assignment { quality, .. } = message {
                saw_degraded |= quality == QualityLevel::MIN.get();
            }
        }
        assert!(saw_degraded);
    }

    #[test]
    fn a_bonded_user_enters_and_leaves_both_degrade_pins() {
        let mut session = Session::new(ServeConfig {
            ema_weight: 1.0,
            ..ServeConfig::default()
        });
        session.enable_tracing(4096);
        let (server_end, mut client) = loopback(3);
        session.add_connection(Box::new(server_end));
        client.send(&ClientMessage::Hello {
            version: PROTOCOL_VERSION,
            seed: 7,
        });
        let mut step = |session: &mut Session, mbps: f64, drain: bool| {
            client.send(&ClientMessage::LinkSample {
                link: LinkId::Wifi,
                mbps,
            });
            session.step_slot();
            while drain && client.try_recv().is_some() {}
        };
        step(&mut session, 50.0, true);
        // A starving Wi-Fi with no LTE to fail over to: the bandwidth
        // floor pins the user; twice the floor releases it.
        for _ in 0..3 {
            step(&mut session, 0.5, true);
        }
        for _ in 0..3 {
            step(&mut session, 50.0, true);
        }
        // A client that stops reading fills its three-frame queue: the
        // backpressure pin. Draining it releases the pin.
        for _ in 0..5 {
            step(&mut session, 50.0, false);
        }
        for _ in 0..3 {
            step(&mut session, 50.0, true);
        }

        let degrades: Vec<bool> = session
            .tracer()
            .records()
            .filter_map(|r| match &r.event {
                TraceEvent::Degrade { user_id, degraded } => {
                    assert_eq!(*user_id, 0);
                    Some(*degraded)
                }
                _ => None,
            })
            .collect();
        assert_eq!(degrades, [true, false, true, false]);
        assert!(session.counters().frames_dropped > 0);
        assert_eq!(session.counters().degraded_transitions, 2);
        assert_eq!(session.report().users[0].degrade_transitions, 2);
        let text = session.render_metrics();
        assert!(
            text.lines()
                .any(|l| l == "cvr_degraded_transitions_total 2"),
            "{text}"
        );
    }

    #[test]
    fn lookahead_horizon_engages_and_stays_deterministic() {
        use cvr_motion::pose::{Orientation, Vec3};

        // A walking client under a declining bandwidth feed: the
        // anticipatory degrade clamps the planning estimate and the
        // prefetch pass extends manifests with future-cell tiles, so the
        // H=4 stream must differ from the myopic stream — and must be
        // bit-identical between two runs.
        let run = |horizon: usize| {
            let mut session = Session::new(ServeConfig {
                horizon,
                ..ServeConfig::default()
            });
            let mut client = join_one(&mut session);
            session.step_slot();
            let _welcome = client.try_recv();
            let mut stream = Vec::new();
            for seq in 0..32u64 {
                let t = seq as f64;
                client.send(&ClientMessage::Pose {
                    seq,
                    pose: Pose {
                        position: Vec3::new(0.09 * t, 1.6, -0.07 * t),
                        orientation: Orientation {
                            yaw: 6.0 * t,
                            pitch: 0.0,
                            roll: 0.0,
                        },
                    },
                });
                client.send(&ClientMessage::BandwidthSample {
                    mbps: (60.0 - 1.5 * t).max(5.0),
                });
                session.step_slot();
                while let Some(Ok(message)) = client.try_recv() {
                    if let ServerMessage::Assignment {
                        slot,
                        quality,
                        rate_mbps,
                        manifest,
                        ..
                    } = message
                    {
                        stream.push((slot, quality, rate_mbps.to_bits(), manifest.clone()));
                        if !manifest.is_empty() {
                            client.send(&ClientMessage::Ack { ids: manifest });
                        }
                    }
                }
            }
            stream
        };
        let myopic = run(1);
        let lookahead = run(4);
        assert_ne!(myopic, lookahead, "H=4 must change the served stream");
        // Prefetch engaged: some manifest spans more than one cell.
        assert!(
            lookahead
                .iter()
                .any(|f| f.3.windows(2).any(|w| w[0].cell() != w[1].cell())),
            "no manifest carried a future-cell prefetch tile"
        );
        assert_eq!(lookahead, run(4));
    }

    #[test]
    fn lookahead_overlap_histograms_record_and_export() {
        let mut session = Session::new(ServeConfig {
            horizon: 3,
            ..ServeConfig::default()
        });
        let mut client = join_one(&mut session);
        session.step_slot();
        let _welcome = client.try_recv();
        for seq in 0..20u64 {
            client.send(&ClientMessage::Pose {
                seq,
                pose: Pose::default(),
            });
            client.send(&ClientMessage::BandwidthSample { mbps: 50.0 });
            session.step_slot();
            while let Some(Ok(_)) = client.try_recv() {}
        }
        assert_eq!(session.obs.h_overlap.len(), 2);
        for (i, &hid) in session.obs.h_overlap.iter().enumerate() {
            let hist = session.obs.registry.histogram_value(hid);
            assert!(
                hist.count() > 0,
                "h={} overlap histogram never recorded",
                i + 1
            );
            // A static pose makes every lookahead prediction perfect.
            assert_eq!(hist.min(), Some(TileId::COUNT as u64));
        }
        let text = session.render_metrics();
        assert!(text.contains("cvr_lookahead_fov_overlap"));
        assert!(text.contains("h=\"1\""));
        assert!(text.contains("h=\"2\""));
    }

    #[test]
    fn a_pose_maturing_three_fov_records_scores_each_horizon_once() {
        use cvr_motion::pose::{Orientation, Vec3};

        let mut session = Session::new(ServeConfig {
            horizon: 4,
            ..ServeConfig::default()
        });
        let mut client = join_one(&mut session);
        session.step_slot();
        let _welcome = client.try_recv();
        let gaze = |seq: u64| ClientMessage::Pose {
            seq,
            pose: Pose::new(
                Vec3::new(0.01 * seq as f64, 1.6, 0.0),
                Orientation::new(3.0 * seq as f64, 1.0, 0.0),
            ),
        };
        // Two poses give the predictor a line; the second slot queues the
        // first records, one per lookahead step h = 1, 2, 3.
        client.send(&gaze(0));
        session.step_slot();
        client.send(&gaze(1));
        session.step_slot();
        let targets: Vec<(usize, u64)> = session.users[0]
            .as_ref()
            .expect("joined")
            .fov_predictions
            .iter()
            .map(|r| (r.h, r.target_seq))
            .collect();
        assert_eq!(targets.iter().map(|t| t.0).collect::<Vec<_>>(), [1, 2, 3]);
        let counts = |session: &Session| -> Vec<u64> {
            let obs = &session.obs;
            obs.h_overlap
                .iter()
                .map(|&hid| obs.registry.histogram_value(hid).count())
                .collect()
        };
        assert_eq!(counts(&session), [0, 0, 0]);
        // The client skips ahead to the last target: this one pose is the
        // ground truth for all three records.
        client.send(&gaze(targets[2].1));
        session.step_slot();
        assert_eq!(counts(&session), [1, 1, 1]);
    }

    /// The value of an unlabelled series in a Prometheus text scrape.
    fn scraped(text: &str, series: &str) -> u64 {
        text.lines()
            .find_map(|line| line.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("{series} missing from the scrape"))
    }

    #[test]
    fn every_stage_is_timed_once_per_slot_within_its_step() {
        use cvr_motion::pose::{Orientation, Vec3};
        use cvr_obs::trace::EventKind;

        const STAGES: [&str; 6] = [
            "ingest", "build", "density", "value", "prefetch", "transmit",
        ];
        let mut session = Session::new(ServeConfig {
            horizon: 4,
            ..ServeConfig::default()
        });
        session.enable_tracing(4096);
        session.obs.tracer.set_sample_every(EventKind::Stage, 1);
        let mut client = join_one(&mut session);
        let slots = 40u64;
        let mut steps_ns = Vec::new();
        for seq in 0..slots {
            let t = seq as f64;
            let position = Vec3::new(0.09 * t, 1.6, -0.07 * t);
            let pose = Pose::new(position, Orientation::new(6.0 * t, 0.0, 0.0));
            client.send(&ClientMessage::Pose { seq, pose });
            let start = Instant::now();
            session.step_slot();
            steps_ns.push(start.elapsed().as_nanos() as u64);
            while let Some(Ok(message)) = client.try_recv() {
                if let ServerMessage::Assignment { manifest, .. } = message {
                    client.send(&ClientMessage::Ack { ids: manifest });
                }
            }
        }

        let text = session.render_metrics();
        for stage in STAGES {
            let series = format!("cvr_slot_stage_ns_count{{stage=\"{stage}\"}}");
            assert_eq!(scraped(&text, &series), slots, "{stage}");
        }
        let mut staged = vec![Vec::new(); slots as usize];
        for record in session.tracer().records() {
            if let TraceEvent::Stage { slot, stage, ns } = record.event {
                staged[slot as usize].push((stage, ns));
            }
        }
        for (slot, (stages, step_ns)) in staged.iter().zip(steps_ns).enumerate() {
            let names: Vec<&str> = stages.iter().map(|&(name, _)| name).collect();
            assert_eq!(names, STAGES, "slot {slot}");
            let sum: u64 = stages.iter().map(|&(_, ns)| ns).sum();
            assert!(
                sum <= step_ns,
                "slot {slot}: stages {sum} ns > step {step_ns} ns"
            );
        }
    }

    #[test]
    fn report_and_scrape_read_the_same_books() {
        let hello = |version| ClientMessage::Hello { version, seed: 3 };
        let mut session = Session::new(ServeConfig::default());
        // Stays the whole run, so every slot plans and solves.
        let mut steady = join_one(&mut session);
        let mut leaver = join_one(&mut session);
        let mut violator = join_one(&mut session);
        // Three frames of queue and a client that never reads: drops,
        // then a degrade transition.
        let (slow_end, mut slow) = loopback(3);
        session.add_connection(Box::new(slow_end));
        slow.send(&hello(PROTOCOL_VERSION));
        let (refused_end, mut refused) = loopback(8);
        session.add_connection(Box::new(refused_end));
        refused.send(&hello(PROTOCOL_VERSION + 1));

        let slots = 12u64;
        let mut work_total_ns = 0;
        for slot in 0..slots {
            if slot == 2 {
                leaver.send(&ClientMessage::Bye);
            }
            if slot == 3 {
                violator.send(&hello(PROTOCOL_VERSION));
            }
            if slot == 4 {
                // A dead Wi-Fi under a live LTE: one failover.
                for (link, mbps) in [(LinkId::Lte, 20.0), (LinkId::Wifi, 1.0)] {
                    steady.send(&ClientMessage::LinkSample { link, mbps });
                }
            }
            session.step_slot();
            let work_ns = 1_000 * (slot + 1) + 7;
            session.note_tick(slot != 5, work_ns);
            work_total_ns += work_ns;
            while steady.try_recv().is_some() {}
        }

        let counters = session.counters();
        assert_eq!(
            (counters.joins, counters.leaves, counters.protocol_errors),
            (4, 2, 2)
        );
        assert_eq!((counters.link_switches, counters.tick_overruns), (1, 1));
        assert!(counters.sent_bits > 0, "the steady user was served");
        assert!(counters.frames_dropped > 0 && counters.degraded_transitions >= 1);
        let text = session.render_metrics();
        for (series, value) in [
            ("cvr_ticks_total", counters.ticks),
            ("cvr_on_time_ticks_total", counters.on_time_ticks),
            ("cvr_tick_overruns_total", counters.tick_overruns),
            ("cvr_session_joins_total", counters.joins),
            ("cvr_session_leaves_total", counters.leaves),
            ("cvr_protocol_errors_total", counters.protocol_errors),
            ("cvr_frames_dropped_total", counters.frames_dropped),
            (
                "cvr_degraded_transitions_total",
                counters.degraded_transitions,
            ),
            ("cvr_link_switches_total", counters.link_switches),
            ("cvr_sent_bits_total", counters.sent_bits),
            ("cvr_slot_budget_contended_total", counters.budget_contended),
            (
                "cvr_outbound_queue_depth_max",
                counters.max_outbound_queue_depth as u64,
            ),
        ] {
            assert_eq!(scraped(&text, series), value, "{series}");
        }
        assert!(
            counters.max_outbound_queue_depth >= 3,
            "the slow queue filled"
        );
        assert!(text.contains("cvr_slot_stage_ns_bucket{stage=\"prefetch\""));

        let report = session.report();
        assert_eq!(report.counters.ticks, slots);
        assert_eq!(report.on_time_fraction(), 11.0 / 12.0);
        for (name, stage) in [
            ("ingest", &report.ingest),
            ("build", &report.build),
            ("density", &report.density),
            ("value", &report.value),
            ("prefetch", &report.prefetch),
            ("transmit", &report.transmit),
            ("tick", &report.tick),
        ] {
            assert_eq!(stage.count, slots as usize, "{name}");
        }
        assert_eq!(report.tick.total_ms, work_total_ns as f64 / 1e6);
    }
}
