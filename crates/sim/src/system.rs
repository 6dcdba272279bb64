//! The full collaborative VR system of Sections V–VI, simulated end to end:
//! imperfect estimation in the control loop, packet loss, tile caching with
//! ACK-driven retransmission suppression, the transmit→decode→display
//! pipeline, router airtime sharing with co-channel interference, and
//! per-user `tc`-style throttles.
//!
//! This stands in for the paper's Java server + 15 Android phones. The
//! differences from the Section IV trace simulation are exactly the ones
//! the paper calls out: the server only has *estimates* of throughput (EMA)
//! and delay (polynomial regression), transfers can be lost or late, and
//! the wireless capacity fluctuates — violently so with two bridged
//! routers.

use std::collections::VecDeque;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use cvr_content::cache::{ClientTileBuffer, ServerTileCache};
use cvr_content::id::VideoId;
use cvr_content::library::ContentLibrary;
use cvr_core::alloc::Allocator;
use cvr_core::delay::{DelayModel, Mm1Delay};
use cvr_core::objective::{h_at_delay, QoeParams};
use cvr_core::qoe::{SystemQoeSummary, UserQoeAccumulator, UserQoeSummary};
use cvr_core::quality::QualityLevel;
use cvr_core::stage::CONTROL_OVERHEAD_MBPS;
use cvr_lookahead::LookaheadConfig;
use cvr_motion::accuracy::DeltaEstimator;
use cvr_motion::pose::Pose;
use cvr_motion::predict::LinearPredictor;
use cvr_motion::synthetic::{MotionConfig, MotionGenerator};
use cvr_net::channel::AckChannel;
use cvr_net::estimate::{
    BandwidthEstimator, EmaEstimator, HarmonicMeanEstimator, PolyRegression, SlidingMeanEstimator,
};
use cvr_net::impair::{BufferbloatQueue, ImpairmentConfig, Pathology};
use cvr_net::multilink::{BondedLink, FailoverPolicy};
use cvr_net::router::{InterferenceMode, WirelessRouter};
use cvr_net::trace::{TraceGeneratorConfig, TraceProfile};

use crate::allocators::AllocatorKind;
use crate::event::EventQueue;
pub use crate::pipeline::{sanitize_rates, DELAY_CAP_SLOTS, PIPELINE_SLOTS};
use crate::pipeline::{SlotPlanner, PROPAGATION_S};

/// Configuration of a full-system run.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of phones.
    pub num_users: usize,
    /// Number of routers users are spread across (1 or 2 in the paper).
    pub num_routers: usize,
    /// Run duration, seconds.
    pub duration_s: f64,
    /// Slot duration, seconds (60 FPS → 1/60).
    pub slot_duration_s: f64,
    /// QoE weights (paper real-system: α = 0.1, β = 0.5).
    pub params: QoeParams,
    /// Server uplink limit, Mbps (400 with one router, 800 with two).
    pub server_total_mbps: f64,
    /// Per-router nominal capacity, Mbps (802.11ac ≈ 400 usable).
    pub router_capacity_mbps: f64,
    /// `tc` throttle guidelines cycled across users (paper: 40…60 Mbps).
    pub throttle_guidelines_mbps: Vec<f64>,
    /// Per-packet loss probability on the RTP/UDP path. A transfer of
    /// `n` packets is lost if any packet is lost (no FEC/retransmission on
    /// the data path), so larger transfers fail more often — the coupling
    /// the paper's Discussion section points out is missing from its
    /// formulation.
    pub packet_loss_probability: f64,
    /// MTU-sized packet payload, kilobits (1500 B ≈ 12 kbit).
    pub packet_size_kbit: f64,
    /// Bandwidth estimator run by the server per user (the paper uses
    /// EMA; sliding/harmonic means are the other standard choices).
    pub bandwidth_estimator: BandwidthEstimatorKind,
    /// Client tile-buffer threshold (tiles held before releasing).
    pub client_buffer_tiles: usize,
    /// Bandwidth headroom Firefly's quality control leaves for decode
    /// margin when deployed on the real pipeline (its slot budget is this
    /// fraction of the estimated bandwidth).
    pub firefly_headroom: f64,
    /// Period (slots) at which each client uploads its pose over TCP
    /// (paper: "upload the trace to the server through TCP periodically").
    /// 1 = every slot; larger values make the server predict from staler
    /// poses over a longer horizon.
    pub pose_upload_period_slots: usize,
    /// Content preparation mode: the paper's offline pre-rendered tile
    /// database (zero preparation latency), or the Section VIII future-work
    /// online pipeline where a GPU farm renders and encodes each slot's
    /// tiles before transmission can start.
    pub rendering: RenderingMode,
    /// Cellular digital-twin scenario: when set, every user's access link
    /// is replaced by a bonded Wi-Fi + LTE pair whose primary runs the
    /// configured correlated impairment (see [`NetScenario`]). `None`
    /// reproduces the paper's clean-medium setups unchanged.
    pub scenario: Option<NetScenario>,
    /// Record per-slot, per-user time series (chosen level, viewed
    /// quality, delay) into the run result.
    pub record_timeseries: bool,
    /// Lookahead horizon in display slots. `1` is the paper's myopic
    /// per-slot allocator bit-for-bit: the planner's prefetch step walks
    /// the `1..H` future slots, which is an empty loop, and the link
    /// budget passes through unclamped. `H > 1` predicts the FoVs of the
    /// `H − 1` slots after the display slot, spends budget slack
    /// pre-staging their tiles *at the user's assigned quality* through
    /// the delivery ledger, and runs the [`cvr_lookahead`] anticipatory
    /// degrade on the bandwidth estimate.
    pub horizon: usize,
    /// Master seed.
    pub seed: u64,
}

impl SystemConfig {
    /// Experimental setup 1: 8 phones, one router, 400 Mbps server limit.
    pub fn setup1(seed: u64) -> Self {
        SystemConfig {
            num_users: 8,
            num_routers: 1,
            duration_s: 60.0,
            slot_duration_s: 1.0 / 60.0,
            params: QoeParams::system_default(),
            server_total_mbps: 400.0,
            router_capacity_mbps: 400.0,
            throttle_guidelines_mbps: vec![40.0, 45.0, 50.0, 55.0, 60.0],
            packet_loss_probability: 0.000_2,
            packet_size_kbit: 12.0,
            bandwidth_estimator: BandwidthEstimatorKind::Ema { weight: 0.05 },
            client_buffer_tiles: 600,
            firefly_headroom: 0.85,
            pose_upload_period_slots: 1,
            rendering: RenderingMode::Offline,
            scenario: None,
            record_timeseries: false,
            horizon: 1,
            seed,
        }
    }

    /// Experimental setup 2: 15 phones, two bridged routers (co-channel
    /// interference), 800 Mbps server limit.
    pub fn setup2(seed: u64) -> Self {
        SystemConfig {
            num_users: 15,
            num_routers: 2,
            server_total_mbps: 800.0,
            ..SystemConfig::setup1(seed)
        }
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        (self.duration_s / self.slot_duration_s).round() as usize
    }
}

/// A cellular digital-twin network scenario: which correlated impairment
/// the primary (Wi-Fi-like) link runs, the bonded-link failover policy,
/// and the LTE fallback envelope. Built from the generators in
/// [`cvr_net::impair`] and [`cvr_net::multilink`]; everything is seeded
/// off [`SystemConfig::seed`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetScenario {
    /// Correlated impairment on the primary link.
    pub pathology: Pathology,
    /// Bonded-link failover/recovery policy.
    pub policy: FailoverPolicy,
    /// LTE fallback envelope floor, Mbps.
    pub lte_min_mbps: f64,
    /// LTE fallback envelope ceiling, Mbps.
    pub lte_max_mbps: f64,
}

impl NetScenario {
    /// The scenario-matrix default: the paper envelope on the impaired
    /// primary, a weaker 8–25 Mbps LTE fallback, default hysteresis.
    pub fn paper_default(pathology: Pathology) -> Self {
        NetScenario {
            pathology,
            policy: FailoverPolicy::default(),
            lte_min_mbps: 8.0,
            lte_max_mbps: 25.0,
        }
    }
}

/// Result of one full-system run.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemRunResult {
    /// Which algorithm produced it.
    pub label: &'static str,
    /// Cross-user QoE summary.
    pub summary: SystemQoeSummary,
    /// Achieved display frame rate (out of 60).
    pub fps: f64,
    /// Fraction of transfers lost in flight.
    pub loss_rate: f64,
    /// Server tile-cache hit rate (prefetch keeps this high; a cold or
    /// undersized cache forces disk swaps before transmission).
    pub cache_hit_rate: f64,
    /// Total bonded-link failovers across all users (0 without a
    /// [`SystemConfig::scenario`]).
    pub link_switches: u64,
    /// Per-user summaries.
    pub users: Vec<UserQoeSummary>,
    /// Per-slot series, present when
    /// [`SystemConfig::record_timeseries`] is set. Entries are recorded at
    /// *display* time, so each user has `slots − PIPELINE_SLOTS` samples.
    pub timeseries: Option<crate::metrics::TimeSeries>,
}

/// Feedback events flowing back to the server over the TCP ACK channel.
#[derive(Debug, Clone, PartialEq)]
enum Feedback {
    /// Client confirms it holds these tiles.
    Acknowledge { user: usize, ids: Vec<VideoId> },
    /// Client released these tiles from its buffer.
    Release { user: usize, ids: Vec<VideoId> },
}

/// A frame in flight through the transmit→decode→display pipeline.
#[derive(Debug, Clone)]
struct PendingFrame {
    display_slot: usize,
    predicted: Pose,
    quality: QualityLevel,
    delivered_on_time: bool,
    delay_slots: f64,
}

/// Estimated delay model: the server knows the delay–rate relationship is
/// convex and queueing-dominated (its own Fig. 1b measurement), so it
/// anchors predictions to the M/M/1 law at the *estimated* bandwidth and
/// lets the trained polynomial regressor only revise the estimate upward
/// (measurements showing worse-than-law delays are trusted; optimistic
/// extrapolations below the law are not).
struct EstimatedDelay<'a> {
    poly: &'a PolyRegression,
    fallback: Mm1Delay,
    /// Constant floor (propagation etc.) in slots, part of every
    /// measurement and therefore of every prediction.
    floor_slots: f64,
}

impl DelayModel for EstimatedDelay<'_> {
    fn delay(&self, r: f64) -> f64 {
        let law = self.fallback.delay(r) + self.floor_slots;
        match self.poly.predict(r) {
            Some(d) if d.is_finite() => law.max(d.max(0.0)),
            _ => law,
        }
    }
}

/// Which bandwidth estimator the server runs per user.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BandwidthEstimatorKind {
    /// Exponential moving average (the paper's choice).
    Ema {
        /// Weight on the newest observation.
        weight: f64,
    },
    /// Arithmetic mean over a sliding window.
    SlidingMean {
        /// Window length in slots.
        window: usize,
    },
    /// Harmonic mean over a sliding window (pessimistic; dips dominate).
    HarmonicMean {
        /// Window length in slots.
        window: usize,
    },
}

impl BandwidthEstimatorKind {
    /// Instantiates the estimator.
    pub fn build(self) -> Box<dyn BandwidthEstimator + Send> {
        match self {
            BandwidthEstimatorKind::Ema { weight } => Box::new(EmaEstimator::new(weight)),
            BandwidthEstimatorKind::SlidingMean { window } => {
                Box::new(SlidingMeanEstimator::new(window))
            }
            BandwidthEstimatorKind::HarmonicMean { window } => {
                Box::new(HarmonicMeanEstimator::new(window))
            }
        }
    }

    /// Display label for reports.
    pub fn label(self) -> &'static str {
        match self {
            BandwidthEstimatorKind::Ema { .. } => "ema",
            BandwidthEstimatorKind::SlidingMean { .. } => "sliding-mean",
            BandwidthEstimatorKind::HarmonicMean { .. } => "harmonic-mean",
        }
    }
}

/// How VR content is prepared before transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RenderingMode {
    /// All tiles pre-rendered and pre-encoded (Section V: "we have
    /// rendered all possible tiles of the scene in Unity before the
    /// transmission") — zero preparation latency.
    Offline,
    /// Tiles are rendered and NVENC-encoded on a GPU farm each slot
    /// (Section VIII future work); transmission of a user's tiles starts
    /// only when its last tile finishes encoding.
    Online {
        /// Number of GPUs in the farm.
        gpus: usize,
    },
}

/// How the per-slot objective handed to the allocator is assembled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectiveMode {
    /// The paper's full `h_n` with the rate-dependent delay term.
    DelayAware,
    /// The modified-PAVQ reading: delay folded into a rate-independent
    /// constant, so decisions are made delay-blind.
    DelayBlind,
    /// The Section VIII extension: on top of the delay term, the quality
    /// term is weighted by the estimated probability that a transfer of
    /// that size survives packet loss.
    LossAware,
}

/// Runs one full-system simulation with the given allocator kind.
pub fn run(config: &SystemConfig, kind: AllocatorKind) -> SystemRunResult {
    let mut allocator: Box<dyn Allocator + Send> = match kind {
        // On the real pipeline Firefly budgets a fraction of the estimated
        // bandwidth for tiles, reserving decode margin.
        AllocatorKind::Firefly => Box::new(cvr_core::baselines::FireflyLru::with_headroom(
            config.firefly_headroom,
        )),
        other => other.build(),
    };
    let mode = match kind {
        AllocatorKind::Pavq => ObjectiveMode::DelayBlind,
        AllocatorKind::LossAwareGreedy => ObjectiveMode::LossAware,
        _ => ObjectiveMode::DelayAware,
    };
    run_with(config, &mut *allocator, kind.label(), mode)
}

/// Runs one full-system simulation with an explicit allocator and
/// objective mode (see [`ObjectiveMode`]).
pub fn run_with(
    config: &SystemConfig,
    allocator: &mut dyn Allocator,
    label: &'static str,
    mode: ObjectiveMode,
) -> SystemRunResult {
    assert!(config.num_users > 0, "need at least one user");
    assert!(config.num_routers > 0, "need at least one router");
    let n = config.num_users;
    let dt = config.slot_duration_s;
    let slots = config.slots();
    // The shared slot planner: slot engine, cached data plane (per-cell
    // rate rows, shared FoV tile sets), and per-user delivery ledgers,
    // incrementally maintained undelivered-rate sums, prefetch trackers
    // and anticipatory-degrade state.
    let mut planner = SlotPlanner::new(
        ContentLibrary::paper_default(),
        LookaheadConfig::for_horizon(config.horizon),
        0,
    );
    for u in 0..n {
        planner.join(u);
    }

    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x5157_ABCD);

    // --- per-user state --------------------------------------------------
    let mut motion: Vec<MotionGenerator> = (0..n)
        .map(|u| {
            MotionGenerator::new(
                MotionConfig {
                    slot_duration_s: dt,
                    ..MotionConfig::paper_default()
                },
                config.seed.wrapping_mul(0xA24B_AED4).wrapping_add(u as u64),
            )
        })
        .collect();
    let mut predictors: Vec<LinearPredictor> =
        (0..n).map(|_| LinearPredictor::paper_default()).collect();
    // δ here estimates the probability that the *delivered* portion covers
    // the actual FoV — a frame dropped for lateness or loss covers nothing,
    // so delivery failures count as misses. EWMA keeps the estimate
    // adaptive to network regime changes.
    let mut deltas: Vec<DeltaEstimator> = (0..n).map(|_| DeltaEstimator::ewma(1.0, 0.02)).collect();
    let mut accumulators: Vec<UserQoeAccumulator> = (0..n)
        .map(|_| UserQoeAccumulator::new(config.params))
        .collect();
    let throttles: Vec<f64> = (0..n)
        .map(|u| config.throttle_guidelines_mbps[u % config.throttle_guidelines_mbps.len()])
        .collect();
    let mut bandwidth_estimates: Vec<Box<dyn BandwidthEstimator + Send>> =
        (0..n).map(|_| config.bandwidth_estimator.build()).collect();
    let mut delay_estimators: Vec<PolyRegression> =
        (0..n).map(|_| PolyRegression::paper_default()).collect();
    // Server-wide per-packet loss estimate: lost transfers over packets
    // sent (a lost transfer implies ≈1 lost packet at small loss rates).
    let mut loss_estimate = PacketLossEstimate::new();
    let mut buffers: Vec<ClientTileBuffer> = (0..n)
        .map(|_| ClientTileBuffer::new(config.client_buffer_tiles))
        .collect();
    let mut acks: Vec<AckChannel> = (0..n)
        .map(|u| {
            // ACKs are single packets over the reliable TCP path.
            AckChannel::new(
                config.packet_loss_probability.min(0.5),
                0.002,
                0.05,
                config.seed ^ u as u64,
            )
        })
        .collect();
    let mut pending: Vec<VecDeque<PendingFrame>> = (0..n).map(|_| VecDeque::new()).collect();
    let mut pose_staleness: Vec<usize> = vec![0; n];

    // Server-side tile cache (shared across users, as in the real server).
    let mut server_cache = ServerTileCache::new(20_000);

    // Digital-twin access links (when a scenario is configured): each
    // user's primary runs the scenario's correlated impairment, bonded to
    // an LTE-like fallback under the deterministic failover policy. The
    // traces are pure functions of (config, seed).
    let mut bonded: Option<Vec<BondedLink>> = config.scenario.map(|sc| {
        let impairment = ImpairmentConfig {
            duration_s: config.duration_s.max(60.0),
            ..ImpairmentConfig::paper_default(sc.pathology)
        };
        let primaries = impairment.generate_group(n, config.seed ^ 0x11AA_55EE);
        primaries
            .into_iter()
            .enumerate()
            .map(|(u, wifi)| {
                let lte_cfg = TraceGeneratorConfig {
                    profile: TraceProfile::LteLike,
                    min_mbps: sc.lte_min_mbps,
                    max_mbps: sc.lte_max_mbps,
                    duration_s: impairment.duration_s,
                };
                let lte = lte_cfg.generate(
                    config.seed.wrapping_mul(0xC2B2_AE35).wrapping_add(u as u64) ^ 0x17E0_17E0,
                );
                BondedLink::new(wifi, lte, sc.policy)
            })
            .collect()
    });
    // Deep RLC downlink buffers, only for the bufferbloat pathology: the
    // rate trace alone is benign; the latency inflation lives here.
    let mut bloat: Option<Vec<BufferbloatQueue>> = config.scenario.and_then(|sc| {
        (sc.pathology == Pathology::Bufferbloat)
            .then(|| (0..n).map(|_| BufferbloatQueue::rlc_default()).collect())
    });

    // Online-rendering farm (Section VIII), if configured.
    let mut farm: Option<Vec<cvr_render::gpu::Gpu>> = match config.rendering {
        RenderingMode::Offline => None,
        RenderingMode::Online { gpus } => {
            assert!(gpus > 0, "online rendering needs at least one GPU");
            Some((0..gpus).map(|_| cvr_render::gpu::Gpu::rtx3070()).collect())
        }
    };

    // --- shared medium ----------------------------------------------------
    let interference = if config.num_routers >= 2 {
        InterferenceMode::CoChannel
    } else {
        InterferenceMode::Isolated
    };
    let mut routers: Vec<WirelessRouter> = (0..config.num_routers)
        .map(|r| {
            WirelessRouter::new(
                config.router_capacity_mbps,
                interference,
                config.seed ^ (r as u64) << 17,
            )
        })
        .collect();
    let router_of = |u: usize| u % config.num_routers;

    let mut timeseries = config
        .record_timeseries
        .then(|| crate::metrics::TimeSeries::with_capacity(n, slots));
    let mut feedback: EventQueue<Feedback> = EventQueue::new();
    let mut frames_displayed = 0u64;
    let mut frames_total = 0u64;
    let mut transfers = 0u64;
    let mut transfers_lost = 0u64;

    // --- reused per-slot buffers -----------------------------------------
    let mut actual: Vec<Pose> = Vec::with_capacity(n);
    let mut predicted: Vec<Pose> = Vec::with_capacity(n);
    let mut assignment: Vec<QualityLevel> = Vec::with_capacity(n);
    let mut router_caps: Vec<f64> = Vec::with_capacity(config.num_routers);
    let mut demands: Vec<Vec<(usize, f64)>> = vec![Vec::new(); config.num_routers];
    let mut effective_bn = vec![0.0f64; n];
    let mut to_send: Vec<VideoId> = Vec::new();

    for slot in 0..slots {
        let now = slot as f64 * dt;

        // Stale render jobs are dropped at the slot boundary, like stale
        // tiles: each slot's farm starts fresh (steady-state pipelining).
        if let Some(gpus) = &mut farm {
            for gpu in gpus {
                gpu.reset(now);
            }
        }

        // 1. Apply feedback that has arrived by now. ACK/release events go
        //    through the paired `UndeliveredSums` calls so the ledger and
        //    the incremental per-level sums can never drift apart.
        while let Some((_, fb)) = feedback.pop_before(now) {
            match fb {
                Feedback::Acknowledge { user, ids } => planner.acknowledge(user, ids),
                Feedback::Release { user, ids } => planner.release(user, ids),
            }
        }

        // 2. Motion: actual poses this slot; score frames due for display.
        actual.clear();
        actual.extend(motion.iter_mut().map(|g| g.step()));
        for u in 0..n {
            while pending[u].front().is_some_and(|f| f.display_slot <= slot) {
                let frame = pending[u].pop_front().expect("checked front");
                frames_total += 1;
                let prediction_hit = planner.library().fov().covers(&frame.predicted, &actual[u]);
                let viewed_hit = prediction_hit && frame.delivered_on_time;
                if frame.delivered_on_time {
                    frames_displayed += 1;
                }
                accumulators[u].record(frame.quality, viewed_hit, frame.delay_slots);
                deltas[u].record(viewed_hit);
                if let Some(ts) = &mut timeseries {
                    ts.chosen_level[u].push(frame.quality.get());
                    ts.viewed_quality[u].push(if viewed_hit {
                        frame.quality.value() as f32
                    } else {
                        0.0
                    });
                    ts.delay_slots[u].push(frame.delay_slots as f32);
                }
            }
        }

        // 3. Server: poses arrive over TCP every `pose_upload_period_slots`
        //    slots (staggered per user); predict the display-slot pose
        //    (t + 2) from the freshest uploaded pose and build the problem
        //    from *estimates* (the paper's pipeline: receive pose at t,
        //    deliver at t+1, display at t+2).
        let period = config.pose_upload_period_slots.max(1);
        predicted.clear();
        predicted.extend((0..n).map(|u| {
            if (slot + u) % period == 0 {
                predictors[u].observe(&actual[u]);
                pose_staleness[u] = 0;
            } else {
                pose_staleness[u] += 1;
            }
            // The predictor's sample spacing is the upload period, so
            // convert the slot horizon into observation intervals.
            let horizon_slots = (PIPELINE_SLOTS + pose_staleness[u]) as f64;
            predictors[u]
                .predict_fractional(horizon_slots / period as f64)
                .unwrap_or(actual[u])
        }));

        // Build the slot problem. Per user: the link budget (the bandwidth
        // estimate, ramped down ahead of forecast dips by the
        // anticipatory degrade — never above the raw estimate, so
        // constraint (6) only tightens) and FoV target. Retransmission
        // suppression happens here: the planner's sums hold the per-level
        // rate of only the *undelivered* tiles. Nobody is groupable, so
        // every user is staged as its own row.
        planner.begin_slot(slot as u64, config.server_total_mbps);
        for u in 0..n {
            let estimate = bandwidth_estimates[u].estimate_or(throttles[u]).max(1.0);
            let bn = planner.clamp_budget(u, estimate, None);
            planner.push_user(u, &predicted[u], bn, false);
        }

        let floor_slots = PROPAGATION_S / dt;
        let loss_p = loss_estimate.estimate();
        planner.stage(CONTROL_OVERHEAD_MBPS, |u, bn| {
            let delta = deltas[u].estimate();
            let tracker = *accumulators[u].tracker();
            let delay_model = EstimatedDelay {
                poly: &delay_estimators[u],
                fallback: Mm1Delay::new(bn).expect("positive estimate"),
                floor_slots,
            };
            // The objective prices each level at its *incremental*
            // transmission cost `raw` (the suppressed rate), not the
            // full-library rate — what this slot will actually send.
            move |l, raw| {
                let q = QualityLevel::new((l + 1) as u8);
                let delta_eff = match mode {
                    ObjectiveMode::LossAware => {
                        let packets = packets_for_rate(raw, dt, config.packet_size_kbit);
                        let survive = 1.0 - transfer_loss_probability(loss_p, packets);
                        delta * survive
                    }
                    _ => delta,
                };
                let delay = match mode {
                    ObjectiveMode::DelayBlind => 0.0,
                    _ => delay_model.delay(raw),
                };
                h_at_delay(config.params, delta_eff, &tracker, q, delay)
            }
        });

        assignment.clear();
        assignment.extend_from_slice(allocator.allocate_staged(planner.engine_mut()));

        // 4. Physical transmission over the shared medium.
        router_caps.clear();
        router_caps.extend(routers.iter_mut().map(|r| r.step_capacity_mbps()));
        // Demands per router group.
        for group in &mut demands {
            group.clear();
        }
        for u in 0..n {
            let rate = planner.engine().rates(u)[assignment[u].index()];
            demands[router_of(u)].push((u, rate));
        }
        for (r, group) in demands.iter().enumerate() {
            // Proportional airtime sharing with headroom: when the group's
            // total demand is below the router capacity each user can burst
            // up to its `tc` throttle; when demand exceeds capacity every
            // user's rate shrinks by the overload factor, so transfers run
            // past the slot deadline — the congestion failure mode.
            let total_demand: f64 = group.iter().map(|&(_, d)| d).sum();
            for &(u, demand) in group {
                let burst = if total_demand > 0.0 {
                    demand * router_caps[r] / total_demand
                } else {
                    router_caps[r]
                };
                effective_bn[u] = burst.min(throttles[u]).max(0.1);
            }
        }

        // Bonded access link: the router share is further capped by the
        // active radio's bandwidth at this instant. A dead primary fails
        // over to LTE per the policy; when both radios are down the floor
        // keeps the M/M/1 model defined and the resulting delay saturates
        // at the drop cap — the handover-gap failure mode. The capped
        // value also feeds the bandwidth estimators below, so link
        // switches exercise the server's EMA exactly as on the live path.
        if let Some(links) = &mut bonded {
            for u in 0..n {
                let sample = links[u].sample(now);
                effective_bn[u] = effective_bn[u].min(sample.active_mbps).max(0.1);
            }
        }

        for u in 0..n {
            let q = assignment[u];
            let rate = planner.engine().rates(u)[q.index()];
            planner.manifest_into(u, q, &mut to_send);
            for id in &to_send {
                server_cache.fetch(*id);
            }

            // Online rendering (when configured): the user's tiles must
            // finish rendering + encoding before transmission can start.
            let render_delay_slots = match &mut farm {
                None => 0.0,
                Some(gpus) => {
                    let mut ready = now;
                    for id in &to_send {
                        let job = cvr_render::job::RenderJob {
                            user: u,
                            cell: id.cell(),
                            tile: id.tile(),
                            quality: id.quality(),
                            release_s: now,
                        };
                        // Earliest-completion placement across the farm.
                        let gpu_idx = (0..gpus.len())
                            .min_by(|&a, &b| {
                                gpus[a]
                                    .estimated_completion(&job)
                                    .total_cmp(&gpus[b].estimated_completion(&job))
                            })
                            .expect("at least one GPU");
                        ready = ready.max(gpus[gpu_idx].submit(&job).done_s);
                    }
                    (ready - now) / dt
                }
            };

            // Queueing-dominated wireless delay (the Fig. 1b shape):
            // the M/M/1 sojourn at this slot's effective service rate,
            // plus propagation, saturating at the drop threshold.
            let service = Mm1Delay::new(effective_bn[u]).expect("positive capacity");
            let queue_delay_slots = service.delay(rate);
            // RLC bufferbloat (scenario-gated): the deep downlink buffer
            // absorbs the overload instead of shedding it, so saturation
            // shows up as queue-growth latency on top of the M/M/1 sojourn.
            let bloat_delay_slots = match &mut bloat {
                Some(queues) => queues[u].step(rate, effective_bn[u], dt) / dt,
                None => 0.0,
            };
            let delay_slots =
                (render_delay_slots + queue_delay_slots + bloat_delay_slots + PROPAGATION_S / dt)
                    .min(DELAY_CAP_SLOTS);

            transfers += 1;
            let packets = packets_for_rate(rate, dt, config.packet_size_kbit);
            let transfer_loss = transfer_loss_probability(config.packet_loss_probability, packets);
            let lost = rng.gen_bool(transfer_loss);
            if lost {
                transfers_lost += 1;
            }
            loss_estimate.record(packets, lost);
            let arrived = !lost && delay_slots < DELAY_CAP_SLOTS;
            let on_time = arrived && delay_slots <= PIPELINE_SLOTS as f64;
            let arrival_time = now + delay_slots * dt;

            // Client-side: store tiles, schedule ACKs and releases.
            if arrived {
                let mut released_all = Vec::new();
                for id in &to_send {
                    released_all.extend(buffers[u].store(*id));
                }
                let ack_time = acks[u].send(arrival_time);
                feedback.schedule(
                    ack_time.max(feedback.now()),
                    Feedback::Acknowledge {
                        user: u,
                        ids: to_send.clone(),
                    },
                );
                if !released_all.is_empty() {
                    let rel_time = acks[u].send(arrival_time);
                    feedback.schedule(
                        rel_time.max(feedback.now()),
                        Feedback::Release {
                            user: u,
                            ids: released_all,
                        },
                    );
                }
            }

            pending[u].push_back(PendingFrame {
                display_slot: slot + PIPELINE_SLOTS,
                predicted: predicted[u],
                quality: q,
                delivered_on_time: on_time,
                delay_slots,
            });

            // 5. Measurements feeding the estimators (what the client
            //    reports back): achieved bandwidth and observed delay.
            let noise: f64 = 1.0 + rng.gen_range(-0.1..0.1);
            bandwidth_estimates[u].update(effective_bn[u] * noise);
            delay_estimators[u].observe(rate, delay_slots);
        }

        // Prefetch credit: spend the slot's budget slack — constraint (7)
        // headroom left by the allocation — on current-quality tiles for
        // the FoVs predicted at the H − 1 slots past the display slot
        // (none at H = 1). This simulator models the push as delivered, so
        // the chosen tiles are charged to the ledgers at once: the
        // arrival-slot retarget sees them as delivered (no re-stage, no
        // resend), and a prediction that never materialises is released
        // by a later pass.
        planner.prefetch(
            |_| true,
            |u, h| {
                let horizon_slots = (PIPELINE_SLOTS + pose_staleness[u] + h) as f64;
                predictors[u].predict_fractional(horizon_slots / period as f64)
            },
        );
        planner.acknowledge_prefetched();
    }

    let users: Vec<UserQoeSummary> = accumulators.iter().map(|a| a.summary()).collect();
    let (cache_hits, cache_misses) = server_cache.stats();
    SystemRunResult {
        label,
        summary: SystemQoeSummary::from_users(&users),
        fps: 60.0 * frames_displayed as f64 / frames_total.max(1) as f64,
        loss_rate: transfers_lost as f64 / transfers.max(1) as f64,
        cache_hit_rate: cache_hits as f64 / (cache_hits + cache_misses).max(1) as f64,
        link_switches: bonded
            .as_ref()
            .map(|links| links.iter().map(|l| l.switches()).sum())
            .unwrap_or(0),
        users,
        timeseries,
    }
}

/// Running estimate of the per-packet loss probability from transfer
/// outcomes: `lost transfers / packets sent` (consistent for small loss
/// rates, where a lost transfer almost surely lost exactly one packet).
#[derive(Debug, Clone, Copy, Default)]
struct PacketLossEstimate {
    packets: u64,
    lost_transfers: u64,
}

impl PacketLossEstimate {
    fn new() -> Self {
        PacketLossEstimate::default()
    }

    fn record(&mut self, packets: u32, lost: bool) {
        self.packets += u64::from(packets);
        if lost {
            self.lost_transfers += 1;
        }
    }

    fn estimate(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            (self.lost_transfers as f64 / self.packets as f64).min(0.5)
        }
    }
}

/// Number of MTU packets a transfer at `rate` Mbps over one slot needs.
pub fn packets_for_rate(rate_mbps: f64, slot_s: f64, packet_size_kbit: f64) -> u32 {
    ((rate_mbps * slot_s * 1000.0) / packet_size_kbit)
        .ceil()
        .max(1.0) as u32
}

/// Probability a transfer of `packets` packets loses at least one packet
/// when each is lost independently with probability `p`.
pub fn transfer_loss_probability(p: f64, packets: u32) -> f64 {
    1.0 - (1.0 - p.clamp(0.0, 1.0)).powi(packets as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> SystemConfig {
        SystemConfig {
            num_users: 4,
            duration_s: 5.0,
            ..SystemConfig::setup1(seed)
        }
    }

    #[test]
    fn runs_deterministically() {
        let cfg = tiny(3);
        let a = run(&cfg, AllocatorKind::DensityValueGreedy);
        let b = run(&cfg, AllocatorKind::DensityValueGreedy);
        assert_eq!(a, b);
    }

    #[test]
    fn fps_is_plausible_for_ours() {
        let cfg = tiny(7);
        let r = run(&cfg, AllocatorKind::DensityValueGreedy);
        assert!(r.fps > 40.0 && r.fps <= 60.0, "fps {} implausible", r.fps);
    }

    #[test]
    fn loss_rate_grows_with_packet_loss() {
        let clean = tiny(9);
        let mut lossy = tiny(9);
        lossy.packet_loss_probability = 0.005;
        let r_clean = run(&clean, AllocatorKind::DensityValueGreedy);
        let r_lossy = run(&lossy, AllocatorKind::DensityValueGreedy);
        assert!(
            r_lossy.loss_rate > r_clean.loss_rate,
            "lossy {} vs clean {}",
            r_lossy.loss_rate,
            r_clean.loss_rate
        );
        assert!(r_lossy.loss_rate > 0.01);
    }

    #[test]
    fn packet_helpers() {
        assert_eq!(packets_for_rate(36.0, 1.0 / 60.0, 12.0), 50);
        assert_eq!(packets_for_rate(0.0, 1.0 / 60.0, 12.0), 1);
        assert_eq!(transfer_loss_probability(0.0, 100), 0.0);
        let p = transfer_loss_probability(0.01, 50);
        assert!(p > 0.39 && p < 0.40, "p = {p}");
        assert_eq!(transfer_loss_probability(1.0, 3), 1.0);
    }

    #[test]
    fn loss_aware_mode_beats_plain_under_heavy_loss() {
        let mut cfg = tiny(17);
        cfg.duration_s = 10.0;
        cfg.packet_loss_probability = 0.003;
        let plain = run(&cfg, AllocatorKind::DensityValueGreedy);
        let aware = run(&cfg, AllocatorKind::LossAwareGreedy);
        // Loss-aware should not lose, and typically wins, when transfers
        // fail often.
        assert!(
            aware.summary.avg_qoe >= plain.summary.avg_qoe - 0.1,
            "aware {} vs plain {}",
            aware.summary.avg_qoe,
            plain.summary.avg_qoe
        );
    }

    #[test]
    fn setup_presets_match_paper() {
        let s1 = SystemConfig::setup1(0);
        assert_eq!(s1.num_users, 8);
        assert_eq!(s1.num_routers, 1);
        assert_eq!(s1.server_total_mbps, 400.0);
        let s2 = SystemConfig::setup2(0);
        assert_eq!(s2.num_users, 15);
        assert_eq!(s2.num_routers, 2);
        assert_eq!(s2.server_total_mbps, 800.0);
        assert_eq!(s2.slots(), 3600);
    }

    #[test]
    fn ours_beats_firefly_in_setup1_scale_model() {
        let cfg = tiny(21);
        let ours = run(&cfg, AllocatorKind::DensityValueGreedy);
        let firefly = run(&cfg, AllocatorKind::Firefly);
        assert!(
            ours.summary.avg_qoe > firefly.summary.avg_qoe,
            "ours {} vs firefly {}",
            ours.summary.avg_qoe,
            firefly.summary.avg_qoe
        );
    }

    #[test]
    fn online_rendering_with_ample_gpus_matches_offline_closely() {
        let offline = tiny(23);
        let online = SystemConfig {
            rendering: RenderingMode::Online { gpus: 8 },
            ..tiny(23)
        };
        let off = run(&offline, AllocatorKind::DensityValueGreedy);
        let on = run(&online, AllocatorKind::DensityValueGreedy);
        // With 8 GPUs for 4 users the render latency is a small constant;
        // QoE must be within a modest factor of offline.
        assert!(
            on.summary.avg_qoe > 0.6 * off.summary.avg_qoe,
            "online {} vs offline {}",
            on.summary.avg_qoe,
            off.summary.avg_qoe
        );
    }

    #[test]
    fn starved_gpu_farm_hurts_qoe() {
        let plenty = SystemConfig {
            num_users: 8,
            duration_s: 5.0,
            rendering: RenderingMode::Online { gpus: 6 },
            ..SystemConfig::setup1(29)
        };
        let starved = SystemConfig {
            rendering: RenderingMode::Online { gpus: 1 },
            ..plenty.clone()
        };
        let rich = run(&plenty, AllocatorKind::DensityValueGreedy);
        let poor = run(&starved, AllocatorKind::DensityValueGreedy);
        assert!(
            poor.fps < rich.fps,
            "1 GPU fps {} should trail 6 GPUs fps {}",
            poor.fps,
            rich.fps
        );
    }

    #[test]
    fn system_timeseries_matches_summaries() {
        let mut cfg = tiny(41);
        cfg.record_timeseries = true;
        let r = run(&cfg, AllocatorKind::DensityValueGreedy);
        let ts = r.timeseries.as_ref().expect("requested");
        for (u, user) in r.users.iter().enumerate() {
            assert_eq!(ts.chosen_level[u].len() as u64, user.slots);
            let mean_viewed: f64 =
                ts.viewed_quality[u].iter().map(|&v| v as f64).sum::<f64>() / user.slots as f64;
            assert!((mean_viewed - user.avg_viewed_quality).abs() < 1e-4);
        }
    }

    #[test]
    fn fallback_allocators_still_run_through_the_engine() {
        // Firefly has no staged fast path: it exercises the materialising
        // default of allocate_staged every slot.
        let cfg = tiny(11);
        let r = run(&cfg, AllocatorKind::Firefly);
        assert!(r.fps > 0.0);
        assert_eq!(r.users.len(), cfg.num_users);
    }

    #[test]
    fn handover_scenario_forces_failovers() {
        let clean = SystemConfig {
            duration_s: 10.0,
            ..tiny(33)
        };
        let impaired = SystemConfig {
            scenario: Some(NetScenario::paper_default(Pathology::Handover)),
            ..clean.clone()
        };
        let clean_run = run(&clean, AllocatorKind::DensityValueGreedy);
        let impaired_run = run(&impaired, AllocatorKind::DensityValueGreedy);
        assert_eq!(clean_run.link_switches, 0, "no scenario, no switches");
        assert!(
            impaired_run.link_switches >= 1,
            "handover gaps must trigger failovers, got {}",
            impaired_run.link_switches
        );
    }

    #[test]
    fn fading_scenario_hurts_qoe_versus_clean_medium() {
        let clean = SystemConfig {
            duration_s: 10.0,
            ..tiny(33)
        };
        let impaired = SystemConfig {
            scenario: Some(NetScenario::paper_default(Pathology::MarkovFading)),
            ..clean.clone()
        };
        let clean_run = run(&clean, AllocatorKind::DensityValueGreedy);
        let impaired_run = run(&impaired, AllocatorKind::DensityValueGreedy);
        assert!(
            impaired_run.summary.avg_qoe < clean_run.summary.avg_qoe,
            "impaired {} should trail clean {}",
            impaired_run.summary.avg_qoe,
            clean_run.summary.avg_qoe
        );
    }

    #[test]
    fn bufferbloat_punishes_delay_blind_allocation() {
        // The deep RLC buffer absorbs whatever a delay-blind allocator
        // (PAVQ) pushes into it, so its delay balloons; the delay-aware
        // objective backs off before the queue grows — the paper's core
        // claim, reproduced under the bloat pathology.
        let cfg = SystemConfig {
            scenario: Some(NetScenario::paper_default(Pathology::Bufferbloat)),
            duration_s: 10.0,
            ..tiny(33)
        };
        let ours = run(&cfg, AllocatorKind::DensityValueGreedy);
        let blind = run(&cfg, AllocatorKind::Pavq);
        assert!(
            blind.summary.avg_delay > ours.summary.avg_delay,
            "delay-blind {} should exceed delay-aware {}",
            blind.summary.avg_delay,
            ours.summary.avg_delay
        );
    }

    #[test]
    fn lookahead_horizon_engages_and_stays_deterministic() {
        let myopic = SystemConfig {
            scenario: Some(NetScenario::paper_default(Pathology::Handover)),
            ..tiny(37)
        };
        let ahead = SystemConfig {
            horizon: 4,
            ..myopic.clone()
        };
        let m = run(&myopic, AllocatorKind::DensityValueGreedy);
        let a = run(&ahead, AllocatorKind::DensityValueGreedy);
        assert_ne!(m, a, "horizon 4 must engage the lookahead subsystem");
        assert_eq!(
            run(&ahead, AllocatorKind::DensityValueGreedy),
            a,
            "horizon 4 diverged between two runs"
        );
    }

    #[test]
    fn explicit_horizon_one_is_the_myopic_allocator() {
        // H = 1 is not a tuned-down lookahead configuration — no
        // lookahead code runs at all, so the run is the paper's per-slot
        // allocator bit for bit.
        let cfg = tiny(43);
        assert_eq!(cfg.horizon, 1, "myopic must be the default");
        let explicit = SystemConfig {
            horizon: 1,
            ..cfg.clone()
        };
        assert_eq!(
            run(&explicit, AllocatorKind::DensityValueGreedy),
            run(&cfg, AllocatorKind::DensityValueGreedy)
        );
    }

    #[test]
    fn pipeline_scores_all_frames() {
        let cfg = tiny(5);
        let r = run(&cfg, AllocatorKind::DensityValueGreedy);
        // Every user scored ~duration/dt − PIPELINE_SLOTS frames.
        for u in &r.users {
            assert!(u.slots as usize >= cfg.slots() - PIPELINE_SLOTS - 1);
        }
    }
}
