//! The four workloads: what each is, how its fleet is built from the
//! seed, and the block runners that drive the real
//! `cvr_serve::{Session, ShardHost, ReplayClient}` through their public
//! API.
//!
//! A *block* is one complete life of a fleet: set-up (trace and
//! impairment generation, construction, connects, handshakes, warm-up),
//! a fixed number of timed slots, and tear-down with the correctness
//! data. A run is a fixed number of blocks per sub-seed, so set-up is
//! measured several times. Closed-loop blocks of one sub-seed are
//! identical — the QoE outputs depend only on the seed and the fixed
//! slot count — while the paced fleet's blocks replay consecutive
//! windows of its link traces.

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

use cvr_net::impair::{ImpairmentConfig, Pathology};
use cvr_net::multilink::{BondedLink, FailoverPolicy};
use cvr_net::trace::{ThroughputTrace, TraceGeneratorConfig, TraceProfile};
use cvr_serve::client::{ClientConfig, ClientReport, ReplayClient};
use cvr_serve::readiness::Poller;
use cvr_serve::server::{ServeConfig, ServeReport, Session};
use cvr_serve::shard::{HostConfig, SessionId, ShardHost};
use cvr_serve::transport::{loopback, ClientTransport, ServerTransport};

use crate::calib;
use crate::nbclient::NbClient;
use crate::spans::{self, now_ns};
use crate::tap::{ClientLog, ClientTap, ClientTapConfig, ServerLog, ServerTap};

/// The run length the block sizes below were chosen for; other
/// `--seconds` values scale every slot count by `seconds / 30`.
pub const REFERENCE_SECONDS: f64 = 30.0;

/// The slot period, and the deadline server work is held to.
pub const SLOT: Duration = Duration::from_millis(15);

/// Every client's fingerprint is snapshotted after this many assignment
/// frames, so passes of different lengths can be compared.
pub const CHECKPOINT_FRAMES: u64 = 1000;

/// Decoded messages each traced tap keeps, per direction, as probe
/// inputs: a fixed total shared out over the connections, so the
/// 512-client fleet records as much as the 2-client one.
fn record_messages(w: &Workload) -> usize {
    (262_144 / w.clients()).clamp(256, 8192)
}

/// What carries the frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// In-process bounded queues (full codec, no sockets).
    Loopback,
    /// Real TCP over 127.0.0.1 through `serve::readiness::Poller`.
    Tcp,
}

/// One workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Sessions hosted.
    pub sessions: usize,
    /// Replay clients per session.
    pub clients_per_session: usize,
    /// `ServeConfig::multicast`.
    pub multicast: bool,
    /// `ServeConfig::horizon`.
    pub horizon: usize,
    /// Transport.
    pub link: Link,
    /// Open loop at the 15 ms period (otherwise closed-loop lockstep).
    pub paced: bool,
    /// Untimed slots that fill caches before timing starts.
    pub warmup_slots: u64,
    /// Timed slots per block at [`REFERENCE_SECONDS`].
    pub block_slots: u64,
    /// Sub-seeds a timed run cycles through, block by block, so that no
    /// single set of traces decides a result: more where a fleet replays
    /// few distinct traces (QoE then hangs on each one), fewer where it
    /// replays hundreds.
    pub sub_seeds: usize,
    /// Blocks a timed run gives every sub-seed: a fixed count, so that a
    /// faster build gets no more chances at a lucky repeat than a slower
    /// one. Closed loop: identical repeats. Paced: block `r` replays
    /// window `r` of the link traces, and the windows tile them.
    pub repeats: usize,
}

impl Workload {
    /// Clients across all sessions.
    pub fn clients(&self) -> usize {
        self.sessions * self.clients_per_session
    }

    /// Timed slots per chunk of a closed loop's block. Chunk `c` of a
    /// sub-seed is the same work in every repeat, and each chunk's
    /// timings take its least-disturbed repeat; interference on a shared
    /// host comes in bursts of about 50 ms, so a chunk is kept to 5–15 ms
    /// (fewer slots where 32 clients make a slot long) and a burst spoils
    /// a few chunks of one repeat, not the block. Every chunk still holds
    /// 512 or more latency samples.
    pub fn chunk_slots(&self) -> u64 {
        (2048 / self.clients_per_session as u64).min(256)
    }

    /// Timed slots per block for a run of `seconds`.
    pub fn scaled_block_slots(&self, seconds: f64) -> u64 {
        ((self.block_slots as f64 * seconds / REFERENCE_SECONDS).round() as u64).max(32)
    }
}

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "classroom8",
        sessions: 1,
        clients_per_session: 8,
        multicast: false,
        horizon: 1,
        link: Link::Loopback,
        paced: false,
        warmup_slots: 2_000,
        block_slots: 20_000,
        sub_seeds: 6,
        repeats: 6,
    },
    Workload {
        name: "lecture32_mcast_h4",
        sessions: 1,
        clients_per_session: 32,
        multicast: true,
        horizon: 4,
        link: Link::Loopback,
        paced: false,
        warmup_slots: 500,
        block_slots: 2_304,
        sub_seeds: 10,
        repeats: 4,
    },
    Workload {
        name: "tcp_duo",
        sessions: 1,
        clients_per_session: 2,
        multicast: false,
        horizon: 1,
        link: Link::Tcp,
        paced: false,
        warmup_slots: 2_000,
        block_slots: 10_000,
        sub_seeds: 12,
        repeats: 6,
    },
    Workload {
        name: "fleet64_paced",
        sessions: 64,
        clients_per_session: 8,
        multicast: false,
        horizon: 1,
        link: Link::Loopback,
        paced: true,
        warmup_slots: 30,
        block_slots: 70,
        sub_seeds: 2,
        repeats: 9,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How a block is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end measurement: only the client tap's latency stamps.
    Timed,
    /// As `Timed`, with `Session::enable_tracing` on (the program's own
    /// trace ring), to price it.
    ObsTracing,
    /// The benchmark's spans and both taps; lockstep only.
    Traced,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn mix(seed: u64, salt: u64) -> u64 {
    splitmix64(seed ^ splitmix64(salt))
}

/// The six link scenarios `fleet64_paced` deals round-robin to sessions.
fn scenario_of(session: usize) -> Option<Pathology> {
    match session % (Pathology::ALL.len() + 1) {
        0 => None,
        k => Some(Pathology::ALL[k - 1]),
    }
}

/// Lockstep slots a paced block steps, all sessions back to back, between
/// its warm-up (handshakes, admission, first-touch slots) and its paced
/// ticks: the samples behind the paced fleet's `slot_work_us_p50`.
pub const PACED_LOCKSTEP_SLOTS: u64 = 100;

impl Workload {
    /// Client slots one paced block of `slots` paced ticks replays:
    /// warm-up, the lockstep stretch, the ticks and the cool-down tick.
    fn paced_window_slots(&self, slots: u64) -> u64 {
        self.warmup_slots + PACED_LOCKSTEP_SLOTS + slots + 1
    }

    /// Seconds of its link traces one paced block of `slots` ticks replays.
    pub fn paced_window_s(&self, slots: u64) -> f64 {
        self.paced_window_slots(slots) as f64 * SLOT.as_secs_f64()
    }

    /// Virtual length of a paced fleet's link traces, seconds: exactly
    /// what the `repeats` blocks of one sub-seed replay between them at
    /// the reference run length (traces are cyclic, so a longer run
    /// wraps around).
    fn link_trace_s(&self) -> f64 {
        self.repeats as f64 * self.paced_window_s(self.block_slots)
    }
}

/// `trace` as a client sees it that joins `offset_s` into it (traces are
/// cyclic): `rotated.at(t) == trace.at(offset_s + t)`.
fn rotated(trace: &ThroughputTrace, offset_s: f64) -> ThroughputTrace {
    let mut skip = offset_s.rem_euclid(trace.duration());
    let mut head: Vec<(f64, f64)> = Vec::new();
    let mut tail: Vec<(f64, f64)> = Vec::new();
    for &(hold_s, mbps) in trace.segments() {
        if skip >= hold_s {
            skip -= hold_s;
            tail.push((hold_s, mbps));
        } else if skip > 0.0 {
            head.push((hold_s - skip, mbps));
            tail.push((skip, mbps));
            skip = 0.0;
        } else {
            head.push((hold_s, mbps));
        }
    }
    head.extend(tail);
    ThroughputTrace::from_segments(head)
}

/// Generates the bonded Wi-Fi/LTE links of a paced fleet as they stand
/// `offset_s` into their traces: `links[i]` is client `i`'s (join order;
/// `None` for clean single-link sessions). The last two clients of every
/// impaired session sit at the cell edge — their LTE fallback is below
/// the server's 2 Mbps degrade floor — so that failing over exercises the
/// bandwidth-degraded pin and not only the re-anchor. Returns the links
/// and the milliseconds spent in `ImpairmentConfig::{generate,
/// generate_group}`.
fn generate_links(w: &Workload, seed: u64, offset_s: f64) -> (Vec<Option<BondedLink>>, f64) {
    let trace_s = w.link_trace_s();
    let mut links: Vec<Option<BondedLink>> = vec![None; w.clients()];
    let mut generate_ns = 0u64;
    for session in 0..w.sessions {
        let Some(pathology) = scenario_of(session) else {
            continue;
        };
        let config = ImpairmentConfig {
            duration_s: trace_s,
            ..ImpairmentConfig::paper_default(pathology)
        };
        let session_seed = mix(seed, 0x11AA_0000 + session as u64);
        let start = now_ns();
        // A flash crowd is one co-located group sharing a capacity
        // trace; the other pathologies are independent per user.
        let primaries: Vec<ThroughputTrace> = if pathology == Pathology::FlashCrowd {
            config.generate_group(w.clients_per_session, session_seed)
        } else {
            (0..w.clients_per_session)
                .map(|u| config.generate(mix(session_seed, u as u64)))
                .collect()
        };
        generate_ns += now_ns() - start;
        for (u, wifi) in primaries.into_iter().enumerate() {
            let (min_mbps, max_mbps) = if u + 2 >= w.clients_per_session {
                (0.5, 1.8)
            } else {
                (8.0, 25.0)
            };
            let lte = TraceGeneratorConfig {
                profile: TraceProfile::LteLike,
                min_mbps,
                max_mbps,
                duration_s: trace_s,
            }
            .generate(mix(session_seed, 0x17E0 + u as u64));
            // Clients join round-robin over sessions.
            links[u * w.sessions + session] = Some(BondedLink::new(
                rotated(&wifi, offset_s),
                rotated(&lte, offset_s),
                FailoverPolicy::default(),
            ));
        }
    }
    (links, generate_ns as f64 / 1e6)
}

/// The seed of sub-seed `k` of a run on `seed`.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    mix(seed, 0x5B5E_ED00 + k as u64)
}

/// The replay seed of client `i`. Multicast workloads put the clients in
/// four co-gazing clusters: members of a cluster replay one trace.
fn client_seed(w: &Workload, seed: u64, i: usize) -> u64 {
    let trace = if w.multicast { i % 4 } else { i };
    mix(seed, 0xC11E_0000 + trace as u64)
}

/// One replay client behind a transport-erasing interface.
pub trait Client: Send {
    /// `ReplayClient::step_slot`.
    fn step_slot(&mut self);
    /// `ReplayClient::finish`.
    fn finish(self: Box<Self>) -> ClientReport;
}

impl<T: ClientTransport> Client for ReplayClient<T> {
    fn step_slot(&mut self) {
        ReplayClient::step_slot(self);
    }

    fn finish(self: Box<Self>) -> ClientReport {
        ReplayClient::finish(*self)
    }
}

/// The server side of a fleet, in the three shapes the workloads use.
pub enum Server {
    /// One `Session` stepped directly.
    Session(Box<Session>),
    /// A `ShardHost` (production shape: its shard owns the poller).
    Host(ShardHost),
    /// A `Session` plus a `Poller` driven by hand in the exact
    /// `Shard::step_slot` sequence, so a traced TCP pass can wrap the
    /// registered transport and time each `poll`.
    Polled {
        /// The connection multiplexer.
        poller: Poller,
        /// The session it feeds.
        session: Box<Session>,
    },
}

impl Server {
    /// One lockstep slot across every session. Returns the server work
    /// in nanoseconds (what the 15 ms deadline applies to).
    pub fn step(&mut self) -> u64 {
        let start = now_ns();
        match self {
            Server::Session(session) => {
                session.step_slot();
                let work = now_ns() - start;
                session.note_tick(work <= SLOT.as_nanos() as u64, work);
                work
            }
            Server::Host(host) => {
                host.step_slot();
                now_ns() - start
            }
            Server::Polled { poller, session } => {
                poller.poll();
                session.step_slot();
                session.note_tick(true, 0);
                poller.poll();
                now_ns() - start
            }
        }
    }

    /// [`Server::step`] with the benchmark's spans around each call.
    /// On a host, odd slots step every session by hand so that a
    /// per-session `serve.server.step` span exists beside the
    /// whole-shard one; `by_hand` accumulates `(ns, session-steps)` of
    /// those.
    fn step_traced(&mut self, slot: u64, by_hand: &mut (u64, u64)) -> u64 {
        let start = now_ns();
        match self {
            Server::Session(session) => {
                spans::with(|r| r.open("serve.server.step"));
                session.step_slot();
                spans::with(|r| r.close());
                let work = now_ns() - start;
                session.note_tick(work <= SLOT.as_nanos() as u64, work);
                by_hand.0 += work;
                by_hand.1 += 1;
                work
            }
            Server::Host(host) if slot % 2 == 1 => {
                for id in 0..host.session_count() as SessionId {
                    let begin = now_ns();
                    spans::with(|r| r.open("serve.server.step"));
                    let session = host.session_mut(id);
                    session.step_slot();
                    spans::with(|r| r.close());
                    by_hand.0 += now_ns() - begin;
                    by_hand.1 += 1;
                    session.note_tick(true, 0);
                }
                now_ns() - start
            }
            Server::Host(host) => {
                spans::with(|r| r.open("serve.shard.step"));
                host.step_slot();
                spans::with(|r| r.close());
                now_ns() - start
            }
            Server::Polled { poller, session } => {
                spans::with(|r| {
                    r.open("serve.shard.step");
                    r.open("serve.readiness.poll");
                });
                poller.poll();
                spans::with(|r| {
                    r.close();
                    r.open("serve.server.step");
                });
                let begin = now_ns();
                session.step_slot();
                by_hand.0 += now_ns() - begin;
                by_hand.1 += 1;
                spans::with(|r| r.close());
                session.note_tick(true, 0);
                spans::with(|r| r.open("serve.readiness.poll"));
                poller.poll();
                spans::with(|r| {
                    r.close();
                    r.close();
                });
                now_ns() - start
            }
        }
    }

    fn for_each_session(&mut self, mut f: impl FnMut(&mut Session)) {
        match self {
            Server::Session(session) | Server::Polled { session, .. } => f(session),
            Server::Host(host) => {
                for id in 0..host.session_count() as SessionId {
                    f(host.session_mut(id));
                }
            }
        }
    }

    fn shutdown(&mut self) {
        match self {
            Server::Session(session) => session.shutdown(),
            Server::Host(host) => host.shutdown(),
            Server::Polled { poller, session } => {
                session.shutdown();
                poller.poll();
            }
        }
    }

    fn reports(&mut self) -> Vec<ServeReport> {
        match self {
            Server::Session(session) | Server::Polled { session, .. } => vec![session.report()],
            Server::Host(host) => host.reports().into_iter().map(|(_, r)| r).collect(),
        }
    }

    /// `Session::render_metrics` / `ShardHost::render_metrics`.
    fn render_metrics(&mut self) -> String {
        match self {
            Server::Session(session) | Server::Polled { session, .. } => session.render_metrics(),
            Server::Host(host) => host.render_metrics(),
        }
    }
}

/// A built fleet, handshakes queued, nothing stepped yet.
struct Fleet {
    server: Server,
    clients: Vec<Box<dyn Client>>,
    client_logs: Receiver<ClientLog>,
    server_logs: Receiver<ServerLog>,
    /// Clones of the clients' bonded links (probe inputs).
    links: Vec<BondedLink>,
    impair_generate_ms: f64,
}

/// Builds the workload's fleet for a block of `total_slots` client slots
/// that joins a paced fleet's link traces `link_offset_s` in.
fn build(
    w: &Workload,
    seed: u64,
    total_slots: u64,
    mode: Mode,
    link_offset_s: f64,
    due_ns: Option<Arc<AtomicU64>>,
) -> std::io::Result<Fleet> {
    let config = ServeConfig {
        max_users: w.clients_per_session.max(ServeConfig::default().max_users),
        multicast: w.multicast,
        horizon: w.horizon,
        ..ServeConfig::default()
    };
    let queue_frames = config.outbound_queue_frames;
    let traced = mode == Mode::Traced;
    let mut server = if w.sessions > 1 || (w.link == Link::Tcp && !traced) {
        let mut host = ShardHost::new(HostConfig {
            shards: 1,
            session: config,
        });
        for _ in 0..w.sessions {
            host.add_session();
        }
        Server::Host(host)
    } else if w.link == Link::Tcp {
        Server::Polled {
            poller: Poller::new(),
            session: Box::new(Session::new(config)),
        }
    } else {
        Server::Session(Box::new(Session::new(config)))
    };
    if mode == Mode::ObsTracing {
        server.for_each_session(|s| s.enable_tracing(4096));
    }

    let (links, impair_generate_ms) = if w.paced {
        generate_links(w, seed, link_offset_s)
    } else {
        (vec![None; w.clients()], 0.0)
    };
    let (client_tx, client_logs): (Sender<ClientLog>, _) = channel();
    let (server_tx, server_logs): (Sender<ServerLog>, _) = channel();
    let listener = match w.link {
        Link::Tcp => Some(TcpListener::bind("127.0.0.1:0")?),
        Link::Loopback => None,
    };

    let mut clients: Vec<Box<dyn Client>> = Vec::with_capacity(w.clients());
    for (i, link) in links.iter().enumerate() {
        let tap_config = ClientTapConfig {
            client: i,
            traced,
            due_ns: due_ns.clone(),
            expected_poses: total_slots as usize + 1,
            checkpoint_frames: CHECKPOINT_FRAMES,
            record_messages: if traced { record_messages(w) } else { 0 },
        };
        let client_config = ClientConfig {
            seed: client_seed(w, seed, i),
            bonded: link.clone(),
            ..ClientConfig::default()
        };
        let wrap = |end: Box<dyn ServerTransport>| -> Box<dyn ServerTransport> {
            if traced {
                Box::new(ServerTap::new(
                    end,
                    i,
                    record_messages(w),
                    server_tx.clone(),
                ))
            } else {
                end
            }
        };
        match &listener {
            None => {
                let (server_end, client_end) = loopback(queue_frames);
                let server_end = wrap(Box::new(server_end));
                match &mut server {
                    Server::Host(host) => {
                        let session = host.route_join();
                        host.add_transport(session, server_end);
                    }
                    Server::Session(session) | Server::Polled { session, .. } => {
                        session.add_connection(server_end);
                    }
                }
                let tap = ClientTap::new(client_end, tap_config, client_tx.clone());
                clients.push(Box::new(ReplayClient::new(tap, client_config)));
            }
            Some(listener) => {
                let stream = TcpStream::connect(listener.local_addr()?)?;
                let (accepted, _) = listener.accept()?;
                match &mut server {
                    Server::Host(host) => {
                        let session = host.route_join();
                        host.add_tcp(session, accepted, queue_frames)?;
                    }
                    Server::Polled { poller, session } => {
                        let transport = poller.register(accepted, queue_frames)?;
                        session.add_connection(wrap(Box::new(transport)));
                    }
                    Server::Session(_) => unreachable!("TCP fleets are polled or hosted"),
                }
                let tap = ClientTap::new(NbClient::new(stream)?, tap_config, client_tx.clone());
                clients.push(Box::new(ReplayClient::new(tap, client_config)));
            }
        }
    }
    Ok(Fleet {
        server,
        clients,
        client_logs,
        server_logs,
        links: links.into_iter().flatten().collect(),
        impair_generate_ms,
    })
}

/// Everything one block produced.
pub struct Block {
    /// Sessions hosted.
    pub sessions: usize,
    /// Timed slots.
    pub slots: u64,
    /// Slots before them (a paced block's lockstep stretch included).
    pub warmup_slots: u64,
    /// Block start → first timed slot, seconds.
    pub setup_s: f64,
    /// The calibration kernel's time between warm-up and the timed slots
    /// (`calib::kernel_us`; 0 in traced passes, which do not calibrate).
    pub kernel_us: f64,
    /// Timed slots per chunk: [`Workload::chunk_slots`] in a closed loop,
    /// the whole run when paced.
    pub chunk_slots: u64,
    /// Wall time of each full chunk of the timed loop, ns.
    pub chunk_ns: Vec<u64>,
    /// Server work per slot across all sessions, ns: the timed slots of
    /// a closed loop, the lockstep stretch of a paced block.
    pub step_ns: Vec<u32>,
    /// Server work over warm-up + timed + cool-down slots, ns, and the
    /// number of those slots.
    pub step_total: (u64, u64),
    /// `(ns, session-steps)` of `Session::step_slot` calls timed one
    /// session at a time (traced passes).
    pub session_step: (u64, u64),
    /// Nanoseconds inside `ReplayClient::step_slot` over the timed
    /// slots, and the number of client steps (traced passes).
    pub client_step: (u64, u64),
    /// Client-driver tick lateness, ns (paced).
    pub late_ns: Vec<u32>,
    /// `Session::multicast_groups()` summed over the timed slots.
    pub multicast_groups_sum: u64,
    /// Microseconds of one `render_metrics` call at the end of the block.
    pub render_us: f64,
    /// The rendered metrics body (for the lookahead overlap series).
    pub rendered: String,
    /// Per-session reports, session-ID order.
    pub reports: Vec<ServeReport>,
    /// Per-client reports, join order.
    pub client_reports: Vec<ClientReport>,
    /// Per-client tap logs, join order.
    pub client_logs: Vec<ClientLog>,
    /// Per-connection server tap logs, join order (traced passes).
    pub server_logs: Vec<ServerLog>,
    /// Clones of the clients' bonded links (probe inputs).
    pub links: Vec<BondedLink>,
    /// Milliseconds spent generating impairment traces during set-up.
    pub impair_generate_ms: f64,
}

fn tear_down(w: &Workload, fleet: Fleet, slots: u64, setup_s: f64, with_render: bool) -> Block {
    let Fleet {
        mut server,
        clients,
        client_logs,
        server_logs,
        links,
        impair_generate_ms,
    } = fleet;
    let (render_us, rendered) = if with_render {
        let start = now_ns();
        let body = server.render_metrics();
        ((now_ns() - start) as f64 / 1e3, body)
    } else {
        (0.0, String::new())
    };
    server.shutdown();
    let reports = server.reports();
    let client_reports: Vec<ClientReport> = clients.into_iter().map(|c| c.finish()).collect();
    // Dropping the server drops its taps, which deliver their logs.
    drop(server);
    let mut client_logs: Vec<ClientLog> = client_logs.try_iter().collect();
    client_logs.sort_by_key(|log| log.client);
    let mut server_logs: Vec<ServerLog> = server_logs.try_iter().collect();
    server_logs.sort_by_key(|log| log.connection);
    Block {
        sessions: w.sessions,
        slots,
        warmup_slots: w.warmup_slots,
        setup_s,
        kernel_us: 0.0,
        chunk_slots: slots,
        chunk_ns: Vec::new(),
        step_ns: Vec::new(),
        step_total: (0, 0),
        session_step: (0, 0),
        client_step: (0, 0),
        late_ns: Vec::new(),
        multicast_groups_sum: 0,
        render_us,
        rendered,
        reports,
        client_reports,
        client_logs,
        server_logs,
        links,
        impair_generate_ms,
    }
}

/// Runs one closed-loop block: all clients `step_slot`, then the server
/// steps, single-threaded, no sleeps, for a fixed number of slots.
///
/// In [`Mode::Traced`] the caller must have installed a span recorder.
///
/// # Errors
///
/// Propagates socket set-up failures of TCP workloads.
pub fn run_lockstep_block(
    w: &Workload,
    seed: u64,
    slots: u64,
    mode: Mode,
) -> std::io::Result<Block> {
    let block_start = now_ns();
    // Warm-up, timed slots, and one cool-down round in which the clients
    // pick up the frames answering their last timed pose.
    let total_slots = w.warmup_slots + slots + 1;
    let mut fleet = build(w, seed, total_slots, mode, 0.0, None)?;
    let traced = mode == Mode::Traced;

    // In a traced block every server step — warm-up and cool-down too —
    // goes through `step_traced`, so `session_step` covers exactly the
    // slots the `ServeReport` stage means cover. No span is recorded
    // outside the timed slots: the recorder is only live inside them.
    let mut session_step = (0u64, 0u64);
    let mut step_total = (0u64, 0u64);
    for slot in 0..w.warmup_slots {
        for client in &mut fleet.clients {
            client.step_slot();
        }
        step_total.0 += if traced {
            fleet.server.step_traced(slot, &mut session_step)
        } else {
            fleet.server.step()
        };
        step_total.1 += 1;
    }
    let setup_s = (now_ns() - block_start) as f64 / 1e9;
    let kernel_us = if traced { 0.0 } else { calib::kernel_us() };

    let mut step_ns: Vec<u32> = Vec::with_capacity(slots as usize);
    let chunk_slots = w.chunk_slots();
    let mut chunk_ns = Vec::with_capacity((slots / chunk_slots) as usize);
    let mut client_step = (0u64, 0u64);
    let mut groups_sum = 0u64;
    let timed_start = now_ns();
    let mut chunk_start = timed_start;
    for slot in 0..slots {
        let work = if traced {
            spans::with(|r| {
                r.begin_slot(slot);
                r.open("bench.round");
            });
            let clients_start = now_ns();
            for client in &mut fleet.clients {
                spans::with(|r| r.open("serve.client.step"));
                client.step_slot();
                spans::with(|r| r.close());
            }
            client_step.0 += now_ns() - clients_start;
            client_step.1 += fleet.clients.len() as u64;
            let work = fleet.server.step_traced(slot, &mut session_step);
            spans::with(|r| r.close());
            fleet
                .server
                .for_each_session(|s| groups_sum += s.multicast_groups() as u64);
            work
        } else {
            for client in &mut fleet.clients {
                client.step_slot();
            }
            fleet.server.step()
        };
        step_ns.push(work.min(u64::from(u32::MAX)) as u32);
        if (slot + 1) % chunk_slots == 0 {
            let now = now_ns();
            chunk_ns.push(now - chunk_start);
            chunk_start = now;
        }
    }
    // A block shorter than a chunk is one chunk.
    let chunk_slots = if chunk_ns.is_empty() {
        chunk_ns.push(now_ns() - timed_start);
        slots
    } else {
        chunk_slots
    };

    spans::with(|r| r.pause());
    for client in &mut fleet.clients {
        client.step_slot();
    }
    step_total.0 += if traced {
        fleet.server.step_traced(slots, &mut session_step)
    } else {
        fleet.server.step()
    };
    step_total.0 += step_ns.iter().map(|&ns| u64::from(ns)).sum::<u64>();
    step_total.1 += slots + 1;

    let mut block = tear_down(w, fleet, slots, setup_s, traced);
    block.kernel_us = kernel_us;
    block.chunk_slots = chunk_slots;
    block.chunk_ns = chunk_ns;
    block.step_ns = step_ns;
    block.step_total = step_total;
    block.session_step = session_step;
    block.client_step = client_step;
    block.multicast_groups_sum = groups_sum;
    Ok(block)
}

fn sleep_until(deadline_ns: u64) {
    let now = now_ns();
    if deadline_ns > now {
        std::thread::sleep(Duration::from_nanos(deadline_ns - now));
    }
}

/// Runs one open-loop block, window `window` of the fleet's link traces:
/// after an untimed lockstep warm-up and a timed lockstep stretch (the
/// server-work samples), the host's shard thread ticks at the 15 ms
/// period while one benchmark-owned thread drives every client on the
/// same period, half a period out of phase. Client ticks are scheduled
/// on an absolute grid that never slips, and each pose is timed from the
/// tick's *due* time.
///
/// # Errors
///
/// Propagates fleet set-up failures.
pub fn run_paced_block(
    w: &Workload,
    seed: u64,
    slots: u64,
    window: usize,
) -> std::io::Result<Block> {
    let block_start = now_ns();
    let ticks = slots + 1;
    let due = Arc::new(AtomicU64::new(0));
    let window_slots = w.paced_window_slots(slots);
    let mut fleet = build(
        w,
        seed,
        window_slots,
        Mode::Timed,
        window as f64 * w.paced_window_s(slots),
        Some(Arc::clone(&due)),
    )?;
    let Server::Host(host) = &mut fleet.server else {
        unreachable!("paced workloads run on a ShardHost");
    };
    // Lockstep slots step the sessions directly: `ShardHost::step_slot`
    // would log a zero-work tick per session and skew the tick figures.
    let mut lockstep = |timed: Option<&mut Vec<u32>>| {
        due.store(now_ns(), Ordering::Relaxed);
        for client in &mut fleet.clients {
            client.step_slot();
        }
        let start = now_ns();
        for id in 0..w.sessions as SessionId {
            host.session_mut(id).step_slot();
        }
        if let Some(step_ns) = timed {
            step_ns.push((now_ns() - start).min(u64::from(u32::MAX)) as u32);
        }
    };
    for _ in 0..w.warmup_slots {
        lockstep(None);
    }
    let setup_s = (now_ns() - block_start) as f64 / 1e9;
    // Every session admitted, every plane touched: the same step the
    // paced ticks run, minus the idle gap before it.
    let mut step_ns: Vec<u32> = Vec::with_capacity(PACED_LOCKSTEP_SLOTS as usize);
    for _ in 0..PACED_LOCKSTEP_SLOTS {
        lockstep(Some(&mut step_ns));
    }
    let kernel_us = calib::kernel_us();

    let period_ns = SLOT.as_nanos() as u64;
    let first_due = now_ns() + 2_000_000;
    let mut clients = std::mem::take(&mut fleet.clients);
    let driver = std::thread::spawn(move || {
        let mut late_ns: Vec<u32> = Vec::with_capacity(ticks as usize);
        for k in 0..ticks {
            let due_at = first_due + k * period_ns;
            sleep_until(due_at);
            late_ns.push((now_ns() - due_at).min(u64::from(u32::MAX)) as u32);
            due.store(due_at, Ordering::Relaxed);
            for client in &mut clients {
                client.step_slot();
            }
        }
        (clients, late_ns)
    });
    sleep_until(first_due + period_ns / 2);
    let run_start = now_ns();
    host.run_realtime(ticks, SLOT, None, None);
    let wall_ns = now_ns() - run_start;
    let (clients, mut late_ns) = driver.join().expect("client driver panicked");
    fleet.clients = clients;
    late_ns.pop(); // the cool-down tick

    let mut block = tear_down(w, fleet, slots, setup_s, false);
    block.warmup_slots = w.warmup_slots + PACED_LOCKSTEP_SLOTS;
    block.kernel_us = kernel_us;
    block.chunk_slots = ticks;
    block.chunk_ns = vec![wall_ns];
    block.step_ns = step_ns;
    block.late_ns = late_ns;
    Ok(block)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_rotated_trace_reads_as_the_original_joined_late() {
        let trace = ThroughputTrace::from_segments(vec![(1.0, 10.0), (0.5, 0.0), (2.5, 30.0)]);
        // Mid-segment, on a segment boundary, zero, and past the end (cyclic).
        for offset in [0.25, 1.0, 0.0, 1.2, 4.0, 9.75] {
            let late = rotated(&trace, offset);
            assert!((late.duration() - trace.duration()).abs() < 1e-12);
            for step in 0..80 {
                let t = step as f64 * 0.05 + 0.01;
                assert_eq!(late.at(t), trace.at(offset + t), "offset {offset}, t {t}");
            }
        }
    }
}
