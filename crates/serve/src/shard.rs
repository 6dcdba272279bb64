//! The sharded session host: many classroom [`Session`]s on a few worker
//! shards, one amortised tick loop per shard.
//!
//! One timer wakeup per classroom — let alone OS threads per client —
//! drowns a host of hundreds of classrooms in wakeups and context
//! switches before the optimiser is ever the bottleneck. A
//! [`ShardHost`] instead owns `N` shards; each shard runs a *set* of
//! sessions off one [`SlotTicker`] (one wakeup per shard per slot) and
//! services all of its connections from one readiness poll loop
//! ([`crate::readiness::Poller`]), so the thread count scales with
//! shards, not clients.
//!
//! A small control plane places new sessions on the least-loaded shard
//! and routes joining clients to the least-joined session, both with
//! deterministic tie-breaks (lowest index wins). Placement is a pure
//! scheduling decision: sessions never share engine state, so **which**
//! shard a session lands on cannot change its QoE — the lockstep tests
//! assert bit-identical per-session reports at 1 vs N shards.
//!
//! Observability: each shard periodically snapshots its sessions'
//! `cvr-obs` registries (plus a `cvr_shard_sessions{shard="i"}` gauge)
//! and the host merges the snapshots into one exposition body, so a
//! single `/metrics` endpoint covers the whole host.

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cvr_obs::{GaugeMerge, Registry};

use crate::expose::MetricsExporter;
use crate::readiness::Poller;
use crate::server::{ServeConfig, ServeReport, Session};
use crate::ticker::SlotTicker;
use crate::transport::ServerTransport;

/// Identifies one session within a [`ShardHost`]. IDs are dense and
/// allocated in [`ShardHost::add_session`] order.
pub type SessionId = u32;

/// Host-level configuration: how many shards, and the per-session
/// serving configuration every classroom is created with.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Worker shard count (clamped to at least 1).
    pub shards: usize,
    /// Configuration applied to every hosted session.
    pub session: ServeConfig,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            shards: 1,
            session: ServeConfig::default(),
        }
    }
}

/// One worker shard: the sessions placed on it plus the poller that
/// services all of their non-blocking connections.
struct Shard {
    sessions: Vec<(SessionId, Session)>,
    poller: Poller,
}

impl Shard {
    /// Snapshots this shard's observability state into one registry:
    /// a per-shard session gauge plus the merge of every hosted
    /// session's registry (counters and histograms add across sessions,
    /// each gauge by the rule it was registered with).
    fn snapshot(&mut self, index: usize) -> Registry {
        let mut merged = Registry::new();
        let g = merged.gauge(
            "cvr_shard_sessions",
            &format!("shard=\"{index}\""),
            "Sessions hosted by this shard",
            GaugeMerge::Sum,
        );
        merged.set_gauge(g, self.sessions.len() as i64);
        for (_, session) in &mut self.sessions {
            session.sync_gauges();
            merged.merge(session.metrics());
        }
        merged
    }

    /// Runs one lockstep slot across every hosted session: service the
    /// sockets, step each session, service the sockets again so this
    /// slot's assignments reach the wire before the next slot.
    fn step_slot(&mut self) {
        self.poller.poll();
        for (_, session) in &mut self.sessions {
            session.step_slot();
            session.note_tick(true, 0);
        }
        self.poller.poll();
    }
}

/// A multi-session host: `N` shards, each running its sessions off one
/// amortised tick loop, with a control plane for session placement and
/// join routing.
pub struct ShardHost {
    config: HostConfig,
    shards: Vec<Shard>,
    /// `placements[session_id]` → (shard index, slot within the shard).
    placements: Vec<(usize, usize)>,
    /// Clients routed to each session so far (monotonic, never decremented
    /// on departure — routing is a pure admission-order policy, so it is
    /// identical however sessions are spread over shards).
    routed: Vec<usize>,
}

impl ShardHost {
    /// Creates an empty host with `config.shards` worker shards (at
    /// least one).
    pub fn new(config: HostConfig) -> Self {
        let n = config.shards.max(1);
        let shards = (0..n)
            .map(|_| Shard {
                sessions: Vec::new(),
                poller: Poller::new(),
            })
            .collect();
        ShardHost {
            config,
            shards,
            placements: Vec::new(),
            routed: Vec::new(),
        }
    }

    /// Worker shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Hosted session count.
    pub fn session_count(&self) -> usize {
        self.placements.len()
    }

    /// The shard a session was placed on.
    pub fn shard_of(&self, session: SessionId) -> usize {
        self.placements[session as usize].0
    }

    /// Creates a new session and places it on the least-loaded shard
    /// (fewest hosted sessions; ties go to the lowest shard index, so
    /// placement is deterministic). Returns the new session's ID.
    pub fn add_session(&mut self) -> SessionId {
        let shard_idx = self
            .shards
            .iter()
            .enumerate()
            .min_by_key(|(i, s)| (s.sessions.len(), *i))
            .map(|(i, _)| i)
            .expect("host has at least one shard");
        let id = self.placements.len() as SessionId;
        let shard = &mut self.shards[shard_idx];
        let pos = shard.sessions.len();
        shard
            .sessions
            .push((id, Session::new(self.config.session.clone())));
        self.placements.push((shard_idx, pos));
        self.routed.push(0);
        id
    }

    /// Picks the session the next joining client should land in: the one
    /// with the fewest clients routed so far (ties go to the lowest
    /// session ID). Routing counts admissions, not current occupancy, so
    /// the choice depends only on join order — never on shard layout.
    pub fn route_join(&mut self) -> SessionId {
        let id = (0..self.routed.len())
            .min_by_key(|&id| (self.routed[id], id))
            .expect("route_join requires at least one session") as SessionId;
        self.routed[id as usize] += 1;
        id
    }

    /// Hands an already-built transport (e.g. a loopback end) to a
    /// session.
    pub fn add_transport(&mut self, session: SessionId, transport: Box<dyn ServerTransport>) {
        self.session_mut(session).add_connection(transport);
    }

    /// Registers an accepted TCP stream with the owning shard's poll
    /// loop and joins it to the session.
    ///
    /// # Errors
    ///
    /// Propagates socket configuration failures.
    pub fn add_tcp(
        &mut self,
        session: SessionId,
        stream: TcpStream,
        queue_capacity: usize,
    ) -> std::io::Result<()> {
        let (shard_idx, pos) = self.placements[session as usize];
        let shard = &mut self.shards[shard_idx];
        let transport = shard.poller.register(stream, queue_capacity)?;
        shard.sessions[pos].1.add_connection(Box::new(transport));
        Ok(())
    }

    /// Direct mutable access to a hosted session (tests, reports).
    pub fn session_mut(&mut self, session: SessionId) -> &mut Session {
        let (shard_idx, pos) = self.placements[session as usize];
        &mut self.shards[shard_idx].sessions[pos].1
    }

    /// Total clients currently joined across every session.
    pub fn active_users(&self) -> usize {
        self.shards
            .iter()
            .flat_map(|s| &s.sessions)
            .map(|(_, session)| session.active_users())
            .sum()
    }

    /// Runs one deterministic lockstep slot across every shard in index
    /// order. Every slot counts as on time (lockstep has no deadline).
    pub fn step_slot(&mut self) {
        for shard in &mut self.shards {
            shard.step_slot();
        }
    }

    /// Runs `slots` realtime slots with one worker thread per shard, each
    /// pacing its own [`SlotTicker`] on the shared period. Per slot a
    /// shard services its sockets once, steps every hosted session
    /// (charging each its own measured work), services the sockets again,
    /// then waits out the slot; the shard-level deadline verdict applies
    /// to all of its sessions, since they share the wakeup.
    ///
    /// With `publish = Some((exporter, every))`, each shard refreshes its
    /// registry snapshot every `every` slots and the host merges all
    /// shard snapshots into the exporter at the same cadence, so a scrape
    /// sees the whole host in one body.
    ///
    /// With `drain_after_joins = Some(n)`, every shard stops early once
    /// the host as a whole has admitted at least `n` clients and none
    /// remain connected — the "all expected clients came and went"
    /// shutdown used by the serve binary.
    pub fn run_realtime(
        &mut self,
        slots: u64,
        period: Duration,
        publish: Option<(&MetricsExporter, u64)>,
        drain_after_joins: Option<u64>,
    ) {
        let nshards = self.shards.len();
        let snapshots: Vec<Arc<Mutex<Registry>>> = (0..nshards)
            .map(|_| Arc::new(Mutex::new(Registry::new())))
            .collect();
        // Per-shard (joins, active clients) published each slot so every
        // shard can evaluate the host-wide drain condition locally.
        let loads: Vec<(AtomicU64, AtomicU64)> = (0..nshards)
            .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
            .collect();
        let done = AtomicUsize::new(0);
        let publish_every = publish.map(|(_, every)| every.max(1));

        std::thread::scope(|scope| {
            for (index, (shard, snapshot)) in self.shards.iter_mut().zip(&snapshots).enumerate() {
                let done = &done;
                let loads = &loads;
                scope.spawn(move || {
                    let mut ticker = SlotTicker::new(period);
                    let mut work_ns = vec![0u64; shard.sessions.len()];
                    for slot in 0..slots {
                        shard.poller.poll();
                        for ((_, session), work) in shard.sessions.iter_mut().zip(&mut work_ns) {
                            let begin = Instant::now();
                            session.step_slot();
                            *work = begin.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                        }
                        shard.poller.poll();
                        let on_time = ticker.wait();
                        for ((_, session), work) in shard.sessions.iter_mut().zip(&work_ns) {
                            session.note_tick(on_time, *work);
                        }
                        if let Some(every) = publish_every {
                            if (slot + 1) % every == 0 {
                                *snapshot.lock().expect("snapshot poisoned") =
                                    shard.snapshot(index);
                            }
                        }
                        if let Some(expected) = drain_after_joins {
                            let joins: u64 =
                                shard.sessions.iter().map(|(_, s)| s.counters().joins).sum();
                            let active: u64 = shard
                                .sessions
                                .iter()
                                .map(|(_, s)| s.active_users() as u64)
                                .sum();
                            loads[index].0.store(joins, Ordering::Release);
                            loads[index].1.store(active, Ordering::Release);
                            let total_joins: u64 =
                                loads.iter().map(|(j, _)| j.load(Ordering::Acquire)).sum();
                            let total_active: u64 =
                                loads.iter().map(|(_, a)| a.load(Ordering::Acquire)).sum();
                            if total_joins >= expected && total_active == 0 {
                                break;
                            }
                        }
                    }
                    if publish_every.is_some() {
                        *snapshot.lock().expect("snapshot poisoned") = shard.snapshot(index);
                    }
                    done.fetch_add(1, Ordering::Release);
                });
            }

            if let Some((exporter, every)) = publish {
                let interval = period
                    .checked_mul(every.min(u64::from(u32::MAX)) as u32)
                    .unwrap_or(Duration::from_secs(1));
                while done.load(Ordering::Acquire) < nshards {
                    std::thread::sleep(interval.min(Duration::from_millis(200)));
                    exporter.publish(render_merged(&snapshots));
                }
                exporter.publish(render_merged(&snapshots));
            }
        });
    }

    /// Shuts down every hosted session (notifying clients) and gives the
    /// pollers a final service pass so the shutdown frames reach the
    /// wire.
    pub fn shutdown(&mut self) {
        for shard in &mut self.shards {
            for (_, session) in &mut shard.sessions {
                session.shutdown();
            }
            shard.poller.poll();
        }
    }

    /// End-of-run reports for every session, in session-ID order.
    pub fn reports(&mut self) -> Vec<(SessionId, ServeReport)> {
        let mut reports: Vec<(SessionId, ServeReport)> = self
            .shards
            .iter_mut()
            .flat_map(|s| &mut s.sessions)
            .map(|(id, session)| (*id, session.report()))
            .collect();
        reports.sort_by_key(|(id, _)| *id);
        reports
    }

    /// Renders the whole host's metrics — every shard snapshotted now —
    /// as one Prometheus exposition body.
    pub fn render_metrics(&mut self) -> String {
        let mut merged = Registry::new();
        for (index, shard) in self.shards.iter_mut().enumerate() {
            merged.merge(&shard.snapshot(index));
        }
        merged.render()
    }
}

/// Merges the per-shard snapshot registries and renders the result.
fn render_merged(snapshots: &[Arc<Mutex<Registry>>]) -> String {
    let mut merged = Registry::new();
    for snapshot in snapshots {
        merged.merge(&snapshot.lock().expect("snapshot poisoned"));
    }
    merged.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(shards: usize, sessions: usize) -> ShardHost {
        let mut host = ShardHost::new(HostConfig {
            shards,
            session: ServeConfig::default(),
        });
        for _ in 0..sessions {
            host.add_session();
        }
        host
    }

    #[test]
    fn sessions_spread_over_least_loaded_shards() {
        let mut h = ShardHost::new(HostConfig {
            shards: 3,
            session: ServeConfig::default(),
        });
        // 7 sessions over 3 shards: round-robin with ties to the lowest
        // shard index → loads 3, 2, 2.
        let shards: Vec<usize> = (0..7)
            .map(|_| {
                let id = h.add_session();
                h.shard_of(id)
            })
            .collect();
        assert_eq!(shards, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn join_routing_is_least_loaded_with_stable_ties() {
        let mut h = host(2, 3);
        // All sessions empty: ties resolve to the lowest session ID, so
        // twelve joins round-robin 0,1,2,0,1,2,...
        let routed: Vec<SessionId> = (0..12).map(|_| h.route_join()).collect();
        assert_eq!(routed, vec![0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn join_routing_ignores_shard_layout() {
        // The same join sequence lands in the same sessions no matter how
        // many shards the host has — the invariant behind the 1-vs-N
        // lockstep determinism tests.
        let mut one = host(1, 5);
        let mut four = host(4, 5);
        for _ in 0..23 {
            assert_eq!(one.route_join(), four.route_join());
        }
    }

    #[test]
    fn shard_count_is_clamped_to_one() {
        let h = ShardHost::new(HostConfig {
            shards: 0,
            session: ServeConfig::default(),
        });
        assert_eq!(h.shard_count(), 1);
    }

    #[test]
    fn merged_metrics_carry_per_shard_session_gauges() {
        let mut h = host(2, 3);
        let body = h.render_metrics();
        assert!(body.contains("cvr_shard_sessions{shard=\"0\"} 2"), "{body}");
        assert!(body.contains("cvr_shard_sessions{shard=\"1\"} 1"), "{body}");
        // Session registries merged in: three sessions' tick counters sum.
        assert!(body.contains("cvr_ticks_total 0"), "{body}");
    }

    #[test]
    fn merged_gauges_follow_their_rules_not_a_blanket_sum() {
        use crate::client::{ClientConfig, ReplayClient};
        use crate::transport::loopback;

        // Session 0: three clients that drain every slot. Session 1: one
        // peer that said Hello and Pose once and never reads again, so its
        // outbound queue only deepens.
        let mut h = host(1, 2);
        let mut clients: Vec<_> = (0..3)
            .map(|seed| {
                let (server_end, client_end) = loopback(64);
                h.add_transport(0, Box::new(server_end));
                let config = ClientConfig {
                    seed,
                    ..ClientConfig::default()
                };
                ReplayClient::new(client_end, config)
            })
            .collect();
        let (server_end, silent_end) = loopback(64);
        h.add_transport(1, Box::new(server_end));
        let mut silent = ReplayClient::new(silent_end, ClientConfig::default());
        let slots = 20;
        for slot in 0..slots {
            h.step_slot();
            clients.iter_mut().for_each(ReplayClient::step_slot);
            if slot == 0 {
                silent.step_slot();
            }
        }

        let depths = [0, 1].map(|id| h.session_mut(id).counters().max_outbound_queue_depth);
        assert!(depths[1] > depths[0] && depths[0] > 0, "depths {depths:?}");
        let body = h.render_metrics();
        let gauge = |name: &str| -> i64 {
            let line = body.lines().find(|l| l.starts_with(&format!("{name} ")));
            let line = line.unwrap_or_else(|| panic!("no {name} in {body}"));
            line[name.len() + 1..].parse().expect("integer gauge")
        };
        assert_eq!(gauge("cvr_outbound_queue_depth_max"), depths[1] as i64);
        assert_eq!(gauge("cvr_session_slot"), slots);
        assert_eq!(gauge("cvr_session_clients"), 4);
        assert_eq!(h.active_users(), 4);
    }
}
