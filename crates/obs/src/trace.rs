//! Structured event tracing: a bounded ring buffer of typed events.
//!
//! The tracer is designed so that instrumentation can stay compiled into
//! the hot path permanently: a disabled tracer ([`Tracer::disabled`])
//! rejects every event behind a single branch, and an enabled tracer can
//! *sample* high-frequency kinds (keep 1 of every N stage timings) while
//! recording every rare lifecycle event. The ring is bounded — when full,
//! the oldest record is evicted and counted in [`Tracer::evicted`].
//!
//! Events carry values measured by the caller; the tracer itself never
//! reads a clock, which keeps it usable inside deterministic simulation
//! code (the workspace rule: wall-clock values may be *recorded*, but
//! never feed back into sim-visible state).

use std::collections::VecDeque;
use std::io::{self, Write};

/// A typed trace event. Discriminants are grouped by [`TraceEvent::kind`]
/// for sampling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A slot began executing.
    SlotStart {
        /// Slot index.
        slot: u64,
    },
    /// A slot finished.
    SlotEnd {
        /// Slot index.
        slot: u64,
        /// Work time measured by the caller, in nanoseconds.
        work_ns: u64,
        /// Whether the slot met its deadline.
        on_time: bool,
    },
    /// One pipeline stage's measured duration.
    Stage {
        /// Slot index.
        slot: u64,
        /// Stage name (`"ingest"`, `"build"`, …).
        stage: &'static str,
        /// Duration in nanoseconds.
        ns: u64,
    },
    /// A slot ran past its deadline.
    TickOverrun {
        /// Slot index.
        slot: u64,
        /// Work time in nanoseconds.
        work_ns: u64,
    },
    /// A client joined the session.
    ClientJoin {
        /// Server-assigned user id.
        user_id: u64,
    },
    /// A client left (or was evicted from) the session.
    ClientLeave {
        /// Server-assigned user id.
        user_id: u64,
    },
    /// A client's degraded flag flipped.
    Degrade {
        /// Server-assigned user id.
        user_id: u64,
        /// New degraded state.
        degraded: bool,
    },
    /// An outbound queue dropped frames for a client.
    QueueDrop {
        /// Server-assigned user id.
        user_id: u64,
        /// Frames dropped in this event.
        dropped: u64,
    },
    /// A malformed or unexpected protocol frame was observed.
    ProtocolError {
        /// Where it was observed (`"ingest"`, `"handshake"`, …).
        context: &'static str,
    },
}

/// Event kinds, used as the sampling granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// [`TraceEvent::SlotStart`]
    SlotStart,
    /// [`TraceEvent::SlotEnd`]
    SlotEnd,
    /// [`TraceEvent::Stage`]
    Stage,
    /// [`TraceEvent::TickOverrun`]
    TickOverrun,
    /// [`TraceEvent::ClientJoin`]
    ClientJoin,
    /// [`TraceEvent::ClientLeave`]
    ClientLeave,
    /// [`TraceEvent::Degrade`]
    Degrade,
    /// [`TraceEvent::QueueDrop`]
    QueueDrop,
    /// [`TraceEvent::ProtocolError`]
    ProtocolError,
}

/// Number of event kinds (sampling-table size).
pub const EVENT_KINDS: usize = 9;

impl TraceEvent {
    /// The sampling kind of this event.
    pub fn kind(&self) -> EventKind {
        match self {
            TraceEvent::SlotStart { .. } => EventKind::SlotStart,
            TraceEvent::SlotEnd { .. } => EventKind::SlotEnd,
            TraceEvent::Stage { .. } => EventKind::Stage,
            TraceEvent::TickOverrun { .. } => EventKind::TickOverrun,
            TraceEvent::ClientJoin { .. } => EventKind::ClientJoin,
            TraceEvent::ClientLeave { .. } => EventKind::ClientLeave,
            TraceEvent::Degrade { .. } => EventKind::Degrade,
            TraceEvent::QueueDrop { .. } => EventKind::QueueDrop,
            TraceEvent::ProtocolError { .. } => EventKind::ProtocolError,
        }
    }

    fn kind_name(&self) -> &'static str {
        match self.kind() {
            EventKind::SlotStart => "slot_start",
            EventKind::SlotEnd => "slot_end",
            EventKind::Stage => "stage",
            EventKind::TickOverrun => "tick_overrun",
            EventKind::ClientJoin => "client_join",
            EventKind::ClientLeave => "client_leave",
            EventKind::Degrade => "degrade",
            EventKind::QueueDrop => "queue_drop",
            EventKind::ProtocolError => "protocol_error",
        }
    }
}

impl EventKind {
    fn index(self) -> usize {
        match self {
            EventKind::SlotStart => 0,
            EventKind::SlotEnd => 1,
            EventKind::Stage => 2,
            EventKind::TickOverrun => 3,
            EventKind::ClientJoin => 4,
            EventKind::ClientLeave => 5,
            EventKind::Degrade => 6,
            EventKind::QueueDrop => 7,
            EventKind::ProtocolError => 8,
        }
    }
}

/// One recorded event plus its global sequence number. Sequence numbers
/// count *accepted* events, so gaps reveal nothing (sampled-out events get
/// no number), while eviction from the ring is visible as a `seq` that no
/// longer starts at 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// 0-based sequence number among accepted events.
    pub seq: u64,
    /// The event payload.
    pub event: TraceEvent,
}

/// Bounded ring buffer of [`TraceRecord`]s with per-kind sampling.
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: bool,
    capacity: usize,
    ring: VecDeque<TraceRecord>,
    seq: u64,
    evicted: u64,
    /// Keep 1 of every `sample_every[kind]` events; 0 drops the kind.
    sample_every: [u32; EVENT_KINDS],
    seen: [u32; EVENT_KINDS],
}

impl Tracer {
    /// A tracer that drops everything. `record` costs one branch.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            capacity: 0,
            ring: VecDeque::new(),
            seq: 0,
            evicted: 0,
            sample_every: [1; EVENT_KINDS],
            seen: [0; EVENT_KINDS],
        }
    }

    /// An enabled tracer retaining at most `capacity` records.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            enabled: capacity > 0,
            capacity,
            ring: VecDeque::with_capacity(capacity.min(4096)),
            seq: 0,
            evicted: 0,
            sample_every: [1; EVENT_KINDS],
            seen: [0; EVENT_KINDS],
        }
    }

    /// Keeps 1 of every `n` events of `kind` (`n = 0` drops the kind
    /// entirely; `n = 1`, the default, keeps every event). The first event
    /// of each window is the one kept, so rare kinds are never starved.
    pub fn set_sample_every(&mut self, kind: EventKind, n: u32) {
        self.sample_every[kind.index()] = n;
        self.seen[kind.index()] = 0;
    }

    /// Offers an event to the tracer. Disabled tracers and sampled-out
    /// events return without allocating.
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        self.record_slow(event);
    }

    #[cold]
    fn record_slow(&mut self, event: TraceEvent) {
        let k = event.kind().index();
        let every = self.sample_every[k];
        if every == 0 {
            return;
        }
        let keep = self.seen[k] == 0;
        self.seen[k] = (self.seen[k] + 1) % every;
        if !keep {
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(TraceRecord {
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.ring.iter()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Records evicted from the ring because it was full.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Writes the retained records as JSON Lines, one object per record.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        for rec in &self.ring {
            let mut line = format!(
                "{{\"seq\":{},\"kind\":\"{}\"",
                rec.seq,
                rec.event.kind_name()
            );
            match &rec.event {
                TraceEvent::SlotStart { slot } => {
                    write_field(&mut line, "slot", *slot);
                }
                TraceEvent::SlotEnd {
                    slot,
                    work_ns,
                    on_time,
                } => {
                    write_field(&mut line, "slot", *slot);
                    write_field(&mut line, "work_ns", *work_ns);
                    line.push_str(if *on_time {
                        ",\"on_time\":true"
                    } else {
                        ",\"on_time\":false"
                    });
                }
                TraceEvent::Stage { slot, stage, ns } => {
                    write_field(&mut line, "slot", *slot);
                    line.push_str(&format!(",\"stage\":\"{stage}\""));
                    write_field(&mut line, "ns", *ns);
                }
                TraceEvent::TickOverrun { slot, work_ns } => {
                    write_field(&mut line, "slot", *slot);
                    write_field(&mut line, "work_ns", *work_ns);
                }
                TraceEvent::ClientJoin { user_id } => {
                    write_field(&mut line, "user_id", *user_id);
                }
                TraceEvent::ClientLeave { user_id } => {
                    write_field(&mut line, "user_id", *user_id);
                }
                TraceEvent::Degrade { user_id, degraded } => {
                    write_field(&mut line, "user_id", *user_id);
                    line.push_str(if *degraded {
                        ",\"degraded\":true"
                    } else {
                        ",\"degraded\":false"
                    });
                }
                TraceEvent::QueueDrop { user_id, dropped } => {
                    write_field(&mut line, "user_id", *user_id);
                    write_field(&mut line, "dropped", *dropped);
                }
                TraceEvent::ProtocolError { context } => {
                    line.push_str(&format!(",\"context\":\"{context}\""));
                }
            }
            line.push_str("}\n");
            w.write_all(line.as_bytes())?;
        }
        Ok(())
    }

    /// The JSONL export as a string.
    pub fn to_jsonl(&self) -> String {
        let mut buf = Vec::new();
        self.write_jsonl(&mut buf).expect("Vec write is infallible");
        String::from_utf8(buf).expect("JSONL is ASCII")
    }
}

fn write_field(line: &mut String, name: &str, value: u64) {
    line.push_str(&format!(",\"{name}\":{value}"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.record(TraceEvent::SlotStart { slot: 0 });
        assert!(t.is_empty());
    }

    #[test]
    fn ring_bounds_and_counts_evictions() {
        let mut t = Tracer::with_capacity(3);
        for slot in 0..5 {
            t.record(TraceEvent::SlotStart { slot });
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.evicted(), 2);
        let seqs: Vec<u64> = t.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn sampling_keeps_one_in_n() {
        let mut t = Tracer::with_capacity(100);
        t.set_sample_every(EventKind::Stage, 4);
        for slot in 0..16 {
            t.record(TraceEvent::Stage {
                slot,
                stage: "build",
                ns: 1,
            });
            t.record(TraceEvent::TickOverrun { slot, work_ns: 9 });
        }
        let stages = t
            .records()
            .filter(|r| matches!(r.event, TraceEvent::Stage { .. }))
            .count();
        let overruns = t
            .records()
            .filter(|r| matches!(r.event, TraceEvent::TickOverrun { .. }))
            .count();
        assert_eq!(stages, 4); // 1 in 4 of 16
        assert_eq!(overruns, 16); // unsampled kinds keep everything
    }

    #[test]
    fn jsonl_round_trips_field_values() {
        let mut t = Tracer::with_capacity(8);
        t.record(TraceEvent::SlotEnd {
            slot: 3,
            work_ns: 12345,
            on_time: false,
        });
        t.record(TraceEvent::Degrade {
            user_id: 2,
            degraded: true,
        });
        t.record(TraceEvent::ProtocolError { context: "ingest" });
        let text = t.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"seq\":0,\"kind\":\"slot_end\",\"slot\":3,\"work_ns\":12345,\"on_time\":false}"
        );
        assert_eq!(
            lines[1],
            "{\"seq\":1,\"kind\":\"degrade\",\"user_id\":2,\"degraded\":true}"
        );
        assert_eq!(
            lines[2],
            "{\"seq\":2,\"kind\":\"protocol_error\",\"context\":\"ingest\"}"
        );
    }
}
