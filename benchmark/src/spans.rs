//! The benchmark's span recorder.
//!
//! Spans are recorded by the benchmark's own code — the driver loop and
//! the transport decorators — around calls into each crate's public
//! functions; nothing inside the program is instrumented. They live in a
//! pre-sized in-memory buffer and are written out only after every timed
//! measurement has finished.
//!
//! A layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover. Children are recorded strictly nested
//! on one thread (every traced pass is single-threaded lockstep), so the
//! covered part is simply the sum of the direct children's durations.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the process-wide epoch (first call).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// "No parent" marker in [`Span::parent`].
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, `<crate>.<module>.<what>`.
    pub name: &'static str,
    /// Start, nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one ([`ROOT`] for a slot root).
    pub parent: u32,
    /// The slot this span belongs to — the identifier every span of one
    /// round shares.
    pub slot: u64,
}

/// Per-name totals derived from the recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans recorded under this name.
    pub count: u64,
    /// Sum of span durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of (duration − direct children's durations), nanoseconds.
    pub self_ns: u64,
}

/// Approximate heap bytes per recorded span (the cap is expressed in
/// spans; this keeps the buffer under 64 MB).
const BYTES_PER_SPAN: usize = std::mem::size_of::<Span>();

/// Most spans ever kept: under 64 MB of buffer.
pub const MAX_SPANS: usize = 60 * 1024 * 1024 / BYTES_PER_SPAN;

/// A fixed-capacity span buffer with an open-span stack.
#[derive(Debug)]
pub struct Recorder {
    spans: Vec<Span>,
    stack: Vec<u32>,
    capacity: usize,
    /// Record one slot in every `sample_every`.
    sample_every: u64,
    slot: u64,
    /// Whether the current slot is being recorded.
    live: bool,
}

impl Recorder {
    /// A recorder that keeps at most `capacity` spans, sampling slots so
    /// `expected_slots × spans_per_slot` fits.
    pub fn sized_for(capacity: usize, expected_slots: u64, spans_per_slot: u64) -> Self {
        let capacity = capacity.min(MAX_SPANS);
        let wanted = expected_slots.saturating_mul(spans_per_slot).max(1);
        // Odd, so that sampling never locks onto one parity of a pass
        // that alternates two ways of stepping.
        let sample_every = wanted.div_ceil(capacity.max(1) as u64) | 1;
        Recorder {
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(8),
            capacity,
            sample_every,
            slot: 0,
            live: false,
        }
    }

    /// One slot in this many is recorded.
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// Starts slot `slot`; decides whether its spans are kept.
    pub fn begin_slot(&mut self, slot: u64) {
        debug_assert!(self.stack.is_empty(), "slot began inside an open span");
        self.slot = slot;
        // Keep headroom so a sampled slot is never recorded half-way.
        self.live =
            slot.is_multiple_of(self.sample_every) && self.spans.len() + 4096 <= self.capacity;
    }

    /// Stops recording until the next [`Recorder::begin_slot`].
    pub fn pause(&mut self) {
        debug_assert!(self.stack.is_empty(), "paused inside an open span");
        self.live = false;
    }

    /// Opens a span now; pair with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str) {
        if !self.live {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        self.stack.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            slot: self.slot,
        });
    }

    /// Closes the innermost open span now.
    pub fn close(&mut self) {
        if !self.live {
            return;
        }
        let end = now_ns();
        if let Some(index) = self.stack.pop() {
            self.spans[index as usize].end_ns = end;
        }
    }

    /// Records an already-measured span as a child of the innermost open
    /// span (the decorators time the inner call themselves).
    pub fn leaf(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if !self.live {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            slot: self.slot,
        });
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name count, total and self time over the rounds no host
    /// stall hit, and the number of rounds left out as stalled (see
    /// [`stalled_slots`]).
    pub fn self_times(&self) -> (BTreeMap<&'static str, SelfTime>, usize) {
        let stalled = stalled_slots(&self.spans);
        (self_times(&self.spans, &stalled), stalled.len())
    }

    /// Writes one JSON object per span (`name, start_ns, end_ns, parent,
    /// slot`; `parent` is the 0-based line of the causing span, −1 for a
    /// root).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors, including the final flush.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = if span.parent == ROOT {
                -1
            } else {
                i64::from(span.parent)
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"slot\":{}}}",
                span.name, span.start_ns, span.end_ns, parent, span.slot
            )?;
        }
        out.flush()
    }
}

/// The slots whose root span took more than three times the median root:
/// rounds in which the hypervisor descheduled the thread. One 50 ms stall
/// inside one span would otherwise be a quarter of a traced pass's summed
/// time and be billed to whichever layer it happened to hit.
pub fn stalled_slots(spans: &[Span]) -> BTreeSet<u64> {
    let mut roots: Vec<u64> = spans
        .iter()
        .filter(|span| span.parent == ROOT)
        .map(|span| span.end_ns.saturating_sub(span.start_ns))
        .collect();
    roots.sort_unstable();
    let Some(median) = crate::stats::nearest_rank(&roots, 50.0) else {
        return BTreeSet::new();
    };
    spans
        .iter()
        .filter(|span| {
            span.parent == ROOT && span.end_ns.saturating_sub(span.start_ns) > 3 * median
        })
        .map(|span| span.slot)
        .collect()
}

/// Self-time arithmetic over a span list whose `parent` fields index into
/// the same list, leaving out every span of the slots in `skip`.
pub fn self_times(spans: &[Span], skip: &BTreeSet<u64>) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != ROOT {
            child_ns[span.parent as usize] += span.end_ns.saturating_sub(span.start_ns);
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (span, covered) in spans.iter().zip(child_ns) {
        if skip.contains(&span.slot) {
            continue;
        }
        let total = span.end_ns.saturating_sub(span.start_ns);
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += total;
        entry.self_ns += total.saturating_sub(covered);
    }
    out
}

thread_local! {
    /// The traced pass's recorder. Every traced pass runs on the main
    /// thread, so a thread-local lets the transport decorators (owned by
    /// the session and the clients) reach it without locks.
    static ACTIVE: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Installs `recorder` as this thread's active recorder.
pub fn install(recorder: Recorder) {
    ACTIVE.with(|slot| *slot.borrow_mut() = Some(recorder));
}

/// Removes and returns this thread's active recorder.
pub fn take() -> Option<Recorder> {
    ACTIVE.with(|slot| slot.borrow_mut().take())
}

/// Runs `f` on the active recorder, if one is installed.
pub fn with<R>(f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
    ACTIVE.with(|slot| slot.borrow_mut().as_mut().map(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            slot: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // slot [0,100] ⊃ server [10,70] ⊃ {recv [12,20], send [50,65]};
        // slot also ⊃ client [72,95].
        let spans = vec![
            span("slot", 0, 100, ROOT),
            span("server", 10, 70, 0),
            span("recv", 12, 20, 1),
            span("send", 50, 65, 1),
            span("client", 72, 95, 0),
        ];
        let st = self_times(&spans, &BTreeSet::new());
        assert_eq!(st["slot"].total_ns, 100);
        // 100 − (60 + 23): grandchildren are not subtracted twice.
        assert_eq!(st["slot"].self_ns, 17);
        assert_eq!(st["server"].self_ns, 60 - 8 - 15);
        assert_eq!(st["recv"].self_ns, 8);
        assert_eq!(st["client"].self_ns, 23);
        // Self times partition the root: nothing is lost or counted twice.
        let sum: u64 = st.values().map(|s| s.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn same_name_spans_accumulate() {
        let spans = vec![
            span("slot", 0, 10, ROOT),
            span("recv", 1, 3, 0),
            span("recv", 4, 9, 0),
        ];
        let st = self_times(&spans, &BTreeSet::new());
        assert_eq!(st["recv"].count, 2);
        assert_eq!(st["recv"].total_ns, 7);
        assert_eq!(st["slot"].self_ns, 3);
    }

    #[test]
    fn recorder_nests_samples_and_respects_capacity() {
        let mut r = Recorder::sized_for(10_000, 20_000, 4);
        // 80 000 wanted spans in 10 000 slots of buffer: 1 slot in 8 would
        // fit; the next odd stride is 9.
        assert_eq!(r.sample_every(), 9);
        for slot in 0..18 {
            r.begin_slot(slot);
            r.open("slot");
            r.open("server");
            r.leaf("recv", now_ns(), now_ns());
            r.close();
            r.close();
        }
        // Slots 0 and 9 only: 3 spans each.
        assert_eq!(r.spans().len(), 6);
        let s = r.spans();
        assert_eq!((s[0].name, s[0].parent, s[0].slot), ("slot", ROOT, 0));
        assert_eq!((s[1].name, s[1].parent), ("server", 0));
        assert_eq!((s[2].name, s[2].parent), ("recv", 1));
        assert_eq!((s[3].name, s[3].parent, s[3].slot), ("slot", ROOT, 9));
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
    }

    #[test]
    fn a_stalled_round_is_left_out_of_the_ledger() {
        let mut r = Recorder::sized_for(10_000, 5, 2);
        assert_eq!(r.sample_every(), 1);
        // Four rounds of 10 ns with a 4 ns child, and one of 1000 ns.
        let mut at = 0;
        for slot in 0..5u64 {
            let len = if slot == 2 { 1000 } else { 10 };
            r.begin_slot(slot);
            r.leaf("round", at, at + len);
            let root = (r.spans.len() - 1) as u32;
            r.spans.push(Span {
                name: "layer",
                start_ns: at + 1,
                end_ns: at + len - 5,
                parent: root,
                slot,
            });
            at += len;
        }
        assert_eq!(
            stalled_slots(r.spans()).into_iter().collect::<Vec<_>>(),
            vec![2]
        );
        let (st, stalled) = r.self_times();
        assert_eq!(stalled, 1);
        assert_eq!(
            (st["round"].count, st["round"].total_ns, st["round"].self_ns),
            (4, 40, 24)
        );
        assert_eq!((st["layer"].count, st["layer"].total_ns), (4, 16));
    }

    #[test]
    fn buffer_stays_under_64_mb() {
        const { assert!(MAX_SPANS * BYTES_PER_SPAN < 64 * 1024 * 1024) };
        let r = Recorder::sized_for(usize::MAX, 1, 1);
        assert_eq!(r.spans.capacity(), MAX_SPANS);
    }
}
