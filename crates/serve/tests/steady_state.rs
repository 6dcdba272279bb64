//! Nothing in the slot loop may grow with a session's age: between slot
//! N and slot 10 N of an idle-but-joined session the heap must not gain a
//! byte — which it would if any `Vec` owned by `Session`, `SlotPlanner`
//! or `SlotEngine` were pushed to per slot and never drained. Under churn
//! — clients walking, storing, ACKing, evicting, releasing — the heap may
//! breathe (maps rehash, deques wrap) but must plateau.
//!
//! And carrying a frame may not allocate at all: the queues are rings of
//! wire bytes, encoded into and decoded from in place.
//!
//! Its own binary, because the counting allocator is process-wide. The
//! counts themselves are per thread, so the tests, and the test harness's
//! own threads, cannot disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cvr_serve::client::{ClientConfig, ReplayClient};
use cvr_serve::harness::loopback_fleet;
use cvr_serve::protocol::{ClientMessage, ServerMessage, PROTOCOL_VERSION};
use cvr_serve::server::{ServeConfig, Session};
use cvr_serve::transport::{
    loopback, ClientTransport, LoopbackClientEnd, SendStatus, ServerTransport,
};

thread_local! {
    /// Bytes this thread has allocated minus bytes it has freed.
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    /// Times this thread has asked the allocator for memory (a `realloc`
    /// reaches `alloc` through `GlobalAlloc`'s default method).
    static ALLOC_CALLS: Cell<usize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    // A thread being torn down has lost its counter; it is not the one
    // the test reads.
    let _ = LIVE_BYTES.try_with(|live| live.set(live.get() + delta));
}

struct CountingAllocator;

// SAFETY: both methods forward their arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract. The bookkeeping before the
// call touches only const-initialised thread-local `Cell`s with no
// destructor, so it neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        let _ = ALLOC_CALLS.try_with(|calls| calls.set(calls.get() + 1));
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Steps `slots` slots of a session whose clients read every frame and
/// say nothing.
fn idle(session: &mut Session, clients: &mut [LoopbackClientEnd], slots: usize) {
    for _ in 0..slots {
        session.step_slot();
        session.note_tick(true, 1_000);
        for client in clients.iter_mut() {
            while client.try_recv().is_some() {}
        }
    }
}

#[test]
fn an_idle_session_stops_allocating_after_warm_up() {
    // Multicast and a horizon, so grouping and the prefetch step run too.
    let mut session = Session::new(ServeConfig {
        multicast: true,
        horizon: 4,
        ..ServeConfig::default()
    });
    let mut clients: Vec<LoopbackClientEnd> = (0..4)
        .map(|seed| {
            let (server_end, mut client_end) = loopback(64);
            session.add_connection(Box::new(server_end));
            client_end.send(&ClientMessage::Hello {
                version: PROTOCOL_VERSION,
                seed,
            });
            client_end
        })
        .collect();

    let n = 200;
    idle(&mut session, &mut clients, n);
    assert_eq!(session.active_users(), 4);
    let after_n = LIVE_BYTES.with(Cell::get);
    idle(&mut session, &mut clients, 9 * n);
    let after_10n = LIVE_BYTES.with(Cell::get);
    assert_eq!(
        after_10n - after_n,
        0,
        "the session's heap grew over {} idle slots",
        9 * n
    );
    assert_eq!(session.report().tick.count, 10 * n);
}

/// Steps `slots` lockstep slots of a session and its replay clients.
fn walk(session: &mut Session, clients: &mut [ReplayClient<LoopbackClientEnd>], slots: usize) {
    for _ in 0..slots {
        for client in clients.iter_mut() {
            client.step_slot();
        }
        session.step_slot();
        session.note_tick(true, 1_000);
    }
}

#[test]
fn a_churning_session_plateaus() {
    // Forty tiles is a few cells' worth: every client's buffer is at its
    // threshold within a second, and from then on each stored tile evicts
    // one, which the server's ledger hears of as a release. A walking user
    // enters a new 5 cm cell every few slots, so over 9 N slots each of
    // the eight delivery-state maps (a buffer and a ledger per client)
    // sees over a thousand cells come and go.
    let configs: Vec<ClientConfig> = (0..4)
        .map(|seed| ClientConfig {
            seed,
            buffer_tiles: 40,
            ..ClientConfig::default()
        })
        .collect();
    let (mut session, mut clients) = loopback_fleet(
        ServeConfig {
            multicast: true,
            horizon: 4,
            ..ServeConfig::default()
        },
        &configs,
    );

    // N is long enough for the planner's rate plane (512 cells, evicted by
    // halves into a freelist) to have filled once.
    let n = 600;
    walk(&mut session, &mut clients, n);
    assert_eq!(session.active_users(), 4);
    let after_n = LIVE_BYTES.with(Cell::get);
    walk(&mut session, &mut clients, 9 * n);
    let after_10n = LIVE_BYTES.with(Cell::get);
    // A map that kept an entry per cell ever visited would have gained
    // some 17 bytes × 1 000 cells × 8 maps, and more at each doubling.
    let growth = after_10n - after_n;
    assert!(
        growth <= 16 * 1024,
        "the heap grew {growth} bytes over {} slots of churn",
        9 * n
    );
    let report = session.report();
    assert_eq!(report.counters.protocol_errors, 0);
    assert_eq!(report.tick.count, 10 * n);
}

#[test]
fn a_warm_frame_path_never_calls_the_allocator() {
    // One client-slot's traffic: a pose and a bandwidth sample up, the
    // drain's empty poll, an assignment down. An empty manifest, because
    // a non-empty one decodes into the `Vec<VideoId>` the message owns.
    let (mut server, mut client) = loopback(64);
    let mut slot = |seq: u64| {
        let pose = cvr_motion::pose::Pose::default();
        assert_eq!(
            client.send(&ClientMessage::Pose { seq, pose }),
            SendStatus::Sent
        );
        assert_eq!(
            client.send(&ClientMessage::BandwidthSample { mbps: 48.5 }),
            SendStatus::Sent
        );
        assert!(matches!(
            server.try_recv(),
            Some(Ok(ClientMessage::Pose { seq: got, .. })) if got == seq
        ));
        assert!(matches!(
            server.try_recv(),
            Some(Ok(ClientMessage::BandwidthSample { .. }))
        ));
        assert!(server.try_recv().is_none());
        let assignment = ServerMessage::Assignment {
            slot: seq,
            pose_seq: seq,
            quality: 3,
            rate_mbps: 24.0,
            manifest: Vec::new(),
        };
        assert_eq!(server.send(&assignment), SendStatus::Sent);
        assert_eq!(server.queue_depth(), 1);
        assert!(!server.is_stalled() && !server.is_closed());
        assert_eq!(client.try_recv(), Some(Ok(assignment)));
        assert!(client.try_recv().is_none());
    };
    for seq in 0..10 {
        slot(seq);
    }
    let before = ALLOC_CALLS.with(Cell::get);
    for seq in 10..1_010 {
        slot(seq);
    }
    assert_eq!(ALLOC_CALLS.with(Cell::get) - before, 0);
}
