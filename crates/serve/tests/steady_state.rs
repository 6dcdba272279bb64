//! Nothing in the slot loop may grow with a session's age: between slot
//! N and slot 10 N of an idle-but-joined session the heap must not gain a
//! byte — which it would if any `Vec` owned by `Session`, `SlotPlanner`
//! or `SlotEngine` were pushed to per slot and never drained.
//!
//! One test in its own binary, because the counting allocator is
//! process-wide. The count itself is per thread, so the test harness's
//! own threads cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cvr_serve::protocol::{ClientMessage, PROTOCOL_VERSION};
use cvr_serve::server::{ServeConfig, Session};
use cvr_serve::transport::{loopback, ClientTransport, LoopbackClientEnd};

thread_local! {
    /// Bytes this thread has allocated minus bytes it has freed.
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    // A thread being torn down has lost its counter; it is not the one
    // the test reads.
    let _ = LIVE_BYTES.try_with(|live| live.set(live.get() + delta));
}

struct CountingAllocator;

// SAFETY: both methods forward their arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract. The bookkeeping before the
// call touches only a const-initialised thread-local `Cell` with no
// destructor, so it neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
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
