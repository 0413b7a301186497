//! Heap allocations the server makes per request on the serving path: a
//! loopback `clamd` (two stripes on the simulated SSD) and one client,
//! counted with an allocator that tallies the whole process and each
//! thread, so the client's own allocations (its request and reply
//! buffers) are left out.
//! Each row is 10 000 requests after a warm-up of the same kind; the counts
//! are printed (`--nocapture`) and held at or below their ceilings, so a
//! change that allocates more per request fails here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use clamd::client::ClamdClient;
use clamd::loadgen::{key_for, value_for};
use clamd::server::ephemeral_sim_server;

struct CountingAllocator;

static PROCESS: [AtomicUsize; 2] = [AtomicUsize::new(0), AtomicUsize::new(0)];

thread_local! {
    static THREAD: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

// SAFETY: every request is passed to `System` unchanged, so its guarantees
// are `System`'s. The only extra work is two relaxed atomic adds and an
// update of a `const`-initialised thread-local `Cell` that has no
// destructor, none of which can allocate or re-enter the allocator;
// `try_with` skips the thread's count on a thread whose locals are already
// gone. `realloc` is `GlobalAlloc`'s provided one, which allocates the new
// size through `alloc`, so a growing `Vec` counts once per growth.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        PROCESS[0].fetch_add(1, Ordering::Relaxed);
        PROCESS[1].fetch_add(layout.size(), Ordering::Relaxed);
        let _ = THREAD.try_with(|n| n.set((n.get().0 + 1, n.get().1 + layout.size())));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`, by the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations and bytes every thread but this one makes while `f` runs.
fn elsewhere_in(f: impl FnOnce()) -> (usize, usize) {
    let totals = || {
        let here = THREAD.with(Cell::get);
        let all = PROCESS.each_ref().map(|n| n.load(Ordering::Relaxed));
        (all[0] - here.0, all[1] - here.1)
    };
    let before = totals();
    f();
    let after = totals();
    (after.0 - before.0, after.1 - before.1)
}

const REQUESTS: u64 = 10_000;
const WARM_UP: u64 = 1_000;
const FRAME: u64 = 64;

/// One row: `request(i)` sent `WARM_UP` times, then `REQUESTS` times
/// counted. Prints the server's allocations and bytes per request and
/// allocations per key, and returns the row's breach of `ceiling`
/// allocations a request, if it has one.
fn row(name: &str, keys: u64, ceiling: f64, mut request: impl FnMut(u64)) -> Option<String> {
    (0..WARM_UP).for_each(&mut request);
    let (count, bytes) = elsewhere_in(|| (WARM_UP..WARM_UP + REQUESTS).for_each(&mut request));
    let per_request = count as f64 / REQUESTS as f64;
    println!(
        "{name:<24} {per_request:>6.2} allocations {:>8.1} bytes a request, {:>6.3} allocations a key",
        bytes as f64 / REQUESTS as f64,
        per_request / keys as f64,
    );
    (per_request > ceiling).then(|| format!("{name}: {per_request:.2} a request, over {ceiling}"))
}

#[test]
fn the_serving_path_allocates_no_more_per_request_than_its_ceiling() {
    let server = ephemeral_sim_server(2, 64 << 20, 16 << 20).unwrap();
    let mut client = ClamdClient::connect(server.local_addr()).unwrap();
    let resident: Vec<u64> = (0..FRAME).map(|i| key_for(i + 1)).collect();
    for &key in &resident {
        client.insert(key, value_for(key)).unwrap();
    }
    let fresh = |i: u64| key_for(1 << 40 | i);
    let frame = |i: u64| (0..FRAME).map(move |k| (key_for(1 << 41 | (i % 16) << 8 | k), i));

    // Each ceiling is the row's count when this test was written.
    let rows = [
        row("scalar lookup hit", 1, 9.0, |i| {
            let key = resident[(i % FRAME) as usize];
            assert_eq!(client.lookup(key).unwrap(), Some(value_for(key)));
        }),
        row("scalar insert, no flush", 1, 9.0, |i| client.insert(fresh(i), i).unwrap()),
        row("delete", 1, 6.0, |i| client.delete(fresh(i)).unwrap()),
        row("64-key lookup frame", FRAME, 36.0, |_| {
            let found = client.lookup_batch(resident.clone()).unwrap();
            assert!(found.iter().all(Option::is_some));
        }),
        row("64-key insert frame", FRAME, 28.0, |i| {
            assert_eq!(client.insert_batch(frame(i).collect()).unwrap(), FRAME as u32);
        }),
    ];
    assert_eq!(server.clam_stats().flushes, 0, "every row ran within the buffers");
    let over: Vec<String> = rows.into_iter().flatten().collect();
    assert!(over.is_empty(), "{over:?}");
}
