//! A coalesced flush run goes to the device as its incarnation images: one
//! write command whose buffers are the images, so no heap request on the
//! flush path is larger than one image. A run gathered into one contiguous
//! buffer would ask for the whole run at once (16 images, 512 KiB, when
//! every table of a 16-table store flushes in one call). Measured with an
//! allocator that records, per thread, the largest request made, on a
//! `FileDevice`, whose bytes live in a file, and on an `Ssd`, whose byte
//! store takes a 32 KiB slab chunk at a time, no more than one image.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bufferhash::{hash_with_seed, table_of, Clam, ClamConfig, IncarnationLayout};
use flashsim::{Device, FileDevice, Ssd};

struct LargestRequest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every request is passed to `System` unchanged, so its guarantees
// are `System`'s. The only extra work is updating a `const`-initialised
// thread-local `Cell` that has no destructor, which cannot allocate or
// re-enter the allocator; `try_with` skips the record on a thread whose
// locals are already gone. `realloc` is `GlobalAlloc`'s provided one,
// which allocates the new size through `alloc`, so a growing `Vec` is
// recorded at every size it asks for.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|n| n.set(n.get().max(layout.size())));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`, by the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

/// The largest heap request this thread makes while `f` runs.
fn largest_request_in<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|n| n.set(0));
    let value = f();
    (value, LARGEST.with(Cell::get))
}

#[test]
fn a_coalesced_flush_run_requests_no_more_than_one_image_at_a_time() {
    let path = std::env::temp_dir().join(format!("clam-flush-alloc-{}", std::process::id()));
    flush_one_run(FileDevice::create(&path, 8 << 20).unwrap());
    std::fs::remove_file(&path).ok();
    flush_one_run(Ssd::intel(8 << 20).unwrap());
}

/// Flushes all 16 tables of a store on `device` as one coalesced run, and
/// checks the largest heap request the call makes.
fn flush_one_run(device: impl Device) {
    let cfg = ClamConfig::small_test(8 << 20, 1 << 20).unwrap();
    let tables = cfg.num_super_tables();
    assert_eq!(tables, 16, "a stripe's geometry");
    let image =
        IncarnationLayout::new(cfg.buffer_bytes_per_table as usize, 4096).unwrap().total_bytes();
    let full = cfg.entries_per_incarnation();
    let mut clam = Clam::new(device, cfg).unwrap();

    // Fill every table's buffer to the brim without a flush, then hand
    // each table one more key in a single call: every table flushes in
    // that call, into consecutive log slots, so the call's flush writes
    // are one coalesced run of 16 images.
    let mut per_table: Vec<Vec<(u64, u64)>> = vec![Vec::new(); tables];
    for i in 0.. {
        let key = hash_with_seed(i, 0xf1a5);
        let t = table_of(key, tables);
        if per_table[t].len() <= full {
            per_table[t].push((key, i));
        }
        if per_table.iter().all(|ops| ops.len() > full) {
            break;
        }
    }
    let (fill, last): (Vec<_>, Vec<_>) =
        per_table.iter().map(|ops| (&ops[..full], ops[full])).unzip();
    clam.insert_batch(&fill.concat()).unwrap();
    assert_eq!(clam.stats().flushes, 0, "every buffer full, none flushed");
    let writes_before = clam.device().stats().writes;

    let (outcome, largest) = largest_request_in(|| clam.insert_batch(&last).unwrap());
    assert_eq!(outcome.flushed_ops, tables, "every table flushed in the call");
    assert_eq!(outcome.coalesced_writes, tables - 1, "into one run");
    assert_eq!(clam.device().stats().writes - writes_before, 1, "one device command");
    assert!(
        largest <= image,
        "{}: largest heap request {largest} bytes, one incarnation image is {image}",
        clam.device().profile().name
    );
    for (key, value) in fill.concat().into_iter().chain(last) {
        assert_eq!(clam.lookup(key).unwrap().value, Some(value));
    }
}
