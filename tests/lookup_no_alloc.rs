//! The DRAM half of a lookup (the sliced filter query, the candidate set it
//! returns and a super table's memory phase built on both) touches no heap when a super
//! table holds at most 64 incarnations: the candidates are one word, held
//! by value. Counted with an allocator that tallies per thread, so the
//! test harness's own threads do not disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bufferhash::{
    hash_with_seed, BitSlicedBloomSet, BufferInsert, ClamConfig, FilterBank, FilterMode,
    IncarnationLayout, IncarnationMeta, Key, SuperTable,
};

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every request is passed to `System` unchanged, so its guarantees
// are `System`'s. The only extra work is bumping a `const`-initialised
// thread-local `Cell` that has no destructor, which cannot allocate or
// re-enter the allocator; `try_with` skips the count on a thread whose
// locals are already gone.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
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

/// Heap allocations this thread makes while `f` runs.
fn allocations_in(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn keys(tag: u64, n: u64) -> Vec<Key> {
    (0..n).map(|i| hash_with_seed(i, tag + 1)).collect()
}

/// Hits of every incarnation and clean misses, interleaved.
fn probes(incarnations: u64) -> Vec<Key> {
    (0..incarnations).flat_map(|inc| [keys(inc, 1)[0], hash_with_seed(inc, 0xbad)]).collect()
}

#[test]
fn filter_queries_and_memory_probes_do_not_allocate_up_to_64_incarnations() {
    // The sliced set itself, at every row packing up to one word.
    for slots in [1u64, 3, 16, 33, 64] {
        let mut set = BitSlicedBloomSet::new(slots as usize, 4096, 7);
        let mut bank = FilterBank::new(FilterMode::BitSliced, slots as usize, 4096, 7);
        for inc in 0..slots {
            set.push_incarnation(keys(inc, 50));
            bank.push_newest(&keys(inc, 50));
        }
        let probes = probes(slots);
        let mut found = 0;
        let allocated = allocations_in(|| {
            for &key in &probes {
                found += set.query(key).count() + bank.query(key).len();
            }
        });
        assert!(found >= 2 * slots as usize, "every hit is a candidate");
        assert_eq!(allocated, 0, "k = {slots}");
    }

    // The counter does count: past 64 lanes a query spills to the heap.
    let mut wide = BitSlicedBloomSet::new(65, 4096, 7);
    for inc in 0..65 {
        wide.push_incarnation(keys(inc, 50));
    }
    assert!(allocations_in(|| assert!(wide.query(keys(0, 1)[0]).contains(&64))) > 0);

    // A super table's candidate walk.
    let layout = IncarnationLayout::new(16 * 1024, 2048).unwrap();
    let mut table =
        SuperTable::new(0, 16 * 1024, 0.5, 16, FilterMode::BitSliced, 1 << 13, 6, layout);
    for seq in 0..16u64 {
        let meta = IncarnationMeta { flash_offset: seq * 16 * 1024, entries: 50, seq, epoch: 1 };
        table.register_incarnation(meta, &keys(seq, 50));
    }
    let probes = probes(16);
    let mut live = 0;
    let allocated = allocations_in(|| {
        for &key in &probes {
            live += table
                .candidate_incarnations(key)
                .filter_map(|age| table.incarnation_at(age))
                .count();
        }
    });
    assert!(live >= 16);
    assert_eq!(allocated, 0, "SuperTable::candidate_incarnations");

    // A lookup's memory phase on a loaded super table at the benchmark's
    // geometry (k = 16): delete list and live buffer, then the candidate
    // walk up to its first page read, each candidate's slot copy checked
    // first. The flushes are the write path's table steps without a
    // device. Keys on flash, in a buffer slot (live or a slot copy), and
    // absent are probed.
    let cfg = ClamConfig::small_test(8 << 20, 1 << 20).unwrap();
    let bytes = cfg.buffer_bytes_per_table as usize;
    let layout = IncarnationLayout::new(bytes, 4096).unwrap();
    let k = cfg.incarnations_per_table();
    assert_eq!(k, 16);
    let mut table = SuperTable::new(
        0,
        bytes,
        cfg.max_buffer_utilization,
        k,
        cfg.filter_mode,
        cfg.bloom_bits_per_incarnation(),
        cfg.bloom_hashes(),
        layout,
    );
    let key = |i: u64| hash_with_seed(i, 0x5eed);
    let mut seq = 0;
    for i in 0..40_000u64 {
        while table.buffer_insert(key(i), i) == BufferInsert::Full {
            let drained: Vec<Key> = table.drain_buffer().iter().map(|e| e.key).collect();
            if table.num_incarnations() == k {
                table.drop_oldest_incarnation();
            }
            let meta = IncarnationMeta {
                flash_offset: seq * bytes as u64,
                entries: drained.len(),
                seq,
                epoch: 1,
            };
            table.register_incarnation(meta, &drained);
            seq += 1;
        }
    }
    assert!(seq > k as u64, "the table must hold a full set of incarnations");
    let (mut resolved, mut needs_flash) = (0, 0);
    let allocated = allocations_in(|| {
        for i in (0..80_000u64).step_by(3) {
            let key = key(i);
            if table.memory_lookup(key).is_some() {
                resolved += 1;
                continue;
            }
            let mut live = table
                .candidate_incarnations(key)
                .filter(|&age| table.incarnation_at(age).is_some());
            match live.next().map(|age| table.slot_copy(key, age)) {
                None | Some(Some(_)) => resolved += 1,
                Some(None) => needs_flash += 1,
            }
        }
    });
    assert!(
        resolved > 10_000 && needs_flash > 4_000,
        "{resolved} resolved, {needs_flash} to flash"
    );
    assert_eq!(allocated, 0, "a lookup's memory phase");
}
