//! Criterion micro-benchmarks for the in-memory hot paths: cuckoo buffer,
//! Bloom filters, bit-sliced filters, the flush kernel (drain, serialize,
//! CRC, filter registration: the per-flush budget of DESIGN.md "The flush
//! kernel"), the latency recorder, the simulated flash's byte store
//! (DESIGN.md "The simulated medium's memory"), Rabin-Karp chunking and
//! SHA-1, a stripe's read path one key and eight keys at a time — and one
//! real-I/O path, a ring read of a page-cache-hot
//! `FileDevice` image (DESIGN.md "`FileDevice` runs where it is
//! submitted").

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use bufferhash::{
    crc32, page_crc, BitSlicedBloomSet, BloomFilter, Clam, ClamConfig, CuckooBuffer, Entry,
    IncarnationIdentity, IncarnationLayout, ENTRY_SIZE, PAGE_HEADER_SIZE,
};
use flashsim::{
    CompletionRing, Device, FileDevice, IoRequest, LatencyRecorder, RingRequest, SimDuration,
    SparseStore, Ssd, DEFAULT_FILE_QUEUE_DEPTH,
};
use wanopt::{chunk_boundaries, ChunkerConfig, Sha1};

fn bench_cuckoo(c: &mut Criterion) {
    let mut group = c.benchmark_group("cuckoo_buffer");
    group.bench_function("insert_4096", |b| {
        b.iter(|| {
            let mut buf = CuckooBuffer::with_byte_budget(128 * 1024, 16, 0.5);
            for i in 0..4096u64 {
                buf.insert(bufferhash::hash_with_seed(i, 1), i);
            }
            black_box(buf.len())
        })
    });
    let mut buf = CuckooBuffer::with_byte_budget(128 * 1024, 16, 0.5);
    for i in 0..4096u64 {
        buf.insert(bufferhash::hash_with_seed(i, 1), i);
    }
    group.bench_function("lookup_hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 4096;
            black_box(buf.get(bufferhash::hash_with_seed(i, 1)))
        })
    });
    // The benchmark's geometry: a 32 KiB buffer (2 048 slots, L1-resident)
    // at the paper's 50 %. `insert` is one key into a buffer that is
    // drained every 1 024, so it pays the drain's share too; the `get_*`
    // cases probe a buffer half refilled (512 live keys of generation 3
    // over the 1 024 drained of generation 2 and what survives of
    // generation 1's): a live hit, and a lookup that falls through the
    // live buffer onto a candidate incarnation's slot copy — the
    // youngest's (age 0) holding the key, an older one's holding it or
    // not, and the youngest's not holding it (`get_miss`).
    let key = |generation: u64, i: u64| bufferhash::hash_with_seed(i, 100 + generation);
    let mut small = CuckooBuffer::with_byte_budget(32 * 1024, 16, 0.5);
    group.bench_function("insert", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            if small.is_full() {
                black_box(small.drain().len());
            }
            black_box(small.insert(key(0, i), i))
        })
    });
    small.clear();
    let mut drained = [0u8; 3];
    for generation in 1..=2 {
        for i in 0..1024 {
            small.insert(key(generation, i), i);
        }
        drained[generation as usize] = small.generation();
        small.drain();
    }
    for i in 0..512 {
        small.insert(key(3, i), i);
    }
    group.bench_function("get_live", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 512;
            black_box(small.get(key(3, i)))
        })
    });
    group.bench_function("get_retired", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 1024;
            let k = key(2, i);
            black_box(small.get(k).or_else(|| small.get_stamped(k, drained[2])))
        })
    });
    let older: Vec<u64> = (0..1024)
        .map(|i| key(1, i))
        .filter(|&k| small.get_stamped(k, drained[1]).is_some())
        .collect();
    group.bench_function("get_older_hit", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % older.len();
            let k = older[i];
            black_box(small.get(k).or_else(|| small.get_stamped(k, drained[1])))
        })
    });
    group.bench_function("get_older_miss", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let k = key(4, i);
            black_box(small.get(k).or_else(|| small.get_stamped(k, drained[1])))
        })
    });
    group.bench_function("get_miss", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let k = key(4, i);
            black_box(small.get(k).or_else(|| small.get_stamped(k, drained[2])))
        })
    });
    group.finish();
}

fn bench_filters(c: &mut Criterion) {
    let mut group = c.benchmark_group("filters");
    let mut bloom = BloomFilter::with_budget(4096, 16.0);
    for i in 0..4096u64 {
        bloom.insert(bufferhash::hash_with_seed(i, 2));
    }
    group.bench_function("bloom_query", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(bloom.contains(bufferhash::hash_with_seed(i, 3)))
        })
    });
    // The benchmark's geometry, full: one set queried in a loop stays in
    // cache; the store's 64 sets visited in turn are 2 MiB of slices.
    let mut sets = vec![BitSlicedBloomSet::new(16, 16_384, 11); STORE_SETS];
    for (t, set) in sets.iter_mut().enumerate() {
        for inc in 0..16 {
            set.push_incarnation(incarnation_keys(t as u64, inc));
        }
    }
    for (name, hit) in [("hit", true), ("miss", false)] {
        // Keys of the set's oldest incarnation, or keys no set was given.
        let key = move |t: u64, i: u64| {
            bufferhash::hash_with_seed(i % 1024, if hit { 16 * t + 1 } else { 9_999 })
        };
        group.bench_function(format!("bitsliced_query_{name}"), |b| {
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                black_box(sets[0].query(key(0, i)).next())
            })
        });
        group.bench_function(format!("bitsliced_query_{name}_64_sets"), |b| {
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                let t = i % STORE_SETS as u64;
                black_box(sets[t as usize].query(key(t, i / STORE_SETS as u64)).next())
            })
        });
    }
    group.finish();
}

/// Super tables in the benchmark's store: 4 stripes of 16.
const STORE_SETS: usize = 64;

/// The 1 024 keys of incarnation `inc` of set `t`.
fn incarnation_keys(t: u64, inc: u64) -> impl Iterator<Item = u64> {
    (0..1024u64).map(move |i| bufferhash::hash_with_seed(i, 16 * t + inc + 1))
}

/// One flush at the benchmark's geometry, stage by stage: a 32 KiB buffer
/// at 50 % (1 024 entries) becomes eight 4 KiB pages and one column of a
/// 16-incarnation filter set with `m = 16384`, `h = 11`.
fn bench_flush_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("flush_kernel");
    let entries: Vec<Entry> =
        (0..1024u64).map(|i| Entry::new(bufferhash::hash_with_seed(i, 7), i)).collect();
    let layout = IncarnationLayout::new(32 * 1024, 4096).expect("valid layout");
    let identity = IncarnationIdentity { table: 3, seq: 41, epoch: 7 };
    let image = layout.serialize_identified(&entries, identity).expect("entries fit");

    let mut buffer = CuckooBuffer::with_byte_budget(32 * 1024, 16, 0.5);
    group.bench_function("fill_and_drain_1024", |b| {
        b.iter(|| {
            for e in &entries {
                buffer.insert(e.key, e.value);
            }
            black_box(buffer.drain().len())
        })
    });
    group.bench_function("crc32_4k_page", |b| b.iter(|| black_box(crc32(&image[..4096]))));
    group.bench_function("crc32_32k_image", |b| b.iter(|| black_box(crc32(&image))));
    // What the flush pays per page: 128 entries checksummed, the zero tail
    // folded in without being read.
    let written = PAGE_HEADER_SIZE + 128 * ENTRY_SIZE;
    let mut half_full = vec![0u8; 4096];
    half_full[..written].copy_from_slice(&image[..written]);
    group.bench_function("page_crc_half_full", |b| {
        b.iter(|| black_box(page_crc(black_box(&half_full), written)))
    });
    group.bench_function("serialize_identified_1024", |b| {
        b.iter(|| black_box(layout.serialize_identified(&entries, identity).expect("fits").len()))
    });
    let mut sliced = BitSlicedBloomSet::new(16, 16_384, 11);
    group.bench_function("push_incarnation_1024", |b| {
        b.iter(|| {
            if sliced.len() == sliced.capacity() {
                sliced.evict_oldest();
            }
            sliced.push_incarnation(entries.iter().map(|e| e.key));
            black_box(sliced.len())
        })
    });
    // As the store does it: consecutive flushes land on different tables,
    // so each sweep walks slices the 63 flushes before it pushed out.
    let mut sets = vec![BitSlicedBloomSet::new(16, 16_384, 11); STORE_SETS];
    let mut turn = 0;
    group.bench_function("push_incarnation_1024_cold_64_sets", |b| {
        b.iter(|| {
            turn = (turn + 1) % STORE_SETS;
            let set = &mut sets[turn];
            if set.len() == set.capacity() {
                set.evict_oldest();
            }
            set.push_incarnation(entries.iter().map(|e| e.key));
            black_box(set.len())
        })
    });
    let mut recorder = LatencyRecorder::new();
    group.bench_function("latency_recorder_record", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            recorder.record(SimDuration::from_nanos(400 + (i & 0xFFFF) * 37));
            black_box(recorder.len())
        })
    });
    // One run of a 64-key frame's plain inserts, as the insert body books it.
    group.bench_function("latency_recorder_record_n", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            recorder.record_n(SimDuration::from_nanos(400 + (i & 0xFFFF) * 37), 64);
            black_box(recorder.len())
        })
    });
    group.finish();
}

/// The simulated SSD's byte store at the benchmark's geometry: a flush
/// rewrites eight 4 KiB pages of the log with a 32 KiB incarnation image
/// (each page about half entries, half zero padding), and a lookup reads
/// one page back. The log holds 256 images; consecutive writes alternate a
/// full and a 15/16 full image, so pages change size as they do when
/// incarnations of different fill replace each other.
fn bench_sparse_store(c: &mut Criterion) {
    const PAGE: usize = 4096;
    const IMAGES: u64 = 256;
    let mut group = c.benchmark_group("sparse_store");
    let layout = IncarnationLayout::new(32 * 1024, PAGE).expect("valid layout");
    let images: Vec<Vec<u8>> = [1024u64, 960]
        .iter()
        .map(|&n| {
            let entries: Vec<Entry> =
                (0..n).map(|i| Entry::new(bufferhash::hash_with_seed(i, n), i)).collect();
            let identity = IncarnationIdentity { table: 3, seq: n, epoch: 7 };
            layout.serialize_identified(&entries, identity).expect("entries fit")
        })
        .collect();
    let image_bytes = images[0].len() as u64;
    let mut store = SparseStore::new(PAGE);
    for i in 0..IMAGES {
        store.write(i * image_bytes, &images[0]);
    }
    group.bench_function("write_32k_image", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            store.write((i % IMAGES) * image_bytes, &images[(i / IMAGES % 2) as usize]);
            black_box(store.resident_pages())
        })
    });
    // A coalesced flush run: 16 images as one multi-buffer command, the
    // list a medium's `medium_write` hands its store.
    const RUN: u64 = 16;
    let runs: [Vec<&[u8]>; 2] =
        [0, 1].map(|s| (0..RUN).map(|i| images[((i + s) % 2) as usize].as_slice()).collect());
    group.bench_function("write_16_image_run", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let (slot, lap) = (i % (IMAGES / RUN), i / (IMAGES / RUN));
            store.write_list(slot * RUN * image_bytes, &runs[(lap % 2) as usize]);
            black_box(store.resident_pages())
        })
    });
    let mut page = vec![0u8; PAGE];
    group.bench_function("read_4k_page", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % (IMAGES * image_bytes / PAGE as u64);
            store.read(i * PAGE as u64, &mut page);
            black_box(page[0])
        })
    });
    group.finish();
}

/// One 4 KiB ring read of an image the page cache holds, at the queue depth
/// `clamd --flash-file` and the repo benchmark use: the `submit` call, its
/// positioned read and the ring's booking, as `Clam::lookup_batch` pays
/// them per probe, all on the calling thread.
fn bench_file_read(c: &mut Criterion) {
    const PAGE: usize = 4096;
    const PAGES: u64 = 2048;
    let mut group = c.benchmark_group("file_read");
    let path = std::env::temp_dir().join(format!("clam-micro-file-read-{}", std::process::id()));
    let mut dev =
        FileDevice::with_queue_depth(&path, PAGES * PAGE as u64, DEFAULT_FILE_QUEUE_DEPTH)
            .expect("file device");
    for page in 0..PAGES {
        dev.write_at(page * PAGE as u64, &[page as u8; PAGE]).expect("fill");
    }
    let mut ring = CompletionRing::for_queue(dev.queue());
    group.bench_function("ring_read_4k_hot_depth8", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % PAGES;
            let read = RingRequest::new(IoRequest::read(i * PAGE as u64, PAGE));
            black_box(dev.submit(vec![read], &mut ring).expect("submit"))
        })
    });
    group.finish();
    drop(dev);
    std::fs::remove_file(&path).ok();
}

/// The read path of the lookups that lead an idle `clamd` shard, on an
/// owned one-stripe `Clam` whose keys all sit in its buffers, as a
/// shard's leader calls it: eight scalar lookups (eight ring-pipeline
/// calls) against one `lookup_batch` of eight, as a socket read of eight
/// lookups to one shard makes (DESIGN.md "The batcher").
fn bench_stripe_read(c: &mut Criterion) {
    let mut group = c.benchmark_group("stripe_read");
    let config = ClamConfig::small_test(4 << 20, 1 << 20).expect("config");
    let mut clam = Clam::new(Ssd::intel(4 << 20).expect("ssd"), config).expect("clam");
    let keys: Vec<u64> = (0..1024u64).map(|i| bufferhash::hash_with_seed(i, 3)).collect();
    for &key in &keys {
        clam.insert(key, key).expect("insert");
    }
    let resident = keys.iter().all(|&key| clam.lookup(key).expect("lookup").flash_reads == 0);
    assert!(resident, "buffer-resident");
    let runs = keys.chunks(8).cycle();
    group.bench_function("lookup_x8", |b| {
        let mut runs = runs.clone();
        b.iter(|| {
            let mut out = [None; 8];
            for (slot, &key) in out.iter_mut().zip(runs.next().expect("cycled")) {
                *slot = clam.lookup(key).ok();
            }
            black_box(out)
        })
    });
    group.bench_function("lookup_batch_8", |b| {
        let mut runs = runs.clone();
        b.iter(|| black_box(clam.lookup_batch(runs.next().expect("cycled")).expect("batch")))
    });
    group.finish();
}

fn bench_content_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("content_pipeline");
    let data: Vec<u8> =
        (0..1_000_000u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("sha1_1mb", |b| b.iter(|| black_box(Sha1::digest(&data))));
    group.bench_function("rabin_chunking_1mb", |b| {
        let cfg = ChunkerConfig::paper_default();
        b.iter(|| black_box(chunk_boundaries(&data, &cfg).len()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cuckoo,
    bench_filters,
    bench_flush_kernel,
    bench_sparse_store,
    bench_file_read,
    bench_stripe_read,
    bench_content_pipeline
);
criterion_main!(benches);
