//! Sparse in-memory byte store backing the simulated devices.
//!
//! Simulated devices can be tens of gigabytes "large" while only a fraction
//! of that space is ever written, and an incarnation page is about half
//! zero padding. [`SparseStore`] keeps each backing page's **written
//! prefix** only (its bytes up to the last non-zero one), rounded up to a
//! size class of `GRAIN` bytes, in a slot of that class's slab: `CHUNK`-byte
//! chunks cut into equal slots, and a free list. A rewrite within its
//! class overwrites the slot; one that changes class moves, so steady
//! rewriting allocates nothing. A slot's bytes past its prefix are zero,
//! and so is every byte no slot holds: reads return exactly the bytes
//! written (DESIGN.md "The simulated medium's memory").

use std::collections::hash_map::{Entry, HashMap};

/// Size-class granularity (or the page size, if smaller).
const GRAIN: usize = 256;

/// Bytes a slab allocates at a time (one slot, if a slot is larger).
const CHUNK: usize = 256 * 1024;

/// Where a page's prefix lives: slot `index` of size class `class` (≥ 1).
#[derive(Debug, Clone, Copy)]
struct Slot {
    class: u32,
    index: u32,
}

/// Equal slots of `slot_bytes`, `per_chunk` to a chunk.
#[derive(Debug, Clone)]
struct Slab {
    slot_bytes: usize,
    per_chunk: usize,
    chunks: Vec<Box<[u8]>>,
    /// The slots no page holds, stale contents and all.
    free: Vec<u32>,
}

impl Slab {
    fn new(slot_bytes: usize) -> Self {
        let per_chunk = (CHUNK / slot_bytes).max(1);
        Slab { slot_bytes, per_chunk, chunks: Vec::new(), free: Vec::new() }
    }

    fn alloc(&mut self) -> u32 {
        if self.free.is_empty() {
            let first = (self.chunks.len() * self.per_chunk) as u32;
            self.chunks.push(vec![0; self.per_chunk * self.slot_bytes].into_boxed_slice());
            self.free.extend((first..first + self.per_chunk as u32).rev());
        }
        self.free.pop().expect("a new chunk has free slots")
    }

    /// The chunk holding slot `index` and the slot's byte range in it.
    fn span(&self, index: u32) -> (usize, std::ops::Range<usize>) {
        let at = index as usize % self.per_chunk * self.slot_bytes;
        (index as usize / self.per_chunk, at..at + self.slot_bytes)
    }

    fn slot(&self, index: u32) -> &[u8] {
        let (chunk, range) = self.span(index);
        &self.chunks[chunk][range]
    }

    fn slot_mut(&mut self, index: u32) -> &mut [u8] {
        let (chunk, range) = self.span(index);
        &mut self.chunks[chunk][range]
    }
}

/// A sparse, page-granular byte store.
#[derive(Debug, Clone)]
pub struct SparseStore {
    page_size: usize,
    /// The backing pages holding a non-zero byte.
    pages: HashMap<u64, Slot>,
    /// `slabs[c - 1]` holds class `c`: slots of `c * GRAIN` bytes, at most
    /// a page.
    slabs: Vec<Slab>,
}

impl SparseStore {
    /// Creates a store with the given backing page size (the allocation
    /// granularity; independent of the device's logical page size, though
    /// using the same value avoids straddling).
    pub fn new(page_size: usize) -> Self {
        assert!(page_size > 0, "page size must be non-zero");
        let slabs = (1..=page_size.div_ceil(GRAIN))
            .map(|class| Slab::new((class * GRAIN).min(page_size)))
            .collect();
        SparseStore { page_size, pages: HashMap::new(), slabs }
    }

    /// Backing page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of backing pages holding a non-zero byte.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Bytes of slab chunks allocated, the free slots' included.
    pub fn resident_bytes(&self) -> usize {
        self.slabs.iter().map(|s| s.chunks.len() * s.per_chunk * s.slot_bytes).sum()
    }

    /// Reads `buf.len()` bytes starting at `offset` into `buf`.
    pub fn read(&self, offset: u64, buf: &mut [u8]) {
        let mut done = 0usize;
        while done < buf.len() {
            let (page, at, n) = self.locate(offset + done as u64, buf.len() - done);
            let stored = self
                .pages
                .get(&page)
                .map_or(&[][..], |s| self.slabs[s.class as usize - 1].slot(s.index));
            copy_padded(&mut buf[done..done + n], stored.get(at..).unwrap_or_default());
            done += n;
        }
    }

    /// Writes `data` starting at `offset`.
    pub fn write(&mut self, offset: u64, data: &[u8]) {
        let mut done = 0usize;
        while done < data.len() {
            let (page, at, n) = self.locate(offset + done as u64, data.len() - done);
            self.write_in_page(page, at, &data[done..done + n]);
            done += n;
        }
    }

    /// Writes `bufs` in order at consecutive offsets from `offset`, as
    /// [`write`](Self::write) of their concatenation, and returns its
    /// length.
    pub fn write_list(&mut self, offset: u64, bufs: &[&[u8]]) -> usize {
        bufs.iter().fold(0, |at, buf| {
            self.write(offset + at as u64, buf);
            at + buf.len()
        })
    }

    /// Zeroes `[offset, offset+len)`, releasing the backing pages it covers
    /// whole.
    pub fn erase(&mut self, offset: u64, len: u64) {
        let mut done = 0u64;
        while done < len {
            let (page, at, n) = self.locate(offset + done, (len - done) as usize);
            self.write_in_page(page, at, &vec![0; n]);
            done += n as u64;
        }
    }

    /// Drops all data.
    pub fn clear(&mut self) {
        *self = Self::new(self.page_size);
    }

    /// The backing page holding byte `pos`, the byte's offset in it, and
    /// how many of the `remaining` bytes from there it holds.
    fn locate(&self, pos: u64, remaining: usize) -> (u64, usize, usize) {
        let (page, at) = (pos / self.page_size as u64, (pos % self.page_size as u64) as usize);
        (page, at, (self.page_size - at).min(remaining))
    }

    /// Writes `data` at byte `at` of backing page `page`. A whole-page
    /// write scans `data` once and copies its prefix once; a partial one
    /// also reads the old prefix, for the bytes it leaves alone.
    fn write_in_page(&mut self, page: u64, at: usize, data: &[u8]) {
        let slabs = &mut self.slabs;
        let entry = self.pages.entry(page);
        let old = match &entry {
            Entry::Occupied(held) => Some(*held.get()),
            Entry::Vacant(_) => None,
        };
        let stored = old.map_or(&[][..], |old| slabs[old.class as usize - 1].slot(old.index));
        let end = at + data.len();
        // The page's last non-zero byte is past the write, in it, or before.
        let len = match written_len(stored.get(end..).unwrap_or_default()) {
            0 => match written_len(data) {
                0 => written_len(&stored[..at.min(stored.len())]),
                n => at + n,
            },
            n => end + n,
        };
        let class = len.div_ceil(GRAIN);
        if let Some(old) = old {
            if old.class as usize == class {
                // In place: `data` past the slot's end is zero.
                let slot = slabs[class - 1].slot_mut(old.index);
                let end = end.min(slot.len());
                let at = at.min(end);
                slot[at..end].copy_from_slice(&data[..end - at]);
                return;
            }
            // Freed before it is read: the new slot is of another class.
            slabs[old.class as usize - 1].free.push(old.index);
        }
        if class == 0 {
            self.pages.remove(&page);
            return;
        }
        let index = slabs[class - 1].alloc();
        match old {
            Some(old) => {
                let [to, from] = slabs
                    .get_disjoint_mut([class - 1, old.class as usize - 1])
                    .expect("the class changed");
                compose(to.slot_mut(index), from.slot(old.index), at, data);
            }
            None => compose(slabs[class - 1].slot_mut(index), &[], at, data),
        }
        entry.insert_entry(Slot { class: class as u32, index });
    }
}

/// Length of `bytes` up to its last non-zero byte, found from the end 64
/// bytes at a time.
fn written_len(bytes: &[u8]) -> usize {
    let last_non_zero = |bytes: &[u8]| bytes.iter().rposition(|&b| b != 0);
    let (head, blocks) = bytes.as_rchunks::<64>();
    for (i, block) in blocks.iter().enumerate().rev() {
        if block.iter().fold(0, |acc, &b| acc | b) != 0 {
            return head.len() + i * 64 + last_non_zero(block).expect("a non-zero byte") + 1;
        }
    }
    last_non_zero(head).map_or(0, |i| i + 1)
}

/// Copies as much of `src` as fits into `dst` and zeroes the rest of `dst`.
fn copy_padded(dst: &mut [u8], src: &[u8]) {
    let n = src.len().min(dst.len());
    dst[..n].copy_from_slice(&src[..n]);
    dst[n..].fill(0);
}

/// Fills `slot` with a page's first `slot.len()` bytes: `data` at `at`,
/// and around it `old` followed by zeros.
fn compose(slot: &mut [u8], old: &[u8], at: usize, data: &[u8]) {
    let end = (at + data.len()).min(slot.len());
    let at = at.min(end);
    copy_padded(&mut slot[..at], old);
    copy_padded(&mut slot[at..end], data);
    copy_padded(&mut slot[end..], old.get(end..).unwrap_or_default());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_regions_read_zero() {
        let store = SparseStore::new(4096);
        let mut buf = [1u8; 64];
        store.read(1 << 30, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(store.resident_pages(), 0);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut store = SparseStore::new(4096);
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        store.write(5000, &data);
        let mut buf = vec![0u8; data.len()];
        store.read(5000, &mut buf);
        assert_eq!(buf, data);
        // Straddles three backing pages.
        assert_eq!(store.resident_pages(), 3);
    }

    #[test]
    fn sparse_writes_far_apart_stay_sparse() {
        let mut store = SparseStore::new(4096);
        store.write(0, &[1, 2, 3]);
        store.write(10 << 30, &[4, 5, 6]);
        assert_eq!(store.resident_pages(), 2);
        let mut buf = [0u8; 3];
        store.read(10 << 30, &mut buf);
        assert_eq!(buf, [4, 5, 6]);
    }

    #[test]
    fn erase_releases_full_pages_and_zeroes_partials() {
        let mut store = SparseStore::new(1024);
        store.write(0, &vec![0xAB; 4096]);
        assert_eq!(store.resident_pages(), 4);
        // Erase from the middle of page 0 to the middle of page 3.
        store.erase(512, 1024 * 2 + 512 + 512);
        // Pages 1 and 2 are fully covered and released; 0 and 3 remain.
        assert_eq!(store.resident_pages(), 2);
        let mut buf = vec![0u8; 4096];
        store.read(0, &mut buf);
        assert!(buf[..512].iter().all(|&b| b == 0xAB));
        assert!(buf[512..3584].iter().all(|&b| b == 0));
        assert!(buf[3584..].iter().all(|&b| b == 0xAB));
    }

    #[test]
    fn erase_zero_length_is_noop() {
        let mut store = SparseStore::new(1024);
        store.write(0, &[7; 10]);
        store.erase(0, 0);
        let mut buf = [0u8; 10];
        store.read(0, &mut buf);
        assert_eq!(buf, [7; 10]);
    }

    #[test]
    fn clear_drops_everything() {
        let mut store = SparseStore::new(1024);
        store.write(0, &[1; 2048]);
        store.clear();
        assert_eq!(store.resident_pages(), 0);
        assert_eq!(store.resident_bytes(), 0);
    }

    #[test]
    fn overwrite_replaces_data() {
        let mut store = SparseStore::new(256);
        store.write(100, &[1; 300]);
        store.write(150, &[2; 100]);
        let mut buf = [0u8; 300];
        store.read(100, &mut buf);
        assert!(buf[..50].iter().all(|&b| b == 1));
        assert!(buf[50..150].iter().all(|&b| b == 2));
        assert!(buf[150..].iter().all(|&b| b == 1));
    }

    #[test]
    fn written_len_finds_the_last_non_zero_byte() {
        assert_eq!(written_len(&[]), 0);
        assert_eq!(written_len(&[0; 19]), 0);
        for len in 1..40 {
            for last in 0..len {
                let mut bytes = vec![0u8; len];
                bytes[last] = 9;
                assert_eq!(written_len(&bytes), last + 1, "len {len}");
            }
        }
    }

    /// A page keeps only its prefix, rounded up to a class, and an
    /// all-zero page keeps nothing.
    #[test]
    fn a_page_holds_its_prefix_rounded_to_a_class() {
        let mut store = SparseStore::new(4096);
        let mut page = vec![0u8; 4096];
        page[..2100].fill(3);
        store.write(0, &page);
        assert_eq!(store.pages[&0].class as usize * GRAIN, 2304);
        page.fill(0);
        store.write(0, &page);
        assert_eq!(store.resident_pages(), 0);
    }

    /// Pages rewritten over and over, each time in another class, reuse
    /// freed slots: the slabs stop growing after the first round, within
    /// one slot of the largest class a page plus one chunk a class.
    #[test]
    fn churn_stays_within_the_slab_bound() {
        const PAGE: usize = 1024;
        const PAGES: usize = 1_000;
        let images: Vec<Vec<u8>> = [700, 100, 1_000, 300]
            .iter()
            .map(|&len| (0..PAGE).map(|i| u8::from(i < len) * 0xA5).collect())
            .collect();
        let mut store = SparseStore::new(PAGE);
        let rewrite_all = |store: &mut SparseStore, round: usize| {
            for page in 0..PAGES {
                store.write((page * PAGE) as u64, &images[(round + page) % images.len()]);
            }
        };
        rewrite_all(&mut store, 0);
        let settled = store.resident_bytes();
        for round in 1..1_000 {
            rewrite_all(&mut store, round);
        }
        assert_eq!(store.resident_pages(), PAGES);
        assert_eq!(store.resident_bytes(), settled, "rewrites reuse freed slots");
        let classes = store.slabs.iter().filter(|s| !s.chunks.is_empty()).count();
        assert_eq!(classes, 4);
        assert!(settled <= PAGES * PAGE + classes * CHUNK);
    }
}
