//! Sparse in-memory byte store backing the simulated devices.
//!
//! Simulated devices can be tens of gigabytes "large" while only a fraction
//! of that space is ever written, and an incarnation page is about half
//! zero padding. [`SparseStore`] keeps each backing page's **written
//! prefix** only (its bytes up to the last non-zero one), rounded up to a
//! size class of [`GRAIN`](SparseStore::GRAIN) bytes, in a slot of that
//! class's dense slab: [`CHUNK`](SparseStore::CHUNK)-byte chunks cut into
//! equal slots, the live ones first. A rewrite within its class overwrites
//! the slot; a page leaving its class takes a slot of the new one, and its
//! old class's last slot moves into the hole. A slot's bytes past its
//! prefix are zero, and so is every byte no slot holds: reads return
//! exactly the bytes written (DESIGN.md "The simulated medium's memory").

use std::collections::hash_map::{Entry, HashMap};

/// Where a page's prefix lives: slot `index` of size class `class` (≥ 1).
#[derive(Debug, Clone, Copy)]
struct Slot {
    class: u32,
    index: u32,
}

/// Equal slots of `slot_bytes`, `per_chunk` to a chunk. Slots
/// `0..owners.len()` are live, slot `i` holding page `owners[i]`.
#[derive(Debug, Clone)]
struct Slab {
    slot_bytes: usize,
    per_chunk: usize,
    chunks: Vec<Box<[u8]>>,
    owners: Vec<u64>,
}

impl Slab {
    fn new(slot_bytes: usize) -> Self {
        let per_chunk = (SparseStore::CHUNK / slot_bytes).max(1);
        Slab { slot_bytes, per_chunk, chunks: Vec::new(), owners: Vec::new() }
    }

    /// Gives `page` the slot past the live ones.
    fn alloc(&mut self, page: u64) -> u32 {
        if self.owners.len() == self.chunks.len() * self.per_chunk {
            self.chunks.push(vec![0; self.per_chunk * self.slot_bytes].into_boxed_slice());
        }
        self.owners.push(page);
        self.owners.len() as u32 - 1
    }

    /// Frees slot `index` by moving the last live slot into it, and returns
    /// the page that moved there, if one did. Drops a second empty chunk.
    fn free(&mut self, index: u32) -> Option<u64> {
        let last = self.owners.len() as u32 - 1;
        self.owners.swap_remove(index as usize);
        let moved = (index != last).then(|| {
            let ((to, at), (from, range)) = (self.span(index), self.span(last));
            match self.chunks.get_disjoint_mut([to, from]) {
                Ok([to, from]) => to[at].copy_from_slice(&from[range]),
                Err(_) => self.chunks[to].copy_within(range, at.start),
            }
            self.owners[index as usize]
        });
        if self.chunks.len() > self.owners.len().div_ceil(self.per_chunk) + 1 {
            self.chunks.pop();
        }
        moved
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
    /// Size-class granularity (or the page size, if smaller): a half-full
    /// 4 KiB incarnation page's prefix is 32 + 16·n bytes, n ≈ 128 ± 11.
    pub const GRAIN: usize = 64;

    /// Bytes a slab allocates at a time (one slot, if a slot is larger).
    pub const CHUNK: usize = 32 * 1024;

    /// Creates a store with the given backing page size (the allocation
    /// granularity; independent of the device's logical page size, though
    /// using the same value avoids straddling). No chunk is allocated
    /// before the first write.
    pub fn new(page_size: usize) -> Self {
        assert!(page_size > 0, "page size must be non-zero");
        let slabs = (1..=page_size.div_ceil(Self::GRAIN))
            .map(|class| Slab::new((class * Self::GRAIN).min(page_size)))
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

    /// Bytes of slab chunks allocated, the empty slots' included.
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
            self.write_in_page(page, at..at + n, &data[done..done + n]);
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

    /// Zeroes `[offset, offset+len)`: a backing page it covers whole is
    /// released, and a partly covered one is zeroed in its slot.
    pub fn erase(&mut self, offset: u64, len: u64) {
        let mut done = 0u64;
        while done < len {
            let (page, at, n) = self.locate(offset + done, (len - done) as usize);
            self.write_in_page(page, at..at + n, &[]);
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

    /// Writes `data`, then zeros, over `range` of backing page `page`. A
    /// whole-page write scans `data` once and copies its prefix once; a
    /// partial one also reads the old prefix, for the bytes it leaves alone.
    fn write_in_page(&mut self, page: u64, range: std::ops::Range<usize>, data: &[u8]) {
        let slabs = &mut self.slabs;
        let entry = self.pages.entry(page);
        let old = match &entry {
            Entry::Occupied(held) => Some(*held.get()),
            Entry::Vacant(_) => None,
        };
        let stored = old.map_or(&[][..], |old| slabs[old.class as usize - 1].slot(old.index));
        let (at, end) = (range.start, range.end);
        // The page's last non-zero byte is past the write, in it, or before.
        let len = match written_len(stored.get(end..).unwrap_or_default()) {
            0 => match written_len(data) {
                0 => written_len(&stored[..at.min(stored.len())]),
                n => at + n,
            },
            n => end + n,
        };
        let class = len.div_ceil(Self::GRAIN);
        if let Some(old) = old.filter(|old| old.class as usize == class) {
            // In place: the write past the slot's end is zero.
            let slot = slabs[class - 1].slot_mut(old.index);
            let end = end.min(slot.len());
            copy_padded(&mut slot[at.min(end)..end], data);
            return;
        }
        if class == 0 {
            self.pages.remove(&page);
        } else {
            let index = slabs[class - 1].alloc(page);
            match old {
                Some(old) => {
                    let [to, from] = slabs
                        .get_disjoint_mut([class - 1, old.class as usize - 1])
                        .expect("the class changed");
                    compose(to.slot_mut(index), from.slot(old.index), range, data);
                }
                None => compose(slabs[class - 1].slot_mut(index), &[], range, data),
            }
            entry.insert_entry(Slot { class: class as u32, index });
        }
        // Freed once read: the page's new slot, if any, is of another class.
        let Some(old) = old else { return };
        if let Some(moved) = slabs[old.class as usize - 1].free(old.index) {
            self.pages.get_mut(&moved).expect("a slot's page is resident").index = old.index;
        }
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

/// Fills `slot` with a page's first `slot.len()` bytes: over `range`,
/// `data` followed by zeros, and around it `old` followed by zeros.
fn compose(slot: &mut [u8], old: &[u8], range: std::ops::Range<usize>, data: &[u8]) {
    let end = range.end.min(slot.len());
    let at = range.start.min(end);
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
        assert_eq!(store.resident_bytes(), 0, "no chunk before the first write");
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
        assert_eq!(store.pages[&0].class as usize * SparseStore::GRAIN, 2112);
        page.fill(0);
        store.write(0, &page);
        assert_eq!(store.resident_pages(), 0);
        assert_eq!(store.slabs[32].owners.len(), 0);
    }

    /// Bytes of a page whose written prefix is `len` bytes, rounded up to
    /// its class.
    fn class_bytes(page: usize, len: usize) -> usize {
        (len.div_ceil(SparseStore::GRAIN) * SparseStore::GRAIN).min(page)
    }

    /// The slab bound: the live pages' class bytes, plus one partly filled
    /// chunk and one spare chunk for the class of each prefix in `lens`.
    fn slab_bound(page: usize, live: usize, lens: impl IntoIterator<Item = usize>) -> usize {
        let chunk = |slot: usize| (SparseStore::CHUNK / slot).max(1) * slot;
        live + lens.into_iter().map(|len| 2 * chunk(class_bytes(page, len))).sum::<usize>()
    }

    /// Pages rewritten over and over, each time in another class, move
    /// between dense slabs: the slabs stop growing after the first round
    /// and, after every write, stay within the slab bound.
    #[test]
    fn churn_stays_within_the_slab_bound() {
        const PAGE: usize = 1024;
        const PAGES: usize = 1_000;
        const LENS: [usize; 4] = [700, 100, 1_000, 300];
        let images: Vec<Vec<u8>> =
            LENS.iter().map(|&len| (0..PAGE).map(|i| u8::from(i < len) * 0xA5).collect()).collect();
        let mut store = SparseStore::new(PAGE);
        let mut live = 0;
        let mut rewrite_all = |store: &mut SparseStore, round: usize| {
            for page in 0..PAGES {
                let (old, new) = ((round + 3 + page) % 4, (round + page) % 4);
                store.write((page * PAGE) as u64, &images[new]);
                live += class_bytes(PAGE, LENS[new]);
                live -= if round == 0 { 0 } else { class_bytes(PAGE, LENS[old]) };
                assert!(store.resident_bytes() <= slab_bound(PAGE, live, LENS), "round {round}");
            }
        };
        rewrite_all(&mut store, 0);
        let settled = store.resident_bytes();
        for round in 1..1_000 {
            rewrite_all(&mut store, round);
        }
        assert_eq!(store.resident_pages(), PAGES);
        assert_eq!(store.resident_bytes(), settled, "rewrites reuse vacated slots");
        let classes = store.slabs.iter().filter(|s| !s.chunks.is_empty()).count();
        assert_eq!(classes, 4);
    }

    /// Incarnation pages rewritten round after round, each prefix 32 + 16·n
    /// bytes with n drawn around 128 (a half-full 4 KiB page): the slabs
    /// stay within 8 % of the written prefixes.
    #[test]
    fn incarnation_pages_stay_within_eight_percent_of_their_prefixes() {
        const PAGE: usize = 4096;
        const PAGES: u64 = 8_192;
        let prefix = |n: usize| 32 + 16 * n;
        let images: Vec<Vec<u8>> = (0..=150)
            .map(|n| {
                (0..PAGE).map(|i| if i < prefix(n) { (i % 251) as u8 | 1 } else { 0 }).collect()
            })
            .collect();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            106 + (rng % 23) as usize + (rng >> 32) as usize % 23
        };
        let mut store = SparseStore::new(PAGE);
        let mut held = vec![0; PAGES as usize];
        for round in 0..16 {
            for page in 0..PAGES {
                let n = draw();
                store.write(page * PAGE as u64, &images[n]);
                held[page as usize] = prefix(n);
            }
            let written: usize = held.iter().sum();
            let slabs = store.resident_bytes();
            assert!(slabs * 100 <= written * 108, "round {round}: {slabs} bytes for {written}");
        }
    }
}
