//! Bit-sliced Bloom filters on a ring of lanes (§5.1.3).
//!
//! A super table keeps one Bloom filter per incarnation. Instead of storing
//! the `k` filters separately, all of them are stored as `m` bit-slices: the
//! i-th slice (row) concatenates bit `i` from every incarnation's filter. A
//! lookup hashes the key to `h` rows, ANDs them, and the 1-bits of the result
//! name the incarnations that may contain the key — `h` word-sized memory
//! reads instead of `k·h` scattered bit probes.
//!
//! A row is one lane field, the smallest power of two that holds `k` lanes;
//! rows narrower than a word share one, wider rows take whole words. The
//! slices so come to `k·m/8` bytes at a power-of-two `k` and to under twice
//! that otherwise: the Bloom budget of §6, not a multiple of it. The live
//! incarnations are a window on the ring of lanes. The paper gives every
//! slice `w` spare bits so that an evicted lane can wait to be zeroed a word
//! at a time; there is no `w` here because nothing is zeroed. Registration
//! writes its lane in every row, clear bits as well as set ones, so that
//! sweep is the reset, and no query reads a lane outside the window.

use serde::{Deserialize, Serialize};

use crate::filters::AgeSet;
use crate::types::{hash_with_seed, Key, Modulus};

/// Bit-sliced Bloom filters for the incarnations of one super table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitSlicedBloomSet {
    /// Maximum number of incarnations (k).
    num_slots: usize,
    /// Bits per incarnation filter (m), ready to reduce hashes by.
    bits_per_filter: Modulus,
    /// Hash functions per filter (h).
    num_hashes: u32,
    /// Lanes per row: `num_slots` rounded up to a power of two.
    lanes: usize,
    /// The rows, placed by [`locate`](Self::locate). Allocated by the first
    /// registration, so a table that never flushed holds none.
    slices: Vec<u64>,
    /// Scratch for [`push_incarnation`](Self::push_incarnation): the new
    /// incarnation's plain filter, one bit per row (`m / 64` words, small
    /// enough to stay in L1 while the keys are hashed). All zero between
    /// calls.
    column: Vec<u64>,
    /// Lane of the youngest live incarnation; the one aged `a` is `a` lanes
    /// further round the ring.
    window_start: usize,
    /// Number of live incarnations (≤ `num_slots`).
    count: usize,
}

impl BitSlicedBloomSet {
    /// Creates a bit-sliced filter set for up to `num_slots` incarnations,
    /// `bits_per_filter` bits and `num_hashes` hash functions per filter.
    pub fn new(num_slots: usize, bits_per_filter: usize, num_hashes: u32) -> Self {
        let num_slots = num_slots.max(1);
        let bits_per_filter = bits_per_filter.max(64);
        BitSlicedBloomSet {
            num_slots,
            bits_per_filter: Modulus::new(bits_per_filter),
            num_hashes: num_hashes.clamp(1, 16),
            lanes: num_slots.next_power_of_two(),
            slices: Vec::new(),
            column: vec![0u64; bits_per_filter.div_ceil(64)],
            window_start: 0,
            count: 0,
        }
    }

    /// Bytes of slices a set of this shape allocates: `bits_per_filter` rows
    /// in whole blocks of 64, `num_slots` lanes rounded up to a power of two.
    pub fn slice_bytes(num_slots: usize, bits_per_filter: usize) -> usize {
        bits_per_filter.max(64).div_ceil(64) * num_slots.max(1).next_power_of_two() * 8
    }

    /// Maximum number of incarnations.
    pub fn capacity(&self) -> usize {
        self.num_slots
    }

    /// Number of live incarnations.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Returns `true` if there are no live incarnations.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Bits per incarnation filter.
    pub fn bits_per_filter(&self) -> usize {
        self.bits_per_filter.get()
    }

    /// Number of hash functions.
    pub fn num_hashes(&self) -> u32 {
        self.num_hashes
    }

    /// Memory footprint in bytes: the slices, once allocated (the `m`-bit
    /// scratch column is not counted).
    pub fn memory_bytes(&self) -> usize {
        self.slices.len() * 8
    }

    /// Bit positions (rows) probed for `key`.
    #[inline]
    fn rows(&self, key: Key) -> impl Iterator<Item = usize> + '_ {
        let h1 = hash_with_seed(key, 0x5bd1_e995);
        let h2 = hash_with_seed(key, 0x27d4_eb2f) | 1;
        let m = self.bits_per_filter;
        (0..self.num_hashes as u64).map(move |i| m.reduce(h1.wrapping_add(i.wrapping_mul(h2))))
    }

    /// Where `row`'s lanes are: the index of its first word in `slices` and
    /// the bit of it lane 0 sits at.
    ///
    /// Rows come in blocks of 64, one bit of a `column` word each, `lanes`
    /// words to the block. A field of `f < 64` bits shares its word with
    /// the rows `f`, `2f`, … further on in the block, not its neighbours,
    /// so the registration sweep deposits a column word by shift and mask.
    #[inline]
    fn locate(&self, row: usize) -> (usize, usize) {
        let field = self.lanes.min(64);
        let (block, bit) = (row / 64, row % 64);
        let word = bit & (field - 1);
        ((block * field + word) * self.lanes.div_ceil(64), bit - word)
    }

    /// Registers a new (youngest) incarnation containing `keys`.
    ///
    /// The incarnation's filter is first built as a plain `m`-bit column
    /// in scratch memory, then written over its lane of every row in one
    /// sequential sweep: no allocation after the first call, no division,
    /// and the slices are walked once instead of being hit at `h` random
    /// rows per key.
    ///
    /// The caller must ensure there is room (evict first if `len() ==
    /// capacity()`); pushing into a full set panics, as that indicates a
    /// logic error in the super table.
    pub fn push_incarnation<I: IntoIterator<Item = Key>>(&mut self, keys: I) {
        assert!(
            self.count < self.num_slots,
            "push_incarnation on a full BitSlicedBloomSet; evict first"
        );
        self.window_start = (self.window_start + self.lanes - 1) % self.lanes;
        self.count += 1;
        let mut column = std::mem::take(&mut self.column);
        for key in keys {
            for row in self.rows(key) {
                column[row / 64] |= 1 << (row % 64);
            }
        }
        self.slices.resize(column.len() * self.lanes, 0);
        // Word `j` of a block holds its rows `j`, `j + field`, …: its share
        // of the column word is every `field`-th bit from `j` on.
        let field = self.lanes.min(64);
        let unit = u64::MAX / (u64::MAX >> (64 - field));
        let (word_off, bit) = (self.window_start / 64, self.window_start % 64);
        for (block, &bits) in self.slices.chunks_exact_mut(self.lanes).zip(&column) {
            for (j, row) in block.chunks_exact_mut(self.lanes / field).enumerate() {
                let word = &mut row[word_off];
                *word = *word & !(unit << bit) | (bits >> j & unit) << bit;
            }
        }
        column.fill(0);
        self.column = column;
    }

    /// Evicts the oldest incarnation by shortening the window; its lane
    /// keeps its bits until a registration overwrites them.
    pub fn evict_oldest(&mut self) {
        self.count = self.count.saturating_sub(1);
    }

    /// Returns the ages (0 = youngest) of the incarnations that may contain
    /// `key`. No allocation up to 64 lanes.
    pub fn query(&self, key: Key) -> AgeSet {
        if self.count == 0 {
            return AgeSet::default();
        }
        let (field, stride) = (self.lanes.min(64), self.lanes.div_ceil(64));
        // The `h` rows ANDed, 64 lanes of them from lane `64 j` of the ring.
        let and_rows = |j: usize| {
            self.rows(key).fold(u64::MAX >> (64 - field), |acc, row| {
                let (base, shift) = self.locate(row);
                acc & self.slices[base + (j & (stride - 1))] >> shift
            })
        };
        // Turn the ring so that the youngest lane comes first: bit `a` of
        // the result is then age `a`, and the window is its low `count`.
        let (skip, bit) = (self.window_start / 64, self.window_start % 64);
        AgeSet::from_words(self.count, |i| {
            let low = and_rows(i + skip);
            let high = if stride == 1 { low } else { and_rows(i + skip + 1) };
            low >> bit | high << 1 << (field - 1 - bit)
        })
    }

    /// Returns `true` if the incarnation with `age` may contain `key`: the
    /// single-lane probe [`query`](Self::query) is tested against.
    pub fn contains_in(&self, age: usize, key: Key) -> bool {
        let lane = (self.window_start + age) & (self.lanes - 1);
        age < self.count
            && self.rows(key).all(|row| {
                let (base, shift) = self.locate(row);
                self.slices[base + lane / 64] >> (shift + lane % 64) & 1 == 1
            })
    }

    /// Number of 64-bit words touched by one query (for latency accounting):
    /// `h` rows of one word each up to 64 lanes.
    pub fn words_per_query(&self) -> usize {
        self.num_hashes as usize * self.lanes.div_ceil(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys_for(incarnation: u64, n: u64) -> Vec<Key> {
        (0..n).map(|i| hash_with_seed(i, incarnation.wrapping_add(1))).collect()
    }

    #[test]
    fn query_finds_the_right_incarnation() {
        let mut set = BitSlicedBloomSet::new(8, 1 << 14, 5);
        for inc in 0..4u64 {
            set.push_incarnation(keys_for(inc, 100));
        }
        assert_eq!(set.len(), 4);
        // Keys of incarnation 0 are the oldest (age 3).
        let k = keys_for(0, 100)[7];
        let ages = set.query(k);
        assert!(ages.contains(&3), "expected age 3 in {ages:?}");
        // Keys of incarnation 3 are the youngest (age 0).
        let k = keys_for(3, 100)[42];
        assert!(set.query(k).contains(&0));
    }

    #[test]
    fn no_false_negatives_across_all_incarnations() {
        let mut set = BitSlicedBloomSet::new(16, 1 << 14, 6);
        for inc in 0..16u64 {
            set.push_incarnation(keys_for(inc, 64));
        }
        for inc in 0..16u64 {
            let age = 15 - inc as usize;
            for k in keys_for(inc, 64) {
                assert!(set.query(k).contains(&age), "missing key of incarnation {inc}");
                assert!(set.contains_in(age, k));
            }
        }
    }

    #[test]
    fn eviction_slides_the_window() {
        let mut set = BitSlicedBloomSet::new(4, 1 << 12, 4);
        for inc in 0..4u64 {
            set.push_incarnation(keys_for(inc, 50));
        }
        // Evict the oldest (incarnation 0); its keys should mostly disappear
        // from query results (they can only reappear as false positives).
        set.evict_oldest();
        assert_eq!(set.len(), 3);
        let hits = keys_for(0, 50)
            .into_iter()
            .filter(|&k| set.query(k).contains(&2) && !keys_for(1, 50).contains(&k))
            .count();
        // Age 2 is now incarnation 1; incarnation 0's keys should rarely hit it.
        assert!(hits < 10, "too many stale hits after eviction: {hits}");
        // Incarnation 1 keys are now the oldest (age 2).
        for k in keys_for(1, 50) {
            assert!(set.query(k).contains(&2));
        }
    }

    #[test]
    fn long_churn_reuses_lanes_correctly() {
        // Push/evict many times so the window wraps the lane space several
        // times; no false negatives may appear for live incarnations.
        let mut set = BitSlicedBloomSet::new(4, 1 << 12, 4);
        for round in 0..400u64 {
            if set.len() == set.capacity() {
                set.evict_oldest();
            }
            set.push_incarnation(keys_for(round, 20));
            // All live incarnations still answer correctly.
            let live_from = round.saturating_sub(set.len() as u64 - 1);
            for (age_back, inc) in (live_from..=round).rev().enumerate() {
                for k in keys_for(inc, 20) {
                    assert!(
                        set.query(k).contains(&age_back),
                        "round {round}: lost keys of incarnation {inc}"
                    );
                }
            }
        }
    }

    #[test]
    fn false_positive_rate_is_low_with_adequate_bits() {
        let mut set = BitSlicedBloomSet::new(16, 1 << 16, 7);
        for inc in 0..16u64 {
            set.push_incarnation(keys_for(inc, 409));
        }
        let trials = 20_000u64;
        let mut fp = 0usize;
        for i in 0..trials {
            let k = hash_with_seed(i, 0xdead_beef);
            fp += set.query(k).len();
        }
        // Expected FPR per incarnation with m/n = 160 bits/item is tiny; the
        // whole-set spurious rate should be well under 1%.
        let per_lookup = fp as f64 / trials as f64;
        assert!(per_lookup < 0.01, "spurious incarnation matches per lookup: {per_lookup}");
    }

    /// Lane widths under test: every packing (1 to 32 lanes to a word,
    /// whole words from 64 up), powers of two and the sizes just past them.
    const SLOT_COUNTS: [usize; 14] = [1, 2, 3, 5, 8, 9, 16, 17, 32, 33, 64, 65, 70, 128];

    /// Word index and bit of (`row`, `lane`), worked out apart from
    /// `locate` so the two check each other.
    fn position(set: &BitSlicedBloomSet, row: usize, lane: usize) -> (usize, usize) {
        let (field, stride) = (set.lanes.min(64), set.lanes.div_ceil(64));
        let word = (row / 64 * field + row % field) * stride + lane / 64;
        (word, row % 64 / field * field + lane % 64)
    }

    fn bit(set: &BitSlicedBloomSet, row: usize, lane: usize) -> bool {
        let (word, bit) = position(set, row, lane);
        set.slices[word] >> bit & 1 == 1
    }

    /// The per-key registration the column sweep replaced — clear the lane
    /// row by row, then one `Vec` of rows and `h` scattered bit sets per
    /// key, rows by plain `%` — kept as the reference it must match.
    fn push_incarnation_per_key(set: &mut BitSlicedBloomSet, keys: &[Key]) {
        assert!(set.count < set.num_slots);
        let m = set.bits_per_filter.get();
        if set.slices.is_empty() {
            set.slices = vec![0; BitSlicedBloomSet::slice_bytes(set.num_slots, m) / 8];
        }
        let lane = (set.window_start + set.lanes - 1) % set.lanes;
        set.window_start = lane;
        set.count += 1;
        for row in 0..m {
            let (word, bit) = position(set, row, lane);
            set.slices[word] &= !(1 << bit);
        }
        for &key in keys {
            let h1 = hash_with_seed(key, 0x5bd1_e995);
            let h2 = hash_with_seed(key, 0x27d4_eb2f) | 1;
            let rows: Vec<usize> = (0..set.num_hashes as u64)
                .map(|i| (h1.wrapping_add(i.wrapping_mul(h2)) % m as u64) as usize)
                .collect();
            for row in rows {
                let (word, bit) = position(set, row, lane);
                set.slices[word] |= 1 << bit;
            }
        }
    }

    /// What `query` returned when it built a `Vec`: one probe per live
    /// age, youngest first.
    fn query_per_age(set: &BitSlicedBloomSet, key: Key) -> Vec<usize> {
        (0..set.len()).filter(|&age| set.contains_in(age, key)).collect()
    }

    #[test]
    fn column_sweep_matches_per_key_registration_around_the_ring() {
        // Every lane width at a power-of-two and an odd filter width, then
        // the benchmark's own geometry.
        let shapes = SLOT_COUNTS
            .iter()
            .enumerate()
            .flat_map(|(i, &slots)| [(slots, 1 << 10, 3 + i as u32 % 9), (slots, 777, 4)])
            .chain([(16, 16_384, 11)]);
        for (slots, m, h) in shapes {
            let mut fast = BitSlicedBloomSet::new(slots, m, h);
            let mut reference = BitSlicedBloomSet::new(slots, m, h);
            assert_eq!(fast.memory_bytes(), 0, "slices allocated before a registration");
            // At least three laps of the ring, so every lane is reused,
            // dirty with an evicted incarnation's bits, several times.
            for round in 0..3 * fast.lanes as u64 + 17 {
                // Mostly push-when-room, evict-when-full, with pseudo-random
                // runs of extra evictions (`force_evict_up_to` drops several
                // at once) so the set runs at every fill level.
                let extra_evictions = hash_with_seed(round, 0xe71c) % 4;
                for _ in 0..extra_evictions.min(fast.len() as u64) {
                    fast.evict_oldest();
                    reference.evict_oldest();
                }
                if fast.len() == fast.capacity() {
                    fast.evict_oldest();
                    reference.evict_oldest();
                }
                let keys = keys_for(round, 1 + hash_with_seed(round, 5) % 40);
                fast.push_incarnation(keys.iter().copied());
                push_incarnation_per_key(&mut reference, &keys);
                assert_eq!(fast.slices, reference.slices, "({slots},{m},{h}) round {round}");
                assert_eq!(fast.memory_bytes(), BitSlicedBloomSet::slice_bytes(slots, m));
                assert!(fast.column.iter().all(|&w| w == 0), "scratch left dirty");
                assert_eq!(fast, reference);
                for &key in &keys {
                    assert!(fast.contains_in(0, key), "({slots},{m},{h}) round {round}");
                }
                for probe in 0..20u64 {
                    let key = if probe % 2 == 0 {
                        keys_for(round.saturating_sub(probe / 2), 1)[0]
                    } else {
                        hash_with_seed(probe, round)
                    };
                    let ages = fast.query(key);
                    let expected = query_per_age(&reference, key);
                    assert_eq!(ages.len(), expected.len());
                    assert!(expected.iter().all(|age| ages.contains(age)));
                    // Iterated youngest first, as the `Vec` was.
                    assert_eq!(
                        ages.collect::<Vec<_>>(),
                        expected,
                        "({slots},{m},{h}) round {round}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_dirty_lane_is_overwritten_not_merged() {
        // Nothing zeroes a lane between its eviction and its reuse, so
        // registration must produce exactly the new incarnation's filter
        // from whatever is there, and touch no other lane.
        let m = 1 << 10;
        for slots in SLOT_COUNTS {
            let mut set = BitSlicedBloomSet::new(slots, m, 4);
            let mut clean = BitSlicedBloomSet::new(slots, m, 4);
            // Move the window off lane 0 before the registration checked.
            for warm_up in 0..slots as u64 / 2 + 1 {
                for s in [&mut set, &mut clean] {
                    s.push_incarnation(keys_for(warm_up, 3));
                    s.evict_oldest();
                }
            }
            set.slices.fill(u64::MAX);
            clean.slices.fill(0);
            set.push_incarnation(keys_for(99, 10));
            clean.push_incarnation(keys_for(99, 10));
            let pushed = set.window_start;
            for row in 0..m {
                for lane in 0..set.lanes {
                    if lane == pushed {
                        assert_eq!(bit(&set, row, lane), bit(&clean, row, lane), "row {row}");
                    } else {
                        assert!(bit(&set, row, lane), "k {slots}: lane {lane} of row {row} hit");
                        assert!(!bit(&clean, row, lane), "k {slots}: lane {lane} of row {row} hit");
                    }
                }
            }
            assert!(clean.slices.iter().any(|&w| w != 0));
        }
    }

    #[test]
    fn empty_set_matches_nothing() {
        let set = BitSlicedBloomSet::new(8, 1024, 4);
        assert!(set.query(12345).is_empty());
        assert!(!set.contains_in(0, 12345));
        assert!(set.is_empty());
    }

    #[test]
    fn evicting_empty_set_is_a_noop() {
        let mut set = BitSlicedBloomSet::new(8, 1024, 4);
        set.evict_oldest();
        assert_eq!(set.len(), 0);
    }

    #[test]
    #[should_panic(expected = "full BitSlicedBloomSet")]
    fn pushing_into_full_set_panics() {
        let mut set = BitSlicedBloomSet::new(2, 1024, 4);
        set.push_incarnation([1]);
        set.push_incarnation([2]);
        set.push_incarnation([3]);
    }

    #[test]
    fn memory_and_query_cost_accounting() {
        // A query reads one word per hash up to 64 lanes, and the slices
        // are k·m/8 bytes at a power-of-two k: the Bloom budget itself.
        let mut set = BitSlicedBloomSet::new(16, 1 << 15, 7);
        assert_eq!(set.words_per_query(), 7);
        assert_eq!(set.memory_bytes(), 0);
        set.push_incarnation([1]);
        assert_eq!(set.memory_bytes(), 16 * (1 << 15) / 8);
        for (slots, m) in [(1, 640), (4, 1 << 12), (32, 1 << 12), (64, 1 << 10), (128, 1 << 10)] {
            assert_eq!(BitSlicedBloomSet::slice_bytes(slots, m), slots * m / 8);
        }
        // Any other k rounds up to the next power of two, and m to whole
        // 64-row blocks: under twice the budget.
        for (slots, m) in [(3, 4096), (17, 1000), (33, 777), (70, 65_536)] {
            let bits = BitSlicedBloomSet::slice_bytes(slots, m) * 8;
            assert!(bits >= slots * m && bits < 2 * slots * (m + 64), "({slots},{m}): {bits}");
        }
        assert_eq!(BitSlicedBloomSet::new(65, 1 << 10, 7).words_per_query(), 7 * 2);
        assert_eq!(BitSlicedBloomSet::new(64, 1 << 10, 7).words_per_query(), 7);
    }
}
