//! Bit-sliced Bloom filters with a sliding window (§5.1.3).
//!
//! A super table keeps one Bloom filter per incarnation. Instead of storing
//! the `k` filters separately, all of them are stored as `m` bit-slices: the
//! i-th slice concatenates bit `i` from every incarnation's filter. A lookup
//! hashes the key to `h` bit positions, fetches those `h` slices, ANDs them,
//! and the positions of 1-bits in the result identify the incarnations that
//! may contain the key — `h` word-sized memory reads instead of `k·h`
//! scattered bit probes.
//!
//! Eviction uses the paper's sliding-window trick: each slice carries `w`
//! (here 64) extra bits. Evicting the oldest incarnation just advances the
//! window start; bits that fall out of the window are ignored and whole
//! 64-bit words are zeroed only once the window has completely moved past
//! them, giving a small amortized eviction cost.

use serde::{Deserialize, Serialize};

use crate::types::{hash_with_seed, Key, Modulus};

/// Extra lanes appended to every slice (the `w` of §5.1.3); one machine word.
const WINDOW_SLACK: usize = 64;

/// Bit-sliced Bloom filters for the incarnations of one super table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitSlicedBloomSet {
    /// Maximum number of incarnations (k).
    num_slots: usize,
    /// Bits per incarnation filter (m), ready to reduce hashes by.
    bits_per_filter: Modulus,
    /// Hash functions per filter (h).
    num_hashes: u32,
    /// Total lanes per slice (k + w, rounded up to a whole word).
    lane_space: usize,
    /// 64-bit words per slice.
    words_per_slice: usize,
    /// All slices, `bits_per_filter * words_per_slice` words.
    slices: Vec<u64>,
    /// Scratch for [`push_incarnation`](Self::push_incarnation): the new
    /// incarnation's plain filter, one bit per row (`m / 64` words, small
    /// enough to stay in L1 while the keys are hashed). All zero between
    /// calls.
    column: Vec<u64>,
    /// Lane index of the oldest live incarnation.
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
        let lane_space = (num_slots + WINDOW_SLACK).div_ceil(64) * 64;
        let words_per_slice = lane_space / 64;
        BitSlicedBloomSet {
            num_slots,
            bits_per_filter: Modulus::new(bits_per_filter),
            num_hashes: num_hashes.clamp(1, 16),
            lane_space,
            words_per_slice,
            slices: vec![0u64; bits_per_filter * words_per_slice],
            column: vec![0u64; bits_per_filter.div_ceil(64)],
            window_start: 0,
            count: 0,
        }
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

    /// Approximate memory footprint in bytes (the slices; the `m`-bit
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

    /// Lane index of the incarnation with the given `age`
    /// (age 0 = youngest, `count - 1` = oldest).
    fn lane_of_age(&self, age: usize) -> usize {
        debug_assert!(age < self.count);
        (self.window_start + self.count - 1 - age) % self.lane_space
    }

    /// Registers a new (youngest) incarnation containing `keys`.
    ///
    /// The incarnation's filter is first built as a plain `m`-bit column
    /// in scratch memory, then merged into its lane of every slice in one
    /// sequential sweep: no allocation, no division, and the slices are
    /// walked once instead of being hit at `h` random rows per key.
    ///
    /// The caller must ensure there is room (evict first if `len() ==
    /// capacity()`); pushing into a full set panics, as that indicates a
    /// logic error in the super table.
    pub fn push_incarnation<I: IntoIterator<Item = Key>>(&mut self, keys: I) {
        assert!(
            self.count < self.num_slots,
            "push_incarnation on a full BitSlicedBloomSet; evict first"
        );
        let lane = (self.window_start + self.count) % self.lane_space;
        self.count += 1;
        let mut column = std::mem::take(&mut self.column);
        for key in keys {
            for row in self.rows(key) {
                column[row / 64] |= 1 << (row % 64);
            }
        }
        // The sweep overwrites the lane's bit in every row rather than
        // OR-ing into it, so correctness does not rest on the lazy word
        // zeroing of `evict_oldest` having left the lane clear.
        let (word_off, bit, stride) = (lane / 64, lane % 64, self.words_per_slice);
        for (rows, &bits) in self.slices.chunks_mut(64 * stride).zip(&column) {
            for (r, slice) in rows.chunks_exact_mut(stride).enumerate() {
                let word = &mut slice[word_off];
                *word = *word & !(1 << bit) | (bits >> r & 1) << bit;
            }
        }
        column.fill(0);
        self.column = column;
    }

    /// Evicts the oldest incarnation by sliding the window.
    ///
    /// Whole 64-bit words are zeroed only when the window has moved entirely
    /// past them (the paper's amortized-reset optimisation).
    pub fn evict_oldest(&mut self) {
        if self.count == 0 {
            return;
        }
        self.window_start = (self.window_start + 1) % self.lane_space;
        self.count -= 1;
        if self.window_start.is_multiple_of(64) {
            // The word we just finished leaving contains only dead lanes.
            let words = self.words_per_slice;
            let word_behind = (self.window_start / 64 + words - 1) % words;
            for word in self.slices.iter_mut().skip(word_behind).step_by(words) {
                *word = 0;
            }
        }
    }

    /// Returns the ages (0 = youngest) of the incarnations that may contain
    /// `key`, ordered youngest to oldest.
    pub fn query(&self, key: Key) -> Vec<usize> {
        if self.count == 0 {
            return Vec::new();
        }
        // AND the h slices.
        let mut acc = vec![u64::MAX; self.words_per_slice];
        for row in self.rows(key) {
            let base = row * self.words_per_slice;
            for (word, slice_word) in acc.iter_mut().zip(&self.slices[base..]) {
                *word &= slice_word;
            }
        }
        // Collect window lanes whose AND bit is set, youngest first.
        let mut out = Vec::new();
        for age in 0..self.count {
            let lane = self.lane_of_age(age);
            if acc[lane / 64] >> (lane % 64) & 1 == 1 {
                out.push(age);
            }
        }
        out
    }

    /// Returns `true` if the incarnation with `age` may contain `key`
    /// (single-incarnation probe, used by the non-bit-sliced ablation path).
    pub fn contains_in(&self, age: usize, key: Key) -> bool {
        if age >= self.count {
            return false;
        }
        let lane = self.lane_of_age(age);
        self.rows(key)
            .all(|row| self.slices[row * self.words_per_slice + lane / 64] >> (lane % 64) & 1 == 1)
    }

    /// Number of 64-bit words touched by one query (for latency accounting:
    /// `h` slices of `words_per_slice` words each).
    pub fn words_per_query(&self) -> usize {
        self.num_hashes as usize * self.words_per_slice
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

    /// The per-key registration the column sweep replaced — defensive lane
    /// clear, then one `Vec` of rows and `h` scattered bit sets per key,
    /// rows by plain `%` — kept as the reference it must match.
    fn push_incarnation_per_key(set: &mut BitSlicedBloomSet, keys: &[Key]) {
        assert!(set.count < set.num_slots);
        let lane = (set.window_start + set.count) % set.lane_space;
        let (m, wps) = (set.bits_per_filter.get(), set.words_per_slice);
        for row in 0..m {
            set.slices[row * wps + lane / 64] &= !(1u64 << (lane % 64));
        }
        set.count += 1;
        for &key in keys {
            let h1 = hash_with_seed(key, 0x5bd1_e995);
            let h2 = hash_with_seed(key, 0x27d4_eb2f) | 1;
            let rows: Vec<usize> = (0..set.num_hashes as u64)
                .map(|i| (h1.wrapping_add(i.wrapping_mul(h2)) % m as u64) as usize)
                .collect();
            for row in rows {
                set.slices[row * wps + lane / 64] |= 1 << (lane % 64);
            }
        }
    }

    #[test]
    fn column_sweep_matches_per_key_registration_across_window_wraps() {
        // (slots, m, h): power-of-two and odd filter widths, one and two
        // words per slice, the benchmark's own geometry last.
        for (slots, m, h) in [(4, 1 << 10, 4), (5, 1000, 7), (70, 777, 3), (16, 16_384, 11)] {
            let mut fast = BitSlicedBloomSet::new(slots, m, h);
            let mut reference = BitSlicedBloomSet::new(slots, m, h);
            // Several laps of the lane space, so lanes are reused after
            // the lazy word zeroing and after a window wrap.
            let rounds = 3 * fast.lane_space as u64 + 17;
            for round in 0..rounds {
                // Mostly push-when-room, evict-when-full, with pseudo-random
                // extra evictions so the window start drifts off the
                // word boundaries and the set runs at every fill level.
                let extra_evictions = hash_with_seed(round, 0xe71c) % 3;
                for _ in 0..extra_evictions.min(fast.len() as u64) {
                    fast.evict_oldest();
                    reference.evict_oldest();
                }
                if fast.len() == fast.capacity() {
                    fast.evict_oldest();
                    reference.evict_oldest();
                }
                // The defensive clear stays: on entry the lane must not
                // need it, which is what lets the sweep overwrite.
                let lane = (fast.window_start + fast.count) % fast.lane_space;
                let stale = (0..m)
                    .filter(|row| {
                        fast.slices[row * fast.words_per_slice + lane / 64] >> (lane % 64) & 1 == 1
                    })
                    .count();
                assert_eq!(stale, 0, "({slots},{m},{h}) round {round}: lane {lane} not clear");
                let keys = keys_for(round, 1 + hash_with_seed(round, 5) % 40);
                fast.push_incarnation(keys.iter().copied());
                push_incarnation_per_key(&mut reference, &keys);
                assert_eq!(fast.slices, reference.slices, "({slots},{m},{h}) round {round}");
                assert!(fast.column.iter().all(|&w| w == 0), "scratch left dirty");
                assert_eq!(fast, reference);
                for probe in 0..20u64 {
                    let key = if probe % 2 == 0 {
                        keys_for(round.saturating_sub(probe / 2), 1)[0]
                    } else {
                        hash_with_seed(probe, round)
                    };
                    assert_eq!(fast.query(key), reference.query(key));
                }
            }
        }
    }

    #[test]
    fn a_dirty_lane_is_overwritten_not_merged() {
        // Should the lazy zeroing ever leave a lane dirty, registration
        // must still produce exactly the new incarnation's filter.
        let mut set = BitSlicedBloomSet::new(4, 1 << 10, 4);
        set.slices.fill(u64::MAX);
        set.push_incarnation(keys_for(1, 10));
        let mut clean = BitSlicedBloomSet::new(4, 1 << 10, 4);
        clean.push_incarnation(keys_for(1, 10));
        for row in 0..1 << 10 {
            let word = row * set.words_per_slice;
            assert_eq!(set.slices[word] & 1, clean.slices[word] & 1, "row {row}");
            assert_eq!(set.slices[word] | 1, u64::MAX, "other lanes untouched");
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
        let set = BitSlicedBloomSet::new(16, 1 << 15, 7);
        // 16 + 64 lanes -> 128 lanes -> 2 words per slice.
        assert_eq!(set.words_per_query(), 7 * 2);
        assert_eq!(set.memory_bytes(), (1 << 15) * 2 * 8);
    }
}
