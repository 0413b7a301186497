//! The per-super-table bank of incarnation Bloom filters.
//!
//! [`FilterBank`] abstracts over the three configurations evaluated in the
//! paper: the default bit-sliced organisation (§5.1.3), plain
//! one-filter-per-incarnation storage (used by the bit-slicing ablation in
//! §7.3.1), and no filters at all (the Bloom-filter ablation, where every
//! incarnation must be probed on flash).

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::bitslice::BitSlicedBloomSet;
use crate::bloom::BloomFilter;
use crate::types::Key;

/// How incarnation membership filters are organised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FilterMode {
    /// Bit-sliced filters with a sliding window (the paper's default).
    BitSliced,
    /// One independent Bloom filter per incarnation.
    PerIncarnation,
    /// No filters: lookups must probe every incarnation (ablation only).
    Disabled,
}

/// A set of incarnation ages (0 = youngest), iterated youngest first: what
/// a filter query returns and a lookup walks.
///
/// Held by value. The ages below 64 are the bits of one word, so a query
/// on a super table of up to 64 incarnations never touches the heap; `tail`
/// carries 64 further ages a word and stays unallocated otherwise.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct AgeSet {
    head: u64,
    tail: Vec<u64>,
}

impl AgeSet {
    /// The ages below `live` whose bit is set in `word(i)`, bit `b` of which
    /// stands for age `64 i + b`.
    pub(crate) fn from_words(live: usize, word: impl Fn(usize) -> u64) -> Self {
        let masked = |i: usize| {
            let ages = live.saturating_sub(64 * i).min(64) as u32;
            word(i) & u64::MAX.checked_shr(64 - ages).unwrap_or(0)
        };
        AgeSet { head: masked(0), tail: (1..live.div_ceil(64)).map(masked).collect() }
    }

    /// Returns `true` if the set holds no age.
    pub fn is_empty(&self) -> bool {
        self.head == 0 && self.tail.iter().all(|&w| w == 0)
    }

    /// Number of ages in the set.
    pub fn len(&self) -> usize {
        (self.head.count_ones() + self.tail.iter().map(|w| w.count_ones()).sum::<u32>()) as usize
    }

    /// Returns `true` if `age` is in the set.
    pub fn contains(&self, age: &usize) -> bool {
        let word = if *age < 64 { Some(&self.head) } else { self.tail.get(age / 64 - 1) };
        word.is_some_and(|w| w >> (age % 64) & 1 == 1)
    }
}

impl Iterator for AgeSet {
    type Item = usize;

    /// Removes and returns the youngest age left.
    fn next(&mut self) -> Option<usize> {
        let (i, word) = std::iter::once(&mut self.head)
            .chain(&mut self.tail)
            .enumerate()
            .find(|(_, word)| **word != 0)?;
        let bit = word.trailing_zeros() as usize;
        *word &= *word - 1;
        Some(64 * i + bit)
    }
}

impl std::fmt::Debug for AgeSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.clone()).finish()
    }
}

/// The bank of membership filters for one super table's incarnations.
#[derive(Debug, Clone)]
pub enum FilterBank {
    /// Bit-sliced storage.
    BitSliced(BitSlicedBloomSet),
    /// Plain per-incarnation filters, newest at the front (index = age).
    Plain {
        /// The filters, newest first.
        filters: VecDeque<BloomFilter>,
        /// Bits per filter.
        bits_per_filter: usize,
        /// Hash functions per filter.
        num_hashes: u32,
        /// Maximum number of incarnations.
        capacity: usize,
    },
    /// Filters disabled; only the incarnation count is tracked.
    Disabled {
        /// Number of live incarnations.
        count: usize,
        /// Maximum number of incarnations.
        capacity: usize,
    },
}

impl FilterBank {
    /// Creates a filter bank for up to `capacity` incarnations with
    /// `bits_per_filter` bits and `num_hashes` hash functions each.
    pub fn new(mode: FilterMode, capacity: usize, bits_per_filter: usize, num_hashes: u32) -> Self {
        match mode {
            FilterMode::BitSliced => {
                FilterBank::BitSliced(BitSlicedBloomSet::new(capacity, bits_per_filter, num_hashes))
            }
            FilterMode::PerIncarnation => FilterBank::Plain {
                filters: VecDeque::with_capacity(capacity),
                bits_per_filter,
                num_hashes,
                capacity,
            },
            FilterMode::Disabled => FilterBank::Disabled { count: 0, capacity },
        }
    }

    /// Number of live incarnations tracked.
    pub fn len(&self) -> usize {
        match self {
            FilterBank::BitSliced(s) => s.len(),
            FilterBank::Plain { filters, .. } => filters.len(),
            FilterBank::Disabled { count, .. } => *count,
        }
    }

    /// Returns `true` if no incarnations are tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of incarnations.
    pub fn capacity(&self) -> usize {
        match self {
            FilterBank::BitSliced(s) => s.capacity(),
            FilterBank::Plain { capacity, .. } => *capacity,
            FilterBank::Disabled { capacity, .. } => *capacity,
        }
    }

    /// Registers a new youngest incarnation containing `keys`.
    ///
    /// The caller must have evicted first if the bank is at capacity.
    pub fn push_newest(&mut self, keys: impl IntoIterator<Item = Key>) {
        match self {
            FilterBank::BitSliced(s) => s.push_incarnation(keys),
            FilterBank::Plain { filters, bits_per_filter, num_hashes, capacity } => {
                assert!(filters.len() < *capacity, "push into a full FilterBank");
                let mut f = BloomFilter::new(*bits_per_filter, *num_hashes);
                for k in keys {
                    f.insert(k);
                }
                filters.push_front(f);
            }
            FilterBank::Disabled { count, capacity } => {
                assert!(*count < *capacity, "push into a full FilterBank");
                *count += 1;
            }
        }
    }

    /// Drops the oldest incarnation's filter.
    pub fn evict_oldest(&mut self) {
        match self {
            FilterBank::BitSliced(s) => s.evict_oldest(),
            FilterBank::Plain { filters, .. } => {
                filters.pop_back();
            }
            FilterBank::Disabled { count, .. } => {
                *count = count.saturating_sub(1);
            }
        }
    }

    /// Ages (0 = youngest) of the incarnations that may contain `key`.
    /// With filters disabled every age is returned.
    pub fn query(&self, key: Key) -> AgeSet {
        match self {
            FilterBank::BitSliced(s) => s.query(key),
            FilterBank::Plain { filters, .. } => AgeSet::from_words(filters.len(), |i| {
                let ages = filters.iter().skip(64 * i).take(64).enumerate();
                ages.fold(0, |word, (bit, f)| word | (f.contains(key) as u64) << bit)
            }),
            FilterBank::Disabled { count, .. } => AgeSet::from_words(*count, |_| u64::MAX),
        }
    }

    /// Approximate DRAM footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        match self {
            FilterBank::BitSliced(s) => s.memory_bytes(),
            FilterBank::Plain { filters, bits_per_filter, capacity, .. } => {
                // Account the full capacity (the DRAM is reserved even while
                // some slots are empty), matching the paper's budgeting.
                (*bits_per_filter / 8) * (*capacity).max(filters.len())
            }
            FilterBank::Disabled { .. } => 0,
        }
    }

    /// Number of 64-bit DRAM words touched by one membership query, used for
    /// in-memory latency accounting. Bit-slicing touches `h` rows, one word
    /// each up to 64 incarnations; plain filters touch `h` scattered words
    /// per live incarnation.
    pub fn words_per_query(&self) -> usize {
        match self {
            FilterBank::BitSliced(s) => s.words_per_query(),
            FilterBank::Plain { filters, num_hashes, .. } => filters.len() * *num_hashes as usize,
            FilterBank::Disabled { .. } => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::hash_with_seed;

    fn keys(tag: u64, n: u64) -> Vec<Key> {
        (0..n).map(|i| hash_with_seed(i, tag + 1)).collect()
    }

    fn check_semantics(mode: FilterMode) {
        let mut bank = FilterBank::new(mode, 4, 1 << 13, 5);
        for inc in 0..4u64 {
            bank.push_newest(keys(inc, 80));
        }
        assert_eq!(bank.len(), 4);
        // Keys of the youngest incarnation must be reported at age 0.
        for k in keys(3, 80) {
            assert!(bank.query(k).contains(&0));
        }
        // Keys of the oldest incarnation must be reported at age 3.
        for k in keys(0, 80) {
            assert!(bank.query(k).contains(&3));
        }
        bank.evict_oldest();
        assert_eq!(bank.len(), 3);
        // The old incarnation 1 is now the oldest (age 2).
        for k in keys(1, 80) {
            assert!(bank.query(k).contains(&2));
        }
    }

    #[test]
    fn bitsliced_semantics() {
        check_semantics(FilterMode::BitSliced);
    }

    #[test]
    fn per_incarnation_semantics() {
        check_semantics(FilterMode::PerIncarnation);
    }

    #[test]
    fn disabled_returns_every_incarnation() {
        let mut bank = FilterBank::new(FilterMode::Disabled, 8, 0, 0);
        bank.push_newest(keys(0, 10));
        bank.push_newest(keys(1, 10));
        bank.push_newest(keys(2, 10));
        assert_eq!(bank.query(123_456).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(bank.words_per_query(), 0);
        assert_eq!(bank.memory_bytes(), 0);
        bank.evict_oldest();
        assert_eq!(bank.query(123_456).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn bitsliced_and_plain_banks_name_the_same_candidates() {
        // Same two hash seeds, same bits per incarnation: the candidate
        // sets must be equal, not merely supersets, at every lane width,
        // fill level and window position.
        for (capacity, m) in [(1, 640), (3, 777), (16, 1 << 10), (33, 1000), (64, 512), (70, 900)] {
            let mut sliced = FilterBank::new(FilterMode::BitSliced, capacity, m, 5);
            let mut plain = FilterBank::new(FilterMode::PerIncarnation, capacity, m, 5);
            for step in 0..6 * capacity as u64 + 40 {
                // Evict a few (several at once, as a log wrap does), push
                // when there is room; the mix drifts between empty and full.
                let evictions = hash_with_seed(step, 0xe71c) % 4;
                for _ in 0..evictions.min(plain.len() as u64) {
                    sliced.evict_oldest();
                    plain.evict_oldest();
                }
                if plain.len() < capacity && !hash_with_seed(step, 0x9054).is_multiple_of(8) {
                    // Few enough keys that misses are common, enough that
                    // false positives (which must agree too) occur.
                    let batch = keys(step, 20 + hash_with_seed(step, 7) % 60);
                    sliced.push_newest(batch.iter().copied());
                    plain.push_newest(batch.iter().copied());
                }
                assert_eq!(sliced.len(), plain.len());
                for probe in 0..30u64 {
                    let key = match probe % 3 {
                        0 => keys(step.saturating_sub(probe / 3), 1)[0],
                        _ => hash_with_seed(probe, step),
                    };
                    let FilterBank::Plain { filters, .. } = &plain else { unreachable!() };
                    let per_age: Vec<usize> =
                        (0..plain.len()).filter(|&age| filters[age].contains(key)).collect();
                    let ages = sliced.query(key);
                    assert_eq!(ages, plain.query(key), "k {capacity} m {m} step {step}");
                    assert_eq!(ages.len(), per_age.len());
                    assert_eq!(ages.is_empty(), per_age.is_empty());
                    assert!(per_age.iter().all(|age| ages.contains(age)));
                    assert!(!ages.contains(&plain.len()), "an age outside the window");
                    // Youngest first, as the `Vec` the query used to build.
                    assert_eq!(ages.collect::<Vec<_>>(), per_age, "k {capacity} step {step}");
                }
            }
        }
    }

    #[test]
    fn disabled_bank_names_every_age_past_one_word() {
        let mut bank = FilterBank::new(FilterMode::Disabled, 130, 0, 0);
        for inc in 0..130 {
            bank.push_newest(keys(inc, 1));
        }
        assert_eq!(bank.query(7).collect::<Vec<_>>(), (0..130).collect::<Vec<_>>());
    }

    #[test]
    fn bitsliced_queries_touch_fewer_words_than_plain() {
        let mut sliced = FilterBank::new(FilterMode::BitSliced, 16, 1 << 13, 7);
        let mut plain = FilterBank::new(FilterMode::PerIncarnation, 16, 1 << 13, 7);
        for inc in 0..16u64 {
            sliced.push_newest(keys(inc, 50));
            plain.push_newest(keys(inc, 50));
        }
        assert!(
            sliced.words_per_query() < plain.words_per_query(),
            "bit-slicing should reduce memory traffic ({} vs {})",
            sliced.words_per_query(),
            plain.words_per_query()
        );
    }

    #[test]
    fn spurious_matches_are_rare_for_both_filter_modes() {
        for mode in [FilterMode::BitSliced, FilterMode::PerIncarnation] {
            let mut bank = FilterBank::new(mode, 8, 1 << 14, 6);
            for inc in 0..8u64 {
                bank.push_newest(keys(inc, 200));
            }
            let spurious: usize =
                (0..10_000u64).map(|i| bank.query(hash_with_seed(i, 0xbad)).len()).sum();
            assert!(spurious < 200, "mode {mode:?}: too many spurious matches: {spurious}");
        }
    }

    #[test]
    fn eviction_on_empty_bank_is_a_noop() {
        for mode in [FilterMode::BitSliced, FilterMode::PerIncarnation, FilterMode::Disabled] {
            let mut bank = FilterBank::new(mode, 4, 1024, 3);
            bank.evict_oldest();
            assert_eq!(bank.len(), 0);
        }
    }
}
