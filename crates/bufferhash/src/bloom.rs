//! Standard Bloom filters.
//!
//! Each incarnation of a super table has an in-DRAM Bloom filter summarising
//! the keys it holds (§5.1). At lookup time the filters identify the small
//! set of incarnations that may contain a key, avoiding flash reads of the
//! others. This module provides the plain (one-filter-per-incarnation)
//! implementation; the bit-sliced organisation of §5.1.3 lives in
//! [`crate::bitslice`].

use serde::{Deserialize, Serialize};

use crate::types::{hash_with_seed, Key};

/// A fixed-size Bloom filter over 64-bit keys.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: usize,
    num_hashes: u32,
    items: usize,
}

impl BloomFilter {
    /// Creates a filter with `num_bits` bits and `num_hashes` hash functions.
    ///
    /// `num_bits` is rounded up to at least one 64-bit word; `num_hashes` is
    /// clamped to `1..=16`.
    pub fn new(num_bits: usize, num_hashes: u32) -> Self {
        let num_bits = num_bits.max(64);
        let words = num_bits.div_ceil(64);
        BloomFilter {
            bits: vec![0u64; words],
            num_bits,
            num_hashes: num_hashes.clamp(1, 16),
            items: 0,
        }
    }

    /// Creates a filter sized for `expected_items` with the number of hash
    /// functions that minimises the false-positive rate for the given
    /// per-item bit budget (`h = (m/n)·ln2`, §6.2).
    pub fn with_budget(expected_items: usize, bits_per_item: f64) -> Self {
        let bits_per_item = bits_per_item.max(1.0);
        let num_bits = ((expected_items.max(1) as f64) * bits_per_item).ceil() as usize;
        let h = (bits_per_item * std::f64::consts::LN_2).round().max(1.0) as u32;
        BloomFilter::new(num_bits, h)
    }

    /// Number of bits in the filter.
    pub fn num_bits(&self) -> usize {
        self.num_bits
    }

    /// Number of hash functions.
    pub fn num_hashes(&self) -> u32 {
        self.num_hashes
    }

    /// Number of items inserted so far.
    pub fn items(&self) -> usize {
        self.items
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.bits.len() * 8
    }

    /// Bit positions probed for `key`.
    #[inline]
    fn positions(&self, key: Key) -> impl Iterator<Item = usize> + '_ {
        // Double hashing: position_i = h1 + i·h2 (Kirsch–Mitzenmacher).
        let h1 = hash_with_seed(key, 0x5bd1_e995);
        let h2 = hash_with_seed(key, 0x27d4_eb2f) | 1;
        let m = self.num_bits as u64;
        (0..self.num_hashes as u64).map(move |i| (h1.wrapping_add(i.wrapping_mul(h2)) % m) as usize)
    }

    /// Inserts `key` into the filter.
    pub fn insert(&mut self, key: Key) {
        let positions: Vec<usize> = self.positions(key).collect();
        for pos in positions {
            self.bits[pos / 64] |= 1 << (pos % 64);
        }
        self.items += 1;
    }

    /// Returns `true` if `key` *may* have been inserted (false positives are
    /// possible, false negatives are not).
    pub fn contains(&self, key: Key) -> bool {
        self.positions(key).all(|pos| self.bits[pos / 64] >> (pos % 64) & 1 == 1)
    }

    /// Clears the filter.
    pub fn clear(&mut self) {
        self.bits.fill(0);
        self.items = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::new(4096, 5);
        for k in 0..500u64 {
            f.insert(k * 7919);
        }
        for k in 0..500u64 {
            assert!(f.contains(k * 7919), "false negative for {k}");
        }
    }

    #[test]
    fn false_positive_rate_is_near_theory() {
        let n = 4096;
        let mut f = BloomFilter::with_budget(n, 16.0);
        for k in 0..n as u64 {
            f.insert(hash_with_seed(k, 99));
        }
        let trials = 100_000;
        let fp = (0..trials).filter(|&i| f.contains(hash_with_seed(i as u64, 12_345))).count();
        let measured = fp as f64 / trials as f64;
        // The theoretical rate at this fill: `(1 - e^(-k·n/m))^k`.
        let (k, m) = (f.num_hashes() as f64, f.num_bits() as f64);
        let expected = (1.0 - (-k * n as f64 / m).exp()).powf(k);
        // 16 bits/item with optimal h gives ~0.0005; allow generous slack.
        assert!(measured < expected * 4.0 + 0.002, "measured {measured}, expected {expected}");
    }

    #[test]
    fn with_budget_picks_reasonable_hash_count() {
        let f = BloomFilter::with_budget(1000, 10.0);
        // h = 10·ln2 ≈ 6.9 -> 7.
        assert_eq!(f.num_hashes(), 7);
        assert!(f.num_bits() >= 10_000);
    }

    #[test]
    fn clear_resets_state() {
        let mut f = BloomFilter::new(1024, 3);
        f.insert(42);
        assert!(f.contains(42));
        f.clear();
        assert!(!f.contains(42));
        assert_eq!(f.items(), 0);
        assert!(f.bits.iter().all(|&w| w == 0));
    }

    #[test]
    fn tiny_filter_is_clamped_to_a_word() {
        let f = BloomFilter::new(1, 0);
        assert_eq!(f.num_bits(), 64);
        assert_eq!(f.num_hashes(), 1);
    }

    #[test]
    fn fill_ratio_grows_with_inserts() {
        let mut f = BloomFilter::new(1024, 4);
        let set = |f: &BloomFilter| f.bits.iter().map(|w| w.count_ones()).sum::<u32>();
        assert_eq!(set(&f), 0);
        for k in 0..100 {
            f.insert(k);
        }
        assert!(set(&f) > 0);
        assert!((set(&f) as usize) < f.num_bits());
    }

    #[test]
    fn memory_accounting() {
        let f = BloomFilter::new(1 << 20, 4);
        assert_eq!(f.memory_bytes(), (1 << 20) / 8);
    }
}
