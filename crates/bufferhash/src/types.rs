//! Core key/value and hashing types.
//!
//! The systems the paper targets store *fingerprints* — 32–64 bit hashes of
//! content chunks — mapped to small fixed-size values such as on-disk
//! addresses. BufferHash therefore works on fixed 16-byte entries: an 8-byte
//! key and an 8-byte value, exactly the entry size used in the paper's
//! evaluation (§7.1.1).

use serde::{Deserialize, Serialize};

/// A hash key (content fingerprint).
pub type Key = u64;

/// The value associated with a key (e.g. the on-disk address of a chunk).
pub type Value = u64;

/// Size of a serialized hash entry in bytes (8-byte key + 8-byte value).
pub const ENTRY_SIZE: usize = 16;

/// One (key, value) entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Entry {
    /// The key.
    pub key: Key,
    /// The value.
    pub value: Value,
}

impl Entry {
    /// Creates an entry.
    pub const fn new(key: Key, value: Value) -> Self {
        Entry { key, value }
    }

    /// Serializes the entry into 16 little-endian bytes.
    pub fn to_bytes(self) -> [u8; ENTRY_SIZE] {
        let mut out = [0u8; ENTRY_SIZE];
        out[..8].copy_from_slice(&self.key.to_le_bytes());
        out[8..].copy_from_slice(&self.value.to_le_bytes());
        out
    }

    /// Deserializes an entry from 16 little-endian bytes.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < ENTRY_SIZE {
            return None;
        }
        let key = u64::from_le_bytes(bytes[..8].try_into().ok()?);
        let value = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
        Some(Entry { key, value })
    }
}

/// 64-bit mixing function (a finalizer from MurmurHash3 / SplitMix64).
///
/// Used to derive independent hash functions from a key and a seed without
/// external dependencies. The output is uniformly distributed even for
/// structured inputs such as sequential integers.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// Hashes `key` with a `seed`, producing a full 64-bit digest.
#[inline]
pub fn hash_with_seed(key: Key, seed: u64) -> u64 {
    mix64(key ^ mix64(seed.wrapping_add(0x9e37_79b9_7f4a_7c15)))
}

/// `x % n` for a fixed `n`, without a hardware division: a mask when `n`
/// is a power of two, otherwise a multiply-high by a precomputed
/// reciprocal (Granlund and Montgomery's round-up method, exact for every
/// 64-bit `x`). Built once beside each fixed count: the Bloom filter
/// width (the 64-bit `div` was 23 of 49 µs per flush there), and a key's
/// stripe, super table, buffer slots and incarnation page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Modulus {
    n: u64,
    /// `floor(2^64 * (2^l - n) / n) + 1` with `l = ceil(log2 n)`; unused
    /// (zero) when `n` is a power of two.
    magic: u64,
    /// `l - 1`.
    shift: u32,
}

impl Modulus {
    /// Prepares reduction modulo `n` (at least 1).
    pub(crate) fn new(n: usize) -> Self {
        let n = n.max(1) as u64;
        if n.is_power_of_two() {
            return Modulus { n, magic: 0, shift: 0 };
        }
        let l = 64 - (n - 1).leading_zeros();
        let magic = (((1u128 << l) - n as u128) << 64) / n as u128 + 1;
        Modulus { n, magic: magic as u64, shift: l - 1 }
    }

    /// The modulus itself.
    pub(crate) fn get(&self) -> usize {
        self.n as usize
    }

    /// `x % n`.
    #[inline]
    pub(crate) fn reduce(&self, x: u64) -> usize {
        if self.magic == 0 {
            return (x & (self.n - 1)) as usize;
        }
        let high = ((self.magic as u128 * x as u128) >> 64) as u64;
        let quotient = (high + ((x - high) >> 1)) >> self.shift;
        (x - quotient * self.n) as usize
    }
}

/// Stable counting sort of `items` into `groups` runs by `group_of`:
/// returns the items with each group's members contiguous and in input
/// order, and `groups + 1` boundaries (`out[starts[g]..starts[g + 1]]` is
/// group `g`). `group_of` runs once per item, and there are three
/// allocations whatever the group count, where a `Vec` per group costs one
/// per group and a regrowth chain each.
pub(crate) fn group_stable<T: Copy>(
    items: &[T],
    groups: usize,
    group_of: impl Fn(&T) -> usize,
) -> (Vec<T>, Vec<usize>) {
    let Some(&filler) = items.first() else {
        return (Vec::new(), vec![0; groups + 1]);
    };
    // After the prefix sum `next[g + 1]` is where group `g`'s run starts;
    // placing the members walks it to where group `g + 1`'s starts, which
    // leaves `next[..=groups]` holding the boundaries.
    let ids: Vec<usize> = items.iter().map(group_of).collect();
    let mut next = vec![0usize; groups + 2];
    for &id in &ids {
        next[id + 2] += 1;
    }
    for g in 2..groups + 2 {
        next[g] += next[g - 1];
    }
    let mut out = vec![filler; items.len()];
    for (item, &id) in items.iter().zip(&ids) {
        let slot = &mut next[id + 1];
        out[*slot] = *item;
        *slot += 1;
    }
    next.pop();
    (out, next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn entry_round_trips_through_bytes() {
        let e = Entry::new(0xdead_beef_cafe_babe, 42);
        let bytes = e.to_bytes();
        assert_eq!(Entry::from_bytes(&bytes), Some(e));
    }

    #[test]
    fn entry_from_short_slice_is_none() {
        assert_eq!(Entry::from_bytes(&[0u8; 15]), None);
    }

    #[test]
    fn entry_size_matches_serialization() {
        assert_eq!(Entry::new(1, 2).to_bytes().len(), ENTRY_SIZE);
    }

    #[test]
    fn mix64_spreads_sequential_inputs() {
        // Sequential keys must produce well-spread hashes. Drawing 256
        // uniform bytes yields about 256·(1 − 1/e) ≈ 162 distinct values;
        // anything close to that indicates good mixing.
        let lows: HashSet<u8> = (0..256u64).map(|i| (mix64(i) & 0xff) as u8).collect();
        assert!(lows.len() > 140, "mix64 low byte not well distributed: {}", lows.len());
    }

    #[test]
    fn mix64_is_deterministic_and_nontrivial() {
        assert_eq!(mix64(12345), mix64(12345));
        assert_ne!(mix64(12345), 12345);
        assert_ne!(mix64(1), mix64(2));
    }

    #[test]
    fn modulus_agrees_with_the_remainder_operator() {
        let interesting =
            [0, 1, 2, 3, 63, 64, 65, u32::MAX as u64, 1 << 32, u64::MAX - 1, u64::MAX];
        let moduli = (1..=130usize)
            .chain([255, 256, 257, 1000, 16_384, 16_385, 1_000_003, (1 << 31) - 1, 1 << 31])
            .chain([(1usize << 40) + 7, usize::MAX / 3, usize::MAX - 1, usize::MAX]);
        for n in moduli {
            let m = Modulus::new(n);
            assert_eq!(m.get(), n);
            let around =
                [n as u64 - 1, n as u64, (n as u64).wrapping_add(1), (n as u64).wrapping_mul(7)];
            let random = (0..200u64).map(|i| hash_with_seed(i, n as u64));
            for x in interesting.into_iter().chain(around).chain(random) {
                assert_eq!(m.reduce(x), (x % n as u64) as usize, "{x} % {n}");
            }
        }
        assert_eq!(Modulus::new(0).get(), 1, "a zero modulus is clamped, never divides");
    }

    #[test]
    fn group_stable_keeps_input_order_within_each_group() {
        let items: Vec<(u64, u64)> = (0..500u64).map(|i| (hash_with_seed(i, 3) % 7, i)).collect();
        let (grouped, starts) = group_stable(&items, 9, |item| item.0 as usize);
        assert_eq!(starts.len(), 10);
        assert_eq!((starts[0], starts[9]), (0, items.len()));
        for g in 0..9 {
            let run = &grouped[starts[g]..starts[g + 1]];
            let expected: Vec<(u64, u64)> =
                items.iter().copied().filter(|item| item.0 == g as u64).collect();
            assert_eq!(run, expected, "group {g}");
        }
        // Groups 7 and 8 exist but are empty; so is everything of an
        // empty input.
        assert_eq!(starts[7], starts[9]);
        assert_eq!(group_stable(&[] as &[u64], 3, |_| 0), (Vec::new(), vec![0; 4]));
    }

    #[test]
    fn seeded_hashes_differ_across_seeds() {
        let k = 0x1234_5678_9abc_def0;
        let h: HashSet<u64> = (0..16).map(|s| hash_with_seed(k, s)).collect();
        assert_eq!(h.len(), 16);
    }
}
