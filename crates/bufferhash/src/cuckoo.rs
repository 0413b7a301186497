//! In-memory buffer hash table using two-choice cuckoo hashing.
//!
//! Newly inserted entries accumulate in a per-super-table buffer before being
//! flushed to flash as an incarnation (§5.1). The paper's prototype uses
//! cuckoo hashing with two hash functions, which keeps space utilisation
//! high without chaining; we follow that choice.
//!
//! Draining the buffer for a flush does not touch the slot array, so every
//! generation written to flash stays in DRAM, entry for entry, until new
//! inserts land on its slots. Each slot carries a one-byte stamp naming the
//! generation its entry belongs to, and [`CuckooBuffer::get_stamped`] reads
//! a key's entry of a named generation back: a victim cache over every
//! drained generation at once, for one byte per slot and no knob (DESIGN.md
//! "The retired generations").

use serde::{Deserialize, Serialize};

use crate::types::{hash_with_seed, Entry, Key, Modulus, Value};

/// Maximum displacement chain length before an insert is declared failed.
/// Failures at 50% utilisation are vanishingly rare; the super table reacts
/// by flushing the buffer early.
const MAX_KICKS: usize = 128;

/// Outcome of a buffer insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferInsert {
    /// The entry was stored (possibly overwriting an older value for the
    /// same key, in which case the previous value is returned).
    Stored(Option<Value>),
    /// The buffer is at capacity (or a cuckoo cycle was hit); the caller must
    /// flush before retrying.
    Full,
}

/// A fixed-capacity cuckoo hash table of [`Entry`] values.
///
/// A small stash absorbs the (rare) displacement cycles so that no entry is
/// ever silently dropped; the admission limit (`capacity()`) is what forces
/// the super table to flush.
///
/// A slot is a bare 16-byte [`Entry`], the size the buffer budget is quoted
/// in; which slots hold one is kept in a bitmap beside them, so emptying
/// the buffer clears the bitmap and leaves the slot array alone.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CuckooBuffer {
    /// Slot `i` holds a live entry while bit `i` of `occupied` is set.
    /// Otherwise it holds an entry of the drained generation `stamps[i]`
    /// names, or stale content if that stamp is 0.
    slots: Vec<Entry>,
    /// Reduces a hash to a slot index (`slots.len()`, division-free).
    modulus: Modulus,
    /// One bit per slot, 64 slots to a word.
    occupied: Vec<u64>,
    /// One byte per slot: the generation of the entry last written there,
    /// or 0 once it was removed or unstamped. A live slot always carries
    /// `generation`, and no other slot does.
    stamps: Vec<u8>,
    /// The generation live entries belong to, 1 to 255: the one the next
    /// [`drain`](Self::drain) retires.
    generation: u8,
    /// Overflow stash for entries left homeless by a displacement cycle.
    stash: Vec<Entry>,
    /// Maximum number of entries admitted (capacity × max utilisation).
    max_entries: usize,
    len: usize,
}

impl CuckooBuffer {
    /// Creates a buffer with `num_slots` slots, admitting entries up to
    /// `max_utilization` (e.g. 0.5 per the paper's configuration).
    pub fn new(num_slots: usize, max_utilization: f64) -> Self {
        let num_slots = num_slots.max(2);
        let max_utilization = max_utilization.clamp(0.05, 1.0);
        let max_entries = ((num_slots as f64 * max_utilization).floor() as usize).max(1);
        CuckooBuffer {
            slots: vec![Entry::new(0, 0); num_slots],
            modulus: Modulus::new(num_slots),
            occupied: vec![0; num_slots.div_ceil(64)],
            stamps: vec![0; num_slots],
            generation: 1,
            stash: Vec::new(),
            max_entries,
            len: 0,
        }
    }

    /// Creates a buffer sized for a byte budget: `buffer_bytes / entry_size`
    /// slots (the paper sizes buffers in bytes, e.g. 128 KiB).
    pub fn with_byte_budget(buffer_bytes: usize, entry_size: usize, max_utilization: f64) -> Self {
        Self::new(buffer_bytes / entry_size.max(1), max_utilization)
    }

    /// Number of slots.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the buffer holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of entries admitted before the buffer reports full.
    pub fn capacity(&self) -> usize {
        self.max_entries
    }

    /// Returns `true` once the buffer has reached its admission capacity.
    pub fn is_full(&self) -> bool {
        self.len >= self.max_entries
    }

    /// Bytes of the slot array and its generation stamps: with 16-byte
    /// entries, the byte budget the buffer was sized from plus one byte per
    /// slot (1/16 of it). The occupancy bitmap is one bit per slot on top
    /// (1/128), and the stash is empty unless a displacement cycle was hit.
    pub fn memory_bytes(&self) -> usize {
        self.slots.len() * (std::mem::size_of::<Entry>() + 1)
    }

    #[inline]
    fn index(&self, key: Key, which: u64) -> usize {
        self.modulus.reduce(hash_with_seed(key, 0xc0ff_ee00 + which))
    }

    /// The entry in slot `idx`, if the slot is occupied.
    #[inline]
    fn slot(&self, idx: usize) -> Option<Entry> {
        (self.occupied[idx / 64] >> (idx % 64) & 1 == 1).then(|| self.slots[idx])
    }

    /// The only write into an unoccupied slot, so the only place a drained
    /// entry can be overwritten. Displacement moves write occupied slots,
    /// which already carry the live generation's stamp.
    #[inline]
    fn fill_slot(&mut self, idx: usize, entry: Entry) {
        self.slots[idx] = entry;
        self.occupied[idx / 64] |= 1 << (idx % 64);
        self.stamps[idx] = self.generation;
    }

    /// Empties a live slot: a removed entry was never drained, so it must
    /// never answer as one.
    #[inline]
    fn empty_slot(&mut self, idx: usize) {
        self.occupied[idx / 64] &= !(1 << (idx % 64));
        self.stamps[idx] = 0;
    }

    /// Looks up `key`, returning its value if present.
    pub fn get(&self, key: Key) -> Option<Value> {
        let slotted = self.homes(key).into_iter().filter_map(|idx| self.slot(idx));
        slotted.chain(self.stash.iter().copied()).find(|e| e.key == key).map(|e| e.value)
    }

    /// Looks up `key` in drained generation `generation`: the value it
    /// had when a [`drain`](Self::drain) returned it, if the slot it was
    /// drained from has not been written since. Never sees a live entry,
    /// a removed one or a stashed one, and nothing for generation 0. The
    /// caller decides which generations may answer.
    pub fn get_stamped(&self, key: Key, generation: u8) -> Option<Value> {
        if generation == 0 || generation == self.generation {
            return None;
        }
        let mut homes = self.homes(key).into_iter();
        let idx = homes.find(|&idx| self.stamps[idx] == generation && self.slots[idx].key == key);
        idx.map(|idx| self.slots[idx].value)
    }

    /// The two slots `key` may occupy.
    #[inline]
    fn homes(&self, key: Key) -> [usize; 2] {
        [self.index(key, 0), self.index(key, 1)]
    }

    /// The generation live entries are stamped with, which the next
    /// [`drain`](Self::drain) retires.
    pub fn generation(&self) -> u8 {
        self.generation
    }

    /// Clears the stamps naming drained generation `generation`: none of
    /// its entries answers any more.
    pub fn unstamp(&mut self, generation: u8) {
        for stamp in &mut self.stamps {
            *stamp = if *stamp == generation { 0 } else { *stamp };
        }
    }

    /// Clears the stamps of every drained generation; live entries keep
    /// theirs.
    pub fn unstamp_drained(&mut self) {
        let live = self.generation;
        for stamp in &mut self.stamps {
            *stamp = if *stamp == live { live } else { 0 };
        }
    }

    /// The drained entries still in their slots, with the generation each
    /// is stamped with, in slot order.
    pub fn iter_stamped(&self) -> impl Iterator<Item = (u8, Entry)> + '_ {
        let live = self.generation;
        let stamped = self.stamps.iter().zip(&self.slots);
        stamped.filter(move |(&g, _)| g != 0 && g != live).map(|(&g, &e)| (g, e))
    }

    /// Inserts or updates `key` with `value`.
    ///
    /// Returns [`BufferInsert::Full`] when the admission limit is reached or
    /// a displacement cycle is detected; the caller should flush and retry.
    pub fn insert(&mut self, key: Key, value: Value) -> BufferInsert {
        // Update in place if the key is already present (§5.1.1: updates hit
        // the buffer directly while the entry is still in memory).
        let homes = self.homes(key);
        for idx in homes {
            if let Some(e) = self.slot(idx).filter(|e| e.key == key) {
                self.slots[idx].value = value;
                return BufferInsert::Stored(Some(e.value));
            }
        }
        if let Some(e) = self.stash.iter_mut().find(|e| e.key == key) {
            let prev = e.value;
            e.value = value;
            return BufferInsert::Stored(Some(prev));
        }
        if self.is_full() {
            return BufferInsert::Full;
        }
        // Standard cuckoo displacement, starting at the first home.
        let mut current = Entry::new(key, value);
        let mut idx = homes[0];
        for _ in 0..MAX_KICKS {
            match self.slot(idx) {
                None => {
                    self.fill_slot(idx, current);
                    self.len += 1;
                    return BufferInsert::Stored(None);
                }
                Some(existing) => {
                    self.slots[idx] = current;
                    current = existing;
                    // The displaced entry moves to its alternate location.
                    let first = self.index(current.key, 0);
                    idx = if first == idx { self.index(current.key, 1) } else { first };
                }
            }
        }
        // Displacement cycle: every previously stored entry is still in the
        // table, only `current` (which may be an old, displaced entry) is
        // homeless. Park it in the stash so nothing is lost.
        self.stash.push(current);
        self.len += 1;
        BufferInsert::Stored(None)
    }

    /// Removes `key` from the buffer, returning its value if it was present.
    pub fn remove(&mut self, key: Key) -> Option<Value> {
        for which in 0..2 {
            let idx = self.index(key, which);
            if let Some(e) = self.slot(idx) {
                if e.key == key {
                    self.empty_slot(idx);
                    self.len -= 1;
                    return Some(e.value);
                }
            }
        }
        if let Some(pos) = self.stash.iter().position(|e| e.key == key) {
            let e = self.stash.swap_remove(pos);
            self.len -= 1;
            return Some(e.value);
        }
        None
    }

    /// Iterates over all entries: occupied slots in slot order, then the
    /// stash.
    pub fn iter(&self) -> impl Iterator<Item = Entry> + '_ {
        (0..self.slots.len()).filter_map(|idx| self.slot(idx)).chain(self.stash.iter().copied())
    }

    /// Drains all entries, leaving the buffer empty. The slotted ones stay
    /// where they are, stamped with the generation they were drained as
    /// (the [`generation`](Self::generation) before the call). Live entries
    /// then take the next generation, cycling through 1 to 255, whose
    /// stamps from 255 drains ago are cleared first.
    pub fn drain(&mut self) -> Vec<Entry> {
        // `iter`'s order, a set bit at a time.
        let mut out = Vec::with_capacity(self.len);
        for (word, mut bits) in self.occupied.iter().copied().enumerate() {
            while bits != 0 {
                out.push(self.slots[word * 64 + bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
        }
        out.extend_from_slice(&self.stash);
        self.occupied.fill(0);
        self.generation = self.generation % 255 + 1;
        self.unstamp(self.generation);
        self.stash.clear();
        self.len = 0;
        out
    }

    /// Removes all entries and forgets every drained generation.
    pub fn clear(&mut self) {
        self.occupied.fill(0);
        self.stamps.fill(0);
        self.stash.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut b = CuckooBuffer::new(1024, 0.5);
        assert_eq!(b.insert(42, 100), BufferInsert::Stored(None));
        assert_eq!(b.get(42), Some(100));
        assert_eq!(b.remove(42), Some(100));
        assert_eq!(b.get(42), None);
        assert!(b.is_empty());
    }

    #[test]
    fn update_in_place_returns_previous_value() {
        let mut b = CuckooBuffer::new(64, 0.5);
        b.insert(7, 1);
        assert_eq!(b.insert(7, 2), BufferInsert::Stored(Some(1)));
        assert_eq!(b.get(7), Some(2));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn fills_to_half_utilization_without_failures() {
        let mut b = CuckooBuffer::new(8192, 0.5);
        let mut stored = 0;
        for i in 0..b.capacity() as u64 {
            match b.insert(hash_with_seed(i, 3), i) {
                BufferInsert::Stored(_) => stored += 1,
                BufferInsert::Full => break,
            }
        }
        assert_eq!(stored, b.capacity(), "cuckoo table should fill to 50% without cycles");
        assert!(b.is_full());
        assert_eq!(b.insert(u64::MAX, 0), BufferInsert::Full);
    }

    #[test]
    fn matches_a_reference_hashmap() {
        let mut b = CuckooBuffer::new(4096, 0.5);
        let mut model: HashMap<Key, Value> = HashMap::new();
        for i in 0..1500u64 {
            let k = hash_with_seed(i % 700, 9);
            let v = i;
            if let BufferInsert::Stored(_) = b.insert(k, v) {
                model.insert(k, v);
            }
            if i % 3 == 0 {
                let rk = hash_with_seed((i / 2) % 700, 9);
                assert_eq!(b.remove(rk), model.remove(&rk));
            }
        }
        for (k, v) in &model {
            assert_eq!(b.get(*k), Some(*v));
        }
        assert_eq!(b.len(), model.len());
    }

    #[test]
    fn drain_returns_everything_and_empties() {
        let mut b = CuckooBuffer::new(256, 0.5);
        for i in 0..100u64 {
            b.insert(hash_with_seed(i, 1), i);
        }
        let drained = b.drain();
        assert_eq!(drained.len(), 100);
        assert!(b.is_empty());
        assert_eq!(b.get(hash_with_seed(5, 1)), None);
    }

    #[test]
    fn byte_budget_constructor_matches_paper_configuration() {
        // 128 KiB buffer, 16-byte entries, 50% utilisation -> 4096 entries.
        let b = CuckooBuffer::with_byte_budget(128 * 1024, 16, 0.5);
        assert_eq!(b.num_slots(), 8192);
        assert_eq!(b.capacity(), 4096);
    }

    #[test]
    fn slot_array_is_exactly_the_byte_budget() {
        assert_eq!(std::mem::size_of::<Entry>(), 16);
        let b = CuckooBuffer::with_byte_budget(128 * 1024, 16, 0.5);
        assert_eq!(b.slots.len() * std::mem::size_of::<Entry>(), 128 * 1024);
        // The generation stamps, a byte a slot, are counted on top.
        assert_eq!(b.memory_bytes(), 128 * 1024 + b.num_slots());
    }

    #[test]
    fn cleared_entries_stay_gone_and_order_is_slots_then_stash() {
        let mut b = CuckooBuffer::new(256, 0.5);
        for i in 0..100u64 {
            b.insert(hash_with_seed(i, 1), i);
        }
        // Entries come out in slot order, which `get` can re-derive.
        let order: Vec<usize> = b
            .iter()
            .map(|e| (0..2).map(|w| b.index(e.key, w)).find(|&i| b.slot(i) == Some(e)).unwrap())
            .collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]), "{order:?}");
        b.clear();
        assert!(b.is_empty() && b.iter().next().is_none());
        for i in 0..100u64 {
            assert_eq!(b.get(hash_with_seed(i, 1)), None, "stale slot {i} resurfaced");
        }
        // Slots whose stale content is still in memory take new entries.
        for i in 100..200u64 {
            assert_eq!(b.insert(hash_with_seed(i, 1), i), BufferInsert::Stored(None));
        }
        assert_eq!(b.drain().len(), 100);
    }

    /// `n` distinct entries tagged `tag`.
    fn generation(tag: u64, n: u64) -> Vec<Entry> {
        (0..n).map(|i| Entry::new(hash_with_seed(i, tag), tag * 1_000 + i)).collect()
    }

    /// Fills `b` with `entries` and drains it; returns the generation the
    /// entries were drained as.
    fn flush(b: &mut CuckooBuffer, entries: &[Entry]) -> u8 {
        for e in entries {
            assert_eq!(b.insert(e.key, e.value), BufferInsert::Stored(None));
        }
        let drained = b.generation();
        assert_eq!(b.drain().len(), entries.len());
        drained
    }

    /// The slot holding `key` live or stamped with `generation`.
    fn slot_of(b: &CuckooBuffer, key: Key, generation: u8) -> Option<usize> {
        (0..2).map(|w| b.index(key, w)).find(|&i| {
            let held = b.slot(i).is_some() || b.stamps[i] == generation;
            held && b.slots[i].key == key
        })
    }

    #[test]
    fn a_drained_generation_reads_back_until_its_slots_are_reused() {
        let mut b = CuckooBuffer::new(512, 0.5);
        let old = generation(1, 256);
        let g = b.generation();
        for e in &old {
            b.insert(e.key, e.value);
        }
        assert!(old.iter().all(|e| b.get_stamped(e.key, g).is_none()), "live entries never");
        b.drain();
        assert_ne!(b.generation(), g, "live entries take the next generation");
        for e in &old {
            assert_eq!((b.get(e.key), b.get_stamped(e.key, g)), (None, Some(e.value)));
        }
        assert_eq!(b.iter_stamped().count(), old.len());
        assert!(b.is_empty() && b.iter().next().is_none());
        let homes: Vec<usize> = old.iter().map(|e| slot_of(&b, e.key, g).unwrap()).collect();

        // The next generation takes slots one at a time, directly and at
        // the end of displacement chains: an old entry answers exactly
        // until something is written where it sits, and never wrongly.
        let (mut reused_directly, mut reused_by_displacement) = (0, 0);
        for new in generation(2, 256) {
            let was_stamped: Vec<bool> = homes.iter().map(|&i| b.stamps[i] == g).collect();
            b.insert(new.key, new.value);
            assert_eq!(b.get_stamped(new.key, g), None);
            for ((e, &home), was) in old.iter().zip(&homes).zip(was_stamped) {
                match b.slot(home) {
                    None => assert_eq!(b.get_stamped(e.key, g), Some(e.value), "untouched {e:?}"),
                    Some(now) => {
                        assert_eq!(b.get_stamped(e.key, g), None, "{e:?} under {now:?}");
                        if was {
                            let direct = now.key == new.key;
                            reused_directly += usize::from(direct);
                            reused_by_displacement += usize::from(!direct);
                        }
                    }
                }
            }
        }
        assert!(reused_directly > 20 && reused_by_displacement > 5, "both kinds of write ran");
        let survivors = b.iter_stamped().count();
        assert!((40..200).contains(&survivors), "{survivors} of 256 survive a full refill");
    }

    #[test]
    fn a_generation_answers_after_two_further_drains_until_its_slots_are_rewritten() {
        let mut b = CuckooBuffer::new(512, 0.5);
        let gens = [generation(1, 256), generation(2, 32), generation(3, 32)];
        let ids: Vec<u8> = gens.iter().map(|entries| flush(&mut b, entries)).collect();
        assert!(ids[0] != ids[1] && ids[1] != ids[2] && ids[0] != ids[2], "{ids:?}");
        // Every entry answers for its own generation exactly while its
        // slot holds it, and for no other.
        let mut oldest_answering = 0;
        for (entries, &id) in gens.iter().zip(&ids) {
            for e in entries {
                let intact = slot_of(&b, e.key, id).is_some();
                assert_eq!(b.get_stamped(e.key, id), intact.then_some(e.value), "{e:?}");
                for &other in ids.iter().filter(|&&other| other != id) {
                    assert_eq!(b.get_stamped(e.key, other), None, "{e:?} under {other}");
                }
                oldest_answering += usize::from(intact && id == ids[0]);
            }
        }
        assert!(oldest_answering > 180, "{oldest_answering} of 256 two drains old answer");
        assert_eq!(b.iter_stamped().filter(|&(g, _)| g == ids[2]).count(), 32);
    }

    #[test]
    fn a_removed_live_entry_never_answers_after_the_flush() {
        let mut b = CuckooBuffer::new(512, 0.5);
        let entries = generation(1, 200);
        for e in &entries {
            b.insert(e.key, e.value);
        }
        for e in &entries[..100] {
            assert_eq!(b.remove(e.key), Some(e.value));
        }
        let g = b.generation();
        assert_eq!(b.drain().len(), 100);
        // The removed entries' bytes are still in their slots.
        assert!(entries[..100].iter().all(|e| b.get_stamped(e.key, g).is_none()));
        assert!(entries[100..].iter().all(|e| b.get_stamped(e.key, g) == Some(e.value)));
    }

    #[test]
    fn forgetting_and_clearing_end_the_retired_generation() {
        let mut b = CuckooBuffer::new(512, 0.5);
        let (first, second) = (generation(1, 200), generation(2, 50));
        let (g1, g2) = (flush(&mut b, &first), flush(&mut b, &second));
        b.unstamp(g1);
        assert!(first.iter().all(|e| b.get_stamped(e.key, g1).is_none()));
        assert!(second.iter().all(|e| b.get_stamped(e.key, g2) == Some(e.value)));
        // Dropping every drained generation leaves the live one alone.
        let live = generation(3, 20);
        for e in &live {
            b.insert(e.key, e.value);
        }
        b.unstamp_drained();
        assert_eq!(b.iter_stamped().count(), 0);
        assert!(live.iter().all(|e| b.get(e.key) == Some(e.value)));
        let g3 = b.generation();
        assert_eq!(b.drain().len(), live.len());
        assert!(live.iter().all(|e| b.get_stamped(e.key, g3) == Some(e.value)));
        // And a cleared buffer keeps nothing at all.
        b.clear();
        assert!(live.iter().all(|e| b.get_stamped(e.key, g3).is_none()));
    }

    #[test]
    fn a_generation_id_comes_back_only_after_its_stamps_are_cleared() {
        let mut b = CuckooBuffer::new(512, 0.5);
        let first = generation(1, 100);
        let g = flush(&mut b, &first);
        // 253 empty drains hand out every other id; the next hands out
        // `g` again, and nothing of the first generation may answer as
        // the new one.
        for _ in 0..253 {
            assert_ne!(flush(&mut b, &[]), g);
        }
        assert!(first.iter().all(|e| b.get_stamped(e.key, g) == Some(e.value)));
        b.drain();
        assert_eq!(b.generation(), g);
        assert_eq!(b.iter_stamped().count(), 0);
        // Drained as `g` once more, the slots hold only the new entries.
        let second = generation(2, 10);
        assert_eq!(flush(&mut b, &second), g);
        assert!(first.iter().all(|e| b.get_stamped(e.key, g).is_none()));
        assert!(second.iter().all(|e| b.get_stamped(e.key, g) == Some(e.value)));
        assert_eq!(b.iter_stamped().count(), second.len());
    }

    #[test]
    fn the_stash_is_drained_but_not_retired() {
        // Two slots, and two keys whose four home slots are all slot 0:
        // the second insert kicks the first round in a circle and into
        // the stash.
        let mut b = CuckooBuffer::new(2, 1.0);
        let keys: Vec<Key> =
            (0..).filter(|&k| b.index(k, 0) == 0 && b.index(k, 1) == 0).take(2).collect();
        for &k in &keys {
            assert_eq!(b.insert(k, k + 7), BufferInsert::Stored(None));
        }
        assert_eq!((b.len(), b.stash.len()), (2, 1));
        let stashed = b.stash[0].key;
        let slotted = keys[usize::from(keys[0] == stashed)];
        let g = b.generation();
        assert_eq!(b.drain().len(), 2);
        assert_eq!(b.get_stamped(slotted, g), Some(slotted + 7));
        assert_eq!(b.get_stamped(stashed, g), None, "a stashed entry has no slot to be read from");
    }

    /// `insert` as it was before it hashed a key's two homes once per
    /// call: the reference its slot placement must match.
    fn insert_two_pass(b: &mut CuckooBuffer, key: Key, value: Value) -> BufferInsert {
        for which in 0..2 {
            let idx = b.index(key, which);
            if let Some(e) = b.slot(idx) {
                if e.key == key {
                    b.slots[idx].value = value;
                    return BufferInsert::Stored(Some(e.value));
                }
            }
        }
        if let Some(e) = b.stash.iter_mut().find(|e| e.key == key) {
            let prev = e.value;
            e.value = value;
            return BufferInsert::Stored(Some(prev));
        }
        if b.is_full() {
            return BufferInsert::Full;
        }
        let mut current = Entry::new(key, value);
        let mut which = 0u64;
        for _ in 0..MAX_KICKS {
            let idx = b.index(current.key, which);
            match b.slot(idx) {
                None => {
                    b.fill_slot(idx, current);
                    b.len += 1;
                    return BufferInsert::Stored(None);
                }
                Some(existing) => {
                    b.slots[idx] = current;
                    current = existing;
                    which = if b.index(current.key, 0) == idx { 1 } else { 0 };
                }
            }
        }
        b.stash.push(current);
        b.len += 1;
        BufferInsert::Stored(None)
    }

    #[test]
    fn placement_matches_the_two_pass_insert() {
        // Full buffers (displacement chains, cycles into the stash) and the
        // paper's 50 %; keys drawn from a pool twice the slot count, so
        // updates and removals find their keys. Every slot, the bitmap, the
        // stamps and the stash must agree after every step, stale slots
        // included.
        for (slots, utilization) in [(64, 1.0), (256, 0.9), (2048, 0.5)] {
            let mut new = CuckooBuffer::new(slots, utilization);
            let mut old = new.clone();
            let (mut kicked_to_stash, mut drains) = (false, 0);
            for step in 0..30_000u64 {
                let r = hash_with_seed(step, slots as u64);
                let key = hash_with_seed(r % (2 * slots as u64), 0xfee);
                if r >> 61 == 0 {
                    assert_eq!(new.remove(key), old.remove(key), "step {step}");
                } else if new.is_full() {
                    assert_eq!(new.drain(), old.drain(), "step {step}");
                    drains += 1;
                } else {
                    let got = new.insert(key, step);
                    assert_eq!(got, insert_two_pass(&mut old, key, step), "step {step}");
                }
                kicked_to_stash |= !new.stash.is_empty();
                let state = |b: &CuckooBuffer| {
                    (b.slots.clone(), b.occupied.clone(), b.stamps.clone(), b.stash.clone(), b.len)
                };
                assert_eq!(state(&new), state(&old), "{slots} slots, step {step}");
            }
            assert!(drains > 10, "{slots} slots: {drains} drains");
            assert!(kicked_to_stash || utilization < 1.0, "{slots} slots never stashed");
        }
    }

    #[test]
    fn degenerate_sizes_are_clamped() {
        let b = CuckooBuffer::new(0, 0.0);
        assert!(b.num_slots() >= 2);
        assert!(b.capacity() >= 1);
    }

    #[test]
    fn iter_visits_each_entry_once() {
        let mut b = CuckooBuffer::new(128, 0.5);
        for i in 0..50u64 {
            b.insert(hash_with_seed(i, 77), i);
        }
        let mut seen: Vec<Key> = b.iter().map(|e| e.key).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 50);
    }
}
