//! Super tables (§5.1): the in-memory half of one key-space partition.
//!
//! A super table owns the DRAM-resident state for its partition — the
//! buffer, the per-incarnation membership filters and the delete list — plus
//! the metadata describing where its incarnations live on flash. All flash
//! I/O is orchestrated by [`crate::clam::Clam`], which keeps this type
//! purely in-memory and easy to test.
//!
//! The buffer's slots outlive a flush: until new inserts reuse them they
//! still hold the entries of the incarnations flushed from them, each
//! stamped with its generation. The incarnation queue says which
//! generation each incarnation was drained as, and only a generation in
//! the queue answers ([`SuperTable::slot_copy`]): registering an
//! incarnation publishes its generation, dropping it ends it (DESIGN.md
//! "The retired generations").
//!
//! Nothing here synchronizes: a `SuperTable` is a plain field of its
//! `Clam`, mutated through `&mut` (see DESIGN.md "Locks").

use std::collections::HashSet;
use std::collections::VecDeque;

use crate::cuckoo::{BufferInsert, CuckooBuffer};
use crate::eviction::{EvictionPolicy, RetainDecision};
use crate::filters::{AgeSet, FilterBank, FilterMode};
use crate::incarnation::IncarnationLayout;
use crate::types::{Entry, Key, Value, ENTRY_SIZE};

/// Metadata for one on-flash incarnation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncarnationMeta {
    /// Byte offset of the incarnation on flash.
    pub flash_offset: u64,
    /// Number of entries stored in the incarnation.
    pub entries: usize,
    /// Global flush sequence number (unique across the whole CLAM).
    pub seq: u64,
    /// The CLAM lifetime that wrote it: with the table and `seq`, the
    /// identity every page of it carries in its header.
    pub epoch: u32,
}

/// A verdict [`SuperTable::memory_lookup`] reaches without the filters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryHit {
    /// The key is in the delete list.
    Deleted,
    /// The live buffer holds the key.
    Buffer(Value),
}

/// One registered incarnation: where it lives, and the buffer generation
/// it was drained as (0 for one recovery found: no slot ever held it).
#[derive(Debug, Clone, Copy)]
struct Incarnation {
    meta: IncarnationMeta,
    generation: u8,
}

/// The DRAM-resident state of one key-space partition.
#[derive(Debug)]
pub struct SuperTable {
    /// Index of this super table within the CLAM.
    id: usize,
    buffer: CuckooBuffer,
    filters: FilterBank,
    /// Incarnations, youngest first (index = age, matching the filter
    /// bank's convention).
    incarnations: VecDeque<Incarnation>,
    /// The generation the last drain retired, until an incarnation is
    /// registered for it (0 once it is, or if none was drained).
    drained: u8,
    /// Keys deleted while their entries were already on flash (§5.1.1).
    delete_list: HashSet<Key>,
    /// Layout used to serialize/parse this table's incarnations.
    layout: IncarnationLayout,
    max_incarnations: usize,
}

impl SuperTable {
    /// Creates an empty super table.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: usize,
        buffer_bytes: usize,
        max_utilization: f64,
        max_incarnations: usize,
        filter_mode: FilterMode,
        bloom_bits_per_incarnation: usize,
        bloom_hashes: u32,
        layout: IncarnationLayout,
    ) -> Self {
        SuperTable {
            id,
            buffer: CuckooBuffer::with_byte_budget(buffer_bytes, ENTRY_SIZE, max_utilization),
            filters: FilterBank::new(
                filter_mode,
                max_incarnations.max(1),
                bloom_bits_per_incarnation,
                bloom_hashes,
            ),
            incarnations: VecDeque::with_capacity(max_incarnations),
            delete_list: HashSet::new(),
            drained: 0,
            layout,
            max_incarnations: max_incarnations.max(1),
        }
    }

    /// Index of this super table.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The incarnation serialization layout.
    pub fn layout(&self) -> IncarnationLayout {
        self.layout
    }

    /// Maximum incarnations held on flash for this table (`k`).
    pub fn max_incarnations(&self) -> usize {
        self.max_incarnations
    }

    /// Number of live incarnations.
    pub fn num_incarnations(&self) -> usize {
        self.incarnations.len()
    }

    /// Number of entries currently in the buffer.
    pub fn buffer_len(&self) -> usize {
        self.buffer.len()
    }

    /// Metadata of the incarnation at `age` (0 = youngest).
    pub fn incarnation_at(&self, age: usize) -> Option<IncarnationMeta> {
        self.incarnations.get(age).map(|inc| inc.meta)
    }

    /// Metadata of the oldest incarnation.
    pub fn oldest_incarnation(&self) -> Option<IncarnationMeta> {
        self.incarnations.back().map(|inc| inc.meta)
    }

    /// Looks up `key` in the in-memory state that outranks every
    /// incarnation: the delete list, then the live buffer. `None` when the
    /// caller must walk the candidate incarnations.
    pub fn memory_lookup(&self, key: Key) -> Option<MemoryHit> {
        if self.delete_list.contains(&key) {
            return Some(MemoryHit::Deleted);
        }
        self.buffer.get(key).map(MemoryHit::Buffer)
    }

    /// The value the incarnation at `age` holds for `key`, if the buffer
    /// slot it was flushed from still holds it: what reading that
    /// incarnation from flash would find, without the read. `None` says
    /// nothing about flash.
    pub fn slot_copy(&self, key: Key, age: usize) -> Option<Value> {
        self.buffer.get_stamped(key, self.incarnations.get(age)?.generation)
    }

    /// Stops answering from the buffer's slots for every incarnation: one
    /// of them may never have reached the device.
    pub fn forget_slot_copies(&mut self) {
        self.buffer.unstamp_drained();
    }

    /// Every drained entry still in a buffer slot, with the incarnation
    /// its stamp names (`None`: a generation no incarnation was registered
    /// for). Test support.
    pub fn slot_copies(&self) -> impl Iterator<Item = (Option<IncarnationMeta>, Entry)> + '_ {
        self.buffer.iter_stamped().map(|(generation, entry)| {
            let inc = self.incarnations.iter().find(|inc| inc.generation == generation);
            (inc.map(|inc| inc.meta), entry)
        })
    }

    /// Inserts into the buffer. A new value for a deleted key revives it.
    pub fn buffer_insert(&mut self, key: Key, value: Value) -> BufferInsert {
        let res = self.buffer.insert(key, value);
        // The list is empty on insert-only streams: skip hashing into it.
        if !self.delete_list.is_empty() && matches!(res, BufferInsert::Stored(_)) {
            self.delete_list.remove(&key);
        }
        res
    }

    /// Deletes `key`: removes it from the buffer if present, otherwise
    /// records it in the delete list so flash copies are ignored (§5.1.1).
    ///
    /// Returns `true` if the key was present in the buffer.
    pub fn delete(&mut self, key: Key) -> bool {
        if self.buffer.remove(key).is_some() {
            // Older values may still exist on flash; shadow them too.
            if self.num_incarnations() > 0 {
                self.delete_list.insert(key);
            }
            true
        } else {
            self.delete_list.insert(key);
            false
        }
    }

    /// Number of keys in the delete list.
    pub fn delete_list_len(&self) -> usize {
        self.delete_list.len()
    }

    /// Drains the buffer for a flush, returning all entries. Nothing is
    /// readable from the slots they leave behind unless the entries are
    /// then registered as an incarnation.
    pub fn drain_buffer(&mut self) -> Vec<Entry> {
        self.drained = self.buffer.generation();
        let entries = self.buffer.drain();
        // The generation the buffer fills next has no stamps left; only a
        // table of 255 or more incarnations can still hold one drained as
        // it, whose slot copies are gone.
        let next = self.buffer.generation();
        self.incarnations.iter_mut().filter(|inc| inc.generation == next).for_each(|inc| {
            inc.generation = 0;
        });
        entries
    }

    /// Registers a freshly written incarnation as the youngest, and in the
    /// same step publishes what the preceding
    /// [`drain_buffer`](Self::drain_buffer) left in the buffer's slots as
    /// its slot copies (nothing, for an incarnation recovery found on
    /// flash: its buffer never held it).
    ///
    /// The caller must have made room first (`num_incarnations() <
    /// max_incarnations()`).
    pub fn register_incarnation(
        &mut self,
        meta: IncarnationMeta,
        keys: impl IntoIterator<Item = Key>,
    ) {
        assert!(
            self.incarnations.len() < self.max_incarnations,
            "register_incarnation on a full incarnation table"
        );
        self.filters.push_newest(keys);
        let generation = std::mem::take(&mut self.drained);
        self.incarnations.push_front(Incarnation { meta, generation });
    }

    /// Drops the oldest incarnation, returning its metadata. Its slot
    /// copies go with it.
    pub fn drop_oldest_incarnation(&mut self) -> Option<IncarnationMeta> {
        let inc = self.incarnations.pop_back()?;
        self.filters.evict_oldest();
        self.buffer.unstamp(inc.generation);
        Some(inc.meta)
    }

    /// Force-drops the incarnation with sequence number `seq` (used when the
    /// global log wraps onto its slot). Because the log is written in flush
    /// order, that incarnation is the oldest or among the oldest; any older
    /// ones are dropped along with it.
    ///
    /// Returns the metadata of every incarnation dropped.
    pub fn force_evict_up_to(&mut self, seq: u64) -> Vec<IncarnationMeta> {
        let mut dropped = Vec::new();
        while let Some(oldest) = self.oldest_incarnation() {
            if oldest.seq > seq {
                break;
            }
            self.drop_oldest_incarnation();
            dropped.push(oldest);
        }
        dropped
    }

    /// Ages (0 = youngest) of incarnations that may contain `key`, youngest
    /// first, according to the membership filters.
    pub fn candidate_incarnations(&self, key: Key) -> AgeSet {
        self.filters.query(key)
    }

    /// DRAM words touched by one filter query (for latency accounting).
    pub fn filter_words_per_query(&self) -> usize {
        self.filters.words_per_query()
    }

    /// Decides whether `entry` from the evicted (oldest) incarnation should
    /// be retained under `policy`: establishes the facts
    /// [`EvictionPolicy::retain`] decides from. "In a younger incarnation"
    /// is checked through the Bloom filters, so a false positive can
    /// occasionally drop a live entry (§5.1.2, footnote 2).
    pub fn retain_decision(&self, entry: &Entry, policy: &EvictionPolicy) -> RetainDecision {
        // One sliced query answers for every age; the youngest match is
        // younger than the oldest (age len-1) or none is.
        let oldest_age = self.num_incarnations().saturating_sub(1);
        let in_younger =
            self.filters.query(entry.key).next().is_some_and(|youngest| youngest < oldest_age);
        policy.retain(
            entry,
            self.delete_list.contains(&entry.key),
            self.buffer.get(entry.key).is_some(),
            in_younger,
        )
    }

    /// Removes delete-list entries whose on-flash copies have all been
    /// evicted. Called after the oldest incarnation is dropped; with the
    /// oldest gone, any deleted key that no longer matches a younger
    /// incarnation's filter cannot exist on flash any more.
    pub fn prune_delete_list(&mut self) {
        if self.incarnations.is_empty() {
            self.delete_list.clear();
            return;
        }
        // One AND of `h` rows says whether any live incarnation matches.
        let filters = &self.filters;
        self.delete_list.retain(|&k| !filters.query(k).is_empty());
    }

    /// DRAM the buffer's slots and their generation stamps occupy, in
    /// bytes (its occupancy bitmap is 1/136 of this on top).
    pub fn buffer_bytes(&self) -> usize {
        self.buffer.memory_bytes()
    }

    /// DRAM the membership filters occupy, in bytes.
    pub fn filter_bytes(&self) -> usize {
        self.filters.memory_bytes()
    }

    /// Approximate DRAM footprint of this super table in bytes (buffer
    /// slots, filters and delete list).
    pub fn memory_bytes(&self) -> usize {
        self.buffer_bytes()
            + self.filter_bytes()
            + self.delete_list.len() * std::mem::size_of::<Key>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::hash_with_seed;

    fn table() -> SuperTable {
        SuperTable::new(
            0,
            16 * 1024,
            0.5,
            4,
            FilterMode::BitSliced,
            1 << 13,
            6,
            IncarnationLayout::new(16 * 1024, 2048).unwrap(),
        )
    }

    fn meta(seq: u64) -> IncarnationMeta {
        IncarnationMeta { flash_offset: seq * 16 * 1024, entries: 10, seq, epoch: 1 }
    }

    #[test]
    fn buffer_insert_and_memory_lookup() {
        let mut t = table();
        assert!(matches!(t.buffer_insert(1, 10), BufferInsert::Stored(None)));
        assert_eq!(t.memory_lookup(1), Some(MemoryHit::Buffer(10)));
        assert_eq!(t.memory_lookup(2), None);
        assert_eq!(t.buffer_len(), 1);
    }

    #[test]
    fn delete_semantics() {
        let mut t = table();
        t.buffer_insert(1, 10);
        // Deleting a buffered key removes it outright (no flash copies yet).
        assert!(t.delete(1));
        assert_eq!(t.memory_lookup(1), None);
        assert_eq!(t.delete_list_len(), 0);
        // Deleting an unbuffered key goes to the delete list and shadows
        // flash lookups.
        assert!(!t.delete(2));
        assert!(t.delete_list.contains(&2));
        assert_eq!(t.memory_lookup(2), Some(MemoryHit::Deleted));
        // Re-inserting revives the key.
        t.buffer_insert(2, 20);
        assert!(!t.delete_list.contains(&2));
        assert_eq!(t.memory_lookup(2), Some(MemoryHit::Buffer(20)));
    }

    #[test]
    fn delete_of_buffered_key_with_flash_copies_shadows_them() {
        let mut t = table();
        t.register_incarnation(meta(0), [7]);
        t.buffer_insert(7, 70);
        assert!(t.delete(7));
        // The flash copy must remain shadowed.
        assert!(t.delete_list.contains(&7));
        assert_eq!(t.memory_lookup(7), Some(MemoryHit::Deleted));
    }

    #[test]
    fn incarnation_registration_and_age_order() {
        let mut t = table();
        for seq in 0..4u64 {
            let keys: Vec<Key> = (0..10).map(|i| hash_with_seed(i, seq + 1)).collect();
            t.register_incarnation(meta(seq), keys.iter().copied());
        }
        assert_eq!(t.num_incarnations(), 4);
        // Youngest (seq 3) is age 0; oldest (seq 0) is age 3.
        assert_eq!(t.incarnation_at(0).unwrap().seq, 3);
        assert_eq!(t.oldest_incarnation().unwrap().seq, 0);
        // Filter candidates agree with ages.
        let key_of_seq0 = hash_with_seed(5, 1);
        assert!(t.candidate_incarnations(key_of_seq0).contains(&3));
    }

    #[test]
    fn drop_oldest_keeps_filters_in_sync() {
        let mut t = table();
        for seq in 0..4u64 {
            let keys: Vec<Key> = (0..10).map(|i| hash_with_seed(i, seq + 1)).collect();
            t.register_incarnation(meta(seq), keys.iter().copied());
        }
        let dropped = t.drop_oldest_incarnation().unwrap();
        assert_eq!(dropped.seq, 0);
        assert_eq!(t.num_incarnations(), 3);
        // Keys of seq 1 are now the oldest (age 2).
        let key_of_seq1 = hash_with_seed(3, 2);
        assert!(t.candidate_incarnations(key_of_seq1).contains(&2));
    }

    #[test]
    fn force_evict_drops_everything_up_to_seq() {
        let mut t = table();
        for seq in 0..4u64 {
            t.register_incarnation(meta(seq), [seq]);
        }
        let dropped = t.force_evict_up_to(1);
        assert_eq!(dropped.len(), 2);
        assert_eq!(t.num_incarnations(), 2);
        assert_eq!(t.oldest_incarnation().unwrap().seq, 2);
        // Evicting a seq that is not present does nothing.
        assert!(t.force_evict_up_to(1).is_empty());
    }

    #[test]
    fn slot_copies_answer_for_registered_incarnations_only() {
        let mut t = table();
        let keys = |seq: u64| (0..10).map(move |i| hash_with_seed(i, 100 + seq));
        for seq in 0..3u64 {
            keys(seq).for_each(|k| assert!(t.buffer_insert(k, k ^ seq) != BufferInsert::Full));
            let drained: Vec<Key> = t.drain_buffer().iter().map(|e| e.key).collect();
            let ages = 0..=t.num_incarnations();
            assert!(keys(seq).all(|k| ages.clone().all(|age| t.slot_copy(k, age).is_none())));
            t.register_incarnation(meta(seq), drained.iter().copied());
        }
        // Ages 0, 1, 2 hold seqs 2, 1, 0: a key answers at its own age.
        for seq in 0..3u64 {
            for k in keys(seq) {
                for age in 0..3 {
                    let own = age as u64 == 2 - seq;
                    assert_eq!(t.slot_copy(k, age), own.then_some(k ^ seq), "{seq} at {age}");
                }
            }
        }
        t.drop_oldest_incarnation();
        assert!(keys(0).all(|k| (0..3).all(|age| t.slot_copy(k, age).is_none())));
        t.force_evict_up_to(1);
        assert!(keys(1).all(|k| (0..3).all(|age| t.slot_copy(k, age).is_none())));
        assert!(keys(2).all(|k| t.slot_copy(k, 0) == Some(k ^ 2)));
        assert!(t.slot_copies().all(|(inc, _)| inc == t.incarnation_at(0)));
        t.forget_slot_copies();
        assert!(keys(2).all(|k| t.slot_copy(k, 0).is_none()));
        assert_eq!(t.slot_copies().count(), 0);
    }

    #[test]
    fn a_generation_id_handed_out_again_ends_the_incarnation_drained_as_it() {
        let mut t = SuperTable::new(
            0,
            1024,
            0.5,
            300,
            FilterMode::BitSliced,
            256,
            2,
            IncarnationLayout::new(1024, 256).unwrap(),
        );
        // 256 flushes of one key each: the 256th drain hands out the
        // generation of the first again.
        for seq in 0..256u64 {
            t.buffer_insert(seq, seq);
            let drained: Vec<Key> = t.drain_buffer().iter().map(|e| e.key).collect();
            t.register_incarnation(meta(seq), drained.iter().copied());
        }
        assert_eq!(t.slot_copy(255, 0), Some(255));
        assert_eq!(t.slot_copy(0, 255), None, "its stamps were cleared for reuse");
        assert!(t.slot_copies().all(|(inc, e)| inc.is_some_and(|inc| inc.seq == e.key)));
    }

    #[test]
    fn retain_decision_fifo_always_discards() {
        let t = table();
        let e = Entry::new(1, 2);
        assert_eq!(t.retain_decision(&e, &EvictionPolicy::Fifo), RetainDecision::Discard);
        assert_eq!(t.retain_decision(&e, &EvictionPolicy::Lru), RetainDecision::Discard);
    }

    #[test]
    fn retain_decision_update_based() {
        let mut t = table();
        // Oldest incarnation (about to be evicted) holds keys 100..110.
        let old_keys: Vec<Key> = (100..110).collect();
        t.register_incarnation(meta(0), old_keys.iter().copied());
        // A younger incarnation holds key 100 (so 100 was updated).
        t.register_incarnation(meta(1), [100]);
        // Key 101 is in the buffer (updated), key 102 is deleted.
        t.buffer_insert(101, 1);
        t.delete(102);
        assert_eq!(
            t.retain_decision(&Entry::new(100, 0), &EvictionPolicy::UpdateBased),
            RetainDecision::Discard
        );
        assert_eq!(
            t.retain_decision(&Entry::new(101, 0), &EvictionPolicy::UpdateBased),
            RetainDecision::Discard
        );
        assert_eq!(
            t.retain_decision(&Entry::new(102, 0), &EvictionPolicy::UpdateBased),
            RetainDecision::Discard
        );
        // Key 105 was never touched again: retain it.
        assert_eq!(
            t.retain_decision(&Entry::new(105, 0), &EvictionPolicy::UpdateBased),
            RetainDecision::Retain
        );
    }

    #[test]
    fn retain_decision_priority_based() {
        let t = table();
        let policy = EvictionPolicy::priority_threshold(50);
        assert_eq!(t.retain_decision(&Entry::new(1, 99), &policy), RetainDecision::Retain);
        assert_eq!(t.retain_decision(&Entry::new(1, 10), &policy), RetainDecision::Discard);
    }

    #[test]
    fn prune_delete_list_drops_unreachable_keys() {
        let mut t = table();
        t.register_incarnation(meta(0), [42]);
        t.delete(42);
        t.delete(43); // never on flash
        assert_eq!(t.delete_list_len(), 2);
        t.prune_delete_list();
        // 42 still matches the live incarnation's filter; 43 matches nothing
        // (up to Bloom false positives, absent at this filter size).
        assert!(t.delete_list.contains(&42));
        assert!(t.delete_list_len() <= 2);
        t.drop_oldest_incarnation();
        t.prune_delete_list();
        assert_eq!(t.delete_list_len(), 0);
    }

    #[test]
    fn memory_accounting_is_positive_and_grows_with_filters() {
        let mut t = table();
        let before = t.memory_bytes();
        t.register_incarnation(meta(0), [1, 2, 3]);
        assert!(t.memory_bytes() >= before);
        assert!(t.memory_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "full incarnation table")]
    fn registering_beyond_capacity_panics() {
        let mut t = table();
        for seq in 0..5u64 {
            t.register_incarnation(meta(seq), [seq]);
        }
    }
}
