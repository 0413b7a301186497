//! Flash-space allocation for incarnations (§5.2).
//!
//! Flash is divided into fixed-size *slots*, one per incarnation, and the
//! slots form one circular log over the whole device: they are granted in
//! flush order, whichever super table flushes. Under an FTL this keeps
//! writes sequential. A raw flash chip must erase a block before it
//! programs it again, so there the same log erases each block just before
//! the write pointer enters it. The blocks ahead of the pointer hold the
//! oldest incarnations in the log, so that erase is the FIFO reclaim the
//! log does on every medium; a partition per table would buy nothing.
//!
//! On a medium that erases, a slot must be a whole number of erase blocks
//! (each write erases its own blocks first) or divide one exactly (the
//! write to a block's first slot erases the block and displaces every
//! live incarnation in it, whatever its table). A slot that straddles a
//! block boundary would erase a neighbour still in use.
//!
//! When the log wraps onto a slot whose incarnation is still live, that
//! incarnation must be force-evicted from its owning super table; the
//! allocator reports those owners so the CLAM can do so before the write.
//!
//! The allocator is shared by every super table of a stripe and does not
//! synchronize itself: it is a plain field of `Clam`, and a flush chain
//! runs on one `&mut Clam` from slot grant through ring admission — grant
//! order *is* admission order, the invariant the acknowledgment point
//! relies on (see DESIGN.md "Crash consistency").

use serde::{Deserialize, Serialize};

use crate::error::{BufferHashError, Result};

/// Identifies the incarnation occupying a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotOwner {
    /// Super table that owns the incarnation.
    pub table: usize,
    /// The flush sequence number of the incarnation.
    pub seq: u64,
}

/// The placement decision for one incarnation flush.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotAllocation {
    /// Byte offset on flash where the incarnation must be written.
    pub offset: u64,
    /// Erase-block indices that must be erased before writing (raw flash
    /// chips only; empty for SSDs).
    pub blocks_to_erase: Vec<u64>,
    /// Live incarnations displaced by this allocation (the slot being
    /// overwritten, plus — on raw flash — other slots sharing an erase block
    /// that is about to be erased). Their owning super tables must drop them
    /// before the write happens.
    pub displaced: Vec<SlotOwner>,
}

/// Allocator of incarnation slots on flash.
#[derive(Debug, Clone)]
pub struct LogAllocator {
    slot_size: u64,
    num_slots: u64,
    /// Erase-block size on a medium that must erase before it programs;
    /// `None` where writes overwrite in place.
    erase_block: Option<u64>,
    /// Owner of each slot (`None` = free or already evicted).
    owners: Vec<Option<SlotOwner>>,
    /// Next slot in the log.
    next_slot: u64,
}

impl LogAllocator {
    /// Creates an allocator for a device of `flash_capacity` bytes divided
    /// into slots of `slot_size` bytes, shared by `num_tables` super tables.
    ///
    /// `erase_block` is the erase-block size of a medium that must erase
    /// before it programs (`None` for media that overwrite in place); the
    /// slot must then fill whole blocks or divide one exactly.
    pub fn new(
        flash_capacity: u64,
        slot_size: u64,
        erase_block: Option<u64>,
        num_tables: usize,
    ) -> Result<Self> {
        if slot_size == 0 || flash_capacity < slot_size {
            return Err(BufferHashError::InvalidConfig(
                "flash must hold at least one incarnation slot".into(),
            ));
        }
        if let Some(block) = erase_block {
            if !slot_size.is_multiple_of(block) && !block.is_multiple_of(slot_size) {
                return Err(BufferHashError::InvalidConfig(format!(
                    "a {slot_size}-byte slot neither fills whole {block}-byte erase blocks \
                     nor divides one"
                )));
            }
        }
        let num_slots = flash_capacity / slot_size;
        if (num_slots as usize) < num_tables {
            return Err(BufferHashError::InvalidConfig(format!(
                "{num_slots} slots cannot serve {num_tables} super tables"
            )));
        }
        Ok(LogAllocator {
            slot_size,
            num_slots,
            erase_block,
            owners: vec![None; num_slots as usize],
            next_slot: 0,
        })
    }

    /// Slot size in bytes.
    pub fn slot_size(&self) -> u64 {
        self.slot_size
    }

    /// Total number of slots.
    pub fn num_slots(&self) -> u64 {
        self.num_slots
    }

    /// The erase-block size if the medium must erase before it programs.
    pub fn erase_block(&self) -> Option<u64> {
        self.erase_block
    }

    /// Number of slots currently owned by live incarnations.
    pub fn live_slots(&self) -> usize {
        self.owners.iter().filter(|o| o.is_some()).count()
    }

    /// Allocates the next slot of the log for a new incarnation of `table`
    /// with flush sequence `seq`.
    pub fn allocate(&mut self, table: usize, seq: u64) -> SlotAllocation {
        let slot = self.next_slot;
        self.next_slot = (slot + 1) % self.num_slots;
        let offset = slot * self.slot_size;
        // The slots this write reclaims: its own, and on a block start
        // every slot sharing the block it erases.
        let mut reclaimed = slot..slot + 1;
        let mut blocks_to_erase = Vec::new();
        if let Some(block) = self.erase_block.filter(|&b| offset.is_multiple_of(b)) {
            let first = offset / block;
            blocks_to_erase.extend(first..first + self.slot_size.div_ceil(block));
            reclaimed.end = (slot + block / self.slot_size).clamp(slot + 1, self.num_slots);
        }
        let displaced = self.owners[reclaimed.start as usize..reclaimed.end as usize]
            .iter_mut()
            .filter_map(Option::take)
            .collect();
        self.owners[slot as usize] = Some(SlotOwner { table, seq });
        SlotAllocation { offset, blocks_to_erase, displaced }
    }

    /// Marks the slot at `offset` free if it still holds the incarnation
    /// with flush sequence `seq` (after its super table evicted it). The
    /// space is reclaimed when the log wraps around. A slot that has been
    /// granted again since belongs to its new owner and is left alone:
    /// the incarnation a grant displaces is released after the grant.
    pub fn release(&mut self, offset: u64, seq: u64) {
        let slot = offset / self.slot_size;
        if let Some(owner) = self.owners.get_mut(slot as usize) {
            if owner.is_some_and(|o| o.seq == seq) {
                *owner = None;
            }
        }
    }

    /// Rebuilds the allocator from a recovery scan: `owners` lists every
    /// slot whose incarnation the scan accepted, with its owner. All other
    /// slots become free, and the write position resumes immediately after
    /// the highest-`seq` accepted slot, so the next flush lands on exactly
    /// the slot a never-crashed lifetime would have written next (which is
    /// where a torn mid-flush write, if any, sits).
    pub fn restore(&mut self, owners: &[(u64, SlotOwner)]) {
        self.owners.iter_mut().for_each(|o| *o = None);
        let mut newest: Option<(u64, u64)> = None;
        for &(slot, owner) in owners {
            let Some(o) = self.owners.get_mut(slot as usize) else { continue };
            *o = Some(owner);
            if newest.is_none_or(|(seq, _)| owner.seq > seq) {
                newest = Some((owner.seq, slot));
            }
        }
        self.next_slot = newest.map_or(0, |(_, slot)| (slot + 1) % self.num_slots);
    }

    /// Advances the write pointer past `dirty` slots (the half-programmed
    /// remains of torn writes on a medium that erases, which cannot be
    /// programmed again until their erase block is cycled): while the next
    /// slot is dirty the pointer skips it, so resumed flushes land on clean
    /// pages, and the dirty slots are reclaimed when the log next erases
    /// their block. Media that overwrite in place never need this, and
    /// there it does nothing.
    pub fn skip_dirty(&mut self, dirty: &[u64]) {
        if self.erase_block.is_none() {
            return;
        }
        for _ in 0..self.num_slots {
            if !dirty.contains(&self.next_slot) {
                break;
            }
            self.next_slot = (self.next_slot + 1) % self.num_slots;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BLOCK: u64 = 128 * 1024;

    #[test]
    fn global_log_appends_sequentially_and_wraps() {
        let mut a = LogAllocator::new(8 * 128 * 1024, 128 * 1024, None, 2).unwrap();
        assert_eq!(a.num_slots(), 8);
        let mut offsets = Vec::new();
        for seq in 0..8u64 {
            let alloc = a.allocate((seq % 2) as usize, seq);
            assert!(alloc.displaced.is_empty(), "no displacement before the log wraps");
            assert!(alloc.blocks_to_erase.is_empty());
            offsets.push(alloc.offset);
        }
        assert_eq!(offsets, (0..8).map(|i| i * 128 * 1024).collect::<Vec<_>>());
        // The 9th allocation wraps onto slot 0 and displaces its owner.
        let alloc = a.allocate(0, 8);
        assert_eq!(alloc.offset, 0);
        assert_eq!(alloc.displaced, vec![SlotOwner { table: 0, seq: 0 }]);
    }

    #[test]
    fn released_slots_do_not_report_displacement() {
        let mut a = LogAllocator::new(4 * 64 * 1024, 64 * 1024, None, 1).unwrap();
        let first = a.allocate(0, 0);
        for seq in 1..4u64 {
            a.allocate(0, seq);
        }
        a.release(first.offset, 0);
        let wrapped = a.allocate(0, 4);
        assert_eq!(wrapped.offset, first.offset);
        assert!(wrapped.displaced.is_empty());
        assert_eq!(a.live_slots(), 4);
        // Releasing the incarnation a grant displaced leaves the slot with
        // its new owner.
        let again = a.allocate(0, 5);
        assert_eq!(again.displaced, vec![SlotOwner { table: 0, seq: 1 }]);
        a.release(again.offset, 1);
        assert_eq!(a.live_slots(), 4);
        a.release(again.offset, 5);
        assert_eq!(a.live_slots(), 3);
    }

    #[test]
    fn a_slot_of_whole_blocks_erases_exactly_its_own_blocks() {
        // One block per slot, two tables taking turns: every write erases
        // its own block, and the wrap displaces only that slot's owner.
        let mut a = LogAllocator::new(4 * BLOCK, BLOCK, Some(BLOCK), 2).unwrap();
        for seq in 0..4u64 {
            let alloc = a.allocate((seq % 2) as usize, seq);
            assert_eq!(alloc.blocks_to_erase, vec![seq]);
            assert!(alloc.displaced.is_empty());
        }
        let alloc = a.allocate(1, 4);
        assert_eq!(alloc.blocks_to_erase, vec![0]);
        assert_eq!(alloc.displaced, vec![SlotOwner { table: 0, seq: 0 }]);
    }

    #[test]
    fn slot_larger_than_block_erases_all_covered_blocks() {
        let mut a = LogAllocator::new(4 * 256 * 1024, 256 * 1024, Some(BLOCK), 1).unwrap();
        assert_eq!(a.allocate(0, 0).blocks_to_erase, vec![0, 1]);
        assert_eq!(a.allocate(0, 1).blocks_to_erase, vec![2, 3]);
    }

    #[test]
    fn small_slots_share_an_erase_block_and_displace_together() {
        // Four 32 KiB slots per 128 KiB block, eight slots, two tables
        // taking turns, so each block holds incarnations of both.
        let mut a = LogAllocator::new(8 * 32 * 1024, 32 * 1024, Some(BLOCK), 2).unwrap();
        for seq in 0..8u64 {
            let alloc = a.allocate((seq % 2) as usize, seq);
            if seq % 4 == 0 {
                assert_eq!(alloc.blocks_to_erase, vec![seq / 4], "a block-start slot erases");
            } else {
                assert!(alloc.blocks_to_erase.is_empty());
            }
        }
        // Wrapping onto slot 0 erases block 0 and displaces all four live
        // incarnations in it, of both tables; the next slot, erased with
        // them, displaces nothing.
        let alloc = a.allocate(0, 8);
        assert_eq!(alloc.blocks_to_erase, vec![0]);
        assert_eq!(
            alloc.displaced,
            (0..4u64).map(|seq| SlotOwner { table: (seq % 2) as usize, seq }).collect::<Vec<_>>()
        );
        let alloc = a.allocate(1, 9);
        assert!(alloc.blocks_to_erase.is_empty());
        assert!(alloc.displaced.is_empty());
        assert_eq!(a.live_slots(), 6);
    }

    #[test]
    fn restore_resumes_the_global_log_after_the_newest_owner() {
        let mut a = LogAllocator::new(8 * 128 * 1024, 128 * 1024, None, 2).unwrap();
        // Pretend a recovery scan accepted incarnations in slots 2, 3 and 5;
        // the newest (seq 7) sits in slot 5.
        a.restore(&[
            (2, SlotOwner { table: 0, seq: 3 }),
            (5, SlotOwner { table: 1, seq: 7 }),
            (3, SlotOwner { table: 1, seq: 4 }),
        ]);
        assert_eq!(a.live_slots(), 3);
        // The next flush lands on slot 6 — exactly where a never-crashed
        // lifetime would have written next.
        let alloc = a.allocate(0, 8);
        assert_eq!(alloc.offset, 6 * 128 * 1024);
        assert!(alloc.displaced.is_empty());
        // Wrapping far enough displaces the restored owners.
        let mut displaced = Vec::new();
        for seq in 9..15u64 {
            displaced.extend(a.allocate(0, seq).displaced);
        }
        assert!(displaced.contains(&SlotOwner { table: 0, seq: 3 }));
    }

    #[test]
    fn restore_with_no_owners_resets_to_a_fresh_log() {
        let mut a = LogAllocator::new(4 * 64 * 1024, 64 * 1024, None, 1).unwrap();
        for seq in 0..3u64 {
            a.allocate(0, seq);
        }
        a.restore(&[]);
        assert_eq!(a.live_slots(), 0);
        assert_eq!(a.allocate(0, 0).offset, 0);
    }

    #[test]
    fn skip_dirty_moves_the_global_pointer_past_torn_slots() {
        // Four 32 KiB slots per block.
        let mut a = LogAllocator::new(8 * 32 * 1024, 32 * 1024, Some(BLOCK), 1).unwrap();
        a.restore(&[(1, SlotOwner { table: 0, seq: 7 })]);
        // The torn write sits where the next flush would land (slot 2);
        // the pointer steps over it, and over a second dirty slot from an
        // earlier crash, onto the first clean one: the start of block 1,
        // which it erases.
        a.skip_dirty(&[2, 3]);
        let alloc = a.allocate(0, 8);
        assert_eq!(alloc.offset, 4 * 32 * 1024);
        assert_eq!(alloc.blocks_to_erase, vec![1]);
    }

    #[test]
    fn skip_dirty_is_a_no_op_without_an_erase_block() {
        // A medium that overwrites in place rewrites a torn slot as is.
        let mut a = LogAllocator::new(8 * 64 * 1024, 64 * 1024, None, 1).unwrap();
        a.restore(&[(2, SlotOwner { table: 0, seq: 7 })]);
        a.skip_dirty(&[3, 4]);
        assert_eq!(a.allocate(0, 8).offset, 3 * 64 * 1024);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(LogAllocator::new(0, 128, None, 1).is_err());
        assert!(LogAllocator::new(64, 128, None, 1).is_err());
        assert!(LogAllocator::new(256, 128, None, 4).is_err());
    }
}
