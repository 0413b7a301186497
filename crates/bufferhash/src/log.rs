//! Flash-space allocation for incarnations (§5.2).
//!
//! Flash is divided into fixed-size *slots*, one per incarnation. The
//! allocator hands out slots in one of two layouts:
//!
//! * **global log** (SSD): a single circular sequence over the whole device,
//!   slots written in flush order regardless of which super table they
//!   belong to — the layout that keeps writes sequential under an FTL;
//! * **partition per table** (raw flash chip): each super table owns a
//!   contiguous region written circularly, with erase blocks recycled just
//!   before they are rewritten.
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

use crate::config::FlashLayoutMode;
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
    mode: FlashLayoutMode,
    slot_size: u64,
    num_slots: u64,
    block_size: u64,
    /// Owner of each slot (`None` = free or already evicted).
    owners: Vec<Option<SlotOwner>>,
    /// Next slot in the global log.
    next_slot: u64,
    /// Next slot within each table's partition (partitioned layout).
    per_table_next: Vec<u64>,
    /// Slots per table partition (partitioned layout).
    slots_per_table: u64,
}

impl LogAllocator {
    /// Creates an allocator for a device of `flash_capacity` bytes divided
    /// into slots of `slot_size` bytes, shared by `num_tables` super tables.
    ///
    /// `block_size` is the erase-block size (used only by the partitioned
    /// layout to schedule erasure).
    pub fn new(
        mode: FlashLayoutMode,
        flash_capacity: u64,
        slot_size: u64,
        block_size: u64,
        num_tables: usize,
    ) -> Result<Self> {
        if slot_size == 0 || flash_capacity < slot_size {
            return Err(BufferHashError::InvalidConfig(
                "flash must hold at least one incarnation slot".into(),
            ));
        }
        let num_slots = flash_capacity / slot_size;
        if (num_slots as usize) < num_tables {
            return Err(BufferHashError::InvalidConfig(format!(
                "{num_slots} slots cannot serve {num_tables} super tables"
            )));
        }
        let slots_per_table = num_slots / num_tables.max(1) as u64;
        Ok(LogAllocator {
            mode,
            slot_size,
            num_slots,
            block_size: block_size.max(1),
            owners: vec![None; num_slots as usize],
            next_slot: 0,
            per_table_next: vec![0; num_tables.max(1)],
            slots_per_table,
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

    /// Number of slots currently owned by live incarnations.
    pub fn live_slots(&self) -> usize {
        self.owners.iter().filter(|o| o.is_some()).count()
    }

    /// Allocates the slot for a new incarnation of `table` with flush
    /// sequence `seq`.
    pub fn allocate(&mut self, table: usize, seq: u64) -> Result<SlotAllocation> {
        match self.mode {
            FlashLayoutMode::GlobalLog => self.allocate_global(table, seq),
            FlashLayoutMode::PartitionPerTable => self.allocate_partitioned(table, seq),
        }
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
    /// the highest-`seq` accepted slot — globally for the global log, per
    /// partition for the partitioned layout — so the next flush lands on
    /// exactly the slot a never-crashed lifetime would have written next
    /// (which is where a torn mid-flush write, if any, sits).
    pub fn restore(&mut self, owners: &[(u64, SlotOwner)]) {
        self.owners.iter_mut().for_each(|o| *o = None);
        self.next_slot = 0;
        self.per_table_next.iter_mut().for_each(|n| *n = 0);
        let mut newest: Option<(u64, u64)> = None;
        let mut per_newest: Vec<Option<(u64, u64)>> = vec![None; self.per_table_next.len()];
        for &(slot, owner) in owners {
            let Some(o) = self.owners.get_mut(slot as usize) else { continue };
            *o = Some(owner);
            if newest.is_none_or(|(seq, _)| owner.seq > seq) {
                newest = Some((owner.seq, slot));
            }
            if let Some(entry) = per_newest.get_mut(owner.table) {
                if entry.is_none_or(|(seq, _)| owner.seq > seq) {
                    *entry = Some((owner.seq, slot));
                }
            }
        }
        match self.mode {
            FlashLayoutMode::GlobalLog => {
                if let Some((_, slot)) = newest {
                    self.next_slot = (slot + 1) % self.num_slots;
                }
            }
            FlashLayoutMode::PartitionPerTable => {
                for (table, entry) in per_newest.iter().enumerate() {
                    if let Some((_, slot)) = entry {
                        let within = slot - table as u64 * self.slots_per_table;
                        self.per_table_next[table] = (within + 1) % self.slots_per_table;
                    }
                }
            }
        }
    }

    /// Advances the write pointer past `dirty` slots (the half-programmed
    /// remains of torn writes on raw flash, which cannot be programmed
    /// again until their erase block is cycled). Each log — the global
    /// log, or each table's partition — skips forward while its next slot
    /// is dirty, so resumed flushes land on clean pages; the dirty slots
    /// are reclaimed when the circular pointer next erases their block.
    /// FTL-managed and seek media never need this: they overwrite in
    /// place.
    pub fn skip_dirty(&mut self, dirty: &[u64]) {
        match self.mode {
            FlashLayoutMode::GlobalLog => {
                for _ in 0..self.num_slots {
                    if !dirty.contains(&self.next_slot) {
                        break;
                    }
                    self.next_slot = (self.next_slot + 1) % self.num_slots;
                }
            }
            FlashLayoutMode::PartitionPerTable => {
                for table in 0..self.per_table_next.len() {
                    let base = table as u64 * self.slots_per_table;
                    for _ in 0..self.slots_per_table {
                        if !dirty.contains(&(base + self.per_table_next[table])) {
                            break;
                        }
                        self.per_table_next[table] =
                            (self.per_table_next[table] + 1) % self.slots_per_table;
                    }
                }
            }
        }
    }

    fn allocate_global(&mut self, table: usize, seq: u64) -> Result<SlotAllocation> {
        let slot = self.next_slot;
        self.next_slot = (self.next_slot + 1) % self.num_slots;
        let mut displaced = Vec::new();
        if let Some(owner) = self.owners[slot as usize].take() {
            displaced.push(owner);
        }
        self.owners[slot as usize] = Some(SlotOwner { table, seq });
        Ok(SlotAllocation { offset: slot * self.slot_size, blocks_to_erase: Vec::new(), displaced })
    }

    fn allocate_partitioned(&mut self, table: usize, seq: u64) -> Result<SlotAllocation> {
        if table >= self.per_table_next.len() {
            return Err(BufferHashError::InvalidConfig(format!(
                "table index {table} out of range for the allocator"
            )));
        }
        let base_slot = table as u64 * self.slots_per_table;
        let within = self.per_table_next[table];
        self.per_table_next[table] = (within + 1) % self.slots_per_table;
        let slot = base_slot + within;
        let offset = slot * self.slot_size;

        let mut displaced = Vec::new();
        let mut blocks_to_erase = Vec::new();

        if self.slot_size >= self.block_size {
            // Slot spans one or more whole erase blocks: erase exactly those.
            let first_block = offset / self.block_size;
            let blocks = self.slot_size.div_ceil(self.block_size);
            blocks_to_erase.extend(first_block..first_block + blocks);
            if let Some(owner) = self.owners[slot as usize].take() {
                displaced.push(owner);
            }
        } else {
            // Several slots share an erase block. Erase the block lazily:
            // only when the write lands on its first slot. All other live
            // slots in that block necessarily hold older incarnations of the
            // same table (the partition is written circularly), so they are
            // displaced together.
            if offset.is_multiple_of(self.block_size) {
                blocks_to_erase.push(offset / self.block_size);
                let slots_per_block = (self.block_size / self.slot_size).max(1);
                for s in slot..(slot + slots_per_block).min(base_slot + self.slots_per_table) {
                    if let Some(owner) = self.owners[s as usize].take() {
                        displaced.push(owner);
                    }
                }
            } else if let Some(owner) = self.owners[slot as usize].take() {
                // Mid-block slot: it was already erased when the block was.
                displaced.push(owner);
            }
        }
        self.owners[slot as usize] = Some(SlotOwner { table, seq });
        Ok(SlotAllocation { offset, blocks_to_erase, displaced })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_log_appends_sequentially_and_wraps() {
        let mut a = LogAllocator::new(
            FlashLayoutMode::GlobalLog,
            8 * 128 * 1024,
            128 * 1024,
            256 * 1024,
            2,
        )
        .unwrap();
        assert_eq!(a.num_slots(), 8);
        let mut offsets = Vec::new();
        for seq in 0..8u64 {
            let alloc = a.allocate((seq % 2) as usize, seq).unwrap();
            assert!(alloc.displaced.is_empty(), "no displacement before the log wraps");
            assert!(alloc.blocks_to_erase.is_empty());
            offsets.push(alloc.offset);
        }
        assert_eq!(offsets, (0..8).map(|i| i * 128 * 1024).collect::<Vec<_>>());
        // The 9th allocation wraps onto slot 0 and displaces its owner.
        let alloc = a.allocate(0, 8).unwrap();
        assert_eq!(alloc.offset, 0);
        assert_eq!(alloc.displaced, vec![SlotOwner { table: 0, seq: 0 }]);
    }

    #[test]
    fn released_slots_do_not_report_displacement() {
        let mut a =
            LogAllocator::new(FlashLayoutMode::GlobalLog, 4 * 64 * 1024, 64 * 1024, 64 * 1024, 1)
                .unwrap();
        let first = a.allocate(0, 0).unwrap();
        for seq in 1..4u64 {
            a.allocate(0, seq).unwrap();
        }
        a.release(first.offset, 0);
        let wrapped = a.allocate(0, 4).unwrap();
        assert_eq!(wrapped.offset, first.offset);
        assert!(wrapped.displaced.is_empty());
        assert_eq!(a.live_slots(), 4);
        // Releasing the incarnation a grant displaced leaves the slot with
        // its new owner.
        let again = a.allocate(0, 5).unwrap();
        assert_eq!(again.displaced, vec![SlotOwner { table: 0, seq: 1 }]);
        a.release(again.offset, 1);
        assert_eq!(a.live_slots(), 4);
        a.release(again.offset, 5);
        assert_eq!(a.live_slots(), 3);
    }

    #[test]
    fn partitioned_layout_keeps_tables_in_their_regions() {
        // 16 slots of 64 KiB over 4 tables -> 4 slots per table.
        let mut a = LogAllocator::new(
            FlashLayoutMode::PartitionPerTable,
            16 * 64 * 1024,
            64 * 1024,
            64 * 1024,
            4,
        )
        .unwrap();
        for round in 0..8u64 {
            for table in 0..4usize {
                let alloc = a.allocate(table, round).unwrap();
                let partition = alloc.offset / (4 * 64 * 1024);
                assert_eq!(partition as usize, table, "slot landed outside the partition");
            }
        }
    }

    #[test]
    fn partitioned_layout_erases_blocks_before_rewrite() {
        // Slot size == block size: every allocation erases its block.
        let mut a = LogAllocator::new(
            FlashLayoutMode::PartitionPerTable,
            8 * 128 * 1024,
            128 * 1024,
            128 * 1024,
            2,
        )
        .unwrap();
        let alloc = a.allocate(0, 0).unwrap();
        assert_eq!(alloc.blocks_to_erase, vec![0]);
        let alloc = a.allocate(1, 0).unwrap();
        assert_eq!(alloc.blocks_to_erase, vec![4]);
    }

    #[test]
    fn small_slots_share_an_erase_block_and_displace_together() {
        // 4 slots of 32 KiB per 128 KiB block, one table with 8 slots.
        let mut a = LogAllocator::new(
            FlashLayoutMode::PartitionPerTable,
            8 * 32 * 1024,
            32 * 1024,
            128 * 1024,
            1,
        )
        .unwrap();
        // Fill all 8 slots.
        for seq in 0..8u64 {
            let alloc = a.allocate(0, seq).unwrap();
            if seq % 4 == 0 {
                assert_eq!(alloc.blocks_to_erase.len(), 1, "block-aligned slot erases its block");
            } else {
                assert!(alloc.blocks_to_erase.is_empty());
            }
        }
        // Wrapping onto slot 0 erases block 0 and displaces all four live
        // incarnations that shared it.
        let alloc = a.allocate(0, 8).unwrap();
        assert_eq!(alloc.blocks_to_erase, vec![0]);
        assert_eq!(alloc.displaced.len(), 4);
        assert!(alloc.displaced.iter().all(|o| o.seq < 4));
    }

    #[test]
    fn slot_larger_than_block_erases_all_covered_blocks() {
        let mut a = LogAllocator::new(
            FlashLayoutMode::PartitionPerTable,
            4 * 256 * 1024,
            256 * 1024,
            128 * 1024,
            1,
        )
        .unwrap();
        let alloc = a.allocate(0, 0).unwrap();
        assert_eq!(alloc.blocks_to_erase, vec![0, 1]);
    }

    #[test]
    fn restore_resumes_the_global_log_after_the_newest_owner() {
        let mut a = LogAllocator::new(
            FlashLayoutMode::GlobalLog,
            8 * 128 * 1024,
            128 * 1024,
            256 * 1024,
            2,
        )
        .unwrap();
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
        let alloc = a.allocate(0, 8).unwrap();
        assert_eq!(alloc.offset, 6 * 128 * 1024);
        assert!(alloc.displaced.is_empty());
        // Wrapping far enough displaces the restored owners.
        let mut displaced = Vec::new();
        for seq in 9..15u64 {
            displaced.extend(a.allocate(0, seq).unwrap().displaced);
        }
        assert!(displaced.contains(&SlotOwner { table: 0, seq: 3 }));
    }

    #[test]
    fn restore_resumes_each_partition_independently() {
        // 8 slots of 128 KiB over 2 tables -> 4 slots per partition.
        let mut a = LogAllocator::new(
            FlashLayoutMode::PartitionPerTable,
            8 * 128 * 1024,
            128 * 1024,
            128 * 1024,
            2,
        )
        .unwrap();
        // Table 0's newest lives in slot 1 (within-partition 1); table 1's
        // newest in slot 7 (within-partition 3, the last one).
        a.restore(&[
            (0, SlotOwner { table: 0, seq: 1 }),
            (1, SlotOwner { table: 0, seq: 5 }),
            (7, SlotOwner { table: 1, seq: 6 }),
        ]);
        let alloc = a.allocate(0, 8).unwrap();
        assert_eq!(alloc.offset, 2 * 128 * 1024);
        // Table 1 wraps back to the start of its partition.
        let alloc = a.allocate(1, 9).unwrap();
        assert_eq!(alloc.offset, 4 * 128 * 1024);
    }

    #[test]
    fn restore_with_no_owners_resets_to_a_fresh_log() {
        let mut a =
            LogAllocator::new(FlashLayoutMode::GlobalLog, 4 * 64 * 1024, 64 * 1024, 64 * 1024, 1)
                .unwrap();
        for seq in 0..3u64 {
            a.allocate(0, seq).unwrap();
        }
        a.restore(&[]);
        assert_eq!(a.live_slots(), 0);
        assert_eq!(a.allocate(0, 0).unwrap().offset, 0);
    }

    #[test]
    fn skip_dirty_moves_the_global_pointer_past_torn_slots() {
        let mut a =
            LogAllocator::new(FlashLayoutMode::GlobalLog, 8 * 64 * 1024, 64 * 1024, 64 * 1024, 1)
                .unwrap();
        a.restore(&[(2, SlotOwner { table: 0, seq: 7 })]);
        // The torn write sits where the next flush would land (slot 3);
        // the pointer steps over it, and over a second dirty slot from an
        // earlier crash, onto the first clean one.
        a.skip_dirty(&[3, 4]);
        assert_eq!(a.allocate(0, 8).unwrap().offset, 5 * 64 * 1024);
    }

    #[test]
    fn skip_dirty_advances_each_partition_independently() {
        let mut a = LogAllocator::new(
            FlashLayoutMode::PartitionPerTable,
            8 * 64 * 1024,
            64 * 1024,
            64 * 1024,
            2,
        )
        .unwrap();
        a.restore(&[(0, SlotOwner { table: 0, seq: 1 }), (4, SlotOwner { table: 1, seq: 2 })]);
        // Table 0's next slot (1) is dirty; table 1's next slot (5) is
        // clean and must not move.
        a.skip_dirty(&[1]);
        assert_eq!(a.allocate(0, 3).unwrap().offset, 2 * 64 * 1024);
        assert_eq!(a.allocate(1, 4).unwrap().offset, 5 * 64 * 1024);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(LogAllocator::new(FlashLayoutMode::GlobalLog, 0, 128, 128, 1).is_err());
        assert!(LogAllocator::new(FlashLayoutMode::GlobalLog, 64, 128, 128, 1).is_err());
        assert!(LogAllocator::new(FlashLayoutMode::GlobalLog, 256, 128, 128, 4).is_err());
        let mut a =
            LogAllocator::new(FlashLayoutMode::PartitionPerTable, 512, 128, 128, 2).unwrap();
        assert!(a.allocate(5, 0).is_err());
    }
}
