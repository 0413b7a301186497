//! The recovery scan: rebuilding a CLAM's DRAM state from flash alone.

use super::*;

impl<D: Device> Clam<D> {
    /// The recovery scan behind [`Clam::recover`]; see its documentation.
    pub(super) fn recover_scan(&mut self) -> Result<RecoveryReport> {
        let layout = self.layout;
        let slot_size = self.allocator.slot_size();
        let num_slots = self.allocator.num_slots();

        // Ring-driven scan: every slot read in one submission, so the scan
        // costs the overlapped ring makespan, not the summed per-read time.
        let mut ring = CompletionRing::for_queue(self.device.queue());
        let requests: Vec<RingRequest> = (0..num_slots)
            .map(|slot| RingRequest::new(IoRequest::read(slot * slot_size, slot_size as usize)))
            .collect();
        let completions = self.device.submit(requests, &mut ring)?;
        let scan_makespan = ring.makespan();
        let mut images: Vec<Vec<u8>> = vec![Vec::new(); num_slots as usize];
        for completion in completions {
            images[completion.index] = completion.result?;
        }

        let mut torn = 0usize;
        let mut torn_slots: Vec<u64> = Vec::new();
        let mut empty = 0usize;
        let mut valid: Vec<(u64, IncarnationIdentity, Vec<Entry>)> = Vec::new();
        let mut max_seq_seen = 0u64;
        let mut max_epoch_seen = 0u32;
        for (slot, bytes) in images.iter().enumerate() {
            // Harvest identity watermarks from every CRC-valid page, torn
            // slots included: a re-issued (epoch, seq) must never shadow
            // data that survived elsewhere.
            for page in bytes.chunks_exact(layout.page_size) {
                if let Ok(header) = parse_page_header_checked(page) {
                    max_seq_seen = max_seq_seen.max(header.identity.seq);
                    max_epoch_seen = max_epoch_seen.max(header.identity.epoch);
                }
            }
            match scan_incarnation(bytes, &layout) {
                SlotScan::Empty => empty += 1,
                SlotScan::Torn { .. } => {
                    torn += 1;
                    torn_slots.push(slot as u64);
                }
                SlotScan::Valid { identity, entries } => {
                    if (identity.table as usize) < self.tables.len() {
                        valid.push((slot as u64, identity, entries));
                    } else {
                        // An identity naming a table this configuration
                        // does not have is foreign data, not recoverable.
                        torn += 1;
                        torn_slots.push(slot as u64);
                    }
                }
            }
        }

        // Youngest-first by (epoch, seq): a higher-epoch copy of the same
        // flush sequence shadows the lower one (a later lifetime re-wrote
        // the slot), and each table keeps only its youngest `k`.
        valid.sort_by_key(|v| std::cmp::Reverse((v.1.epoch, v.1.seq)));
        let mut stale = 0usize;
        let mut kept: Vec<Vec<(u64, IncarnationIdentity, Vec<Entry>)>> =
            (0..self.tables.len()).map(|_| Vec::new()).collect();
        let mut seen_seqs: Vec<HashSet<u64>> =
            (0..self.tables.len()).map(|_| HashSet::new()).collect();
        for (slot, identity, entries) in valid {
            let t = identity.table as usize;
            if !seen_seqs[t].insert(identity.seq) {
                stale += 1;
                continue;
            }
            if kept[t].len() >= self.tables[t].max_incarnations() {
                stale += 1;
                continue;
            }
            kept[t].push((slot, identity, entries));
        }

        let mut accepted = 0usize;
        let mut entries_recovered = 0usize;
        let mut owners: Vec<(u64, SlotOwner)> = Vec::new();
        for (t, list) in kept.iter().enumerate() {
            // Register oldest first so the filter bank's sliding window
            // and the incarnation queue come out youngest-first, exactly
            // as steady-state flushes build them.
            for (slot, identity, entries) in list.iter().rev() {
                let keys: Vec<Key> = entries.iter().map(|e| e.key).collect();
                self.tables[t].register_incarnation(
                    IncarnationMeta {
                        flash_offset: slot * slot_size,
                        entries: entries.len(),
                        seq: identity.seq,
                        epoch: identity.epoch,
                    },
                    &keys,
                );
                owners.push((*slot, SlotOwner { table: t, seq: identity.seq }));
                accepted += 1;
                entries_recovered += entries.len();
            }
        }
        self.allocator.restore(&owners);

        // Scrub torn slots on a medium that erases before it programs: a
        // power-cut write leaves pages programmed, and a slot that does not
        // start its erase block is only erased when the log next writes the
        // block's first slot — so an un-scrubbed torn slot would fail its
        // next program with dirty pages. Erase every fully-managed block
        // that overlaps a torn slot and no accepted one. Media that
        // overwrite in place need no scrub.
        if let Some(block_size) = self.allocator.erase_block() {
            let managed_end = num_slots * slot_size;
            let blocks_of = |slot: u64| {
                (slot * slot_size) / block_size..=(slot * slot_size + slot_size - 1) / block_size
            };
            let live: HashSet<u64> = owners.iter().flat_map(|(s, _)| blocks_of(*s)).collect();
            let mut scrubbed: HashSet<u64> = HashSet::new();
            for &slot in &torn_slots {
                for block in blocks_of(slot) {
                    let fully_managed = (block + 1) * block_size <= managed_end;
                    if fully_managed && !live.contains(&block) && scrubbed.insert(block) {
                        let _ = self.device.erase_block(block);
                    }
                }
            }
            // A torn slot whose block shares accepted data cannot be
            // scrubbed, and its half-programmed pages cannot be programmed
            // again. Step the write pointer past such slots so resumed
            // flushes land on clean pages — the log reclaims them when it
            // next erases their block.
            let dirty: Vec<u64> = torn_slots
                .iter()
                .copied()
                .filter(|&slot| blocks_of(slot).any(|b| !scrubbed.contains(&b)))
                .collect();
            self.allocator.skip_dirty(&dirty);
        }

        self.seq = self.seq.max(max_seq_seen);
        self.epoch = self.epoch.max(max_epoch_seen.saturating_add(1));
        CLAM_EPOCH.fetch_max(self.epoch, Ordering::Relaxed);
        self.stats.recoveries += 1;
        self.stats.recovered_incarnations += accepted as u64;
        self.stats.recovery_torn_slots += torn as u64;

        Ok(RecoveryReport {
            slots_scanned: num_slots,
            bytes_scanned: num_slots * slot_size,
            accepted,
            torn,
            stale,
            empty,
            entries_recovered,
            epoch: self.epoch,
            seq_resumed: self.seq,
            scan_makespan,
        })
    }
}
