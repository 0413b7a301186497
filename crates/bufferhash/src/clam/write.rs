//! The write path under [`Clam::insert`] and [`Clam::insert_batch`]: the
//! per-table insert body, the one flush loop (`flush_until_stored`) and
//! under it the flush, eviction and coalescing that ride the call's
//! completion ring. [`Clam::write_window`] is the only code that turns
//! coalescing on; `insert_batch`, `flush_all` and LRU re-insertion run
//! inside it.

use super::*;

impl<D: Device> Clam<D> {
    /// The insert body: applies `run` — ops of table `t`, in order —
    /// records each op in the ledger and hands its outcome to `done`.
    /// `dispatch` is the fixed overhead charged to each op (full for a
    /// per-op call, amortized for a batched one).
    ///
    /// The buffer is walked in runs: keys go in until the first one that
    /// finds the buffer full, which gets a flush chain. A full buffer
    /// rejects a key before displacing anything, so retrying that key
    /// after the flush is side-effect free.
    pub(super) fn insert_run(
        &mut self,
        t: usize,
        run: &[(Key, Value)],
        dispatch: SimDuration,
        mut done: impl FnMut(InsertOutcome),
    ) -> Result<()> {
        let latency = dispatch + self.mem_words_cost(BUFFER_PROBE_WORDS + 2);
        let mut rest = run;
        while !rest.is_empty() {
            let table = &mut self.tables[t];
            let stored = rest
                .iter()
                .take_while(|&&(key, value)| {
                    matches!(table.buffer_insert(key, value), BufferInsert::Stored(_))
                })
                .count();
            let plain = InsertOutcome { latency, flushed: false, evictions: 0 };
            self.stats.inserts.record_n(latency, stored as u64);
            (0..stored).for_each(|_| done(plain));
            rest = &rest[stored..];
            if let Some((&(key, value), later)) = rest.split_first() {
                let op = self.insert_after_flush(t, key, value, latency)?;
                self.stats.record_cascade(op.evictions.max(1));
                self.stats.inserts.record(op.latency);
                done(op);
                rest = later;
            }
        }
        Ok(())
    }

    /// Stores a key that found table `t`'s buffer full: runs the flush
    /// loop, then, outside a write window, drains the ring before the op
    /// is acknowledged. `latency` is what the op has been charged so far.
    /// Flush-side counters are recorded by the flush chain itself.
    fn insert_after_flush(
        &mut self,
        t: usize,
        key: Key,
        value: Value,
        latency: SimDuration,
    ) -> Result<InsertOutcome> {
        let chain = self.flush_until_stored(t, key, value);
        // A per-op call owns its ring: the flush chain's device time (its
        // makespan, overlap-accounted) is charged to this insert, and the
        // ring closes even on failure, so in-flight writes are reaped and
        // the device stays usable. Inside a write window the ring stays
        // open; the window's drain charges it.
        let drained =
            if self.call.coalescing { Ok(SimDuration::ZERO) } else { self.drain_write_ring() };
        let chain = chain?;
        // The acknowledgment point (DESIGN.md "Crash consistency"): a
        // per-op insert is acked only once nothing of its flush chain
        // remains deferred or in flight on the ring.
        debug_assert!(
            self.call.coalescing || (self.call.pending_run.is_none() && self.call.ring.is_none()),
            "insert acked with flush writes still in flight"
        );
        let latency = latency + chain.latency + drained?;
        Ok(InsertOutcome { latency, flushed: true, evictions: chain.evictions })
    }

    /// Flushes table `t` until its buffer takes `key`, which it has just
    /// refused. The attempt count is the cascade depth: when
    /// partial-discard eviction keeps retaining whole incarnations, the
    /// policy degrades to full discard after `k` rounds (§7.4), which
    /// guarantees termination.
    fn flush_until_stored(&mut self, t: usize, key: Key, value: Value) -> Result<FlushOutcome> {
        let mut chain = FlushOutcome::default();
        for attempts in 0.. {
            let flush = self.flush_table(t, attempts)?;
            chain.latency += flush.latency;
            chain.evictions += flush.evictions;
            if matches!(self.tables[t].buffer_insert(key, value), BufferInsert::Stored(_)) {
                break;
            }
        }
        Ok(chain)
    }

    // ------------------------------------------------------------------
    // Flush and eviction orchestration
    // ------------------------------------------------------------------

    /// One flush chain for table `t`: evict if the incarnation table is
    /// full, write the buffer out as a new incarnation, cascade on
    /// retained re-inserts. Writes are admitted to the call's shared
    /// completion ring without waiting, so they overlap each other and any
    /// probe traffic on the same ring.
    ///
    /// Runs on one `&mut self`, so the allocator grant and the ring
    /// admission of the resulting write cannot be separated — grant order
    /// *is* admission order, which devices apply as data-effect order (the
    /// ack invariant of DESIGN.md "Crash consistency").
    pub(super) fn flush_table(&mut self, t: usize, depth: usize) -> Result<FlushOutcome> {
        let mut latency = SimDuration::ZERO;
        let mut evictions = 0usize;

        // Make room in the incarnation table if needed, applying the
        // configured eviction policy. Beyond `k` cascades fall back to full
        // discard to guarantee termination (§7.4).
        let mut retained: Vec<Entry> = Vec::new();
        let max_incarnations = self.tables[t].max_incarnations();
        if self.tables[t].num_incarnations() >= max_incarnations {
            let policy =
                if depth >= max_incarnations { EvictionPolicy::Fifo } else { self.config.eviction };
            let (evict_lat, kept) = self.evict_oldest(t, &policy)?;
            latency += evict_lat;
            retained = kept;
            evictions += 1;
        }

        // Write the buffer out as a new incarnation.
        let entries = self.tables[t].drain_buffer();
        if !entries.is_empty() {
            let keys: Vec<Key> = entries.iter().map(|e| e.key).collect();
            let layout = self.layout;
            self.seq += 1;
            let (seq, epoch) = (self.seq, self.epoch);
            let image = layout.serialize_identified(
                &entries,
                IncarnationIdentity { table: t as u16, seq, epoch },
            )?;
            let alloc = self.allocator.allocate(t, seq);
            // Force-evict incarnations whose slots this write reclaims
            // (possibly another table's).
            for owner in &alloc.displaced {
                for meta in self.tables[owner.table].force_evict_up_to(owner.seq) {
                    // A no-op for the granted slot itself, which already
                    // names its new owner.
                    self.allocator.release(meta.flash_offset, meta.seq);
                    self.stats.forced_evictions += 1;
                }
            }
            if self.call.coalescing && alloc.blocks_to_erase.is_empty() {
                // Inside a write window (a write that erases nothing):
                // coalesce into the current contiguous run. A
                // non-contiguous slot admits the finished run to the ring
                // first (see `push_coalesced_write`), so flush traffic
                // streams out mid-batch instead of pooling behind the
                // whole batch.
                self.push_coalesced_write(alloc.offset, image)?;
            } else {
                // Erase-before-program and write-after-write ordering both
                // rest on admission order: devices apply data effects in
                // admission order, and the ring's write-write conflict
                // floors keep the reported timing consistent with it. So
                // the deferred run, the erases and the incarnation write
                // are admitted back to back without waiting; their device
                // time is charged when the ring syncs (per-op end,
                // eviction read, or the write window's drain).
                self.admit_pending_writes()?;
                let mut requests: Vec<RingRequest> = alloc
                    .blocks_to_erase
                    .iter()
                    .map(|&block| RingRequest::new(IoRequest::Erase { block }))
                    .collect();
                requests.push(RingRequest::new(IoRequest::write(alloc.offset, image)));
                self.ring_admit(requests)?;
            }
            let table = &mut self.tables[t];
            let meta =
                IncarnationMeta { flash_offset: alloc.offset, entries: entries.len(), seq, epoch };
            table.register_incarnation(meta, &keys);
            table.prune_delete_list();
            self.stats.flushes += 1;
        }

        // Re-insert retained entries; this can refill the buffer and cascade
        // into another flush (§7.4).
        for e in retained {
            self.stats.reinsertions += 1;
            loop {
                match self.tables[t].buffer_insert(e.key, e.value) {
                    BufferInsert::Stored(_) => break,
                    BufferInsert::Full => {
                        let inner = self.flush_table(t, depth + 1)?;
                        latency += inner.latency;
                        evictions += inner.evictions;
                    }
                }
            }
        }

        Ok(FlushOutcome { latency, evictions })
    }

    /// Evicts the oldest incarnation of table `t` under `policy` through
    /// the call's shared completion ring, returning the latency charged to
    /// the eviction and any entries to retain (re-insert). A
    /// partial-discard read that does not scan as that incarnation (CRC and
    /// identity) still evicts it, then fails with
    /// [`BufferHashError::CorruptIncarnation`] at its slot's offset.
    fn evict_oldest(
        &mut self,
        t: usize,
        policy: &EvictionPolicy,
    ) -> Result<(SimDuration, Vec<Entry>)> {
        let Some(oldest) = self.tables[t].oldest_incarnation() else {
            return Ok((SimDuration::ZERO, Vec::new()));
        };
        let mut latency = SimDuration::ZERO;
        let mut retained = Ok(Vec::new());

        if policy.uses_partial_discard() {
            // The incarnation image may still sit in the deferred run or in
            // flight on the ring, so admit the run first: the scan read is
            // admitted *after* it, and admission order is data-effect
            // order, so the read observes the written bytes while the
            // read-after-write conflict floor keeps its start time honest.
            // The reclaiming TRIM is admitted behind the read for the same
            // reason (write-write floor against the read's range).
            self.admit_pending_writes()?;
            let layout = self.layout;
            let tickets = self.ring_admit(vec![
                RingRequest::new(IoRequest::read(oldest.flash_offset, layout.total_bytes())),
                RingRequest::new(IoRequest::Trim {
                    offset: oldest.flash_offset,
                    len: layout.total_bytes() as u64,
                }),
            ])?;
            let read_ticket = tickets[0];
            // The retain scan needs the page bytes back, so this is a sync
            // point: everything in flight — including unrelated flush
            // writes, which overlap the read on the ring's lanes — is
            // reaped, and the ring's makespan growth is charged to the
            // eviction.
            let (sync_lat, completions) = self.sync_ring()?;
            latency += sync_lat;
            let image = completions
                .into_iter()
                .find(|c| c.ticket == read_ticket)
                .and_then(|c| c.result.ok())
                .expect("read completion checked");
            // Deciding staleness also probes the in-memory filters.
            latency += self.mem_words_cost(oldest.entries * 2);
            // Retained entries go back into the buffer and from there to
            // a fresh page under a fresh CRC, so the read must prove it is
            // the incarnation being evicted, CRC and identity both.
            // Anything else retains nothing: the slot is reclaimed as a
            // full discard would (its TRIM is admitted already), and the
            // call fails.
            let want =
                IncarnationIdentity { table: t as u16, seq: oldest.seq, epoch: oldest.epoch };
            retained = match scan_incarnation(&image, &layout) {
                SlotScan::Valid { identity, entries } if identity == want => {
                    let table = &self.tables[t];
                    Ok(entries
                        .into_iter()
                        .filter(|e| table.retain_decision(e, policy) == RetainDecision::Retain)
                        .collect())
                }
                scan => Err(BufferHashError::CorruptIncarnation {
                    flash_offset: oldest.flash_offset,
                    reason: match scan {
                        SlotScan::Valid { identity, .. } => format!("{want:?} holds {identity:?}"),
                        SlotScan::Torn { reason } => format!("{want:?}: {reason}"),
                        SlotScan::Empty => format!("{want:?}: the slot is empty"),
                    },
                }),
            };
        } else {
            // Full discard reclaims the slot with a TRIM admitted to the
            // ring; it is floored behind any in-flight write of the same
            // range, and its (zero or small) device time lands in the next
            // sync's makespan delta.
            let total = self.layout.total_bytes() as u64;
            self.ring_admit(vec![RingRequest::new(IoRequest::Trim {
                offset: oldest.flash_offset,
                len: total,
            })])?;
        }

        self.tables[t].drop_oldest_incarnation();
        self.tables[t].prune_delete_list();
        self.allocator.release(oldest.flash_offset, oldest.seq);
        retained.map(|kept| (latency, kept))
    }

    /// Queues one incarnation write for coalescing. The deferred set holds
    /// a single contiguous run: a write extending the run merges into it
    /// (one device command for the whole run), while a non-contiguous
    /// write **admits the finished run to the ring first**, so deferred
    /// flush traffic streams out as it forms instead of pooling until the
    /// batch ends.
    fn push_coalesced_write(&mut self, offset: u64, image: Vec<u8>) -> Result<()> {
        match &mut self.call.pending_run {
            Some((run_offset, run_image)) if offset == *run_offset + run_image.len() as u64 => {
                run_image.extend_from_slice(&image);
                self.stats.coalesced_flush_writes += 1;
            }
            _ => {
                self.admit_pending_writes()?;
                self.call.pending_run = Some((offset, image));
            }
        }
        Ok(())
    }

    /// Admits the deferred coalesced run (if any) to the call's shared
    /// ring without waiting.
    fn admit_pending_writes(&mut self) -> Result<()> {
        if let Some((offset, image)) = self.call.pending_run.take() {
            self.ring_admit(vec![RingRequest::new(IoRequest::write(offset, image))])?;
        }
        Ok(())
    }

    /// Flushes the write side of the current call: admits any deferred run
    /// and closes the shared ring, returning the device time charged to
    /// the caller (the ring's makespan growth since the last sync).
    fn drain_write_ring(&mut self) -> Result<SimDuration> {
        let admitted = self.admit_pending_writes();
        let finished = self.finish_ring();
        admitted?;
        finished
    }

    /// The call's write window, the only place that turns coalescing on:
    /// runs `body` with flush writes coalescing into contiguous runs, then
    /// admits the last run and closes the ring — even when `body` failed,
    /// so the device matches the incarnation metadata registered so far
    /// and nothing is left in flight. Returns `body`'s value and the
    /// drained device time; `body`'s error comes first.
    pub(super) fn write_window<T>(
        &mut self,
        body: impl FnOnce(&mut Self) -> Result<T>,
    ) -> Result<(T, SimDuration)> {
        self.call.coalescing = true;
        let value = body(self);
        // Closing the ring restores `Call::default()`: coalescing is off.
        let drained = self.drain_write_ring();
        Ok((value?, drained?))
    }

    /// Applies the LRU re-insertions collected by a lookup call in a write
    /// window, so their flush chains coalesce and admit into the ring the
    /// probe reads ran on (the writes overlap the probe tail). The
    /// asynchronous re-insert cost recorded in
    /// `ClamStats::async_reinsert_time` is the ring's makespan growth —
    /// makespan-accounted like every other flush.
    pub(super) fn apply_reinserts(&mut self, reinserts: Vec<(usize, Key, Value)>) -> Result<()> {
        if reinserts.is_empty() {
            return Ok(());
        }
        let (flushed, drained) = self.write_window(|clam| {
            let mut cost = SimDuration::ZERO;
            for (t, key, value) in reinserts {
                if !matches!(clam.tables[t].buffer_insert(key, value), BufferInsert::Stored(_)) {
                    cost += clam.flush_until_stored(t, key, value)?.latency;
                }
                clam.stats.reinsertions += 1;
            }
            Ok(cost)
        })?;
        self.stats.async_reinsert_time += flushed + drained;
        Ok(())
    }
}
