//! The write path: the per-table insert and delete bodies, and under them
//! the flush, eviction and coalescing that ride the call's completion ring.

use super::*;

impl<D: Device> Clam<D> {
    // ------------------------------------------------------------------
    // The write path (`&self`: per-table op locks + core lock)
    // ------------------------------------------------------------------

    /// Per-op insert: takes only `key`'s table op lock plus the short core
    /// lock (for a flush and its ack drain, and to record the op in the
    /// ledger), so concurrent inserts to *different* tables of this stripe
    /// commit in parallel.
    pub fn fine_insert(&self, key: Key, value: Value) -> Result<InsertOutcome> {
        let t = self.table_of(key);
        let _guard = self.tables.lock_for_write(t);
        let mut outcome = None;
        self.insert_run(t, &[(key, value)], BASE_OP_OVERHEAD, |op| outcome = Some(op))?;
        let outcome = outcome.expect("a run of one yields one outcome");
        record_insert(&mut self.core.lock().stats, &outcome);
        Ok(outcome)
    }

    /// Per-op delete (op lock + a brief core lock for the ledger only —
    /// deletes never touch flash).
    pub fn fine_delete(&self, key: Key) -> Result<SimDuration> {
        let t = self.table_of(key);
        let _guard = self.tables.lock_for_write(t);
        let latency = BASE_OP_OVERHEAD + self.mem_words_cost(BUFFER_PROBE_WORDS + 2);
        self.tables.with(t, |table| table.delete(key));
        self.core.lock().stats.deletes.record(latency);
        Ok(latency)
    }

    /// Batched insert: groups the batch by super table and commits each
    /// table's ops, in input order, under that table's op lock, tables in
    /// ascending order, on the caller's thread — so other writers to
    /// *other* tables of the stripe proceed meanwhile, and one table op
    /// lock is held at a time. Flush writes coalesce over the whole batch
    /// and are drained (and charged) once at its end; per-op outcomes are
    /// folded into the ledger there too, under one core lock.
    pub fn fine_insert_batch(&self, ops: &[(Key, Value)]) -> Result<BatchInsertOutcome> {
        let mut outcome = BatchInsertOutcome { ops: ops.len(), ..Default::default() };
        if ops.is_empty() {
            return Ok(outcome);
        }
        let _batch = self.batch_lock.lock();
        // One run per table, in ascending table order, input order kept
        // within a run.
        let (grouped, starts) = group_stable(ops, self.tables.len(), |op| self.table_of(op.0));
        let dispatch = batch_dispatch(ops.len());
        let coalesced_before = {
            let mut core = self.core.lock();
            core.stats.batched_inserts += ops.len() as u64;
            core.coalesce_writes = true;
            core.stats.coalesced_flush_writes
        };
        let mut done = Vec::with_capacity(ops.len());
        let mut failure = None;
        for t in 0..self.tables.len() {
            let run = &grouped[starts[t]..starts[t + 1]];
            if run.is_empty() {
                continue;
            }
            let _guard = self.tables.lock_for_write(t);
            if let Err(e) = self.insert_run(t, run, dispatch, |op| done.push(op)) {
                failure = Some(e);
                break;
            }
        }
        // One core lock to record every op, close the coalescing window
        // and drain the write ring — even on failure, so the device stays
        // consistent with the in-memory incarnation metadata. Finished
        // coalesced runs were already *admitted* as they formed; this
        // drain admits the final run and reaps the ring, and only its
        // makespan is "deferred" time (charged to the batch, not to any
        // triggering insert). The outcomes are consumed, and so freed,
        // before the drain: kept alive across it they pin the top of the
        // heap while the drain frees the flush images under them (0.6 MiB
        // of arena growth over the benchmark's 1.2M-key preload).
        let mut core = self.core.lock();
        for op in done {
            record_insert(&mut core.stats, &op);
            outcome.latency += op.latency;
            outcome.flushed_ops += usize::from(op.flushed);
            outcome.evictions += op.evictions;
        }
        core.coalesce_writes = false;
        let drained = core.drain_write_ring()?;
        core.stats.deferred_flush_time += drained;
        if let Some(e) = failure {
            return Err(e);
        }
        outcome.latency += drained;
        outcome.coalesced_writes = (core.stats.coalesced_flush_writes - coalesced_before) as usize;
        Ok(outcome)
    }

    /// The insert body: applies `run` — ops of table `t`, in order — and
    /// hands each op's outcome to `done`; the caller holds `t`'s op lock
    /// and records the outcomes in the ledger ([`record_insert`]).
    /// `dispatch` is the fixed overhead charged to each op (full for a
    /// per-op call, amortized for a batched one).
    ///
    /// The state lock is taken once per run of buffer inserts, not once
    /// per key: it is held until the first key that finds the buffer full
    /// and released before that key's flush chain, which takes the core
    /// lock (and the state locks it needs) itself. A full buffer rejects
    /// a key before displacing anything, so retrying that key after the
    /// flush is side-effect free.
    fn insert_run(
        &self,
        t: usize,
        run: &[(Key, Value)],
        dispatch: SimDuration,
        mut done: impl FnMut(InsertOutcome),
    ) -> Result<()> {
        let latency = dispatch + self.mem_words_cost(BUFFER_PROBE_WORDS + 2);
        let mut rest = run;
        while !rest.is_empty() {
            let stored = self.tables.with(t, |table| {
                rest.iter()
                    .take_while(|&&(key, value)| {
                        matches!(table.buffer_insert(key, value), BufferInsert::Stored(_))
                    })
                    .count()
            });
            for _ in 0..stored {
                done(InsertOutcome { latency, flushed: false, evictions: 0 });
            }
            rest = &rest[stored..];
            if let Some((&(key, value), later)) = rest.split_first() {
                done(self.insert_after_flush(t, key, value, latency)?);
                rest = later;
            }
        }
        Ok(())
    }

    /// Stores a key that found table `t`'s buffer full: takes the core
    /// lock and runs the flush-then-retry loop under it — so allocator
    /// grant order equals ring admission order — then, outside a batch's
    /// coalescing window, drains the ring before the op is acknowledged.
    /// `latency` is what the op has been charged so far. Flush-side
    /// counters are recorded by the core itself.
    fn insert_after_flush(
        &self,
        t: usize,
        key: Key,
        value: Value,
        mut latency: SimDuration,
    ) -> Result<InsertOutcome> {
        let mut evictions = 0usize;
        // `attempts` doubles as the cascade depth: when partial-discard
        // eviction keeps retaining whole incarnations the policy degrades
        // to full discard after `k` rounds (§7.4), guaranteeing
        // termination.
        let mut attempts = 0usize;
        let mut core = self.core.lock();
        loop {
            match core.flush_table(&self.tables, t, attempts) {
                Ok(flush) => {
                    latency += flush.latency;
                    evictions += flush.evictions;
                    attempts += 1;
                }
                Err(e) => {
                    // Close the op's ring even on failure so in-flight
                    // writes are reaped and the device stays usable.
                    if !core.coalesce_writes {
                        core.drain_write_ring().ok();
                    }
                    return Err(e);
                }
            }
            let stored = self.tables.with(t, |table| table.buffer_insert(key, value));
            if matches!(stored, BufferInsert::Stored(_)) {
                break;
            }
        }
        // A per-op call owns its ring: the flush chain's device time (its
        // makespan, overlap-accounted) is charged to this insert. Batched
        // calls leave the ring open; the batch-end drain charges it.
        if !core.coalesce_writes {
            latency += core.drain_write_ring()?;
            // The acknowledgment point (DESIGN.md "Crash consistency"): a
            // per-op insert is acked only once nothing of its flush chain
            // remains deferred or in flight on the ring.
            debug_assert!(
                core.pending_run.is_none() && core.ring.is_none(),
                "insert acked with flush writes still in flight"
            );
        }
        Ok(InsertOutcome { latency, flushed: true, evictions })
    }
}

impl<D: Device> ClamCore<D> {
    // ------------------------------------------------------------------
    // Flush and eviction orchestration
    // ------------------------------------------------------------------

    /// One flush chain for table `t`: evict if the incarnation table is
    /// full, write the buffer out as a new incarnation, cascade on
    /// retained re-inserts. Writes are admitted to the call's shared
    /// completion ring without waiting, so they overlap each other and any
    /// probe traffic on the same ring.
    ///
    /// Runs entirely under one core lock, so the allocator grant and the
    /// ring admission of the resulting write are atomic — grant order *is*
    /// admission order, which devices apply as data-effect order (the ack
    /// invariant of DESIGN.md "Crash consistency").
    fn flush_table(&mut self, tables: &TableSet, t: usize, depth: usize) -> Result<FlushOutcome> {
        let mut latency = SimDuration::ZERO;
        let mut evictions = 0usize;

        // Make room in the incarnation table if needed, applying the
        // configured eviction policy. Beyond `k` cascades fall back to full
        // discard to guarantee termination (§7.4).
        let mut retained: Vec<Entry> = Vec::new();
        let (num_incarnations, max_incarnations) =
            tables.with(t, |table| (table.num_incarnations(), table.max_incarnations()));
        if num_incarnations >= max_incarnations {
            let policy =
                if depth >= max_incarnations { EvictionPolicy::Fifo } else { self.config.eviction };
            let (evict_lat, kept) = self.evict_oldest(tables, t, &policy)?;
            latency += evict_lat;
            retained = kept;
            evictions += 1;
        }

        // Write the buffer out as a new incarnation.
        let entries = tables.with(t, |table| table.drain_buffer());
        if !entries.is_empty() {
            let keys: Vec<Key> = entries.iter().map(|e| e.key).collect();
            let layout = self.layout;
            self.seq += 1;
            let seq = self.seq;
            let image = layout.serialize_identified(
                &entries,
                IncarnationIdentity { table: t as u16, seq, epoch: self.epoch },
            )?;
            let alloc = self.allocator.allocate(t, seq)?;
            // Force-evict incarnations whose slots this write reclaims.
            // The victim table's state lock is a leaf, so reclaiming
            // across tables never orders against another table's op.
            for owner in &alloc.displaced {
                let dropped = tables.with(owner.table, |table| table.force_evict_up_to(owner.seq));
                for meta in dropped {
                    // A no-op for the granted slot itself, which already
                    // names its new owner.
                    self.allocator.release(meta.flash_offset, meta.seq);
                    self.stats.forced_evictions += 1;
                }
            }
            if self.coalesce_writes && alloc.blocks_to_erase.is_empty() {
                // Batched path (SSD global log): coalesce into the current
                // contiguous run. A non-contiguous slot admits the finished
                // run to the ring first (see `push_coalesced_write`), so
                // flush traffic streams out mid-batch instead of pooling
                // behind the whole batch.
                self.push_coalesced_write(alloc.offset, image)?;
            } else {
                // Erase-before-program and write-after-write ordering both
                // rest on admission order: devices apply data effects in
                // admission order, and the ring's write-write conflict
                // floors keep the reported timing consistent with it. So
                // the deferred run, the erases and the incarnation write
                // are admitted back to back without waiting; their device
                // time is charged when the ring syncs (per-op end,
                // eviction read, or batch-end drain).
                self.admit_pending_writes()?;
                let mut requests: Vec<RingRequest> = alloc
                    .blocks_to_erase
                    .iter()
                    .map(|&block| RingRequest::new(IoRequest::Erase { block }))
                    .collect();
                requests.push(RingRequest::new(IoRequest::write(alloc.offset, image)));
                self.ring_admit(requests)?;
            }
            tables.with(t, |table| {
                table.register_incarnation(
                    IncarnationMeta { flash_offset: alloc.offset, entries: entries.len(), seq },
                    &keys,
                );
                table.prune_delete_list();
            });
            self.stats.flushes += 1;
        }

        // Re-insert retained entries; this can refill the buffer and cascade
        // into another flush (§7.4).
        for e in retained {
            self.stats.reinsertions += 1;
            loop {
                match tables.with(t, |table| table.buffer_insert(e.key, e.value)) {
                    BufferInsert::Stored(_) => break,
                    BufferInsert::Full => {
                        let inner = self.flush_table(tables, t, depth + 1)?;
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
    /// the eviction and any entries to retain (re-insert).
    fn evict_oldest(
        &mut self,
        tables: &TableSet,
        t: usize,
        policy: &EvictionPolicy,
    ) -> Result<(SimDuration, Vec<Entry>)> {
        let Some(oldest) = tables.with(t, |table| table.oldest_incarnation()) else {
            return Ok((SimDuration::ZERO, Vec::new()));
        };
        let mut latency = SimDuration::ZERO;
        let mut retained = Vec::new();

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
            let entries = parse_incarnation(&image, &layout)
                .map_err(|e| annotate_offset(e, oldest.flash_offset))?;
            tables.with(t, |table| {
                for e in entries {
                    if table.retain_decision(&e, policy) == RetainDecision::Retain {
                        retained.push(e);
                    }
                }
            });
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

        tables.with(t, |table| {
            table.drop_oldest_incarnation();
            table.prune_delete_list();
        });
        self.allocator.release(oldest.flash_offset, oldest.seq);
        Ok((latency, retained))
    }

    /// Queues one incarnation write for coalescing. The deferred set holds
    /// a single contiguous run: a write extending the run merges into it
    /// (one device command for the whole run), while a non-contiguous
    /// write **admits the finished run to the ring first**, so deferred
    /// flush traffic streams out as it forms instead of pooling until the
    /// batch ends.
    fn push_coalesced_write(&mut self, offset: u64, image: Vec<u8>) -> Result<()> {
        match &mut self.pending_run {
            Some((run_offset, run_image)) if offset == *run_offset + run_image.len() as u64 => {
                run_image.extend_from_slice(&image);
                self.stats.coalesced_flush_writes += 1;
            }
            _ => {
                self.admit_pending_writes()?;
                self.pending_run = Some((offset, image));
            }
        }
        Ok(())
    }

    /// Admits the deferred coalesced run (if any) to the call's shared
    /// ring without waiting.
    fn admit_pending_writes(&mut self) -> Result<()> {
        if let Some((offset, image)) = self.pending_run.take() {
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

    /// Applies the LRU re-insertions collected by a lookup call. Flush
    /// chains triggered here coalesce their incarnation writes and admit
    /// them into the call's shared completion ring (the same ring the
    /// probe reads ran on, so the writes overlap the probe tail) instead
    /// of looping blocking per-table writes; the asynchronous re-insert
    /// cost recorded in `ClamStats::async_reinsert_time` is the ring's
    /// makespan growth — makespan-accounted like every other flush.
    pub(super) fn apply_reinserts(
        &mut self,
        tables: &TableSet,
        reinserts: Vec<(usize, Key, Value)>,
    ) -> Result<()> {
        if reinserts.is_empty() {
            return Ok(());
        }
        let was_coalescing = self.coalesce_writes;
        self.coalesce_writes = true;
        let mut cost = SimDuration::ZERO;
        let mut failure = None;
        'reinserts: for (t, key, value) in reinserts {
            let mut attempts = 0usize;
            loop {
                match tables.with(t, |table| table.buffer_insert(key, value)) {
                    BufferInsert::Stored(_) => break,
                    BufferInsert::Full => match self.flush_table(tables, t, attempts) {
                        Ok(flush) => {
                            cost += flush.latency;
                            attempts += 1;
                        }
                        Err(e) => {
                            failure = Some(e);
                            break 'reinserts;
                        }
                    },
                }
            }
            self.stats.reinsertions += 1;
        }
        // Drain even on failure so the device matches the incarnation
        // metadata registered so far.
        self.coalesce_writes = was_coalescing;
        let drained = self.drain_write_ring();
        if let Some(e) = failure {
            return Err(e);
        }
        cost += drained?;
        self.stats.async_reinsert_time += cost;
        Ok(())
    }

    /// The whole-index flush behind [`Clam::flush_all`].
    pub(super) fn flush_all(&mut self, tables: &TableSet) -> Result<SimDuration> {
        let mut total = SimDuration::ZERO;
        let was_coalescing = self.coalesce_writes;
        self.coalesce_writes = true;
        let mut failure = None;
        for t in 0..tables.len() {
            if tables.with(t, |table| table.buffer_len()) > 0 {
                match self.flush_table(tables, t, 0) {
                    Ok(flush) => total += flush.latency,
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                }
            }
        }
        // Drain even on failure so the device matches the in-memory
        // incarnation metadata registered so far.
        self.coalesce_writes = was_coalescing;
        let drained = self.drain_write_ring();
        if let Some(e) = failure {
            return Err(e);
        }
        total += drained?;
        Ok(total)
    }
}
