//! The read pipeline: probe state machines streamed through the
//! completion ring.

use super::*;

impl<D: Device> Clam<D> {
    /// Delete-list and buffer checks plus probe planning: resolves every
    /// key it can without a page read (recording its stats) and returns a
    /// probe state machine for each key that must touch flash.
    fn plan_lookups(&mut self, keys: &[Key], dispatch: SimDuration) -> LookupPlan {
        // Input positions by super table, each table's keys in input
        // order: one hash per key, and one buffer however many tables
        // there are.
        let mut order: Vec<(usize, usize)> =
            keys.iter().enumerate().map(|(slot, &key)| (self.table_of(key), slot)).collect();
        order.sort_unstable();
        let mut plan = LookupPlan {
            out: vec![None; keys.len()],
            pending: Vec::new(),
            reinserts: Vec::new(),
            host_time: SimDuration::ZERO,
        };
        for (t, slot) in order {
            let key = keys[slot];
            let table = &self.tables[t];
            let hit = table.memory_lookup(key);
            // Candidate incarnations, youngest first, guided by the Bloom
            // filters (only needed when memory has no verdict).
            let candidates =
                if hit.is_none() { table.candidate_incarnations(key) } else { AgeSet::default() };
            let latency = dispatch + self.memory_probe_cost(table, hit);
            plan.host_time += latency;
            if let Some(hit) = hit {
                let (value, source) = match hit {
                    MemoryHit::Deleted => (None, LookupSource::Deleted),
                    MemoryHit::Buffer(value) => (Some(value), LookupSource::Buffer),
                };
                let outcome = LookupOutcome { value, latency, flash_reads: 0, source };
                self.stats.record_lookup(&outcome);
                plan.out[slot] = Some(outcome);
                continue;
            }
            let state = ProbeState {
                slot,
                key,
                table: t,
                latency,
                flash_reads: 0,
                candidates,
                meta: None,
                page_idx: 0,
                hops_left: 0,
            };
            if let Some(state) = self.walk(state, &mut plan.out, &mut plan.reinserts) {
                plan.pending.push(state);
            }
        }
        plan
    }

    /// DRAM time of one key's memory phase: the buffer probe and the
    /// filter query, as every lookup is charged, plus the stamp words for
    /// a key the delete list and the live buffer did not settle.
    fn memory_probe_cost(&self, table: &SuperTable, hit: Option<MemoryHit>) -> SimDuration {
        let stamp_words = if hit.is_some() { 0 } else { STAMP_PROBE_WORDS };
        self.mem_words_cost(BUFFER_PROBE_WORDS + table.filter_words_per_query() + stamp_words)
    }

    /// Flash offset of the page a probe state reads next.
    fn probe_offset(&self, state: &ProbeState) -> u64 {
        let meta = state.meta.expect("pending probes hold a candidate");
        self.layout.page_offset(meta.flash_offset, state.page_idx)
    }

    /// Steps one probe state machine on the page it just read (at
    /// `offset`). Returns the state and its next read offset while the key
    /// is unresolved; resolves it into `out` (recording stats and LRU
    /// re-insertions) otherwise.
    fn step_probe(
        &mut self,
        mut state: ProbeState,
        page: &[u8],
        offset: u64,
        out: &mut [Option<LookupOutcome>],
        reinserts: &mut Vec<(usize, Key, Value)>,
    ) -> Result<Option<(ProbeState, u64)>> {
        state.flash_reads += 1;
        let slot = state.slot;
        let layout = self.layout;
        let lookup = lookup_in_page(page, state.key).map_err(|e| annotate_offset(e, offset))?;
        // The page must be the one the probe meant to read: a misdirected
        // or stale page would answer for another incarnation.
        let meta = state.meta.expect("pending probes hold a candidate");
        let want =
            IncarnationIdentity { table: state.table as u16, seq: meta.seq, epoch: meta.epoch };
        let (found, page_idx) = page_identity(page);
        if (found, page_idx) != (want, state.page_idx as u32) {
            self.stats.page_identity_mismatches += 1;
            return Err(BufferHashError::CorruptIncarnation {
                flash_offset: offset,
                reason: format!(
                    "page {page_idx} of {found:?} read for page {} of {want:?}",
                    state.page_idx
                ),
            });
        }
        let pending = match lookup {
            PageLookup::Found(v) => {
                out[slot] =
                    Some(self.resolve_probe(state, Some((v, LookupSource::Flash)), reinserts));
                None
            }
            PageLookup::Continue if state.hops_left > 1 => {
                state.page_idx = layout.next_page(state.page_idx);
                state.hops_left -= 1;
                Some(state)
            }
            // Absent, or the overflow chain exhausted without a verdict.
            PageLookup::Absent | PageLookup::Continue => {
                self.stats.spurious_flash_reads += 1;
                self.walk(state, out, reinserts)
            }
        };
        Ok(pending.map(|state| {
            let next = self.probe_offset(&state);
            (state, next)
        }))
    }

    /// The streaming ring pipeline behind [`Clam::lookup`] and
    /// [`Clam::lookup_batch`]; `dispatch` is the fixed overhead charged to
    /// each key (full for per-op calls, amortized for batched ones).
    pub(super) fn lookup_batch_ring(
        &mut self,
        keys: &[Key],
        dispatch: SimDuration,
    ) -> Result<BatchLookupOutcome> {
        let mut batch = BatchLookupOutcome::default();
        if keys.is_empty() {
            return Ok(batch);
        }
        let page_size = self.layout.page_size;
        let LookupPlan { mut out, pending, mut reinserts, host_time } =
            self.plan_lookups(keys, dispatch);

        if !pending.is_empty() {
            // The probes run on the call's *shared* ring: LRU re-insertion
            // flushes (step 3) submit on the same ring, so their writes
            // overlap the tail of the probe traffic on the device timeline
            // instead of restarting the clock.
            let mut ring = CompletionRing::for_queue(self.device.queue());
            // Probes go out in waves. The first holds a bounded window of
            // keys: every read in a wave parks a page buffer, and a window
            // of a few requests per lane already keeps every lane busy.
            let window = probe_window(self.device.queue().ring_lanes());
            let mut waiting = pending.into_iter();
            // The probe state of each request of the wave, by its index.
            let mut states: Vec<Option<ProbeState>> = Vec::with_capacity(window);
            let mut requests = Vec::with_capacity(window);
            for state in waiting.by_ref().take(window) {
                let offset = self.probe_offset(&state);
                requests.push(RingRequest::new(IoRequest::read(offset, page_size)));
                states.push(Some(state));
            }
            let mut stalls = 0;

            // 1. Submit the wave and sync: the ring holds it in flight
            //    until its completions are in hand.
            // 2. Step each key's state machine on its page, by completion
            //    time, and re-arm the key's next read (causally floored at
            //    the completion that produced it), so later rounds of
            //    fast keys overlap earlier rounds of slow ones; a key that
            //    resolved hands its place in the next wave to the next
            //    waiting key, floored the same way. A failed read or a
            //    misdirected page fails the call after its wave: nothing is
            //    in flight then, and the call's ring state is still its
            //    default.
            while !requests.is_empty() {
                batch.probe_reads += requests.len();
                self.stats.lookup_probe_requests += requests.len() as u64;
                let done = self.device.submit(requests, &mut ring)?;
                ring.sync();
                stalls += done.iter().filter(|c| c.stalled).count();
                let mut wave = std::mem::take(&mut states);
                requests = Vec::with_capacity(done.len());
                for completion in done {
                    let mut state =
                        wave[completion.index].take().expect("one completion per request");
                    if completion.lane != 0 {
                        self.stats.lookup_probes_overlapped += 1;
                    }
                    let offset = self.probe_offset(&state);
                    let page = completion.result?;
                    state.latency += completion.latency;
                    let next =
                        match self.step_probe(state, &page, offset, &mut out, &mut reinserts)? {
                            Some(rearmed) => Some(rearmed),
                            None => waiting.next().map(|state| {
                                let first = self.probe_offset(&state);
                                (state, first)
                            }),
                        };
                    if let Some((state, offset)) = next {
                        requests.push(RingRequest::after(
                            IoRequest::read(offset, page_size),
                            completion.completed_at,
                        ));
                        states.push(Some(state));
                    }
                }
            }
            batch.probe_latency = ring.makespan();
            // Every request completes in its `submit` call.
            batch.reaps = batch.probe_reads;
            batch.ring_depth_high_water = ring.depth_high_water();
            self.stats.lookup_batches_submitted += 1;
            self.stats.lookup_ring_reaps += batch.reaps as u64;
            self.stats.lookup_ring_depth_high_water =
                self.stats.lookup_ring_depth_high_water.max(ring.depth_high_water() as u64);
            self.stats.lookup_ring_admission_stalls += stalls as u64;
            // The probe makespan is charged to this batch: mark it so the
            // write side only ever accounts its own growth.
            self.call =
                Call { horizon: ring.makespan(), read: true, ring: Some(ring), ..Call::default() };
        }

        // 3. LRU: re-insert items used from flash so they survive FIFO
        //    eviction of old incarnations. The paper performs this
        //    asynchronously, so its cost is not charged to the batch. The
        //    re-insertion flushes admit into the same ring as the probes
        //    (see above); `apply_reinserts` closes the ring when it has
        //    work, and a reinsert-free call closes it right after.
        self.apply_reinserts(reinserts)?;
        self.finish_ring()?;

        batch.latency = host_time + batch.probe_latency;
        batch.outcomes = out.into_iter().map(|o| o.expect("every key resolved")).collect();
        batch.waves = batch.outcomes.iter().map(|o| o.flash_reads).max().unwrap_or(0);
        self.stats.lookup_probe_waves += batch.waves as u64;
        Ok(batch)
    }

    /// Walks a probe on to its next live candidate incarnation, resetting
    /// the page-chain cursor, and returns it when that candidate must be
    /// read from flash. Resolves the key into `out` instead if a home slot
    /// of the key still holds the candidate's entry, which is the value
    /// the read would find (candidates go youngest first and the filters
    /// have no false negatives), or if no candidate is left (the key is
    /// not on flash).
    fn walk(
        &mut self,
        mut state: ProbeState,
        out: &mut [Option<LookupOutcome>],
        reinserts: &mut Vec<(usize, Key, Value)>,
    ) -> Option<ProbeState> {
        let table = &self.tables[state.table];
        let mut found = None;
        for age in state.candidates.by_ref() {
            let Some(meta) = table.incarnation_at(age) else { continue };
            if let Some(value) = table.slot_copy(state.key, age) {
                found = Some((value, LookupSource::Retired));
                break;
            }
            state.meta = Some(meta);
            state.page_idx = self.layout.page_of_key(state.key);
            state.hops_left = self.layout.num_pages();
            return Some(state);
        }
        let slot = state.slot;
        out[slot] = Some(self.resolve_probe(state, found, reinserts));
        None
    }

    /// Finishes one probe state machine: records the lookup statistics,
    /// queues the LRU re-insertion for a key an incarnation answered (from
    /// flash or from its slot copy), and builds the outcome.
    fn resolve_probe(
        &mut self,
        state: ProbeState,
        found: Option<(Value, LookupSource)>,
        reinserts: &mut Vec<(usize, Key, Value)>,
    ) -> LookupOutcome {
        let outcome = LookupOutcome {
            value: found.map(|(value, _)| value),
            latency: state.latency,
            flash_reads: state.flash_reads,
            source: found.map_or(LookupSource::Miss, |(_, source)| source),
        };
        self.stats.record_lookup(&outcome);
        if let Some(value) = outcome.value {
            if self.config.eviction.reinserts_on_use() {
                reinserts.push((state.table, state.key, value));
            }
        }
        outcome
    }
}

/// In-memory phase of a lookup batch: keys resolved from delete lists,
/// buffers or slot copies, probe state machines for the rest, plus
/// the host-side accounting.
struct LookupPlan {
    /// One slot per key; `Some` once the key resolved.
    out: Vec<Option<LookupOutcome>>,
    /// State machines for keys that must probe flash.
    pending: Vec<ProbeState>,
    /// LRU re-insertions queued by keys that already resolved.
    reinserts: Vec<(usize, Key, Value)>,
    /// Dispatch plus DRAM probe time of the whole batch.
    host_time: SimDuration,
}

/// Probe state machine for one key of a queued lookup batch: where the key
/// sits in its Bloom-guided candidate walk (which incarnation, which page
/// of the overflow chain) and the per-key accounting accumulated so far.
/// Each page read that completes advances it until a verdict is reached.
struct ProbeState {
    /// Position of the key in the caller's batch.
    slot: usize,
    key: Key,
    /// Super table owning the key.
    table: usize,
    /// Per-key charge accumulated so far (dispatch + DRAM probes + own
    /// page reads).
    latency: SimDuration,
    flash_reads: usize,
    /// Remaining candidate incarnation ages, youngest first.
    candidates: AgeSet,
    /// Candidate currently being probed (`Some` while pending).
    meta: Option<IncarnationMeta>,
    /// Page of the current candidate to read next.
    page_idx: usize,
    /// Overflow-chain hops left before the candidate is abandoned.
    hops_left: usize,
}
