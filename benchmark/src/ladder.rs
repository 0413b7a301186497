//! The layer ladder: the same seeded operation stream, closed loop, driven
//! at successively deeper entry points of the program.
//!
//! | depth | entry point | what it leaves out |
//! |---|---|---|
//! | `wire` | frames over TCP to `ClamdServer` | nothing |
//! | `batcher` | `Engine::submit`, replies off the response channel | sockets, frames, reader and writer threads |
//! | `store` | `StripedClam` batch calls shaped like the batcher's gathers | queues, linger, sequencing |
//! | `clam` | each stripe's `Clam` through `SharedClam::with`, one thread | stripe dispatch, fast path, table locks |
//! | `device` | the `clam` depth's reads and writes, replayed on a bare device | everything but the device |
//!
//! A layer's self time is its depth's wall time per key minus the next
//! depth's, so the self times sum to the `wire` time by construction. Each
//! depth starts from its own fresh set-up, so all see the same store. A
//! self time can be negative: the depth above overlaps work on several
//! threads (four batcher shards, scoped stripe threads) that the depth
//! below runs on one, and the depths run minutes apart on a host whose
//! speed drifts.
//!
//! `engine-direct`'s own phases enter at `store`. Its ladder still climbs
//! from `wire`, serving the caller's stream through `clamd` on one
//! connection: what putting that caller behind the service would add.

use std::path::Path;
use std::time::Instant;

use bufferhash::{Key, SharedClam, Value};
use clamd::proto::{self, Op, Request, RespBody, Response};
use clamd::Engine;
use flashsim::{CompletionRing, Device, IoRequest, IoStats, RingRequest, SharedDevice};

use crate::gen::{run_conns, run_engine_conns, Conn, Phase, Tally};
use crate::measure::{flatten_sorted, percentile};
use crate::ops::{Expect, Kind, OpStream, Planned};
use crate::spec::{Workload, LADDER_KEYS, STRIPES};
use crate::store::{server_config, set_up, BoxError, Medium, Store};
use crate::trace::{ladder_self_times, Span, Trace};

/// The per-layer metric each depth's self time is reported as.
const LAYERS: [&str; 5] = [
    "server.self_us_per_op",
    "batcher.self_us_per_op",
    "shared.self_us_per_op",
    "clam.self_us_per_op",
    "device.us_per_op",
];

#[derive(Default)]
pub struct Ladder {
    /// Wall µs per key at each depth the workload crosses, outermost
    /// first, under the name of the layer that depth enters.
    depths: Vec<(&'static str, f64)>,
    pub keys: u64,
    pub frames: u64,
    pub encode_ns_per_frame: f64,
    pub decode_ns_per_frame: f64,
    pub roundtrip_p50_us: f64,
    pub roundtrip_p99_us: f64,
    pub roundtrips: u64,
    pub read_page_wall_us_p50: f64,
    pub write_run_wall_us_p50: f64,
}

impl Ladder {
    /// Self time of every layer, outermost first.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        ladder_self_times(&self.depths)
    }
}

/// One call into the store, with the result it must give.
enum Call {
    Insert(Vec<(Key, Value)>),
    Lookup(Vec<Key>, Vec<Option<Value>>),
    Delete(Key),
}

impl Call {
    fn keys(&self) -> u64 {
        match self {
            Call::Insert(pairs) => pairs.len() as u64,
            Call::Lookup(keys, _) => keys.len() as u64,
            Call::Delete(_) => 1,
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Call::Insert(_) => "insert_batch",
            Call::Lookup(..) => "lookup_batch",
            Call::Delete(_) => "delete",
        }
    }

    fn first_key(&self) -> Key {
        match self {
            Call::Insert(pairs) => pairs[0].0,
            Call::Lookup(keys, _) => keys[0],
            Call::Delete(key) => *key,
        }
    }

    /// Appends `other` if it is the same kind of batch call.
    fn absorb(&mut self, other: Call) -> Option<Call> {
        match (self, other) {
            (Call::Insert(mine), Call::Insert(theirs)) => mine.extend(theirs),
            (Call::Lookup(keys, want), Call::Lookup(more_keys, more_want)) => {
                keys.extend(more_keys);
                want.extend(more_want);
            }
            (_, other) => return Some(other),
        }
        None
    }

    /// This call as one call per stripe it touches.
    fn split(self, route: impl Fn(Key) -> usize) -> Vec<Call> {
        let mut parts: Vec<Option<Call>> = (0..STRIPES).map(|_| None).collect();
        let mut add = |key: Key, piece: Call| match &mut parts[route(key)] {
            Some(part) => drop(part.absorb(piece)),
            empty => *empty = Some(piece),
        };
        match self {
            Call::Insert(pairs) => pairs.into_iter().for_each(|p| add(p.0, Call::Insert(vec![p]))),
            Call::Lookup(keys, want) => {
                keys.into_iter().zip(want).for_each(|(k, w)| add(k, Call::Lookup(vec![k], vec![w])))
            }
            Call::Delete(key) => add(key, Call::Delete(key)),
        }
        parts.into_iter().flatten().collect()
    }
}

fn call_of(planned: Planned) -> Call {
    match (planned.op, planned.expect) {
        (Op::Insert { key, value }, _) => Call::Insert(vec![(key, value)]),
        (Op::InsertBatch(pairs), _) => Call::Insert(pairs),
        (Op::Lookup { key }, Expect::Value(want)) => Call::Lookup(vec![key], vec![want]),
        (Op::LookupBatch(keys), Expect::Values(want)) => Call::Lookup(keys, want),
        (Op::Delete { key }, _) => Call::Delete(key),
        (op, expect) => unreachable!("the stream never plans {op:?} expecting {expect:?}"),
    }
}

/// The store calls that serve [`LADDER_KEYS`] keys of the workload's
/// stream. A serving workload's operations arrive round-robin from its
/// connections and are grouped as the batcher groups them: every
/// `gather` operations per shard, each shard's share cut into maximal
/// same-kind runs, one store call per run. `engine-direct`'s operations
/// are its calls.
fn plan_calls(
    w: &'static Workload,
    seed: u64,
    conns: usize,
    gather: usize,
    route: impl Fn(Key) -> usize + Copy,
) -> Vec<Call> {
    let mut streams: Vec<OpStream> = (0..conns).map(|c| OpStream::new(w, seed, c, conns)).collect();
    let per_conn = LADDER_KEYS / conns as u64;
    let mut arrivals = Vec::new();
    for round in 0.. {
        if round * w.batch as u64 >= per_conn {
            break;
        }
        arrivals.extend(streams.iter_mut().map(|s| call_of(s.next_op())));
    }
    if !w.wire {
        return arrivals;
    }
    let mut calls = Vec::new();
    let mut arrivals = arrivals.into_iter().peekable();
    while arrivals.peek().is_some() {
        let mut shards: Vec<Vec<Call>> = (0..STRIPES).map(|_| Vec::new()).collect();
        for piece in arrivals.by_ref().take(gather * STRIPES).flat_map(|call| call.split(route)) {
            let shard = &mut shards[route(piece.first_key())];
            let rest = match shard.last_mut() {
                Some(run) => run.absorb(piece),
                None => Some(piece),
            };
            shard.extend(rest);
        }
        calls.extend(shards.into_iter().flatten());
    }
    calls
}

fn matches(got: impl Iterator<Item = Option<Value>>, want: &[Option<Value>]) -> bool {
    got.zip(want).all(|(g, w)| g == *w)
}

/// Runs `calls` through `run`, one span per call; returns wall seconds
/// and keys served. A call that gives a wrong result fails the depth.
fn time_calls(
    calls: &[Call],
    layer: &'static str,
    trace: &mut Trace,
    mut run: impl FnMut(&Call) -> bool,
) -> Result<(f64, u64), BoxError> {
    let depth = trace.open(layer, 0);
    let origin = trace.now_ns();
    let mut spans = Vec::with_capacity(if trace.enabled() { calls.len() } else { 0 });
    let (mut keys, mut wrong) = (0, 0);
    let started = Instant::now();
    for (i, call) in calls.iter().enumerate() {
        let from = started.elapsed().as_nanos() as u64;
        wrong += u64::from(!run(call));
        keys += call.keys();
        if trace.enabled() {
            spans.push(Span {
                name: call.name(),
                start_ns: origin + from,
                end_ns: origin + started.elapsed().as_nanos() as u64,
                parent: depth,
                request: i as u64 + 1,
            });
        }
    }
    let seconds = started.elapsed().as_secs_f64();
    trace.close(depth);
    trace.extend(spans);
    if wrong > 0 {
        return Err(format!("{wrong} wrong results at the {layer} depth of the ladder").into());
    }
    Ok((seconds, keys))
}

fn store_call<M: Medium>(store: &Store<M>, call: &Call) -> bool {
    match call {
        Call::Insert(pairs) => store.insert_batch(pairs).is_ok(),
        // A lone lookup takes the route the batcher's idle-shard bypass
        // takes: the lock-free fast path, then the locked one.
        Call::Lookup(keys, want) if keys.len() == 1 => store
            .try_fast_lookup(keys[0])
            .map_or_else(|| store.lookup(keys[0]).ok(), Some)
            .is_some_and(|found| found.value == want[0]),
        Call::Lookup(keys, want) => store
            .lookup_batch(keys)
            .is_ok_and(|out| matches(out.outcomes.iter().map(|o| o.value), want)),
        Call::Delete(key) => store.delete(*key).is_ok(),
    }
}

fn clam_call<M: Medium>(stripe: &SharedClam<SharedDevice<M>>, call: &Call) -> bool {
    stripe.with(|clam| match call {
        Call::Insert(pairs) => clam.insert_batch(pairs).is_ok(),
        Call::Lookup(keys, want) => clam
            .lookup_batch(keys)
            .is_ok_and(|out| matches(out.outcomes.iter().map(|o| o.value), want)),
        Call::Delete(key) => clam.delete(*key).is_ok(),
    })
}

/// Single reads and single writes timed on the bare device for the two
/// `device.*_wall_us_p50` readings, whatever the workload's mix held.
pub const PRIMITIVE_SAMPLES: u64 = 500;
/// Length of a sampled write when the mix has none to take it from: one
/// table's buffer, the unit the CLAM flushes in.
const FLUSH_BYTES: u64 = 32 * 1024;

/// Replays the reads and writes `mix` counts on a bare device of the
/// workload's kind: writes one at a time as flushes go, reads `wave` at a
/// time as one lookup call's probes go. Returns the replay's wall
/// seconds, then the median wall µs of one write and of one page read
/// alone on the device.
fn replay_device<M: Medium>(
    image: &Path,
    mix: &IoStats,
    wave: u64,
    trace: &mut Trace,
) -> Result<(f64, f64, f64), BoxError> {
    let mut device = M::create(image)?;
    let geometry = device.geometry();
    let page = geometry.page_size as u64;
    let mut ring = CompletionRing::for_queue(device.queue());
    let mut submit = |requests: Vec<IoRequest>| -> Result<(), BoxError> {
        device.submit_nowait(requests.into_iter().map(RingRequest::new).collect(), &mut ring)?;
        while ring.in_flight() > 0 {
            device.reap(&mut ring, usize::MAX)?;
        }
        Ok(())
    };
    let write_len = match mix.writes {
        0 => FLUSH_BYTES,
        writes => (mix.bytes_written / writes / page).max(1) * page,
    };
    let slots = (geometry.capacity / write_len).max(1);
    let write = |i: u64| IoRequest::write(i % slots * write_len, vec![0xA5; write_len as usize]);
    // Deterministic, well-spread page choice.
    let pages = geometry.capacity / page;
    let read = |i: u64| {
        IoRequest::read(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % pages * page, page as usize)
    };

    let depth = trace.open("device", 0);
    let started = Instant::now();
    for i in 0..mix.writes {
        submit(vec![write(i)])?;
    }
    for first in (0..mix.reads).step_by(wave as usize) {
        submit((first..(first + wave).min(mix.reads)).map(read).collect())?;
    }
    let seconds = started.elapsed().as_secs_f64();
    trace.close(depth);

    let mut p50_us = |request: &dyn Fn(u64) -> IoRequest| -> Result<f64, BoxError> {
        let mut ns = Vec::with_capacity(PRIMITIVE_SAMPLES as usize);
        for i in 0..PRIMITIVE_SAMPLES {
            let request = request(i);
            let from = Instant::now();
            submit(vec![request])?;
            ns.push(from.elapsed().as_nanos() as u64);
        }
        ns.sort_unstable();
        Ok(ns[ns.len() / 2] as f64 / 1e3)
    };
    Ok((seconds, p50_us(&write)?, p50_us(&read)?))
}

/// Encodes and decodes every frame the `wire` depth exchanges, one span
/// per thousand frames. Returns frames and ns per frame to encode and to
/// decode.
fn proto_pass(
    w: &'static Workload,
    seed: u64,
    conns: usize,
    trace: &mut Trace,
) -> Result<(u64, f64, f64), BoxError> {
    const SPAN_FRAMES: usize = 1000;
    let mut requests = Vec::new();
    let mut replies = Vec::new();
    for conn in 0..conns {
        let mut stream = OpStream::new(w, seed, conn, conns);
        let mut keys = 0;
        while keys < LADDER_KEYS / conns as u64 {
            let planned = stream.next_op();
            keys += planned.keys();
            let id = requests.len() as u64 + 1;
            let found = |v: Option<Value>| (v.is_some(), v.unwrap_or(0));
            let body = match planned.expect {
                Expect::Inserted => RespBody::Inserted,
                Expect::InsertedBatch(count) => RespBody::InsertedBatch { count },
                Expect::Deleted => RespBody::Deleted,
                Expect::Value(v) => RespBody::Value { found: found(v).0, value: found(v).1 },
                Expect::Values(vs) => RespBody::Values(vs.into_iter().map(found).collect()),
            };
            requests.push(Request { id, op: planned.op });
            replies.push(Response { id, body });
        }
    }
    let parent = trace.open("proto", 0);
    let timed =
        |name: &'static str, trace: &mut Trace, work: &mut dyn FnMut() -> Result<(), BoxError>| {
            let span = trace.open(name, parent);
            let from = Instant::now();
            let done = work();
            let ns = from.elapsed().as_nanos() as f64;
            trace.close(span);
            done.map(|()| ns)
        };
    let (mut encode_ns, mut decode_ns) = (0.0, 0.0);
    let mut buf = Vec::new();
    for (reqs, reps) in requests.chunks(SPAN_FRAMES).zip(replies.chunks(SPAN_FRAMES)) {
        buf.clear();
        encode_ns += timed("proto.encode_request", trace, &mut || {
            reqs.iter().for_each(|r| proto::encode_request(r, &mut buf));
            Ok(())
        })?;
        decode_ns += timed("proto.decode_request", trace, &mut || {
            let mut at = 0;
            for want in reqs {
                let (got, used) = proto::decode_request(&buf[at..])?.ok_or("truncated frame")?;
                at += used;
                if got != *want {
                    return Err("request did not survive the wire format".into());
                }
            }
            Ok(())
        })?;
        buf.clear();
        encode_ns += timed("proto.encode_response", trace, &mut || {
            reps.iter().for_each(|r| proto::encode_response(r, &mut buf));
            Ok(())
        })?;
        decode_ns += timed("proto.decode_response", trace, &mut || {
            let mut at = 0;
            for want in reps {
                let (got, used) = proto::decode_response(&buf[at..])?.ok_or("truncated frame")?;
                at += used;
                if got != *want {
                    return Err("reply did not survive the wire format".into());
                }
            }
            Ok(())
        })?;
    }
    trace.close(parent);
    let frames = 2 * requests.len() as u64;
    Ok((frames, encode_ns / frames as f64, decode_ns / frames as f64))
}

/// A ladder depth's phase, its requests traced under `parent`.
fn ladder_phase(per_conn: u64, parent: u32, trace: &Trace) -> Phase {
    Phase {
        trace_parent: trace.enabled().then_some(parent),
        origin_ns: trace.now_ns(),
        ..Phase::of_keys(per_conn)
    }
}

/// Hands a depth's spans to the trace; a depth that got a wrong reply is
/// no measurement.
fn settled(tally: std::io::Result<Tally>, trace: &mut Trace) -> Result<Tally, BoxError> {
    let mut tally = tally?;
    trace.extend(std::mem::take(&mut tally.spans));
    if tally.failed > 0 {
        return Err(format!("{} wrong replies while climbing the ladder", tally.failed).into());
    }
    Ok(tally)
}

pub fn climb<M: Medium>(
    w: &'static Workload,
    seed: u64,
    conns: usize,
    image: &Path,
    trace: &mut Trace,
) -> Result<Ladder, BoxError> {
    let mut ladder = Ladder::default();
    let per_conn = LADDER_KEYS / conns as u64;
    let us_per_key = |seconds: f64, keys: u64| seconds * 1e6 / keys.max(1) as f64;

    // wire: the whole program.
    let server =
        clamd::ClamdServer::start(set_up::<M>(w, seed, image)?.store, Vec::new(), server_config())?;
    let mut clients = (0..conns)
        .map(|c| Conn::connect(server.local_addr(), OpStream::new(w, seed, c, conns)))
        .collect::<std::io::Result<Vec<_>>>()?;
    let depth = trace.open("wire", 0);
    let tally = run_conns(&mut clients, &ladder_phase(per_conn, depth, trace));
    trace.close(depth);
    let tally = settled(tally, trace)?;
    ladder.depths.push((LAYERS[0], us_per_key(tally.elapsed.as_secs_f64(), tally.keys)));
    drop(clients);
    drop(server);

    // batcher: the same closed loop with the sockets taken away.
    let engine =
        Engine::start(set_up::<M>(w, seed, image)?.store, Vec::new(), server_config().batcher);
    let depth = trace.open("batcher", 0);
    let tally = run_engine_conns(&engine, w, seed, conns, &ladder_phase(per_conn, depth, trace));
    trace.close(depth);
    let tally = settled(tally, trace)?;
    ladder.depths.push((LAYERS[1], us_per_key(tally.elapsed.as_secs_f64(), tally.keys)));
    let mut roundtrips = flatten_sorted(&tally.latency[Kind::Lookup as usize]);
    roundtrips.extend(flatten_sorted(&tally.latency[Kind::Insert as usize]));
    roundtrips.sort_unstable();
    ladder.roundtrips = roundtrips.len() as u64;
    ladder.roundtrip_p50_us = percentile(&roundtrips, 0.5).unwrap_or(0) as f64 / 1e3;
    ladder.roundtrip_p99_us = percentile(&roundtrips, 0.99).unwrap_or(0) as f64 / 1e3;
    let gather = (engine.stats().mean_batch().round() as usize).max(1);
    engine.shutdown();

    (ladder.frames, ladder.encode_ns_per_frame, ladder.decode_ns_per_frame) =
        proto_pass(w, seed, conns, trace)?;

    // store: StripedClam's own entry points.
    let at_store = set_up::<M>(w, seed, image)?;
    let route = |key| at_store.store.stripe_index(key);
    let calls = plan_calls(w, seed, conns, gather, route);
    let (seconds, keys) =
        time_calls(&calls, "store", trace, |call| store_call(&at_store.store, call))?;
    ladder.depths.push((LAYERS[2], us_per_key(seconds, keys)));
    ladder.keys = keys;
    drop(at_store);

    // clam: each stripe's Clam, no dispatch.
    let at_clam = set_up::<M>(w, seed, image)?;
    let route = |key| at_clam.store.stripe_index(key);
    let stripes: Vec<_> =
        (0..STRIPES).map(|i| at_clam.store.stripe(i).expect("STRIPES stripes")).collect();
    let calls: Vec<Call> = calls.into_iter().flat_map(|call| call.split(route)).collect();
    let before = at_clam.device.stats();
    let (seconds, keys) = time_calls(&calls, "clam", trace, |call| {
        clam_call(&stripes[route(call.first_key())], call)
    })?;
    ladder.depths.push((LAYERS[3], us_per_key(seconds, keys)));
    let after = at_clam.device.stats();
    drop((stripes, at_clam));

    // device: what the clam depth asked of it, and nothing else.
    let mix = IoStats {
        reads: after.reads - before.reads,
        writes: after.writes - before.writes,
        bytes_written: after.bytes_written - before.bytes_written,
        ..IoStats::default()
    };
    let lookup_calls = calls.iter().filter(|c| matches!(c, Call::Lookup(..))).count() as u64;
    let wave = mix.reads.div_ceil(lookup_calls.max(1)).max(1);
    let (seconds, write_us, read_us) = replay_device::<M>(image, &mix, wave, trace)?;
    ladder.depths.push((LAYERS[4], us_per_key(seconds, keys)));
    (ladder.write_run_wall_us_p50, ladder.read_page_wall_us_p50) = (write_us, read_us);
    Ok(ladder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    fn route(key: Key) -> usize {
        (key % STRIPES as u64) as usize
    }

    #[test]
    fn shaped_calls_keep_every_key_in_order_and_on_one_stripe() {
        let w = &WORKLOADS[1];
        let calls = plan_calls(w, 5, 2, 3, route);
        let mut keys = 0;
        for call in &calls {
            keys += call.keys();
            let stripe = route(call.first_key());
            let all_on_stripe = match call {
                Call::Insert(pairs) => pairs.iter().all(|p| route(p.0) == stripe),
                Call::Lookup(keys, want) => {
                    assert_eq!(keys.len(), want.len());
                    keys.iter().all(|&k| route(k) == stripe)
                }
                Call::Delete(_) => true,
            };
            assert!(all_on_stripe);
        }
        assert!((LADDER_KEYS..LADDER_KEYS + 2).contains(&keys));
        // Same inputs, same plan.
        let again = plan_calls(w, 5, 2, 3, route);
        assert_eq!(calls.len(), again.len());
    }

    #[test]
    fn direct_calls_are_the_operations_themselves() {
        let w = &WORKLOADS[3];
        let calls = plan_calls(w, 5, 1, 1, route);
        let batch = w.batch as u64;
        assert_eq!(calls.len() as u64, LADDER_KEYS.div_ceil(batch));
        assert!(calls.iter().all(|c| c.keys() == batch));
        // Split, each is at most one call per stripe and loses no key.
        let whole: u64 = calls.iter().map(Call::keys).sum();
        let split: Vec<Call> = calls.into_iter().flat_map(|c| c.split(route)).collect();
        assert_eq!(split.iter().map(Call::keys).sum::<u64>(), whole);
        assert!(split.iter().all(|c| c.keys() <= batch));
    }

    #[test]
    fn self_times_name_their_layers_and_sum_to_the_wire_depth() {
        let depths = [12.0, 9.5, 6.0, 2.5, 0.5];
        let ladder =
            Ladder { depths: LAYERS.into_iter().zip(depths).collect(), ..Ladder::default() };
        let selfs = ladder.self_times();
        assert_eq!(selfs[0], (LAYERS[0], 2.5));
        assert_eq!(selfs[4], (LAYERS[4], 0.5));
        let sum: f64 = selfs.iter().map(|s| s.1).sum();
        assert!((sum - depths[0]).abs() / depths[0] < 0.05);
    }
}
