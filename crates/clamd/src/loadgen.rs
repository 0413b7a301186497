//! An open-loop load generator for `clamd`.
//!
//! **Open-loop** means arrivals are scheduled on a clock, independent of
//! completions: request `i` of a run at `rate` ops/s is due at
//! `i / rate` seconds after start, and its latency is measured from that
//! *scheduled* arrival time to its response — not from the moment the
//! socket write happened. Past saturation the send backlog grows and the
//! measured latency correctly absorbs the queueing delay, which is what
//! makes the p99/p999 curves honest where a closed-loop generator would
//! flatter the server by slowing itself down.
//!
//! Key popularity is configurable: uniform, or Zipfian with exponent
//! `s` via [`rand::distributions::Zipf`]. The hit/miss mix is exact by
//! construction — hit lookups draw from the preloaded key-id range,
//! misses and fresh inserts draw from disjoint id ranges, and
//! [`key_for`] maps ids through a bijective mixer so the ranges stay
//! disjoint on the wire.
//!
//! [`sweep`] runs several arrival rates back to back (calibrating the
//! saturation point first with a closed-loop flood) and reports, per
//! level, the sustained throughput, the client-observed latency tail and
//! the server's group-commit shape over exactly that window.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::num::NonZeroUsize;
use std::str::FromStr;
use std::time::{Duration, Instant};

use bench::TailSummary;
use bufferhash::{mix64, Key, Value};
use flashsim::{Host, LatencyRecorder};
use rand::distributions::Zipf;
use rand::{Rng, SeedableRng, StdRng};

use crate::client::{ClamdClient, Result};
use crate::proto::{self, Op, Request, RespBody};
use crate::stats::ServerStats;

/// First key id of the never-inserted range (guaranteed misses).
const MISS_ID_BASE: u64 = 1 << 40;
/// First key id of the inserted-during-run range.
const INSERT_ID_BASE: u64 = 1 << 41;

/// Maps a key id to its wire key through a bijective mixer, so disjoint
/// id ranges produce disjoint keys while still spreading over stripes.
pub fn key_for(id: u64) -> Key {
    mix64(id)
}

/// The value stored under key id `id` — deterministic, so any reader can
/// verify a lookup's payload without coordination.
pub fn value_for(id: u64) -> Value {
    id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC1A4
}

/// An offered arrival rate: a positive, finite number of ops/s, or a
/// closed-loop flood (used to calibrate the saturation point).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rate(f64);

impl Rate {
    /// The closed-loop flood: every request due at once.
    pub const FLOOD: Rate = Rate(f64::INFINITY);

    /// `ops_per_sec` as an open-loop rate, or `None` unless it is
    /// positive and finite (at a rate of 0 no request after the first
    /// would ever fall due).
    pub fn per_sec(ops_per_sec: f64) -> Option<Rate> {
        (ops_per_sec.is_finite() && ops_per_sec > 0.0).then_some(Rate(ops_per_sec))
    }

    /// Ops/s offered; infinite for the flood.
    pub fn get(self) -> f64 {
        self.0
    }
}

// The rules `Fraction` and `Multiples` refuse a value by, as their errors
// name them.
const SHARE_RULE: &str = "a share is a number within [0, 1]";
const THREE_LEVELS_RULE: &str = "a sweep needs at least three levels, comma-separated";
const POSITIVE_LEVEL_RULE: &str = "each level is a positive finite number";

/// A share in [0, 1].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fraction(f64);

impl Fraction {
    /// `share` if it lies in [0, 1], or the rule it breaks.
    pub fn new(share: f64) -> std::result::Result<Fraction, &'static str> {
        (0.0..=1.0).contains(&share).then_some(Fraction(share)).ok_or(SHARE_RULE)
    }

    /// The share.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl FromStr for Fraction {
    type Err = &'static str;

    fn from_str(raw: &str) -> std::result::Result<Self, &'static str> {
        Fraction::new(raw.parse().map_err(|_| SHARE_RULE)?)
    }
}

/// A sweep's load levels, as multiples of the calibrated capacity: at
/// least three, so that a sweep spans saturation, each finite and above
/// zero (a level of zero offers no load).
#[derive(Debug, Clone, PartialEq)]
pub struct Multiples(Vec<f64>);

impl Multiples {
    /// `levels` if they make a sweep, or the rule they break.
    pub fn new(levels: Vec<f64>) -> std::result::Result<Multiples, &'static str> {
        if levels.len() < 3 {
            Err(THREE_LEVELS_RULE)
        } else if !levels.iter().all(|l| l.is_finite() && *l > 0.0) {
            Err(POSITIVE_LEVEL_RULE)
        } else {
            Ok(Multiples(levels))
        }
    }

    /// The levels, in sweep order.
    pub fn levels(&self) -> &[f64] {
        &self.0
    }
}

impl FromStr for Multiples {
    type Err = &'static str;

    /// A comma-separated list.
    fn from_str(list: &str) -> std::result::Result<Self, &'static str> {
        let levels = list.split(',').map(|s| s.trim().parse().map_err(|_| POSITIVE_LEVEL_RULE));
        Multiples::new(levels.collect::<std::result::Result<_, _>>()?)
    }
}

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Concurrent client connections.
    pub connections: NonZeroUsize,
    /// Total operations per run.
    pub ops: usize,
    /// Offered arrival rate.
    pub rate: Rate,
    /// Fraction of operations that are lookups (the rest are inserts).
    pub lookup_fraction: Fraction,
    /// Fraction of lookups aimed at preloaded keys (exact hits).
    pub hit_fraction: Fraction,
    /// Number of preloaded key ids (`1..=key_space`) hits draw from.
    pub key_space: u64,
    /// Zipf exponent for hit-key popularity; `0.0` means uniform.
    pub zipf_s: f64,
    /// RNG seed: same seed, same op sequence.
    pub seed: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            connections: NonZeroUsize::new(4).expect("4 is not zero"),
            ops: 20_000,
            rate: Rate::FLOOD,
            lookup_fraction: Fraction(0.8),
            hit_fraction: Fraction(0.5),
            key_space: 20_000,
            zipf_s: 0.99,
            seed: 0x10ad,
        }
    }
}

/// In-flight window per connection for closed-loop flood runs.
const FLOOD_WINDOW: usize = 64;

/// What one run observed.
pub struct LoadReport {
    /// The offered rate (ops/s; infinite for flood runs).
    pub offered: f64,
    /// Sustained throughput: completed ops over the run's wall time.
    pub achieved: f64,
    /// Operations completed.
    pub completed: usize,
    /// Lookups that hit.
    pub hits: usize,
    /// Lookups that missed.
    pub misses: usize,
    /// Inserts acknowledged.
    pub inserts: usize,
    /// Server `ERROR` responses.
    pub errors: usize,
    /// Client-observed latency distribution (from scheduled arrival for
    /// open-loop runs, from send for flood runs).
    pub latencies: LatencyRecorder<Host>,
    /// Tail summary of `latencies`.
    pub tail: TailSummary<Host>,
}

/// One operation of a precomputed run schedule.
struct DueOp {
    op: Op,
    /// Nanoseconds after run start this op is due.
    due_ns: u64,
}

/// Builds the deterministic per-connection schedules for a run.
fn plan(config: &LoadgenConfig) -> Vec<Vec<DueOp>> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let zipf = (config.zipf_s > 0.0 && config.key_space > 0)
        .then(|| Zipf::new(config.key_space, config.zipf_s));
    let mut plans: Vec<Vec<DueOp>> = (0..config.connections.get()).map(|_| Vec::new()).collect();
    let interval_ns = 1e9 / config.rate.get();
    let mut miss_seq = 0u64;
    for i in 0..config.ops {
        let due_ns = (i as f64 * interval_ns) as u64;
        let op = if rng.gen_bool(config.lookup_fraction.get()) {
            let id = if config.key_space > 0 && rng.gen_bool(config.hit_fraction.get()) {
                match &zipf {
                    Some(z) => z.sample(&mut rng),
                    None => rng.gen_range(1..=config.key_space),
                }
            } else {
                miss_seq += 1;
                MISS_ID_BASE + miss_seq
            };
            Op::Lookup { key: key_for(id) }
        } else {
            let id = INSERT_ID_BASE + config.seed.wrapping_mul(1 << 22) + i as u64;
            Op::Insert { key: key_for(id), value: value_for(id) }
        };
        plans[i % config.connections].push(DueOp { op, due_ns });
    }
    plans
}

/// Per-connection completion tally.
#[derive(Default)]
struct ConnTally {
    hits: usize,
    misses: usize,
    inserts: usize,
    errors: usize,
    latencies: LatencyRecorder<Host>,
}

impl ConnTally {
    fn absorb(&mut self, body: &RespBody) {
        match body {
            RespBody::Value { found: true, .. } => self.hits += 1,
            RespBody::Value { found: false, .. } => self.misses += 1,
            RespBody::Inserted => self.inserts += 1,
            RespBody::Error { .. } => self.errors += 1,
            _ => {}
        }
    }
}

/// Runs one open-loop connection: a sender thread paces the schedule
/// while this thread reads responses (in submission order) through a
/// [`ClamdClient`] on the socket's read half and charges each completion
/// against its *scheduled* arrival time.
fn run_open_loop_conn(addr: SocketAddr, ops: Vec<DueOp>, start: Instant) -> Result<ConnTally> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut write_half = stream.try_clone()?;
    let mut reader = ClamdClient::from_stream(stream);
    let due: Vec<u64> = ops.iter().map(|p| p.due_ns).collect();
    let sender = std::thread::spawn(move || -> Result<()> {
        let mut frame = Vec::new();
        for (seq, planned) in ops.into_iter().enumerate() {
            let target = start + Duration::from_nanos(planned.due_ns);
            let now = Instant::now();
            if target > now {
                std::thread::sleep(target - now);
            }
            frame.clear();
            proto::encode_request(&Request { id: seq as u64, op: planned.op }, &mut frame);
            write_half.write_all(&frame)?;
        }
        Ok(())
    });
    let mut tally = ConnTally::default();
    let drained = due.iter().try_for_each(|&due_ns| -> Result<()> {
        let response = reader.recv()?;
        let due = start + Duration::from_nanos(due_ns);
        tally.latencies.record(Instant::now().saturating_duration_since(due));
        tally.absorb(&response.body);
        Ok(())
    });
    let sent = sender.join().expect("sender thread panicked");
    drained?;
    sent?;
    Ok(tally)
}

/// Runs one closed-loop flood connection: keep [`FLOOD_WINDOW`] requests
/// in flight, send the next on each completion. Latency is measured from
/// each request's send time.
fn run_flood_conn(addr: SocketAddr, ops: Vec<DueOp>) -> Result<ConnTally> {
    let mut client = ClamdClient::connect(addr)?;
    let mut tally = ConnTally::default();
    let mut send_times: std::collections::VecDeque<Instant> = std::collections::VecDeque::new();
    let mut next = 0usize;
    let mut done = 0usize;
    while done < ops.len() {
        while next < ops.len() && send_times.len() < FLOOD_WINDOW {
            client.send(ops[next].op.clone())?;
            send_times.push_back(Instant::now());
            next += 1;
        }
        let response = client.recv()?;
        let sent_at = send_times.pop_front().expect("a response implies a send");
        tally.latencies.record(sent_at.elapsed());
        tally.absorb(&response.body);
        done += 1;
    }
    Ok(tally)
}

/// Runs one load level against a server and reports what the clients saw.
pub fn run(addr: SocketAddr, config: &LoadgenConfig) -> Result<LoadReport> {
    let plans = plan(config);
    let started = Instant::now();
    let tallies: Vec<Result<ConnTally>> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .into_iter()
            .map(|ops| {
                scope.spawn(move || {
                    if config.rate != Rate::FLOOD {
                        run_open_loop_conn(addr, ops, started)
                    } else {
                        run_flood_conn(addr, ops)
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("loadgen conn panicked")).collect()
    });
    let wall = started.elapsed();
    let mut merged = ConnTally::default();
    for tally in tallies {
        let tally = tally?;
        merged.hits += tally.hits;
        merged.misses += tally.misses;
        merged.inserts += tally.inserts;
        merged.errors += tally.errors;
        merged.latencies.merge(&tally.latencies);
    }
    let completed = merged.latencies.len();
    let tail = TailSummary::from_recorder(&merged.latencies);
    Ok(LoadReport {
        offered: config.rate.get(),
        achieved: completed as f64 / wall.as_secs_f64().max(1e-9),
        completed,
        hits: merged.hits,
        misses: merged.misses,
        inserts: merged.inserts,
        errors: merged.errors,
        latencies: merged.latencies,
        tail,
    })
}

/// Preloads key ids `1..=key_space` over the wire in batch frames,
/// returning the number of acknowledged inserts.
pub fn preload(addr: SocketAddr, key_space: u64) -> Result<u64> {
    let mut client = ClamdClient::connect(addr)?;
    let mut acked = 0u64;
    let mut batch: Vec<(Key, Value)> = Vec::with_capacity(1024);
    for id in 1..=key_space {
        batch.push((key_for(id), value_for(id)));
        if batch.len() == 1024 || id == key_space {
            acked += u64::from(client.insert_batch(std::mem::take(&mut batch))?);
            batch.reserve(1024);
        }
    }
    Ok(acked)
}

/// One level of a load sweep.
pub struct SweepLevel {
    /// What the clients measured at this level.
    pub report: LoadReport,
    /// Server-ledger delta over exactly this level's window (group-commit
    /// shape, admissions, served counts; [`ServerStats::delta`]).
    pub server: ServerStats,
}

/// Calibrates the saturation throughput with a closed-loop flood, then
/// sweeps open-loop arrival rates at the given multiples of it (e.g.
/// `0.5,0.9,1.5` spans under-load through past-saturation). Returns the
/// flood report plus one [`SweepLevel`] per multiple.
pub fn sweep(
    addr: SocketAddr,
    config: &LoadgenConfig,
    multiples: &Multiples,
) -> Result<(LoadReport, Vec<SweepLevel>)> {
    let flood = run(addr, &LoadgenConfig { rate: Rate::FLOOD, ..config.clone() })?;
    let capacity = flood.achieved;
    let mut control = ClamdClient::connect(addr)?;
    let mut levels = Vec::with_capacity(multiples.levels().len());
    for (i, multiple) in multiples.levels().iter().enumerate() {
        let before = control.stats()?.0;
        // A level whose rate is no positive finite number (no op ran, or
        // the product overflowed) runs as the flood.
        let rate = Rate::per_sec(capacity * multiple).unwrap_or(Rate::FLOOD);
        let report = run(
            addr,
            &LoadgenConfig { rate, seed: config.seed.wrapping_add(1 + i as u64), ..config.clone() },
        )?;
        let after = control.stats()?.0;
        levels.push(SweepLevel { report, server: after.delta(&before) });
    }
    Ok((flood, levels))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_paced() {
        let config = LoadgenConfig {
            connections: NonZeroUsize::new(3).unwrap(),
            ops: 999,
            rate: Rate::per_sec(1_000_000.0).unwrap(),
            ..Default::default()
        };
        let a = plan(&config);
        let b = plan(&config);
        assert_eq!(a.len(), 3);
        assert_eq!(a.iter().map(Vec::len).sum::<usize>(), 999);
        for (pa, pb) in a.iter().zip(&b) {
            assert_eq!(pa.len(), pb.len());
            for (x, y) in pa.iter().zip(pb) {
                assert_eq!(x.op, y.op);
                assert_eq!(x.due_ns, y.due_ns);
            }
        }
        // 1M ops/s → due times step in microseconds, round-robin over
        // connections, monotone within each.
        for p in &a {
            for pair in p.windows(2) {
                assert!(pair[0].due_ns < pair[1].due_ns);
            }
        }
        // Flood plans are all due immediately.
        let flood = plan(&LoadgenConfig { rate: Rate::FLOOD, ops: 10, ..config });
        assert!(flood.iter().flatten().all(|p| p.due_ns == 0));
    }

    #[test]
    fn planned_mix_respects_fractions_and_ranges() {
        let config = LoadgenConfig {
            connections: NonZeroUsize::MIN,
            ops: 10_000,
            lookup_fraction: Fraction(0.75),
            hit_fraction: Fraction(0.4),
            key_space: 500,
            zipf_s: 0.0,
            ..Default::default()
        };
        let plans = plan(&config);
        let mut lookups = 0usize;
        let mut inserts = 0usize;
        let mut hit_range = 0usize;
        let hit_keys: std::collections::HashSet<Key> = (1..=500).map(key_for).collect();
        for p in plans.iter().flatten() {
            match &p.op {
                Op::Lookup { key } => {
                    lookups += 1;
                    if hit_keys.contains(key) {
                        hit_range += 1;
                    }
                }
                Op::Insert { .. } => inserts += 1,
                other => panic!("unexpected planned op {other:?}"),
            }
        }
        assert_eq!(lookups + inserts, 10_000);
        let lf = lookups as f64 / 10_000.0;
        assert!((lf - 0.75).abs() < 0.03, "lookup fraction {lf}");
        let hf = hit_range as f64 / lookups as f64;
        assert!((hf - 0.4).abs() < 0.03, "hit fraction {hf}");
    }

    #[test]
    fn id_ranges_stay_disjoint_through_the_mixer() {
        // mix64 is bijective, so the three id ranges cannot collide.
        let preloaded: std::collections::HashSet<Key> = (1..=1000).map(key_for).collect();
        for i in 1..=1000u64 {
            assert!(!preloaded.contains(&key_for(MISS_ID_BASE + i)));
            assert!(!preloaded.contains(&key_for(INSERT_ID_BASE + i)));
        }
        assert_ne!(value_for(1), value_for(2));
    }

    #[test]
    fn a_rate_of_zero_a_zero_multiple_and_a_share_above_one_are_refused() {
        for rate in [0.0, -1.0, f64::INFINITY, f64::NAN] {
            assert_eq!(Rate::per_sec(rate), None, "{rate}");
        }
        assert_eq!(Rate::per_sec(2.5).map(Rate::get), Some(2.5));
        for list in ["0,1,2", "0.5,-1,2", "0.5,inf,2", "0.5,NaN,2", "a,b,c"] {
            assert_eq!(list.parse::<Multiples>(), Err(POSITIVE_LEVEL_RULE), "{list}");
        }
        assert_eq!("1,2".parse::<Multiples>(), Err(THREE_LEVELS_RULE));
        assert_eq!("0.5, 0.9,1.5".parse::<Multiples>().unwrap().levels(), [0.5, 0.9, 1.5]);
        for share in [1.5, -0.1, f64::NAN] {
            assert_eq!(Fraction::new(share), Err(SHARE_RULE), "{share}");
        }
        assert_eq!("1.5".parse::<Fraction>(), Err(SHARE_RULE));
        assert_eq!("1".parse::<Fraction>().map(Fraction::get), Ok(1.0));
    }

    #[test]
    fn zipf_plans_skew_toward_low_ids() {
        let config = LoadgenConfig {
            connections: NonZeroUsize::MIN,
            ops: 20_000,
            lookup_fraction: Fraction(1.0),
            hit_fraction: Fraction(1.0),
            key_space: 10_000,
            zipf_s: 1.1,
            ..Default::default()
        };
        let head: std::collections::HashSet<Key> = (1..=100).map(key_for).collect();
        let plans = plan(&config);
        let head_draws = plans
            .iter()
            .flatten()
            .filter(|p| matches!(&p.op, Op::Lookup { key } if head.contains(key)))
            .count();
        // Under uniform popularity the head 1% would catch ~200 of 20k
        // draws; Zipf(1.1) concentrates far more mass there.
        assert!(head_draws > 2_000, "only {head_draws} of 20000 draws hit the head");
    }
}
