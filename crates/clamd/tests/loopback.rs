//! Loopback integration tests: a real `clamd` server on an ephemeral
//! port, real TCP clients, pipelining, batch frames, concurrent
//! connections, and a full flush → shutdown → recover-from-flash-image
//! cycle over the wire.

use std::time::Duration;

use clamd::batcher::BatcherConfig;
use clamd::client::ClamdClient;
use clamd::loadgen::{key_for, value_for};
use clamd::proto::{self, ErrorCode, Op, Request, RespBody};
use clamd::server::{boot_file, ephemeral_sim_server, ClamdServer, ServerConfig};

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("clamd-test-{}-{}", std::process::id(), name));
    p
}

fn file_server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        stripes: 2,
        flash_bytes: 16 << 20,
        dram_bytes: 4 << 20,
        batcher: BatcherConfig::default(),
    }
}

#[test]
fn scalar_ops_round_trip_over_tcp() {
    let server = ephemeral_sim_server(2, 16 << 20, 4 << 20).unwrap();
    let mut client = ClamdClient::connect(server.local_addr()).unwrap();
    client.insert(42, 4200).unwrap();
    assert_eq!(client.lookup(42).unwrap(), Some(4200));
    assert_eq!(client.lookup(43).unwrap(), None);
    client.insert(42, 4300).unwrap();
    assert_eq!(client.lookup(42).unwrap(), Some(4300), "update wins");
    client.delete(42).unwrap();
    assert_eq!(client.lookup(42).unwrap(), None);
    client.flush().unwrap();
    let (fields, text) = client.stats().unwrap();
    assert_eq!(fields.inserts, 2);
    assert_eq!(fields.deletes, 1);
    assert_eq!(fields.flushes, 1);
    assert_eq!(fields.lookup_hits, 2);
    assert_eq!(fields.lookup_misses, 2);
    assert!(text.starts_with("inserts: 2 | lookups: 4 | deletes: 1 | flushes: 1 | "), "{text}");
    assert!(text.contains("\nstore: inserts: 2 (mean "), "{text}");
}

#[test]
fn batch_frames_round_trip_over_tcp() {
    let server = ephemeral_sim_server(2, 16 << 20, 4 << 20).unwrap();
    let mut client = ClamdClient::connect(server.local_addr()).unwrap();
    let pairs: Vec<(u64, u64)> = (0..5_000).map(|i| (key_for(i + 1), value_for(i + 1))).collect();
    assert_eq!(client.insert_batch(pairs.clone()).unwrap(), 5_000);
    let keys: Vec<u64> = (0..1_000)
        .map(|i| if i % 2 == 0 { key_for(i + 1) } else { key_for(1 << 44 | i) })
        .collect();
    let values = client.lookup_batch(keys.clone()).unwrap();
    for (i, value) in values.iter().enumerate() {
        if i % 2 == 0 {
            assert_eq!(*value, Some(value_for(i as u64 + 1)), "index {i}");
        } else {
            assert_eq!(*value, None, "index {i}");
        }
    }
    let (fields, _) = client.stats().unwrap();
    assert_eq!(fields.inserts, 5_000);
    assert_eq!(fields.lookups, 1_000);
    assert_eq!(fields.lookup_hits, 500);
    assert_eq!(fields.lookup_misses, 500);
}

#[test]
fn pipelined_requests_answer_in_order() {
    let server = ephemeral_sim_server(2, 16 << 20, 4 << 20).unwrap();
    let mut client = ClamdClient::connect(server.local_addr()).unwrap();
    let mut expected = Vec::new();
    for i in 0..400u64 {
        let id = client.send(Op::Insert { key: key_for(i + 1), value: value_for(i + 1) }).unwrap();
        expected.push(id);
    }
    for i in 0..400u64 {
        let id = client.send(Op::Lookup { key: key_for(i + 1) }).unwrap();
        expected.push(id);
    }
    for (n, want_id) in expected.into_iter().enumerate() {
        let response = client.recv().unwrap();
        assert_eq!(response.id, want_id, "response {n} out of order");
        if n < 400 {
            assert_eq!(response.body, RespBody::Inserted);
        } else {
            let i = n as u64 - 400;
            assert_eq!(
                response.body,
                RespBody::Value { found: true, value: value_for(i + 1) },
                "lookup {i}"
            );
        }
    }
    // The pipelined burst coalesced: far fewer ring admissions than ops.
    let stats = server.stats();
    assert!(stats.batches > 0);
    assert!(stats.insert_admissions < 400, "{stats}");
}

/// Mixed pipelined traffic from several connections: every request is
/// answered right, and a gather without key conflicts costs at most two
/// batched store calls — one `insert_batch`, one `lookup_batch` — however
/// its kinds interleave.
#[test]
fn mixed_pipelined_gathers_cost_two_store_calls_per_segment() {
    for stripes in [1usize, 2] {
        let server = ephemeral_sim_server(stripes, 16 << 20, 4 << 20).unwrap();
        let addr = server.local_addr();
        std::thread::scope(|scope| {
            for c in 0..4u64 {
                scope.spawn(move || {
                    let mut client = ClamdClient::connect(addr).unwrap();
                    let old = |i: u64| 1 + c * 1_000_000 + i;
                    let fresh = |i: u64| old(i) + 500_000;
                    let preload = (0..300).map(|i| (key_for(old(i)), value_for(old(i))));
                    assert_eq!(client.insert_batch(preload.collect()).unwrap(), 300);
                    let mut expected = Vec::new();
                    for i in 0..300u64 {
                        // Insert a fresh key, read a preloaded one, miss a
                        // key nobody wrote; now and then delete the fresh
                        // key and read it back within the same burst.
                        let (key, value) = (key_for(fresh(i)), value_for(fresh(i)));
                        client.send(Op::Insert { key, value }).unwrap();
                        expected.push(RespBody::Inserted);
                        client.send(Op::Lookup { key: key_for(old(i)) }).unwrap();
                        expected.push(RespBody::Value { found: true, value: value_for(old(i)) });
                        client.send(Op::Lookup { key: key_for(1 << 40 | old(i)) }).unwrap();
                        expected.push(RespBody::Value { found: false, value: 0 });
                        if i % 16 == 15 {
                            client.send(Op::Delete { key }).unwrap();
                            expected.push(RespBody::Deleted);
                            client.send(Op::Lookup { key }).unwrap();
                            expected.push(RespBody::Value { found: false, value: 0 });
                        }
                        // Keep a few dozen requests in flight.
                        if i % 10 == 9 {
                            for (n, want) in expected.drain(..).enumerate() {
                                assert_eq!(
                                    client.recv().unwrap().body,
                                    want,
                                    "conn {c} step {i}.{n}"
                                );
                            }
                        }
                    }
                });
            }
        });
        let stats = server.stats();
        assert_eq!((stats.inserts, stats.wire_errors), (2_400, 0), "{stats}");
        assert!(stats.batch_high_water > 1 && stats.segments > 0, "{stats}");
        assert!(
            stats.insert_admissions + stats.lookup_admissions <= 2 * stats.segments,
            "a segment is at most one insert_batch and one lookup_batch: {stats}"
        );
        // No FLUSH or STATS was sent, so only a gather boundary or a key
        // conflict opens a segment.
        assert_eq!((stats.flushes, stats.stats_calls), (0, 0));
        assert!(stats.segments <= stats.batches + stats.segment_conflicts, "{stats}");
        // Deleting a key just inserted and reading it back are the only
        // same-key conflicts a burst can hold, so most gathers stay whole.
        assert!(stats.segment_conflicts <= 2 * stats.deletes, "{stats}");
    }
}

/// STATS carries the whole server ledger: after a mixed pipelined
/// workload has gone quiescent, what a client decodes off the wire
/// equals `ClamdServer::stats()` field for field — including the
/// counters the old positional frame never carried.
#[test]
fn stats_over_tcp_carries_every_server_counter() {
    let server = ephemeral_sim_server(2, 16 << 20, 4 << 20).unwrap();
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        for c in 0..3u64 {
            scope.spawn(move || {
                let mut client = ClamdClient::connect(addr).unwrap();
                let id = |i: u64| 1 + c * 1_000_000 + i;
                let pairs = (0..200).map(|i| (key_for(id(i)), value_for(id(i))));
                assert_eq!(client.insert_batch(pairs.collect()).unwrap(), 200);
                for i in 0..200u64 {
                    let key = key_for(id(i));
                    client.send(Op::Insert { key, value: i }).unwrap();
                    client.send(Op::Lookup { key }).unwrap();
                    if i % 8 == 7 {
                        client.send(Op::Delete { key }).unwrap();
                    }
                }
                for _ in 0..200 * 2 + 25 {
                    let response = client.recv().unwrap();
                    assert!(!matches!(response.body, RespBody::Error { .. }), "{response:?}");
                }
            });
        }
    });
    // Quiescent: every workload connection has been seen closing.
    let mut deadline = 500;
    while server.stats().connections_closed < 3 && deadline > 0 {
        std::thread::sleep(Duration::from_millis(10));
        deadline -= 1;
    }
    // The control connection stays open until both snapshots are taken.
    let mut control = ClamdClient::connect(addr).unwrap();
    let (mut wire, _) = control.stats().unwrap();
    let local = server.stats();
    assert_eq!(wire.shard_depths.len(), 2, "one depth per shard");
    // Excepted: the STATS request counts itself, so which snapshot sees
    // it depends on which was taken first; and the depths are a live
    // gauge read at each snapshot's own instant.
    wire.stats_calls = local.stats_calls;
    wire.shard_depths = local.shard_depths.clone();
    assert_eq!(wire, local);
    assert_eq!((local.connections_opened, local.connections_closed), (4, 3), "{local}");
    assert!(local.segments > 0 && local.batches > 0, "{local}");
    assert_eq!(local.batch_histogram.iter().sum::<u64>(), local.batches, "{local}");
}

#[test]
fn concurrent_connections_group_commit_together() {
    let server = ephemeral_sim_server(2, 16 << 20, 4 << 20).unwrap();
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        for c in 0..6u64 {
            scope.spawn(move || {
                let mut client = ClamdClient::connect(addr).unwrap();
                for i in 0..300u64 {
                    let id = 1 + c * 1_000_000 + i;
                    client.insert(key_for(id), value_for(id)).unwrap();
                }
                for i in (0..300u64).step_by(7) {
                    let id = 1 + c * 1_000_000 + i;
                    assert_eq!(client.lookup(key_for(id)).unwrap(), Some(value_for(id)));
                }
            });
        }
    });
    let stats = server.stats();
    assert_eq!(stats.inserts, 1_800);
    assert_eq!(stats.connections_opened, 6);
    assert_eq!(stats.wire_errors, 0);
}

#[test]
fn protocol_violation_closes_only_the_offending_connection() {
    use std::io::Write;
    let server = ephemeral_sim_server(2, 16 << 20, 4 << 20).unwrap();
    let addr = server.local_addr();
    let mut good = ClamdClient::connect(addr).unwrap();
    good.insert(7, 70).unwrap();

    let mut bad = std::net::TcpStream::connect(addr).unwrap();
    bad.write_all(&[0xde; 64]).unwrap();
    bad.flush().unwrap();
    // The server answers the violation with one structured error frame
    // and then closes; the well-behaved connection keeps working.
    let mut deadline = 100;
    while server.stats().wire_errors == 0 && deadline > 0 {
        std::thread::sleep(Duration::from_millis(10));
        deadline -= 1;
    }
    assert_eq!(server.stats().wire_errors, 1);
    assert_eq!(good.lookup(7).unwrap(), Some(70));
}

/// A protocol violation is answered in its place: the frames ahead of it
/// in the same read run and are answered first, then comes the ERROR
/// frame, then the end of the connection.
#[test]
fn an_error_frame_follows_the_answers_of_the_frames_ahead_of_it() {
    use std::io::{Read, Write};
    let server = ephemeral_sim_server(2, 16 << 20, 4 << 20).unwrap();
    let mut bytes = Vec::new();
    for id in 1..=4u64 {
        let op = Op::Insert { key: key_for(id), value: value_for(id) };
        proto::encode_request(&Request { id, op }, &mut bytes);
    }
    bytes.extend_from_slice(&[0xde; 32]);
    let mut bad = std::net::TcpStream::connect(server.local_addr()).unwrap();
    bad.write_all(&bytes).unwrap();
    bad.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut received = Vec::new();
    bad.read_to_end(&mut received).expect("the server ends the connection");
    let mut replies = Vec::new();
    let mut at = 0;
    while let Some((response, used)) = proto::decode_response(&received[at..]).unwrap() {
        replies.push((response.id, response.body));
        at += used;
    }
    assert_eq!(at, received.len(), "nothing follows the ERROR frame");
    let inserted: Vec<_> = (1..=4).map(|id| (id, RespBody::Inserted)).collect();
    assert_eq!(replies[..replies.len().min(4)], inserted[..], "{replies:?}");
    assert!(
        matches!(replies[4..], [(0, RespBody::Error { code: ErrorCode::BadMagic, .. })]),
        "{replies:?}"
    );
    let mut good = ClamdClient::connect(server.local_addr()).unwrap();
    for id in 1..=4 {
        assert_eq!(good.lookup(key_for(id)).unwrap(), Some(value_for(id)), "id {id}");
    }
}

#[test]
fn server_error_frames_surface_as_client_errors() {
    let server = ephemeral_sim_server(2, 16 << 20, 4 << 20).unwrap();
    let mut client = ClamdClient::connect(server.local_addr()).unwrap();
    // A client that speaks the protocol but violates framing gets the
    // structured code back before the connection closes.
    client.send(Op::Insert { key: 1, value: 1 }).unwrap();
    let first = client.recv().unwrap();
    assert_eq!(first.body, RespBody::Inserted);
    // Force a wire error by sending a corrupt frame through the raw op
    // path: an oversized LookupBatch is rejected server-side.
    let huge = vec![0u64; clamd::proto::MAX_BATCH_OPS + 1];
    let err = client.call(Op::LookupBatch(huge));
    match err {
        Err(clamd::client::ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::TooManyOps);
        }
        other => panic!("expected a server error, got {other:?}"),
    }
}

#[test]
fn flush_shutdown_recover_cycle_preserves_acknowledged_inserts() {
    let path = temp_path("recovery-image");
    let _ = std::fs::remove_file(&path);
    let config = file_server_config();

    // Boot fresh, load over the wire, flush, shut down cleanly.
    let addr;
    {
        let (store, reports) = boot_file(&path, &config, 4).unwrap();
        assert!(reports.is_empty(), "fresh image must not report recovery");
        let mut server = ClamdServer::start(store, reports, config.clone()).unwrap();
        addr = server.local_addr();
        let mut client = ClamdClient::connect(addr).unwrap();
        let pairs: Vec<(u64, u64)> = (1..=4_000).map(|id| (key_for(id), value_for(id))).collect();
        assert_eq!(client.insert_batch(pairs).unwrap(), 4_000);
        client.flush().unwrap();
        server.shutdown();
    }

    // Reboot from the image alone: every stripe recovers, reports are
    // surfaced, and every acknowledged insert is served over the wire.
    {
        let (store, reports) = boot_file(&path, &config, 4).unwrap();
        assert_eq!(reports.len(), config.stripes, "one report per stripe");
        for report in &reports {
            assert!(report.accepted > 0, "{report}");
            assert_eq!(report.torn, 0, "{report}");
        }
        let server = ClamdServer::start(store, reports.clone(), config.clone()).unwrap();
        assert_eq!(server.recovery_reports().len(), config.stripes);
        let mut client = ClamdClient::connect(server.local_addr()).unwrap();
        for id in (1..=4_000u64).step_by(13) {
            assert_eq!(client.lookup(key_for(id)).unwrap(), Some(value_for(id)), "id {id}");
        }
        // STATS over the wire counts the recovery, one scan a stripe.
        let (_, text) = client.stats().unwrap();
        assert!(text.contains(" | recoveries: 2 | "), "{text}");
    }
    let _ = std::fs::remove_file(&path);
}

/// A clean shutdown flushes every stripe: inserts acknowledged over TCP,
/// with no FLUSH, are all found after a reboot from the same file.
#[test]
fn a_clean_shutdown_keeps_every_acknowledged_insert() {
    let path = temp_path("clean-shutdown-image");
    let _ = std::fs::remove_file(&path);
    let config = ServerConfig::default();
    let ids = 1..=20_000u64;
    {
        let (store, reports) = boot_file(&path, &config, 4).unwrap();
        let mut server = ClamdServer::start(store, reports, config.clone()).unwrap();
        let mut client = ClamdClient::connect(server.local_addr()).unwrap();
        let ids: Vec<u64> = ids.clone().collect();
        for chunk in ids.chunks(1_000) {
            for &id in chunk {
                client.send(Op::Insert { key: key_for(id), value: value_for(id) }).unwrap();
            }
            for _ in chunk {
                assert_eq!(client.recv().unwrap().body, RespBody::Inserted);
            }
        }
        server.shutdown();
        assert_eq!(server.stats().shutdown_flush_errors, 0);
    }
    let (store, _) = boot_file(&path, &config, 4).unwrap();
    let found =
        ids.clone().filter(|&id| store.lookup(key_for(id)).unwrap().value.is_some()).count();
    assert_eq!(found, 20_000, "found {found} of 20000 acknowledged inserts");
    for id in ids.step_by(97) {
        assert_eq!(store.lookup(key_for(id)).unwrap().value, Some(value_for(id)), "id {id}");
    }
    let _ = std::fs::remove_file(&path);
}

/// Sends `bytes` in one write, half-closes, and reads until the server
/// ends the connection; returns every reply, in arrival order.
fn replies_after_half_close(addr: std::net::SocketAddr, bytes: &[u8]) -> Vec<(u64, RespBody)> {
    use std::io::{Read, Write};
    let mut sock = std::net::TcpStream::connect(addr).unwrap();
    sock.write_all(bytes).unwrap();
    sock.shutdown(std::net::Shutdown::Write).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut received = Vec::new();
    sock.read_to_end(&mut received).expect("the server ends the connection");
    let mut replies = Vec::new();
    let mut at = 0;
    while let Some((response, used)) = proto::decode_response(&received[at..]).unwrap() {
        replies.push((response.id, response.body));
        at += used;
    }
    assert_eq!(at, received.len(), "no torn frame at the end");
    replies
}

/// A client that half-closes right after its last request keeps the
/// responses still in flight: batch frames take long enough to serve that
/// the reader sees EOF before they are answered, and every answer still
/// arrives, in order — an ERROR frame behind them too.
#[test]
fn a_client_that_half_closes_gets_every_response_in_order() {
    let server = ephemeral_sim_server(2, 16 << 20, 4 << 20).unwrap();
    let mut bytes = Vec::new();
    let mut expected = Vec::new();
    for id in 1..=8u64 {
        let pairs: Vec<(u64, u64)> =
            (0..4_000).map(|i| (key_for(id << 20 | i), value_for(i))).collect();
        proto::encode_request(&Request { id, op: Op::InsertBatch(pairs) }, &mut bytes);
        expected.push((id, RespBody::InsertedBatch { count: 4_000 }));
    }
    for id in 9..=64u64 {
        let op = Op::Insert { key: key_for(id), value: value_for(id) };
        proto::encode_request(&Request { id, op }, &mut bytes);
        expected.push((id, RespBody::Inserted));
    }
    assert_eq!(replies_after_half_close(server.local_addr(), &bytes), expected);

    bytes.extend_from_slice(&[0xde; 32]);
    let replies = replies_after_half_close(server.local_addr(), &bytes);
    assert_eq!(replies[..replies.len().min(64)], expected[..], "{replies:?}");
    assert!(
        matches!(replies[64..], [(0, RespBody::Error { code: ErrorCode::BadMagic, .. })]),
        "{replies:?}"
    );
}
