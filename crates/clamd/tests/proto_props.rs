//! Property tests for the `clamd` wire protocol: every frame round-trips,
//! and no input — truncated, oversized, bit-flipped or outright random —
//! ever panics the decoder or escapes without a structured error.

use proptest::collection::vec;
use proptest::prelude::*;

use clamd::proto::{
    decode_request, decode_response, encode_request, encode_response, ErrorCode, Op, Request,
    RespBody, Response, WireError, HEADER_LEN, MAX_BATCH_OPS, MAX_PAYLOAD,
};
use clamd::ServerStats;

/// Builds one of the seven request ops from sampled raw material.
fn build_op(kind: u8, key: u64, value: u64, pairs: &[(u64, u64)], keys: &[u64]) -> Op {
    match kind % 7 {
        0 => Op::Insert { key, value },
        1 => Op::Lookup { key },
        2 => Op::Delete { key },
        3 => Op::Flush,
        4 => Op::Stats,
        5 => Op::InsertBatch(pairs.to_vec()),
        _ => Op::LookupBatch(keys.to_vec()),
    }
}

/// Printable ASCII keeps sampled text valid UTF-8.
fn text_of(bytes: &[u8]) -> String {
    bytes.iter().map(|b| char::from(b'a' + b % 26)).collect()
}

/// A whole ledger from sampled raw material: every scalar from `words`
/// (21 of them), plus a histogram and shard depths.
fn build_stats(words: &[u64], histogram: &[u64], depths: &[u64]) -> ServerStats {
    let mut s = ServerStats::new();
    s.inserts = words[0];
    s.lookups = words[1];
    s.deletes = words[2];
    s.flushes = words[3];
    s.stats_calls = words[4];
    s.lookup_hits = words[5];
    s.lookup_misses = words[6];
    s.wire_errors = words[7];
    s.batches = words[8];
    s.batched_requests = words[9];
    s.group_commit_waits = words[10];
    s.batch_high_water = words[11];
    s.insert_admissions = words[12];
    s.lookup_admissions = words[13];
    s.delete_admissions = words[14];
    s.segments = words[15];
    s.segment_conflicts = words[16];
    s.connections_opened = words[17];
    s.connections_closed = words[18];
    s.bypass_hits = words[19];
    s.connections_stalled = words[20];
    s.batch_histogram = histogram.to_vec();
    s.shard_depths = depths.to_vec();
    s
}

/// One STATS entry as the wire carries it.
fn entry(name: &[u8], values: &[u64]) -> Vec<u8> {
    let mut out = vec![name.len() as u8];
    out.extend_from_slice(name);
    out.extend_from_slice(&(values.len() as u32).to_le_bytes());
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Bytes of the entries in a STATS payload (everything between the
/// entry count and the text).
fn entries_len(payload: &[u8]) -> usize {
    let count = u32::from_le_bytes(payload[0..4].try_into().unwrap());
    let mut at = 4;
    for _ in 0..count {
        at += 1 + usize::from(payload[at]);
        at += 4 + 8 * u32::from_le_bytes(payload[at..at + 4].try_into().unwrap()) as usize;
    }
    at - 4
}

/// A STATS response frame around a hand-built payload.
fn stats_frame(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    let empty = RespBody::Stats { fields: Box::default(), text: String::new() };
    encode_response(&Response { id: 1, body: empty }, &mut buf);
    buf.truncate(HEADER_LEN);
    buf[16..20].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Builds one of the eight response bodies from sampled raw material.
fn build_body(
    kind: u8,
    value: u64,
    found: bool,
    count: u32,
    values: &[(bool, u64)],
    text_bytes: &[u8],
    stats: ServerStats,
) -> RespBody {
    let text = text_of(text_bytes);
    match kind % 8 {
        0 => RespBody::Inserted,
        1 => RespBody::Value { found, value: if found { value } else { 0 } },
        2 => RespBody::Deleted,
        3 => RespBody::Flushed,
        4 => RespBody::Stats { fields: Box::new(stats), text },
        5 => RespBody::InsertedBatch { count },
        6 => RespBody::Values(values.to_vec()),
        _ => RespBody::Error {
            code: ErrorCode::from_u16(1 + (count % 7 + 1) as u16 % 7)
                .unwrap_or(ErrorCode::Internal),
            message: text,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every op — scalar and batch frames alike — survives an
    /// encode/decode round trip, consuming exactly its own bytes even
    /// with a following frame concatenated.
    #[test]
    fn requests_round_trip(
        kind in 0u8..7,
        id in any::<u64>(),
        key in any::<u64>(),
        value in any::<u64>(),
        pairs in vec((any::<u64>(), any::<u64>()), 0..40),
        keys in vec(any::<u64>(), 0..40),
    ) {
        let request = Request { id, op: build_op(kind, key, value, &pairs, &keys) };
        let mut buf = Vec::new();
        encode_request(&request, &mut buf);
        let frame_len = buf.len();
        // Concatenate a second frame: the decoder must stop at the first.
        encode_request(&Request { id: id.wrapping_add(1), op: Op::Flush }, &mut buf);
        let (decoded, consumed) = decode_request(&buf).unwrap().unwrap();
        prop_assert_eq!(consumed, frame_len);
        prop_assert_eq!(decoded, request);
        // And the second frame decodes from the remainder.
        let (second, rest) = decode_request(&buf[consumed..]).unwrap().unwrap();
        prop_assert_eq!(second.id, id.wrapping_add(1));
        prop_assert_eq!(consumed + rest, buf.len());
    }

    /// Every response body survives a round trip.
    #[test]
    fn responses_round_trip(
        kind in 0u8..8,
        id in any::<u64>(),
        value in any::<u64>(),
        found in any::<bool>(),
        count in 0u32..100_000,
        values in vec((any::<bool>(), any::<u64>()), 0..40),
        text_bytes in vec(any::<u8>(), 0..60),
        ledger in (vec(any::<u64>(), 21), vec(any::<u64>(), 0..66), vec(any::<u64>(), 0..9)),
    ) {
        let stats = build_stats(&ledger.0, &ledger.1, &ledger.2);
        let body = build_body(kind, value, found, count, &values, &text_bytes, stats);
        let response = Response { id, body };
        let mut buf = Vec::new();
        encode_response(&response, &mut buf);
        let (decoded, consumed) = decode_response(&buf).unwrap().unwrap();
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(decoded, response);
    }

    /// Any strict prefix of a valid frame asks for more bytes — never an
    /// error, never a panic, never a truncated parse.
    #[test]
    fn truncated_frames_return_none(
        kind in 0u8..7,
        key in any::<u64>(),
        pairs in vec((any::<u64>(), any::<u64>()), 0..20),
        keys in vec(any::<u64>(), 0..20),
        cut_seed in any::<u64>(),
    ) {
        let request = Request { id: 9, op: build_op(kind, key, key, &pairs, &keys) };
        let mut buf = Vec::new();
        encode_request(&request, &mut buf);
        let cut = (cut_seed % buf.len() as u64) as usize;
        prop_assert_eq!(decode_request(&buf[..cut]).unwrap(), None);
        prop_assert_eq!(decode_response(&buf[..cut.min(HEADER_LEN - 1)]).unwrap(), None);
    }

    /// Arbitrary bytes never panic either decoder; whatever they return
    /// is a clean `Ok`/`Err`, and any successful parse consumed no more
    /// than the input.
    #[test]
    fn random_bytes_never_panic(bytes in vec(any::<u8>(), 0..160)) {
        if let Ok(Some((_, consumed))) = decode_request(&bytes) {
            prop_assert!(consumed <= bytes.len());
        }
        if let Ok(Some((_, consumed))) = decode_response(&bytes) {
            prop_assert!(consumed <= bytes.len());
        }
    }

    /// Corrupting any single header byte of a valid frame yields either a
    /// structured error, a request for more bytes (length fields grew) or
    /// a different-but-valid parse (id bytes) — never a panic. Magic,
    /// version and reserved corruption must be rejected outright.
    #[test]
    fn header_corruption_is_structured(
        kind in 0u8..7,
        key in any::<u64>(),
        pairs in vec((any::<u64>(), any::<u64>()), 0..10),
        keys in vec(any::<u64>(), 0..10),
        byte in 0usize..HEADER_LEN,
        flip in 1u8..=255,
    ) {
        let request = Request { id: 5, op: build_op(kind, key, key, &pairs, &keys) };
        let mut buf = Vec::new();
        encode_request(&request, &mut buf);
        buf[byte] ^= flip;
        let result = decode_request(&buf);
        match byte {
            0..=3 => prop_assert!(matches!(result, Err(WireError::BadMagic(_)))),
            4 => prop_assert!(matches!(result, Err(WireError::BadVersion(_)))),
            6 | 7 => prop_assert!(
                matches!(result, Err(WireError::Corrupt(_))),
                "reserved bytes must be zero: {:?}", result
            ),
            _ => { let _ = result; } // opcode/id/len: any clean outcome is fine
        }
    }

    /// A payload-length field inflated beyond the limit is rejected as
    /// Oversized before any allocation; a batch count beyond the op limit
    /// is rejected as TooManyOps.
    #[test]
    fn oversized_and_overcounted_frames_are_rejected(
        extra in 1usize..1_000_000,
        count_over in 1u32..1_000_000,
    ) {
        let mut buf = Vec::new();
        encode_request(&Request { id: 1, op: Op::LookupBatch(vec![1, 2]) }, &mut buf);
        let mut oversized = buf.clone();
        let bad_len = (MAX_PAYLOAD + extra) as u32;
        oversized[16..20].copy_from_slice(&bad_len.to_le_bytes());
        prop_assert!(matches!(decode_request(&oversized), Err(WireError::Oversized(_))));

        let mut overcounted = buf;
        let bad_count = MAX_BATCH_OPS as u32 + count_over;
        overcounted[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&bad_count.to_le_bytes());
        prop_assert!(matches!(decode_request(&overcounted), Err(WireError::TooManyOps(_))));
    }

    /// A STATS frame carrying an entry this build does not know — a
    /// counter added by a newer server — decodes to the known fields.
    #[test]
    fn stats_frames_skip_unknown_entries(
        ledger in (vec(any::<u64>(), 21), vec(any::<u64>(), 0..66), vec(any::<u64>(), 0..9)),
        name_bytes in vec(any::<u8>(), 0..30),
        values in vec(any::<u64>(), 0..10),
        at_end in any::<bool>(),
        text_bytes in vec(any::<u8>(), 0..40),
    ) {
        let fields = build_stats(&ledger.0, &ledger.1, &ledger.2);
        let body = RespBody::Stats { fields: Box::new(fields), text: text_of(&text_bytes) };
        let mut buf = Vec::new();
        encode_response(&Response { id: 3, body: body.clone() }, &mut buf);
        // Splice one unknown entry in first or last, then fix the entry
        // count and the header's payload length.
        let mut name = text_of(&name_bytes);
        name.insert_str(0, "future_");
        let at = if at_end { HEADER_LEN + 4 + entries_len(&buf[HEADER_LEN..]) } else { HEADER_LEN + 4 };
        buf.splice(at..at, entry(name.as_bytes(), &values));
        let count = u32::from_le_bytes(buf[HEADER_LEN..HEADER_LEN + 4].try_into().unwrap());
        buf[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&(count + 1).to_le_bytes());
        let payload_len = (buf.len() - HEADER_LEN) as u32;
        buf[16..20].copy_from_slice(&payload_len.to_le_bytes());
        let (decoded, consumed) = decode_response(&buf).unwrap().unwrap();
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(decoded.body, body);
    }

    /// An entry whose name or values overrun the payload, a name that
    /// is not UTF-8, or a scalar carrying other than one value is a
    /// structured `Corrupt` error, never a panic.
    #[test]
    fn malformed_stats_entries_are_corrupt(
        over in 1usize..1_000,
        bad_len in 0usize..4,
        value in any::<u64>(),
    ) {
        let name_overrun = [&[200u8][..], &b"inserts"[..]].concat();
        let mut values_overrun = entry(b"batch_histogram", &[value]);
        values_overrun[1 + 15..1 + 15 + 4].copy_from_slice(&((1 + over) as u32).to_le_bytes());
        let scalars = [vec![], vec![value, value], vec![value; 2 + bad_len]];
        let mut payloads = vec![
            vec![1, 0, 0],
            [&1u32.to_le_bytes()[..], &name_overrun].concat(),
            [&1u32.to_le_bytes()[..], &values_overrun].concat(),
            [&1u32.to_le_bytes()[..], &entry(&[0xff, 0xfe, b'x'], &[value])].concat(),
            [&(2 + over as u32).to_le_bytes()[..], &entry(b"inserts", &[value])].concat(),
        ];
        payloads.push([&1u32.to_le_bytes()[..], &entry(b"lookups", &scalars[bad_len % 3])].concat());
        for payload in payloads {
            let result = decode_response(&stats_frame(&payload));
            prop_assert!(matches!(result, Err(WireError::Corrupt(_))), "{:?}", result);
        }
    }

    /// A batch whose count field disagrees with its payload length is
    /// corrupt, whichever direction the disagreement goes.
    #[test]
    fn batch_count_payload_disagreement_is_corrupt(
        keys in vec(any::<u64>(), 1..20),
        delta in 1u32..8,
        shrink in any::<bool>(),
    ) {
        let count = keys.len() as u32;
        let mut buf = Vec::new();
        encode_request(&Request { id: 1, op: Op::LookupBatch(keys) }, &mut buf);
        let bad = if shrink { count.saturating_sub(delta.min(count)) } else { count + delta };
        prop_assume!(bad != count);
        buf[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&bad.to_le_bytes());
        prop_assert!(matches!(decode_request(&buf), Err(WireError::Corrupt(_))));
    }
}
