//! Property tests for the `clamd` wire protocol: every frame round-trips,
//! and no input — truncated, oversized, bit-flipped or outright random —
//! ever panics the decoder or escapes without a structured error.

use proptest::collection::vec;
use proptest::prelude::*;

use clamd::proto::{
    decode_request, decode_response, encode_request, encode_response, ErrorCode, Op, Request,
    RespBody, Response, StatsFields, WireError, HEADER_LEN, MAX_BATCH_OPS, MAX_PAYLOAD,
};

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

/// Builds one of the eight response bodies from sampled raw material.
fn build_body(
    kind: u8,
    value: u64,
    found: bool,
    count: u32,
    values: &[(bool, u64)],
    text_bytes: &[u8],
) -> RespBody {
    // Printable ASCII keeps the sampled text valid UTF-8.
    let text: String = text_bytes.iter().map(|b| char::from(b'a' + b % 26)).collect();
    match kind % 8 {
        0 => RespBody::Inserted,
        1 => RespBody::Value { found, value: if found { value } else { 0 } },
        2 => RespBody::Deleted,
        3 => RespBody::Flushed,
        4 => RespBody::Stats {
            fields: StatsFields {
                inserts: value,
                lookups: value.rotate_left(7),
                batches: u64::from(count),
                bypass_hits: value.rotate_left(13),
                shards: u64::from(count % 17),
                shard_inflight: value.rotate_left(29),
                ..Default::default()
            },
            text,
        },
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
    ) {
        let response =
            Response { id, body: build_body(kind, value, found, count, &values, &text_bytes) };
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

    /// A minor-version-1 STATS frame (15-word field vector) still
    /// decodes, zero-filling the v2 and v3 fields — the count word
    /// doubles as the field-vector version.
    #[test]
    fn legacy_v1_stats_frames_decode(
        id in any::<u64>(),
        inserts in any::<u64>(),
        wire_errors in any::<u64>(),
        text_bytes in vec(any::<u8>(), 0..40),
    ) {
        let text: String = text_bytes.iter().map(|b| char::from(b'a' + b % 26)).collect();
        let fields = StatsFields { inserts, wire_errors, ..Default::default() };
        let mut buf = Vec::new();
        let body = RespBody::Stats { fields, text: text.clone() };
        encode_response(&Response { id, body }, &mut buf);
        // Surgically rewrite the current frame into its v1 form: drop
        // the trailing (zero) field words, rewrite the count word and
        // the header's payload length.
        let words_start = HEADER_LEN + 4;
        let v1 = StatsFields::V1_COUNT;
        buf.drain(words_start + 8 * v1..words_start + 8 * StatsFields::COUNT);
        buf[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&(v1 as u32).to_le_bytes());
        let payload_len = (buf.len() - HEADER_LEN) as u32;
        buf[16..20].copy_from_slice(&payload_len.to_le_bytes());
        let (decoded, consumed) = decode_response(&buf).unwrap().unwrap();
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(decoded, Response { id, body: RespBody::Stats { fields, text } });
    }

    /// A minor-version-2 STATS frame (18-word field vector, no
    /// table-write-lock ledger) still decodes, zero-filling the three v3
    /// fields, with every v2 field — including the v2 additions
    /// (`bypass_hits`, `shards`, `shard_inflight`) — intact.
    #[test]
    fn legacy_v2_stats_frames_decode(
        id in any::<u64>(),
        inserts in any::<u64>(),
        bypass_hits in any::<u64>(),
        shards in any::<u64>(),
        shard_inflight in any::<u64>(),
        text_bytes in vec(any::<u8>(), 0..40),
    ) {
        let text: String = text_bytes.iter().map(|b| char::from(b'a' + b % 26)).collect();
        let fields =
            StatsFields { inserts, bypass_hits, shards, shard_inflight, ..Default::default() };
        let mut buf = Vec::new();
        let body = RespBody::Stats { fields, text: text.clone() };
        encode_response(&Response { id, body }, &mut buf);
        // Rewrite the current frame into its v2 form: drop the three
        // (zero) table-lock words, rewrite the count word and the
        // header's payload length.
        let words_start = HEADER_LEN + 4;
        let v2 = StatsFields::V2_COUNT;
        buf.drain(words_start + 8 * v2..words_start + 8 * StatsFields::COUNT);
        buf[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&(v2 as u32).to_le_bytes());
        let payload_len = (buf.len() - HEADER_LEN) as u32;
        buf[16..20].copy_from_slice(&payload_len.to_le_bytes());
        let (decoded, consumed) = decode_response(&buf).unwrap().unwrap();
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(decoded, Response { id, body: RespBody::Stats { fields, text } });
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
