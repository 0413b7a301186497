//! The `clamd` wire protocol: length-prefixed binary frames.
//!
//! Every message — request or response — is one **frame**: a fixed
//! 20-byte header followed by an opcode-specific payload.
//!
//! ```text
//!  byte  0               4      5      6        8              16        20
//!        +---------------+------+------+--------+--------------+---------+----------+
//!        | magic "CLMD"  | ver  | op   | rsvd=0 | request id   | payload | payload… |
//!        | u32 LE        | u8   | u8   | u16 LE | u64 LE       | len u32 |          |
//!        +---------------+------+------+--------+--------------+---------+----------+
//! ```
//!
//! * The **request id** is chosen by the client and echoed verbatim in the
//!   response, so pipelined connections can match completions to
//!   submissions (the server additionally preserves per-connection
//!   arrival order).
//! * **All integers are little-endian.** Keys and values are the 8-byte
//!   fingerprint entries of [`bufferhash`](bufferhash::ENTRY_SIZE).
//! * Decoding is **strict**: wrong magic, unknown version, non-zero
//!   reserved bytes, an oversized payload, a payload whose length
//!   disagrees with its opcode, or an over-long batch all produce a
//!   structured [`WireError`] — never a panic. Incomplete frames are not
//!   errors; streaming decoders return `Ok(None)` until enough bytes
//!   arrive.
//!
//! The op set mirrors the CLAM surface: INSERT / LOOKUP / DELETE /
//! FLUSH / STATS plus the batch frames INSERT_BATCH / LOOKUP_BATCH that
//! let one client-side frame carry many operations (server-side group
//! commit batches *across* frames and connections either way — see
//! [`crate::batcher`]).
//!
//! A STATS response carries the whole [`ServerStats`] ledger by name,
//! then the rendered text:
//!
//! ```text
//!  u32 entry count, then per entry:
//!      u8 name length | name (UTF-8) | u32 value count | value count × u64
//!  ledger text (UTF-8, the rest of the payload)
//! ```
//!
//! A scalar counter carries one value, a list (`batch_histogram`,
//! `shard_depths`) its elements. The entries are written from
//! [`ServerStats`]' list, in declaration order; a decoder fills the names
//! it knows and skips the rest, so a new counter needs no version.

use std::fmt;

use bufferhash::{Key, Value};
use flashsim::Slot;

use crate::stats::ServerStats;

/// Frame magic: `"CLMD"` in ASCII.
pub const MAGIC: u32 = 0x444D_4C43; // b"CLMD" read little-endian
/// Protocol version this build speaks.
pub const VERSION: u8 = 1;
/// Fixed frame-header length in bytes.
pub const HEADER_LEN: usize = 20;
/// Largest payload a peer may send; larger length fields are rejected as
/// [`WireError::Oversized`] before any allocation. It is the largest batch
/// frame: an `INSERT_BATCH` of [`MAX_BATCH_OPS`] pairs (a 4-byte count
/// and 16 bytes a pair), so a batch of either kind up to the op limit is
/// legal.
pub const MAX_PAYLOAD: usize = 4 + 16 * MAX_BATCH_OPS;
/// Largest operation count in one batch frame.
pub const MAX_BATCH_OPS: usize = 64 * 1024;

/// Request opcodes (client → server).
mod opcode {
    pub const INSERT: u8 = 0x01;
    pub const LOOKUP: u8 = 0x02;
    pub const DELETE: u8 = 0x03;
    pub const FLUSH: u8 = 0x04;
    pub const STATS: u8 = 0x05;
    pub const INSERT_BATCH: u8 = 0x06;
    pub const LOOKUP_BATCH: u8 = 0x07;

    pub const R_INSERTED: u8 = 0x81;
    pub const R_VALUE: u8 = 0x82;
    pub const R_DELETED: u8 = 0x83;
    pub const R_FLUSHED: u8 = 0x84;
    pub const R_STATS: u8 = 0x85;
    pub const R_INSERTED_BATCH: u8 = 0x86;
    pub const R_VALUES: u8 = 0x87;
    pub const R_ERROR: u8 = 0xFF;
}

/// One client operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Insert (or update) one fingerprint.
    Insert {
        /// The fingerprint key.
        key: Key,
        /// The value to store.
        value: Value,
    },
    /// Look up one fingerprint.
    Lookup {
        /// The fingerprint key.
        key: Key,
    },
    /// Delete one fingerprint.
    Delete {
        /// The fingerprint key.
        key: Key,
    },
    /// Flush every buffered entry to flash (durability barrier).
    Flush,
    /// Fetch the server's statistics ledgers.
    Stats,
    /// Insert many fingerprints in one frame.
    InsertBatch(Vec<(Key, Value)>),
    /// Look up many fingerprints in one frame.
    LookupBatch(Vec<Key>),
}

impl Op {
    /// The opcode byte this operation encodes to.
    pub fn opcode(&self) -> u8 {
        match self {
            Op::Insert { .. } => opcode::INSERT,
            Op::Lookup { .. } => opcode::LOOKUP,
            Op::Delete { .. } => opcode::DELETE,
            Op::Flush => opcode::FLUSH,
            Op::Stats => opcode::STATS,
            Op::InsertBatch(_) => opcode::INSERT_BATCH,
            Op::LookupBatch(_) => opcode::LOOKUP_BATCH,
        }
    }

    /// Number of CLAM operations this frame carries (1 for the scalar
    /// ops, the batch length for batch frames).
    pub fn ops(&self) -> usize {
        match self {
            Op::InsertBatch(v) => v.len(),
            Op::LookupBatch(v) => v.len(),
            _ => 1,
        }
    }
}

/// Structured error codes carried by [`RespBody::Error`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Frame magic was not `"CLMD"`.
    BadMagic,
    /// Version byte newer than this server speaks.
    BadVersion,
    /// Opcode not defined in this direction of the protocol.
    UnknownOp,
    /// Payload length field exceeded [`MAX_PAYLOAD`].
    Oversized,
    /// Payload disagreed with its opcode (length mismatch, bad count,
    /// non-zero reserved bytes, malformed fields).
    Corrupt,
    /// A batch frame carried more than [`MAX_BATCH_OPS`] operations.
    TooManyOps,
    /// The store itself failed the operation.
    Internal,
}

impl ErrorCode {
    /// Wire representation.
    pub fn as_u16(self) -> u16 {
        match self {
            ErrorCode::BadMagic => 1,
            ErrorCode::BadVersion => 2,
            ErrorCode::UnknownOp => 3,
            ErrorCode::Oversized => 4,
            ErrorCode::Corrupt => 5,
            ErrorCode::TooManyOps => 6,
            ErrorCode::Internal => 7,
        }
    }

    /// Parses a wire code; unknown codes are a corrupt payload.
    pub fn from_u16(code: u16) -> Result<Self, WireError> {
        Ok(match code {
            1 => ErrorCode::BadMagic,
            2 => ErrorCode::BadVersion,
            3 => ErrorCode::UnknownOp,
            4 => ErrorCode::Oversized,
            5 => ErrorCode::Corrupt,
            6 => ErrorCode::TooManyOps,
            7 => ErrorCode::Internal,
            _ => return Err(WireError::Corrupt("unknown error code")),
        })
    }
}

/// A decode-side protocol violation. Connection-fatal: the server answers
/// with one [`RespBody::Error`] frame (request id 0 when the offending
/// header could not be parsed) and closes the connection, because a
/// misframed stream has no trustworthy resynchronization point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Frame magic mismatch (the observed value).
    BadMagic(u32),
    /// Unsupported protocol version (the observed value).
    BadVersion(u8),
    /// Opcode not valid in this direction (the observed value).
    UnknownOpcode(u8),
    /// Declared payload length beyond [`MAX_PAYLOAD`].
    Oversized(usize),
    /// Structurally invalid frame contents.
    Corrupt(&'static str),
    /// A batch frame declared more than [`MAX_BATCH_OPS`] operations.
    TooManyOps(usize),
}

impl WireError {
    /// The structured code a server reports for this violation.
    pub fn code(&self) -> ErrorCode {
        match self {
            WireError::BadMagic(_) => ErrorCode::BadMagic,
            WireError::BadVersion(_) => ErrorCode::BadVersion,
            WireError::UnknownOpcode(_) => ErrorCode::UnknownOp,
            WireError::Oversized(_) => ErrorCode::Oversized,
            WireError::Corrupt(_) => ErrorCode::Corrupt,
            WireError::TooManyOps(_) => ErrorCode::TooManyOps,
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownOpcode(o) => write!(f, "unknown opcode {o:#04x}"),
            WireError::Oversized(n) => {
                write!(f, "payload of {n} bytes exceeds the {MAX_PAYLOAD}-byte limit")
            }
            WireError::Corrupt(why) => write!(f, "corrupt frame: {why}"),
            WireError::TooManyOps(n) => {
                write!(f, "batch of {n} ops exceeds the {MAX_BATCH_OPS}-op limit")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A server response body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RespBody {
    /// The insert is durable in the store's acknowledgment sense (its
    /// group-commit flush writes, if any, were synced before this was
    /// sent).
    Inserted,
    /// Lookup result.
    Value {
        /// Whether the key was found.
        found: bool,
        /// The value (0 when not found).
        value: Value,
    },
    /// The delete was applied.
    Deleted,
    /// Every buffer was flushed to flash.
    Flushed,
    /// Statistics ledgers: the server's counters plus the rendered text.
    Stats {
        /// The merged server ledger, every counter by name (boxed: the
        /// ledger is several times the size of every other body).
        fields: Box<ServerStats>,
        /// Human-readable ledger (server + store + recovery).
        text: String,
    },
    /// A batch of inserts is durable; `count` echoes the batch size.
    InsertedBatch {
        /// Operations acknowledged.
        count: u32,
    },
    /// Batch lookup results, in request order.
    Values(Vec<(bool, Value)>),
    /// The request failed; see the code and message.
    Error {
        /// Structured error code.
        code: ErrorCode,
        /// Human-readable explanation.
        message: String,
    },
}

impl RespBody {
    /// The opcode byte this response encodes to.
    pub fn opcode(&self) -> u8 {
        match self {
            RespBody::Inserted => opcode::R_INSERTED,
            RespBody::Value { .. } => opcode::R_VALUE,
            RespBody::Deleted => opcode::R_DELETED,
            RespBody::Flushed => opcode::R_FLUSHED,
            RespBody::Stats { .. } => opcode::R_STATS,
            RespBody::InsertedBatch { .. } => opcode::R_INSERTED_BATCH,
            RespBody::Values(_) => opcode::R_VALUES,
            RespBody::Error { .. } => opcode::R_ERROR,
        }
    }
}

/// One request frame: client-chosen id plus the operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen id, echoed in the response.
    pub id: u64,
    /// The operation.
    pub op: Op,
}

/// One response frame: the echoed request id plus the body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The id of the request this answers (0 for connection-level
    /// protocol errors whose request header could not be parsed).
    pub id: u64,
    /// The response body.
    pub body: RespBody,
}

fn put_header(buf: &mut Vec<u8>, op: u8, id: u64, payload_len: usize) {
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.push(VERSION);
    buf.push(op);
    buf.extend_from_slice(&0u16.to_le_bytes());
    buf.extend_from_slice(&id.to_le_bytes());
    buf.extend_from_slice(&(payload_len as u32).to_le_bytes());
}

/// Appends the encoded frame for `request` to `buf`.
pub fn encode_request(request: &Request, buf: &mut Vec<u8>) {
    let payload_len = match &request.op {
        Op::Insert { .. } => 16,
        Op::Lookup { .. } | Op::Delete { .. } => 8,
        Op::Flush | Op::Stats => 0,
        Op::InsertBatch(v) => 4 + 16 * v.len(),
        Op::LookupBatch(v) => 4 + 8 * v.len(),
    };
    put_header(buf, request.op.opcode(), request.id, payload_len);
    match &request.op {
        Op::Insert { key, value } => {
            buf.extend_from_slice(&key.to_le_bytes());
            buf.extend_from_slice(&value.to_le_bytes());
        }
        Op::Lookup { key } | Op::Delete { key } => buf.extend_from_slice(&key.to_le_bytes()),
        Op::Flush | Op::Stats => {}
        Op::InsertBatch(v) => {
            buf.extend_from_slice(&(v.len() as u32).to_le_bytes());
            for (key, value) in v {
                buf.extend_from_slice(&key.to_le_bytes());
                buf.extend_from_slice(&value.to_le_bytes());
            }
        }
        Op::LookupBatch(v) => {
            buf.extend_from_slice(&(v.len() as u32).to_le_bytes());
            for key in v {
                buf.extend_from_slice(&key.to_le_bytes());
            }
        }
    }
}

/// Appends the encoded frame for `response` to `buf`.
pub fn encode_response(response: &Response, buf: &mut Vec<u8>) {
    let start = buf.len();
    // The payload length is patched in once the payload is written.
    put_header(buf, response.body.opcode(), response.id, 0);
    match &response.body {
        RespBody::Inserted | RespBody::Deleted | RespBody::Flushed => {}
        RespBody::Value { found, value } => {
            buf.push(u8::from(*found));
            buf.extend_from_slice(&value.to_le_bytes());
        }
        RespBody::Stats { fields, text } => {
            let mut fields = ServerStats::clone(fields);
            let entries = fields.entries();
            buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for (name, _, slot) in &entries {
                buf.push(name.len() as u8);
                buf.extend_from_slice(name.as_bytes());
                buf.extend_from_slice(&(slot.values().len() as u32).to_le_bytes());
                for value in slot.values() {
                    buf.extend_from_slice(&value.to_le_bytes());
                }
            }
            buf.extend_from_slice(text.as_bytes());
        }
        RespBody::InsertedBatch { count } => buf.extend_from_slice(&count.to_le_bytes()),
        RespBody::Values(v) => {
            buf.extend_from_slice(&(v.len() as u32).to_le_bytes());
            for (found, value) in v {
                buf.push(u8::from(*found));
                buf.extend_from_slice(&value.to_le_bytes());
            }
        }
        RespBody::Error { code, message } => {
            buf.extend_from_slice(&code.as_u16().to_le_bytes());
            buf.extend_from_slice(message.as_bytes());
        }
    }
    let payload_len = (buf.len() - start - HEADER_LEN) as u32;
    buf[start + 16..start + HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
}

/// A parsed header: opcode, request id, payload length.
struct Header {
    opcode: u8,
    id: u64,
    payload_len: usize,
}

/// Parses the fixed header. `Ok(None)` means more bytes are needed.
fn parse_header(buf: &[u8]) -> Result<Option<Header>, WireError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let magic = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"));
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if buf[4] != VERSION {
        return Err(WireError::BadVersion(buf[4]));
    }
    let reserved = u16::from_le_bytes(buf[6..8].try_into().expect("2 bytes"));
    if reserved != 0 {
        return Err(WireError::Corrupt("non-zero reserved header bytes"));
    }
    let id = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
    let payload_len = u32::from_le_bytes(buf[16..20].try_into().expect("4 bytes")) as usize;
    if payload_len > MAX_PAYLOAD {
        return Err(WireError::Oversized(payload_len));
    }
    Ok(Some(Header { opcode: buf[5], id, payload_len }))
}

/// Best-effort extraction of the request id from the front of `buf`, for
/// correlating an error reply with the frame that caused it.
///
/// Returns `Some(id)` only when a full header is present and its magic
/// and version match — i.e. the peer was speaking this protocol and the
/// id field is trustworthy even if the rest of the frame is invalid.
pub fn peek_request_id(buf: &[u8]) -> Option<u64> {
    if buf.len() < HEADER_LEN || buf[0..4] != MAGIC.to_le_bytes() || buf[4] != VERSION {
        return None;
    }
    Some(u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes")))
}

fn u64_at(p: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(p[at..at + 8].try_into().expect("8 bytes"))
}

fn u32_of(bytes: &[u8]) -> usize {
    u32::from_le_bytes(bytes.try_into().expect("4 bytes")) as usize
}

/// Checks that a fixed-size payload has exactly its size.
fn exact(p: &[u8], want: usize, what: &'static str) -> Result<(), WireError> {
    if p.len() == want {
        Ok(())
    } else {
        Err(WireError::Corrupt(what))
    }
}

/// Splits `n` bytes off the front of `rest`, or fails with `what`.
fn take<'a>(rest: &mut &'a [u8], n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
    if rest.len() < n {
        return Err(WireError::Corrupt(what));
    }
    let (head, tail) = rest.split_at(n);
    *rest = tail;
    Ok(head)
}

/// Reads a batch count and checks it against the remaining payload.
fn batch_count(mut p: &[u8], elem_size: usize) -> Result<usize, WireError> {
    let count = u32_of(take(&mut p, 4, "batch frame shorter than its count field")?);
    if count > MAX_BATCH_OPS {
        return Err(WireError::TooManyOps(count));
    }
    exact(p, count * elem_size, "batch payload length disagrees with its count")?;
    Ok(count)
}

/// Reads a STATS payload's entries into a ledger, skipping names this
/// build does not know; returns it with the text bytes that follow.
fn decode_stats_entries(mut rest: &[u8]) -> Result<(ServerStats, &[u8]), WireError> {
    let mut fields = ServerStats::new();
    let mut list = fields.entries();
    let entries = u32_of(take(&mut rest, 4, "STATS frame shorter than its entry count")?);
    for _ in 0..entries {
        let name_len = take(&mut rest, 1, "STATS entry truncates its name length")?[0];
        let name = take(&mut rest, name_len.into(), "STATS entry name overruns the payload")?;
        let name = std::str::from_utf8(name)
            .map_err(|_| WireError::Corrupt("STATS entry name is not UTF-8"))?;
        let count = u32_of(take(&mut rest, 4, "STATS entry truncates its value count")?);
        let values =
            take(&mut rest, count.saturating_mul(8), "STATS entry values overrun the payload")?;
        if let Some((_, _, slot)) = list.iter_mut().find(|(known, _, _)| *known == name) {
            if matches!(slot, Slot::Fixed(fixed) if fixed.len() != count) {
                return Err(WireError::Corrupt("STATS scalar entry must carry exactly one value"));
            }
            let values: Vec<u64> = values.chunks_exact(8).map(|v| u64_at(v, 0)).collect();
            slot.set(&values);
        }
    }
    drop(list);
    Ok((fields, rest))
}

/// Decodes one request frame from the front of `buf`.
///
/// Returns `Ok(Some((request, consumed)))` for a complete frame,
/// `Ok(None)` when `buf` holds only a prefix (read more and retry), and
/// a [`WireError`] for a structurally invalid frame. Never panics on
/// arbitrary input.
pub fn decode_request(buf: &[u8]) -> Result<Option<(Request, usize)>, WireError> {
    let Some(header) = parse_header(buf)? else { return Ok(None) };
    if buf.len() < HEADER_LEN + header.payload_len {
        return Ok(None);
    }
    let p = &buf[HEADER_LEN..HEADER_LEN + header.payload_len];
    let op = match header.opcode {
        opcode::INSERT => {
            exact(p, 16, "INSERT payload must be exactly 16 bytes")?;
            Op::Insert { key: u64_at(p, 0), value: u64_at(p, 8) }
        }
        opcode::LOOKUP => {
            exact(p, 8, "LOOKUP payload must be exactly 8 bytes")?;
            Op::Lookup { key: u64_at(p, 0) }
        }
        opcode::DELETE => {
            exact(p, 8, "DELETE payload must be exactly 8 bytes")?;
            Op::Delete { key: u64_at(p, 0) }
        }
        opcode::FLUSH => {
            exact(p, 0, "FLUSH carries no payload")?;
            Op::Flush
        }
        opcode::STATS => {
            exact(p, 0, "STATS carries no payload")?;
            Op::Stats
        }
        opcode::INSERT_BATCH => {
            let count = batch_count(p, 16)?;
            Op::InsertBatch(
                (0..count).map(|i| (u64_at(p, 4 + 16 * i), u64_at(p, 12 + 16 * i))).collect(),
            )
        }
        opcode::LOOKUP_BATCH => {
            let count = batch_count(p, 8)?;
            Op::LookupBatch((0..count).map(|i| u64_at(p, 4 + 8 * i)).collect())
        }
        other => return Err(WireError::UnknownOpcode(other)),
    };
    Ok(Some((Request { id: header.id, op }, HEADER_LEN + header.payload_len)))
}

/// Decodes one response frame from the front of `buf`; same contract as
/// [`decode_request`].
pub fn decode_response(buf: &[u8]) -> Result<Option<(Response, usize)>, WireError> {
    let Some(header) = parse_header(buf)? else { return Ok(None) };
    if buf.len() < HEADER_LEN + header.payload_len {
        return Ok(None);
    }
    let p = &buf[HEADER_LEN..HEADER_LEN + header.payload_len];
    let body = match header.opcode {
        opcode::R_INSERTED => {
            exact(p, 0, "INSERTED carries no payload")?;
            RespBody::Inserted
        }
        opcode::R_DELETED => {
            exact(p, 0, "DELETED carries no payload")?;
            RespBody::Deleted
        }
        opcode::R_FLUSHED => {
            exact(p, 0, "FLUSHED carries no payload")?;
            RespBody::Flushed
        }
        opcode::R_VALUE => {
            exact(p, 9, "VALUE payload must be exactly 9 bytes")?;
            if p[0] > 1 {
                return Err(WireError::Corrupt("VALUE found flag must be 0 or 1"));
            }
            RespBody::Value { found: p[0] == 1, value: u64_at(p, 1) }
        }
        opcode::R_STATS => {
            let (fields, text) = decode_stats_entries(p)?;
            let text = std::str::from_utf8(text)
                .map_err(|_| WireError::Corrupt("STATS ledger text is not UTF-8"))?
                .to_string();
            RespBody::Stats { fields: Box::new(fields), text }
        }
        opcode::R_INSERTED_BATCH => {
            exact(p, 4, "INSERTED_BATCH payload must be exactly 4 bytes")?;
            RespBody::InsertedBatch {
                count: u32::from_le_bytes(p[0..4].try_into().expect("4 bytes")),
            }
        }
        opcode::R_VALUES => {
            let count = batch_count(p, 9)?;
            let mut values = Vec::with_capacity(count);
            for i in 0..count {
                let at = 4 + 9 * i;
                if p[at] > 1 {
                    return Err(WireError::Corrupt("VALUES found flag must be 0 or 1"));
                }
                values.push((p[at] == 1, u64_at(p, at + 1)));
            }
            RespBody::Values(values)
        }
        opcode::R_ERROR => {
            if p.len() < 2 {
                return Err(WireError::Corrupt("ERROR frame shorter than its code field"));
            }
            let code = ErrorCode::from_u16(u16::from_le_bytes(p[0..2].try_into().expect("2")))?;
            let message = std::str::from_utf8(&p[2..])
                .map_err(|_| WireError::Corrupt("ERROR message is not UTF-8"))?
                .to_string();
            RespBody::Error { code, message }
        }
        other => return Err(WireError::UnknownOpcode(other)),
    };
    Ok(Some((Response { id: header.id, body }, HEADER_LEN + header.payload_len)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magic_spells_clmd() {
        assert_eq!(&MAGIC.to_le_bytes(), b"CLMD");
    }

    #[test]
    fn request_round_trip_all_ops() {
        let ops = vec![
            Op::Insert { key: 1, value: 2 },
            Op::Lookup { key: u64::MAX },
            Op::Delete { key: 0 },
            Op::Flush,
            Op::Stats,
            Op::InsertBatch(vec![(1, 2), (3, 4)]),
            Op::InsertBatch(Vec::new()),
            Op::LookupBatch(vec![9, 8, 7]),
        ];
        for (i, op) in ops.into_iter().enumerate() {
            let req = Request { id: i as u64 * 77 + 1, op };
            let mut buf = Vec::new();
            encode_request(&req, &mut buf);
            let (decoded, consumed) = decode_request(&buf).unwrap().unwrap();
            assert_eq!(consumed, buf.len());
            assert_eq!(decoded, req);
        }
    }

    /// The STATS entries of a fixed ledger, byte for byte: the 23 entries
    /// every decoder since the named encoding knows, in their order, then
    /// only entries appended after them, then the text. Appending is how
    /// a counter joins the wire without a version.
    #[test]
    fn stats_entries_keep_their_names_order_and_values() {
        let fields = ServerStats {
            inserts: 1,
            lookups: 2,
            deletes: 3,
            flushes: 4,
            stats_calls: 5,
            lookup_hits: 6,
            lookup_misses: 7,
            wire_errors: 8,
            batches: 9,
            batched_requests: 10,
            group_commit_waits: 11,
            batch_high_water: 12,
            batch_histogram: vec![0, 13, 1],
            insert_admissions: 14,
            lookup_admissions: 15,
            delete_admissions: 16,
            segments: 17,
            segment_conflicts: 18,
            connections_opened: 19,
            connections_closed: 20,
            connections_stalled: 21,
            bypass_hits: 22,
            shard_depths: vec![4, 0, u64::MAX],
            ..Default::default()
        };
        let pinned: [(&str, &[u64]); 23] = [
            ("inserts", &[1]),
            ("lookups", &[2]),
            ("deletes", &[3]),
            ("flushes", &[4]),
            ("stats_calls", &[5]),
            ("lookup_hits", &[6]),
            ("lookup_misses", &[7]),
            ("wire_errors", &[8]),
            ("batches", &[9]),
            ("batched_requests", &[10]),
            ("group_commit_waits", &[11]),
            ("batch_high_water", &[12]),
            ("batch_histogram", &[0, 13, 1]),
            ("insert_admissions", &[14]),
            ("lookup_admissions", &[15]),
            ("delete_admissions", &[16]),
            ("segments", &[17]),
            ("segment_conflicts", &[18]),
            ("connections_opened", &[19]),
            ("connections_closed", &[20]),
            ("connections_stalled", &[21]),
            ("bypass_hits", &[22]),
            ("shard_depths", &[4, 0, u64::MAX]),
        ];
        let mut want = Vec::new();
        for (name, values) in pinned {
            want.push(name.len() as u8);
            want.extend_from_slice(name.as_bytes());
            want.extend_from_slice(&(values.len() as u32).to_le_bytes());
            values.iter().for_each(|v| want.extend_from_slice(&v.to_le_bytes()));
        }
        let body = RespBody::Stats { fields: Box::new(fields), text: "text".to_string() };
        let mut buf = Vec::new();
        encode_response(&Response { id: 1, body }, &mut buf);
        let payload = &buf[HEADER_LEN..];
        let count = u32_of(&payload[..4]);
        assert_eq!(&payload[4..4 + want.len()], &want[..], "the pinned entries' bytes");
        let mut rest = &payload[4 + want.len()..];
        for _ in pinned.len()..count {
            let name_len = usize::from(rest[0]);
            let name = std::str::from_utf8(&rest[1..1 + name_len]).unwrap();
            assert!(pinned.iter().all(|(known, _)| *known != name), "{name} appears twice");
            let values = u32_of(&rest[1 + name_len..5 + name_len]);
            rest = &rest[5 + name_len + 8 * values..];
        }
        assert_eq!(rest, b"text");
    }

    #[test]
    fn response_round_trip_all_bodies() {
        let bodies = vec![
            RespBody::Inserted,
            RespBody::Value { found: true, value: 42 },
            RespBody::Value { found: false, value: 0 },
            RespBody::Deleted,
            RespBody::Flushed,
            RespBody::Stats {
                fields: Box::new(ServerStats {
                    inserts: 5,
                    lookup_hits: 3,
                    bypass_hits: 7,
                    batch_histogram: vec![0, 2, 1],
                    shard_depths: vec![4, 0, 2],
                    ..Default::default()
                }),
                text: "served: …".to_string(),
            },
            RespBody::InsertedBatch { count: 1000 },
            RespBody::Values(vec![(true, 1), (false, 0)]),
            RespBody::Error { code: ErrorCode::Corrupt, message: "nope".to_string() },
        ];
        for (i, body) in bodies.into_iter().enumerate() {
            let resp = Response { id: i as u64, body };
            let mut buf = Vec::new();
            encode_response(&resp, &mut buf);
            let (decoded, consumed) = decode_response(&buf).unwrap().unwrap();
            assert_eq!(consumed, buf.len());
            assert_eq!(decoded, resp);
        }
    }

    #[test]
    fn truncated_frames_ask_for_more_bytes() {
        let mut buf = Vec::new();
        encode_request(&Request { id: 7, op: Op::InsertBatch(vec![(1, 2), (3, 4)]) }, &mut buf);
        for cut in 0..buf.len() {
            assert_eq!(decode_request(&buf[..cut]).unwrap(), None, "prefix of {cut} bytes");
        }
    }

    #[test]
    fn corrupt_headers_are_structured_errors() {
        let mut buf = Vec::new();
        encode_request(&Request { id: 1, op: Op::Flush }, &mut buf);
        // Bad magic.
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(decode_request(&bad), Err(WireError::BadMagic(_))));
        // Future version.
        let mut bad = buf.clone();
        bad[4] = 9;
        assert_eq!(decode_request(&bad), Err(WireError::BadVersion(9)));
        // Reserved bytes must be zero.
        let mut bad = buf.clone();
        bad[6] = 1;
        assert!(matches!(decode_request(&bad), Err(WireError::Corrupt(_))));
        // Unknown opcode (a response opcode in the request direction).
        let mut bad = buf.clone();
        bad[5] = 0x81;
        assert_eq!(decode_request(&bad), Err(WireError::UnknownOpcode(0x81)));
        // Oversized payload length field.
        let mut bad = buf;
        bad[16..20].copy_from_slice(&((MAX_PAYLOAD + 1) as u32).to_le_bytes());
        assert_eq!(decode_request(&bad), Err(WireError::Oversized(MAX_PAYLOAD + 1)));
    }

    #[test]
    fn payload_length_must_match_opcode() {
        // An INSERT whose payload claims 8 bytes is corrupt, not a panic.
        let mut buf = Vec::new();
        encode_request(&Request { id: 1, op: Op::Lookup { key: 5 } }, &mut buf);
        buf[5] = 0x01; // relabel LOOKUP as INSERT, payload stays 8 bytes
        assert!(matches!(decode_request(&buf), Err(WireError::Corrupt(_))));
    }

    #[test]
    fn batch_count_must_match_payload() {
        let mut buf = Vec::new();
        encode_request(&Request { id: 1, op: Op::LookupBatch(vec![1, 2, 3]) }, &mut buf);
        // Claim one extra element without supplying its bytes.
        buf[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&4u32.to_le_bytes());
        assert!(matches!(decode_request(&buf), Err(WireError::Corrupt(_))));
        // Claim an absurd count: structured TooManyOps.
        let mut absurd = Vec::new();
        encode_request(&Request { id: 1, op: Op::LookupBatch(vec![1]) }, &mut absurd);
        absurd[HEADER_LEN..HEADER_LEN + 4]
            .copy_from_slice(&((MAX_BATCH_OPS + 1) as u32).to_le_bytes());
        assert!(matches!(decode_request(&absurd), Err(WireError::TooManyOps(_))));
    }

    /// A batch of `MAX_BATCH_OPS` ops of either kind decodes; one op more
    /// is refused, an insert batch by its payload length and a lookup
    /// batch by its count.
    #[test]
    fn batches_up_to_the_op_limit_are_legal_and_one_op_more_is_not() {
        let round_trip = |op: Op| {
            let mut buf = Vec::new();
            encode_request(&Request { id: 9, op }, &mut buf);
            let decoded = decode_request(&buf).map(|frame| frame.map(|(r, used)| (r.op, used)));
            (decoded, buf.len())
        };
        let pairs = |n: usize| (0..n as u64).map(|i| (i, !i)).collect::<Vec<_>>();
        let keys = |n: usize| (0..n as u64).collect::<Vec<_>>();
        for op in [Op::InsertBatch(pairs(MAX_BATCH_OPS)), Op::LookupBatch(keys(MAX_BATCH_OPS))] {
            let (decoded, len) = round_trip(op.clone());
            assert_eq!(decoded, Ok(Some((op, len))));
        }
        let over = MAX_BATCH_OPS + 1;
        let (decoded, _) = round_trip(Op::InsertBatch(pairs(over)));
        assert_eq!(decoded, Err(WireError::Oversized(4 + 16 * over)));
        let (decoded, _) = round_trip(Op::LookupBatch(keys(over)));
        assert_eq!(decoded, Err(WireError::TooManyOps(over)));
    }

    #[test]
    fn error_codes_round_trip() {
        for code in [
            ErrorCode::BadMagic,
            ErrorCode::BadVersion,
            ErrorCode::UnknownOp,
            ErrorCode::Oversized,
            ErrorCode::Corrupt,
            ErrorCode::TooManyOps,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_u16(code.as_u16()).unwrap(), code);
        }
        assert!(ErrorCode::from_u16(999).is_err());
    }
}
