//! A blocking `clamd` client with optional pipelining.
//!
//! [`ClamdClient`] offers two usage styles:
//!
//! * **call/response** — [`call`](ClamdClient::call) and the typed
//!   conveniences ([`insert`](ClamdClient::insert),
//!   [`lookup`](ClamdClient::lookup), …) send one request and block for
//!   its response;
//! * **pipelined** — [`send`](ClamdClient::send) queues requests without
//!   waiting and [`recv`](ClamdClient::recv) pulls responses in
//!   submission order, which is what the open-loop load generator uses to
//!   keep many requests in flight per connection.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use bufferhash::{Key, Value};

use crate::proto::{
    decode_response, encode_request, ErrorCode, Op, Request, RespBody, Response, WireError,
};
use crate::stats::ServerStats;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server's bytes did not decode as a valid frame.
    Wire(WireError),
    /// The server answered with an `ERROR` frame.
    Server {
        /// Structured error code.
        code: ErrorCode,
        /// Server-provided message.
        message: String,
    },
    /// The server answered with an unexpected body (protocol confusion).
    Protocol(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error {:?}: {message}", code)
            }
            ClientError::Protocol(what) => write!(f, "protocol confusion: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// Client-side result alias.
pub type Result<T> = std::result::Result<T, ClientError>;

/// A blocking connection to a `clamd` server.
pub struct ClamdClient {
    stream: TcpStream,
    /// Undecoded bytes received so far.
    buf: Vec<u8>,
    /// Parsed-prefix offset into `buf`.
    start: usize,
    next_id: u64,
}

impl ClamdClient {
    /// Connects to a server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self::from_stream(stream))
    }

    /// Wraps an already-connected stream — e.g. the read half of a
    /// socket whose clone another thread writes frames to.
    pub fn from_stream(stream: TcpStream) -> Self {
        ClamdClient { stream, buf: Vec::new(), start: 0, next_id: 1 }
    }

    /// Sends `op` without waiting and returns the request id it was
    /// assigned. Responses arrive in submission order via
    /// [`recv`](Self::recv).
    pub fn send(&mut self, op: Op) -> Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let mut frame = Vec::new();
        encode_request(&Request { id, op }, &mut frame);
        self.stream.write_all(&frame)?;
        Ok(id)
    }

    /// Blocks for the next response frame.
    pub fn recv(&mut self) -> Result<Response> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some((response, consumed)) = decode_response(&self.buf[self.start..])? {
                self.start += consumed;
                if self.start >= self.buf.len() / 2 {
                    self.buf.drain(..self.start);
                    self.start = 0;
                }
                return Ok(response);
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Sends `op` and blocks for its response body, surfacing server
    /// `ERROR` frames as [`ClientError::Server`].
    pub fn call(&mut self, op: Op) -> Result<RespBody> {
        let id = self.send(op)?;
        let response = self.recv()?;
        if response.id != id {
            return Err(ClientError::Protocol("response id does not match the request"));
        }
        match response.body {
            RespBody::Error { code, message } => Err(ClientError::Server { code, message }),
            body => Ok(body),
        }
    }

    /// Inserts one fingerprint; returns once the server has acknowledged
    /// it (group-commit flush synced).
    pub fn insert(&mut self, key: Key, value: Value) -> Result<()> {
        match self.call(Op::Insert { key, value })? {
            RespBody::Inserted => Ok(()),
            _ => Err(ClientError::Protocol("expected INSERTED")),
        }
    }

    /// Looks up one fingerprint.
    pub fn lookup(&mut self, key: Key) -> Result<Option<Value>> {
        match self.call(Op::Lookup { key })? {
            RespBody::Value { found: true, value } => Ok(Some(value)),
            RespBody::Value { found: false, .. } => Ok(None),
            _ => Err(ClientError::Protocol("expected VALUE")),
        }
    }

    /// Deletes one fingerprint.
    pub fn delete(&mut self, key: Key) -> Result<()> {
        match self.call(Op::Delete { key })? {
            RespBody::Deleted => Ok(()),
            _ => Err(ClientError::Protocol("expected DELETED")),
        }
    }

    /// Flushes every server-side buffer to flash.
    pub fn flush(&mut self) -> Result<()> {
        match self.call(Op::Flush)? {
            RespBody::Flushed => Ok(()),
            _ => Err(ClientError::Protocol("expected FLUSHED")),
        }
    }

    /// Fetches the server ledger and the rendered text of both ledgers.
    pub fn stats(&mut self) -> Result<(ServerStats, String)> {
        match self.call(Op::Stats)? {
            RespBody::Stats { fields, text } => Ok((*fields, text)),
            _ => Err(ClientError::Protocol("expected STATS")),
        }
    }

    /// Inserts a batch in one frame; returns once all of it is
    /// acknowledged.
    pub fn insert_batch(&mut self, ops: Vec<(Key, Value)>) -> Result<u32> {
        let len = ops.len() as u32;
        match self.call(Op::InsertBatch(ops))? {
            RespBody::InsertedBatch { count } if count == len => Ok(count),
            RespBody::InsertedBatch { .. } => {
                Err(ClientError::Protocol("INSERTED_BATCH count mismatch"))
            }
            _ => Err(ClientError::Protocol("expected INSERTED_BATCH")),
        }
    }

    /// Looks up a batch of keys in one frame, results in key order.
    pub fn lookup_batch(&mut self, keys: Vec<Key>) -> Result<Vec<Option<Value>>> {
        let len = keys.len();
        match self.call(Op::LookupBatch(keys))? {
            RespBody::Values(values) if values.len() == len => Ok(values
                .into_iter()
                .map(|(found, value)| if found { Some(value) } else { None })
                .collect()),
            RespBody::Values(_) => Err(ClientError::Protocol("VALUES count mismatch")),
            _ => Err(ClientError::Protocol("expected VALUES")),
        }
    }
}
