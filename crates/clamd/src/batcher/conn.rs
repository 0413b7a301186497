//! A connection's sequencer, where each response is assembled from the
//! answers of its shard parts and put back in request order, and the sink
//! responses go to: a served connection's socket, or an in-process
//! caller's channel.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use bufferhash::Value;

use crate::proto::{self, ErrorCode, RespBody, Response};

/// How long one delivery may take to reach a connection's socket before
/// the connection is closed. The writer is a shard's gather thread (or a
/// reader), which other connections wait on, so a client that leaves a
/// whole socket buffer unread may stall them this long and no longer. A
/// reading client drains its buffer in microseconds.
pub(crate) const STALL_LIMIT: Duration = Duration::from_millis(50);

/// Where a connection's responses go.
pub(super) enum Sink {
    /// A served connection's socket, and the responses encoded for the
    /// next write.
    Socket { stream: TcpStream, out: Vec<u8> },
    /// An in-process caller's channel (`Engine::register_conn`).
    Channel(mpsc::Sender<Response>),
}

/// What one shard part of a request contributes to its response.
pub(super) enum Answer<'a> {
    /// The part's writes, or its stripe's flush, took effect.
    Ack,
    /// The outcome each of the part's keys found, and the response slot
    /// each fills (a scalar lookup's is slot 0).
    Found { slots: &'a [usize], values: &'a [Option<Value>] },
    /// The part's store call failed.
    Failed(&'a str),
    /// The whole body, built where the request ran: STATS.
    Body(RespBody),
}

impl<'a> From<&'a Result<(), String>> for Answer<'a> {
    fn from(result: &'a Result<(), String>) -> Self {
        result.as_ref().map_or_else(|message| Answer::Failed(message), |()| Answer::Ack)
    }
}

/// A submitted request whose response has not gone out.
struct Slot {
    id: u64,
    /// Shard parts that have not answered.
    parts: usize,
    /// The body as the request opened it, filled in by its parts; once a
    /// part fails, the first failure's `Internal` error.
    body: RespBody,
}

/// Per-connection response sequencer state.
#[derive(Default)]
pub(super) struct ConnSeq {
    /// Where responses go; `None` once the connection is closed (or for a
    /// connection that was never registered), after which responses are
    /// dropped as they complete.
    sink: Option<Sink>,
    /// The sequence number of `slots[0]`: the next response the sink is
    /// owed.
    next_deliver: u64,
    /// One slot per request submitted and not yet delivered, in request
    /// order.
    slots: VecDeque<Slot>,
    /// The sequence number of the connection's last response — its ERROR
    /// frame, or the answer to the request its client sent before
    /// half-closing: the connection closes once that is written.
    last: Option<u64>,
    /// A delivery missed [`STALL_LIMIT`] and closed the connection.
    stalled: bool,
    /// Notified when the connection closes.
    closed: Arc<Condvar>,
}

impl ConnSeq {
    /// Opens the response to the connection's next request, `id`: `form`
    /// is its body before any part lands, and `parts` shard parts will
    /// answer it. Returns its sequence number.
    pub(super) fn open(&mut self, id: u64, form: RespBody, parts: usize) -> u64 {
        self.slots.push_back(Slot { id, parts, body: form });
        self.next_deliver + self.slots.len() as u64 - 1
    }

    /// Lands one part of response `seq`, merging what it contributes: the
    /// first failure wins and makes the response an `Internal` error, as
    /// does a value for a slot the response lacks. Returns whether this
    /// was the last part and the response is no error. Nothing goes out
    /// before [`flush`](Self::flush).
    pub(super) fn answer(&mut self, seq: u64, answer: Answer<'_>) -> bool {
        let at = usize::try_from(seq.wrapping_sub(self.next_deliver)).unwrap_or(usize::MAX);
        // Every part of a response lands before it is delivered.
        let Some(slot) = self.slots.get_mut(at) else { return false };
        match answer {
            Answer::Ack => {}
            Answer::Found { slots, values } => {
                for (&at, &value) in slots.iter().zip(values) {
                    fill(&mut slot.body, at, value);
                }
            }
            Answer::Failed(message) => fail(&mut slot.body, message),
            Answer::Body(body) => slot.body = body,
        }
        slot.parts = slot.parts.saturating_sub(1);
        slot.parts == 0 && !matches!(slot.body, RespBody::Error { .. })
    }

    /// Gives the sink every response complete at the front, in request
    /// order, and writes what a socket was given in one `write` (more only
    /// if the socket takes it in parts); then closes the connection if the
    /// write failed or its last response has gone out.
    pub(super) fn flush(&mut self) {
        let ready = self.slots.iter().take_while(|slot| slot.parts == 0).count();
        self.next_deliver += ready as u64;
        for Slot { id, body, .. } in self.slots.drain(..ready) {
            let response = Response { id, body };
            match &mut self.sink {
                Some(Sink::Socket { out, .. }) => proto::encode_response(&response, out),
                // A dropped receiver just means the caller left first.
                Some(Sink::Channel(tx)) => drop(tx.send(response)),
                None => {}
            }
        }
        if let Some(Sink::Socket { stream, out }) = &mut self.sink {
            if !out.is_empty() {
                let written = write_within_limit(stream, out);
                out.clear();
                if let Err(e) = written {
                    self.stalled = matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut);
                    self.close();
                    return;
                }
            }
        }
        if self.last.is_some_and(|last| self.next_deliver > last) {
            self.close();
        }
    }

    /// Opens `response` as the connection's last, complete, and delivers
    /// it: once the responses ahead of it and it have gone out, the
    /// connection closes.
    pub(super) fn finish(&mut self, response: Response) {
        self.last = Some(self.open(response.id, response.body, 0));
        self.flush();
    }

    /// Drops the sink; requests still in flight keep landing, and their
    /// responses are dropped as they complete. A socket is shut down,
    /// which ends its reader's blocking `read`.
    fn close(&mut self) {
        if let Some(Sink::Socket { stream, .. }) = &self.sink {
            drop(stream.shutdown(Shutdown::Both));
        }
        self.sink = None;
        self.closed.notify_all();
    }
}

/// Writes one lookup outcome into slot `at` of `body`.
fn fill(body: &mut RespBody, at: usize, value: Option<Value>) {
    let outcome = (value.is_some(), value.unwrap_or(0));
    match body {
        RespBody::Values(values) if at < values.len() => values[at] = outcome,
        RespBody::Value { found, value } if at == 0 => (*found, *value) = outcome,
        RespBody::Error { .. } => {}
        _ => fail(body, "lookup part landed outside its response"),
    }
}

/// Makes `body` an `Internal` error, unless a part failed it already.
fn fail(body: &mut RespBody, message: &str) {
    if !matches!(body, RespBody::Error { .. }) {
        *body = RespBody::Error { code: ErrorCode::Internal, message: message.to_string() };
    }
}

/// Writes `bytes` within [`STALL_LIMIT`] in all. The socket's write
/// timeout is the limit, set at registration, so a delivery the socket
/// takes whole is one `write` call. A write returns short when its
/// timeout expires or a signal interrupts it, and the kernel restarts the
/// timeout on every call, so the next call gets only the time left.
fn write_within_limit(stream: &mut TcpStream, mut bytes: &[u8]) -> io::Result<()> {
    let start = Instant::now();
    let mut cut = false;
    loop {
        match stream.write(bytes) {
            Ok(n) if n == bytes.len() => break,
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
        let left = STALL_LIMIT.checked_sub(start.elapsed()).filter(|left| !left.is_zero());
        stream.set_write_timeout(Some(left.ok_or(ErrorKind::TimedOut)?))?;
        cut = true;
    }
    if cut {
        stream.set_write_timeout(Some(STALL_LIMIT))?;
    }
    Ok(())
}

/// One registered connection. Requests in flight hold it directly, so
/// nothing on the request path looks a connection up by id. A default
/// entry has no sink: the requests of a connection that was not
/// registered when they were submitted still assemble and count there,
/// and their responses are dropped.
#[derive(Default)]
pub(super) struct ConnEntry {
    seq: Mutex<ConnSeq>,
}

impl ConnEntry {
    pub(super) fn new(sink: Sink) -> Arc<Self> {
        let seq = ConnSeq { sink: Some(sink), ..ConnSeq::default() };
        Arc::new(ConnEntry { seq: Mutex::new(seq) })
    }

    /// The sequencer lock. It is the one batcher lock held across a
    /// blocking system call, a socket write bounded by [`STALL_LIMIT`];
    /// no other lock is taken under it.
    pub(super) fn lock(&self) -> MutexGuard<'_, ConnSeq> {
        self.seq.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The connection's requests have ended: the one submitted last
    /// becomes its last response. Blocks until the connection closes —
    /// once that response has been written, at once if it has been
    /// already, or sooner if a write fails or stalls or the connection is
    /// closed.
    pub(super) fn await_last_response(&self) {
        let mut seq = self.lock();
        match seq.slots.len() as u64 {
            0 => seq.close(),
            waiting => seq.last = Some(seq.next_deliver + waiting - 1),
        }
        let closed = Arc::clone(&seq.closed);
        let open = closed.wait_while(seq, |seq| seq.sink.is_some());
        // Nothing is read through a poisoned guard: it is only released.
        drop(open.unwrap_or_else(PoisonError::into_inner));
    }

    /// Closes the connection; returns whether a stalled delivery had
    /// closed it already.
    pub(super) fn close(&self) -> bool {
        let mut seq = self.lock();
        seq.close();
        seq.stalled
    }
}

#[cfg(test)]
mod tests {
    use std::io::Read;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, Ordering};

    use super::*;

    fn internal(message: &str) -> RespBody {
        RespBody::Error { code: ErrorCode::Internal, message: message.to_string() }
    }

    /// Two multi-part requests whose parts land interleaved and out of
    /// order go out in request order with their merged bodies; a failed
    /// part wins its request; a closed connection's parts still land, so a
    /// FLUSH on it is counted, but nothing is written or kept.
    #[test]
    fn parts_merge_into_their_responses_and_go_out_in_request_order() {
        let (tx, rx) = mpsc::channel();
        let entry = ConnEntry::new(Sink::Channel(tx));
        let mut seq = entry.lock();
        let lookups = seq.open(7, RespBody::Values(vec![(false, 0); 3]), 2);
        let inserts = seq.open(8, RespBody::InsertedBatch { count: 4 }, 2);
        let flush = seq.open(9, RespBody::Flushed, 3);
        assert_eq!((lookups, inserts, flush), (0, 1, 2));
        assert!(!seq.answer(inserts, Answer::Ack));
        assert!(!seq.answer(lookups, Answer::Found { slots: &[2], values: &[Some(5)] }));
        assert!(!seq.answer(flush, Answer::Failed("stripe 0 failed")));
        assert!(seq.answer(inserts, Answer::Ack), "its last part, and no error");
        seq.flush();
        assert!(rx.try_recv().is_err(), "complete, but behind an incomplete response");
        assert!(!seq.answer(flush, Answer::Failed("stripe 1 failed")));
        let found = Answer::Found { slots: &[0, 1], values: &[None, Some(6)] };
        assert!(seq.answer(lookups, found));
        seq.flush();
        let values = RespBody::Values(vec![(false, 0), (true, 6), (true, 5)]);
        assert_eq!(rx.try_recv().unwrap(), Response { id: 7, body: values });
        assert_eq!(
            rx.try_recv().unwrap(),
            Response { id: 8, body: RespBody::InsertedBatch { count: 4 } }
        );
        assert!(rx.try_recv().is_err(), "the FLUSH has a part out");
        assert!(!seq.answer(flush, Answer::Ack), "the last part lands on an error");
        seq.flush();
        assert_eq!(rx.try_recv().unwrap(), Response { id: 9, body: internal("stripe 0 failed") });
        assert!(seq.slots.is_empty());

        // A value for a slot the response lacks fails it.
        let lookup = seq.open(10, RespBody::Value { found: false, value: 0 }, 1);
        assert!(!seq.answer(lookup, Answer::Found { slots: &[1], values: &[Some(1)] }));
        seq.flush();
        let outside = internal("lookup part landed outside its response");
        assert_eq!(rx.try_recv().unwrap(), Response { id: 10, body: outside });

        seq.close();
        let flush = seq.open(11, RespBody::Flushed, 2);
        let lookup = seq.open(12, RespBody::Value { found: false, value: 0 }, 1);
        assert!(seq.answer(lookup, Answer::Found { slots: &[0], values: &[Some(3)] }));
        assert!(!seq.answer(flush, Answer::Ack));
        assert!(seq.answer(flush, Answer::Ack), "a closed connection still counts a FLUSH");
        seq.flush();
        assert!(seq.slots.is_empty(), "nothing of a closed connection is kept");
        assert!(!seq.answer(flush, Answer::Ack), "a part of a delivered response finds nothing");
        assert_eq!(rx.try_recv(), Err(mpsc::TryRecvError::Disconnected));
    }

    /// The limit bounds a delivery, not each `write`: a peer that drains a
    /// little now and then lets a call make progress before its own
    /// timeout, so retrying until done would outlast the limit.
    #[test]
    fn a_slowly_drained_delivery_gives_up_at_the_limit() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut sender = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut receiver, _) = listener.accept().unwrap();
        sender.set_write_timeout(Some(STALL_LIMIT)).unwrap();
        let done = Arc::new(AtomicBool::new(false));
        let drained = Arc::clone(&done);
        let drain = std::thread::spawn(move || {
            let mut chunk = [0u8; 4096];
            while !drained.load(Ordering::SeqCst) && receiver.read(&mut chunk).is_ok() {
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let start = Instant::now();
        let written = write_within_limit(&mut sender, &vec![0u8; 64 << 20]);
        let took = start.elapsed();
        done.store(true, Ordering::SeqCst);
        drain.join().unwrap();
        let stalled = written.map_err(|e| e.kind());
        assert!(matches!(stalled, Err(ErrorKind::TimedOut | ErrorKind::WouldBlock)), "{stalled:?}");
        assert!(took < STALL_LIMIT + Duration::from_millis(50), "gave up after {took:?}");
    }
}
