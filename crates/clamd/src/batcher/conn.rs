//! A connection's sequencer, which puts its responses back in request
//! order, and the sink they go to: a served connection's socket, or an
//! in-process caller's channel.

use std::collections::BTreeMap;
use std::io::{self, ErrorKind, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::proto::{self, Response};

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

/// Per-connection response sequencer state.
#[derive(Default)]
pub(super) struct ConnSeq {
    /// Where responses go; `None` once the connection is closed, after
    /// which completions are dropped.
    sink: Option<Sink>,
    /// Next sequence number to hand out at submit time.
    pub(super) next_submit: u64,
    /// Next sequence number the sink may be given.
    next_deliver: u64,
    /// Completions that arrived ahead of their turn.
    parked: BTreeMap<u64, Response>,
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
    /// Delivers `response` as completion `seq`: given to the sink at once
    /// if it is the connection's next expected response, together with
    /// whatever parked behind it; parked until its turn otherwise. What a
    /// socket is given waits for [`flush`](Self::flush).
    pub(super) fn deliver(&mut self, seq: u64, response: Response) {
        if seq != self.next_deliver {
            if self.sink.is_some() {
                self.parked.insert(seq, response);
            }
            return;
        }
        let mut next = Some(response);
        while let Some(response) = next {
            match &mut self.sink {
                Some(Sink::Socket { out, .. }) => proto::encode_response(&response, out),
                // A dropped receiver just means the caller left first.
                Some(Sink::Channel(tx)) => drop(tx.send(response)),
                None => return,
            }
            self.next_deliver += 1;
            next = self.parked.remove(&self.next_deliver);
        }
    }

    /// Writes what was delivered since the last flush in one `write` (more
    /// only if the socket takes it in parts), then closes the connection
    /// if the write failed or its last response has gone out.
    pub(super) fn flush(&mut self) {
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

    /// Numbers `response` as the connection's last and delivers it: once
    /// the responses ahead of it and it have gone out, the connection
    /// closes.
    pub(super) fn finish(&mut self, response: Response) {
        let seq = self.next_submit;
        self.next_submit += 1;
        self.last = Some(seq);
        self.deliver(seq, response);
        self.flush();
    }

    /// Drops the sink and whatever was parked for it; requests still in
    /// flight complete into nothing. A socket is shut down, which ends
    /// its reader's blocking `read`.
    fn close(&mut self) {
        if let Some(Sink::Socket { stream, .. }) = &self.sink {
            drop(stream.shutdown(Shutdown::Both));
        }
        self.sink = None;
        self.parked.clear();
        self.closed.notify_all();
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
/// nothing on the request path looks a connection up by id.
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
        self.seq.lock().expect("conn seq lock")
    }

    /// The connection's requests have ended: the one submitted last
    /// becomes its last response. Blocks until the connection closes —
    /// once that response has been written, at once if it has been
    /// already, or sooner if a write fails or stalls or the connection is
    /// closed.
    pub(super) fn await_last_response(&self) {
        let mut seq = self.lock();
        if seq.next_deliver == seq.next_submit {
            seq.close();
        } else {
            seq.last = Some(seq.next_submit - 1);
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
