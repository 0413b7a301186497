//! The `clamd` TCP server: connection handling over the group-commit
//! [`Engine`].
//!
//! Each accepted connection gets a **reader** thread (decode frames,
//! submit to the batcher) and a **writer** thread (drain that
//! connection's response channel, encode, flush). Requests from all
//! connections funnel into the batcher's per-stripe shard queues
//! ([`BatcherConfig::shards`]), so concurrent arrivals — whether
//! pipelined on one connection or spread across many — coalesce into
//! per-shard group-commit gathers that commit independent stripes
//! concurrently. `shards: 1` ([`BatcherConfig::default`]) is the
//! single-gather baseline; the `clamd` binary defaults to one shard per
//! stripe.
//!
//! A protocol violation ([`WireError`](crate::proto::WireError)) is
//! connection-fatal: the server counts it, answers with one structured
//! `ERROR` frame — echoing the offending request id when the header's
//! magic and version checked out, id 0 otherwise — and closes that
//! connection. Other connections are unaffected.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use bufferhash::{Clam, ClamConfig, ClamStats, RecoveryReport, StripedClam};
use flashsim::{Device, FileDevice, SharedDevice, Ssd};

use crate::batcher::{BatcherConfig, Engine};
use crate::proto::{self, RespBody, Response};
use crate::stats::ServerStats;

/// How often blocked reader/accept loops re-check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(20);
/// Read chunk size for connection readers.
const READ_CHUNK: usize = 64 * 1024;

/// Configuration for a `clamd` server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Number of CLAM stripes the key space is hashed over.
    pub stripes: usize,
    /// Total flash capacity across all stripes, in bytes.
    pub flash_bytes: u64,
    /// Total DRAM budget across all stripes, in bytes.
    pub dram_bytes: u64,
    /// Group-commit batcher tuning.
    pub batcher: BatcherConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            stripes: 4,
            flash_bytes: 64 << 20,
            dram_bytes: 8 << 20,
            batcher: BatcherConfig::default(),
        }
    }
}

impl ServerConfig {
    /// Per-stripe CLAM configuration derived from the totals.
    fn stripe_config(&self) -> bufferhash::Result<ClamConfig> {
        ClamConfig::small_test(
            self.flash_bytes / self.stripes as u64,
            self.dram_bytes / self.stripes as u64,
        )
    }
}

/// Boot errors: device, store or socket failures while bringing a server
/// up. Boxed because three subsystems' error types meet here.
pub type BootError = Box<dyn std::error::Error + Send + Sync>;

/// Builds a fresh in-memory store: one simulated Intel-class SSD
/// partitioned into `config.stripes` stripes sharing the device's
/// completion ring.
pub fn boot_sim(config: &ServerConfig) -> Result<StripedClam<SharedDevice<Ssd>>, BootError> {
    let device = SharedDevice::new(Ssd::intel(config.flash_bytes)?);
    let stripe_config = config.stripe_config()?;
    let mut stripes = Vec::with_capacity(config.stripes);
    for partition in device.split(config.stripes)? {
        stripes.push(Clam::new(partition, stripe_config.clone())?);
    }
    Ok(StripedClam::new(stripes))
}

/// Builds (or recovers) a file-backed store at `path`.
///
/// When `path` already exists the file is opened in place, partitioned
/// into stripes, and every stripe is **recovered** from its flash
/// contents ([`StripedClam::recover`]); the per-stripe
/// [`RecoveryReport`]s come back alongside the store. A missing file is
/// created at `config.flash_bytes` and booted empty.
pub fn boot_file(
    path: &std::path::Path,
    config: &ServerConfig,
    queue_depth: usize,
) -> Result<(StripedClam<SharedDevice<FileDevice>>, Vec<RecoveryReport>), BootError> {
    let stripe_config = config.stripe_config()?;
    if path.exists() {
        let device = SharedDevice::new(FileDevice::open_existing(path, queue_depth)?);
        let pairs = device
            .split(config.stripes)?
            .into_iter()
            .map(|partition| (partition, stripe_config.clone()))
            .collect();
        let (store, reports) = StripedClam::recover(pairs)?;
        Ok((store, reports))
    } else {
        let device =
            SharedDevice::new(FileDevice::with_queue_depth(path, config.flash_bytes, queue_depth)?);
        let mut stripes = Vec::with_capacity(config.stripes);
        for partition in device.split(config.stripes)? {
            stripes.push(Clam::new(partition, stripe_config.clone())?);
        }
        Ok((StripedClam::new(stripes), Vec::new()))
    }
}

/// A running `clamd` server.
pub struct ClamdServer<D: Device + 'static> {
    engine: Engine<D>,
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ClamdServer<SharedDevice<Ssd>> {
    /// Starts a server over a fresh simulated-SSD store.
    pub fn start_sim(config: ServerConfig) -> Result<Self, BootError> {
        let store = boot_sim(&config)?;
        Self::start(store, Vec::new(), config)
    }
}

impl<D: Device + 'static> ClamdServer<D> {
    /// Starts serving `store` on `config.addr`. `recovery` carries the
    /// boot-time recovery reports (empty for a fresh store).
    pub fn start(
        store: StripedClam<D>,
        recovery: Vec<RecoveryReport>,
        config: ServerConfig,
    ) -> Result<Self, BootError> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let engine = Engine::start(store, recovery, config.batcher.clone());
        let shutdown = Arc::new(AtomicBool::new(false));
        let conn_threads = Arc::new(Mutex::new(Vec::new()));

        let accept_engine = engine.clone();
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_conns = Arc::clone(&conn_threads);
        let accept_thread = std::thread::Builder::new()
            .name("clamd-accept".to_string())
            .spawn(move || {
                let next_conn = AtomicU64::new(1);
                while !accept_shutdown.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let conn = next_conn.fetch_add(1, Ordering::SeqCst);
                            spawn_connection(
                                stream,
                                conn,
                                &accept_engine,
                                &accept_shutdown,
                                &accept_conns,
                            );
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            std::thread::sleep(POLL_INTERVAL);
                        }
                        Err(_) => break,
                    }
                }
            })
            .expect("spawn accept thread");

        Ok(ClamdServer {
            engine,
            local_addr,
            shutdown,
            accept_thread: Some(accept_thread),
            conn_threads,
        })
    }

    /// The address the server is listening on (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshot of the server ledger (per-shard gather ledgers merged).
    pub fn stats(&self) -> ServerStats {
        self.engine.stats()
    }

    /// Each batcher shard's own gather ledger, in shard order.
    pub fn per_shard_stats(&self) -> Vec<ServerStats> {
        self.engine.per_shard_stats()
    }

    /// Number of batcher shards actually running.
    pub fn num_shards(&self) -> usize {
        self.engine.num_shards()
    }

    /// Aggregated store statistics across all stripes.
    pub fn clam_stats(&self) -> ClamStats {
        self.engine.clam_stats()
    }

    /// Per-stripe boot recovery reports (empty for a fresh store).
    pub fn recovery_reports(&self) -> Vec<RecoveryReport> {
        self.engine.recovery_reports().to_vec()
    }

    /// Stops accepting, drains every queued request (their responses are
    /// still delivered), closes all connections and joins every thread.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(handle) = self.accept_thread.take() {
            handle.join().expect("accept thread panicked");
        }
        // Drain the batcher first so in-flight requests reach their
        // connection channels, then drop the senders so writers flush the
        // buffered responses and exit.
        self.engine.shutdown();
        self.engine.unregister_all();
        let handles = std::mem::take(&mut *self.conn_threads.lock().expect("conn threads lock"));
        for handle in handles {
            handle.join().expect("connection thread panicked");
        }
    }
}

impl<D: Device + 'static> Drop for ClamdServer<D> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawns the reader/writer thread pair for one accepted connection.
fn spawn_connection<D: Device + 'static>(
    stream: TcpStream,
    conn: u64,
    engine: &Engine<D>,
    shutdown: &Arc<AtomicBool>,
    conn_threads: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let _ = stream.set_nodelay(true);
    let responses = engine.register_conn(conn);
    let Ok(write_half) = stream.try_clone() else {
        engine.unregister_conn(conn);
        return;
    };

    let reader_engine = engine.clone();
    let reader_shutdown = Arc::clone(shutdown);
    let reader = std::thread::Builder::new()
        .name(format!("clamd-read-{conn}"))
        .spawn(move || read_loop(stream, conn, &reader_engine, &reader_shutdown))
        .expect("spawn reader thread");

    let writer = std::thread::Builder::new()
        .name(format!("clamd-write-{conn}"))
        .spawn(move || write_loop(write_half, &responses))
        .expect("spawn writer thread");

    let mut threads = conn_threads.lock().expect("conn threads lock");
    // Join the threads of connections that have closed, so the list holds
    // the live connections' threads and not every one since start.
    let (done, live): (Vec<_>, Vec<_>) = threads.drain(..).partition(|h| h.is_finished());
    *threads = live;
    for handle in done {
        handle.join().expect("connection thread panicked");
    }
    threads.push(reader);
    threads.push(writer);
}

/// Decodes frames off one connection and submits them for group commit,
/// every frame one `read` returned in one hand-off.
fn read_loop<D: Device + 'static>(
    mut stream: TcpStream,
    conn: u64,
    engine: &Engine<D>,
    shutdown: &Arc<AtomicBool>,
) {
    // A finite read timeout keeps the reader responsive to shutdown even
    // on an idle connection.
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let mut buf: Vec<u8> = Vec::new();
    let mut start = 0usize;
    let mut chunk = [0u8; READ_CHUNK];
    let mut requests = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue;
            }
            Err(_) => break,
        }
        let violation = loop {
            match proto::decode_request(&buf[start..]) {
                Ok(Some((request, consumed))) => {
                    start += consumed;
                    requests.push(request);
                }
                Ok(None) => break None,
                Err(wire) => break Some(wire),
            }
        };
        // The frames ahead of a violation were well-formed and still run.
        engine.submit_chunk(conn, requests.drain(..));
        if let Some(wire) = violation {
            engine.record_wire_error();
            engine.respond(
                conn,
                Response {
                    id: proto::peek_request_id(&buf[start..]).unwrap_or(0),
                    body: RespBody::Error { code: wire.code(), message: wire.to_string() },
                },
            );
            break;
        }
        // Compact the buffer once the parsed prefix dominates it.
        if start > 0 && start >= buf.len() / 2 {
            buf.drain(..start);
            start = 0;
        }
    }
    // Give the writer a moment to flush any error frame, then detach. On
    // server-wide shutdown the engine drains first and unregisters
    // centrally, so this per-connection unregister only fires for
    // client-initiated closes and protocol errors.
    if !shutdown.load(Ordering::SeqCst) {
        engine.unregister_conn(conn);
    }
}

/// Drains one connection's response channel onto the socket: every
/// response ready at once is encoded into one buffer and written with
/// one `write_all`. Returns when the channel disconnects (connection
/// unregistered) or the socket dies.
fn write_loop(mut stream: TcpStream, responses: &mpsc::Receiver<Response>) {
    let mut buf = Vec::new();
    while let Ok(response) = responses.recv() {
        buf.clear();
        proto::encode_response(&response, &mut buf);
        while let Ok(next) = responses.try_recv() {
            proto::encode_response(&next, &mut buf);
        }
        if stream.write_all(&buf).is_err() {
            break;
        }
    }
}

/// Convenience constructor used by tests and the smoke harness: a fresh
/// sim-backed server on an ephemeral loopback port.
pub fn ephemeral_sim_server(
    stripes: usize,
    flash_bytes: u64,
    dram_bytes: u64,
) -> Result<ClamdServer<SharedDevice<Ssd>>, BootError> {
    ephemeral_sim_server_sharded(stripes, 1, flash_bytes, dram_bytes)
}

/// Like [`ephemeral_sim_server`] but with an explicit batcher shard
/// count (clamped to `[1, stripes]` by the engine).
pub fn ephemeral_sim_server_sharded(
    stripes: usize,
    shards: usize,
    flash_bytes: u64,
    dram_bytes: u64,
) -> Result<ClamdServer<SharedDevice<Ssd>>, BootError> {
    ClamdServer::start_sim(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        stripes,
        flash_bytes,
        dram_bytes,
        batcher: BatcherConfig { shards, ..BatcherConfig::default() },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ErrorCode;

    #[test]
    fn server_binds_ephemeral_port_and_shuts_down() {
        let mut server = ephemeral_sim_server(2, 16 << 20, 4 << 20).unwrap();
        assert_ne!(server.local_addr().port(), 0);
        server.shutdown();
        // Idempotent.
        server.shutdown();
    }

    #[test]
    fn config_derives_per_stripe_share() {
        let config = ServerConfig { stripes: 4, ..Default::default() };
        let stripe = config.stripe_config().unwrap();
        assert_eq!(stripe.flash_capacity, config.flash_bytes / 4);
    }

    #[test]
    fn raw_garbage_gets_a_structured_error_frame() {
        let server = ephemeral_sim_server(2, 16 << 20, 4 << 20).unwrap();
        let mut sock = TcpStream::connect(server.local_addr()).unwrap();
        sock.write_all(b"GET / HTTP/1.1\r\n\r\n....................").unwrap();
        sock.flush().unwrap();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        loop {
            match sock.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    buf.extend_from_slice(&chunk[..n]);
                    if let Ok(Some(_)) = proto::decode_response(&buf) {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
        let (response, _) = proto::decode_response(&buf).unwrap().expect("one error frame");
        assert_eq!(response.id, 0);
        let RespBody::Error { code, .. } = response.body else { panic!("expected error") };
        assert_eq!(code, ErrorCode::BadMagic);
        assert_eq!(server.stats().wire_errors, 1);
    }

    #[test]
    fn closed_connections_leave_no_thread_handles_behind() {
        let server = ephemeral_sim_server(1, 16 << 20, 4 << 20).unwrap();
        let handles = || server.conn_threads.lock().unwrap().len();
        let running =
            || server.conn_threads.lock().unwrap().iter().filter(|h| !h.is_finished()).count();
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        let wait = |what: &str| {
            assert!(std::time::Instant::now() < deadline, "{what}: {} handles", handles());
            std::thread::sleep(Duration::from_millis(5));
        };
        for _ in 0..200 {
            drop(TcpStream::connect(server.local_addr()).unwrap());
        }
        while server.stats().connections_closed < 200 || running() > 0 {
            wait("200 closed connections");
        }
        // The next accept must forget the 200 finished pairs.
        let _open = TcpStream::connect(server.local_addr()).unwrap();
        while running() < 2 {
            wait("the open connection's reader and writer");
        }
        assert_eq!(handles(), 2, "only the open connection's two threads are held");
    }
}
